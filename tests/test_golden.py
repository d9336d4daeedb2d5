"""Golden reference runs: short K=4 and K=0 trainings whose loss curves
(and, at K=4, final codes) are checked in as ``tests/data/golden_k4.json``
and ``tests/data/golden_k0.json``.

Each run (40 utterances, G=2, 60 steps of batch 8, warm-up 20, reseed check
every 20) takes about a second. At K=4 it covers the warm-up, k-means++
codebook seeding, quantized steps and reseed checks; at K=0 the text-only
baseline, whose decoder sees zero prosody vectors from the first step. The
tests repeat them and compare every loss at rtol 1e-12 and the codes
exactly.

A change that moves these numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which prints the largest relative move of any loss against each old file.
Record every regeneration in CHANGES.md, with its cause and that move.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt

import ibvq.numcore as nc
from ibvq.harness.training import split_corpus, train_autoencoder
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus

DATA = Path(__file__).parent / "data"
GOLDEN = {k: DATA / f"golden_k{k}.json" for k in (4, 0)}
LOSSES = ("mse", "codebook", "commitment")


def golden_run(k: int) -> dict:
    """The reference run's losses at K=``k`` (``repr`` strings, one list per
    term) and, when there are codes, the code block of each training
    utterance."""
    corpus = build_corpus(CorpusConfig(n_utterances=40, seed=7))
    train_idx, _ = split_corpus(corpus)
    trained = train_autoencoder(
        corpus, CapacityConfig(K=k, G=2), nc.TrainConfig(steps=60, batch_size=8, seed=3),
        train_indices=train_idx, warmup_steps=20, reseed_every=20,
    )
    run = {name: [repr(getattr(p, name)) for p in trained.loss_curve] for name in LOSSES}
    if trained.codes is not None:
        run["codes"] = [block.tolist() for block in trained.codes]
    return run


def losses(run: dict) -> np.ndarray:
    return np.array([[float(v) for v in run[name]] for name in LOSSES])


def check_against_reference(k: int) -> None:
    expected = json.loads(GOLDEN[k].read_text())
    actual = golden_run(k)
    assert len(actual["mse"]) == 60
    npt.assert_allclose(losses(actual), losses(expected), rtol=1e-12, atol=0)
    assert actual.get("codes") == expected.get("codes")


def test_golden_run_matches_the_reference():
    check_against_reference(4)


def test_golden_k0_run_matches_the_reference():
    check_against_reference(0)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for k, path in GOLDEN.items():
        run = golden_run(k)
        if path.is_file():
            old, new = losses(json.loads(path.read_text())), losses(run)
            if old.shape != new.shape:
                print(f"K={k}: loss curve shape {old.shape} -> {new.shape}")
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    moves = np.where(old == new, 0.0, np.abs(new - old) / np.abs(old))
                print(f"K={k}: largest relative loss move: {moves.max():.3g}")
        path.write_text(json.dumps(run, indent=0) + "\n")
        print(f"wrote {path}", file=sys.stderr)
