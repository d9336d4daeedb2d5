"""Golden reference run: a short K=4 training whose loss curve and final
codes are checked in as ``tests/data/golden_k4.json``.

The run (40 utterances, K=4, G=2, 60 steps of batch 8, warm-up 20, reseed
check every 20) covers the warm-up, k-means++ codebook seeding, quantized
steps and reseed checks in about a second. The test repeats it and compares
every loss at rtol 1e-12 and the codes exactly.

A change that moves these numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the largest relative move of any loss against the old file.
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

GOLDEN = Path(__file__).parent / "data" / "golden_k4.json"
LOSSES = ("mse", "codebook", "commitment")


def golden_run() -> dict:
    """The reference run's losses (``repr`` strings, one list per term) and
    the code block of each training utterance."""
    corpus = build_corpus(CorpusConfig(n_utterances=40, seed=7))
    train_idx, _ = split_corpus(corpus)
    trained = train_autoencoder(
        corpus, CapacityConfig(K=4, G=2), nc.TrainConfig(steps=60, batch_size=8, seed=3),
        train_indices=train_idx, warmup_steps=20, reseed_every=20,
    )
    run = {name: [repr(getattr(p, name)) for p in trained.loss_curve] for name in LOSSES}
    run["codes"] = [block.tolist() for block in trained.codes]
    return run


def losses(run: dict) -> np.ndarray:
    return np.array([[float(v) for v in run[name]] for name in LOSSES])


def test_golden_run_matches_the_reference():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_run()
    assert len(actual["mse"]) == 60
    npt.assert_allclose(losses(actual), losses(expected), rtol=1e-12, atol=0)
    assert actual["codes"] == expected["codes"]


if __name__ == "__main__":
    run = golden_run()
    if GOLDEN.is_file():
        old, new = losses(json.loads(GOLDEN.read_text())), losses(run)
        if old.shape != new.shape:
            print(f"loss curve shape {old.shape} -> {new.shape}")
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                moves = np.where(old == new, 0.0, np.abs(new - old) / np.abs(old))
            print(f"largest relative loss move: {moves.max():.3g}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run, indent=0) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
