"""Golden reference runs: short K=4 and K=0 trainings whose loss curves
(and, at K=4, final codes) are checked in as ``tests/data/golden_k4.json``
and ``tests/data/golden_k0.json``, and one tiny K=4 sweep cell whose
`CellResult` is checked in as ``tests/data/golden_cell.json``.

Each run (40 utterances, G=2, 60 steps of batch 8, warm-up 20, reseed check
every 20, set with `recipe.recipe`) takes about a second. At K=4 it covers
the warm-up, k-means++ codebook seeding, quantized steps and reseed checks;
at K=0 the text-only baseline, whose decoder sees zero prosody vectors from
the first step. The tests repeat them and compare every loss at rtol 1e-12
and the codes exactly.

The cell (48 utterances, 19 of them held out, 40 training steps, 20
transfer pairs, a few MINE and predictor steps) pins the evaluation
numerics the same way: held-out reconstruction and transfer each span two
packed passes, and every `CellResult` column is compared, floats at rtol
1e-12 (NaN equal to NaN) and everything else exactly.

A change that moves these numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which prints the largest relative move of any loss (or cell metric) against
each old file. It trains through `golden_run` and `golden_cell`, the
functions the tests call, so the regenerated files and the tests use the
same recipe (warm-up 20, reseed 20) and cannot drift apart.
Record every regeneration in CHANGES.md, with its cause and that move.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt

import ibvq.numcore as nc
from ibvq.harness.experiments import CellResult, ExperimentConfig, run_sweep
from ibvq.harness.training import split_corpus, train_autoencoder
from ibvq.mi import MineConfig
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus
from recipe import recipe

DATA = Path(__file__).parent / "data"
GOLDEN = {k: DATA / f"golden_k{k}.json" for k in (4, 0)}
GOLDEN_CELL = DATA / "golden_cell.json"
FLOAT_COLUMNS = [f.name for f in dataclasses.fields(CellResult) if f.type == "float"]
LOSSES = ("mse", "codebook", "commitment")


def golden_run(k: int) -> dict:
    """The reference run's losses at K=``k`` (``repr`` strings, one list per
    term) and, when there are codes, the code block of each training
    utterance."""
    corpus = build_corpus(CorpusConfig(n_utterances=40, seed=7))
    train_idx, _ = split_corpus(corpus)
    with recipe(warmup=20, reseed=20):
        trained = train_autoencoder(
            corpus, CapacityConfig(K=k, G=2), nc.TrainConfig(steps=60, batch_size=8, seed=3),
            train_indices=train_idx,
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


def golden_cell(out_dir: Path) -> dict:
    """Every column of the reference sweep cell, floats as ``repr`` strings."""
    cfg = ExperimentConfig(
        capacities=(4,),
        corpus=CorpusConfig(n_utterances=48, seed=7),
        train=nc.TrainConfig(steps=40, batch_size=8),
        seeds=(3,),
        holdout_fraction=0.4,
        transfer_pairs=20,
        predictor_steps=20,
        mine=MineConfig(steps=30, hidden=8, batch_size=64, eval_every=10, seed=4),
    )
    (cell,) = run_sweep(cfg, out_dir)
    return {name: repr(value) if name in FLOAT_COLUMNS else value
            for name, value in dataclasses.asdict(cell).items()}


def cell_floats(cell: dict) -> np.ndarray:
    return np.array([float(cell[name]) for name in FLOAT_COLUMNS])


def test_golden_run_matches_the_reference():
    check_against_reference(4)


def test_golden_k0_run_matches_the_reference():
    check_against_reference(0)


def test_golden_cell_matches_the_reference(tmp_path):
    expected = json.loads(GOLDEN_CELL.read_text())
    actual = golden_cell(tmp_path)
    assert actual["status"] == "ok", actual["error"]
    assert actual.keys() == expected.keys()
    npt.assert_allclose(cell_floats(actual), cell_floats(expected), rtol=1e-12, atol=0,
                        equal_nan=True)
    for name in expected.keys() - set(FLOAT_COLUMNS):
        assert actual[name] == expected[name], name


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
    with tempfile.TemporaryDirectory() as tmp:
        cell = golden_cell(Path(tmp))
    if GOLDEN_CELL.is_file():
        old, new = cell_floats(json.loads(GOLDEN_CELL.read_text())), cell_floats(cell)
        with np.errstate(divide="ignore", invalid="ignore"):
            same = (old == new) | (np.isnan(old) & np.isnan(new))
            moves = np.where(same, 0.0, np.abs(new - old) / np.abs(old))
        print(f"cell: largest relative metric move: {moves.max():.3g}")
    GOLDEN_CELL.write_text(json.dumps(cell, indent=0) + "\n")
    print(f"wrote {GOLDEN_CELL}", file=sys.stderr)
