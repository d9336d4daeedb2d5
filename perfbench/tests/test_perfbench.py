"""Tests of the benchmark's own code, at a tiny size.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# 60 utterances: enough words for MINE (>= 100) and enough held-out
# utterances (6) that two of them share a word count for transfer pairs.
TINY = workloads.Sizes(
    corpus={"n_utterances": 60},
    train_steps=6,
    cell_train_steps=4,
    cell_mine={"steps": 10, "hidden": 8, "batch_size": 64, "eval_every": 5},
    cell_predictor_steps=3,
    cell_transfer_pairs=4,
    cli_train_steps=2,
    cli_queries=4,
    cli_mine_steps=5,
    cli_predictor_steps=3,
    setup_reps=2,
)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(layers.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)], sizes=TINY)
    out = capsys.readouterr().out
    result = last_json(out)
    assert rc == 0, out
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    assert not list((BENCH / "work").glob(f"{workload}-*")), "work directory left behind"


def test_spec_matches_metric_tables():
    s = spec()
    assert s["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in s["workloads"]} == layers.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in s["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in layers.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER
    ] + [layers.OVERHEAD]


def test_every_per_layer_metric_names_its_workload():
    for m in layers.PER_LAYER:
        assert m.workload in layers.WORKLOADS, m.name
        assert m.needs and m.moves, m.name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_readme_documents_every_per_layer_metric():
    readme = (BENCH / "README.md").read_text()
    for m in spec()["per_layer"]:
        assert f"`{m['name']}`" in readme, m["name"]
