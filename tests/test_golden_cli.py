"""Golden bytes of the command line: the sha256 of every file a tiny chain of
`ibvq` commands writes, checked in as ``tests/data/golden_cli.json``.

The chain runs in-process through `cli.main`: `gen-data` (40 utterances,
seed 3), `train` (K=4, 3 steps), one `reconstruct`, one word-count-matched
`transfer`, `mi` (100 MINE steps) and `predict` (5 predictor steps). It
covers each command's output format: the corpus files, the checkpoint, the
loss curve, the `%.17g` frame rows, the MI table and the `%d` code rows.
The checkpoint's `corpus_path.txt` holds the corpus directory's absolute
path and is left out.

A change that moves these bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints each file whose digest moved. Record every regeneration in
CHANGES.md, with its cause.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from ibvq.harness.cli import main as cli_main
from ibvq.harness.experiments import matched_pairs
from ibvq.synthdata import read_corpus

GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli.json"
LEFT_OUT = {"ckpt/corpus_path.txt"}


def golden_cli(root: Path) -> dict:
    """The chain's output files under ``root``, each relative path mapped
    to the sha256 of its bytes."""
    out, inputs = root / "out", root / "inputs"
    inputs.mkdir()
    corpus, ckpt = out / "corpus", out / "ckpt"
    (inputs / "corpus.json").write_text('{"n_utterances": 40}\n')
    (inputs / "text.txt").write_text("3 1 4 1 5\n")

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0, argv

    run("gen-data", "--config", inputs / "corpus.json", "--seed", 3, "--out", corpus)
    run("train", "--corpus", corpus, "--K", 4, "--steps", 3, "--out", ckpt)
    generated = read_corpus(corpus)
    utts = generated.utterances
    [(ref, target)] = matched_pairs(generated, list(range(len(utts))), 1, seed=0)
    run("reconstruct", "--ckpt", ckpt, "--utt", "utt_0000", "--out", out / "reconstruct.csv")
    run("transfer", "--ckpt", ckpt, "--ref", utts[ref].spec.utt_id,
        "--target", utts[target].spec.utt_id, "--out", out / "transfer.csv")
    run("mi", "--ckpt", ckpt, "--corpus", corpus, "--mine-steps", 100, "--out", out / "mi.csv")
    run("predict", "--ckpt", ckpt, "--text", inputs / "text.txt", "--predictor-steps", 5,
        "--out", out / "predict.csv")
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.relative_to(out).as_posix() not in LEFT_OUT}


def test_cli_outputs_match_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN_CLI.read_text())
    actual = golden_cli(tmp_path)
    assert actual.keys() == expected.keys()
    moved = [name for name in expected if actual[name] != expected[name]]
    assert moved == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = golden_cli(Path(tmp))
    if GOLDEN_CLI.is_file():
        old = json.loads(GOLDEN_CLI.read_text())
        for name in sorted(old.keys() | digests.keys()):
            if old.get(name) != digests.get(name):
                print(f"{name}: {old.get(name)} -> {digests.get(name)}")
    GOLDEN_CLI.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_CLI}", file=sys.stderr)
