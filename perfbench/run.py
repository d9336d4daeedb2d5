"""Benchmark of the ibvq package, run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads: train, cell, cli (see README.md next to this file). The package
is imported from the checkout's own src/. The output is each metric by name
and unit, then a run record, then as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics, or
with --trace 1 the per-layer ones. The exit code is 0 only when every
operation and output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Small matrices and one caller: more BLAS threads add contention, not speed.
BLAS_THREADS = 1


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "cell", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ibvq" / "__init__.py").is_file():
        print(f"error: no ibvq package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()

    t0 = perf_counter()
    import ibvq.harness.cli  # noqa: F401 - imports the whole package, numpy and scipy
    import_s = perf_counter() - t0

    import ibvq

    imported = Path(ibvq.__file__).resolve().parent
    if imported != (SRC / "ibvq").resolve():
        print(f"error: imported ibvq from {imported}, not from {SRC}", file=sys.stderr)
        return 2

    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = workloads.execute(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            sizes=sizes or workloads.Sizes(), import_s=import_s,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds when no other run is using it

    record = dict(report.record)
    record.update(workloads.environment())
    record["ibvq"] = str(imported)
    record["git_sha"] = git_sha(ROOT)
    record["loadavg_before"] = load_before
    record["loadavg_after"] = os.getloadavg()
    if report.trace is not None:
        out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report.trace))
        record["trace_file"] = str(out.relative_to(ROOT))

    for problem in report.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for key, (value, unit) in report.named.items():
        print(f"{key} = {value:.6g} {unit}")
    for key, (value, unit) in report.metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print("record " + json.dumps(record))
    correct = report.failed == 0 and bool(report.metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
