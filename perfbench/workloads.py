"""The three workloads and the closed loop that times them.

One caller drives the package in-process and issues its next call only when
the previous one returned. A workload's unit of work is repeated until the
run's time is up: a training run (`train`), one sweep cell (`cell`) or one
CLI command sequence (`cli`).

Every run does the same work whatever its seed, so that runs differ only in
timing noise: the corpus is always the default `CorpusConfig` (its size
changes by 2.5x between corpus seeds) and the batch order is fixed (the
cheapest batch of a run changes by about 17 % between order seeds). The
workload seed picks the model initialisation (`train`), the MINE seed
(`cell`) and the queries and model seeds (`cli`).
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ibvq import synthdata
from ibvq.harness import cli, experiments, training
from ibvq.decoder import DecoderConfig
from ibvq.encoder import EncoderConfig
from ibvq.numcore import TrainConfig
from ibvq.quantizer import CapacityConfig

import layers
from tracer import StepClock, Tracer

K, G, BATCH = 16, 2, 8
ORDER_SEED = 1  # batch order and sampling of every training run


@dataclass(frozen=True)
class Sizes:
    """Work per unit. The defaults are the benchmark; tests shrink them."""

    corpus: dict = field(default_factory=dict)  # CorpusConfig overrides
    train_steps: int = 250
    cell_train_steps: int = 120
    cell_mine: dict = field(default_factory=lambda: {"steps": 1500, "hidden": 32,
                                                     "batch_size": 256})
    cell_predictor_steps: int = 400
    cell_transfer_pairs: int = 40
    cli_train_steps: int = 5
    cli_queries: int = 40
    cli_mine_steps: int = 100
    cli_predictor_steps: int = 50
    setup_reps: int = 3


class Ledger:
    """Operations and output checks attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check failed: {label} {detail}".rstrip())
        return ok


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(base: Path) -> dict[str, str]:
    return {
        str(p.relative_to(base)): sha256(p.read_bytes())
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }


def percentile(xs: list[float], q: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


@dataclass
class Unit:
    wall_s: float
    quality: float
    digests: dict[str, str]
    op_ms: list[float] = field(default_factory=list)  # training steps or CLI queries
    named: dict[str, float] = field(default_factory=dict)


def mi_ceiling(word_ids: np.ndarray) -> float:
    """min(G ln K, H(word)): no code can carry more about the word."""
    return min(G * math.log(K), synthdata.entropy_discrete(word_ids))


class Workload:
    name = ""
    min_units = 2
    steps_are_ops = True  # op latency samples are training steps

    def __init__(self, seed: int, sizes: Sizes, workdir: Path, ledger: Ledger):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ledger = ledger
        self.tracer: Tracer | None = None

    def corpus_config(self) -> synthdata.CorpusConfig:
        return synthdata.CorpusConfig(**self.sizes.corpus)

    def cli(self, argv: list) -> tuple[float, bool]:
        """Run one `ibvq` command in-process; returns (wall seconds, ok).

        The heap is collected first, untimed, so that each command starts
        as it would in a process of its own.
        """
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        span = self.tracer.span(f"harness.cli.{argv[0]}") if self.tracer else nullcontext()
        self.ledger.attempted += 1
        rc: object = None
        t0 = perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # noqa: BLE001 - a crashing command is a failed op
            err.write(traceback.format_exc())
        wall = perf_counter() - t0
        if rc != 0:
            self.ledger.failed += 1
            self.ledger.problems.append(f"ibvq {' '.join(argv)} -> {rc}: {err.getvalue()[-500:]}")
        return wall, rc == 0

    def setup(self, rep: int):
        raise NotImplementedError

    def unit(self, state, index: int) -> Unit | None:
        raise NotImplementedError

    def recheck(self, state) -> dict[str, str]:
        """Digests of a repeat of part of a unit; for workloads whose run
        holds a single unit."""
        return {}

    def named(self, units: list[Unit], op_ms: list[float]) -> dict[str, tuple[float, str]]:
        return {}


class TrainWorkload(Workload):
    name = "train"

    def setup(self, rep: int):
        corpus = synthdata.build_corpus(self.corpus_config())
        train_idx, _ = training.split_corpus(corpus)
        return corpus, train_idx

    def unit(self, state, index: int) -> Unit | None:
        corpus, train_idx = state
        cfg = TrainConfig(steps=self.sizes.train_steps, seed=ORDER_SEED, batch_size=BATCH)
        enc_cfg = EncoderConfig(channels=corpus.config.channels, groups=G, seed=self.seed)
        dec_cfg = DecoderConfig(n_phones=corpus.inventory.size, channels=corpus.config.channels,
                                prosody_dim=enc_cfg.acoustic_dim, seed=self.seed + 1)
        t0 = perf_counter()
        trained = self.ledger.op(
            "train_autoencoder", training.train_autoencoder,
            corpus, CapacityConfig(K=K, G=G), cfg, train_indices=train_idx,
            enc_cfg=enc_cfg, dec_cfg=dec_cfg,
        )
        wall = perf_counter() - t0
        if trained is None:
            return None
        curve = trained.loss_curve
        text = "".join(
            f"{p.step},{p.total!r},{p.mse!r},{p.codebook!r},{p.commitment!r}\n" for p in curve
        )
        self.ledger.check("loss curve has one point per step", len(curve) == cfg.steps,
                          f"{len(curve)} points")
        self.ledger.check("loss is finite", all(math.isfinite(p.total) for p in curve))
        final = statistics.fmean(p.total for p in curve[-20:])
        return Unit(wall_s=wall, quality=final, digests={"loss_curve.csv": sha256(text.encode())})

    def named(self, units, op_ms):
        utts = self.sizes.train_steps * BATCH * len(units)
        return {
            "train_utts_per_s": (utts / sum(u.wall_s for u in units), "utterances/s"),
            "train_step_ms_p50": (percentile(op_ms, 50), "ms"),
            "train_step_ms_p90": (percentile(op_ms, 90), "ms"),
            "train_loss_final": (units[0].quality, "loss"),
        }


class CellWorkload(Workload):
    name = "cell"

    def setup(self, rep: int):
        corpus = synthdata.build_corpus(self.corpus_config())
        word_ids = np.array([w for u in corpus.utterances for w in u.spec.word_ids])
        exp = {
            "capacities": [K],
            "groups": G,
            "seeds": [ORDER_SEED],  # the cell seed also sets the batch order
            "corpus": self.sizes.corpus,
            "train": {"steps": self.sizes.cell_train_steps, "batch_size": BATCH},
            "predictor_steps": self.sizes.cell_predictor_steps,
            "transfer_pairs": self.sizes.cell_transfer_pairs,
            "mine": {**self.sizes.cell_mine, "seed": self.seed},
        }
        path = self.workdir / f"experiment_{rep}.json"
        path.write_text(json.dumps(exp, indent=1))
        return path, mi_ceiling(word_ids)

    def unit(self, state, index: int) -> Unit | None:
        config, ceiling = state
        out = self.workdir / f"cell_{index}"
        wall, ok = self.cli(["sweep", "--config", config, "--out", out])
        if not ok:
            return None
        sweep = out / "sweep.csv"
        with sweep.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not self.ledger.check("sweep.csv has one cell", len(rows) == 1, f"{len(rows)} rows"):
            return None
        row = rows[0]
        self.ledger.check("cell status is ok", row["status"] == "ok", row["error"])
        plugin = float(row["plugin_mi"])
        self.ledger.check("plug-in MI <= min(G ln K, H(word))", plugin <= ceiling + 1e-9,
                          f"{plugin} > {ceiling}")
        mse = float(row["recon_mse"])
        self.ledger.check("recon MSE is finite", math.isfinite(mse))
        return Unit(wall_s=wall, quality=mse, digests={"sweep.csv": sha256(sweep.read_bytes())})

    def named(self, units, op_ms):
        return {
            "cell_s": (statistics.median(u.wall_s for u in units), "s"),
            "cell_step_ms_p50": (percentile(op_ms, 50), "ms"),
            "cell_step_ms_p90": (percentile(op_ms, 90), "ms"),
            "cell_recon_mse": (units[0].quality, "MSE"),
        }


@dataclass
class CliPlan:
    base: Path
    corpus_json: Path
    words_txt: Path
    n_words: int
    queries: list[tuple[list, int, np.ndarray | None]]  # argv tail, frames, truth
    channels: int
    ceiling: float


class CliWorkload(Workload):
    name = "cli"
    min_units = 1
    steps_are_ops = False  # op latency samples are read queries

    def setup(self, rep: int) -> CliPlan:
        base = self.workdir / f"cli_{rep}"
        base.mkdir(parents=True)
        corpus_json = base / "corpus.json"
        corpus_json.write_text(json.dumps(self.sizes.corpus))
        corpus = synthdata.build_corpus(self.corpus_config())
        utts = corpus.utterances
        rng = np.random.default_rng(self.seed)
        n_transfer = self.sizes.cli_queries // 2
        n_recon = self.sizes.cli_queries - n_transfer
        # word-count-matched pairs: transfer refuses any other pair
        pairs = experiments.matched_pairs(corpus, list(range(len(utts))), n_transfer, self.seed)
        recon = rng.choice(len(utts), size=n_recon, replace=n_recon > len(utts))
        queries = []
        for q in range(self.sizes.cli_queries):
            if q % 2 == 0:
                u = utts[recon[q // 2]]
                queries.append((["reconstruct", "--utt", u.spec.utt_id],
                                u.alignment.total_frames, u.features))
            else:
                ref, tgt = pairs[(q // 2) % len(pairs)]
                queries.append((["transfer", "--ref", utts[ref].spec.utt_id,
                                 "--target", utts[tgt].spec.utt_id],
                                utts[tgt].alignment.total_frames, None))
        words = utts[int(rng.integers(len(utts)))].spec.word_ids
        words_txt = base / "words.txt"
        words_txt.write_text(" ".join(str(w) for w in words) + "\n")
        word_ids = np.array([w for u in utts for w in u.spec.word_ids])
        return CliPlan(base, corpus_json, words_txt, len(words), queries,
                       corpus.config.channels, mi_ceiling(word_ids))

    def _sequence(self, plan: CliPlan, out: Path, queries) -> tuple[float, float, list[float]]:
        """Run the command sequence; returns the summed command walls, the
        gen-data wall and the query latencies."""
        corpus, ckpt = out / "corpus", out / "ckpt"
        gen_s, _ = self.cli(["gen-data", "--config", plan.corpus_json, "--out", corpus])
        train_s, _ = self.cli(["train", "--corpus", corpus, "--K", K, "--G", G,
                               "--seed", self.seed, "--steps", self.sizes.cli_train_steps,
                               "--out", ckpt])
        query_ms = []
        for j, (tail, _, _) in enumerate(queries):
            wall, _ = self.cli([tail[0], "--ckpt", ckpt, *tail[1:], "--out", out / f"q{j:02d}.csv"])
            query_ms.append(wall * 1e3)
        mi_s, _ = self.cli(["mi", "--ckpt", ckpt, "--corpus", corpus, "--out", out / "mi.csv",
                            "--seed", self.seed, "--mine-steps", self.sizes.cli_mine_steps])
        predict_s, _ = self.cli(["predict", "--ckpt", ckpt, "--text", plan.words_txt,
                                 "--out", out / "codes.csv", "--seed", self.seed,
                                 "--predictor-steps", self.sizes.cli_predictor_steps])
        total = gen_s + train_s + sum(query_ms) / 1e3 + mi_s + predict_s
        return total, gen_s, query_ms

    def _digests(self, out: Path) -> dict[str, str]:
        # corpus_path.txt names the directory, which differs between repeats
        return {k: v for k, v in file_digests(out).items() if not k.endswith("corpus_path.txt")}

    def unit(self, plan: CliPlan, index: int) -> Unit | None:
        out = plan.base / f"run_{index}"
        wall, gen_s, query_ms = self._sequence(plan, out, plan.queries)
        mses = []
        for j, (tail, frames, truth) in enumerate(plan.queries):
            path = out / f"q{j:02d}.csv"
            if not path.is_file():
                continue
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
            ok = self.ledger.check(f"{tail[0]} output shape", arr.shape == (frames, plan.channels),
                                   f"{path.name}: {arr.shape} != {(frames, plan.channels)}")
            if ok and truth is not None:
                mses.append(float(np.mean((arr - truth) ** 2)))
        mi_csv = out / "mi.csv"
        if mi_csv.is_file():
            with mi_csv.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            plugin = float(rows[0]["plugin_oracle"])
            self.ledger.check("mi: plug-in MI <= min(G ln K, H(word))",
                              plugin <= plan.ceiling + 1e-9, f"{plugin} > {plan.ceiling}")
        codes = out / "codes.csv"
        if codes.is_file():
            n = len(codes.read_text().split())
            self.ledger.check("predict: one code row per word", n == plan.n_words,
                              f"{n} rows for {plan.n_words} words")
        if not mses:
            return None
        return Unit(wall_s=wall, quality=statistics.fmean(mses), digests=self._digests(out),
                    op_ms=query_ms, named={"cli_gen_data_s": gen_s})

    def recheck(self, plan: CliPlan) -> dict[str, str]:
        out = plan.base / "recheck"
        self._sequence(plan, out, plan.queries[:2])
        return self._digests(out)

    def named(self, units, op_ms):
        return {
            "cli_s": (statistics.median(u.wall_s for u in units), "s"),
            "cli_gen_data_s": (statistics.median(u.named["cli_gen_data_s"] for u in units), "s"),
            "cli_query_ms_p50": (percentile(op_ms, 50), "ms"),
            "cli_query_ms_p75": (percentile(op_ms, 75), "ms"),
            "cli_recon_mse": (units[0].quality, "MSE"),
        }


WORKLOAD_CLASSES = {w.name: w for w in (TrainWorkload, CellWorkload, CliWorkload)}


@dataclass
class Report:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]  # end-to-end, or per-layer when traced
    named: dict[str, tuple[float, str]]    # user-level figures, printed for people
    record: dict
    trace: dict | None = None


def execute(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            sizes: Sizes = Sizes(), import_s: float = 0.0) -> Report:
    """Run one workload for about `seconds` and compute its metrics.

    A traced run alternates untraced and traced units, so that the tracing
    overhead is measured on neighbouring units; only traced units feed the
    per-layer metrics, and only untraced ones the end-to-end metrics.
    """
    ledger = Ledger()
    wl = WORKLOAD_CLASSES[name](seed, sizes, workdir, ledger)
    clock = StepClock()
    tracer = Tracer() if trace else None
    plain: list[Unit] = []
    traced: list[Unit] = []
    setup_s: list[float] = []
    clock.install()
    try:
        for rep in range(sizes.setup_reps):
            t0 = perf_counter()
            state = wl.setup(rep)
            setup_s.append(perf_counter() - t0)
        if tracer:
            with _tracing(wl, tracer, unit=False):
                state = wl.setup(sizes.setup_reps)

        def one(with_tracer: bool) -> Unit | None:
            index = len(plain) + len(traced)
            gc.collect()  # untimed: no unit pays for the garbage of the one before
            first_step = len(clock.step_ms)
            if with_tracer:
                with _tracing(wl, tracer):
                    unit = wl.unit(state, index)
            else:
                unit = wl.unit(state, index)
            if unit is not None and wl.steps_are_ops:
                unit.op_ms = clock.step_ms[first_step:]
            return unit

        min_units = 1 if trace else wl.min_units
        start = perf_counter()
        while True:
            unit = one(False)
            if unit is None:
                break
            plain.append(unit)
            if tracer:
                unit = one(True)
                if unit is None:
                    break
                traced.append(unit)
            elapsed = perf_counter() - start
            typical = statistics.median(u.wall_s for u in plain + traced) * (2 if trace else 1)
            if len(plain) >= min_units and elapsed + typical > seconds:
                break
    finally:
        clock.uninstall()

    runs = plain + traced
    if runs:
        if len(runs) < 2:
            runs.append(Unit(0.0, 0.0, wl.recheck(state)))
        ref = runs[0].digests
        for other in runs[1:]:
            shared = sorted(set(ref) & set(other.digests))
            diff = [k for k in shared if ref[k] != other.digests[k]]
            ledger.check("repeated runs give byte-identical outputs", bool(shared) and not diff,
                         f"differing: {diff}" if shared else "no common outputs")
    else:
        ledger.check("at least one unit of work completed", False)
    if tracer and len(traced) < len(plain):
        plain = plain[: len(traced)]  # a failed traced unit leaves no pair

    metrics: dict[str, tuple[float, str]] = {}
    named: dict[str, tuple[float, str]] = {}
    op_ms = [x for u in plain for x in u.op_ms]
    peak_rss = _peak_rss_mib()
    setup = import_s + statistics.median(setup_s) if setup_s else 0.0
    if plain and op_ms:
        named = wl.named(plain, op_ms)
        named["setup_s"] = (setup, "s")
        named["peak_rss_mb"] = (peak_rss, "MiB")
        if tracer:
            for m in layers.PER_LAYER:
                metrics[m.name] = (m.value(tracer), m.unit)
            overhead = (statistics.median(u.wall_s for u in traced)
                        - statistics.median(u.wall_s for u in plain))
            metrics[layers.OVERHEAD[0]] = (overhead, layers.OVERHEAD[1])
            for missing in layers.uncovered(tracer, name):
                ledger.check("traced layer call made", False, missing)
        else:
            values = {
                "setup_s": setup,
                "peak_rss_mb": peak_rss,
                "unit_s": statistics.median(u.wall_s for u in plain),
            }
            metrics = {m.name: (values[m.name], m.unit) for m in layers.END_TO_END}
    named["failed_frac"] = (ledger.failed / max(ledger.attempted, 1), "failed/attempted")

    digests = runs[0].digests if runs else {}
    if name == "cli" and digests:
        digests = {"cli_outputs": sha256(json.dumps(digests, sort_keys=True).encode())}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit_walls_s": [u.wall_s for u in plain],
        "traced_unit_walls_s": [u.wall_s for u in traced],
        "op_samples": len(op_ms),
        "import_s": import_s,
        "setup_s_each": setup_s,
        "digests": digests,
    }
    return Report(ledger.attempted, ledger.failed, ledger.problems, metrics, named, record,
                  tracer.dump() if tracer else None)


@contextmanager
def _tracing(wl: Workload, tracer: Tracer, unit: bool = True):
    tracer.install()
    if unit:
        tracer.begin_unit()
    wl.tracer = tracer
    try:
        yield
    finally:
        wl.tracer = None
        if unit:
            tracer.end_unit()
        tracer.uninstall()


def _peak_rss_mib() -> float:
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0 if sys.platform != "darwin" else kib / 2**20


def environment() -> dict:
    """Versions, CPU count and BLAS threads of this process."""
    import platform

    import scipy

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
