"""Instrumentation the benchmark installs on the ibvq package from outside.

Nothing here edits the package: both classes rebind module attributes and
class methods for the life of one run and restore them afterwards.

- `StepClock` runs in every run. It timestamps each return of
  `Tensor.backward` made inside `train_autoencoder` (one call per training
  step), which gives the per-step latency samples.
- `Tracer` runs only in traced runs. It wraps the public functions of each
  layer module in spans (name, start, end, parent), times numcore ops by
  family, counts graph nodes handed to `Tensor.backward`, and reads
  garbage-collector pauses from `gc.callbacks`.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# numcore ops by family. Only the outermost op call is timed: a composite op
# (attention, conv1d, mse, affine) owns the time of the ops it calls, and
# every call, nested or not, counts in the op-call total.
OP_FAMILIES = {
    "attention": ("attention", "softmax_rows"),
    "conv1d": ("conv1d", "unfold_rows"),
    "layer_norm": ("layer_norm",),
    "affine": ("affine", "matmul", "transpose"),
    "pooling": ("segment_mean", "repeat_rows"),
    "gather_concat": ("gather_rows", "concat_cols"),
    "elementwise": ("add", "sub", "mul", "relu", "exp", "sum_all", "mean_all", "sqnorm"),
    "loss": ("mse", "cross_entropy"),
    "straight_through": ("straight_through",),
}

# (module, attribute, span name). An attribute "Class.method" wraps a method.
SPAN_TARGETS = (
    ("ibvq.numcore.checkpoint", "save_params", "numcore.save_params"),
    ("ibvq.numcore.checkpoint", "load_params", "numcore.load_params"),
    ("ibvq.numcore.optim", "adam_step", "numcore.adam_step"),
    ("ibvq.encoder", "extract_frame_features", "encoder.extract_frame_features"),
    ("ibvq.encoder", "pool_hierarchy", "encoder.pool_hierarchy"),
    ("ibvq.encoder", "encode", "encoder.encode"),
    ("ibvq.quantizer", "apply_bottleneck", "quantizer.apply_bottleneck"),
    ("ibvq.quantizer", "quantize_batch", "quantizer.quantize_batch"),
    ("ibvq.quantizer", "init_codebook_from_features", "quantizer.init_codebook"),
    ("ibvq.quantizer", "usage_stats", "quantizer.usage_stats"),
    ("ibvq.decoder", "encode_text", "decoder.encode_text"),
    ("ibvq.decoder", "broadcast_prosody", "decoder.broadcast_prosody"),
    ("ibvq.decoder", "length_regulate", "decoder.length_regulate"),
    ("ibvq.decoder", "decode_frames", "decoder.decode_frames"),
    ("ibvq.decoder", "reconstruct", "decoder.reconstruct"),
    ("ibvq.decoder", "transfer", "decoder.transfer"),
    ("ibvq.decoder", "reconstruction_graph", "decoder.reconstruction_graph"),
    ("ibvq.synthdata.generate", "build_corpus", "synthdata.build_corpus"),
    ("ibvq.synthdata.storage", "write_corpus", "synthdata.write_corpus"),
    ("ibvq.synthdata.storage", "read_corpus", "synthdata.read_corpus"),
    ("ibvq.synthdata.discrete_mi", "oracle_mi_discrete", "synthdata.oracle_mi"),
    ("ibvq.metrics", "compare", "metrics.compare"),
    ("ibvq.mi", "mine_estimate", "mi.mine_estimate"),
    ("ibvq.mi", "MineModel.statistic", "mi.statistic"),
    ("ibvq.predictor", "train_predictor", "predictor.train"),
    ("ibvq.predictor", "evaluate_predictor", "predictor.evaluate"),
    ("ibvq.predictor", "predict_codes", "predictor.predict_codes"),
    ("ibvq.harness.training", "train_autoencoder", "harness.train_autoencoder"),
    ("ibvq.harness.experiments", "reconstruction_eval", "harness.recon_eval"),
    ("ibvq.harness.experiments", "mi_analysis", "harness.mi_analysis"),
    ("ibvq.harness.experiments", "run_transfer_experiment", "harness.transfer"),
    ("ibvq.harness.experiments", "predictor_experiment", "harness.predictor"),
)


class Patches:
    """Rebinds package attributes and undoes every rebinding on `restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: str, attr: str, make_wrapper) -> int:
        """Wrap the object at `module.attr` and rebind it everywhere.

        A function is rebound under every name any loaded ``ibvq`` module
        holds it by, since layers import each other's functions by name.
        Returns the number of bindings replaced; 0 means the target is gone.
        """
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            old = vars(cls).get(meth) if isinstance(cls, type) else None
            if old is None:
                return 0
            self._set(cls, meth, make_wrapper(old))
            return 1
        old = getattr(owner, attr, None)
        if old is None:
            return 0
        new = make_wrapper(old)
        found = 0
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "ibvq" or name.startswith("ibvq.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is old:
                    self._set(mod, key, new)
                    found += 1
        return found

    def _set(self, holder, attr: str, new) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def restore(self) -> None:
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)


class StepClock:
    """Per-step latency: the gaps between returns of `Tensor.backward`
    inside `train_autoencoder`; the first gap starts at its entry."""

    def __init__(self):
        self.step_ms: list[float] = []
        self._last: float | None = None
        self._patches = Patches()

    def install(self) -> None:
        clock = self

        def wrap_backward(orig):
            @functools.wraps(orig)
            def backward(tensor):
                orig(tensor)
                if clock._last is not None:
                    now = perf_counter()
                    clock.step_ms.append((now - clock._last) * 1e3)
                    clock._last = now

            return backward

        def wrap_train(orig):
            @functools.wraps(orig)
            def train_autoencoder(*args, **kwargs):
                clock._last = perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    clock._last = None

            return train_autoencoder

        _require(self._patches.replace("ibvq.numcore.tensor", "Tensor.backward", wrap_backward),
                  "Tensor.backward")
        _require(self._patches.replace("ibvq.harness.training", "train_autoencoder", wrap_train),
                  "train_autoencoder")

    def uninstall(self) -> None:
        self._patches.restore()


def _require(found: int, what: str) -> None:
    if not found:
        raise RuntimeError(f"cannot instrument {what}: not found in the ibvq package")


def count_nodes(root) -> int:
    """Distinct nodes of the graph reachable from `root` through parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def dir_bytes(path) -> int:
    """Total size of the regular files under `path` (from file sizes)."""
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


class Tracer:
    """Spans, counters and GC pauses of one traced run.

    Spans are kept in memory as ``(name, start, end, parent_index)`` tuples
    and written out by the caller when the run ends. numcore ops are too
    many to keep as spans (about a thousand per training step), so they are
    counted and timed by family instead.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._open: list[tuple[int, str]] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.op_calls = 0
        self.family_s: defaultdict = defaultdict(float)
        self.family_calls: Counter = Counter()
        self._op_depth = 0
        self.steps = 0
        self.nodes = 0
        self.gc_pause_s = 0.0
        self.gc_events = 0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0
        self.units = 0
        self._unit_utts: set[int] = set()
        self._unit_encodes = 0
        self.encode_ratio: list[tuple[int, int]] = []
        self._dir_sizes: dict[str, int] = {}
        self._patches = Patches()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, int]:
        parent = self._open[-1][0] if self._open else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append((idx, name))
        return idx, parent

    def _exit(self, name: str, idx: int, parent: int, t0: float, t1: float) -> None:
        self._open.pop()
        self.spans[idx] = (name, t0, t1, parent)
        self.calls[name] += 1
        self.seconds[name] += t1 - t0

    @contextmanager
    def span(self, name: str):
        idx, parent = self._enter(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(name, idx, parent, t0, perf_counter())

    def parent_name(self) -> str | None:
        return self._open[-1][1] if self._open else None

    def in_span(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self._open)

    def _span_wrapper(self, name: str, after=None):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if after is not None:
                    after_ctx = tracer.parent_name()
                idx, parent = tracer._enter(name)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(name, idx, parent, t0, perf_counter())
                if after is not None:
                    after(tracer, after_ctx, args, kwargs, result)
                return result

            return wrapper

        return make

    def _op_wrapper(self, family: str):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.op_calls += 1
                if tracer._op_depth:
                    return fn(*args, **kwargs)
                tracer._op_depth = 1
                tracer.family_calls[family] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.family_s[family] += perf_counter() - t0
                    tracer._op_depth = 0

            return wrapper

        return make

    # -- counters hooked after a span ------------------------------------------

    def _dir_size(self, path) -> int:
        key = os.path.abspath(path)
        if key not in self._dir_sizes:
            self._dir_sizes[key] = dir_bytes(key)
        return self._dir_sizes[key]

    @staticmethod
    def _after_frames(tracer, parent, args, kwargs, result):
        x = args[0]
        tracer.counts["encoder.frames"] += x.rows if hasattr(x, "rows") else len(x)

    @staticmethod
    def _after_encode(tracer, parent, args, kwargs, result):
        if parent != "decoder.reconstruction_graph":
            tracer._unit_encodes += 1
            tracer._unit_utts.add(id(args[0]))

    @staticmethod
    def _after_statistic(tracer, parent, args, kwargs, result):
        tracer.counts["mi.statistic_rows"] += len(args[1])

    @staticmethod
    def _after_write(tracer, parent, args, kwargs, result):
        path = os.path.abspath(args[1] if len(args) > 1 else kwargs["path"])
        tracer._dir_sizes.pop(path, None)
        tracer.counts["synthdata.bytes_written"] += tracer._dir_size(path)

    @staticmethod
    def _after_read(tracer, parent, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.counts["synthdata.bytes_read"] += tracer._dir_size(path)
        if tracer.in_span("harness.cli.reconstruct") or tracer.in_span("harness.cli.transfer"):
            tracer.counts["synthdata.query_utts_parsed"] += len(result.utterances)

    # -- install / units -----------------------------------------------------

    def install(self) -> None:
        after = {
            "encoder.extract_frame_features": self._after_frames,
            "encoder.encode": self._after_encode,
            "mi.statistic": self._after_statistic,
            "synthdata.write_corpus": self._after_write,
            "synthdata.read_corpus": self._after_read,
        }
        for module, attr, name in SPAN_TARGETS:
            _require(self._patches.replace(module, attr, self._span_wrapper(name, after.get(name))),
                     f"{module}.{attr}")
        for family, ops in OP_FAMILIES.items():
            for op in ops:
                _require(self._patches.replace("ibvq.numcore.tensor", op, self._op_wrapper(family)),
                         f"numcore op {op}")
        tracer = self
        span_backward = self._span_wrapper("numcore.backward")

        def wrap_backward(orig):
            timed = span_backward(orig)

            @functools.wraps(orig)
            def backward(tensor):
                tracer.steps += 1
                tracer.nodes += count_nodes(tensor)
                timed(tensor)

            return backward

        _require(self._patches.replace("ibvq.numcore.tensor", "Tensor.backward", wrap_backward),
                 "Tensor.backward")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
            return
        self.gc_pause_s += perf_counter() - self._gc_t0
        self.gc_events += 1
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    def begin_unit(self) -> None:
        self._unit_utts = set()
        self._unit_encodes = 0

    def end_unit(self) -> None:
        self.units += 1
        self.encode_ratio.append((self._unit_encodes, len(self._unit_utts)))

    # -- output --------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: defaultdict = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child[i]
        return dict(out)

    def dump(self) -> dict:
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        return {
            "spans": [
                [s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]]
                for s in self.spans
                if s is not None
            ],
            "self_s": self.self_seconds(),
            "calls": dict(self.calls),
            "op_family_s": dict(self.family_s),
            "op_calls": self.op_calls,
            "steps": self.steps,
            "nodes": self.nodes,
            "gc": {"pause_s": self.gc_pause_s, "events": self.gc_events, "gen2": self.gc_gen2},
        }
