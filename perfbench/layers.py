"""The benchmark's workloads and metrics, with what each metric should move.

`BENCHMARK.json` lists the same names, units and directions; a test keeps
the two in step. A per-layer metric's `workload` is the one whose traced run
must exercise it: the run fails its coverage check if any call the metric
is computed from was never made there. On other workloads the metric may
read 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracer import OP_FAMILIES, Tracer

WORKLOADS = {
    "train": "training is 80-95% of every sweep cell; numcore, encoder, quantizer and decoder "
             "do the work and nothing else runs in the timed region",
    "cell": "a one-cell sweep: evaluation (MINE, predictor, transfer, re-encoding) is about half "
            "the cell, so per-cell pipeline changes show only here",
    "cli": "CLI queries re-parse the text corpus and load a checkpoint each time, so storage and "
           "checkpoint I/O dominate and numcore graph work is negligible; writes sit beside reads",
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


# What each one is on each workload is in README.md.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.2),
    EndToEnd("unit_s", "s", "lower", 0.25),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workload: str
    needs: tuple[str, ...]  # call counters that must be non-zero on `workload`
    moves: str
    value: Callable[[Tracer], float]


def _per_call(key: str, scale: float) -> Callable[[Tracer], float]:
    return lambda t: scale * t.seconds[key] / t.calls[key] if t.calls[key] else 0.0


def _per_unit(get: Callable[[Tracer], float]) -> Callable[[Tracer], float]:
    return lambda t: get(t) / t.units if t.units else 0.0


def _per_step(get: Callable[[Tracer], float]) -> Callable[[Tracer], float]:
    return lambda t: get(t) / t.steps if t.steps else 0.0


def _ms(key):
    return _per_call(key, 1e3)


def _s(key):
    return _per_call(key, 1.0)


_TRAIN = "train_utts_per_s and train_step_ms_* on train, about half as much on cell_s, not cli"


def _family(name: str) -> Layer:
    return Layer(f"numcore.fwd_self_ms.{name}", "ms", "lower", "train", (f"op:{name}",), _TRAIN,
                 _per_step(lambda t: 1e3 * t.family_s[name]))


def _encodes_per_utt(t: Tracer) -> float:
    encodes = sum(e for e, _ in t.encode_ratio)
    utts = sum(u for _, u in t.encode_ratio)
    return encodes / utts if utts else 0.0


def _utts_per_query(t: Tracer) -> float:
    queries = t.calls["harness.cli.reconstruct"] + t.calls["harness.cli.transfer"]
    return t.counts["synthdata.query_utts_parsed"] / queries if queries else 0.0


def _broadcast_regulate_ms(t: Tracer) -> float:
    n = t.calls["decoder.broadcast_prosody"]
    total = t.seconds["decoder.broadcast_prosody"] + t.seconds["decoder.length_regulate"]
    return 1e3 * total / n if n else 0.0


def _frames_per_s(t: Tracer) -> float:
    busy = t.seconds["encoder.extract_frame_features"]
    return t.counts["encoder.frames"] / busy if busy else 0.0


_CELL = "cell_s on cell"
_CLI = "cli_query_ms_* and cli_s on cli"
_STAGES = {
    "train": "harness.train_autoencoder",
    "recon_eval": "harness.recon_eval",
    "mi": "harness.mi_analysis",
    "transfer": "harness.transfer",
    "predictor": "harness.predictor",
}
_CLI_COMMANDS = ("gen-data", "train", "reconstruct", "transfer", "mi", "predict")

PER_LAYER = (
    Layer("numcore.nodes_per_step", "count", "lower", "train", ("numcore.backward",), _TRAIN,
          _per_step(lambda t: t.nodes)),
    Layer("numcore.op_calls_per_step", "count", "lower", "train", ("numcore.backward",), _TRAIN,
          _per_step(lambda t: t.op_calls)),
    *(_family(f) for f in OP_FAMILIES),
    Layer("numcore.backward_ms_per_step", "ms", "lower", "train", ("numcore.backward",), _TRAIN,
          _per_step(lambda t: 1e3 * t.seconds["numcore.backward"])),
    Layer("numcore.adam_ms_per_step", "ms", "lower", "train", ("numcore.adam_step",), _TRAIN,
          _per_step(lambda t: 1e3 * t.seconds["numcore.adam_step"])),
    Layer("numcore.gc_pause_ms_per_step", "ms", "lower", "train", ("gc",),
          "mostly train_step_ms_p90 on train", _per_step(lambda t: 1e3 * t.gc_pause_s)),
    Layer("numcore.gc_gen2_count", "count", "lower", "train", ("gc",),
          "mostly train_step_ms_p90 on train (per training run)", _per_unit(lambda t: t.gc_gen2)),
    Layer("numcore.save_params_ms", "ms", "lower", "cli", ("numcore.save_params",), _CLI,
          _ms("numcore.save_params")),
    Layer("numcore.load_params_ms", "ms", "lower", "cli", ("numcore.load_params",), _CLI,
          _ms("numcore.load_params")),
    Layer("encoder.extract_frame_features_ms", "ms", "lower", "train",
          ("encoder.extract_frame_features",), "train metrics and cell_s",
          _ms("encoder.extract_frame_features")),
    Layer("encoder.pool_hierarchy_ms", "ms", "lower", "train", ("encoder.pool_hierarchy",),
          "train metrics and cell_s", _ms("encoder.pool_hierarchy")),
    Layer("encoder.encode_calls", "count", "lower", "train", ("encoder.encode",),
          "train metrics and cell_s (per training run)",
          _per_unit(lambda t: t.calls["encoder.encode"])),
    Layer("encoder.frames_per_s", "frames/s", "higher", "train",
          ("encoder.extract_frame_features",), "train metrics and cell_s", _frames_per_s),
    Layer("quantizer.apply_bottleneck_ms", "ms", "lower", "train", ("quantizer.apply_bottleneck",),
          "train metrics and cell_s", _ms("quantizer.apply_bottleneck")),
    Layer("quantizer.quantize_batch_ms", "ms", "lower", "train", ("quantizer.quantize_batch",),
          "train metrics and cell_s", _ms("quantizer.quantize_batch")),
    Layer("quantizer.init_codebook_ms", "ms", "lower", "train", ("quantizer.init_codebook",),
          "train metrics and cell_s", _ms("quantizer.init_codebook")),
    Layer("quantizer.usage_stats_ms", "ms", "lower", "train", ("quantizer.usage_stats",),
          "train metrics and cell_s", _ms("quantizer.usage_stats")),
    Layer("decoder.encode_text_ms", "ms", "lower", "train", ("decoder.encode_text",),
          "train metrics and cell_s; cli_query_ms_* only slightly", _ms("decoder.encode_text")),
    Layer("decoder.broadcast_regulate_ms", "ms", "lower", "train",
          ("decoder.broadcast_prosody", "decoder.length_regulate"),
          "train metrics and cell_s; cli_query_ms_* only slightly", _broadcast_regulate_ms),
    Layer("decoder.decode_frames_ms", "ms", "lower", "train", ("decoder.decode_frames",),
          "train metrics and cell_s; cli_query_ms_* only slightly", _ms("decoder.decode_frames")),
    Layer("decoder.reconstruct_calls", "count", "lower", "cell", ("decoder.reconstruct",),
          "cell_s (per cell)", _per_unit(lambda t: t.calls["decoder.reconstruct"])),
    Layer("decoder.transfer_calls", "count", "lower", "cell", ("decoder.transfer",),
          "cell_s (per cell)", _per_unit(lambda t: t.calls["decoder.transfer"])),
    Layer("synthdata.build_corpus_s", "s", "lower", "train", ("synthdata.build_corpus",),
          "setup_s on train and cli_gen_data_s; not train_utts_per_s", _s("synthdata.build_corpus")),
    Layer("synthdata.write_corpus_s", "s", "lower", "cli", ("synthdata.write_corpus",),
          "cli_gen_data_s and cli_s; not train_utts_per_s", _s("synthdata.write_corpus")),
    Layer("synthdata.read_corpus_s", "s", "lower", "cli", ("synthdata.read_corpus",),
          _CLI + "; not train_utts_per_s", _s("synthdata.read_corpus")),
    Layer("synthdata.read_corpus_calls", "count", "lower", "cli", ("synthdata.read_corpus",),
          _CLI + " (per command sequence)",
          _per_unit(lambda t: t.calls["synthdata.read_corpus"])),
    Layer("synthdata.bytes_read", "bytes", "lower", "cli", ("synthdata.read_corpus",),
          _CLI + " (computed from file sizes, per command sequence)",
          _per_unit(lambda t: t.counts["synthdata.bytes_read"])),
    Layer("synthdata.bytes_written", "bytes", "lower", "cli", ("synthdata.write_corpus",),
          "cli_gen_data_s and cli_s (computed from file sizes, per command sequence)",
          _per_unit(lambda t: t.counts["synthdata.bytes_written"])),
    Layer("synthdata.utts_parsed_per_query", "count", "lower", "cli",
          ("harness.cli.reconstruct", "synthdata.read_corpus"),
          _CLI + " (waste ratio: a query uses 1-2 utterances)", _utts_per_query),
    Layer("synthdata.oracle_mi_ms", "ms", "lower", "cell", ("synthdata.oracle_mi",), _CELL,
          _ms("synthdata.oracle_mi")),
    Layer("metrics.compare_ms", "ms", "lower", "cell", ("metrics.compare",), _CELL,
          _ms("metrics.compare")),
    Layer("mi.mine_estimate_s", "s", "lower", "cell", ("mi.mine_estimate",),
          "cell_s, and cli_s a little", _s("mi.mine_estimate")),
    Layer("mi.statistic_calls", "count", "lower", "cell", ("mi.statistic",),
          "cell_s, and cli_s a little (per cell)", _per_unit(lambda t: t.calls["mi.statistic"])),
    Layer("mi.statistic_rows", "count", "lower", "cell", ("mi.statistic",),
          "cell_s, and cli_s a little (per cell)",
          _per_unit(lambda t: t.counts["mi.statistic_rows"])),
    Layer("mi.statistic_ms", "ms", "lower", "cell", ("mi.statistic",),
          "cell_s, and cli_s a little", _ms("mi.statistic")),
    Layer("predictor.train_s", "s", "lower", "cell", ("predictor.train",), "cell_s and cli_s",
          _s("predictor.train")),
    Layer("predictor.evaluate_ms", "ms", "lower", "cell", ("predictor.evaluate",),
          "cell_s", _ms("predictor.evaluate")),
    Layer("predictor.predict_codes_ms", "ms", "lower", "cell", ("predictor.predict_codes",),
          "cell_s and cli_s", _ms("predictor.predict_codes")),
    *(Layer(f"harness.stage_s.{stage}", "s", "lower", "cell", (key,), _CELL, _s(key))
      for stage, key in _STAGES.items()),
    Layer("harness.encodes_per_utt", "count", "lower", "cell", ("encoder.encode",),
          "cell_s (waste ratio: encoder calls outside training graphs per distinct utterance; "
          "1.0 is ideal)", _encodes_per_utt),
    *(Layer(f"harness.cli_ms.{cmd}", "ms", "lower", "cli", (f"harness.cli.{cmd}",), "cli_s",
            _ms(f"harness.cli.{cmd}")) for cmd in _CLI_COMMANDS),
    Layer("harness.cli_ms.sweep", "ms", "lower", "cell", ("harness.cli.sweep",), _CELL,
          _ms("harness.cli.sweep")),
)

# Not computed from the trace: traced minus untraced unit wall in one run.
OVERHEAD = ("trace.overhead_s", "s", "lower")


def calls_of(t: Tracer, key: str) -> int:
    if key.startswith("op:"):
        return t.family_calls[key[3:]]
    if key == "gc":
        return t.gc_events
    return t.calls[key]


def uncovered(t: Tracer, workload: str) -> list[str]:
    """Per-layer metrics of `workload` whose calls were never made."""
    return [
        f"{m.name} ({key})"
        for m in PER_LAYER
        if m.workload == workload
        for key in m.needs
        if calls_of(t, key) == 0
    ]
