"""Command-line entry point.

Every command takes explicit seeds and writes deterministic artifacts: the
same invocation produces bit-identical output files. Exit codes: 0 success,
1 validation/configuration or file-system error, 2 numeric/training failure
or a sweep in which a cell failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

import ibvq.numcore as nc
from ibvq.decoder import prosody_codes, reconstruct, transfer
from ibvq.encoder import EncoderConfig
from ibvq.errors import (
    ConfigError,
    IbvqError,
    NumericError,
    ValidationError,
)
from ibvq.harness.experiments import (
    MI_CURVE_COLUMNS,
    ExperimentConfig,
    fit_predictor,
    mi_analysis,
    read_cells,
    run_sweep,
    write_csv,
    write_tables,
)
from ibvq.harness.training import load_models, save_models, split_corpus, train_autoencoder
from ibvq.mi import MineConfig
from ibvq.predictor import pack_sentences, predict_codes
from ibvq.numcore.checkpoint import config_from_json, write_atomic
from ibvq.quantizer import CapacityConfig, capacity
from ibvq.synthdata import CorpusConfig, build_corpus, read_corpus, write_corpus

_FLOAT_FMT = "%.17g"


def _save_rows(path: str, rows: np.ndarray, fmt: str) -> None:
    """The 2-D ``rows`` as comma-separated text in ``fmt``, one line per row,
    written through `write_atomic`: the bytes ``np.savetxt(fh, rows, fmt=fmt,
    delimiter=",")`` writes, formatted by one ``%`` over the whole matrix."""
    line = ",".join([fmt] * rows.shape[1]) + "\n"
    text = (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    write_atomic(Path(path), lambda fh: fh.write(text.encode()))


def _read_json(path: str | None) -> dict:
    """The JSON object in the config file at ``path``; {} without a path."""
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed config {path}, line {e.lineno}: {e.msg}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(data).__name__}")
    return data


def _config(cls, data, where: str, **overrides):
    """``cls`` built by `config_from_json` from the JSON object ``data``,
    with the ``overrides`` (JSON values) that are not None in place of its
    own. A value that is not an object, a key ``cls`` does not take, or a
    value of the wrong JSON type is a ConfigError naming ``where``."""
    try:
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
        return config_from_json(cls, data)
    except TypeError as e:
        raise ConfigError(f"bad {where}: {e}") from e


def _corpus_for_ckpt(args, ckpt_dir: Path, utt_ids=None):
    """The corpus given by --corpus, else the one the checkpoint was trained
    on; only the utterances ``utt_ids`` names, or all of them without it."""
    if getattr(args, "corpus", None):
        return read_corpus(args.corpus, utt_ids)
    pointer = ckpt_dir / "corpus_path.txt"
    if pointer.is_file():
        return read_corpus(pointer.read_text().strip(), utt_ids)
    raise ConfigError(
        "checkpoint has no recorded corpus path; pass --corpus explicitly"
    )


def cmd_gen_data(args) -> int:
    cfg = _config(CorpusConfig, _read_json(args.config), "corpus config", seed=args.seed)
    corpus = build_corpus(cfg)
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus.utterances)} utterances to {args.out}")
    return 0


def cmd_train(args) -> int:
    cap_cfg = CapacityConfig(K=args.K, G=args.G)
    train_cfg = nc.TrainConfig(
        learning_rate=args.learning_rate,
        steps=args.steps,
        seed=args.seed,
        batch_size=args.batch_size,
        commitment_cost=args.commitment_cost,
    )
    # the encoder's config, built here only to refuse a G that does not
    # divide its width before the corpus is read
    EncoderConfig(groups=args.G)
    corpus = read_corpus(args.corpus)
    train_idx, _ = split_corpus(corpus)
    trained = train_autoencoder(corpus, cap_cfg, train_cfg, train_indices=train_idx)
    out = Path(args.out)
    save_models(out, trained.models)
    pointer = (str(Path(args.corpus).resolve()) + "\n").encode()
    write_atomic(out / "corpus_path.txt", lambda fh: fh.write(pointer))
    write_csv(
        out / "loss_curve.csv", ["step", "total", "mse", "codebook", "commitment"],
        [[p.step, p.total, p.mse, p.codebook, p.commitment] for p in trained.loss_curve],
    )
    summary = f"trained K={args.K} G={args.G} seed={args.seed}"
    if trained.loss_curve:
        summary += f": final loss {trained.loss_curve[-1].total:.6f}"
    print(summary)
    if trained.usage is not None:
        print(f"code perplexity per group: {np.round(trained.usage, 3).tolist()}")
    return 0


def cmd_reconstruct(args) -> int:
    ckpt = Path(args.ckpt)
    models = load_models(ckpt)
    (utt,) = _corpus_for_ckpt(args, ckpt, [args.utt]).utterances
    out = reconstruct([utt], models)[0]
    _save_rows(args.out, out, _FLOAT_FMT)
    print(f"reconstructed {args.utt}: {out.shape[0]} frames -> {args.out}")
    return 0


def cmd_transfer(args) -> int:
    ckpt = Path(args.ckpt)
    models = load_models(ckpt)
    utts = _corpus_for_ckpt(args, ckpt, [args.ref, args.target]).utterances
    ref, tgt = utts[0], utts[-1]  # one utterance when --ref and --target are the same
    out = transfer([ref], [tgt], models)[0]
    _save_rows(args.out, out, _FLOAT_FMT)
    print(f"transferred prosody of {args.ref} onto {args.target} -> {args.out}")
    return 0


_SWEEP_SECTIONS = {"corpus": CorpusConfig, "train": nc.TrainConfig, "mine": MineConfig}


def _experiment_config_from_json(path: str | None, seed: int | None) -> ExperimentConfig:
    data = _read_json(path)
    for name, cls in _SWEEP_SECTIONS.items():
        # a null mine section turns the MINE estimate off
        if name in data and not (name == "mine" and data[name] is None):
            data[name] = _config(cls, data[name], f"{name} section of the sweep config")
    return _config(ExperimentConfig, data, "sweep config",
                   seeds=[seed] if seed is not None else None)


def cmd_sweep(args) -> int:
    cfg = _experiment_config_from_json(args.config, args.seed)
    cells = run_sweep(cfg, args.out)
    failed = [c for c in cells if c.status != "ok"]
    print(f"sweep complete: {len(cells)} cells, {len(failed)} failed -> {args.out}")
    for cell in failed:
        print(f"  failed K={cell.K} seed={cell.seed}: {cell.error}", file=sys.stderr)
    return 2 if failed else 0


def cmd_mi(args) -> int:
    mine_cfg = MineConfig(steps=args.mine_steps, seed=args.seed)
    ckpt = Path(args.ckpt)
    models = load_models(ckpt)
    if not models.cap_cfg.enabled:
        raise ConfigError("the checkpoint has a disabled bottleneck: no codes to analyze")
    corpus = read_corpus(args.corpus)
    indices = list(range(len(corpus.utterances)))
    codes = prosody_codes(corpus.utterances, models)
    plugin, mine = mi_analysis(corpus, models, indices, codes, mine_cfg)
    write_csv(args.out, MI_CURVE_COLUMNS, [[capacity(models.cap_cfg), mine, plugin]])
    print(f"MI analysis -> {args.out} (plugin {plugin:.3f}, mine {mine:.3f} nats)")
    return 0


def cmd_predict(args) -> int:
    # the predictor's training config, built here only to refuse a bad step
    # count or seed before any work
    nc.TrainConfig(steps=args.predictor_steps, seed=args.seed)
    ckpt = Path(args.ckpt)
    models = load_models(ckpt)
    if not models.cap_cfg.enabled:
        raise ConfigError("cannot predict codes for a disabled bottleneck (K=0)")
    corpus = _corpus_for_ckpt(args, ckpt)
    try:
        words = [int(w) for w in Path(args.text).read_text().split()]
    except OSError as e:
        raise ConfigError(f"cannot read text file {args.text}: {e}") from e
    except ValueError as e:
        raise ValidationError(f"text file must hold integer word ids: {e}") from e
    train_idx, _ = split_corpus(corpus)
    codes = prosody_codes([corpus.utterances[i] for i in train_idx], models)
    predictor = fit_predictor(corpus, models, train_idx, codes, args.predictor_steps, args.seed)
    ids, offsets = pack_sentences([words])
    predicted = predict_codes(ids, predictor, offsets)
    _save_rows(args.out, predicted, "%d")
    print(f"predicted codes for {len(words)} words -> {args.out}")
    return 0


def cmd_report(args) -> int:
    write_tables(args.out, read_cells(Path(args.input) / "sweep.csv"))
    print(f"report tables -> {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ibvq` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ibvq",
        description="Capacity-controlled vector-quantized prosody representation learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the default sweep's recipe is also each single-run command's default
    sweep = ExperimentConfig()

    p = sub.add_parser("gen-data", help="generate a synthetic corpus")
    p.add_argument("--config", help="JSON file of corpus settings")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one autoencoder")
    p.add_argument("--corpus", required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--G", type=int, default=CapacityConfig.G)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=sweep.train.steps)
    p.add_argument("--learning-rate", type=float, default=nc.TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=nc.TrainConfig.batch_size)
    p.add_argument("--commitment-cost", type=float, default=nc.TrainConfig.commitment_cost)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="reconstruct one utterance")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--utt", required=True)
    p.add_argument("--corpus", help="corpus directory (defaults to the one used in training)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("transfer", help="cross-text prosody transfer")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--corpus")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("sweep", help="capacity sweep with full evaluation")
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="restrict to one seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mi", help="mutual-information analysis of one checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mine-steps", type=int, default=sweep.mine.steps)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("predict", help="predict prosody codes from text")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--text", required=True, help="file of integer word ids")
    p.add_argument("--corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predictor-steps", type=int, default=sweep.predictor_steps)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="aggregate sweep output into tables")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, ConfigError, IbvqError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
