"""Experiment drivers: capacity sweeps, transfer analysis, prediction
pipelines, and the CSV tables they produce.

A sweep trains one model per (dictionary size, seed) cell on a shared
corpus and evaluates reconstruction metrics, code usage, mutual-information
estimates, cross-text transfer proxies, and the text-to-prosody predictor.
Each cell is independent: a failure marks the cell and the sweep continues.
The sweep's tables are built from its cells alone and rewritten after every
cell, so `ibvq report` on a sweep directory writes the same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ibvq.numcore as nc
from ibvq.decoder import (AutoencoderModels, decode_with_codes, prosody_codes, reconstruct,
                          transfer)
from ibvq.encoder import EncoderConfig
from ibvq.errors import ConfigError, ValidationError
from ibvq.metrics import compare, extract_pitch
from ibvq.numcore.checkpoint import write_atomic
from ibvq.mi import MineConfig, content_vector, mine_estimate
from ibvq.predictor import (
    PredictorConfig,
    PredictorModel,
    evaluate_predictor,
    pack_sentences,
    predict_codes,
    train_predictor,
)
from ibvq.quantizer import CapacityConfig, capacity
from ibvq.synthdata import (
    TEMPLATE_START,
    Corpus,
    CorpusConfig,
    build_corpus,
    merge_symbols,
    oracle_mi_discrete,
)
from ibvq.harness.training import split_corpus, train_autoencoder

DEFAULT_CAPACITY_GRID = (0, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class ExperimentConfig:
    capacities: tuple[int, ...] = DEFAULT_CAPACITY_GRID
    groups: int = 2
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    train: nc.TrainConfig = field(default_factory=lambda: nc.TrainConfig(steps=5000))
    seeds: tuple[int, ...] = (1, 2, 3)
    holdout_fraction: float = 0.1
    transfer_pairs: int = 40
    predictor_steps: int = 400
    mine: MineConfig | None = field(
        default_factory=lambda: MineConfig(steps=1500, hidden=32, batch_size=256)
    )

    def __post_init__(self):
        if not self.capacities or len(set(self.capacities)) != len(self.capacities):
            raise ConfigError("capacities must be a non-empty list of distinct K values")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be a non-empty list of distinct seeds")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.predictor_steps < 0:
            raise ConfigError(f"predictor_steps must be >= 0, got {self.predictor_steps}")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in (0, 1)")
        # the encoder every cell trains; raises on a G below 1 or one that
        # does not divide its output
        EncoderConfig(channels=self.corpus.channels, groups=self.groups)
        for k in self.capacities:
            CapacityConfig(K=k, G=self.groups)  # raises on a bad K
        if self.corpus.n_utterances < 2:
            raise ConfigError("a sweep needs n_utterances >= 2, to hold some out for evaluation")
        if self.transfer_pairs < 1:
            raise ConfigError(f"transfer_pairs must be >= 1, got {self.transfer_pairs}")


@dataclass
class CellResult:
    """One sweep cell; a metric field is NaN when it does not apply or was
    not reached (a failed cell keeps what it measured before the failure)."""

    K: int
    G: int
    seed: int
    capacity_nats: float
    status: str = "ok"
    recon_mse: float = math.nan
    vde: float = math.nan
    gpe: float = math.nan
    ffe: float = math.nan
    mcd: float = math.nan
    plugin_mi: float = math.nan
    mine_mi: float = math.nan
    perplexity_mean: float = math.nan
    transfer_prosody_r: float = math.nan
    transfer_clearness: float = math.nan
    predictor_accuracy: float = math.nan
    predicted_codes_mse: float = math.nan
    error: str = ""


CELL_COLUMNS = [f.name for f in dataclasses.fields(CellResult)]


# ---------------------------------------------------------------------------
# per-cell evaluations
# ---------------------------------------------------------------------------


def word_pitch_readout(features: np.ndarray, word_edges: np.ndarray) -> list[float]:
    """Mean voiced-frame F0 per word; NaN for words with no voiced frame."""
    track = extract_pitch(features)
    out = []
    for w in range(word_edges.size - 1):
        s, e = word_edges[w], word_edges[w + 1]
        voiced = track.voiced[s:e]
        out.append(float(track.f0[s:e][voiced].mean()) if voiced.any() else math.nan)
    return out


def phone_recovery_accuracy(
    output: np.ndarray, phone_ids, durations, templates: np.ndarray
) -> float:
    """Fraction of frames whose template channels are most cosine-similar to
    the template of the phone actually spoken there. Cosine ignores the
    frame's scale, so the score does not depend on energy (prosody)."""
    durations = np.asarray(durations, dtype=np.int64)
    frame_phones = np.repeat(np.asarray(phone_ids, dtype=np.int64), durations)
    # dividing by the frame's own norm would not change the argmax
    unit_templates = templates / np.linalg.norm(templates, axis=1, keepdims=True)
    scores = output[:, TEMPLATE_START:] @ unit_templates.T
    return float(np.mean(scores.argmax(axis=1) == frame_phones))


def reconstruction_eval(corpus: Corpus, models: AutoencoderModels, indices: list[int]) -> dict:
    """Mean reconstruction metrics of the utterances ``indices``, each
    scored on its own frames."""
    utts = [corpus.utterances[i] for i in indices]
    outs = reconstruct(utts, models)
    reports = [compare(utt.features, out) for utt, out in zip(utts, outs)]
    return {
        "recon_mse": float(np.mean([np.mean((out - utt.features) ** 2)
                                    for utt, out in zip(utts, outs)])),
        **{name: float(np.mean([getattr(rep, name) for rep in reports]))
           for name in ("vde", "gpe", "ffe", "mcd")},
    }


def mi_analysis(
    corpus: Corpus,
    models: AutoencoderModels,
    indices: list[int],
    codes: list[np.ndarray],
    mine_cfg: MineConfig | None,
) -> tuple[float, float]:
    """Plug-in MI(codes; word identity) and MINE MI(content vector; codes),
    from the code blocks ``codes`` of the utterances ``indices``."""
    codes = np.vstack(codes)
    word_ids = np.array(
        [wid for i in indices for wid in corpus.utterances[i].spec.word_ids]
    )
    plugin = oracle_mi_discrete(merge_symbols(codes), word_ids)
    mine = math.nan
    if mine_cfg is not None and codes.shape[0] >= 100:
        table = models.decoder.store["embed"].data
        content = np.vstack(
            [
                content_vector(w.phone_ids, table)
                for i in indices
                for w in corpus.utterances[i].spec.words
            ]
        )
        mine = mine_estimate(content, codes, mine_cfg)
    return plugin, mine


def matched_pairs(corpus: Corpus, indices: list[int], n_pairs: int, seed: int) -> list[tuple[int, int]]:
    """Up to ``n_pairs`` (at least one) word-count-matched (reference,
    target) utterance pairs, ref != target."""
    if n_pairs < 1:
        raise ValidationError(f"need n_pairs >= 1, got {n_pairs}")
    by_count: dict[int, list[int]] = {}
    for i in indices:
        by_count.setdefault(corpus.utterances[i].alignment.n_words, []).append(i)
    pairs = []
    for group in by_count.values():
        for a in group:
            for b in group:
                if a != b:
                    pairs.append((a, b))
    if not pairs:
        raise ValidationError("no word-count-matched utterance pairs available")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order[: min(n_pairs, len(pairs))]]


def run_transfer_experiment(
    models: AutoencoderModels,
    corpus: Corpus,
    indices: list[int],
    n_pairs: int,
    seed: int,
) -> tuple[float, float]:
    """Objective proxies for cross-text transfer quality over `matched_pairs`
    of the utterances ``indices``: (prosody similarity, content clearness).

    Prosody similarity: correlation between the output's word-level pitch
    readout and the reference words' true pitch means; NaN where it is
    undefined (a constant output pitch, or fewer than three voiced words),
    so that the seed average skips it. Content clearness:
    nearest-template phone recovery accuracy against the target's phones.
    """
    pairs = matched_pairs(corpus, indices, n_pairs, seed)
    refs = [corpus.utterances[r] for r, _ in pairs]
    tgts = [corpus.utterances[t] for _, t in pairs]
    pitch_out, pitch_ref, clearness = [], [], []
    for ref, tgt, out in zip(refs, tgts, transfer(refs, tgts, models)):
        readout = word_pitch_readout(out, tgt.alignment.word_edges)
        for w, value in enumerate(readout):
            if not math.isnan(value):
                pitch_out.append(value)
                pitch_ref.append(ref.spec.words[w].prosody.pitch_mean)
        clearness.append(
            phone_recovery_accuracy(
                out, tgt.spec.phone_ids, np.diff(tgt.alignment.phone_edges),
                corpus.inventory.templates,
            )
        )
    if len(pitch_out) >= 3 and np.std(pitch_out) > 1e-9:
        r = float(np.corrcoef(pitch_out, pitch_ref)[0, 1])
    else:
        r = math.nan
    return r, float(np.mean(clearness))


def fit_predictor(
    corpus: Corpus,
    models: AutoencoderModels,
    train_indices: list[int],
    train_codes: list[np.ndarray],
    steps: int,
    seed: int,
) -> PredictorModel:
    """The text-to-prosody predictor of ``models``' codes, trained for
    ``steps`` steps on the words of the utterances ``train_indices`` and
    their code blocks ``train_codes``."""
    cfg = PredictorConfig(
        word_vocab=corpus.config.word_vocab, K=models.cap_cfg.K, G=models.cap_cfg.G, seed=seed
    )
    texts = [corpus.utterances[i].spec.word_ids for i in train_indices]
    return train_predictor(
        texts, train_codes, cfg, nc.TrainConfig(learning_rate=5e-3, steps=steps, seed=seed)
    )


def predictor_experiment(
    models: AutoencoderModels,
    corpus: Corpus,
    train_indices: list[int],
    held_indices: list[int],
    train_codes: list[np.ndarray],
    held_codes: list[np.ndarray],
    steps: int,
    seed: int,
) -> tuple[float, float]:
    """Train the text-to-prosody predictor on the encoder's code blocks of
    the training utterances and measure held-out accuracy against
    ``held_codes`` plus the feature MSE of decoding its predictions. The
    held-out codes are predicted in one packed pass."""
    model = fit_predictor(corpus, models, train_indices, train_codes, steps, seed)
    utts = [corpus.utterances[i] for i in held_indices]
    ids, offsets = pack_sentences([utt.spec.word_ids for utt in utts])
    predicted = predict_codes(ids, model, offsets)
    accuracy = evaluate_predictor(predicted, held_codes)
    outs = decode_with_codes(np.split(predicted, offsets[1:-1]), utts, models)
    mse = np.mean([np.mean((out - utt.features) ** 2) for utt, out in zip(utts, outs)])
    return float(accuracy.mean()), float(mse)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def run_cell(
    cell: CellResult,
    corpus: Corpus,
    cfg: ExperimentConfig,
    train_indices: list[int],
    held_indices: list[int],
) -> None:
    """Train the model of ``cell`` and fill in its metric fields."""
    cap_cfg = CapacityConfig(K=cell.K, G=cell.G)
    train_cfg = dataclasses.replace(cfg.train, seed=cell.seed)
    trained = train_autoencoder(corpus, cap_cfg, train_cfg, train_indices=train_indices)
    models = trained.models
    cell.__dict__.update(reconstruction_eval(corpus, models, held_indices))
    cell.transfer_prosody_r, cell.transfer_clearness = run_transfer_experiment(
        models, corpus, held_indices, cfg.transfer_pairs, cell.seed
    )
    if cap_cfg.enabled:
        # training ended with the codes of its utterances; the held-out ones
        # are encoded here, once for every evaluation that needs them
        held_codes = prosody_codes([corpus.utterances[i] for i in held_indices], models)
        cell.plugin_mi, cell.mine_mi = mi_analysis(
            corpus, models, train_indices + held_indices, trained.codes + held_codes, cfg.mine
        )
        cell.perplexity_mean = float(np.mean(trained.usage))
        cell.predictor_accuracy, cell.predicted_codes_mse = predictor_experiment(
            models, corpus, train_indices, held_indices, trained.codes, held_codes,
            steps=cfg.predictor_steps, seed=cell.seed,
        )
    else:
        cell.plugin_mi = 0.0  # no codes: the bottleneck transmits nothing


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path) -> list[CellResult]:
    """Train and evaluate one model per (capacity, seed) cell, rewriting the
    tables under ``out_dir`` after every cell. A split that leaves nothing
    to train on, or no word-count-matched held-out pair (`matched_pairs`)
    to transfer, is refused before any cell trains.

    A cell failure is recorded in its row (status/error) without aborting
    the others. Every row carries the full column set either way.
    """
    corpus = build_corpus(cfg.corpus)
    train_indices, held_indices = split_corpus(corpus, cfg.holdout_fraction)
    split = f"holdout_fraction {cfg.holdout_fraction} holds out {len(held_indices)} utterance(s)"
    if not train_indices:
        raise ConfigError(f"{split}, all of them: no utterances to train on")
    if len({corpus.utterances[i].alignment.n_words for i in held_indices}) == len(held_indices):
        raise ConfigError(f"{split}, no two with the same word count: no pair to transfer")
    cells = []
    for k in cfg.capacities:
        for seed in cfg.seeds:
            cell = CellResult(
                K=k, G=cfg.groups, seed=seed,
                capacity_nats=capacity(CapacityConfig(K=k, G=cfg.groups)),
            )
            try:
                run_cell(cell, corpus, cfg, train_indices, held_indices)
            except Exception as e:  # noqa: BLE001 - cell isolation is the contract
                cell.status = "failed"
                cell.error = f"{type(e).__name__}: {e}"
            cells.append(cell)
            write_tables(out_dir, cells)
    return cells


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else repr(value)
    return str(value)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header`` as CSV through `write_atomic`: floats
    as ``repr`` (or ``nan``), lines ended by "\\n"."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(value) for value in row] for row in rows)
    data = text.getvalue().encode()
    write_atomic(Path(path), lambda fh: fh.write(data))


_PARSERS = {"int": int, "float": float, "str": str}  # by CellResult field annotation


def read_cells(path: str | Path) -> list[CellResult]:
    """The cells of a ``sweep.csv`` written by `write_tables`."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValidationError(f"no sweep rows found in {path}")
    columns = {}
    for f in dataclasses.fields(CellResult):
        if f.name not in rows[0]:
            raise ValidationError(f"{path} has no column {f.name!r}")
        try:
            columns[f.name] = [_PARSERS[f.type](row[f.name]) for row in rows]
        except (TypeError, ValueError) as e:
            raise ValidationError(f"{path}: bad value in column {f.name!r}: {e}") from e
    return [CellResult(**dict(zip(columns, values))) for values in zip(*columns.values())]


# the columns of mi_curve.csv and of `ibvq mi`'s output
MI_CURVE_COLUMNS = ["capacity_nats", "mine_estimate", "plugin_oracle"]
CAPACITY_METRICS = ["recon_mse", "vde", "gpe", "ffe", "mcd", "transfer_prosody_r", "transfer_clearness"]


def write_tables(out_dir: str | Path, cells: list[CellResult]) -> None:
    """Write ``sweep.csv`` (one row per cell), and ``mi_curve.csv`` and
    ``capacity_table.csv`` (one row per K, in order of first appearance;
    each metric the mean over the K's ``ok`` cells, NaN skipped)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "sweep.csv", CELL_COLUMNS,
              [[getattr(cell, col) for col in CELL_COLUMNS] for cell in cells])
    by_k: dict[int, list[CellResult]] = {}
    for cell in cells:
        by_k.setdefault(cell.K, []).append(cell)

    def mean(group: list[CellResult], attr: str) -> float:
        vals = [getattr(c, attr) for c in group if c.status == "ok"]
        vals = [v for v in vals if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan

    write_csv(out / "mi_curve.csv", MI_CURVE_COLUMNS,
              [[g[0].capacity_nats, mean(g, "mine_mi"), mean(g, "plugin_mi")]
               for g in by_k.values()])
    write_csv(out / "capacity_table.csv", ["K", "capacity_nats"] + CAPACITY_METRICS,
              [[k, g[0].capacity_nats] + [mean(g, m) for m in CAPACITY_METRICS]
               for k, g in by_k.items()])
