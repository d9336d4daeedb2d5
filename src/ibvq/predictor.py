"""Text-to-prosody prediction: word context to discrete prosody codes.

Each word is represented by its own embedding concatenated with its left
and right neighbors, passed through one attention block over the sentence,
and classified by G parallel K-way heads (one per code group). Prediction
is the per-head argmax, ties to the lowest index.

Training and evaluation run on packed sentences: the words of several
sentences stacked into one id sequence, with offsets marking where each
sentence starts (see `ibvq.numcore`). The neighbor window is zero padded
at every sentence boundary and attention stays inside a sentence, so a
packed batch computes what each sentence computes alone, and a training
step is one graph whatever the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import ConfigError, ShapeError, ValidationError, VocabularyError


# word embedding width, and the width of the context and attention layers
EMBED_DIM = 16
HIDDEN = 24


@dataclass(frozen=True)
class PredictorConfig:
    word_vocab: int
    K: int
    G: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.word_vocab < 1:
            raise ConfigError("word_vocab must be >= 1")
        if self.K < 1:
            raise ConfigError(
                "predictor needs K >= 1; a disabled bottleneck has nothing to predict"
            )
        if self.G < 1:
            raise ConfigError("G must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class PredictorModel:
    def __init__(self, config: PredictorConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        e, h = EMBED_DIM, HIDDEN
        p = {"embed": nc.glorot_uniform(rng, config.word_vocab, e),
             "ctx.w": nc.glorot_uniform(rng, 3 * e, h),
             "ctx.b": np.zeros((1, h))}
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
            p[name] = nc.glorot_uniform(rng, h, h)
        p["attn.ln_g"] = np.ones((1, h))
        p["attn.ln_b"] = np.zeros((1, h))
        for g in range(config.G):
            p[f"head{g}.w"] = nc.glorot_uniform(rng, h, config.K)
            p[f"head{g}.b"] = np.zeros((1, config.K))
        self.store = nc.ParamStore(p)


def _check_words(word_ids, vocab: int) -> np.ndarray:
    ids = np.asarray(word_ids, dtype=np.int64).reshape(-1)
    if ids.size < 1:
        raise ValidationError("need at least one word")
    if ids.min() < 0 or ids.max() >= vocab:
        raise VocabularyError(
            f"word id outside vocabulary [0, {vocab}): {int(ids.min())}..{int(ids.max())}"
        )
    return ids


def pack_sentences(texts) -> tuple[np.ndarray, np.ndarray]:
    """Stacked word ids of ``texts`` and the S+1 offsets where each starts."""
    ids = [np.asarray(t, dtype=np.int64).reshape(-1) for t in texts]
    offsets = np.concatenate([[0], np.cumsum([t.size for t in ids])]).astype(np.int64)
    return np.concatenate(ids), offsets


def head_logits(word_ids, model: PredictorModel, offsets) -> list[nc.Tensor]:
    """Per-group (W, K) logits of the words of packed sentences whose words
    start at ``offsets`` (`pack_sentences`)."""
    ids = _check_words(word_ids, model.config.word_vocab)
    offsets = nc.check_offsets(offsets, ids.size)
    p = model.store
    e = nc.gather_rows(p["embed"], ids)
    # neighbor concatenation: [left, self, right] with zero padding at edges
    h = nc.relu(nc.conv1d(e, p["ctx.w"], p["ctx.b"], width=3, offsets=offsets))
    attended = nc.attention(
        nc.affine(h, p["attn.wq"]), nc.affine(h, p["attn.wk"]), nc.affine(h, p["attn.wv"]),
        offsets=offsets,
    )
    h = nc.layer_norm(nc.add(h, nc.affine(attended, p["attn.wo"])),
                      p["attn.ln_g"], p["attn.ln_b"])
    return [
        nc.affine(h, p[f"head{g}.w"], p[f"head{g}.b"]) for g in range(model.config.G)
    ]


def predict_codes(word_ids, model: PredictorModel, offsets) -> np.ndarray:
    """(W, G) argmax codes of the words of packed sentences whose words
    start at ``offsets`` (`pack_sentences`); deterministic, ties to the
    lowest index."""
    with model.store.frozen():
        logits = head_logits(word_ids, model, offsets)
    return np.stack([lg.data.argmax(axis=1) for lg in logits], axis=1)


def _validate_pairs(texts, codes, cfg: PredictorConfig) -> None:
    if len(texts) != len(codes):
        raise ShapeError(f"{len(texts)} texts vs {len(codes)} code blocks")
    if len(texts) == 0:
        raise ValidationError("need at least one sentence")
    for t, c in zip(texts, codes):
        c = np.asarray(c)
        if c.ndim != 2 or c.shape != (len(t), cfg.G):
            raise ShapeError(
                f"codes shaped {c.shape} do not align with a {len(t)}-word sentence"
            )
        if c.size and (c.min() < 0 or c.max() >= cfg.K):
            raise ConfigError(
                f"code value {int(c.max())} outside configured K={cfg.K}"
            )


def train_predictor(
    texts: list,
    codes: list,
    cfg: PredictorConfig,
    train_cfg: nc.TrainConfig,
) -> PredictorModel:
    """Minimize per-head cross-entropy of codes given word context.

    ``texts`` and ``codes`` are parallel lists: word-id sequences and their
    (W, G) integer code blocks from a trained encoder run. Each step is one
    graph over the packed batch; its loss is the mean over heads and
    sentences of each sentence's mean cross-entropy over its words.
    """
    _validate_pairs(texts, codes, cfg)
    model = PredictorModel(cfg)
    sampler = nc.BatchSampler(
        len(texts), train_cfg.batch_size, np.random.default_rng(train_cfg.seed)
    )

    def step_loss(step: int) -> nc.Tensor:
        batch = sampler.next()
        ids, offsets = pack_sentences([texts[i] for i in batch])
        targets = np.vstack([np.asarray(codes[i], dtype=np.int64) for i in batch])
        logits = head_logits(ids, model, offsets)
        total = nc.cross_entropy(logits[0], targets[:, 0], offsets)
        for g in range(1, cfg.G):
            total = nc.add(total, nc.cross_entropy(logits[g], targets[:, g], offsets))
        return nc.mul(total, 1.0 / cfg.G)

    nc.fit([model.store], train_cfg.steps, step_loss, train_cfg.learning_rate)
    return model


def evaluate_predictor(predicted: np.ndarray, codes: list) -> np.ndarray:
    """(G,) top-1 accuracy of each code head over the words of held-out
    sentences: ``predicted`` is `predict_codes`' (W, G) output for the
    sentences packed in order, ``codes`` their (W, G) reference blocks."""
    targets = np.vstack([np.asarray(c, dtype=np.int64) for c in codes])
    if targets.shape != predicted.shape:
        raise ShapeError(f"predicted codes {predicted.shape} vs reference codes {targets.shape}")
    return np.mean(predicted == targets, axis=0)
