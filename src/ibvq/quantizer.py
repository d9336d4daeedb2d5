"""Grouped vector-quantization bottleneck with controllable capacity.

A D-dimensional vector is split into G contiguous sub-vectors, each encoded
independently as the index of its nearest entry in one shared codebook of K
entries living in R^(D/G). The bottleneck therefore transmits at most
G * ln K nats, less when a group uses fewer entries (at K = 2 a probe found
0 nats: ROADMAP.md, item 1); K = 0 disables it (no codebook, no codes).
Only this module knows the codebook's layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import CodeRangeError, ConfigError, ShapeError, ValidationError
from ibvq.synthdata import entropy_discrete


@dataclass(frozen=True)
class CapacityConfig:
    """Dictionary size and group count; K = 0 means the bottleneck is off."""

    K: int
    G: int = 2

    def __post_init__(self):
        if self.K < 0:
            raise ConfigError(f"K must be >= 0, got {self.K}")
        if self.G < 1:
            raise ConfigError(f"G must be >= 1, got {self.G}")

    @property
    def enabled(self) -> bool:
        return self.K > 0


def capacity(cfg: CapacityConfig) -> float:
    """Information capacity of the bottleneck in nats: G * ln K (0 if off)."""
    if cfg.K == 0:
        return 0.0
    return cfg.G * math.log(cfg.K)


def codebook_store(cfg: CapacityConfig, dim: int) -> nc.ParamStore:
    """The codebook's parameters for word vectors of ``dim`` values: one,
    ``entries`` (K x dim/G, zeros until seeded), when K > 0, none at K = 0."""
    return nc.ParamStore({"entries": np.zeros((cfg.K, dim // cfg.G))} if cfg.enabled else {})


def quantize_batch(x: np.ndarray, entries: np.ndarray, groups: int) -> np.ndarray:
    """The (n, G) integer codes of the rows of (n, D) ``x``: per group, the
    index of the nearest entry of the K x (D/G) codebook ``entries`` shared
    by the ``groups`` groups. Ties go to the lowest index (argmin
    semantics); `lookup` maps the codes back to entries."""
    x = np.asarray(x, dtype=np.float64)
    sub_dim = entries.shape[1]
    if x.ndim != 2 or x.shape[1] != groups * sub_dim:
        raise ShapeError(
            f"rows {x.shape} are not (n, groups * entry dim = {groups} * {sub_dim})"
        )
    grouped = x.reshape(x.shape[0], groups, sub_dim)
    diff = grouped[:, :, None, :] - entries[None, None, :, :]
    sq = np.einsum("ngkd,ngkd->ngk", diff, diff)
    return sq.argmin(axis=2)


def lookup(codes, entries: np.ndarray, groups: int) -> np.ndarray:
    """The (W, G * entry dim) rows of codebook ``entries`` for (W, G) integer
    codes, each group's entry side by side: the nearest entries of the rows
    `quantize_batch` coded."""
    idx = np.asarray(codes, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != groups:
        raise ShapeError(f"codes shaped {idx.shape} are not (words, {groups} groups)")
    if idx.size and (idx.min() < 0 or idx.max() >= len(entries)):
        raise CodeRangeError(
            f"code index out of range [0, {len(entries)}): {int(idx.min())}..{int(idx.max())}"
        )
    return entries[idx].reshape(idx.shape[0], groups * entries.shape[1])


@dataclass
class BottleneckOutput:
    quantized: nc.Tensor                  # (n, D) straight-through values
    codes: np.ndarray | None              # (n, G) ints, None when disabled
    codebook_loss: nc.Tensor              # 1x1
    commitment_loss: nc.Tensor            # 1x1


def apply_bottleneck(
    x: nc.Tensor,
    codebook_param: nc.Tensor,
    cfg: CapacityConfig,
    commitment_cost: float,
    offsets,
) -> BottleneckOutput:
    """Differentiable bottleneck application for training graphs.

    One gather of the picked entries gives the forward values, the codebook
    loss and the commitment target; gradients reach the input via the
    straight-through estimator and the codebook via the codebook loss only.
    The rows are the words of packed utterances, and ``offsets`` marks where
    each utterance's words start. Each loss is the mean over the utterances
    of the mean over an utterance's n x D entries, so it sits on the same
    scale as the mean-squared reconstruction loss.
    """
    codes = quantize_batch(x.data, codebook_param.data, cfg.G)
    chosen = nc.gather_rows(codebook_param, codes)
    # codebook pulls toward frozen encoder outputs
    codebook_loss = nc.mse(chosen, x.data, offsets)
    # encoder commits to the frozen selected entries
    commitment_loss = nc.mul(nc.mse(x, chosen.data, offsets), commitment_cost)
    return BottleneckOutput(
        quantized=nc.straight_through(x, chosen.data),
        codes=codes,
        codebook_loss=codebook_loss,
        commitment_loss=commitment_loss,
    )


def usage_stats(codes: np.ndarray, cfg: CapacityConfig) -> np.ndarray:
    """(G,) code perplexity of each group over a dataset: exp of the entropy
    of its code histogram, in [1, K]."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        raise ValidationError("usage_stats needs at least one code")
    if codes.ndim != 2 or codes.shape[1] != cfg.G:
        raise ShapeError(f"codes shaped {codes.shape} are not (n, {cfg.G} groups)")
    return np.array([math.exp(entropy_discrete(codes[:, g])) for g in range(cfg.G)])


# ---------------------------------------------------------------------------
# codebook initialization
# ---------------------------------------------------------------------------


def init_codebook_from_features(
    word_features: np.ndarray, cfg: CapacityConfig, seed: int
) -> np.ndarray:
    """K x (D/G) codebook entries seeded from encoder outputs by
    deterministic k-means++ over their group sub-vectors, to reduce early
    collapse; too few sub-vectors are resampled with jitter."""
    if not cfg.enabled:
        raise ConfigError("cannot initialize a disabled bottleneck")
    feats = np.asarray(word_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] % cfg.G != 0:
        raise ShapeError(f"word features {feats.shape} not groupable by G={cfg.G}")
    data = feats.reshape(-1, feats.shape[1] // cfg.G)
    n, k = data.shape[0], cfg.K
    if n == 0:
        raise ValidationError("cannot seed a codebook from no data")
    rng = np.random.default_rng(seed)
    if n < k:
        extra = data[rng.integers(0, n, size=k - n)]
        extra = extra + rng.normal(0.0, 1e-3, size=extra.shape)
        data = np.vstack([data, extra])
        n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(0, n)]
    sq_dist = ((data - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = sq_dist.sum()
        if total <= 0:
            centers[i] = data[rng.integers(0, n)] + rng.normal(0.0, 1e-3, size=data.shape[1])
        else:
            centers[i] = data[rng.choice(n, p=sq_dist / total)]
        sq_dist = np.minimum(sq_dist, ((data - centers[i]) ** 2).sum(axis=1))
    return centers


class DeadCodes:
    """Picks per codebook entry since the last check, and the reseed of the
    entries that got none (training's guard against codebook collapse)."""

    def __init__(self, cfg: CapacityConfig):
        self.counts = np.zeros(cfg.K, dtype=np.int64)
        self.word_features = None

    def count(self, codes: np.ndarray, word_features: np.ndarray) -> None:
        """Add a step's (n, G) codes; its (n, D) word features are the ones
        to reseed from."""
        self.counts += np.bincount(codes.reshape(-1), minlength=self.counts.size)
        self.word_features = word_features

    def reseed(self, entries: np.ndarray, rng: np.random.Generator) -> None:
        """Move each entry that got no pick onto a random group sub-vector of
        the last word features counted, plus N(0, 1e-3) noise, in place, and
        start a new count."""
        dead = self.counts == 0
        if dead.any():
            pool = self.word_features.reshape(-1, entries.shape[1])
            pick = rng.integers(0, pool.shape[0], size=int(dead.sum()))
            entries[dead] = pool[pick] + rng.normal(0.0, 1e-3, size=(pick.size, entries.shape[1]))
        self.counts[:] = 0
