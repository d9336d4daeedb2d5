"""Grouped vector-quantization bottleneck with exact, controllable capacity.

A D-dimensional vector is split into G contiguous sub-vectors, each encoded
independently as the index of its nearest entry in one shared codebook of K
entries living in R^(D/G). The bottleneck therefore transmits exactly
G * ln K nats; K = 0 disables it (zero vector out, no codes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import CodeRangeError, ConfigError, ShapeError, ValidationError

DEFAULT_COMMITMENT_COST = 0.25


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


@dataclass
class Codebook:
    """K x (D/G) entries shared across all G groups."""

    entries: np.ndarray
    groups: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 2 or self.entries.shape[0] < 1:
            raise ConfigError(f"codebook entries must be a K x dim matrix, got {self.entries.shape}")
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if not np.all(np.isfinite(self.entries)):
            raise ConfigError("codebook entries must be finite")

    @property
    def size(self) -> int:
        return int(self.entries.shape[0])

    @property
    def sub_dim(self) -> int:
        return int(self.entries.shape[1])

    @property
    def dim(self) -> int:
        return self.groups * self.sub_dim


def quantize_batch(x: np.ndarray, cb: Codebook) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize rows of (n, D) against the shared codebook.

    Returns (codes, quantized, sq_dists): integer codes (n, G), the
    concatenated nearest entries (n, D), and squared L2 distances to every
    entry (n, G, K). Ties go to the lowest index (argmin semantics).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cb.dim:
        raise ShapeError(
            f"rows {x.shape} are not (n, groups * entry dim = {cb.groups} * {cb.sub_dim})"
        )
    grouped = x.reshape(x.shape[0], cb.groups, cb.sub_dim)
    diff = grouped[:, :, None, :] - cb.entries[None, None, :, :]
    sq = np.einsum("ngkd,ngkd->ngk", diff, diff)
    codes = sq.argmin(axis=2)
    quantized = cb.entries[codes].reshape(x.shape[0], cb.dim)
    return codes, quantized, sq


def lookup(codes, cb: Codebook) -> np.ndarray:
    """The (W, G * entry dim) rows of codebook entries for (W, G) integer
    codes; inverse of quantize_batch's code assignment (lookup(codes) ==
    quantized)."""
    idx = np.asarray(codes, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[1] != cb.groups:
        raise ShapeError(f"codes shaped {idx.shape} are not (words, {cb.groups} groups)")
    if idx.size and (idx.min() < 0 or idx.max() >= cb.size):
        raise CodeRangeError(
            f"code index out of range [0, {cb.size}): {int(idx.min())}..{int(idx.max())}"
        )
    return cb.entries[idx].reshape(idx.shape[0], cb.dim)


@dataclass
class BottleneckOutput:
    quantized: nc.Tensor                  # (n, D) straight-through values
    codes: np.ndarray | None              # (n, G) ints, None when disabled
    codebook_loss: nc.Tensor              # 1x1
    commitment_loss: nc.Tensor            # 1x1


def apply_bottleneck(
    x: nc.Tensor,
    codebook_param: nc.Tensor | None,
    cfg: CapacityConfig,
    commitment_cost: float = DEFAULT_COMMITMENT_COST,
    offsets=None,
) -> BottleneckOutput:
    """Differentiable bottleneck application for training graphs.

    Forward values are the quantized vectors; gradients reach the input via
    the straight-through estimator and reach the codebook via the codebook
    loss only. Each loss is a mean over an utterance's n x D entries, so it
    sits on the same scale as a mean-squared reconstruction loss; for rows
    packed from several utterances (``offsets`` marks where each starts) the
    per-utterance means are averaged. With K = 0 the output is the zero
    matrix, there are no codes, and both losses are exactly 0.
    """
    n = x.rows
    if not cfg.enabled:
        zero = nc.constant(np.zeros((1, 1)))
        return BottleneckOutput(
            quantized=nc.constant(np.zeros((n, x.cols))),
            codes=None,
            codebook_loss=zero,
            commitment_loss=zero,
        )
    if codebook_param is None:
        raise ConfigError("enabled bottleneck needs a codebook parameter")
    if x.cols % cfg.G != 0:
        raise ShapeError(f"dim {x.cols} not divisible by G={cfg.G}")
    cb = Codebook(entries=codebook_param.data, groups=cfg.G)
    codes, q_values, _ = quantize_batch(x.data, cb)
    # codebook pulls toward frozen encoder outputs
    codebook_loss = nc.mse(nc.gather_rows(codebook_param, codes), x.data, offsets)
    # encoder commits to the frozen selected entries
    commitment_loss = nc.mul(nc.mse(x, q_values, offsets), commitment_cost)
    return BottleneckOutput(
        quantized=nc.straight_through(x, q_values),
        codes=codes,
        codebook_loss=codebook_loss,
        commitment_loss=commitment_loss,
    )


@dataclass
class UsageStats:
    histogram: np.ndarray   # (G, K) counts
    perplexity: np.ndarray  # (G,) exp(entropy), in [1, K]


def usage_stats(codes: np.ndarray, cfg: CapacityConfig) -> UsageStats:
    """Per-group code histograms and perplexities over a dataset."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim == 1:
        codes = codes.reshape(-1, 1)
    if codes.size == 0:
        raise ValidationError("usage_stats needs at least one code")
    if codes.shape[1] != cfg.G:
        raise ShapeError(f"codes have {codes.shape[1]} groups, config says {cfg.G}")
    hist = np.zeros((cfg.G, cfg.K), dtype=np.int64)
    perp = np.zeros(cfg.G)
    n = codes.shape[0]
    for g in range(cfg.G):
        hist[g] = np.bincount(codes[:, g], minlength=cfg.K)
        p = hist[g][hist[g] > 0] / n
        perp[g] = math.exp(-float(np.sum(p * np.log(p))))
    return UsageStats(histogram=hist, perplexity=perp)


# ---------------------------------------------------------------------------
# codebook initialization
# ---------------------------------------------------------------------------


def kmeans_pp_seeds(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Deterministic k-means++ seeding; resamples with jitter if data is short."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n == 0:
        raise ValidationError("cannot seed a codebook from no data")
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


def init_codebook_from_features(
    word_features: np.ndarray, cfg: CapacityConfig, seed: int = 0
) -> Codebook:
    """Seed codebook entries from encoder outputs (k-means++ over group
    sub-vectors) to reduce early collapse."""
    if not cfg.enabled:
        raise ConfigError("cannot initialize a disabled bottleneck")
    feats = np.asarray(word_features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] % cfg.G != 0:
        raise ShapeError(f"word features {feats.shape} not groupable by G={cfg.G}")
    sub = feats.reshape(-1, feats.shape[1] // cfg.G)
    rng = np.random.default_rng(seed)
    return Codebook(entries=kmeans_pp_seeds(sub, cfg.K, rng), groups=cfg.G)


# ---------------------------------------------------------------------------
# code serialization
# ---------------------------------------------------------------------------


def save_codes(path: str | Path, codes: np.ndarray) -> None:
    """One row per word, G integer columns."""
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim != 2:
        raise ShapeError(f"codes must be (n, G), got {codes.shape}")
    np.savetxt(path, codes, fmt="%d", delimiter=",")
