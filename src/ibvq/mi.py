"""Neural mutual-information estimation with exact oracles alongside.

The estimator trains a small statistics network to maximize the
Donsker-Varadhan lower bound I >= E_joint[T] - ln E_marginal[exp T], with
the standard exponential-moving-average correction for the biased gradient
of the log-partition term. Discrete codes enter the network through learned
embeddings so it sees a metric space rather than raw integers; the G
embeddings of a code tuple come from one gather.

The network's first layer is factorized over its two inputs, x @ w1x +
emb(z) @ w1z + b1, so an x row paired with several code tuples is projected
once. Each training step projects its batch's x rows once and evaluates
the rest of the network on them paired with their own codes (the joint
rows) and with shuffled codes (the marginal rows); the full-data bound
projects the data once for the joint rows and all of its derangements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import (
    ConfigError,
    ShapeError,
    ValidationError,
    VocabularyError,
)


@dataclass(frozen=True)
class MineConfig:
    hidden: int = 48
    code_embed_dim: int = 8
    learning_rate: float = 2e-3
    steps: int = 4000
    batch_size: int = 512
    ema_decay: float = 0.99      # gradient bias correction for ln E[exp T]
    eval_every: int = 50
    eval_smoothing: float = 0.9  # smoothing of the full-data bound
    eval_derangements: int = 16  # marginal resamplings per evaluation
    seed: int = 0

    def validate(self) -> None:
        if self.steps < 1 or self.batch_size < 2 or self.hidden < 1:
            raise ConfigError("steps >= 1, batch_size >= 2, hidden >= 1 required")
        if self.eval_every < 1 or self.code_embed_dim < 1:
            raise ConfigError("eval_every >= 1 and code_embed_dim >= 1 required")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.eval_derangements < 1:
            raise ConfigError("eval_derangements must be >= 1")
        if not 0.0 <= self.ema_decay < 1.0 or not 0.0 <= self.eval_smoothing < 1.0:
            raise ConfigError("decay factors must lie in [0, 1)")


def dv_bound(t_joint, t_marginal) -> float:
    """mean(T_joint) - ln(mean(exp(T_marginal))), with the largest marginal
    statistic shifted out of the sum so that exp cannot overflow."""
    tj = np.asarray(t_joint, dtype=np.float64).reshape(-1)
    tm = np.asarray(t_marginal, dtype=np.float64).reshape(-1)
    if tj.size == 0 or tm.size == 0:
        raise ValidationError("dv_bound needs non-empty statistic sequences")
    shift = tm.max()
    log_sum_exp = np.log(np.sum(np.exp(tm - shift))) + shift
    return float(tj.mean() - (log_sum_exp - np.log(tm.size)))


def shuffle_marginal(zs, seed: int) -> np.ndarray:
    """The rows of ``zs`` permuted by a seeded derangement-biased shuffle.

    Permutations are redrawn until no row keeps its place (up to a bounded
    number of tries), so pairing the result with the unshuffled x rows
    approximates a sample from the product of marginals even for small n.
    """
    zs = np.asarray(zs)
    n = zs.shape[0]
    if n < 2:
        raise ValidationError("need at least 2 pairs to shuffle a marginal")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    for _ in range(100):
        if not np.any(perm == np.arange(n)):
            break
        perm = rng.permutation(n)
    else:
        perm = np.roll(np.arange(n), 1)
    return zs[perm]


def content_vector(phone_ids, embedding_table: np.ndarray) -> np.ndarray:
    """Mean of the member phones' embeddings; order-free by construction."""
    ids = np.asarray(phone_ids, dtype=np.int64).reshape(-1)
    if ids.size == 0:
        raise ValidationError("content_vector needs a non-empty word")
    table = np.asarray(embedding_table, dtype=np.float64)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise VocabularyError(f"phone id outside embedding table [0, {table.shape[0]})")
    return table[ids].mean(axis=0)


class MineModel:
    """Two-layer statistics network T(x, z) -> scalar.

    The first layer's weight over the concatenated input [x, emb(z)] is held
    as its two row blocks, w1x and w1z, drawn as one matrix.
    """

    def __init__(self, x_dim: int, z_dim: int, n_symbols: int, cfg: MineConfig):
        cfg.validate()
        self.cfg = cfg
        self.discrete = n_symbols > 0
        self.store = nc.ParamStore()
        rng = np.random.default_rng(cfg.seed)
        z_repr = cfg.code_embed_dim * z_dim if self.discrete else z_dim
        if self.discrete:
            self.store.add(
                "embed", 0.1 * rng.standard_normal((n_symbols * z_dim, cfg.code_embed_dim))
            )
        w1 = nc.glorot_uniform(rng, x_dim + z_repr, cfg.hidden)
        self.store.add("w1x", w1[:x_dim])
        self.store.add("w1z", w1[x_dim:])
        self.store.add("b1", np.zeros((1, cfg.hidden)))
        self.store.add("w2", nc.glorot_uniform(rng, cfg.hidden, 1))
        self.store.add("b2", np.zeros((1, 1)))
        self.n_symbols = n_symbols
        self.z_dim = z_dim

    def statistic(self, x: np.ndarray, z: np.ndarray) -> tuple[nc.Tensor, ...]:
        """T at each x row paired with each of its k code tuples.

        ``z`` holds the k tuples of every row side by side, shape (n, k *
        z_dim). Returns k (n, 1) tensors, the j-th holding T(x[i], tuple j
        of z[i]); the x rows are projected once for all k.
        """
        n, width = x.shape[0], self.z_dim
        k = z.shape[1] // width
        if k < 1 or z.shape != (n, k * width):
            raise ShapeError(f"codes {z.shape} are not {n} rows of k tuples of {width}")
        x_proj = nc.affine(nc.constant(x), self.store["w1x"], self.store["b1"])
        return tuple(self._head(x_proj, z[:, j * width : (j + 1) * width]) for j in range(k))

    def _head(self, x_proj: nc.Tensor, z: np.ndarray) -> nc.Tensor:
        """T from the projected x rows (first-layer bias included) and one
        code tuple per row."""
        if self.discrete:
            z_repr = nc.gather_rows(self.store["embed"], z + self.n_symbols * np.arange(self.z_dim))
        else:
            z_repr = nc.constant(z)
        h = nc.add(x_proj, nc.affine(z_repr, self.store["w1z"]))
        return nc.affine(nc.relu(h), self.store["w2"], self.store["b2"])


def _prepare_inputs(xs, zs) -> tuple[np.ndarray, np.ndarray, int]:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    zs = np.asarray(zs)
    if np.issubdtype(zs.dtype, np.integer):
        if zs.ndim == 1:
            zs = zs.reshape(-1, 1)
        n_symbols = int(zs.max()) + 1
        zs = zs.astype(np.int64)
    else:
        n_symbols = 0
        zs = np.asarray(zs, dtype=np.float64)
        if zs.ndim == 1:
            zs = zs.reshape(-1, 1)
    if xs.shape[0] != zs.shape[0]:
        raise ShapeError(f"sample counts differ: {xs.shape[0]} vs {zs.shape[0]}")
    return xs, zs, n_symbols


def mine_estimate(xs, zs, cfg: MineConfig | None = None) -> float:
    """Train the statistics network and return the smoothed final bound.

    Requires at least 100 samples (the estimator is unreliable below). The
    returned value is clamped below at 0 for reporting, since mutual
    information is non-negative.
    """
    cfg = cfg or MineConfig()
    cfg.validate()
    xs, zs, n_symbols = _prepare_inputs(xs, zs)
    n = xs.shape[0]
    if n < 100:
        raise ValidationError(f"mine_estimate needs >= 100 samples, got {n}")
    model = MineModel(xs.shape[1], zs.shape[1], n_symbols, cfg)
    rng = np.random.default_rng(cfg.seed)
    # several independent derangements keep the Monte-Carlo noise of the
    # log-partition term well below the estimator's tolerance
    z_eval_margs = [
        shuffle_marginal(zs, seed=cfg.seed + 1 + r)
        for r in range(cfg.eval_derangements)
    ]
    # each row's codes followed by its codes under every derangement
    z_eval = np.hstack([zs] + z_eval_margs)
    ema = None
    smoothed = None
    batch = min(cfg.batch_size, n)

    def step_loss(step: int) -> nc.Tensor:
        nonlocal ema
        idx = rng.choice(n, size=batch, replace=False)
        x_b, z_b = xs[idx], zs[idx]
        z_m = z_b[rng.permutation(batch)]
        t_joint, t_marg = model.statistic(x_b, np.hstack([z_b, z_m]))
        mean_exp_marg = nc.mean_all(nc.exp(t_marg))
        batch_mean_exp = mean_exp_marg.item()
        ema = batch_mean_exp if ema is None else (
            cfg.ema_decay * ema + (1.0 - cfg.ema_decay) * batch_mean_exp
        )
        # maximize mean(T_joint) - E[exp T_marg]/ema: same gradient direction
        # as the DV bound but with the debiased log-partition gradient
        return nc.sub(nc.mul(mean_exp_marg, 1.0 / ema), nc.mean_all(t_joint))

    def evaluate_bound(step: int) -> None:
        nonlocal smoothed
        if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
            with model.store.frozen():
                t_joint, *t_margs = model.statistic(xs, z_eval)
            bound = dv_bound(t_joint.data, np.vstack([t.data for t in t_margs]))
            smoothed = bound if smoothed is None else (
                cfg.eval_smoothing * smoothed + (1.0 - cfg.eval_smoothing) * bound
            )

    nc.fit([model.store], cfg.steps, step_loss, cfg.learning_rate, on_step=evaluate_bound)
    return max(float(smoothed), 0.0)
