"""Neural mutual-information estimation with exact oracles alongside.

The estimator trains a small statistics network to maximize the
Donsker-Varadhan lower bound I >= E_joint[T] - ln E_marginal[exp T], with
the standard exponential-moving-average correction for the biased gradient
of the log-partition term. The codes are tuples of G non-negative integers;
they enter the network through learned embeddings so it sees a metric space
rather than raw integers, and the G embeddings of a code tuple come from one
gather.

The network's first layer is factorized over its two inputs, x @ w1x +
emb(z) @ w1z + b1, so an x row paired with several code tuples is projected
once. Each training step projects its batch's x rows once and evaluates
the rest of the network on them paired with their own codes (the joint
rows) and with shuffled codes (the marginal rows); the full-data bound
projects the data once for the joint rows and all of its derangements.

`MineConfig` holds what callers set (hidden width, steps, batch size,
evaluation period, seed); `CODE_EMBED_DIM`, `LEARNING_RATE`, `EMA_DECAY`,
`EVAL_SMOOTHING` and `EVAL_DERANGEMENTS` are constants. Samples and codes
are 2-D, one row per sample and at least one column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import (
    ConfigError,
    ShapeError,
    ValidationError,
    VocabularyError,
)


CODE_EMBED_DIM = 8         # width of each code's learned embedding
LEARNING_RATE = 2e-3
EMA_DECAY = 0.99           # gradient bias correction for ln E[exp T]
EVAL_SMOOTHING = 0.9       # smoothing of the full-data bound
EVAL_DERANGEMENTS = 16     # marginal resamplings per evaluation


@dataclass(frozen=True)
class MineConfig:
    hidden: int = 48
    steps: int = 4000
    batch_size: int = 512
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        for name, least in (("hidden", 1), ("steps", 1), ("batch_size", 2),
                            ("eval_every", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")


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
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        p = {"embed": 0.1 * rng.standard_normal((n_symbols * z_dim, CODE_EMBED_DIM))}
        w1 = nc.glorot_uniform(rng, x_dim + CODE_EMBED_DIM * z_dim, cfg.hidden)
        p["w1x"], p["w1z"] = w1[:x_dim], w1[x_dim:]
        p["b1"] = np.zeros((1, cfg.hidden))
        p["w2"] = nc.glorot_uniform(rng, cfg.hidden, 1)
        p["b2"] = np.zeros((1, 1))
        self.store = nc.ParamStore(p)
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
        z_repr = nc.gather_rows(self.store["embed"], z + self.n_symbols * np.arange(self.z_dim))
        h = nc.add(x_proj, nc.affine(z_repr, self.store["w1z"]))
        return nc.affine(nc.relu(h), self.store["w2"], self.store["b2"])


def _prepare_inputs(xs, zs) -> tuple[np.ndarray, np.ndarray, int]:
    xs = np.asarray(xs, dtype=np.float64)
    zs = np.asarray(zs)
    if xs.ndim != 2 or zs.ndim != 2 or xs.shape[1] == 0 or zs.shape[1] == 0:
        raise ShapeError(f"samples and codes must be 2-D with columns, got {xs.shape}, {zs.shape}")
    n = xs.shape[0]
    if n != zs.shape[0]:
        raise ShapeError(f"sample counts differ: {n} vs {zs.shape[0]}")
    if n < 100:
        raise ValidationError(f"mine_estimate needs >= 100 samples, got {n}")
    if not np.issubdtype(zs.dtype, np.integer):
        raise ValidationError(f"codes must be integers, got dtype {zs.dtype}")
    if zs.min() < 0:
        raise ValidationError(f"codes must be >= 0, got {int(zs.min())}")
    return xs, zs.astype(np.int64), int(zs.max()) + 1


def mine_estimate(xs, zs, cfg: MineConfig) -> float:
    """Train the statistics network on the rows of ``xs`` paired with the
    code tuples ``zs`` (non-negative integers, one row of G per sample) and
    return the smoothed final bound.

    Requires at least 100 samples (the estimator is unreliable below). The
    returned value is clamped below at 0 for reporting, since mutual
    information is non-negative.
    """
    xs, zs, n_symbols = _prepare_inputs(xs, zs)
    n = xs.shape[0]
    model = MineModel(xs.shape[1], zs.shape[1], n_symbols, cfg)
    rng = np.random.default_rng(cfg.seed)
    # several independent derangements keep the Monte-Carlo noise of the
    # log-partition term well below the estimator's tolerance
    z_eval_margs = [
        shuffle_marginal(zs, seed=cfg.seed + 1 + r)
        for r in range(EVAL_DERANGEMENTS)
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
            EMA_DECAY * ema + (1.0 - EMA_DECAY) * batch_mean_exp
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
                EVAL_SMOOTHING * smoothed + (1.0 - EVAL_SMOOTHING) * bound
            )

    nc.fit([model.store], cfg.steps, step_loss, LEARNING_RATE, on_step=evaluate_bound)
    return max(float(smoothed), 0.0)
