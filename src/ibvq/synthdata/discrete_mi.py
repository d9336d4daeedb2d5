"""Exact plug-in mutual information for discrete sequences.

Serves as the oracle counterpart to the neural estimator whenever both
variables are discrete: compute the empirical joint distribution and apply
the definition directly.
"""

from __future__ import annotations

import numpy as np

from ibvq.errors import ShapeError


def _as_symbols(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size < 1:
        raise ShapeError("sequence must have at least one element")
    return np.unique(arr, return_inverse=True)[1]


def oracle_mi_discrete(a, b) -> float:
    """Plug-in MI in nats from empirical joint counts of two sequences."""
    ai = _as_symbols(a)
    bi = _as_symbols(b)
    if ai.size != bi.size:
        raise ShapeError(f"sequence lengths differ: {ai.size} vs {bi.size}")
    n = ai.size
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    p = joint / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log(p[mask] / (pa @ pb)[mask])))
    return max(mi, 0.0)


def entropy_discrete(a) -> float:
    """Empirical entropy in nats of one discrete sequence."""
    ai = _as_symbols(a)
    counts = np.bincount(ai).astype(np.float64)
    p = counts[counts > 0] / ai.size
    return float(-np.sum(p * np.log(p)))


def merge_symbols(codes) -> np.ndarray:
    """Collapse rows of a 2-D integer array into one symbol per row."""
    arr = np.asarray(codes)
    if arr.ndim != 2:
        raise ShapeError(f"expected 2-D codes, got shape {arr.shape}")
    return np.unique(arr, axis=0, return_inverse=True)[1].reshape(-1)
