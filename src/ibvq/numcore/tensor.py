"""Reverse-mode differentiable operations on 2-D float64 matrices.

Every value is a `Tensor` wrapping a ``(rows, cols)`` numpy array. Operations
build a computation graph; calling :meth:`Tensor.backward` on a 1x1 scalar
runs reverse-mode accumulation into ``.grad`` of every leaf that was created
with ``requires_grad=True``. Only leaves keep ``.grad``: an interior node's
gradient is dropped as soon as its backward function has passed it on, so a
graph after backward holds its activations but no gradient of its own.
Everything is float64 and deterministic: the same inputs produce
bit-identical outputs.

A node's backward function receives the upstream gradient as its argument
and refers only to the node's inputs, never to the node itself. A graph
therefore holds no reference cycle, and reference counting frees it as soon
as its loss tensor is dropped, without waiting for the cycle collector.

The operation set is intentionally small: exactly the layers the models in
this package need (affine, scaled dot-product attention, same-padded 1-D
convolution, layer norm, segment pooling, row repetition, gathers, the
straight-through estimator, and the usual reductions/losses).

Sequence layers work on packed batches: several sequences stacked row-wise
into one matrix, with an ``offsets`` array of S+1 entries marking where
each of the S sequences starts (``offsets[0] == 0``, ``offsets[-1]`` is the
row count). `attention` attends only within a sequence, `conv1d` zero-pads
at every sequence boundary, `mse` and `cross_entropy` average each
sequence's entries and then the sequences, and `positional` numbers rows
from 0 in every sequence, so a packed batch computes what its sequences
compute one at a time, to rounding: the BLAS result for a row of a matrix
product can depend on the product's row count, so the two can differ in
the last bit.
Without offsets the whole matrix is one sequence.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from ibvq.errors import (
    AlignmentError,
    ConfigError,
    NumericError,
    ShapeError,
    ValidationError,
)

Array = np.ndarray


def _as_matrix(data) -> Array:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


class Tensor:
    """A 2-D float64 matrix node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple = (),
        _backward: Callable[[Array], None] | None = None,
    ):
        self.data = _as_matrix(data)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.data[0, 0])

    def _accumulate(self, g: Array) -> None:
        # copy on first contribution: g may alias another node's buffer
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g

    def backward(self) -> None:
        """Reverse-mode pass from this 1x1 scalar through the graph.

        Leaves that require a gradient accumulate it in ``.grad``. Every
        interior node's ``.grad`` is None afterwards: it is released as soon
        as the node's backward function has propagated it.
        """
        if self.data.shape != (1, 1):
            raise ShapeError(f"backward() needs a scalar output, got {self.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones((1, 1))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor; validates finiteness of external data."""
    t = Tensor(data, requires_grad=requires_grad)
    if not np.all(np.isfinite(t.data)):
        raise NumericError("tensor data contains non-finite entries")
    return t


def constant(data) -> Tensor:
    """A leaf with no gradient path (used for targets and frozen values)."""
    return Tensor(data, requires_grad=False)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def _child(data: Array, parents: tuple, backward: Callable[[Array], None]) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def _unbroadcast(g: Array, shape: tuple[int, int]) -> Array:
    # Sum gradient over axes that were broadcast in the forward pass.
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")
    return g


def _broadcast_ok(a: Tensor, b: Tensor) -> None:
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ShapeError(f"shapes {a.shape} and {b.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_ok(a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _child(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_ok(a, b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _child(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        s = float(b)
        out_data = a.data * s

        def backward_scalar(g):
            if a.requires_grad:
                a._accumulate(g * s)

        return _child(out_data, (a,), backward_scalar)

    _broadcast_ok(a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _child(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _child(out_data, (a, b), backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight + bias, with the bias row broadcast over rows, as one
    node; values and gradients equal those of `matmul` followed by `add`."""
    if x.cols != weight.rows:
        raise ShapeError(f"affine dimensions differ: x {x.shape} vs W {weight.shape}")
    if bias is not None and bias.shape != (1, weight.cols):
        raise ShapeError(f"bias must be 1x{weight.cols}, got {bias.shape}")
    out_data = x.data @ weight.data
    if bias is not None:
        out_data += bias.data

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0, keepdims=True))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _child(out_data, parents, backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a._accumulate(g.T)

    return _child(a.data.T.copy(), (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (out_data > 0.0))

    return _child(out_data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data)

    return _child(out_data, (a,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            a._accumulate(y * (g - dot))

    return _child(y, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array([[a.data.sum()]])

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, g[0, 0]))

    return _child(out_data, (a,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.array([[a.data.mean()]])

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, g[0, 0] / n))

    return _child(out_data, (a,), backward)


def sqnorm(a: Tensor) -> Tensor:
    """Sum of squared entries as a 1x1 tensor."""
    out_data = np.array([[float(np.sum(a.data * a.data))]])

    def backward(g):
        if a.requires_grad:
            a._accumulate(2.0 * g[0, 0] * a.data)

    return _child(out_data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(
            f"layer_norm gain/bias must be 1x{x.cols}, got {gain.shape}/{bias.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        n = x.cols
        if x.requires_grad:
            dxhat = g * gain.data
            term = n * dxhat - dxhat.sum(axis=1, keepdims=True)
            term -= xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
            x._accumulate(inv / n * term)
        if gain.requires_grad:
            gain._accumulate((g * xhat).sum(axis=0, keepdims=True))
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0, keepdims=True))

    return _child(out_data, (x, gain, bias), backward)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Rows of ``table`` at ``indices``.

    A 2-D ``(rows, G)`` index matrix gathers G table rows per output row and
    lays them side by side: the output is ``(rows, G * cols)``, what
    `concat_cols` of G one-column gathers gives, in one node. Any other
    index shape is flattened to one index per output row.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2:
        idx = idx.reshape(-1, 1)
    if idx.size == 0:
        raise ValidationError("gather_rows needs at least one index")
    if idx.min() < 0 or idx.max() >= table.rows:
        raise ValidationError(
            f"gather index out of range [0, {table.rows}): {int(idx.min())}..{int(idx.max())}"
        )
    n, groups = idx.shape
    out_data = table.data[idx].reshape(n, groups * table.cols)

    def backward(g):
        if table.requires_grad:
            # one bincount over flat (group, row, col) positions adds each
            # group's rows of g in index order, exactly as np.add.at(acc, idx,
            # g) would; the groups are then added in order, as G gathers
            # accumulate into one table
            rows, cols = table.data.shape
            bins = (np.arange(groups) * rows + idx)[:, :, None] * cols + np.arange(cols)
            acc = np.bincount(bins.ravel(), weights=g.ravel(), minlength=groups * rows * cols)
            acc = acc.reshape(groups, rows, cols)
            for j in range(1, groups):
                acc[0] += acc[j]
            table._accumulate(acc[0])

    return _child(out_data, (table,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValidationError("concat_cols needs at least one part")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError("concat_cols parts must share the row count")
    widths = [p.cols for p in parts]
    out_data = np.hstack([p.data for p in parts])

    def backward(g):
        start = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                p._accumulate(g[:, start : start + w])
            start += w

    return _child(out_data, tuple(parts), backward)


def _check_edges(edges: Array, total_rows: int) -> None:
    if edges.ndim != 1 or edges.size < 2:
        raise AlignmentError("edges must be a 1-D array with at least two entries")
    if edges[0] != 0 or edges[-1] != total_rows:
        raise AlignmentError(
            f"edges must span [0, {total_rows}], got [{edges[0]}, {edges[-1]}]"
        )
    if np.any(np.diff(edges) <= 0):
        raise AlignmentError("edges must be strictly increasing")


def segment_mean(x: Tensor, edges) -> Tensor:
    """Mean of row segments (average pooling).

    ``edges`` has S+1 entries delimiting S half-open segments over the rows
    of ``x``; segment s is the mean of its member rows.
    """
    edges = np.asarray(edges, dtype=np.int64)
    _check_edges(edges, x.rows)
    lengths = np.diff(edges)
    out_data = np.add.reduceat(x.data, edges[:-1], axis=0) / lengths[:, None]

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.repeat(g / lengths[:, None], lengths, axis=0))

    return _child(out_data, (x,), backward)


def repeat_rows(x: Tensor, counts) -> Tensor:
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if counts.size != x.rows:
        raise ShapeError(f"counts length {counts.size} != rows {x.rows}")
    if np.any(counts < 1):
        raise ValidationError("repeat counts must all be >= 1")
    out_data = np.repeat(x.data, counts, axis=0)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.add.reduceat(g, starts, axis=0))

    return _child(out_data, (x,), backward)


def unfold_rows(x: Tensor, width: int) -> Tensor:
    """Stack each row's ``width``-wide neighborhood (zero padded) into one row.

    Output row t is the concatenation x[t-h], ..., x[t+h] for h = width // 2,
    so a matmul against a (width*C, C_out) kernel is a same-padded 1-D
    convolution over the row sequence.
    """
    if width % 2 == 0 or width < 1:
        raise ConfigError(f"unfold width must be odd and positive, got {width}")
    h = width // 2
    t, c = x.shape
    padded = np.zeros((t + 2 * h, c))
    padded[h : h + t] = x.data
    blocks = [padded[k : k + t] for k in range(width)]
    out_data = np.hstack(blocks)

    def backward(g):
        if x.requires_grad:
            acc = np.zeros((t + 2 * h, c))
            for k in range(width):
                acc[k : k + t] += g[:, k * c : (k + 1) * c]
            x._accumulate(acc[h : h + t])

    return _child(out_data, (x,), backward)


def straight_through(x: Tensor, values: Array) -> Tensor:
    """Forward the given values; pass upstream gradients to ``x`` unchanged."""
    values = _as_matrix(values)
    if values.shape != x.data.shape:
        raise ShapeError(f"straight_through value shape {values.shape} != {x.shape}")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g)

    return _child(values.copy(), (x,), backward)


def cross_entropy(logits: Tensor, targets, offsets=None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    With ``offsets`` each sequence's NLL is the mean over its own rows, and
    the result is the mean of those over the sequences, so each sequence
    weighs the same whatever its length (as in `mse`).
    """
    idx = np.asarray(targets, dtype=np.int64).reshape(-1)
    n, k = logits.shape
    if idx.size != n:
        raise ShapeError(f"targets length {idx.size} != logit rows {n}")
    if idx.min() < 0 or idx.max() >= k:
        raise ValidationError(f"target class out of range [0, {k})")
    off = check_offsets(offsets, n)
    lengths = np.diff(off)
    seq_scale = 1.0 / lengths.size
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.data.max(axis=1)
    nll = lse - logits.data[np.arange(n), idx]
    total = 0.0
    for a, b in zip(off[:-1], off[1:]):
        total += nll[a:b].mean()
    out_data = np.array([[total * seq_scale]])

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(n), idx] -= 1.0
            # per row: upstream / (sequences * rows of the row's sequence)
            coef = (g[0, 0] * seq_scale) / lengths.astype(np.float64)
            logits._accumulate(np.repeat(coef, lengths)[:, None] * probs)

    return _child(out_data, (logits,), backward)


# ---------------------------------------------------------------------------
# Sequence operations on packed batches
# ---------------------------------------------------------------------------


def check_offsets(offsets, rows: int) -> Array:
    """Validated sequence offsets over ``rows`` rows; None is one sequence."""
    if offsets is None:
        return np.array([0, rows], dtype=np.int64)
    off = np.asarray(offsets, dtype=np.int64)
    _check_edges(off, rows)
    return off


def positional(offsets, dim: int) -> Array:
    """Sinusoidal encodings (rows, dim) of each row's position within its
    sequence; positions restart at 0 at every offset."""
    off = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(off)
    pos = np.arange(off[-1]) - np.repeat(off[:-1], lengths)
    # a table's rows do not depend on its length: round the length up so
    # that batches of similar lengths share one table
    rows = max(256, 1 << int(lengths.max() - 1).bit_length())
    return _shared_sinusoid_table(rows, dim)[pos]


@functools.lru_cache(maxsize=16)
def _shared_sinusoid_table(length: int, dim: int) -> Array:
    table = sinusoid_table(length, dim)
    table.flags.writeable = False
    return table


def attention(q: Tensor, k: Tensor, v: Tensor, offsets=None) -> Tensor:
    """Scaled dot-product attention softmax(q kT / sqrt(d)) v as one node.

    With ``offsets`` the rows of q, k and v are packed sequences and each
    query attends only to the keys of its own sequence: the score matrix is
    block diagonal and is computed block by block. Without, every query
    attends to every key, and q may have another row count than k and v.

    Each block keeps its unnormalised exponentials e = exp(s - rowmax(s))
    and the output is (e v) / rowsum(e), so no L x L pass normalises. The
    backward keeps the scaled queries, every block's e and the row
    reciprocals; it needs no probabilities, because rowsum(dP * P) equals
    rowsum(g * out) (Dao et al. 2022). Nothing is kept when no input needs a
    gradient.
    """
    if q.cols != k.cols:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    if k.rows != v.rows:
        raise ShapeError(f"key/value row counts differ: {k.shape} vs {v.shape}")
    if offsets is None:
        q_off, k_off = check_offsets(None, q.rows), check_offsets(None, k.rows)
    else:
        if q.rows != k.rows:
            raise ShapeError(f"packed attention needs one key per query: {q.shape} vs {k.shape}")
        q_off = k_off = check_offsets(offsets, q.rows)
    blocks = list(zip(q_off[:-1], q_off[1:], k_off[:-1], k_off[1:]))
    scale = 1.0 / math.sqrt(q.cols)
    qs = q.data * scale
    out_data = np.empty((q.rows, v.cols))
    inv = np.empty((q.rows, 1))
    keep = _needs_grad(q, k, v)
    exps = []
    for qa, qb, ka, kb in blocks:
        e = qs[qa:qb] @ k.data[ka:kb].T
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        np.divide(1.0, e.sum(axis=1, keepdims=True), out=inv[qa:qb])
        np.multiply(e @ v.data[ka:kb], inv[qa:qb], out=out_data[qa:qb])
        if keep:
            exps.append(e)

    def backward(g):
        dq = np.empty_like(q.data) if q.requires_grad else None
        dk = np.empty_like(k.data) if k.requires_grad else None
        dv = np.empty_like(v.data) if v.requires_grad else None
        gl = g * inv
        delta = (g * out_data).sum(axis=1, keepdims=True) * inv
        for (qa, qb, ka, kb), e in zip(blocks, exps):
            if dv is not None:
                dv[ka:kb] = e.T @ gl[qa:qb]
            if dq is None and dk is None:
                continue
            ds = gl[qa:qb] @ v.data[ka:kb].T
            ds -= delta[qa:qb]
            ds *= e
            if dq is not None:
                dq[qa:qb] = ds @ k.data[ka:kb]
            if dk is not None:
                dk[ka:kb] = ds.T @ qs[qa:qb]
        if dq is not None:
            dq *= scale
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                t._accumulate(d)

    return _child(out_data, (q, k, v), backward)


def conv1d(
    x: Tensor, kernel: Tensor, bias: Tensor | None = None, *, width: int, offsets=None
) -> Tensor:
    """Same-padded 1-D convolution over the row sequence of ``x`` as one node.

    The kernel is a (width * C_in, C_out) matrix whose k-th row block applies
    to the neighbor at offset k - width//2. Every sequence of a packed ``x``
    is zero padded at both ends, so no output row reads another sequence's
    rows, and the output keeps the input's row count.

    The output is a sum over taps of one product each, between a shifted
    contiguous slice of the padded input and the tap's kernel block; no
    windows matrix is built. The backward keeps only the padded input.
    """
    if width % 2 == 0 or width < 1:
        raise ConfigError(f"conv1d width must be odd and positive, got {width}")
    if kernel.rows != width * x.cols:
        raise ShapeError(
            f"kernel rows {kernel.rows} != width*channels {width * x.cols}"
        )
    if bias is not None and bias.shape != (1, kernel.cols):
        raise ShapeError(f"bias must be 1x{kernel.cols}, got {bias.shape}")
    off = check_offsets(offsets, x.rows)
    h = width // 2
    t, c = x.shape
    n_seq = off.size - 1
    # h zero rows precede every sequence and follow the last one; row r of x
    # sits at padded row pos[r]
    pos = np.arange(t) + h * (1 + np.repeat(np.arange(n_seq), np.diff(off)))
    padded_rows = t + h * (n_seq + 1)
    padded = np.zeros((padded_rows, c))
    padded[pos] = x.data
    # row i of `full` is the window starting at padded row i, so output row r
    # is full[pos[r] - h]; rows of `full` centred on padding are never read
    m = padded_rows - 2 * h
    taps = [kernel.data[j * c : (j + 1) * c] for j in range(width)]
    full = padded[:m] @ taps[0]
    for j in range(1, width):
        full += padded[j : j + m] @ taps[j]
    out_data = full[pos - h]
    if bias is not None:
        out_data += bias.data

    def backward(g):
        g_pad = np.zeros((m, kernel.cols))
        g_pad[pos - h] = g
        if kernel.requires_grad:
            kernel._accumulate(np.vstack([padded[j : j + m].T @ g_pad for j in range(width)]))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            acc = np.zeros((padded_rows, c))
            for j in range(width):
                acc[j : j + m] += g_pad @ taps[j].T
            x._accumulate(acc[pos])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _child(out_data, parents, backward)


def mse(pred: Tensor, target, offsets=None) -> Tensor:
    """Mean squared error as one node; the target carries no gradient.

    With ``offsets`` each sequence's error is the mean over its own entries,
    and the result is the mean of those over the sequences, so each sequence
    weighs the same whatever its length.
    """
    tgt = target.data if isinstance(target, Tensor) else _as_matrix(target)
    if tgt.shape != pred.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {tgt.shape}")
    off = check_offsets(offsets, pred.rows)
    lengths = np.diff(off)
    seq_scale = 1.0 / lengths.size
    diff = pred.data - tgt
    sq = diff * diff
    total = 0.0
    for a, b in zip(off[:-1], off[1:]):
        total += sq[a:b].mean()
    out_data = np.array([[total * seq_scale]])

    def backward(g):
        if pred.requires_grad:
            # per row: 2 * upstream / (sequences * entries of the row's sequence)
            coef = (g[0, 0] * seq_scale) / (lengths * pred.cols).astype(np.float64)
            pred._accumulate(2.0 * np.repeat(coef, lengths)[:, None] * diff)

    return _child(out_data, (pred,), backward)


def sinusoid_table(length: int, dim: int) -> Array:
    """Fixed sinusoidal positional-encoding table of shape (length, dim)."""
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float64)
