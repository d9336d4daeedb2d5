"""Reverse-mode differentiable operations on 2-D float64 matrices.

Every value is a `Tensor`: a ``(rows, cols)`` numpy array (``data``) and
the graph `Node` it was computed by. Operations build a graph of nodes;
calling :meth:`Tensor.backward` on a 1x1 scalar runs reverse-mode
accumulation into ``.grad`` of every leaf that was created with
``requires_grad=True``. Only leaves keep ``.grad``: an interior node's
gradient is dropped as soon as its backward function has passed it on.
Everything is float64 and deterministic: the same inputs produce
bit-identical outputs.

A node holds its parents' nodes and a backward function, and that function
holds exactly the arrays it reads (an `affine` its input and weight, a
`relu` a boolean mask, an `add` two shapes), never a tensor. The graph
therefore does not keep a value alive: an intermediate no backward reads
is freed as soon as the model code drops its tensor, while the loss lives.
As backward runs, it releases each node's function, and with it the
node's saved arrays, right after calling it, and marks the node spent, so
a graph can be back-propagated once; a second backward that reaches a
spent node raises ValidationError.

A node refers to its parents and a backward function refers only to its
parents' nodes, never to its own node or to a tensor, so a graph holds no
reference cycle, and reference counting frees it as soon as its loss
tensor is dropped, without waiting for the cycle collector.

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
the last bit. Offsets are required: a single sequence of n rows is the
batch ``[0, n]``.
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


_SPENT = (
    "this graph has already been back-propagated, and its nodes have released "
    "what their backward functions read; build the graph again for another backward"
)


def _spent(g: Array) -> None:
    """The backward function of a node whose backward has run."""
    raise ValidationError(_SPENT)


class Node:
    """The graph side of a tensor: its gradient, whether it needs one, its
    parents' nodes and its backward function.

    A leaf has no parents and no backward function. After an interior
    node's backward has run, its function is `_spent`.
    """

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(
        self,
        requires_grad: bool = False,
        parents: tuple[Node, ...] = (),
        backward: Callable[[Array], None] | None = None,
    ):
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    def _accumulate(self, g: Array) -> None:
        # copy on first contribution: g may alias another node's buffer
        if self.grad is None:
            self.grad = np.array(g)
        else:
            self.grad += g


class Tensor:
    """A 2-D float64 matrix and its node in the computation graph."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple[Node, ...] = (),
        _backward: Callable[[Array], None] | None = None,
    ):
        self.data = _as_matrix(data)
        self._node = Node(requires_grad, _parents, _backward)

    @property
    def grad(self) -> Array | None:
        return self._node.grad

    @grad.setter
    def grad(self, value: Array | None) -> None:
        self._node.grad = value

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value: bool) -> None:
        self._node.requires_grad = value

    @property
    def _parents(self) -> tuple[Node, ...]:
        return self._node._parents

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

    def backward(self) -> None:
        """Reverse-mode pass from this 1x1 scalar through the graph.

        Leaves that require a gradient accumulate it in ``.grad``. Every
        interior node's ``.grad`` is None afterwards, and its backward
        function, with the arrays it saved, is released as soon as it has
        run; the node is then spent. A graph that reaches a spent node
        raises ValidationError before any gradient moves.
        """
        backprop(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def backprop(loss: Tensor) -> None:
    """`loss.backward()`, for a shard of a training step's batch that is
    back-propagated on its own (`ibvq.numcore.shards`), so that the step's
    one `Tensor.backward` call stays the step's boundary."""
    if loss.data.shape != (1, 1):
        raise ShapeError(f"backward() needs a scalar output, got {loss.shape}")
    root = loss._node
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _spent:
            raise ValidationError(_SPENT)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones((1, 1))
    for node in reversed(topo):
        backward = node._backward
        if backward is None:
            continue
        node._backward = _spent
        if node.grad is not None:
            backward(node.grad)
            node.grad = None


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a leaf tensor; validates finiteness of external data."""
    t = Tensor(data, requires_grad=requires_grad)
    if not np.all(np.isfinite(t.data)):
        raise NumericError("tensor data contains non-finite entries")
    return t


def constant(data) -> Tensor:
    """A leaf with no gradient path (used for targets and frozen values)."""
    return Tensor(data, requires_grad=False)


def _child(data: Array, parents: tuple[Node, ...], backward: Callable[[Array], None]) -> Tensor:
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
    an, bn = a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g, a_shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(g, b_shape))

    return _child(out_data, (an, bn), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_ok(a, b)
    out_data = a.data - b.data
    an, bn = a._node, b._node
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g, a_shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(-g, b_shape))

    return _child(out_data, (an, bn), backward)


def mul(a: Tensor, b) -> Tensor:
    an = a._node
    if not isinstance(b, Tensor):
        s = float(b)
        out_data = a.data * s

        def backward_scalar(g):
            if an.requires_grad:
                an._accumulate(g * s)

        return _child(out_data, (an,), backward_scalar)

    _broadcast_ok(a, b)
    bn = b._node
    a_data, b_data = a.data, b.data
    out_data = a_data * b_data

    def backward(g):
        if an.requires_grad:
            an._accumulate(_unbroadcast(g * b_data, a_data.shape))
        if bn.requires_grad:
            bn._accumulate(_unbroadcast(g * a_data, b_data.shape))

    return _child(out_data, (an, bn), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    an, bn = a._node, b._node
    a_data, b_data = a.data, b.data
    out_data = a_data @ b_data

    def backward(g):
        if an.requires_grad:
            an._accumulate(g @ b_data.T)
        if bn.requires_grad:
            bn._accumulate(a_data.T @ g)

    return _child(out_data, (an, bn), backward)


def affine(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ weight + bias, with the bias row broadcast over rows, as one
    node; values and gradients equal those of `matmul` followed by `add`."""
    if x.cols != weight.rows:
        raise ShapeError(f"affine dimensions differ: x {x.shape} vs W {weight.shape}")
    if bias is not None and bias.shape != (1, weight.cols):
        raise ShapeError(f"bias must be 1x{weight.cols}, got {bias.shape}")
    xn, wn = x._node, weight._node
    bn = None if bias is None else bias._node
    x_data, w_data = x.data, weight.data
    out_data = x_data @ w_data
    if bias is not None:
        out_data += bias.data

    def backward(g):
        if xn.requires_grad:
            xn._accumulate(g @ w_data.T)
        if wn.requires_grad:
            wn._accumulate(x_data.T @ g)
        if bn is not None and bn.requires_grad:
            bn._accumulate(g.sum(axis=0, keepdims=True))

    parents = (xn, wn) if bn is None else (xn, wn, bn)
    return _child(out_data, parents, backward)


def transpose(a: Tensor) -> Tensor:
    an = a._node

    def backward(g):
        if an.requires_grad:
            an._accumulate(g.T)

    return _child(a.data.T.copy(), (an,), backward)


def relu(a: Tensor) -> Tensor:
    """max(a, 0); its backward keeps a boolean mask of the positive entries,
    made only when the input needs a gradient."""
    out_data = np.maximum(a.data, 0.0)
    an = a._node
    if not an.requires_grad:
        return Tensor(out_data)
    mask = out_data > 0.0

    def backward(g):
        if an.requires_grad:
            an._accumulate(g * mask)

    return _child(out_data, (an,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    an = a._node

    def backward(g):
        if an.requires_grad:
            an._accumulate(g * out_data)

    return _child(out_data, (an,), backward)


def softmax_rows(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    an = a._node

    def backward(g):
        if an.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            an._accumulate(y * (g - dot))

    return _child(y, (an,), backward)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.array([[a.data.sum()]])
    an, shape = a._node, a.data.shape

    def backward(g):
        if an.requires_grad:
            an._accumulate(np.full(shape, g[0, 0]))

    return _child(out_data, (an,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out_data = np.array([[a.data.mean()]])
    an, shape = a._node, a.data.shape

    def backward(g):
        if an.requires_grad:
            an._accumulate(np.full(shape, g[0, 0] / n))

    return _child(out_data, (an,), backward)


def sqnorm(a: Tensor) -> Tensor:
    """Sum of squared entries as a 1x1 tensor."""
    an, a_data = a._node, a.data
    out_data = np.array([[float(np.sum(a_data * a_data))]])

    def backward(g):
        if an.requires_grad:
            an._accumulate(2.0 * g[0, 0] * a_data)

    return _child(out_data, (an,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    if gain.shape != (1, x.cols) or bias.shape != (1, x.cols):
        raise ShapeError(
            f"layer_norm gain/bias must be 1x{x.cols}, got {gain.shape}/{bias.shape}"
        )
    xn, gn, bn = x._node, gain._node, bias._node
    gain_data = gain.data
    mu = x.data.mean(axis=1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain_data + bias.data
    n = x.cols

    def backward(g):
        if xn.requires_grad:
            dxhat = g * gain_data
            term = n * dxhat - dxhat.sum(axis=1, keepdims=True)
            term -= xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
            xn._accumulate(inv / n * term)
        if gn.requires_grad:
            gn._accumulate((g * xhat).sum(axis=0, keepdims=True))
        if bn.requires_grad:
            bn._accumulate(g.sum(axis=0, keepdims=True))

    return _child(out_data, (xn, gn, bn), backward)


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
    tn = table._node
    rows, cols = table.data.shape
    out_data = table.data[idx].reshape(n, groups * cols)

    def backward(g):
        if tn.requires_grad:
            # one bincount over flat (group, row, col) positions adds each
            # group's rows of g in index order, exactly as np.add.at(acc, idx,
            # g) would; the groups are then added in order, as G gathers
            # accumulate into one table
            bins = (np.arange(groups) * rows + idx)[:, :, None] * cols + np.arange(cols)
            acc = np.bincount(bins.ravel(), weights=g.ravel(), minlength=groups * rows * cols)
            acc = acc.reshape(groups, rows, cols)
            for j in range(1, groups):
                acc[0] += acc[j]
            tn._accumulate(acc[0])

    return _child(out_data, (tn,), backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValidationError("concat_cols needs at least one part")
    rows = parts[0].rows
    for p in parts:
        if p.rows != rows:
            raise ShapeError("concat_cols parts must share the row count")
    nodes = tuple(p._node for p in parts)
    widths = [p.cols for p in parts]
    out_data = np.hstack([p.data for p in parts])

    def backward(g):
        start = 0
        for pn, w in zip(nodes, widths):
            if pn.requires_grad:
                pn._accumulate(g[:, start : start + w])
            start += w

    return _child(out_data, nodes, backward)


def segment_mean(x: Tensor, edges) -> Tensor:
    """Mean of row segments (average pooling).

    ``edges`` has S+1 entries delimiting S half-open segments over the rows
    of ``x``, checked as `check_offsets` checks offsets; segment s is the
    mean of its member rows.
    """
    edges = check_offsets(edges, x.rows)
    lengths = np.diff(edges)
    out_data = np.add.reduceat(x.data, edges[:-1], axis=0) / lengths[:, None]
    xn = x._node

    def backward(g):
        if xn.requires_grad:
            xn._accumulate(np.repeat(g / lengths[:, None], lengths, axis=0))

    return _child(out_data, (xn,), backward)


def repeat_rows(x: Tensor, counts) -> Tensor:
    counts = np.asarray(counts, dtype=np.int64).reshape(-1)
    if counts.size != x.rows:
        raise ShapeError(f"counts length {counts.size} != rows {x.rows}")
    if np.any(counts < 1):
        raise ValidationError("repeat counts must all be >= 1")
    out_data = np.repeat(x.data, counts, axis=0)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    xn = x._node

    def backward(g):
        if xn.requires_grad:
            xn._accumulate(np.add.reduceat(g, starts, axis=0))

    return _child(out_data, (xn,), backward)


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
    xn = x._node

    def backward(g):
        if xn.requires_grad:
            acc = np.zeros((t + 2 * h, c))
            for k in range(width):
                acc[k : k + t] += g[:, k * c : (k + 1) * c]
            xn._accumulate(acc[h : h + t])

    return _child(out_data, (xn,), backward)


def straight_through(x: Tensor, values: Array) -> Tensor:
    """Forward the given values; pass upstream gradients to ``x`` unchanged."""
    values = _as_matrix(values)
    if values.shape != x.data.shape:
        raise ShapeError(f"straight_through value shape {values.shape} != {x.shape}")
    xn = x._node

    def backward(g):
        if xn.requires_grad:
            xn._accumulate(g)

    return _child(values.copy(), (xn,), backward)


def known_gradient(
    value: float, leaves: Sequence[Tensor], gradients: Callable[[], Sequence[Array | None]]
) -> Tensor:
    """A 1x1 tensor holding ``value``, a loss computed elsewhere (another
    process's shard of a batch), entering this graph as one node.

    Its backward calls ``gradients()`` for the loss's gradient with respect
    to each of ``leaves`` (None for a leaf the loss does not reach) and adds
    upstream times each into its leaf. It calls it only when backward
    reaches the node, so ``gradients`` may wait for them to be computed;
    as the second operand of an `add`, the node is reached after every node
    of the first operand's graph.
    """
    nodes = tuple(t._node for t in leaves)
    shapes = [t.data.shape for t in leaves]

    def backward(g):
        scale = g[0, 0]
        for node, shape, grad in zip(nodes, shapes, gradients(), strict=True):
            if grad is None or not node.requires_grad:
                continue
            if grad.shape != shape:
                raise ShapeError(f"gradient shape {grad.shape} != leaf shape {shape}")
            # _accumulate copies a first contribution, so grad may be reused
            node._accumulate(grad if scale == 1.0 else grad * scale)

    return _child(np.array([[float(value)]]), nodes, backward)


def cross_entropy(logits: Tensor, targets, offsets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    Each sequence's NLL, over the rows from one of ``offsets`` to the next,
    is the mean over its own rows, and the result is the mean of those over
    the sequences, so each sequence weighs the same whatever its length (as
    in `mse`).
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
    ln = logits._node

    def backward(g):
        if ln.requires_grad:
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(n), idx] -= 1.0
            # per row: upstream / (sequences * rows of the row's sequence)
            coef = (g[0, 0] * seq_scale) / lengths.astype(np.float64)
            ln._accumulate(np.repeat(coef, lengths)[:, None] * probs)

    return _child(out_data, (ln,), backward)


# ---------------------------------------------------------------------------
# Sequence operations on packed batches
# ---------------------------------------------------------------------------


def check_offsets(offsets, rows: int) -> Array:
    """``offsets`` as an int64 array, validated: S+1 >= 2 strictly increasing
    integers from 0 to ``rows``. Values that are not integers are refused,
    not truncated."""
    raw = np.asarray(offsets)
    if raw.ndim != 1 or raw.size < 2:
        raise AlignmentError("offsets must be a 1-D array with at least two entries")
    if raw.dtype.kind not in "iu":
        bad = ~np.isfinite(raw) | (raw != np.trunc(raw))
        if bad.any():
            raise AlignmentError(f"offsets must be integers, got {raw[bad].tolist()}")
    off = raw.astype(np.int64, copy=False)
    if off[0] != 0 or off[-1] != rows:
        raise AlignmentError(f"offsets must span [0, {rows}], got [{off[0]}, {off[-1]}]")
    if np.any(np.diff(off) <= 0):
        raise AlignmentError("offsets must be strictly increasing")
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


def attention(q: Tensor, k: Tensor, v: Tensor, offsets) -> Tensor:
    """Scaled dot-product self-attention softmax(q kT / sqrt(d)) v as one node.

    The rows of q, k and v are the positions of packed sequences, starting
    at ``offsets``, and each query attends only to the keys of its own
    sequence: the score matrix is block diagonal and is computed block by
    block.

    Each block keeps its unnormalised exponentials e = exp(s - rowmax(s))
    and the output is (e v) / rowsum(e), so no L x L pass normalises. The
    backward keeps the scaled queries, the keys and values, every block's e,
    the row reciprocals and the output; it needs no probabilities, because
    rowsum(dP * P) equals rowsum(g * out) (Dao et al. 2022). It computes dq,
    dk and dv together and adds each to its input if that input needs a
    gradient. No block's e is kept when no input needs a gradient.
    """
    if q.cols != k.cols:
        raise ShapeError(f"query/key widths differ: {q.shape} vs {k.shape}")
    if not q.rows == k.rows == v.rows:
        raise ShapeError(
            f"attention needs one key and value per query: {q.shape}, {k.shape}, {v.shape}"
        )
    off = check_offsets(offsets, q.rows)
    spans = list(zip(off[:-1], off[1:]))
    qn, kn, vn = q._node, k._node, v._node
    k_data, v_data = k.data, v.data
    scale = 1.0 / math.sqrt(q.cols)
    qs = q.data * scale
    out_data = np.empty((q.rows, v.cols))
    inv = np.empty((q.rows, 1))
    keep = qn.requires_grad or kn.requires_grad or vn.requires_grad
    exps = []
    for a, b in spans:
        e = qs[a:b] @ k_data[a:b].T
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        np.divide(1.0, e.sum(axis=1, keepdims=True), out=inv[a:b])
        np.multiply(e @ v_data[a:b], inv[a:b], out=out_data[a:b])
        if keep:
            exps.append(e)

    def backward(g):
        dq, dk, dv = np.empty_like(qs), np.empty_like(k_data), np.empty_like(v_data)
        gl = g * inv
        delta = (g * out_data).sum(axis=1, keepdims=True) * inv
        for (a, b), e in zip(spans, exps):
            dv[a:b] = e.T @ gl[a:b]
            ds = gl[a:b] @ v_data[a:b].T
            ds -= delta[a:b]
            ds *= e
            dq[a:b] = ds @ k_data[a:b]
            dk[a:b] = ds.T @ qs[a:b]
        dq *= scale
        for node, d in ((qn, dq), (kn, dk), (vn, dv)):
            if node.requires_grad:
                node._accumulate(d)

    return _child(out_data, (qn, kn, vn), backward)


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, *, width: int, offsets) -> Tensor:
    """Same-padded 1-D convolution over the row sequence of ``x`` as one node.

    The kernel is a (width * C_in, C_out) matrix whose k-th row block applies
    to the neighbor at offset k - width//2. Every sequence of a packed ``x``
    is zero padded at both ends, so no output row reads another sequence's
    rows, and the output keeps the input's row count. ``bias`` is a
    1 x C_out row added to every output row.

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
    if bias.shape != (1, kernel.cols):
        raise ShapeError(f"bias must be 1x{kernel.cols}, got {bias.shape}")
    off = check_offsets(offsets, x.rows)
    h = width // 2
    t, c = x.shape
    n_seq = off.size - 1
    xn, kn, bn = x._node, kernel._node, bias._node
    # h zero rows precede every sequence and follow the last one; row r of x
    # sits at padded row pos[r]
    pos = np.arange(t) + h * (1 + np.repeat(np.arange(n_seq), np.diff(off)))
    padded_rows = t + h * (n_seq + 1)
    padded = np.zeros((padded_rows, c))
    padded[pos] = x.data
    # row i of `full` is the window starting at padded row i, so output row r
    # is full[pos[r] - h]; rows of `full` centred on padding are never read
    m = padded_rows - 2 * h
    out_cols = kernel.cols
    taps = [kernel.data[j * c : (j + 1) * c] for j in range(width)]
    full = padded[:m] @ taps[0]
    for j in range(1, width):
        full += padded[j : j + m] @ taps[j]
    out_data = full[pos - h]
    out_data += bias.data

    def backward(g):
        g_pad = np.zeros((m, out_cols))
        g_pad[pos - h] = g
        if kn.requires_grad:
            kn._accumulate(np.vstack([padded[j : j + m].T @ g_pad for j in range(width)]))
        if bn.requires_grad:
            bn._accumulate(g.sum(axis=0, keepdims=True))
        if xn.requires_grad:
            acc = np.zeros((padded_rows, c))
            for j in range(width):
                acc[j : j + m] += g_pad @ taps[j].T
            xn._accumulate(acc[pos])

    return _child(out_data, (xn, kn, bn), backward)


def mse(pred: Tensor, target, offsets) -> Tensor:
    """Mean squared error as one node; the target carries no gradient.

    Each sequence's error, the rows from one of ``offsets`` to the next, is
    the mean over its own entries, and the result is the mean of those over
    the sequences, so each sequence weighs the same whatever its length.
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
    pn, cols = pred._node, pred.cols

    def backward(g):
        if pn.requires_grad:
            # per row: 2 * upstream / (sequences * entries of the row's sequence)
            coef = (g[0, 0] * seq_scale) / (lengths * cols).astype(np.float64)
            pn._accumulate(2.0 * np.repeat(coef, lengths)[:, None] * diff)

    return _child(out_data, (pn,), backward)


def sinusoid_table(length: int, dim: int) -> Array:
    """Fixed sinusoidal positional-encoding table of shape (length, dim)."""
    pos = np.arange(length)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float64)
