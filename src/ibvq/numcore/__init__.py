"""Deterministic differentiable-computation core.

Dense float64 matrices with reverse-mode gradients, the layer operations the
models in this package are built from, an adaptive-moment optimizer and the
one training loop (`fit`) that applies it, a finite-difference gradient
checker, and a binary checkpoint format.

Layers are few, large graph nodes: `affine` is one node with its own
backward, and `gather_rows` takes a ``(rows, G)`` index matrix to read G
table rows per output row in one node. A `ParamStore` keeps its parameters
and their Adam moments as views into one flat buffer, so `adam_step` updates
a whole store with a few vectorised numpy calls.

The sequence layers (`attention`, `conv1d`, `mse`, `cross_entropy`,
`positional`) take optional ``offsets`` marking where each sequence of a
packed batch starts, so one graph over stacked sequences computes what a
graph per sequence would; see `ibvq.numcore.tensor`.
"""

from ibvq.numcore.checkpoint import load_params, save_params
from ibvq.numcore.gradcheck import grad_check
from ibvq.numcore.optim import (
    BatchSampler,
    ParamStore,
    TrainConfig,
    adam_step,
    fit,
    glorot_uniform,
)
from ibvq.numcore.tensor import (
    Array,
    Tensor,
    add,
    affine,
    attention,
    check_offsets,
    concat_cols,
    constant,
    conv1d,
    cross_entropy,
    exp,
    gather_rows,
    layer_norm,
    matmul,
    mean_all,
    mse,
    mul,
    positional,
    relu,
    repeat_rows,
    segment_mean,
    sinusoid_table,
    softmax_rows,
    sqnorm,
    straight_through,
    sub,
    sum_all,
    tensor,
    transpose,
    unfold_rows,
)

__all__ = [
    "Array",
    "BatchSampler",
    "ParamStore",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "add",
    "affine",
    "attention",
    "check_offsets",
    "concat_cols",
    "constant",
    "conv1d",
    "cross_entropy",
    "exp",
    "fit",
    "gather_rows",
    "glorot_uniform",
    "grad_check",
    "layer_norm",
    "load_params",
    "matmul",
    "mean_all",
    "mse",
    "mul",
    "positional",
    "relu",
    "repeat_rows",
    "save_params",
    "segment_mean",
    "sinusoid_table",
    "softmax_rows",
    "sqnorm",
    "straight_through",
    "sub",
    "sum_all",
    "tensor",
    "transpose",
    "unfold_rows",
]
