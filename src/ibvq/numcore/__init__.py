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

On glibc, importing this package tells the allocator to keep freed heap
memory in the process (`_keep_freed_heap`), so that each training step
reuses the pages the previous step's graph released instead of faulting
them in again.
"""

import ctypes
import os

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

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Serve every desk-scale array from the heap and keep freed heap memory.

    By default glibc maps blocks over 128 KiB separately and unmaps them on
    free, and trims the heap top back to the OS, so a step that frees its
    graph hands its pages back and the next step faults them in again. This
    raises the mmap threshold to glibc's 64-bit maximum (32 MiB) and the trim
    threshold to 256 MiB. Elsewhere than glibc, or where ``mallopt`` is
    missing, it does nothing; a refused setting is ignored.
    """
    try:
        # what platform.libc_ver() reads on glibc, without its fallback of
        # scanning the interpreter's binary elsewhere
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_heap()

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
