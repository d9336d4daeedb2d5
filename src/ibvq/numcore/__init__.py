"""Deterministic differentiable-computation core.

Dense 2-D float64 matrices with reverse-mode gradients, the layer
operations the models in this package are built from, an adaptive-moment
optimizer and the one training loop (`fit`) that applies it, a
finite-difference gradient checker, and checkpoints that save parameter
values as one float64 vector in a NumPy ``.npy`` file (`save_params`,
`load_params`).

Layers are few, large graph nodes: `affine` is one node with its own
backward, and `gather_rows` takes a ``(rows, G)`` index matrix to read G
table rows per output row in one node. A `ParamStore` is built once with
all its parameters, keeps them and their Adam moments as views into one
flat buffer, and counts its Adam steps once; `adam_step` takes a gradient
for every parameter of the store and updates it with a few vectorised
numpy calls.

A graph keeps only what its backward functions read: each node holds its
parents' nodes, never their tensors, so an intermediate no backward reads
is freed as soon as the model code drops it, and backward releases each
node's saved arrays as soon as the node's backward has run. A graph is
therefore back-propagated once; see `ibvq.numcore.tensor`.

The elementwise `add`, `sub` and `mul` take operands of one shape; they do
not broadcast. The sequence layers (`attention`, `conv1d`, `mse`,
`cross_entropy`, `positional`) take ``offsets``, an integer array marking
where each sequence of a packed batch starts, so one graph over stacked
sequences computes what a graph per sequence would; a single sequence of n
rows is the batch ``[0, n]``. See `ibvq.numcore.tensor`.

Training splits each step's batch into two shards and back-propagates the
second in a forked worker process when two CPUs are free
(`ibvq.numcore.shards`); parameter stores keep their values in shared
memory for it.

Importing this package sets two process-wide settings. On glibc it tells
the allocator to keep freed heap memory in the process
(`_keep_freed_heap`), so that each training step reuses the pages the
previous step's graph released instead of faulting them in again. And it
pins numpy's bundled OpenBLAS to one thread (`_one_blas_thread`): with
more, a matrix product with a long inner dimension sums in an order that
depends on the thread count, so results would depend on the host, and the
worker process's threads would compete with the training's own.
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
from ibvq.numcore.shards import ShardWorker
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
    known_gradient,
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


def _one_blas_thread() -> None:
    """Pin the OpenBLAS library bundled with numpy to one thread.

    numpy's Linux wheels ship it in ``numpy.libs`` beside the package,
    already loaded by ``import numpy``; this calls its thread-count setter,
    ``scipy_openblas_set_num_threads64_``, through ctypes. Where no such
    library or setter is found (another BLAS, a numpy built from source) it
    does nothing.
    """
    import numpy

    libs = os.path.dirname(numpy.__file__) + ".libs"
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return
    for name in names:
        if "openblas" not in name:
            continue
        try:
            setter = getattr(ctypes.CDLL(os.path.join(libs, name)),
                             "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes = (ctypes.c_int,)
            setter.restype = None
            setter(1)
            return


_keep_freed_heap()
_one_blas_thread()

__all__ = [
    "Array",
    "BatchSampler",
    "ParamStore",
    "ShardWorker",
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
    "known_gradient",
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
