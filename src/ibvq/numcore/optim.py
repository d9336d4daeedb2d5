"""Named parameter storage, the adaptive-moment optimizer and the one
training loop every model in the package is fitted with.

A store is built once with all its parameters. Their values and Adam
moments live in one flat array, each parameter tensor a view of its slice,
and the store counts its steps once. One Adam step takes a gradient for
every parameter and is a few vectorised numpy calls over the whole buffer;
it computes exactly what the update written parameter by parameter does.
The buffer is an anonymous shared mapping (`shared_zeros`), so a process
forked from this one (`ibvq.numcore.shards`) reads every value the store
is given afterwards without a copy.
"""

from __future__ import annotations

import math
import mmap
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ibvq.errors import ConfigError, NumericError, ShapeError, TrainingError
from ibvq.numcore.tensor import Array, Tensor, tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_BETAS = np.array([[ADAM_BETA1], [ADAM_BETA2]])
_ONE_MINUS_BETAS = 1.0 - _BETAS


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by the training runs."""

    learning_rate: float = 3e-3
    steps: int = 1200
    seed: int = 0
    batch_size: int = 8
    commitment_cost: float = 0.25

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.commitment_cost) and self.commitment_cost >= 0):
            raise ConfigError(
                f"commitment_cost must be finite and >= 0, got {self.commitment_cost}"
            )


def shared_zeros(shape: tuple[int, ...]) -> Array:
    """A float64 array of zeros in an anonymous shared mapping: a process
    forked after it is made reads and writes the same memory."""
    count = math.prod(shape)
    # a mapping cannot be empty
    buf = mmap.mmap(-1, max(count, 1) * np.dtype(np.float64).itemsize)
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class ParamStore:
    """Named parameter matrices plus their Adam state, complete when built.

    ``ParamStore(arrays)`` takes every parameter at once; ``params`` keeps
    the order of ``arrays``. The values of every parameter and its two
    adaptive moments live in one flat ``(3, total)`` buffer in shared memory
    (`shared_zeros`), laid out once in sorted name order (`layout`), and
    each parameter tensor holds a reshaped view of its slice of the value
    row (`values`). ``steps`` counts the Adam updates of the whole store:
    `adam_step` moves every parameter or none.
    """

    def __init__(self, arrays: dict[str, Array]):
        self.params = {name: tensor(data, requires_grad=True) for name, data in arrays.items()}
        self.steps = 0
        self._flat = shared_zeros((3, sum(p.data.size for p in self.params.values())))
        start = 0
        for name in sorted(self.params):
            p = self.params[name]
            stop = start + p.data.size
            self._flat[0, start:stop] = p.data.ravel()
            p.data = self._flat[0, start:stop].reshape(p.data.shape)
            start = stop

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def grads(self) -> dict[str, Array]:
        """The accumulated gradients of the parameters the last backward
        pass reached; a parameter it did not reach has none."""
        return {name: p.grad for name, p in self.params.items() if p.grad is not None}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """Treat every parameter as a constant inside the block.

        Operations on constants record no graph, so a forward-only pass frees
        each intermediate as soon as the next operation has consumed it.
        On exit every parameter gets back the flag it had on entry, so a
        nested block leaves the store frozen until the outermost one ends.
        """
        before = {name: p.requires_grad for name, p in self.params.items()}
        for p in self.params.values():
            p.requires_grad = False
        try:
            yield
        finally:
            for name, p in self.params.items():
                p.requires_grad = before[name]

    @property
    def values(self) -> Array:
        """Every parameter's values in one vector, in `layout` order: a
        view, so writing into it sets the parameters in place."""
        return self._flat[0]

    def layout(self) -> list[list]:
        """``[name, rows, cols]`` of each parameter, in the order `values`
        holds them."""
        return [[name, *self.params[name].data.shape] for name in sorted(self.params)]


def adam_step(store: ParamStore, grads: dict[str, Array], lr: float) -> ParamStore:
    """One adaptive-moment update with bias correction of the whole store,
    in place.

    ``grads`` holds a gradient for every parameter, or none (then nothing
    changes). Every name, shape and value is checked before anything is
    written, so a failed step leaves the store as it was: an unknown or a
    missing name raises ConfigError, a wrong shape ShapeError, and a
    non-finite gradient NumericError naming the first such parameter in
    sorted order.
    """
    if not grads:
        return store
    unknown = sorted(set(grads) - set(store.params))
    if unknown:
        raise ConfigError(f"gradients for unknown parameters: {unknown}")
    missing = sorted(set(store.params) - set(grads))
    if missing:
        raise ConfigError(f"no gradient for parameters {missing}: a step updates a whole store")
    names = sorted(grads)
    arrays = []
    for name in names:
        g = np.asarray(grads[name], dtype=np.float64)
        shape = store.params[name].data.shape
        if g.shape != shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter {name!r} shape {shape}")
        arrays.append(g)
    g = np.concatenate(arrays, axis=None)
    if not np.isfinite(g).all():
        bad = next(name for name, a in zip(names, arrays) if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    store.steps += 1
    t = store.steps
    # rows m and v: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
    moments = store._flat[1:]
    moments *= _BETAS
    new = _ONE_MINUS_BETAS * g
    new[1] *= g
    moments += new
    corrections = np.array([[1.0 - ADAM_BETA1**t], [1.0 - ADAM_BETA2**t]])
    m_hat, v_hat = np.divide(moments, corrections, out=new)
    # p -= lr m_hat / (sqrt(v_hat) + eps), in place
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= lr
    m_hat /= v_hat
    store._flat[0] -= m_hat
    return store


class BatchSampler:
    """Deterministic epoch-reshuffling batch iterator over ``range(n)``."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch = min(batch_size, n)
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.batch > self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        out = self.order[self.pos : self.pos + self.batch]
        self.pos += self.batch
        return out


def fit(
    stores: Sequence[ParamStore],
    steps: int,
    step_loss: Callable[[int], Tensor],
    lr: float | Callable[[int], float],
    on_step: Callable[[int], None] | None = None,
) -> None:
    """Minimize ``step_loss(step)`` for ``steps`` Adam steps.

    Each step builds the loss graph, back-propagates it and updates each
    store the loss reached, as a whole: a store it did not reach keeps its
    values and step count, and one it reached only in part makes
    `adam_step` raise ConfigError. ``lr`` is a rate or a function of the
    step index, and ``on_step(step)`` runs after the update. A non-finite
    loss raises TrainingError naming the step.

    The loop drops its reference to a step's loss right after backward, so
    unless ``step_loss`` keeps one, reference counting frees the step's
    graph, with its activations, before ``on_step`` runs and before the next
    step's graph is built.
    """
    for step in range(steps):
        loss = step_loss(step)
        if not np.isfinite(loss.item()):
            raise TrainingError(f"loss diverged (non-finite) at step {step}")
        for store in stores:
            store.zero_grad()
        loss.backward()
        del loss
        rate = lr(step) if callable(lr) else lr
        for store in stores:
            adam_step(store, store.grads(), rate)
        if on_step is not None:
            on_step(step)
