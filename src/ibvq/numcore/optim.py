"""Named parameter storage, the adaptive-moment optimizer and the one
training loop every model in the package is fitted with."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from ibvq.errors import ConfigError, NumericError, ShapeError, TrainingError
from ibvq.numcore.tensor import Array, Tensor, tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters shared by the training runs."""

    learning_rate: float = 3e-3
    steps: int = 1200
    seed: int = 0
    batch_size: int = 8
    commitment_cost: float = 0.25

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.commitment_cost < 0:
            raise ConfigError(
                f"commitment_cost must be >= 0, got {self.commitment_cost}"
            )


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class ParamStore:
    """Named parameter matrices plus per-parameter optimizer state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._m: dict[str, Array] = {}
        self._v: dict[str, Array] = {}
        self._step: dict[str, int] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ConfigError(f"parameter {name!r} already registered")
        p = tensor(data, requires_grad=True)
        self.params[name] = p
        self._m[name] = np.zeros_like(p.data)
        self._v[name] = np.zeros_like(p.data)
        self._step[name] = 0
        return p

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def step_count(self, name: str) -> int:
        return self._step[name]

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

    def export(self) -> dict[str, Array]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load(self, arrays: dict[str, Array]) -> None:
        """Replace every parameter's values; the names must match exactly."""
        unknown = sorted(set(arrays) - set(self.params))
        if unknown:
            raise ConfigError(f"unknown parameters in checkpoint: {unknown}")
        missing = sorted(set(self.params) - set(arrays))
        if missing:
            raise ConfigError(f"parameters missing from checkpoint: {missing}")
        for name, arr in arrays.items():
            p = self.params[name]
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ShapeError(
                    f"parameter {name!r} shape {arr.shape} != expected {p.data.shape}"
                )
            p.data = arr.copy()


def adam_step(store: ParamStore, grads: dict[str, Array], lr: float) -> ParamStore:
    """One adaptive-moment update with bias correction, in place.

    Deterministic: parameters are visited in sorted name order. A non-finite
    gradient raises NumericError naming the offending parameter.
    """
    for name in sorted(grads):
        if name not in store.params:
            raise ConfigError(f"gradient for unknown parameter {name!r}")
        p = store.params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != parameter {name!r} shape {p.data.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        t = store._step[name] + 1
        store._step[name] = t
        m = store._m[name]
        v = store._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
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

    Each step builds the loss graph, back-propagates it and updates, store
    by store, only the parameters the loss reached; ``lr`` is a rate or a
    function of the step index, and ``on_step(step)`` runs after the
    update. A non-finite loss raises TrainingError naming the step.
    """
    for step in range(steps):
        loss = step_loss(step)
        if not np.isfinite(loss.item()):
            raise TrainingError(f"loss diverged (non-finite) at step {step}")
        for store in stores:
            store.zero_grad()
        loss.backward()
        rate = lr(step) if callable(lr) else lr
        for store in stores:
            adam_step(store, store.grads(), rate)
        if on_step is not None:
            on_step(step)
