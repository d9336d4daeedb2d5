"""Named parameter storage, the adaptive-moment optimizer and the one
training loop every model in the package is fitted with.

A store's parameter values, Adam moments and step counts live in flat
arrays; each parameter tensor is a view of its slice. One Adam step is a few
vectorised numpy calls per run of adjacent parameters the loss reached, and
it computes exactly what the update written parameter by parameter does.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.commitment_cost) and self.commitment_cost >= 0):
            raise ConfigError(
                f"commitment_cost must be finite and >= 0, got {self.commitment_cost}"
            )


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> Array:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


class ParamStore:
    """Named parameter matrices plus per-parameter optimizer state.

    The values of every parameter and its two adaptive moments live in one
    flat ``(3, total)`` buffer per store, laid out in sorted name order, and
    the step counts in one array: each parameter tensor holds a reshaped
    view of its row-0 slice, so `adam_step` updates a whole store with a few
    vectorised numpy calls. The layout is (re)built when it is first needed
    after `add`. A parameter whose tensor or array was rebound (``params[name]
    = t``) is taken back into its place, with its values and its optimizer
    state, by the next step or load.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._flat = np.zeros((3, 0))
        self._steps = np.zeros(0, dtype=np.int64)
        self._sizes = np.zeros(0, dtype=np.int64)
        self._slots: dict[str, tuple[int, int, int]] = {}  # name -> (index, start, stop)
        self._views: dict[str, Array] = {}
        self._runs: dict[tuple[str, ...], list[tuple[int, int, int, int]]] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self.params:
            raise ConfigError(f"parameter {name!r} already registered")
        p = tensor(data, requires_grad=True)
        self.params[name] = p
        return p

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return list(self.params)

    def step_count(self, name: str) -> int:
        self._layout()
        return int(self._steps[self._slots[name][0]])

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
        """Overwrite every parameter's values in place; the names and shapes
        must match exactly, and nothing changes unless they all do."""
        unknown = sorted(set(arrays) - set(self.params))
        if unknown:
            raise ConfigError(f"unknown parameters in checkpoint: {unknown}")
        missing = sorted(set(self.params) - set(arrays))
        if missing:
            raise ConfigError(f"parameters missing from checkpoint: {missing}")
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
        for name, arr in arrays.items():
            shape = self.params[name].data.shape
            if arr.shape != shape:
                raise ShapeError(f"parameter {name!r} shape {arr.shape} != expected {shape}")
        self._layout()
        self._reclaim(sorted(arrays))
        for name, arr in arrays.items():
            self._views[name][...] = arr

    def _layout(self) -> None:
        """Move every parameter registered since the last layout into the
        flat buffer, keeping the values and state of the others."""
        if len(self._slots) == len(self.params):
            return
        self._reclaim(sorted(self._slots))
        names = sorted(self.params)
        sizes = np.array([self.params[n].data.size for n in names], dtype=np.int64)
        stops = np.cumsum(sizes)
        flat = np.zeros((3, int(stops[-1])))
        steps = np.zeros(len(names), dtype=np.int64)
        slots, views = {}, {}
        for i, (name, stop) in enumerate(zip(names, stops.tolist())):
            p = self.params[name]
            start = stop - p.data.size
            flat[0, start:stop] = p.data.ravel()
            if name in self._slots:
                j, a, b = self._slots[name]
                flat[1:, start:stop] = self._flat[1:, a:b]
                steps[i] = self._steps[j]
            views[name] = p.data = flat[0, start:stop].reshape(p.data.shape)
            slots[name] = (i, start, stop)
        self._flat, self._steps, self._sizes = flat, steps, sizes
        self._slots, self._views, self._runs = slots, views, {}

    def _reclaim(self, names) -> None:
        """Copy the values of every rebound parameter among ``names`` into
        its place in the buffer and point its tensor back at that place."""
        for name in names:
            p = self.params[name]
            view = self._views[name]
            if p.data is not view:
                if p.data.shape != view.shape:
                    raise ShapeError(
                        f"parameter {name!r} was rebound with shape {p.data.shape}, "
                        f"registered as {view.shape}"
                    )
                view[...] = p.data
                p.data = view

    def _runs_of(self, names: tuple[str, ...]) -> list[tuple[int, int, int, int]]:
        """The sorted ``names`` as maximal runs of adjacent parameters:
        (first index, end index, first element, end element) per run."""
        runs = self._runs.get(names)
        if runs is None:
            runs = []
            for name in names:
                i, a, b = self._slots[name]
                if runs and runs[-1][1] == i:
                    runs[-1] = (runs[-1][0], i + 1, runs[-1][2], b)
                else:
                    runs.append((i, i + 1, a, b))
            self._runs[names] = runs
        return runs


def adam_step(store: ParamStore, grads: dict[str, Array], lr: float) -> ParamStore:
    """One adaptive-moment update with bias correction, in place.

    Only the parameters named in ``grads`` move, and only their moments and
    step counts change. Every name, shape and value is checked before
    anything is written, so a failed step leaves the store as it was: an
    unknown name raises ConfigError, a wrong shape ShapeError, and a
    non-finite gradient NumericError naming the first such parameter in
    sorted order.
    """
    names = tuple(sorted(grads))
    if not names:
        return store
    store._layout()
    arrays = []
    for name in names:
        view = store._views.get(name)
        if view is None:
            raise ConfigError(f"gradient for unknown parameter {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != view.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter {name!r} shape {view.shape}")
        arrays.append(g)
    g_flat = np.concatenate(arrays, axis=None)
    if not np.isfinite(g_flat).all():
        bad = next(name for name, g in zip(names, arrays) if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient for parameter {bad!r}")
    store._reclaim(names)
    pos = 0
    for first, end, a, b in store._runs_of(names):
        g = g_flat[pos : pos + b - a]
        pos += b - a
        steps = store._steps[first:end]
        steps += 1
        # rows m and v: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g
        moments = store._flat[1:, a:b]
        moments *= _BETAS
        new = _ONE_MINUS_BETAS * g
        new[1] *= g
        moments += new
        # each parameter's bias corrections, as Python floats like a scalar
        # update's, repeated over its entries
        t = steps.tolist()
        corrections = np.array(
            [[1.0 - ADAM_BETA1**s for s in t], [1.0 - ADAM_BETA2**s for s in t]]
        )
        corrections = np.repeat(corrections, store._sizes[first:end], axis=1)
        m_hat, v_hat = np.divide(moments, corrections, out=new)
        # p -= lr m_hat / (sqrt(v_hat) + eps), in place
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPS
        m_hat *= lr
        m_hat /= v_hat
        store._flat[0, a:b] -= m_hat
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
