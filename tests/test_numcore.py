import ast
import ctypes
import gc
import math
import os
import platform
import resource
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
from ibvq.errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    NumericError,
    ShapeError,
    TrainingError,
)
from ibvq.harness.training import train_autoencoder
from ibvq.numcore.tensor import _child, check_offsets
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus


def rand(rng, r, c, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=(r, c))


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------


def test_affine_identity():
    x = nc.tensor([[1.0, 2.0]])
    w = nc.tensor(np.eye(2))
    b = nc.tensor([[0.0, 0.0]])
    npt.assert_array_equal(nc.affine(x, w, b).data, [[1.0, 2.0]])


def test_affine_hand_multiply():
    x = nc.tensor([[1.0, 1.0]])
    w = nc.tensor([[2.0, 0.0], [0.0, 3.0]])
    b = nc.tensor([[1.0, 1.0]])
    npt.assert_array_equal(nc.affine(x, w, b).data, [[3.0, 4.0]])


def test_affine_shape_mismatch():
    x = nc.tensor(np.zeros((3, 2)))
    w = nc.tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        nc.affine(x, w)


@pytest.mark.parametrize("with_bias", [True, False])
def test_affine_one_node_equals_matmul_add(with_bias):
    """The one-node affine gives the values and gradients of matmul + add,
    bit for bit."""
    rng = np.random.default_rng(21)
    data = {"x": rand(rng, 9, 5), "w": rand(rng, 5, 4), "b": rand(rng, 1, 4)}
    g = rand(rng, 9, 4, lo=-3.0, hi=3.0)

    def run(fused):
        t = {k: nc.tensor(v, requires_grad=True) for k, v in data.items()}
        bias = t["b"] if with_bias else None
        if fused:
            y = nc.affine(t["x"], t["w"], bias)
        else:
            y = nc.matmul(t["x"], t["w"])
            y = nc.add(y, bias) if with_bias else y
        nc.sum_all(nc.mul(y, nc.constant(g))).backward()
        return y, t

    y1, t1 = run(True)
    y2, t2 = run(False)
    assert y1._parents == ((t1["x"], t1["w"], t1["b"]) if with_bias else (t1["x"], t1["w"]))
    npt.assert_array_equal(y1.data, y2.data)
    for name in ("x", "w", "b") if with_bias else ("x", "w"):
        npt.assert_array_equal(t1[name].grad, t2[name].grad)


def test_affine_bias_shape_mismatch():
    with pytest.raises(ShapeError):
        nc.affine(nc.tensor(np.zeros((3, 2))), nc.tensor(np.zeros((2, 4))),
                  nc.tensor(np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = nc.tensor(rand(rng, 5, 3))
    k = nc.tensor([[0.3, -0.2, 1.0]])
    v = nc.tensor([[2.0, -1.0, 0.5]])
    out = nc.attention(q, k, v)
    npt.assert_allclose(out.data, np.tile(v.data, (5, 1)), atol=1e-15)


def test_attention_equal_scores_average_values():
    q = nc.tensor([[1.0, 1.0]])
    k = nc.tensor([[1.0, 0.0], [0.0, 1.0]])  # both score q.k = 1
    v = nc.tensor([[2.0, 0.0], [0.0, 4.0]])
    npt.assert_allclose(nc.attention(q, k, v).data, [[1.0, 2.0]], atol=1e-15)


def test_attention_hand_softmax():
    q = nc.tensor([[1.0, 0.0]])
    k = nc.tensor([[1.0, 0.0], [0.0, 1.0]])
    v = nc.tensor([[1.0, 0.0], [0.0, 1.0]])
    # logits are [1/sqrt(2), 0]; weights computed by hand from the softmax
    w1 = math.exp(1.0 / math.sqrt(2.0))
    expect = np.array([[w1, 1.0]]) / (w1 + 1.0)
    npt.assert_allclose(nc.attention(q, k, v).data, expect, atol=1e-15)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        nc.attention(nc.tensor(np.zeros((1, 2))), nc.tensor(np.zeros((3, 4))), nc.tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        nc.attention(nc.tensor(np.zeros((1, 2))), nc.tensor(np.zeros((3, 2))), nc.tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


def identity_kernel(width, channels):
    # center tap is the identity, all other taps zero
    k = np.zeros((width * channels, channels))
    center = width // 2
    k[center * channels : (center + 1) * channels] = np.eye(channels)
    return k


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = nc.tensor(rand(rng, 7, 3))
    k = nc.tensor(identity_kernel(3, 3))
    npt.assert_array_equal(nc.conv1d(x, k, width=3).data, x.data)


def test_conv1d_averaging_kernel():
    x = nc.tensor(np.array([[0.0], [3.0], [0.0], [0.0], [0.0]]))
    k = nc.tensor(np.full((3, 1), 1.0 / 3.0))
    out = nc.conv1d(x, k, width=3)
    npt.assert_allclose(out.data[:, 0], [1.0, 1.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_conv1d_even_width_rejected():
    x = nc.tensor(np.zeros((4, 2)))
    k = nc.tensor(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        nc.conv1d(x, k, width=2)


def test_conv1d_preserves_length():
    rng = np.random.default_rng(2)
    for t in (1, 2, 9):
        x = nc.tensor(rand(rng, t, 4))
        k = nc.tensor(rand(rng, 5 * 4, 6))
        assert nc.conv1d(x, k, width=5).shape == (t, 6)


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    store = nc.ParamStore()
    store.add("w", [[1.0, -2.0], [0.5, 3.0]])
    before = store["w"].data.copy()
    nc.adam_step(store, {"w": np.zeros((2, 2))}, 0.1)
    npt.assert_array_equal(store["w"].data, before)
    assert store.step_count("w") == 1


def test_adam_first_step_magnitude_is_learning_rate():
    store = nc.ParamStore()
    store.add("w", [[0.0, 0.0]])
    g = np.array([[0.3, -4.0]])
    nc.adam_step(store, {"w": g}, 0.05)
    # first bias-corrected step is lr * g / (|g| + eps') elementwise
    npt.assert_allclose(np.abs(store["w"].data), 0.05, rtol=1e-6)
    npt.assert_array_equal(np.sign(store["w"].data), -np.sign(g))


def test_adam_nan_gradient_raises_naming_parameter():
    store = nc.ParamStore()
    store.add("enc.w", [[1.0]])
    with pytest.raises(NumericError, match="enc.w"):
        nc.adam_step(store, {"enc.w": np.array([[np.nan]])}, 1e-3)


def test_adam_shape_mismatch():
    store = nc.ParamStore()
    store.add("w", [[1.0]])
    with pytest.raises(ShapeError):
        nc.adam_step(store, {"w": np.zeros((2, 2))}, 1e-3)


def test_adam_deterministic():
    def run():
        store = nc.ParamStore()
        store.add("w", [[1.0, 2.0]])
        for i in range(5):
            nc.adam_step(store, {"w": np.array([[0.1 * i, -0.2]])}, 0.01)
        return store["w"].data

    npt.assert_array_equal(run(), run())


class ReferenceAdam:
    """Adam written parameter by parameter, the way the update is defined."""

    def __init__(self, values):
        self.values = {k: np.array(v, dtype=np.float64) for k, v in values.items()}
        self.m = {k: np.zeros_like(v) for k, v in self.values.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.values.items()}
        self.t = dict.fromkeys(self.values, 0)

    def step(self, grads, lr):
        for name in sorted(grads):
            g = grads[name]
            self.t[name] += 1
            t = self.t[name]
            self.m[name] = 0.9 * self.m[name] + (1.0 - 0.9) * g
            self.v[name] = 0.999 * self.v[name] + (1.0 - 0.999) * g * g
            m_hat = self.m[name] / (1.0 - 0.9**t)
            v_hat = self.v[name] / (1.0 - 0.999**t)
            self.values[name] = self.values[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_store(rng):
    values = {"a": rand(rng, 3, 2), "b": rand(rng, 1, 4), "c.k": rand(rng, 4, 4),
              "c.w": rand(rng, 2, 1), "d": rand(rng, 1, 1)}
    store = nc.ParamStore()
    for name, value in values.items():
        store.add(name, value)
    return store, ReferenceAdam(values)


def assert_matches_reference(store, ref):
    for name in store.names():
        npt.assert_array_equal(store[name].data, ref.values[name], err_msg=name)
        assert store.step_count(name) == ref.t[name], name


def test_flat_adam_equals_per_parameter_reference():
    """Over 20 steps whose gradients reach a varying subset of parameters,
    the store moves exactly as the per-parameter update; a parameter no step
    reached keeps its values and a step count of 0."""
    rng = np.random.default_rng(30)
    store, ref = reference_store(rng)
    names = ["a", "b", "c.k", "c.w"]  # "d" is never reached
    for step in range(20):
        reached = [n for n in names if rng.random() < 0.6] or ["c.w"]
        grads = {n: rand(rng, *store[n].shape, lo=-2.0, hi=2.0) for n in reached}
        lr = 0.01 * (1 + step % 3)
        nc.adam_step(store, grads, lr)
        ref.step(grads, lr)
        assert_matches_reference(store, ref)
    assert store.step_count("d") == 0
    # a parameter first reached late starts from zero moments
    grads = {"d": np.array([[0.7]])}
    nc.adam_step(store, grads, 0.1)
    ref.step(grads, 0.1)
    assert_matches_reference(store, ref)


def test_parameter_added_after_steps_keeps_the_others_state():
    """Adding a parameter rebuilds the store's layout without losing the
    values, moments or step counts of the parameters already trained."""
    rng = np.random.default_rng(35)
    store, ref = reference_store(rng)
    for _ in range(3):
        grads = {n: rand(rng, *store[n].shape) for n in ("a", "c.k")}
        nc.adam_step(store, grads, 0.05)
        ref.step(grads, 0.05)
    late = rand(rng, 2, 3)
    store.add("bb", late)
    ref.values["bb"], ref.m["bb"], ref.v["bb"], ref.t["bb"] = late, 0 * late, 0 * late, 0
    grads = {n: rand(rng, *store[n].shape) for n in ("a", "bb", "c.k")}
    nc.adam_step(store, grads, 0.05)
    ref.step(grads, 0.05)
    assert_matches_reference(store, ref)


def test_adam_failed_step_leaves_store_unchanged():
    """A non-finite gradient for one parameter updates no parameter: values,
    moments and step counts stay as they were, and the error names the
    first offending parameter in sorted order."""
    rng = np.random.default_rng(31)
    store, ref = reference_store(rng)
    warm = {n: rand(rng, *store[n].shape) for n in ("a", "b", "c.k")}
    nc.adam_step(store, warm, 0.05)
    ref.step(warm, 0.05)
    before = {n: a.tobytes() for n, a in store.export().items()}
    bad = {n: rand(rng, *store[n].shape) for n in ("a", "b", "c.k", "c.w")}
    bad["c.k"][1, 2] = np.nan
    bad["c.w"][0, 0] = np.inf
    with pytest.raises(NumericError, match="'c.k'"):
        nc.adam_step(store, bad, 0.05)
    assert {n: a.tobytes() for n, a in store.export().items()} == before
    assert_matches_reference(store, ref)
    # the moments are untouched too: the next good step matches the reference
    good = {n: rand(rng, *store[n].shape) for n in ("a", "c.k")}
    nc.adam_step(store, good, 0.05)
    ref.step(good, 0.05)
    assert_matches_reference(store, ref)


def test_adam_unknown_or_misshapen_gradient_changes_nothing():
    rng = np.random.default_rng(32)
    store, ref = reference_store(rng)
    with pytest.raises(ConfigError, match="'zz'"):
        nc.adam_step(store, {"a": np.ones((3, 2)), "zz": np.ones((1, 1))}, 0.1)
    with pytest.raises(ShapeError, match="'b'"):
        nc.adam_step(store, {"a": np.ones((3, 2)), "b": np.ones((4, 1))}, 0.1)
    assert_matches_reference(store, ref)


def test_load_step_export_match_reference():
    """`load` replaces values in place and keeps the optimizer state; the
    next step and `export` then agree with the per-parameter update."""
    rng = np.random.default_rng(33)
    store, ref = reference_store(rng)
    tensors = dict(store.params)
    first = {"a": rand(rng, 3, 2)}
    nc.adam_step(store, first, 0.1)
    ref.step(first, 0.1)
    loaded = {n: rand(rng, *store[n].shape) for n in store.names()}
    store.load(loaded)
    ref.values = {n: v.copy() for n, v in loaded.items()}
    assert all(store[n] is tensors[n] for n in store.names())
    assert_matches_reference(store, ref)
    grads = {n: rand(rng, *store[n].shape) for n in ("a", "c.k", "d")}
    nc.adam_step(store, grads, 0.02)
    ref.step(grads, 0.02)
    exported = store.export()
    for name in store.names():
        npt.assert_array_equal(exported[name], ref.values[name], err_msg=name)
    # exported arrays are copies
    exported["a"][:] = 99.0
    npt.assert_array_equal(store["a"].data, ref.values["a"])


def test_rebound_parameter_keeps_being_updated():
    """A tensor put in place of a parameter through ``params[name] = t`` is
    updated by later steps, from its own values and the name's moments."""
    rng = np.random.default_rng(34)
    store, ref = reference_store(rng)
    g1 = {n: rand(rng, *store[n].shape) for n in ("a", "b")}
    nc.adam_step(store, g1, 0.05)
    ref.step(g1, 0.05)
    fresh = rand(rng, 1, 4)
    store.params["b"] = replacement = nc.tensor(fresh.copy(), requires_grad=True)
    ref.values["b"] = fresh
    for _ in range(3):
        g = {n: rand(rng, *store[n].shape) for n in ("a", "b")}
        nc.adam_step(store, g, 0.05)
        ref.step(g, 0.05)
        assert store["b"] is replacement
        assert_matches_reference(store, ref)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def quadratic_store():
    store = nc.ParamStore()
    store.add("w", [[1.0, -2.0]])
    store.add("unused", [[3.0]])
    return store


def test_fit_leaves_a_parameter_the_loss_never_reaches():
    store = quadratic_store()
    before = store["unused"].data.copy()
    nc.fit([store], 5, lambda step: nc.sqnorm(store["w"]), 0.1)
    npt.assert_array_equal(store["unused"].data, before)
    assert store.step_count("unused") == 0
    assert store.step_count("w") == 5
    assert store.grads().keys() == {"w"}


def test_fit_passes_each_step_to_a_callable_rate():
    seen = []

    def rate(step):
        seen.append(step)
        return 0.1 / (step + 1)

    store = quadratic_store()
    nc.fit([store], 4, lambda step: nc.sqnorm(store["w"]), rate)
    assert seen == [0, 1, 2, 3]
    # the first bias-corrected Adam step moves each entry by the rate
    first = quadratic_store()
    nc.fit([first], 1, lambda step: nc.sqnorm(first["w"]), rate)
    npt.assert_allclose(first["w"].data, [[0.9, -1.9]], rtol=1e-6)


def test_fit_runs_on_step_after_the_update():
    store = quadratic_store()
    seen = []
    nc.fit([store], 3, lambda step: nc.sqnorm(store["w"]), 0.1,
           on_step=lambda step: seen.append((step, store.step_count("w"),
                                             store["w"].data.copy())))
    assert [(s, n) for s, n, _ in seen] == [(0, 1), (1, 2), (2, 3)]
    npt.assert_array_equal(seen[-1][2], store["w"].data)
    assert not np.array_equal(seen[0][2], [[1.0, -2.0]])


def test_fit_non_finite_loss_raises_naming_the_step():
    store = quadratic_store()

    def loss(step):
        scale = np.inf if step == 2 else 1.0
        return nc.mul(nc.sqnorm(store["w"]), scale)

    with pytest.raises(TrainingError, match="step 2"):
        nc.fit([store], 5, loss, 0.1)
    assert store.step_count("w") == 2  # the diverged step made no update


def test_fit_frees_each_step_graph_before_the_next():
    store = quadratic_store()
    previous = []

    def step_loss(step):
        if previous:
            assert previous[-1]() is None, f"step {step - 1}'s loss is still alive"
        loss = nc.sqnorm(nc.mul(store["w"], 2.0))
        previous.append(weakref.ref(loss))
        return loss

    gc.disable()  # reference counting alone must free the graph
    try:
        nc.fit([store], 3, step_loss, 0.1)
    finally:
        gc.enable()
    assert len(previous) == 3


def test_batch_sampler_visits_every_index_once_per_epoch():
    sampler = nc.BatchSampler(10, 4, np.random.default_rng(0))
    epoch = np.concatenate([sampler.next(), sampler.next()])
    assert len(set(epoch.tolist())) == 8
    # fewer items than a batch: every batch is one whole epoch, the first
    # from the permutation drawn at construction
    small = nc.BatchSampler(3, 8, np.random.default_rng(1))
    npt.assert_array_equal(small.next(), np.random.default_rng(1).permutation(3))
    assert sorted(small.next().tolist()) == [0, 1, 2]


def test_only_fit_calls_adam_step():
    """A training loop written beside `fit` would call `adam_step` itself."""
    src = Path(nc.__file__).resolve().parent.parent
    callers = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "numcore" / "optim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "adam_step":
                    callers.append(f"{path.relative_to(src)}:{node.lineno}")
    assert callers == []


def test_frozen_store_records_no_graph():
    store = nc.ParamStore()
    w = store.add("w", [[2.0]])
    with store.frozen():
        out = nc.mul(w, w)
    assert not out.requires_grad and out._parents == ()
    assert w.requires_grad
    nc.mul(w, w).backward()
    npt.assert_array_equal(w.grad, [[4.0]])


def test_nested_frozen_blocks_keep_parameters_frozen():
    store = nc.ParamStore()
    w = store.add("w", [[2.0]])
    with store.frozen():
        with store.frozen():
            pass
        assert not w.requires_grad  # the inner block must not unfreeze
        assert not nc.mul(w, w).requires_grad
    assert w.requires_grad


def test_train_config_validation():
    with pytest.raises(ConfigError):
        nc.TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        nc.TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        nc.TrainConfig(commitment_cost=-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            nc.TrainConfig(learning_rate=value)
        with pytest.raises(ConfigError, match="finite"):
            nc.TrainConfig(commitment_cost=value)


# ---------------------------------------------------------------------------
# grad_check on hand cases
# ---------------------------------------------------------------------------


def test_grad_check_square():
    err = nc.grad_check(lambda p: nc.sqnorm(p["x"]), np.array([[3.0]]), eps=1e-5)
    assert err < 1e-8


def test_grad_check_constant_is_zero():
    err = nc.grad_check(lambda p: nc.mul(nc.sum_all(p["x"]), 0.0), np.ones((2, 2)))
    assert err == 0.0


def test_grad_check_rejects_bad_eps():
    with pytest.raises(ConfigError):
        nc.grad_check(lambda p: nc.sum_all(p["x"]), np.ones((1, 1)), eps=0.0)


# ---------------------------------------------------------------------------
# gradient integrity of every differentiable operation
# ---------------------------------------------------------------------------

RNG = np.random.default_rng(20240531)


def check(f, point, tol=1e-4):
    err = nc.grad_check(f, point, eps=1e-5)
    assert err < tol, f"gradient mismatch: {err}"


def test_grad_add_broadcast():
    check(
        lambda p: nc.sum_all(nc.mul(nc.add(p["a"], p["b"]), nc.add(p["a"], p["b"]))),
        {"a": rand(RNG, 3, 4), "b": rand(RNG, 1, 4)},
    )


def test_grad_sub_mul():
    check(
        lambda p: nc.sum_all(nc.mul(nc.sub(p["a"], p["b"]), p["a"])),
        {"a": rand(RNG, 3, 3), "b": rand(RNG, 3, 1)},
    )


def test_grad_matmul_transpose():
    check(
        lambda p: nc.sqnorm(nc.matmul(p["a"], nc.transpose(p["b"]))),
        {"a": rand(RNG, 3, 4), "b": rand(RNG, 2, 4)},
    )


def test_grad_relu():
    # inputs bounded away from the kink
    x = rand(RNG, 4, 4)
    x[np.abs(x) < 0.05] = 0.1
    check(lambda p: nc.sqnorm(nc.relu(p["x"])), {"x": x})


def test_grad_exp():
    check(lambda p: nc.sum_all(nc.exp(p["x"])), {"x": rand(RNG, 3, 3)})


def test_grad_softmax():
    check(
        lambda p: nc.sqnorm(nc.softmax_rows(p["x"])),
        {"x": rand(RNG, 3, 5, lo=-2.0, hi=2.0)},
    )


def test_grad_mean_all():
    check(lambda p: nc.mul(nc.mean_all(nc.mul(p["x"], p["x"])), 3.0), {"x": rand(RNG, 2, 5)})


def test_grad_layer_norm():
    check(
        lambda p: nc.sqnorm(nc.layer_norm(p["x"], p["g"], p["b"])),
        {"x": rand(RNG, 4, 6), "g": rand(RNG, 1, 6, 0.5, 1.5), "b": rand(RNG, 1, 6)},
    )


def test_grad_gather_rows():
    idx = np.array([0, 2, 2, 1])
    check(
        lambda p: nc.sqnorm(nc.gather_rows(p["t"], idx)),
        {"t": rand(RNG, 3, 4)},
    )


def test_gather_rows_backward_equals_add_at():
    rng = np.random.default_rng(12)
    table = nc.tensor(rand(rng, 7, 3), requires_grad=True)
    idx = rng.integers(0, 7, size=200)  # every row repeats, row order mixed
    idx[:3] = 4
    g = rand(rng, 200, 3, lo=-1e3, hi=1e3)
    nc.sum_all(nc.mul(nc.gather_rows(table, idx), nc.constant(g))).backward()
    expected = np.zeros((7, 3))
    np.add.at(expected, idx, g)
    npt.assert_array_equal(table.grad, expected)


def test_grad_gather_rows_index_matrix():
    idx = np.array([[0, 3], [2, 2], [1, 0]])
    check(
        lambda p: nc.sqnorm(nc.gather_rows(p["t"], idx)),
        {"t": rand(RNG, 4, 2)},
    )


@pytest.mark.parametrize("groups", [2, 3])
def test_gather_rows_index_matrix_equals_concat_of_gathers(groups):
    """A (rows, G) index matrix gives what G one-column gathers joined by
    concat_cols give, values and table gradient bit for bit, also when the
    groups share table rows."""
    rng = np.random.default_rng(13)
    table = rand(rng, 6, 3)
    idx = rng.integers(0, 6, size=(50, groups))
    g = rand(rng, 50, 3 * groups, lo=-1e3, hi=1e3)

    def run(one_node):
        t = nc.tensor(table, requires_grad=True)
        if one_node:
            out = nc.gather_rows(t, idx)
        else:
            out = nc.concat_cols([nc.gather_rows(t, idx[:, j]) for j in range(groups)])
        nc.sum_all(nc.mul(out, nc.constant(g))).backward()
        return out.data, t.grad

    one, one_grad = run(True)
    many, many_grad = run(False)
    assert one.shape == (50, 3 * groups)
    npt.assert_array_equal(one, many)
    npt.assert_array_equal(one_grad, many_grad)


def test_grad_concat_cols():
    check(
        lambda p: nc.sqnorm(nc.concat_cols([p["a"], p["b"]])),
        {"a": rand(RNG, 3, 2), "b": rand(RNG, 3, 5)},
    )


def test_grad_repeat_rows():
    counts = [2, 1, 3]
    check(lambda p: nc.sqnorm(nc.repeat_rows(p["x"], counts)), {"x": rand(RNG, 3, 4)})


def test_grad_unfold_conv():
    check(
        lambda p: nc.sqnorm(nc.conv1d(p["x"], p["k"], p["b"], width=3)),
        {"x": rand(RNG, 6, 2), "k": rand(RNG, 6, 3), "b": rand(RNG, 1, 3)},
    )


def test_grad_cross_entropy():
    targets = np.array([1, 0, 2])
    check(
        lambda p: nc.cross_entropy(p["l"], targets),
        {"l": rand(RNG, 3, 4, lo=-2.0, hi=2.0)},
    )


def test_grad_attention():
    check(
        lambda p: nc.sqnorm(nc.attention(p["q"], p["k"], p["v"])),
        {"q": rand(RNG, 3, 4), "k": rand(RNG, 5, 4), "v": rand(RNG, 5, 2)},
    )


# three packed sequences, the middle one a single row: a width-5 kernel
# reaches two rows past both of its ends
PACKED = [0, 3, 4, 8]


def test_grad_attention_packed():
    check(
        lambda p: nc.sqnorm(nc.attention(p["q"], p["k"], p["v"], offsets=PACKED)),
        {"q": rand(RNG, 8, 3), "k": rand(RNG, 8, 3), "v": rand(RNG, 8, 2)},
    )


def test_grad_conv1d_packed():
    check(
        lambda p: nc.sqnorm(nc.conv1d(p["x"], p["k"], p["b"], width=5, offsets=PACKED)),
        {"x": rand(RNG, 8, 2), "k": rand(RNG, 10, 3), "b": rand(RNG, 1, 3)},
    )


def test_grad_mse_packed():
    check(lambda p: nc.mse(p["x"], np.ones((8, 3)), offsets=PACKED), {"x": rand(RNG, 8, 3)})


def test_grad_cross_entropy_packed():
    targets = np.array([1, 0, 2, 3, 0, 1, 1, 2])
    check(
        lambda p: nc.cross_entropy(p["l"], targets, offsets=PACKED),
        {"l": rand(RNG, 8, 4, lo=-2.0, hi=2.0)},
    )


def test_cross_entropy_packed_weights_every_sequence_equally():
    # uniform logits over 4 classes: every row's NLL is ln 4, but a confident
    # correct row costs ~0; sequence 0 is one confident row, sequence 1 three
    # uniform rows
    logits = np.zeros((4, 4))
    logits[0, 2] = 50.0
    targets = [2, 0, 1, 3]
    packed = nc.cross_entropy(nc.tensor(logits), targets, offsets=[0, 1, 4]).item()
    flat = nc.cross_entropy(nc.tensor(logits), targets).item()
    npt.assert_allclose(packed, math.log(4) / 2, rtol=1e-12)
    npt.assert_allclose(flat, 3 * math.log(4) / 4, rtol=1e-12)


def test_packed_ops_equal_each_sequence_alone():
    rng = np.random.default_rng(8)
    x, w = rand(rng, 8, 2), rand(rng, 10, 3)
    q, k, v = rand(rng, 8, 3), rand(rng, 8, 3), rand(rng, 8, 2)
    conv = nc.conv1d(nc.tensor(x), nc.tensor(w), width=5, offsets=PACKED).data
    attn = nc.attention(nc.tensor(q), nc.tensor(k), nc.tensor(v), offsets=PACKED).data
    pe = nc.positional(PACKED, 6)
    for a, b in zip(PACKED[:-1], PACKED[1:]):
        rows = slice(a, b)
        one = nc.conv1d(nc.tensor(x[rows]), nc.tensor(w), width=5).data
        npt.assert_allclose(conv[rows], one, rtol=1e-14, atol=1e-15)
        one = nc.attention(nc.tensor(q[rows]), nc.tensor(k[rows]), nc.tensor(v[rows])).data
        npt.assert_allclose(attn[rows], one, rtol=1e-14, atol=1e-15)
        npt.assert_array_equal(pe[rows], nc.sinusoid_table(b - a, 6))


def test_mse_packed_weights_every_sequence_equally():
    pred = np.zeros((4, 2))
    target = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    # per-sequence means 1 and 4, averaged; a flat mean would give 3.25
    assert nc.mse(nc.tensor(pred), target, offsets=[0, 1, 4]).item() == 2.5
    assert nc.mse(nc.tensor(pred), target).item() == 3.25


def test_packed_offsets_must_cover_rows():
    x = nc.tensor(np.zeros((4, 2)))
    with pytest.raises(AlignmentError):
        nc.conv1d(x, nc.tensor(np.zeros((6, 2))), width=3, offsets=[0, 2, 3])
    with pytest.raises(AlignmentError):
        nc.attention(x, x, x, offsets=[0, 2, 2, 4])


def test_grad_affine():
    check(
        lambda p: nc.sqnorm(nc.affine(p["x"], p["w"], p["b"])),
        {"x": rand(RNG, 4, 3), "w": rand(RNG, 3, 5), "b": rand(RNG, 1, 5)},
    )
    check(
        lambda p: nc.sqnorm(nc.affine(p["x"], p["w"])),
        {"x": rand(RNG, 4, 3), "w": rand(RNG, 3, 5)},
    )


def test_grad_affine_chain():
    check(
        lambda p: nc.mse(nc.relu(nc.affine(p["x"], p["w"], p["b"])), np.ones((4, 3))),
        {"x": rand(RNG, 4, 5), "w": rand(RNG, 5, 3), "b": rand(RNG, 1, 3)},
    )


# ---------------------------------------------------------------------------
# straight-through estimator (trace identity, not finite differences)
# ---------------------------------------------------------------------------


def test_straight_through_forwards_values_and_passes_gradient():
    x = nc.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    values = np.array([[10.0, 20.0], [30.0, 40.0]])
    st = nc.straight_through(x, values)
    npt.assert_array_equal(st.data, values)
    loss = nc.sqnorm(st)
    loss.backward()
    npt.assert_array_equal(x.grad, 2.0 * values)  # upstream passed unchanged


def test_straight_through_zero_upstream():
    x = nc.tensor([[1.0]], requires_grad=True)
    st = nc.straight_through(x, np.array([[5.0]]))
    nc.mul(nc.sum_all(st), 0.0).backward()
    npt.assert_array_equal(x.grad, [[0.0]])


# ---------------------------------------------------------------------------
# attention and conv1d against the bodies they replaced
# ---------------------------------------------------------------------------


def reference_attention(q, k, v, offsets=None):
    """Per-block normalised softmax, kept as the reference for `nc.attention`."""
    if offsets is None:
        q_off, k_off = check_offsets(None, q.rows), check_offsets(None, k.rows)
    else:
        q_off = k_off = check_offsets(offsets, q.rows)
    blocks = list(zip(q_off[:-1], q_off[1:], k_off[:-1], k_off[1:]))
    scale = 1.0 / math.sqrt(q.cols)
    out_data = np.empty((q.rows, v.cols))
    probs = []
    for qa, qb, ka, kb in blocks:
        p = q.data[qa:qb] @ k.data[ka:kb].T
        p *= scale
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        out_data[qa:qb] = p @ v.data[ka:kb]
        probs.append(p)

    def backward(g):
        dq = np.empty_like(q.data) if q.requires_grad else None
        dk = np.empty_like(k.data) if k.requires_grad else None
        dv = np.empty_like(v.data) if v.requires_grad else None
        for (qa, qb, ka, kb), p in zip(blocks, probs):
            gs = g[qa:qb]
            if dv is not None:
                dv[ka:kb] = p.T @ gs
            if dq is None and dk is None:
                continue
            ds = gs @ v.data[ka:kb].T
            ds -= (ds * p).sum(axis=1, keepdims=True)
            ds *= p
            ds *= scale
            if dq is not None:
                dq[qa:qb] = ds @ k.data[ka:kb]
            if dk is not None:
                dk[ka:kb] = ds.T @ q.data[qa:qb]
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                t._accumulate(d)

    return _child(out_data, (q, k, v), backward)


def reference_conv1d(x, kernel, bias=None, *, width, offsets=None):
    """Gathered windows matrix, kept as the reference for `nc.conv1d`."""
    off = check_offsets(offsets, x.rows)
    h = width // 2
    t, c = x.shape
    n_seq = off.size - 1
    pos = np.arange(t) + h * (1 + np.repeat(np.arange(n_seq), np.diff(off)))
    padded_rows = t + h * (n_seq + 1)
    padded = np.zeros((padded_rows, c))
    padded[pos] = x.data
    taps = pos[:, None] + np.arange(-h, h + 1)
    windows = padded[taps].reshape(t, width * c)
    out_data = windows @ kernel.data
    if bias is not None:
        out_data = out_data + bias.data

    def backward(g):
        if kernel.requires_grad:
            kernel._accumulate(windows.T @ g)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=0, keepdims=True))
        if x.requires_grad:
            g_windows = g @ kernel.data.T
            acc = np.zeros((padded_rows, c))
            for j in range(width):
                acc[taps[:, j]] += g_windows[:, j * c : (j + 1) * c]
            x._accumulate(acc[pos])

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _child(out_data, parents, backward)


# lengths 1, 2, 5 and 40: a single row, sequences shorter than a width-5
# kernel's reach, and one long block
RAGGED = np.concatenate([[0], np.cumsum([1, 2, 5, 40])])


def run_op(op, arrays, grads, kwargs, seed=0):
    """Forward, then backward of a fixed random projection of the output;
    returns the output, the gradients of the named inputs and the upstream
    gradient the op received, as its backward function left it."""
    inputs = [nc.tensor(a, requires_grad=name in grads) for name, a in arrays.items()]
    out = op(*inputs, **kwargs)
    upstream = []
    op_backward = out._backward

    def capture(g):
        upstream.append(g)
        op_backward(g)

    out._backward = capture
    weights = np.random.default_rng(seed).standard_normal(out.shape)
    nc.sum_all(nc.mul(out, nc.constant(weights))).backward()
    got = {name: t.grad for name, t in zip(arrays, inputs) if name in grads}
    return out.data, got, upstream[0]


def assert_op_matches_reference(op, reference, arrays, grads, kwargs):
    out, got, _ = run_op(op, arrays, grads, kwargs)
    ref_out, ref, _ = run_op(reference, arrays, grads, kwargs)
    npt.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-15)
    assert set(got) == set(grads)
    for name in grads:
        npt.assert_allclose(got[name], ref[name], rtol=1e-12, atol=1e-15, err_msg=name)


ATTENTION_CASES = {
    "packed": (RAGGED[-1], RAGGED[-1], RAGGED, "qkv"),
    "packed-only-v": (RAGGED[-1], RAGGED[-1], RAGGED, "v"),
    "packed-only-qk": (RAGGED[-1], RAGGED[-1], RAGGED, "qk"),
    "cross": (7, 11, None, "qkv"),
    "cross-only-v": (7, 11, None, "v"),
    "cross-only-qk": (7, 11, None, "qk"),
}


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_attention_equals_reference(case):
    q_rows, k_rows, offsets, grads = ATTENTION_CASES[case]
    rng = np.random.default_rng(11)
    arrays = {"q": rng.standard_normal((q_rows, 6)), "k": rng.standard_normal((k_rows, 6)),
              "v": rng.standard_normal((k_rows, 4))}
    assert_op_matches_reference(nc.attention, reference_attention, arrays, grads,
                                {"offsets": offsets})


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("grads", [("x", "k", "b"), ("x",), ("k", "b")])
@pytest.mark.parametrize("offsets", [RAGGED, None], ids=["packed", "one-sequence"])
def test_conv1d_equals_reference(width, grads, offsets):
    rng = np.random.default_rng(12)
    arrays = {"x": rng.standard_normal((RAGGED[-1], 3)),
              "k": rng.standard_normal((width * 3, 4)), "b": rng.standard_normal((1, 4))}
    assert_op_matches_reference(nc.conv1d, reference_conv1d, arrays, grads,
                                {"width": width, "offsets": offsets})


@pytest.mark.parametrize("op", ["attention", "conv1d"])
def test_attention_and_conv1d_leave_inputs_unchanged(op):
    rng = np.random.default_rng(13)
    if op == "attention":
        arrays = {"q": rng.standard_normal((48, 6)), "k": rng.standard_normal((48, 6)),
                  "v": rng.standard_normal((48, 4))}
        kwargs = {"offsets": RAGGED}
    else:
        arrays = {"x": rng.standard_normal((48, 3)), "k": rng.standard_normal((15, 4)),
                  "b": rng.standard_normal((1, 4))}
        kwargs = {"width": 5, "offsets": RAGGED}
    before = {name: a.tobytes() for name, a in arrays.items()}
    _, _, upstream = run_op(getattr(nc, op), arrays, tuple(arrays), kwargs, seed=3)
    # the op's upstream gradient is exactly the projection weights, and
    # `run_op` returns the array the op received: an in-place update would
    # show here
    weights = np.random.default_rng(3).standard_normal(upstream.shape)
    assert upstream.tobytes() == weights.tobytes()
    assert {name: a.tobytes() for name, a in arrays.items()} == before


def graph_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_backward_leaves_gradients_only_on_leaves():
    rng = np.random.default_rng(14)
    x = nc.tensor(rng.standard_normal((48, 6)), requires_grad=True)
    kernel = nc.tensor(rng.standard_normal((18, 6)), requires_grad=True)
    gain = nc.tensor(np.ones((1, 6)), requires_grad=True)
    bias = nc.tensor(np.zeros((1, 6)), requires_grad=True)
    h = nc.layer_norm(nc.conv1d(x, kernel, width=3, offsets=RAGGED), gain, bias)
    out = nc.attention(h, h, x, offsets=RAGGED)
    loss = nc.mse(out, rng.standard_normal((48, 6)), offsets=RAGGED)
    loss.backward()
    nodes = graph_nodes(loss)
    interior = [n for n in nodes if n._backward is not None]
    assert len(interior) == 4 and all(n.grad is None for n in interior)
    for leaf in (x, kernel, gain, bias):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_training_loss_curve_equals_reference_ops(monkeypatch):
    corpus = build_corpus(CorpusConfig(n_utterances=24, seed=31))
    train_cfg = nc.TrainConfig(learning_rate=3e-3, steps=30, seed=5, batch_size=4)

    def train():
        return train_autoencoder(corpus, CapacityConfig(K=4, G=2), train_cfg, warmup_steps=10)

    fused = train()
    monkeypatch.setattr(nc, "attention", reference_attention)
    monkeypatch.setattr(nc, "conv1d", reference_conv1d)
    reference = train()
    for got, want in zip(fused.loss_curve, reference.loss_curve, strict=True):
        npt.assert_allclose([got.mse, got.codebook, got.commitment],
                            [want.mse, want.codebook, want.commitment], rtol=1e-12,
                            err_msg=f"step {got.step}")
    for got, want in zip(fused.codes, reference.codes, strict=True):
        npt.assert_array_equal(got, want)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap settings apply to glibc's allocator only")
def test_training_steps_reuse_freed_heap_pages():
    """Once the heap is warm, a step runs in the pages the previous step's
    graph released: without the allocator settings made at import, every
    step faults in several hundred pages again."""
    corpus = build_corpus(CorpusConfig())
    train_cfg = nc.TrainConfig(steps=20, seed=1, batch_size=8)

    def train():
        train_autoencoder(corpus, CapacityConfig(K=16, G=2), train_cfg, warmup_steps=5)

    train()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 20 * train_cfg.steps, f"{faults} minor page faults in {train_cfg.steps} steps"


def test_heap_settings_do_nothing_without_glibc(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)  # as on musl
    monkeypatch.setattr(ctypes, "CDLL", lambda name: pytest.fail("looked up mallopt"))
    nc._keep_freed_heap()


def test_heap_settings_do_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    nc._keep_freed_heap()


# ---------------------------------------------------------------------------
# determinism and misc invariants
# ---------------------------------------------------------------------------


def test_ops_bit_deterministic():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)

    def run(rng):
        x = nc.tensor(rand(rng, 8, 6))
        k = nc.tensor(rand(rng, 18, 6))
        g = nc.tensor(rand(rng, 1, 6))
        b = nc.tensor(rand(rng, 1, 6))
        return nc.layer_norm(nc.conv1d(x, k, width=3), g, b).data

    npt.assert_array_equal(run(rng1), run(rng2))


def test_backward_requires_scalar():
    x = nc.tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        nc.mul(x, 2.0).backward()


def test_tensor_rejects_nonfinite():
    with pytest.raises(NumericError):
        nc.tensor([[np.inf]])


def test_sinusoid_table_shape_and_range():
    pe = nc.sinusoid_table(50, 16)
    assert pe.shape == (50, 16)
    assert np.all(np.abs(pe) <= 1.0)
    assert not np.array_equal(pe[0], pe[1])


def test_glorot_uniform_bounds_and_seeding():
    a = nc.glorot_uniform(np.random.default_rng(3), 10, 20)
    b = nc.glorot_uniform(np.random.default_rng(3), 10, 20)
    npt.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= math.sqrt(6.0 / 30.0))


# ---------------------------------------------------------------------------
# checkpoint round trip
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    params = {"enc.w": rand(rng, 4, 3), "dec.b": rand(rng, 1, 7)}
    path = tmp_path / "model.ibvq"
    nc.save_params(path, params)
    loaded = nc.load_params(path)
    assert list(loaded) == list(params)
    for name in params:
        npt.assert_array_equal(loaded[name], params[name])


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ibvq"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        nc.load_params(path)


def test_checkpoint_truncated(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "model.ibvq"
    nc.save_params(path, {"w": rand(rng, 3, 3)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        nc.load_params(path)


def test_checkpoint_deterministic_bytes(tmp_path):
    params = {"a": np.ones((2, 2)), "b": np.zeros((1, 3))}
    p1, p2 = tmp_path / "c1.ibvq", tmp_path / "c2.ibvq"
    nc.save_params(p1, params)
    nc.save_params(p2, params)
    assert p1.read_bytes() == p2.read_bytes()
