import ast
import ctypes
import gc
import math
import os
import platform
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
import ibvq.numcore.shards as shards
from ibvq.errors import (
    AlignmentError,
    CheckpointError,
    ConfigError,
    NumericError,
    ShapeError,
    TrainingError,
    ValidationError,
)
from ibvq.harness.training import train_autoencoder
from ibvq.numcore.tensor import _child, _spent, check_offsets
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus
from recipe import recipe


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
    """The one-node affine gives the values of matmul + add of the bias
    repeated over the rows, and their gradients, bit for bit; the bias
    gradient is the upstream gradient summed over the rows, as numpy sums
    them."""
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
            y = nc.add(y, nc.repeat_rows(bias, [y.rows])) if with_bias else y
        nc.sum_all(nc.mul(y, nc.constant(g))).backward()
        return y, t

    y1, t1 = run(True)
    y2, t2 = run(False)
    inputs = (t1["x"], t1["w"], t1["b"]) if with_bias else (t1["x"], t1["w"])
    assert y1._parents == tuple(t._node for t in inputs)
    npt.assert_array_equal(y1.data, y2.data)
    for name in ("x", "w"):
        npt.assert_array_equal(t1[name].grad, t2[name].grad)
    if with_bias:
        npt.assert_array_equal(t1["b"].grad, g.sum(axis=0, keepdims=True))


def test_affine_bias_shape_mismatch():
    with pytest.raises(ShapeError):
        nc.affine(nc.tensor(np.zeros((3, 2))), nc.tensor(np.zeros((2, 4))),
                  nc.tensor(np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


def test_attention_single_key_returns_value():
    # five one-row sequences: each query's only key is its own
    rng = np.random.default_rng(0)
    q, k, v = (nc.tensor(rand(rng, 5, 3)) for _ in range(3))
    out = nc.attention(q, k, v, offsets=[0, 1, 2, 3, 4, 5])
    npt.assert_allclose(out.data, v.data, atol=1e-15)


def test_attention_equal_scores_average_values():
    q = nc.tensor([[1.0, 1.0], [1.0, 1.0]])
    k = nc.tensor([[1.0, 0.0], [0.0, 1.0]])  # both score q.k = 1
    v = nc.tensor([[2.0, 0.0], [0.0, 4.0]])
    npt.assert_allclose(nc.attention(q, k, v, offsets=[0, 2]).data, [[1.0, 2.0]] * 2,
                        atol=1e-15)


def test_attention_hand_softmax():
    q = nc.tensor([[1.0, 0.0], [1.0, 0.0]])
    k = nc.tensor([[1.0, 0.0], [0.0, 1.0]])
    v = nc.tensor([[1.0, 0.0], [0.0, 1.0]])
    # logits are [1/sqrt(2), 0]; weights computed by hand from the softmax
    w1 = math.exp(1.0 / math.sqrt(2.0))
    expect = np.array([[w1, 1.0]] * 2) / (w1 + 1.0)
    npt.assert_allclose(nc.attention(q, k, v, offsets=[0, 2]).data, expect, atol=1e-15)


def test_attention_shape_errors():
    with pytest.raises(ShapeError):
        nc.attention(nc.tensor(np.zeros((3, 2))), nc.tensor(np.zeros((3, 4))),
                     nc.tensor(np.zeros((3, 4))), offsets=[0, 3])
    # one key and one value per query
    with pytest.raises(ShapeError):
        nc.attention(nc.tensor(np.zeros((1, 2))), nc.tensor(np.zeros((3, 2))),
                     nc.tensor(np.zeros((3, 2))), offsets=[0, 1])
    with pytest.raises(ShapeError):
        nc.attention(nc.tensor(np.zeros((3, 2))), nc.tensor(np.zeros((3, 2))),
                     nc.tensor(np.zeros((4, 2))), offsets=[0, 3])


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


def identity_kernel(width, channels):
    # center tap is the identity, all other taps zero
    k = np.zeros((width * channels, channels))
    center = width // 2
    k[center * channels : (center + 1) * channels] = np.eye(channels)
    return k


def zero_bias(cols):
    return nc.tensor(np.zeros((1, cols)))


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(1)
    x = nc.tensor(rand(rng, 7, 3))
    k = nc.tensor(identity_kernel(3, 3))
    npt.assert_array_equal(nc.conv1d(x, k, zero_bias(3), width=3, offsets=[0, 7]).data, x.data)


def test_conv1d_averaging_kernel():
    x = nc.tensor(np.array([[0.0], [3.0], [0.0], [0.0], [0.0]]))
    k = nc.tensor(np.full((3, 1), 1.0 / 3.0))
    out = nc.conv1d(x, k, nc.tensor([[0.5]]), width=3, offsets=[0, 5])
    npt.assert_allclose(out.data[:, 0], [1.5, 1.5, 1.5, 0.5, 0.5], atol=1e-15)


def test_conv1d_even_width_rejected():
    x = nc.tensor(np.zeros((4, 2)))
    k = nc.tensor(np.zeros((4, 2)))
    with pytest.raises(ConfigError):
        nc.conv1d(x, k, zero_bias(2), width=2, offsets=[0, 4])


def test_conv1d_preserves_length():
    rng = np.random.default_rng(2)
    for t in (1, 2, 9):
        x = nc.tensor(rand(rng, t, 4))
        k = nc.tensor(rand(rng, 5 * 4, 6))
        assert nc.conv1d(x, k, zero_bias(6), width=5, offsets=[0, t]).shape == (t, 6)


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    store = nc.ParamStore({"w": [[1.0, -2.0], [0.5, 3.0]]})
    before = store["w"].data.copy()
    nc.adam_step(store, {"w": np.zeros((2, 2))}, 0.1)
    npt.assert_array_equal(store["w"].data, before)
    assert store.steps == 1


def test_adam_first_step_magnitude_is_learning_rate():
    store = nc.ParamStore({"w": [[0.0, 0.0]]})
    g = np.array([[0.3, -4.0]])
    nc.adam_step(store, {"w": g}, 0.05)
    # first bias-corrected step is lr * g / (|g| + eps') elementwise
    npt.assert_allclose(np.abs(store["w"].data), 0.05, rtol=1e-6)
    npt.assert_array_equal(np.sign(store["w"].data), -np.sign(g))


def test_adam_nan_gradient_raises_naming_parameter():
    store = nc.ParamStore({"enc.w": [[1.0]]})
    with pytest.raises(NumericError, match="enc.w"):
        nc.adam_step(store, {"enc.w": np.array([[np.nan]])}, 1e-3)


def test_adam_shape_mismatch():
    store = nc.ParamStore({"w": [[1.0]]})
    with pytest.raises(ShapeError):
        nc.adam_step(store, {"w": np.zeros((2, 2))}, 1e-3)


def test_adam_deterministic():
    def run():
        store = nc.ParamStore({"w": [[1.0, 2.0]]})
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
        self.t = 0

    def step(self, grads, lr):
        if not grads:
            return
        self.t += 1
        t = self.t
        for name in sorted(grads):
            g = grads[name]
            self.m[name] = 0.9 * self.m[name] + (1.0 - 0.9) * g
            self.v[name] = 0.999 * self.v[name] + (1.0 - 0.999) * g * g
            m_hat = self.m[name] / (1.0 - 0.9**t)
            v_hat = self.v[name] / (1.0 - 0.999**t)
            self.values[name] = self.values[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def reference_store(rng):
    """A store whose declaration order is not its sorted order, and the
    reference update over the same values."""
    values = {"c.w": rand(rng, 2, 1), "a": rand(rng, 3, 2), "d": rand(rng, 1, 1),
              "b": rand(rng, 1, 4), "c.k": rand(rng, 4, 4)}
    return nc.ParamStore(values), ReferenceAdam(values)


def assert_matches_reference(store, ref):
    for name in store.params:
        npt.assert_array_equal(store[name].data, ref.values[name], err_msg=name)
    assert store.steps == ref.t


def whole_grads(rng, store):
    return {n: rand(rng, *store[n].shape, lo=-2.0, hi=2.0) for n in store.params}


def test_flat_adam_equals_per_parameter_reference():
    """Over 20 steps, some of which the loss did not reach (no gradients),
    the store moves exactly as the per-parameter update and counts only the
    steps that updated it; it keeps its declaration order, while its value
    row and `layout` hold the parameters in sorted name order."""
    rng = np.random.default_rng(30)
    store, ref = reference_store(rng)
    assert list(store.params) == ["c.w", "a", "d", "b", "c.k"]
    for step in range(20):
        grads = whole_grads(rng, store) if rng.random() < 0.7 else {}
        lr = 0.01 * (1 + step % 3)
        nc.adam_step(store, grads, lr)
        ref.step(grads, lr)
        assert_matches_reference(store, ref)
    assert 0 < store.steps < 20
    assert store.layout() == [["a", 3, 2], ["b", 1, 4], ["c.k", 4, 4], ["c.w", 2, 1], ["d", 1, 1]]
    npt.assert_array_equal(store.values, np.concatenate(
        [ref.values[name].ravel() for name, _, _ in store.layout()]))


def test_adam_failed_step_leaves_store_unchanged():
    """A non-finite gradient for one parameter updates no parameter: values,
    moments and the step count stay as they were, and the error names the
    first offending parameter in sorted order."""
    rng = np.random.default_rng(31)
    store, ref = reference_store(rng)
    warm = whole_grads(rng, store)
    nc.adam_step(store, warm, 0.05)
    ref.step(warm, 0.05)
    before = store.values.tobytes()
    bad = whole_grads(rng, store)
    bad["c.k"][1, 2] = np.nan
    bad["c.w"][0, 0] = np.inf
    with pytest.raises(NumericError, match="'c.k'"):
        nc.adam_step(store, bad, 0.05)
    assert store.values.tobytes() == before
    assert_matches_reference(store, ref)
    # the moments are untouched too: the next good step matches the reference
    good = whole_grads(rng, store)
    nc.adam_step(store, good, 0.05)
    ref.step(good, 0.05)
    assert_matches_reference(store, ref)


def test_adam_unknown_or_misshapen_gradient_changes_nothing():
    rng = np.random.default_rng(32)
    store, ref = reference_store(rng)
    grads = whole_grads(rng, store)
    with pytest.raises(ConfigError, match="'zz'"):
        nc.adam_step(store, dict(grads, zz=np.ones((1, 1))), 0.1)
    with pytest.raises(ShapeError, match="'b'"):
        nc.adam_step(store, dict(grads, b=np.ones((4, 1))), 0.1)
    assert_matches_reference(store, ref)


def test_adam_refuses_gradients_for_part_of_a_store():
    """A step updates every parameter of a store or none: gradients for
    only some raise ConfigError naming the others, and nothing changes."""
    rng = np.random.default_rng(36)
    store, ref = reference_store(rng)
    grads = whole_grads(rng, store)
    partial = {n: grads[n] for n in ("a", "c.k")}
    with pytest.raises(ConfigError, match=r"\['b', 'c.w', 'd'\]"):
        nc.adam_step(store, partial, 0.1)
    assert_matches_reference(store, ref)
    # the moments are untouched too: the next whole step matches the reference
    nc.adam_step(store, grads, 0.1)
    ref.step(grads, 0.1)
    assert_matches_reference(store, ref)


def split_values(values, layout):
    """The named matrices of a value vector laid out as ``layout``."""
    ends = np.cumsum([rows * cols for _, rows, cols in layout])
    return {name: part.reshape(rows, cols)
            for (name, rows, cols), part in zip(layout, np.split(values, ends[:-1]))}


def test_load_step_export_match_reference():
    """Writing the value row, as a checkpoint loads, replaces the values in
    place and keeps the optimizer state; the next step and the value row, as
    a checkpoint saves it, then agree with the per-parameter update."""
    rng = np.random.default_rng(33)
    store, ref = reference_store(rng)
    tensors = dict(store.params)
    first = whole_grads(rng, store)
    nc.adam_step(store, first, 0.1)
    ref.step(first, 0.1)
    loaded = rng.uniform(-1.0, 1.0, size=store.values.size)
    store.values[...] = loaded
    ref.values = {n: v.copy() for n, v in split_values(loaded, store.layout()).items()}
    assert all(store[n] is tensors[n] for n in store.params)
    assert_matches_reference(store, ref)
    grads = whole_grads(rng, store)
    nc.adam_step(store, grads, 0.02)
    ref.step(grads, 0.02)
    for name, value in split_values(store.values.copy(), store.layout()).items():
        npt.assert_array_equal(value, ref.values[name], err_msg=name)


def test_load_refuses_bad_arrays_and_changes_nothing(tmp_path):
    """`load_params` refuses a vector of another length or shape, or one
    with a non-finite value (naming its parameter), before the store's value
    row is written: no parameter changes."""
    rng = np.random.default_rng(35)
    store, ref = reference_store(rng)
    layout = store.layout()
    good = rng.uniform(-1.0, 1.0, size=store.values.size)
    nan, inf = good.copy(), good.copy()
    split_values(nan, layout)["b"][0, 1] = np.nan
    split_values(inf, layout)["d"][0, 0] = -np.inf
    path = tmp_path / "params.npy"
    for values, match in (
        (good[:-1], r"shape \(28,\), not the 29 "),
        (np.append(good, 1.0), r"shape \(30,\)"),
        (good.reshape(1, -1), r"shape \(1, 29\)"),
        (nan, "parameter 'b' in .* has non-finite values"),
        (inf, "parameter 'd' in .* has non-finite values"),
    ):
        digest = nc.save_params(path, values)
        with pytest.raises(CheckpointError, match=match):
            store.values[...] = nc.load_params(path, digest, layout)
        assert_matches_reference(store, ref)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def quadratic_store():
    return nc.ParamStore({"w": [[1.0, -2.0]]})


def test_fit_refuses_a_loss_that_reaches_part_of_a_store():
    """A store the loss reaches in part is refused, by the names it does not
    reach, before it changes; a store the loss never reaches is skipped."""
    store = nc.ParamStore({"w": [[1.0, -2.0]], "unused": [[3.0]]})
    other = quadratic_store()
    before = store.values.copy()
    with pytest.raises(ConfigError, match=r"\['unused'\]"):
        nc.fit([store], 5, lambda step: nc.sqnorm(store["w"]), 0.1)
    assert store.steps == 0
    npt.assert_array_equal(store.values, before)
    target = quadratic_store()
    nc.fit([target, other], 5, lambda step: nc.sqnorm(target["w"]), 0.1)
    assert (target.steps, other.steps) == (5, 0)
    npt.assert_array_equal(other["w"].data, [[1.0, -2.0]])


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
           on_step=lambda step: seen.append((step, store.steps, store["w"].data.copy())))
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
    assert store.steps == 2  # the diverged step made no update


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
    """A training loop written beside `fit` would call `adam_step` itself,
    and a tensor put into a store's ``params`` would not be a view of its
    buffer, so no step would move it."""
    src = Path(nc.__file__).resolve().parent.parent
    callers, rebinds = [], []
    for path in sorted(src.rglob("*.py")):
        where = path.relative_to(src)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and path != src / "numcore" / "optim.py":
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name == "adam_step":
                    callers.append(f"{where}:{node.lineno}")
            # params[name] = t, del params[name], params.update(...) and the like
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                owner = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                    node.func.attr in {"update", "setdefault", "pop", "popitem", "clear"}):
                owner = node.func.value
            else:
                continue
            if isinstance(owner, ast.Attribute) and owner.attr == "params":
                rebinds.append(f"{where}:{node.lineno}")
    assert callers == []
    assert rebinds == []


def test_frozen_store_records_no_graph():
    store = nc.ParamStore({"w": [[2.0]]})
    w = store["w"]
    with store.frozen():
        out = nc.mul(w, w)
    assert not out.requires_grad and out._parents == ()
    assert w.requires_grad
    nc.mul(w, w).backward()
    npt.assert_array_equal(w.grad, [[4.0]])


def test_nested_frozen_blocks_keep_parameters_frozen():
    store = nc.ParamStore({"w": [[2.0]]})
    w = store["w"]
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


@pytest.mark.parametrize("op", [nc.add, nc.sub, nc.mul], ids=["add", "sub", "mul"])
@pytest.mark.parametrize("shapes", [((3, 4), (1, 4)), ((3, 3), (3, 1)), ((1, 1), (2, 2))],
                         ids=["row", "column", "scalar"])
def test_elementwise_ops_refuse_operands_of_two_shapes(op, shapes):
    """add, sub and mul do not broadcast: operands of two shapes are refused,
    naming both, and so is a 1x1 tensor beside a larger one."""
    a, b = (nc.tensor(np.ones(shape)) for shape in shapes)
    message = f"{op.__name__} needs operands of one shape, got {shapes[0]} and {shapes[1]}"
    with pytest.raises(ShapeError, match=re.escape(message)):
        op(a, b)
    with pytest.raises(ShapeError):
        op(b, a)


def test_tensor_data_must_be_two_dimensional():
    """A 1-D vector is not read as one row: tensors are 2-D matrices."""
    for data in ([1.0, 2.0], np.zeros(3), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(ShapeError, match="2-D"):
            nc.tensor(data)
        with pytest.raises(ShapeError, match="2-D"):
            nc.constant(data)
    with pytest.raises(ShapeError, match="2-D"):
        nc.mse(nc.tensor(np.zeros((1, 2))), np.zeros(2), [0, 1])


def test_grad_sub_mul():
    check(
        lambda p: nc.sum_all(nc.mul(nc.sub(p["a"], p["b"]), p["a"])),
        {"a": rand(RNG, 3, 3), "b": rand(RNG, 3, 3)},
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
        lambda p: nc.sqnorm(nc.conv1d(p["x"], p["k"], p["b"], width=3, offsets=[0, 6])),
        {"x": rand(RNG, 6, 2), "k": rand(RNG, 6, 3), "b": rand(RNG, 1, 3)},
    )


def test_grad_cross_entropy():
    targets = np.array([1, 0, 2])
    check(
        lambda p: nc.cross_entropy(p["l"], targets, offsets=[0, 3]),
        {"l": rand(RNG, 3, 4, lo=-2.0, hi=2.0)},
    )


def test_grad_attention():
    check(
        lambda p: nc.sqnorm(nc.attention(p["q"], p["k"], p["v"], offsets=[0, 5])),
        {"q": rand(RNG, 5, 4), "k": rand(RNG, 5, 4), "v": rand(RNG, 5, 2)},
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
    flat = nc.cross_entropy(nc.tensor(logits), targets, offsets=[0, 4]).item()
    npt.assert_allclose(packed, math.log(4) / 2, rtol=1e-12)
    npt.assert_allclose(flat, 3 * math.log(4) / 4, rtol=1e-12)


def test_packed_ops_equal_each_sequence_alone():
    rng = np.random.default_rng(8)
    x, w, bias = rand(rng, 8, 2), nc.tensor(rand(rng, 10, 3)), nc.tensor(rand(rng, 1, 3))
    q, k, v = rand(rng, 8, 3), rand(rng, 8, 3), rand(rng, 8, 2)
    conv = nc.conv1d(nc.tensor(x), w, bias, width=5, offsets=PACKED).data
    attn = nc.attention(nc.tensor(q), nc.tensor(k), nc.tensor(v), offsets=PACKED).data
    pe = nc.positional(PACKED, 6)
    for a, b in zip(PACKED[:-1], PACKED[1:]):
        # each sequence alone is a batch of one
        rows, alone = slice(a, b), [0, b - a]
        one = nc.conv1d(nc.tensor(x[rows]), w, bias, width=5, offsets=alone).data
        npt.assert_allclose(conv[rows], one, rtol=1e-14, atol=1e-15)
        one = nc.attention(nc.tensor(q[rows]), nc.tensor(k[rows]), nc.tensor(v[rows]),
                           offsets=alone).data
        npt.assert_allclose(attn[rows], one, rtol=1e-14, atol=1e-15)
        npt.assert_array_equal(pe[rows], nc.sinusoid_table(b - a, 6))


def test_mse_packed_weights_every_sequence_equally():
    pred = np.zeros((4, 2))
    target = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    # per-sequence means 1 and 4, averaged; a flat mean would give 3.25
    assert nc.mse(nc.tensor(pred), target, offsets=[0, 1, 4]).item() == 2.5
    assert nc.mse(nc.tensor(pred), target, offsets=[0, 4]).item() == 3.25


def test_packed_offsets_must_cover_rows():
    x = nc.tensor(np.zeros((4, 2)))
    with pytest.raises(AlignmentError):
        nc.conv1d(x, nc.tensor(np.zeros((6, 2))), zero_bias(2), width=3, offsets=[0, 2, 3])
    with pytest.raises(AlignmentError):
        nc.attention(x, x, x, offsets=[0, 2, 2, 4])


def test_offsets_and_edges_that_are_not_integers_are_refused():
    """A cast to int would truncate them: [0, 2.7, 5] would pool rows 0-1 as
    its first segment. They are refused, naming the values, and so is a
    float array of integral values: offsets have an integer dtype."""
    with pytest.raises(AlignmentError, match="2.7"):
        nc.check_offsets([0, 2.7, 5], 5)
    with pytest.raises(AlignmentError, match="2.9"):
        nc.segment_mean(nc.tensor(np.zeros((5, 2))), [0, 2.9, 5])
    with pytest.raises(AlignmentError, match="nan"):
        nc.check_offsets([0, math.nan, 5], 5)
    with pytest.raises(AlignmentError, match="integer dtype, got float64"):
        nc.check_offsets(np.array([0.0, 2.0, 5.0]), 5)
    assert nc.check_offsets(np.array([0, 2, 5], dtype=np.int32), 5).dtype == np.int64


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
        lambda p: nc.mse(nc.relu(nc.affine(p["x"], p["w"], p["b"])), np.ones((4, 3)), [0, 4]),
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
# a loss back-propagated elsewhere, entering a graph as one node
# ---------------------------------------------------------------------------


def test_known_gradient_adds_its_gradients_after_the_rest_of_the_graph():
    a = nc.tensor([[1.0, 2.0]], requires_grad=True)
    b = nc.tensor([[3.0]], requires_grad=True)
    unreached = nc.tensor([[4.0]], requires_grad=True)
    seen = []

    def gradients():
        seen.append(a.grad.copy())  # the rest of the graph has run
        return [np.array([[10.0, 20.0]]), np.array([[5.0]]), None]

    node = nc.known_gradient(0.5, [a, b, unreached], gradients)
    assert node.item() == 0.5 and seen == []  # asked for only on backward
    loss = nc.add(nc.mul(nc.sum_all(a), 2.0), node)
    assert loss.item() == 6.5
    loss.backward()
    npt.assert_array_equal(seen[0], [[2.0, 2.0]])
    npt.assert_array_equal(a.grad, [[12.0, 22.0]])
    npt.assert_array_equal(b.grad, [[5.0]])
    assert unreached.grad is None


def test_known_gradient_scales_by_upstream_and_checks_shapes():
    a = nc.tensor([[1.0, 2.0]], requires_grad=True)
    nc.mul(nc.known_gradient(1.0, [a], lambda: [np.array([[1.0, -1.0]])]), 3.0).backward()
    npt.assert_array_equal(a.grad, [[3.0, -3.0]])
    with pytest.raises(ShapeError, match="gradient shape"):
        nc.known_gradient(1.0, [a], lambda: [np.ones((2, 1))]).backward()


# ---------------------------------------------------------------------------
# attention and conv1d against the bodies they replaced
# ---------------------------------------------------------------------------


def reference_attention(q, k, v, offsets):
    """Per-block normalised softmax, kept as the reference for `nc.attention`."""
    off = check_offsets(offsets, q.rows)
    spans = list(zip(off[:-1], off[1:]))
    qn, kn, vn = q._node, k._node, v._node
    q_data, k_data, v_data = q.data, k.data, v.data
    scale = 1.0 / math.sqrt(q.cols)
    out_data = np.empty((q.rows, v.cols))
    probs = []
    for a, b in spans:
        p = q_data[a:b] @ k_data[a:b].T
        p *= scale
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        out_data[a:b] = p @ v_data[a:b]
        probs.append(p)

    def backward(g):
        dq, dk, dv = np.empty_like(q_data), np.empty_like(k_data), np.empty_like(v_data)
        for (a, b), p in zip(spans, probs):
            gs = g[a:b]
            dv[a:b] = p.T @ gs
            ds = gs @ v_data[a:b].T
            ds -= (ds * p).sum(axis=1, keepdims=True)
            ds *= p
            ds *= scale
            dq[a:b] = ds @ k_data[a:b]
            dk[a:b] = ds.T @ q_data[a:b]
        for node, d in ((qn, dq), (kn, dk), (vn, dv)):
            if node.requires_grad:
                node._accumulate(d)

    return _child(out_data, (qn, kn, vn), backward)


def reference_conv1d(x, kernel, bias, *, width, offsets):
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
    kernel_data = kernel.data
    out_data = windows @ kernel_data + bias.data
    xn, kn, bn = x._node, kernel._node, bias._node

    def backward(g):
        if kn.requires_grad:
            kn._accumulate(windows.T @ g)
        if bn.requires_grad:
            bn._accumulate(g.sum(axis=0, keepdims=True))
        if xn.requires_grad:
            g_windows = g @ kernel_data.T
            acc = np.zeros((padded_rows, c))
            for j in range(width):
                acc[taps[:, j]] += g_windows[:, j * c : (j + 1) * c]
            xn._accumulate(acc[pos])

    return _child(out_data, (xn, kn, bn), backward)


# lengths 1, 2, 5 and 40: a single row, sequences shorter than a width-5
# kernel's reach, and one long block
RAGGED = np.concatenate([[0], np.cumsum([1, 2, 5, 40])])


def saved_arrays(fn):
    """The arrays a backward function's closure holds, in lists and tuples
    too."""
    found, stack = [], [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return found


def run_op(op, arrays, grads, kwargs, seed=0):
    """Forward, then backward of a fixed random projection of the output;
    returns the output, the gradients of the named inputs and the upstream
    gradient the op received, as its backward function left it.

    Backward must also leave the op's node spent and release every array its
    backward function saved, other than the inputs' and the output's own."""
    inputs = [nc.tensor(a, requires_grad=name in grads) for name, a in arrays.items()]
    out = op(*inputs, **kwargs)
    upstream = []
    node = out._node
    held = [t.data for t in inputs] + [out.data]
    saved = [weakref.ref(a) for a in saved_arrays(node._backward)
             if not any(a is h for h in held)]

    def capture(g, op_backward=node._backward):
        upstream.append(g)
        op_backward(g)

    node._backward = capture
    del capture  # the node holds the op's backward function alone
    weights = np.random.default_rng(seed).standard_normal(out.shape)
    nc.sum_all(nc.mul(out, nc.constant(weights))).backward()
    assert node._backward is _spent
    assert saved and all(ref() is None for ref in saved)
    got = {name: t.grad for name, t in zip(arrays, inputs) if name in grads}
    return out.data, got, upstream[0]


def assert_op_matches_reference(op, reference, arrays, grads, kwargs):
    out, got, _ = run_op(op, arrays, grads, kwargs)
    ref_out, ref, _ = run_op(reference, arrays, grads, kwargs)
    npt.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-15)
    assert set(got) == set(grads)
    for name in grads:
        npt.assert_allclose(got[name], ref[name], rtol=1e-12, atol=1e-15, err_msg=name)


# which inputs need a gradient
ATTENTION_CASES = {"packed": "qkv", "packed-only-v": "v", "packed-only-qk": "qk"}


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_attention_equals_reference(case):
    rng = np.random.default_rng(11)
    rows = RAGGED[-1]
    arrays = {"q": rng.standard_normal((rows, 6)), "k": rng.standard_normal((rows, 6)),
              "v": rng.standard_normal((rows, 4))}
    assert_op_matches_reference(nc.attention, reference_attention, arrays,
                                ATTENTION_CASES[case], {"offsets": RAGGED})


@pytest.mark.parametrize("width", [3, 5])
@pytest.mark.parametrize("grads", [("x", "k", "b"), ("x",), ("k", "b")])
@pytest.mark.parametrize("offsets", [RAGGED, [0, RAGGED[-1]]], ids=["packed", "one-sequence"])
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
    conv_bias = nc.tensor(rng.standard_normal((1, 6)), requires_grad=True)
    h = nc.layer_norm(nc.conv1d(x, kernel, conv_bias, width=3, offsets=RAGGED), gain, bias)
    out = nc.attention(h, h, x, offsets=RAGGED)
    loss = nc.mse(out, rng.standard_normal((48, 6)), offsets=RAGGED)
    nodes = graph_nodes(loss)
    interior = [n for n in nodes if n._parents]
    loss.backward()
    assert len(interior) == 4 and all(n.grad is None for n in interior)
    for leaf in (x, kernel, conv_bias, gain, bias):
        assert leaf.grad is not None and leaf.grad.shape == leaf.shape


def test_backward_releases_the_arrays_attention_saved():
    """The graph holds what a node's backward reads until that backward has
    run, and not after, though the loss lives on."""
    rng = np.random.default_rng(15)
    x = nc.tensor(rng.standard_normal((48, 6)), requires_grad=True)
    w = nc.tensor(rng.standard_normal((6, 6)), requires_grad=True)
    q = nc.affine(x, w)
    out = nc.attention(q, q, x, offsets=RAGGED)
    # the exponentials of the one 40-row block
    (block,) = [weakref.ref(a) for a in saved_arrays(out._node._backward) if a.shape == (40, 40)]
    loss = nc.mse(out, np.zeros((48, 6)), offsets=RAGGED)
    del q, out
    assert block() is not None
    loss.backward()
    assert block() is None


def test_a_spent_graph_refuses_a_second_backward():
    """Backward releases what each node saved, so a graph back-propagates
    once: a second pass over it, or over a new graph that reaches one of its
    nodes, raises before any gradient moves."""
    x = nc.tensor([[1.0, 2.0]], requires_grad=True)
    w = nc.tensor([[3.0], [4.0]], requires_grad=True)
    h = nc.affine(x, w)
    loss = nc.sqnorm(h)
    loss.backward()
    first = x.grad.copy()
    with pytest.raises(ValidationError, match="already been back-propagated"):
        loss.backward()
    with pytest.raises(ValidationError, match="already been back-propagated"):
        nc.add(nc.sum_all(x), nc.sum_all(h)).backward()
    npt.assert_array_equal(x.grad, first)


def test_training_loss_curve_equals_reference_ops(monkeypatch):
    corpus = build_corpus(CorpusConfig(n_utterances=24, seed=31))
    train_cfg = nc.TrainConfig(learning_rate=3e-3, steps=30, seed=5, batch_size=4)

    def train():
        with recipe(warmup=10):
            return train_autoencoder(corpus, CapacityConfig(K=4, G=2), train_cfg)

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


def faults_of_warm_trainings(steps: int) -> list[int]:
    """The minor page faults of three `steps`-step trainings after a
    warm-up, this process's and those of any worker it reaped."""
    corpus = build_corpus(CorpusConfig())
    train_cfg = nc.TrainConfig(steps=steps, seed=1, batch_size=8)

    def faults():
        return sum(resource.getrusage(who).ru_minflt
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    def faults_of_one_run():
        before = faults()
        train_autoencoder(corpus, CapacityConfig(K=16, G=2), train_cfg)
        return faults() - before

    with recipe(warmup=5):
        faults_of_one_run()  # warm-up
        return [faults_of_one_run() for _ in range(3)]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap settings apply to glibc's allocator only")
def test_training_steps_reuse_freed_heap_pages(monkeypatch):
    """Once the heap is warm, a step runs in the pages the previous step's
    graph released: without the allocator settings made at import, every
    step faults in several hundred pages again. Both shards run in this
    process here. The fewest faults of three runs after a warm-up count, so
    that one run disturbed by something else in the process does not fail
    it."""
    monkeypatch.setattr(shards, "_two_cpus", lambda: False)
    steps = 20
    faults = faults_of_warm_trainings(steps)
    assert min(faults) < 20 * steps, f"minor page faults of three {steps}-step runs: {faults}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap settings apply to glibc's allocator only")
def test_a_shard_worker_costs_a_fixed_count_of_page_faults(monkeypatch):
    """With the shard worker, both processes together take a fixed count
    of faults per training plus the same 20 per step. The fixed count comes
    from the fork: the first write to each page either process reuses
    faults once (copy on write; on x86-64, about 2,800 faults in the caller
    and 2,600 in the worker, whatever the training's length). A worker that
    faulted its pages in again on every step would add hundreds per step."""
    monkeypatch.setattr(shards, "_two_cpus", lambda: True)
    steps, per_training = 40, 6000
    faults = faults_of_warm_trainings(steps)
    assert min(faults) < per_training + 20 * steps, (
        f"minor page faults of three {steps}-step runs, caller and worker: {faults}")


def test_heap_settings_do_nothing_without_glibc(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)  # as on musl
    monkeypatch.setattr(ctypes, "CDLL", lambda name: pytest.fail("looked up mallopt"))
    nc._keep_freed_heap()


def test_heap_settings_do_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    nc._keep_freed_heap()


# the golden K=4 run (tests/test_golden.py), printing the digests of its
# loss curve and of its trained parameter values
_GOLDEN_K4_DIGESTS = """
import hashlib
import numpy as np
import ibvq.numcore as nc
from ibvq.harness.training import split_corpus, train_autoencoder
from ibvq.quantizer import CapacityConfig
from ibvq.synthdata import CorpusConfig, build_corpus
from recipe import recipe
corpus = build_corpus(CorpusConfig(n_utterances=40, seed=7))
train_idx, _ = split_corpus(corpus)
with recipe(warmup=20, reseed=20):
    trained = train_autoencoder(
        corpus, CapacityConfig(K=4, G=2), nc.TrainConfig(steps=60, batch_size=8, seed=3),
        train_indices=train_idx)
curve = repr([(p.mse, p.codebook, p.commitment) for p in trained.loss_curve])
values = np.concatenate([s.values for s in trained.models.stores().values()])
print(hashlib.sha256(curve.encode()).hexdigest(), hashlib.sha256(values.tobytes()).hexdigest())
"""


def test_training_bytes_do_not_depend_on_the_blas_thread_count():
    """Importing numcore pins numpy's OpenBLAS to one thread. Unpinned, a
    weight gradient summed over many frames sums in another order at two
    threads, and the golden run's loss curve and parameters move."""
    src = Path(nc.__file__).resolve().parents[2]

    def digests(threads: int) -> str:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([str(src), str(Path(__file__).parent),
                                              os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", _GOLDEN_K4_DIGESTS], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout

    assert digests(2) == digests(1)


def test_blas_pinning_does_nothing_without_a_bundled_openblas(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: pytest.fail(f"opened {name}"))
    monkeypatch.setattr(os, "listdir", lambda path: ["libcblas.so"])  # numpy on another BLAS
    nc._one_blas_thread()

    def no_libs(path):  # numpy built from source
        raise FileNotFoundError(path)

    monkeypatch.setattr(os, "listdir", no_libs)
    nc._one_blas_thread()


def test_blas_pinning_does_nothing_without_a_thread_setter(monkeypatch):
    monkeypatch.setattr(os, "listdir", lambda path: ["libopenblas.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # no setter exported
    nc._one_blas_thread()


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
        return nc.layer_norm(nc.conv1d(x, k, b, width=3, offsets=[0, 8]), g, b).data

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


CHECKPOINT_LAYOUT = [["enc.w", 4, 3], ["dec.b", 1, 7]]


def file_digest(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_checkpoint_round_trip(tmp_path):
    values = np.random.default_rng(11).standard_normal(19)
    path = tmp_path / "params.npy"
    digest = nc.save_params(path, values)
    assert digest == file_digest(path)
    loaded = nc.load_params(path, digest, CHECKPOINT_LAYOUT)
    assert loaded.dtype == np.float64
    npt.assert_array_equal(loaded, values)


def test_checkpoint_bad_magic(tmp_path):
    """A file that is not a `.npy` array is refused by numpy's own reader."""
    path = tmp_path / "params.npy"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="not a readable .npy array"):
        nc.load_params(path, file_digest(path), CHECKPOINT_LAYOUT)


def test_checkpoint_truncated(tmp_path):
    """A file cut short is refused by its digest, and, with a digest of the
    shortened bytes, by the `.npy` reader, in its data or in its header, as
    is one whose header declares more values than it holds."""
    path = tmp_path / "params.npy"
    digest = nc.save_params(path, np.random.default_rng(12).standard_normal(19))
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="sha256"):
        nc.load_params(path, digest, CHECKPOINT_LAYOUT)
    for cut in (8, len(blob) - 20):
        path.write_bytes(blob[:-cut])
        with pytest.raises(CheckpointError, match="not a readable .npy array"):
            nc.load_params(path, file_digest(path), CHECKPOINT_LAYOUT)
    # a header that declares far more values than the file holds: numpy
    # allocates the declared array before it reads, and that fails or the
    # read runs out of data
    with path.open("wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (2**40,)})
        fh.write(blob[-8 * 19:])
    with pytest.raises(CheckpointError, match="not a readable .npy array"):
        nc.load_params(path, file_digest(path), CHECKPOINT_LAYOUT)


def test_checkpoint_deterministic_bytes(tmp_path):
    values = np.arange(19.0)
    p1, p2 = tmp_path / "c1.npy", tmp_path / "c2.npy"
    assert nc.save_params(p1, values) == nc.save_params(p2, values)
    assert p1.read_bytes() == p2.read_bytes()
