import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
from ibvq.errors import ConfigError, ShapeError, ValidationError, VocabularyError
from ibvq.mi import (
    MineConfig,
    MineModel,
    content_vector,
    dv_bound,
    mine_estimate,
    shuffle_marginal,
)
from ibvq.synthdata import oracle_mi_discrete

FAST = MineConfig(steps=1500, hidden=32, learning_rate=2e-3, batch_size=256, seed=0)


# ---------------------------------------------------------------------------
# dv_bound
# ---------------------------------------------------------------------------


def test_dv_bound_constant_statistic_zero():
    assert dv_bound([0.0, 0.0, 0.0], [0.0, 0.0]) == 0.0
    assert abs(dv_bound([2.5] * 4, [2.5] * 4)) < 1e-12


def test_dv_bound_hand_case():
    assert abs(dv_bound([1.0, 1.0], [0.0, 0.0]) - 1.0) < 1e-12


def test_dv_bound_stabilized_against_overflow():
    val = dv_bound([0.0], [1e4, 0.0])
    assert np.isfinite(val)
    assert abs(val - (0.0 - (1e4 - np.log(2)))) < 1.0  # ~ -9993.3, finite


def test_dv_bound_shift_is_exact():
    assert dv_bound([0.0], [1e4, 1e4]) == -1e4


def fsum_dv_bound(t_joint, t_marginal):
    shift = max(t_marginal)
    log_mean_exp = shift + math.log(
        math.fsum(math.exp(t - shift) for t in t_marginal) / len(t_marginal)
    )
    return math.fsum(t_joint) / len(t_joint) - log_mean_exp


def test_dv_bound_matches_fsum_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        scale = float(rng.choice([0.1, 1.0, 5.0, 50.0]))
        tj = rng.normal(1.0, scale, size=int(rng.integers(1, 300))).tolist()
        tm = rng.normal(0.0, scale, size=int(rng.integers(1, 300))).tolist()
        assert abs(dv_bound(tj, tm) - fsum_dv_bound(tj, tm)) < 1e-12


def test_dv_bound_empty_rejected():
    with pytest.raises(ValidationError):
        dv_bound([], [1.0])


# ---------------------------------------------------------------------------
# shuffle_marginal
# ---------------------------------------------------------------------------


def test_shuffle_two_pairs_swaps():
    zs = np.array([[10.0], [20.0]])
    npt.assert_array_equal(shuffle_marginal(zs, seed=0), [[20.0], [10.0]])


def test_shuffle_deterministic_and_preserves_multiset():
    rng = np.random.default_rng(1)
    zs = rng.integers(0, 5, size=(50, 1))
    a = shuffle_marginal(zs, seed=9)
    b = shuffle_marginal(zs, seed=9)
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(np.sort(a, axis=0), np.sort(zs, axis=0))


def test_shuffle_is_derangement_biased():
    rng = np.random.default_rng(2)
    zs = np.arange(30).reshape(-1, 1)
    for seed in range(20):
        z_perm = shuffle_marginal(zs, seed=seed)
        assert not np.any(z_perm == zs)


def test_shuffle_rejects_single_pair():
    with pytest.raises(ValidationError):
        shuffle_marginal(np.zeros((1, 1)), seed=0)


# ---------------------------------------------------------------------------
# content_vector
# ---------------------------------------------------------------------------


def test_content_vector_single_phone():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    npt.assert_array_equal(content_vector([1], table), [3.0, 4.0])


def test_content_vector_mean_and_order_free():
    table = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    a = content_vector([0, 1], table)
    npt.assert_allclose(a, [0.5, 0.5])
    npt.assert_array_equal(a, content_vector([1, 0], table))


def test_content_vector_unknown_phone():
    with pytest.raises(VocabularyError):
        content_vector([5], np.zeros((3, 2)))
    with pytest.raises(ValidationError):
        content_vector([], np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# mine_estimate
# ---------------------------------------------------------------------------


def test_mine_requires_enough_samples():
    with pytest.raises(ValidationError):
        mine_estimate(np.zeros((50, 1)), np.zeros((50, 1)), FAST)


@pytest.mark.parametrize("field, value", [
    ("eval_every", 0),
    ("code_embed_dim", 0),
    ("learning_rate", -1.0),
    ("learning_rate", 0.0),
    ("learning_rate", math.nan),
    ("learning_rate", math.inf),
])
def test_mine_refuses_settings_that_cannot_run(field, value):
    cfg = dataclasses.replace(FAST, **{field: value})
    with pytest.raises(ConfigError, match=field):
        mine_estimate(np.zeros((200, 1)), np.zeros((200, 1), dtype=np.int64), cfg)


def test_mine_length_mismatch():
    with pytest.raises(ShapeError):
        mine_estimate(np.zeros((200, 1)), np.zeros((150, 1)), FAST)


def test_mine_reproducible_bit_exact():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 1))
    z = x + 0.5 * rng.standard_normal((400, 1))
    a = mine_estimate(x, z, FAST)
    b = mine_estimate(x, z, FAST)
    assert a == b


def test_mine_independent_near_zero():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2000, 1))
    z = rng.standard_normal((2000, 1))
    assert mine_estimate(x, z, FAST) < 0.05


def test_mine_correlated_gaussian_matches_closed_form():
    rho = 0.8
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3000)
    z = rho * x + np.sqrt(1 - rho**2) * rng.standard_normal(3000)
    true_mi = -0.5 * np.log(1 - rho**2)  # ~0.511
    est = mine_estimate(x.reshape(-1, 1), z.reshape(-1, 1), MineConfig(steps=3000, seed=0))
    assert abs(est - true_mi) < 0.1


def test_mine_discrete_agrees_with_plugin_oracle():
    rng = np.random.default_rng(6)
    n = 2500
    sym = rng.integers(0, 6, size=n)
    z = np.where(rng.random(n) < 0.65, sym % 3, rng.integers(0, 3, size=n))
    plug = oracle_mi_discrete(sym, z)
    est = mine_estimate(np.eye(6)[sym], z.astype(np.int64), MineConfig(steps=3000, seed=1))
    assert abs(est - plug) < 0.1


def test_mine_grouped_codes_accepted():
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 4, size=(500, 2))
    x = codes[:, :1].astype(float) + 0.1 * rng.standard_normal((500, 1))
    est = mine_estimate(x, codes, FAST)
    assert est >= 0.0


def test_stacked_objective_equals_two_passes():
    """One pass over each row's joint and marginal codes side by side gives
    the two-pass objective mean(exp T_marg) / ema - mean(T_joint), loss and
    gradients."""
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 3))
    z = rng.integers(0, 5, size=(40, 2))
    z_marg = z[rng.permutation(40)]
    model = MineModel(3, 2, 5, MineConfig(hidden=16, seed=2))
    ema = 1.7

    def objective(t_joint, t_marg):
        loss = nc.sub(nc.mul(nc.mean_all(nc.exp(t_marg)), 1.0 / ema), nc.mean_all(t_joint))
        model.store.zero_grad()
        loss.backward()
        return loss.item(), {n: g.copy() for n, g in model.store.grads().items()}

    stacked, stacked_grads = objective(*model.statistic(x, np.hstack([z, z_marg])))
    (t_joint,), (t_marg,) = model.statistic(x, z), model.statistic(x, z_marg)
    two, two_grads = objective(t_joint, t_marg)
    npt.assert_allclose(stacked, two, rtol=1e-12)
    for name, grad in two_grads.items():
        scale = max(np.abs(grad).max(), 1e-300)
        assert np.abs(stacked_grads[name] - grad).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("discrete", [True, False])
def test_factorized_statistic_equals_concatenated_input(discrete):
    """x @ w1x + emb(z) @ w1z + b1 is the first layer over [x, emb(z)] with
    the weight [w1x; w1z], for every tuple of a row."""
    rng = np.random.default_rng(9)
    n, k, groups, symbols = 30, 3, 2, 5
    x = rng.standard_normal((n, 4))
    if discrete:
        z = rng.integers(0, symbols, size=(n, k * groups))
    else:
        z = rng.standard_normal((n, k * groups))
    model = MineModel(4, groups, symbols if discrete else 0, MineConfig(hidden=16, seed=3))
    p = {name: model.store[name].data for name in model.store.names()}
    w1 = np.vstack([p["w1x"], p["w1z"]])
    outs = model.statistic(x, z)
    assert len(outs) == k
    for j, out in enumerate(outs):
        tuples = z[:, j * groups : (j + 1) * groups]
        if discrete:
            rows = p["embed"][tuples + symbols * np.arange(groups)]
            z_repr = rows.reshape(n, -1)
        else:
            z_repr = tuples
        h = np.maximum(np.hstack([x, z_repr]) @ w1 + p["b1"], 0.0)
        npt.assert_allclose(out.data, h @ p["w2"] + p["b2"], rtol=1e-12, atol=1e-12)


def test_statistic_rejects_codes_of_another_width():
    model = MineModel(3, 2, 4, MineConfig(hidden=8))
    with pytest.raises(ShapeError):
        model.statistic(np.zeros((5, 3)), np.zeros((5, 3), dtype=np.int64))
    with pytest.raises(ShapeError):
        model.statistic(np.zeros((5, 3)), np.zeros((4, 2), dtype=np.int64))
