import math

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
import ibvq.quantizer as qz
import ibvq.synthdata as sd
from ibvq.errors import CodeRangeError, ConfigError, ShapeError


def two_entry_codebook():
    return qz.Codebook(entries=np.array([[0.0, 0.0], [1.0, 1.0]]), groups=2)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_values():
    assert abs(qz.capacity(qz.CapacityConfig(K=16, G=2)) - 5.545) < 1e-3
    assert abs(qz.capacity(qz.CapacityConfig(K=2, G=2)) - 1.386) < 1e-3
    assert qz.capacity(qz.CapacityConfig(K=1, G=2)) == 0.0
    assert qz.capacity(qz.CapacityConfig(K=0, G=2)) == 0.0


def test_capacity_grid_two_groups():
    expected = {2: 1.39, 4: 2.77, 8: 4.16, 16: 5.54, 32: 6.93, 64: 8.31}
    for k, nats in expected.items():
        assert abs(qz.capacity(qz.CapacityConfig(K=k, G=2)) - nats) < 0.01


def test_capacity_config_validation():
    with pytest.raises(ConfigError):
        qz.CapacityConfig(K=-1)
    with pytest.raises(ConfigError):
        qz.CapacityConfig(K=4, G=0)


# ---------------------------------------------------------------------------
# quantize / lookup
# ---------------------------------------------------------------------------


def test_quantize_hand_case():
    cb = two_entry_codebook()
    codes, q, sq = qz.quantize_batch(np.array([[0.1, -0.1, 0.9, 1.2]]), cb)
    npt.assert_array_equal(codes, [[0, 1]])
    npt.assert_array_equal(q, [[0.0, 0.0, 1.0, 1.0]])
    assert sq.shape == (1, 2, 2)
    npt.assert_allclose(sq[0, 0], [0.02, 2.02], atol=1e-12)


def test_quantize_fixed_point():
    cb = two_entry_codebook()
    x = np.array([[1.0, 1.0, 0.0, 0.0]])
    codes, q, sq = qz.quantize_batch(x, cb)
    npt.assert_array_equal(q, x)
    assert sq[0, 0, codes[0, 0]] == 0.0 and sq[0, 1, codes[0, 1]] == 0.0


def test_quantize_tie_goes_to_lowest_index():
    cb = two_entry_codebook()
    codes, _, _ = qz.quantize_batch(np.array([[0.5, 0.5, 0.5, 0.5]]), cb)
    npt.assert_array_equal(codes, [[0, 0]])


def test_quantize_dimension_mismatch():
    with pytest.raises(ShapeError):
        qz.quantize_batch(np.array([[1.0, 2.0, 3.0]]), two_entry_codebook())


def test_lookup_hand_case_and_round_trip():
    cb = two_entry_codebook()
    npt.assert_array_equal(qz.lookup([[0, 1]], cb), [[0.0, 0.0, 1.0, 1.0]])
    with pytest.raises(ShapeError):
        qz.lookup([0, 1], cb)  # one code row is still (1, G)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 4))
    codes, q, _ = qz.quantize_batch(x, cb)
    npt.assert_array_equal(qz.lookup(codes, cb), q)


def test_lookup_out_of_range():
    with pytest.raises(CodeRangeError):
        qz.lookup([[0, 2]], two_entry_codebook())


def test_nearest_neighbor_matches_brute_force():
    rng = np.random.default_rng(4)
    cb = qz.Codebook(entries=rng.normal(size=(16, 4)), groups=2)
    x = rng.normal(size=(200, 8))
    codes, q, sq = qz.quantize_batch(x, cb)
    for i in range(x.shape[0]):
        for g in range(2):
            sub = x[i, g * 4 : (g + 1) * 4]
            dists = [float(np.sum((sub - e) ** 2)) for e in cb.entries]
            assert codes[i, g] == int(np.argmin(dists))
            assert sq[i, g, codes[i, g]] <= min(dists) + 1e-15


# ---------------------------------------------------------------------------
# the training bottleneck
# ---------------------------------------------------------------------------


# The vq_loss tests check the codebook and commitment losses of
# apply_bottleneck: both are the mean squared distance to the chosen entries,
# the commitment loss scaled by its cost.
LOSS_ROWS = np.array([[1.0, 0.0, 1.0, 1.0], [0.25, 0.0, 0.5, 1.5]])
# chosen entries: [0,0][1,1] and [0,0][1,1]; squared distances 1, 0, 0.0625, 0.5
LOSS_ROWS_MEAN_SQ = (1.0 + 0.0 + 0.0625 + 0.5) / 8


def bottleneck_losses(x, commitment_cost):
    cbp = nc.tensor(two_entry_codebook().entries)
    out = qz.apply_bottleneck(
        nc.tensor(x), cbp, qz.CapacityConfig(K=2, G=2), commitment_cost=commitment_cost
    )
    return out, out.codebook_loss.item(), out.commitment_loss.item()


def test_vq_loss_zero_at_fixed_point():
    _, cb_loss, commit = bottleneck_losses(np.array([[1.0, 1.0, 0.0, 0.0]]), 0.25)
    assert (cb_loss, commit) == (0.0, 0.0)


def test_vq_loss_hand_case():
    out, cb_loss, commit = bottleneck_losses(LOSS_ROWS, 0.25)
    npt.assert_array_equal(out.codes, [[0, 1], [0, 1]])
    assert cb_loss == LOSS_ROWS_MEAN_SQ
    assert commit == 0.25 * LOSS_ROWS_MEAN_SQ


def test_vq_loss_commitment_linearity():
    _, _, c1 = bottleneck_losses(LOSS_ROWS, 0.25)
    _, cb2, c2 = bottleneck_losses(LOSS_ROWS, 0.5)
    assert c2 == 2 * c1
    assert cb2 == LOSS_ROWS_MEAN_SQ


def test_bottleneck_gradient_trace_matches_quantized_input():
    """d(loss)/d(encoder output) equals d(loss)/d(quantized vector) when the
    commitment term is off: the estimator passes the gradient through."""
    rng = np.random.default_rng(1)
    x_data = rng.normal(size=(5, 4))
    cbp = nc.tensor(rng.normal(size=(3, 2)), requires_grad=True)
    x = nc.tensor(x_data, requires_grad=True)
    out = qz.apply_bottleneck(x, cbp, qz.CapacityConfig(K=3, G=2), commitment_cost=0.0)
    nc.sqnorm(out.quantized).backward()

    xq = nc.tensor(out.quantized.data, requires_grad=True)
    nc.sqnorm(xq).backward()
    npt.assert_array_equal(x.grad, xq.grad)


def test_bottleneck_gradient_routing():
    rng = np.random.default_rng(2)
    x = nc.tensor(rng.normal(size=(4, 4)), requires_grad=True)
    cbp = nc.tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = qz.apply_bottleneck(x, cbp, qz.CapacityConfig(K=3, G=2), commitment_cost=0.25)

    out.codebook_loss.backward()
    assert x.grad is None  # codebook loss reaches only the codebook
    assert cbp.grad is not None and np.any(cbp.grad != 0)

    x2 = nc.tensor(x.data, requires_grad=True)
    cbp2 = nc.tensor(cbp.data, requires_grad=True)
    out2 = qz.apply_bottleneck(x2, cbp2, qz.CapacityConfig(K=3, G=2), commitment_cost=0.25)
    out2.commitment_loss.backward()
    assert cbp2.grad is None  # commitment reaches only the encoder side
    assert x2.grad is not None and np.any(x2.grad != 0)


def test_bottleneck_codebook_loss_finite_difference():
    """With assignments frozen, the codebook loss is quadratic in the
    entries, so its analytic gradient must match finite differences."""
    rng = np.random.default_rng(3)
    x_data = rng.normal(size=(6, 4))
    entries = rng.normal(size=(4, 2))

    codes, _, _ = qz.quantize_batch(x_data, qz.Codebook(entries=entries, groups=2))

    def loss(p):
        gathered = nc.concat_cols(
            [nc.gather_rows(p["cb"], codes[:, g]) for g in range(2)]
        )
        return nc.sqnorm(nc.sub(gathered, nc.constant(x_data)))

    assert nc.grad_check(loss, {"cb": entries}, eps=1e-5) < 1e-6


@pytest.mark.parametrize("groups", [2, 3])
def test_bottleneck_codebook_loss_equals_per_group_gathers(groups):
    """The codebook loss reads every group's entries with one gather; its
    value and codebook gradient equal those of one gather per group joined
    by concat_cols, bit for bit."""
    rng = np.random.default_rng(4)
    offsets = [0, 30, 70]
    x_data = rng.normal(size=(70, 2 * groups))
    entries = rng.normal(size=(5, 2))
    cfg = qz.CapacityConfig(K=5, G=groups)

    cbp = nc.tensor(entries, requires_grad=True)
    out = qz.apply_bottleneck(nc.constant(x_data), cbp, cfg, offsets=offsets)
    out.codebook_loss.backward()

    ref = nc.tensor(entries, requires_grad=True)
    gathered = nc.concat_cols([nc.gather_rows(ref, out.codes[:, g]) for g in range(groups)])
    ref_loss = nc.mse(gathered, x_data, offsets)
    ref_loss.backward()
    assert out.codebook_loss.item() == ref_loss.item()
    npt.assert_array_equal(cbp.grad, ref.grad)


def test_bottleneck_disabled():
    x = nc.tensor(np.ones((3, 4)), requires_grad=True)
    out = qz.apply_bottleneck(x, None, qz.CapacityConfig(K=0, G=2))
    npt.assert_array_equal(out.quantized.data, np.zeros((3, 4)))
    assert out.codes is None
    assert out.codebook_loss.item() == 0.0
    assert out.commitment_loss.item() == 0.0


# ---------------------------------------------------------------------------
# usage stats
# ---------------------------------------------------------------------------


def test_usage_collapse():
    stats = qz.usage_stats(np.zeros((10, 2), dtype=int), qz.CapacityConfig(K=4, G=2))
    npt.assert_allclose(stats.perplexity, [1.0, 1.0])


def test_usage_uniform_is_k():
    codes = np.stack([np.arange(16) % 16, np.arange(16) % 16], axis=1)
    stats = qz.usage_stats(codes, qz.CapacityConfig(K=16, G=2))
    npt.assert_allclose(stats.perplexity, [16.0, 16.0], rtol=1e-12)


def test_usage_hand_entropy():
    codes = np.array([[0], [0], [0], [1]])
    stats = qz.usage_stats(codes, qz.CapacityConfig(K=2, G=1))
    expect = math.exp(-(0.75 * math.log(0.75) + 0.25 * math.log(0.25)))
    assert abs(stats.perplexity[0] - expect) < 1e-12
    assert abs(expect - 1.7548) < 1e-4
    npt.assert_array_equal(stats.histogram, [[3, 1]])


def test_usage_perplexity_bounds():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 8, size=(500, 2))
    stats = qz.usage_stats(codes, qz.CapacityConfig(K=8, G=2))
    assert np.all(stats.perplexity >= 1.0) and np.all(stats.perplexity <= 8.0)


# ---------------------------------------------------------------------------
# information ceiling and distortion monotonicity
# ---------------------------------------------------------------------------


def test_plugin_mi_of_codes_never_exceeds_capacity():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 50, size=400)
    x = rng.normal(size=(400, 8)) + labels[:, None] * 0.05
    for k in (2, 4, 16):
        cfg = qz.CapacityConfig(K=k, G=2)
        cb = qz.init_codebook_from_features(x, cfg, seed=0)
        codes, _, _ = qz.quantize_batch(x, cb)
        mi = sd.oracle_mi_discrete(sd.merge_symbols(codes), labels)
        assert mi <= qz.capacity(cfg) + 1e-9


def test_quantization_error_non_increasing_in_k():
    """At one seed the k-means++ entries for K are the first entries for any
    larger K, so the codebooks are nested and distortion cannot grow."""
    distortions = {}
    for k in (2, 4, 8, 16):
        per_seed = []
        for seed in (0, 1, 2):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(300, 8))
            cb = qz.init_codebook_from_features(x, qz.CapacityConfig(K=k, G=2), seed=seed)
            largest = qz.init_codebook_from_features(x, qz.CapacityConfig(K=16, G=2), seed=seed)
            npt.assert_array_equal(cb.entries, largest.entries[:k])
            _, q, _ = qz.quantize_batch(x, cb)
            per_seed.append(float(np.mean((x - q) ** 2)))
        distortions[k] = np.mean(per_seed)
    ks = sorted(distortions)
    for a, b in zip(ks, ks[1:]):
        assert distortions[b] <= distortions[a] + 1e-9


# ---------------------------------------------------------------------------
# codebook initialization
# ---------------------------------------------------------------------------


def test_init_codebook_from_features_shapes():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(40, 8))
    cb = qz.init_codebook_from_features(feats, qz.CapacityConfig(K=16, G=2), seed=1)
    assert cb.entries.shape == (16, 4)
    with pytest.raises(ConfigError):
        qz.init_codebook_from_features(feats, qz.CapacityConfig(K=0, G=2))

