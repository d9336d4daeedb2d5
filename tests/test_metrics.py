import math

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.metrics as mx
import ibvq.synthdata as sd
from ibvq.errors import ShapeError


def features_from(f0_norm, voicing, energy, templates):
    t = len(f0_norm)
    out = np.zeros((t, 3 + templates.shape[1]))
    out[:, 0] = f0_norm
    out[:, 1] = voicing
    out[:, 2] = energy
    out[:, 3:] = templates
    return out


def track(voiced, f0):
    """Features whose pitch track is ``voiced`` and ``f0`` (Hz; ignored on
    unvoiced frames), with unit energy and zero template channels."""
    voiced = np.asarray(voiced, dtype=bool)
    norm = np.where(voiced, sd.f0_to_norm(np.where(voiced, f0, 50.0)), 0.0)
    return features_from(norm, voiced.astype(float), np.ones(voiced.size),
                         np.zeros((voiced.size, 13)))


def hand_dct_matrix(n):
    # orthonormal DCT-II basis, written out from the cosine definition
    m = np.zeros((n, n))
    for k in range(n):
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        for i in range(n):
            m[k, i] = scale * math.cos(math.pi * (2 * i + 1) * k / (2 * n))
    return m


def hand_mcd(ref, hyp):
    n = ref.shape[1] - 3
    basis = hand_dct_matrix(n)
    c_ref = ref[:, 3:] @ basis.T
    c_hyp = hyp[:, 3:] @ basis.T
    diff = c_ref[:, 1:] - c_hyp[:, 1:]
    per_frame = (10.0 / math.log(10.0)) * np.sqrt(2.0 * (diff**2).sum(axis=1))
    return float(per_frame.mean())


# ---------------------------------------------------------------------------
# extract_pitch
# ---------------------------------------------------------------------------


def test_extract_pitch_round_trip_200hz():
    norm = math.log(200.0 / 50.0) / math.log(10.0)  # ~0.602
    feats = features_from([norm], [1.0], [1.0], np.zeros((1, 13)))
    tr = mx.extract_pitch(feats)
    assert tr.voiced[0]
    assert abs(tr.f0[0] - 200.0) < 1e-9


def test_extract_pitch_unvoiced_threshold():
    feats = features_from([0.5], [0.0], [1.0], np.zeros((1, 13)))
    assert not mx.extract_pitch(feats).voiced[0]
    feats[0, 1] = 0.49
    assert not mx.extract_pitch(feats).voiced[0]
    feats[0, 1] = 0.51
    assert mx.extract_pitch(feats).voiced[0]


def test_extract_pitch_floor():
    feats = features_from([0.0], [1.0], [1.0], np.zeros((1, 13)))
    assert abs(mx.extract_pitch(feats).f0[0] - 50.0) < 1e-12


# ---------------------------------------------------------------------------
# VDE / GPE / FFE from compare's shared counts
# ---------------------------------------------------------------------------


def test_vde_identical_zero():
    a = track([1, 0, 1, 1], [100, 0, 150, 200])
    assert mx.compare(a, a).vde == 0.0


def test_vde_one_of_four():
    ref = track([1, 0, 1, 1], [100, 0, 150, 200])
    hyp = track([1, 1, 1, 1], [100, 90, 150, 200])
    rep = mx.compare(ref, hyp)
    assert rep.vde == 25.0
    assert (rep.voicing_error_frames, rep.total_frames) == (1, 4)


def test_vde_all_flipped():
    ref = track([1, 0], [100, 0])
    hyp = track([0, 1], [0, 100])
    assert mx.compare(ref, hyp).vde == 100.0


def test_gpe_threshold_cases():
    ref = track([1], [100.0])
    assert mx.compare(ref, track([1], [130.0])).gpe == 100.0  # 30% > 20%
    assert mx.compare(ref, track([1], [110.0])).gpe == 0.0    # 10% <= 20%
    # 120 Hz and 96 Hz come back from the F0 channel exactly, so the
    # deviation equals the threshold: the boundary is not an error
    ref, hyp = track([1], [120.0]), track([1], [96.0])
    assert mx.extract_pitch(ref).f0[0] == 120.0 and mx.extract_pitch(hyp).f0[0] == 96.0
    assert abs(96.0 - 120.0) == mx.GPE_THRESHOLD * 120.0
    assert mx.compare(ref, hyp).gpe == 0.0


def test_gpe_no_both_voiced_is_zero():
    ref = track([1, 0], [100, 0])
    hyp = track([0, 1], [0, 100])
    rep = mx.compare(ref, hyp)
    assert rep.gpe == 0.0
    assert (rep.both_voiced_frames, rep.gross_error_frames) == (0, 0)


def test_ffe_hand_count():
    # T = 4: one voicing mismatch + one gross error -> 50%
    ref = track([1, 1, 1, 0], [100, 100, 100, 0])
    hyp = track([1, 1, 0, 0], [100, 130, 0, 0])
    rep = mx.compare(ref, hyp)
    assert rep.ffe == 50.0
    assert (rep.voicing_error_frames, rep.gross_error_frames) == (1, 1)


def test_length_mismatch_raises():
    with pytest.raises(ShapeError):
        mx.compare(track([1], [100]), track([1, 1], [100, 100]))


# ---------------------------------------------------------------------------
# mcd
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 13, 64])
def test_dct_basis_is_orthonormal_dct_ii(n):
    basis = mx.dct_basis(n)
    npt.assert_allclose(basis.T @ basis, np.eye(n), rtol=0, atol=1e-12)
    npt.assert_allclose(basis, hand_dct_matrix(n).T, rtol=0, atol=1e-12)
    assert mx.dct_basis(n) is basis  # built once per width


def test_mcd_identical_zero():
    rng = np.random.default_rng(0)
    feats = features_from([0.5] * 4, [1] * 4, [1] * 4, rng.uniform(0, 1, (4, 13)))
    assert mx.mcd(feats, feats) == 0.0


def test_mcd_single_coefficient_delta():
    rng = np.random.default_rng(1)
    t, n = 5, 13
    ref = features_from([0.5] * t, [1] * t, [1] * t, rng.uniform(0, 1, (t, n)))
    hyp = ref.copy()
    delta = 0.37
    basis = hand_dct_matrix(n)
    hyp[0, 3:] += delta * basis[4]  # bump cepstral coefficient 4 on frame 0 only
    expect = (10.0 / math.log(10.0)) * math.sqrt(2.0) * delta / t
    assert abs(mx.mcd(ref, hyp) - expect) < 1e-9


def test_mcd_matches_hand_rolled_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        t = int(rng.integers(1, 30))
        ref = rng.normal(size=(t, 16))
        hyp = rng.normal(size=(t, 16))
        assert abs(mx.mcd(ref, hyp) - hand_mcd(ref, hyp)) < 1e-9


def test_mcd_offset_on_template_channels_is_invisible():
    rng = np.random.default_rng(3)
    ref = rng.normal(size=(6, 16))
    hyp = rng.normal(size=(6, 16))
    base = mx.mcd(ref, hyp)
    shifted_hyp = hyp.copy()
    shifted_hyp[:, 3:] += 2.5  # moves only the excluded 0th coefficient
    assert abs(mx.mcd(ref, shifted_hyp) - base) < 1e-9
    shifted_both = ref.copy()
    shifted_both[:, 3:] += 2.5
    assert abs(mx.mcd(shifted_both, shifted_hyp) - base) < 1e-9


def test_mcd_sign_flip_positive():
    rng = np.random.default_rng(4)
    ref = features_from([0.5] * 3, [1] * 3, [1] * 3, rng.uniform(0.2, 1, (3, 13)))
    hyp = ref.copy()
    hyp[:, 3:] *= -1.0
    assert mx.mcd(ref, hyp) > 0.0


# ---------------------------------------------------------------------------
# report identities
# ---------------------------------------------------------------------------


def random_feature_pair(rng, t):
    ref = features_from(
        rng.uniform(0, 1, t), (rng.random(t) > 0.4).astype(float),
        rng.uniform(0.5, 1.5, t), rng.uniform(0, 1, (t, 13))
    )
    hyp = features_from(
        rng.uniform(0, 1, t), (rng.random(t) > 0.4).astype(float),
        rng.uniform(0.5, 1.5, t), rng.uniform(0, 1, (t, 13))
    )
    return ref, hyp


def test_report_identity_decomposition_50_pairs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t = int(rng.integers(1, 40))
        ref, hyp = random_feature_pair(rng, t)
        rep = mx.compare(ref, hyp)
        # exact integer identity: ffe numerator = vde numerator + gpe numerator
        ffe_count = round(rep.ffe * rep.total_frames / 100.0)
        assert ffe_count == rep.voicing_error_frames + rep.gross_error_frames
        npt.assert_allclose(
            rep.ffe,
            100.0 * (rep.voicing_error_frames + rep.gross_error_frames) / rep.total_frames,
            atol=1e-12,
        )
        assert 0.0 <= rep.vde <= 100.0
        assert 0.0 <= rep.gpe <= 100.0
        assert 0.0 <= rep.ffe <= 100.0
        assert rep.mcd >= 0.0


def test_report_zero_on_identical_inputs():
    rng = np.random.default_rng(6)
    ref, _ = random_feature_pair(rng, 12)
    rep = mx.compare(ref, ref.copy())
    assert (rep.vde, rep.gpe, rep.ffe, rep.mcd) == (0.0, 0.0, 0.0, 0.0)


def test_report_deterministic():
    rng = np.random.default_rng(7)
    ref, hyp = random_feature_pair(rng, 20)
    a = mx.compare(ref, hyp)
    b = mx.compare(ref, hyp)
    assert a == b
