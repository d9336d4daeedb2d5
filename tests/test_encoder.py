import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
from ibvq.encoder import EncoderConfig, EncoderModel, encode, extract_frame_features, pool_hierarchy
from ibvq.errors import AlignmentError, ConfigError, ShapeError
from ibvq.synthdata import AlignmentHierarchy, CorpusConfig, build_corpus


def align_from_edges(phone, word):
    return AlignmentHierarchy(
        phone_edges=np.asarray(phone, dtype=np.int64),
        word_edges=np.asarray(word, dtype=np.int64),
    )


@pytest.fixture(scope="module")
def model():
    return EncoderModel(EncoderConfig(channels=16, acoustic_dim=8, groups=2, seed=42))


def test_config_requires_divisible_dim():
    with pytest.raises(ConfigError):
        EncoderConfig(acoustic_dim=7, groups=2)


def test_single_frame_output_shape(model):
    out = extract_frame_features(np.zeros((1, 16)), model, [0, 1])
    assert out.shape == (1, 8)


def test_channel_mismatch(model):
    with pytest.raises(ShapeError):
        extract_frame_features(np.zeros((4, 12)), model, [0, 4])


def test_frame_permutation_changes_outputs(model):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 16))
    base = extract_frame_features(x, model, [0, 6]).data
    permuted = extract_frame_features(x[::-1].copy(), model, [0, 6]).data
    assert not np.allclose(base, permuted[::-1])  # positional encoding breaks symmetry


def test_pool_single_segment_mean():
    frames = nc.constant(np.array([[1.0], [3.0]]))
    align = align_from_edges([0, 2], [0, 2])
    npt.assert_allclose(pool_hierarchy(frames, align).data, [[2.0]])


def test_pool_balanced_mean():
    a, b = np.full((2, 3), 1.0), np.full((2, 3), 5.0)
    frames = nc.constant(np.vstack([a, b]))
    align = align_from_edges([0, 2, 4], [0, 4])
    npt.assert_allclose(pool_hierarchy(frames, align).data, np.full((1, 3), 3.0))


def test_pool_frame_weighted_mean():
    # phones of 1 and 3 frames, all-ones vs all-fives: word mean is
    # frame-weighted, (1 + 5 + 5 + 5) / 4 = 4
    frames = nc.constant(np.array([[1.0], [5.0], [5.0], [5.0]]))
    align = align_from_edges([0, 1, 4], [0, 4])
    npt.assert_allclose(pool_hierarchy(frames, align).data, [[4.0]])


def test_pool_hierarchy_equals_direct_frame_mean():
    rng = np.random.default_rng(1)
    corpus = build_corpus(CorpusConfig(n_utterances=8, seed=13))
    for utt in corpus.utterances:
        frames = nc.constant(rng.normal(size=(utt.alignment.total_frames, 8)))
        pooled = pool_hierarchy(frames, utt.alignment)
        direct = nc.segment_mean(frames, utt.alignment.word_edges)
        npt.assert_array_equal(pooled.data, direct.data)


def test_pool_boundary_beyond_frames(model):
    frames = nc.constant(np.zeros((3, 8)))
    align = align_from_edges([0, 4], [0, 4])
    with pytest.raises(AlignmentError):
        pool_hierarchy(frames, align)


def test_encode_shapes_and_order(model):
    corpus = build_corpus(CorpusConfig(n_utterances=4, seed=3))
    for utt in corpus.utterances:
        out = encode(utt.features, utt.alignment, model, [0, utt.alignment.total_frames])
        assert out.shape == (utt.alignment.n_words, 8)
        assert out.cols % model.config.groups == 0


def test_encode_deterministic(model):
    corpus = build_corpus(CorpusConfig(n_utterances=1, seed=5))
    utt = corpus.utterances[0]
    one = [0, utt.alignment.total_frames]
    a = encode(utt.features, utt.alignment, model, one).data
    b = encode(utt.features, utt.alignment, model, one).data
    npt.assert_array_equal(a, b)


def test_encode_gradients():
    model = EncoderModel(EncoderConfig(channels=5, acoustic_dim=4, groups=2, seed=9))
    rng = np.random.default_rng(2)
    x = rng.normal(size=(5, 5))
    align = align_from_edges([0, 2, 5], [0, 5])

    param_names = ["attn.wq", "attn.wv", "conv.k", "proj.w", "attn.ln_g"]
    originals = {name: model.store[name] for name in param_names}
    point = {name: p.data.copy() for name, p in originals.items()}

    def loss(p):
        for name in param_names:
            model.store.params[name] = p[name]
        return nc.sqnorm(encode(x, align, model, [0, 5]))

    try:
        err = nc.grad_check(loss, point, eps=1e-5)
    finally:
        model.store.params.update(originals)
    assert err < 1e-4
    assert all(model.store[name] is p for name, p in originals.items())
