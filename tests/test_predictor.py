import numpy as np
import numpy.testing as npt
import pytest

import ibvq.numcore as nc
from ibvq.errors import ConfigError, ShapeError, VocabularyError
from ibvq.predictor import (
    PredictorConfig,
    PredictorModel,
    evaluate_predictor,
    head_logits,
    pack_sentences,
    predict_codes,
    train_predictor,
)


def deterministic_dataset(vocab=12, k=8, g=2, sentences=60, seed=0):
    """Each word identity maps to exactly one code tuple."""
    rng = np.random.default_rng(seed)
    mapping = rng.integers(0, k, size=(vocab, g))
    texts, codes = [], []
    for _ in range(sentences):
        t = rng.integers(0, vocab, size=rng.integers(2, 6)).tolist()
        texts.append(t)
        codes.append(mapping[t])
    return texts, codes, mapping


def held_out_accuracy(model, texts, codes):
    ids, offsets = pack_sentences(texts)
    return evaluate_predictor(predict_codes(ids, model, offsets), codes)


def test_k0_is_config_error():
    with pytest.raises(ConfigError):
        PredictorConfig(word_vocab=10, K=0)


def test_overfit_deterministic_mapping_reaches_full_accuracy():
    texts, codes, _ = deterministic_dataset()
    cfg = PredictorConfig(word_vocab=12, K=8, seed=3)
    model = train_predictor(texts, codes, cfg,
                            nc.TrainConfig(learning_rate=5e-3, steps=500, seed=3))
    npt.assert_allclose(held_out_accuracy(model, texts, codes), 1.0)


def test_training_deterministic_under_seed():
    texts, codes, _ = deterministic_dataset(sentences=20)
    cfg = PredictorConfig(word_vocab=12, K=8, seed=5)
    tc = nc.TrainConfig(learning_rate=5e-3, steps=60, seed=5)
    m1 = train_predictor(texts, codes, cfg, tc)
    m2 = train_predictor(texts, codes, cfg, tc)
    for name in m1.store.params:
        npt.assert_array_equal(m1.store[name].data, m2.store[name].data)


def test_code_value_exceeding_k_rejected():
    texts = [[0, 1]]
    codes = [np.array([[0, 9], [1, 1]])]
    with pytest.raises(ConfigError):
        train_predictor(texts, codes, PredictorConfig(word_vocab=4, K=8), nc.TrainConfig())


def test_predict_shapes_and_range():
    model = PredictorModel(PredictorConfig(word_vocab=10, K=6, seed=1))
    out = predict_codes([4], model, [0, 1])
    assert out.shape == (1, 2)
    assert np.all((out >= 0) & (out < 6))
    many = predict_codes([1, 2, 3, 4, 5], model, [0, 5])
    assert many.shape == (5, 2)


def test_predict_deterministic():
    model = PredictorModel(PredictorConfig(word_vocab=10, K=6, seed=2))
    npt.assert_array_equal(predict_codes([1, 2, 3], model, [0, 3]),
                           predict_codes([1, 2, 3], model, [0, 3]))


def test_unknown_word_rejected():
    model = PredictorModel(PredictorConfig(word_vocab=10, K=6))
    with pytest.raises(VocabularyError):
        predict_codes([10], model, [0, 1])


def test_evaluate_perfect_and_chance_levels():
    texts, codes, mapping = deterministic_dataset(vocab=8, k=16, sentences=40, seed=9)
    cfg = PredictorConfig(word_vocab=8, K=16, seed=9)
    model = train_predictor(texts, codes, cfg,
                            nc.TrainConfig(learning_rate=5e-3, steps=500, seed=9))
    npt.assert_allclose(held_out_accuracy(model, texts, codes), 1.0)

    # a uniform predictor (all logits zero) against random codes sits at
    # chance: accuracy ~1/16
    rng = np.random.default_rng(11)
    rand_codes = [rng.integers(0, 16, size=(len(t), 2)) for t in texts]
    uniform = PredictorModel(cfg)
    for g in range(2):
        uniform.store[f"head{g}.w"].data[:] = 0.0
        uniform.store[f"head{g}.b"].data[:] = 0.0
    chance = held_out_accuracy(uniform, texts, rand_codes)
    assert np.all(np.abs(chance - 1 / 16) < 0.05)


# ---------------------------------------------------------------------------
# packed sentences
# ---------------------------------------------------------------------------


def test_packed_step_equals_per_sentence_graphs():
    """A packed step's loss and gradients are the old per-sentence sum of
    per-head mean cross-entropies divided by B*G."""
    texts, codes, _ = deterministic_dataset(sentences=5, seed=4)
    texts[2] = texts[2][:1]  # a one-word sentence: no neighbors at all
    codes[2] = codes[2][:1]
    model = PredictorModel(PredictorConfig(word_vocab=12, K=8, seed=6))
    g_count = model.config.G

    def grads(loss):
        model.store.zero_grad()
        loss.backward()
        return {n: g.copy() for n, g in model.store.grads().items()}

    ids, offsets = pack_sentences(texts)
    targets = np.vstack(codes)
    logits = head_logits(ids, model, offsets)
    per_head = [nc.cross_entropy(logits[g], targets[:, g], offsets) for g in range(g_count)]
    packed = nc.mul(nc.add(per_head[0], per_head[1]), 1.0 / g_count)
    packed_grads = grads(packed)

    total = None
    for t, c in zip(texts, codes):
        for g, lg in enumerate(head_logits(t, model, [0, len(t)])):
            term = nc.cross_entropy(lg, c[:, g], [0, len(t)])
            total = term if total is None else nc.add(total, term)
    single = nc.mul(total, 1.0 / (len(texts) * g_count))
    single_grads = grads(single)

    npt.assert_allclose(packed.item(), single.item(), rtol=1e-12)
    for name, grad in packed_grads.items():
        scale = max(np.abs(single_grads[name]).max(), 1e-300)
        assert np.abs(grad - single_grads[name]).max() <= 1e-12 * scale, name


def test_packed_sentences_do_not_see_each_other():
    model = PredictorModel(PredictorConfig(word_vocab=12, K=8, seed=7))
    texts = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
    ids, offsets = pack_sentences(texts)
    changed, _ = pack_sentences([texts[0], [10, 11], texts[2]])
    a, b = head_logits(ids, model, offsets), head_logits(changed, model, offsets)
    middle = slice(offsets[1], offsets[2])
    assert not np.array_equal(a[0].data[middle], b[0].data[middle])
    for i in (0, 2):
        rows = slice(offsets[i], offsets[i + 1])
        for la, lb in zip(a, b):
            npt.assert_array_equal(la.data[rows], lb.data[rows])


def test_step_graph_size_independent_of_batch(monkeypatch):
    texts, codes, _ = deterministic_dataset(sentences=20, seed=2)
    sizes = []
    backward = nc.Tensor.backward

    def counting_backward(loss):
        seen, stack = {id(loss)}, [loss]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        sizes[-1].append(len(seen))
        backward(loss)

    monkeypatch.setattr(nc.Tensor, "backward", counting_backward)
    for batch_size in (2, 8):
        sizes.append([])
        train_predictor(texts, codes, PredictorConfig(word_vocab=12, K=8, seed=1),
                        nc.TrainConfig(steps=3, seed=1, batch_size=batch_size))
    assert sizes[0] == sizes[1]
    assert len(set(sizes[0])) == 1


def test_evaluate_matches_per_sentence_logits():
    texts, codes, _ = deterministic_dataset(sentences=12, seed=5)
    model = PredictorModel(PredictorConfig(word_vocab=12, K=8, seed=8))
    ids, offsets = pack_sentences(texts)
    packed = predict_codes(ids, model, offsets)
    npt.assert_array_equal(packed,
                           np.vstack([predict_codes(t, model, [0, len(t)]) for t in texts]))
    accuracy = evaluate_predictor(packed, codes)
    logits = [head_logits(t, model, [0, len(t)]) for t in texts]
    for g in range(2):
        lg = np.vstack([ls[g].data for ls in logits])
        target = np.concatenate([c[:, g] for c in codes])
        assert accuracy[g] == np.mean(lg.argmax(axis=1) == target)
    with pytest.raises(ShapeError):
        evaluate_predictor(packed[:-1], codes)
