import ast
import dataclasses
import importlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import ibvq.decoder as decoder_module
import ibvq.numcore as nc
from ibvq.decoder import (
    PASS_UTTERANCES,
    AutoencoderModels,
    DecoderConfig,
    DecoderModel,
    broadcast_prosody,
    decode_frames,
    decode_with_codes,
    encode_text,
    length_regulate,
    prosody_codes,
    reconstruct,
    reconstruction_graph,
    transfer,
    word_features,
)
from ibvq.encoder import EncoderConfig, EncoderModel
from ibvq.errors import AlignmentError, ShapeError, ValidationError, VocabularyError
from ibvq.quantizer import CapacityConfig, codebook_store
from ibvq.synthdata import CorpusConfig, build_corpus
from ibvq.synthdata.types import edges_from_lengths


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_utterances=6, seed=21))


@pytest.fixture(scope="module")
def dec(corpus):
    return DecoderModel(DecoderConfig(n_phones=corpus.inventory.size, seed=100))


def make_models(corpus, k, seed=0):
    models = AutoencoderModels.build(
        EncoderConfig(seed=seed),
        DecoderConfig(n_phones=corpus.inventory.size, seed=seed + 1),
        CapacityConfig(K=k, G=2),
    )
    if k > 0:
        models.codebook["entries"].data[...] = np.random.default_rng(seed + 2).normal(size=(k, 4))
    return models


# ---------------------------------------------------------------------------
# encode_text
# ---------------------------------------------------------------------------


def test_encode_text_shape(dec):
    assert encode_text([3], dec, [0, 1]).shape == (1, dec.config.phone_dim)
    assert encode_text([0, 1, 2, 3], dec, [0, 4]).shape == (4, dec.config.phone_dim)


def test_encode_text_deterministic(dec):
    a = encode_text([0, 2, 5, 2], dec, [0, 4]).data
    b = encode_text([0, 2, 5, 2], dec, [0, 4]).data
    npt.assert_array_equal(a, b)


def test_encode_text_unknown_phone(dec):
    with pytest.raises(VocabularyError):
        encode_text([0, dec.config.n_phones], dec, [0, 2])


# ---------------------------------------------------------------------------
# broadcast_prosody / length_regulate
# ---------------------------------------------------------------------------


def test_broadcast_single_word(dec):
    word_vecs = nc.constant(np.array([[1.0, 2.0]]))
    phone_feats = nc.constant(np.zeros((3, 4)))
    out = broadcast_prosody(word_vecs, [3], phone_feats)
    assert out.shape == (3, 6)
    npt.assert_array_equal(out.data[:, 4:], np.tile([1.0, 2.0], (3, 1)))


def test_broadcast_two_words_distinct():
    word_vecs = nc.constant(np.array([[1.0], [2.0]]))
    phone_feats = nc.constant(np.zeros((2, 1)))
    out = broadcast_prosody(word_vecs, [1, 1], phone_feats)
    npt.assert_array_equal(out.data[:, 1], [1.0, 2.0])


def test_broadcast_count_mismatch():
    word_vecs = nc.constant(np.ones((2, 3)))
    phone_feats = nc.constant(np.zeros((4, 2)))
    with pytest.raises(AlignmentError):
        broadcast_prosody(word_vecs, [1, 2], phone_feats)  # sums to 3, not 4


def test_broadcast_then_slice_recovers_vectors():
    rng = np.random.default_rng(3)
    word_vecs = rng.normal(size=(3, 5))
    counts = [2, 1, 4]
    out = broadcast_prosody(nc.constant(word_vecs), counts, nc.constant(np.zeros((7, 2))))
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    npt.assert_array_equal(out.data[starts, 2:], word_vecs)


def test_length_regulate_repetition():
    feats = nc.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = length_regulate(feats, [2, 1])
    npt.assert_array_equal(out.data, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_length_regulate_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    npt.assert_array_equal(length_regulate(nc.constant(x), [1] * 5).data, x)


def test_length_regulate_rejects_zero_duration():
    with pytest.raises(ValidationError):
        length_regulate(nc.constant(np.ones((2, 2))), [0, 3])


def test_length_regulate_total_frames():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        durations = rng.integers(1, 9, size=n)
        out = length_regulate(nc.constant(rng.normal(size=(n, 3))), durations)
        assert out.rows == int(durations.sum())


# ---------------------------------------------------------------------------
# decode_frames / durations
# ---------------------------------------------------------------------------


def test_decode_frames_shape_and_determinism(dec):
    rng = np.random.default_rng(6)
    ff = nc.constant(rng.normal(size=(9, dec.config.phone_dim + dec.config.prosody_dim)))
    a = decode_frames(ff, dec, [0, 9])
    assert a.shape == (9, dec.config.channels)
    npt.assert_array_equal(a.data, decode_frames(ff, dec, [0, 9]).data)


def test_decode_frames_wrong_width(dec):
    with pytest.raises(ShapeError):
        decode_frames(nc.constant(np.zeros((4, 3))), dec, [0, 4])


# ---------------------------------------------------------------------------
# reconstruct / transfer
# ---------------------------------------------------------------------------


def test_reconstruct_preserves_length(corpus):
    models = make_models(corpus, k=4)
    utts = corpus.utterances[:3]
    outs = reconstruct(utts, models)
    assert [out.shape for out in outs] == [utt.features.shape for utt in utts]


def test_reconstruct_k0_ignores_prosody(corpus):
    """With the bottleneck off, two references with the same text but
    different prosody decode to exactly the same output."""
    models = make_models(corpus, k=0)
    utt = corpus.utterances[0]
    other = dataclasses.replace(utt, features=utt.features.copy())
    other.features[:, 0] *= 0.5  # perturb the prosody channels only
    other.features[:, 2] += 0.3
    a, b = reconstruct([utt, other], models)
    npt.assert_array_equal(a, b)


def test_k0_graph_feeds_zeros_with_zero_losses(corpus):
    """A disabled bottleneck passes zero word vectors to the decoder, has no
    codes, and adds exactly 0 to the loss; the encoder is not run."""
    models = make_models(corpus, k=0)
    assert list(models.codebook.params) == []
    utts = corpus.utterances[:1]
    graph = reconstruction_graph(utts, models, commitment_cost=0.25)
    bn = graph.bottleneck
    npt.assert_array_equal(bn.quantized.data, np.zeros((utts[0].alignment.n_words, 8)))
    assert bn.codes is None and graph.word_features is None
    assert bn.codebook_loss.item() == 0.0 and bn.commitment_loss.item() == 0.0
    assert graph.loss.item() == graph.mse.item()
    npt.assert_array_equal(graph.output.data, reconstruct(utts, models)[0])


def test_transfer_degenerate_equals_reconstruct(corpus):
    models = make_models(corpus, k=8)
    utts = corpus.utterances[1:2]
    npt.assert_array_equal(reconstruct(utts, models)[0], transfer(utts, utts, models)[0])


def test_reconstruct_records_no_graph(corpus, monkeypatch):
    # the package's `tensor` function shadows its module of the same name
    tensor_module = importlib.import_module("ibvq.numcore.tensor")
    models = make_models(corpus, k=8)
    utts = corpus.utterances[3:4]

    @contextmanager
    def not_frozen(store):
        yield

    with monkeypatch.context() as m:
        m.setattr(nc.ParamStore, "frozen", not_frozen)
        recorded = reconstruct(utts, models)[0]  # parameters require gradients throughout

    child, nodes = tensor_module._child, []

    def recording_child(*a):
        nodes.append(child(*a))
        return nodes[-1]

    monkeypatch.setattr(tensor_module, "_child", recording_child)
    out = reconstruct(utts, models)[0]
    assert nodes and not any(n.requires_grad for n in nodes)
    npt.assert_array_equal(out, recorded)
    assert all(p.requires_grad for s in (models.encoder.store, models.decoder.store)
               for p in s.params.values())


def test_transfer_word_count_mismatch(corpus):
    models = make_models(corpus, k=8)
    ref = corpus.utterances[0]
    target = None
    for cand in corpus.utterances[1:]:
        if cand.alignment.n_words != ref.alignment.n_words:
            target = cand
            break
    assert target is not None
    names_both = (f"word counts differ: reference {ref.spec.utt_id} has .*, "
                  f"target {target.spec.utt_id} has")
    with pytest.raises(ValidationError, match=names_both):
        transfer([ref], [target], models)
    # checked per pair: equal word totals over a batch do not hide a mismatch
    with pytest.raises(ValidationError, match=names_both):
        transfer([ref, target], [target, ref], models)
    with pytest.raises(ValidationError, match="2 reference utterances for 1 targets"):
        transfer([ref, ref], [ref], models)


def test_decode_with_codes_in_code_space(corpus):
    models = make_models(corpus, k=8)
    utt = corpus.utterances[2]
    codes = np.zeros((utt.alignment.n_words, 2), dtype=np.int64)
    (out,) = decode_with_codes([codes], [utt], models)
    assert out.shape == utt.features.shape
    with pytest.raises(AlignmentError):
        decode_with_codes([codes[1:]], [utt], models)
    with pytest.raises(AlignmentError):
        decode_with_codes([codes, codes], [utt], models)


def test_packed_passes_equal_batches_of_one(monkeypatch):
    """Utterances evaluated together, in two packed passes, one full and the
    next not, give bit for bit what each gives alone, through every decoder
    entry point."""
    corpus = build_corpus(CorpusConfig(n_utterances=PASS_UTTERANCES + 4, seed=22))
    models = make_models(corpus, k=8)
    utts = corpus.utterances
    # each utterance's transfer target: the next one with its word count, or itself
    targets = [
        next((t for t in utts[i + 1:] if t.alignment.n_words == u.alignment.n_words), u)
        for i, u in enumerate(utts)
    ]
    assert any(t is not u for u, t in zip(utts, targets))
    rng = np.random.default_rng(4)
    codes = [rng.integers(0, 8, size=(u.alignment.n_words, 2)) for u in utts]
    sizes, pack = [], decoder_module.pack_utterances
    monkeypatch.setattr(decoder_module, "pack_utterances",
                        lambda batch: sizes.append(len(batch)) or pack(batch))
    outputs = reconstruct(utts, models)
    assert sizes == [PASS_UTTERANCES, 4] * 2  # the encoding passes, then the decoding ones
    for outs, alone in (
        (outputs, lambda i: reconstruct([utts[i]], models)),
        (transfer(utts, targets, models), lambda i: transfer([utts[i]], [targets[i]], models)),
        (decode_with_codes(codes, utts, models),
         lambda i: decode_with_codes([codes[i]], [utts[i]], models)),
        (prosody_codes(utts, models), lambda i: prosody_codes([utts[i]], models)),
        (word_features(utts, models), lambda i: word_features([utts[i]], models)),
    ):
        assert len(outs) == len(utts)
        for i, out in enumerate(outs):
            assert out.tobytes() == alone(i)[0].tobytes()


def test_only_the_decoder_packs_utterances():
    """Every caller hands the decoder a list of utterances: a pack, or a pass
    size, anywhere else under the package would be a second pass loop."""
    src = Path(decoder_module.__file__).resolve().parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if path == src / "decoder.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(
                node, "name", None)
            if name in ("pack_utterances", "PASS_UTTERANCES"):
                found.append(f"{path.relative_to(src)}:{getattr(node, 'lineno', '?')}: {name}")
    assert found == []


# ---------------------------------------------------------------------------
# end-to-end gradients (an enabled bottleneck before its codebook is seeded
# passes word vectors through: the straight-through backward is deliberately
# not the derivative of the quantized forward)
# ---------------------------------------------------------------------------


def test_end_to_end_gradient_check():
    cfg = CorpusConfig(n_utterances=2, phone_vocab=4, channels=6, max_words=2, seed=77)
    corpus = build_corpus(cfg)
    enc = EncoderModel(EncoderConfig(channels=6, acoustic_dim=4, groups=2, seed=1))
    dec = DecoderModel(
        DecoderConfig(n_phones=4, channels=6, phone_dim=6, prosody_dim=4, hidden=6, seed=2)
    )
    names = ["attn.wq", "conv.k", "proj.w"]
    dec_names = ["embed", "tenc.conv.k", "fuse.w", "sdec.conv1.k", "sdec.out.w"]
    originals = ({n: enc.store[n] for n in names}, {n: dec.store[n] for n in dec_names})
    point = {f"e.{n}": p.data.copy() for n, p in originals[0].items()}
    point.update({f"d.{n}": p.data.copy() for n, p in originals[1].items()})

    cap = CapacityConfig(K=4, G=2)
    models = AutoencoderModels(enc, dec, cap, codebook_store(cap, 4))

    def loss(p):
        for n in names:
            enc.store.params[n] = p[f"e.{n}"]
        for n in dec_names:
            dec.store.params[n] = p[f"d.{n}"]
        graph = reconstruction_graph(corpus.utterances, models, commitment_cost=0.25,
                                     quantize=False)
        return graph.loss

    try:
        err = nc.grad_check(loss, point, eps=1e-5)
    finally:
        enc.store.params.update(originals[0])
        dec.store.params.update(originals[1])
    assert err < 1e-4


# ---------------------------------------------------------------------------
# packed batches
# ---------------------------------------------------------------------------


def trainable(corpus, k=4, seed=3):
    """A bundle and its stores, as a training step uses them."""
    models = make_models(corpus, k, seed)
    return models, list(models.stores().values())


def step_graph(utts, models):
    return reconstruction_graph(utts, models, commitment_cost=0.25)


def test_packed_loss_and_gradients_equal_per_utterance_graphs(corpus):
    utts = corpus.utterances[:5]
    assert len({u.alignment.total_frames for u in utts}) == len(utts)  # mixed lengths
    models, stores = trainable(corpus)

    def run(batch):
        for store in stores:
            store.zero_grad()
        graph = step_graph(batch, models)
        graph.loss.backward()
        grads = {(i, n): g.copy() for i, s in enumerate(stores) for n, g in s.grads().items()}
        return graph, grads

    packed, packed_grads = run(utts)
    parts = [run([u]) for u in utts]
    for field in ("mse", "loss"):
        single = sum(getattr(g, field).item() for g, _ in parts) / len(utts)
        npt.assert_allclose(getattr(packed, field).item(), single, rtol=1e-12)
    for key, grad in packed_grads.items():
        single = sum(grads[key] for _, grads in parts) / len(utts)
        scale = max(np.abs(single).max(), 1e-300)
        assert np.abs(grad - single).max() <= 1e-12 * scale, key


def test_packed_utterances_do_not_see_each_other(corpus):
    models, _ = trainable(corpus)
    utts = corpus.utterances[:3]
    noise = np.random.default_rng(9).normal(size=utts[1].features.shape)
    changed = [utts[0], dataclasses.replace(utts[1], features=utts[1].features + noise), utts[2]]
    frame_offsets = edges_from_lengths([u.alignment.total_frames for u in utts])
    word_offsets = edges_from_lengths([u.alignment.n_words for u in utts])
    middle = slice(frame_offsets[1], frame_offsets[2])
    a, b = step_graph(utts, models), step_graph(changed, models)
    assert not np.array_equal(a.output.data[middle], b.output.data[middle])
    for i in (0, 2):
        # the encoder's word vectors, before quantization can hide a change
        words = slice(word_offsets[i], word_offsets[i + 1])
        npt.assert_array_equal(a.word_features.data[words], b.word_features.data[words])
        frames = slice(frame_offsets[i], frame_offsets[i + 1])
        npt.assert_array_equal(a.output.data[frames], b.output.data[frames])
