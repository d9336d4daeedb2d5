import dataclasses
import gc
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import typing
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ibvq
import ibvq.decoder as decoder_module
import ibvq.harness.experiments as experiments
import ibvq.harness.training as training_module
import ibvq.numcore as nc
import ibvq.numcore.shards as shards
from ibvq.decoder import (
    PASS_UTTERANCES,
    AutoencoderModels,
    DecoderConfig,
    prosody_codes,
    reconstruct,
    reconstruction_graph,
)
from ibvq.encoder import EncoderConfig
from ibvq.errors import (CheckpointError, ConfigError, CorpusFormatError, IbvqError,
                         TrainingError, ValidationError)
import ibvq.harness.cli as cli_module
from ibvq.harness.cli import main as cli_main
from ibvq.harness.experiments import (
    CELL_COLUMNS,
    CellResult,
    ExperimentConfig,
    matched_pairs,
    phone_recovery_accuracy,
    read_cells,
    reconstruction_eval,
    run_sweep,
    run_transfer_experiment,
    word_pitch_readout,
    write_tables,
)
from ibvq.harness.training import load_models, save_models, split_corpus, train_autoencoder
from ibvq.mi import MineConfig, mine_estimate
from ibvq.predictor import PredictorConfig, predict_codes, train_predictor
from ibvq.quantizer import CapacityConfig, DeadCodes
from ibvq.synthdata import ENERGY_CHANNEL, CorpusConfig, build_corpus, read_corpus
from recipe import recipe

TINY_TRAIN = nc.TrainConfig(learning_rate=3e-3, steps=30, seed=5, batch_size=4)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(CorpusConfig(n_utterances=24, seed=31))


@pytest.fixture(scope="module")
def trained(corpus):
    with recipe(warmup=10):
        return train_autoencoder(corpus, CapacityConfig(K=4, G=2), TINY_TRAIN)


def test_split_corpus_fixed_and_disjoint(corpus):
    a = split_corpus(corpus)
    b = split_corpus(corpus)
    assert a == b
    train, held = a
    assert sorted(train + held) == list(range(len(corpus.utterances)))
    assert len(held) == max(1, round(0.1 * len(corpus.utterances)))


def test_training_deterministic(corpus):
    with recipe(warmup=10):
        r1 = train_autoencoder(corpus, CapacityConfig(K=4, G=2), TINY_TRAIN)
        r2 = train_autoencoder(corpus, CapacityConfig(K=4, G=2), TINY_TRAIN)
    assert [p.total for p in r1.loss_curve] == [p.total for p in r2.loss_curve]
    for name in r1.models.encoder.store.params:
        npt.assert_array_equal(
            r1.models.encoder.store[name].data, r2.models.encoder.store[name].data
        )
    npt.assert_array_equal(r1.models.codebook["entries"].data, r2.models.codebook["entries"].data)


def test_loss_decomposition_every_step(trained):
    for p in trained.loss_curve:
        assert p.total == p.mse + p.codebook + p.commitment  # exact float identity


def test_loss_decreases(trained):
    assert trained.loss_curve[-1].total < trained.loss_curve[0].total


def test_k0_quantizer_losses_identically_zero(corpus):
    res = train_autoencoder(corpus, CapacityConfig(K=0, G=2), TINY_TRAIN)
    assert all(p.codebook == 0.0 and p.commitment == 0.0 for p in res.loss_curve)
    assert list(res.models.codebook.params) == [] and res.usage is None


K0_TRAIN = nc.TrainConfig(learning_rate=3e-3, steps=60, seed=5, batch_size=4)


@pytest.fixture(scope="module")
def trained_k0(corpus):
    train_idx, _ = split_corpus(corpus)
    return train_autoencoder(corpus, CapacityConfig(K=0, G=2), K0_TRAIN, train_indices=train_idx)


def test_k0_heldout_mse_matches_training(corpus, trained_k0):
    """K=0 is a text-only baseline: the decoder sees zero prosody vectors in
    training as in evaluation, so held-out error tracks training error."""
    _, held_idx = split_corpus(corpus)
    train_mse = np.mean([p.mse for p in trained_k0.loss_curve[-20:]])
    held_mse = reconstruction_eval(corpus, trained_k0.models, held_idx)["recon_mse"]
    assert held_mse < 1.5 * train_mse


def test_k0_loss_curve_independent_of_encoder(corpus, trained_k0):
    train_idx, _ = split_corpus(corpus)
    other = train_autoencoder(
        corpus, CapacityConfig(K=0, G=2), K0_TRAIN, train_indices=train_idx,
        enc_cfg=EncoderConfig(seed=9),
    )
    assert other.loss_curve == trained_k0.loss_curve


def test_k0_training_runs_no_encode(corpus, monkeypatch):
    """At K=0 the decoder sees zeros and no gradient reaches the encoder, so
    training never runs it."""
    calls = []
    monkeypatch.setattr(decoder_module, "encode", lambda *a, **k: calls.append(a))
    train_autoencoder(corpus, CapacityConfig(K=0, G=2), nc.TrainConfig(steps=3, seed=5,
                                                                        batch_size=4))
    assert calls == []


def test_zero_step_training_seeds_the_codebook(corpus):
    """Without a step to seed it in, training still seeds the codebook, so
    the bundle it returns has usable entries."""
    res = train_autoencoder(corpus, CapacityConfig(K=4, G=2),
                            nc.TrainConfig(steps=0, seed=5, batch_size=4))
    assert res.loss_curve == []
    assert np.all(np.any(res.models.codebook["entries"].data != 0, axis=1))


def test_one_step_training_quantizes_its_only_step(corpus):
    """The warm-up is shorter than the training: a one-step training seeds
    the codebook before its only step and quantizes it."""
    res = train_autoencoder(corpus, CapacityConfig(K=4, G=2),
                            nc.TrainConfig(steps=1, seed=5, batch_size=4))
    [point] = res.loss_curve
    assert point.codebook > 0 and point.commitment > 0


def test_k0_training_never_seeds_or_counts_codes(corpus, monkeypatch):
    """At K=0 training has no codebook to seed and no codes to count; at
    K=4 the same spies see the seeding and every quantized step."""
    calls = []

    def spy(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training_module, "init_codebook_from_features",
                        spy("init", training_module.init_codebook_from_features))
    monkeypatch.setattr(DeadCodes, "count", spy("count", DeadCodes.count))
    steps = nc.TrainConfig(steps=3, seed=5, batch_size=4)
    train_autoencoder(corpus, CapacityConfig(K=0, G=2), steps)
    assert calls == []
    with recipe(warmup=1):
        train_autoencoder(corpus, CapacityConfig(K=4, G=2), steps)
    assert calls == ["init", "count", "count"]


def test_every_saved_parameter_is_trained(trained):
    """Training past warm-up steps every store of the bundle, and a step
    updates a whole store, so a checkpoint holds no parameter that training
    never updates."""
    assert {prefix: store.steps > 0 for prefix, store in trained.models.stores().items()} == {
        "enc": True, "dec": True, "cb": True}


def test_divergence_reports_step(corpus):
    # a learning rate this large drives activations to overflow within steps
    bad = nc.TrainConfig(learning_rate=1e160, steps=60, seed=5, batch_size=4)
    with recipe(warmup=5):
        with pytest.raises(TrainingError, match="step"), pytest.warns(RuntimeWarning):
            train_autoencoder(corpus, CapacityConfig(K=4, G=2), bad)


def test_model_checkpoint_round_trip(tmp_path, corpus, trained, trained_k0):
    """At K=4 and at K=0, save -> load -> save writes the same files, byte
    for byte, and the loaded bundle reconstructs as the trained one."""
    utts = corpus.utterances[:1]
    for res, codebook in ((trained, ["cb.entries"]), (trained_k0, [])):
        k = res.models.cap_cfg.K
        first, second = tmp_path / f"k{k}_first", tmp_path / f"k{k}_second"
        save_models(first, res.models)
        loaded = load_models(first)
        save_models(second, loaded)
        for name in ("params.npy", "meta.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        params = read_bundle_params(first)
        assert [p for p in params if p.startswith("cb.")] == codebook
        npt.assert_array_equal(reconstruct(utts, loaded)[0], reconstruct(utts, res.models)[0])


@pytest.mark.parametrize("section, name, value, message", [
    ("capacity", "K", 0.0, "K must be an integer, got 0.0"),
    ("capacity", "G", 2.0, "G must be an integer, got 2.0"),
    ("encoder", "channels", 16.0, "channels must be an integer, got 16.0"),
    ("decoder", "n_phones", "24", "n_phones must be an integer, got '24'"),
    ("decoder", "seed", None, "seed must be an integer, got None"),
    ("capacity", "G", 0, "G must be >= 1, got 0"),
    ("decoder", "hidden", 0, "hidden must be >= 1"),
])
def test_checkpoint_metadata_of_a_wrong_type_or_range_is_refused(tmp_path, trained_k0,
                                                                section, name, value, message):
    """A K=0 bundle builds no codebook, so only the metadata's JSON types can
    tell a K of 0.0 or a G of 2.0 from an integer; a value its config
    refuses is a CheckpointError too."""
    save_models(tmp_path, trained_k0.models)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta[section][name] = value
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match=f"invalid model metadata in .*: {message}"):
        load_models(tmp_path)


def test_checkpoint_records_the_full_layout(tmp_path, trained):
    """`meta.json` records every parameter as ``[name, rows, cols]``, store by
    store, in the order `params.npy` holds their values: sorted by name
    within each store. A renamed, reordered or reshaped parameter changes
    this list, which a K=4 save recorded."""
    save_models(tmp_path, trained.models)
    assert json.loads((tmp_path / "meta.json").read_text())["params"] == [
        ["enc.attn.ln_b", 1, 16], ["enc.attn.ln_g", 1, 16], ["enc.attn.wk", 16, 16],
        ["enc.attn.wo", 16, 16], ["enc.attn.wq", 16, 16], ["enc.attn.wv", 16, 16],
        ["enc.conv.b", 1, 16], ["enc.conv.k", 48, 16], ["enc.conv.ln_b", 1, 16],
        ["enc.conv.ln_g", 1, 16], ["enc.proj.b", 1, 8], ["enc.proj.w", 16, 8],
        ["dec.embed", 24, 16], ["dec.fuse.b", 1, 24], ["dec.fuse.w", 24, 24],
        ["dec.sdec.conv1.b", 1, 24], ["dec.sdec.conv1.k", 120, 24], ["dec.sdec.conv2.b", 1, 24],
        ["dec.sdec.conv2.k", 72, 24], ["dec.sdec.out.b", 1, 16], ["dec.sdec.out.w", 24, 16],
        ["dec.sdec.skip.w", 24, 16], ["dec.tenc.attn.ln_b", 1, 16],
        ["dec.tenc.attn.ln_g", 1, 16], ["dec.tenc.attn.wk", 16, 16],
        ["dec.tenc.attn.wo", 16, 16], ["dec.tenc.attn.wq", 16, 16],
        ["dec.tenc.attn.wv", 16, 16], ["dec.tenc.conv.b", 1, 16], ["dec.tenc.conv.k", 48, 16],
        ["dec.tenc.conv.ln_b", 1, 16], ["dec.tenc.conv.ln_g", 1, 16],
        ["cb.entries", 4, 4],
    ]
    assert np.load(tmp_path / "params.npy").size == sum(
        store.values.size for store in trained.models.stores().values())


def test_failed_checkpoint_write_keeps_the_old_checkpoint(tmp_path, corpus, trained, monkeypatch):
    """A save that fails midway, as on a full disk, leaves the previous
    checkpoint's files, and what loads from them, unchanged."""
    ckpt = tmp_path / "ckpt"
    save_models(ckpt, trained.models)
    before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
    changed = load_models(ckpt)
    changed.decoder.store["embed"].data += 1.0
    real_open = Path.open

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(Path, "open", lambda self, *a, **k: DiskFull(real_open(self, *a, **k)))
    with pytest.raises(OSError, match="No space"):
        save_models(ckpt, changed)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
    utts = corpus.utterances[:1]
    npt.assert_array_equal(reconstruct(utts, load_models(ckpt))[0],
                           reconstruct(utts, trained.models)[0])


def test_torn_checkpoint_is_refused(tmp_path, trained, monkeypatch):
    """A save interrupted between its two renames leaves new parameters
    beside the old metadata, whose parameter digest no longer matches: the
    bundle is refused. So is a bundle saved before the digest was kept."""
    ckpt = tmp_path / "ckpt"
    save_models(ckpt, trained.models)
    changed = load_models(ckpt)
    changed.decoder.store["embed"].data += 1.0
    real_replace = os.replace

    def crash_before_meta(src, dst):
        if Path(dst).name == "meta.json":
            raise OSError("killed before the metadata rename")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_before_meta)
    with pytest.raises(OSError, match="killed"):
        save_models(ckpt, changed)
    monkeypatch.undo()
    with pytest.raises(CheckpointError, match="sha256"):
        load_models(ckpt)

    meta = json.loads((ckpt / "meta.json").read_text())
    del meta["params_sha256"]
    (ckpt / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match="retrain"):
        load_models(ckpt)


# ---------------------------------------------------------------------------
# the training-step graph
# ---------------------------------------------------------------------------


def step_graph(corpus, batch_size):
    """The graph of one quantized training step on the first utterances."""
    models = AutoencoderModels.build(
        EncoderConfig(seed=0),
        DecoderConfig(n_phones=corpus.inventory.size, seed=1),
        CapacityConfig(K=4, G=2),
    )
    models.codebook["entries"].data[...] = np.random.default_rng(2).normal(size=(4, 4))
    return reconstruction_graph(corpus.utterances[:batch_size], models, 0.25)


def count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_step_graph_size_independent_of_batch(corpus, monkeypatch):
    """A packed training step is one graph: a graph per utterance would grow
    with the batch (about 80 nodes per utterance)."""
    sizes = []
    backward = nc.Tensor.backward

    def counting_backward(loss):
        sizes[-1].append(count_nodes(loss))
        backward(loss)

    monkeypatch.setattr(nc.Tensor, "backward", counting_backward)
    for batch_size in (2, 8):
        sizes.append([])
        cfg = nc.TrainConfig(steps=2, seed=5, batch_size=batch_size)
        # step 0 bypasses the quantizer, step 1 quantizes
        with recipe(warmup=1):
            train_autoencoder(corpus, CapacityConfig(K=4, G=2), cfg)
    assert sizes[0] == sizes[1]
    assert len(sizes[0]) == 2 and max(sizes[0]) < 100


def test_step_graph_freed_by_reference_counting(corpus):
    """A step's values are freed once the caller drops them, while the loss
    lives; the loss's nodes are freed with the loss. Reference counting does
    both: no backward function holds a tensor, and the graph has no cycle."""
    gc.disable()
    try:
        graph = step_graph(corpus, 4)
        values = [weakref.ref(graph.word_features), weakref.ref(graph.output)]
        nodes = [weakref.ref(graph.word_features._node), weakref.ref(graph.output._node)]
        loss = graph.loss
        del graph
        assert all(ref() is None for ref in values)
        assert all(ref() is not None for ref in nodes)  # the loss still holds them
        loss.backward()
        del loss
        assert all(ref() is None for ref in nodes)
    finally:
        gc.enable()


def test_step_graph_keeps_only_what_backward_reads(corpus, monkeypatch):
    """Dropping a step's graph before backward frees the values no backward
    reads: the decoder output and the encoder's attention residual sum. The
    conv residual sum stays, since the output projection's backward reads
    it."""
    sums = []
    add = nc.add

    def recording_add(a, b):
        out = add(a, b)
        sums.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(nc, "add", recording_add)
    graph = step_graph(corpus, 4)
    # the encoder runs first: its sums are the positional input, the
    # attention residual and the conv residual
    attention_residual, conv_residual = sums[1], sums[2]
    output = weakref.ref(graph.output.data)
    loss = graph.loss
    del graph
    assert output() is None and attention_residual() is None
    assert conv_residual() is not None
    loss.backward()


def backward_functions_holding_tensors(root) -> list[str]:
    """The backward functions in the graph of ``root`` whose closures hold a
    tensor, directly or inside a tuple or list."""
    held, seen, stack = [], set(), [root._node]
    while stack:
        node = stack.pop()
        fn = node._backward
        items = [cell.cell_contents for cell in getattr(fn, "__closure__", None) or ()]
        while items:
            item = items.pop()
            if isinstance(item, nc.Tensor):
                held.append(fn.__qualname__)
                break
            if isinstance(item, (tuple, list)):
                items.extend(item)
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return held


def test_no_backward_function_holds_a_tensor(corpus, monkeypatch):
    """A backward function that held a tensor would keep its value alive
    until the loss is dropped, whether backward reads it or not. Checked on
    the graphs of a warm-up and a quantized training step, a MINE step and
    a predictor step."""
    held = []  # per graph back-propagated
    backward = nc.Tensor.backward

    def checking_backward(loss):
        held.append(backward_functions_holding_tensors(loss))
        backward(loss)

    monkeypatch.setattr(nc.Tensor, "backward", checking_backward)
    with recipe(warmup=1):
        train_autoencoder(corpus, CapacityConfig(K=4, G=2),
                          nc.TrainConfig(steps=2, seed=5, batch_size=4))
    rng = np.random.default_rng(3)
    mine_estimate(rng.standard_normal((100, 3)), rng.integers(0, 4, size=(100, 2)),
                  MineConfig(steps=1, batch_size=32))
    texts = [u.spec.word_ids for u in corpus.utterances]
    codes = [rng.integers(0, 4, size=(len(t), 2)) for t in texts]
    train_predictor(texts, codes, PredictorConfig(word_vocab=corpus.config.word_vocab, K=4),
                    nc.TrainConfig(steps=1, seed=1, batch_size=4))
    assert held == [[], [], [], []]


def test_codebook_seeding_packs_bounded_passes(corpus, monkeypatch):
    """Training never packs more than PASS_UTTERANCES utterances: codebook
    seeding encodes its seed utterances (all 24 here) in bounded passes, as
    the final codes are."""
    sizes = []
    pack = decoder_module.pack_utterances

    def recording_pack(utts):
        sizes.append(len(utts))
        return pack(utts)

    monkeypatch.setattr(decoder_module, "pack_utterances", recording_pack)
    # both shards of each batch in this process, so that every pack is seen
    monkeypatch.setattr(shards, "_two_cpus", lambda: False)
    with recipe(warmup=1):
        train_autoencoder(corpus, CapacityConfig(K=4, G=2),
                          nc.TrainConfig(steps=2, seed=5, batch_size=4))
    # warm-up batch (two shards), seeding passes, quantized batch (two
    # shards), final-code passes
    assert sizes == [2, 2, PASS_UTTERANCES, 24 - PASS_UTTERANCES, 2, 2,
                     PASS_UTTERANCES, 24 - PASS_UTTERANCES]


# ---------------------------------------------------------------------------
# experiment helpers
# ---------------------------------------------------------------------------


def test_word_pitch_readout_matches_truth(corpus):
    utt = corpus.utterances[0]
    readout = word_pitch_readout(utt.features, utt.alignment.word_edges)
    for value, word in zip(readout, utt.spec.words):
        if not math.isnan(value):
            assert abs(value - word.prosody.pitch_mean) < 0.12 * word.prosody.pitch_mean


def _phone_recovery(utt, output, templates):
    durations = np.diff(utt.alignment.phone_edges)
    return phone_recovery_accuracy(output, utt.spec.phone_ids, durations, templates)


def test_phone_recovery_on_clean_features(corpus):
    for utt in corpus.utterances:
        assert _phone_recovery(utt, utt.features, corpus.inventory.templates) == 1.0


@pytest.mark.parametrize("energy", [0.0, 0.1, 3.0, -1.0])
def test_phone_recovery_ignores_the_energy_channel(corpus, energy):
    for utt in corpus.utterances:
        output = utt.features.copy()
        output[:, ENERGY_CHANNEL] = energy
        assert _phone_recovery(utt, output, corpus.inventory.templates) == 1.0


def test_prosody_codes_equal_per_utterance_codes(corpus, trained):
    models = trained.models
    packed = prosody_codes(corpus.utterances, models)
    assert len(packed) == len(corpus.utterances)
    for block, utt in zip(packed, corpus.utterances):
        npt.assert_array_equal(block, prosody_codes([utt], models)[0])


def test_prosody_codes_peak_memory_bounded_by_one_pass(corpus, trained):
    """Encoding, or reconstructing, 48 utterances costs no more memory at
    its peak than 16, up to the spread of utterance lengths and the outputs
    kept: the passes are bounded, not one pack of everything."""
    assert PASS_UTTERANCES == 16

    def peak(evaluate, utts):
        tracemalloc.start()
        try:
            evaluate(utts, trained.models)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    everything = corpus.utterances * 2
    for evaluate in (prosody_codes, reconstruct):
        peak(evaluate, everything[:16])  # fill lazily built caches first
        assert peak(evaluate, everything) <= 1.5 * peak(evaluate, everything[:16]), evaluate


def test_training_keeps_the_codes_of_its_utterances(corpus, trained):
    # the fixture trains on every utterance, in corpus order
    assert len(trained.codes) == len(corpus.utterances)
    for kept, fresh in zip(trained.codes, prosody_codes(corpus.utterances, trained.models)):
        npt.assert_array_equal(kept, fresh)


@pytest.mark.parametrize("readout", [120.0, math.nan])
def test_transfer_r_undefined_is_nan(corpus, trained, monkeypatch, readout):
    """A constant output pitch, or no voiced word at all, has no correlation
    with the reference: r is NaN, not 0."""
    monkeypatch.setattr(experiments, "word_pitch_readout",
                        lambda features, edges: [readout] * (len(edges) - 1))
    prosody_r, clearness = run_transfer_experiment(
        trained.models, corpus, list(range(len(corpus.utterances))), n_pairs=4, seed=0
    )
    assert math.isnan(prosody_r)
    assert 0.0 <= clearness <= 1.0


def test_matched_pairs_props(corpus):
    pairs = matched_pairs(corpus, list(range(len(corpus.utterances))), n_pairs=10, seed=0)
    assert 0 < len(pairs) <= 10
    for a, b in pairs:
        assert a != b
        assert corpus.utterances[a].alignment.n_words == corpus.utterances[b].alignment.n_words


@pytest.mark.parametrize("n_pairs", [0, -3])
def test_matched_pairs_refuses_fewer_than_one_pair(corpus, n_pairs):
    """No pairs would leave transfer's mean empty (NaN), and a negative
    count would keep all pairs but the last few."""
    with pytest.raises(ValidationError, match=f"n_pairs >= 1, got {n_pairs}"):
        matched_pairs(corpus, list(range(len(corpus.utterances))), n_pairs, seed=0)


# ---------------------------------------------------------------------------
# sweep plumbing on a deliberately tiny configuration
# ---------------------------------------------------------------------------


TABLES = ("sweep.csv", "mi_curve.csv", "capacity_table.csv")


def tiny_sweep_config(**overrides) -> ExperimentConfig:
    fields = dict(
        capacities=(4, 0),  # not sorted: the tables keep the grid order
        corpus=CorpusConfig(n_utterances=20, seed=8),
        train=nc.TrainConfig(learning_rate=3e-3, steps=25, seed=0, batch_size=4),
        seeds=(1,),
        # 6 held-out utterances over word counts 2..6 always contain a
        # word-count-matched pair
        holdout_fraction=0.3,
        transfer_pairs=6,
        predictor_steps=30,
        mine=None,
    )
    return ExperimentConfig(**{**fields, **overrides})


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = tiny_sweep_config()
    return cfg, run_sweep(cfg, out), out


def test_sweep_outputs_byte_identical_between_runs(tmp_path):
    # 40 utterances of 2-6 words (about 160) give MINE the 100 words it needs
    cfg = ExperimentConfig(
        capacities=(4,),
        corpus=CorpusConfig(n_utterances=40, seed=3),
        train=nc.TrainConfig(learning_rate=3e-3, steps=12, seed=0, batch_size=4),
        seeds=(2,),
        holdout_fraction=0.3,
        transfer_pairs=4,
        predictor_steps=10,
        mine=MineConfig(steps=30, hidden=8, batch_size=64, eval_every=10, seed=4),
    )
    (first,) = run_sweep(cfg, tmp_path / "a")
    run_sweep(cfg, tmp_path / "b")
    assert first.status == "ok", first.error
    assert math.isfinite(first.mine_mi)
    for name in TABLES:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_row_count_and_schema(tiny_sweep):
    cfg, cells, out = tiny_sweep
    assert len(cells) == len(cfg.capacities) * len(cfg.seeds)
    text = (out / "sweep.csv").read_text()
    assert text.splitlines()[0].split(",") == CELL_COLUMNS
    # repr: NaN fields compare equal, and repr round-trips floats exactly
    assert [repr(c) for c in read_cells(out / "sweep.csv")] == [repr(c) for c in cells]


def test_sweep_all_cells_ok(tiny_sweep):
    _, cells, _ = tiny_sweep
    assert all(c.status == "ok" for c in cells), [c.error for c in cells]


def test_sweep_k0_row_semantics(tiny_sweep):
    _, cells, _ = tiny_sweep
    (cell,) = [c for c in cells if c.K == 0 and c.seed == 1]
    assert cell.capacity_nats == 0.0
    assert cell.plugin_mi == 0.0
    assert math.isnan(cell.predictor_accuracy)


def test_report_cli_round_trip(tiny_sweep, tmp_path):
    _, _, out = tiny_sweep
    rc = cli_main(["report", "--in", str(out), "--out", str(tmp_path / "tables")])
    assert rc == 0
    for name in TABLES:
        assert (tmp_path / "tables" / name).read_bytes() == (out / name).read_bytes(), name
    first_column = [line.split(",")[0] for line in (out / "mi_curve.csv").read_text().splitlines()]
    assert first_column == ["capacity_nats", repr(2 * math.log(4)), "0.0"]


def test_tables_round_trip_through_read_cells(tmp_path):
    nan = math.nan
    cells = [
        CellResult(K=8, G=2, seed=1, capacity_nats=2 * math.log(8), recon_mse=0.25, mine_mi=nan),
        CellResult(K=8, G=2, seed=2, capacity_nats=2 * math.log(8), recon_mse=0.5, mine_mi=1.5),
        CellResult(K=8, G=2, seed=3, capacity_nats=2 * math.log(8), recon_mse=9.0,
                   status="failed", error='ValueError: a, "quoted"\nsecond line'),
        CellResult(K=0, G=2, seed=1, capacity_nats=0.0, recon_mse=0.125, plugin_mi=0.0),
    ]
    write_tables(tmp_path / "a", cells)
    assert read_cells(tmp_path / "a" / "sweep.csv")[2].error == cells[2].error
    write_tables(tmp_path / "b", read_cells(tmp_path / "a" / "sweep.csv"))
    for name in TABLES:
        data = (tmp_path / "a" / name).read_bytes()
        assert data == (tmp_path / "b" / name).read_bytes(), name
        assert b"\r" not in data
    # one row per K in order of first appearance; means over ok cells, NaN skipped
    table = (tmp_path / "a" / "capacity_table.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in table[1:]] == [
        ["8", repr(2 * math.log(8)), repr(0.375)], ["0", "0.0", repr(0.125)],
    ]
    mi_curve = (tmp_path / "a" / "mi_curve.csv").read_text().splitlines()
    assert mi_curve[1:] == [f"{2 * math.log(8)!r},1.5,nan", "0.0,nan,0.0"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_interrupted_sweep_keeps_finished_cells(tmp_path, monkeypatch):
    real = experiments.train_autoencoder
    calls = []

    def train_then_interrupt(*args, **kwargs):
        calls.append(args[1].K)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_autoencoder", train_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(tiny_sweep_config(capacities=(0, 4)), tmp_path)
    assert calls == [0, 4]
    (cell,) = read_cells(tmp_path / "sweep.csv")
    assert (cell.K, cell.status) == (0, "ok")
    assert len((tmp_path / "capacity_table.csv").read_text().splitlines()) == 2
    assert not list(tmp_path.glob("*.tmp"))


def test_sweep_refuses_a_bad_k_before_training(tmp_path, monkeypatch):
    """The sweep config refuses the K when it is built, so no sweep starts."""
    calls = []
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigError, match="K must be >= 0, got -1"):
        run_sweep(tiny_sweep_config(capacities=(4, -1)), tmp_path / "out")
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_sweep_refuses_a_mine_setting_that_cannot_run_before_training(
    tmp_path, monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"capacities": [4], "mine": {"eval_every": 0}}))
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "eval_every" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value", [
    ("code_embed_dim", 8), ("learning_rate", 2e-3), ("ema_decay", 0.99),
    ("eval_smoothing", 0.9), ("eval_derangements", 16),
])
def test_sweep_refuses_a_mine_setting_that_is_a_constant(tmp_path, monkeypatch, capsys,
                                                         name, value):
    """The MINE settings no caller set are constants of ibvq.mi; a sweep
    config naming one, even at its value, is refused as an unknown field."""
    calls = []
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"capacities": [4], "mine": {"steps": 10, name: value}}))
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "mine section of the sweep config" in err and name in err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, message", [
    ({"groups": 3}, "divisible by groups 3"),
    ({"corpus": {"n_utterances": 1}}, "n_utterances >= 2"),
    ({"corpus": {"n_utterances": 2}, "holdout_fraction": 0.75}, "no utterances to train on"),
    ({"corpus": {"n_utterances": 10}}, "holds out 1 utterance(s), no two with the same word"),
    ({"transfer_pairs": 0}, "transfer_pairs must be >= 1, got 0"),
    ({"transfer_pairs": -3}, "transfer_pairs must be >= 1, got -3"),
    ({"predictor_steps": -1}, "predictor_steps must be >= 0, got -1"),
    ({"seeds": [1, 1]}, "distinct seeds"),
    ({"capacities": [4.0]}, "capacities must be a list of integers, got [4.0]"),
    ({"groups": 2.0}, "groups must be an integer, got 2.0"),
], ids=["groups", "n_utterances", "nothing_to_train", "no_transfer_pair", "zero_transfer_pairs",
        "negative_transfer_pairs", "negative_predictor_steps", "repeated_seed", "float_K",
        "float_G"])
def test_sweep_refuses_a_config_no_cell_can_run(tmp_path, monkeypatch, capsys, section, message):
    """A group count that does not divide the encoder's output, a corpus too
    small to hold an utterance out, a split that holds every utterance out,
    one whose held-out utterances hold no word-count-matched transfer pair,
    a transfer pair count below 1, a negative predictor step count, a seed
    named twice (its cell would count twice in the per-K means) or a K or G
    that is not an integer, fails the command, not every cell."""
    calls = []
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"capacities": [4], **section}))
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "sweep.csv").exists()


def _wrongly_typed_values() -> list:
    """One case per integer, number or integer-list field a JSON config
    sets: its sweep section (None for the sweep itself), its name, and a
    value of the wrong JSON type."""
    wrong = {int: 2.0, float: "0.5", tuple[int, ...]: [1.0]}
    sections = {"corpus": CorpusConfig, "train": nc.TrainConfig, "mine": MineConfig,
                None: ExperimentConfig}
    return [pytest.param(section, name, wrong[hint], id=f"{section or 'sweep'}.{name}")
            for section, cls in sections.items()
            for name, hint in typing.get_type_hints(cls).items() if hint in wrong]


WRONGLY_TYPED_VALUES = _wrongly_typed_values()


def test_every_number_field_of_a_json_config_is_probed():
    # CorpusConfig 14, TrainConfig 5, MineConfig 5, ExperimentConfig 6
    assert len(WRONGLY_TYPED_VALUES) == 30


@pytest.mark.parametrize("section, name, value", WRONGLY_TYPED_VALUES)
def test_sweep_refuses_a_value_of_the_wrong_json_type(tmp_path, monkeypatch, capsys,
                                                      section, name, value):
    """A JSON value whose type does not fit its field (2.0 for an integer,
    "0.5" for a number, [1.0] for a list of integers) exits 1 naming the
    section and the field, before a corpus is built or a cell trains."""
    calls = []
    monkeypatch.setattr(experiments, "build_corpus", lambda *a: calls.append(a))
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    setting = {section: {name: value}} if section else {name: value}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"capacities": [4], **setting}))
    assert cli_main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    where = f"{section} section of the sweep config" if section else "sweep config"
    assert f"error: bad {where}: {name} must be " in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_gen_data_refuses_a_value_of_the_wrong_json_type(tmp_path, capsys):
    config = tmp_path / "corpus.json"
    config.write_text('{"n_utterances": 30.0}\n')
    assert cli_main(["gen-data", "--config", str(config), "--out", str(tmp_path / "corpus")]) == 1
    err = capsys.readouterr().err
    assert err == "error: bad corpus config: n_utterances must be an integer, got 30.0\n"
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("name, value", [
    ("pitch_jitter", -1.0), ("slope_jitter", -1.0), ("energy_jitter", -1.0),
    ("duration_jitter", -1.0), ("noise_sigma", -1.0), ("noise_sigma", math.nan),
    ("pitch_jitter", math.inf), ("zipf_exponent", -math.inf), ("zipf_exponent", math.nan),
    ("zipf_exponent", -182.0), ("tempo_flip_prob", 2.0), ("tempo_flip_prob", -0.5),
])
def test_gen_data_refuses_a_value_out_of_range(tmp_path, capsys, name, value):
    """A corpus setting numpy would refuse, or one that would write a corpus
    of NaN features or sampling weights, exits 1 naming the field, without
    a traceback. A Zipf exponent below about -181 overflows the weights of
    the 50 default words."""
    config = tmp_path / "corpus.json"
    config.write_text(json.dumps({"n_utterances": 5, name: value}))
    assert cli_main(["gen-data", "--config", str(config), "--out", str(tmp_path / "corpus")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


# a corpus and a sweep small enough that every range case that runs
# finishes in well under a second
GATE_CORPUS = {"n_utterances": 40, "seed": 3}
GATE_SWEEP = {
    "capacities": [4], "seeds": [1], "corpus": GATE_CORPUS,
    "train": {"steps": 2, "batch_size": 4}, "holdout_fraction": 0.3, "transfer_pairs": 2,
    "predictor_steps": 2, "mine": {"steps": 2, "hidden": 4, "batch_size": 16, "eval_every": 1},
}
RANGE_PROBES = (-1, 0, math.nan, math.inf, -math.inf)


def _range_cases() -> list:
    """One case per integer or number field that `cli._config` reads (the
    `gen-data` corpus config, and the sweep's top level and its corpus,
    train and mine sections) and per value of RANGE_PROBES: the command,
    the JSON config, the field and the value."""
    targets = [("gen-data", None, CorpusConfig), ("sweep", "corpus", CorpusConfig),
               ("sweep", "train", nc.TrainConfig), ("sweep", "mine", MineConfig),
               ("sweep", None, ExperimentConfig)]
    cases = []
    for command, section, cls in targets:
        base = GATE_CORPUS if command == "gen-data" else GATE_SWEEP
        for name, hint in typing.get_type_hints(cls).items():
            if hint not in (int, float):
                continue
            for value in RANGE_PROBES:
                if section:
                    config = {**base, section: {**base[section], name: value}}
                else:
                    config = {**base, name: value}
                cases.append(pytest.param(command, config, name,
                                          id=f"{command}:{section or 'top'}.{name}={value}"))
    return cases


RANGE_CASES = _range_cases()


def test_every_number_field_of_a_json_config_is_range_probed():
    # 14 corpus fields for gen-data; 14 corpus, 5 train, 5 mine and 4 top-level
    # fields for the sweep; five values each
    assert len(RANGE_CASES) == 5 * (14 + 14 + 5 + 5 + 4)


@pytest.mark.parametrize("command, config, name", RANGE_CASES)
def test_every_number_field_is_range_checked(tmp_path, capsys, command, config, name):
    """-1, 0, NaN or +-Infinity in any integer or number field of a config
    either exits 1 with a message naming the field and writes nothing, or
    exits 0 with outputs that read back finite; never a traceback."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = cli_main([command, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if rc == 1:
        assert err.startswith("error: ") and name in err, err
        assert not out.exists()
        return
    assert rc == 0, err
    if command == "gen-data":
        assert all(np.isfinite(u.features).all() for u in read_corpus(out).utterances)
    else:
        (cell,) = read_cells(out / "sweep.csv")
        assert cell.status == "ok", cell.error
        floats = {f.name: getattr(cell, f.name) for f in dataclasses.fields(CellResult)
                  if f.type == "float"}
        assert [k for k, v in floats.items() if not math.isfinite(v)] == []


MISSING = "no-such-path"


@pytest.mark.parametrize("argv, config, field", [
    (["gen-data", "--seed", "-1"], GATE_CORPUS, "seed"),
    (["gen-data"], {**GATE_CORPUS, "seed": -1}, "seed"),
    (["sweep"], {**GATE_SWEEP, "corpus": {**GATE_CORPUS, "seed": -1}}, "seed"),
    (["sweep", "--seed", "-1"], GATE_SWEEP, "seeds"),
    (["sweep"], {**GATE_SWEEP, "seeds": [2, -1]}, "seeds"),
    (["sweep"], {**GATE_SWEEP, "train": {"steps": 2, "seed": -1}}, "seed"),
    (["sweep"], {**GATE_SWEEP, "mine": {**GATE_SWEEP["mine"], "seed": -1}}, "seed"),
    # the corpus and the checkpoint do not exist: the seed is refused first
    (["train", "--corpus", MISSING, "--K", "4", "--seed", "-1"], None, "seed"),
    (["mi", "--ckpt", MISSING, "--corpus", MISSING, "--seed", "-1"], None, "seed"),
    (["predict", "--ckpt", MISSING, "--text", MISSING, "--seed", "-1"], None, "seed"),
], ids=["gen-data --seed", "gen-data config", "sweep corpus", "sweep --seed", "sweep seeds",
        "sweep train", "sweep mine", "train --seed", "mi --seed", "predict --seed"])
def test_a_negative_seed_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                   argv, config, field):
    """np.random.default_rng refuses a negative seed; every config that
    holds one refuses it first, so the command exits 1 naming the field,
    without a traceback, and builds no corpus and trains no cell."""
    calls = []
    monkeypatch.setattr(experiments, "build_corpus", lambda *a: calls.append(a))
    monkeypatch.setattr(experiments, "train_autoencoder", lambda *a, **k: calls.append(a))
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {field} must be >= 0, got -1\n"
    assert calls == []
    assert not out.exists()


def test_cli_defaults_are_the_config_defaults():
    """`ibvq train`, `ibvq mi` and `ibvq predict` default to the recipe the
    configs define: TrainConfig's rate, batch and commitment cost,
    CapacityConfig's G, and the default sweep's train, MINE and predictor
    steps."""
    parser = cli_module.build_parser()
    sweep, train_cfg = ExperimentConfig(), nc.TrainConfig()
    train = parser.parse_args(["train", "--corpus", "c", "--K", "4", "--out", "o"])
    assert train.G == CapacityConfig(K=4).G == 2
    assert train.learning_rate == train_cfg.learning_rate == 3e-3
    assert train.batch_size == train_cfg.batch_size == 8
    assert train.commitment_cost == train_cfg.commitment_cost == 0.25
    assert train.steps == sweep.train.steps == 5000
    mi = parser.parse_args(["mi", "--ckpt", "c", "--corpus", "c", "--out", "o"])
    assert mi.mine_steps == sweep.mine.steps == 1500
    predict = parser.parse_args(["predict", "--ckpt", "c", "--text", "t", "--out", "o"])
    assert predict.predictor_steps == sweep.predictor_steps == 400


def test_no_config_or_record_defines_validate():
    """Every config, the phone inventory and the prosody factor check their
    own fields when they are built; none keeps a `validate` to call later."""
    checked, with_validate = set(), []
    for info in pkgutil.walk_packages(ibvq.__path__, "ibvq."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != info.name:
                continue
            if name.endswith("Config") or name in ("PhoneInventory", "ProsodyFactor"):
                checked.add(name)
                if hasattr(cls, "validate"):
                    with_validate.append(f"{info.name}.{name}")
    assert with_validate == []
    assert checked >= {"EncoderConfig", "DecoderConfig", "PredictorConfig", "MineConfig",
                       "CorpusConfig", "ExperimentConfig", "TrainConfig", "CapacityConfig",
                       "PhoneInventory", "ProsodyFactor"}


def test_sweep_exits_2_when_a_cell_fails(tmp_path, monkeypatch, capsys):
    """A failed cell stays isolated (every table is written, the other cell
    runs) and is listed on stderr, and the command then exits 2."""
    real = experiments.train_autoencoder

    def fail_at_k4(*args, **kwargs):
        if args[1].K == 4:
            raise TrainingError("loss diverged (non-finite) at step 3")
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "train_autoencoder", fail_at_k4)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "capacities": [4, 0], "seeds": [1], "corpus": {"n_utterances": 20, "seed": 8},
        "train": {"steps": 5, "batch_size": 4}, "holdout_fraction": 0.3,
        "transfer_pairs": 6, "predictor_steps": 5, "mine": None,
    }))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert [(c.K, c.status) for c in read_cells(out / "sweep.csv")] == [(4, "failed"), (0, "ok")]
    assert all((out / name).exists() for name in TABLES)
    assert "failed K=4 seed=1: TrainingError: loss diverged" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI end-to-end on a tiny corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    cfg_path = root / "corpus.json"
    cfg_path.write_text('{"n_utterances": 14, "seed": 4}\n')
    assert cli_main(["gen-data", "--config", str(cfg_path), "--out", str(corpus_dir)]) == 0
    ckpt = root / "ckpt"
    assert (
        cli_main(
            ["train", "--corpus", str(corpus_dir), "--K", "4", "--seed", "1",
             "--steps", "25", "--out", str(ckpt)]
        )
        == 0
    )
    return root, corpus_dir, ckpt


def test_cli_import_leaves_scipy_unloaded():
    code = (
        "import sys, ibvq.harness.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(experiments.__file__).parents[2])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_gen_data_deterministic(cli_workspace, tmp_path):
    root, corpus_dir, _ = cli_workspace
    again = tmp_path / "corpus2"
    assert cli_main(["gen-data", "--config", str(root / "corpus.json"), "--out", str(again)]) == 0
    names = ["features.npy", "manifest.json", "specs.jsonl"]
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert (corpus_dir / name).read_bytes() == (again / name).read_bytes()


def test_cli_reconstruct_and_transfer(cli_workspace, tmp_path):
    root, corpus_dir, ckpt = cli_workspace
    out1 = tmp_path / "rec.csv"
    assert cli_main(["reconstruct", "--ckpt", str(ckpt), "--utt", "utt_0000",
                     "--out", str(out1)]) == 0
    assert out1.is_file()
    # deterministic rerun produces identical bytes
    out2 = tmp_path / "rec2.csv"
    cli_main(["reconstruct", "--ckpt", str(ckpt), "--utt", "utt_0000", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()

    corpus = read_corpus(corpus_dir)
    [(ref, target)] = matched_pairs(corpus, list(range(len(corpus.utterances))), 1, seed=0)
    argv = ["transfer", "--ckpt", str(ckpt), "--ref", corpus.utterances[ref].spec.utt_id,
            "--target", corpus.utterances[target].spec.utt_id, "--out"]
    out3, out4 = tmp_path / "tra.csv", tmp_path / "tra2.csv"
    assert cli_main(argv + [str(out3)]) == 0
    assert cli_main(argv + [str(out4)]) == 0
    assert out3.read_bytes() == out4.read_bytes()


def test_cli_query_reads_only_the_named_utterances(cli_workspace, tmp_path):
    _, corpus_dir, ckpt = cli_workspace
    expect = tmp_path / "expect.csv"
    assert cli_main(["reconstruct", "--ckpt", str(ckpt), "--utt", "utt_0003",
                     "--out", str(expect)]) == 0
    damaged = tmp_path / "corpus"
    shutil.copytree(corpus_dir, damaged)
    manifest = json.loads((damaged / "manifest.json").read_text())
    first_row = manifest["frame_offsets"][manifest["utterances"].index("utt_0005")]
    features = np.load(damaged / "features.npy", mmap_mode="r+")
    features[first_row + 1, 3] = np.nan
    features.flush()
    del features
    out = tmp_path / "rec.csv"
    assert cli_main(["reconstruct", "--ckpt", str(ckpt), "--corpus", str(damaged),
                     "--utt", "utt_0003", "--out", str(out)]) == 0
    assert out.read_bytes() == expect.read_bytes()
    # the damaged utterance itself, and a command that uses the whole corpus, still fail
    assert cli_main(["reconstruct", "--ckpt", str(ckpt), "--corpus", str(damaged),
                     "--utt", "utt_0005", "--out", str(tmp_path / "x.csv")]) == 1
    assert cli_main(["mi", "--ckpt", str(ckpt), "--corpus", str(damaged),
                     "--out", str(tmp_path / "mi.csv")]) == 1


@pytest.mark.parametrize("edit, message", [
    (lambda inv: inv.update(templates=inv["templates"][:3]), "field lengths disagree"),
    (lambda inv: inv.update(voiced=[1] * len(inv["voiced"])), "one voiced and one unvoiced"),
], ids=["three_template_rows", "no_unvoiced_phone"])
def test_cli_refuses_a_corpus_with_a_bad_inventory(cli_workspace, tmp_path, capsys,
                                                    edit, message):
    """A manifest inventory the phone inventory would refuse when built is a
    CorpusFormatError: `ibvq train` exits 1 and trains nothing."""
    _, corpus_dir, _ = cli_workspace
    bad = tmp_path / "corpus"
    shutil.copytree(corpus_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    edit(manifest["inventory"])
    (bad / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusFormatError, match=message):
        read_corpus(bad)
    capsys.readouterr()
    assert cli_main(["train", "--corpus", str(bad), "--K", "4", "--seed", "1",
                     "--steps", "1", "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and message in err
    assert not (tmp_path / "ckpt").exists()


def _set_first(manifest: dict, key: str, value) -> None:
    """Set the first value of inventory field ``key``, or field ``key`` of
    the first lexicon word, to ``value``."""
    if key in manifest["inventory"]:
        values = manifest["inventory"][key]
        if isinstance(values[0], list):
            values = values[0]
        values[0] = value
    else:
        manifest["lexicon"][0][key] = value


@pytest.mark.parametrize("key, value, message", [
    ("templates", math.nan, "templates must be finite, got nan"),
    ("base_durations", math.nan, "base_durations must be finite and > 0, got nan"),
    ("base_durations", -5, "base_durations must be finite and > 0, got -5.0"),
    ("voiced", 2, "voiced entries must be 0 or 1, got 2"),
    ("base_pitch", math.nan, "base_pitch must be finite, got nan"),
    ("preferred_tempo", 7, "preferred_tempo must be one of (0.75, 1.0, 1.25), got 7.0"),
], ids=["nan_template", "nan_base_duration", "negative_base_duration", "voiced_2",
        "nan_base_pitch", "tempo_7"])
def test_cli_refuses_a_manifest_value_out_of_range(cli_workspace, tmp_path, capsys,
                                                   key, value, message):
    """A manifest inventory or lexicon value out of its range is a
    CorpusFormatError naming the value: `ibvq train` exits 1, without a
    traceback, and writes nothing."""
    _, corpus_dir, _ = cli_workspace
    bad = tmp_path / "corpus"
    shutil.copytree(corpus_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    _set_first(manifest, key, value)
    (bad / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CorpusFormatError, match=re.escape(message)):
        read_corpus(bad, ["utt_0000"])
    capsys.readouterr()
    assert cli_main(["train", "--corpus", str(bad), "--K", "4", "--seed", "1",
                     "--steps", "1", "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: manifest {bad / 'manifest.json'} is incomplete or invalid: {message}\n"
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("groups", ["3", "16"])
def test_cli_train_refuses_a_bad_g_before_reading_the_corpus(tmp_path, monkeypatch, capsys,
                                                             groups):
    """A G that does not divide the encoder's width exits 1 naming groups,
    before the corpus is read and without writing anything."""
    calls = []
    monkeypatch.setattr(cli_module, "read_corpus", lambda *a: calls.append(a))
    out = tmp_path / "ckpt"
    assert cli_main(["train", "--corpus", str(tmp_path), "--K", "4", "--G", groups,
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: acoustic_dim 8 must be divisible by groups {groups}\n"
    assert calls == [] and not out.exists()


def test_cli_refuses_a_version_1_corpus(cli_workspace, tmp_path, capsys):
    _, corpus_dir, _ = cli_workspace
    old = tmp_path / "corpus"
    shutil.copytree(corpus_dir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["version"] = 1
    (old / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli_main(["train", "--corpus", str(old), "--K", "4", "--seed", "1",
                     "--steps", "1", "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "version 1" in err and "ibvq gen-data" in err


def test_cli_predict_codes(cli_workspace, tmp_path, monkeypatch):
    root, corpus_dir, ckpt = cli_workspace
    predicted = []

    def keep(*args, **kwargs):
        predicted.append(predict_codes(*args, **kwargs))
        return predicted[-1]

    monkeypatch.setattr(cli_module, "predict_codes", keep)
    text = tmp_path / "words.txt"
    text.write_text("0 1 2\n")
    out = tmp_path / "codes.csv"
    rc = cli_main(["predict", "--ckpt", str(ckpt), "--text", str(text),
                   "--predictor-steps", "20", "--out", str(out)])
    assert rc == 0
    # one line of G comma-separated integers per word, read back exactly
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert all(len(line.split(",")) == 2 and all(v.isdigit() for v in line.split(","))
               for line in lines), lines
    codes = np.loadtxt(out, delimiter=",", dtype=np.int64, ndmin=2)
    npt.assert_array_equal(codes, predicted[0])
    assert codes.shape == (3, 2)
    assert np.all((codes >= 0) & (codes < 4))


def test_cli_parser_is_built_once_and_each_call_gets_its_own_defaults(
    cli_workspace, tmp_path, monkeypatch
):
    """`main` parses every call with one parser, and an option one call
    sets does not carry over to the next: `mi` and `predict` without
    --seed see seed 0 after a `predict --seed 7`."""
    assert cli_module.build_parser() is cli_module.build_parser()
    _, corpus_dir, ckpt = cli_workspace
    seen = []

    def fit_predictor(corpus, models, train_idx, codes, steps, seed):
        seen.append(("predict", seed))
        raise IbvqError("stop")

    def mi_analysis(corpus, models, indices, codes, mine_cfg):
        seen.append(("mi", mine_cfg.seed))
        raise IbvqError("stop")

    monkeypatch.setattr(cli_module, "fit_predictor", fit_predictor)
    monkeypatch.setattr(cli_module, "mi_analysis", mi_analysis)
    text = tmp_path / "words.txt"
    text.write_text("0 1 2\n")
    predict = ["predict", "--ckpt", str(ckpt), "--text", str(text), "--out", str(tmp_path / "p")]
    mi = ["mi", "--ckpt", str(ckpt), "--corpus", str(corpus_dir), "--out", str(tmp_path / "m")]
    for argv in ([*predict, "--seed", "7"], mi, predict):
        assert cli_main(argv) == 1
    assert seen == [("predict", 7), ("mi", 0), ("predict", 0)]


MATRIX_SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 20))
FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308])


@pytest.mark.parametrize("dtype, fmt, elements", [
    (np.float64, "%.17g", FLOATS),
    (np.int64, "%d", st.integers(-2**63, 2**63 - 1)),
], ids=["float", "int"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_save_rows_writes_what_savetxt_writes(tmp_path, dtype, fmt, elements, data):
    rows = data.draw(hnp.arrays(dtype, MATRIX_SHAPES, elements=elements))
    expect = io.BytesIO()
    np.savetxt(expect, rows, fmt=fmt, delimiter=",")
    cli_module._save_rows(str(tmp_path / "rows.csv"), rows, fmt)
    assert (tmp_path / "rows.csv").read_bytes() == expect.getvalue()


def test_cli_error_exit_codes(cli_workspace, tmp_path, capsys):
    root, corpus_dir, ckpt = cli_workspace
    # unknown utterance -> validation error -> exit 1
    rc = cli_main(["reconstruct", "--ckpt", str(ckpt), "--utt", "nope",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    # an output that cannot be written is a message and exit 1, not a traceback
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("")
    unwritable = [
        ["reconstruct", "--ckpt", str(ckpt), "--utt", "utt_0003",
         "--out", str(tmp_path / "missing" / "x.csv")],
        ["gen-data", "--config", str(root / "corpus.json"), "--out", str(not_a_dir / "corpus")],
    ]
    for argv in unwritable:
        capsys.readouterr()
        assert cli_main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # a sweep.csv with a missing column or a value of the wrong type: exit 1
    # with a message naming the file and the column
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    row = dict.fromkeys(CELL_COLUMNS, "0.5") | {"K": "4", "G": "2", "seed": "1",
                                                 "status": "ok", "error": ""}
    bad_tables = [
        ("K,G,seed\n4,2,1\n", "'capacity_nats'"),
        (",".join(row) + "\n" + ",".join({**row, "recon_mse": "abc"}.values()) + "\n",
         "'recon_mse'"),
    ]
    for text, column in bad_tables:
        (sweep / "sweep.csv").write_text(text)
        capsys.readouterr()
        assert cli_main(["report", "--in", str(sweep), "--out", str(tmp_path / "tables")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sweep.csv" in err and column in err, err
    # K=0 prediction is a config error -> exit 1
    ckpt0 = tmp_path / "ckpt0"
    assert cli_main(["train", "--corpus", str(corpus_dir), "--K", "0", "--seed", "1",
                     "--steps", "10", "--out", str(ckpt0)]) == 0
    text = tmp_path / "w.txt"
    text.write_text("0\n")
    rc = cli_main(["predict", "--ckpt", str(ckpt0), "--text", str(text),
                   "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    # so is MI analysis of K=0, refused before the corpus is read
    capsys.readouterr()
    rc = cli_main(["mi", "--ckpt", str(ckpt0), "--corpus", str(tmp_path / "no-corpus"),
                   "--out", str(tmp_path / "mi.csv")])
    assert rc == 1
    assert "disabled bottleneck" in capsys.readouterr().err
    # a malformed config is a config error -> exit 1 with a message, no output
    malformed = [
        ("sweep", {"train": {"steps": 5, "bogus": 1}}),
        ("sweep", {"corpus": [1, 2]}),
        ("sweep", {"mine": {"stepz": 3}}),
        ("sweep", {"train": None}),
        ("sweep", {"capacitiez": [4]}),
        ("sweep", {"seeds": 5}),
        ("sweep", {"capacities": [4, -1]}),
        ("sweep", {"groups": 0}),
        ("sweep", [1, 2]),
        ("gen-data", [1, 2]),
        ("gen-data", {"n_utts": 3}),
    ]
    config = tmp_path / "config.json"
    for command, data in malformed:
        config.write_text(json.dumps(data))
        capsys.readouterr()
        rc = cli_main([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1, (command, data)
        assert capsys.readouterr().err.startswith("error: "), (command, data)
        assert not (tmp_path / "out").exists()


def test_cli_train_refuses_a_non_finite_learning_rate(cli_workspace, tmp_path, capsys):
    _, corpus_dir, _ = cli_workspace
    rc = cli_main(["train", "--corpus", str(corpus_dir), "--K", "4", "--learning-rate", "nan",
                   "--steps", "5", "--out", str(tmp_path / "ckpt")])
    assert rc == 1
    assert "learning_rate must be finite" in capsys.readouterr().err
    assert not (tmp_path / "ckpt").exists()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_bundle_params(root):
    """A bundle's parameters by name, as its metadata lays out `params.npy`."""
    layout = json.loads((root / "meta.json").read_text())["params"]
    values = np.load(root / "params.npy")
    ends = np.cumsum([rows * cols for _, rows, cols in layout])
    return {name: part.reshape(rows, cols)
            for (name, rows, cols), part in zip(layout, np.split(values, ends[:-1]))}


def save_bundle_params(root, params):
    """Replace a bundle's parameters, recording their layout and digest in
    its metadata."""
    meta = json.loads((root / "meta.json").read_text())
    meta["params"] = [[name, *value.shape] for name, value in params.items()]
    meta["params_sha256"] = nc.save_params(
        root / "params.npy", np.concatenate([value.ravel() for value in params.values()]))
    (root / "meta.json").write_text(json.dumps(meta))


def assert_reconstruct_refuses(ckpt, tmp_path, capsys, *fragments):
    """`ibvq reconstruct` on ``ckpt`` exits 1 with an error naming every
    fragment, and writes no output file."""
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert cli_main(["reconstruct", "--ckpt", str(ckpt), "--utt", "utt_0000",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for fragment in fragments:
        assert fragment in err
    assert not out.exists()


def test_cli_rejects_checkpoint_missing_a_parameter(cli_workspace, tmp_path, capsys):
    root, corpus_dir, ckpt = cli_workspace
    broken = tmp_path / "broken"
    broken.mkdir()
    for name in ("meta.json", "corpus_path.txt"):
        (broken / name).write_bytes((ckpt / name).read_bytes())
    params = read_bundle_params(ckpt)
    dropped = next(k for k in params if k.startswith("dec."))
    del params[dropped]
    save_bundle_params(broken, params)
    with pytest.raises(CheckpointError, match=f"parameter '{dropped}' missing"):
        load_models(broken)
    assert_reconstruct_refuses(broken, tmp_path, capsys, f"'{dropped}'")


def test_cli_rejects_codebook_entries_in_a_k0_checkpoint(cli_workspace, tmp_path, capsys):
    _, corpus_dir, ckpt = cli_workspace
    ckpt0 = tmp_path / "ckpt0"
    assert cli_main(["train", "--corpus", str(corpus_dir), "--K", "0", "--seed", "1",
                     "--steps", "1", "--out", str(ckpt0)]) == 0
    params = read_bundle_params(ckpt0)
    params["cb.entries"] = read_bundle_params(ckpt)["cb.entries"]
    save_bundle_params(ckpt0, params)
    assert_reconstruct_refuses(ckpt0, tmp_path, capsys,
                               "(K=0, G=2): unknown parameter 'cb.entries'")


def test_cli_refuses_codebook_entries_of_another_k(cli_workspace, tmp_path, capsys):
    """A codebook with more rows than the metadata's K is refused on load,
    before any code could index past K."""
    _, _, ckpt = cli_workspace
    wrong = tmp_path / "wrong"
    shutil.copytree(ckpt, wrong)
    params = read_bundle_params(wrong)
    params["cb.entries"] = np.vstack([params["cb.entries"], params["cb.entries"]])
    save_bundle_params(wrong, params)
    with pytest.raises(CheckpointError, match=r"\(K=4, G=2\): "
                       r"parameter 'cb.entries' shape \(8, 4\) != expected \(4, 4\)"):
        load_models(wrong)
    assert_reconstruct_refuses(wrong, tmp_path, capsys, "'cb.entries' shape (8, 4)")


@pytest.mark.parametrize("name", ["dec.embed", "cb.entries"])
def test_cli_refuses_non_finite_parameters(cli_workspace, tmp_path, capsys, name):
    _, _, ckpt = cli_workspace
    bad = tmp_path / "bad"
    shutil.copytree(ckpt, bad)
    params = read_bundle_params(bad)
    params[name][0, 0] = np.nan
    save_bundle_params(bad, params)
    assert_reconstruct_refuses(bad, tmp_path, capsys, f"parameter '{name}' in ",
                               "has non-finite values")


def test_cli_refuses_a_checkpoint_with_a_duration_head(cli_workspace, tmp_path, capsys):
    _, _, ckpt = cli_workspace
    old = tmp_path / "old"
    shutil.copytree(ckpt, old)
    # the layout written while the decoder carried a duration head
    meta = json.loads((old / "meta.json").read_text())
    meta["decoder"]["duration_hidden"] = 16
    (old / "meta.json").write_text(json.dumps(meta))
    params = read_bundle_params(old)
    shapes = {"conv1.k": (48, 16), "conv1.b": (1, 16), "conv2.k": (48, 16),
              "conv2.b": (1, 16), "out.w": (16, 1), "out.b": (1, 1)}
    params.update({f"dec.dur.{name}": np.zeros(shape) for name, shape in shapes.items()})
    save_bundle_params(old, params)
    assert_reconstruct_refuses(old, tmp_path, capsys, "duration_hidden", "retrain")


def test_cli_refuses_a_previous_format_checkpoint(cli_workspace, tmp_path, capsys):
    """A checkpoint in the earlier hand-written binary format, `params.ibvq`
    beside a `meta.json` that records no layout, is refused with a message
    to retrain."""
    _, _, ckpt = cli_workspace
    old = tmp_path / "old"
    old.mkdir()
    (old / "corpus_path.txt").write_bytes((ckpt / "corpus_path.txt").read_bytes())
    records = [struct.pack("<4sII", b"IBVQ", 1, len(read_bundle_params(ckpt)))]
    for name, value in read_bundle_params(ckpt).items():
        encoded = name.encode()
        records += [struct.pack("<I", len(encoded)), encoded, struct.pack("<II", *value.shape),
                    value.astype("<f8").tobytes()]
    blob = b"".join(records)
    (old / "params.ibvq").write_bytes(blob)
    meta = json.loads((ckpt / "meta.json").read_text())
    del meta["params"]
    meta["params_sha256"] = file_digest(old / "params.ibvq")
    (old / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match="retrain"):
        load_models(old)
    assert_reconstruct_refuses(old, tmp_path, capsys, "retrain")


# the text encoder's own names, by the reference encoder block's names that
# replaced them
OLD_TEXT_ENCODER_NAMES = {
    "attn.wq": "wq", "attn.wk": "wk", "attn.wv": "wv", "attn.wo": "wo",
    "attn.ln_g": "ln1_g", "attn.ln_b": "ln1_b", "conv.ln_g": "ln2_g", "conv.ln_b": "ln2_b",
}


def test_cli_refuses_a_checkpoint_with_the_old_text_encoder_names(cli_workspace, tmp_path,
                                                                  capsys):
    """A checkpoint saved while the text encoder had a block of its own
    lists eight `dec.tenc.*` parameters under their old names: it is refused
    with a message that names each missing and each unknown parameter and
    tells the user to retrain."""
    _, _, ckpt = cli_workspace
    old = tmp_path / "old"
    shutil.copytree(ckpt, old)
    params = {}
    for name, value in read_bundle_params(old).items():
        suffix = name.removeprefix("dec.tenc.")
        params[f"dec.tenc.{OLD_TEXT_ENCODER_NAMES[suffix]}"
               if suffix in OLD_TEXT_ENCODER_NAMES else name] = value
    save_bundle_params(old, params)
    with pytest.raises(CheckpointError) as refused:
        load_models(old)
    message = str(refused.value)
    assert message.endswith("; retrain the model")
    for name, old_name in OLD_TEXT_ENCODER_NAMES.items():
        assert f"parameter 'dec.tenc.{name}' missing" in message
        assert f"unknown parameter 'dec.tenc.{old_name}'" in message
    assert_reconstruct_refuses(old, tmp_path, capsys, "unknown parameter 'dec.tenc.ln1_g'",
                               "retrain the model")


def rewrite_npy(path, values, **save_kwargs):
    """``values`` written to ``path`` by `np.save`; returns the file's digest."""
    with path.open("wb") as fh:
        np.save(fh, values, **save_kwargs)
    return file_digest(path)


@pytest.mark.parametrize("damage", ["torn", "truncated", "trailing", "float32", "big_endian",
                                    "pickled"])
def test_cli_refuses_a_malformed_params_file(cli_workspace, tmp_path, capsys, damage):
    """A `params.npy` whose bytes no longer have the recorded digest is
    refused; so is one recorded with its digest that is cut short, has bytes
    after the array, holds another dtype, or holds a pickled array."""
    _, _, ckpt = cli_workspace
    bad = tmp_path / "bad"
    shutil.copytree(ckpt, bad)
    path = bad / "params.npy"
    values = np.load(path)
    blob = path.read_bytes()
    meta = json.loads((bad / "meta.json").read_text())
    if damage == "torn":
        rewrite_npy(path, values + 1.0)
        fragment = "sha256"
    elif damage in ("truncated", "trailing"):
        path.write_bytes(blob[:-8] if damage == "truncated" else blob + b"\x00" * 8)
        meta["params_sha256"] = file_digest(path)
        fragment = "not a readable .npy" if damage == "truncated" else "trailing bytes"
    elif damage == "pickled":
        meta["params_sha256"] = rewrite_npy(path, values.astype(object), allow_pickle=True)
        fragment = "allow_pickle=False"
    else:
        dtype = "<f4" if damage == "float32" else ">f8"
        meta["params_sha256"] = rewrite_npy(path, values.astype(dtype))
        fragment = f"holds a {dtype} array"
    (bad / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match=fragment):
        load_models(bad)
    assert_reconstruct_refuses(bad, tmp_path, capsys, fragment)


def test_cli_train_is_deterministic(cli_workspace, tmp_path):
    """Two `ibvq train` runs with the same seed, into two directories, write
    byte-identical checkpoints and loss curves."""
    _, corpus_dir, ckpt = cli_workspace
    again = tmp_path / "again"
    assert cli_main(["train", "--corpus", str(corpus_dir), "--K", "4", "--seed", "1",
                     "--steps", "25", "--out", str(again)]) == 0
    for name in ("params.npy", "meta.json", "loss_curve.csv"):
        assert (again / name).read_bytes() == (ckpt / name).read_bytes(), name


def test_cli_train_zero_steps(cli_workspace, tmp_path, capsys):
    _, corpus_dir, _ = cli_workspace
    out = tmp_path / "ckpt"
    rc = cli_main(["train", "--corpus", str(corpus_dir), "--K", "4", "--seed", "1",
                   "--steps", "0", "--out", str(out)])
    assert rc == 0
    assert "final loss" not in capsys.readouterr().out
    assert (out / "loss_curve.csv").read_text() == "step,total,mse,codebook,commitment\n"
    load_models(out)
