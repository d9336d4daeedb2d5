import dataclasses
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibvq.synthdata as sd
from ibvq.errors import ConfigError, CorpusFormatError, ShapeError, ValidationError


@pytest.fixture(scope="module")
def small_corpus():
    return sd.build_corpus(sd.CorpusConfig(n_utterances=30, seed=7))


def one_word_spec(pitch=200.0, slope=0.0, energy=1.0, tempo=1.0, phones=(0, 1), durations=(3, 4)):
    word = sd.WordToken(
        word_id=0,
        syllables=[list(phones)],
        durations=list(durations),
        prosody=sd.ProsodyFactor(pitch_mean=pitch, pitch_slope=slope, energy=energy, tempo=tempo),
    )
    return sd.UtteranceSpec(utt_id="utt_test", words=[word])


@pytest.fixture(scope="module")
def tiny_inventory():
    cfg = sd.CorpusConfig(n_utterances=1, phone_vocab=4, seed=3)
    return sd.make_inventory(cfg, np.random.default_rng(3))


# ---------------------------------------------------------------------------
# utterance specs of build_corpus
# ---------------------------------------------------------------------------


def specs_of(cfg):
    return [u.spec for u in sd.build_corpus(cfg).utterances]


def test_sample_corpus_deterministic():
    # corpus equality compares every utterance's spec, features and alignment
    cfg = sd.CorpusConfig(n_utterances=20, seed=7)
    assert sd.build_corpus(cfg) == sd.build_corpus(cfg)


def test_sample_corpus_rejects_empty():
    with pytest.raises(ConfigError):
        sd.CorpusConfig(n_utterances=0)


def test_sample_corpus_structure_exhaustive():
    specs = specs_of(sd.CorpusConfig(n_utterances=100, seed=11))
    assert len(specs) == 100
    for spec in specs:
        for word in spec.words:
            assert 1 <= len(word.syllables) <= 4
            for syl in word.syllables:
                assert 1 <= len(syl) <= 3
            assert all(2 <= d <= 8 for d in word.durations)
            dataclasses.replace(word.prosody)  # a rebuilt factor checks its ranges again


def test_zipf_repetition_present():
    specs = specs_of(sd.CorpusConfig(n_utterances=100, seed=5))
    counts = np.bincount([w for s in specs for w in s.word_ids])
    # most frequent word should dominate the median one by a wide margin
    assert counts.max() >= 5 * max(1, int(np.median(counts)))


# ---------------------------------------------------------------------------
# render_features
# ---------------------------------------------------------------------------


def test_render_voiced_channel0_normalization(tiny_inventory):
    inv = tiny_inventory
    voiced_phone = int(np.flatnonzero(inv.voiced)[0])
    spec = one_word_spec(pitch=200.0, slope=0.0, phones=(voiced_phone,), durations=(4,))
    feats, _ = sd.render_features(spec, inv, noise_seed=0, noise_sigma=0.0)
    expect = math.log(200.0 / 50.0) / math.log(500.0 / 50.0)  # = ln4/ln10 ~ 0.602
    npt.assert_allclose(feats[:, sd.F0_CHANNEL], expect, atol=1e-15)
    assert abs(expect - 0.602) < 1e-3


def test_render_unvoiced_channels_zero(tiny_inventory):
    inv = tiny_inventory
    unvoiced_phone = int(np.flatnonzero(~inv.voiced)[0])
    spec = one_word_spec(phones=(unvoiced_phone,), durations=(5,))
    feats, _ = sd.render_features(spec, inv, noise_seed=0, noise_sigma=0.0)
    npt.assert_array_equal(feats[:, sd.F0_CHANNEL], 0.0)
    npt.assert_array_equal(feats[:, sd.VOICING_CHANNEL], 0.0)


def test_render_channel0_exact_zero_even_with_noise(tiny_inventory):
    inv = tiny_inventory
    unvoiced_phone = int(np.flatnonzero(~inv.voiced)[0])
    spec = one_word_spec(phones=(unvoiced_phone,), durations=(5,))
    feats, _ = sd.render_features(spec, inv, noise_seed=1, noise_sigma=0.01)
    npt.assert_array_equal(feats[:, sd.F0_CHANNEL], 0.0)
    assert np.any(feats[:, sd.VOICING_CHANNEL] != 0.0)  # noise does land on channel 1


def test_render_total_frames_apply_tempo(tiny_inventory):
    spec = one_word_spec(tempo=1.25, phones=(0, 1), durations=(3, 5))
    feats, align = sd.render_features(spec, tiny_inventory, noise_seed=0)
    expect = sd.round_half_up(3 * 1.25) + sd.round_half_up(5 * 1.25)
    assert feats.shape[0] == expect == align.total_frames


def test_render_slope_and_clamp_warning(tiny_inventory):
    inv = tiny_inventory
    voiced_phone = int(np.flatnonzero(inv.voiced)[0])
    spec = one_word_spec(pitch=90.0, slope=-3.0, phones=(voiced_phone,) * 3, durations=(8, 8, 8))
    with pytest.warns(sd.PitchRangeWarning):
        feats, _ = sd.render_features(spec, inv, noise_seed=0, noise_sigma=0.0)
    f0 = sd.norm_to_f0(feats[:, sd.F0_CHANNEL])
    assert f0.min() >= sd.F0_FLOOR_HZ - 1e-9
    npt.assert_allclose(f0[0], 90.0, rtol=1e-12)  # word start is unclamped


def test_render_template_scaled_by_energy(tiny_inventory):
    inv = tiny_inventory
    spec = one_word_spec(energy=1.5, phones=(2,), durations=(3,))
    feats, _ = sd.render_features(spec, inv, noise_seed=0, noise_sigma=0.0)
    npt.assert_allclose(feats[0, sd.TEMPLATE_START :], inv.templates[2] * 1.5, atol=1e-15)
    npt.assert_allclose(feats[:, sd.ENERGY_CHANNEL], 1.5, atol=1e-15)


def reference_render(spec, inventory, noise_seed, noise_sigma):
    """The phone-by-phone renderer that ``render_features`` replaced."""
    channels = sd.TEMPLATE_START + inventory.template_channels
    realized = spec.realized_durations()
    total = sum(realized)
    feats = np.zeros((total, channels))
    phone_edges, word_edges = [0], [0]
    t = 0
    cursor = 0
    clipped = False
    for w in spec.words:
        word_start = t
        for syl in w.syllables:
            for p in syl:
                d = realized[cursor]
                cursor += 1
                rows = slice(t, t + d)
                if inventory.voiced[p]:
                    offsets = np.arange(t, t + d) - word_start
                    f0 = w.prosody.pitch_mean + w.prosody.pitch_slope * offsets
                    if f0.min() < sd.F0_FLOOR_HZ or f0.max() > sd.F0_CEIL_HZ:
                        clipped = True
                        f0 = np.clip(f0, sd.F0_FLOOR_HZ, sd.F0_CEIL_HZ)
                    feats[rows, sd.F0_CHANNEL] = sd.f0_to_norm(f0)
                    feats[rows, sd.VOICING_CHANNEL] = 1.0
                feats[rows, sd.ENERGY_CHANNEL] = w.prosody.energy
                feats[rows, sd.TEMPLATE_START:] = inventory.templates[p] * w.prosody.energy
                t += d
                phone_edges.append(t)
        word_edges.append(t)
    if clipped:
        warnings.warn(
            f"{spec.utt_id}: pitch contour clamped to "
            f"[{sd.F0_FLOOR_HZ:.0f}, {sd.F0_CEIL_HZ:.0f}] Hz",
            sd.PitchRangeWarning,
        )
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        feats[:, 1:] += rng.normal(0.0, noise_sigma, size=(total, channels - 1))
    edges = [np.asarray(e, dtype=np.int64) for e in (phone_edges, word_edges)]
    return feats, edges


def _with_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize(
    "cfg",
    [
        sd.CorpusConfig(n_utterances=40, seed=0),
        sd.CorpusConfig(n_utterances=40, seed=1),
        sd.CorpusConfig(n_utterances=40, seed=7),
        sd.CorpusConfig(n_utterances=40, seed=2, noise_sigma=0.0),
        # wide slopes push long words out of [50, 500] Hz
        sd.CorpusConfig(n_utterances=40, seed=5, slope_jitter=3.0),
    ],
    ids=["seed0", "seed1", "seed7", "noiseless", "clamped"],
)
def test_render_is_bit_identical_to_phone_loop(cfg):
    corpus, got_warnings = _with_warnings(sd.build_corpus, cfg)
    ref_warnings = []
    for i, utt in enumerate(corpus.utterances):
        args = (utt.spec, corpus.inventory, cfg.seed + i, cfg.noise_sigma)
        (ref_feats, ref_edges), caught = _with_warnings(reference_render, *args)
        ref_warnings += caught
        assert utt.features.tobytes() == ref_feats.tobytes()
        align = utt.alignment
        for got, want in zip((align.phone_edges, align.word_edges), ref_edges):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    assert got_warnings == ref_warnings
    assert (len(ref_warnings) > 0) == (cfg.slope_jitter == 3.0)


# ---------------------------------------------------------------------------
# alignment invariants
# ---------------------------------------------------------------------------


def test_alignment_nesting_holds_corpus_wide(small_corpus):
    for utt in small_corpus.utterances:
        phone_edges, word_edges = utt.alignment.phone_edges, utt.alignment.word_edges
        assert phone_edges[0] == 0 and (np.diff(phone_edges) > 0).all()
        assert set(word_edges.tolist()) <= set(phone_edges.tolist())
        assert word_edges[0] == 0 and word_edges[-1] == phone_edges[-1]
        assert utt.alignment.total_frames == utt.features.shape[0]
        npt.assert_array_equal(
            utt.alignment.phones_per_word(), utt.spec.phones_per_word()
        )


def test_prosody_recovery_from_channel0(small_corpus):
    """Un-normalizing the mean of channel 0 over a word's voiced frames
    recovers the pitch value at the word's voiced-frame midpoint."""
    checked = 0
    for utt in small_corpus.utterances:
        edges = utt.alignment.word_edges
        for w, word in enumerate(utt.spec.words):
            pros = word.prosody
            start, end = edges[w], edges[w + 1]
            voiced = utt.features[start:end, sd.VOICING_CHANNEL] > 0.5
            if voiced.sum() < 2:
                continue
            offsets = np.flatnonzero(voiced)
            true_f0 = pros.pitch_mean + pros.pitch_slope * offsets
            if true_f0.min() < sd.F0_FLOOR_HZ or true_f0.max() > sd.F0_CEIL_HZ:
                continue  # clamped words are flagged by the renderer instead
            mean_norm = utt.features[start:end, sd.F0_CHANNEL][voiced].mean()
            midpoint_f0 = pros.pitch_mean + pros.pitch_slope * offsets.mean()
            assert abs(mean_norm - sd.f0_to_norm(midpoint_f0)) < 0.01
            checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# corpus storage
# ---------------------------------------------------------------------------


def test_corpus_round_trip(tmp_path, small_corpus):
    sd.write_corpus(small_corpus, tmp_path / "corpus")
    loaded = sd.read_corpus(tmp_path / "corpus")
    assert loaded == small_corpus


def _with_utterance(corpus, index, **changes):
    utts = list(corpus.utterances)
    utts[index] = dataclasses.replace(utts[index], **changes)
    return dataclasses.replace(corpus, utterances=utts)


def _bumped(arr: np.ndarray) -> np.ndarray:
    """A copy of ``arr`` with its last element one larger."""
    out = arr.copy()
    out.reshape(-1)[-1] += 1
    return out


CORPUS_CHANGES = {
    "config": lambda c: dataclasses.replace(c, config=dataclasses.replace(c.config,
                                                                          noise_sigma=0.02)),
    "template_value": lambda c: dataclasses.replace(
        c, inventory=dataclasses.replace(c.inventory, templates=_bumped(c.inventory.templates))),
    "lexicon_word": lambda c: dataclasses.replace(
        c, lexicon=[*c.lexicon[:-1], dataclasses.replace(c.lexicon[-1], base_slope=0.5)]),
    "features": lambda c: _with_utterance(c, 2, features=_bumped(c.utterances[2].features)),
    "alignment": lambda c: _with_utterance(c, 2, alignment=sd.AlignmentHierarchy(
        phone_edges=_bumped(c.utterances[2].alignment.phone_edges),
        word_edges=_bumped(c.utterances[2].alignment.word_edges))),
}


@pytest.mark.parametrize("change", CORPUS_CHANGES)
def test_corpora_that_differ_in_one_part_compare_unequal(small_corpus, change):
    """Corpus equality compares the config, the inventory's arrays, the
    lexicon and every utterance's features and alignment; a corpus equals
    its write/read round trip (`test_corpus_round_trip`)."""
    changed = CORPUS_CHANGES[change](small_corpus)
    assert changed != small_corpus and small_corpus != changed
    assert CORPUS_CHANGES[change](small_corpus) == changed


def test_corpus_round_trip_is_bit_exact(tmp_path, small_corpus):
    first = small_corpus.utterances[0]
    features = first.features.copy()
    big = np.finfo(np.float64).max
    features[0, :4] = [-0.0, np.finfo(np.float64).smallest_subnormal, big, -big]
    corpus = dataclasses.replace(
        small_corpus,
        utterances=[dataclasses.replace(first, features=features), *small_corpus.utterances[1:]],
    )
    sd.write_corpus(corpus, tmp_path / "corpus")
    loaded = sd.read_corpus(tmp_path / "corpus")
    assert len(loaded.utterances) == len(corpus.utterances)
    for got, want in zip(loaded.utterances, corpus.utterances):
        assert got.features.dtype == np.float64
        assert got.features.tobytes() == want.features.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_default_corpus_round_trip_is_bit_exact(tmp_path, seed):
    corpus = sd.build_corpus(sd.CorpusConfig(seed=seed))
    sd.write_corpus(corpus, tmp_path / "corpus")
    loaded = sd.read_corpus(tmp_path / "corpus")
    assert len(loaded.utterances) == len(corpus.utterances)
    for got, want in zip(loaded.utterances, corpus.utterances):
        assert got.features.tobytes() == want.features.tobytes()
        assert repr(got.spec) == repr(want.spec)
        for level in ("phone_edges", "word_edges"):
            a, b = getattr(got.alignment, level), getattr(want.alignment, level)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


CORPUS_FILES = ["features.npy", "manifest.json", "specs.jsonl"]


def test_corpus_write_deterministic_bytes(tmp_path, small_corpus):
    sd.write_corpus(small_corpus, tmp_path / "c1")
    sd.write_corpus(small_corpus, tmp_path / "c2")
    assert sorted(p.name for p in (tmp_path / "c1").iterdir()) == CORPUS_FILES
    for name in CORPUS_FILES:
        assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()


@pytest.mark.parametrize("config", [
    sd.CorpusConfig(),
    sd.CorpusConfig(n_utterances=30, min_words=1, max_words=1, tempo_flip_prob=1.0, seed=5),
], ids=["default", "one_word_tempo_flips"])
def test_corpus_files_hold_the_key_sorted_json_of_asdict(tmp_path, config):
    """Each spec line is ``json.dumps(dataclasses.asdict(spec), sort_keys=True)``,
    and the manifest's config and lexicon are what asdict gives."""
    corpus = sd.build_corpus(config)
    if config.tempo_flip_prob == 1.0:
        assert {len(u.spec.words) for u in corpus.utterances} == {1}
        assert all(w.prosody.tempo != corpus.lexicon[w.word_id].preferred_tempo
                   for u in corpus.utterances for w in u.spec.words)
    sd.write_corpus(corpus, tmp_path)
    lines = (tmp_path / "specs.jsonl").read_bytes().splitlines(keepends=True)
    assert lines == [(json.dumps(dataclasses.asdict(u.spec), sort_keys=True) + "\n").encode()
                     for u in corpus.utterances]
    text = (tmp_path / "manifest.json").read_text()
    expect = {**json.loads(text), "config": dataclasses.asdict(config),
              "lexicon": [dataclasses.asdict(w) for w in corpus.lexicon]}
    assert text == json.dumps(expect, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", ["features.npy", "specs.jsonl"])
def test_missing_data_file_names_the_file(tmp_path, small_corpus, name):
    sd.write_corpus(small_corpus, tmp_path / "corpus")
    (tmp_path / "corpus" / name).unlink()
    with pytest.raises(CorpusFormatError, match=f"missing .*{name}"):
        sd.read_corpus(tmp_path / "corpus")


def _npy(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=True)
    return buf.getvalue()


def _npz(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, features=arr)
    return buf.getvalue()


def _with_value(arr: np.ndarray, value: float) -> bytes:
    arr = arr.copy()
    arr[-3, 3] = value  # a row of the last utterance
    return _npy(arr)


def _claims_rows(arr: np.ndarray, rows: int) -> bytes:
    buf = io.BytesIO()
    header = {"descr": "<f8", "fortran_order": False, "shape": (rows, arr.shape[1])}
    np.lib.format.write_array_header_1_0(buf, header)
    return buf.getvalue() + arr.tobytes()


BAD_FEATURE_FILES = {
    "empty": lambda f: b"",
    "truncated": lambda f: _npy(f)[:-8],
    "header_claims_2pow40_rows": lambda f: _claims_rows(f, 2**40),
    "garbage": lambda f: b"0.5,0.25,1.0\n" * 8,
    "pickled_object_array": lambda f: _npy(f.astype(object)),
    "npz_archive": _npz,
    "float32": lambda f: _npy(f.astype(np.float32)),
    "int64": lambda f: _npy(f.astype(np.int64)),
    "1d": lambda f: _npy(f.ravel()),
    "3d": lambda f: _npy(f[None]),
    "wrong_width": lambda f: _npy(f[:, 1:]),
    "zero_rows": lambda f: _npy(f[:0]),
    "one_row_short": lambda f: _npy(f[:-1]),
    "nan": lambda f: _with_value(f, np.nan),
    "inf": lambda f: _with_value(f, np.inf),
}
BAD_ROW_VALUES = ("nan", "inf")


@pytest.mark.parametrize("case", BAD_FEATURE_FILES)
def test_bad_feature_file_names_utterance(tmp_path, small_corpus, case):
    """A fault in the whole feature file names the file; a bad value names
    the utterance whose rows hold it, and reading other utterances works."""
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    features = np.load(root / "features.npy")
    (root / "features.npy").write_bytes(BAD_FEATURE_FILES[case](features))
    where = r"utterance utt_0029 in .*" if case in BAD_ROW_VALUES else r"feature file .*"
    with pytest.raises(CorpusFormatError, match=where + r"features\.npy"):
        sd.read_corpus(root)
    if case in BAD_ROW_VALUES:
        assert sd.read_corpus(root, ["utt_0000"]).utterances == small_corpus.utterances[:1]


def _edit_manifest(root: Path, edit) -> None:
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))


def _edit_spec(root: Path, index: int, edit) -> None:
    """Rewrite utterance ``index``'s spec line with ``edit`` applied to its
    JSON object, moving the manifest's spec offsets to match."""
    offsets = json.loads((root / "manifest.json").read_text())["spec_offsets"]
    data = (root / "specs.jsonl").read_bytes()
    lines = [data[a:b] for a, b in zip(offsets, offsets[1:])]
    obj = json.loads(lines[index])
    edit(obj)
    lines[index] = (json.dumps(obj) + "\n").encode()
    (root / "specs.jsonl").write_bytes(b"".join(lines))
    new_offsets = np.cumsum([0] + [len(line) for line in lines]).tolist()
    _edit_manifest(root, lambda m: m.update(spec_offsets=new_offsets))


def _truncate_specs_in_line_3(root: Path) -> None:
    start = json.loads((root / "manifest.json").read_text())["spec_offsets"][3]
    data = (root / "specs.jsonl").read_bytes()
    (root / "specs.jsonl").write_bytes(data[: start + 20])


def _offsets_past_the_end(m: dict) -> None:
    m["spec_offsets"][4:] = [o + 10**6 for o in m["spec_offsets"][4:]]


def _swap_first_phone(spec: dict) -> None:
    syllable = spec["words"][0]["syllables"][0]
    syllable[0] ^= 1  # another phone of the 24-phone inventory


BAD_SPECS = {
    "truncated_line": _truncate_specs_in_line_3,
    "other_utt_id": lambda root: _edit_spec(root, 3, lambda s: s.update(utt_id="utt_0004")),
    "offsets_past_the_end": lambda root: _edit_manifest(root, _offsets_past_the_end),
    "invalid_duration": lambda root: _edit_spec(
        root, 3, lambda s: s["words"][0]["durations"].__setitem__(0, 9)
    ),
    "no_words": lambda root: _edit_spec(root, 3, lambda s: s.pop("words")),
    "word_outside_vocabulary": lambda root: _edit_spec(
        root, 3, lambda s: s["words"][0].update(word_id=99)
    ),
    "word_not_spelled_as_in_lexicon": lambda root: _edit_spec(root, 3, _swap_first_phone),
}


@pytest.mark.parametrize("case", BAD_SPECS)
def test_bad_spec_line_names_utterance(tmp_path, small_corpus, case):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    BAD_SPECS[case](root)
    for utt_ids in (None, ["utt_0003"]):
        with pytest.raises(CorpusFormatError, match=r"spec of utterance utt_0003 in .*specs"):
            sd.read_corpus(root, utt_ids)
    assert sd.read_corpus(root, ["utt_0001"]).utterances == small_corpus.utterances[1:2]


def test_frame_offsets_disagreeing_with_spec_name_utterance(tmp_path, small_corpus):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    _edit_manifest(root, lambda m: m["frame_offsets"].__setitem__(4, m["frame_offsets"][4] + 1))
    with pytest.raises(CorpusFormatError, match=r"utterance utt_0003 \d+ frames, but its spec"):
        sd.read_corpus(root)


@pytest.mark.parametrize("words", [49, 51])
def test_lexicon_not_matching_the_vocabulary_is_refused(tmp_path, small_corpus, words):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    _edit_manifest(root, lambda m: m.update(lexicon=(m["lexicon"] * 2)[:words]))
    with pytest.raises(CorpusFormatError, match=f"{words} lexicon words for word_vocab 50"):
        sd.read_corpus(root)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["config"].update(channels=16.0), "channels must be an integer, got 16.0"),
    (lambda m: m["config"].update(n_utterances=0), "n_utterances must be >= 1"),
    (lambda m: m["inventory"].update(templates=m["inventory"]["templates"][0]),
     "inventory field lengths disagree"),
], ids=["float_channels", "no_utterances", "one_template_row"])
def test_manifest_config_and_inventory_are_checked(tmp_path, small_corpus, edit, message):
    """The manifest's config and inventory are built, and so checked, as
    the corpus is read."""
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    _edit_manifest(root, edit)
    with pytest.raises(CorpusFormatError, match=f"manifest .* is incomplete or invalid: {message}"):
        sd.read_corpus(root)


@pytest.mark.parametrize("offsets", [[], "0,1", [0, 1.5], [0, 5, 3]])
def test_malformed_frame_offsets_are_refused(tmp_path, small_corpus, offsets):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    _edit_manifest(root, lambda m: m.update(frame_offsets=offsets))
    with pytest.raises(CorpusFormatError, match="manifest .* offsets"):
        sd.read_corpus(root)


def test_version_2_manifest_is_refused(tmp_path, small_corpus):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    _edit_manifest(root, lambda m: m.update(version=2))
    with pytest.raises(CorpusFormatError, match="version 2.*gen-data.* new or empty directory"):
        sd.read_corpus(root)


INTERRUPTIONS = {  # id -> (file whose commit fails, failing step)
    "features": ("features.npy", "write"),
    "features_rename": ("features.npy", "rename"),
    "specs": ("specs.jsonl", "write"),
    "specs_rename": ("specs.jsonl", "rename"),
    "manifest": ("manifest.json", "write"),
    "rename": ("manifest.json", "rename"),
}


@pytest.mark.parametrize("fail_at", INTERRUPTIONS)
def test_interrupted_write_leaves_no_manifest(tmp_path, small_corpus, monkeypatch, fail_at):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)  # a stale manifest the rewrite must remove first
    name, step = INTERRUPTIONS[fail_at]
    real_open, real_replace = Path.open, os.replace

    def open_then_fail(self, *args, **kwargs):
        if self.name == name + ".tmp":
            with real_open(self, "wb") as fh:
                fh.write(b"partial")
            raise OSError("disk full")
        return real_open(self, *args, **kwargs)

    def fail_rename(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        real_replace(src, dst)

    if step == "write":
        monkeypatch.setattr(Path, "open", open_then_fail)
    else:
        monkeypatch.setattr(os, "replace", fail_rename)
    with pytest.raises(OSError, match="disk full"):
        sd.write_corpus(small_corpus, root)
    monkeypatch.undo()
    assert sorted(p.name for p in root.iterdir()) == ["features.npy", "specs.jsonl"]
    with pytest.raises(CorpusFormatError, match="missing manifest"):
        sd.read_corpus(root)


def test_rewrite_removes_stale_utterances(tmp_path):
    root = tmp_path / "corpus"
    sd.write_corpus(sd.build_corpus(sd.CorpusConfig(n_utterances=200, seed=4)), root)
    (root / "notes.txt").write_text("not part of the corpus\n")
    (root / "drafts").mkdir()
    (root / "drafts" / "x.txt").write_text("nor this\n")
    small = sd.build_corpus(sd.CorpusConfig(n_utterances=20, seed=9))
    sd.write_corpus(small, root)
    assert sorted(p.name for p in root.iterdir()) == sorted(CORPUS_FILES + ["drafts", "notes.txt"])
    assert (root / "drafts" / "x.txt").is_file()
    assert sd.read_corpus(root) == small


@pytest.mark.parametrize("manifest", ['{"utterances": ["utt_0001",', '{"utterances": ["../x"]}'])
def test_rewrite_deletes_nothing_the_old_manifest_does_not_name(tmp_path, small_corpus,
                                                                manifest):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    (tmp_path / "x").mkdir()
    (root / "utt_0001").mkdir()  # a directory an earlier layout kept per utterance
    (root / "manifest.json").write_text(manifest)
    one = dataclasses.replace(small_corpus, utterances=small_corpus.utterances[:1])
    sd.write_corpus(one, root)
    assert (tmp_path / "x").is_dir() and (root / "utt_0001").is_dir()
    assert sd.read_corpus(root) == one


def test_malformed_manifest_reports_line(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "manifest.json").write_text('{\n "version": 1,\n oops\n}\n')
    with pytest.raises(CorpusFormatError, match="line 3"):
        sd.read_corpus(root)


def test_read_named_utterances_equals_full_read(tmp_path, small_corpus):
    sd.write_corpus(small_corpus, tmp_path / "corpus")
    full = sd.read_corpus(tmp_path / "corpus")
    part = sd.read_corpus(tmp_path / "corpus", ["utt_0007", "utt_0002", "utt_0007", "utt_0029"])
    by_id = {u.spec.utt_id: u for u in full.utterances}
    expect = [by_id[i] for i in ("utt_0007", "utt_0002", "utt_0029")]
    assert part == dataclasses.replace(full, utterances=expect)
    assert sd.read_corpus(tmp_path / "corpus", []).utterances == []


@pytest.mark.parametrize("bad", ["utt_9999", "../x", "utt_0000/.."])
def test_read_unlisted_utterance_opens_nothing_but_the_manifest(tmp_path, small_corpus,
                                                                monkeypatch, bad):
    root = tmp_path / "corpus"
    sd.write_corpus(small_corpus, root)
    opened = []
    real_open = Path.open

    def spy_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", spy_open)
    with pytest.raises(ValidationError, match="not found in corpus"):
        sd.read_corpus(root, ["utt_0001", bad])
    assert opened == [root / "manifest.json"]


# ---------------------------------------------------------------------------
# plug-in mutual information oracle
# ---------------------------------------------------------------------------


def test_mi_identical_uniform_is_log4():
    a = np.arange(400) % 4
    assert abs(sd.oracle_mi_discrete(a, a) - math.log(4)) < 1e-12


def test_mi_constant_sequences_zero():
    assert sd.oracle_mi_discrete([3] * 10, [5] * 10) == 0.0


def test_mi_hand_computed_three_cell_table():
    a = [0, 0, 0, 1]
    b = [0, 0, 1, 1]
    # joint {(0,0):2, (0,1):1, (1,1):1} over n=4, by the plug-in formula:
    expect = 0.5 * math.log(0.5 / (0.75 * 0.5)) + 0.25 * math.log(
        0.25 / (0.75 * 0.5)
    ) + 0.25 * math.log(0.25 / (0.25 * 0.5))
    assert abs(sd.oracle_mi_discrete(a, b) - expect) < 1e-12
    assert abs(expect - 0.2157615543388171) < 1e-12


def test_mi_length_mismatch():
    with pytest.raises(ShapeError):
        sd.oracle_mi_discrete([1, 2], [1, 2, 3])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=60),
    st.integers(0, 2**31 - 1),
)
def test_mi_bounds_property(a, seed):
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 4, size=len(a))
    mi = sd.oracle_mi_discrete(a, b)
    assert mi >= 0.0
    assert mi <= min(sd.entropy_discrete(a), sd.entropy_discrete(b)) + 1e-12


def test_merge_symbols_rows():
    codes = np.array([[0, 1], [0, 1], [2, 1], [0, 0]])
    merged = sd.merge_symbols(codes)
    assert merged[0] == merged[1]
    assert len({merged[0], merged[2], merged[3]}) == 3


def test_merge_symbols_refuses_codes_that_are_not_2d():
    for codes in (np.array([0, 1, 1]), np.zeros((2, 2, 2), dtype=np.int64)):
        with pytest.raises(ShapeError, match="2-D"):
            sd.merge_symbols(codes)
