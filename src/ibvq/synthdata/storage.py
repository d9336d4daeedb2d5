"""Corpus directory layout (manifest version 3)::

    manifest.json   config, inventory, lexicon, utterance ids, and each
                    utterance's frame_offsets and spec_offsets
    features.npy    (frames, channels) little-endian float64, C order: the
                    frames of every utterance, in manifest order
    specs.jsonl     one key-sorted JSON utterance spec per line, in manifest order

Utterance i owns rows ``frame_offsets[i]:frame_offsets[i + 1]`` of the
features and bytes ``spec_offsets[i]:spec_offsets[i + 1]`` of the specs. Its
alignment is not stored but derived from its spec, as in rendering
(:meth:`UtteranceSpec.alignment`). Write followed by read reproduces the
in-memory corpus bit for bit. A manifest of another version is refused: such
a corpus must be regenerated with ``ibvq gen-data`` into a new or empty
directory.

``write_corpus`` removes the old manifest, replaces each data file by renaming
a temporary file over it, and writes the manifest last the same way: an
interrupted write leaves no manifest, so the directory cannot be read as a
corpus, and a rewrite touches nothing but these three names.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ibvq.errors import CorpusFormatError, ValidationError
from ibvq.numcore.checkpoint import config_from_json, write_atomic
from ibvq.synthdata.types import (
    Corpus,
    CorpusConfig,
    LexiconWord,
    PhoneInventory,
    ProsodyFactor,
    Utterance,
    UtteranceSpec,
    WordToken,
    edges_from_lengths,
)

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 3
FEATURES_NAME = "features.npy"
SPECS_NAME = "specs.jsonl"


def _load_manifest(path: Path) -> dict:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise CorpusFormatError(f"missing manifest: {path} ({e})") from e
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"malformed manifest at {path}, line {e.lineno}: {e.msg}") from e
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != MANIFEST_VERSION:
        raise CorpusFormatError(
            f"manifest {path} has version {version!r}, expected {MANIFEST_VERSION}; "
            "regenerate the corpus with `ibvq gen-data` into a new or empty directory"
        )
    return manifest


def _spec_from_json(obj: dict) -> UtteranceSpec:
    words = [
        WordToken(
            word_id=int(w["word_id"]),
            syllables=[[int(p) for p in s] for s in w["syllables"]],
            durations=[int(d) for d in w["durations"]],
            prosody=ProsodyFactor(**w["prosody"]),
        )
        for w in obj["words"]
    ]
    return UtteranceSpec(utt_id=obj["utt_id"], words=words)


def _spec_to_json(spec: UtteranceSpec) -> dict:
    """The JSON object `_spec_from_json` reads ``spec`` back from: what
    ``dataclasses.asdict(spec)`` gives, without its deep copies."""
    return {
        "utt_id": spec.utt_id,
        "words": [
            {"word_id": w.word_id, "syllables": w.syllables, "durations": w.durations,
             "prosody": vars(w.prosody)}
            for w in spec.words
        ],
    }


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    utts = corpus.utterances
    lines = [(json.dumps(_spec_to_json(u.spec), sort_keys=True) + "\n").encode() for u in utts]
    features = np.concatenate(
        [np.empty((0, corpus.config.channels))] + [u.features for u in utts], dtype="<f8"
    )
    manifest = {
        "version": MANIFEST_VERSION,
        # neither holds a dataclass, so its field dict is what asdict gives
        "config": vars(corpus.config),
        "inventory": {
            "voiced": corpus.inventory.voiced.astype(int).tolist(),
            "templates": corpus.inventory.templates.tolist(),
            "base_durations": corpus.inventory.base_durations.tolist(),
        },
        "lexicon": [vars(w) for w in corpus.lexicon],
        "utterances": [u.spec.utt_id for u in utts],
        "frame_offsets": edges_from_lengths([len(u.features) for u in utts]).tolist(),
        "spec_offsets": edges_from_lengths([len(line) for line in lines]).tolist(),
    }
    manifest_text = json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    manifest_path = root / MANIFEST_NAME
    manifest_path.unlink(missing_ok=True)
    write_atomic(root / FEATURES_NAME, lambda fh: np.save(fh, features, allow_pickle=False))
    write_atomic(root / SPECS_NAME, lambda fh: fh.writelines(lines))
    write_atomic(manifest_path, lambda fh: fh.write(manifest_text.encode()))


def _offsets(values, n: int) -> list[int]:
    """``values`` as the n + 1 edges of n non-empty consecutive spans."""
    edges = np.asarray(values)
    ok = edges.dtype == np.int64 and edges.shape == (n + 1,)
    if not (ok and edges[0] == 0 and (np.diff(edges) > 0).all()):
        raise ValueError(f"offsets must be {n + 1} increasing integers from 0")
    return edges.tolist()


def _open_features(path: Path, channels: int, frames: int) -> np.ndarray:
    """A read-only memory map of the feature file, its header checked."""
    try:
        features = np.lib.format.open_memmap(path, mode="r")
    except FileNotFoundError as e:
        raise CorpusFormatError(f"missing feature file {path} ({e})") from e
    except (OSError, ValueError, EOFError) as e:
        # a header that claims more rows than the file holds fails the mapping
        raise CorpusFormatError(f"unreadable feature file {path} ({e})") from e
    if features.dtype != np.dtype("<f8") or features.shape != (frames, channels):
        raise CorpusFormatError(
            f"feature file {path} holds {features.dtype} {features.shape}, "
            f"expected <f8 ({frames}, {channels}) by the manifest"
        )
    return features


def _read_spec(fh, start: int, stop: int, utt_id: str, inventory_size: int,
               lexicon: Sequence[LexiconWord], path: Path) -> UtteranceSpec:
    """The validated spec of ``utt_id`` at bytes ``start:stop`` of ``fh``:
    each word's id names a lexicon entry whose syllables it spells."""
    fh.seek(start)
    line = fh.read(stop - start)
    try:
        if len(line) != stop - start or not line.endswith(b"\n"):
            raise ValueError(f"expected one line at bytes {start}:{stop}")
        spec = _spec_from_json(json.loads(line))
        if spec.utt_id != utt_id:
            raise ValueError(f"the line belongs to utterance {spec.utt_id!r}")
        spec.validate(inventory_size)
        for w in spec.words:
            if not 0 <= w.word_id < len(lexicon):
                raise ValueError(f"word id {w.word_id} outside vocabulary [0, {len(lexicon)})")
            if tuple(map(tuple, w.syllables)) != lexicon[w.word_id].syllables:
                raise ValueError(f"word {w.word_id} is not spelled as in the lexicon")
    except (KeyError, TypeError, ValueError) as e:  # ValidationError is a ValueError
        raise CorpusFormatError(f"bad spec of utterance {utt_id} in {path}: {e}") from e
    return spec


def read_corpus(path: str | Path, utt_ids: Sequence[str] | None = None) -> Corpus:
    """The corpus stored under ``path``.

    Without ``utt_ids`` every utterance the manifest lists is read, in
    manifest order. With ``utt_ids`` only those utterances are read, in the
    order given and each once; an id the manifest does not list raises
    ValidationError before any data file is opened. The manifest and the
    feature file's header are validated in full; each utterance read has its
    spec line parsed and validated, the frame count its alignment gives
    checked against its rows, and those rows, copied out of a read-only
    memory map, checked for finiteness. A query thus parses and copies only
    what it names.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    manifest = _load_manifest(manifest_path)
    try:
        config = config_from_json(CorpusConfig, manifest["config"])
        inv = manifest["inventory"]
        voiced = np.asarray(inv["voiced"])
        flags = (voiced == 0) | (voiced == 1)
        if not flags.all():
            raise ValueError(f"voiced entries must be 0 or 1, got {voiced[~flags][0]}")
        inventory = PhoneInventory(
            voiced=voiced.astype(bool),
            templates=np.asarray(inv["templates"], dtype=np.float64),
            base_durations=np.asarray(inv["base_durations"], dtype=np.float64),
        )
        lexicon = [
            LexiconWord(
                syllables=tuple(tuple(int(p) for p in s) for s in w["syllables"]),
                base_pitch=float(w["base_pitch"]),
                base_slope=float(w["base_slope"]),
                base_energy=float(w["base_energy"]),
                preferred_tempo=float(w["preferred_tempo"]),
            )
            for w in manifest["lexicon"]
        ]
        if len(lexicon) != config.word_vocab:
            raise ValueError(f"{len(lexicon)} lexicon words for word_vocab {config.word_vocab}")
        listed = list(manifest["utterances"])
        frame_offsets = _offsets(manifest["frame_offsets"], len(listed))
        spec_offsets = _offsets(manifest["spec_offsets"], len(listed))
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"manifest {manifest_path} is incomplete or invalid: {e}") from e
    if utt_ids is None:
        order = range(len(listed))
    else:
        index = {utt_id: i for i, utt_id in enumerate(listed)}
        order = []
        for utt_id in dict.fromkeys(utt_ids):
            if utt_id not in index:
                raise ValidationError(f"utterance {utt_id!r} not found in corpus")
            order.append(index[utt_id])
    features_path, specs_path = root / FEATURES_NAME, root / SPECS_NAME
    features = _open_features(features_path, config.channels, frame_offsets[-1])
    utterances = []
    try:
        fh = specs_path.open("rb")
    except OSError as e:
        raise CorpusFormatError(f"missing spec file {specs_path} ({e})") from e
    with fh:
        for i in order:
            utt_id = listed[i]
            spec = _read_spec(fh, spec_offsets[i], spec_offsets[i + 1], utt_id,
                              inventory.size, lexicon, specs_path)
            alignment = spec.alignment()
            start, stop = frame_offsets[i], frame_offsets[i + 1]
            if alignment.total_frames != stop - start:
                raise CorpusFormatError(
                    f"manifest {manifest_path} gives utterance {utt_id} {stop - start} "
                    f"frames, but its spec gives {alignment.total_frames}"
                )
            rows = np.array(features[start:stop])
            if not np.isfinite(rows).all():
                raise CorpusFormatError(
                    f"non-finite value in the rows of utterance {utt_id} in {features_path}"
                )
            utterances.append(Utterance(spec=spec, features=rows, alignment=alignment))
    return Corpus(config=config, inventory=inventory, lexicon=lexicon, utterances=utterances)
