"""Corpus directory layout: manifest.json plus one directory per utterance
holding features.csv (one frame per row), alignment.json, and spec.json.

Floats are written with enough digits to round-trip float64 exactly, so
write followed by read reproduces the in-memory corpus bit for bit.

``read_corpus`` reads either every utterance the manifest lists or only the
utterances named by id. The manifest is validated in full either way, and
every utterance read passes the same checks, so a query about one utterance
parses one ``features.csv`` instead of the whole corpus.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from ibvq.errors import CorpusFormatError, ValidationError
from ibvq.synthdata.types import (
    AlignmentHierarchy,
    Corpus,
    CorpusConfig,
    LexiconWord,
    PhoneInventory,
    ProsodyFactor,
    Utterance,
    UtteranceSpec,
    WordToken,
)

MANIFEST_NAME = "manifest.json"
_FLOAT_FMT = "%.17g"


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _load_json(path: Path, what: str):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise CorpusFormatError(f"missing {what}: {path} ({e})") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CorpusFormatError(f"malformed {what} at {path}, line {e.lineno}: {e.msg}") from e


def _spec_to_json(spec: UtteranceSpec) -> dict:
    return {
        "utt_id": spec.utt_id,
        "words": [
            {
                "word_id": w.word_id,
                "syllables": w.syllables,
                "durations": w.durations,
                "prosody": dataclasses.asdict(w.prosody),
            }
            for w in spec.words
        ],
    }


def _spec_from_json(obj: dict, path: Path) -> UtteranceSpec:
    try:
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
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"bad utterance spec in {path}: {e}") from e


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": 1,
        "config": dataclasses.asdict(corpus.config),
        "inventory": {
            "voiced": corpus.inventory.voiced.astype(int).tolist(),
            "templates": corpus.inventory.templates.tolist(),
            "base_durations": corpus.inventory.base_durations.tolist(),
        },
        "lexicon": [
            {
                "syllables": [list(s) for s in w.syllables],
                "base_pitch": w.base_pitch,
                "base_slope": w.base_slope,
                "base_energy": w.base_energy,
                "preferred_tempo": w.preferred_tempo,
            }
            for w in corpus.lexicon
        ],
        "utterances": [u.spec.utt_id for u in corpus.utterances],
    }
    _dump_json(root / MANIFEST_NAME, manifest)
    for utt in corpus.utterances:
        utt_dir = root / utt.spec.utt_id
        utt_dir.mkdir(exist_ok=True)
        np.savetxt(utt_dir / "features.csv", utt.features, fmt=_FLOAT_FMT, delimiter=",")
        _dump_json(
            utt_dir / "alignment.json",
            {
                "phone_edges": utt.alignment.phone_edges.tolist(),
                "syllable_edges": utt.alignment.syllable_edges.tolist(),
                "word_edges": utt.alignment.word_edges.tolist(),
            },
        )
        _dump_json(utt_dir / "spec.json", _spec_to_json(utt.spec))


def _read_features(path: Path, channels: int, utt_id: str) -> np.ndarray:
    if not path.is_file():
        raise CorpusFormatError(f"missing feature file for utterance {utt_id}: {path}")
    rows = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != channels:
                raise CorpusFormatError(
                    f"{path} line {lineno}: row has {len(parts)} columns, expected {channels}"
                )
            try:
                rows.append([float(v) for v in parts])
            except ValueError as e:
                raise CorpusFormatError(f"{path} line {lineno}: {e}") from e
    if not rows:
        raise CorpusFormatError(f"{path}: empty feature file for utterance {utt_id}")
    return np.asarray(rows, dtype=np.float64)


def read_corpus(path: str | Path, utt_ids: Sequence[str] | None = None) -> Corpus:
    """The corpus stored under ``path``.

    Without ``utt_ids`` every utterance the manifest lists is read, in
    manifest order. With ``utt_ids`` only those utterances are read, in the
    order given and each once; an id the manifest does not list raises
    ValidationError before any of its files is opened, so an id never names
    a path outside the corpus's own entries. Each utterance read is checked
    the same way: its spec, its alignment, and the column and row counts of
    its features.
    """
    root = Path(path)
    manifest = _load_json(root / MANIFEST_NAME, "manifest")
    try:
        config = CorpusConfig(**manifest["config"])
        inv = manifest["inventory"]
        inventory = PhoneInventory(
            voiced=np.asarray(inv["voiced"], dtype=bool),
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
        listed = list(manifest["utterances"])
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusFormatError(f"manifest {root / MANIFEST_NAME} is incomplete: {e}") from e
    if utt_ids is None:
        utt_ids = listed
    else:
        utt_ids = list(dict.fromkeys(utt_ids))
        for utt_id in utt_ids:
            if utt_id not in listed:
                raise ValidationError(f"utterance {utt_id!r} not found in corpus")
    utterances = []
    for utt_id in utt_ids:
        utt_dir = root / utt_id
        spec = _spec_from_json(_load_json(utt_dir / "spec.json", "utterance spec"), utt_dir)
        align_obj = _load_json(utt_dir / "alignment.json", "alignment")
        try:
            alignment = AlignmentHierarchy(
                phone_edges=np.asarray(align_obj["phone_edges"], dtype=np.int64),
                syllable_edges=np.asarray(align_obj["syllable_edges"], dtype=np.int64),
                word_edges=np.asarray(align_obj["word_edges"], dtype=np.int64),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise CorpusFormatError(f"bad alignment in {utt_dir}: {e}") from e
        alignment.validate()
        features = _read_features(utt_dir / "features.csv", config.channels, utt_id)
        if features.shape[0] != alignment.total_frames:
            raise CorpusFormatError(
                f"{utt_id}: {features.shape[0]} feature rows but alignment covers "
                f"{alignment.total_frames} frames"
            )
        utterances.append(Utterance(spec=spec, features=features, alignment=alignment))
    return Corpus(config=config, inventory=inventory, lexicon=lexicon, utterances=utterances)
