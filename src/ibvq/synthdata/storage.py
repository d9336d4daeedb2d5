"""Corpus directory layout (manifest version 2)::

    manifest.json            config, inventory, lexicon, utterance ids
    <utt_id>/features.npy    (frames, channels) little-endian float64, C order
    <utt_id>/alignment.json  phone, syllable and word frame edges
    <utt_id>/spec.json       words, syllables, durations and prosody factors

Features are stored as ``.npy`` binaries, so write followed by read
reproduces the in-memory corpus bit for bit with no decimal formatting or
parsing. A manifest of any other version is refused: a corpus written by an
earlier release must be regenerated with ``ibvq gen-data``.

``write_corpus`` writes the manifest last, through a temporary file renamed
into place, so a directory whose writing was interrupted has no manifest and
cannot be read as a corpus. Writing over an existing corpus then removes the
directories of utterances the old manifest lists and the new one does not,
and any version-1 ``features.csv`` left in a reused directory; it deletes
nothing the old manifest does not name, and nothing at all if the old
manifest cannot be parsed.

``read_corpus`` reads either every utterance the manifest lists or only the
utterances named by id. The manifest is validated in full either way, and
every utterance read passes the same checks, so a query about one utterance
opens one ``features.npy`` instead of the whole corpus.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
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
MANIFEST_VERSION = 2
FEATURES_NAME = "features.npy"
V1_FEATURES_NAME = "features.csv"


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


def _listed_utterances(manifest_path: Path) -> list[str]:
    """Ids of the utterance directories the manifest at ``manifest_path``
    lists: plain names directly under the corpus root. Empty when there is
    no manifest or it cannot be parsed."""
    try:
        listed = _load_json(manifest_path, "manifest")["utterances"]
    except (ValueError, KeyError, TypeError):  # CorpusFormatError is a ValueError
        return []
    if not isinstance(listed, list):
        return []
    return [u for u in listed if isinstance(u, str) and u != ".." and Path(u).name == u != ""]


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": MANIFEST_VERSION,
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
    manifest_path = root / MANIFEST_NAME
    old_ids = _listed_utterances(manifest_path)
    manifest_path.unlink(missing_ok=True)
    for utt in corpus.utterances:
        utt_dir = root / utt.spec.utt_id
        utt_dir.mkdir(exist_ok=True)
        features = np.ascontiguousarray(utt.features, dtype="<f8")
        np.save(utt_dir / FEATURES_NAME, features, allow_pickle=False)
        _dump_json(
            utt_dir / "alignment.json",
            {
                "phone_edges": utt.alignment.phone_edges.tolist(),
                "syllable_edges": utt.alignment.syllable_edges.tolist(),
                "word_edges": utt.alignment.word_edges.tolist(),
            },
        )
        _dump_json(utt_dir / "spec.json", _spec_to_json(utt.spec))
    tmp = root / f"{MANIFEST_NAME}.tmp"
    try:
        _dump_json(tmp, manifest)
        os.replace(tmp, manifest_path)
    finally:
        tmp.unlink(missing_ok=True)
    new_ids = set(manifest["utterances"])
    for utt_id in old_ids:
        utt_dir = root / utt_id
        if utt_id in new_ids:
            (utt_dir / V1_FEATURES_NAME).unlink(missing_ok=True)
        elif utt_dir.is_dir() and not utt_dir.is_symlink():
            shutil.rmtree(utt_dir)


def _read_features(path: Path, channels: int, frames: int, utt_id: str) -> np.ndarray:
    where = f"feature file for utterance {utt_id}: {path}"
    try:
        with path.open("rb") as fh:
            features = np.lib.format.read_array(fh, allow_pickle=False)
    except OSError as e:
        raise CorpusFormatError(f"missing {where} ({e})") from e
    except (ValueError, EOFError, MemoryError) as e:
        # MemoryError: a header that claims more rows than the file holds
        # fails its allocation before the short read is noticed
        raise CorpusFormatError(f"unreadable {where} ({e})") from e
    if features.dtype != np.float64:
        raise CorpusFormatError(f"{where} has dtype {features.dtype}, expected float64")
    if features.ndim != 2 or features.shape[1] != channels:
        raise CorpusFormatError(f"{where} has shape {features.shape}, expected (frames, {channels})")
    if features.shape[0] != frames:
        raise CorpusFormatError(
            f"{where} has {features.shape[0]} rows but the alignment covers {frames} frames"
        )
    if not np.isfinite(features).all():
        raise CorpusFormatError(f"non-finite value in {where}")
    return features


def read_corpus(path: str | Path, utt_ids: Sequence[str] | None = None) -> Corpus:
    """The corpus stored under ``path``.

    Without ``utt_ids`` every utterance the manifest lists is read, in
    manifest order. With ``utt_ids`` only those utterances are read, in the
    order given and each once; an id the manifest does not list raises
    ValidationError before any of its files is opened, so an id never names
    a path outside the corpus's own entries. Each utterance read is checked
    the same way: its spec, its alignment, and its features' dtype, shape,
    finiteness and row count.
    """
    root = Path(path)
    manifest = _load_json(root / MANIFEST_NAME, "manifest")
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != MANIFEST_VERSION:
        raise CorpusFormatError(
            f"manifest {root / MANIFEST_NAME} has version {version!r}, expected "
            f"{MANIFEST_VERSION}; regenerate the corpus with `ibvq gen-data`"
        )
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
        features = _read_features(
            utt_dir / FEATURES_NAME, config.channels, alignment.total_frames, utt_id
        )
        utterances.append(Utterance(spec=spec, features=features, alignment=alignment))
    return Corpus(config=config, inventory=inventory, lexicon=lexicon, utterances=utterances)
