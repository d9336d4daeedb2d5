"""Domain types for the synthetic speech-like corpus.

Feature matrices are plain (T, C) float64 arrays with a fixed channel
layout: channel 0 is normalized log-F0 (exactly 0 on unvoiced frames),
channel 1 is the voicing flag, channel 2 is energy, channels 3..C-1 carry
the phone spectral template scaled by energy. Channels >= 1 get additive
Gaussian noise at rendering time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ibvq.errors import ConfigError, ValidationError

F0_CHANNEL = 0
VOICING_CHANNEL = 1
ENERGY_CHANNEL = 2
TEMPLATE_START = 3

F0_FLOOR_HZ = 50.0
F0_CEIL_HZ = 500.0

TEMPO_CHOICES = (0.75, 1.0, 1.25)

MIN_TEMPLATE_SEPARATION = 0.5


@dataclass
class PhoneInventory:
    """Phone identities: voicing, spectral template, intrinsic duration."""

    voiced: np.ndarray          # (P,) bool
    templates: np.ndarray       # (P, C - 3) float64
    base_durations: np.ndarray  # (P,) float64, mean frames before tempo

    @property
    def size(self) -> int:
        return int(self.voiced.size)

    @property
    def template_channels(self) -> int:
        return int(self.templates.shape[1])

    def __post_init__(self):
        p = self.size
        if p < 2 or not self.voiced.any() or self.voiced.all():
            raise ConfigError("inventory needs at least one voiced and one unvoiced phone")
        if self.templates.ndim != 2 or (len(self.templates), self.base_durations.size) != (p, p):
            raise ConfigError("inventory field lengths disagree")
        finite = np.isfinite(self.templates)
        if not finite.all():
            raise ConfigError(f"templates must be finite, got {self.templates[~finite][0]}")
        positive = np.isfinite(self.base_durations) & (self.base_durations > 0)
        if not positive.all():
            raise ConfigError(f"base_durations must be finite and > 0, "
                              f"got {self.base_durations[~positive][0]}")
        diffs = self.templates[:, None, :] - self.templates[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() <= MIN_TEMPLATE_SEPARATION:
            raise ConfigError(
                f"templates too close: min pairwise distance {dist.min():.3f}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhoneInventory)
            and np.array_equal(self.voiced, other.voiced)
            and np.array_equal(self.templates, other.templates)
            and np.array_equal(self.base_durations, other.base_durations)
        )


@dataclass(frozen=True)
class ProsodyFactor:
    """Ground-truth word-level prosody: what the bottleneck should capture."""

    pitch_mean: float   # Hz, [80, 400]
    pitch_slope: float  # Hz per frame, [-3, 3]
    energy: float       # scale, [0.5, 1.5]
    tempo: float        # duration multiplier, one of TEMPO_CHOICES

    def __post_init__(self):
        if not 80.0 <= self.pitch_mean <= 400.0:
            raise ValidationError(f"pitch_mean {self.pitch_mean} outside [80, 400]")
        if not -3.0 <= self.pitch_slope <= 3.0:
            raise ValidationError(f"pitch_slope {self.pitch_slope} outside [-3, 3]")
        if not 0.5 <= self.energy <= 1.5:
            raise ValidationError(f"energy {self.energy} outside [0.5, 1.5]")
        if self.tempo not in TEMPO_CHOICES:
            raise ValidationError(f"tempo {self.tempo} not in {TEMPO_CHOICES}")


@dataclass
class WordToken:
    """One word occurrence: lexical identity, phonology, and prosody."""

    word_id: int
    syllables: list[list[int]]   # phone ids per syllable
    durations: list[int]         # frames per phone (flat, before tempo), 2..8
    prosody: ProsodyFactor

    @property
    def phone_ids(self) -> list[int]:
        return [p for syl in self.syllables for p in syl]

    def validate(self, inventory_size: int) -> None:
        if not 1 <= len(self.syllables) <= 4:
            raise ValidationError(f"word has {len(self.syllables)} syllables, need 1-4")
        for syl in self.syllables:
            if not 1 <= len(syl) <= 3:
                raise ValidationError(f"syllable has {len(syl)} phones, need 1-3")
            for p in syl:
                if not 0 <= p < inventory_size:
                    raise ValidationError(f"phone id {p} outside inventory")
        if len(self.durations) != len(self.phone_ids):
            raise ValidationError("durations must cover every phone once")
        for d in self.durations:
            if not 2 <= d <= 8:
                raise ValidationError(f"phone duration {d} outside [2, 8]")


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class UtteranceSpec:
    """Generative record of one utterance; alignments are exact by construction."""

    utt_id: str
    words: list[WordToken]

    @property
    def word_ids(self) -> list[int]:
        return [w.word_id for w in self.words]

    @property
    def phone_ids(self) -> list[int]:
        return [p for w in self.words for p in w.phone_ids]

    def phones_per_word(self) -> list[int]:
        return [len(w.phone_ids) for w in self.words]

    def realized_durations(self) -> list[int]:
        """Frames per phone after each word's tempo multiplier."""
        out = []
        for w in self.words:
            out.extend(round_half_up(d * w.prosody.tempo) for d in w.durations)
        return out

    def validate(self, inventory_size: int) -> None:
        if not self.words:
            raise ValidationError(f"utterance {self.utt_id} has no words")
        for w in self.words:
            w.validate(inventory_size)

    def alignment(self) -> AlignmentHierarchy:
        """The exact frame segmentation of the rendered utterance, which
        rendering and corpus reading both derive from the spec. It is valid
        by construction when the spec is: every realized duration is >= 2."""
        phone_edges = edges_from_lengths(self.realized_durations())
        word_edges = phone_edges[edges_from_lengths(self.phones_per_word())]
        return AlignmentHierarchy(phone_edges=phone_edges, word_edges=word_edges)


@dataclass
class AlignmentHierarchy:
    """Frame segmentation into phones and words: every word edge is a phone
    edge."""

    phone_edges: np.ndarray     # (n_phones + 1,) int
    word_edges: np.ndarray      # (n_words + 1,) int

    @property
    def total_frames(self) -> int:
        return int(self.phone_edges[-1])

    @property
    def n_words(self) -> int:
        return int(self.word_edges.size - 1)

    def phones_per_word(self) -> np.ndarray:
        starts = self.phone_edges[:-1]
        return np.diff(np.searchsorted(starts, self.word_edges))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlignmentHierarchy)
            and np.array_equal(self.phone_edges, other.phone_edges)
            and np.array_equal(self.word_edges, other.word_edges)
        )


@dataclass(frozen=True)
class LexiconWord:
    """A vocabulary entry: fixed phonology plus a prosodic tendency.

    Word occurrences draw their prosody around these base values, so word
    identity is informative about prosody (as lexical content is in speech)
    while every occurrence still varies.
    """

    syllables: tuple[tuple[int, ...], ...]
    base_pitch: float
    base_slope: float
    base_energy: float
    preferred_tempo: float

    def __post_init__(self):
        for name in ("base_pitch", "base_slope", "base_energy"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.preferred_tempo not in TEMPO_CHOICES:
            raise ConfigError(
                f"preferred_tempo must be one of {TEMPO_CHOICES}, got {self.preferred_tempo}"
            )


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """The probability of each of ``n`` words under a Zipf law."""
    w = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    return w / w.sum()


@dataclass(frozen=True)
class CorpusConfig:
    n_utterances: int = 200
    word_vocab: int = 50
    phone_vocab: int = 24
    channels: int = 16
    min_words: int = 2
    max_words: int = 6
    zipf_exponent: float = 1.2
    # per-occurrence spread around each word's prosodic tendency
    pitch_jitter: float = 15.0
    slope_jitter: float = 0.4
    energy_jitter: float = 0.03
    tempo_flip_prob: float = 0.2
    duration_jitter: float = 0.8
    noise_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_utterances < 1:
            raise ConfigError(f"n_utterances must be >= 1, got {self.n_utterances}")
        if self.word_vocab < 1:
            raise ConfigError(f"word_vocab must be >= 1, got {self.word_vocab}")
        if self.phone_vocab < 2:
            raise ConfigError(f"phone_vocab must be >= 2, got {self.phone_vocab}")
        if self.channels < TEMPLATE_START + 1:
            raise ConfigError(f"channels must be >= {TEMPLATE_START + 1}")
        if not 1 <= self.min_words <= self.max_words:
            raise ConfigError("need 1 <= min_words <= max_words")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("zipf_exponent", "pitch_jitter", "slope_jitter", "energy_jitter",
                     "tempo_flip_prob", "duration_jitter", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if name.endswith(("_jitter", "_sigma")) and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.tempo_flip_prob <= 1.0:
            raise ConfigError(f"tempo_flip_prob must lie in [0, 1], got {self.tempo_flip_prob}")
        with np.errstate(all="ignore"):
            if not np.isfinite(zipf_weights(self.word_vocab, self.zipf_exponent)).all():
                raise ConfigError(f"zipf_exponent {self.zipf_exponent} overflows the weights "
                                  f"of {self.word_vocab} words")


@dataclass
class Utterance:
    """A rendered utterance: generative spec, features, and exact alignment."""

    spec: UtteranceSpec
    features: np.ndarray  # (T, C)
    alignment: AlignmentHierarchy

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Utterance)
            and self.spec == other.spec
            and np.array_equal(self.features, other.features)
            and self.alignment == other.alignment
        )


def edges_from_lengths(lengths) -> np.ndarray:
    """Segment edges [0, l0, l0 + l1, ...] of consecutive segments, as int64."""
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


@dataclass
class Corpus:
    config: CorpusConfig
    inventory: PhoneInventory
    lexicon: list[LexiconWord]
    utterances: list[Utterance] = field(default_factory=list)
