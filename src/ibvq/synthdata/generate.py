"""Deterministic synthetic corpus generation.

Content enters the features only through phone templates and durations;
prosody only through the per-word ProsodyFactor. Both are therefore exactly
measurable, which is what makes the corpus usable as a disentanglement
oracle.
"""

from __future__ import annotations

import warnings

import numpy as np

from ibvq.errors import ConfigError, ShapeError
from ibvq.synthdata.types import (
    ENERGY_CHANNEL,
    F0_CEIL_HZ,
    F0_CHANNEL,
    F0_FLOOR_HZ,
    MIN_TEMPLATE_SEPARATION,
    TEMPLATE_START,
    TEMPO_CHOICES,
    VOICING_CHANNEL,
    AlignmentHierarchy,
    Corpus,
    CorpusConfig,
    LexiconWord,
    PhoneInventory,
    ProsodyFactor,
    Utterance,
    UtteranceSpec,
    WordToken,
    round_half_up,
    zipf_weights,
)

_LOG_SPAN = np.log(F0_CEIL_HZ) - np.log(F0_FLOOR_HZ)  # ln 10


class PitchRangeWarning(UserWarning):
    """A pitch contour left [50, 500] Hz and was clamped."""


def f0_to_norm(f0_hz):
    """Map F0 in [50, 500] Hz onto [0, 1] in the log domain."""
    return (np.log(f0_hz) - np.log(F0_FLOOR_HZ)) / _LOG_SPAN


def norm_to_f0(norm):
    """Inverse of :func:`f0_to_norm`."""
    return F0_FLOOR_HZ * np.exp(np.asarray(norm) * _LOG_SPAN)


def make_inventory(cfg: CorpusConfig, rng: np.random.Generator) -> PhoneInventory:
    p = cfg.phone_vocab
    # speech-like voicing share: most frames carry pitch
    voiced = rng.random(p) < 0.8
    voiced[0] = True
    voiced[1] = False
    n_tpl = cfg.channels - TEMPLATE_START
    templates = rng.uniform(0.0, 1.0, size=(p, n_tpl))
    # resample any template that sits too close to an earlier one
    for i in range(1, p):
        for _ in range(1000):
            dist = np.sqrt(((templates[:i] - templates[i]) ** 2).sum(axis=1))
            if dist.min() > MIN_TEMPLATE_SEPARATION:
                break
            templates[i] = rng.uniform(0.0, 1.0, size=n_tpl)
        else:
            raise ConfigError(
                f"cannot place {p} separated templates in {n_tpl} channels"
            )
    base_durations = rng.uniform(2.5, 7.5, size=p)
    return PhoneInventory(voiced=voiced, templates=templates, base_durations=base_durations)


def make_lexicon(cfg: CorpusConfig, rng: np.random.Generator) -> list[LexiconWord]:
    lexicon = []
    for _ in range(cfg.word_vocab):
        n_syl = int(rng.integers(1, 5))
        syllables = tuple(
            tuple(int(p) for p in rng.integers(0, cfg.phone_vocab, size=rng.integers(1, 4)))
            for _ in range(n_syl)
        )
        lexicon.append(
            LexiconWord(
                syllables=syllables,
                base_pitch=float(rng.uniform(110.0, 370.0)),
                base_slope=float(rng.uniform(-1.0, 1.0)),
                # a narrow energy spread keeps the (14-channel) energy factor
                # from drowning the single pitch channel in the MSE balance
                base_energy=float(rng.uniform(0.85, 1.15)),
                preferred_tempo=float(rng.choice(TEMPO_CHOICES)),
            )
        )
    return lexicon


def _sample_word(
    word_id: int,
    entry: LexiconWord,
    inventory: PhoneInventory,
    cfg: CorpusConfig,
    rng: np.random.Generator,
) -> WordToken:
    durations = []
    for syl in entry.syllables:
        for p in syl:
            d = round_half_up(
                float(inventory.base_durations[p] + rng.normal(0.0, cfg.duration_jitter))
            )
            durations.append(min(max(d, 2), 8))
    if rng.random() < cfg.tempo_flip_prob:
        others = [t for t in TEMPO_CHOICES if t != entry.preferred_tempo]
        tempo = float(rng.choice(others))
    else:
        tempo = entry.preferred_tempo
    prosody = ProsodyFactor(
        pitch_mean=min(max(rng.normal(entry.base_pitch, cfg.pitch_jitter), 80.0), 400.0),
        pitch_slope=min(max(rng.normal(entry.base_slope, cfg.slope_jitter), -3.0), 3.0),
        energy=min(max(rng.normal(entry.base_energy, cfg.energy_jitter), 0.5), 1.5),
        tempo=tempo,
    )
    return WordToken(
        word_id=word_id,
        syllables=[list(s) for s in entry.syllables],
        durations=durations,
        prosody=prosody,
    )


def _generate(cfg: CorpusConfig) -> tuple[PhoneInventory, list[LexiconWord], list[UtteranceSpec]]:
    """Draw the inventory, lexicon and utterance specs; deterministic given
    cfg.seed. Word identities follow Zipf-like frequencies so repeated words
    give the content/prosody mutual-information analysis realistic
    repetition."""
    rng = np.random.default_rng(cfg.seed)
    inventory = make_inventory(cfg, rng)
    lexicon = make_lexicon(cfg, rng)
    weights = zipf_weights(cfg.word_vocab, cfg.zipf_exponent)
    specs = []
    for i in range(cfg.n_utterances):
        n_words = int(rng.integers(cfg.min_words, cfg.max_words + 1))
        word_ids = rng.choice(cfg.word_vocab, size=n_words, p=weights)
        words = [
            _sample_word(int(wid), lexicon[int(wid)], inventory, cfg, rng)
            for wid in word_ids
        ]
        specs.append(UtteranceSpec(utt_id=f"utt_{i:04d}", words=words))
    return inventory, lexicon, specs


def render_features(
    spec: UtteranceSpec,
    inventory: PhoneInventory,
    noise_seed: int,
    noise_sigma: float = 0.01,
) -> tuple[np.ndarray, AlignmentHierarchy]:
    """Render one utterance to a feature matrix and its exact alignment.

    Voiced frames of word w carry F0(t) = pitch_mean + slope * (t - word
    start); channel 0 holds the normalized log-F0 and stays exactly zero on
    unvoiced frames. Gaussian noise (sigma as configured) goes on channels
    >= 1 only.
    """
    spec.validate(inventory.size)
    channels = TEMPLATE_START + inventory.template_channels
    align = spec.alignment()
    total = align.total_frames
    frame_phone = np.repeat(np.asarray(spec.phone_ids, dtype=np.int64),
                            np.diff(align.phone_edges))
    frame_word = np.repeat(np.arange(len(spec.words)), np.diff(align.word_edges))
    prosody = np.array(
        [(w.prosody.pitch_mean, w.prosody.pitch_slope, w.prosody.energy) for w in spec.words]
    )
    pitch_mean, pitch_slope, energy = prosody[frame_word].T

    feats = np.zeros((total, channels))
    voiced = inventory.voiced[frame_phone]
    offsets = (np.arange(total) - align.word_edges[frame_word])[voiced]
    f0 = pitch_mean[voiced] + pitch_slope[voiced] * offsets
    if f0.size and (f0.min() < F0_FLOOR_HZ or f0.max() > F0_CEIL_HZ):
        warnings.warn(
            f"{spec.utt_id}: pitch contour clamped to [{F0_FLOOR_HZ:.0f}, {F0_CEIL_HZ:.0f}] Hz",
            PitchRangeWarning,
            stacklevel=2,
        )
        f0 = np.clip(f0, F0_FLOOR_HZ, F0_CEIL_HZ)
    feats[voiced, F0_CHANNEL] = f0_to_norm(f0)
    feats[voiced, VOICING_CHANNEL] = 1.0
    feats[:, ENERGY_CHANNEL] = energy
    feats[:, TEMPLATE_START:] = inventory.templates[frame_phone] * energy[:, None]
    if noise_sigma > 0:
        rng = np.random.default_rng(noise_seed)
        feats[:, 1:] += rng.normal(0.0, noise_sigma, size=(total, channels - 1))
    return feats, align


def build_corpus(cfg: CorpusConfig) -> Corpus:
    """Sample and render a full corpus.

    Rendering noise uses per-utterance seeds (cfg.seed + utterance index),
    so parallel and serial renders agree.
    """
    inventory, lexicon, specs = _generate(cfg)
    utterances = []
    for i, spec in enumerate(specs):
        feats, align = render_features(
            spec, inventory, noise_seed=cfg.seed + i, noise_sigma=cfg.noise_sigma
        )
        if feats.shape[1] != cfg.channels:
            raise ShapeError(
                f"rendered {feats.shape[1]} channels, config says {cfg.channels}"
            )
        utterances.append(Utterance(spec=spec, features=feats, alignment=align))
    return Corpus(config=cfg, inventory=inventory, lexicon=lexicon, utterances=utterances)
