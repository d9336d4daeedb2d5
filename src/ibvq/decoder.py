"""Conditional decoder: phone content plus word-level prosody vectors back
to a feature sequence, with length regulation.

The pipeline mirrors a non-autoregressive synthesis stack: a text encoder
(the reference encoder's `residual_block` over phone embeddings, with its
own parameters under ``tenc.``) produces phone-level features, the
per-word prosody vector is broadcast to its phones and concatenated, a
length regulator repeats phone rows by their frame durations, and a
convolutional decoder emits the output channels.
Ground-truth durations drive reconstruction and transfer.

Every model entry point takes a list of utterances and returns one array
per utterance, in order. This module is the only one that packs them: the
phone and frame rows of several utterances stacked into single matrices,
with offsets marking where each utterance starts (`PackedBatch`). The text
encoder and the frame decoder take those offsets and never mix utterances;
broadcasting and length regulation are row-wise already. Training
(`reconstruction_graph`) packs its batch into one graph. Evaluation
(`word_features`, `prosody_codes`, `decode_with_codes`, hence `reconstruct`
and `transfer`) runs with the parameters frozen, so it records no graph, in
passes of at most `PASS_UTTERANCES` utterances; both decode through the
same `_decode`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.encoder import EncoderConfig, EncoderModel, block_params, encode, residual_block
from ibvq.errors import (
    AlignmentError,
    ConfigError,
    ShapeError,
    ValidationError,
    VocabularyError,
)
from ibvq.quantizer import (
    BottleneckOutput,
    CapacityConfig,
    apply_bottleneck,
    codebook_store,
    lookup,
    quantize_batch,
)
from ibvq.synthdata.types import AlignmentHierarchy, Utterance, edges_from_lengths


@dataclass(frozen=True)
class DecoderConfig:
    n_phones: int
    channels: int = 16
    phone_dim: int = 16
    prosody_dim: int = 8
    hidden: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.n_phones < 1:
            raise ConfigError("n_phones must be >= 1")
        for name in ("channels", "phone_dim", "prosody_dim", "hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class DecoderModel:
    """Text encoder, prosody fusion and frame decoder parameters, all
    trained by the reconstruction loss."""

    def __init__(self, config: DecoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        e, h, c = config.phone_dim, config.hidden, config.channels
        d = config.prosody_dim
        p = {"embed": nc.glorot_uniform(rng, config.n_phones, e)}
        p.update(block_params(rng, e, "tenc."))
        p["fuse.w"] = nc.glorot_uniform(rng, e + d, h)
        p["fuse.b"] = np.zeros((1, h))
        p["sdec.conv1.k"] = 0.1 * nc.glorot_uniform(rng, 5 * h, h)
        p["sdec.conv1.b"] = np.zeros((1, h))
        p["sdec.conv2.k"] = 0.1 * nc.glorot_uniform(rng, 3 * h, h)
        p["sdec.conv2.b"] = np.zeros((1, h))
        p["sdec.out.w"] = nc.glorot_uniform(rng, h, c)
        p["sdec.out.b"] = np.zeros((1, c))
        # linear shortcut from the fused inputs to the output channels; the
        # conv stack then only has to model what content + prosody cannot
        # reach linearly
        p["sdec.skip.w"] = nc.glorot_uniform(rng, e + d, c)
        self.store = nc.ParamStore(p)


def encode_text(phone_ids, model: DecoderModel, offsets) -> nc.Tensor:
    """Phone ids to (P, phone_dim) phone-level features: the reference
    encoder's `residual_block` over the phone embeddings. ``offsets`` marks
    where each utterance of a packed id sequence starts."""
    ids = np.asarray(phone_ids, dtype=np.int64).reshape(-1)
    if ids.size < 1:
        raise ValidationError("encode_text needs at least one phone")
    if ids.min() < 0 or ids.max() >= model.config.n_phones:
        raise VocabularyError(
            f"phone id outside inventory [0, {model.config.n_phones}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    return residual_block(nc.gather_rows(model.store["embed"], ids), model.store, offsets,
                          "tenc.")


def broadcast_prosody(word_vectors: nc.Tensor, phones_per_word, phone_feats: nc.Tensor) -> nc.Tensor:
    """Append each word's prosody vector to all of its phone rows."""
    counts = np.asarray(phones_per_word, dtype=np.int64).reshape(-1)
    if counts.size != word_vectors.rows:
        raise AlignmentError(
            f"{counts.size} word phone-counts for {word_vectors.rows} word vectors"
        )
    if counts.sum() != phone_feats.rows:
        raise AlignmentError(
            f"word phone-counts sum to {int(counts.sum())}, but there are "
            f"{phone_feats.rows} phone rows"
        )
    return nc.concat_cols([phone_feats, nc.repeat_rows(word_vectors, counts)])


def length_regulate(phone_feats: nc.Tensor, durations) -> nc.Tensor:
    """Repeat phone row i durations[i] times; output length is sum(durations)."""
    durations = np.asarray(durations, dtype=np.int64).reshape(-1)
    if np.any(durations < 1):
        raise ValidationError("durations must all be >= 1 frames")
    return nc.repeat_rows(phone_feats, durations)


def decode_frames(frame_feats: nc.Tensor, model: DecoderModel, offsets) -> nc.Tensor:
    """Frame-level fused features (T, phone_dim + prosody_dim) to (T, C);
    ``offsets`` marks where each utterance of packed frame rows starts."""
    cfg = model.config
    expected = cfg.phone_dim + cfg.prosody_dim
    if frame_feats.cols != expected:
        raise ShapeError(f"frame features have {frame_feats.cols} dims, expected {expected}")
    p = model.store
    offsets = nc.check_offsets(offsets, frame_feats.rows)
    h = nc.relu(nc.affine(frame_feats, p["fuse.w"], p["fuse.b"]))
    h = nc.add(h, nc.constant(nc.positional(offsets, cfg.hidden)))
    h = nc.add(h, nc.relu(nc.conv1d(h, p["sdec.conv1.k"], p["sdec.conv1.b"], width=5,
                                    offsets=offsets)))
    h = nc.add(h, nc.relu(nc.conv1d(h, p["sdec.conv2.k"], p["sdec.conv2.b"], width=3,
                                    offsets=offsets)))
    deep = nc.affine(h, p["sdec.out.w"], p["sdec.out.b"])
    return nc.add(deep, nc.matmul(frame_feats, p["sdec.skip.w"]))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass
class AutoencoderModels:
    """A model bundle: reference encoder, bottleneck codebook, decoder, whose
    parameter stores `stores` names by their checkpoint prefixes."""

    encoder: EncoderModel
    decoder: DecoderModel
    cap_cfg: CapacityConfig
    codebook: nc.ParamStore

    @classmethod
    def build(cls, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig, cap_cfg: CapacityConfig):
        """A new bundle: initialised encoder and decoder, zero codebook."""
        codebook = codebook_store(cap_cfg, enc_cfg.acoustic_dim)
        return cls(EncoderModel(enc_cfg), DecoderModel(dec_cfg), cap_cfg, codebook)

    def stores(self) -> dict[str, nc.ParamStore]:
        return {"enc": self.encoder.store, "dec": self.decoder.store, "cb": self.codebook}


@dataclass(frozen=True)
class PackedBatch:
    """Utterances stacked row-wise into single matrices.

    Utterance b owns frame rows ``frame_offsets[b]:frame_offsets[b + 1]``,
    phone rows ``phone_offsets[b]:...`` and word rows ``word_offsets[b]:...``
    (each offsets array has B + 1 entries). ``alignment`` is the alignment of
    the stacked frames: every utterance's edges shifted by its first frame.
    """

    features: np.ndarray        # (sum T_b, C)
    alignment: AlignmentHierarchy
    phone_ids: np.ndarray       # (sum P_b,) int
    frame_offsets: np.ndarray
    phone_offsets: np.ndarray
    word_offsets: np.ndarray


def pack_utterances(utterances: list[Utterance]) -> PackedBatch:
    """Stack utterances, in the given order, into one packed batch."""
    if not utterances:
        raise ValidationError("cannot pack an empty batch")
    aligns = [u.alignment for u in utterances]
    frame_off = edges_from_lengths([a.total_frames for a in aligns])

    def stacked(level: str) -> np.ndarray:
        parts = [getattr(a, level)[:-1] + f for a, f in zip(aligns, frame_off)]
        return np.concatenate(parts + [frame_off[-1:]]).astype(np.int64)

    phone_ids = [np.asarray(u.spec.phone_ids, dtype=np.int64) for u in utterances]
    return PackedBatch(
        features=np.vstack([u.features for u in utterances]),
        alignment=AlignmentHierarchy(
            phone_edges=stacked("phone_edges"),
            word_edges=stacked("word_edges"),
        ),
        phone_ids=np.concatenate(phone_ids),
        frame_offsets=frame_off,
        phone_offsets=edges_from_lengths([p.size for p in phone_ids]),
        word_offsets=edges_from_lengths([a.n_words for a in aligns]),
    )


# Utterances per frozen pass: twice the default training batch, so a pass's
# intermediates stay below one training step's graph whatever the number of
# utterances encoded or decoded.
PASS_UTTERANCES = 16


def _passes(utts: list[Utterance]) -> Iterator[tuple[slice, PackedBatch]]:
    """Consecutive chunks of at most PASS_UTTERANCES of ``utts``, each with
    its slice of ``utts``, packed.

    One pass over every utterance would need memory for all of their
    intermediates at once (about 30 MiB to encode 180 utterances, and the 64
    utterances that seed the codebook outweigh a training step's graph);
    bounded passes cap that at a constant, and each utterance's outputs are
    those of a pass over it alone (to rounding: see `numcore.tensor` on
    packed batches).
    """
    for start in range(0, len(utts), PASS_UTTERANCES):
        chunk = slice(start, start + PASS_UTTERANCES)
        yield chunk, pack_utterances(utts[chunk])


def _encoded_passes(utts: list[Utterance], models: AutoencoderModels
                    ) -> Iterator[tuple[PackedBatch, np.ndarray]]:
    """Each pass over ``utts`` with its (W, D) word features from the
    reference encoder, its parameters frozen."""
    for _, batch in _passes(utts):
        with models.encoder.store.frozen():
            feats = encode(batch.features, batch.alignment, models.encoder, batch.frame_offsets)
        yield batch, feats.data


def word_features(utts: list[Utterance], models: AutoencoderModels) -> list[np.ndarray]:
    """The (W_u, D) continuous word features of each utterance, before the
    bottleneck. A forward pass only: it records no graph."""
    return [block for batch, feats in _encoded_passes(utts, models)
            for block in np.split(feats, batch.word_offsets[1:-1])]


def prosody_codes(utts: list[Utterance], models: AutoencoderModels) -> list[np.ndarray] | None:
    """The discrete codes (W_u, G) of each utterance's words; None when the
    bottleneck is off. A forward pass only: it records no graph."""
    if not models.cap_cfg.enabled:
        return None
    entries, blocks = models.codebook["entries"].data, []
    for batch, feats in _encoded_passes(utts, models):
        codes = quantize_batch(feats, entries, models.cap_cfg.G)
        blocks.extend(np.split(codes, batch.word_offsets[1:-1]))
    return blocks


def _decode(word_vectors: nc.Tensor, batch: PackedBatch, dec_model: DecoderModel) -> nc.Tensor:
    """The frames of ``batch`` from one prosody vector per word and the
    batch's phones and ground-truth durations: text encoder, prosody
    broadcast, length regulation, frame decoder."""
    phone_feats = encode_text(batch.phone_ids, dec_model, batch.phone_offsets)
    fused = broadcast_prosody(word_vectors, batch.alignment.phones_per_word(), phone_feats)
    frames = length_regulate(fused, np.diff(batch.alignment.phone_edges))
    return decode_frames(frames, dec_model, batch.frame_offsets)


def decode_with_codes(
    blocks: list[np.ndarray] | None, utts: list[Utterance], models: AutoencoderModels
) -> list[np.ndarray]:
    """The frames of each utterance decoded from its code block, one code
    row per word (zero prosody vectors when ``blocks`` is None). A forward
    pass only: it records no graph."""
    if blocks is not None and [len(b) for b in blocks] != [u.alignment.n_words for u in utts]:
        raise AlignmentError(
            f"code blocks of {[len(b) for b in blocks]} rows for utterances of "
            f"{[u.alignment.n_words for u in utts]} words"
        )
    outs = []
    for chunk, batch in _passes(utts):
        if blocks is None:
            word_vecs = np.zeros((batch.alignment.n_words, models.decoder.config.prosody_dim))
        else:
            word_vecs = lookup(np.vstack(blocks[chunk]), models.codebook["entries"].data,
                               models.cap_cfg.G)
        with models.decoder.store.frozen():
            frames = _decode(nc.constant(word_vecs), batch, models.decoder).data
        outs.extend(np.split(frames, batch.frame_offsets[1:-1]))
    return outs


def reconstruct(utts: list[Utterance], models: AutoencoderModels) -> list[np.ndarray]:
    """Encode -> quantize -> decode with ground-truth durations: each
    utterance's frames."""
    return decode_with_codes(prosody_codes(utts, models), utts, models)


def transfer(
    refs: list[Utterance], targets: list[Utterance], models: AutoencoderModels
) -> list[np.ndarray]:
    """Drive each target utterance's content with the prosody codes of the
    reference in the same place of ``refs`` (word-aligned): each target's
    frames."""
    if len(refs) != len(targets):
        raise ValidationError(f"{len(refs)} reference utterances for {len(targets)} targets")
    for ref, target in zip(refs, targets):
        if ref.alignment.n_words != target.alignment.n_words:
            raise ValidationError(
                f"word counts differ: reference {ref.spec.utt_id} has {ref.alignment.n_words}, "
                f"target {target.spec.utt_id} has {target.alignment.n_words}"
            )
    return decode_with_codes(prosody_codes(refs, models), targets, models)


@dataclass
class ReconstructionGraph:
    """Differentiable reconstruction of a packed batch with its losses; the
    output and word feature rows are its utterances' rows, stacked.

    ``mse`` averages each utterance's reconstruction MSE over the batch, and
    ``loss`` adds the bottleneck's batch-averaged codebook and commitment
    terms: the training objective of one step.
    """

    output: nc.Tensor
    bottleneck: BottleneckOutput
    word_features: nc.Tensor | None  # None at K = 0, where the encoder is not run
    mse: nc.Tensor
    loss: nc.Tensor


def reconstruction_graph(
    utts: list[Utterance], models: AutoencoderModels, commitment_cost: float,
    quantize: bool = True,
) -> ReconstructionGraph:
    """Build the end-to-end training graph of the batch ``utts``, packed in
    the given order: one graph whatever the batch size, in which no
    utterance reads another's rows.

    Unless ``quantize``, the word vectors pass through unquantized and both
    bottleneck losses are zero: training's warm-up, before the codebook is
    seeded. The whole graph is then an ordinary differentiable function,
    which is what the finite-difference gradient checks exercise (the
    straight-through estimator is intentionally not the derivative of the
    quantized forward pass). A disabled bottleneck (K = 0) passes zeros
    through, in training as in evaluation; no gradient could reach the
    encoder then, so it is not run.
    """
    batch = pack_utterances(utts)
    cap_cfg, enc = models.cap_cfg, models.encoder
    if cap_cfg.enabled:
        word_feats = vectors = encode(batch.features, batch.alignment, enc, batch.frame_offsets)
    else:
        word_feats = None
        vectors = nc.constant(np.zeros((batch.alignment.n_words, enc.config.acoustic_dim)))
    if quantize and cap_cfg.enabled:
        bn = apply_bottleneck(vectors, models.codebook["entries"], cap_cfg, commitment_cost,
                              batch.word_offsets)
    else:
        zero = nc.constant(np.zeros((1, 1)))
        bn = BottleneckOutput(quantized=vectors, codes=None, codebook_loss=zero, commitment_loss=zero)
    out = _decode(bn.quantized, batch, models.decoder)
    mse = nc.mse(out, batch.features, batch.frame_offsets)
    loss = nc.add(nc.add(mse, bn.codebook_loss), bn.commitment_loss)
    return ReconstructionGraph(
        output=out, bottleneck=bn, word_features=word_feats, mse=mse, loss=loss
    )
