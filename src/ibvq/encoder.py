"""Reference encoder: frame-level feature extraction, then mean pooling of
each word's frames into one word-level acoustic vector.

One self-attention block and one convolution block (each with a residual
connection and layer norm) stand in for a deeper feed-forward transformer
stack: global context plus local filtering at desk scale. The decoder's
text encoder is the same `residual_block` over phone embeddings.

Every function takes a packed batch: the frames of several utterances
stacked row-wise, with ``offsets`` marking where each utterance starts
(see `ibvq.numcore`); one utterance of n frames is the batch ``[0, n]``.
Utterances in a batch never see each other's frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import ibvq.numcore as nc
from ibvq.errors import ConfigError, ShapeError
from ibvq.synthdata.types import AlignmentHierarchy

CONV_WIDTH = 3


@dataclass(frozen=True)
class EncoderConfig:
    channels: int = 16
    acoustic_dim: int = 8
    groups: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if self.acoustic_dim % self.groups != 0:
            raise ConfigError(
                f"acoustic_dim {self.acoustic_dim} must be divisible by groups {self.groups}"
            )
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def block_params(rng: np.random.Generator, width: int, prefix: str = "") -> dict:
    """The parameters of one `residual_block` over ``width`` channels, named
    under ``prefix``, drawn from ``rng`` in the order wq, wk, wv, wo, conv.k."""
    p = {f"{prefix}attn.{w}": nc.glorot_uniform(rng, width, width) for w in ("wq", "wk", "wv")}
    # residual-branch outputs start small so the stream is near-identity
    p[f"{prefix}attn.wo"] = 0.1 * nc.glorot_uniform(rng, width, width)
    p[f"{prefix}conv.k"] = 0.1 * nc.glorot_uniform(rng, CONV_WIDTH * width, width)
    p[f"{prefix}conv.b"] = np.zeros((1, width))
    for sub in ("attn", "conv"):
        p[f"{prefix}{sub}.ln_g"] = np.ones((1, width))
        p[f"{prefix}{sub}.ln_b"] = np.zeros((1, width))
    return p


def residual_block(x: nc.Tensor, store: nc.ParamStore, offsets, prefix: str = "") -> nc.Tensor:
    """The (T, width) rows ``x`` of sequences packed at ``offsets`` through
    the block whose `block_params` ``store`` holds under ``prefix``.

    Each row's sinusoidal position within its sequence is added first, so
    row order matters. A self-attention and a convolution sub-block follow,
    each pre-norm with a residual connection, so the residual stream carries
    the raw input channels through: in the reference encoder single
    channels (pitch, voicing, energy) are meaningful on their own, and
    per-frame normalization would entangle them with the phone content.
    """
    def w(name):
        return store[prefix + name]

    offsets = nc.check_offsets(offsets, x.rows)
    h = nc.add(x, nc.constant(nc.positional(offsets, x.cols)))
    normed = nc.layer_norm(h, w("attn.ln_g"), w("attn.ln_b"))
    attended = nc.attention(nc.affine(normed, w("attn.wq")), nc.affine(normed, w("attn.wk")),
                            nc.affine(normed, w("attn.wv")), offsets=offsets)
    h = nc.add(h, nc.affine(attended, w("attn.wo")))
    normed = nc.layer_norm(h, w("conv.ln_g"), w("conv.ln_b"))
    conv = nc.conv1d(normed, w("conv.k"), w("conv.b"), width=CONV_WIDTH, offsets=offsets)
    return nc.add(h, nc.relu(conv))


class EncoderModel:
    """Parameter container; all computation lives in the module functions."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c, d = config.channels, config.acoustic_dim
        p = block_params(rng, c)
        p["proj.w"] = nc.glorot_uniform(rng, c, d)
        p["proj.b"] = np.zeros((1, d))
        self.store = nc.ParamStore(p)


def extract_frame_features(x, model: EncoderModel, offsets) -> nc.Tensor:
    """Map (T, C) feature rows of utterances packed at ``offsets`` to (T, D)
    frame-level acoustic features: one `residual_block`, then a projection."""
    xt = x if isinstance(x, nc.Tensor) else nc.constant(x)
    if xt.cols != model.config.channels:
        raise ShapeError(
            f"input has {xt.cols} channels, model expects {model.config.channels}"
        )
    p = model.store
    return nc.affine(residual_block(xt, p, offsets), p["proj.w"], p["proj.b"])


def pool_hierarchy(frames: nc.Tensor, align: AlignmentHierarchy) -> nc.Tensor:
    """Word rows (W, D): the mean of each word's frames. For a packed batch,
    ``align`` is the batch's stacked alignment and the rows come out in
    utterance order."""
    return nc.segment_mean(frames, align.word_edges)


def encode(x, align: AlignmentHierarchy, model: EncoderModel, offsets) -> nc.Tensor:
    """Word-level acoustic features (W, D) of the utterances packed in ``x``,
    whose frame rows start at ``offsets``, over their stacked alignment."""
    return pool_hierarchy(extract_frame_features(x, model, offsets), align)
