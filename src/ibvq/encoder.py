"""Reference encoder: frame-level feature extraction, then mean pooling of
each word's frames into one word-level acoustic vector.

One self-attention block and one convolution block (each with a residual
connection and layer norm) stand in for a deeper feed-forward transformer
stack: global context plus local filtering at desk scale.

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
        if self.acoustic_dim % self.groups != 0:
            raise ConfigError(
                f"acoustic_dim {self.acoustic_dim} must be divisible by groups {self.groups}"
            )
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")


class EncoderModel:
    """Parameter container; all computation lives in the module functions."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c, d = config.channels, config.acoustic_dim
        p = {name: nc.glorot_uniform(rng, c, c) for name in ("attn.wq", "attn.wk", "attn.wv")}
        # residual-branch outputs start small so the stream is near-identity
        p["attn.wo"] = 0.1 * nc.glorot_uniform(rng, c, c)
        p["attn.ln_g"] = np.ones((1, c))
        p["attn.ln_b"] = np.zeros((1, c))
        p["conv.k"] = 0.1 * nc.glorot_uniform(rng, CONV_WIDTH * c, c)
        p["conv.b"] = np.zeros((1, c))
        p["conv.ln_g"] = np.ones((1, c))
        p["conv.ln_b"] = np.zeros((1, c))
        p["proj.w"] = nc.glorot_uniform(rng, c, d)
        p["proj.b"] = np.zeros((1, d))
        self.store = nc.ParamStore(p)


def extract_frame_features(x, model: EncoderModel, offsets) -> nc.Tensor:
    """Map (T, C) feature rows of utterances packed at ``offsets`` to (T, D)
    frame-level acoustic features.

    Sinusoidal positional encoding of each frame's position within its
    utterance is added to the input before the blocks, so frame order
    matters to the output. Blocks are pre-norm: the residual
    stream carries the raw input channels to the output projection, which
    matters here because single input channels (pitch, voicing, energy) are
    meaningful on their own and per-frame normalization would entangle them
    with the channel statistics of the phone content.
    """
    p = model.store
    xt = x if isinstance(x, nc.Tensor) else nc.constant(x)
    if xt.cols != model.config.channels:
        raise ShapeError(
            f"input has {xt.cols} channels, model expects {model.config.channels}"
        )
    offsets = nc.check_offsets(offsets, xt.rows)
    h = nc.add(xt, nc.constant(nc.positional(offsets, model.config.channels)))
    normed = nc.layer_norm(h, p["attn.ln_g"], p["attn.ln_b"])
    attended = nc.attention(
        nc.affine(normed, p["attn.wq"]),
        nc.affine(normed, p["attn.wk"]),
        nc.affine(normed, p["attn.wv"]),
        offsets=offsets,
    )
    h = nc.add(h, nc.affine(attended, p["attn.wo"]))
    normed = nc.layer_norm(h, p["conv.ln_g"], p["conv.ln_b"])
    conv = nc.relu(
        nc.conv1d(normed, p["conv.k"], p["conv.b"], width=CONV_WIDTH, offsets=offsets)
    )
    h = nc.add(h, conv)
    return nc.affine(h, p["proj.w"], p["proj.b"])


def pool_hierarchy(frames: nc.Tensor, align: AlignmentHierarchy) -> nc.Tensor:
    """Word rows (W, D): the mean of each word's frames. For a packed batch,
    ``align`` is the batch's stacked alignment and the rows come out in
    utterance order."""
    return nc.segment_mean(frames, align.word_edges)


def encode(x, align: AlignmentHierarchy, model: EncoderModel, offsets) -> nc.Tensor:
    """Word-level acoustic features (W, D) of the utterances packed in ``x``,
    whose frame rows start at ``offsets``, over their stacked alignment."""
    return pool_hierarchy(extract_frame_features(x, model, offsets), align)
