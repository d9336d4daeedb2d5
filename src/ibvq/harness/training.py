"""Joint autoencoder training and checkpointing."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ibvq.numcore as nc
from ibvq.decoder import (AutoencoderModels, DecoderConfig, prosody_codes,
                          reconstruction_graph, word_features)
from ibvq.encoder import EncoderConfig
from ibvq.errors import CheckpointError, ConfigError
from ibvq.numcore.checkpoint import write_atomic
from ibvq.quantizer import CapacityConfig, DeadCodes, init_codebook_from_features, usage_stats
from ibvq.synthdata.types import Corpus, Utterance


@dataclass(frozen=True)
class LossPoint:
    step: int
    mse: float
    codebook: float
    commitment: float

    @property
    def total(self) -> float:
        return self.mse + self.codebook + self.commitment


@dataclass
class TrainedAutoencoder:
    models: AutoencoderModels
    loss_curve: list[LossPoint]
    usage: "np.ndarray | None"  # (G,) final code perplexity per group
    # (W, G) code block of each training utterance, in training order, from
    # the trained encoder; None when the bottleneck is off
    codes: "list[np.ndarray] | None" = None


@dataclass(frozen=True)
class _ShardTerms:
    """What a training step logs of one shard of its batch: the shard's
    mean loss terms, and its codes and word features (None before the
    codebook is seeded and at K = 0)."""

    mse: float
    codebook: float
    commitment: float
    codes: "np.ndarray | None"
    word_features: "np.ndarray | None"


def split_shards(utts: list[Utterance], ids: list[int]) -> list[list[int]]:
    """``ids`` (one per utterance of ``utts``, a training batch) split into
    min(2, len(utts)) shards of about equal frames: longest first, each
    utterance goes to the shard with fewer frames so far, the first on a
    tie. Each shard keeps the batch order. A function of the batch alone,
    so a step's shards do not depend on the host."""
    shards: list[list[int]] = [[] for _ in range(min(2, len(utts)))]
    frames = [0] * len(shards)
    for pos in sorted(range(len(utts)), key=lambda p: -utts[p].alignment.total_frames):
        s = frames.index(min(frames))
        shards[s].append(pos)
        frames[s] += utts[pos].alignment.total_frames
    return [[ids[pos] for pos in sorted(shard)] for shard in shards]


def split_corpus(corpus: Corpus, holdout_fraction: float = 0.1) -> tuple[list[int], list[int]]:
    """Fixed train/holdout utterance split derived from the corpus seed."""
    n = len(corpus.utterances)
    rng = np.random.default_rng(corpus.config.seed + 9999)
    order = rng.permutation(n)
    n_hold = max(1, int(round(n * holdout_fraction))) if n > 1 else 0
    heldout = sorted(order[:n_hold].tolist())
    train = sorted(order[n_hold:].tolist())
    return train, heldout


def train_autoencoder(
    corpus: Corpus,
    cap_cfg: CapacityConfig,
    train_cfg: nc.TrainConfig,
    train_indices: list[int] | None = None,
    enc_cfg: EncoderConfig | None = None,
    dec_cfg: DecoderConfig | None = None,
    warmup_steps: int = 100,
    reseed_every: int = 50,
) -> TrainedAutoencoder:
    """Train encoder, codebook, and decoder jointly on reconstruction.

    The total loss at every step is mean reconstruction MSE plus the
    codebook and commitment terms; all three are logged separately. The
    bottleneck's capacity term is a constant (it depends only on K and G),
    so it never enters the gradient. Deterministic under the seed.

    For the first ``warmup_steps`` the quantizer is bypassed so the encoder
    settles before its outputs seed the codebook (k-means++); afterwards,
    entries that received no assignments since the last check are reseeded
    from live word features every ``reseed_every`` steps. Both guards exist
    to keep codebook usage from collapsing onto a few entries. At K = 0
    there is no warm-up: the decoder sees zero prosody vectors from the
    first step, as it does in evaluation.

    Each step splits its batch into two shards (`split_shards`; one for a
    batch of one), and the step's loss, hence its logged terms and its
    gradient, is the sum of the shards' losses weighted by their shares of
    the batch's utterances. A worker process forked for the call
    (`nc.ShardWorker`) back-propagates the second shard while this process
    does the first, when two CPUs are free; otherwise this process does
    both, with the same bytes out, about 15 % slower than one unsharded
    step. The worker has exited when this returns or raises.
    """
    if train_indices is None:
        train_indices = list(range(len(corpus.utterances)))
    utts = [corpus.utterances[i] for i in train_indices]
    if not utts:
        raise ConfigError("no utterances to train on")
    channels = corpus.config.channels
    enc_cfg = enc_cfg or EncoderConfig(channels=channels, groups=cap_cfg.G, seed=train_cfg.seed)
    if enc_cfg.groups != cap_cfg.G:
        raise ConfigError("encoder group count must match the bottleneck's G")
    dec_cfg = dec_cfg or DecoderConfig(
        n_phones=corpus.inventory.size,
        channels=channels,
        prosody_dim=enc_cfg.acoustic_dim,
        seed=train_cfg.seed + 1,
    )
    models = AutoencoderModels.build(enc_cfg, dec_cfg, cap_cfg)

    rng = np.random.default_rng(train_cfg.seed)
    sampler = nc.BatchSampler(len(utts), train_cfg.batch_size, rng)

    warmup = min(warmup_steps, max(train_cfg.steps - 1, 0)) if cap_cfg.enabled else 0
    codebook_param = None  # the seeded codebook entries; None before seeding
    dead_codes = DeadCodes(cap_cfg)

    def seed_codebook() -> nc.Tensor:
        seed_idx = rng.permutation(len(utts))[: max(train_cfg.batch_size, 64)]
        feats = np.vstack(word_features([utts[i] for i in seed_idx], models))
        entries = models.codebook["entries"]
        entries.data[...] = init_codebook_from_features(feats, cap_cfg, train_cfg.seed)
        return entries

    curve: list[LossPoint] = []

    def shard_loss(request: tuple[list[int], bool, float]) -> tuple[nc.Tensor, _ShardTerms]:
        """A shard's loss weighted by its share of the batch, and its logged
        terms: ``request`` is its utterances' indices into ``utts``, whether
        to quantize and its weight."""
        indices, quantize, weight = request
        graph = reconstruction_graph([utts[i] for i in indices], models,
                                     train_cfg.commitment_cost, quantize=quantize)
        bn = graph.bottleneck
        terms = _ShardTerms(
            mse=graph.mse.item(),
            codebook=bn.codebook_loss.item(),
            commitment=bn.commitment_loss.item(),
            codes=bn.codes,
            word_features=None if bn.codes is None else graph.word_features.data,
        )
        return nc.mul(graph.loss, weight), terms

    def step_loss(step: int) -> nc.Tensor:
        nonlocal codebook_param
        if cap_cfg.enabled and codebook_param is None and step >= warmup:
            codebook_param = seed_codebook()
        batch = sampler.next()
        requests = [(shard, codebook_param is not None, len(shard) / len(batch))
                    for shard in split_shards([utts[i] for i in batch], batch.tolist())]
        if len(requests) > 1:
            worker.submit(requests[1])
        loss, terms = shard_loss(requests[0])
        shards = [terms]
        if len(requests) > 1:
            node, terms = worker.gather()
            # second operand: backward reaches it, and waits for the worker,
            # only after this shard's graph
            loss = nc.add(loss, node)
            shards.append(terms)
        if shards[0].codes is not None:
            dead_codes.count(np.concatenate([t.codes for t in shards]),
                             np.concatenate([t.word_features for t in shards]))
        curve.append(LossPoint(
            step=step,
            mse=sum(r[2] * t.mse for r, t in zip(requests, shards)),
            codebook=sum(r[2] * t.codebook for r, t in zip(requests, shards)),
            commitment=sum(r[2] * t.commitment for r, t in zip(requests, shards)),
        ))
        return loss

    def learning_rate(step: int) -> float:
        # cosine decay to 10% of the base rate sharpens late convergence
        frac = step / max(train_cfg.steps - 1, 1)
        return train_cfg.learning_rate * (0.1 + 0.45 * (1.0 + math.cos(math.pi * frac)))

    def reseed_dead_codes(step: int) -> None:
        if (
            codebook_param is not None
            and reseed_every > 0
            and (step + 1 - warmup) % reseed_every == 0
        ):
            dead_codes.reseed(codebook_param.data, rng)

    stores = list(models.stores().values())
    with nc.ShardWorker(stores, shard_loss) as worker:
        nc.fit(stores, train_cfg.steps, step_loss, learning_rate, on_step=reseed_dead_codes)

    usage = blocks = None
    if cap_cfg.enabled:
        if codebook_param is None:  # steps == 0: still produce a usable bundle
            seed_codebook()
        blocks = prosody_codes(utts, models)
        usage = usage_stats(np.concatenate(blocks), cap_cfg).perplexity
    return TrainedAutoencoder(models=models, loss_curve=curve, usage=usage, codes=blocks)


# ---------------------------------------------------------------------------
# model bundle checkpointing
# ---------------------------------------------------------------------------

_META_NAME = "meta.json"
_PARAMS_NAME = "params.npy"


def _layout(models: AutoencoderModels) -> list[list]:
    """``[name, rows, cols]`` of every parameter of the bundle, store by store,
    in the order `save_models` writes their values."""
    return [[f"{prefix}.{name}", rows, cols] for prefix, store in models.stores().items()
            for name, rows, cols in store.layout()]


def save_models(path: str | Path, models: AutoencoderModels) -> None:
    """Write the bundle's parameter values, then its metadata, under
    ``path``; a write that fails leaves the file it was replacing as it was.

    The values are every store's value row, store by store, in one vector.
    The metadata records their layout and the sha256 digest of the vector's
    bytes, so a save interrupted between the two files leaves a bundle that
    `load_models` refuses instead of pairing new parameters with old
    metadata."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    values = np.concatenate([store.values for store in models.stores().values()])
    digest = nc.save_params(root / _PARAMS_NAME, values)
    meta = {
        "encoder": dataclasses.asdict(models.encoder.config),
        "decoder": dataclasses.asdict(models.decoder.config),
        "capacity": {"K": models.cap_cfg.K, "G": models.cap_cfg.G},
        "params": _layout(models),
        "params_sha256": digest,
    }
    meta_text = json.dumps(meta, sort_keys=True, indent=1) + "\n"
    write_atomic(root / _META_NAME, lambda fh: fh.write(meta_text.encode()))


def _layout_difference(recorded, expected: list[list]) -> str:
    """What sets a recorded parameter layout apart from the bundle's, by
    parameter name."""
    try:
        shapes = {name: (rows, cols) for name, rows, cols in recorded}
    except (TypeError, ValueError):
        return "malformed parameter layout"
    wanted = {name: (rows, cols) for name, rows, cols in expected}
    problems = [f"parameter {name!r} missing" for name in wanted if name not in shapes]
    problems += [f"unknown parameter {name!r}" for name in shapes if name not in wanted]
    problems += [f"parameter {name!r} shape {shapes[name]} != expected {shape}"
                 for name, shape in wanted.items() if shapes.get(name, shape) != shape]
    return "; ".join(problems) or "parameters out of order or repeated"


def _config_from_meta(cls, fields, root: Path):
    """``cls(**fields)``, refusing fields the config class does not have
    (metadata written by a version with a different model)."""
    unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise CheckpointError(
            f"checkpoint {root} sets {cls.__name__} fields this version does not have: "
            f"{', '.join(unknown)}; retrain the model"
        )
    return cls(**fields)


def load_models(path: str | Path) -> AutoencoderModels:
    """The bundle saved under ``path``: its metadata must record the layout
    of the bundle it describes, and the file must hold those parameters'
    values, finite, and nothing else."""
    root = Path(path)
    try:
        meta = json.loads((root / _META_NAME).read_text())
    except OSError as e:
        raise CheckpointError(f"missing model metadata in {root}: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"malformed model metadata in {root}: {e}") from e
    try:
        models = AutoencoderModels.build(
            _config_from_meta(EncoderConfig, meta["encoder"], root),
            _config_from_meta(DecoderConfig, meta["decoder"], root),
            CapacityConfig(**meta["capacity"]),
        )
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"incomplete model metadata in {root}: {e}") from e
    if "params" not in meta or "params_sha256" not in meta:
        raise CheckpointError(
            f"checkpoint {root} records no parameter layout or digest (saved by an "
            "earlier version); retrain the model"
        )
    layout = _layout(models)
    if meta["params"] != layout:
        cap = models.cap_cfg
        raise CheckpointError(
            f"checkpoint {root} does not match its metadata (K={cap.K}, G={cap.G}): "
            f"{_layout_difference(meta['params'], layout)}"
        )
    values = nc.load_params(root / _PARAMS_NAME, meta["params_sha256"], layout)
    start = 0
    for store in models.stores().values():
        stop = start + store.values.size
        store.values[...] = values[start:stop]
        start = stop
    return models
