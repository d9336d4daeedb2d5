"""Training loops, experiment drivers, and the command-line interface."""

from ibvq.harness.training import (
    LossPoint,
    TrainedAutoencoder,
    load_models,
    save_models,
    split_corpus,
    train_autoencoder,
)

__all__ = [
    "LossPoint",
    "TrainedAutoencoder",
    "load_models",
    "save_models",
    "split_corpus",
    "train_autoencoder",
]
