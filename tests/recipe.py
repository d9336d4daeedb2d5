"""A shortened training recipe for tests that train a few dozen steps."""

from contextlib import contextmanager

from ibvq.harness import training


@contextmanager
def recipe(warmup: int, reseed: int = training.RESEED_EVERY):
    """Inside the block, `train_autoencoder` warms up unquantized for
    ``warmup`` steps (`training.WARMUP_STEPS`) and reseeds dead codebook
    entries every ``reseed`` steps (`training.RESEED_EVERY`)."""
    saved = training.WARMUP_STEPS, training.RESEED_EVERY
    training.WARMUP_STEPS, training.RESEED_EVERY = warmup, reseed
    try:
        yield
    finally:
        training.WARMUP_STEPS, training.RESEED_EVERY = saved
