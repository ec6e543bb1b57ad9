"""Shared utilities: RNG management, logging and validation."""

from .logging import TrainingLogger, get_logger
from .rng import (
    collection_seed_tree,
    ensure_rng,
    spawn_rngs,
    spawn_seed_sequences,
)
from .validation import (
    check_2d,
    check_fraction_sum,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "spawn_seed_sequences",
    "collection_seed_tree",
    "get_logger",
    "TrainingLogger",
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_integer",
    "check_fraction_sum",
    "check_2d",
]
