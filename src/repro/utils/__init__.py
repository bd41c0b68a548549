"""Shared infrastructure: seeded RNG streams, validation, tables."""

from repro.utils.rng import spawn_rng, as_rng
from repro.utils.validation import (
    check_array,
    check_X_y,
    check_consistent_length,
    check_is_fitted,
)
from repro.utils.tables import render_table

__all__ = [
    "spawn_rng",
    "as_rng",
    "check_array",
    "check_X_y",
    "check_consistent_length",
    "check_is_fitted",
    "render_table",
]
