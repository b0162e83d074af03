"""Small shared utilities: deterministic RNG handling, unit helpers, validation.

These helpers are deliberately dependency-free (numpy only) and are used by
every other subpackage.  Nothing in here encodes paper semantics; the paper
model lives in :mod:`repro.core`.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.utils.io import atomic_write_bytes, atomic_write_text
    from repro.utils.rng import RngLike, as_rng, spawn_rngs
    from repro.utils.units import (
        GB,
        GIB,
        KB,
        MB,
        MIB,
        TB,
        format_bandwidth,
        format_bytes,
        format_duration,
    )
    from repro.utils.validation import (
        ValidationError,
        check_finite,
        check_in_range,
        check_non_negative,
        check_positive,
    )


__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "RngLike",
    "as_rng",
    "spawn_rngs",
    "KB",
    "MB",
    "GB",
    "TB",
    "MIB",
    "GIB",
    "format_bytes",
    "format_bandwidth",
    "format_duration",
    "ValidationError",
    "check_positive",
    "check_non_negative",
    "check_finite",
    "check_in_range",
]

__getattr__, __dir__ = attach(__name__)
