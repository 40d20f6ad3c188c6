"""Shared utilities for the HyperPRAW reproduction.

This package holds small, dependency-light helpers used across every other
subsystem:

* :mod:`repro.utils.rng` — deterministic random-number plumbing.  Every
  stochastic component in the library accepts either an integer seed or a
  :class:`numpy.random.Generator`; :func:`~repro.utils.rng.as_generator`
  normalises both into a generator.
* :mod:`repro.utils.tables` — fixed-width ASCII table rendering used by the
  experiment drivers to print paper-style tables without any plotting
  dependency.
* :mod:`repro.utils.heatmap` — ASCII heatmap rendering for the bandwidth /
  traffic matrices of Figures 1 and 6.
* :mod:`repro.utils.validation` — argument-checking helpers shared by public
  constructors.
"""

from repro.utils.rng import as_generator, spawn_generators, seed_sequence
from repro.utils.tables import format_table, format_kv
from repro.utils.heatmap import ascii_heatmap, downsample_matrix
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_in_range,
    check_array_shape,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "seed_sequence",
    "format_table",
    "format_kv",
    "ascii_heatmap",
    "downsample_matrix",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_array_shape",
]
