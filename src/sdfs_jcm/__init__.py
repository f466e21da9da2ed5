"""Exact Jaynes-Cummings dynamics for a cavity field prepared in a
squeezed displaced Fock state: atomic inversion, field entropy,
photon-number and Pegg-Barnett phase distributions, and the Husimi Q
function, plus a CLI that reproduces the standard figure families as
CSV data."""

from .config import OBSERVABLE_NAMES, QGridSpec, RunConfig, parse_config, serialize_config
from .dynamics import evolve, field_components
from .fock import FockVector
from .observables import (
    atomic_inversion,
    default_etas,
    entropy_rows,
    gram,
    phase_distribution,
    photon_number_distribution,
    q_function_grid,
    revival_time,
)
from .presets import PRESET_NAMES, figure_preset
from .runner import RunData, RunResult, compute, run
from .sdfs import SdfsParams, sdfs_overlap, sdfs_state

__version__ = "0.1.0"

__all__ = [
    "FockVector",
    "OBSERVABLE_NAMES",
    "PRESET_NAMES",
    "QGridSpec",
    "RunConfig",
    "RunData",
    "RunResult",
    "SdfsParams",
    "atomic_inversion",
    "compute",
    "default_etas",
    "entropy_rows",
    "evolve",
    "field_components",
    "figure_preset",
    "gram",
    "parse_config",
    "phase_distribution",
    "photon_number_distribution",
    "q_function_grid",
    "revival_time",
    "run",
    "sdfs_overlap",
    "sdfs_state",
    "serialize_config",
]
