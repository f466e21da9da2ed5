"""Exact Jaynes-Cummings dynamics for a cavity field prepared in a
squeezed displaced Fock state: atomic inversion, field entropy,
photon-number and Pegg-Barnett phase distributions, and the Husimi Q
function, plus a CLI that reproduces the standard figure families as
CSV data. The package exports what the library example of the README
uses; everything else is imported from its module."""

from .dynamics import evolve, populations
from .observables import atomic_inversion
from .presets import figure_preset
from .runner import compute
from .sdfs import SdfsParams, sdfs_state

__version__ = "0.4.0"

__all__ = ["SdfsParams", "atomic_inversion", "compute", "evolve", "figure_preset",
           "populations", "sdfs_state"]
