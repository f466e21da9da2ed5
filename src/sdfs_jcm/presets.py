"""Built-in run configurations for the five figure families.

Figures 1, 2 and 4 are three views of one evolution per variant: the
atomic inversion, the field entropy and the phase distribution of the
state alpha0 = 3, r = 1, phi = 0 with m = 0, 1, 2 for a/b/c, on
resonance (`FIGURE_RUNS`). Figure 3 is the photon-number distribution
of the weaker displacement alpha0 = 0.5. Figure 5 is three Husimi Q
snapshots of the m = 1 run of figure 1 (`FIGURE_RUNS["b"]`) at the
scaled times `Q_TIMES`: 0, T_R/2 and T_R, where T_R is the revival-time
estimate for alpha0 = 3, r = 1. A panel differs from the run of its
variant only in its observables, its output_dir and, for figure 5, its
q_time_scaled.
"""

from __future__ import annotations

from dataclasses import replace

from .config import RunConfig
from .observables import revival_time
from .sdfs import SdfsParams

REVIVAL_T = revival_time(SdfsParams(alpha0=3.0, r=1.0))
_VARIANT_M = {"a": 0, "b": 1, "c": 2}


def _run(alpha0: float, m: int) -> RunConfig:
    return RunConfig(state=SdfsParams(alpha0=alpha0, r=1.0, phi=0.0, m=m))


FIGURE_RUNS = {variant: _run(3.0, m) for variant, m in _VARIANT_M.items()}
Q_TIMES = {"a": 0.0, "b": 0.5 * REVIVAL_T, "c": REVIVAL_T}

# family -> its observables and the run of each variant
_FAMILIES = {
    "fig1": (("inversion",), FIGURE_RUNS),
    "fig2": (("entropy",), FIGURE_RUNS),
    "fig3": (("photon_dist",), {v: _run(0.5, m) for v, m in _VARIANT_M.items()}),
    "fig4": (("phase_dist",), FIGURE_RUNS),
    "fig5": (("qfunc",), {v: replace(FIGURE_RUNS["b"], q_time_scaled=t) for v, t in Q_TIMES.items()}),
}

PRESET_NAMES = tuple(f"{family}{variant}" for family in _FAMILIES for variant in "abc")


def figure_preset(name: str) -> RunConfig:
    """RunConfig reproducing one panel of the five figure families."""
    if name not in PRESET_NAMES:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    observables, runs = _FAMILIES[name[:-1]]
    return replace(runs[name[-1]], observables=observables, output_dir=name)
