"""Invariant suite behind the `check` CLI verb.

Each check pits an implementation path against an independent route
(matrix-exponential state construction, direct 2x2 eigensolves,
quadrature of analytically unit-mass densities, textbook limits) or
verifies a structural claim (collapse-revival timing, entropy dips,
phase/Q peak structure). Checks of a run residual hold it to its
`runner.TOLERANCES` entry; every other bound is a constant below. Each
detail line prints the bound it was compared against. The checks of
figures 1, 2 and 4 read one run per variant (`_figure_run`).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .dynamics import evolve, field_components, populations
from .fock import FockVector, build_sdfs_oracle
from .observables import ETAS, atomic_inversion
from .presets import REVIVAL_T, figure_preset
from .runner import TOLERANCES, RunData, compute, q_grids
from .sdfs import SdfsParams, log_factorial, sdfs_overlap, sdfs_state

AMPLITUDE_GRID = {
    "alpha0": (0j, 0.5 + 0j, 3.0 + 0j, 1.0 + 1.0j),
    "r": (0.0, 0.3, 1.0),
    "phi": (0.0, math.pi / 2),
    "m": (0, 1, 2),
}
AMPLITUDE_TOL = 1e-8  # closed-form amplitudes against the operator construction
OVERLAP_MODULUS_TOL, OVERLAP_PHASE_TOL = 1e-7, 1e-6  # modulus, phase in rad
OVERLAP_PHASE_FLOOR = 1e-8  # below this |<u|v>| the reference phase is undefined
ENTROPY_RANGE = (-1e-15, math.log(2.0) + 1e-12)  # [0, ln 2] with rounding slack
PURITY_TOL = 1e-10  # S_f of the pure initial field
NEAR = 0.1  # half-width of the windows around T_R/2 and T_R, as a fraction of T_R
COLLAPSE_MAX = 0.1  # windowed |W| the collapse must fall below
PEAK_FLOOR = 1e-6  # phase maxima below this fraction of the peak are tail ripple
PEAK_ETA_TOL = 0.02  # rad
CENTROID_TOL = 0.5  # offset of the initial Q centroid from (3, 0)
VACUUM_TOL, POISSON_TOL = 1e-12, 1e-10  # vacuum Rabi cosine, coherent Poisson law
# The CheckResult names of the checks that read `_figure_run`
_RUN_READERS = frozenset(
    {"conservation-fig1", "entropy-fig2", "revival-structure", "entropy-minima", "phase-distribution"}
)
# variant -> run, set by `run_all` for its own calls (per thread and task)
_figure_runs: ContextVar[dict[str, RunData] | None] = ContextVar("_figure_runs", default=None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def grid_params() -> list[SdfsParams]:
    return [
        SdfsParams(alpha0=a, r=r, phi=phi, m=m)
        for a, r, phi, m in itertools.product(*AMPLITUDE_GRID.values())
    ]


def check_amplitude_oracle() -> CheckResult:
    """Closed-form amplitudes vs the operator construction over the grid."""
    states = grid_params()
    qs = [sdfs_state(p) for p in states]
    oracles = build_sdfs_oracle(states, [2 * q.dim for q in qs])
    worst = max(
        float(np.max(np.abs(q.amps - oracle.amps[: q.dim])))
        for q, oracle in zip(qs, oracles)
    )
    return CheckResult(
        "amplitude-oracle-grid",
        bool(worst <= AMPLITUDE_TOL),
        f"worst deviation {worst:.3e} (tol {AMPLITUDE_TOL:g}) over {len(states)} states",
    )


def random_overlap_pairs() -> list[tuple[SdfsParams, SdfsParams]]:
    """20 random pairs with |alpha| <= 3, r <= 1.2, m <= 3, drawn from seed 42."""
    rng = np.random.default_rng(42)

    def draw() -> SdfsParams:
        alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        while abs(alpha) > 3:
            alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        return SdfsParams(
            alpha0=alpha,
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )

    return [(draw(), draw()) for _ in range(20)]


def check_overlap_oracle() -> CheckResult:
    """Closed-form overlaps vs oracle inner products on random pairs.

    The phase comparison is skipped when the overlap modulus is below
    OVERLAP_PHASE_FLOOR; the modulus comparison always applies.
    """
    pairs = random_overlap_pairs()
    dims = [2 * max(sdfs_state(p).dim for p in pair) for pair in pairs]
    oracles = build_sdfs_oracle([p for pair in pairs for p in pair], np.repeat(dims, 2).tolist())
    worst_mod = 0.0
    worst_phase = 0.0
    for (p1, p2), u, v in zip(pairs, oracles[::2], oracles[1::2]):
        reference = complex(np.vdot(u.amps, v.amps))  # equal windows per pair
        value = sdfs_overlap(p1, p2)
        worst_mod = max(worst_mod, abs(abs(value) - abs(reference)))
        if abs(reference) > OVERLAP_PHASE_FLOOR:
            worst_phase = max(worst_phase, abs(np.angle(value * np.conj(reference))))
    passed = worst_mod <= OVERLAP_MODULUS_TOL and worst_phase <= OVERLAP_PHASE_TOL
    return CheckResult(
        "overlap-oracle-pairs",
        bool(passed),
        f"worst modulus dev {worst_mod:.3e} (tol {OVERLAP_MODULUS_TOL:g}), "
        f"worst phase dev {worst_phase:.3e} rad (tol {OVERLAP_PHASE_TOL:g})",
    )


def _shared_presets(names: list[str], fields: tuple[str, ...]) -> list[RunConfig]:
    """The presets of names; ValueError unless they agree on the RunConfig fields."""
    cfgs = [figure_preset(name) for name in names]
    keys = [tuple(getattr(cfg, field) for field in fields) for cfg in cfgs]
    if any(key != keys[0] for key in keys):
        raise ValueError(f"presets {', '.join(names)} no longer share {', '.join(fields)}")
    return cfgs


def _figure_run(variant: str) -> RunData:
    """The run of fig1, fig2 and fig4 `variant` (one state, detuning and
    time grid): inversion and entropy, and the phase density for a.
    Computed once within `run_all`, afresh for a check called on its own."""
    runs = _figure_runs.get()
    if runs is not None and variant in runs:
        return runs[variant]
    cfg, *_ = _shared_presets(
        [f"fig{family}{variant}" for family in "124"],
        ("state", "detuning_ratio", "t_max_scaled", "t_points"),
    )
    observables = ("inversion", "entropy") + (("phase_dist",) if variant == "a" else ())
    data = compute(dataclasses.replace(cfg, observables=observables))
    if runs is not None:
        runs[variant] = data
    return data


def check_conservation() -> CheckResult:
    """sum(|A_n|^2 + |B_n|^2) stays at 1 along the fig1 sweeps."""
    tol = TOLERANCES["conservation_residual"]
    worst = max(_figure_run(variant).residuals["conservation_residual"] for variant in "abc")
    return CheckResult(
        "conservation-fig1",
        bool(worst <= tol),
        f"worst residual {worst:.3e} (tol {tol:g}) over 3 x 2000 points",
    )


def check_entropy_suite() -> CheckResult:
    """Entropy bounds, initial purity, eigenvalue sum, and the 2x2
    eigensolve cross-check along the fig2 sweeps; the eigenvalues of both
    routes are held to the run's eigenvalue-sum tolerance."""
    tol = TOLERANCES["eigenvalue_sum_residual"]
    lo, hi = ENTROPY_RANGE
    worst_eig = 0.0
    worst_sum = 0.0
    issues: list[str] = []
    for variant in "abc":
        name, data = f"fig2{variant}", _figure_run(variant)
        ts = data.ts
        entropy, lam_p, lam_m = data.entropy.T
        for i in np.nonzero(~((entropy >= lo) & (entropy <= hi)))[0]:
            issues.append(f"{name}: S={entropy[i]} out of [0, ln 2] at t={ts[i]}")
        for i in np.nonzero((ts == 0.0) & (entropy > PURITY_TOL))[0]:
            issues.append(f"{name}: S(0) = {entropy[i]:.3e} > {PURITY_TOL:g}")
        worst_sum = max(worst_sum, data.residuals["eigenvalue_sum_residual"])
        gmat = np.stack([data.cc, data.cs, data.cs.conj(), data.ss], axis=-1).reshape(-1, 2, 2)
        lam = np.linalg.eigvalsh(gmat)
        worst_eig = max(
            worst_eig,
            float(np.max(np.abs(lam_p - lam[:, 1]))),
            float(np.max(np.abs(lam_m - lam[:, 0]))),
        )
    passed = not issues and worst_eig <= tol and worst_sum <= tol
    detail = (
        f"worst eigensolve dev {worst_eig:.3e}, worst eigenvalue-sum dev "
        f"{worst_sum:.3e} (tol {tol:g})"
    )
    if issues:
        detail += "; " + "; ".join(issues[:3])
    return CheckResult("entropy-fig2", bool(passed), detail)


def sliding_abs_mean(ts: np.ndarray, values: np.ndarray, half_width: float) -> np.ndarray:
    """Mean of |values| over the window |t' - t| <= half_width."""
    mags = np.abs(values)
    lo = np.searchsorted(ts, ts - half_width, side="left")
    hi = np.searchsorted(ts, ts + half_width, side="right")
    csum = np.concatenate(([0.0], np.cumsum(mags)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Interior indices that top both neighbours (strictly on one side)."""
    v = values
    flat = (v[1:-1] >= v[:-2]) & (v[1:-1] >= v[2:])
    strict = (v[1:-1] > v[:-2]) | (v[1:-1] > v[2:])
    return np.nonzero(flat & strict)[0] + 1


def check_revival_structure() -> CheckResult:
    """Windowed |W| collapses below COLLAPSE_MAX, then peaks within NEAR
    of the revival-time estimate T_R (fig1a: alpha0 = 3, r = 1, m = 0,
    resonant)."""
    data = _figure_run("a")
    ts = data.ts
    smooth = sliding_abs_mean(ts, data.inversion, half_width=1.0)
    window = (ts >= (1.0 - NEAR) * REVIVAL_T) & (ts <= (1.0 + NEAR) * REVIVAL_T)
    maxima = [i for i in local_maxima(smooth) if window[i]]
    if not maxima:
        return CheckResult(
            "revival-structure",
            False,
            f"no windowed-|W| local maximum within {NEAR:.0%} of T_R = {REVIVAL_T:.3f}",
        )
    peak_idx = max(maxima, key=lambda i: smooth[i])
    collapse_min = float(np.min(smooth[: peak_idx + 1]))
    return CheckResult(
        "revival-structure",
        bool(collapse_min < COLLAPSE_MAX),
        f"peak at t = {ts[peak_idx]:.3f} (T_R = {REVIVAL_T:.3f}), "
        f"collapse minimum {collapse_min:.3f} (< {COLLAPSE_MAX:g} required)",
    )


def _window_minimum(ts, values, lo, hi):
    """(min value, is-interior-local-min) over the window [lo, hi]."""
    idx = np.nonzero((ts >= lo) & (ts <= hi))[0]
    rel = int(np.argmin(values[idx]))
    i = idx[rel]
    interior = 0 < i < ts.size - 1 and rel not in (0, idx.size - 1)
    is_local = interior and values[i] <= values[i - 1] and values[i] <= values[i + 1]
    return float(values[i]), bool(is_local), float(ts[i])


def check_entropy_minima() -> CheckResult:
    """Entropy dips within NEAR of T_R/2 and T_R sit below the mid-sweep
    median (fig2a parameters)."""
    data = _figure_run("a")
    ts = data.ts
    entropy = data.entropy[:, 0]
    baseline = np.median(entropy[(ts >= 0.2 * REVIVAL_T) & (ts <= 0.8 * REVIVAL_T)])
    details = []
    passed = True
    for centre, label in ((0.5, "T_R/2"), (1.0, "T_R")):
        lo, hi = (centre - NEAR) * REVIVAL_T, (centre + NEAR) * REVIVAL_T
        value, is_local, where = _window_minimum(ts, entropy, lo, hi)
        ok = is_local and value < baseline
        passed = passed and ok
        details.append(f"{label}: min {value:.4f} at t={where:.2f} (local={is_local})")
    return CheckResult(
        "entropy-minima",
        bool(passed),
        f"baseline median {baseline:.4f}; " + "; ".join(details),
    )


def check_phase_distribution() -> CheckResult:
    """Single phase peak at eta = 0 at t = 0 and unit integral at all
    sampled times (fig4a parameters).

    Peak counting ignores maxima below PEAK_FLOOR of the global peak:
    the truncated state carries an interference-ripple floor of order its
    tail mass (~1e-10 here) in the far wings, nine orders below the
    peak, which any finite evaluation shows.
    """
    tol = TOLERANCES["phase_integral_residual"]
    data = _figure_run("a")
    worst_integral = data.residuals["phase_integral_residual"]
    vals0 = data.phase[0]  # ts[0] = 0
    extended = np.concatenate(([vals0[-1]], vals0, [vals0[0]]))  # cyclic neighbours
    peaks = local_maxima(extended) - 1
    peaks = peaks[vals0[peaks] >= PEAK_FLOOR * float(np.max(vals0))]
    peak_count = len(peaks)
    peak_eta = float(ETAS[peaks[0]]) if peak_count else math.nan
    return CheckResult(
        "phase-distribution",
        bool(peak_count == 1 and abs(peak_eta) <= PEAK_ETA_TOL and worst_integral <= tol),
        f"{peak_count} peak(s) at t=0 (location {peak_eta:.4f} rad), "
        f"worst integral dev {worst_integral:.3e} (tol {tol:g})",
    )


def _count_components(mask: np.ndarray) -> int:
    """Edge-connected (4-neighbour) components of a 2-D boolean mask."""
    unseen = set(zip(*(axis.tolist() for axis in np.nonzero(mask))))
    count = 0
    while unseen:
        count += 1
        stack = [unseen.pop()]
        while stack:
            i, j = stack.pop()
            near = {(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)} & unseen
            unseen -= near
            stack.extend(near)
    return count


def _half_max_components(grid: np.ndarray, axis: np.ndarray) -> tuple[int, tuple[float, float]]:
    """Connected components of {Q >= max/2} and the set's Q-weighted
    centroid, for Q values grid[y, x] over axis in both x and y."""
    mask = grid >= 0.5 * float(np.max(grid))
    count = _count_components(mask)
    weights = np.where(mask, grid, 0.0)
    total = float(np.sum(weights))
    cx = float(np.sum(weights * axis[None, :]) / total)
    cy = float(np.sum(weights * axis[:, None]) / total)
    return int(count), (cx, cy)


def check_q_structure() -> CheckResult:
    """Half-maximum structure of the Q snapshots: one cluster centred
    near (3, 0) initially, at least two at half the revival time, unit
    grid integral throughout."""
    tol = TOLERANCES["q_integral_residual"]
    issues = []
    integrals = []
    cfgs = _shared_presets([f"fig5{variant}" for variant in "abc"], ("state", "detuning_ratio"))
    p, detuning = cfgs[0].state, cfgs[0].detuning_ratio
    axis, grids, _ = q_grids(p, sdfs_state(p), [cfg.q_time_scaled for cfg in cfgs], detuning)
    cell = np.square(axis[1] - axis[0])
    for variant, grid in zip("abc", grids):
        integral = float(np.sum(grid)) * cell
        integrals.append(integral)
        if abs(integral - 1.0) > tol:
            issues.append(f"fig5{variant}: integral {integral:.6f} off unit by > {tol:g}")
        count, centroid = _half_max_components(grid, axis)
        if variant == "a":
            offset = math.hypot(centroid[0] - 3.0, centroid[1])
            if count < 1 or offset > CENTROID_TOL:
                issues.append(
                    f"fig5a: {count} component(s), centroid offset {offset:.3f} > {CENTROID_TOL:g}"
                )
        if variant == "b" and count < 2:
            issues.append(f"fig5b: expected >= 2 components, found {count}")
    return CheckResult(
        "q-structure",
        not issues,
        f"integrals {['%.6f' % v for v in integrals]}"
        + ("; " + "; ".join(issues) if issues else ""),
    )


def check_trivial_limits() -> CheckResult:
    """Vacuum Rabi cosine and coherent-state Poisson statistics."""
    q = FockVector(np.array([1.0, 0.0]))
    ts = np.linspace(0.0, 10.0, 2000)
    w = atomic_inversion(*populations(*field_components(*evolve(q, ts))))
    worst_w = float(np.max(np.abs(w - np.cos(2.0 * ts))))
    probs = np.abs(sdfs_state(SdfsParams(alpha0=3.0)).amps) ** 2
    ns = np.arange(probs.size)
    poisson = np.exp(ns * math.log(9.0) - 9.0 - log_factorial(ns))
    worst_p = float(np.max(np.abs(probs - poisson)))
    return CheckResult(
        "trivial-limits",
        bool(worst_w <= VACUUM_TOL and worst_p <= POISSON_TOL),
        f"vacuum inversion dev {worst_w:.3e} (tol {VACUUM_TOL:g}), "
        f"Poisson dev {worst_p:.3e} (tol {POISSON_TOL:g})",
    )


ALL_CHECKS = (
    check_amplitude_oracle,
    check_overlap_oracle,
    check_conservation,
    check_entropy_suite,
    check_revival_structure,
    check_entropy_minima,
    check_phase_distribution,
    check_q_structure,
    check_trivial_limits,
)


def run_all() -> list[CheckResult]:
    """ALL_CHECKS in order, each figure run computed once and dropped as
    soon as every check of _RUN_READERS has run, before `check_q_structure`."""
    runs, unread, results = {}, set(_RUN_READERS), []
    token = _figure_runs.set(runs)
    try:
        for check in ALL_CHECKS:
            results.append(check())
            unread.discard(results[-1].name)
            if not unread:
                runs.clear()
    finally:
        _figure_runs.reset(token)
    return results
