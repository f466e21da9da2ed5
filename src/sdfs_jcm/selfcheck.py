"""Invariant suite behind the `check` CLI verb.

Each check pits an implementation path against an independent route
(matrix-exponential state construction, direct 2x2 eigensolves,
quadrature of analytically unit-mass densities, textbook limits) or
verifies a structural claim (collapse-revival timing, entropy dips,
phase/Q peak structure). Checks of a run residual hold it to its
`runner.TOLERANCES` entry; every other bound is a constant below. Each
detail line prints the bound it was compared against. The checks of
figures 1 and 2 take the runs of `figure_runs`, one per variant that `presets`
declares; the phase check reads a two-point run of variant a, the Q check
the state of variant b at figure 5's times. Each check returns whether it
passed and the detail of its line; `run_all` names the line after the
check's `CHECKS` entry, and a check that raises fails its line.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve, populations
from .fock import FockVector, build_sdfs_oracle
from .observables import ETAS, atomic_inversion
from .presets import FIGURE_RUNS, Q_TIMES, REVIVAL_T
from .runner import TOLERANCES, RunData, compute, q_grids, worst
from .sdfs import SdfsParams, log_factorial, sdfs_overlap, sdfs_state

AMPLITUDE_GRID = {
    "alpha0": (0j, 0.5 + 0j, 3.0 + 0j, 1.0 + 1.0j),
    "r": (0.0, 0.3, 1.0),
    "phi": (0.0, math.pi / 2),
    "m": (0, 1, 2),
}
# Each bound names what it holds, and "worst" the value that `check` reaches today.
AMPLITUDE_TOL = 1e-8  # |closed form - operator construction| per amplitude; worst 1.39e-14
# ||<u|v>| - |reference||, and the angle between them; worst 9.44e-16 and 9.28e-12 rad
OVERLAP_MODULUS_TOL, OVERLAP_PHASE_TOL = 1e-7, 1e-6  # modulus, phase in rad
OVERLAP_PHASE_FLOOR = 1e-8  # below this |<u|v>| the reference phase is undefined; least 8.9e-6
# [0, ln 2] with rounding slack; S_f of fig2a-c spans 8.2e-13 to ln 2 - 3.9e-5
ENTROPY_RANGE = (-1e-15, math.log(2.0) + 1e-12)
PURITY_TOL = 1e-10  # S_f of the pure initial field; worst 9.46e-13
# half-width of the windows around T_R/2 and T_R, as a fraction of T_R; the farthest
# feature, the entropy dip near T_R, sits 0.050 T_R off
NEAR = 0.1
COLLAPSE_MAX = 0.1  # windowed |W| the collapse must fall below; reaches 0.001
PEAK_FLOOR = 1e-6  # phase maxima below this fraction of the peak are tail ripple; top ripple 1.1e-10
PEAK_ETA_TOL = 0.02  # rad, the t = 0 phase peak's offset from eta = 0; worst 0
CENTROID_TOL = 0.5  # offset of the initial Q centroid from (3, 0); worst 4.8e-16
INITIAL_Q_LOBES = 2  # half-maximum components of the initial Q, one each side of alpha0
# |W - cos 2t| of the vacuum, |P(n) - Poisson| of the coherent state; worst 2.2e-16, 2.5e-16
VACUUM_TOL, POISSON_TOL = 1e-12, 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def grid_params() -> list[SdfsParams]:
    return [
        SdfsParams(alpha0=a, r=r, phi=phi, m=m)
        for a, r, phi, m in itertools.product(*AMPLITUDE_GRID.values())
        if r > 0 or phi == 0.0  # at r = 0 phi enters neither the state nor its oracle
    ]


def check_amplitude_oracle() -> tuple[bool, str]:
    """Closed-form amplitudes vs the operator construction over the grid."""
    states = grid_params()
    qs = [sdfs_state(p) for p in states]
    oracles = build_sdfs_oracle(states, [2 * q.dim for q in qs])
    dev = worst(np.abs(q.amps - oracle.amps[: q.dim]) for q, oracle in zip(qs, oracles))
    return bool(dev <= AMPLITUDE_TOL), (
        f"worst deviation {dev:.3e} (tol {AMPLITUDE_TOL:g}) over {len(states)} states"
    )


def random_overlap_pairs() -> list[tuple[SdfsParams, SdfsParams]]:
    """The states (0, 1), (2, 3), ... of 40 drawn from random.Random(42),
    whose random() sequence CPython keeps across versions. Each state draws
    alpha uniform on [-3, 3]^2 until |alpha| <= 3, then r on [0, 1.2), phi
    on [0, 2 pi) and m from 0..3."""
    u = random.Random(42).random

    def draw() -> SdfsParams:
        alpha0 = complex(6 * u() - 3, 6 * u() - 3)
        while abs(alpha0) > 3:
            alpha0 = complex(6 * u() - 3, 6 * u() - 3)
        return SdfsParams(alpha0, 1.2 * u(), 2 * math.pi * u(), int(4 * u()))

    states = [draw() for _ in range(40)]
    return list(zip(states[::2], states[1::2]))


def check_overlap_oracle() -> tuple[bool, str]:
    """Closed-form overlaps vs oracle inner products on random pairs, and
    the closed-form amplitudes of each pair state vs its oracle vector.

    The phase comparison is skipped when the overlap modulus is below
    OVERLAP_PHASE_FLOOR; the modulus comparison always applies. Each
    window is twice the larger truncated state of its pair: twice the
    truncation floor would be 1.1-4.8x smaller on these pairs, and in 15
    of 20 below the state itself, short of its squeezed tail.
    """
    pairs = random_overlap_pairs()
    states = [p for pair in pairs for p in pair]
    qs = [sdfs_state(p) for p in states]
    dims = [2 * max(u.dim, v.dim) for u, v in zip(qs[::2], qs[1::2])]
    oracles = build_sdfs_oracle(states, np.repeat(dims, 2).tolist())
    amp_dev = worst(np.abs(q.amps - oracle.amps[: q.dim]) for q, oracle in zip(qs, oracles))
    mods, phases = [], [0.0]
    for (p1, p2), u, v in zip(pairs, oracles[::2], oracles[1::2]):
        reference = complex(np.vdot(u.amps, v.amps))  # equal windows per pair
        value = sdfs_overlap(p1, p2)
        mods.append(abs(abs(value) - abs(reference)))
        if abs(reference) > OVERLAP_PHASE_FLOOR:
            phases.append(abs(np.angle(value * np.conj(reference))))
    worst_mod, worst_phase = worst(mods), worst(phases)
    passed = (worst_mod <= OVERLAP_MODULUS_TOL and worst_phase <= OVERLAP_PHASE_TOL
              and amp_dev <= AMPLITUDE_TOL)
    return bool(passed), (
        f"worst modulus dev {worst_mod:.3e} (tol {OVERLAP_MODULUS_TOL:g}), "
        f"worst phase dev {worst_phase:.3e} rad (tol {OVERLAP_PHASE_TOL:g}), "
        f"worst amplitude dev {amp_dev:.3e} (tol {AMPLITUDE_TOL:g})"
    )


def figure_runs() -> dict[str, RunData]:
    """variant -> the inversion and entropy of `presets.FIGURE_RUNS[variant]`."""
    return {
        variant: compute(dataclasses.replace(cfg, observables=("inversion", "entropy")))
        for variant, cfg in FIGURE_RUNS.items()
    }


def check_conservation(runs: dict[str, RunData]) -> tuple[bool, str]:
    """sum(|A_n|^2 + |B_n|^2) stays at 1 along the fig1 sweeps."""
    tol = TOLERANCES["conservation_residual"]
    dev = worst(data.residuals["conservation_residual"] for data in runs.values())
    return bool(dev <= tol), f"worst residual {dev:.3e} (tol {tol:g}) over 3 x 2000 points"


def check_entropy_suite(runs: dict[str, RunData]) -> tuple[bool, str]:
    """Entropy bounds, initial purity, eigenvalue sum, and the 2x2
    eigensolve cross-check along the fig2 sweeps; the eigenvalues of both
    routes are held to the run's eigenvalue-sum tolerance."""
    tol = TOLERANCES["eigenvalue_sum_residual"]
    lo, hi = ENTROPY_RANGE
    eig_devs, sum_devs = [], []
    issues: list[str] = []
    for variant, data in runs.items():
        ts = data.ts
        entropy, lam_p, lam_m = data.entropy.T
        for i in np.nonzero(~((entropy >= lo) & (entropy <= hi)))[0]:
            issues.append(f"fig2{variant}: S={entropy[i]} out of [0, ln 2] at t={ts[i]}")
        for i in np.nonzero((ts == 0.0) & (entropy > PURITY_TOL))[0]:
            issues.append(f"fig2{variant}: S(0) = {entropy[i]:.3e} > {PURITY_TOL:g}")
        sum_devs.append(data.residuals["eigenvalue_sum_residual"])
        gmat = np.stack([data.cc, data.cs, data.cs.conj(), data.ss], axis=-1).reshape(-1, 2, 2)
        lam = np.linalg.eigvalsh(gmat)
        eig_devs += [np.abs(lam_p - lam[:, 1]), np.abs(lam_m - lam[:, 0])]
    worst_eig, worst_sum = worst(eig_devs), worst(sum_devs)
    passed = not issues and worst_eig <= tol and worst_sum <= tol
    detail = (
        f"worst eigensolve dev {worst_eig:.3e}, worst eigenvalue-sum dev "
        f"{worst_sum:.3e} (tol {tol:g})"
    )
    if issues:
        detail += "; " + "; ".join(issues[:3])
    return bool(passed), detail


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


def check_revival_structure(runs: dict[str, RunData]) -> tuple[bool, str]:
    """Windowed |W| collapses below COLLAPSE_MAX, then peaks within NEAR
    of the revival-time estimate T_R (fig1a: alpha0 = 3, r = 1, m = 0,
    resonant)."""
    data = runs["a"]
    ts = data.ts
    smooth = sliding_abs_mean(ts, data.inversion, half_width=1.0)
    window = (ts >= (1.0 - NEAR) * REVIVAL_T) & (ts <= (1.0 + NEAR) * REVIVAL_T)
    maxima = [i for i in local_maxima(smooth) if window[i]]
    if not maxima:
        return False, f"no windowed-|W| local maximum within {NEAR:.0%} of T_R = {REVIVAL_T:.3f}"
    peak_idx = max(maxima, key=lambda i: smooth[i])
    collapse_min = float(np.min(smooth[: peak_idx + 1]))
    return bool(collapse_min < COLLAPSE_MAX), (
        f"peak at t = {ts[peak_idx]:.3f} (T_R = {REVIVAL_T:.3f}), "
        f"collapse minimum {collapse_min:.3f} (< {COLLAPSE_MAX:g} required)"
    )


def _window_minimum(ts, values, lo, hi):
    """(min value, is-interior-local-min) over the window [lo, hi]."""
    idx = np.nonzero((ts >= lo) & (ts <= hi))[0]
    rel = int(np.argmin(values[idx]))
    i = idx[rel]
    interior = 0 < i < ts.size - 1 and rel not in (0, idx.size - 1)
    is_local = interior and values[i] <= values[i - 1] and values[i] <= values[i + 1]
    return float(values[i]), bool(is_local), float(ts[i])


def _median(values: np.ndarray) -> np.float64:
    """np.median of the 1-D values, bit for bit, without the numpy.ma import of
    its NaN test: the mean of the middle one or two sorted values, or the NaN
    that the sorted values end in."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):
        return ordered[-1]
    mid = ordered.size // 2
    return np.mean(ordered[mid - 1 + ordered.size % 2 : mid + 1])


def check_entropy_minima(runs: dict[str, RunData]) -> tuple[bool, str]:
    """Entropy dips within NEAR of T_R/2 and T_R sit below the mid-sweep
    median (fig2a parameters)."""
    data = runs["a"]
    ts = data.ts
    entropy = data.entropy[:, 0]
    baseline = _median(entropy[(ts >= 0.2 * REVIVAL_T) & (ts <= 0.8 * REVIVAL_T)])
    details = []
    passed = True
    for centre, label in ((0.5, "T_R/2"), (1.0, "T_R")):
        lo, hi = (centre - NEAR) * REVIVAL_T, (centre + NEAR) * REVIVAL_T
        value, is_local, where = _window_minimum(ts, entropy, lo, hi)
        ok = is_local and value < baseline
        passed = passed and ok
        details.append(f"{label}: min {value:.4f} at t={where:.2f} (local={is_local})")
    return bool(passed), f"baseline median {baseline:.4f}; " + "; ".join(details)


def check_phase_distribution() -> tuple[bool, str]:
    """Single phase peak at eta = 0 at t = 0 and unit integral (fig4a
    parameters), both from a two-point run of the preset's state and times.
    The integral is the conservation sum at every t, which conservation-fig1
    bounds at all 2000 times, so two times test the kernel's scale.

    Peak counting ignores maxima below PEAK_FLOOR of the global peak:
    the truncated state carries an interference-ripple floor of order its
    tail mass (~1e-10 here) in the far wings, nine orders below the
    peak, which any finite evaluation shows.
    """
    tol = TOLERANCES["phase_integral_residual"]
    data = compute(dataclasses.replace(FIGURE_RUNS["a"], observables=("phase_dist",), t_points=2))
    worst_integral = data.residuals["phase_integral_residual"]
    vals0 = data.phase_dist[0]  # ts[0] = 0
    extended = np.concatenate(([vals0[-1]], vals0, [vals0[0]]))  # cyclic neighbours
    peaks = local_maxima(extended) - 1
    peaks = peaks[vals0[peaks] >= PEAK_FLOOR * float(np.max(vals0))]
    peak_count = len(peaks)
    peak_eta = float(ETAS[peaks[0]]) if peak_count else math.nan
    return bool(peak_count == 1 and abs(peak_eta) <= PEAK_ETA_TOL and worst_integral <= tol), (
        f"{peak_count} peak(s) at t=0 (location {peak_eta:.4f} rad), "
        f"worst integral dev {worst_integral:.3e} (tol {tol:g})"
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
    if total == 0.0:  # no centroid: a NaN grid leaves the mask empty
        return int(count), (math.nan, math.nan)
    cx = float(np.sum(weights * axis[None, :]) / total)
    cy = float(np.sum(weights * axis[:, None]) / total)
    return int(count), (cx, cy)


def check_q_structure() -> tuple[bool, str]:
    """Half-maximum structure of the Q snapshots: initially INITIAL_Q_LOBES
    components whose centroid is near alpha0 = (3, 0), at least two at half
    the revival time, unit grid integral throughout. The initial Q of the
    squeezed one-photon state is |beta - alpha0|^2 times an anisotropic
    Gaussian, so it vanishes at alpha0 and peaks on either side of it. The
    conservation residuals of the three snapshots are held to their run bound."""
    tol, norm_tol = TOLERANCES["q_integral_residual"], TOLERANCES["conservation_residual"]
    issues, counts = [], []
    p, detuning = FIGURE_RUNS["b"].state, FIGURE_RUNS["b"].detuning_ratio
    axis, grids, conservation, integrals, _ = q_grids(
        p, sdfs_state(p), list(Q_TIMES.values()), detuning
    )
    if not (dev := worst([conservation])) <= norm_tol:
        issues.append(f"worst conservation residual {dev:.3e} (tol {norm_tol:g})")
    for variant, grid, integral in zip(Q_TIMES, grids, integrals):
        if not abs(integral - 1.0) <= tol:
            issues.append(f"fig5{variant}: integral {integral:.6f} off unit by > {tol:g}")
        count, centroid = _half_max_components(grid, axis)
        counts.append(count)
        if variant == "a":
            offset = math.hypot(centroid[0] - 3.0, centroid[1])
            if count != INITIAL_Q_LOBES or not offset <= CENTROID_TOL:
                issues.append(
                    f"fig5a: {count} component(s) (expected {INITIAL_Q_LOBES}), "
                    f"centroid offset {offset:.3f} (tol {CENTROID_TOL:g})"
                )
        if variant == "b" and count < 2:
            issues.append(f"fig5b: expected >= 2 components, found {count}")
    return not issues, (
        f"integrals {['%.6f' % v for v in integrals]}, components {counts}"
        + ("; " + "; ".join(issues) if issues else "")
    )


def check_trivial_limits() -> tuple[bool, str]:
    """Vacuum Rabi cosine and coherent-state Poisson statistics."""
    q = FockVector(np.array([1.0, 0.0]))
    ts = np.linspace(0.0, 10.0, 2000)
    w = atomic_inversion(*populations(*evolve(q, ts)))
    worst_w = worst([np.abs(w - np.cos(2.0 * ts))])
    probs = np.abs(sdfs_state(SdfsParams(alpha0=3.0)).amps) ** 2
    ns = np.arange(probs.size)
    poisson = np.exp(ns * math.log(9.0) - 9.0 - log_factorial(ns))
    worst_p = worst([np.abs(probs - poisson)])
    return bool(worst_w <= VACUUM_TOL and worst_p <= POISSON_TOL), (
        f"vacuum inversion dev {worst_w:.3e} (tol {VACUUM_TOL:g}), "
        f"Poisson dev {worst_p:.3e} (tol {POISSON_TOL:g})"
    )


# Each line of `check` in print order: its name, its check, and whether the
# check reads the figure runs.
CHECKS = (
    ("amplitude-oracle-grid", check_amplitude_oracle, False),
    ("overlap-oracle-pairs", check_overlap_oracle, False),
    ("conservation-fig1", check_conservation, True),
    ("entropy-fig2", check_entropy_suite, True),
    ("revival-structure", check_revival_structure, True),
    ("entropy-minima", check_entropy_minima, True),
    ("phase-distribution", check_phase_distribution, False),
    ("q-structure", check_q_structure, False),
    ("trivial-limits", check_trivial_limits, False),
)


def run_all() -> list[CheckResult]:
    """The nine checks in print order, the figure runs computed once. A check
    that raises, or whose figure runs raise, fails its line with the exception,
    and the other checks still run."""
    try:
        runs = figure_runs()
    except Exception as exc:
        runs = exc
    results = []
    for name, check, reads_runs in CHECKS:
        try:
            if reads_runs and isinstance(runs, Exception):
                raise runs
            passed, detail = check(runs) if reads_runs else check()
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
