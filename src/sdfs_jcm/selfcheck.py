"""Invariant suite behind the `check` CLI verb.

Each check pits an implementation path against an independent route
(matrix-exponential state construction, direct 2x2 eigensolves,
quadrature of analytically unit-mass densities, textbook limits) or
verifies a structural claim (collapse-revival timing, entropy dips,
phase/Q peak structure) at a fixed tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import gammaln

from .dynamics import evolve
from .fock import FockVector, build_sdfs_oracle, inner_product
from .observables import atomic_inversion, revival_time
from .presets import figure_preset
from .runner import compute
from .sdfs import SdfsParams, choose_truncation, sdfs_overlap, _amplitudes

AMPLITUDE_GRID = {
    "alpha0": (0j, 0.5 + 0j, 3.0 + 0j, 1.0 + 1.0j),
    "r": (0.0, 0.3, 1.0),
    "phi": (0.0, math.pi / 2),
    "m": (0, 1, 2),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def grid_params() -> list[SdfsParams]:
    return [
        SdfsParams(alpha0=a, r=r, phi=phi, m=m)
        for a in AMPLITUDE_GRID["alpha0"]
        for r in AMPLITUDE_GRID["r"]
        for phi in AMPLITUDE_GRID["phi"]
        for m in AMPLITUDE_GRID["m"]
    ]


def check_amplitude_oracle(tol: float = 1e-8) -> CheckResult:
    """Closed-form amplitudes vs the operator construction over the grid."""
    states = grid_params()
    n_maxes = [choose_truncation(p, 1e-12) for p in states]
    oracles = build_sdfs_oracle(states, [2 * (n_max + 1) for n_max in n_maxes])
    worst = max(
        float(np.max(np.abs(_amplitudes(p, n_max) - oracle.amps[: n_max + 1])))
        for p, n_max, oracle in zip(states, n_maxes, oracles)
    )
    return _result(
        "amplitude-oracle-grid",
        worst <= tol,
        f"worst deviation {worst:.3e} (tol {tol:g}) over {len(states)} states",
    )


def random_overlap_pairs(
    count: int = 20, seed: int = 42
) -> list[tuple[SdfsParams, SdfsParams]]:
    """Deterministic random pairs with |alpha| <= 3, r <= 1.2, m <= 3."""
    rng = np.random.default_rng(seed)

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

    return [(draw(), draw()) for _ in range(count)]


def check_overlap_oracle(
    mod_tol: float = 1e-7, phase_tol: float = 1e-6
) -> CheckResult:
    """Closed-form overlaps vs oracle inner products on random pairs.

    The phase comparison is skipped when the overlap modulus is below
    1e-8, where the phase of the reference itself is numerically
    undefined; the modulus comparison always applies.
    """
    pairs = random_overlap_pairs()
    dims = [2 * (max(choose_truncation(p, 1e-12) for p in pair) + 1) for pair in pairs]
    oracles = build_sdfs_oracle([p for pair in pairs for p in pair], np.repeat(dims, 2).tolist())
    worst_mod = 0.0
    worst_phase = 0.0
    for (p1, p2), u, v in zip(pairs, oracles[::2], oracles[1::2]):
        reference = inner_product(u, v)
        value = sdfs_overlap(p1, p2)
        worst_mod = max(worst_mod, abs(abs(value) - abs(reference)))
        if abs(reference) > 1e-8:
            worst_phase = max(
                worst_phase, abs(np.angle(value * np.conj(reference)))
            )
    passed = worst_mod <= mod_tol and worst_phase <= phase_tol
    return _result(
        "overlap-oracle-pairs",
        passed,
        f"worst modulus dev {worst_mod:.3e} (tol {mod_tol:g}), "
        f"worst phase dev {worst_phase:.3e} rad (tol {phase_tol:g})",
    )


def check_conservation(tol: float = 1e-10) -> CheckResult:
    """sum(|A_n|^2 + |B_n|^2) stays at 1 along the fig1 sweeps."""
    worst = max(
        compute(figure_preset(name)).residuals["conservation_residual"]
        for name in ("fig1a", "fig1b", "fig1c")
    )
    return _result(
        "conservation-fig1",
        worst <= tol,
        f"worst residual {worst:.3e} (tol {tol:g}) over 3 x 2000 points",
    )


def check_entropy_suite(tol: float = 1e-10) -> CheckResult:
    """Entropy bounds, initial purity, eigenvalue sum, and the 2x2
    eigensolve cross-check along the fig2 sweeps."""
    ln2 = math.log(2.0)
    worst_eig = 0.0
    worst_sum = 0.0
    issues: list[str] = []
    for name in ("fig2a", "fig2b", "fig2c"):
        data = compute(figure_preset(name))
        ts = data.ts
        entropy, lam_p, lam_m = data.entropy.T
        for i in np.nonzero(~((entropy >= -1e-15) & (entropy <= ln2 + 1e-12)))[0]:
            issues.append(f"{name}: S={entropy[i]} out of [0, ln 2] at t={ts[i]}")
        for i in np.nonzero((ts == 0.0) & (entropy > 1e-10))[0]:
            issues.append(f"{name}: S(0) = {entropy[i]:.3e} > 1e-10")
        worst_sum = max(worst_sum, float(np.max(np.abs(lam_p + lam_m - 1.0))))
        gmat = np.empty((ts.size, 2, 2), dtype=complex)
        gmat[:, 0, 0] = data.cc
        gmat[:, 0, 1] = data.cs
        gmat[:, 1, 0] = data.cs.conj()
        gmat[:, 1, 1] = data.ss
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
    return _result("entropy-fig2", passed, detail)


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
    """Windowed |W| collapses below 0.1, then peaks within 10% of the
    revival-time estimate (alpha0 = 3, r = 1, m = 0, resonant)."""
    data = compute(figure_preset("fig1a"))
    ts = data.ts
    smooth = sliding_abs_mean(ts, data.inversion, half_width=1.0)
    t_rev = revival_time(SdfsParams(alpha0=3.0, r=1.0))
    window = (ts >= 0.9 * t_rev) & (ts <= 1.1 * t_rev)
    maxima = [i for i in local_maxima(smooth) if window[i]]
    if not maxima:
        return _result(
            "revival-structure",
            False,
            f"no windowed-|W| local maximum within 10% of T_R = {t_rev:.3f}",
        )
    peak_idx = max(maxima, key=lambda i: smooth[i])
    collapse_min = float(np.min(smooth[: peak_idx + 1]))
    passed = collapse_min < 0.1
    return _result(
        "revival-structure",
        passed,
        f"peak at t = {ts[peak_idx]:.3f} (T_R = {t_rev:.3f}), "
        f"collapse minimum {collapse_min:.3f} (< 0.1 required)",
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
    """Entropy dips near T_R/2 and T_R sit below the mid-sweep median
    (fig2a parameters)."""
    data = compute(figure_preset("fig2a"))
    ts = data.ts
    entropy = data.entropy[:, 0]
    t_rev = revival_time(SdfsParams(alpha0=3.0, r=1.0))
    baseline = np.median(entropy[(ts >= 0.2 * t_rev) & (ts <= 0.8 * t_rev)])
    details = []
    passed = True
    for lo, hi, label in (
        (0.4 * t_rev, 0.6 * t_rev, "T_R/2"),
        (0.9 * t_rev, 1.1 * t_rev, "T_R"),
    ):
        value, is_local, where = _window_minimum(ts, entropy, lo, hi)
        ok = is_local and value < baseline
        passed = passed and ok
        details.append(f"{label}: min {value:.4f} at t={where:.2f} (local={is_local})")
    return _result(
        "entropy-minima",
        passed,
        f"baseline median {baseline:.4f}; " + "; ".join(details),
    )


def check_phase_distribution() -> CheckResult:
    """Single phase peak at eta = 0 at t = 0 and unit integral at all
    sampled times (fig4a parameters).

    Peak counting ignores maxima below 1e-6 of the global peak: the
    truncated state carries an interference-ripple floor of order its
    tail mass (~1e-10 here) in the far wings, nine orders below the
    peak, which any finite evaluation shows.
    """
    data = compute(figure_preset("fig4a"))
    etas = data.etas
    worst_integral = data.residuals["phase_integral_residual"]
    vals0 = data.phase[0]  # ts[0] = 0
    extended = np.concatenate(([vals0[-1]], vals0, [vals0[0]]))  # cyclic neighbours
    peaks = local_maxima(extended) - 1
    peaks = peaks[vals0[peaks] >= 1e-6 * float(np.max(vals0))]
    peak_count = len(peaks)
    peak_eta = float(etas[peaks[0]]) if peak_count else math.nan
    passed = (
        peak_count == 1 and abs(peak_eta) <= 0.02 and worst_integral <= 1e-6
    )
    return _result(
        "phase-distribution",
        passed,
        f"{peak_count} peak(s) at t=0 (location {peak_eta:.4f} rad), "
        f"worst integral dev {worst_integral:.3e} (tol 1e-6)",
    )


def _half_max_components(grid) -> tuple[int, tuple[float, float]]:
    """Connected components of {Q >= max/2} and the set's Q-weighted centroid."""
    mask = grid.values >= 0.5 * float(np.max(grid.values))
    labels, count = ndimage.label(mask)
    weights = np.where(mask, grid.values, 0.0)
    total = float(np.sum(weights))
    cx = float(np.sum(weights * grid.x_axis[None, :]) / total)
    cy = float(np.sum(weights * grid.y_axis[:, None]) / total)
    return int(count), (cx, cy)


def check_q_structure() -> CheckResult:
    """Half-maximum structure of the Q snapshots: one cluster centred
    near (3, 0) initially, at least two at half the revival time, unit
    grid integral throughout."""
    issues = []
    integrals = []
    for variant in "abc":
        grid = compute(figure_preset(f"fig5{variant}")).qgrid
        cell = (grid.x_axis[1] - grid.x_axis[0]) * (grid.y_axis[1] - grid.y_axis[0])
        integral = float(np.sum(grid.values)) * cell
        integrals.append(integral)
        if abs(integral - 1.0) > 1e-3:
            issues.append(f"fig5{variant}: integral {integral:.6f} off unit by > 1e-3")
        count, centroid = _half_max_components(grid)
        if variant == "a":
            offset = math.hypot(centroid[0] - 3.0, centroid[1])
            if count < 1 or offset > 0.5:
                issues.append(
                    f"fig5a: {count} component(s), centroid offset {offset:.3f} > 0.5"
                )
        if variant == "b" and count < 2:
            issues.append(f"fig5b: expected >= 2 components, found {count}")
    return _result(
        "q-structure",
        not issues,
        f"integrals {['%.6f' % v for v in integrals]}"
        + ("; " + "; ".join(issues) if issues else ""),
    )


def check_trivial_limits() -> CheckResult:
    """Vacuum Rabi cosine and coherent-state Poisson statistics."""
    q = FockVector(np.array([1.0, 0.0]))
    ts = np.linspace(0.0, 10.0, 2000)
    w = atomic_inversion(*evolve(q, ts))
    worst_w = float(np.max(np.abs(w - np.cos(2.0 * ts))))
    p = SdfsParams(alpha0=3.0)
    n_max = choose_truncation(p, 1e-12)
    probs = np.abs(_amplitudes(p, n_max)) ** 2
    ns = np.arange(n_max + 1)
    poisson = np.exp(ns * math.log(9.0) - 9.0 - gammaln(ns + 1.0))
    worst_p = float(np.max(np.abs(probs - poisson)))
    passed = worst_w <= 1e-12 and worst_p <= 1e-10
    return _result(
        "trivial-limits",
        passed,
        f"vacuum inversion dev {worst_w:.3e} (tol 1e-12), "
        f"Poisson dev {worst_p:.3e} (tol 1e-10)",
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
    return [check() for check in ALL_CHECKS]
