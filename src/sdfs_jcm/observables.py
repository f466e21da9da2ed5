"""Measured quantities of the atom-cavity evolution.

Atomic inversion, von Neumann entropy of the reduced field state, the
time-dependent photon-number distribution, the Pegg-Barnett phase
distribution, the Husimi Q function, and the collapse-revival time
estimate. Everything is derived from the coefficient arrays in
`dynamics` and keeps their leading time axis: the field quantities take
the (T, dim + 1) components C and S of the reduced field state, or their
squared moduli from `dynamics.populations` (real: complex ones, say the
amplitudes, are a TypeError). That state is rank <= 2, which all formulas
here exploit. The phase density and the Q grid are one projection
|<bra|C>|^2 + |<bra|S>|^2 over a fixed set of bras, one stacked matvec
(zgemv) per leading index, which `runner` runs on one OpenBLAS thread.
The phase density's bras are the kernel of `phase_kernel` at the angles
ETAS, built once per run rather than per time block; the Q grid builds
each y row of coherent bras once for all snapshots, and once for a row
y < 0 and its mirror -y.

The entropy is one array computation too, but maps Python's abs,
math.hypot and math.log over its rows: the numpy versions round the
last bit differently, which would change the written entropy.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import NORM_TOL, ROUND_SLACK
from .sdfs import SdfsParams, log_factorial

_TWO_PI = 2.0 * math.pi
# |<C|S>| at or below this leaves the split to |cc - ss| / 2 alone
_CS_FLOOR = 1e-14
# The phase density's angles: ETA_POINTS uniform on [-pi, pi), as in the paper's plots
ETA_POINTS = 512
ETAS = np.linspace(-math.pi, math.pi, ETA_POINTS, endpoint=False)
ETAS.flags.writeable = False


def atomic_inversion(pc: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W(t) = sum_n (|A_n|^2 - |B_n|^2) per time from `dynamics.populations`, in [-1, 1]."""
    return np.sum(np.subtract(pc[..., :-1], ps[..., 1:], dtype=float), axis=-1)


def gram(c: np.ndarray, s: np.ndarray, pc: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, ...]:
    """<C|C>, <S|S> and <C|S> per time, which fix the rank-2 field spectrum;
    pc, ps = `dynamics.populations(c, s)`."""
    cc = np.sum(pc, axis=-1)
    ss = np.sum(ps, axis=-1)
    # a stacked 1 x n by n x 1 product per row keeps the bits of np.vdot; einsum does not
    cs = (c.conj()[..., None, :] @ s[..., :, None])[..., 0, 0]
    return cc, ss, cs


def _reject_first(bad: np.ndarray, describe) -> None:
    """Raise ValueError naming the first row flagged in bad, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise ValueError(f"row {rows[0]}: {describe(rows[0])}")


def entropy_rows(cc: np.ndarray, ss: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """(T, 3) rows (S_f, lambda_plus, lambda_minus) of rho_f per time from
    its Gram entries <C|C>, <S|S>, <C|S>; S_f = -sum lambda ln lambda (nats).

    lambda+- = (cc+ss)/2 +- hypot((cc-ss)/2, |cs|), the cancellation-free
    hyperbolic-angle split, which is |cc-ss|/2 for |cs| <= _CS_FLOOR.
    Eigenvalues are clamped to [0, 1] only within ROUND_SLACK, the slack
    `sdfs_state` grants its norm^2. Entries outside [0, 1] by more, a trace
    off 1 by > NORM_TOL, |cs|^2 > cc*ss + ROUND_SLACK or eigenvalues beyond
    the slack raise ValueError naming the first such row. Only |cs|
    (Python abs), the hypot and the logarithms run element by element, in
    Python's math: numpy's versions differ in the last bit.
    """
    acs = np.fromiter(map(abs, cs.tolist()), float, len(cs))
    _reject_first(
        ~((-ROUND_SLACK <= np.minimum(cc, ss)) & (np.maximum(cc, ss) <= 1.0 + ROUND_SLACK)),
        lambda i: f"cc={cc[i]}, ss={ss[i]} outside [0, 1]",
    )
    trace = cc + ss
    _reject_first(
        np.abs(trace - 1.0) > NORM_TOL,
        lambda i: f"trace cc + ss = {trace[i]} deviates from 1 beyond {NORM_TOL:g}",
    )
    _reject_first(
        acs * acs > cc * ss + ROUND_SLACK,
        lambda i: f"|<C|S>|^2 exceeds <C|C><S|S> beyond {ROUND_SLACK:g}",
    )

    half_gap = 0.5 * (cc - ss)
    split = np.abs(half_gap)
    wide = acs > _CS_FLOOR
    split[wide] = list(map(math.hypot, half_gap[wide].tolist(), acs[wide].tolist()))
    rows = np.empty((len(cc), 3))
    lams = rows[:, 1:]
    lams[:, 0], lams[:, 1] = 0.5 * trace + split, 0.5 * trace - split
    _reject_first(
        (lams[:, 1] < -ROUND_SLACK) | (lams[:, 0] > 1.0 + ROUND_SLACK),
        lambda i: f"eigenvalues ({lams[i, 0]}, {lams[i, 1]}) outside [0, 1] beyond slack",
    )
    np.clip(lams, 0.0, 1.0, out=lams)
    logs = np.zeros_like(lams)
    positive = lams > 0.0
    logs[positive] = list(map(math.log, lams[positive].tolist()))
    terms = lams * logs
    rows[:, 0] = (0.0 - terms[:, 0]) - terms[:, 1]
    return rows


def photon_number_distribution(pc: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """P(n, t) = <n|rho_f|n> = |C_n|^2 + |S_n|^2 per n and time from `dynamics.populations`."""
    return np.add(pc, ps, dtype=float)


def phase_kernel(dim: int) -> np.ndarray:
    """The (ETA_POINTS, dim) matrix e^{-i n eta} of `phase_distribution`,
    over the angles ETAS and n = 0..dim-1. It depends on no time, so one
    run builds it once for all of its rows."""
    return np.exp(-1j * np.outer(ETAS, np.arange(dim)))


def _project(bras: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|bras @ C|^2 + |bras @ S|^2 per leading index of c and s: one
    stacked matrix-vector product per row, since a single gemm over all
    rows would change the last bits."""
    return np.abs((bras @ c[..., None])[..., 0]) ** 2 + np.abs((bras @ s[..., None])[..., 0]) ** 2


def phase_distribution(c: np.ndarray, s: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Pegg-Barnett phase density P(eta, t) per radian, reference angle 0,
    as (T, ETA_POINTS) rows over ETAS, with kernel = `phase_kernel(dim + 1)`.

    The double sum (1/2pi) sum_{l,j} rho_lj e^{i(j-l)eta} over the full
    truncated space factorizes through the rank-2 structure into
    (1/2pi) (|sum_n C_n e^{-in eta}|^2 + |sum_n S_n e^{-in eta}|^2),
    which is evaluated exactly (no truncation beyond the state itself)
    and is manifestly real and nonnegative.
    """
    return _project(kernel, c, s) / _TWO_PI


def _coherent_bras(alphas: np.ndarray, dim: int) -> np.ndarray:
    """Rows <alpha|n> = e^{-|alpha|^2/2} (alpha*)^n / sqrt(n!), log-domain."""
    alphas = np.asarray(alphas, dtype=complex).ravel()
    mags = np.abs(alphas)
    ns = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(mags)
        logmag = (
            -0.5 * mags[:, None] ** 2
            + ns[None, :] * la[:, None]
            - 0.5 * log_factorial(ns)[None, :]
        )
    logmag[:, 0] = -0.5 * mags**2  # fix 0 * log(0) at the origin
    phase = np.exp(-1j * ns[None, :] * np.angle(alphas)[:, None])
    return np.exp(logmag) * phase


def q_function_grid(
    c: np.ndarray, s: np.ndarray, x_axis: np.ndarray, y_axis: np.ndarray
) -> np.ndarray:
    """Husimi Q(alpha) = <alpha|rho_f|alpha>/pi = (|<alpha|C>|^2 + |<alpha|S>|^2)/pi
    per unit area on the grid alpha = x + iy: (..., dim + 1) c and s give
    (..., ny, nx) values, [..., iy, ix] at (x_axis[ix], y_axis[iy]), one
    row of bras per y serving every snapshot.

    A row y < 0 whose exact negation -y is also in y_axis fills the -y row
    too, with the conjugated bras: <x - iy|n> is conj(<x + iy|n>) bit for
    bit, as |alpha| is even in y and arg(alpha) odd. Rows without such a
    mirror, y = 0 among them, build their own bras.

    The rank-2 contraction is algebraically identical to the full
    double sum over rho_nm but costs O(n_max) per point.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    y_axis = np.asarray(y_axis, dtype=float)
    values = np.empty((*c.shape[:-1], y_axis.size, x_axis.size))
    mirrors = {y: iy for iy, y in enumerate(y_axis.tolist()) if y > 0}
    filled = np.zeros(y_axis.size, dtype=bool)
    for iy, y in enumerate(y_axis):  # one row of bras at a time: memory O(nx * n_max)
        if filled[iy]:
            continue
        bras = _coherent_bras(x_axis + 1j * y, c.shape[-1])
        values[..., iy, :] = _project(bras, c, s) / math.pi
        mirror = mirrors.get(-y)
        if mirror is not None:
            values[..., mirror, :] = _project(bras.conj(), c, s) / math.pi
            filled[mirror] = True
    return values


def revival_time(p: SdfsParams) -> float:
    """Heuristic rephasing time 2 pi sqrt(|alpha0|^2 + sinh^2 r) in scaled time.

    The estimate comes from neighbouring Rabi terms getting back in
    phase near the mean photon number; it ignores the seed Fock number
    m. A field with alpha0 = 0 and r = 0 has no collapse-revival
    structure, so that case is rejected.
    """
    if p.alpha0 == 0 and p.r == 0.0:
        raise ValueError("no collapse-revival structure without displacement or squeezing")
    return _TWO_PI * math.sqrt(abs(p.alpha0) ** 2 + math.sinh(p.r) ** 2)
