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
and its mirror position on the axis where that holds -y, dealing the rows
over LANES threads.

The entropy is one array computation too, but maps math.hypot and
math.log over its rows: the numpy versions round the last bit
differently, which would change the written entropy. Its |<C|S>| is
numpy's hypot of the real and imaginary parts, which rounds as Python's
abs of a complex does.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .fock import ROUND_SLACK
from .sdfs import SdfsParams, log_factorial

_TWO_PI = 2.0 * math.pi
# The phase density's angles: ETA_POINTS uniform on [-pi, pi), as in the paper's plots
ETA_POINTS = 512
ETAS = np.linspace(-math.pi, math.pi, ETA_POINTS, endpoint=False)
ETAS.flags.writeable = False
# Threads over the rows of a Q grid: one per CPU this process may run on, at most
# 2. Two ran the fig5 grids 1.77x as fast as one on 2 vCPUs, with OpenBLAS on one thread.
LANES = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1


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


def entropy_rows(cc: np.ndarray, ss: np.ndarray, cs: np.ndarray, first: int = 0) -> np.ndarray:
    """(T, 3) rows (S_f, lambda_plus, lambda_minus) of rho_f per time from
    its Gram entries <C|C>, <S|S>, <C|S>; S_f = -sum lambda ln lambda (nats).
    Rows are independent: a run passes chunks, whose refusals count rows from first.

    lambda+- = (cc+ss)/2 +- hypot((cc-ss)/2, |cs|), the cancellation-free
    hyperbolic-angle split. Eigenvalues are clamped to [0, 1] only within
    ROUND_SLACK, the slack `sdfs_state` grants its norm^2; beyond it, or NaN,
    they raise ValueError naming the first such row. As lambda+ >= max(cc, ss),
    lambda- <= min(cc, ss) and lambda+ lambda- = cc ss - |cs|^2, that also
    refuses entries outside [0, 1] and |cs|^2 > cc ss; a trace off 1 is the
    run's eigenvalue_sum_residual. Only the hypot of the split and the
    logarithms run element by element, in Python's math: numpy's versions
    differ in the last bit.
    """
    acs = np.hypot(cs.real, cs.imag)  # bit for bit Python's abs(complex)
    rows = np.empty((len(cc), 3))
    lams = rows[:, 1:]
    with np.errstate(invalid="ignore"):  # an inf entry gives inf - inf: NaN, refused below
        split = np.array(list(map(math.hypot, (0.5 * (cc - ss)).tolist(), acs.tolist())))
        half = 0.5 * (cc + ss)
        lams[:, 0], lams[:, 1] = half + split, half - split
    bad = np.flatnonzero(~((lams[:, 1] >= -ROUND_SLACK) & (lams[:, 0] <= 1.0 + ROUND_SLACK)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"row {first + i}: eigenvalues ({lams[i, 0]}, {lams[i, 1]}) "
                         "outside [0, 1] beyond slack")
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


def _coherent_bras(alphas: np.ndarray, dim: int, out: tuple) -> np.ndarray:
    """Rows <alpha|n> = e^{-|alpha|^2/2} (alpha*)^n / sqrt(n!) of the complex
    alphas, log-domain, written into out = (float, complex) buffers of shape
    (alphas.size, dim), those of the calling lane. Returns the complex buffer."""
    logmag, bras = out
    mags = np.abs(alphas)
    ns = np.arange(dim)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(mags)
        np.multiply(ns[None, :], la[:, None], out=logmag)
        np.add(-0.5 * mags[:, None] ** 2, logmag, out=logmag)
        np.subtract(logmag, 0.5 * log_factorial(ns)[None, :], out=logmag)
    logmag[:, 0] = -0.5 * mags**2  # fix 0 * log(0) at the origin
    np.multiply(-1j * ns[None, :], np.angle(alphas)[:, None], out=bras)
    np.exp(bras, out=bras)
    return np.multiply(np.exp(logmag, out=logmag), bras, out=bras)


def q_function_grid(c: np.ndarray, s: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Husimi Q(alpha) = <alpha|rho_f|alpha>/pi = (|<alpha|C>|^2 + |<alpha|S>|^2)/pi
    per unit area on the square window alpha = x + iy, x and y on axis: (..., dim + 1)
    c and s give (..., n, n) values, [..., iy, ix] at (axis[ix], axis[iy]), one
    row of bras per y serving every snapshot.

    Row iy also fills its mirror row n - 1 - iy, with the conjugated bras, where
    iy < n - 1 - iy and axis[n - 1 - iy] == -axis[iy] exactly: <x - iy|n> is
    conj(<x + iy|n>) bit for bit, as |alpha| is even in y and arg(alpha) odd.
    Other rows build their own bras, the middle row of an odd axis among them.

    The rows are dealt round-robin over LANES lanes: the calling thread and
    one thread per further lane, each writing its rows' bras into its own
    pair of (n, dim) buffers, so memory is O(LANES n n_max) beyond the
    values. Every lane runs under the caller's numpy errstate; an exception
    of any lane is raised once every lane has stopped. The rows' bits do
    not depend on the lane count.

    The rank-2 contraction is algebraically identical to the full
    double sum over rho_nm but costs O(n_max) per point.
    """
    axis = np.asarray(axis, dtype=float)
    n = axis.size
    values = np.empty((*c.shape[:-1], n, n))
    ys = axis.tolist()
    rows = []  # (iy, mirror row or None); a mirror row is filled by its partner
    for iy, y in enumerate(ys):
        mirror = n - 1 - iy
        if ys[mirror] != -y or iy == mirror:
            rows.append((iy, None))
        elif iy < mirror:
            rows.append((iy, mirror))
    lanes = max(1, min(LANES, len(rows)))
    buffers = [(np.empty((n, c.shape[-1])), np.empty((n, c.shape[-1]), dtype=complex))
               for _ in range(lanes)]
    failures, errors = [None] * lanes, np.geterr()

    def lane(k: int) -> None:
        try:
            with np.errstate(**errors):  # a new thread starts from the default
                for iy, mirror in rows[k::lanes]:
                    bras = _coherent_bras(axis + 1j * ys[iy], c.shape[-1], buffers[k])
                    values[..., iy, :] = _project(bras, c, s) / math.pi
                    if mirror is not None:
                        np.conjugate(bras, out=bras)
                        values[..., mirror, :] = _project(bras, c, s) / math.pi
        except BaseException as exc:  # raised in the caller's thread below
            failures[k] = exc

    threads = [threading.Thread(target=lane, args=(k,)) for k in range(1, lanes)]
    for thread in threads:
        thread.start()
    lane(0)
    for thread in threads:
        thread.join()
    for exc in failures:
        if exc is not None:
            raise exc
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
    return _TWO_PI * math.sqrt(abs(p.alpha0) * abs(p.alpha0) + math.sinh(p.r) * math.sinh(p.r))
