"""Squeezed displaced Fock states: closed-form amplitudes and overlaps.

A squeezed displaced Fock state (SDFS) is a number state squeezed and
then displaced,

    |alpha0, z, m> = D(alpha0) S(z) |m>,   z = r e^{i phi},

with Bogoliubov parameters mu = cosh r and nu = e^{i phi} sinh r
(mu^2 - |nu|^2 = 1). Working in the Bargmann picture, where a state maps
to the entire function f(w) = sum_n <n|psi> w^n / sqrt(n!), the SDFS has

    f(w) = N exp(-(nu/2mu) w^2 + (abar/mu) w) H_m((w - alpha0*)/s),

    abar = mu alpha0 + nu alpha0*,   s = sqrt(-2 nu* mu),
    N    = (mu m!)^{-1/2} (-nu*/s)^m exp(-|alpha0|^2/2 - (nu/2mu) alpha0*^2),

and expanding the Gaussian and the translated Hermite polynomial in
powers of w gives the number-basis amplitude as a finite i-sum of
binomials times two Hermite polynomials of complex argument:

    <n|alpha0,z,m> = sqrt(n!/(mu m!)) exp(-|alpha0|^2/2 - (nu/2mu) alpha0*^2)
        * sum_{i=0}^{min(n,m)} C(m,i) mu^{-i}
            [c^{m-i} H_{m-i}(-alpha0*/s)]
            [sa^{n-i} H_{n-i}(abar/(2 mu sa))] / (n-i)!

with sa = sqrt(nu/2mu) and c = -nu*/s. Each square root is taken once
and reused, so the branch ambiguity cancels inside the bracketed pairs.
At r = 0 the nu-divisions are singular; there the amplitude is exactly
the displaced Fock sum

    <n|D(alpha0)|m> = e^{-|alpha0|^2/2}
        sum_{i=0}^{min(n,m)} sqrt(n! m!) (-alpha0*)^{m-i} alpha0^{n-i}
              / (i! (m-i)! (n-i)!),

not a small-r limit. Both cases are one column sum over i <= min(n, m),
`_column_sum`, that differs only in its term row: r = 0 is a row, not a
separate kernel. The rows stay two formulas: building either from the
other's pieces re-associates its sums and moves the last bits.

All factorial-sized magnitudes are carried in log-domain, ln k! from
`log_factorial`, with phases tracked separately; Hermite polynomials use
the three-term recurrence with on-the-fly rescaling. This keeps
truncations up to several hundred photons finite in double precision.
`log_factorial` reproduces Cephes lgam(k + 1), which scipy.special.gammaln
evaluates, to the bit: the run path needs no scipy, and its CSVs stay
byte-identical to those of a gammaln evaluation.

`sdfs_state(p)` is the one route from parameters to a
truncated vector; no caller picks a truncation of its own.

The closed forms were derived from the operator definition via Bargmann
generating functions and are validated against the matrix-exponential
construction in `fock` (see the test suite and `selfcheck`).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .fock import DIM_CAP, ROUND_SLACK, FockVector

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
# largest rounding bound of the overlap: of its W relative to |W|, and of its
# final sum in absolute terms (the overlap of two unit vectors is at most 1)
_W_BUDGET = 1e-10
_TINY = sys.float_info.min  # numpy's complex division by a subnormal modulus overflows
# Largest seed number of an overlap. It allocates and recurs over max(m1, m2) + 1 orders
# in Python, up to 0.5 s at 1e5 and 5 s at 1e6 on a 2-vCPU box; past 4.5e5 orders the factor
# (m1 + m2 + 1) eps of its sum's rounding bound alone exceeds _W_BUDGET.
SEED_CAP = 100_000
# Photon-number tail mass past the truncation, the one bound `sdfs_state` cuts at.
# Double precision resolves the crossing from 5e-13 up: on the 192 preset, sweep
# and check states (closed-form norm^2 off 1 by <= 1.9e-14) every true tail stays
# below it there; 3 miss it at 3e-13, and 32 (by up to 2x) at 1e-14. NORM_TOL caps
# it: a looser tail breaks the run's normalization.
TAIL_TOL = 1e-12
# Cephes lgam (Moshier 1989): ln sqrt(2 pi), and its series in 1/x^2 for 13 <= x < 1000
_LS2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
             -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def _lgam(k: int) -> float:
    """ln k! by Cephes lgam(x), x = k + 1, in the operation order of each of its
    terms and with math.log (glibc's log; np.log rounds differently at some
    integers). Past x = 1e8, where Cephes returns q alone, the x >= 1000 term
    is below half an ulp of q, so q plus it is q."""
    x = k + 1.0
    if x < 13.0:
        return math.log(math.factorial(k))  # k! <= 11! is exact in a double
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = 0.0
    for coeff in _STIRLING:  # Horner's rule, as Cephes polevl
        series = series * p + coeff
    return q + series / x


# every k of a window's amplitudes and of the Q grid's coherent bras
_LOG_FACTORIALS = np.array([_lgam(k) for k in range(2 * DIM_CAP)])
_LOG_FACTORIALS.flags.writeable = False


def log_factorial(k):
    """ln k! for an integer k >= 0, or elementwise over an int array, bit-identical
    to scipy.special.gammaln(k + 1.0). Arrays index a table of k < 2 DIM_CAP;
    larger k (an overlap's seed numbers) are evaluated one by one."""
    if not isinstance(k, np.ndarray):
        return _lgam(k)
    try:
        return _LOG_FACTORIALS[k]
    except IndexError:  # some k >= 2 DIM_CAP
        return np.array([_lgam(n) for n in k.ravel().tolist()]).reshape(k.shape)


@dataclass(frozen=True)
class SdfsParams:
    """Parameters of |alpha0, z, m>.

    alpha0: complex displacement; r, phi: squeeze magnitude (>= 0) and
    direction (reduced to [0, 2pi)); m: seed Fock number (>= 0).
    """

    alpha0: complex = 0j
    r: float = 0.0
    phi: float = 0.0
    m: int = 0

    def __post_init__(self):
        for name, value in (("alpha0", self.alpha0), ("r", self.r), ("phi", self.phi)):
            if not cmath.isfinite(value):
                raise ValueError(f"state parameter {name} must be finite, got {value}")
        if self.r < 0:
            raise ValueError("squeeze magnitude r must be >= 0")
        # subnormals underflow the coefficients of the closed forms to 0 (phi enters as e^{i phi})
        a0 = complex(self.alpha0)
        for name, value in (("Re alpha0", a0.real), ("Im alpha0", a0.imag), ("r", self.r)):
            if 0.0 < abs(value) < sys.float_info.min:
                raise ValueError(f"state parameter {name} = {value!r} is subnormal")
        try:
            math.cosh(self.r)
        except OverflowError:
            raise ValueError(f"squeeze magnitude r = {self.r:g} overflows cosh r") from None
        if not 4.0 * (a0.real * a0.real + a0.imag * a0.imag) < math.inf:  # then |a2 - a1|^2 is too
            raise ValueError(f"displacement {self.alpha0:g} overflows |2 alpha0|^2")
        if not (0 <= self.m < math.inf and self.m == int(self.m)):  # nan, inf fail before int()
            raise ValueError("seed Fock number m must be a nonnegative integer")
        object.__setattr__(self, "alpha0", complex(self.alpha0))
        object.__setattr__(self, "r", float(self.r))
        # a tiny negative phi reduces to 2 pi by rounding, which a second % makes 0
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI % _TWO_PI)
        object.__setattr__(self, "m", int(self.m))

    @property
    def mu(self) -> float:
        return math.cosh(self.r)

    @property
    def nu(self) -> complex:
        return cmath.exp(1j * self.phi) * math.sinh(self.r)

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


def mean_photon_number(p: SdfsParams) -> float:
    """<a+ a> = (mu^2 + |nu|^2) m + |nu|^2 + |alpha0|^2; inf on overflow."""
    nsq = abs(p.nu) * abs(p.nu)
    m = p.m if p.m <= sys.float_info.max else math.inf  # a larger int raises in a float product
    seeded = (p.mu * p.mu + nsq) * m if m else 0.0  # no inf * 0 where the sum is finite
    return seeded + nsq + abs(p.alpha0) * abs(p.alpha0)


def hermite_scaled(x: complex, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Hermite values H_k(x), k = 0..kmax, as pairs (h_k, L_k) with
    H_k(x) = h_k * exp(L_k) and |h_k| in {0} U [~1].

    Three-term recurrence H_{k+1} = 2x H_k - 2k H_{k-1}, rescaled each step so
    huge orders never overflow; a step below the normal range (_TINY) gives 0.
    """
    h = np.zeros(kmax + 1, dtype=complex)
    logs = np.zeros(kmax + 1, dtype=float)
    h[0] = 1.0
    if kmax == 0:
        return h, logs
    v = 2.0 * x
    mag = abs(v)
    if mag > _TINY:
        h[1] = v / mag
        logs[1] = math.log(mag)
    for k in range(1, kmax):
        scale = max(logs[k], logs[k - 1])
        v = 2.0 * x * h[k] * math.exp(logs[k] - scale) - 2.0 * k * h[
            k - 1
        ] * math.exp(logs[k - 1] - scale)
        mag = abs(v)
        if mag > _TINY:
            h[k + 1] = v / mag
            logs[k + 1] = scale + math.log(mag)
        else:
            h[k + 1] = 0.0
            logs[k + 1] = scale
    return h, logs


def _column_sum(m: int, n_max: int, row) -> tuple[np.ndarray, np.ndarray]:
    """Sum_i phase e^{logmag - peak} per column n = 0..n_max, and the column
    peak, over the terms i <= min(n, m). row(i, k) gives term i's logmag and
    phase at k = n - i = 0..n_max - i; rows past n_max stay empty."""
    logmag = np.full((m + 1, n_max + 1), -np.inf)
    phase = np.zeros((m + 1, n_max + 1), dtype=complex)
    for i in range(min(m, n_max) + 1):
        logmag[i, i:], phase[i, i:] = row(i, np.arange(n_max + 1 - i))
    peak = np.max(logmag, axis=0)
    return np.sum(phase * np.exp(logmag - peak[None, :]), axis=0), peak


def _amplitudes(p: SdfsParams, n_max: int) -> np.ndarray:
    """<n|alpha0,z,m> for n = 0..n_max: the displaced Fock row at r = 0, the
    Hermite row at r > 0, each summed by `_column_sum`."""
    m, a0 = p.m, p.alpha0
    if p.r == 0.0:
        if a0 == 0:  # the number state |m>, zero where m > n_max
            return np.eye(1, n_max + 1, m, dtype=complex)[0]
        la = math.log(abs(a0))
        th = math.atan2(a0.imag, a0.real)
        base = -0.5 * abs(a0) ** 2 + 0.5 * log_factorial(m)

        def displaced_fock_row(i, k):
            n = k + i
            logmag = (base + 0.5 * log_factorial(n) - log_factorial(i) - log_factorial(m - i)
                      - log_factorial(k) + (m - i + n - i) * la)
            # (-alpha0*)^{m-i} alpha0^{n-i}: phase(-alpha0*) = pi - phase(alpha0)
            return logmag, np.exp(1j * ((m - i) * (math.pi - th) + k * th))

        total, peak = _column_sum(m, n_max, displaced_fock_row)
        return total * np.exp(peak)

    mu, nu = p.mu, p.nu
    abar = mu * a0 + nu * a0.conjugate()
    gauss_coeff = nu / (2.0 * mu)
    sa = cmath.sqrt(gauss_coeff)
    x = abar / (2.0 * mu * sa)
    s = cmath.sqrt(-2.0 * nu.conjugate() * mu)
    u = -a0.conjugate() / s
    c = -nu.conjugate() / s

    hx, lx = hermite_scaled(x, n_max)
    hu, lu = hermite_scaled(u, m)

    g_exp = -0.5 * abs(a0) ** 2 - gauss_coeff * a0.conjugate() ** 2
    ns = np.arange(n_max + 1)
    pref_log = 0.5 * (log_factorial(ns) - log_factorial(m) - math.log(mu)) + g_exp.real
    pref_phase = cmath.exp(1j * g_exp.imag)

    log_c, arg_c = math.log(abs(c)), math.atan2(c.imag, c.real)
    log_sa, arg_sa = math.log(abs(sa)), math.atan2(sa.imag, sa.real)

    def hermite_row(i, k):
        logmag = (log_factorial(m) - log_factorial(i) - log_factorial(m - i) - i * math.log(mu)
                  + (m - i) * log_c + lu[m - i] + k * log_sa + lx[k] - log_factorial(k))
        phase = cmath.exp(1j * ((m - i) * arg_c)) * hu[m - i] * np.exp(1j * k * arg_sa) * hx[k]
        return logmag, phase

    total, peak = _column_sum(m, n_max, hermite_row)
    return pref_phase * total * np.exp(peak + pref_log)


def sdfs_state(p: SdfsParams) -> FockVector:
    """|alpha0, z, m> on |0>..|n_max>, n_max the first n past which the
    photon-number tail holds less than TAIL_TOL.

    Number states (alpha0 = 0, r = 0) have no tail: |m> on |0>..|max(m, 1)>.
    Otherwise amplitude windows, from the floor mean + 10 sqrt(mean + 1)
    (slack above the support for operator products) growing as 2 n + 16
    to the cap, are built until the mass crosses 1 - TAIL_TOL; n_max is
    at least the floor, and the last window is sliced there. Past the cap
    the refusal names lost precision when the mass has converged but falls
    short. The sliced norm^2 then lies above 1 - TAIL_TOL; one exceeding
    1 + ROUND_SLACK is an error, never a silent renormalization: the excess
    means cancellation in the closed form.
    """
    cap = DIM_CAP - 1
    if p.alpha0 == 0 and p.r == 0.0:
        if p.m > cap:
            raise ValueError(f"Fock seed {p.m} exceeds the truncation cap {cap}")
        return FockVector(_amplitudes(p, max(p.m, 1)))
    floor = (mean := mean_photon_number(p)) + 10.0 * math.sqrt(mean + 1.0)
    if not floor <= cap:
        needed = format(math.ceil(floor), ".4g") if floor < math.inf else "beyond the double range"
        raise ValueError(f"required truncation {needed} exceeds the cap {cap}")
    floor_n = math.ceil(floor)
    n_hi = floor_n
    while True:
        amps = _amplitudes(p, n_hi)
        probs = np.abs(amps) ** 2
        cum = np.cumsum(probs)
        crossing = np.nonzero(cum > 1.0 - TAIL_TOL)[0]
        if crossing.size:
            break
        if n_hi >= cap:
            # Mass that the upper half of the window holds is what a
            # larger cap could still add; below TAIL_TOL, the deficit is
            # round-off in the closed form, not a missing tail.
            upper = float(np.sum(probs[n_hi // 2 + 1 :]))
            if upper < TAIL_TOL:
                raise ValueError(
                    f"closed-form amplitudes lost precision: norm^2 falls short of 1 "
                    f"by {1.0 - cum[-1]:.3e}, but n = {n_hi // 2 + 1}..{n_hi} holds "
                    f"only {upper:.3e} (cancellation in the sum, m={p.m}, r={p.r:g})"
                )
            raise ValueError(
                f"tail tolerance {TAIL_TOL:g} not reachable within the cap {cap}"
            )
        n_hi = min(2 * n_hi + 16, cap)
    n_max = max(int(crossing[0]), floor_n)
    q = FockVector(amps[: n_max + 1])
    norm_sq = q.norm_sq()
    if not norm_sq <= 1.0 + ROUND_SLACK:
        raise ValueError(
            f"closed-form amplitudes lost precision: norm^2 exceeds 1 by "
            f"{norm_sq - 1.0:.3e} at n_max={n_max} (cancellation in the sum, m={p.m})"
        )
    return q


def _exp_quadratic_coeffs(
    quad: complex, lin: complex, kmax: int
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients [t^k] exp(quad t^2/2 + lin t), k = 0..kmax, as
    (unit phase, log magnitude) pairs.

    For quad != 0 the coefficients are w^k H_k(lin/2w)/k! with
    w = sqrt(-quad/2); the branch of w cancels inside the pairing. For
    quad = 0 they degenerate to lin^k/k!.
    """
    units = np.zeros(kmax + 1, dtype=complex)
    logs = np.full(kmax + 1, -np.inf)
    ks = np.arange(kmax + 1)
    if quad == 0:
        if lin == 0:
            units[0] = 1.0
            logs[0] = 0.0
            return units, logs
        logs = ks * math.log(abs(lin)) - log_factorial(ks)
        units = np.exp(1j * ks * math.atan2(lin.imag, lin.real))
        return units, logs
    w = cmath.sqrt(-quad / 2.0)
    x = lin / (2.0 * w)
    hh, ll = hermite_scaled(x, kmax)
    logs = ks * math.log(abs(w)) + ll - log_factorial(ks)
    units = np.exp(1j * ks * math.atan2(w.imag, w.real)) * hh
    return units, logs


def sdfs_overlap(p1: SdfsParams, p2: SdfsParams) -> complex:
    """Scalar product <alpha1, z1, m1 | alpha2, z2, m2>.

    Derived from the two-variable generating function
    Gamma(t, u) = <0| e^{t a} S1+ D1+ D2 S2 e^{u a+} |0>, which is a
    Gaussian exp(A t^2/2 + B u^2/2 + C t u + D t + E u) up to a prefactor;
    the (m1, m2) matrix element is sqrt(m1! m2!) times its Taylor
    coefficient, a single sum over the cross power C^r with two Hermite
    factors. With W = mu1 mu2 - nu1* nu2 and d = alpha2 - alpha1:

        A = (nu1 mu2 - nu2 mu1)/W        B = (nu2* mu1 - nu1* mu2)/W
        C = 1/W                          D = (mu2 d + nu2 d*)/W
        E = -(mu1 d* + nu1* d)/W

    The degenerate cases (equal squeezes making A or B vanish; r = 0 on
    both sides giving the displaced-Fock overlap; m1 = m2 = 0 giving the
    squeezed-coherent overlap) all fall out of the quad = 0 branch of the
    coefficient expansion, with no 0/0 evaluations. The global phase is
    pinned to the D(alpha0) S(z) |m> operator ordering.

    W is formed by cancellation, with a rounding error up to
    eps (mu1 mu2 + |nu1| |nu2|) while |W| >= cosh(r1 - r2) >= 1. When that
    bound exceeds 1e-10 |W| (equal squeezes beyond r of about 6.5) the
    overlap is refused with a lost-precision error. So is a sum that cancels,
    its rounding bound (m1 + m2 + 1) eps |prefactor| e^peak sum |terms|
    exceeding 1e-10 (m1 = m2 = 60 at r1 = 0, r2 = 0.5), any value that overflows
    the double range, raised or formed as inf or NaN (|W| at r1 = 355, r2 = 356;
    the sum at m1 = m2 = 10000, r2 = 0.1), and a seed number above SEED_CAP.
    """
    if (seed := max(p1.m, p2.m)) > SEED_CAP:
        raise ValueError(f"overlap seed number m = {seed} exceeds the cap {SEED_CAP}")
    mu1, nu1, m1, a1 = p1.mu, p1.nu, p1.m, p1.alpha0
    mu2, nu2, m2, a2 = p2.mu, p2.nu, p2.m, p2.alpha0
    try:
        d = a2 - a1
        wden = mu1 * mu2 - nu1.conjugate() * nu2  # = mu1 mu2 K, |W| >= 1
        rounding = _EPS * (mu1 * mu2 + abs(nu1) * abs(nu2))
        if not rounding < math.inf:  # products overflow silently, to inf or NaN
            raise OverflowError
        if rounding > _W_BUDGET * abs(wden):
            raise ValueError(
                f"overlap lost precision: W = mu1 mu2 - nu1* nu2 has a rounding bound "
                f"{rounding:.3e} against |W| = {abs(wden):.3e} (r1={p1.r:g}, r2={p2.r:g})"
            )
        quad1 = (nu1 * mu2 - nu2 * mu1) / wden
        quad2 = (nu2.conjugate() * mu1 - nu1.conjugate() * mu2) / wden
        cross = 1.0 / wden
        lin1 = (mu2 * d + nu2 * d.conjugate()) / wden
        lin2 = -(mu1 * d.conjugate() + nu1.conjugate() * d) / wden
        const = (
            1j * (a1.conjugate() * a2).imag
            - 0.5 * abs(d) ** 2
            - (
                nu2 * mu1 * d.conjugate() ** 2
                + nu1.conjugate() * mu2 * d**2
                + 2.0 * nu1.conjugate() * nu2 * abs(d) ** 2
            )
            / (2.0 * wden)
        )
        if not (cmath.isfinite(const) or const.real == -math.inf):  # e^-inf is 0 at any phase
            raise OverflowError
        prefactor = cmath.exp(const) / cmath.sqrt(wden)

        u1, l1 = _exp_quadratic_coeffs(quad1, lin1, m1)
        u2, l2 = _exp_quadratic_coeffs(quad2, lin2, m2)

        rs = np.arange(min(m1, m2) + 1)
        logmag = (
            l1[m1 - rs]
            + l2[m2 - rs]
            + rs * math.log(abs(cross))
            - log_factorial(rs)
            + 0.5 * (log_factorial(m1) + log_factorial(m2))
        )
        units = u1[m1 - rs] * u2[m2 - rs] * np.exp(1j * rs * math.atan2(cross.imag, cross.real))
        peak = float(np.max(logmag))
        if not math.isfinite(peak):
            return 0j
        terms = units * np.exp(logmag - peak)
        value = complex(prefactor * np.sum(terms) * math.exp(peak))
        rounding = (m1 + m2 + 1) * _EPS * abs(prefactor) * math.exp(peak) * np.sum(np.abs(terms))
    except OverflowError:
        raise ValueError(
            f"overlap lost precision: a value overflows the double range "
            f"(m1={m1}, m2={m2}, r1={p1.r:g}, r2={p2.r:g})"
        ) from None
    if not rounding <= _W_BUDGET:
        raise ValueError(
            f"overlap lost precision: the sum cancels, with a rounding bound {rounding:.3e} "
            f"above {_W_BUDGET:g} (m1={m1}, m2={m2}, r1={p1.r:g}, r2={p2.r:g})"
        )
    return value
