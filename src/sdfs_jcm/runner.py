"""Executes a RunConfig: `compute` does the arithmetic, `run` writes it.

`compute` builds the truncated initial field and the phase kernel once
and walks the scaled-time grid in blocks of rows. Each block is one call of
`dynamics.evolve`, which returns C and S as (rows, dim + 1) arrays with
dim = n_max + 1; every time-series output has one row per time point:
inversion (T,), the Gram entries cc, ss, cs (T,), entropy (T, 3),
P(n, t) (T, dim + 1) and the phase density (T, ETA_POINTS). Every output
goes to one sink as it is computed: P(n, t) and the phase density per
block, the others per chunk of whole blocks that holds BLOCK_ENTRIES
times or more, so a run holds one block and one chunk whatever its
t_points. The Q snapshot is a plain (Q_POINTS, Q_POINTS) array indexed
[y, x] over the one axis of the window [-h, h]^2: h is the paper's 8,
widened with the displacement, the squeezing and the seed number
(`_q_half_width`), then until the disk of radius h holds all but Q_TAIL
of the mass at each Q time; `q_grids` makes it, and the three fig5
snapshots of `check` in one pass of bras.
It and `compute` run with OpenBLAS on one thread, a process-wide setting:
each loaded OpenBLAS gets its thread count back when they return or
raise, so calls from concurrent threads would race on it. The threads
over the Q grid's rows (`observables.LANES`) start and stop inside one
such call, so they all run within its one scope.

`run` writes one CSV per selected observable, <name>.csv with the
header of `config.OUTPUTS`, all through one writer, `compute`'s sink,
which begins each CSV at its first block. Every number is
written as CPython's '%.17g' ('%d' for n) would write it,
byte for byte, but formatted in numpy by `_format_cells`: the 17 digits
come from Dekker's exact product with a double-double power of 10, and
the few values whose rounding that cannot settle (near-ties, zeros,
inf, nan, magnitudes outside EXACT_RANGE) go to '%.17g' itself.
`_write_lines` writes in blocks of BLOCK_ENTRIES lines. The column keys
of a keyed file (n, eta or x) are formatted once per file, its row keys
(time or y) once per call. A run that raises leaves no CSV behind.
Lines end in '\\n': identical configurations give identical bytes,
equal to the np.savetxt output of earlier versions.
run_summary.txt records the truncation, the worst invariant residuals
and the compute, write and wall times (write_s is the time inside the
writer, compute_s the rest); any residual beyond its tolerance
marks the run failed, which the CLI turns into a nonzero exit status.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import OBSERVABLE_NAMES, OUTPUTS, RunConfig
from .dynamics import conservation_residual, evolve, populations
from .fock import NORM_TOL, FockVector
from .observables import (
    ETA_POINTS,
    ETAS,
    atomic_inversion,
    entropy_rows,
    gram,
    phase_distribution,
    phase_kernel,
    photon_number_distribution,
    q_function_grid,
)
from .sdfs import SdfsParams, log_factorial, sdfs_state

FLOAT_FMT = "%.17g"

# A time block holds max(1, BLOCK_ENTRIES // dim) rows, so about this many
# complex entries of C (and of S), which keeps the block arrays small.
# Also the lines per written block of every CSV, and so the most values
# one call of `_format_cells` formats.
BLOCK_ENTRIES = 4096
Q_POINTS = 201  # per axis of the Q window
# Standard deviations of the initial Q that the window holds on each axis: the
# most that keeps the fig5 state (sqrt(Sigma_yy) = 2.41) on the paper's [-8, 8]^2.
Q_SIGMAS = 3.3
# Most Q mass a window may leave outside its inscribed disk (`q_grids`): a tenth
# of the Q integral's bound, the rest left to the Riemann sum. The fig5 disks of
# radius 8 leave up to 1.3e-5, so their windows and those of `check` stay.
Q_TAIL = 1e-4

TIME_SERIES = frozenset(name for name, (_, row) in OUTPUTS.items() if row)

# Each residual's bound. All but the Q integral are the norm of the evolved state,
# off 1 by rounding only; `entropy_rows` leaves a Gram trace off 1 to eigenvalue_sum_residual.
TOLERANCES = {
    # |norm^2 - 1| of sdfs_state(p), which that function already keeps below TAIL_TOL
    "normalization_residual": NORM_TOL,
    # sum |C_n|^2 + |S_n|^2 - 1 per time: the norm through `evolve`, plus dim * eps
    "conservation_residual": NORM_TOL,
    # lambda_plus + lambda_minus - 1: the Gram trace cc + ss, which is the conservation sum
    "eigenvalue_sum_residual": NORM_TOL,
    # sum_j P(eta_j) 2 pi / ETA_POINTS - 1 per time: the conservation sum, since the
    # only pair n != n' aliased by the 512 ETAS with n, n' <= dim <= 512 is (0, 512),
    # and C_dim = S_0 = 0; what is left is rounding, about dim^2 * eps (6e-11 at the cap)
    "phase_integral_residual": NORM_TOL,
    # the Riemann sum of Q over its window, which holds Q_SIGMAS of the initial spread
    "q_integral_residual": 1e-3,
    # the Q mass outside the window's inscribed disk, which `q_grids` widens it to hold
    "q_tail_mass": Q_TAIL,
}


def worst(values) -> float:
    """np.max of the numbers or arrays values, NaN if any holds a NaN (Python's max
    keeps whichever of a NaN and a number came first); unwrapped, as it runs per block."""
    return float(np.maximum.reduce([np.maximum.reduce(v, axis=None) for v in values]))


@dataclass(frozen=True, eq=False)
class RunData:
    """The arrays `compute` derives from a RunConfig; an output that was not
    selected or went to a caller's sink is None, and so is ts without a time
    series and q_axis without qfunc. Rows follow ts."""

    n_max: int
    ts: np.ndarray | None
    residuals: dict
    inversion: np.ndarray | None = None
    cc: np.ndarray | None = None
    ss: np.ndarray | None = None
    cs: np.ndarray | None = None
    entropy: np.ndarray | None = None  # columns S_f, lambda_plus, lambda_minus
    photon_dist: np.ndarray | None = None
    phase_dist: np.ndarray | None = None  # columns at ETAS
    q_axis: np.ndarray | None = None  # x and y of the Q window
    qfunc: np.ndarray | None = None  # [y, x] over q_axis


@dataclass(frozen=True)
class RunResult:
    ok: bool
    summary: dict
    files: tuple[Path, ...]


# Values whose magnitude lies outside EXACT_RANGE, 0, inf and nan go to
# FLOAT_FMT itself, as does every value whose scaled fraction lies within
# TIE_MARGIN of 1/2 (`_format_cells`).
EXACT_RANGE = (1e-280, 1e280)
TIE_MARGIN = 1e-7
CELL_WIDTH = 24  # the longest FLOAT_FMT output, e.g. '-2.2250738585072014e-308'
_X_MAX = 282  # largest |decimal exponent| of the tables: EXACT_RANGE plus a correction
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves
# A source row of `_format_cells` is 28 bytes: '0', '-', '.', the 17 digits, the
# exponent's sign and 3 digits, 'e' and NULs. A template lists the source bytes
# of one layout, keyed by (sign * _SLOTS + slot) * 18 + significant digits.
_ZERO, _MINUS, _POINT, _DIGIT0, _EXP_SIGN, _EXP_DIGITS, _E, _NUL = 0, 1, 2, 3, 20, 21, 24, 25
_SOURCE_WIDTH = 28
_SLOTS = 23  # by exponent: fixed notation for -4..16, scientific with 2 or 3 exponent digits


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each half of at most 26 bits."""
    scaled = a * _SPLIT
    hi = scaled - (scaled - a)
    return hi, a - hi


def _template(negative: bool, slot: int, digits: int) -> list[int]:
    """Source bytes of one FLOAT_FMT layout: CPython's '%g' with precision
    17, for a value with this many significant digits (trailing zeros cut)."""
    body = [_DIGIT0 + j for j in range(digits)]
    if slot >= 21:  # d.ddde+XX or d.ddde+XXX
        body[1:1] = [_POINT] if digits > 1 else []
        body += [_E, _EXP_SIGN, *range(_EXP_DIGITS + 22 - slot, _EXP_DIGITS + 3)]
    elif slot < 4:  # 0.000ddd, exponent slot - 4
        body[:0] = [_ZERO, _POINT] + [_ZERO] * (3 - slot)
    else:  # ddd.ddd or ddd000, exponent slot - 4 >= 0
        body += [_DIGIT0 + j for j in range(digits, slot - 3)]
        if digits > slot - 3:
            body.insert(slot - 3, _POINT)
    row = [_MINUS] * negative + body
    return row + [_NUL] * (CELL_WIDTH - len(row))


def _words(texts) -> np.ndarray:
    """The 4-byte ASCII texts as uint32 words, so that one take moves 4 bytes."""
    return np.frombuffer(b"".join(texts), np.uint32)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The constant tables of `_format_cells`, built on first use. Those
    indexed by the decimal exponent x start at x = -_X_MAX: 10**(16 - x)
    as a double-double (rows hi, the halves of hi, lo), the exponent text
    of each x and its template row offset. Then the words '0-.d' of each
    leading digit d, the 4 digits of each chunk 0..9999 and its trailing
    zeros (4 for 0), and the templates."""
    xs = range(-_X_MAX, _X_MAX + 1)
    powers = np.empty((4, len(xs)))
    for col, x in enumerate(xs):  # exact rationals num / den; int / int rounds correctly
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi_num, hi_den = (num / den).as_integer_ratio()
        powers[0, col] = num / den
        powers[3, col] = (num * hi_den - hi_num * den) / (den * hi_den)
    mantissa, exponent = np.frexp(powers[0])  # split the mantissa: no overflow
    powers[1], powers[2] = (np.ldexp(half, exponent) for half in _split(mantissa))
    exps = _words(b"%+04d" % x for x in xs)
    slot_keys = 18 * np.array([x + 4 if -4 <= x < 17 else 21 + (abs(x) >= 100) for x in xs])
    leads = _words(b"0-.%d" % d for d in range(10))
    chunks = np.arange(10_000)
    digits = _words(b"%04d" % c for c in chunks.tolist())
    zeros = sum((chunks % power == 0).astype(np.uint8) for power in (10, 100, 1000, 10_000))
    templates = np.array(
        [
            _template(negative, slot, max(count, 1))
            for negative in (False, True)
            for slot in range(_SLOTS)
            for count in range(18)
        ],
        np.intp,
    )
    return powers, exps, slot_keys, leads, digits, zeros, templates


def _scaled(a: np.ndarray, xi: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor (int64) and fraction of a * 10**(16 - x), xi = x + _X_MAX:
    Dekker's exact product of a with hi, plus a times lo."""
    hi, hi_1, hi_2, lo = np.take(powers, xi, axis=1)
    product = a * hi
    a_1, a_2 = _split(a)
    error = ((a_1 * hi_1 - product) + a_1 * hi_2 + a_2 * hi_1) + a_2 * hi_2
    rest = error + a * lo
    whole = np.floor(rest)
    return product.astype(np.int64) + whole.astype(np.int64), rest - whole


def _format_cells(values: np.ndarray) -> np.ndarray:
    """FLOAT_FMT % v of each float64 v, byte for byte, as (N, CELL_WIDTH)
    NUL-padded uint8 rows.

    With x = floor(log10 |v|), the 17 significant digits are the integer
    D nearest to |v| * 10**(16 - x). It is computed as Dekker's exact
    product with a double-double table of powers of 10, with one
    correction of x where the floor falls outside [10**16, 10**17). The
    scaled value is the unevaluated sum of an exact integer and a double
    below 32, so its fraction carries an absolute error below about 2**-40
    on D < 2**57: far inside TIE_MARGIN. Within that margin of 1/2, ties
    included, the value goes to FLOAT_FMT itself, as do values outside
    EXACT_RANGE. D is cut into 4-digit chunks, each one uint32 of ASCII.
    One template per (sign, layout, exponent slot, digit count) then
    places the digits, the point, the zeros and the exponent by CPython's
    '%g' rules: fixed notation for -4 <= x < 17, else d.ddde+XX, trailing
    zeros cut and at least 2 exponent digits.
    """
    powers, exps, slot_keys, leads, digits, zeros, templates = _tables()
    v = np.asarray(values, np.float64).reshape(-1)
    a = np.abs(v)
    clipped = np.fmin(np.fmax(a, EXACT_RANGE[0]), EXACT_RANGE[1])  # nan -> EXACT_RANGE[0]
    fallback = clipped != a
    xi = np.floor(np.log10(clipped)).astype(np.intp) + _X_MAX
    floor, fraction = _scaled(clipped, xi, powers)
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:  # log10 missed x beside a power of 10
        xi[off] += np.where(floor[off] < 10**16, -1, 1)
        floor[off], fraction[off] = _scaled(clipped[off], xi[off], powers)
        fallback[off] |= (floor[off] < 10**16) | (floor[off] >= 10**17)
    fallback |= np.abs(fraction - 0.5) < TIE_MARGIN
    d = floor + (fraction > 0.5)
    carry = np.flatnonzero(d == 10**17)  # rounded up to the next power of 10
    if carry.size:
        d[carry], xi[carry] = 10**16, xi[carry] + 1

    lead = d // 10**16  # floor division by a constant is cheaper than divmod here
    rest = d - lead * 10**16
    high = rest // 10**8
    halves = np.stack([high, rest - high * 10**8], axis=1).astype(np.int32)
    top = halves // 10_000
    chunks = np.stack([top, halves - top * 10_000], axis=2).reshape(-1, 4)
    source = np.empty((v.size, _SOURCE_WIDTH // 4), np.uint32)
    source[:, 0] = np.take(leads, lead)
    source[:, 1:5] = np.take(digits, chunks)
    source[:, 5] = np.take(exps, xi)
    source[:, 6] = _words([b"e\0\0\0"])[0]
    cut = np.take(zeros, chunks[:, 3])
    more = np.flatnonzero(cut == 4)  # rows whose chunks so far are all zeros
    for k in (2, 1, 0):
        if not more.size:
            break
        step = np.take(zeros, chunks[more, k])
        cut[more] += step
        more = more[step == 4]
    key = np.take(slot_keys, xi) + np.signbit(v) * (_SLOTS * 18) + 17 - cut
    index = np.take(templates, key, axis=0)
    index += np.arange(0, v.size * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    cells = np.take(source.view(np.uint8).reshape(-1), index)
    for i in np.flatnonzero(fallback).tolist():
        text = (FLOAT_FMT % v[i]).encode()
        cells[i] = np.frombuffer(text.ljust(CELL_WIDTH, b"\0"), np.uint8)
    return cells


def _keys(values: np.ndarray) -> np.ndarray:
    """Each key formatted once, as `_format_cells` rows cut to the longest;
    integers as floats, whose FLOAT_FMT is '%d' below 10**17. `run` passes no
    more than BLOCK_ENTRIES: one time block's rows, the photon numbers, the
    angles or the Q axis."""
    cells = _format_cells(values)
    return cells[:, : int(np.max(np.sum(cells != 0, axis=1)))]


def _write_lines(
    handle, rows: np.ndarray, values: np.ndarray, keys: np.ndarray | None = None,
    cols_first: bool = False,
) -> None:
    """Write values as CSV lines keyed by rows: line i is rows[i] and the
    cells of values[i]; with the column keys of `_keys`, each cell is a
    line rows[i], key j, values[i, j] (key j first if cols_first), the row
    keys formatted once here. Each block of BLOCK_ENTRIES lines is one
    stack of the NUL-padded keys, commas, cells and newlines, written
    without its NULs.
    """
    values = values.reshape(len(rows), -1)
    if keys is not None:
        row_keys, cells = _keys(rows), values.reshape(-1)
    lines = len(rows) if keys is None else values.size
    for lo in range(0, lines, BLOCK_ENTRIES):
        hi = min(lo + BLOCK_ENTRIES, lines)
        if keys is None:
            fields = list(map(_format_cells, (rows[lo:hi], *values[lo:hi].T)))
        else:
            row, col = np.divmod(np.arange(lo, hi), len(keys))
            fields = [np.take(row_keys, row, axis=0), np.take(keys, col, axis=0)]
            if cols_first:
                fields.reverse()
            fields.append(_format_cells(cells[lo:hi]))
        comma = np.full((hi - lo, 1), ord(","), np.uint8)
        pieces = [fields[0]]
        for field in fields[1:]:
            pieces += [comma, field]
        text = np.hstack([*pieces, np.full((hi - lo, 1), ord("\n"), np.uint8)])
        handle.write(text[text != 0])


@functools.cache
def _openblas_threads() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS library loaded in
    this process when first asked, found through /proc/self/maps; empty
    where there is no such library or symbol."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (
            ("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")
        ):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every OpenBLAS of `_openblas_threads` on one
    thread and give each its own count back afterwards. The per-row
    matvecs of the phase density and the Q grid are large enough for
    OpenBLAS to use a second thread, which then spins between the calls:
    CPU time doubles and the wall time does not fall."""
    libs = _openblas_threads()
    saved = [get() for get, _ in libs]
    try:
        for _, put in libs:
            put(1)
        yield
    finally:
        for (_, put), count in zip(libs, saved):
            put(count)


def _q_half_width(p: SdfsParams) -> float:
    """h of the Q window [-h, h]^2: the paper's 8, |alpha0| + 4, and
    |alpha0_x| + Q_SIGMAS sqrt(Sigma_xx) on each axis x, where
    Sigma = ((m + 1/2) R(phi/2) diag(e^{-2r}, e^{2r}) R(phi/2)^T + I/2) / 2
    is the covariance of the initial state's Q in alpha units."""
    cos2, sin2 = math.cos(0.5 * p.phi) ** 2, math.sin(0.5 * p.phi) ** 2
    narrow, wide = (p.m + 0.5) * math.exp(-2.0 * p.r), (p.m + 0.5) * math.exp(2.0 * p.r)
    var_x = 0.5 * (narrow * cos2 + wide * sin2 + 0.5)
    var_y = 0.5 * (narrow * sin2 + wide * cos2 + 0.5)
    a0 = p.alpha0
    return max(8.0, abs(a0) + 4.0, abs(a0.real) + Q_SIGMAS * math.sqrt(var_x),
               abs(a0.imag) + Q_SIGMAS * math.sqrt(var_y))


def _q_tail(pc: np.ndarray, ps: np.ndarray, h: float) -> float:
    """The most Q mass outside the disk |alpha| < h over the times of P(n, t) = pc + ps:
    sum_n P(n, t) PoissonCDF(n; h^2), that of |n>, e^{-|alpha|^2} |alpha|^{2n} / (pi n!)."""
    ns = np.arange(pc.shape[-1])
    cdf = np.cumsum(np.exp(ns * math.log(h * h) - h * h - log_factorial(ns)))
    return worst([(pc + ps) @ cdf])


@_one_blas_thread()
def q_grids(
    p: SdfsParams, q: FockVector, times: np.ndarray, detuning_ratio: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list, float]:
    """The axis of the Q window, Q_POINTS over [-h, h] for x and y; the (times, y, x)
    Q grids of q = sdfs_state(p) at the scaled times over it; the conservation
    residuals; each grid's Riemann sum over the window; the `_q_tail` of h. Its h is
    the first of `_q_half_width(p)`, + 0.25, + 0.5, ... whose tail over every time
    is at most Q_TAIL, so the grids of one call share their axis, and their rows run on
    the lanes of `q_function_grid` with OpenBLAS on one thread. `evolve` refuses
    (ValueError) times whose phases would lose precision."""
    c, s = evolve(q, times, detuning_ratio)
    pc, ps = populations(c, s)
    h = _q_half_width(p)
    while (tail := _q_tail(pc, ps, h)) > Q_TAIL:
        h += 0.25
    axis = np.linspace(-h, h, Q_POINTS)
    grids = q_function_grid(c, s, axis)
    cell = np.square(axis[1] - axis[0])
    integrals = [float(np.sum(grid)) * cell for grid in grids]
    return axis, grids, conservation_residual(pc, ps), integrals, tail


@_one_blas_thread()
def compute(cfg: RunConfig, sink=None) -> RunData:
    """Every selected observable and invariant residual of cfg, with no I/O.

    Each output goes to sink(name, rows, block) as it is computed: photon_dist and phase_dist
    per time block, inversion, cc, ss, cs and entropy per chunk, with their times as rows;
    qfunc once, with its axis as rows. Without a sink, RunData gathers every output.

    Hands `evolve` the times its outputs read (t_max_scaled for a time series,
    the Q time for qfunc) first, so lost phase precision is refused up front.
    """
    q = sdfs_state(cfg.state)
    selected = set(cfg.observables)
    t_q = cfg.t_max_scaled if cfg.q_time_scaled is None else cfg.q_time_scaled
    timed = bool(selected & TIME_SERIES)
    read = [cfg.t_max_scaled] * timed + [t_q] * ("qfunc" in selected)
    evolve(q, read, cfg.detuning_ratio)
    ts = np.linspace(0.0, cfg.t_max_scaled, cfg.t_points) if timed else None
    residuals = {"normalization_residual": abs(q.norm_sq() - 1.0)}
    kernel = phase_kernel(q.dim + 1) if "phase_dist" in selected else None  # C, S have dim + 1
    narrow = ["inversion"] * ("inversion" in selected)  # the series handed over per chunk
    narrow += ["cc", "ss", "cs"] * ("entropy" in selected)
    pieces: dict[str, list] = {}  # the blocks of each output, where no sink is given
    sink = sink or (lambda name, rows, block: pieces.setdefault(name, []).append(block))

    def fold(name: str, deviations: np.ndarray) -> None:  # residuals are >= 0
        residuals[name] = worst([residuals.get(name, 0.0), deviations])

    if timed:
        step = max(1, BLOCK_ENTRIES // q.dim)
        span = -(-BLOCK_ENTRIES // step) * step  # the fewest blocks that hold BLOCK_ENTRIES times
        for first in range(0, ts.size, span):
            times = ts[first : first + span]
            chunk = {name: np.empty(times.size, complex if name == "cs" else float)
                     for name in narrow}
            for lo in range(0, times.size, step):
                rows = slice(lo, lo + step)
                c, s = evolve(q, times[rows], cfg.detuning_ratio)
                pc, ps = populations(c, s)
                fold("conservation_residual", conservation_residual(pc, ps))
                if "inversion" in selected:
                    chunk["inversion"][rows] = atomic_inversion(pc, ps)
                if "entropy" in selected:
                    chunk["cc"][rows], chunk["ss"][rows], chunk["cs"][rows] = gram(c, s, pc, ps)
                if "photon_dist" in selected:
                    sink("photon_dist", times[rows], photon_number_distribution(pc, ps))
                if kernel is not None:
                    phase = phase_distribution(c, s, kernel)
                    integrals = np.sum(phase, axis=1) * (2.0 * math.pi / ETA_POINTS)
                    fold("phase_integral_residual", np.abs(integrals - 1.0))
                    sink("phase_dist", times[rows], phase)
            del c, s, pc, ps  # the last block's arrays go before the chunk is written
            if "entropy" in selected:
                chunk["entropy"] = entropy_rows(chunk["cc"], chunk["ss"], chunk["cs"], first)
                lam_sums = chunk["entropy"][:, 1] + chunk["entropy"][:, 2]
                fold("eigenvalue_sum_residual", np.abs(lam_sums - 1.0))
            for name, values in chunk.items():
                sink(name, times, values)

    q_axis = None
    if "qfunc" in selected:
        q_axis, grids, conservation, sums, tail = q_grids(cfg.state, q, [t_q], cfg.detuning_ratio)
        fold("conservation_residual", conservation)
        residuals.update(q_integral_residual=abs(sums[0] - 1.0), q_tail_mass=tail)
        sink("qfunc", q_axis, grids[0])

    gathered = {name: np.concatenate(p) if len(p) > 1 else p[0] for name, p in pieces.items()}
    return RunData(q.dim - 1, ts, residuals, q_axis=q_axis, **gathered)


def run(cfg: RunConfig) -> RunResult:
    """Compute cfg and write its CSVs and run summary into cfg.output_dir.

    One writer, the sink of `compute`, begins each CSV at its first block.
    If anything raises, the summary write included, every file that `run`
    opened is deleted, and so is every directory of cfg.output_dir that it made.
    """
    started = time.perf_counter()
    out_dir = Path(cfg.output_dir)
    missing = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
    begun: dict[str, tuple] = {}  # observable -> its open CSV, column keys
    opened: list[Path] = []  # each CSV and the summary once this run has opened it
    write_s = 0.0

    def write(name: str, rows: np.ndarray, block: np.ndarray) -> None:
        nonlocal write_s
        if name not in OUTPUTS:  # the Gram entries
            return
        began = time.perf_counter()
        if name not in begun:
            cols = {"photon_dist": range(block.shape[-1]), "phase_dist": ETAS, "qfunc": rows}
            keys = _keys(cols[name]) if name in cols else None
            out_dir.mkdir(parents=True, exist_ok=True)
            begun[name] = open(out_dir / f"{name}.csv", "wb"), keys
            opened.append(out_dir / f"{name}.csv")
            begun[name][0].write(OUTPUTS[name][0].encode() + b"\n")
        handle, keys = begun[name]
        _write_lines(handle, rows, block, keys, cols_first=name == "qfunc")
        write_s += time.perf_counter() - began

    try:
        try:
            data = compute(cfg, write)
        finally:
            for handle, _ in begun.values():
                handle.close()
        failures = sorted(
            name for name, value in data.residuals.items() if not value <= TOLERANCES[name]
        )
        ok = not failures
        summary = {
            "n_max": data.n_max,
            "dim": data.n_max + 1,
            "t_points": cfg.t_points,
            **{name: data.residuals[name] for name in sorted(data.residuals)},
            "compute_s": time.perf_counter() - started - write_s,
            "write_s": write_s,
            "wall_time_s": time.perf_counter() - started,
            "status": "ok" if ok else "invariant-failure: " + ", ".join(failures),
        }
        with open(out_dir / "run_summary.txt", "w", newline="\n") as handle:
            opened.append(out_dir / "run_summary.txt")
            for key, value in summary.items():
                handle.write(f"{key} = {value}\n")
    except BaseException:
        for path in opened:
            path.unlink(missing_ok=True)
        for path in missing:  # innermost first; one that is not empty stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise

    files = tuple(out_dir / f"{name}.csv" for name in OBSERVABLE_NAMES if name in begun)
    return RunResult(ok, summary, files)
