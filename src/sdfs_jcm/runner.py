"""Executes a RunConfig: `compute` does the arithmetic, `run` writes it.

`compute` builds the truncated initial field and the phase kernel once
and walks the scaled-time grid in blocks of rows. Each block is one call of
`dynamics.evolve`, which returns A and B as (rows, dim) arrays with
dim = n_max + 1; every time-series output keeps that layout, one row
per time point: inversion (T,), the Gram entries cc, ss, cs (T,),
entropy (T, 3), P(n, t) (T, dim + 1) and the phase density
(T, ETA_POINTS). The Q snapshot is a plain (Q_POINTS, Q_POINTS) array
indexed [y, x] over the one axis of the window [-h, h]^2, h from
`_q_half_width`: the paper's 8, widened with the displacement, the
squeezing and the seed number; `q_grids` makes it, and the three fig5
snapshots of `check` in one pass of bras.
It and `compute` run with OpenBLAS on one thread, a process-wide setting:
each loaded OpenBLAS gets its thread count back when they return or
raise, so calls from concurrent threads would race on it.

`run` writes one CSV per selected observable, with fixed schemas:

    inversion.csv   lambda_t,W
    entropy.csv     lambda_t,S_f,lambda_plus,lambda_minus
    photon_dist.csv lambda_t,n,P
    phase_dist.csv  lambda_t,eta,P
    qfunc.csv       x,y,Q

Every number is written as CPython's '%.17g' ('%d' for n) would write it,
byte for byte, but formatted in numpy by `_format_cells`: the 17 digits
come from Dekker's exact product with a double-double power of 10, and
the few values whose rounding that cannot settle (near-ties, zeros,
inf, nan, magnitudes outside EXACT_RANGE) go to '%.17g' itself. Files
are streamed in blocks of BLOCK_ENTRIES lines. The row and column keys
of a keyed file (time or y, and n, eta or x) are formatted once per
file; the output cap holds such a file to OUTPUT_CAP / ETA_POINTS rows.
Lines end in '\\n': identical configurations give identical bytes,
equal to the np.savetxt output of earlier versions.
run_summary.txt records the truncation, the worst invariant residuals
and the compute, write and wall times; any residual beyond its tolerance
marks the run failed, which the CLI turns into a nonzero exit status.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dynamics import conservation_residual, evolve, field_components, populations
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
from .sdfs import SdfsParams, sdfs_state

FLOAT_FMT = "%.17g"

# Complex entries of A (and of B) per time block: a block holds
# max(1, BLOCK_ENTRIES // dim) rows, which keeps the block arrays small.
# Also the lines per written block of every CSV, and so the most values
# one call of `_format_cells` formats.
BLOCK_ENTRIES = 4096
Q_POINTS = 201  # per axis of the Q window
# Standard deviations of the initial Q that the window holds on each axis: the
# most that keeps the fig5 state (sqrt(Sigma_yy) = 2.41) on the paper's [-8, 8]^2.
Q_SIGMAS = 3.3

TIME_SERIES = frozenset({"inversion", "entropy", "photon_dist", "phase_dist"})

TOLERANCES = {
    "normalization_residual": NORM_TOL,
    "conservation_residual": NORM_TOL,
    "gram_trace_residual": NORM_TOL,
    "eigenvalue_sum_residual": NORM_TOL,
    "phase_integral_residual": 1e-6,
    "q_integral_residual": 1e-3,
}

# Largest eps * t * nu_max, the rounding error of the phases t * nu_n that
# `evolve` forms. Against mpmath, A_5 of a coherent alpha0 = 1 state was off
# by 3.7e-13 at t = 1e6 and by 1.7e-5 at t = 1e12; the residuals cannot see it.
PHASE_BUDGET = 1e-10


@dataclass(frozen=True, eq=False)
class RunData:
    """The arrays `compute` derives from a RunConfig; an observable that
    was not selected is None. Rows follow ts."""

    n_max: int
    ts: np.ndarray
    residuals: dict
    inversion: np.ndarray | None = None
    cc: np.ndarray | None = None
    ss: np.ndarray | None = None
    cs: np.ndarray | None = None
    entropy: np.ndarray | None = None  # columns S_f, lambda_plus, lambda_minus
    photon: np.ndarray | None = None
    phase: np.ndarray | None = None  # columns at ETAS
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
    """Each key formatted once, as `_format_cells` rows cut to the longest,
    BLOCK_ENTRIES at a time; integers as floats, whose FLOAT_FMT is '%d'
    below 10**17."""
    blocks = range(0, len(values), BLOCK_ENTRIES)
    cells = np.concatenate([_format_cells(values[lo : lo + BLOCK_ENTRIES]) for lo in blocks])
    return cells[:, : int(np.max(np.sum(cells != 0, axis=1)))]


def _write_csv(
    path: Path,
    header: str,
    rows: np.ndarray,
    values: np.ndarray,
    cols: np.ndarray | None = None,
    cols_first: bool = False,
) -> Path:
    """Stream values as a CSV keyed by rows: line i is rows[i] and the
    cells of values[i]; with cols, each cell is a line rows[i], cols[j],
    values[i, j] (cols[j] first if cols_first), both keys formatted once
    by `_keys`. Each block of BLOCK_ENTRIES lines is one stack of the
    NUL-padded keys, commas, cells and newlines, written without its NULs.
    """
    values = values.reshape(len(rows), -1)
    keys = None if cols is None else (_keys(rows), _keys(cols))
    lines = len(rows) if cols is None else values.size
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for lo in range(0, lines, BLOCK_ENTRIES):
            hi = min(lo + BLOCK_ENTRIES, lines)
            if keys is None:
                fields = list(map(_format_cells, (rows[lo:hi], *values[lo:hi].T)))
            else:
                row, col = np.divmod(np.arange(lo, hi), len(cols))
                fields = [np.take(keys[0], row, axis=0), np.take(keys[1], col, axis=0)]
                if cols_first:
                    fields.reverse()
                fields.append(_format_cells(values.reshape(-1)[lo:hi]))
            comma = np.full((hi - lo, 1), ord(","), np.uint8)
            pieces = [fields[0]]
            for field in fields[1:]:
                pieces += [comma, field]
            text = np.hstack([*pieces, np.full((hi - lo, 1), ord("\n"), np.uint8)])
            handle.write(text[text != 0])
    return path


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


@contextmanager
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


@_one_blas_thread()
def q_grids(
    p: SdfsParams, q: FockVector, times: np.ndarray, detuning_ratio: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The axis of the Q window, Q_POINTS over [-h, h] with h =
    `_q_half_width(p)` for both x and y; the (times, y, x) Q grids of
    q = sdfs_state(p) at the scaled times over it; the conservation residuals."""
    c, s = field_components(*evolve(q, times, detuning_ratio))
    h = _q_half_width(p)
    axis = np.linspace(-h, h, Q_POINTS)
    return axis, q_function_grid(c, s, axis, axis), conservation_residual(*populations(c, s))


@_one_blas_thread()
def compute(cfg: RunConfig) -> RunData:
    """Every selected observable and invariant residual of cfg, with no I/O.

    Refuses (ValueError) a t_max_scaled or q_time_scaled whose phases
    t * nu_n lose more than PHASE_BUDGET to rounding at the truncation;
    q_time_scaled only when qfunc, the one output at that time, is selected.
    Where even t = 1 would lose them, detuning_ratio is named as the key.
    """
    q = sdfs_state(cfg.state)
    n_max = q.dim - 1
    selected = set(cfg.observables)
    # nu_n of `evolve` at n_max: inf, not an OverflowError, where Delta^2 overflows
    nu_max = math.sqrt(0.25 * (cfg.detuning_ratio * cfg.detuning_ratio) + q.dim)
    for key in ("t_max_scaled", "q_time_scaled") if "qfunc" in selected else ("t_max_scaled",):
        t = getattr(cfg, key) or 0.0  # no q_time_scaled: Q at t_max_scaled
        lost = math.ulp(1.0) * t * nu_max
        if lost > PHASE_BUDGET:
            culprit = (f"key {key!r} = {t:g}" if math.ulp(1.0) * nu_max <= PHASE_BUDGET
                       else "key 'detuning_ratio' is too large: even t = 1")  # or nu_max = inf
            raise ValueError(
                f"{culprit} loses phase precision at detuning_ratio = "
                f"{cfg.detuning_ratio:g}: eps * t * nu_max = {lost:.3e} exceeds "
                f"{PHASE_BUDGET:g} at n_max = {n_max}"
            )
    ts = np.linspace(0.0, cfg.t_max_scaled, cfg.t_points)
    residuals = {"normalization_residual": abs(q.norm_sq() - 1.0)}
    kernel = phase_kernel(q.dim + 1) if "phase_dist" in selected else None  # C, S have dim + 1
    series: dict[str, np.ndarray] = {}

    if selected & TIME_SERIES:
        step = max(1, BLOCK_ENTRIES // q.dim)
        for lo in range(0, ts.size, step):
            rows = slice(lo, lo + step)
            c, s = field_components(*evolve(q, ts[rows], cfg.detuning_ratio))
            pc, ps = populations(c, s)
            block = {"conservation": conservation_residual(pc, ps)}
            if "inversion" in selected:
                block["inversion"] = atomic_inversion(pc, ps)
            if "entropy" in selected:
                block["cc"], block["ss"], block["cs"] = gram(c, s, pc, ps)
            if "photon_dist" in selected:
                block["photon"] = photon_number_distribution(pc, ps)
            if kernel is not None:
                block["phase"] = phase_distribution(c, s, kernel)
            for key, value in block.items():
                if key not in series:
                    series[key] = np.empty((ts.size, *value.shape[1:]), value.dtype)
                series[key][rows] = value
        residuals["conservation_residual"] = float(np.max(series.pop("conservation")))
        if "entropy" in selected:
            series["entropy"] = entropy_rows(series["cc"], series["ss"], series["cs"])
            trace = series["cc"] + series["ss"]
            residuals["gram_trace_residual"] = float(np.max(np.abs(trace - 1.0)))
            lam_sums = series["entropy"][:, 1] + series["entropy"][:, 2]
            residuals["eigenvalue_sum_residual"] = float(np.max(np.abs(lam_sums - 1.0)))
        if kernel is not None:
            integrals = np.sum(series["phase"], axis=1) * (2.0 * math.pi / ETA_POINTS)
            residuals["phase_integral_residual"] = float(np.max(np.abs(integrals - 1.0)))

    q_axis = qfunc = None
    if "qfunc" in selected:
        t_q = cfg.q_time_scaled if cfg.q_time_scaled is not None else cfg.t_max_scaled
        q_axis, (qfunc,), conservation = q_grids(cfg.state, q, [t_q], cfg.detuning_ratio)
        residuals["conservation_residual"] = max(
            residuals.get("conservation_residual", 0.0), float(conservation[0])
        )
        cell = np.square(q_axis[1] - q_axis[0])
        residuals["q_integral_residual"] = abs(float(np.sum(qfunc)) * cell - 1.0)

    return RunData(n_max, ts, residuals, q_axis=q_axis, qfunc=qfunc, **series)


def run(cfg: RunConfig) -> RunResult:
    """Compute cfg and write its CSVs and run summary into cfg.output_dir."""
    started = time.perf_counter()
    data = compute(cfg)
    computed = time.perf_counter()
    ts, n_max, residuals = data.ts, data.n_max, data.residuals
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # name, header, row keys, values, column keys, cols first
    tables = [
        ("inversion", "lambda_t,W", ts, data.inversion, None, False),
        ("entropy", "lambda_t,S_f,lambda_plus,lambda_minus", ts, data.entropy, None, False),
        ("photon_dist", "lambda_t,n,P", ts, data.photon, np.arange(n_max + 2), False),
        ("phase_dist", "lambda_t,eta,P", ts, data.phase, ETAS, False),
        ("qfunc", "x,y,Q", data.q_axis, data.qfunc, data.q_axis, True),
    ]
    files = [
        _write_csv(out_dir / f"{name}.csv", header, *table)
        for name, header, *table in tables
        if table[1] is not None
    ]
    written = time.perf_counter()

    failures = sorted(
        name for name, value in residuals.items() if not value <= TOLERANCES[name]
    )
    ok = not failures
    summary = {
        "n_max": n_max,
        "dim": n_max + 1,
        "t_points": cfg.t_points,
        **{name: residuals[name] for name in sorted(residuals)},
        "compute_s": computed - started,
        "write_s": written - computed,
        "wall_time_s": time.perf_counter() - started,
        "status": "ok" if ok else "invariant-failure: " + ", ".join(failures),
    }
    with open(out_dir / "run_summary.txt", "w", newline="\n") as handle:
        for key, value in summary.items():
            handle.write(f"{key} = {value}\n")
    return RunResult(ok, summary, tuple(files))
