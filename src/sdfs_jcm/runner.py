"""Executes a RunConfig: `compute` does the arithmetic, `run` writes it.

`compute` builds the truncated initial field and the phase kernel once
and walks the scaled-time grid in blocks of rows. Each block is one call of
`dynamics.evolve`, which returns A and B as (rows, dim) arrays with
dim = n_max + 1; every time-series output keeps that layout, one row
per time point: inversion (T,), the Gram entries cc, ss, cs (T,),
entropy (T, 3), P(n, t) (T, dim + 1) and the phase density
(T, eta_points). The Q snapshot is one (ny, nx) grid. All of `compute`
runs with OpenBLAS on one thread, a process-wide setting: each loaded
OpenBLAS gets its thread count back when `compute` returns or raises,
so calls of `compute` from concurrent threads would race on it.

`run` writes one CSV per selected observable, with fixed schemas:

    inversion.csv   lambda_t,W
    entropy.csv     lambda_t,S_f,lambda_plus,lambda_minus
    photon_dist.csv lambda_t,n,P
    phase_dist.csv  lambda_t,eta,P
    qfunc.csv       x,y,Q

Files are streamed in blocks. Each key (time, n, eta, x, y) is formatted
once per run with '%.17g' ('%d' for n), the time keys once for all the
time-series files, and lines end in '\\n': identical configurations give
identical bytes, equal to the np.savetxt output of earlier versions.
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

from .config import RunConfig, validate
from .dynamics import conservation_residual, evolve, field_components
from .fock import NORM_TOL
from .observables import (
    QGrid,
    atomic_inversion,
    default_etas,
    entropy_rows,
    gram,
    phase_distribution,
    phase_kernel,
    photon_number_distribution,
    q_function_grid,
)
from .sdfs import sdfs_state

FLOAT_FMT = "%.17g"

# Complex entries of A (and of B) per time block: a block holds
# max(1, BLOCK_ENTRIES // dim) rows, which keeps the block arrays small.
# Also the lines per written block of inversion.csv and entropy.csv.
BLOCK_ENTRIES = 4096

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
    etas: np.ndarray | None = None
    phase: np.ndarray | None = None
    qgrid: QGrid | None = None


@dataclass(frozen=True)
class RunResult:
    ok: bool
    summary: dict
    files: tuple[Path, ...]


def _keys(values: np.ndarray) -> list[str]:
    """Each key formatted once: '%d' for integers, FLOAT_FMT otherwise."""
    fmt = "%d" if values.dtype.kind in "iu" else FLOAT_FMT
    return [fmt % value for value in values.tolist()]


def _write_csv(
    path: Path,
    header: str,
    row_keys: list[str],
    values: np.ndarray,
    cols: np.ndarray | None = None,
    cols_first: bool = False,
) -> Path:
    """Stream values as a CSV keyed by row_keys (from `_keys`): line i is
    row_keys[i] and the cells of values[i]; with cols, each cell is a line
    row_keys[i], cols[j], values[i, j] (cols[j] first if cols_first). A
    block (BLOCK_ENTRIES lines, or one row with cols) is one template of
    'prefix key suffix' lines joined from the keys, filled by one '%'.
    """
    values = values.reshape(len(row_keys), -1)
    if cols is None:
        cells = ("," + FLOAT_FMT) * values.shape[1] + "\n"
        blocks = (
            (row_keys[lo : lo + BLOCK_ENTRIES], "", cells, values[lo : lo + BLOCK_ENTRIES])
            for lo in range(0, len(row_keys), BLOCK_ENTRIES)
        )
    else:
        col_keys, line_end = _keys(cols), f",{FLOAT_FMT}\n"
        blocks = (
            (col_keys, "", f",{key}{line_end}", row) if cols_first
            else (col_keys, f"{key},", line_end, row)
            for key, row in zip(row_keys, values)
        )
    with open(path, "w", newline="\n") as handle:
        handle.write(header + "\n")
        for keys, prefix, suffix, block in blocks:
            template = prefix + (suffix + prefix).join(keys) + suffix
            handle.write(template % tuple(block.ravel().tolist()))
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


@_one_blas_thread()
def compute(cfg: RunConfig) -> RunData:
    """Every selected observable and invariant residual of cfg, with no I/O.

    Refuses (ValueError) a t_max_scaled or q_time_scaled whose phases
    t * nu_n lose more than PHASE_BUDGET to rounding at the truncation.
    """
    validate(cfg)
    q = sdfs_state(cfg.state, cfg.tail_tol)
    n_max = q.dim - 1
    nu_max = math.sqrt(0.25 * cfg.detuning_ratio**2 + q.dim)  # nu_n of `evolve` at n_max
    for key in ("t_max_scaled", "q_time_scaled"):
        t = getattr(cfg, key) or 0.0  # no q_time_scaled: Q at t_max_scaled
        lost = math.ulp(1.0) * t * nu_max
        if lost > PHASE_BUDGET:
            raise ValueError(
                f"key {key!r} = {t:g} loses phase precision: eps * t * nu_max = "
                f"{lost:.3e} exceeds {PHASE_BUDGET:g} at n_max = {n_max}"
            )
    ts = np.linspace(0.0, cfg.t_max_scaled, cfg.t_points)
    selected = set(cfg.observables)
    residuals = {"normalization_residual": abs(q.norm_sq() - 1.0)}
    etas = default_etas(cfg.eta_points) if "phase_dist" in selected else None
    kernel = None if etas is None else phase_kernel(etas, q.dim + 1)  # C, S have dim + 1
    series: dict[str, np.ndarray] = {}

    if selected & TIME_SERIES:
        step = max(1, BLOCK_ENTRIES // q.dim)
        for lo in range(0, ts.size, step):
            rows = slice(lo, lo + step)
            a, b = evolve(q, ts[rows], cfg.detuning_ratio)
            c, s = field_components(a, b)
            block = {"conservation": conservation_residual(a, b)}
            if "inversion" in selected:
                block["inversion"] = atomic_inversion(a, b)
            if "entropy" in selected:
                block["cc"], block["ss"], block["cs"] = gram(c, s)
            if "photon_dist" in selected:
                block["photon"] = photon_number_distribution(c, s)
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
        if etas is not None:
            integrals = np.sum(series["phase"], axis=1) * (2.0 * math.pi / etas.size)
            residuals["phase_integral_residual"] = float(np.max(np.abs(integrals - 1.0)))

    qgrid = None
    if "qfunc" in selected:
        t_q = cfg.q_time_scaled if cfg.q_time_scaled is not None else cfg.t_max_scaled
        a, b = evolve(q, [t_q], cfg.detuning_ratio)
        residuals["conservation_residual"] = max(
            residuals.get("conservation_residual", 0.0),
            float(conservation_residual(a, b)[0]),
        )
        grid = cfg.q_grid
        xs = np.linspace(grid.x_min, grid.x_max, grid.nx)
        ys = np.linspace(grid.y_min, grid.y_max, grid.ny)
        qgrid = q_function_grid(*field_components(a[0], b[0]), xs, ys)
        cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
        residuals["q_integral_residual"] = abs(float(np.sum(qgrid.values)) * cell - 1.0)

    return RunData(n_max, ts, residuals, etas=etas, qgrid=qgrid, **series)


def run(cfg: RunConfig) -> RunResult:
    """Compute cfg and write its CSVs and run summary into cfg.output_dir."""
    started = time.perf_counter()
    data = compute(cfg)
    computed = time.perf_counter()
    ts, n_max, residuals = data.ts, data.n_max, data.residuals
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    time_keys = _keys(ts) if TIME_SERIES & set(cfg.observables) else None
    # name, header, row keys (one formatting of ts for all), values, column keys, cols first
    tables = [
        ("inversion", "lambda_t,W", time_keys, data.inversion, None, False),
        ("entropy", "lambda_t,S_f,lambda_plus,lambda_minus", time_keys, data.entropy, None, False),
        ("photon_dist", "lambda_t,n,P", time_keys, data.photon, np.arange(n_max + 2), False),
        ("phase_dist", "lambda_t,eta,P", time_keys, data.phase, data.etas, False),
    ]
    if data.qgrid is not None:
        grid = data.qgrid
        tables.append(("qfunc", "x,y,Q", _keys(grid.y_axis), grid.values, grid.x_axis, True))
    files = [
        _write_csv(out_dir / f"{name}.csv", header, *table)
        for name, header, *table in tables
        if table[1] is not None
    ]
    written = time.perf_counter()

    failures = sorted(
        name for name, value in residuals.items() if value > TOLERANCES[name]
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
