"""Executes a RunConfig: `compute` does the arithmetic, `run` writes it.

`compute` builds the truncated initial field once and
walks the scaled-time grid in blocks of rows. Each block is one call of
`dynamics.evolve`, which returns A and B as (rows, dim) arrays with
dim = n_max + 1; every time-series output keeps that layout, one row
per time point: inversion (T,), the Gram entries cc, ss, cs (T,),
entropy (T, 3), P(n, t) (T, dim + 1) and the phase density
(T, eta_points). The Q snapshot is one (ny, nx) grid.

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

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, validate
from .dynamics import conservation_residual, evolve, field_components
from .observables import (
    QGrid,
    atomic_inversion,
    default_etas,
    entropy_rows,
    gram,
    phase_distribution,
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
    "normalization_residual": 1e-10,
    "conservation_residual": 1e-10,
    "gram_trace_residual": 1e-10,
    "eigenvalue_sum_residual": 1e-10,
    "phase_integral_residual": 1e-6,
    "q_integral_residual": 1e-3,
}


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


def compute(cfg: RunConfig) -> RunData:
    """Every selected observable and invariant residual of cfg, with no I/O."""
    validate(cfg)
    q = sdfs_state(cfg.state, cfg.tail_tol)
    n_max = q.dim - 1
    ts = np.linspace(0.0, cfg.t_max_scaled, cfg.t_points)
    selected = set(cfg.observables)
    residuals = {"normalization_residual": abs(q.norm_sq() - 1.0)}
    etas = default_etas(cfg.eta_points) if "phase_dist" in selected else None
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
            if etas is not None:
                block["phase"] = phase_distribution(c, s, etas)
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
