import dataclasses
import decimal
import math
import tracemalloc

import numpy as np
import pytest

from sdfs_jcm import runner, sdfs
from sdfs_jcm.config import OBSERVABLE_NAMES, RunConfig
from sdfs_jcm.dynamics import evolve, field_components
from sdfs_jcm.fock import DIM_CAP
from sdfs_jcm.observables import ETA_POINTS, ETAS, phase_distribution, phase_kernel, q_function_grid
from sdfs_jcm.presets import figure_preset
from sdfs_jcm.runner import compute
from sdfs_jcm.sdfs import SdfsParams, mean_photon_number, sdfs_state

# Detuned, with every observable selected; 250 time points are not a
# multiple of the default block rows, so the last block is partial.
_CFG = RunConfig(
    state=SdfsParams(alpha0=1.5 + 0.5j, r=0.4, phi=0.3, m=1),
    detuning_ratio=0.7,
    t_max_scaled=12.0,
    t_points=250,
    q_time_scaled=4.0,
    observables=OBSERVABLE_NAMES,
)


@pytest.fixture
def small_q_window(monkeypatch):
    """31 x 31 Q points per run for the tests of _CFG, which compute it
    about ten times: a 201 x 201 grid would take most of their time."""
    monkeypatch.setattr(runner, "Q_POINTS", 31)


def _arrays(data):
    out = {}
    for field in dataclasses.fields(data):
        value = getattr(data, field.name)
        if field.name == "qgrid":
            value = value.values
        out[field.name] = value
    return out


def test_compute_fills_every_selected_observable(small_q_window):
    data = compute(_CFG)
    dim = data.n_max + 1
    rows = runner.BLOCK_ENTRIES // dim
    assert _CFG.t_points > rows and _CFG.t_points % rows
    assert data.inversion.shape == data.cc.shape == data.cs.shape == (_CFG.t_points,)
    assert data.entropy.shape == (_CFG.t_points, 3)
    assert data.photon.shape == (_CFG.t_points, dim + 1)
    assert data.phase.shape == (_CFG.t_points, ETA_POINTS)
    assert data.qgrid.values.shape == (31, 31)
    assert data.qgrid.x_axis[0] == data.qgrid.y_axis[0] == -8.0  # the paper's window holds this Q
    assert set(data.residuals) == set(runner.TOLERANCES)
    assert all(value <= runner.TOLERANCES[name] for name, value in data.residuals.items())


@pytest.mark.parametrize("block_entries", ["one-row", "one-block"])
def test_compute_is_independent_of_the_block_size(monkeypatch, small_q_window, block_entries):
    reference = _arrays(compute(_CFG))
    entries = 1 if block_entries == "one-row" else 10**9
    monkeypatch.setattr(runner, "BLOCK_ENTRIES", entries)
    blocked = _arrays(compute(_CFG))
    assert blocked.keys() == reference.keys()
    for name, value in reference.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(blocked[name], value), name
        else:
            assert blocked[name] == value, name


@pytest.mark.parametrize("preset, windows", [("fig1a", 2), ("fig3a", 3)])
def test_compute_builds_each_amplitude_window_once(monkeypatch, preset, windows):
    sizes = []
    amplitudes = sdfs._amplitudes

    def counting_amplitudes(p, n_max):
        sizes.append(n_max)
        return amplitudes(p, n_max)

    monkeypatch.setattr(sdfs, "_amplitudes", counting_amplitudes)
    cfg = dataclasses.replace(figure_preset(preset), t_points=2)
    data = compute(cfg)
    # the walk: the floor, then 2 n + 16 up to the cap, and no rebuild at n_max
    mean = mean_photon_number(cfg.state)
    walk = [math.ceil(mean + 10.0 * math.sqrt(mean + 1.0))]
    while len(walk) < windows:
        walk.append(min(2 * walk[-1] + 16, DIM_CAP - 1))
    assert sizes == walk
    assert walk[-2] < data.n_max <= walk[-1]


def test_compute_builds_the_phase_kernel_once(monkeypatch):
    dims = []
    build = runner.phase_kernel

    def counting_kernel(dim):
        dims.append(dim)
        return build(dim)

    monkeypatch.setattr(runner, "phase_kernel", counting_kernel)
    cfg = figure_preset("fig4a")
    data = compute(cfg)
    assert cfg.t_points > runner.BLOCK_ENTRIES // (data.n_max + 1)  # many time blocks
    assert dims == [data.n_max + 2]


# ------------------------------------------------------------ BLAS threads


def _blas_counts():
    return [get() for get, _ in runner._openblas_threads()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads for the test, then back to its
    own count; yields the (get, set) pairs, empty without OpenBLAS."""
    libs = runner._openblas_threads()
    saved = _blas_counts()
    for _, put in libs:
        put(2)
    try:
        yield libs
    finally:
        for (_, put), count in zip(libs, saved):
            put(count)


@pytest.mark.parametrize("kernel_raises", [False, True])
def test_compute_runs_on_one_blas_thread_and_restores_the_count(
    monkeypatch, small_q_window, two_blas_threads, kernel_raises
):
    if not two_blas_threads:
        pytest.skip("no OpenBLAS library loaded")
    seen = []
    kernel = runner.phase_distribution

    def watched(c, s, k):
        seen.append(_blas_counts())
        if kernel_raises:
            raise RuntimeError("kernel failed")
        return kernel(c, s, k)

    monkeypatch.setattr(runner, "phase_distribution", watched)
    if kernel_raises:
        with pytest.raises(RuntimeError, match="kernel failed"):
            compute(_CFG)
    else:
        compute(_CFG)
    libs = len(two_blas_threads)
    assert seen and all(counts == [1] * libs for counts in seen)
    assert _blas_counts() == [2] * libs


def test_compute_takes_its_q_grid_from_q_grids_on_one_blas_thread(monkeypatch, two_blas_threads):
    seen, calls = [], []
    grid_kernel, q_grids = runner.q_function_grid, runner.q_grids

    def watched(*args):
        seen.append(_blas_counts())
        return grid_kernel(*args)

    def recorded(*args):
        calls.append(args)
        return q_grids(*args)

    monkeypatch.setattr(runner, "q_function_grid", watched)
    cfg = figure_preset("fig5b")
    (grid,), conservation = q_grids(
        cfg.state, sdfs_state(cfg.state), [cfg.q_time_scaled], cfg.detuning_ratio
    )
    libs = len(two_blas_threads)
    assert seen == [[1] * libs] and _blas_counts() == [2] * libs
    assert conservation.shape == (1,)
    monkeypatch.setattr(runner, "q_grids", recorded)
    data = compute(cfg)
    assert len(calls) == 1 and list(calls[0][2]) == [cfg.q_time_scaled]
    assert np.array_equal(data.qgrid.values.view(np.int64), grid.values.view(np.int64))


@pytest.mark.parametrize("preset", ["fig4a", "fig5b"])
def test_compute_matches_its_kernels_outside_the_one_thread_scope(two_blas_threads, preset):
    cfg = figure_preset(preset)
    data = compute(cfg)
    q = sdfs_state(cfg.state)
    if preset == "fig4a":
        c, s = field_components(*evolve(q, data.ts, cfg.detuning_ratio))
        got, expected = data.phase, phase_distribution(c, s, phase_kernel(q.dim + 1))
    else:
        a, b = evolve(q, [cfg.q_time_scaled], cfg.detuning_ratio)
        grid = data.qgrid
        got = grid.values
        expected = q_function_grid(*field_components(a[0], b[0]), grid.x_axis, grid.y_axis).values
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------- CSV writer

_F = runner.FLOAT_FMT


def _assert_cells_match_float_fmt(values):
    values = np.asarray(values, dtype=np.float64)
    cells = runner._format_cells(values)
    assert cells.shape == (values.size, runner.CELL_WIDTH)
    got = [row.tobytes().rstrip(b"\0").decode() for row in cells]
    expected = [_F % value for value in values.tolist()]
    mismatches = [(v, g, e) for v, g, e in zip(values.tolist(), got, expected) if g != e]
    assert not mismatches, mismatches[:5]


def test_cells_match_float_fmt_on_random_bit_patterns():
    # every sign and exponent: subnormals, values outside the exact range, inf and nan
    bits = np.random.default_rng(20011).integers(0, 2**64, 100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
    _assert_cells_match_float_fmt(np.concatenate([values, [np.inf, -np.inf, np.nan]]))


def test_cells_match_float_fmt_at_and_beside_every_power_of_ten():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    neighbours = [np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)]
    values = np.concatenate(neighbours)
    _assert_cells_match_float_fmt(np.concatenate([values, -values]))


@pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
def test_cells_match_float_fmt_where_the_layout_switches(switch):
    # '%g' turns scientific below 1e-4 and from 1e17 on, after rounding to 17 digits
    steps = np.arange(-40, 41)
    near = np.concatenate([switch * (1.0 + steps * 1e-16), switch * (1.0 + steps * 1e-3)])
    _assert_cells_match_float_fmt(np.concatenate([near, np.nextafter(near, 0.0), -near]))


def test_cells_match_float_fmt_on_zeros_and_edge_values():
    edge = [0.0, -0.0, 1e-300, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    edge += [0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.0 / 3.0, 1e300, 1e280, 1e-280]
    edge += [0.5, 1.0, 12.0, 100.0, 123456789.0, 2.0**53, 2.0**53 + 2.0, -1e22, 1e23]
    _assert_cells_match_float_fmt(edge)


def test_cells_match_float_fmt_on_exact_ties():
    # m / 2**j with m odd has the exact decimal expansion m * 5**j / 10**j; with
    # 18 significant digits its last is a 5, so '%.17g' rounds a true half
    rng = np.random.default_rng(7)
    ties = []
    for j in range(2, 26):
        lo, hi = 10**17 // 5**j, min(10**18 // 5**j, 2**53)
        for m in rng.integers(lo, hi, 64).tolist():
            value = (m | 1) / 2**j
            digits = decimal.Decimal(value).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties += [value, -value]
    assert len(ties) > 1000
    _assert_cells_match_float_fmt(ties)


def _tables(ts, inversion, entropy, photon, etas, phase, xs, ys, q):
    """name -> (_write_csv args with unformatted row keys, kwargs, np.savetxt
    columns, np.savetxt fmts) of each output schema, laid out as `run`
    writes it."""
    ns = np.arange(photon.shape[1])
    return {
        "inversion": (("lambda_t,W", ts, inversion), {}, [ts, inversion], [_F] * 2),
        "entropy": (
            ("lambda_t,S_f,lambda_plus,lambda_minus", ts, entropy), {},
            [ts, *entropy.T], [_F] * 4,
        ),
        "photon_dist": (
            ("lambda_t,n,P", ts, photon, ns), {},
            [np.repeat(ts, ns.size), np.tile(ns, ts.size), photon.ravel()], [_F, "%d", _F],
        ),
        "phase_dist": (
            ("lambda_t,eta,P", ts, phase, etas), {},
            [np.repeat(ts, etas.size), np.tile(etas, ts.size), phase.ravel()], [_F] * 3,
        ),
        "qfunc": (
            ("x,y,Q", ys, q, xs), {"cols_first": True},
            [np.tile(xs, ys.size), np.repeat(ys, xs.size), q.ravel()], [_F] * 3,
        ),
    }


def _assert_writer_matches_savetxt(tmp_path, tables):
    for name, (args, kwargs, columns, fmts) in tables.items():
        header, rows, *rest = args
        written = runner._write_csv(tmp_path / f"{name}.csv", header, rows, *rest, **kwargs)
        reference = tmp_path / f"{name}.savetxt.csv"
        with open(reference, "w", newline="\n") as handle:
            handle.write(args[0] + "\n")
            np.savetxt(handle, np.column_stack(columns), fmt=fmts, delimiter=",", newline="\n")
        assert written.read_bytes() == reference.read_bytes(), name


@pytest.mark.parametrize("block_entries", [7, runner.BLOCK_ENTRIES])
def test_writer_matches_savetxt_on_a_detuned_run(
    tmp_path, monkeypatch, small_q_window, block_entries
):
    data = compute(_CFG)
    assert data.inversion.min() < 0.0
    # with 7 entries, the 250-row tables span 36 blocks, the last one partial
    monkeypatch.setattr(runner, "BLOCK_ENTRIES", block_entries)
    # every 8th of the 512 angles keeps the 7-entry blocks few
    grid = data.qgrid
    tables = _tables(
        data.ts, data.inversion, data.entropy, data.photon, data.etas[::8], data.phase[:, ::8],
        grid.x_axis, grid.y_axis, grid.values,
    )
    _assert_writer_matches_savetxt(tmp_path, tables)


@pytest.mark.parametrize("t_points", [1, 5])
def test_writer_matches_savetxt_on_edge_values(tmp_path, t_points):
    # signed zero, a tiny normal, a subnormal and values needing all 17 digits
    edge = np.array(
        [-0.0, 1e-300, 5e-324, 0.1 + 0.2, 1.0 / 3.0, np.nextafter(1.0, 2.0), -2.0 / 3.0, 1e300]
    )

    def cells(*shape):
        return np.resize(edge, shape)

    tables = _tables(
        cells(t_points), cells(t_points), cells(t_points, 3), cells(t_points, 4),
        ETAS[::171], cells(t_points, 3),
        cells(3), cells(2), cells(2, 3),
    )
    _assert_writer_matches_savetxt(tmp_path, tables)


def test_writing_holds_no_more_than_a_block_beyond_compute(tmp_path):
    # 2**18 inversion rows: formatting every time key up front held 11.7 MB
    # more than `compute` at its peak; a block of keys and cells is ~1 MB
    cfg = RunConfig(
        state=SdfsParams(alpha0=1.0), t_points=2**18, output_dir=str(tmp_path),
        observables=("inversion",),
    )
    peaks = []
    for step in (compute, runner.run):
        tracemalloc.start()
        try:
            step(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2**20, peaks


def test_run_formats_at_most_a_block_of_values_per_call(tmp_path, monkeypatch, small_q_window):
    # the scratch of `_format_cells` grows with its input, so a call never
    # gets more than one block of lines (and their keys) to format
    sizes = []
    format_cells = runner._format_cells

    def recording(values):
        sizes.append(np.size(values))
        return format_cells(values)

    monkeypatch.setattr(runner, "_format_cells", recording)
    monkeypatch.setattr(runner, "BLOCK_ENTRIES", 100)
    # 120 times fill a block of time keys; the 512 angles span several
    cfg = dataclasses.replace(_CFG, t_points=120, output_dir=str(tmp_path))
    result = runner.run(cfg)
    assert result.ok and max(sizes) == 100
    assert sum(sizes) > 20 * 100
