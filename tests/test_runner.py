import cmath
import dataclasses
import decimal
import io
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sdfs_jcm import runner, sdfs
from sdfs_jcm.config import OBSERVABLE_NAMES, RunConfig
from sdfs_jcm.dynamics import evolve, populations
from sdfs_jcm.fock import DIM_CAP, NORM_TOL, FockVector
from sdfs_jcm.observables import (
    ETA_POINTS,
    ETAS,
    atomic_inversion,
    entropy_rows,
    gram,
    phase_distribution,
    phase_kernel,
    q_function_grid,
)
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
    return {field.name: getattr(data, field.name) for field in dataclasses.fields(data)}


def test_compute_fills_every_selected_observable(small_q_window):
    data = compute(_CFG)
    dim = data.n_max + 1
    rows = runner.BLOCK_ENTRIES // dim
    assert _CFG.t_points > rows and _CFG.t_points % rows
    assert data.inversion.shape == data.cc.shape == data.cs.shape == (_CFG.t_points,)
    assert data.entropy.shape == (_CFG.t_points, 3)
    assert data.photon_dist.shape == (_CFG.t_points, dim + 1)
    assert data.phase_dist.shape == (_CFG.t_points, ETA_POINTS)
    assert data.qfunc.shape == (31, 31)
    assert data.q_axis[0] == -8.0  # the paper's window holds this Q
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


def _rotation_draws(count: int):
    """Seeded accepted states with complex alpha0, phi in [0, 2 pi), r <= 1.2, half
    of them at m in [10, 40], each with a detuning in [-3, 3] and a step k of ETAS;
    a draw is kept when the state and its rotations by 2 pi k / 512 and by pi / 2 are
    all accepted (the closed form's precision fence is not rotation-invariant)."""
    rng, draws = random.Random(20260), []
    while len(draws) < count:
        m = rng.randrange(10, 41) if len(draws) % 2 else rng.randrange(0, 6)
        p = SdfsParams(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.0, 1.2),
                       rng.uniform(0.0, 2 * math.pi), m)
        k, detuning = rng.randrange(1, ETA_POINTS), rng.uniform(-3.0, 3.0)
        theta = 2 * math.pi * k / ETA_POINTS
        # R(theta) = e^{i theta a+a} maps |alpha0, z, m> to alpha0 e^{i theta}, phi + 2 theta
        turned = [SdfsParams(p.alpha0 * cmath.exp(1j * theta), p.r, p.phi + 2 * theta, p.m),
                  SdfsParams(p.alpha0 * 1j, p.r, p.phi + math.pi, p.m)]
        try:
            for state in (p, *turned):
                sdfs_state(state)
        except ValueError:
            continue
        draws.append((p, *turned, k, detuning))
    return draws


def test_compute_is_covariant_under_rotations_of_the_field(small_q_window):
    # e^{i theta N} commutes with the Hamiltonian at any detuning, so the rotated state
    # gives the same P(n, t) and entropy, phase rows shifted by theta and Q turned by it.
    # Each truncation drops < TAIL_TOL of the mass, and its n_max moves with rounding,
    # so the evolved states differ by up to `moved` in norm: the phase density, whose
    # bras have norm sqrt(dim + 1), moves by up to (dim + 1) moved / pi, and Q by 2 moved / pi
    moved = 2 * math.sqrt(sdfs.TAIL_TOL)
    for p, by_k, by_quarter, k, detuning in _rotation_draws(24):
        times = dict(detuning_ratio=detuning, t_max_scaled=20.0, t_points=8, q_time_scaled=7.0)
        data = compute(RunConfig(p, observables=OBSERVABLE_NAMES, **times))
        turned = compute(RunConfig(by_k, observables=("photon_dist", "entropy", "phase_dist"),
                                   **times))
        quarter = compute(RunConfig(by_quarter, observables=("qfunc",), **times))
        width = max(data.photon_dist.shape[1], turned.photon_dist.shape[1])
        photons = [np.pad(d.photon_dist, ((0, 0), (0, width - d.photon_dist.shape[1])))
                   for d in (data, turned)]
        # P_theta(eta) = P(eta - theta), and Q_theta(x + iy) = Q(y - ix) at theta = pi / 2
        deviations = {
            "photon_dist": (np.max(np.abs(photons[1] - photons[0])), NORM_TOL),
            "entropy": (np.max(np.abs(turned.entropy - data.entropy)), NORM_TOL),
            "phase_dist": (np.max(np.abs(turned.phase_dist - np.roll(data.phase_dist, k, axis=1))),
                           width * moved / math.pi),
            "qfunc": (np.max(np.abs(quarter.qfunc - np.rot90(data.qfunc, -1))),
                      2 * moved / math.pi),
        }
        assert all(dev <= bound for dev, bound in deviations.values()), (p, k, deviations)
        assert np.allclose(quarter.q_axis, data.q_axis, rtol=0.0, atol=1e-13)  # rounding of h


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
    axis, (grid,), conservation, (integral,), tail = q_grids(
        cfg.state, sdfs_state(cfg.state), [cfg.q_time_scaled], cfg.detuning_ratio
    )
    libs = len(two_blas_threads)
    assert seen == [[1] * libs] and _blas_counts() == [2] * libs
    assert conservation.shape == (1,)
    monkeypatch.setattr(runner, "q_grids", recorded)
    data = compute(cfg)
    assert len(calls) == 1 and list(calls[0][2]) == [cfg.q_time_scaled]
    assert np.array_equal(data.q_axis, axis)
    assert np.array_equal(data.qfunc.view(np.int64), grid.view(np.int64))
    # the Riemann sum over the window, formed in q_grids alone
    assert integral == float(np.sum(grid)) * np.square(axis[1] - axis[0])
    assert data.residuals["q_integral_residual"] == abs(integral - 1.0)
    assert data.residuals["q_tail_mass"] == tail <= runner.Q_TAIL


@pytest.mark.parametrize(
    "state, detuning, q_time",
    [
        (SdfsParams(4.72 - 0.64j, r=1.32, phi=1.565), 0.0, 3.9),
        (SdfsParams(-3.97 + 3.54j, r=0.95, phi=1.55, m=1), 0.0, 12.0),
        (SdfsParams(4.72 - 0.64j, r=1.32, phi=1.565), -2.0, 10.0),
    ],
)
def test_a_q_window_holds_all_but_q_tail_of_the_mass(tmp_path, state, detuning, q_time):
    # Q_SIGMAS marginal deviations of the initial Q left 1.2e-3, 1.1e-2 and 2.1e-3
    # outside the window: the squeezed ellipse lies on the diagonal, and Q spreads
    cfg = RunConfig(state, detuning, q_time_scaled=q_time, observables=("qfunc",),
                    output_dir=str(tmp_path))
    result = runner.run(cfg)
    assert result.summary["status"] == "ok"
    assert result.summary["q_tail_mass"] <= runner.Q_TAIL
    assert result.summary["q_integral_residual"] < 1e-4


def test_the_q_tail_is_the_photon_distribution_against_the_poisson_cdf():
    stats = pytest.importorskip("scipy.stats")
    cfg = figure_preset("fig5b")
    q = sdfs_state(cfg.state)
    c, s = evolve(q, [0.0, cfg.q_time_scaled], cfg.detuning_ratio)
    pc, ps = populations(c, s)
    for h in (4.0, 8.0, 11.25):
        cdf = stats.poisson.cdf(np.arange(q.dim + 1), h * h)
        assert runner._q_tail(pc, ps, h) == pytest.approx(np.max((pc + ps) @ cdf), rel=1e-12)
    # the fig5 window stays the paper's [-8, 8]^2
    axis, _, _, _, tail = runner.q_grids(cfg.state, q, [cfg.q_time_scaled], cfg.detuning_ratio)
    assert axis[-1] == 8.0 and runner.Q_TAIL / 10 < tail <= runner.Q_TAIL


def test_q_grids_refuses_a_time_whose_phases_lose_precision():
    p = SdfsParams(alpha0=1.0)
    with pytest.raises(ValueError, match=r"^t = 1e\+12 loses phase precision"):
        runner.q_grids(p, sdfs_state(p), [1e12], 0.0)


@pytest.mark.parametrize("dim", [2, 42, 512])
def test_compute_refuses_where_the_phase_budget_is_exceeded(dim, monkeypatch):
    # refused exactly where eps * t * nu_max exceeds 1e-10 or is nan, nu_max
    # formed as below, at the time each selected output reads
    monkeypatch.setattr(runner, "sdfs_state", lambda p: FockVector(np.eye(dim)[0]))
    # the Q grid is not under test, and at dim 512 it takes most of a second
    monkeypatch.setattr(runner, "q_function_grid", lambda c, s, axis: np.zeros((1, 1, 1)))
    outcomes = set()
    for detuning in (0.0, 3.0, -3.0, 1e100, 1e200):
        nu_max = math.sqrt(0.25 * (detuning * detuning) + dim)
        edge = 1e-10 / (math.ulp(1.0) * nu_max)  # 0 where nu_max = inf
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)
        for t in (0.0, edge * (1.0 - 1e-9), below, edge, above, edge * (1.0 + 1e-9)):
            refused = not math.ulp(1.0) * t * nu_max <= 1e-10
            outcomes.add(refused)
            for observables, key in (("inversion", "t_max_scaled"), ("qfunc", "q_time_scaled")):
                if key == "t_max_scaled" and t == 0.0:
                    continue  # a config error
                cfg = RunConfig(detuning_ratio=detuning, t_points=2, observables=(observables,),
                                **{key: t})
                if refused:
                    message = f"loses phase precision .* at n_max = {dim - 1}$"
                    with pytest.raises(ValueError, match=message):
                        compute(cfg)
                else:
                    assert compute(cfg).n_max == dim - 1
    assert outcomes == {False, True}


@pytest.mark.parametrize("preset", ["fig4a", "fig5b"])
def test_compute_matches_its_kernels_outside_the_one_thread_scope(two_blas_threads, preset):
    cfg = figure_preset(preset)
    data = compute(cfg)
    q = sdfs_state(cfg.state)
    if preset == "fig4a":
        c, s = evolve(q, data.ts, cfg.detuning_ratio)
        got, expected = data.phase_dist, phase_distribution(c, s, phase_kernel(q.dim + 1))
    else:
        c, s = evolve(q, [cfg.q_time_scaled], cfg.detuning_ratio)
        got = data.qfunc
        expected = q_function_grid(c[0], s[0], data.q_axis)
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


def _write(path, header, rows, values, cols=None, cols_first=False):
    """The file `run` writes in one call of its writer: the header, then the
    `_write_lines` of values on the open handle, column keys formatted once."""
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        keys = None if cols is None else runner._keys(cols)
        runner._write_lines(handle, rows, values, keys, cols_first)
    return path


def _tables(ts, inversion, entropy, photon, etas, phase, xs, ys, q):
    """name -> (_write args with unformatted row keys, kwargs, np.savetxt
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
        written = _write(tmp_path / f"{name}.csv", header, rows, *rest, **kwargs)
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
    tables = _tables(
        data.ts, data.inversion, data.entropy, data.photon_dist, ETAS[::8], data.phase_dist[:, ::8],
        data.q_axis, data.q_axis, data.qfunc,
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


def test_worst_is_the_largest_value_and_nan_if_any_is_nan():
    assert runner.worst([0.5, np.array([0.25, 2.0]), np.float64(1.0)]) == 2.0
    for values in ([1.0, math.nan], [math.nan, 1.0], [np.array([3.0, np.nan]), 4.0]):
        assert math.isnan(runner.worst(values))  # max() keeps 1.0 for the first


def test_a_nan_q_conservation_residual_fails_the_run(monkeypatch, tmp_path, small_q_window):
    # merged with max(), the NaN conservation residual of the Q call was dropped
    q_grids = runner.q_grids

    def nan_conservation(*args):
        axis, grids, conservation, integrals, tail = q_grids(*args)
        return axis, grids, np.full_like(conservation, np.nan), integrals, tail

    monkeypatch.setattr(runner, "q_grids", nan_conservation)
    for observables in (("inversion", "qfunc"), ("qfunc",)):
        cfg = dataclasses.replace(_CFG, output_dir=str(tmp_path), observables=observables)
        result = runner.run(cfg)
        assert not result.ok
        assert result.summary["status"] == "invariant-failure: conservation_residual"
        assert math.isnan(result.summary["conservation_residual"])


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("exists", [False, True])
def test_a_failed_summary_write_leaves_no_summary_and_no_made_directory(
    tmp_path, monkeypatch, exists
):
    out_dir = tmp_path / "new" / "run"
    if exists:
        out_dir.mkdir(parents=True)
        (out_dir / "kept.txt").write_text("not the run's\n")

    def summary_on_a_full_disk(path, *args, **kwargs):
        handle = open(path, *args, **kwargs)
        if Path(path).name != "run_summary.txt":
            return handle
        handle.close()  # made on disk, but no write to it succeeds
        return _FullDisk()

    monkeypatch.setattr(runner, "open", summary_on_a_full_disk, raising=False)
    cfg = RunConfig(SdfsParams(alpha0=1.0), t_points=4, output_dir=str(out_dir))
    with pytest.raises(OSError, match="No space left on device"):
        runner.run(cfg)
    if exists:
        assert [path.name for path in out_dir.iterdir()] == ["kept.txt"]
    else:
        assert list(tmp_path.iterdir()) == []


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


def test_a_qfunc_run_builds_no_time_axis():
    # qfunc reads only q_time_scaled; 2**24 times of the axis would be 128 MiB
    cfg = RunConfig(
        state=SdfsParams(alpha0=3.0, r=1.0, m=1), t_points=2**24, q_time_scaled=1.0,
        observables=("qfunc",),
    )
    tracemalloc.start()
    try:
        data = compute(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.ts is None and data.qfunc.shape == (runner.Q_POINTS, runner.Q_POINTS)
    assert peak < 32 * 2**20, peak


def test_run_holds_one_block_of_the_wide_series_whatever_t_points(tmp_path):
    # gathered, 768 more times of P(n, t) and of the phase density hold 3.4 MB more
    peaks = []
    for t_points in (2, 256, 1024):  # the first builds the formatter's tables
        cfg = RunConfig(
            state=SdfsParams(alpha0=3.0), t_points=t_points, output_dir=str(tmp_path),
            observables=("photon_dist", "phase_dist"),
        )
        tracemalloc.start()
        try:
            runner.run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 2**20, peaks


def test_run_holds_one_chunk_of_the_narrow_series_whatever_t_points(tmp_path):
    # gathered whole, 9 * BLOCK_ENTRIES more times of inversion, entropy and the
    # Gram entries held 8.2 MB more; ts itself, still whole, holds 0.28 MB more
    peaks = []
    for t_points in (2, 3 * runner.BLOCK_ENTRIES, 12 * runner.BLOCK_ENTRIES):
        cfg = RunConfig(
            state=SdfsParams(alpha0=3.0), t_points=t_points, output_dir=str(tmp_path),
            observables=("inversion", "entropy"),
        )
        tracemalloc.start()
        try:
            runner.run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 2**20, peaks


def test_run_streams_the_bytes_of_the_gathered_series(tmp_path, small_q_window):
    cfg = dataclasses.replace(
        _CFG, output_dir=str(tmp_path), observables=tuple(reversed(OBSERVABLE_NAMES))
    )
    result = runner.run(cfg)
    assert [path.name for path in result.files] == [f"{n}.csv" for n in OBSERVABLE_NAMES]
    data = compute(_CFG)
    for name, values, cols in (
        ("photon_dist", data.photon_dist, np.arange(data.n_max + 2)),
        ("phase_dist", data.phase_dist, ETAS),
    ):
        header = (tmp_path / f"{name}.csv").read_bytes().split(b"\n")[0].decode()
        gathered = _write(tmp_path / "gathered.csv", header, data.ts, values, cols)
        assert (tmp_path / f"{name}.csv").read_bytes() == gathered.read_bytes(), name
    assert result.summary["phase_integral_residual"] == data.residuals["phase_integral_residual"]


def test_compute_hands_every_output_to_its_sink(small_q_window):
    pieces = {name: [] for name in ("photon_dist", "phase_dist", "inversion", "cc", "ss", "cs",
                                    "entropy", "qfunc")}
    streamed = compute(_CFG, lambda name, rows, block: pieces[name].append((rows, block)))
    gathered = compute(_CFG)
    assert all(getattr(streamed, name) is None for name in pieces)
    assert np.array_equal(streamed.q_axis, gathered.q_axis)
    assert np.array_equal(streamed.ts, gathered.ts)
    assert streamed.residuals == gathered.residuals
    blocks = -(-_CFG.t_points // (runner.BLOCK_ENTRIES // (gathered.n_max + 1)))
    assert blocks > 1
    for name, handed in pieces.items():
        if name == "qfunc":  # once, with its axis as rows
            ((axis, grid),) = handed
            assert np.array_equal(axis, gathered.q_axis) and np.array_equal(grid, gathered.qfunc)
            continue
        # the wide series per time block; the others in one chunk, as 250 <= BLOCK_ENTRIES
        assert len(handed) == (blocks if name in ("photon_dist", "phase_dist") else 1), name
        assert np.array_equal(np.concatenate([rows for rows, _ in handed]), gathered.ts)
        assert np.array_equal(np.concatenate([b for _, b in handed]), getattr(gathered, name))


def test_a_run_of_several_chunks_writes_the_bytes_of_the_whole_series(tmp_path):
    cfg = RunConfig(
        state=SdfsParams(alpha0=1.0 - 0.5j, r=0.3, phi=1.0), detuning_ratio=-1.2,
        t_points=2 * runner.BLOCK_ENTRIES + 123, output_dir=str(tmp_path),
        observables=("entropy", "inversion"),
    )
    chunks = []
    compute(cfg, lambda name, rows, block: chunks.append(rows.size) if name == "entropy" else None)
    # the fewest whole time blocks that hold BLOCK_ENTRIES times, the last chunk partial
    step, span = runner.BLOCK_ENTRIES // sdfs_state(cfg.state).dim, chunks[0]
    assert span % step == 0 and span - step < runner.BLOCK_ENTRIES <= span
    assert chunks == [min(span, cfg.t_points - lo) for lo in range(0, cfg.t_points, span)]
    assert len(chunks) > 1 and chunks[-1] < span
    assert runner.run(cfg).ok
    # inversion and entropy of one `evolve` of every time
    ts = np.linspace(0.0, cfg.t_max_scaled, cfg.t_points)
    c, s = evolve(sdfs_state(cfg.state), ts, cfg.detuning_ratio)
    pc, ps = populations(c, s)
    whole = {"inversion": atomic_inversion(pc, ps), "entropy": entropy_rows(*gram(c, s, pc, ps))}
    for name, values in whole.items():
        header = (tmp_path / f"{name}.csv").read_bytes().split(b"\n")[0].decode()
        written = _write(tmp_path / "whole.csv", header, ts, values)
        assert (tmp_path / f"{name}.csv").read_bytes() == written.read_bytes(), name


def test_an_entropy_refusal_names_the_row_of_the_run(monkeypatch):
    # the entropy of each chunk is formed apart; the refusal counts rows from 0 all the same
    cfg = RunConfig(SdfsParams(alpha0=1.0), t_points=2 * runner.BLOCK_ENTRIES + 123,
                    observables=("entropy",))
    bad, seen, gram_entries = 2 * runner.BLOCK_ENTRIES + 99, [0], runner.gram

    def gram_with_a_bad_overlap(c, s, pc, ps):
        cc, ss, cs = gram_entries(c, s, pc, ps)
        if 0 <= bad - seen[0] < len(cc):
            cs[bad - seen[0]] = 1.0  # |<C|S>|^2 > <C|C><S|S>
        seen[0] += len(cc)
        return cc, ss, cs

    monkeypatch.setattr(runner, "gram", gram_with_a_bad_overlap)
    with pytest.raises(ValueError, match=f"^row {bad}: eigenvalues "):
        compute(cfg)


def test_run_formats_at_most_a_block_of_values_per_call(tmp_path, monkeypatch, small_q_window):
    # the scratch of `_format_cells` grows with its input, so a call never
    # gets more than one block of lines to format, nor a set of keys larger
    sizes = []
    format_cells = runner._format_cells

    def recording(values):
        sizes.append(np.size(values))
        return format_cells(values)

    monkeypatch.setattr(runner, "_format_cells", recording)
    # the 250 times of 512 angles span 32 blocks of lines
    result = runner.run(dataclasses.replace(_CFG, output_dir=str(tmp_path)))
    assert result.ok and max(sizes) == runner.BLOCK_ENTRIES
    assert sum(sizes) > 20 * runner.BLOCK_ENTRIES
