import dataclasses
import math

import numpy as np
import pytest

from sdfs_jcm import runner, sdfs
from sdfs_jcm.config import OBSERVABLE_NAMES, QGridSpec, RunConfig
from sdfs_jcm.fock import DIM_CAP
from sdfs_jcm.observables import default_etas
from sdfs_jcm.presets import figure_preset
from sdfs_jcm.runner import compute
from sdfs_jcm.sdfs import SdfsParams, mean_photon_number

# Detuned, with every observable selected; 250 time points are not a
# multiple of the default block rows, so the last block is partial.
_CFG = RunConfig(
    state=SdfsParams(alpha0=1.5 + 0.5j, r=0.4, phi=0.3, m=1),
    detuning_ratio=0.7,
    t_max_scaled=12.0,
    t_points=250,
    eta_points=64,
    q_grid=QGridSpec(x_min=-6.0, x_max=6.0, y_min=-6.0, y_max=6.0, nx=31, ny=31),
    q_time_scaled=4.0,
    observables=OBSERVABLE_NAMES,
)


def _arrays(data):
    out = {}
    for field in dataclasses.fields(data):
        value = getattr(data, field.name)
        if field.name == "qgrid":
            value = value.values
        out[field.name] = value
    return out


def test_compute_fills_every_selected_observable():
    data = compute(_CFG)
    dim = data.n_max + 1
    rows = runner.BLOCK_ENTRIES // dim
    assert _CFG.t_points > rows and _CFG.t_points % rows
    assert data.inversion.shape == data.cc.shape == data.cs.shape == (_CFG.t_points,)
    assert data.entropy.shape == (_CFG.t_points, 3)
    assert data.photon.shape == (_CFG.t_points, dim + 1)
    assert data.phase.shape == (_CFG.t_points, _CFG.eta_points)
    assert data.qgrid.values.shape == (31, 31)
    assert set(data.residuals) == set(runner.TOLERANCES)
    assert all(value <= runner.TOLERANCES[name] for name, value in data.residuals.items())


@pytest.mark.parametrize("block_entries", ["one-row", "one-block"])
def test_compute_is_independent_of_the_block_size(monkeypatch, block_entries):
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


# ---------------------------------------------------------------- CSV writer

_F = runner.FLOAT_FMT


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
        written = runner._write_csv(
            tmp_path / f"{name}.csv", header, runner._keys(rows), *rest, **kwargs
        )
        reference = tmp_path / f"{name}.savetxt.csv"
        with open(reference, "w", newline="\n") as handle:
            handle.write(args[0] + "\n")
            np.savetxt(handle, np.column_stack(columns), fmt=fmts, delimiter=",", newline="\n")
        assert written.read_bytes() == reference.read_bytes(), name


@pytest.mark.parametrize("block_entries", [7, runner.BLOCK_ENTRIES])
def test_writer_matches_savetxt_on_a_detuned_run(tmp_path, monkeypatch, block_entries):
    data = compute(_CFG)
    assert data.inversion.min() < 0.0
    # with 7 entries, the 250-row tables span 36 blocks, the last one partial
    monkeypatch.setattr(runner, "BLOCK_ENTRIES", block_entries)
    grid = data.qgrid
    tables = _tables(
        data.ts, data.inversion, data.entropy, data.photon, data.etas, data.phase,
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
        default_etas(3), cells(t_points, 3),
        cells(3), cells(2), cells(2, 3),
    )
    _assert_writer_matches_savetxt(tmp_path, tables)


def test_run_formats_the_time_keys_once(tmp_path, monkeypatch):
    formatted = []
    keys = runner._keys

    def counting_keys(values):
        formatted.append(values)
        return keys(values)

    monkeypatch.setattr(runner, "_keys", counting_keys)
    cfg = dataclasses.replace(_CFG, output_dir=str(tmp_path))
    result = runner.run(cfg)
    assert result.ok and len(result.files) == 5
    ts = np.linspace(0.0, _CFG.t_max_scaled, _CFG.t_points)
    assert sum(np.array_equal(values, ts) for values in formatted) == 1
