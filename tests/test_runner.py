import dataclasses

import numpy as np
import pytest

from sdfs_jcm import runner
from sdfs_jcm.config import OBSERVABLE_NAMES, QGridSpec, RunConfig
from sdfs_jcm.runner import compute
from sdfs_jcm.sdfs import SdfsParams

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
