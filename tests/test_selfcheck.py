import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from sdfs_jcm import cli, observables, selfcheck
from sdfs_jcm.config import parse_config
from sdfs_jcm.fock import FockVector
from sdfs_jcm.presets import figure_preset
from sdfs_jcm.runner import Q_POINTS, compute
from sdfs_jcm.selfcheck import (
    _count_components,
    _half_max_components,
    check_amplitude_oracle,
    check_entropy_suite,
    check_overlap_oracle,
    check_q_structure,
    run_all,
)


def _scipy_count(mask):
    # the default 2-D structure of ndimage.label is the cross: edge neighbours only
    return ndimage.label(mask)[1]


@pytest.mark.parametrize("name", ["fig5a", "fig5b", "fig5c"])
def test_half_max_components_count_as_ndimage_label(name):
    data = compute(figure_preset(name))
    mask = data.qfunc >= 0.5 * float(np.max(data.qfunc))
    assert _half_max_components(data.qfunc, data.q_axis)[0] == _scipy_count(mask)


def test_component_count_matches_ndimage_label_on_random_masks():
    rng = np.random.default_rng(3)
    for _ in range(50):
        shape = tuple(rng.integers(1, 80, size=2))
        mask = rng.random(shape) < rng.uniform(0.05, 0.95)
        assert _count_components(mask) == _scipy_count(mask)


def test_component_count_edge_cases():
    empty = np.zeros((7, 9), dtype=bool)
    full = np.ones((7, 9), dtype=bool)
    border = empty.copy()
    border[0, :4] = border[-1, -3:] = border[2:5, 0] = border[3, -1] = True  # 4 regions
    corners = empty.copy()
    corners[2, 3] = corners[3, 4] = True  # diagonal neighbours only
    corner_blocks = empty.copy()
    corner_blocks[:3, :3] = corner_blocks[3:, 3:] = True
    for mask, count in ((empty, 0), (full, 1), (border, 4), (corners, 2), (corner_blocks, 2)):
        assert _count_components(mask) == count == _scipy_count(mask)


def test_oracle_checks_print_the_same_after_other_work(tmp_path, sweep_workloads):
    before = [check_amplitude_oracle().detail, check_overlap_oracle().detail]
    suite = [(res.name, res.passed, res.detail) for res in run_all()]
    assert selfcheck._figure_runs.get() is None  # no run outlives run_all
    compute(figure_preset("fig4a"))
    for state in sweep_workloads.sweep_states(0)[:2]:
        compute(parse_config(sweep_workloads.sweep_config_text(state, tmp_path)))
    assert [check_amplitude_oracle().detail, check_overlap_oracle().detail] == before
    assert [(res.name, res.passed, res.detail) for res in run_all()] == suite
    assert selfcheck._figure_runs.get() is None


def test_run_all_computes_each_figure_variant_once(monkeypatch):
    configs, held, runs = [], [], {}
    q_grids = selfcheck.q_grids

    def counted_compute(cfg, sink=None):
        configs.append(cfg)
        runs.update(selfcheck._figure_runs.get())
        return compute(cfg, sink)

    def recorded_grids(*args):
        held.append(dict(selfcheck._figure_runs.get()))
        return q_grids(*args)

    monkeypatch.setattr(selfcheck, "compute", counted_compute)
    monkeypatch.setattr(selfcheck, "q_grids", recorded_grids)
    assert all(res.passed for res in run_all())
    assert held == [{}]  # the figure runs are gone before the Q grids are built
    assert runs["a"].phase_dist is None  # the sink drops its phase rows
    assert "phase_integral_residual" in runs["a"].residuals
    # fig1x, fig2x and fig4x share one run per variant x: 9 computes without that;
    # the fourth is the two-point fig4a run whose row 0 is the phase density at t = 0
    t_points = figure_preset("fig4a").t_points
    assert [(cfg.state.m, cfg.observables, cfg.t_points) for cfg in configs] == [
        (0, ("inversion", "entropy", "phase_dist"), t_points),
        (1, ("inversion", "entropy"), t_points),
        (2, ("inversion", "entropy"), t_points),
        (0, ("phase_dist",), 2),
    ]


def test_a_run_reader_after_the_q_check_computes_its_run_afresh(monkeypatch):
    configs = []

    def counted_compute(cfg, sink=None):
        configs.append(cfg.state.m)
        return compute(cfg, sink)

    monkeypatch.setattr(selfcheck, "compute", counted_compute)
    checks = (check_entropy_suite, check_q_structure, selfcheck.check_conservation)
    monkeypatch.setattr(selfcheck, "ALL_CHECKS", checks)
    results = run_all()
    assert [res.name for res in results] == ["entropy-fig2", "q-structure", "conservation-fig1"]
    assert all(res.passed for res in results)
    # the runs of entropy-fig2 are dropped by q-structure, so conservation-fig1 computes its own
    assert configs == [0, 1, 2, 0, 1, 2]
    assert selfcheck._figure_runs.get() is None


def test_q_structure_builds_each_bra_row_once_for_the_three_fig5_grids(monkeypatch):
    rows, axes, grids = [], [], []
    bras, q_grids = observables._coherent_bras, selfcheck.q_grids

    def counted_bras(alphas, dim):
        rows.append(dim)
        return bras(alphas, dim)

    def recorded_grids(*args):
        result = q_grids(*args)
        axes.append(result[0])
        grids.extend(result[1])
        return result

    monkeypatch.setattr(observables, "_coherent_bras", counted_bras)
    monkeypatch.setattr(selfcheck, "q_grids", recorded_grids)
    assert check_q_structure().passed
    # 3 * Q_POINTS with a grid per snapshot; the 57 rows y > 0 of the
    # window [-8, 8] whose negation is on the axis reuse the bras of -y
    assert len(rows) == Q_POINTS - 57 == 144
    monkeypatch.undo()
    assert len(axes) == 1 and len(grids) == 3
    for variant, grid in zip("abc", grids):
        expected = compute(figure_preset(f"fig5{variant}"))
        assert np.array_equal(axes[0], expected.q_axis)  # the x and the y axis
        assert np.array_equal(grid.view(np.int64), expected.qfunc.view(np.int64))


def _nan_oracle_amplitude(monkeypatch):
    build = selfcheck.build_sdfs_oracle

    def built(states, dims):  # one amplitude of the 6th grid state
        oracles = build(states, dims)
        if len(states) == len(selfcheck.grid_params()):
            amps = oracles[5].amps.copy()
            amps[0] = np.nan
            oracles[5] = FockVector(amps)
        return oracles

    monkeypatch.setattr(selfcheck, "build_sdfs_oracle", built)


def _nan_third_overlap(monkeypatch):
    overlap, calls = selfcheck.sdfs_overlap, itertools.count()
    monkeypatch.setattr(
        selfcheck, "sdfs_overlap",
        lambda p1, p2: complex(math.nan, 0.0) if next(calls) == 2 else overlap(p1, p2),
    )


def _nan_residual_of_variant_b(key):
    def inject(monkeypatch):
        figure_run = selfcheck._figure_run

        def run(variant):
            data = figure_run(variant)
            if variant != "b":
                return data
            return dataclasses.replace(data, residuals={**data.residuals, key: math.nan})

        monkeypatch.setattr(selfcheck, "_figure_run", run)

    return inject


def _nan_q_cell_of_fig5c(monkeypatch):
    q_grids = selfcheck.q_grids

    def grids_with_a_nan(*args):
        axis, grids, conservation = q_grids(*args)
        grids[2, 100, 120] = np.nan
        return axis, grids, conservation

    monkeypatch.setattr(selfcheck, "q_grids", grids_with_a_nan)


_NAN_INJECTIONS = {
    "amplitude-oracle-grid": _nan_oracle_amplitude,
    "overlap-oracle-pairs": _nan_third_overlap,
    "conservation-fig1": _nan_residual_of_variant_b("conservation_residual"),
    "entropy-fig2": _nan_residual_of_variant_b("eigenvalue_sum_residual"),
    "q-structure": _nan_q_cell_of_fig5c,
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as CI runs `check`
@pytest.mark.parametrize("line", list(_NAN_INJECTIONS))
def test_a_nan_deviation_fails_its_check_line(monkeypatch, capsys, line):
    # Python's max keeps whichever of a NaN and a number comes first, so each
    # of these NaNs used to be dropped and its line printed PASS
    _NAN_INJECTIONS[line](monkeypatch)
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [text for text in lines if text.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  {line}: "), lines
    assert "nan" in failed[0]
