import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import ndimage

from sdfs_jcm import cli, observables, runner, selfcheck
from sdfs_jcm.config import parse_config
from sdfs_jcm.fock import FockVector
from sdfs_jcm.presets import REVIVAL_T, figure_preset
from sdfs_jcm.runner import Q_POINTS, compute
from sdfs_jcm.sdfs import SdfsParams, sdfs_state
from sdfs_jcm.selfcheck import (
    _count_components,
    _half_max_components,
    check_amplitude_oracle,
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
    before = [check_amplitude_oracle(), check_overlap_oracle()]
    suite = [(res.name, res.passed, res.detail) for res in run_all()]
    compute(figure_preset("fig4a"))
    for state in sweep_workloads.sweep_states(0)[:2]:
        compute(parse_config(sweep_workloads.sweep_config_text(state, tmp_path)))
    assert [check_amplitude_oracle(), check_overlap_oracle()] == before
    assert [(res.name, res.passed, res.detail) for res in run_all()] == suite


_LINES = [
    "amplitude-oracle-grid", "overlap-oracle-pairs", "conservation-fig1", "entropy-fig2",
    "revival-structure", "entropy-minima", "phase-distribution", "q-structure", "trivial-limits",
]


def test_run_all_returns_the_nine_checks_in_print_order():
    assert [res.name for res in run_all()] == _LINES


def _check_lines(capsys) -> list[tuple[str, str, str]]:
    """(status, line name, detail) of each line that `check` printed."""
    lines = capsys.readouterr().out.splitlines()
    return [(line[:4], *line[6:].split(": ", 1)) for line in lines]


def test_a_check_that_raises_fails_its_line_and_the_others_still_run(monkeypatch, capsys):
    # one grid state of the amplitude check, in no other check: a raise ended `check`
    # with exit 2 and no line printed
    build, target = selfcheck.sdfs_state, SdfsParams(alpha0=0.5, r=0.3, phi=math.pi / 2, m=2)

    def raise_for_target(p):
        if p == target:
            raise ValueError("injected")
        return build(p)

    monkeypatch.setattr(selfcheck, "sdfs_state", raise_for_target)
    assert cli.main(["check"]) == 1
    lines = _check_lines(capsys)
    assert [name for _, name, _ in lines] == _LINES
    assert lines[0] == ("FAIL", "amplitude-oracle-grid", "raised ValueError: injected")
    assert [status for status, _, _ in lines[1:]] == ["PASS"] * 8


def test_figure_runs_that_raise_fail_the_four_lines_that_read_them(monkeypatch, capsys):
    def raise_zero_division():
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(selfcheck, "figure_runs", raise_zero_division)
    assert cli.main(["check"]) == 1
    failed = [name for status, name, detail in _check_lines(capsys)
              if status == "FAIL" and detail == "raised ZeroDivisionError: injected"]
    assert failed == ["conservation-fig1", "entropy-fig2", "revival-structure", "entropy-minima"]


def test_run_all_computes_each_figure_variant_once(monkeypatch):
    configs = []

    def counted_compute(cfg, sink=None):
        configs.append(cfg)
        return compute(cfg, sink)

    monkeypatch.setattr(selfcheck, "compute", counted_compute)
    assert all(res.passed for res in run_all())
    # fig1x and fig2x share one run per variant x: 6 computes without that; the
    # fourth is the two-point fig4a run, whose row 0 is the phase density at t = 0
    # and whose residual is the phase integral
    assert [(cfg.state.m, cfg.observables, cfg.t_points) for cfg in configs] == [
        (0, ("inversion", "entropy"), 2000),
        (1, ("inversion", "entropy"), 2000),
        (2, ("inversion", "entropy"), 2000),
        (0, ("phase_dist",), 2),
    ]
    assert all(cfg.t_points <= 2 for cfg in configs if "phase_dist" in cfg.observables)


def test_a_scaled_phase_density_fails_its_run_and_check(tmp_path, capsys, monkeypatch):
    # the phase integral is the norm, so its bound is NORM_TOL: a scale error of
    # 3e-7 in the density fails it, which a bound of 1e-6 would let pass
    density = runner.phase_distribution
    monkeypatch.setattr(runner, "phase_distribution",
                        lambda *args: density(*args) * (1.0 + 3e-7))
    assert cli.main(["preset", "fig4a", "--out", str(tmp_path / "fig4a")]) == 1
    assert "status = invariant-failure: phase_integral_residual\n" in capsys.readouterr().out
    assert cli.main(["check"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == ["FAIL  phase-distribution"]


@pytest.mark.parametrize("edit", [
    # one lobe zeroed: the integral and the centroid fail too
    lambda grid, x, y: np.where(y > 0.0, 0.0, grid),
    # the one lobe of a coherent state at alpha0, unit mass and centred
    # there: only the count shows it
    lambda grid, x, y: np.exp(-np.square(x - 3.0) - np.square(y)) / math.pi,
], ids=["one-lobe-zeroed", "coherent-lobe"])
def test_an_initial_q_of_one_lobe_fails_the_q_check(monkeypatch, edit):
    grid_kernel = runner.q_function_grid

    def edited(c, s, axis):  # fig5a's grid replaced by edit(grid, x, y)
        grids = grid_kernel(c, s, axis)
        grids[0] = edit(grids[0], axis[None, :], axis[:, None])
        return grids

    monkeypatch.setattr(runner, "q_function_grid", edited)
    passed, detail = check_q_structure()
    assert not passed
    assert "components [1, 4, 1]" in detail
    assert "fig5a: 1 component(s) (expected 2)" in detail


def test_q_structure_builds_each_bra_row_once_for_the_three_fig5_grids(monkeypatch):
    rows, axes, grids, integrals = [], [], [], []
    bras, q_grids = observables._coherent_bras, selfcheck.q_grids

    def counted_bras(alphas, dim, out):
        rows.append(dim)
        return bras(alphas, dim, out)

    def recorded_grids(*args):
        result = q_grids(*args)
        axes.append(result[0])
        grids.extend(result[1])
        integrals.extend(result[3])
        return result

    monkeypatch.setattr(observables, "_coherent_bras", counted_bras)
    monkeypatch.setattr(selfcheck, "q_grids", recorded_grids)
    passed, detail = check_q_structure()
    assert passed and detail.endswith(", components [2, 4, 1]")
    # 3 * Q_POINTS with a grid per snapshot; on the window [-8, 8] 57 rows hold
    # the exact negation of y at their mirror position and lend it their bras
    assert len(rows) == Q_POINTS - 57 == 144
    monkeypatch.undo()
    assert len(axes) == 1 and len(grids) == 3
    assert detail.startswith(f"integrals {['%.6f' % v for v in integrals]}, ")
    for variant, grid, integral in zip("abc", grids, integrals):
        expected = compute(figure_preset(f"fig5{variant}"))
        assert np.array_equal(axes[0], expected.q_axis)  # the x and the y axis
        assert np.array_equal(grid.view(np.int64), expected.qfunc.view(np.int64))
        assert abs(integral - 1.0) == expected.residuals["q_integral_residual"]


def test_the_overlap_pairs_are_the_seed_42_stdlib_draws_in_the_stated_domain():
    pairs = selfcheck.random_overlap_pairs()
    states = [p for pair in pairs for p in pair]
    # a change in CPython's random() sequence shows here
    assert states[0] == SdfsParams(
        alpha0=0.8365607907473027 - 2.8499354686639986j,
        r=0.3300351820429431,
        phi=1.402474430341393,
        m=2,
    )
    assert len(states) == 40
    for p in states:
        assert abs(p.alpha0) <= 3 and 0 <= p.r < 1.2 and 0 <= p.phi < 2 * math.pi
        assert p.m in range(4)
        sdfs_state(p)  # raises on a refused state
    assert selfcheck.random_overlap_pairs() == pairs


def test_the_overlap_line_holds_each_pair_state_to_its_oracle_vector(monkeypatch):
    # the pair states enter the line only here: the overlaps are closed forms
    _, before = check_overlap_oracle()
    first = selfcheck.random_overlap_pairs()[0][0]
    build = selfcheck.sdfs_state

    def off_by_1e_6(p):  # one amplitude of the first pair state
        q = build(p)
        return FockVector(q.amps + 1e-6 * (np.arange(q.dim) == 2)) if p == first else q

    monkeypatch.setattr(selfcheck, "sdfs_state", off_by_1e_6)
    passed, detail = check_overlap_oracle()
    assert not passed
    unchanged, amplitude = detail.rsplit(", ", 1)
    assert before.startswith(unchanged + ", ")
    assert amplitude.startswith("worst amplitude dev 1.000e-06 (tol 1e-08)")


def _entropy_windows():
    """The fig2 entropy over the baseline window of `check_entropy_minima`."""
    for variant in "abc":
        data = compute(figure_preset(f"fig2{variant}"))
        yield data.entropy[(data.ts >= 0.2 * REVIVAL_T) & (data.ts <= 0.8 * REVIVAL_T), 0]


def test_the_entropy_baseline_is_np_median_bit_for_bit():
    rng = np.random.default_rng(8)
    windows = [*_entropy_windows(), *(rng.normal(size=n) for n in (1, 2, 7, 8, 999, 1000))]
    windows.append(rng.integers(0, 4, size=12).astype(float))  # ties
    assert min(map(len, windows[:3])) == 971
    for values in windows:
        got, expected = selfcheck._median(values), np.median(values)
        assert type(got) is type(expected) and got.tobytes() == expected.tobytes()
        for i in {0, len(values) // 2, len(values) - 1}:
            with_nan = values.copy()
            with_nan[i] = np.nan
            assert np.isnan(selfcheck._median(with_nan)) and np.isnan(np.median(with_nan))


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


def _nan_oracle_amplitude_of_a_pair_state(monkeypatch):
    build = selfcheck.build_sdfs_oracle

    def built(states, dims):  # one amplitude of the 7th pair state
        oracles = build(states, dims)
        if len(states) == 2 * len(selfcheck.random_overlap_pairs()):
            amps = oracles[6].amps.copy()
            amps[3] = np.nan
            oracles[6] = FockVector(amps)
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
        figure_runs = selfcheck.figure_runs

        def runs():
            data = figure_runs()
            b = data["b"]
            data["b"] = dataclasses.replace(b, residuals={**b.residuals, key: math.nan})
            return data

        monkeypatch.setattr(selfcheck, "figure_runs", runs)

    return inject


def _nan_in_the_entropy_baseline_window(monkeypatch):
    median = selfcheck._median

    def median_with_a_nan(values):
        values = values.copy()
        values[values.size // 3] = np.nan
        return median(values)

    monkeypatch.setattr(selfcheck, "_median", median_with_a_nan)


def _nan_q_cell_of_fig5c(monkeypatch):
    grid_kernel = runner.q_function_grid

    def grids_with_a_nan(*args):  # made in q_grids, so its integral holds the NaN too
        grids = grid_kernel(*args)
        grids[2, 100, 120] = np.nan
        return grids

    monkeypatch.setattr(runner, "q_function_grid", grids_with_a_nan)


def _nan_q_conservation_residual(monkeypatch):
    q_grids = selfcheck.q_grids

    def nan_conservation(*args):
        axis, grids, conservation, integrals, tail = q_grids(*args)
        conservation[1] = np.nan
        return axis, grids, conservation, integrals, tail

    monkeypatch.setattr(selfcheck, "q_grids", nan_conservation)


# test id -> the check line that the injected NaN must fail
_NAN_INJECTIONS = {
    "amplitude-oracle-grid": ("amplitude-oracle-grid", _nan_oracle_amplitude),
    "overlap-oracle-pairs": ("overlap-oracle-pairs", _nan_third_overlap),
    "overlap-pair-state": ("overlap-oracle-pairs", _nan_oracle_amplitude_of_a_pair_state),
    "conservation-fig1": ("conservation-fig1", _nan_residual_of_variant_b("conservation_residual")),
    "entropy-fig2": ("entropy-fig2", _nan_residual_of_variant_b("eigenvalue_sum_residual")),
    "entropy-minima": ("entropy-minima", _nan_in_the_entropy_baseline_window),
    "q-structure": ("q-structure", _nan_q_cell_of_fig5c),
    "q-conservation": ("q-structure", _nan_q_conservation_residual),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # as CI runs `check`
@pytest.mark.parametrize("injection", list(_NAN_INJECTIONS))
def test_a_nan_deviation_fails_its_check_line(monkeypatch, capsys, injection):
    # Python's max keeps whichever of a NaN and a number comes first, so each
    # of these NaNs used to be dropped and its line printed PASS
    line, inject = _NAN_INJECTIONS[injection]
    inject(monkeypatch)
    assert cli.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [text for text in lines if text.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL  {line}: "), lines
    assert "nan" in failed[0]
