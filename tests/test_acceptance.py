"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import dataclasses
import inspect
import time

import pytest

from sdfs_jcm.presets import PRESET_NAMES, figure_preset
from sdfs_jcm.runner import run
from sdfs_jcm.selfcheck import (
    check_amplitude_oracle,
    check_conservation,
    check_entropy_minima,
    check_entropy_suite,
    check_overlap_oracle,
    check_phase_distribution,
    check_q_structure,
    check_revival_structure,
    check_trivial_limits,
    figure_runs,
    random_overlap_pairs,
)

@pytest.fixture(scope="module")
def runs():
    return figure_runs()


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"criterion {num:02d} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_amplitude_oracle_grid():
    started = time.perf_counter()
    passed, detail = check_amplitude_oracle()
    elapsed = time.perf_counter() - started
    _report(
        1,
        "closed-form amplitudes vs operator construction",
        passed and elapsed <= 30.0,
        f"{detail}; runtime {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_overlap_oracle_pairs():
    _report(2, "overlaps vs oracle inner products", *check_overlap_oracle())


def test_criterion_03_probability_conservation(runs):
    _report(3, "probability conservation on fig1 sweeps", *check_conservation(runs))


def test_criterion_04_entropy_bounds_and_eigensolve(runs):
    _report(4, "entropy bounds, purity and eigensolve", *check_entropy_suite(runs))


def test_criterion_05_revival_structure(runs):
    _report(5, "collapse-revival timing", *check_revival_structure(runs))


def test_criterion_06_entropy_minima(runs):
    _report(6, "entropy minima near T_R/2 and T_R", *check_entropy_minima(runs))


def test_criterion_07_phase_distribution():
    _report(7, "single-peak phase structure and unit mass", *check_phase_distribution())


def test_criterion_08_q_structure():
    _report(8, "Husimi Q peak structure and unit mass", *check_q_structure())


def test_criterion_09_trivial_limits():
    _report(9, "vacuum Rabi cosine and Poisson statistics", *check_trivial_limits())


def test_criterion_10_full_preset_suite(tmp_path):
    started = time.perf_counter()
    worst_n_max = 0
    for name in PRESET_NAMES:
        result = run(dataclasses.replace(figure_preset(name), output_dir=str(tmp_path / name)))
        assert result.ok, f"{name}: {result.summary['status']}"
        worst_n_max = max(worst_n_max, result.summary["n_max"])
    elapsed = time.perf_counter() - started
    # The 1e-12 photon tail of the heaviest preset state (alpha0 = 3,
    # r = 1, m = 2) needs n_max = 130; 128 is the nominal desk-scale
    # figure the budget was stated for.
    _report(
        10,
        "full preset suite runtime",
        elapsed <= 60.0 and worst_n_max <= 130,
        f"15 presets in {elapsed:.1f}s (budget 60s), largest n_max {worst_n_max}",
    )


def test_checks_have_no_settable_bounds():
    # every bound lives in selfcheck or runner.TOLERANCES, not in a caller
    for fn in (check_amplitude_oracle, check_overlap_oracle, check_phase_distribution,
               check_q_structure, check_trivial_limits, figure_runs, random_overlap_pairs):
        assert not inspect.signature(fn).parameters, fn.__name__
    # the checks of figures 1 and 2 take the runs of `figure_runs` alone, with no default
    for fn in (check_conservation, check_entropy_suite, check_revival_structure,
               check_entropy_minima):
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.default, p.annotation) for p in params] == [
            ("runs", inspect.Parameter.empty, "dict[str, RunData]")
        ], fn.__name__
