"""Tests of the benchmark's input generator and of its metric declarations."""

import json
import math
from pathlib import Path

import pytest

import run
import workloads

def _texts(seed: int, tmp_path: Path) -> list[str]:
    work = tmp_path / f"inputs-{seed}"
    items = workloads.make_items("sweep", seed, work, tmp_path / "out")
    return [Path(argv[1]).read_text() for _, argv in items]


def test_same_seed_gives_identical_configs(tmp_path):
    first = _texts(7, tmp_path / "a")
    second = _texts(7, tmp_path / "b")
    assert [t.replace(str(tmp_path / "a"), "") for t in first] == [
        t.replace(str(tmp_path / "b"), "") for t in second
    ]
    assert workloads.sweep_states(7) == workloads.sweep_states(7)


def test_different_seeds_give_different_configs():
    assert workloads.sweep_states(1) != workloads.sweep_states(2)


def test_states_lie_in_the_validated_domain():
    for seed in range(25):
        states = workloads.sweep_states(seed)
        assert len(states) == workloads.SWEEP_CONFIGS
        for s in states:
            assert math.hypot(s["alpha0_re"], s["alpha0_im"]) <= workloads.ALPHA_MAX
            assert s["r"] == 0.0 or workloads.R_MIN_NONZERO <= s["r"] <= workloads.R_MAX
            assert s["m"] in (0, 1, 2, 3)
            assert 0.0 <= s["phi"] < 2.0 * math.pi
            assert abs(s["detuning_ratio"]) <= workloads.DETUNING_MAX
        assert sum(s["r"] == 0.0 for s in states) == len(states) // 4
        # every seed Fock number appears equally often
        assert sorted(s["m"] for s in states) == sorted(list(range(4)) * (len(states) // 4))


def test_configs_parse_with_the_program(tmp_path):
    config = pytest.importorskip("sdfs_jcm.config")
    for text in _texts(3, tmp_path):
        cfg = config.parse_config(text)
        assert cfg.t_points == workloads.SWEEP_T_POINTS
        assert cfg.observables == ("inversion", "entropy")


def test_presets_cover_every_figure_once(tmp_path):
    names = [label for label, _ in workloads.make_items("presets", 5, tmp_path, tmp_path)]
    assert names == list(workloads.PRESET_NAMES)
    assert len(set(names)) == 15


def test_declared_metrics_match_the_reported_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["per_layer"]:
        assert metric["unit"] == run._unit(metric["name"])
