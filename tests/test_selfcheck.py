import numpy as np
import pytest
from scipy import ndimage

from sdfs_jcm import observables, selfcheck
from sdfs_jcm.config import parse_config
from sdfs_jcm.presets import figure_preset
from sdfs_jcm.runner import Q_POINTS, compute
from sdfs_jcm.selfcheck import (
    _count_components,
    _half_max_components,
    check_amplitude_oracle,
    check_overlap_oracle,
    check_q_structure,
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
    compute(figure_preset("fig4a"))
    for state in sweep_workloads.sweep_states(0)[:2]:
        compute(parse_config(sweep_workloads.sweep_config_text(state, tmp_path)))
    assert [check_amplitude_oracle().detail, check_overlap_oracle().detail] == before


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
    assert len(rows) == Q_POINTS  # 3 * Q_POINTS with a grid per snapshot
    monkeypatch.undo()
    assert len(axes) == 1 and len(grids) == 3
    for variant, grid in zip("abc", grids):
        expected = compute(figure_preset(f"fig5{variant}"))
        assert np.array_equal(axes[0], expected.q_axis)  # the x and the y axis
        assert np.array_equal(grid.view(np.int64), expected.qfunc.view(np.int64))
