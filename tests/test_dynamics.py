import math

import numpy as np
import pytest

from jcm_reference import jcm_reference
from sdfs_jcm.config import parse_config
from sdfs_jcm.dynamics import conservation_residual, evolve, populations
from sdfs_jcm.fock import NORM_TOL, FockVector
from sdfs_jcm.presets import PRESET_NAMES, figure_preset
from sdfs_jcm.sdfs import SdfsParams, sdfs_state


def _vacuum():
    return FockVector(np.array([1.0, 0.0]))


def _state(p):
    return sdfs_state(p)


def _at(q, t, detuning=0.0):
    """C and S rows at the single scaled time t."""
    c, s = evolve(q, [t], detuning)
    return c[0], s[0]


def test_evolve_at_zero_time():
    q = _state(SdfsParams(alpha0=1.0, r=0.4, m=1))
    c, s = _at(q, 0.0)
    np.testing.assert_allclose(c[:-1], q.amps, atol=1e-15)
    np.testing.assert_allclose(s, 0, atol=1e-15)


def test_evolve_returns_time_by_photon_arrays():
    q = _state(SdfsParams(alpha0=2.0, r=0.5, m=1))
    ts = np.linspace(0.0, 9.0, 7)
    c, s = evolve(q, ts, 0.8)
    assert c.shape == s.shape == (ts.size, q.dim + 1)
    for i, t in enumerate(ts):
        c_i, s_i = _at(q, float(t), 0.8)
        assert np.array_equal(c[i], c_i)
        assert np.array_equal(s[i], s_i)


def test_evolve_rejects_non_vector_times():
    with pytest.raises(ValueError, match="1-D"):
        evolve(_vacuum(), np.zeros((2, 2)))


def test_vacuum_half_rabi_cycle():
    c, s = _at(_vacuum(), math.pi / 2)
    assert abs(c[0]) == pytest.approx(0.0, abs=1e-12)
    assert s[1] == pytest.approx(-1j, abs=1e-12)


def test_pointwise_conservation_identity():
    q = _state(SdfsParams(alpha0=3.0, r=1.0))
    ts = [0.3, 5.0, 12.7]
    for detuning in (0.0, 1.5):
        c, s = evolve(q, ts, detuning)
        per_n = np.abs(c[:, :-1]) ** 2 + np.abs(s[:, 1:]) ** 2
        for row in per_n:
            np.testing.assert_allclose(row, np.abs(q.amps) ** 2, atol=1e-12)
        residual = conservation_residual(*populations(c, s))
        assert np.all(residual <= 1e-10)
        assert np.array_equal(residual, np.abs(np.sum(per_n, axis=-1) - 1.0))


def test_unnormalized_input_rejected():
    bad = FockVector(np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="normalized"):
        evolve(bad, [1.0])


@pytest.mark.parametrize("deviation", [1e-9, -1e-9])
def test_evolve_refuses_a_norm_off_by_more_than_norm_tol(deviation):
    # sdfs_state hands out nothing off 1 by more than NORM_TOL = 1e-10
    q = FockVector(np.array([math.sqrt(1.0 + deviation), 0.0]))
    assert abs(q.norm_sq() - 1.0) > 10 * NORM_TOL
    with pytest.raises(ValueError, match="not normalized"):
        evolve(q, [1.0])
    edge = FockVector(np.array([math.sqrt(1.0 + 0.5 * NORM_TOL), 0.0]))
    assert evolve(edge, [1.0])[0].shape == (1, 3)


def test_evolve_refuses_a_time_whose_phases_lose_precision():
    # eps * t * nu_max = 9.2e-4 at t = 1e12, where A_5 is 1.7e-5 off against mpmath
    q = _state(SdfsParams(alpha0=1.0))
    for ts in ([1e12], [0.0, -1e12]):
        with pytest.raises(ValueError, match=r"^t = 1e\+12 loses phase precision at "
                           r"detuning_ratio = 0: .* exceeds 1e-10 at n_max = 16$"):
            evolve(q, ts)
    assert evolve(q, [1e5])[0].shape == (1, q.dim + 1)  # eps * t * nu_max = 9.2e-11


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_evolve_refuses_an_overflowing_detuning_as_a_value_error(t):
    # Delta^2 overflows to nu_max = inf, where Delta**2 raises OverflowError;
    # eps * 0 * inf is nan, and no finite loss clears it
    with pytest.raises(ValueError, match="^detuning_ratio is too large: even t = 1 loses"):
        evolve(_state(SdfsParams(alpha0=1.0)), [t], 1e200)


def test_field_density_at_zero_time():
    q = _state(SdfsParams(alpha0=1.5, r=0.3, m=1))
    c, s = _at(q, 0.0)
    np.testing.assert_allclose(c[:-1], q.amps, atol=1e-15)
    assert c[-1] == 0 and s[0] == 0
    np.testing.assert_allclose(s, 0, atol=1e-15)


def test_field_density_trace():
    q = _state(SdfsParams(alpha0=3.0, r=1.0, m=1))
    c, s = evolve(q, [0.0, 2.5, 9.0])
    assert c.shape == s.shape == (3, q.dim + 1)
    trace = np.sum(np.abs(c) ** 2 + np.abs(s) ** 2, axis=1)
    np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-10)


def test_vacuum_quarter_cycle_components():
    c, s = _at(_vacuum(), math.pi / 4)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(s) ** 2) == pytest.approx(0.5, abs=1e-12)
    # C is supported on |0>, S on |1>: orthogonal
    assert np.vdot(c, s) == pytest.approx(0.0, abs=1e-15)


def test_density_matrix_is_rank_two_and_psd():
    q = _state(SdfsParams(alpha0=1.2, r=0.5, m=1))
    rho = jcm_reference(q, 4.2, 2, 0.0)[2][-1]
    c, s = _at(q, 4.2)
    np.testing.assert_allclose(rho, np.outer(c, c.conj()) + np.outer(s, s.conj()), atol=1e-13)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -1e-10
    assert np.sum(eigs > 1e-10) == 2
    assert np.sum(eigs) == pytest.approx(1.0, abs=1e-10)


def test_large_detuning_suppresses_transfer():
    q = _state(SdfsParams(alpha0=2.0, r=0.5))
    ns = np.arange(q.dim)
    bound = 2.0 * np.sqrt(ns + 1.0) / 1000.0
    _, s = evolve(q, [0.7, 3.0, 11.0], 1000.0)
    assert np.all(np.abs(s[:, 1:]) <= bound + 1e-15)


# ------------------------------- C and S bit for bit as A and B padded by one photon


def _padded_closed_forms(q, ts, detuning):
    """C and S built as before `evolve` returned them: A and B by their closed
    forms, then zeros and the two slice assignments C_n = A_n, S_{n+1} = B_n."""
    ts = np.asarray(ts, dtype=float)
    ns = np.arange(q.dim)
    nu = np.sqrt(0.25 * detuning**2 + ns + 1.0)
    ph = ts[:, None] * nu
    sin_over_nu = np.sin(ph) / nu
    a = q.amps * (np.cos(ph) - 0.5j * detuning * sin_over_nu)
    b = -1j * q.amps * np.sqrt(ns + 1.0) * sin_over_nu
    shape = a.shape[:-1] + (a.shape[-1] + 1,)
    c = np.zeros(shape, dtype=complex)
    s = np.zeros(shape, dtype=complex)
    c[..., :-1] = a
    s[..., 1:] = b
    return c, s


def test_evolve_equals_the_padded_closed_forms_on_every_preset_and_sweep_state(
    sweep_workloads, tmp_path
):
    cfgs = [figure_preset(name) for name in PRESET_NAMES] + [
        parse_config(sweep_workloads.sweep_config_text(state, tmp_path))
        for seed in (0, 1)
        for state in sweep_workloads.sweep_states(seed)
    ]
    runs = {}
    for cfg in cfgs:
        runs.setdefault((cfg.state, cfg.detuning_ratio), cfg)
    assert len(runs) == 86
    assert sum(detuning < 0 for _, detuning in runs) >= 10
    for (state, detuning), cfg in runs.items():
        q = sdfs_state(state)
        # every 20th time of the run, t = 0 first, and a lone t = 0 row
        for ts in (np.linspace(0.0, cfg.t_max_scaled, cfg.t_points)[::20], [0.0]):
            got, expected = evolve(q, ts, detuning), _padded_closed_forms(q, ts, detuning)
            for new, old in zip(got, expected):
                assert new.shape == (len(ts), q.dim + 1)
                assert np.array_equal(new.view(np.int64), old.view(np.int64)), (state, detuning)


# ------------------------------------------------ operator reference for evolve


@pytest.mark.parametrize(
    "alpha0, r, phi, m, detuning",
    [
        (2.0 + 1.0j, 0.5, 0.3, 3, 1.7),
        (3.0, 1.0, 1.1, 2, -2.5),
        (0.5, 0.3, 2.0, 1, 0.4),
        (-1.5j, 1.2, 0.0, 0, -3.0),
        (1.5, 0.8, 0.7, 3, 0.0),
        (2.0j, 0.0, 0.0, 1, 0.0),
    ],
)
def test_evolve_matches_the_operator_reference(alpha0, r, phi, m, detuning):
    # under detuning the phase of C_n is seen here; |C_n| alone, W and P(n, t)
    # do not change when the sign of the detuning term is flipped
    q = _state(SdfsParams(alpha0=alpha0, r=r, phi=phi, m=m))
    ts = np.linspace(0.0, 25.0, 11)
    c, s = evolve(q, ts, detuning)
    c_ref, s_ref, _ = jcm_reference(q, 25.0, ts.size, detuning)
    np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12)
