import math

import numpy as np
import pytest

from jcm_reference import jcm_reference
from sdfs_jcm.dynamics import conservation_residual, evolve, field_components, populations
from sdfs_jcm.fock import NORM_TOL, FockVector
from sdfs_jcm.sdfs import SdfsParams, sdfs_state


def _vacuum():
    return FockVector(np.array([1.0, 0.0]))


def _state(p):
    return sdfs_state(p)


def _at(q, t, detuning=0.0):
    """A and B rows at the single scaled time t."""
    a, b = evolve(q, [t], detuning)
    return a[0], b[0]


def test_evolve_at_zero_time():
    q = _state(SdfsParams(alpha0=1.0, r=0.4, m=1))
    a, b = _at(q, 0.0)
    np.testing.assert_allclose(a, q.amps, atol=1e-15)
    np.testing.assert_allclose(b, 0, atol=1e-15)


def test_evolve_returns_time_by_photon_arrays():
    q = _state(SdfsParams(alpha0=2.0, r=0.5, m=1))
    ts = np.linspace(0.0, 9.0, 7)
    a, b = evolve(q, ts, 0.8)
    assert a.shape == b.shape == (ts.size, q.dim)
    for i, t in enumerate(ts):
        a_i, b_i = _at(q, float(t), 0.8)
        assert np.array_equal(a[i], a_i)
        assert np.array_equal(b[i], b_i)


def test_evolve_rejects_non_vector_times():
    with pytest.raises(ValueError, match="1-D"):
        evolve(_vacuum(), np.zeros((2, 2)))


def test_vacuum_half_rabi_cycle():
    a, b = _at(_vacuum(), math.pi / 2)
    assert abs(a[0]) == pytest.approx(0.0, abs=1e-12)
    assert b[0] == pytest.approx(-1j, abs=1e-12)


def test_pointwise_conservation_identity():
    q = _state(SdfsParams(alpha0=3.0, r=1.0))
    ts = [0.3, 5.0, 12.7]
    for detuning in (0.0, 1.5):
        a, b = evolve(q, ts, detuning)
        per_n = np.abs(a) ** 2 + np.abs(b) ** 2
        for row in per_n:
            np.testing.assert_allclose(row, np.abs(q.amps) ** 2, atol=1e-12)
        residual = conservation_residual(*populations(*field_components(a, b)))
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
    assert evolve(edge, [1.0])[0].shape == (1, 2)


def test_field_density_at_zero_time():
    q = _state(SdfsParams(alpha0=1.5, r=0.3, m=1))
    c, s = field_components(*_at(q, 0.0))
    np.testing.assert_allclose(c[:-1], q.amps, atol=1e-15)
    assert c[-1] == 0
    np.testing.assert_allclose(s, 0, atol=1e-15)


def test_field_density_trace():
    q = _state(SdfsParams(alpha0=3.0, r=1.0, m=1))
    c, s = field_components(*evolve(q, [0.0, 2.5, 9.0]))
    assert c.shape == s.shape == (3, q.dim + 1)
    trace = np.sum(np.abs(c) ** 2 + np.abs(s) ** 2, axis=1)
    np.testing.assert_allclose(trace, 1.0, rtol=0, atol=1e-10)


def test_vacuum_quarter_cycle_components():
    c, s = field_components(*_at(_vacuum(), math.pi / 4))
    assert np.sum(np.abs(c) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(s) ** 2) == pytest.approx(0.5, abs=1e-12)
    # C is supported on |0>, S on |1>: orthogonal
    assert np.vdot(c, s) == pytest.approx(0.0, abs=1e-15)


def test_density_matrix_is_rank_two_and_psd():
    q = _state(SdfsParams(alpha0=1.2, r=0.5, m=1))
    rho = jcm_reference(q, 4.2, 2, 0.0)[2][-1]
    c, s = field_components(*_at(q, 4.2))
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
    _, b = evolve(q, [0.7, 3.0, 11.0], 1000.0)
    assert np.all(np.abs(b) <= bound + 1e-15)


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
    # under detuning the phase of A_n is seen here; |A_n| alone, W and P(n, t)
    # do not change when the sign of the detuning term is flipped
    q = _state(SdfsParams(alpha0=alpha0, r=r, phi=phi, m=m))
    ts = np.linspace(0.0, 25.0, 11)
    a, b = evolve(q, ts, detuning)
    a_ref, b_ref, _ = jcm_reference(q, 25.0, ts.size, detuning)
    np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)
