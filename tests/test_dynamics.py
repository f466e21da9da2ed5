import math

import numpy as np
import pytest

from sdfs_jcm.dynamics import (
    conservation_residual,
    density_element,
    evolve,
    field_components,
)
from sdfs_jcm.fock import NORM_TOL, FockVector
from sdfs_jcm.sdfs import SdfsParams, sdfs_state


def _vacuum():
    return FockVector(np.array([1.0, 0.0]))


def _state(p):
    return sdfs_state(p, 1e-12)


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
        assert np.all(conservation_residual(a, b) <= 1e-10)


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


def test_density_element_initial_population():
    a, b = _at(_state(SdfsParams(alpha0=3.0)), 0.0)
    assert density_element(a, b, 0, 0) == pytest.approx(math.exp(-9.0), abs=1e-12)


def test_density_element_hermiticity_and_trace():
    a, b = _at(_state(SdfsParams(alpha0=3.0, r=1.0, m=1)), 7.3)
    rng = np.random.default_rng(2)
    hi = a.size
    for _ in range(20):
        l, j = rng.integers(0, hi + 1, size=2)
        assert density_element(a, b, int(l), int(j)) == pytest.approx(
            np.conj(density_element(a, b, int(j), int(l))), abs=1e-14
        )
    trace = sum(density_element(a, b, l, l) for l in range(hi + 1))
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_density_element_bounds():
    a, b = _at(_vacuum(), 1.0)
    with pytest.raises(IndexError):
        density_element(a, b, 0, 3)
    with pytest.raises(IndexError):
        density_element(a, b, -1, 0)


def _density_matrix(a, b):
    hi = a.size
    return np.array(
        [[density_element(a, b, l, j) for j in range(hi + 1)] for l in range(hi + 1)]
    )


def test_density_matrix_is_rank_two_and_psd():
    p = SdfsParams(alpha0=1.2, r=0.5, m=1)
    rho = _density_matrix(*_at(_state(p), 4.2))
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


def _jcm_reference(q, t_max, t_points, detuning):
    """A and B of `evolve` on linspace(0, t_max, t_points), from the operator
    route: H = (Delta/2) sigma_z + (a sigma_+ + a^dagger sigma_-) in units of
    lambda, as one CSR matrix on the atom x field space with dim + 1 photon
    levels, applied with expm_multiply to |psi_0> = sum_n q_n |n, e>."""
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    levels = q.dim + 1
    a = sparse.diags_array(np.sqrt(np.arange(1.0, levels)), offsets=1, shape=(levels, levels))
    sigma_plus = sparse.csr_array(([1.0], ([0], [1])), shape=(2, 2))  # atom basis (e, g)
    sigma_z = sparse.diags_array([1.0, -1.0])
    hamiltonian = (
        0.5 * detuning * sparse.kron(sigma_z, sparse.eye_array(levels))
        + sparse.kron(sigma_plus, a)
        + sparse.kron(sigma_plus.T, a.T)
    ).tocsr()
    psi0 = np.zeros(2 * levels, dtype=complex)
    psi0[: q.dim] = q.amps
    psi = expm_multiply(-1j * hamiltonian, psi0, start=0.0, stop=t_max, num=t_points)
    return psi[:, : q.dim], psi[:, levels + 1 :]


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
    a_ref, b_ref = _jcm_reference(q, 25.0, ts.size, detuning)
    np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12)
