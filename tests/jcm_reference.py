"""Operator reference for the Jaynes-Cummings evolution, shared by the tests."""

import numpy as np


def jcm_reference(q, t_max, t_points, detuning):
    """The excited and ground parts Psi_e, Psi_g of the state on
    linspace(0, t_max, t_points), as `evolve` returns them in C and S
    ((T, dim + 1) arrays), and the reduced field state rho = Psi_e Psi_e^dagger
    + Psi_g Psi_g^dagger, the partial trace over the atom, as (T, dim + 1,
    dim + 1) arrays.

    The route is the operator one: H = (Delta/2) sigma_z + (a sigma_+ +
    a^dagger sigma_-) in units of lambda, as one CSR matrix on the atom x
    field space with dim + 1 photon levels, applied with expm_multiply to
    |psi_0> = sum_n q_n |n, e>; no 2x2 block formula enters it.
    """
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
    excited, ground = psi[:, :levels], psi[:, levels:]
    rho = sum(np.einsum("ti,tj->tij", part, part.conj()) for part in (excited, ground))
    return excited, ground, rho
