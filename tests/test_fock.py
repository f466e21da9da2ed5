import cmath
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import sdfs_jcm
from sdfs_jcm.fock import (
    DIM_CAP,
    FockVector,
    annihilation_matrix,
    build_sdfs_oracle,
    displacement_generator,
    matrix_exp_apply,
    squeeze_generator,
)
from sdfs_jcm.observables import _coherent_bras
from sdfs_jcm.sdfs import SdfsParams, sdfs_state
from sdfs_jcm.selfcheck import AMPLITUDE_GRID


def basis_state(dim, n):
    """Number state |n> on a dim-dimensional truncation."""
    return FockVector(np.eye(dim)[n])


def _coherent_kets(alpha, dim):
    """<n|alpha> for n < dim, the conjugates of the Q grid's coherent bras."""
    return _coherent_bras(np.array([alpha]), dim)[0].conj()


def test_annihilation_matrix_dim2():
    np.testing.assert_allclose(annihilation_matrix(2).toarray(), [[0, 1], [0, 0]])


def test_annihilation_lowers_number_state():
    a = annihilation_matrix(3)
    np.testing.assert_allclose(a @ basis_state(3, 2).amps, math.sqrt(2) * basis_state(3, 1).amps)


def test_number_operator_eigenvalue():
    a = annihilation_matrix(8)
    n_op = a.conj().T @ a
    np.testing.assert_allclose(n_op @ basis_state(8, 5).amps, 5 * basis_state(8, 5).amps)


def test_dim_zero_rejected():
    with pytest.raises(ValueError):
        annihilation_matrix(0)


def test_commutator_on_interior_subspace():
    dim = 12
    a = annihilation_matrix(dim)
    comm = (a @ a.conj().T - a.conj().T @ a).toarray()
    np.testing.assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-14)


def test_exp_zero_matrix_is_identity():
    v = FockVector(np.array([0.3, 0.4 + 0.2j, 0.1]))
    out = matrix_exp_apply(np.zeros((3, 3), dtype=complex), v)
    np.testing.assert_allclose(out.amps, v.amps, atol=1e-14)


def test_exp_diagonal_phases():
    thetas = np.array([0.3, -1.1, 2.5])
    mat = np.diag(1j * thetas)
    for n in range(3):
        out = matrix_exp_apply(mat, basis_state(3, n))
        expected = np.zeros(3, dtype=complex)
        expected[n] = np.exp(1j * thetas[n])
        np.testing.assert_allclose(out.amps, expected, atol=1e-14)


def test_displaced_vacuum_is_coherent_state():
    alpha, dim = 1.5, 64
    out = matrix_exp_apply(displacement_generator(alpha, dim), basis_state(dim, 0))
    np.testing.assert_allclose(out.amps, _coherent_kets(alpha, dim), atol=1e-12)


def test_non_finite_matrix_rejected():
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = np.nan
    with pytest.raises(ValueError):
        matrix_exp_apply(mat, basis_state(2, 0))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        matrix_exp_apply(np.zeros((3, 3)), basis_state(4, 0))


def test_coherent_overlap_value():
    u, v = build_sdfs_oracle([SdfsParams(alpha0=1.0), SdfsParams(alpha0=2.0)], [64, 64])
    # <alpha|beta> = exp(-|alpha|^2/2 - |beta|^2/2 + alpha* beta)
    assert np.vdot(u.amps, v.amps) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_oracle_fock_limit():
    (out,) = build_sdfs_oracle([SdfsParams(m=3)], [16])
    np.testing.assert_allclose(out.amps, basis_state(16, 3).amps, atol=1e-13)


def test_oracle_coherent_limit():
    (out,) = build_sdfs_oracle([SdfsParams(alpha0=2.0)], [64])
    np.testing.assert_allclose(out.amps, _coherent_kets(2.0, 64), atol=1e-12)


def test_oracle_normalization():
    (out,) = build_sdfs_oracle([SdfsParams(alpha0=3.0, r=1.0, phi=0.0, m=1)], [128])
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-10)


def _random_interior_vector(rng, dim):
    amps = np.zeros(dim, dtype=complex)
    support = dim // 2
    amps[:support] = rng.normal(size=support) + 1j * rng.normal(size=support)
    amps /= np.linalg.norm(amps)
    return FockVector(amps)


def test_unitarity_of_oracle_maps():
    rng = np.random.default_rng(7)
    dim = 96
    gens = [
        displacement_generator(1.2 - 0.7j, dim),
        squeeze_generator(0.8 * cmath.exp(0.4j), dim),
    ]
    for gen in gens:
        for _ in range(5):
            v = _random_interior_vector(rng, dim)
            out = matrix_exp_apply(gen, v)
            assert out.norm_sq() == pytest.approx(1.0, abs=1e-9)


def test_exp_inverse_roundtrip():
    rng = np.random.default_rng(11)
    dim = 96
    gen = squeeze_generator(0.6 * cmath.exp(1.0j), dim)
    v = _random_interior_vector(rng, dim)
    back = matrix_exp_apply(-gen, matrix_exp_apply(gen, v))
    np.testing.assert_allclose(back.amps, v.amps, atol=1e-9)


def test_amps_are_immutable():
    v = basis_state(4, 1)
    with pytest.raises(ValueError):
        v.amps[0] = 1.0


@functools.lru_cache(maxsize=None)
def _dense_sdfs(p, dim):
    """D(alpha0) S(z) |m> from dense scaling-and-squaring exponentials."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    a2 = a @ a
    squeeze = 0.5 * np.conjugate(p.z) * a2 - 0.5 * p.z * a2.conj().T
    displace = p.alpha0 * a.conj().T - np.conjugate(p.alpha0) * a
    return expm(displace) @ expm(squeeze)[:, p.m]


_GRID_CORNERS = [
    SdfsParams(alpha0=alpha0, r=r, phi=phi, m=m)
    for alpha0 in (AMPLITUDE_GRID["alpha0"][0], AMPLITUDE_GRID["alpha0"][-1])
    for r in (AMPLITUDE_GRID["r"][0], AMPLITUDE_GRID["r"][-1])
    for phi in (AMPLITUDE_GRID["phi"][0], AMPLITUDE_GRID["phi"][-1])
    for m in (AMPLITUDE_GRID["m"][0], AMPLITUDE_GRID["m"][-1])
]
_LARGE = (SdfsParams(alpha0=6j, r=2.0, phi=0.3, m=5), DIM_CAP)
_CASES = [(p, 2 * sdfs_state(p, 1e-12).dim) for p in _GRID_CORNERS] + [_LARGE]
# the grid corners and _LARGE, with a Fock seed among them and a coherent state last
_STACK = [_CASES[0], (SdfsParams(m=3), 8), *_CASES[1:], (SdfsParams(alpha0=2.0), 64)]


def _stacked(cases):
    return build_sdfs_oracle([p for p, _ in cases], [dim for _, dim in cases])


@pytest.mark.parametrize("p, dim", _CASES)
def test_oracle_matches_dense_expm(p, dim):
    (out,) = build_sdfs_oracle([p], [dim])
    np.testing.assert_allclose(out.amps, _dense_sdfs(p, dim), rtol=0, atol=1e-12)


def test_stacked_oracle_matches_dense_expm_block_by_block():
    outs = _stacked(_CASES)
    assert [out.dim for out in outs] == [dim for _, dim in _CASES]
    for (p, dim), out in zip(_CASES, outs):
        np.testing.assert_allclose(out.amps, _dense_sdfs(p, dim), rtol=0, atol=1e-12)


def test_stacked_blocks_do_not_couple():
    # zero generators on either side of the largest one: both blocks must stay |3>
    before, large, after = _stacked([(SdfsParams(m=3), 16), _LARGE, (SdfsParams(m=3), 16)])
    for fock in (before, after):
        np.testing.assert_allclose(fock.amps, basis_state(16, 3).amps, rtol=0, atol=1e-13)
    assert large.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_stacked_block_agrees_with_the_state_built_alone():
    for case, out in zip(_STACK, _stacked(_STACK)):
        (alone,) = _stacked([case])
        np.testing.assert_allclose(out.amps, alone.amps, rtol=0, atol=1e-13)


def test_oracle_rejects_bad_windows():
    with pytest.raises(ValueError, match="2 states but 1 window dims"):
        build_sdfs_oracle([SdfsParams(), SdfsParams()], [4])
    with pytest.raises(ValueError, match="seed Fock number 4 does not fit in dim 4"):
        build_sdfs_oracle([SdfsParams(m=1), SdfsParams(m=4)], [4, 4])
    with pytest.raises(ValueError, match=f"exceeds the cap {DIM_CAP}"):
        build_sdfs_oracle([SdfsParams(), SdfsParams()], [4, DIM_CAP + 1])


def test_oracle_window_cap_is_per_window():
    outs = build_sdfs_oracle([SdfsParams(alpha0=1.0)] * 2, [DIM_CAP, DIM_CAP])
    np.testing.assert_allclose(outs[1].amps, _coherent_kets(1.0, DIM_CAP), atol=1e-12)


def test_oracle_ignores_the_global_random_state():
    np.random.seed(0)
    first = [out.amps for out in _stacked(_STACK)]
    np.random.seed(1)
    for out, amps in zip(_stacked(_STACK), first):
        assert np.array_equal(out.amps, amps)


def test_oracle_leaves_the_global_random_state_alone():
    np.random.seed(5)
    expected = np.random.random()
    np.random.seed(5)
    _stacked(_STACK)
    assert np.random.random() == expected


def test_preset_does_not_import_scipy_sparse(tmp_path):
    code = (
        "import sys\n"
        "from sdfs_jcm import cli\n"
        f"assert cli.main(['preset', 'fig1a', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy.sparse' not in sys.modules\n"
    )
    src = str(Path(sdfs_jcm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
