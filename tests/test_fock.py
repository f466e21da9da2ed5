import functools
import inspect
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from sdfs_jcm import fock
from sdfs_jcm.fock import _THETA, _TOL, DIM_CAP, FockVector, _expm_action, build_sdfs_oracle
from sdfs_jcm.observables import _coherent_bras
from sdfs_jcm.sdfs import SdfsParams, sdfs_state
from sdfs_jcm.selfcheck import AMPLITUDE_GRID, check_amplitude_oracle, check_overlap_oracle


def basis_state(dim, n):
    """Number state |n> on a dim-dimensional truncation."""
    return FockVector(np.eye(dim)[n])


def _coherent_kets(alpha, dim):
    """<n|alpha> for n < dim, the conjugates of the Q grid's coherent bras."""
    buffers = (np.empty((1, dim)), np.empty((1, dim), dtype=complex))
    return _coherent_bras(np.array([alpha], dtype=complex), dim, buffers)[0].conj()


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
_CASES = [(p, 2 * sdfs_state(p).dim) for p in _GRID_CORNERS] + [_LARGE]
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


def test_dim_zero_rejected():
    with pytest.raises(ValueError, match="window dim 0 is below 1"):
        build_sdfs_oracle([SdfsParams()], [0])
    with pytest.raises(ValueError, match="window dim 0 is below 1"):
        build_sdfs_oracle([SdfsParams(), SdfsParams()], [4, 0])


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


def _plain_expm_action(upper, k, v):
    """The Taylor loop of `fock._expm_action` without its bounds: the exact
    maxima and the stopping test c1 + c2 <= tol ||F||_inf on every term."""
    mags = np.abs(upper)
    norm = float(np.max(np.append(mags, np.zeros(k)) + np.append(np.zeros(k), mags)))
    m, s = min(((m, max(1, math.ceil(norm / t))) for m, t in _THETA.items()), key=math.prod)
    up, down = upper / s, -np.conjugate(upper) / s
    f, b, gb = v.copy(), v.copy(), np.empty_like(v)
    for _ in range(s):
        c1 = np.max(np.abs(b))
        for j in range(1, m + 1):
            np.multiply(up, b[k:], out=gb[:-k])
            gb[-k:] = 0.0
            gb[k:] += down * b[:-k]
            b, gb = gb, b
            b.view(float)[:] *= 1.0 / j
            c2 = np.max(np.abs(b))
            f += b
            if c1 + c2 <= _TOL * np.max(np.abs(f)):
                break
            c1 = c2
        b[:] = f
    return f


@pytest.fixture(scope="module")
def action_inputs():
    """(upper, k, v) of the two stacks of `check`, 100 seeded random stacks
    (k = 1 or 2, n up to 600, generator scales 1e-3 to 10, a tenth of the
    generator entries zero), a zero generator, a zero vector and a vector
    shorter than k."""
    calls = []

    def record(upper, k, v):
        calls.append((upper.copy(), k, v.copy()))
        return _expm_action(upper, k, v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_expm_action", record)
        check_amplitude_oracle()
        check_overlap_oracle()
    assert len(calls) == 4
    rng = np.random.default_rng(2011)
    for _ in range(100):
        k, n = int(rng.integers(1, 3)), int(rng.integers(1, 601))
        upper = (rng.normal(size=max(0, n - k)) + 1j * rng.normal(size=max(0, n - k)))
        upper *= 10 ** rng.uniform(-3, 1)
        upper[rng.random(upper.size) < 0.1] = 0.0
        calls.append((upper, k, rng.normal(size=n) + 1j * rng.normal(size=n)))
    v = np.zeros(40, complex)
    v[7] = 1.0 - 2.0j
    calls.append((np.zeros(39, complex), 1, v))
    calls.append((np.full(38, 2.0 + 1.0j), 2, np.zeros(40, complex)))  # stops on the first term
    calls.append((np.zeros(0, complex), 2, np.ones(1, complex)))  # a window shorter than k
    return calls


def test_expm_action_is_bitwise_the_plain_taylor_loop(action_inputs):
    for upper, k, v in action_inputs:
        expected = _plain_expm_action(upper, k, v)
        assert np.array_equal(_expm_action(upper, k, v).view(np.int64), expected.view(np.int64))


def test_expm_action_upper_bound_holds_the_norm_on_every_term(action_inputs):
    # trace the loop itself: each time its bound test runs, f_up >= ||F||_inf
    lines, start = inspect.getsourcelines(_expm_action)
    (test_line,) = [start + i for i, line in enumerate(lines) if "_TOL * f_up:" in line]
    code, terms = _expm_action.__code__, []

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == test_line:
            f_up, f = frame.f_locals["f_up"], frame.f_locals["f"]
            terms.append(f_up >= np.max(np.abs(f)))
        return tracer

    sys.settrace(tracer)
    try:
        for upper, k, v in action_inputs:
            _expm_action(upper, k, v)
    finally:
        sys.settrace(None)
    assert len(terms) > 1827 and all(terms)
