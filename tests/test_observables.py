import math
import re

import numpy as np
import pytest
from scipy.special import gammaln, xlogy

from jcm_reference import jcm_reference
from sdfs_jcm.config import RunConfig, parse_config
from sdfs_jcm.dynamics import conservation_residual, evolve, populations
from sdfs_jcm.fock import FockVector
from sdfs_jcm.observables import (
    ETA_POINTS,
    ETAS,
    atomic_inversion,
    entropy_rows,
    gram,
    phase_distribution,
    phase_kernel,
    photon_number_distribution,
    q_function_grid,
    revival_time,
)
from sdfs_jcm.presets import figure_preset
from sdfs_jcm.runner import compute
from sdfs_jcm.sdfs import SdfsParams, sdfs_state
from sdfs_jcm.selfcheck import grid_params

LN2 = math.log(2.0)


def _vacuum():
    return FockVector(np.array([1.0, 0.0]))


def _state(p):
    return sdfs_state(p)


def _evolved(p, t, detuning=0.0):
    """C and S rows of the state p at the single scaled time t."""
    c, s = evolve(_state(p), [t], detuning)
    return c[0], s[0]


def _gram(c, s):
    return gram(c, s, *populations(c, s))


def _q_at(c, s, alpha):
    """Q at one phase-space point, as a 1 x 1 grid."""
    return float(q_function_grid(c, s, [alpha.real], [alpha.imag])[0, 0])


# ---------------------------------------------------------------- inversion


def test_inversion_starts_at_one():
    w = atomic_inversion(*populations(*_evolved(SdfsParams(alpha0=2.0, r=0.6, m=1), 0.0)))
    assert w == pytest.approx(1.0, abs=1e-10)


def test_inversion_vacuum_cosine():
    w = atomic_inversion(*populations(*evolve(_vacuum(), [math.pi / 4])))
    assert w[0] == pytest.approx(0.0, abs=1e-12)


def test_inversion_single_fock_cosine():
    q = FockVector(np.array([0.0, 1.0]))
    ts = np.linspace(0.0, 6.0, 23)
    w = atomic_inversion(*populations(*evolve(q, ts)))
    for t, value in zip(ts, w):
        assert value == pytest.approx(math.cos(2.0 * math.sqrt(2.0) * t), abs=1e-12)


def test_inversion_bounded():
    q = _state(SdfsParams(alpha0=3.0, r=1.0, m=2))
    c, s = evolve(q, np.linspace(0.0, 25.0, 400))
    w = atomic_inversion(*populations(c, s))
    assert w.shape == (400,)
    assert np.all(np.abs(w) <= 1.0 + 1e-12)
    # the slices of the populations give the bits of the direct sum over A and B
    assert np.array_equal(w, np.sum(np.abs(c[:, :-1]) ** 2 - np.abs(s[:, 1:]) ** 2, axis=-1))


def test_amplitudes_in_place_of_populations_are_a_type_error():
    # the arguments these functions took before they read `populations`
    c, s = evolve(_state(SdfsParams(alpha0=2.0, r=0.5)), np.linspace(0.0, 5.0, 7))
    for function in (atomic_inversion, conservation_residual, photon_number_distribution):
        with pytest.raises(TypeError):
            function(c, s)


# --------------------------------------------------------------------- gram


def test_gram_at_zero_time():
    cc, ss, cs = _gram(*_evolved(SdfsParams(alpha0=1.0, r=0.5), 0.0))
    assert cc == pytest.approx(1.0, abs=1e-10)
    assert ss == pytest.approx(0.0, abs=1e-15)
    assert abs(cs) == pytest.approx(0.0, abs=1e-15)


def test_gram_vacuum_quarter_cycle():
    cc, ss, cs = _gram(*evolve(_vacuum(), [math.pi / 4]))
    assert cc[0] == pytest.approx(0.5, abs=1e-12)
    assert ss[0] == pytest.approx(0.5, abs=1e-12)
    assert abs(cs[0]) == pytest.approx(0.0, abs=1e-15)


def test_gram_trace_identity():
    cc, ss, _ = _gram(*_evolved(SdfsParams(alpha0=3.0, r=1.0), 10.0))
    assert cc + ss == pytest.approx(1.0, abs=1e-10)


def test_gram_rows_match_vdot():
    q = _state(SdfsParams(alpha0=2.0, r=0.7, m=1))
    c, s = evolve(q, np.linspace(0.0, 12.0, 9), 0.5)
    cc, ss, cs = gram(c, s, *populations(c, s))
    for i in range(c.shape[0]):
        assert cc[i] == np.sum(np.abs(c[i]) ** 2)
        assert ss[i] == np.sum(np.abs(s[i]) ** 2)
        assert cs[i] == np.vdot(c[i], s[i])


# ------------------------------------------------------------------ entropy


def _scalar_entropy(cc: float, ss: float, cs: complex) -> tuple[float, float, float]:
    """(S_f, lambda_plus, lambda_minus) of one row by the earlier scalar
    formula, the bit-for-bit reference of `entropy_rows`."""
    acs = abs(cs)
    half_gap = 0.5 * (cc - ss)
    split = math.hypot(half_gap, acs) if acs > 1e-14 else abs(half_gap)
    lam_p = min(max(0.5 * (cc + ss) + split, 0.0), 1.0)
    lam_m = min(max(0.5 * (cc + ss) - split, 0.0), 1.0)
    entropy = 0.0
    for lam in (lam_p, lam_m):
        if lam > 0.0:
            entropy -= lam * math.log(lam)
    return entropy, lam_p, lam_m


def _assert_rows_match_scalar(cc, ss, cs):
    cc, ss, cs = np.asarray(cc, float), np.asarray(ss, float), np.asarray(cs, complex)
    reference = np.array(
        [_scalar_entropy(*row) for row in zip(cc.tolist(), ss.tolist(), cs.tolist())]
    ).reshape(-1, 3)
    # compared as bit patterns, so that -0.0 and 0.0 (written as -0 and 0) differ
    assert np.array_equal(entropy_rows(cc, ss, cs).view(np.int64), reference.view(np.int64))


def _entropy_one(cc, ss, cs):
    return entropy_rows(np.array([cc]), np.array([ss]), np.array([cs], dtype=complex))[0]


def _random_gram(rng, count):
    cc = rng.uniform(0.0, 1.0, count)
    ss = 1.0 - cc
    mag = np.sqrt(cc * ss) * rng.uniform(0.0, 1.0, count)
    cs = mag * np.exp(1j * rng.uniform(0, 2 * math.pi, count))
    return cc, ss, cs


def test_numpy_hypot_of_the_parts_is_python_abs_bit_for_bit():
    # `entropy_rows` forms |<C|S>| as np.hypot(cs.real, cs.imag) in place of
    # mapping Python's abs; a draw over the full exponent range, with signed
    # zeros, subnormals and 1e+-300 among its parts, must keep every bit
    rng = np.random.default_rng(26)
    parts = rng.uniform(-1.0, 1.0, (2, 200_000)) * 10.0 ** rng.integers(-310, 301, (2, 200_000))
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]
    parts[:, :2000] = rng.choice(special + rng.standard_normal(8).tolist(), (2, 2000))
    cs = parts[0] + 1j * parts[1]
    expected = np.array([abs(value) for value in cs.tolist()])
    assert np.count_nonzero(expected == 0.0) and np.count_nonzero(expected < 2.3e-308) > 100
    assert np.array_equal(np.hypot(cs.real, cs.imag).view(np.int64), expected.view(np.int64))


def test_entropy_pure_state():
    assert tuple(_entropy_one(1.0, 0.0, 0j)) == (0.0, 1.0, 0.0)


def test_entropy_maximal_mixing():
    entropy, lam_p, _ = _entropy_one(0.5, 0.5, 0j)
    assert lam_p == pytest.approx(0.5)
    assert entropy == pytest.approx(LN2, abs=1e-15)


def test_entropy_against_direct_eigensolve():
    cc, ss, cs = 0.7, 0.3, 0.2 + 0.1j
    _, lam_p, lam_m = _entropy_one(cc, ss, cs)
    lam = np.linalg.eigvalsh(np.array([[cc, cs], [np.conj(cs), ss]]))
    assert lam_p == pytest.approx(lam[1], abs=1e-12)
    assert lam_m == pytest.approx(lam[0], abs=1e-12)
    assert lam_p == pytest.approx(0.8, abs=1e-12)
    assert lam_m == pytest.approx(0.2, abs=1e-12)


def test_entropy_subsystem_exchange_symmetry():
    cc, ss, cs = _random_gram(np.random.default_rng(13), 200)
    a = entropy_rows(cc, ss, cs)
    b = entropy_rows(ss, cc, np.conj(cs))
    np.testing.assert_allclose(a[:, 0], b[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a[:, 1], b[:, 1], rtol=0, atol=1e-12)


def test_entropy_random_samples_match_eigensolve():
    cc, ss, cs = _random_gram(np.random.default_rng(17), 10_000)
    rows = entropy_rows(cc, ss, cs)
    mats = np.empty((cc.size, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1] = cc, cs, np.conj(cs), ss
    lam = np.linalg.eigvalsh(mats)
    terms = np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    assert np.max(np.abs(rows[:, 0] + terms.sum(axis=1))) <= 1e-10


def test_entropy_rows_match_scalar_entropy():
    q = _state(SdfsParams(alpha0=3.0, r=1.0, m=1))
    cc, ss, cs = _gram(*evolve(q, np.linspace(0.0, 25.0, 11)))
    assert entropy_rows(cc, ss, cs).shape == (11, 3)
    _assert_rows_match_scalar(cc, ss, cs)


def test_entropy_rows_match_scalar_on_edge_rows():
    at_floor = 1e-14
    above_floor = np.nextafter(1e-14, 1.0)
    _assert_rows_match_scalar(
        [1.0, 0.5, 0.5 + 1e-14, 0.5 + 1e-14, 0.3, 0.25, -1e-13, 1.0 + 1e-13],
        [0.0, 0.5, 0.5 - 1e-14, 0.5 - 1e-14, 0.7, 0.75, 1.0 + 1e-13, -1e-13],
        [0j, 0j, at_floor, above_floor * 1j, 0j, 0.2 - 0.3j, 0j, 0j],
    )


def test_entropy_rows_match_scalar_on_random_gram():
    _assert_rows_match_scalar(*_random_gram(np.random.default_rng(19), 5_000))


def test_entropy_rows_match_scalar_on_fig2_presets():
    for name in ("fig2a", "fig2b", "fig2c"):
        data = compute(figure_preset(name))
        _assert_rows_match_scalar(data.cc, data.ss, data.cs)


def test_entropy_rows_match_scalar_on_detuned_sweep_configs(tmp_path, sweep_workloads):
    states = sweep_workloads.sweep_states(0)[:8]
    assert all(state["detuning_ratio"] != 0.0 for state in states)
    for state in states:
        cfg = parse_config(sweep_workloads.sweep_config_text(state, tmp_path))
        data = compute(cfg)
        _assert_rows_match_scalar(data.cc, data.ss, data.cs)


def test_entropy_rejects_invalid_gram():
    cases = [
        ([0.5, 0.5, 1.1], [0.5, 0.5, -0.1], [0j, 0j, 0j], "row 2: cc=1.1, ss=-0.1 outside [0, 1]"),
        ([0.5, 0.9], [0.5, 0.3], [0j, 0j], "row 1: trace cc + ss = 1.2"),
        ([0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0j, 0.1j, 0.9], "row 2: |<C|S>|^2 exceeds"),
        # a NaN <C|S> gave S = ln 2, as if <C|S> were 0
        ([0.5, 0.5], [0.5, 0.5], [0j, complex(math.nan, 0.0)], "row 1: |<C|S>|^2 exceeds"),
        ([0.5, 0.5], [0.5, 0.5], [0j, complex(0.0, math.nan)], "row 1: |<C|S>|^2 exceeds"),
    ]
    for cc, ss, cs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            entropy_rows(np.array(cc), np.array(ss), np.array(cs, dtype=complex))


def test_entropy_rejects_eigenvalues_beyond_slack():
    # within every Gram tolerance, the larger eigenvalue still overshoots 1
    cc = np.array([0.5, 1.0 + 1e-12])
    ss = np.array([0.5, 1e-11 - 1e-12])
    cs = np.array([0j, 1e-6 + 0j])
    with pytest.raises(ValueError, match=re.escape("row 1: eigenvalues (")):
        entropy_rows(cc, ss, cs)


def test_initial_entropy_vanishes_for_every_sdfs():
    for p in grid_params():
        assert entropy_rows(*_gram(*evolve(_state(p), [0.0])))[0, 0] <= 1e-10


# --------------------------------------------------------- photon numbers


def test_photon_dist_at_zero_time_matches_input():
    p = SdfsParams(alpha0=1.3, r=0.6, m=1)
    q = _state(p)
    dist = photon_number_distribution(*populations(*evolve(q, [0.0])))
    assert dist.shape == (1, q.dim + 1)
    np.testing.assert_allclose(dist[0, :-1], np.abs(q.amps) ** 2, rtol=0, atol=1e-14)


def test_photon_dist_unit_sum():
    c, s = _evolved(SdfsParams(alpha0=3.0, r=1.0, m=2), 6.6)
    dist = photon_number_distribution(*populations(c, s))
    assert float(np.sum(dist)) == pytest.approx(1.0, abs=1e-10)


def test_photon_dist_full_rabi_transfer():
    dist = photon_number_distribution(*populations(*evolve(_vacuum(), [math.pi / 2])))
    assert dist[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert dist[0, 1] == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- phase


def test_phase_distribution_vacuum_is_flat():
    c, s = evolve(_vacuum(), [0.0])
    vals = phase_distribution(c, s, phase_kernel(c.shape[-1]))
    assert vals.shape == (1, ETA_POINTS)
    np.testing.assert_allclose(vals, 1.0 / (2 * math.pi), atol=1e-14)


def test_phase_distribution_coherent_peak_at_zero():
    c, s = _evolved(SdfsParams(alpha0=3.0), 0.0)
    vals = phase_distribution(c, s, phase_kernel(c.size))
    assert ETAS[int(np.argmax(vals))] == pytest.approx(0.0, abs=1e-12)


def test_phase_distribution_unit_integral():
    q = _state(SdfsParams(alpha0=3.0, r=1.0, m=1))
    c, s = evolve(q, [0.0, 3.3, 11.0])
    vals = phase_distribution(c, s, phase_kernel(c.shape[-1]))
    integrals = np.sum(vals, axis=1) * (2 * math.pi / ETA_POINTS)
    np.testing.assert_allclose(integrals, 1.0, rtol=0, atol=1e-6)


def _reference_rho(p, t):
    """The reduced field state of the operator reference at the single time t."""
    return jcm_reference(_state(p), t, 2, 0.0)[2][-1]


def _phase_double_sum(rho, etas):
    """P(eta) = sum_lj rho_lj e^{i (j - l) eta} / 2 pi, complex, over the last two axes of rho."""
    ls = np.arange(rho.shape[-1])
    kernel = np.exp(1j * (ls[None, None, :] - ls[None, :, None]) * etas[:, None, None])
    return np.einsum("...lj,elj->...e", rho, kernel) / (2 * math.pi)


def test_phase_distribution_matches_explicit_double_sum():
    p = SdfsParams(alpha0=1.0, r=0.4, m=1)
    c, s = _evolved(p, 2.7)
    vals = phase_distribution(c, s, phase_kernel(c.size))
    # every 16th angle keeps the reference's (E, dim + 1, dim + 1) kernel small
    vals, etas = vals[::16], ETAS[::16]
    total = _phase_double_sum(_reference_rho(p, 2.7), etas)
    assert np.max(np.abs(total.imag)) <= 1e-10
    np.testing.assert_allclose(vals, total.real, rtol=0, atol=1e-12)


# ------------------------------------------------------------------------ Q


def test_q_vacuum_value():
    c, s = evolve(_vacuum(), [0.0])
    assert _q_at(c[0], s[0], 1.0 + 0j) == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-14)


def test_q_coherent_is_displaced_gaussian():
    c, s = _evolved(SdfsParams(alpha0=3.0), 0.0)
    assert _q_at(c, s, 2.5 + 0j) == pytest.approx(math.exp(-0.25) / math.pi, abs=1e-10)


def test_q_grid_normalization():
    xs = np.linspace(-8.0, 8.0, 201)
    ys = np.linspace(-8.0, 8.0, 201)
    grid = q_function_grid(*_evolved(SdfsParams(alpha0=3.0, r=1.0, m=1), 0.0), xs, ys)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    assert float(np.sum(grid)) * cell == pytest.approx(1.0, abs=1e-3)
    assert grid.min() >= 0.0


def test_q_matches_explicit_double_sum():
    p = SdfsParams(alpha0=1.0, r=0.3, m=1)
    c, s = _evolved(p, 3.1)
    rho = _reference_rho(p, 3.1)
    ns = np.arange(c.size)
    for alpha in (0.4 + 0.2j, -1.0 + 1.5j, 2.0 - 0.5j):
        coeff = np.exp(
            ns * np.log(complex(alpha)) - 0.5 * gammaln(ns + 1.0)
        ) if alpha != 0 else np.eye(c.size)[0]
        direct = (
            math.exp(-abs(alpha) ** 2)
            / math.pi
            * np.sum(rho * np.outer(np.conj(coeff), coeff))
        )
        assert abs(direct.imag) <= 1e-12
        assert _q_at(c, s, alpha) == pytest.approx(direct.real, abs=1e-12)


def test_q_scalar_matches_grid():
    c, s = _evolved(SdfsParams(alpha0=1.5, r=0.5), 1.0)
    xs = np.array([0.5, 2.0])
    ys = np.array([-1.0, 0.5])
    grid = q_function_grid(c, s, xs, ys)
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            assert grid[iy, ix] == pytest.approx(_q_at(c, s, complex(x, y)), abs=1e-14)


_HALF_AXIS = np.linspace(0.25, 6.0, 23)


@pytest.mark.parametrize(
    "ys, mirrored",
    [
        (np.linspace(-6.0, 6.0, 23), 2),
        (np.concatenate([-_HALF_AXIS[::-1], [0.0], _HALF_AXIS]), 23),  # every y != 0
        (np.linspace(-8.0, 8.0, 201), 57),  # the fig5 window
        (np.linspace(-5.5, 6.5, 23), 0),
    ],
    ids=["linspace", "symmetric", "fig5-window", "no-mirror"],
)
def test_q_grid_equals_its_single_rows(ys, mirrored):
    # a one-row grid has no mirror row: each builds its own bras
    assert sum(y < 0 and -y in set(ys.tolist()) for y in ys.tolist()) == mirrored
    c, s = _evolved(SdfsParams(alpha0=1.2 - 0.4j, r=0.7, phi=0.5, m=2), 2.3, detuning=-0.8)
    xs = np.linspace(-7.0, 7.0, 29)
    rows = [q_function_grid(c, s, xs, ys[i : i + 1]) for i in range(ys.size)]
    grid = q_function_grid(c, s, xs, ys)
    assert np.array_equal(grid.view(np.int64), np.vstack(rows).view(np.int64))


@pytest.mark.parametrize("detuning", [0.0, -0.8])
def test_a_stacked_q_grid_equals_its_single_snapshots(detuning):
    p = SdfsParams(alpha0=1.2 - 0.4j, r=0.7, phi=0.5, m=2)
    c, s = evolve(_state(p), [0.0, 2.3, 7.9], detuning)
    xs = np.linspace(-7.0, 7.0, 29)
    ys = np.linspace(-6.0, 6.0, 23)
    stacked = q_function_grid(c, s, xs, ys)
    assert stacked.shape == (3, 23, 29)
    assert q_function_grid(c[None], s[None], xs, ys).shape == (1, 3, 23, 29)
    for k in range(3):
        single = q_function_grid(c[k], s[k], xs, ys)
        assert np.array_equal(stacked[k].view(np.int64), single.view(np.int64))


# ------------------------------------- compute rows against the reference rho


@pytest.mark.parametrize(
    "alpha0, r, phi, m, detuning",
    [
        (2.0 + 1.0j, 0.5, 0.3, 3, 1.7),
        (3.0, 1.0, 1.1, 2, -2.5),
        (0.5, 0.3, 2.0, 1, 0.4),
        (-1.5j, 1.2, 0.0, 0, -3.0),
        (1.0 - 2.0j, 0.9, 4.0, 3, 3.0),
    ],
)
def test_compute_rows_match_the_reference_reduced_state(alpha0, r, phi, m, detuning):
    # P(n, t) is the diagonal of the operator route's rho, S_f and the two
    # eigenvalues come from its eigvalsh, the phase density from its double
    # sum, Q from <alpha|rho|alpha> / pi at t_max_scaled; under detuning the
    # last three see the phase of A_n
    cfg = RunConfig(
        state=SdfsParams(alpha0=alpha0, r=r, phi=phi, m=m),
        detuning_ratio=detuning,
        t_points=11,
        observables=("entropy", "photon_dist", "phase_dist", "qfunc"),
    )
    data = compute(cfg)
    _, _, rho = jcm_reference(_state(cfg.state), cfg.t_max_scaled, cfg.t_points, detuning)
    populations = np.real(np.diagonal(rho, axis1=1, axis2=2))
    np.testing.assert_allclose(data.photon_dist, populations, rtol=0, atol=1e-12)
    lam = np.clip(np.linalg.eigvalsh(rho)[:, ::-1], 0.0, None)  # descending
    entropy = -np.sum(xlogy(lam, lam), axis=1)
    np.testing.assert_allclose(data.entropy[:, 0], entropy, rtol=0, atol=1e-11)
    np.testing.assert_allclose(data.entropy[:, 1:], lam[:, :2], rtol=0, atol=1e-12)
    reference = _phase_double_sum(rho, ETAS[::16]).real  # every 16th angle
    np.testing.assert_allclose(data.phase_dist[:, ::16], reference, rtol=0, atol=1e-12)
    picks = slice(5, None, 20)  # 10 x 10 of the grid, none at alpha = 0
    alphas = data.q_axis[None, picks] + 1j * data.q_axis[picks, None]
    ns = np.arange(rho.shape[1])
    kets = np.exp(  # <n|alpha>, shape (10, 10, levels)
        ns * np.log(alphas[..., None]) - 0.5 * gammaln(ns + 1.0) - 0.5 * np.abs(alphas[..., None]) ** 2
    )
    direct = np.einsum("...j,jk,...k->...", kets.conj(), rho[-1], kets) / math.pi
    assert np.max(np.abs(direct.imag)) <= 1e-12
    np.testing.assert_allclose(data.qfunc[picks, picks], direct.real, rtol=0, atol=1e-12)


# -------------------------------------------------------------- revival time


def test_revival_time_values():
    assert revival_time(SdfsParams(alpha0=3.0)) == pytest.approx(6.0 * math.pi)
    expected = 2.0 * math.pi * math.sqrt(9.0 + math.sinh(1.0) ** 2)
    assert revival_time(SdfsParams(alpha0=3.0, r=1.0)) == pytest.approx(expected)
    assert expected == pytest.approx(20.244, abs=5e-4)


def test_revival_time_rejects_vacuum():
    with pytest.raises(ValueError):
        revival_time(SdfsParams())
    with pytest.raises(ValueError):
        revival_time(SdfsParams(m=2))
