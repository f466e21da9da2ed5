import math
import re
import sys

import numpy as np
import pytest
from scipy.special import gammaln

from sdfs_jcm import sdfs
from sdfs_jcm.fock import DIM_CAP, build_sdfs_oracle
from sdfs_jcm.observables import revival_time
from sdfs_jcm.presets import PRESET_NAMES, figure_preset
from sdfs_jcm.sdfs import (
    TAIL_TOL,
    SdfsParams,
    _amplitudes,
    log_factorial,
    mean_photon_number,
    sdfs_state,
)
from sdfs_jcm.selfcheck import AMPLITUDE_TOL

SINH1_SQ = math.sinh(1.0) ** 2


def test_params_validation():
    with pytest.raises(ValueError):
        SdfsParams(r=-0.5)
    for m in (-1, 1.5, math.inf, -math.inf, math.nan):  # int() raises on inf and nan
        with pytest.raises(ValueError, match="m must be a nonnegative integer"):
            SdfsParams(m=m)
    p = SdfsParams(phi=7.0)
    assert 0.0 <= p.phi < 2 * math.pi
    assert p.mu**2 - abs(p.nu) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_phi_reduces_into_zero_to_two_pi_and_keeps_the_bits_already_there():
    # x % 2 pi rounds a tiny negative x up to the modulus itself
    for phi in (-1e-20, -1e-17, -1e-300, -5e-324):
        assert SdfsParams(phi=phi).phi == 0.0
    for phi in (0.0, 5e-324, 1.0, math.nextafter(2 * math.pi, 0.0)):
        assert SdfsParams(phi=phi).phi == phi
    for phi in (-1.0, 7.0, -2 * math.pi, 1e300, -1e300):
        assert 0.0 <= SdfsParams(phi=phi).phi < 2 * math.pi


def test_params_refuse_non_finite_values():
    for kwargs, name in (
        ({"alpha0": complex(math.nan, 1.0)}, "alpha0"),
        ({"alpha0": complex(0.0, math.inf)}, "alpha0"),
        ({"r": math.inf}, "r"),
        ({"r": math.nan}, "r"),
        ({"phi": math.inf}, "phi"),
        ({"phi": -math.inf}, "phi"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SdfsParams(**kwargs)


def test_params_refuse_a_squeeze_whose_cosh_overflows():
    assert SdfsParams(r=710.0).mu > 1e308
    for r in (710.5, 800.0):
        with pytest.raises(ValueError, match=r"r = \d+\.?\d* overflows cosh"):
            SdfsParams(r=r)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"r": 5e-324}, "r = 5e-324"),  # sa underflowed to 0: ZeroDivisionError
        # refused as "lost precision ... by nan": hermite_scaled divided by a subnormal
        ({"alpha0": -5e-324j, "r": 1.2024801720166087, "phi": 5.206947378593325},
         "Im alpha0 = -5e-324"),
        ({"alpha0": 1e-310}, "Re alpha0 = 1e-310"),
    ],
)
def test_sdfs_state_refuses_a_subnormal_parameter_by_name(kwargs, named):
    with pytest.raises(ValueError, match=f"^state parameter {named} is subnormal$"):
        sdfs_state(SdfsParams(**kwargs))


def test_the_smallest_normal_parameters_are_computed():
    assert sdfs_state(SdfsParams(r=1.2024801720166087, phi=5.206947378593325)).dim == 141
    tiny = sys.float_info.min
    q = sdfs_state(SdfsParams(alpha0=complex(1.0, tiny), r=tiny, phi=1.0))
    coherent = sdfs_state(SdfsParams(alpha0=1.0)).amps
    assert q.dim == coherent.size and np.max(np.abs(q.amps - coherent)) < 1e-15


def _assert_same_bits(ours, reference):
    ours, reference = np.asarray(ours, dtype=float), np.asarray(reference, dtype=float)
    assert np.array_equal(ours.view(np.int64), reference.view(np.int64))


def test_log_factorial_is_gammaln_to_the_bit():
    table = np.arange(2 * DIM_CAP)  # the whole table
    _assert_same_bits(log_factorial(table), gammaln(table + 1.0))
    ks = np.arange(200_001)  # past the table: one by one, through every branch
    _assert_same_bits(log_factorial(ks), gammaln(ks + 1.0))
    # the branch edges x = k + 1 at 13 and 1000, Cephes's edge at 1e8, and far past
    # it, where the series term is below half an ulp; as scalars and as an array
    edges = [11, 12, 998, 999, 10**8 - 2, 10**8 - 1, 10**8, 10**9, 10**12, 2**53 - 1]
    _assert_same_bits([log_factorial(k) for k in edges], gammaln(np.array(edges) + 1.0))
    _assert_same_bits(log_factorial(np.array(edges)), gammaln(np.array(edges) + 1.0))


def test_coherent_amplitude_value():
    amp = _amplitudes(SdfsParams(alpha0=2.0), 3)[3]
    assert amp == pytest.approx(math.exp(-2.0) * 8.0 / math.sqrt(6.0), abs=1e-14)


def test_squeezed_vacuum_odd_amplitude_vanishes():
    assert _amplitudes(SdfsParams(r=1.0), 1)[1] == 0


def test_amplitude_matches_oracle():
    p = SdfsParams(alpha0=3.0, r=1.0, phi=0.0, m=1)
    (oracle,) = build_sdfs_oracle([p], [128])
    assert _amplitudes(p, 5)[5] == pytest.approx(complex(oracle.amps[5]), abs=1e-8)


@pytest.mark.parametrize(
    "p",
    [
        SdfsParams(m=6),
        SdfsParams(alpha0=1.5 - 0.5j, m=6),
        SdfsParams(alpha0=1.5 - 0.5j, r=0.4, phi=1.0, m=6),
    ],
    ids=["number-state", "r=0", "r>0"],
)
def test_window_below_the_seed_number_is_the_head_of_the_oracle(p):
    # n_max < m: the column sum holds only the terms i <= n_max
    (oracle,) = build_sdfs_oracle([p], [128])
    for n_max in (0, 2, 5):
        np.testing.assert_allclose(_amplitudes(p, n_max), oracle.amps[: n_max + 1], rtol=0, atol=1e-12)


def test_parity_of_undisplaced_states():
    for r in (0.4, 1.0):
        for m in (0, 1, 2):
            p = SdfsParams(r=r, m=m)
            amps = sdfs_state(p).amps
            ns = np.arange(amps.size)
            np.testing.assert_allclose(amps[(ns - m) % 2 == 1], 0, atol=1e-15)


def test_state_vacuum():
    np.testing.assert_allclose(sdfs_state(SdfsParams()).amps, [1, 0])
    np.testing.assert_allclose(_amplitudes(SdfsParams(), 4), [1, 0, 0, 0, 0])


def test_state_matches_oracle_componentwise():
    p = SdfsParams(alpha0=0.5, r=1.0, phi=0.0, m=0)
    state = sdfs_state(p)
    (oracle,) = build_sdfs_oracle([p], [2 * state.dim])
    np.testing.assert_allclose(state.amps, oracle.amps[: state.dim], atol=1e-8)


def test_state_normalization():
    for p in (
        SdfsParams(alpha0=3.0, r=1.0, m=2),
        SdfsParams(alpha0=1 + 1j, r=0.3, phi=1.0, m=1),
        SdfsParams(alpha0=0.5, r=0.0, m=0),
    ):
        state = sdfs_state(p)
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_norm_excess_is_an_error():
    # m = 40 with tiny r: the alternating closed-form sum cancels and its
    # norm^2 overshoots 1 by about 4e-3 at the chosen truncation.
    p = SdfsParams(alpha0=3.0, r=1e-8, m=40)
    with pytest.raises(ValueError, match=r"lost precision: norm\^2 exceeds 1"):
        sdfs_state(p)


def test_photon_distribution_poisson():
    p = SdfsParams(alpha0=3.0)
    probs = np.abs(sdfs_state(p).amps) ** 2
    assert probs[9] == pytest.approx(math.exp(-9.0) * 9.0**9 / math.factorial(9), abs=1e-12)
    ns = np.arange(probs.size)
    poisson = np.exp(ns * math.log(9.0) - 9.0 - gammaln(ns + 1.0))
    np.testing.assert_allclose(probs, poisson, atol=1e-10)


def test_photon_distribution_fock():
    state = sdfs_state(SdfsParams(m=2))
    np.testing.assert_allclose(np.abs(state.amps) ** 2, [0, 0, 1])
    assert state.norm_sq() == 1.0


def test_photon_distribution_matches_oracle():
    p = SdfsParams(alpha0=0.5, r=1.0, m=2)
    state = sdfs_state(p)
    (oracle,) = build_sdfs_oracle([p], [2 * state.dim])
    np.testing.assert_allclose(np.abs(state.amps) ** 2, np.abs(oracle.amps[: state.dim]) ** 2, atol=1e-8)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_mean_photon_number_values():
    assert mean_photon_number(SdfsParams(alpha0=2.0)) == pytest.approx(4.0)
    assert mean_photon_number(SdfsParams(alpha0=3.0, r=1.0)) == pytest.approx(9.0 + SINH1_SQ)
    expected = 2.0 * (math.cosh(1.0) ** 2 + SINH1_SQ) + SINH1_SQ + 9.0
    assert mean_photon_number(SdfsParams(alpha0=3.0, r=1.0, m=2)) == pytest.approx(expected)


def test_mean_photon_number_against_number_operator():
    states = [SdfsParams(alpha0=3.0, r=1.0), SdfsParams(alpha0=3.0, r=1.0, m=2)]
    dims = [2 * sdfs_state(p).dim for p in states]
    for p, oracle in zip(states, build_sdfs_oracle(states, dims)):
        numeric = float(np.sum(np.arange(oracle.dim) * np.abs(oracle.amps) ** 2))
        assert numeric == pytest.approx(mean_photon_number(p), abs=1e-9)


def test_mean_consistency_with_distribution():
    for p in (SdfsParams(alpha0=3.0, r=1.0, m=1), SdfsParams(alpha0=1 + 1j, r=0.3, m=2)):
        probs = np.abs(sdfs_state(p).amps) ** 2
        ns = np.arange(probs.size)
        assert float(np.sum(ns * probs)) == pytest.approx(
            mean_photon_number(p), abs=1e-6
        )


# The test_choose_truncation_* tests exercise the truncation sdfs_state chooses.
def test_choose_truncation_fock_state():
    # a number state has no tail; the basis keeps |1> for the atom's coupling
    assert sdfs_state(SdfsParams(m=2)).dim == 3
    np.testing.assert_array_equal(sdfs_state(SdfsParams(m=0)).amps, [1, 0])


def test_choose_truncation_coherent():
    n_max = sdfs_state(SdfsParams(alpha0=3.0)).dim - 1
    assert n_max >= 40
    # direct Poisson tail check at the returned truncation
    ns = np.arange(n_max + 1)
    covered = np.sum(np.exp(ns * math.log(9.0) - 9.0 - gammaln(ns + 1.0)))
    assert 1.0 - covered < 1e-12


def test_choose_truncation_oracle_tail():
    p = SdfsParams(alpha0=3.0, r=1.0, m=2)
    dim = sdfs_state(p).dim
    (oracle,) = build_sdfs_oracle([p], [2 * dim])
    tail = 1.0 - float(np.sum(np.abs(oracle.amps[:dim]) ** 2))
    assert tail < 1e-12


@pytest.mark.parametrize("r", [355.5, 400.0, 700.0])
def test_choose_truncation_refuses_an_overflowing_mean(r):
    # cosh^2 r overflows from r ~ 355.6; at 355.5 the sum mu^2 + |nu|^2 does,
    # but at m = 0 the mean |nu|^2 + |alpha0|^2 is finite
    needed = "1.518e+308" if r == 355.5 else "beyond the double range"
    message = f"required truncation {needed} exceeds the cap 511"
    with pytest.raises(ValueError, match=re.escape(message)):
        sdfs_state(SdfsParams(alpha0=1.0, r=r))


def test_a_huge_required_truncation_is_named_in_four_digits():
    with pytest.raises(ValueError) as refusal:
        sdfs_state(SdfsParams(alpha0=1.0, r=300.0))
    assert str(refusal.value) == "required truncation 9.433e+259 exceeds the cap 511"
    assert len(str(refusal.value)) < 100
    with pytest.raises(ValueError, match="^required truncation 601 exceeds the cap 511$"):
        sdfs_state(SdfsParams(alpha0=20.0))  # 400 + 10 sqrt(401)


def test_an_overflowing_mean_is_inf_and_refused_by_sdfs_state():
    # cosh^2 356 overflows: `**` raised OverflowError, products give inf, at m = 0 too
    assert mean_photon_number(SdfsParams(alpha0=1.0, r=356.0, m=1)) == math.inf
    assert mean_photon_number(SdfsParams(alpha0=1.0, r=356.0)) == math.inf
    assert math.isfinite(mean_photon_number(SdfsParams(alpha0=1.0, r=355.5)))
    assert revival_time(SdfsParams(alpha0=1.0, r=356.0)) == math.inf
    # a seed number past the double range: a float product of it raised OverflowError
    assert mean_photon_number(SdfsParams(alpha0=3.0, m=10**400)) == math.inf
    for p in (SdfsParams(alpha0=1.0, r=356.0), SdfsParams(alpha0=1.0, r=356.0, m=1),
              SdfsParams(alpha0=3.0, m=10**400)):
        with pytest.raises(ValueError, match="^required truncation beyond the double range exceeds"):
            sdfs_state(p)


def test_choose_truncation_cap():
    with pytest.raises(ValueError, match="not reachable within the cap 511"):
        sdfs_state(SdfsParams(alpha0=3.0, r=2.5))


def test_choose_truncation_names_lost_precision():
    # The tail past n = 100 is ~1e-55, yet round-off leaves norm^2 about
    # 2e-12 short of 1: the cap is not the cause.
    p = SdfsParams(alpha0=3.0, r=1e-10, phi=0.7, m=5)
    with pytest.raises(ValueError, match=r"lost precision.*by 2\.\d+e-12.*m=5, r=1e-10"):
        sdfs_state(p)


def _preset_and_sweep_states(sweep_workloads, seeds=(0,)):
    states = [figure_preset(name).state for name in PRESET_NAMES]
    for seed in seeds:
        for row in sweep_workloads.sweep_states(seed):
            alpha0 = complex(row["alpha0_re"], row["alpha0_im"])
            states.append(SdfsParams(alpha0=alpha0, r=row["r"], phi=row["phi"], m=row["m"]))
    return states


def test_state_is_the_last_window_sliced(monkeypatch, sweep_workloads):
    # The truncated vector is bit for bit the kernel's amplitudes at n_max, and
    # those of every window the walk tried: each is the head of the widest
    # window, so an amplitude does not depend on the window. A walk that
    # extends its last window instead of rebuilding it from n = 0 relies on this.
    states = _preset_and_sweep_states(sweep_workloads, (0, 1))
    assert len(states) == len(PRESET_NAMES) + 80
    walked = []
    monkeypatch.setattr(sdfs, "_amplitudes", lambda p, w: walked.append(w) or _amplitudes(p, w))
    for p in states:
        walked.clear()
        amps = sdfs_state(p).amps
        cap = _amplitudes(p, DIM_CAP - 1)
        for window in (amps, *(_amplitudes(p, w) for w in (*walked, amps.size - 1))):
            np.testing.assert_array_equal(window.view(np.int64), cap[: window.size].view(np.int64))


def test_truncation_is_the_tail_tol_crossing_or_the_floor(sweep_workloads):
    # Measured: of the 55 states, 13 end at the floor and 42 at the crossing.
    crossings = 0
    for p in _preset_and_sweep_states(sweep_workloads):
        q = sdfs_state(p)
        mean = mean_photon_number(p)
        cum = np.cumsum(np.abs(q.amps) ** 2)
        assert cum[-1] > 1.0 - TAIL_TOL
        if q.dim - 1 != math.ceil(mean + 10.0 * math.sqrt(mean + 1.0)):
            assert cum[-2] <= 1.0 - TAIL_TOL
            crossings += 1
    assert crossings >= 40


def test_every_accepted_state_of_the_probe_grid_matches_the_oracle():
    # 780 states: alpha0 in {0.5, 3, 5, 6i, 2+2i}, r in {0, 1e-10, 1e-4, 0.3, 1, 1.5},
    # phi = 0.4, m = 0..25. A state sdfs_state accepts must be right wherever the
    # oracle can judge it, on a window of twice its dim. Measured: 481 refused, 46
    # past the oracle's window cap, 253 checked; the worst, 4.5e-10, is alpha0 = 6i,
    # r = 0.3, m = 6. The 39 states whose norm^2 overshoots 1 by 1e-12 to 1e-10 are
    # refused: the 30 the oracle could judge were off by 1.3e-11 to 8.1e-9.
    checked, qs = [], []
    for alpha0 in (0.5, 3.0, 5.0, 6j, 2 + 2j):
        for r in (0.0, 1e-10, 1e-4, 0.3, 1.0, 1.5):
            for m in range(26):
                p = SdfsParams(alpha0=alpha0, r=r, phi=0.4, m=m)
                try:
                    q = sdfs_state(p)
                except ValueError:
                    continue
                if 2 * q.dim <= DIM_CAP:
                    checked.append(p)
                    qs.append(q)
    assert len(checked) >= 253
    oracles = build_sdfs_oracle(checked, [2 * q.dim for q in qs])
    for p, q, oracle in zip(checked, qs, oracles):
        deviation = float(np.max(np.abs(q.amps - oracle.amps[: q.dim])))
        assert deviation <= AMPLITUDE_TOL, (p, deviation)

