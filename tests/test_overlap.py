import cmath
import math

import numpy as np
import pytest

from sdfs_jcm.fock import build_sdfs_oracle
from sdfs_jcm.sdfs import SdfsParams, sdfs_overlap, sdfs_state


def _oracle_overlaps(pairs):
    """<p1|p2> of each pair from one stacked oracle call, on a window shared per pair."""
    dims = [2 * max(sdfs_state(p).dim for p in pair) for pair in pairs]
    oracles = build_sdfs_oracle([p for pair in pairs for p in pair], np.repeat(dims, 2).tolist())
    return [np.vdot(u.amps, v.amps) for u, v in zip(oracles[::2], oracles[1::2])]


def test_self_overlap_is_one():
    for p in (
        SdfsParams(),
        SdfsParams(alpha0=1.5 - 0.5j, r=0.8, phi=2.0, m=2),
        SdfsParams(alpha0=3.0, r=1.0, m=0),
    ):
        assert sdfs_overlap(p, p) == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_seed_numbers():
    p1 = SdfsParams(alpha0=1.0 + 0.5j, r=0.6, phi=0.9, m=0)
    p2 = SdfsParams(alpha0=1.0 + 0.5j, r=0.6, phi=0.9, m=2)
    assert abs(sdfs_overlap(p1, p2)) == pytest.approx(0.0, abs=1e-12)


def test_displaced_fock_pair_against_oracle():
    p1 = SdfsParams(alpha0=1.0, m=1)
    p2 = SdfsParams(alpha0=2.0, m=1)
    value = sdfs_overlap(p1, p2)
    assert value == pytest.approx(_oracle_overlaps([(p1, p2)])[0], abs=1e-8)
    # closed displaced-Fock form: <alpha1|alpha2> (1 - |alpha2-alpha1|^2) here
    assert value == pytest.approx(0.0, abs=1e-12)


def test_coherent_pair_closed_form():
    a1, a2 = 0.7 + 0.2j, -1.1 + 0.9j
    value = sdfs_overlap(SdfsParams(alpha0=a1), SdfsParams(alpha0=a2))
    expected = cmath.exp(-0.5 * abs(a1) ** 2 - 0.5 * abs(a2) ** 2 + a1.conjugate() * a2)
    assert value == pytest.approx(expected, abs=1e-13)


def test_squeezed_coherent_pair_against_oracle():
    p1 = SdfsParams(alpha0=1.2, r=0.9, phi=0.3)
    p2 = SdfsParams(alpha0=-0.4 + 0.8j, r=0.5, phi=4.0)
    assert sdfs_overlap(p1, p2) == pytest.approx(_oracle_overlaps([(p1, p2)])[0], abs=1e-9)


def test_mixed_pairs_against_oracle():
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(8):
        p1 = SdfsParams(
            alpha0=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        p2 = SdfsParams(
            alpha0=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        pairs.append((p1, p2))
    for (p1, p2), reference in zip(pairs, _oracle_overlaps(pairs)):
        assert sdfs_overlap(p1, p2) == pytest.approx(reference, abs=1e-8)


def test_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p1 = SdfsParams(
            alpha0=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        p2 = SdfsParams(
            alpha0=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        forward = sdfs_overlap(p1, p2)
        backward = sdfs_overlap(p2, p1)
        assert forward == pytest.approx(backward.conjugate(), abs=1e-10)


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p1 = SdfsParams(
            alpha0=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        p2 = SdfsParams(
            alpha0=complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            r=rng.uniform(0, 1.2),
            phi=rng.uniform(0, 2 * math.pi),
            m=int(rng.integers(0, 4)),
        )
        assert abs(sdfs_overlap(p1, p2)) <= 1.0 + 1e-10


@pytest.mark.parametrize("r", [10.0, 18.5, 20.0])
def test_equal_large_squeezes_refuse_the_cancelling_w(r):
    # W = mu1 mu2 - nu1* nu2 is exactly 1 here, but its rounding error
    # grows like e^{2r}: it reads 1.5 at r = 18.5 and 0 at r = 20
    p = SdfsParams(r=r, m=1)
    with pytest.raises(ValueError, match="lost precision"):
        sdfs_overlap(p, p)


def test_overflowing_w_is_refused():
    p1 = SdfsParams(alpha0=1.0, r=400.0, phi=0.0)
    p2 = SdfsParams(alpha0=1.0, r=400.0, phi=math.pi)
    with pytest.raises(ValueError, match="lost precision"):
        sdfs_overlap(p1, p2)


def test_moderate_squeeze_self_overlap_stays_inside_the_budget():
    p = SdfsParams(alpha0=0.5, r=5.0, phi=1.0, m=1)
    assert sdfs_overlap(p, p) == pytest.approx(1.0, abs=1e-10)
