"""Exact Jaynes-Cummings evolution in the interaction picture.

A two-level atom starting in its excited state couples to one cavity
mode under the rotating-wave approximation. With initial field
amplitudes q_n the state at scaled time lambda*t is

    |psi(t)> = sum_n A_n(t) |n, e> + B_n(t) |n+1, g>,

    A_n = q_n [cos(lt nu_n) - i (Delta/2lambda) sin(lt nu_n)/nu_n],
    B_n = -i q_n sqrt(n+1) sin(lt nu_n)/nu_n,
    nu_n = sqrt(Delta^2/(4 lambda^2) + n + 1).

Time is always the scaled variable lambda*t; the detuning enters only
through Delta/lambda. Probability conservation |A_n|^2 + |B_n|^2 = |q_n|^2
holds identically and is asserted by the tests, never enforced at
runtime, so formula errors surface instead of being papered over.

Array layout: `evolve` returns the field vectors C and S of the reduced
state rho_f = |C><C| + |S><S|, on a basis one photon larger than q, as
(T, dim + 1) arrays with dim = n_max + 1: row i holds C_n = A_n(ts[i])
and S_{n+1} = B_n(ts[i]) for n < dim, and C_dim = S_0 = 0. Their squared
moduli from `populations` keep that layout; a function that takes them
must get them as real arrays: complex ones are a TypeError. Every
function here keeps the leading axes of its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import NORM_TOL, FockVector

# Largest eps * t * nu_max, the rounding error of the phases t * nu_n that
# `evolve` forms. Against mpmath, A_5 of a coherent alpha0 = 1 state was off
# by 3.7e-13 at t = 1e6 and by 1.7e-5 at t = 1e12; the residuals cannot see it.
PHASE_BUDGET = 1e-10


def evolve(
    q: FockVector, ts: np.ndarray, detuning_ratio: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """C and S at the scaled times ts, as (T, dim + 1) arrays from the closed-form
    A_n(t), B_n(t); |norm^2 - 1| of q must stay within NORM_TOL, as `sdfs_state` ensures.
    Refuses (ValueError) a non-finite detuning or t, and phases t * nu_n off by > PHASE_BUDGET."""
    deficit = abs(q.norm_sq() - 1.0)
    if not deficit <= NORM_TOL:
        raise ValueError(f"initial field amplitudes not normalized (|norm^2 - 1| = {deficit:.3e})")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-D array of scaled times")
    t = float(np.max(np.abs(ts), initial=0.0))
    for name, value in ("detuning_ratio", detuning_ratio), ("t", t):
        if not math.isfinite(value):
            raise ValueError(f"{name} = {value:g} is not finite")
    # inf, not an OverflowError, where Delta^2 overflows
    nu_max = math.sqrt(0.25 * (detuning_ratio * detuning_ratio) + q.dim)
    lost = math.ulp(1.0) * t * nu_max
    if not lost <= PHASE_BUDGET:  # nan where t = 0 meets nu_max = inf
        culprit = (f"t = {t:g}" if math.ulp(1.0) * nu_max <= PHASE_BUDGET
                   else "detuning_ratio is too large: even t = 1")  # or nu_max = inf
        raise ValueError(
            f"{culprit} loses phase precision at detuning_ratio = {detuning_ratio:g}: "
            f"eps * t * nu_max = {lost:.3e} exceeds {PHASE_BUDGET:g} at n_max = {q.dim - 1}"
        )
    ns = np.arange(q.dim)
    nu = np.sqrt(0.25 * detuning_ratio**2 + ns + 1.0)
    ph = ts[:, None] * nu
    sin_over_nu = np.sin(ph) / nu
    c, s = np.zeros((2, ts.size, q.dim + 1), dtype=complex)
    c[:, :-1] = q.amps * (np.cos(ph) - 0.5j * detuning_ratio * sin_over_nu)
    s[:, 1:] = -1j * q.amps * np.sqrt(ns + 1.0) * sin_over_nu
    return c, s


def populations(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|C_n|^2 and |S_n|^2, the populations of |n, e> and |n, g> that the observables read."""
    return np.abs(c) ** 2, np.abs(s) ** 2


def conservation_residual(pc: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """|sum_n (|A_n|^2 + |B_n|^2) - 1| per time from `populations`, 0 when exact."""
    total = np.sum(np.add(pc[..., :-1], ps[..., 1:], dtype=float), axis=-1)
    return np.abs(total - 1.0)
