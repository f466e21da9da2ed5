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

Array layout: a time axis of T points gives A and B as (T, dim) arrays,
row i holding A_n(ts[i]) for n = 0..dim-1 with dim = n_max + 1. The
reduced field state rho_f = |C><C| + |S><S| lives on a basis one photon
larger, so its components C and S are (T, dim + 1) arrays, as are their
squared moduli from `populations`, which a function that takes them must
get as real arrays: complex ones are a TypeError. Every function here
keeps the leading axes of its inputs.
"""

from __future__ import annotations

import numpy as np

from .fock import NORM_TOL, FockVector


def evolve(
    q: FockVector, ts: np.ndarray, detuning_ratio: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form A_n(t), B_n(t) at the scaled times ts, as (T, dim) arrays;
    |norm^2 - 1| of q must stay within NORM_TOL, as `sdfs_state` ensures."""
    deficit = abs(q.norm_sq() - 1.0)
    if deficit > NORM_TOL:
        raise ValueError(f"initial field amplitudes not normalized (|norm^2 - 1| = {deficit:.3e})")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-D array of scaled times")
    ns = np.arange(q.dim)
    nu = np.sqrt(0.25 * detuning_ratio**2 + ns + 1.0)
    ph = ts[:, None] * nu
    sin_over_nu = np.sin(ph) / nu
    a = q.amps * (np.cos(ph) - 0.5j * detuning_ratio * sin_over_nu)
    b = -1j * q.amps * np.sqrt(ns + 1.0) * sin_over_nu
    return a, b


def field_components(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C and S of rho_f on the basis extended by one photon: C_n = A_n, S_{n+1} = B_n."""
    shape = a.shape[:-1] + (a.shape[-1] + 1,)
    c = np.zeros(shape, dtype=complex)
    s = np.zeros(shape, dtype=complex)
    c[..., :-1] = a
    s[..., 1:] = b
    return c, s


def populations(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|C_n|^2 and |S_n|^2, the populations of |n, e> and |n, g> that the observables read."""
    return np.abs(c) ** 2, np.abs(s) ** 2


def conservation_residual(pc: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """|sum_n (|A_n|^2 + |B_n|^2) - 1| per time from `populations`, 0 when exact."""
    total = np.sum(np.add(pc[..., :-1], ps[..., 1:], dtype=float), axis=-1)
    return np.abs(total - 1.0)
