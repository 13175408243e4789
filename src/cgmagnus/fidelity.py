"""Minimized state fidelity between exact and effective propagators.

The figure of merit is F = min over pure states of |<psi| U^dagger U_eff |psi>|^2.
For 2x2 unitaries this minimum is |Tr(U^dagger U_eff)|^2 / 4, i.e.
cos^2 of half the relative eigenphase gap, which the brute-force Bloch-grid
oracle below confirms.  It is unitarily invariant, so any consistent common
frame gives the same value.
"""
from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

from .model import DriveParams, Frame
from .pauli import _checked_unitary
from .propagation import frame_transform, trajectory

__all__ = [
    "min_fidelity",
    "min_fidelity_bruteforce",
    "fidelity_series",
]


def min_fidelity(u, u_eff) -> float | np.ndarray:
    """Worst-case pure-state overlap |Tr(U^dagger U_eff)|^2 / 4.

    Both arguments must be unitary (Unitary2, plain 2x2 arrays or (..., 2, 2)
    stacks, scored pair by pair) and expressed in the same frame.
    """
    a = _checked_unitary(u)
    b = _checked_unitary(u_eff)
    return np.abs(np.einsum("...ij,...ij->...", a.conj(), b)) ** 2 / 4.0


def min_fidelity_bruteforce(u, u_eff, grid_n: int = 100) -> float:
    """Direct minimization of |<psi|V|psi>|^2 over a Bloch-sphere grid.

    States |psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on a
    (grid_n | 1) x grid_n (theta, phi) grid, odd so that it holds the equator.
    A grid minimum can only overestimate the true minimum, so this is a
    one-sided oracle for :func:`min_fidelity`.  The grid is evaluated as one
    rank-4 product: a (grid_n | 1, 4) matrix of theta terms times a
    (4, grid_n) matrix of phi terms, from cached, read-only grid factors.
    """
    if not isinstance(grid_n, numbers.Integral):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    a = _checked_unitary(u)
    b = _checked_unitary(u_eff)
    v = a.conj().T @ b
    c2, s2, cs, e = _bloch_grid(grid_n)
    # <psi|V|psi> = d(theta) + c s o(phi), so |<psi|V|psi>|^2 is
    # |d|^2 + 2 c s (Re d Re o + Im d Im o) + (c s)^2 |o|^2: one rank-4 product
    # over the whole grid.  Its float result stays under malloc's 128 KiB mmap
    # threshold at the default size, so repeated calls fault no fresh pages.
    d = c2 * v[0, 0] + s2 * v[1, 1]
    o = e * v[0, 1] + e.conj() * v[1, 0]
    rows = np.empty((d.size, 4))
    rows[:, 0] = d.real * d.real + d.imag * d.imag
    rows[:, 1] = 2.0 * cs * d.real
    rows[:, 2] = 2.0 * cs * d.imag
    rows[:, 3] = cs * cs
    cols = np.empty((4, o.size))
    cols[0] = 1.0
    cols[1] = o.real
    cols[2] = o.imag
    cols[3] = o.real * o.real + o.imag * o.imag
    return float((rows @ cols).min())


@lru_cache(maxsize=None)
def _bloch_grid(grid_n: int):
    """Read-only grid factors cos^2(theta/2), sin^2(theta/2), their product c s, and e^{i phi}."""
    theta = np.linspace(0.0, math.pi, grid_n | 1)
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    factors = (c * c, s * s, c * s, np.exp(1j * phi))
    for f in factors:
        f.setflags(write=False)
    return factors


def fidelity_series(
    h_exact,
    h_eff,
    t_grid,
    dt: float,
    frames: tuple[Frame, Frame] | None = None,
    params: DriveParams | None = None,
) -> np.ndarray:
    """Minimized fidelity of two evolutions from t = 0, one F per time of a monotone grid.

    Both generators are propagated by :func:`trajectory` with maximum step
    size ``dt`` (a static ``h_eff``, PauliCoeffs, is exponentiated exactly),
    and the two stacks are scored by :func:`min_fidelity`.  By default both
    Hamiltonians are taken in the same frame; pass
    ``frames=(frame_exact, frame_eff)`` with ``params`` to carry the effective
    propagators into the exact frame by :func:`frame_transform` first (F is
    invariant under a common frame factor).
    """
    if frames is not None and params is None:
        raise ValueError("params are required when frames are given")
    ts = np.asarray(t_grid, dtype=float)
    u, u_eff = trajectory((h_exact, h_eff), ts, dt)
    if frames is not None:
        u_eff = frame_transform(u_eff, frames[1], frames[0], ts, params)
    return min_fidelity(u, u_eff)
