"""Minimized state fidelity between exact and effective propagators.

The figure of merit is F = min over pure states of |<psi| U^dagger U_eff |psi>|^2.
For 2x2 unitaries this minimum is |Tr(U^dagger U_eff)|^2 / 4, i.e.
cos^2 of half the relative eigenphase gap, which the brute-force Bloch-grid
oracle below confirms.  It is unitarily invariant, so any consistent common
frame gives the same value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitary
from .model import DriveParams, Frame
from .pauli import Unitary2, unitarity_defect
from .propagation import _to_lab_factor, trajectory

__all__ = [
    "FidelitySample",
    "min_fidelity",
    "min_fidelity_bruteforce",
    "fidelity_series",
]


@dataclass(frozen=True)
class FidelitySample:
    """Minimized fidelity at one time; the value must lie in [0, 1 + 1e-12]."""

    t: float
    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.value} outside [0, 1 + 1e-12]")


def _unitary_matrix(u) -> np.ndarray:
    m = u.matrix if isinstance(u, Unitary2) else np.asarray(u, dtype=complex)
    defect = np.max(unitarity_defect(m), initial=0.0)
    if not defect <= 1e-12:
        raise NotUnitary(f"fidelity input has unitarity defect {defect:.3e}")
    return m


def min_fidelity(u, u_eff) -> float | np.ndarray:
    """Worst-case pure-state overlap |Tr(U^dagger U_eff)|^2 / 4.

    Both arguments must be unitary (Unitary2, plain 2x2 arrays or (..., 2, 2)
    stacks, scored pair by pair) and expressed in the same frame.
    """
    a = _unitary_matrix(u)
    b = _unitary_matrix(u_eff)
    return np.abs(np.einsum("...ij,...ij->...", a.conj(), b)) ** 2 / 4.0


def min_fidelity_bruteforce(u, u_eff, grid_n: int = 100) -> float:
    """Direct minimization of |<psi|V|psi>|^2 over a Bloch-sphere grid.

    States |psi> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> on a
    (grid_n | 1) x grid_n (theta, phi) grid, odd so that it holds the equator.
    A grid minimum can only overestimate the true minimum, so this is a
    one-sided oracle for :func:`min_fidelity`.
    """
    if grid_n < 16:
        raise ValueError(f"grid_n must be >= 16, got {grid_n}")
    a = _unitary_matrix(u)
    b = _unitary_matrix(u_eff)
    v = a.conj().T @ b
    theta = np.linspace(0.0, math.pi, grid_n | 1)
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    # <psi|V|psi> = diag(theta) + c s off(phi), evaluated for the whole grid at
    # once in real arithmetic: the float grids stay under malloc's 128 KiB mmap
    # threshold at the default size, so repeated calls fault no fresh pages.
    diag = c * c * v[0, 0] + s * s * v[1, 1]
    off = np.exp(1j * phi) * v[0, 1] + np.exp(-1j * phi) * v[1, 0]
    re = diag.real[:, None] + (c * s)[:, None] * off.real
    im = diag.imag[:, None] + (c * s)[:, None] * off.imag
    return float((re * re + im * im).min())


def fidelity_series(
    h_exact,
    h_eff,
    t_grid,
    dt: float,
    frames: tuple[Frame, Frame] | None = None,
    params: DriveParams | None = None,
) -> list[FidelitySample]:
    """Minimized fidelity of two evolutions from t = 0 along a monotone time grid.

    Both generators are propagated by :func:`trajectory` with maximum step
    size ``dt``; a static ``h_eff`` (PauliCoeffs) is exponentiated exactly.
    By default both Hamiltonians are taken in the same frame; pass
    ``frames=(frame_exact, frame_eff)`` with ``params`` to align the two
    propagators in the lab frame first (any common frame is equivalent by
    unitary invariance).
    """
    if frames is not None and params is None:
        raise ValueError("params are required when frames are given")
    ts = np.asarray(t_grid, dtype=float)
    us = [trajectory(h, ts, dt) for h in (h_exact, h_eff)]
    if frames is not None:
        us = [_to_lab_factor(frm, ts, params) @ u for u, frm in zip(us, frames)]
    values = min_fidelity(*us)
    return [FidelitySample(t=t, value=float(v)) for t, v in zip(ts.tolist(), values)]
