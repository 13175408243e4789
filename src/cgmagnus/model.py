"""Hamiltonians of the AC-driven two-level system in lab, interaction, and bar frames.

Drive convention used throughout the package: with level splitting ``epsilon``,
drive frequency ``omega`` and real amplitude ``W`` (all angular frequencies,
hbar = 1), the lab-frame Hamiltonian is

    H(t) = -(epsilon/2) sigma3 + W cos(omega t) sigma1

whose drive term splits into a corotating part (W/2)(e^{i omega t} sigma+ + h.c.)
and a counterrotating part (W/2)(e^{-i omega t} sigma+ + h.c.).  In the
interaction picture the corotating part oscillates at the detuning
``delta = epsilon - omega`` and the counterrotating part at ``epsilon + omega``.
Each is a rotating term A (cos(nu t) sigma1 + sin(nu t) sigma2), written once
as ``_rotating``.  This module imports only ``pauli``; the Hamiltonians that
contain a level shift live in ``shifts``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pauli import PauliCoeffs, _expm_matrix, compose, decompose

__all__ = [
    "DriveParams",
    "Frame",
    "h_lab",
    "h_interaction",
    "h_rw_interaction",
    "h_cr_interaction",
    "h_bar",
    "h_rwa",
    "h0_coeffs",
    "u_x",
]


@dataclass(frozen=True)
class DriveParams:
    """Physical drive parameters: splitting epsilon, frequency omega, amplitude W.

    All three are angular frequencies; ``amplitude`` is real and non-negative
    (a complex drive phase only redefines the time origin).
    """

    epsilon: float
    omega: float
    amplitude: float

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and > 0, got {self.omega}")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")

    @property
    def detuning(self) -> float:
        """delta = epsilon - omega, derived on access (never stored)."""
        return self.epsilon - self.omega

    @property
    def drive_period(self) -> float:
        return 2.0 * math.pi / self.omega


class Frame(Enum):
    """Reference frames for propagators.

    All frames coincide at t = 0; the bar frame is defined with respect to the
    time origin t0 = 0 where U_x(0) = 1.
    """

    LAB = "lab"
    INTERACTION = "interaction"
    BAR = "bar"


def h0_coeffs(p: DriveParams) -> PauliCoeffs:
    """Bare Hamiltonian H0 = -(epsilon/2) sigma3."""
    return PauliCoeffs(0.0, 0.0, 0.0, -0.5 * p.epsilon)


def h_lab(t: float, p: DriveParams) -> PauliCoeffs:
    """Full lab-frame Hamiltonian H0 + W cos(omega t) sigma1."""
    return PauliCoeffs(
        0.0, p.amplitude * np.cos(p.omega * t), 0.0, -0.5 * p.epsilon
    )


def _rotating(t: float, nu: float, amplitude: float) -> PauliCoeffs:
    # amplitude * (cos(nu t) sigma1 + sin(nu t) sigma2)
    phase = nu * t
    return PauliCoeffs(0.0, amplitude * np.cos(phase), amplitude * np.sin(phase), 0.0)


def h_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Drive Hamiltonian conjugated into the interaction picture.

    Equals e^{i H0 t} (H(t) - H0) e^{-i H0 t}; here evaluated in closed form as
    the sum of the corotating and counterrotating parts, which the tests pin
    against the direct matrix conjugation.
    """
    return h_rw_interaction(t, p) + h_cr_interaction(t, p)


def h_rw_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Corotating part in the interaction picture, rotating at the detuning."""
    return _rotating(t, p.detuning, 0.5 * p.amplitude)


def h_cr_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Counterrotating part in the interaction picture, rotating at epsilon + omega."""
    return _rotating(t, p.epsilon + p.omega, 0.5 * p.amplitude)


def u_x(t: float, p: DriveParams) -> np.ndarray:
    """Rotating-frame transformation U_x(t) = e^{-i H0 t} e^{-i H_rw t}.

    ``H_rw`` is the interaction-picture corotating Hamiltonian, which is static
    at resonance; away from resonance its instantaneous value at ``t`` is used.
    Callers relying on the bar frame enforce delta = 0.
    """
    return _expm_matrix(h0_coeffs(p), t) @ _expm_matrix(h_rw_interaction(t, p), t)


def h_bar(t: float, p: DriveParams) -> PauliCoeffs:
    """Counterrotating term conjugated into the rotating (bar) frame.

    Computed numerically as U_x(t)^dagger H_cr(t) U_x(t) with the lab-frame
    counterrotating term (W/2)(e^{-i omega t} sigma+ + h.c.); at delta = 0 this
    is the exact generator of the bar-frame dynamics (the tests pin the
    two-route propagator equivalence).
    """
    ux = u_x(t, p)
    m = ux.conj().swapaxes(-1, -2) @ compose(_rotating(t, p.omega, 0.5 * p.amplitude)) @ ux
    return decompose(m)


def h_rwa(p: DriveParams) -> PauliCoeffs:
    """Static corotating Hamiltonian (W/2) sigma1 of the resonant interaction picture."""
    return PauliCoeffs(0.0, 0.5 * p.amplitude, 0.0, 0.0)
