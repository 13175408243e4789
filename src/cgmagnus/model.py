"""Hamiltonians of the AC-driven two-level system in lab, interaction, and bar frames.

Drive convention used throughout the package: with level splitting ``epsilon``,
drive frequency ``omega`` and real amplitude ``W`` (all angular frequencies,
hbar = 1), the lab-frame Hamiltonian is

    H(t) = -(epsilon/2) sigma3 + W cos(omega t) sigma1

whose drive term splits into a corotating part (W/2)(e^{i omega t} sigma+ + h.c.)
and a counterrotating part (W/2)(e^{-i omega t} sigma+ + h.c.).  In the
interaction picture the corotating part oscillates at the detuning
``delta = epsilon - omega`` and the counterrotating part at ``epsilon + omega``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pauli import PauliCoeffs, _expm_matrix, compose, decompose
from .shifts import bloch_siegert_shift

__all__ = [
    "DriveParams",
    "Frame",
    "h_lab",
    "h_interaction",
    "h_rw_interaction",
    "h_cr_interaction",
    "h_bar",
    "h_rwa",
    "h_rwa_plus_bs",
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


def h_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Drive Hamiltonian conjugated into the interaction picture.

    Equals e^{i H0 t} (H(t) - H0) e^{-i H0 t}; here evaluated in closed form as
    the sum of the corotating and counterrotating parts, which the tests pin
    against the direct matrix conjugation.
    """
    d = p.detuning
    b = p.epsilon + p.omega
    half = 0.5 * p.amplitude
    return PauliCoeffs(
        0.0,
        half * (np.cos(d * t) + np.cos(b * t)),
        half * (np.sin(d * t) + np.sin(b * t)),
        0.0,
    )


def h_rw_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Corotating part in the interaction picture, rotating at the detuning."""
    d = p.detuning
    half = 0.5 * p.amplitude
    return PauliCoeffs(0.0, half * np.cos(d * t), half * np.sin(d * t), 0.0)


def h_cr_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Counterrotating part in the interaction picture, rotating at epsilon + omega."""
    b = p.epsilon + p.omega
    half = 0.5 * p.amplitude
    return PauliCoeffs(0.0, half * np.cos(b * t), half * np.sin(b * t), 0.0)


def _h_cr_lab(t: float, p: DriveParams) -> PauliCoeffs:
    # Lab-frame counterrotating term (W/2)(e^{-i omega t} sigma+ + h.c.).
    half = 0.5 * p.amplitude
    return PauliCoeffs(
        0.0, half * np.cos(p.omega * t), half * np.sin(p.omega * t), 0.0
    )


def u_x(t: float, p: DriveParams) -> np.ndarray:
    """Rotating-frame transformation U_x(t) = e^{-i H0 t} e^{-i H_rw t}.

    ``H_rw`` is the interaction-picture corotating Hamiltonian, which is static
    at resonance; away from resonance its instantaneous value at ``t`` is used.
    Callers relying on the bar frame enforce delta = 0.
    """
    a = np.moveaxis(_expm_matrix(h0_coeffs(p), t), (0, 1), (-2, -1))
    b = np.moveaxis(_expm_matrix(h_rw_interaction(t, p), t), (0, 1), (-2, -1))
    return a @ b


def h_bar(t: float, p: DriveParams) -> PauliCoeffs:
    """Counterrotating term conjugated into the rotating (bar) frame.

    Computed numerically as U_x(t)^dagger H_cr(t) U_x(t) with the lab-frame
    counterrotating term; at delta = 0 this is the exact generator of the
    bar-frame dynamics (the tests pin the two-route propagator equivalence).
    """
    ux = u_x(t, p)
    m = ux.conj().swapaxes(-1, -2) @ compose(_h_cr_lab(t, p)) @ ux
    return decompose(m)


def h_rwa(p: DriveParams) -> PauliCoeffs:
    """Static corotating Hamiltonian (W/2) sigma1 of the resonant interaction picture."""
    return PauliCoeffs(0.0, 0.5 * p.amplitude, 0.0, 0.0)


def h_rwa_plus_bs(p: DriveParams) -> PauliCoeffs:
    """RWA Hamiltonian plus the diagonal Bloch-Siegert shift -(S_BS/2) sigma3."""
    return PauliCoeffs(
        0.0, 0.5 * p.amplitude, 0.0, -0.5 * bloch_siegert_shift(p)
    )
