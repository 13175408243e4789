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
as ``_rotating``, and ``DriveParams.is_resonant`` alone decides delta = 0.
This module imports only ``pauli``; the Hamiltonians that contain a level
shift live in ``shifts``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pauli import PauliCoeffs, _expm_matrix

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

# |delta| up to this multiple of omega counts as exact resonance.
_RESONANCE_TOL = 1e-12


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
    def is_resonant(self) -> bool:
        """|delta| <= 1e-12 omega: the drive is resonant up to roundoff."""
        return abs(self.detuning) <= _RESONANCE_TOL * self.omega

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

    Equals e^{i H0 t} (H(t) - H0) e^{-i H0 t}: the drive W cos(omega t) sigma1
    seen from the frame rotating at epsilon.  This one rotating term is the sum
    of the corotating and counterrotating parts, since
    cos(delta t) + cos((epsilon + omega) t) = 2 cos(epsilon t) cos(omega t)
    (likewise for sin); the tests pin both forms against the direct matrix
    conjugation.
    """
    return _rotating(t, p.epsilon, p.amplitude * np.cos(p.omega * t))


def h_rw_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Corotating part in the interaction picture, rotating at the detuning."""
    return _rotating(t, p.detuning, 0.5 * p.amplitude)


def h_cr_interaction(t: float, p: DriveParams) -> PauliCoeffs:
    """Counterrotating part in the interaction picture, rotating at epsilon + omega."""
    return _rotating(t, p.epsilon + p.omega, 0.5 * p.amplitude)


def u_x(t: float, p: DriveParams) -> np.ndarray:
    """Rotating-frame transformation U_x(t) = e^{-i H0 t} e^{-i H_rw t}.

    ``H_rw`` is the interaction-picture corotating Hamiltonian, static at
    resonance, where U_x is the bar frame.  Off resonance its instantaneous
    value H_rw(t) is used, so U_x(t) is a frame change by that operator.
    """
    return _expm_matrix(h0_coeffs(p), t) @ _expm_matrix(h_rw_interaction(t, p), t)


def h_bar(t: float, p: DriveParams) -> PauliCoeffs:
    """Lab-frame counterrotating term (W/2)(e^{-i omega t} sigma+ + h.c.) seen through U_x(t).

    U_x^dagger H_cr U_x is ``h_cr_interaction`` rotated by -W t about the
    corotating axis (cos delta t, sin delta t, 0) (Rodrigues), in closed form

        _rotating(t, epsilon + omega, (W/2) cos W t)
        + _rotating(t, delta, (W/2) cos 2 omega t (1 - cos W t))
        - (W/2) sin 2 omega t sin W t sigma3.

    It generates the bar-frame dynamics at delta = 0 only.
    """
    half, wt, two = 0.5 * p.amplitude, p.amplitude * t, 2.0 * p.omega * t
    return (
        _rotating(t, p.epsilon + p.omega, half * np.cos(wt))
        + _rotating(t, p.detuning, half * np.cos(two) * (1.0 - np.cos(wt)))
        + PauliCoeffs(0.0, 0.0, 0.0, -half * np.sin(two) * np.sin(wt))
    )


def h_rwa(p: DriveParams) -> PauliCoeffs:
    """Static corotating Hamiltonian (W/2) sigma1 of the resonant interaction picture."""
    return PauliCoeffs(0.0, 0.5 * p.amplitude, 0.0, 0.0)
