"""Time evolution operators, frame conversions, and the Floquet splitting oracle.

The integrator is a piecewise-constant midpoint rule with exact SU(2)
exponentials per step: unconditionally unitary, second-order accurate, and
cheap for 2x2 generators.  Reference solutions are self-refined (a run at
several times the step count serves as ground truth), with convergence-order
checks in the tests guarding against systematic bias.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplittingWarning, UnknownFramePair
from .model import DriveParams, Frame, h0_coeffs, h_lab, u_x
from .pauli import ID2, PauliCoeffs, Unitary2, _expm_matrix, as_coeffs

__all__ = [
    "PropagationSpec",
    "propagate",
    "propagate_coarse",
    "trajectory",
    "frame_transform",
    "floquet_splitting",
    "default_floquet_steps",
]

DEFAULT_STEPS_PER_PERIOD = 200

# Steps exponentiated and multiplied per batch; bounds the batch memory.
# Roundoff in a pairwise product grows with log2(_BLOCK), and one projection
# per block keeps the defect far below the 1e-12 Unitary2 invariant.
_BLOCK = 1024


@dataclass(frozen=True)
class PropagationSpec:
    """Uniform-step propagation over [t0, t1] with the midpoint-exponential method."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        if self.t1 < self.t0:
            raise ValueError(f"t1 = {self.t1} must be >= t0 = {self.t0}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def _product(h, t0: float, t1: float, steps: int, u: np.ndarray = ID2) -> np.ndarray:
    """exp(-i h(t_steps) dt) ... exp(-i h(t_1) dt) @ u at the step midpoints t_k.

    The midpoint samples of each block are exponentiated in one call and
    multiplied pairwise, later steps to the left.
    """
    dt = (t1 - t0) / steps
    for start in range(0, steps, _BLOCK):
        tm = t0 + (np.arange(start, min(start + _BLOCK, steps)) + 0.5) * dt
        hs = [as_coeffs(h(t)) for t in tm.tolist()]
        c = np.array([(p.c0, p.c1, p.c2, p.c3) for p in hs])
        m = _expm_matrix(PauliCoeffs(*c.T), dt)
        while len(m) > 1:
            if len(m) % 2:
                m = np.concatenate((m, ID2[None]))
            m = m[1::2] @ m[0::2]
        u = m[0] @ u
        u = u @ (1.5 * ID2 - 0.5 * (u.conj().T @ u))  # first-order polar projection
    return u


def propagate(h, spec: PropagationSpec) -> Unitary2:
    """Time-ordered propagator of h(t) over [t0, t1].

    Product of per-step factors exp(-i h(midpoint) dt), later steps to the
    left.  Each factor is exactly unitary; the global error is O(dt^2).
    """
    return Unitary2(_product(h, spec.t0, spec.t1, spec.steps))


def propagate_coarse(h_eff, spec: PropagationSpec) -> Unitary2:
    """Propagator of an effective Hamiltonian; static input short-circuits.

    ``h_eff`` may be a callable of time (handled exactly like
    :func:`propagate`) or a single PauliCoeffs / Hermitian matrix, in which
    case one exact exponential over the full interval is returned.
    """
    if callable(h_eff):
        return propagate(h_eff, spec)
    return Unitary2(_expm_matrix(as_coeffs(h_eff), spec.t1 - spec.t0))


def trajectory(h, ts, dt: float) -> np.ndarray:
    """Propagators U(t, 0), shape (len(ts), 2, 2), on a non-negative monotone grid.

    A callable ``h`` advances between grid times in ceil(gap / dt) midpoint
    steps (at least one); a static PauliCoeffs / Hermitian matrix is
    exponentiated exactly at each t.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.diff(ts, prepend=0.0) >= 0):
        raise ValueError("t_grid must be non-negative and monotone non-decreasing")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not callable(h):
        return _expm_matrix(as_coeffs(h), ts)
    out = np.empty((ts.size, 2, 2), dtype=complex)
    u = ID2
    t_prev = 0.0
    for i, t in enumerate(ts.tolist()):
        if t > t_prev:
            u = _product(h, t_prev, t, max(1, math.ceil((t - t_prev) / dt)), u)
            t_prev = t
        out[i] = u
    return out


def _to_lab_factor(frame: Frame, t: float, p: DriveParams) -> np.ndarray:
    # L with |psi_lab> = L |psi_frame>.
    if frame is Frame.LAB:
        return ID2
    if frame is Frame.INTERACTION:
        return _expm_matrix(h0_coeffs(p), t)
    if frame is Frame.BAR:
        return u_x(t, p)
    raise UnknownFramePair(f"unknown frame {frame!r}")


def frame_transform(
    u: Unitary2, frm: Frame, to: Frame, t: float, p: DriveParams
) -> Unitary2:
    """Re-express a propagator U(t, 0) from frame ``frm`` in frame ``to``.

    All frames coincide at t = 0, so propagators transform with a single
    factor at the endpoint: U_to = L_to(t)^dagger L_frm(t) U.  Composing
    A->B then B->C equals A->C by construction.
    """
    if not isinstance(frm, Frame) or not isinstance(to, Frame):
        raise UnknownFramePair(f"unsupported frame pair ({frm!r}, {to!r})")
    if frm is to:
        return u
    l_from = _to_lab_factor(frm, t, p)
    l_to = _to_lab_factor(to, t, p)
    return Unitary2(l_to.conj().T @ l_from @ u.matrix)


def default_floquet_steps(p: DriveParams) -> int:
    """Step count giving DEFAULT_STEPS_PER_PERIOD per shortest period over one drive period."""
    shortest = min(2.0 * math.pi / p.omega, 2.0 * math.pi / (p.epsilon + p.omega))
    return max(1, math.ceil(DEFAULT_STEPS_PER_PERIOD * p.drive_period / shortest))


def floquet_splitting(p: DriveParams, steps: int | None = None) -> float:
    """Quasienergy splitting of the driven system, folded into [0, omega/2].

    Diagonalizes the one-period lab-frame propagator (monodromy matrix); the
    eigenphase gap per period is reduced modulo omega into the first Brillouin
    zone and the minimal positive splitting is returned.  Emits
    DegenerateSplittingWarning when the eigenphases coincide within 1e-10.
    """
    if steps is None:
        steps = default_floquet_steps(p)
    period = p.drive_period
    u = _product(lambda t: h_lab(t, p), 0.0, period, steps)
    lam = np.linalg.eigvals(u)
    # Relative eigenphase, insensitive to the global phase convention.
    rel = abs(np.angle(lam[0] * np.conj(lam[1])))
    if rel < 1e-10:
        warnings.warn(
            "Floquet eigenphases are degenerate within 1e-10",
            DegenerateSplittingWarning,
            stacklevel=2,
        )
    gap = rel / period
    gap = math.fmod(gap, p.omega)
    return min(gap, p.omega - gap)
