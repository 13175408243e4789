"""Time evolution operators, frame conversions, and the Floquet splitting oracle.

The integrator is a piecewise-constant midpoint rule with exact SU(2)
exponentials per step: unconditionally unitary, second-order accurate, and
cheap for 2x2 generators.  Reference solutions are self-refined (a run at
several times the step count serves as ground truth), with convergence-order
checks in the tests guarding against systematic bias.

A generator is a function of an ndarray of times.  It returns PauliCoeffs
whose fields broadcast to that shape, or a Hermitian stack of shape
``ts.shape + (2, 2)``; a constant result is broadcast.  A static generator (a
PauliCoeffs or Hermitian matrix) is exponentiated exactly.  The step policy
lives here: ``max_step`` per shortest period and ``_step_count`` per span.

Every propagator comes from ``_product``, which reduces inside intervals and
scans across them.  Each interval's steps fill rows of width w (the lower
median of the non-empty step counts, at most _BLOCK); identities pad a short
last row, at most tripling the work, as half the intervals fill a row.  A chunk
of _BLOCK // w rows calls the generator and the exponential once, multiplies
each row by a pairwise tree and scans the row products after the carry, on
(2, 2, ...) stacks with the matrix axes first for pauli._mul.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplittingWarning, UnknownFramePair
from .model import DriveParams, Frame, h0_coeffs, h_lab, u_x
from .pauli import ID2, Unitary2, _expm_matrix, _mul, as_coeffs

__all__ = [
    "PropagationSpec",
    "propagate",
    "propagate_coarse",
    "trajectory",
    "frame_transform",
    "floquet_splitting",
    "default_floquet_steps",
    "max_step",
]

# Steps per shortest period 2 pi/(epsilon + omega); the CLI's default too.
DEFAULT_STEPS_PER_PERIOD = 200

# Padded steps per chunk; bounds the chunk memory.  Roundoff in a row's tree
# grows with log2(w), and one polar projection per chunk keeps the defect far
# below the 1e-12 Unitary2 invariant.  2048 beat 1024 on the dispersive run.
_BLOCK = 2048


@dataclass(frozen=True)
class PropagationSpec:
    """Uniform-step propagation over [t0, t1] with the midpoint-exponential method."""

    t0: float
    t1: float
    steps: int

    def __post_init__(self):
        for name, t in (("t0", self.t0), ("t1", self.t1)):
            if not math.isfinite(t):
                raise ValueError(f"{name} must be finite, got {t}")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.t1 < self.t0:
            raise ValueError(f"t1 = {self.t1} must be >= t0 = {self.t0}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


def _scan(m: np.ndarray) -> np.ndarray:
    """Running products m[..., k] @ ... @ m[..., 0] of a (2, 2, n) stack: Blelloch's work-efficient scan."""
    n = m.shape[-1]
    if n == 1:
        return m
    odd = _scan(_mul(m[..., 1::2], m[..., 0 : n - 1 : 2]))
    out = m.copy()
    out[..., 1::2] = odd
    out[..., 2::2] = _mul(m[..., 2::2], odd[..., : (n - 1) // 2])
    return out


def _step_count(span, dt):
    """ceil(span / dt) as a float array, a ratio within 1e-9 (relative) of an integer counting as that integer."""
    ratio = np.divide(span, dt)
    nearest = np.round(ratio)
    return np.where(np.abs(ratio - nearest) <= 1e-9 * nearest, nearest, np.ceil(ratio))


def max_step(p: DriveParams, steps_per_period: int) -> float:
    """Step size 2 pi/((epsilon + omega) * steps_per_period): steps_per_period per shortest period."""
    return 2.0 * math.pi / (p.epsilon + p.omega) / steps_per_period


def _product(h, edges, steps) -> np.ndarray:
    """U(edges[i + 1], edges[0]) for every interval i, shape (len(steps), 2, 2).

    Interval i is spanned by steps[i] midpoint factors exp(-i h(t_k) dt_i),
    later steps to the left; an interval with no steps repeats the previous
    result.  Rows and chunks are laid out as the module docstring says; a
    static ``h`` is exponentiated exactly at edges[1:] - edges[0].
    """
    edges = np.asarray(edges, dtype=float)
    if not callable(h):
        return _expm_matrix(as_coeffs(h), edges[1:] - edges[0])
    steps = np.asarray(steps, dtype=int)
    dts = np.diff(edges) / np.maximum(steps, 1)
    counts = np.sort(steps[steps > 0])
    w = min(int(counts[(len(counts) - 1) // 2]), _BLOCK) if len(counts) else 1
    rows = -(-steps // w)
    stop = np.cumsum(rows)  # one past each interval's last row
    ends, u = [ID2[..., None]], ID2[..., None]
    for start in range(0, int(rows.sum()), _BLOCK // w):
        r = np.arange(start, min(start + _BLOCK // w, stop[-1]))
        i = np.searchsorted(stop, r, side="right")
        first = (r - stop[i] + rows[i]) * w  # index in its interval of each row's first step
        real = np.arange(w) < (steps[i] - first)[:, None]
        row, col = np.nonzero(real)
        dt = dts[i[row]]
        e = _expm_matrix(as_coeffs(h(edges[i[row]] + (first[row] + col + 0.5) * dt)), dt)
        e = e.transpose(1, 2, 0)  # back to the (2, 2, n) buffer
        m = np.multiply.outer(ID2, np.ones(real.shape))  # identity padding
        for entry, value in zip(m.reshape((4,) + real.shape), e.reshape(4, -1)):
            entry[real] = value  # one 2x2 entry at a time: numpy's mask path is slow under leading axes
        while m.shape[-1] > 1:  # pairwise tree along the rows, later steps to the left
            pairs = _mul(m[..., 1::2], m[..., :-1:2])
            if m.shape[-1] % 2:
                pairs[..., -1:] = _mul(m[..., -1:], pairs[..., -1:])
            m = pairs
        m = _scan(np.concatenate((u, m[..., 0]), axis=-1))
        m = m[..., np.append(np.flatnonzero(r == stop[i] - 1) + 1, -1)]
        m = _mul(m, 1.5 * ID2[..., None] - 0.5 * _mul(m.conj().swapaxes(0, 1), m))  # first-order polar projection
        ends.append(m[..., :-1])
        u = m[..., -1:]
    return np.moveaxis(np.concatenate(ends, axis=-1)[..., np.cumsum(steps > 0)], -1, 0)


def propagate(h, spec: PropagationSpec) -> Unitary2:
    """Time-ordered propagator of h(t) over [t0, t1].

    Product of per-step factors exp(-i h(midpoint) dt), later steps to the
    left.  Each factor is exactly unitary; the global error is O(dt^2).  A
    static ``h`` is exponentiated exactly.
    """
    return Unitary2(_product(h, (spec.t0, spec.t1), (spec.steps,))[0])


propagate_coarse = propagate  # the name for effective Hamiltonians, static or not


def trajectory(h, ts, dt: float) -> np.ndarray:
    """Propagators U(t, 0), shape (len(ts), 2, 2), on a non-negative monotone grid.

    A callable ``h`` advances between grid times in _step_count(gap, dt)
    midpoint steps (at least one); a static PauliCoeffs / Hermitian matrix is
    exponentiated exactly at each t.
    """
    ts = np.asarray(ts, dtype=float)
    gaps = np.diff(ts, prepend=0.0)
    if not np.all((gaps >= 0) & np.isfinite(gaps)):
        raise ValueError("t_grid must be finite, non-negative and monotone non-decreasing")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    steps = np.maximum(_step_count(gaps, dt), gaps > 0)
    return _product(h, np.concatenate(([0.0], ts)), steps)


def _to_lab_factor(frame: Frame, t, p: DriveParams) -> np.ndarray:
    # L with |psi_lab> = L |psi_frame>; an array t gives a (..., 2, 2) stack.
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


def default_floquet_steps(p: DriveParams, steps_per_period: int = DEFAULT_STEPS_PER_PERIOD) -> int:
    """Steps over one drive period at the step ``max_step(p, steps_per_period)``."""
    return int(_step_count(p.drive_period, max_step(p, steps_per_period)))


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
    u = propagate(lambda t: h_lab(t, p), PropagationSpec(0.0, period, steps))
    lam = np.linalg.eigvals(u.matrix)
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
