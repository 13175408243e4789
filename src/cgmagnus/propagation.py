"""Time evolution operators, frame conversions, and the Floquet splitting oracle.

The integrator is a piecewise-constant midpoint rule with exact SU(2)
exponentials per step: unconditionally unitary, second-order accurate, and
cheap for 2x2 generators.  Reference solutions are self-refined (a run at
several times the step count serves as ground truth), with convergence-order
checks in the tests guarding against systematic bias.

A generator is a function of an ndarray of times.  It returns PauliCoeffs
whose fields broadcast to that shape, or a Hermitian stack of shape
``ts.shape + (2, 2)``; a constant result is broadcast.  ``_product`` treats
each kind of generator as stated here and nowhere else.  A static generator
(a PauliCoeffs or Hermitian matrix) is exponentiated exactly.  Every callable
is a pair (nu, B) on one shared lattice: a ``RotatingGenerator``
h(t) = R(nu t) B(t) R(nu t)^dagger, with R(theta) = e^{-i theta sigma3 / 2},
is never called, and a plain callable is the case nu = 0, B = h.  The step
policy lives here: ``max_step`` per shortest period and ``_step_count`` per
span.

``_product`` reduces inside intervals and scans across them.  Each
interval's steps fill rows of width w: the lower median m of the non-empty
step counts, split into ceil(m / _BLOCK) equal rows, so w is at most
_BLOCK.  A chunk of _BLOCK // w rows is a dense (rows, w) lattice of steps,
the same for every chunk: a column past its row's last step is a dt = 0 step,
the identity, at the row's last midpoint, so the generator sees only times
inside the grid.  Padding at most triples the work, as half the intervals fill
a row.  The midpoint times are broadcast from the row starts and the column
offsets, and each chunk calls each time-dependent body and the exponential
once.  A pairwise tree multiplies each chunk's rows down to one product per
row, written into one buffer of every row that starts with the identity.
After the last chunk every static body's rows are filled in closed form and
every rotating row is turned into the lab frame (below); then the buffer is
scanned once and re-projected once.  Interval i is read at stop[i], one past
its last row.  Memory is O(_BLOCK) per chunk plus O(rows): the buffer, the
row phases and the scan's temporaries, about the buffer's size again.

In the rotating frame the midpoint step at m_k = s + (k + 1/2) d of a row
starting at s is R(nu m_k) E_k R(-nu m_k) with E_k = exp(-i B(m_k) d), and
neighbours meet as R(-nu d).  So a row of w columns, the dt = 0 pads
included, multiplies to

    R(nu (s + (w + 1/2) d)) P R(-nu (s + d/2)),   P = prod_k R(-nu d) E_k,

and each factor of P is E_k's pair times the one row phase e^{i nu d / 2}.
On P's pair (a, b) the outer factors are a e^{-i nu w d / 2} and
b e^{-i nu (2 s + (w + 1) d) / 2}.  These are the lab-frame factors
regrouped, so the numbers match stepping h itself up to rounding, while the
generator calls evaluate only the slow body.  A static body B is not stepped:
a row of n real steps has P = R(-nu d)^(w - n) F^n with F = R(-nu d) E.
F = cos x - i sin x n.sigma with the pair (a, b) has the power
a_n = cos nx + i Im(a) sin nx / sin x, b_n = b sin nx / sin x, the pads
multiply it by e^{i nu (w - n) d / 2}, and its phase is c0 n d: one closed
form per row in place of w steps.

Each step factor is exp(-i c0 dt) times an SU(2) matrix [[a, b], [-b*, a*]],
so the primitive works on (2, ...) stacks of the Cayley-Klein pairs (a, b),
multiplied by pauli._mul, and sums the U(1) phase c0 dt per row apart, in
real arithmetic, with a compensated running sum across rows.  Only the
interval ends are assembled into (n, 2, 2) matrices, each multiplied by its
accumulated phase once.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSplittingWarning, UnknownFramePair
from .model import DriveParams, Frame, RotatingGenerator, h0_coeffs, h_lab, u_x
from .pauli import (
    _TINY,
    ID2,
    Unitary2,
    _checked_unitary,
    _expm_matrix,
    _expm_pair,
    _mul,
    _pair_matrix,
    as_coeffs,
)

__all__ = [
    "PropagationSpec",
    "propagate",
    "trajectory",
    "frame_transform",
    "floquet_splitting",
    "default_floquet_steps",
    "max_step",
]

# Steps per shortest period 2 pi/(epsilon + omega); the CLI's default too.
DEFAULT_STEPS_PER_PERIOD = 200

# Padded steps per generator call, and the widest row: bounds the chunk
# memory, and roundoff in a row's tree grows with log2(w).  Against 4096 on
# the one-pass lattice (paired in-process passes of the perfbench workloads,
# 110 pairs each, 2-vCPU host, numpy 2.4), 2048 was slower on dispersive (+1.2 ms a pass of
# 10.3), resonant_dense (+0.6 ms) and oracles (+0.8 ms); 8192 was faster on
# dispersive (-0.9 ms, in 90 of 110 pairs), level on the other two, and
# faulted 1.5 times the pages of a dispersive pass.
_BLOCK = 4096


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
    """Running products m[..., k] @ ... @ m[..., 0] along the last axis of a (2, ..., n) pair stack, in place: Blelloch's work-efficient scan."""
    n = m.shape[-1]
    if n > 1:
        odd = _scan(_mul(m[..., 1::2], m[..., 0 : n - 1 : 2]))
        m[..., 2::2] = _mul(m[..., 2::2], odd[..., : (n - 1) // 2])
        m[..., 1::2] = odd
    return m


def _reproject(ab: np.ndarray) -> None:
    """First-order polar projection of a (2, ...) pair stack, in place; the Gram matrix of a pair is (|a|^2 + |b|^2) 1."""
    ab *= 1.5 - 0.5 * (ab.real * ab.real + ab.imag * ab.imag).sum(axis=0)


def _power(ab: np.ndarray, n) -> None:
    """n-th powers of a (2, ...) pair stack in place, from each pair's rotation angle x (module docstring)."""
    a, b = ab
    sin_x = np.sqrt(a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    nx = n * np.arctan2(sin_x, a.real)
    ratio = np.sin(nx) / np.maximum(sin_x, _TINY)  # sin nx / sin x; at sin x = 0 it multiplies zeros
    a.real = np.cos(nx)
    a.imag *= ratio
    b *= ratio


def _step_count(span, dt):
    """ceil(span / dt) as a float array, a ratio within 1e-9 (relative) of an integer counting as that integer."""
    ratio = np.divide(span, dt)
    nearest = np.round(ratio)
    return np.where(np.abs(ratio - nearest) <= 1e-9 * nearest, nearest, np.ceil(ratio))


def max_step(p: DriveParams, steps_per_period: int) -> float:
    """Step size 2 pi/((epsilon + omega) * steps_per_period): steps_per_period per shortest period."""
    if not isinstance(steps_per_period, numbers.Integral):
        raise ValueError(f"steps_per_period must be an integer, got {steps_per_period!r}")
    if steps_per_period < 1:
        raise ValueError(f"steps_per_period must be >= 1, got {steps_per_period}")
    return 2.0 * math.pi / (p.epsilon + p.omega) / steps_per_period


def _tree(m: np.ndarray) -> np.ndarray:
    """Pairwise products along the last axis of a pair stack, later steps to the left, down to width 1."""
    while m.shape[-1] > 1:
        pairs = _mul(m[..., 1::2], m[..., :-1:2])
        if m.shape[-1] % 2:
            pairs[..., -1:] = _mul(m[..., -1:], pairs[..., -1:])
        m = pairs
    return m


def _cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums along the last axis, compensated: the rounding error of
    each partial sum (Knuth's TwoSum) is summed apart and added back."""
    s = np.cumsum(x, axis=-1)
    prev, new = s[..., :-1], s[..., 1:]
    back = new - prev
    err = (prev - (new - back)) + (x[..., 1:] - back)
    s[..., 1:] += np.cumsum(err, axis=-1)
    return s


def _product(hs, edges, steps) -> np.ndarray:
    """U(edges[i + 1], edges[0]) of each generator in ``hs`` for every interval i, shape (len(hs), len(steps), 2, 2).

    Interval i is spanned by steps[i] midpoint factors exp(-i h(t_k) dt_i),
    later steps to the left; an interval with no steps repeats the previous
    result.  A static ``h`` is exponentiated exactly at edges[1:] - edges[0];
    every callable goes to ``_lattice_product`` as its (rate, body) pair.
    """
    edges = np.asarray(edges, dtype=float)
    steps = np.asarray(steps, dtype=int)
    out = np.empty((len(hs), len(steps), 2, 2), dtype=complex)
    frames = {}
    for g, h in enumerate(hs):
        if callable(h):
            frames[g] = (h.rate, h.body) if isinstance(h, RotatingGenerator) else (0.0, h)
        else:
            out[g] = _expm_matrix(as_coeffs(h), edges[1:] - edges[0])
    if frames:
        _lattice_product(frames, edges, steps, out)
    return out


def _lattice_product(frames, edges, steps, out) -> None:
    """``_product`` of the generators frames[g] = (rate, body) into out[g], in rows of the (rows, w) lattice of the module docstring."""
    rates, bodies = zip(*frames.values())
    stepped = [j for j, body in enumerate(bodies) if callable(body)]
    static = [j for j, body in enumerate(bodies) if not callable(body)]
    turns = np.array([rates[j] for j in stepped])[:, None, None]  # (G stepped, 1, 1)
    dts = np.diff(edges) / np.maximum(steps, 1)
    counts = np.sort(steps[steps > 0])
    m = int(counts[(len(counts) - 1) // 2]) if len(counts) else 1
    w = -(-m // -(-m // _BLOCK))  # m split into ceil(m / _BLOCK) equal rows
    rows = -(-steps // w)
    stop = np.cumsum(rows)  # one past each interval's last row
    total = int(rows.sum())
    i = np.zeros(total + 1, dtype=int)
    np.add.at(i, stop, 1)
    i = np.cumsum(i[:-1])  # each row's interval: how many intervals stop at or before it
    first = (np.arange(total) - stop[i] + rows[i]) * w  # index in its interval of each row's first step
    n = np.minimum(steps[i] - first, w)  # real steps in each row
    col = np.arange(w)
    chunk = _BLOCK // w  # rows per generator call
    ab = np.empty((2, len(frames), total + 1), dtype=complex)  # the identity, then each row's product
    ab[:, :, 0] = [[1.0], [0.0]]
    phi = np.zeros((len(frames), total + 1))  # 0, then the sum of c0 dt over each row
    for s in range(0, total, chunk) if stepped else ():
        ik, nk = i[s : s + chunk, None], n[s : s + chunk, None]
        t = (first[s : s + chunk, None] + 0.5) + np.minimum(col, nk - 1)  # midpoints in steps; pads repeat the last
        t *= dts[ik]
        t += edges[ik]
        dt = np.where(col < nk, dts[ik], 0.0)  # a pad is the identity factor
        m = np.empty((2, len(stepped)) + t.shape, dtype=complex)
        for k, j in enumerate(stepped):
            c = as_coeffs(bodies[j](t))
            if np.any(c.c0):
                phi[j, s + 1 : s + 1 + chunk] = (c.c0 * dt).sum(-1)
            _expm_pair(c, dt, out=m[:, k])
        if turns.any():  # R(-nu d) E_k: each pair times e^{i nu d / 2}
            m *= np.exp(0.5j * turns * dts[ik])
        ab[:, stepped, s + 1 : s + 1 + chunk] = _tree(m)[..., 0]
    d = dts[i]
    for j in static:  # R(-nu d)^(w - n) (R(-nu d) E)^n in closed form
        nu, body = rates[j], bodies[j]
        p = _expm_pair(body, d, out=ab[:, j, 1:])
        if nu:
            p *= np.exp(0.5j * nu * d)
        _power(p, n)
        if nu:
            p *= np.exp(0.5j * nu * (w - n) * d)
        if body.c0:
            phi[j, 1:] = body.c0 * n * d
    for j in np.flatnonzero(rates):  # each row product into the lab frame
        ab[0, j, 1:] *= np.exp(-0.5j * rates[j] * (w * d))
        ab[1, j, 1:] *= np.exp(-0.5j * rates[j] * (2.0 * (first * d + edges[i]) + (w + 1) * d))
    _scan(ab)
    _reproject(ab)  # the leading identity is a fixed point
    phase = np.exp(-1j * _cumsum(phi)[:, stop])
    for j, g in enumerate(frames):
        _pair_matrix(ab[:, j, stop], phase[j], out=out[g])


def propagate(h, spec: PropagationSpec) -> Unitary2:
    """Time-ordered propagator of h(t) over [t0, t1].

    Product of per-step factors exp(-i h(midpoint) dt), later steps to the
    left.  Each factor is exactly unitary; the global error is O(dt^2).  A
    static ``h`` is exponentiated exactly.
    """
    return Unitary2(_product((h,), (spec.t0, spec.t1), (spec.steps,))[0, 0])


def trajectory(h, ts, dt: float) -> np.ndarray:
    """Propagators U(t, 0), shape (len(ts), 2, 2), on a non-negative monotone grid.

    A callable ``h`` advances between grid times in _step_count(gap, dt)
    midpoint steps (at least one); a static PauliCoeffs / Hermitian matrix is
    exponentiated exactly at each t.  A tuple of generators gives a
    (len(h), len(ts), 2, 2) stack, one trajectory each, stepped on one
    shared lattice.
    """
    ts = np.asarray(ts, dtype=float)
    gaps = np.diff(ts, prepend=0.0)
    if not np.all((gaps >= 0) & np.isfinite(gaps)):
        raise ValueError("t_grid must be finite, non-negative and monotone non-decreasing")
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite step count is rejected below
        steps = np.maximum(_step_count(gaps, dt), gaps > 0)
    if not np.all(steps < 2.0**63):
        raise ValueError(f"dt = {dt} needs 2**63 or more steps for a gap of {gaps.max()}")
    u = _product(h if isinstance(h, tuple) else (h,), np.concatenate(([0.0], ts)), steps)
    return u if isinstance(h, tuple) else u[0]


def _to_lab_factor(frame: Frame, t, p: DriveParams) -> np.ndarray:
    # L with |psi_lab> = L |psi_frame>; an array t gives a (..., 2, 2) stack.
    if frame is Frame.LAB:
        return ID2
    if frame is Frame.INTERACTION:
        return _expm_matrix(h0_coeffs(p), t)
    if frame is Frame.BAR:
        return u_x(t, p)
    raise UnknownFramePair(f"unknown frame {frame!r}")


def frame_transform(u, frm: Frame, to: Frame, t, p: DriveParams):
    """Re-express propagators U(t, 0) from frame ``frm`` in frame ``to``.

    ``u`` is a Unitary2, a 2x2 array, or an (n, 2, 2) stack with ``t`` an
    array of its n times, as :func:`min_fidelity` takes them; a Unitary2
    gives a Unitary2, an array an array.  All frames coincide at t = 0, so
    propagators transform with a single factor at the endpoint:
    U_to = L_to(t)^dagger L_frm(t) U.  Composing A->B then B->C equals A->C
    by construction.
    """
    if not isinstance(frm, Frame) or not isinstance(to, Frame):
        raise UnknownFramePair(f"unsupported frame pair ({frm!r}, {to!r})")
    m = _checked_unitary(u)
    if frm is not to:
        m = _to_lab_factor(to, t, p).conj().swapaxes(-1, -2) @ _to_lab_factor(frm, t, p) @ m
    return Unitary2(m) if isinstance(u, Unitary2) else m


def default_floquet_steps(p: DriveParams, steps_per_period: int = DEFAULT_STEPS_PER_PERIOD) -> int:
    """Steps over one drive period at the step ``max_step(p, steps_per_period)``."""
    return int(_step_count(p.drive_period, max_step(p, steps_per_period)))


def floquet_splitting(p: DriveParams, steps: int | None = None) -> float:
    """Quasienergy splitting of the driven system, folded into [0, omega/2].

    Reads the rotation angle x of the one-period lab-frame propagator (monodromy)
    m = e^{-i phi}(cos x - i sin x n.sigma) from its entries, with no eigensolver:
    the eigenphase gap 2x, folded into [0, pi], per period.  Emits
    DegenerateSplittingWarning when the eigenphases coincide within 1e-10.
    """
    if steps is None:
        steps = default_floquet_steps(p)
    period = p.drive_period
    m = propagate(lambda t: h_lab(t, p), PropagationSpec(0.0, period, steps)).matrix
    twice_sin = math.hypot(abs(m[0, 0] - m[1, 1]), 2.0 * abs(m[0, 1]))  # 2|sin x|
    rel = 2.0 * math.atan2(twice_sin, abs(m[0, 0] + m[1, 1]))  # 2x folded into [0, pi]
    if rel < 1e-10:
        warnings.warn(
            "Floquet eigenphases are degenerate within 1e-10",
            DegenerateSplittingWarning,
            stacklevel=2,
        )
    return rel / period
