"""Closed-form 2x2 Pauli algebra: Hermitian coefficient vectors and SU(2) exponentials.

Conventions, fixed once for the whole package:

* ``sigma3 = diag(+1, -1)`` and ``|0>`` is the ``sigma3 = +1`` basis state.
* ``sigma_plus = |0><1| = (sigma1 + i sigma2) / 2``.

Every frame transformation and analytic formula elsewhere relies on this
choice, so it must not be changed in isolation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, NotUnitary

__all__ = [
    "ID2",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "PauliCoeffs",
    "Unitary2",
    "compose",
    "decompose",
    "expm_pauli",
    "as_coeffs",
    "unitarity_defect",
]

ID2 = np.eye(2, dtype=complex)
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-12
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PauliCoeffs:
    """A Hermitian 2x2 operator as real coefficients over (1, sigma1, sigma2, sigma3).

    All coefficients carry units of angular frequency (hbar = 1).
    """

    c0: float
    c1: float
    c2: float
    c3: float

    def __add__(self, other: "PauliCoeffs") -> "PauliCoeffs":
        return PauliCoeffs(
            self.c0 + other.c0,
            self.c1 + other.c1,
            self.c2 + other.c2,
            self.c3 + other.c3,
        )

    def __sub__(self, other: "PauliCoeffs") -> "PauliCoeffs":
        return PauliCoeffs(
            self.c0 - other.c0,
            self.c1 - other.c1,
            self.c2 - other.c2,
            self.c3 - other.c3,
        )

    def __mul__(self, scale: float) -> "PauliCoeffs":
        return PauliCoeffs(
            self.c0 * scale, self.c1 * scale, self.c2 * scale, self.c3 * scale
        )

    __rmul__ = __mul__

    def __neg__(self) -> "PauliCoeffs":
        return self * -1.0

    @property
    def vector_norm(self) -> float | np.ndarray:
        """Euclidean norm of the (c1, c2, c3) part, i.e. half the level splitting."""
        return np.sqrt(self.c1**2 + self.c2**2 + self.c3**2)


def compose(p: PauliCoeffs) -> np.ndarray:
    """Assemble the 2x2 complex matrix c0*1 + c1*sigma1 + c2*sigma2 + c3*sigma3.

    Array fields broadcast to a (..., 2, 2) stack.
    """
    c0, c1, c2, c3 = np.broadcast_arrays(p.c0, p.c1, p.c2, p.c3)
    flat = np.stack([c0 + c3, c1 - 1j * c2, c1 + 1j * c2, c0 - c3], axis=-1)
    return flat.reshape(c0.shape + (2, 2))


def decompose(m: np.ndarray) -> PauliCoeffs:
    """Project a Hermitian 2x2 matrix, or a (..., 2, 2) stack, onto the Pauli basis.

    Raises
    ------
    ValueError
        If the last two axes of ``m`` are not (2, 2).
    NonHermitianInput
        If any entry of ``m - m^dagger`` exceeds 1e-10 in magnitude.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or (..., 2, 2) stack, got shape {m.shape}")
    defect = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), initial=0.0)
    if not defect <= HERMITICITY_TOL:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}"
        )
    return PauliCoeffs(
        0.5 * (m[..., 0, 0] + m[..., 1, 1]).real,
        0.5 * (m[..., 0, 1] + m[..., 1, 0]).real,
        0.5 * (m[..., 1, 0] - m[..., 0, 1]).imag,
        0.5 * (m[..., 0, 0] - m[..., 1, 1]).real,
    )


def unitarity_defect(m: np.ndarray) -> float | np.ndarray:
    """Max of the entrywise deviation of U^dagger U from 1 and of ||det U| - 1|.

    A stack of shape (..., 2, 2) gives one defect per matrix; the Gram matrix
    is formed from the four entries directly, with no reduction over the
    length-2 axes.  NaN entries give a NaN defect, which every
    ``defect <= tol`` check rejects.
    """
    m = np.asarray(m, dtype=complex)
    p, q, r, s = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    # An overflowing or infinite entry gives an inf or NaN defect, which the
    # caller rejects as NotUnitary; numpy's warnings on the way say nothing more.
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.maximum(
            np.abs(np.abs(p) ** 2 + np.abs(r) ** 2 - 1.0),
            np.abs(np.abs(q) ** 2 + np.abs(s) ** 2 - 1.0),
        )
        gram = np.maximum(diag, np.abs(p.conj() * q + r.conj() * s))
        return np.maximum(gram, np.abs(np.abs(p * s - q * r) - 1.0))


@dataclass(frozen=True, eq=False)
class Unitary2:
    """A 2x2 unitary propagator; unitarity is checked at construction.

    The wrapped array is treated as immutable.  Deviations beyond 1e-12 in
    either U^dagger U or |det U| raise :class:`NotUnitary`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise NotUnitary(f"expected a 2x2 matrix, got shape {m.shape}")
        object.__setattr__(self, "matrix", _checked_unitary(m))


def _checked_unitary(u) -> np.ndarray:
    """The matrix of a Unitary2, 2x2 array or (..., 2, 2) stack; NotUnitary if a defect exceeds UNITARITY_TOL."""
    m = u.matrix if isinstance(u, Unitary2) else np.asarray(u, dtype=complex)
    if m.shape == (2, 2) and _clearly_unitary(m):
        return m
    defect = np.max(unitarity_defect(m), initial=0.0)
    if not defect <= UNITARITY_TOL:
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds {UNITARITY_TOL}")
    return m


def _clearly_unitary(m: np.ndarray) -> bool:
    """True when every part of the :func:`unitarity_defect` of one 2x2 matrix is within half of UNITARITY_TOL.

    A screen at the cost of its arithmetic on eight Python floats; its
    rounding (~1e-16) is far inside the half-tolerance margin, so it accepts
    no matrix that :func:`unitarity_defect` would reject.  Anything else,
    NaN and inf included, fails it: only ``*``, ``+``, ``-`` and chained
    comparisons are used, since ``max`` drops a NaN that is not its first
    argument and ``**`` or ``abs`` of a complex raise OverflowError on a
    large entry.
    """
    pr, pi, qr, qi, rr, ri, sr, si = m.ravel().view(float).tolist()
    h = 0.5 * UNITARITY_TOL
    g_re = pr * qr + pi * qi + rr * sr + ri * si  # p* q + r* s
    g_im = pr * qi - pi * qr + rr * si - ri * sr
    d_re = pr * sr - pi * si - qr * rr + qi * ri  # p s - q r
    d_im = pr * si + pi * sr - qr * ri - qi * rr
    return (
        -h <= pr * pr + pi * pi + rr * rr + ri * ri - 1.0 <= h
        and -h <= qr * qr + qi * qi + sr * sr + si * si - 1.0 <= h
        and g_re * g_re + g_im * g_im <= h * h
        and (1.0 - h) * (1.0 - h) <= d_re * d_re + d_im * d_im <= (1.0 + h) * (1.0 + h)
    )


def _expm_pair(p: PauliCoeffs, dt, out=None) -> np.ndarray:
    """Cayley-Klein pair (a, b) of exp(-i (compose(p) - c0) dt), as a (2, ...) complex stack.

    exp(-i r dt n.sigma) = [[a, b], [-b*, a*]] with a = cos(r dt) - i s c3 and
    b = -s c2 - i s c1, s = sin(r dt) / r; at r = 0, s multiplies only zero
    coefficients.  The U(1) factor exp(-i c0 dt) is left to the caller.  The
    pair is written into ``out`` when given, so a caller filling a larger
    stack allocates no second one.
    """
    r = np.sqrt(p.c1 * p.c1 + p.c2 * p.c2 + p.c3 * p.c3)
    x = r * dt
    f = -np.sin(x) / np.maximum(r, _TINY)  # -s
    ab = np.empty((2,) + np.shape(f), dtype=complex) if out is None else out
    ab.real[0] = np.cos(x)
    ab.imag[0] = f * p.c3
    ab.real[1] = f * p.c2
    ab.imag[1] = f * p.c1
    return ab


def _pair_matrix(ab: np.ndarray, phase, out=None) -> np.ndarray:
    """phase * [[a, b], [-b*, a*]] for a (2, ...) stack of pairs (a, b), as a (..., 2, 2) stack, written into ``out`` when given."""
    a, b = ab
    # A 0-d phase keeps scalar pairs on the ufunc's complex loop, as for stacks:
    # numpy's scalar complex product can round differently in the last bit.
    e = np.asarray(phase)
    ea = a * e
    m = np.empty(np.shape(ea) + (2, 2), dtype=complex) if out is None else out
    m[..., 0, 0] = ea
    m[..., 0, 1] = b * e
    m[..., 1, 0] = -b.conj() * e
    m[..., 1, 1] = a.conj() * e
    return m


def _expm_matrix(p: PauliCoeffs, dt) -> np.ndarray:
    """exp(-i * compose(p) * dt) as a raw ndarray: exp(-i c0 dt) times the SU(2) matrix of :func:`_expm_pair`.

    Array fields of ``p`` or an array ``dt`` broadcast to a (..., 2, 2) stack.
    """
    return _pair_matrix(_expm_pair(p, dt), np.exp(-1j * dt * p.c0))


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair of [[a1, b1], [-b1*, a1*]] @ [[a2, b2], [-b2*, a2*]]: (a1 a2 - b1 b2*, a1 b2 + b1 a2*).

    ``x`` and ``y`` are (2, ...) pair stacks with equally many axes, broadcast
    past the first.
    """
    out = x[:1] * y
    # One conjugate, and the product written over it in one buffer of out's
    # shape, so no third temporary is alive.  x[1] stays the left operand:
    # with fused multiply-adds numpy's complex product is not bitwise
    # commutative, and this keeps every entry as (x[0] y - x[1] y'*) rounds.
    cross = np.conjugate(y[::-1], out=np.empty_like(out))  # (b2*, a2*)
    np.multiply(x[1], cross, out=cross)  # (b1 b2*, b1 a2*)
    out[0] -= cross[0]
    out[1] += cross[1]
    return out


def expm_pauli(p: PauliCoeffs, dt: float) -> Unitary2:
    """Exact exponential exp(-i H dt) of the Hermitian H described by ``p``.

    Uses exp(-i c0 dt) [cos(r dt) 1 - i sin(r dt) (n . sigma)] with
    r = |(c1, c2, c3)|.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    return Unitary2(_expm_matrix(p, dt))


def as_coeffs(value) -> PauliCoeffs:
    """Coerce a Hermitian matrix (or stack) or PauliCoeffs to PauliCoeffs."""
    if isinstance(value, PauliCoeffs):
        return value
    return decompose(value)
