"""Magnus terms of a windowed time average: numeric quadrature and closed forms.

For a Hamiltonian H(s) on a window [t - tau/2, t + tau/2], the first two
Magnus terms are

    F1 = int ds H(s)
    F2 = -(i/2) int ds1 int_{s2 < s1} ds2 [H(s1), H(s2)]

and the window's effective Hamiltonian is H_eff(t) = (F1 + F2 + ...) / tau.

The quadrature works on Pauli coefficient arrays: every generator result goes
through ``as_coeffs``, so a Hermitian-stack generator is checked at 1e-10 in
``f1_numeric``, ``f2_numeric`` and ``h_eff_window`` alike.  Since
[a.sigma, g.sigma] = 2i (a x g).sigma, F2 is a real cross product of
coefficient arrays, Hermitian by construction, and no matrix stack over the
nodes is built.

``h_eff1_analytic``/``h_eff2_analytic`` are the closed forms of those averages
for the interaction-picture driven two-level Hamiltonian.  The first-order
form scales the two rotating terms of ``model._rotating`` by window sincs.
The second-order closed form is derived from the elementary ordered integral

    I(alpha, beta) = (tau / (i beta)) e^{i(alpha+beta)t}
                     [sinc((alpha+beta) tau / 2)
                      - e^{-i beta tau / 2} sinc(alpha tau / 2)]

of e^{i alpha s1 + i beta s2} over the ordered window, and the nested
quadrature here is the authority that pins every sign and prefactor (see the
cross-check tests).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DetuningSingularity
from .model import DriveParams, RotatingGenerator, _rotating
from .pauli import PauliCoeffs, as_coeffs, compose, decompose

__all__ = [
    "Window",
    "QuadratureSpec",
    "sinc",
    "f1_numeric",
    "f2_numeric",
    "h_eff_window",
    "h_eff1_analytic",
    "h_eff2_analytic",
    "h_eff_order2_analytic",
    "order2_generator",
]

# Below this |delta|*tau the second-order closed form is singular; the
# resonant forms apply instead.
_MIN_DETUNING_TAU = 1e-6


def sinc(x: float) -> float:
    """sin(x)/x with sinc(0) = 1 (unnormalized, unlike numpy.sinc)."""
    return math.sin(x) / x if x else 1.0


def _check_tau(tau: float) -> None:
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")


@dataclass(frozen=True)
class Window:
    """Coarse-graining window [t - tau/2, t + tau/2] centered at t."""

    t: float
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        _check_tau(self.tau)

    @property
    def t0(self) -> float:
        return self.t - 0.5 * self.tau

    @property
    def t1(self) -> float:
        return self.t + 0.5 * self.tau


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre resolution for the window integrals.

    ``points`` is the node count per dimension.  The default, 64 points, is
    spectrally accurate for the smooth trigonometric integrands of this
    problem at benchmark-sized windows.
    """

    points: int = 64

    def __post_init__(self):
        if not isinstance(self.points, numbers.Integral):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 4:
            raise ValueError(f"points must be >= 4, got {self.points}")


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _sample(h, q: QuadratureSpec, lo: float, hi):
    # Nodes and weights on [lo, hi], and the four Pauli coefficients of h on
    # all nodes from one call (a constant result is broadcast); an array hi of
    # shape (n, 1) gives (n, points) nodes.
    x, w = _leggauss(q.points)
    half = 0.5 * (hi - lo)
    s = 0.5 * (hi + lo) + half * x
    c = as_coeffs(h(s))
    return s, half * w, np.broadcast_arrays(s, c.c0, c.c1, c.c2, c.c3)[1:]


def f1_numeric(h, w: Window, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """First Magnus term int H(s) ds over the window, by quadrature.

    ``h`` maps an array of times to Hermitian matrices or PauliCoeffs.
    """
    _, wt, c = _sample(h, q, w.t0, w.t1)
    # Exactly rounded sums: over long windows an oscillating H cancels to a
    # small fraction of its terms.
    return compose(PauliCoeffs(*(math.fsum((wt * ci).tolist()) for ci in c)))


def f2_numeric(h, w: Window, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Second Magnus term -(i/2) of the ordered double commutator integral.

    The inner integral G(s1) = int_{t0}^{s1} H(s2) ds2 is evaluated per outer
    node; with a(s1) the vector part of H(s1), the commutator term
    -(i/2) [H(s1), G(s1)] is the Pauli vector a(s1) x G(s1).
    """
    s1, w1, (_, *a) = _sample(h, q, w.t0, w.t1)
    _, w2, (_, *inner) = _sample(h, q, w.t0, s1[:, None])
    g = [np.einsum("ak,ak->a", ci, w2) for ci in inner]
    return compose(PauliCoeffs(0.0, *(np.cross(a, g, axis=0) @ w1)))


def h_eff_window(
    h, w: Window, order: int, q: QuadratureSpec = QuadratureSpec()
) -> PauliCoeffs:
    """Windowed effective Hamiltonian (F1 [+ F2]) / tau from quadrature."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    m = f1_numeric(h, w, q)
    if order == 2:
        m = m + f2_numeric(h, w, q)
    return decompose(m) * (1.0 / w.tau)


def _first_order_amplitudes(p: DriveParams, tau: float) -> tuple[float, float]:
    # (W/2) sinc(nu tau / 2) of the rotating terms at delta and at epsilon + omega.
    _check_tau(tau)
    half = 0.5 * p.amplitude
    return half * sinc(0.5 * p.detuning * tau), half * sinc(0.5 * (p.epsilon + p.omega) * tau)


def _second_order_terms(p: DriveParams, tau: float) -> tuple[float, float]:
    # (static, k): the sigma3 coefficient is static + k cos(2 omega t).
    _check_tau(tau)
    d = p.detuning
    b = p.epsilon + p.omega
    if abs(d) * tau < _MIN_DETUNING_TAU:
        raise DetuningSingularity(
            f"|delta|*tau = {abs(d) * tau:.3e} < 1e-6; use the resonant forms"
        )
    w2_4 = 0.25 * p.amplitude**2
    static = -w2_4 * ((1.0 - sinc(d * tau)) / d + (1.0 - sinc(b * tau)) / b)
    bracket = (
        sinc(p.omega * tau) * (1.0 / d + 1.0 / b)
        - math.cos(0.5 * b * tau) * sinc(0.5 * d * tau) / b
        - math.cos(0.5 * d * tau) * sinc(0.5 * b * tau) / d
    )
    return static, -w2_4 * bracket


def h_eff1_analytic(t: float, p: DriveParams, tau: float) -> PauliCoeffs:
    """First-order window average of the interaction-picture Hamiltonian.

    (W/2) [e^{-i delta t} sinc(delta tau / 2)
           + e^{-i (epsilon+omega) t} sinc((epsilon+omega) tau / 2)] sigma+ + h.c.

    Each oscillating component is scaled by the sinc of half its phase swing
    across the window; as tau -> 0 this reduces to h_interaction(t).
    """
    a_d, a_b = _first_order_amplitudes(p, tau)
    return _rotating(t, p.detuning, a_d) + _rotating(t, p.epsilon + p.omega, a_b)


def h_eff2_analytic(t: float, p: DriveParams, tau: float) -> PauliCoeffs:
    """Second-order window average of the interaction-picture Hamiltonian.

    With delta the detuning and b = epsilon + omega, the sigma3 coefficient is

        -(W^2/4) [ (1 - sinc(delta tau)) / delta + (1 - sinc(b tau)) / b ]
        -(W^2/4) [ sinc(omega tau) (1/delta + 1/b)
                   - cos(b tau / 2) sinc(delta tau / 2) / b
                   - cos(delta tau / 2) sinc(b tau / 2) / delta ] cos(2 omega t)

    The ordered integral gives the bracket as Re{e^{2 i omega t} B} with the
    exponentials e^{-i b tau / 2} and e^{i delta tau / 2} in place of the two
    cosines, but B is real:
    Im B = sin(b tau / 2) sinc(delta tau / 2) / b
    - sin(delta tau / 2) sinc(b tau / 2) / delta, and both terms equal
    2 sin(b tau / 2) sin(delta tau / 2) / (b delta tau).

    The static part reduces to -(S_rw + S_bs)/2 once both sinc factors are
    negligible.  Every sign and prefactor here is pinned by the nested
    quadrature oracle (see the cross-check tests), which is the authority
    for this closed form.

    Raises
    ------
    ValueError
        If tau is not finite and > 0.
    DetuningSingularity
        If |delta| * tau < 1e-6; the resonant pathway must be used instead.
    """
    static, k = _second_order_terms(p, tau)
    return PauliCoeffs(0.0, 0.0, 0.0, static + k * np.cos(2.0 * p.omega * t))


def h_eff_order2_analytic(t: float, p: DriveParams, tau: float) -> PauliCoeffs:
    """Full second-order analytic effective Hamiltonian (orders 1 + 2)."""
    return h_eff1_analytic(t, p, tau) + h_eff2_analytic(t, p, tau)


def order2_generator(p: DriveParams, tau: float) -> RotatingGenerator:
    """``h_eff_order2_analytic`` as a RotatingGenerator, turned at the detuning.

    In the frame rotating at delta the first-order term at epsilon + omega
    turns at 2 omega and the sigma3 term is unchanged, so with
    c, s = cos, sin(2 omega t) the body is

        (A_delta + A_b c) sigma1 + A_b s sigma2 + (static + k c) sigma3

    with A the sinc-scaled amplitudes and k = -(W^2/4) times the bracket of
    ``h_eff2_analytic``.  Raises as that function does, here at construction.
    """
    a_d, a_b = _first_order_amplitudes(p, tau)
    static, k = _second_order_terms(p, tau)
    two_omega = 2.0 * p.omega

    def body(t):
        phase = two_omega * t
        c = np.cos(phase)
        return PauliCoeffs(0.0, a_d + a_b * c, a_b * np.sin(phase), static + k * c)

    return RotatingGenerator(p.detuning, body)
