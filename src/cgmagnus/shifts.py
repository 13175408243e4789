"""Stark and Bloch-Siegert shifts, static effective Hamiltonians, and regime checks.

With drive amplitude W, frequency omega and detuning delta = epsilon - omega:

* Stark shift                     S_rw = W^2 / (2 delta)
* diagonal Bloch-Siegert shift    S_bs = W^2 / (2 (2 omega + delta))
* off-diagonal Bloch-Siegert      S_bs' = W^3 / (16 omega^2 (1 - (W / 2 omega)^2))

``S_bs'`` renormalizes the drive amplitude at resonance and has a pole at
W = 2 omega.  The dispersive effective Hamiltonian is
-(S_rw + S_bs)/2 * sigma3; the resonant ones and the RWA Hamiltonian plus
the Bloch-Siegert shift are assembled below.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AmplitudePole, NotResonant, ResonantStarkWarning
from .magnus import _check_tau
from .model import DriveParams
from .pauli import PauliCoeffs

__all__ = [
    "Shifts",
    "RatioCheck",
    "RegimeReport",
    "compute_shifts",
    "stark_shift",
    "bloch_siegert_shift",
    "bloch_siegert_prime_shift",
    "h_eff_dispersive",
    "h_rwa_plus_bs",
    "h_eff_resonant_bar",
    "h_eff_resonant_interaction",
    "validate_regime",
    "regime_window",
    "resonant_splitting",
]


@dataclass(frozen=True)
class Shifts:
    """Second-order level shifts for a given drive, in angular frequency units.

    ``s_rw`` is +/-inf at zero detuning (flagged by ResonantStarkWarning).
    """

    s_rw: float
    s_bs: float
    s_bs_prime: float


def stark_shift(p: DriveParams) -> float:
    """Stark shift W^2 / (2 delta); infinite (with a warning) at resonance."""
    if p.is_resonant:
        warnings.warn(
            "Stark shift is undefined at zero detuning; returning inf",
            ResonantStarkWarning,
            stacklevel=2,
        )
        return math.inf
    return p.amplitude**2 / (2.0 * p.detuning)


def bloch_siegert_shift(p: DriveParams) -> float:
    """Diagonal Bloch-Siegert shift W^2 / (2 (2 omega + delta))."""
    return p.amplitude**2 / (2.0 * (2.0 * p.omega + p.detuning))


def bloch_siegert_prime_shift(p: DriveParams) -> float:
    """Off-diagonal Bloch-Siegert shift W^3 / (16 omega^2 (1 - (W/2 omega)^2)).

    Raises
    ------
    AmplitudePole
        If W >= 2 omega, where the formula has its pole.
    """
    if p.amplitude >= 2.0 * p.omega:
        raise AmplitudePole(
            f"amplitude {p.amplitude} >= 2 * omega = {2.0 * p.omega}"
        )
    x = p.amplitude / (2.0 * p.omega)
    return p.amplitude**3 / (16.0 * p.omega**2 * (1.0 - x * x))


def compute_shifts(p: DriveParams) -> Shifts:
    """All three shifts for the given drive parameters."""
    # The amplitude-pole check runs first, so an invalid drive raises before
    # the resonant Stark warning can fire.
    s_bs_prime = bloch_siegert_prime_shift(p)
    return Shifts(
        s_rw=stark_shift(p),
        s_bs=bloch_siegert_shift(p),
        s_bs_prime=s_bs_prime,
    )


def h_eff_dispersive(p: DriveParams) -> PauliCoeffs:
    """Static dispersive effective Hamiltonian -(S_rw + S_bs)/2 * sigma3.

    Intended for delta / W >> 1; validity is reported by
    :func:`validate_regime`, never enforced here.
    """
    return PauliCoeffs(
        0.0, 0.0, 0.0, -0.5 * (stark_shift(p) + bloch_siegert_shift(p))
    )


def h_rwa_plus_bs(p: DriveParams) -> PauliCoeffs:
    """RWA Hamiltonian plus the diagonal Bloch-Siegert shift -(S_BS/2) sigma3."""
    return PauliCoeffs(
        0.0, 0.5 * p.amplitude, 0.0, -0.5 * bloch_siegert_shift(p)
    )


def _amplitude_ratio_factor(p: DriveParams) -> float:
    # (1 - (W / (2 sqrt(2) omega))^2) / (1 - (W / (2 omega))^2)
    x = p.amplitude / (2.0 * p.omega)
    return (1.0 - 0.5 * x * x) / (1.0 - x * x)


def _require_resonant(p: DriveParams, op: str) -> None:
    if not p.is_resonant:
        raise NotResonant(f"{op} requires delta = 0, got delta = {p.detuning}")


def h_eff_resonant_bar(t: float, p: DriveParams) -> PauliCoeffs:
    """Second-order effective Hamiltonian in the bar frame at resonance.

    Returns -(S_bs'/2) sigma1 - (S_bs/2) * r * (e^{i W t} |+><-| + h.c.) with
    |+/-> the sigma1 eigenstates and r the amplitude-ratio factor
    (1 - (W/(2 sqrt(2) omega))^2) / (1 - (W/(2 omega))^2).  In this package's
    operator conventions the slow term rotates as e^{+i W t}, i.e.
    e^{i W t}|+><-| + h.c. = cos(W t) sigma3 + sin(W t) sigma2.

    The retained terms are the slowly varying part of the full second-order
    window average; agreement with the quadrature oracle holds deep inside the
    resonant validity window and degrades with W * tau (tested both ways).
    """
    _require_resonant(p, "h_eff_resonant_bar")
    s_prime = bloch_siegert_prime_shift(p)
    slow = -0.5 * bloch_siegert_shift(p) * _amplitude_ratio_factor(p)
    wt = p.amplitude * t
    return PauliCoeffs(
        0.0, -0.5 * s_prime, slow * np.sin(wt), slow * np.cos(wt)
    )


def h_eff_resonant_interaction(p: DriveParams) -> PauliCoeffs:
    """Static resonant effective Hamiltonian in the interaction picture.

    -(S_bs/2) sigma3 + ((W - S_bs')/2) sigma1: the counterrotating term both
    shifts the splitting and renormalizes the drive amplitude.
    """
    _require_resonant(p, "h_eff_resonant_interaction")
    s_prime = bloch_siegert_prime_shift(p)
    return PauliCoeffs(
        0.0,
        0.5 * (p.amplitude - s_prime),
        0.0,
        -0.5 * bloch_siegert_shift(p),
    )


def resonant_splitting(p: DriveParams) -> float:
    """Eigenvalue splitting sqrt(S_bs^2 + (W - S_bs')^2) of the resonant form."""
    _require_resonant(p, "resonant_splitting")
    return math.hypot(
        bloch_siegert_shift(p), p.amplitude - bloch_siegert_prime_shift(p)
    )


@dataclass(frozen=True)
class RatioCheck:
    """One dimensionless validity ratio, its scaling tau**tau_power and its pass/warn status."""

    name: str
    formula: str
    tau_power: int
    value: float
    passes: bool


@dataclass(frozen=True)
class RegimeReport:
    """Validity ratios for a coarse-graining window, each compared against kappa."""

    case: str
    kappa: float
    checks: tuple

    @property
    def overall(self) -> bool:
        return all(c.passes for c in self.checks)

    def table(self) -> str:
        lines = [
            f"coarse-graining regime check ({self.case} case, kappa = {self.kappa:g})",
            f"  {'ratio':<38} {'value':>12}  status",
        ]
        for c in self.checks:
            status = "pass" if c.passes else "warn"
            lines.append(f"  {c.formula:<38} {c.value:>12.4g}  {status}")
        lines.append(f"  overall: {'pass' if self.overall else 'warn'}")
        return "\n".join(lines)

    def record(self) -> dict:
        """Machine-readable mirror of the table."""
        return {
            "case": self.case,
            "kappa": self.kappa,
            "overall": self.overall,
            "checks": [asdict(c) for c in self.checks],
        }


def validate_regime(p: DriveParams, tau: float, kappa: float = 5.0) -> RegimeReport:
    """Turn each coarse-graining inequality into a ratio >= kappa check.

    Every "much greater/less than" condition becomes ratio >= kappa with a
    configurable threshold (default 5).  Reports only: a failed check is a
    warning, not an error, since probing the limits of the approximation is a
    legitimate use.  Only a tau or kappa that is not finite and > 0 raises
    ValueError.

    The case follows from the drive: resonant if ``p.is_resonant``, else
    dispersive.  Each check states its ``tau_power``: a lower bound on tau
    grows as tau (1), an upper bound shrinks as 1/tau (-1).  Dispersive case:
    tau*omega/pi, tau*(omega+epsilon)/(2 pi), |delta|*tau/(2 pi) as lower
    bounds and 2 pi/(S_rw*tau) as the upper one.  Resonant case:
    2 pi/(W*tau) and 2 pi/(S_bs'*tau) as upper bounds, tau*(2 omega - W)/(2 pi)
    as the lower one and the tau-independent (0) amplitude consistency ratio
    (W/omega)*32^(1/3).
    """
    _check_tau(tau)
    if not 0 < kappa < math.inf:  # a kappa <= 0 passes every ratio, a nan or inf fails every one
        raise ValueError(f"kappa must be finite and > 0, got {kappa}")
    two_pi = 2.0 * math.pi
    w = p.amplitude
    checks = []

    def add(name: str, formula: str, tau_power: int, value: float) -> None:
        checks.append(RatioCheck(name, formula, tau_power, value, value >= kappa))

    def window(rate_tau: float) -> float:  # 2 pi / (rate * tau); inf for a zero rate
        return two_pi / rate_tau if rate_tau else math.inf

    if not p.is_resonant:
        add("fast_drive", "tau*omega/pi", 1, tau * p.omega / math.pi)
        add("fast_counterrotating", "tau*(omega+epsilon)/(2*pi)", 1,
            tau * (p.omega + p.epsilon) / two_pi)
        add("slow_detuning", "|delta|*tau/(2*pi)", 1, abs(p.detuning) * tau / two_pi)
        add("stark_window", "2*pi/(S_rw*tau)", -1, window(abs(stark_shift(p)) * tau))
    else:
        add("rabi_window", "2*pi/(W*tau)", -1, window(w * tau))
        add("fast_counterrotating", "tau*(2*omega-W)/(2*pi)", 1,
            tau * (2.0 * p.omega - w) / two_pi)
        try:
            prime = window(bloch_siegert_prime_shift(p) * tau)
        except AmplitudePole:
            prime = math.nan  # at/beyond the pole: never passes
        add("prime_window", "2*pi/(S_bs'*tau)", -1, prime)
        # The self-consistency bound on the amplitude; the cube root pairs the
        # off-diagonal-shift window with the counterrotating one.
        add("consistency", "(W/omega)*32^(1/3)", 0, (w / p.omega) * 32.0 ** (1.0 / 3.0))

    case = "resonant" if p.is_resonant else "dispersive"
    return RegimeReport(case=case, kappa=kappa, checks=tuple(checks))


def regime_window(p: DriveParams, kappa: float = 5.0):
    """``(lo, hi, band)`` in tau from the regime ratios at tau = 1, or None.

    ``lo``/``hi`` are where the last growing ratio reaches 1 and the first
    shrinking one falls to 1; a non-positive, infinite or nan ratio bounds
    nothing, and None means a side has no bound.  ``band`` = (kappa*lo, hi/kappa),
    where every ratio reaches kappa, is None if empty or if a tau-independent
    ratio is below kappa.  kappa is checked as in :func:`validate_regime`.
    """
    checks = validate_regime(p, 1.0, kappa).checks
    bounded = [c for c in checks if 0 < c.value < math.inf]
    lowers = [1.0 / c.value for c in bounded if c.tau_power == 1]
    uppers = [c.value for c in bounded if c.tau_power == -1]
    if not lowers or not uppers:
        return None
    lo, hi = max(lowers), min(uppers)
    band = (kappa * lo, hi / kappa)
    feasible = band[0] <= band[1] and all(c.passes for c in checks if c.tau_power == 0)
    return lo, hi, band if feasible else None
