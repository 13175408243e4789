import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cgmagnus import (
    AmplitudePole,
    DriveParams,
    NotResonant,
    PauliCoeffs,
    PropagationSpec,
    QuadratureSpec,
    ResonantStarkWarning,
    Window,
    compose,
    compute_shifts,
    f2_numeric,
    h_bar,
    h_eff2_analytic,
    h_eff_dispersive,
    h_eff_resonant_bar,
    h_eff_resonant_interaction,
    h_rw_interaction,
    min_fidelity,
    propagate,
    resonant_splitting,
    stark_shift,
    validate_regime,
)
from cgmagnus.pauli import _expm_matrix

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)


def test_shift_values_dispersive_point():
    sh = compute_shifts(DISPERSIVE)
    assert sh.s_rw == pytest.approx(1.0 / 24.0, rel=1e-12)
    assert sh.s_bs == pytest.approx(1.0 / 40.0, rel=1e-12)
    assert sh.s_bs_prime == pytest.approx(1.0 / 120.0, rel=1e-12)


def test_shift_values_resonant_point():
    with pytest.warns(ResonantStarkWarning):
        sh = compute_shifts(RESONANT)
    assert math.isinf(sh.s_rw)
    assert sh.s_bs == pytest.approx(0.0625, rel=1e-12)
    assert sh.s_bs_prime == pytest.approx(8.333333333333333e-3, rel=1e-12)


def test_shifts_zero_drive():
    p = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    sh = compute_shifts(p)
    assert (sh.s_rw, sh.s_bs, sh.s_bs_prime) == (0.0, 0.0, 0.0)


def test_s_bs_continuity_at_resonance():
    # At delta = 0, S_bs reduces exactly to W^2/(4 omega).
    for w in (0.1, 0.5, 1.3):
        p = DriveParams(epsilon=1.0, omega=1.0, amplitude=w)
        with pytest.warns(ResonantStarkWarning):
            sh = compute_shifts(p)
        assert sh.s_bs == w * w / 4.0


def test_resonance_is_one_decision_at_the_tolerance_edge():
    # delta = 1e-12 omega exactly: both formulas must agree that this is resonant.
    p = DriveParams(epsilon=1e12 + 1.0, omega=1e12, amplitude=0.5)
    h_eff_resonant_interaction(p)  # accepted, not NotResonant
    with pytest.warns(ResonantStarkWarning):
        assert math.isinf(stark_shift(p))
    assert p.is_resonant
    assert not DriveParams(epsilon=1e12 + 2.0, omega=1e12, amplitude=0.5).is_resonant


def test_amplitude_pole():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=2.0)
    with pytest.raises(AmplitudePole):
        compute_shifts(p)


def test_shift_scaling_homogeneity():
    # (epsilon, omega, W) -> (lam*, lam*, lam*) scales every shift by lam.
    base = compute_shifts(DISPERSIVE)
    for lam in (0.5, 2.0):
        scaled = compute_shifts(
            DriveParams(
                epsilon=lam * DISPERSIVE.epsilon,
                omega=lam * DISPERSIVE.omega,
                amplitude=lam * DISPERSIVE.amplitude,
            )
        )
        assert scaled.s_rw == pytest.approx(lam * base.s_rw, rel=1e-12)
        assert scaled.s_bs == pytest.approx(lam * base.s_bs, rel=1e-12)
        assert scaled.s_bs_prime == pytest.approx(lam * base.s_bs_prime, rel=1e-12)


def test_dispersive_effective_value():
    h = h_eff_dispersive(DISPERSIVE)
    assert h == PauliCoeffs(0.0, 0.0, 0.0, -1.0 / 30.0)
    p0 = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    assert h_eff_dispersive(p0) == PauliCoeffs(0, 0, 0, 0)


def test_dispersive_matches_order2_static_at_sinc_roots():
    # With both sinc factors at a root the full order-2 form is purely static
    # and coincides with the shift expression.
    tau = 10 * math.pi
    a = h_eff_dispersive(DISPERSIVE)
    b = h_eff2_analytic(0.77, DISPERSIVE, tau)
    assert a.c3 == pytest.approx(b.c3, rel=1e-14)


def test_resonant_bar_structure():
    h0 = h_eff_resonant_bar(0.0, RESONANT)
    # sigma1 coefficient is -S_bs'/2; slow term sits on sigma3 at t = 0.
    assert h0.c1 == pytest.approx(-0.5 / 120.0, rel=1e-12)
    assert h0.c2 == pytest.approx(0.0, abs=1e-15)
    ratio = (1 - 0.03125) / (1 - 0.0625)
    assert h0.c3 == pytest.approx(-0.5 * 0.0625 * ratio, rel=1e-12)


def test_resonant_bar_periodicity():
    beat = 2 * math.pi / RESONANT.amplitude
    a = h_eff_resonant_bar(0.3, RESONANT)
    b = h_eff_resonant_bar(0.3 + beat, RESONANT)
    np.testing.assert_allclose(compose(a), compose(b), atol=1e-12)


def test_resonant_bar_zero_drive():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.0)
    assert h_eff_resonant_bar(1.0, p) == PauliCoeffs(0, 0, 0, 0)


def test_resonant_forms_reject_detuned_drive():
    with pytest.raises(NotResonant):
        h_eff_resonant_bar(0.0, DISPERSIVE)
    with pytest.raises(NotResonant):
        h_eff_resonant_interaction(DISPERSIVE)
    with pytest.raises(NotResonant):
        resonant_splitting(DISPERSIVE)


def test_resonant_bar_matches_quadrature_deep_in_window():
    # Deep inside the validity window (small W, omega*tau at an even multiple
    # of pi) the retained slow terms agree with the full nested quadrature.
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.005)
    tau = 12 * math.pi
    hb = lambda t: h_bar(t, p)
    worst = 0.0
    for t in (0.0, 0.7, 1.9):
        q = f2_numeric(hb, Window(t=t, tau=tau), QuadratureSpec(points=96)) / tau
        a = compose(h_eff_resonant_bar(t, p))
        worst = max(worst, np.abs(a - q).max() / np.abs(q).max())
    assert worst < 5e-3


def test_resonant_bar_quadrature_degradation_documented():
    # At W = 0.5 omega the validity window is only a factor ~3 wide and the
    # closed form visibly departs from quadrature; report, don't gate.
    tau = 4.0
    hb = lambda t: h_bar(t, RESONANT)
    q = f2_numeric(hb, Window(t=0.0, tau=tau), QuadratureSpec(points=96)) / tau
    a = compose(h_eff_resonant_bar(0.0, RESONANT))
    rel = np.abs(a - q).max() / np.abs(q).max()
    print(f"resonant bar closed form vs quadrature at W=0.5*omega: rel dev {rel:.3f}")
    assert rel < 1.0  # same order of magnitude, not precise agreement


def test_resonant_interaction_values():
    h = h_eff_resonant_interaction(RESONANT)
    assert h.c1 == pytest.approx(0.5 * (0.5 - 1.0 / 120.0), rel=1e-12)
    assert h.c3 == pytest.approx(-0.03125, rel=1e-12)
    assert h.c0 == 0 and h.c2 == 0
    p0 = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.0)
    assert h_eff_resonant_interaction(p0) == PauliCoeffs(0, 0, 0, 0)


def test_resonant_interaction_equals_bar_route_propagator():
    # Propagating the bar-frame form and undoing the corotating rotation
    # reproduces the static interaction-picture form at approximation level.
    p = RESONANT
    beat = 2 * math.pi / p.amplitude
    h_bar_eff = lambda t: h_eff_resonant_bar(t, p)
    h_int_eff = h_eff_resonant_interaction(p)
    worst = 0.0
    for t in np.linspace(0.12 * beat, beat, 8):
        steps = max(2, int(400 * t / beat))
        u_bar = propagate(h_bar_eff, PropagationSpec(0.0, t, steps)).matrix
        u_via_bar = _expm_matrix(h_rw_interaction(t, p), t) @ u_bar
        u_direct = _expm_matrix(h_int_eff, t)
        worst = max(worst, 1.0 - min_fidelity(u_via_bar, u_direct))
    assert worst < 1e-2


def test_regime_dispersive_example_values():
    tau = 10 * math.pi
    report = validate_regime(DISPERSIVE, tau, kappa=5.0)
    values = {c.name: c for c in report.checks}
    assert values["fast_drive"].value == pytest.approx(10.0)
    assert values["fast_drive"].passes
    assert values["slow_detuning"].value == pytest.approx(15.0)
    assert values["slow_detuning"].passes
    assert values["fast_counterrotating"].value == pytest.approx(25.0)
    assert values["stark_window"].value == pytest.approx(4.8)
    assert not values["stark_window"].passes
    assert not report.overall


def test_regime_tiny_window_fails_lower_bounds():
    report = validate_regime(DISPERSIVE, 1e-6)
    values = {c.name: c for c in report.checks}
    assert not values["fast_drive"].passes
    assert not values["slow_detuning"].passes
    assert not values["fast_counterrotating"].passes


@pytest.mark.parametrize(
    "amplitude,expected",
    [(0.5, 0.5 * 32 ** (1 / 3)), (0.1, 0.1 * 32 ** (1 / 3))],
)
def test_regime_resonant_consistency_ratio(amplitude, expected):
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=amplitude)
    report = validate_regime(p, 4.0)
    values = {c.name: c for c in report.checks}
    assert values["consistency"].value == pytest.approx(expected, rel=1e-12)
    assert not values["consistency"].passes  # both points sit below kappa = 5


def test_regime_never_raises_and_validates_inputs():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=2.5)  # beyond the pole
    report = validate_regime(p, 3.0)
    assert report.checks  # reported, not raised
    # zero amplitude: the Stark, Rabi and prime windows are infinite, not a division by zero
    for epsilon in (4.0, 1.0):
        for check in validate_regime(DriveParams(epsilon, 1.0, 0.0), 3.0).checks:
            if check.name.endswith("_window"):
                assert check.value == math.inf and check.passes
    for tau in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tau"):
            validate_regime(DISPERSIVE, tau)


def test_regime_report_record_mirrors_table():
    report = validate_regime(DISPERSIVE, 10 * math.pi)
    rec = report.record()
    assert rec["case"] == "dispersive"
    assert rec["overall"] == report.overall
    assert len(rec["checks"]) == len(report.checks)
    table = report.table()
    for check in report.checks:
        assert check.formula in table


def test_regime_case_follows_from_the_drive():
    # No ResonantStarkWarning (an error under the test settings): at resonance
    # the Stark window is never asked for.
    near = DriveParams(epsilon=1.0 + 1e-13, omega=1.0, amplitude=0.5)
    assert validate_regime(DISPERSIVE, 3.0).case == "dispersive"
    assert validate_regime(RESONANT, 3.0).case == "resonant"
    assert near.is_resonant and validate_regime(near, 3.0).case == "resonant"


@given(
    resonant=st.booleans(),
    omega=st.floats(0.1, 10.0),
    epsilon_ratio=st.floats(0.01, 10.0),
    amplitude_ratio=st.floats(0.0, 3.0),
    tau=st.floats(1e-3, 1e3),
)
def test_regime_ratios_scale_by_their_tau_power(resonant, omega, epsilon_ratio, amplitude_ratio, tau):
    epsilon = omega if resonant else omega * epsilon_ratio
    p = DriveParams(epsilon=epsilon, omega=omega, amplitude=omega * amplitude_ratio)
    one, two = validate_regime(p, tau).checks, validate_regime(p, 2.0 * tau).checks
    for a, b in zip(one, two):
        assert a.tau_power in (1, 0, -1)
        if 0 < a.value < math.inf:
            assert b.value == pytest.approx(2.0**a.tau_power * a.value, rel=1e-14), a.name
