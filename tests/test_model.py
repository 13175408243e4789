import math

import numpy as np
import pytest

from cgmagnus import (
    DriveParams,
    PauliCoeffs,
    compose,
    h_bar,
    h_cr_interaction,
    h_interaction,
    h_lab,
    h_rw_interaction,
    h_rwa,
    h_rwa_plus_bs,
    interaction_generator,
    u_x,
)
from cgmagnus.model import _rotating, h0_coeffs
from cgmagnus.pauli import SIGMA1, SIGMA2, _expm_matrix

FIG_DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
FIG_RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(epsilon=0.0, omega=1.0, amplitude=0.1)
    with pytest.raises(ValueError):
        DriveParams(epsilon=1.0, omega=-1.0, amplitude=0.1)
    with pytest.raises(ValueError):
        DriveParams(epsilon=1.0, omega=1.0, amplitude=-0.1)


@pytest.mark.parametrize("field", ["epsilon", "omega", "amplitude"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_drive_params_rejects_non_finite(field, value):
    kwargs = {"epsilon": 4.0, "omega": 1.0, "amplitude": 0.5, field: value}
    with pytest.raises(ValueError, match=field):
        DriveParams(**kwargs)


def test_detuning_is_derived():
    p = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
    assert p.detuning == 3.0
    assert p.drive_period == 2 * math.pi


def test_h_lab_values():
    p = FIG_DISPERSIVE
    assert h_lab(0.0, p) == PauliCoeffs(0.0, p.amplitude, 0.0, -p.epsilon / 2)
    quarter = math.pi / (2 * p.omega)
    assert abs(h_lab(quarter, p).c1) < 1e-15
    p0 = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    for t in (0.0, 0.3, 2.7):
        assert h_lab(t, p0) == PauliCoeffs(0.0, 0.0, 0.0, -2.0)


def test_h_interaction_at_zero_time():
    p = FIG_DISPERSIVE
    assert h_interaction(0.0, p) == PauliCoeffs(0.0, p.amplitude, 0.0, 0.0)


def test_h_interaction_zero_drive():
    p = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    for t in (0.1, 1.0, 17.3):
        np.testing.assert_allclose(compose(h_interaction(t, p)), 0, atol=0)


def test_h_interaction_matches_conjugation_oracle(rng):
    # Defining contract: equals e^{i H0 t} (H_lab - H0) e^{-i H0 t}.
    p = FIG_DISPERSIVE
    for _ in range(40):
        t = rng.uniform(-30, 30)
        u = _expm_matrix(h0_coeffs(p), -t)  # e^{+i H0 t}
        h1 = compose(h_lab(t, p)) - compose(h0_coeffs(p))
        oracle = u @ h1 @ u.conj().T
        np.testing.assert_allclose(compose(h_interaction(t, p)), oracle, atol=1e-12)


def test_corotating_plus_counterrotating_decomposition(rng):
    # h_interaction is one term rotating at epsilon; the corotating and
    # counterrotating closed forms must sum to it.
    p = FIG_DISPERSIVE
    for _ in range(20):
        t = rng.uniform(-10, 10)
        total = h_rw_interaction(t, p) + h_cr_interaction(t, p)
        np.testing.assert_allclose(
            compose(total), compose(h_interaction(t, p)), atol=1e-12
        )


def test_corotating_static_at_resonance():
    p = FIG_RESONANT
    for t in (0.0, 0.7, 5.1):
        h = h_rw_interaction(t, p)
        assert h == PauliCoeffs(0.0, 0.5 * p.amplitude, 0.0, 0.0)


def test_component_oscillation_frequencies():
    # sigma+/sigma- amplitudes rotate at the detuning and at epsilon + omega.
    p = FIG_DISPERSIVE
    d, b = p.detuning, p.epsilon + p.omega
    for t in (0.3, 1.1):
        rw = h_rw_interaction(t, p)
        assert rw.c1 == pytest.approx(0.5 * p.amplitude * math.cos(d * t))
        assert rw.c2 == pytest.approx(0.5 * p.amplitude * math.sin(d * t))
        cr = h_cr_interaction(t, p)
        assert cr.c1 == pytest.approx(0.5 * p.amplitude * math.cos(b * t))
        assert cr.c2 == pytest.approx(0.5 * p.amplitude * math.sin(b * t))


def test_interaction_preserves_spectrum(rng):
    p = FIG_DISPERSIVE
    for _ in range(20):
        t = rng.uniform(-10, 10)
        a = np.linalg.eigvalsh(compose(h_interaction(t, p)))
        b = np.linalg.eigvalsh(compose(h_lab(t, p)) - compose(h0_coeffs(p)))
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_interaction_periodicity_commensurate():
    # epsilon = 4*omega: all interaction-picture frequencies divide omega.
    p = FIG_DISPERSIVE
    period = 2 * math.pi / p.omega
    for t in (0.0, 0.37, 2.9):
        a = h_interaction(t, p)
        b = h_interaction(t + period, p)
        np.testing.assert_allclose(
            (a.c1, a.c2), (b.c1, b.c2), atol=1e-12
        )


def test_h_bar_at_origin_equals_counterrotating():
    p = FIG_RESONANT
    np.testing.assert_allclose(
        compose(h_bar(0.0, p)), compose(h_cr_interaction(0.0, p)), atol=1e-14
    )


@pytest.mark.parametrize("resonant", [True, False])
def test_h_bar_matches_conjugation_oracle(rng, resonant):
    # Defining contract: U_x^dagger H_cr,lab U_x with the lab-frame counterrotating
    # term (W/2)(cos omega t sigma1 + sin omega t sigma2), at every detuning.
    for _ in range(20):
        omega = rng.uniform(0.5, 2.0)
        epsilon = omega if resonant else rng.uniform(0.2, 5.0)
        p = DriveParams(epsilon, omega, rng.uniform(0.0, 1.5))
        t = rng.uniform(-20, 20, 64)
        ux = u_x(t, p)
        h_cr_lab = 0.5 * p.amplitude * (
            np.cos(omega * t)[:, None, None] * SIGMA1 + np.sin(omega * t)[:, None, None] * SIGMA2
        )
        oracle = ux.conj().swapaxes(-1, -2) @ h_cr_lab @ ux
        np.testing.assert_allclose(
            compose(h_bar(t, p)), oracle, rtol=0, atol=1e-13 * max(p.amplitude, 1.0)
        )


def test_h_bar_zero_drive():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.0)
    np.testing.assert_allclose(compose(h_bar(1.3, p)), 0, atol=1e-15)


def test_h_bar_hermitian_traceless(rng):
    p = FIG_RESONANT
    for _ in range(20):
        t = rng.uniform(0, 20)
        h = h_bar(t, p)
        m = compose(h)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert abs(np.trace(m)) < 1e-12


def test_u_x_is_identity_at_origin():
    np.testing.assert_allclose(u_x(0.0, FIG_RESONANT), np.eye(2), atol=1e-15)


def test_h_rwa_forms():
    p = FIG_RESONANT
    assert h_rwa(p) == PauliCoeffs(0.0, 0.25, 0.0, 0.0)
    withbs = h_rwa_plus_bs(p)
    # sigma3 coefficient is -S_bs/2 with S_bs = W^2/(4 omega) at resonance
    assert withbs.c3 == pytest.approx(-0.5 * 0.0625, rel=1e-12)
    diff = withbs - h_rwa(p)
    assert diff.c1 == 0 and diff.c2 == 0 and diff.c0 == 0


def test_h_rwa_zero_drive():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.0)
    assert h_rwa(p) == PauliCoeffs(0, 0, 0, 0)
    assert h_rwa_plus_bs(p) == PauliCoeffs(0, 0, 0, 0)


def test_h_interaction_is_the_rotating_generator_bit_for_bit(rng):
    # The drive's lab body W cos(omega t) sigma1 turned at epsilon is the one
    # rotating term A (cos epsilon t sigma1 + sin epsilon t sigma2) it was.
    t = rng.uniform(-300.0, 300.0, 1000)
    g = interaction_generator(FIG_DISPERSIVE)
    assert g.rate == FIG_DISPERSIVE.epsilon
    want = _rotating(t, 4.0, 0.5 * np.cos(t))
    for got in (g(t), h_interaction(t, FIG_DISPERSIVE)):
        for field in ("c0", "c1", "c2", "c3"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
