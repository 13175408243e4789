import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmagnus import (
    DegenerateSplittingWarning,
    DriveParams,
    Frame,
    PauliCoeffs,
    PropagationSpec,
    UnknownFramePair,
    Unitary2,
    compute_shifts,
    expm_pauli,
    floquet_splitting,
    frame_transform,
    h_bar,
    h_eff_dispersive,
    h_eff_resonant_bar,
    h_interaction,
    h_lab,
    propagate,
    resonant_splitting,
    trajectory,
)
from cgmagnus.pauli import ID2, SIGMA1, unitarity_defect
from cgmagnus.propagation import default_floquet_steps, max_step

from conftest import random_unitary

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        PropagationSpec(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        PropagationSpec(0.0, 1.0, 0)
    for t0, t1, field in [(0.0, math.nan, "t1"), (0.0, math.inf, "t1"), (-math.inf, 1.0, "t0")]:
        with pytest.raises(ValueError, match=field):
            PropagationSpec(t0, t1, 10)
    with pytest.raises(ValueError, match="steps"):
        PropagationSpec(0.0, 1.0, 2.5)
    assert PropagationSpec(0.0, 1.0, np.int64(3)).steps == 3


@pytest.mark.parametrize("steps", [0, -3, 2.5])
def test_floquet_splitting_rejects_bad_steps(steps):
    with pytest.raises(ValueError, match="steps"):
        floquet_splitting(RESONANT, steps=steps)


def test_constant_generator_is_exact():
    eps = 4.0
    h = lambda t: PauliCoeffs(0, 0, 0, -eps / 2)
    for steps in (1, 7):
        u = propagate(h, PropagationSpec(0.0, 2.2, steps)).matrix
        expected = np.diag([np.exp(1j * eps * 2.2 / 2), np.exp(-1j * eps * 2.2 / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-13)


def test_rabi_half_period_full_transfer():
    w = 0.37
    h = lambda t: PauliCoeffs(0, w, 0, 0)
    dt = math.pi / (2 * w)
    u = propagate(h, PropagationSpec(0.0, dt, 16)).matrix
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    closed = math.cos(w * dt) * ID2 - 1j * math.sin(w * dt) * SIGMA1
    np.testing.assert_allclose(u, closed, atol=1e-12)


def test_midpoint_convergence_order():
    h = lambda t: h_lab(t, DISPERSIVE)
    period = 2 * math.pi
    ref = propagate(h, PropagationSpec(0.0, period, 40_000)).matrix
    errs = []
    for n in (200, 400):
        u = propagate(h, PropagationSpec(0.0, period, n)).matrix
        errs.append(np.linalg.norm(u - ref, 2))
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_group_property_matched_grids():
    h = lambda t: h_lab(t, DISPERSIVE)
    period = 2 * math.pi
    full = propagate(h, PropagationSpec(0.0, period, 512)).matrix
    first = propagate(h, PropagationSpec(0.0, period / 2, 256)).matrix
    second = propagate(h, PropagationSpec(period / 2, period, 256)).matrix
    np.testing.assert_allclose(second @ first, full, atol=1e-11)


def test_propagators_stay_unitary_over_long_runs():
    h = lambda t: h_interaction(t, DISPERSIVE)
    u = propagate(h, PropagationSpec(0.0, 100 * math.pi, 50_000))
    assert unitarity_defect(u.matrix) <= 1e-12


def test_propagate_accepts_matrix_valued_hamiltonians():
    # A callable returning raw Hermitian matrices goes through the same path.
    from cgmagnus import compose

    h_coeffs = lambda t: h_interaction(t, DISPERSIVE)
    h_matrix = lambda t: compose(h_interaction(t, DISPERSIVE))
    spec = PropagationSpec(0.0, 3.0, 300)
    a = propagate(h_coeffs, spec).matrix
    b = propagate(h_matrix, spec).matrix
    np.testing.assert_allclose(a, b, atol=1e-13)


def test_coarse_static_dispersive_phase():
    p = DISPERSIVE
    heff = h_eff_dispersive(p)
    sh = compute_shifts(p)
    total = sh.s_rw + sh.s_bs
    t = 7.7
    u = propagate(heff, PropagationSpec(0.0, t, 1)).matrix
    np.testing.assert_allclose(
        u,
        np.diag([np.exp(1j * total * t / 2), np.exp(-1j * total * t / 2)]),
        atol=1e-13,
    )


def test_coarse_zero_hamiltonian_identity():
    u = propagate(PauliCoeffs(0, 0, 0, 0), PropagationSpec(0.0, 5.0, 1))
    np.testing.assert_allclose(u.matrix, ID2, atol=0)


def test_propagate_accepts_static_generator():
    h = h_eff_dispersive(DISPERSIVE)
    spec = PropagationSpec(1.3, 8.4, 5)
    u = propagate(h, spec).matrix
    np.testing.assert_allclose(u, propagate(h, spec).matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(u, expm_pauli(h, 8.4 - 1.3).matrix, rtol=0, atol=1e-15)


def test_coarse_resonant_bar_self_refinement():
    beat = 2 * math.pi / RESONANT.amplitude
    h = lambda t: h_eff_resonant_bar(t, RESONANT)
    u40 = propagate(h, PropagationSpec(0.0, beat, 40)).matrix
    u400 = propagate(h, PropagationSpec(0.0, beat, 400)).matrix
    assert np.linalg.norm(u40 - u400, 2) < 1e-4


def test_frame_transform_identity_at_origin(rng):
    u = Unitary2(random_unitary(rng))
    for a in Frame:
        for b in Frame:
            out = frame_transform(u, a, b, 0.0, DISPERSIVE)
            np.testing.assert_allclose(out.matrix, u.matrix, atol=1e-14)


def test_frame_transform_composition(rng):
    u = Unitary2(random_unitary(rng))
    t = 1.37
    via = frame_transform(
        frame_transform(u, Frame.INTERACTION, Frame.BAR, t, RESONANT),
        Frame.BAR,
        Frame.LAB,
        t,
        RESONANT,
    )
    direct = frame_transform(u, Frame.INTERACTION, Frame.LAB, t, RESONANT)
    np.testing.assert_allclose(via.matrix, direct.matrix, atol=1e-12)


@pytest.mark.parametrize("a,b,c", list(itertools.product(Frame, repeat=3)))
@settings(max_examples=8, deadline=None)
@given(
    t=st.floats(0.0, 60.0),
    epsilon=st.floats(0.1, 8.0),
    amplitude=st.floats(0.0, 1.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_frame_transform_chain_equals_direct(a, b, c, t, epsilon, amplitude, seed):
    p = DriveParams(epsilon=epsilon, omega=1.0, amplitude=amplitude)
    u = Unitary2(random_unitary(np.random.default_rng(seed)))
    via = frame_transform(frame_transform(u, a, b, t, p), b, c, t, p)
    direct = frame_transform(u, a, c, t, p)
    np.testing.assert_allclose(via.matrix, direct.matrix, rtol=0, atol=1e-12)


def test_frame_transform_rejects_unknown():
    u = Unitary2(ID2)
    with pytest.raises(UnknownFramePair):
        frame_transform(u, "lab", Frame.LAB, 0.0, DISPERSIVE)


def test_two_route_equivalence_interaction():
    t_end, steps = 0.5, 20_000
    u_lab = propagate(lambda t: h_lab(t, DISPERSIVE), PropagationSpec(0, t_end, steps))
    u_int = propagate(
        lambda t: h_interaction(t, DISPERSIVE), PropagationSpec(0, t_end, steps)
    )
    back = frame_transform(u_int, Frame.INTERACTION, Frame.LAB, t_end, DISPERSIVE)
    assert np.linalg.norm(u_lab.matrix - back.matrix, 2) < 1e-9


def test_two_route_equivalence_bar_at_resonance():
    t_end, steps = 0.5, 20_000
    u_lab = propagate(lambda t: h_lab(t, RESONANT), PropagationSpec(0, t_end, steps))
    u_bar = propagate(lambda t: h_bar(t, RESONANT), PropagationSpec(0, t_end, steps))
    back = frame_transform(u_bar, Frame.BAR, Frame.LAB, t_end, RESONANT)
    assert np.linalg.norm(u_lab.matrix - back.matrix, 2) < 1e-9


@pytest.mark.parametrize("a,b", list(itertools.product(Frame, repeat=2)))
def test_frame_transform_stack_matches_scalar_rows(a, b):
    ts = np.linspace(0.0, 3.0, 7)
    u = trajectory(lambda t: h_interaction(t, RESONANT), ts, 1e-2)
    out = frame_transform(u, a, b, ts, RESONANT)
    rows = [frame_transform(Unitary2(m), a, b, t, RESONANT) for m, t in zip(u, ts)]
    assert isinstance(out, np.ndarray) and all(isinstance(r, Unitary2) for r in rows)
    assert np.abs(out - [r.matrix for r in rows]).max() <= 1e-15


def test_frame_transform_stack_two_route_interaction():
    # The lab trajectory and the interaction-picture one carried to the lab
    # agree within the midpoint error (about 7e-9 at dt = 2e-4 here).
    ts, dt = np.linspace(0.0, 3.0, 7), 2e-4
    u_int = trajectory(lambda t: h_interaction(t, DISPERSIVE), ts, dt)
    back = frame_transform(u_int, Frame.INTERACTION, Frame.LAB, ts, DISPERSIVE)
    u_lab = trajectory(lambda t: h_lab(t, DISPERSIVE), ts, dt)
    assert np.abs(back - u_lab).max() < 5e-8


def test_floquet_zero_drive_folds_to_zero():
    # epsilon = 4*omega: the bare splitting folds onto the zone boundary at 0.
    p = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    with pytest.warns(DegenerateSplittingWarning):
        gap = floquet_splitting(p, steps=500)
    assert abs(gap) < 1e-9


@pytest.mark.parametrize("epsilon", [0.3, 0.7, 1.3, 1.5, 2.5])
def test_floquet_zero_drive_folds_into_the_first_zone(epsilon):
    # The bare splitting epsilon folds to its distance from the nearest multiple
    # of omega; epsilon = 1.5 and 2.5 sit on the zone edge omega/2.
    gap = floquet_splitting(DriveParams(epsilon, 1.0, 0.0))
    assert abs(gap - abs(epsilon - round(epsilon))) < 1e-12


def test_floquet_matches_resonant_prediction_small_drive():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.1)
    gap = floquet_splitting(p, steps=4000)
    assert abs(gap - resonant_splitting(p)) < 5e-4


def test_default_floquet_steps_per_shortest_period():
    # 200 steps per period 2 pi/1.01 over one drive period is exactly 202 steps
    assert default_floquet_steps(DriveParams(0.01, 1.0, 0.5)) == 202
    assert default_floquet_steps(DISPERSIVE) == 1000
    assert default_floquet_steps(DISPERSIVE, steps_per_period=7) == 35


@pytest.mark.parametrize("steps_per_period", [0, -3, 2.5, 200.0])
def test_max_step_rejects_bad_steps_per_period(steps_per_period):
    # 0 used to raise ZeroDivisionError, and -3 returned a negative step.
    with pytest.raises(ValueError, match="steps_per_period"):
        max_step(DISPERSIVE, steps_per_period)


@pytest.mark.parametrize("steps_per_period", [0, -3, 2.5])
def test_default_floquet_steps_rejects_bad_steps_per_period(steps_per_period):
    # -3 used to give -15 steps.
    with pytest.raises(ValueError, match="steps_per_period"):
        default_floquet_steps(DISPERSIVE, steps_per_period)


def test_default_floquet_steps_ignore_roundoff_in_the_period_ratio():
    # 200 * (1 + k/100) is a whole number of steps; rounding the ratio must not add one.
    for k in range(1, 1001):
        assert default_floquet_steps(DriveParams(k / 100, 1.0, 0.5)) == 200 + 2 * k


def test_floquet_invariant_under_time_origin_shift(rng):
    p = DISPERSIVE
    period = p.drive_period
    steps = default_floquet_steps(p)
    base = floquet_splitting(p, steps=steps)
    for _ in range(3):
        t0 = rng.uniform(0.0, period)
        u = propagate(lambda t: h_lab(t, p), PropagationSpec(t0, t0 + period, steps))
        lam = np.linalg.eigvals(u.matrix)
        gap = abs(np.angle(lam[0] * np.conj(lam[1]))) / period
        gap = math.fmod(gap, p.omega)
        gap = min(gap, p.omega - gap)
        assert abs(gap - base) < 1e-7
