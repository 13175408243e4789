import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmagnus import (
    DetuningSingularity,
    DriveParams,
    NonHermitianInput,
    PauliCoeffs,
    QuadratureSpec,
    Window,
    compose,
    f1_numeric,
    f2_numeric,
    h_eff1_analytic,
    h_eff2_analytic,
    h_eff_window,
    h_eff_order2_analytic,
    h_interaction,
    order2_generator,
    propagate,
    expm_pauli,
    sinc,
)
from cgmagnus.magnus import _second_order_terms
from cgmagnus.pauli import SIGMA1, SIGMA2, SIGMA3
from cgmagnus.propagation import PropagationSpec

FIG = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)


def h_fig(t):
    return h_interaction(t, FIG)


def test_sinc_definition_and_taylor_branch():
    assert sinc(0.0) == 1.0
    assert sinc(math.pi) == pytest.approx(0.0, abs=1e-16)
    x = 3e-5
    assert sinc(x) == pytest.approx(math.sin(x) / x, rel=1e-15)
    assert sinc(2.0) == math.sin(2.0) / 2.0


def test_window_validation():
    w = Window(t=1.0, tau=4.0)
    assert (w.t0, w.t1) == (-1.0, 3.0)
    for t, tau in [(0.0, 0.0), (0.0, math.inf), (0.0, math.nan), (math.inf, 1.0), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            Window(t=t, tau=tau)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(points=2)


def test_quadrature_spec_rejects_non_integer_points():
    # A float node count used to pass here and fail later inside numpy's leggauss.
    for points in (4.5, 64.0):
        with pytest.raises(ValueError, match="points must be an integer"):
            QuadratureSpec(points=points)
    assert QuadratureSpec(points=np.int64(8)).points == 8


def test_f1_constant_hamiltonian():
    c, tau = 0.7, 2.5
    h = lambda s: PauliCoeffs(0, 0, 0, c)
    f1 = f1_numeric(h, Window(t=0.3, tau=tau))
    np.testing.assert_allclose(f1, c * tau * SIGMA3, atol=1e-13)


def test_f1_odd_symmetry_vanishes():
    # cos(omega s) integrates to zero over a window centered on its node.
    omega = 1.3
    h = lambda s: PauliCoeffs(0, np.cos(omega * s), 0, 0)
    f1 = f1_numeric(h, Window(t=math.pi / (2 * omega), tau=1.7))
    assert np.abs(f1).max() < 1e-12


@pytest.mark.parametrize("maker", [f1_numeric, f2_numeric])
def test_refinement_oracle_agreement(maker):
    # 64-point Gauss-Legendre already agrees with a 4x refined reference.
    w = Window(t=0.0, tau=4 * math.pi)
    coarse = maker(h_fig, w, QuadratureSpec(points=64))
    fine = maker(h_fig, w, QuadratureSpec(points=256))
    tol = 1e-10 if maker is f1_numeric else 1e-9
    assert np.abs(coarse - fine).max() < tol


def test_quadrature_samples_generator_on_node_arrays():
    calls = []
    h = lambda s: calls.append(np.shape(s)) or h_fig(s)
    f1_numeric(h, Window(t=0.2, tau=3.0), QuadratureSpec(points=8))
    assert calls == [(8,)]
    calls.clear()
    f2_numeric(h, Window(t=0.2, tau=3.0), QuadratureSpec(points=8))
    assert calls == [(8,), (8, 8)]


def test_f2_constant_hamiltonian_vanishes():
    h = lambda s: PauliCoeffs(0.2, 0.5, -0.1, 0.9)
    f2 = f2_numeric(h, Window(t=1.0, tau=3.0))
    assert np.abs(f2).max() < 1e-13


def _f2_matrix_reference(h, w, q):
    # The matrix route: -(i/2) sum_a w1[a] [H(s1_a), G(s1_a)] on (..., 2, 2)
    # stacks, with the inner sums G(s1) = sum_k w2[a, k] H(s2_ak).
    x, wt = np.polynomial.legendre.leggauss(q.points)

    def sample(hi):
        half = 0.5 * (hi - w.t0)
        s = 0.5 * (hi + w.t0) + half * x
        m = h(s)
        m = compose(m) if isinstance(m, PauliCoeffs) else np.asarray(m, dtype=complex)
        return s, half * wt, np.broadcast_to(m, s.shape + (2, 2))

    s1, w1, h1 = sample(w.t1)
    _, w2, h2 = sample(s1[:, None])
    g = np.einsum("ak,akij->aij", w2, h2)
    return -0.5j * np.einsum("a,aij->ij", w1, h1 @ g - g @ h1)


def _trig_generator(seed, stack):
    # c_j(s) = b_j + a_j cos(f_j s + phi_j) for j = 0..3, with c0 != 0; as a
    # Hermitian (..., 2, 2) stack when ``stack`` is set.
    rng = np.random.default_rng(seed)
    b, a = rng.uniform(-2.0, 2.0, 4), rng.uniform(0.5, 2.0, 4)
    f, phi = rng.uniform(0.3, 3.0, 4), rng.uniform(0.0, 2 * math.pi, 4)
    b[0] = math.copysign(0.5 + abs(b[0]), b[0])

    def h(s):
        s = np.asarray(s)[..., None]
        c = PauliCoeffs(*np.moveaxis(b + a * np.cos(f * s + phi), -1, 0))
        return compose(c) if stack else c

    return h


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stack=st.booleans(),
    t=st.floats(-5.0, 5.0),
    tau=st.floats(0.5, 20.0),
    points=st.sampled_from([8, 33, 64, 96]),
)
def test_f2_cross_product_matches_matrix_route(seed, stack, t, tau, points):
    h = _trig_generator(seed, stack)
    w, q = Window(t=t, tau=tau), QuadratureSpec(points=points)
    ref = _f2_matrix_reference(h, w, q)
    got = f2_numeric(h, w, q)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_f2_time_reversal_flips_sign():
    w = Window(t=0.7, tau=3.3 * math.pi)
    h_rev = lambda s: h_fig(w.t0 + w.t1 - s)
    f2, f2_rev = f2_numeric(h_fig, w), f2_numeric(h_rev, w)
    np.testing.assert_allclose(f2_rev, -f2, atol=1e-12 * np.abs(f2).max())


def test_f2_piecewise_ordered_value():
    # H = sigma1 on [0,1), sigma2 on [1,2]: the ordered nested integral is
    # -(i/2) [sigma2, sigma1] * 1 * 1 = -sigma3 exactly.
    h = lambda s: np.where(s[..., None, None] < 1.0, SIGMA1, SIGMA2)
    spec = QuadratureSpec(points=256)
    f2 = f2_numeric(h, Window(t=1.0, tau=2.0), spec)
    np.testing.assert_allclose(f2, -SIGMA3, atol=2e-2)


def test_f2_scaling_at_least_linear():
    # H = const + lambda * V(s): F2 must shrink at least linearly in lambda.
    norms = {}
    for lam in (1e-2, 1e-3):
        h = lambda s, lam=lam: PauliCoeffs(0, lam * np.cos(2.0 * s), 0, 1.0)
        norms[lam] = np.abs(f2_numeric(h, Window(t=0.4, tau=3.0))).max()
    assert norms[1e-2] / norms[1e-3] > 9.0


def test_h_eff_window_constant_both_orders():
    c = PauliCoeffs(0.1, -0.4, 0.2, 0.8)
    h = lambda s: c
    for order in (1, 2):
        out = h_eff_window(h, Window(t=0.0, tau=1.7), order=order)
        np.testing.assert_allclose(
            compose(out), compose(c), atol=1e-12
        )


def test_h_eff_window_order1_is_f1_over_tau():
    w = Window(t=0.5, tau=2 * math.pi)
    out = h_eff_window(h_fig, w, order=1)
    np.testing.assert_allclose(compose(out), f1_numeric(h_fig, w) / w.tau, atol=1e-13)


@pytest.mark.parametrize(
    "oracle",
    [f1_numeric, f2_numeric, lambda h, w: h_eff_window(h, w, order=1)],
    ids=["f1_numeric", "f2_numeric", "h_eff_window"],
)
def test_h_eff_window_rejects_non_hermitian_input(oracle):
    h = lambda s: np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        oracle(h, Window(t=0.0, tau=1.0))


@pytest.mark.parametrize("order", [1, 2])
def test_h_eff_window_rejects_non_2x2_generator(order):
    # A 4x4 generator used to return PauliCoeffs(1, 0, 0, 0) from its top-left block.
    h = lambda s: np.broadcast_to(np.eye(4), np.shape(s) + (4, 4))
    with pytest.raises(ValueError, match="shape"):
        h_eff_window(h, Window(t=0.0, tau=1.0), order=order)


def test_h_eff_window_order_validation():
    with pytest.raises(ValueError):
        h_eff_window(h_fig, Window(t=0.0, tau=1.0), order=3)


def test_h_eff_window_short_window_third_order_accuracy():
    # exp(-i H_eff tau) approximates the exact window propagator to O(tau^3):
    # halving tau cuts the error by at least 7x.
    errs = []
    for tau in (0.8, 0.4):
        w = Window(t=1.3, tau=tau)
        he = h_eff_window(h_fig, w, order=2)
        u_eff = expm_pauli(he, tau).matrix
        u_exact = propagate(h_fig, PropagationSpec(w.t0, w.t1, 4000)).matrix
        errs.append(np.linalg.norm(u_eff - u_exact, 2))
    assert errs[0] / errs[1] >= 7.0


def test_h_eff1_vanishes_at_common_sinc_roots():
    # tau = 10 pi / omega puts both sinc factors at a root for these params.
    tau = 10 * math.pi
    for t in (0.0, 0.9):
        h = h_eff1_analytic(t, FIG, tau)
        assert np.abs(compose(h)).max() == pytest.approx(0.0, abs=1e-15)


def test_h_eff1_small_window_limit_is_h_interaction():
    tau = 1e-9
    for t in (0.0, 1.3):
        a = compose(h_eff1_analytic(t, FIG, tau))
        b = compose(h_interaction(t, FIG))
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_h_eff1_matches_quadrature():
    tau = 4 * math.pi
    for t in (0.0, 0.7, 2.1):
        a = compose(h_eff1_analytic(t, FIG, tau))
        q = f1_numeric(h_fig, Window(t=t, tau=tau)) / tau
        np.testing.assert_allclose(a, q, atol=1e-12)


def test_h_eff2_zero_drive():
    p = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.0)
    h = h_eff2_analytic(0.3, p, 2.0)
    assert np.abs(compose(h)).max() == 0


def test_h_eff2_static_value_at_sinc_roots():
    # At tau = 10 pi all sinc corrections vanish and the sigma3 coefficient
    # is exactly -(S_rw + S_bs)/2 = -1/30 for these parameters.
    tau = 10 * math.pi
    for t in (0.0, 0.45, 1.9):
        h = h_eff2_analytic(t, FIG, tau)
        assert h.c3 == pytest.approx(-1.0 / 30.0, abs=1e-15)
        assert h.c1 == 0 and h.c2 == 0


@pytest.mark.parametrize("tau", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("h_eff", [h_eff1_analytic, h_eff2_analytic])
def test_h_eff_analytic_rejects_bad_tau(h_eff, tau):
    with pytest.raises(ValueError, match="tau"):
        h_eff(0.0, FIG, tau)


def test_h_eff2_detuning_singularity():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)
    with pytest.raises(DetuningSingularity):
        h_eff2_analytic(0.0, p, 10.0)


@pytest.mark.parametrize("epsilon", [0.2, 0.9, 1.3, 2.5, 4.0, 6.3, 11.7])
@pytest.mark.parametrize("tau_periods", [0.05, 0.4, 1.4, 2.7, 4.1, 5.0, 13.3])
def test_second_order_bracket_is_the_real_part_of_the_complex_form(epsilon, tau_periods):
    # The ordered integral's bracket, with its two complex exponentials: its
    # imaginary part cancels identically, so k is -W^2/4 times its real part.
    p = DriveParams(epsilon=epsilon, omega=1.0, amplitude=0.7)
    tau = 2.0 * math.pi * tau_periods
    d, b = p.detuning, p.epsilon + p.omega
    bracket = (
        sinc(tau) * (1.0 / d + 1.0 / b)
        - np.exp(-0.5j * b * tau) * sinc(0.5 * d * tau) / b
        - np.exp(0.5j * d * tau) * sinc(0.5 * b * tau) / d
    )
    scale = 1.0 / abs(d) + 1.0 / b
    assert abs(bracket.imag) <= 1e-15 * scale
    _, k = _second_order_terms(p, tau)
    assert abs(k + 0.25 * p.amplitude**2 * bracket.real) <= 1e-15 * scale


def test_h_eff2_matches_quadrature_pointwise():
    q = QuadratureSpec(points=96)
    for tau in (5.5 * math.pi, 9.1 * math.pi):
        for t in (0.0, 0.9):
            a = compose(h_eff2_analytic(t, FIG, tau))
            num = f2_numeric(h_fig, Window(t=t, tau=tau), q) / tau
            rel = np.abs(a - num).max() / np.abs(num).max()
            assert rel < 1e-8


def test_order2_window_average_matches_analytic_forms():
    # Quadrature route (f1 + f2)/tau against the sum of the closed forms.
    tau = 7.3 * math.pi
    for t in (0.0, 1.1):
        w = Window(t=t, tau=tau)
        viaquad = compose(h_eff_window(h_fig, w, order=2, q=QuadratureSpec(points=96)))
        analytic = compose(h_eff1_analytic(t, FIG, tau) + h_eff2_analytic(t, FIG, tau))
        rel = np.abs(viaquad - analytic).max() / np.abs(analytic).max()
        assert rel < 1e-6


@pytest.mark.parametrize("epsilon,tau_periods", [(2.5, 2.7), (6.3, 1.4), (1.3, 4.1)])
def test_order2_generator_is_the_analytic_form(epsilon, tau_periods):
    # At integer epsilon and tau every sinc of the body vanishes, so these
    # drives pin each oscillating term the simulate goldens cannot see.
    p = DriveParams(epsilon=epsilon, omega=1.0, amplitude=0.3)
    tau = tau_periods * 2.0 * math.pi
    t = np.linspace(0.0, 50 * 2.0 * math.pi, 20_001)
    got, want = order2_generator(p, tau)(t), h_eff_order2_analytic(t, p, tau)
    for field in ("c0", "c1", "c2", "c3"):
        assert np.abs(getattr(got, field) - getattr(want, field)).max() <= 1e-12


def test_order2_generator_refuses_at_construction():
    with pytest.raises(DetuningSingularity):
        order2_generator(DriveParams(epsilon=1.0, omega=1.0, amplitude=0.3), 2.0)
    with pytest.raises(ValueError, match="tau"):
        order2_generator(FIG, 0.0)
