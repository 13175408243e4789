import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmagnus import (
    DriveParams,
    Frame,
    NotUnitary,
    PauliCoeffs,
    expm_pauli,
    fidelity_series,
    h_interaction,
    h_lab,
    min_fidelity,
    min_fidelity_bruteforce,
    trajectory,
)
from cgmagnus.fidelity import _bloch_grid
from cgmagnus.pauli import ID2

from conftest import random_unitary

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)


def test_identical_unitaries_give_one(rng):
    u = random_unitary(rng)
    assert min_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)
    assert min_fidelity_bruteforce(u, u, 20) == pytest.approx(1.0, abs=1e-12)


def test_global_phase_invariance():
    assert min_fidelity(ID2, np.exp(0.7j) * ID2) == pytest.approx(1.0, abs=1e-15)


def test_orthogonal_phase_case_gives_zero():
    assert min_fidelity(ID2, np.diag([-1j, 1j])) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_symmetry(rng):
    u, v = random_unitary(rng), random_unitary(rng)
    assert min_fidelity(u, v) == pytest.approx(min_fidelity(v, u), abs=1e-14)


def test_unitary_invariance(rng):
    u, v = random_unitary(rng), random_unitary(rng)
    base = min_fidelity(u, v)
    for _ in range(5):
        w = random_unitary(rng)
        assert abs(min_fidelity(w @ u, w @ v) - base) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_min_fidelity_invariant_under_common_unitary(n, seed):
    rng = np.random.default_rng(seed)
    u, v, w = (np.array([random_unitary(rng) for _ in range(n)]) for _ in range(3))
    base = min_fidelity(u, v)
    assert base.shape == (n,)
    for a, b in ((w @ u, w @ v), (w[0] @ u, w[0] @ v)):  # one W per pair, one W for all
        np.testing.assert_allclose(min_fidelity(a, b), base, rtol=0, atol=1e-12)
    for k in range(n):  # single matrices
        assert abs(min_fidelity(w[k] @ u[k], w[k] @ v[k]) - base[k]) <= 1e-12


def test_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        min_fidelity(np.diag([1.0, 2.0]), ID2)


def test_rejects_nan_input():
    with pytest.raises(NotUnitary):
        min_fidelity(np.full((2, 2), np.nan), ID2)
    stack = np.array([ID2, np.full((2, 2), np.nan)])
    with pytest.raises(NotUnitary):
        min_fidelity(stack, stack)


def test_bruteforce_grid_validation():
    with pytest.raises(ValueError):
        min_fidelity_bruteforce(ID2, ID2, 8)


@pytest.mark.parametrize("grid_n", [16.5, 100.0, "100"])
def test_bruteforce_rejects_non_integer_grid(grid_n):
    # 16.5 used to raise a TypeError from the odd-grid `grid_n | 1`.
    with pytest.raises(ValueError, match="grid_n"):
        min_fidelity_bruteforce(ID2, ID2, grid_n=grid_n)


def test_bruteforce_agrees_with_closed_form(rng):
    worst = 0.0
    for _ in range(60):
        u, v = random_unitary(rng), random_unitary(rng)
        closed = min_fidelity(u, v)
        grid = min_fidelity_bruteforce(u, v, 100)
        # a subset minimum can only sit above the true minimum
        assert grid >= closed - 1e-9
        worst = max(worst, abs(grid - closed))
    assert worst < 1e-4


def test_bruteforce_even_grid_holds_equator():
    # A sigma3 rotation by pi has its worst states on the equator, F = 0; an
    # even theta grid without that row overshot by 2.5e-4 at grid_n = 100.
    v = expm_pauli(PauliCoeffs(0, 0, 0, 1), math.pi / 2).matrix
    assert min_fidelity_bruteforce(ID2, v, 100) - min_fidelity(ID2, v) < 1e-4


def test_bruteforce_minimizer_on_equator():
    # For a pure sigma3 phase the worst state is an equal superposition.
    v = expm_pauli(PauliCoeffs(0, 0, 0, 0.9), 1.0).matrix
    grid_n = 101
    theta = np.linspace(0, math.pi, grid_n)
    phi = np.linspace(0, 2 * math.pi, grid_n, endpoint=False)
    vals = np.empty((grid_n, grid_n))
    for i, th in enumerate(theta):
        psi0 = math.cos(th / 2)
        for j, ph in enumerate(phi):
            psi = np.array([psi0, np.exp(1j * ph) * math.sin(th / 2)])
            vals[i, j] = abs(psi.conj() @ (v @ psi)) ** 2
    i_min = np.unravel_index(vals.argmin(), vals.shape)[0]
    assert theta[i_min] == pytest.approx(math.pi / 2, abs=2 * math.pi / grid_n)
    assert vals.min() == pytest.approx(min_fidelity_bruteforce(ID2, v, grid_n), abs=1e-12)


def _bruteforce_direct(u, v, grid_n):
    """The grid minimum as |diag(theta) + c s off(phi)|^2 over the whole grid, term by term."""
    w = u.conj().T @ v
    theta = np.linspace(0.0, math.pi, grid_n | 1)
    phi = np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    diag = c * c * w[0, 0] + s * s * w[1, 1]
    off = np.exp(1j * phi) * w[0, 1] + np.exp(-1j * phi) * w[1, 0]
    re = diag.real[:, None] + (c * s)[:, None] * off.real
    im = diag.imag[:, None] + (c * s)[:, None] * off.imag
    return float((re * re + im * im).min())


@pytest.mark.parametrize("grid_n", [16, 17, 100, 101])
def test_bruteforce_rank4_product_matches_direct_grid(rng, grid_n):
    worst = 0.0
    for _ in range(50):
        u, v = random_unitary(rng), random_unitary(rng)
        worst = max(worst, abs(min_fidelity_bruteforce(u, v, grid_n) - _bruteforce_direct(u, v, grid_n)))
    assert worst <= 1e-14
    # A near-identity V, whose minimum is within rounding of 1.
    v = ID2 * np.exp(0.3j)
    assert abs(min_fidelity_bruteforce(ID2, v, grid_n) - _bruteforce_direct(ID2, v, grid_n)) <= 1e-14


def test_bloch_grid_factors_are_read_only():
    factors = _bloch_grid(101)
    assert [f.shape for f in factors] == [(101,), (101,), (101,), (101,)]
    for f in factors:
        with pytest.raises(ValueError):
            f[0] = 0.0
    assert _bloch_grid(100)[3].shape == (100,)


def test_series_identical_hamiltonians():
    h = lambda t: h_interaction(t, DISPERSIVE)
    grid = np.linspace(0.0, 10.0, 20)
    out = fidelity_series(h, h, grid, dt=0.01)
    assert out.shape == grid.shape and out[0] == pytest.approx(1.0, abs=1e-14)
    assert np.all(out > 1.0 - 1e-10)


def test_series_static_effective_side():
    heff = PauliCoeffs(0, 0, 0, -1.0 / 30.0)
    grid = np.linspace(0.0, 5.0, 6)
    h = lambda t: h_interaction(t, DISPERSIVE)
    out = fidelity_series(h, heff, grid, dt=0.05)
    assert np.all((0.0 <= out) & (out <= 1.0 + 1e-12))
    assert np.array_equal(out, min_fidelity(trajectory(h, grid, 0.05), trajectory(heff, grid, 0.05)))


def test_series_validates_grid():
    h = lambda t: h_interaction(t, DISPERSIVE)
    with pytest.raises(ValueError):
        fidelity_series(h, h, [1.0, 0.5], dt=0.1)
    with pytest.raises(ValueError):
        fidelity_series(h, h, [-1.0, 0.5], dt=0.1)


def test_series_frame_alignment_two_route():
    # Lab-frame exact against interaction-picture exact, aligned via frames:
    # the same physics in two frames scores fidelity 1.
    p = DISPERSIVE
    grid = np.linspace(0.0, 3.0, 7)
    out = fidelity_series(
        lambda t: h_lab(t, p),
        lambda t: h_interaction(t, p),
        grid,
        dt=2e-4,
        frames=(Frame.LAB, Frame.INTERACTION),
        params=p,
    )
    assert np.all(out > 1.0 - 1e-8)


def test_series_requires_params_with_frames():
    h = lambda t: h_interaction(t, DISPERSIVE)
    with pytest.raises(ValueError):
        fidelity_series(h, h, [0.0, 1.0], dt=0.1, frames=(Frame.LAB, Frame.LAB))
