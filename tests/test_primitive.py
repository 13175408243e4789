"""The batched propagation primitive pinned against step-by-step scalar references."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import cgmagnus.cli
from cgmagnus import (
    DriveParams,
    PauliCoeffs,
    expm_pauli,
    h_bar,
    h_cr_interaction,
    h_eff1_analytic,
    h_eff2_analytic,
    h_eff_order2_analytic,
    h_eff_resonant_bar,
    h_interaction,
    h_lab,
    h_rw_interaction,
    min_fidelity,
)
from cgmagnus.cli import ScenarioConfig, load_config, main
from cgmagnus.pauli import ID2, _expm_matrix, _mul, as_coeffs
from cgmagnus.propagation import (
    _BLOCK,
    PropagationSpec,
    _scan,
    _step_count,
    max_step,
    propagate,
    trajectory,
)

from conftest import random_unitary

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.1)
TAU = 5 * 2 * math.pi

# Every library generator, as a function of time only.
GENERATORS = {
    "h_lab": lambda t: h_lab(t, DISPERSIVE),
    "h_interaction": lambda t: h_interaction(t, DISPERSIVE),
    "h_rw_interaction": lambda t: h_rw_interaction(t, DISPERSIVE),
    "h_cr_interaction": lambda t: h_cr_interaction(t, DISPERSIVE),
    "h_bar": lambda t: h_bar(t, RESONANT),
    "h_eff1_analytic": lambda t: h_eff1_analytic(t, DISPERSIVE, TAU),
    "h_eff2_analytic": lambda t: h_eff2_analytic(t, DISPERSIVE, TAU),
    "h_eff_order2_analytic": lambda t: h_eff_order2_analytic(t, DISPERSIVE, TAU),
    "h_eff_resonant_bar": lambda t: h_eff_resonant_bar(t, RESONANT),
}


def midpoint_reference(h, t0, t1, steps):
    """One scalar exponential per midpoint step, later steps to the left."""
    dt = (t1 - t0) / steps
    u = ID2
    for k in range(steps):
        u = expm_pauli(as_coeffs(h(t0 + (k + 0.5) * dt)), dt).matrix @ u
    return u


@pytest.mark.parametrize("steps", [1, 1000, 2500, 1024, 1025, 2049])
@pytest.mark.parametrize(
    "h",
    [lambda t: h_interaction(t, DISPERSIVE), lambda t: h_lab(t, DISPERSIVE)],
    ids=["interaction", "lab"],
)
def test_propagate_matches_scalar_loop(h, steps):
    u = propagate(h, PropagationSpec(0.3, 7.9, steps)).matrix
    assert np.abs(u - midpoint_reference(h, 0.3, 7.9, steps)).max() <= 1e-12


def test_trajectory_matches_chained_propagate():
    h = lambda t: h_interaction(t, DISPERSIVE)
    ts = [0.0, 0.0, 0.37, 0.37, 1.0, 2.95, 2.95, 3.0, 11.2]
    dt = 0.013
    got = trajectory(h, ts, dt)
    assert got.shape == (len(ts), 2, 2)
    u = ID2
    t_prev = 0.0
    for t, g in zip(ts, got):
        if t > t_prev:
            spec = PropagationSpec(t_prev, t, int(_step_count(t - t_prev, dt)))
            u = propagate(h, spec).matrix @ u
            t_prev = t
        assert np.abs(g - u).max() <= 1e-12


def test_trajectory_takes_whole_steps_on_the_samples_1001_grid():
    # Gaps of 0.05 periods are 50 steps of max_step; roundoff in the linspace
    # grid used to give 493 of the 1000 gaps a 51st step.
    cfg = ScenarioConfig(epsilon=4.0, amplitude=0.5, models=("rwa",), samples=1001)
    sizes = []
    trajectory(lambda t: sizes.append(np.size(t)) or h_interaction(t, DISPERSIVE),
               cfg.grid_periods() * 2.0 * math.pi, max_step(DISPERSIVE, cfg.steps_per_period))
    assert sum(sizes) == 50_000


@pytest.mark.parametrize("small", [1, 7])
def test_trajectory_ragged_grid_matches_scalar_loop(small):
    # About 200 short gaps around one gap of 3000 steps, with repeated and zero
    # gaps: short intervals set the row width, so the long one spans many rows
    # (a padded last row when small = 7) and crosses chunk boundaries.
    h = lambda t: h_interaction(t, DISPERSIVE)
    dt = 0.011
    gaps = np.full(203, (small - 0.5) * dt)
    gaps[[0, 40, 41, 150]] = 0.0
    gaps[97] = 2999.5 * dt
    ts = np.cumsum(gaps)
    sizes = []
    got = trajectory(lambda t: sizes.append(np.size(t)) or h(t), ts, dt)
    u, t_prev, total = ID2, 0.0, 0
    for t, g in zip(ts, got):
        if t > t_prev:
            steps = int(_step_count(t - t_prev, dt))
            u = midpoint_reference(h, t_prev, t, steps) @ u
            t_prev, total = t, total + steps
        assert np.abs(g - u).max() <= 1e-12
    assert max(sizes) <= _BLOCK
    assert sum(sizes) == total == 3000 + 198 * small


def test_trajectory_empty_and_all_zero_grids():
    h = lambda t: h_interaction(t, DISPERSIVE)
    assert trajectory(h, [], 0.1).shape == (0, 2, 2)
    got = trajectory(h, [0.0, 0.0, 0.0], 0.1)
    assert got.shape == (3, 2, 2)
    np.testing.assert_array_equal(got, np.broadcast_to(ID2, (3, 2, 2)))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(GENERATORS)),
    ts=arrays(float, array_shapes(max_dims=2, max_side=6), elements=st.floats(-60.0, 60.0)),
)
def test_array_generators_match_scalar_calls(name, ts):
    h = GENERATORS[name]
    batch = h(ts)
    for idx in np.ndindex(ts.shape):
        one = h(float(ts[idx]))
        for field in ("c0", "c1", "c2", "c3"):
            got = np.broadcast_to(getattr(batch, field), ts.shape)[idx]
            assert abs(got - getattr(one, field)) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_sequential_product(n, seed):
    c = np.random.default_rng(seed).normal(size=(4, n))
    m = np.moveaxis(_expm_matrix(PauliCoeffs(*c), 0.7), (-2, -1), (0, 1))  # matrix axes first, (2, 2, n)
    got = _scan(m)
    u = ID2
    for k in range(n):
        u = m[..., k] @ u
        assert np.abs(got[..., k] - u).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1))
def test_mul_matches_matmul(n, seed):
    # Entries with |re|, |im| <= 1/2 keep every product entry within modulus 1.
    re, im = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(2, 2, 2, 2, n))
    a, b = re + 1j * im  # matrix axes first, (2, 2, n); a single matrix broadcasts as (2, 2, 1)
    for x, y in ((a, b), (a[..., :1], b), (b, a[..., :1]), (a[..., 0], b[..., 0])):
        want = np.moveaxis(np.moveaxis(x, (0, 1), (-2, -1)) @ np.moveaxis(y, (0, 1), (-2, -1)), (-2, -1), (0, 1))
        got = _mul(x, y)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


def test_trajectory_static_generator_is_exact():
    p = PauliCoeffs(0.2, 0.5, -0.1, 0.3)
    ts = np.linspace(0.0, 40.0, 9)
    got = trajectory(p, ts, 0.1)
    for t, g in zip(ts, got):
        assert np.abs(g - expm_pauli(p, t).matrix).max() <= 1e-12


@pytest.mark.parametrize(
    "ts,dt",
    [([0.0, 1.0], -0.1), ([0.0, 1.0], 0.0), ([0.0, 1.0], math.nan), ([0.0, math.nan], 0.1)],
)
def test_trajectory_rejects_bad_step_or_grid(ts, dt):
    # A negative step used to give one step per interval, silently.
    with pytest.raises(ValueError):
        trajectory(lambda t: h_interaction(t, DISPERSIVE), ts, dt)


def test_trajectory_rejects_non_finite_grid():
    with pytest.raises(ValueError, match="finite"):
        trajectory(lambda t: h_interaction(t, DISPERSIVE), [0.0, math.inf], 0.1)


def test_stacked_expm_matches_scalar_rows(rng):
    c = rng.normal(size=(50, 4)) * 3.0
    c[:5, 1:] = 0.0  # r = 0 rows
    c[5, :] = 0.0
    dt = rng.normal(size=50) * 5.0
    got = _expm_matrix(PauliCoeffs(*c.T), dt)
    assert got.shape == (50, 2, 2)
    for row, d, g in zip(c, dt, got):
        assert np.abs(g - _expm_matrix(PauliCoeffs(*row.tolist()), float(d))).max() <= 1e-12


def test_stacked_min_fidelity_matches_pairs(rng):
    a = np.array([random_unitary(rng) for _ in range(40)])
    b = np.array([random_unitary(rng) for _ in range(40)])
    got = min_fidelity(a, b)
    assert got.shape == (40,)
    for u, v, f in zip(a, b, got):
        assert abs(f - min_fidelity(u, v)) <= 1e-12


def test_simulate_evaluates_exact_generator_once_per_step(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epsilon = 4.0\namplitude = 0.5\ntau_periods = 5\nmodels = magnus2, rwa\n"
        "t_max_periods = 5\nsamples = 50\nsteps_per_period = 200\n",
        encoding="utf-8",
    )
    calls = []
    monkeypatch.setattr(
        cgmagnus.cli, "h_interaction", lambda t, p: calls.append(t) or h_interaction(t, p)
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    loaded = load_config(str(cfg))
    grid = loaded.grid_periods() * 2.0 * math.pi
    dt = 2.0 * math.pi / 5.0 / loaded.steps_per_period
    counts = [int(_step_count(t1 - t0, dt)) for t0, t1 in zip(grid, grid[1:])]
    steps = sum(counts)
    assert sum(np.size(t) for t in calls) == steps
    # One call per chunk of _BLOCK // w rows of w steps, w the capped lower median.
    w = min(sorted(counts)[(len(counts) - 1) // 2], _BLOCK)
    rows = sum(math.ceil(c / w) for c in counts)
    assert len(calls) == math.ceil(rows / (_BLOCK // w))
