"""The batched propagation primitive pinned against step-by-step scalar references and reference-free identities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import cgmagnus.cli
from cgmagnus import (
    DriveParams,
    PauliCoeffs,
    RotatingGenerator,
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
    h_rwa,
    h_rwa_plus_bs,
    interaction_generator,
    min_fidelity,
)
from cgmagnus.cli import _MODELS, ScenarioConfig, load_config, main
from cgmagnus.pauli import ID2, _expm_matrix, _expm_pair, _mul, _pair_matrix, as_coeffs, unitarity_defect
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
# A rotating body with every coefficient set, turned at a negative rate.
ROTATING = RotatingGenerator(-2.7, PauliCoeffs(0.3, 0.4, -0.2, 0.7))

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
    "rotating": ROTATING,
}


def midpoint_reference(h, t0, t1, steps):
    """One scalar exponential per midpoint step, later steps to the left."""
    dt = (t1 - t0) / steps
    u = ID2
    for k in range(steps):
        u = expm_pauli(as_coeffs(h(t0 + (k + 0.5) * dt)), dt).matrix @ u
    return u


@pytest.mark.parametrize(
    "steps",
    # _BLOCK steps fill one generator call exactly; one more starts a second.
    [1, 1000, 2500, 1024, 1025, 2049,
     pytest.param(_BLOCK, id="block"), pytest.param(_BLOCK + 1, id="block+1"), 5000, 5001],
)
@pytest.mark.parametrize(
    "h",
    [lambda t: h_interaction(t, DISPERSIVE), lambda t: h_lab(t, DISPERSIVE)],
    ids=["interaction", "lab"],
)
def test_propagate_matches_scalar_loop(h, steps):
    u = propagate(h, PropagationSpec(0.3, 7.9, steps)).matrix
    assert np.abs(u - midpoint_reference(h, 0.3, 7.9, steps)).max() <= 1e-12


def test_long_interval_splits_into_equal_rows():
    # 5000 steps, a little over _BLOCK, take two rows of 2500 steps each (and
    # two generator calls), not a full row plus one padded with identities.
    sizes = []
    h = lambda t: sizes.append(np.size(t)) or h_lab(t, DISPERSIVE)
    propagate(h, PropagationSpec(0.0, 0.4, 5000))
    assert sizes == [2500, 2500]


def test_padded_columns_stay_inside_the_interval():
    # 5001 steps take two rows of 2501, the last padded by one column.  A pad
    # is a dt = 0 step at its row's last midpoint, so a generator that is NaN
    # past t1 never sees a time past t1.
    h = lambda t: h_lab(t, DISPERSIVE) + PauliCoeffs(0.0, 0.0, 0.0, np.where(t > 7.9, np.nan, 0.0))
    u = propagate(h, PropagationSpec(0.3, 7.9, 5001)).matrix
    assert np.abs(u - midpoint_reference(h, 0.3, 7.9, 5001)).max() <= 1e-12


def test_trajectory_carry_crosses_scan_blocks():
    # One step per interval makes every row one step wide, so _BLOCK + 300
    # intervals take two chunks, whose rows the one scan runs across.
    h = lambda t: h_interaction(t, DISPERSIVE)
    dt = 0.01
    gaps = np.random.default_rng(5).uniform(0.3, 1.0, _BLOCK + 300) * dt
    ts = np.cumsum(gaps)
    sizes = []
    got = trajectory(lambda t: sizes.append(np.size(t)) or h(t), ts, dt)
    assert sizes == [_BLOCK, 300]
    u, t_prev = ID2, 0.0
    for t, gap, g in zip(ts, gaps, got):
        u = expm_pauli(as_coeffs(h(t_prev + 0.5 * gap)), gap).matrix @ u
        t_prev = t
        assert np.abs(g - u).max() <= 1e-12


def test_trajectory_full_rows_over_several_chunks_match_chained_propagate():
    # Step counts 40, 80 and 120 with lower median 40: every row is full, no
    # row is padded, and long intervals straddle the chunk boundaries.
    h = lambda t: h_interaction(t, DISPERSIVE) + PauliCoeffs(0.4 * np.cos(0.9 * t), 0.0, 0.0, 0.0)
    rng = np.random.default_rng(11)
    counts = rng.choice([40, 80, 120], size=2 * _BLOCK // 40, p=[0.6, 0.2, 0.2])
    dt = 0.007
    ts = np.cumsum((counts - rng.uniform(0.05, 0.9, counts.size)) * dt)
    sizes = []
    got = trajectory(lambda t: sizes.append(np.size(t)) or h(t), ts, dt)
    assert sorted(counts)[(counts.size - 1) // 2] == 40
    assert len(sizes) >= 3 and set(sizes[:-1]) == {_BLOCK // 40 * 40}
    assert sum(sizes) == counts.sum()
    u, t_prev = ID2, 0.0
    for t, n, g in zip(ts, counts, got):
        u = propagate(h, PropagationSpec(t_prev, t, int(n))).matrix @ u
        t_prev = t
        assert np.abs(g - u).max() <= 1e-12


def test_dispersive_benchmark_trajectories_stay_unitary():
    # One polar projection after the scan keeps every interval end of the
    # simulate benchmark grids, dispersive and resonant_dense, within 1e-14
    # of unitary (6.7e-16 measured on dispersive).
    for cfg in (
        ScenarioConfig(epsilon=4.0, amplitude=0.5, tau_periods=5.0, models=("magnus2", "rwa"),
                       t_max_periods=50.0, samples=500),
        ScenarioConfig(epsilon=1.0, amplitude=0.5, models=("rwa", "resonant_magnus"),
                       t_max_periods=50.0, samples=5000),
    ):
        p = cfg.drive()
        grid = cfg.grid_periods() * 2.0 * math.pi
        dt = max_step(p, cfg.steps_per_period)
        hs = [lambda t: h_interaction(t, p)]
        hs += [_MODELS[name][0](p, cfg.tau) for name in cfg.models]
        for h in hs:
            assert unitarity_defect(trajectory(h, grid, dt)).max() <= 1e-14


def _simulate_grid(epsilon, samples):
    cfg = ScenarioConfig(epsilon=epsilon, amplitude=0.5, models=("rwa",), samples=samples)
    return cfg.drive(), cfg.grid_periods() * 2.0 * math.pi, max_step(cfg.drive(), cfg.steps_per_period)


def _one_long_gap():
    # 2002 one-step gaps around one gap of 50,000 steps.
    dt = 0.003
    gaps = np.full(2003, 0.5 * dt)
    gaps[1000] = 49_999.5 * dt
    return DISPERSIVE, np.cumsum(gaps), dt


# Grids for the closed-form product: the simulate golden grids (resonant_dense
# at delta = 0), zero gaps, one interval past _BLOCK steps, and one long gap
# among one-step gaps, where the stepped path's rows are one step wide.
ROTATING_GRIDS = {
    "dispersive": _simulate_grid(4.0, 500),
    "resonant_dense": _simulate_grid(1.0, 5000),
    "samples_1001": _simulate_grid(4.0, 1001),
    "zero_gaps": (DISPERSIVE, np.array([0.0, 0.0, 0.37, 0.37, 1.0, 2.95, 2.95, 3.0, 11.2]), 0.013),
    "past_block": (DISPERSIVE, np.array([0.0, (3 * _BLOCK + 16.5) * 0.006]), 0.006),
    "one_long_gap": _one_long_gap(),
}


@pytest.mark.parametrize("body", ["rwa", "rwa_bs", "general"])
@pytest.mark.parametrize("grid", sorted(ROTATING_GRIDS))
def test_rotating_generator_closed_form_matches_stepped_product(grid, body):
    # The closed form multiplies the same midpoint factors as the stepped
    # path, which a plain lambda around the same generator takes.  A constant
    # c0 commutes with every step, so the midpoint product is the stepped
    # traceless product times exactly exp(-i c0 t).
    p, ts, dt = ROTATING_GRIDS[grid]
    g = {"rwa": RotatingGenerator(p.detuning, h_rwa(p)),
         "rwa_bs": RotatingGenerator(p.detuning, h_rwa_plus_bs(p)),
         "general": ROTATING}[body]
    c0 = g.body.c0
    stepped = lambda t: g(t) - PauliCoeffs(c0, 0.0, 0.0, 0.0)
    want = trajectory(stepped, ts, dt) * np.exp(-1j * c0 * ts)[:, None, None]
    assert np.abs(trajectory(g, ts, dt) - want).max() <= 1e-12
    spec = PropagationSpec(0.0, ts[-1], int(_step_count(ts[-1], dt)))
    want = propagate(stepped, spec).matrix * np.exp(-1j * c0 * ts[-1])
    assert np.abs(propagate(g, spec).matrix - want).max() <= 1e-12


def test_stepped_phase_does_not_drift_over_many_rows():
    # A constant c0 commutes with every step, so U = exp(-i c0 t) exactly.
    # The one-step gaps make every row one step wide; a plain running sum of
    # the 52,002 row phases drifted by 2.5e-11 here.
    _, ts, dt = _one_long_gap()
    got = trajectory(lambda t: PauliCoeffs(0.3, 0.0, 0.0, 0.0), ts, dt)
    assert np.abs(got[:, 0, 0] - np.exp(-0.3j * ts)).max() <= 1e-13
    assert np.abs(got[:, 0, 1]).max() == 0.0


def _slow_body(t):
    # c0 != 0 and every Pauli coefficient time dependent.
    return PauliCoeffs(0.3 + 0.1 * np.cos(1.3 * t), 0.4 * np.cos(0.7 * t), -0.2 + 0.1 * np.sin(t), 0.7 * np.cos(0.2 * t))


def _random_grid():
    rng = np.random.default_rng(23)
    dt = 0.011
    return DISPERSIVE, np.cumsum(rng.choice([0.0, 0.4, 3.7, 41.2, 160.5], size=300) * dt), dt


@pytest.mark.parametrize("grid", ["dispersive", "random", "zero_gaps", "one_long_gap"])
def test_rotating_stepped_path_matches_plain_stepping(grid):
    # Stepping the body in its rotating frame regroups the very factors that
    # stepping the whole generator multiplies (1.7e-13 apart measured).
    _, ts, dt = _random_grid() if grid == "random" else ROTATING_GRIDS[grid]
    g = RotatingGenerator(-2.7, _slow_body)
    want = trajectory(lambda t: g(t), ts, dt)
    assert np.abs(trajectory(g, ts, dt) - want).max() <= 1e-12


@pytest.mark.parametrize("grid", ["random", "samples_1001", "past_block"])
def test_mixed_tuple_matches_separate_trajectories(grid):
    # Every callable shares one lattice, a static body's closed-form rows next
    # to the stepped rows; only the static generator is exponentiated apart.
    # The random and past_block grids pad rows, where a closed-form power
    # covers fewer than w steps; samples_1001 is a simulate grid of full rows.
    _, ts, dt = _random_grid() if grid == "random" else ROTATING_GRIDS[grid]
    hs = (
        PauliCoeffs(0.2, 0.5, -0.1, 0.3),
        ROTATING,
        lambda t: h_interaction(t, DISPERSIVE),
        RotatingGenerator(-2.7, _slow_body),
    )
    got = trajectory(hs, ts, dt)
    assert got.shape == (4, len(ts), 2, 2)
    for h, u in zip(hs, got):
        assert np.abs(u - trajectory(h, ts, dt)).max() <= 1e-15


# Generalized parity (Grifoni & Hanggi 1998): for the cos drive with no drive
# phase, h_lab(t + T/2) = sigma3 h_lab(t) sigma3, and negating the amplitude W
# is sigma3 conjugation.  Neither identity needs a second integrator, so they
# pin the lattice's row conventions (the lab-frame rephase, pads, closed-form
# powers, one scan over more than _BLOCK rows) on their own.  A drive phase
# phi would shift the half-period identity by phi / omega.
SIGMA3 = np.diag([1.0, -1.0])


def _parity_rows(w):
    """(generator, rate nu, S) of each lattice row kind at drive amplitude w, omega = 1: every body has B(t + pi) = S B(t) S."""
    return (
        # the stepped rotating drive, with a c0 and c3 of period pi
        (RotatingGenerator(4.0, lambda t: PauliCoeffs(
            0.3 + 0.1 * np.cos(2.0 * t), w * np.cos(t), 0.4 * w * np.sin(t), -0.2 + 0.1 * np.cos(2.0 * t))), 4.0, SIGMA3),
        # a static body, as rwa: closed-form rows
        (RotatingGenerator(3.0, PauliCoeffs(0.2, 0.5 * w, 0.3 * w, -0.1)), 3.0, ID2),
        # a plain callable, as h_lab at epsilon = 4
        (lambda t: PauliCoeffs(0.0, w * np.cos(t), 0.0, -2.0), 0.0, SIGMA3),
    )


@pytest.mark.parametrize("grid", ["dispersive", "random", "resonant_dense"])
def test_negated_drive_is_sigma3_conjugation_on_every_row_kind(grid):
    # sigma3 h sigma3 negates c1 and c2, so every step pair (a, b) becomes
    # (a, -b) to the bit, and so does every product, rephase, power and
    # projection of it.  The random grid pads rows; resonant_dense scans its
    # 4999 rows, more than _BLOCK, at once.
    _, ts, dt = _random_grid() if grid == "random" else ROTATING_GRIDS[grid]
    plus, minus = (tuple(h for h, _, _ in _parity_rows(w)) for w in (0.5, -0.5))
    got = trajectory(plus + minus, ts, dt)
    flip = np.array([[1.0, -1.0], [-1.0, 1.0]])  # sigma3 u sigma3, entry by entry
    for u, v in zip(got[:3], got[3:]):
        assert np.array_equal(v, u * flip)


def _half_period_grid(gaps):
    """A grid over one period 2 pi whose second half repeats the first shifted by pi, and the index of pi."""
    if gaps == "random":
        first = np.concatenate(([0.0], np.sort(np.random.default_rng(29).uniform(0.0, math.pi, 60)), [math.pi]))
    else:
        first = np.linspace(0.0, math.pi, gaps // 2 + 1)
    return np.concatenate((first, math.pi + first[1:])), len(first) - 1


@pytest.mark.parametrize("gaps", [200, 8000, "random"])
def test_half_period_shift_is_generalized_parity_on_every_row_kind(gaps):
    # B(t + T/2) = S B(t) S makes U(t + T/2, T/2) = F S U(t) S F^dagger, with
    # F = R(nu T/2) the frame's turn over half a period.  At 200 steps per
    # shortest period, 200 gaps take 5-step rows, 8000 gaps one-step rows past
    # _BLOCK, and the random grid padded rows.
    ts, half = _half_period_grid(gaps)
    rows = _parity_rows(0.5)
    got = trajectory(tuple(h for h, _, _ in rows), ts, 2.0 * math.pi / 5.0 / 200)
    for u, (_, nu, s) in zip(got, rows):
        f = np.diag(np.exp([-0.5j * nu * math.pi, 0.5j * nu * math.pi]))
        shifted = u[half:] @ u[half].conj().T
        assert np.abs(shifted - f @ s @ u[: half + 1] @ s @ f.conj().T).max() <= 1e-14
    lab = got[2]  # the monodromy from half a period
    assert np.abs(lab[-1] - np.linalg.matrix_power(SIGMA3 @ lab[half], 2)).max() <= 1e-14


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


def _check_ragged_grid(h, small):
    # About 200 short gaps around one gap of 3000 steps, with repeated and zero
    # gaps: short intervals set the row width, so the long one spans many rows
    # (a padded last row when small = 7) and crosses chunk boundaries.
    dt = 0.011
    gaps = np.full(203, (small - 0.5) * dt)
    gaps[[0, 40, 41, 150]] = 0.0
    gaps[97] = 2999.5 * dt
    ts = np.cumsum(gaps)
    seen = []
    got = trajectory(lambda t: seen.append(t.copy()) or h(t), ts, dt)
    u, t_prev, total = ID2, 0.0, 0
    for t, g in zip(ts, got):
        if t > t_prev:
            steps = int(_step_count(t - t_prev, dt))
            u = midpoint_reference(h, t_prev, t, steps) @ u
            t_prev, total = t, total + steps
        assert np.abs(g - u).max() <= 1e-12
    sizes = [t.size for t in seen]
    assert max(sizes) <= _BLOCK
    assert total == 3000 + 198 * small
    # Rows of `small` steps, each interval's last padded with dt = 0 steps at
    # its last midpoint: the generator sees no time outside the grid.
    assert sum(sizes) == small * (198 + math.ceil(3000 / small))
    assert all(0.0 <= t.min() and t.max() <= ts[-1] for t in seen)


@pytest.mark.parametrize("small", [1, 7])
def test_trajectory_ragged_grid_matches_scalar_loop(small):
    _check_ragged_grid(lambda t: h_interaction(t, DISPERSIVE), small)


@pytest.mark.parametrize("small", [1, 7])
def test_trajectory_ragged_grid_time_dependent_c0_matches_scalar_loop(small):
    # A time-dependent c0 pins the U(1) phase each interval end carries.
    _check_ragged_grid(
        lambda t: h_interaction(t, DISPERSIVE) + PauliCoeffs(0.4 * np.cos(0.9 * t), 0.0, 0.0, 0.0), small)


def test_trajectory_empty_and_all_zero_grids():
    for h in (lambda t: h_interaction(t, DISPERSIVE), ROTATING):
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
    m = _expm_pair(PauliCoeffs(*c), 0.7)  # Cayley-Klein pairs, (2, n)
    got = _pair_matrix(_scan(m.copy()), 1.0)  # the scan works in place
    u = ID2
    for k, step in enumerate(_pair_matrix(m, 1.0)):
        u = step @ u
        assert np.abs(got[k] - u).max() <= 1e-12


def test_pair_matrix_applies_the_phase_per_entry(rng):
    ab = rng.normal(size=(2, 3, 7)) + 1j * rng.normal(size=(2, 3, 7))
    ab[1, 0] = 0.0  # b = 0, as in dt = 0 steps
    phase = np.exp(1j * rng.normal(size=(3, 7)))
    for x, e in ((ab, phase), (ab, 1.0), (ab[:, 0, 0], phase[0, 0]), (ab[:, 0, :1], phase)):
        a, b = x
        bare = np.moveaxis(np.array([[a, b], [-b.conj(), a.conj()]]), (0, 1), (-2, -1))
        want = bare * np.asarray(e)[..., None, None]  # the whole matrix, then the phase
        got = _pair_matrix(x, e)
        assert got.shape == want.shape
        for part in (np.real, np.imag):  # equal to the bit, signed zeros included
            assert np.array_equal(part(got), part(want))
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2100), seed=st.integers(0, 2**32 - 1))
def test_mul_matches_matmul(n, seed):
    # Pairs with |re|, |im| <= 1/2 keep every product entry within modulus 1.
    re, im = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(2, 2, 2, n))
    a, b = re + 1j * im  # pair stacks, (2, n); a single pair broadcasts as (2, 1)
    for x, y in ((a, b), (a[..., :1], b), (b, a[..., :1]), (a[..., 0], b[..., 0])):
        want = _pair_matrix(x, 1.0) @ _pair_matrix(y, 1.0)
        got = _pair_matrix(_mul(x, y), 1.0)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_mul_rounds_as_the_entrywise_formula(n, seed):
    # (a1 a2 - b1 b2*, a1 b2 + b1 a2*) to the bit, broadcasting either side.
    re, im = np.random.default_rng(seed).normal(size=(2, 2, 2, n))
    x, y = re + 1j * im
    for u, v in ((x, y), (x[..., :1], y), (x, y[..., :1])):
        want = np.stack([u[0] * v[0] - u[1] * v[1].conj(), u[0] * v[1] + u[1] * v[0].conj()])
        assert np.array_equal(_mul(u, v).view(float), want.view(float))


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


@pytest.mark.parametrize("ts,dt", [([1.0], 1e-19), ([1e300], 1e-300)])
def test_trajectory_rejects_step_counts_past_int64(ts, dt):
    # Both used to return the identity with only a RuntimeWarning: 1e19 steps
    # cast to a negative count, and 1e300 / 1e-300 overflows to inf.
    with pytest.raises(ValueError, match="dt"):
        trajectory(lambda t: h_interaction(t, DISPERSIVE), ts, dt)


def test_trajectory_rejects_non_2x2_generator():
    # diag(1, -1, 5) stacks used to propagate as exp(-i sigma3 dt).
    h = lambda t: np.broadcast_to(np.diag([1.0, -1.0, 5.0]), np.shape(t) + (3, 3))
    with pytest.raises(ValueError, match="shape"):
        trajectory(h, [0.5, 1.0], 0.1)


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


def test_simulate_never_evaluates_a_rotating_generator(tmp_path, monkeypatch):
    # rwa and rwa_bs take closed-form row products, and exact and magnus2 step
    # their bodies only; a silent fallback to stepping a whole generator would
    # call it on every step.  The config check only builds each model.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epsilon = 4.0\namplitude = 0.5\ntau_periods = 5\nmodels = magnus2, rwa, rwa_bs\n"
        "t_max_periods = 5\nsamples = 50\nsteps_per_period = 200\n",
        encoding="utf-8",
    )
    calls = []
    call = RotatingGenerator.__call__
    monkeypatch.setattr(RotatingGenerator, "__call__", lambda self, t: calls.append(t) or call(self, t))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == []


def test_simulate_evaluates_exact_generator_once_per_step(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epsilon = 4.0\namplitude = 0.5\ntau_periods = 5\nmodels = magnus2, rwa\n"
        "t_max_periods = 5\nsamples = 50\nsteps_per_period = 200\n",
        encoding="utf-8",
    )
    calls = []

    def counted(p):  # the exact generator, its body's evaluations recorded
        g = interaction_generator(p)
        return RotatingGenerator(g.rate, lambda t: calls.append(t) or g.body(t))

    monkeypatch.setattr(cgmagnus.cli, "interaction_generator", counted)
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
