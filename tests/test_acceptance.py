"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line with the measured numbers (run
pytest with `-s` or read captured output).  The expensive benchmark runs are
shared through module-scoped fixtures.

Criterion 1 (dispersive benchmark, min fidelity >= 0.95 over 50 drive
periods) is currently red: at these limit-testing parameters the exact
evolution carries intra-period micromotion that caps the minimized fidelity
near 0.935 from the first period, and the fourth-order quasienergy offset
(~8.8e-4 * omega) lowers the 50-period minimum to about 0.92.  The
measurement is integrator-independent (cross-checked against an adaptive
RK integrator) and is reported honestly rather than tuned away.
"""
import math
import time

import numpy as np
import pytest

from cgmagnus import (
    DriveParams,
    Frame,
    PauliCoeffs,
    PropagationSpec,
    QuadratureSpec,
    ResonantStarkWarning,
    Window,
    compose,
    expm_pauli,
    f1_numeric,
    f2_numeric,
    fidelity_series,
    floquet_splitting,
    frame_transform,
    h_bar,
    h_eff1_analytic,
    h_eff2_analytic,
    h_eff_order2_analytic,
    h_eff_resonant_interaction,
    h_interaction,
    h_lab,
    h_rw_interaction,
    h_rwa_plus_bs,
    min_fidelity,
    min_fidelity_bruteforce,
    propagate,
    compute_shifts,
    resonant_splitting,
)
from cgmagnus.cli import main
from cgmagnus.pauli import unitarity_defect

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)
TAU = 10.0 * math.pi  # 5 drive periods
N_PERIODS = 50
SAMPLES = 500
DT = (2.0 * math.pi / 5.0) / 200.0  # 200 steps per shortest period


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _min_series(h_exact, h_eff):
    grid = np.linspace(0.0, N_PERIODS * 2.0 * math.pi, SAMPLES)
    return float(fidelity_series(h_exact, h_eff, grid, DT).min())


@pytest.fixture(scope="module")
def dispersive_run():
    h_exact = lambda t: h_interaction(t, DISPERSIVE)
    start = time.perf_counter()
    min_magnus2 = _min_series(h_exact, lambda t: h_eff_order2_analytic(t, DISPERSIVE, TAU))
    elapsed_magnus2 = time.perf_counter() - start
    min_rwa = _min_series(h_exact, lambda t: h_rw_interaction(t, DISPERSIVE))
    return {"magnus2": min_magnus2, "rwa": min_rwa, "elapsed": elapsed_magnus2}


@pytest.fixture(scope="module")
def resonant_run():
    h_exact = lambda t: h_interaction(t, RESONANT)
    min_magnus = _min_series(h_exact, h_eff_resonant_interaction(RESONANT))
    min_guess = _min_series(h_exact, h_rwa_plus_bs(RESONANT))
    return {"resonant_magnus": min_magnus, "rwa_bs": min_guess}


def test_criterion_1_dispersive_fidelity_benchmark(dispersive_run):
    value = dispersive_run["magnus2"]
    elapsed = dispersive_run["elapsed"]
    ok = value >= 0.95 and elapsed < 10.0
    _report(
        "criterion 1 (dispersive benchmark)",
        ok,
        f"min fidelity {value:.5f} (target >= 0.95), runtime {elapsed:.1f}s (< 10s)",
    )
    assert elapsed < 10.0
    assert value >= 0.95


def test_criterion_2_rwa_inferiority(dispersive_run):
    gap = dispersive_run["magnus2"] - dispersive_run["rwa"]
    ok = dispersive_run["rwa"] < dispersive_run["magnus2"] and gap >= 0.01
    _report(
        "criterion 2 (RWA inferior at large detuning)",
        ok,
        f"min F rwa {dispersive_run['rwa']:.5f} vs magnus2 "
        f"{dispersive_run['magnus2']:.5f}, gap {gap:.4f} (>= 0.01)",
    )
    assert ok


def test_criterion_3_resonant_amplitude_renormalization(resonant_run):
    gap = resonant_run["resonant_magnus"] - resonant_run["rwa_bs"]
    ok = gap >= 0.01
    _report(
        "criterion 3 (resonant benchmark)",
        ok,
        f"min F resonant_magnus {resonant_run['resonant_magnus']:.5f} vs "
        f"rwa_bs {resonant_run['rwa_bs']:.5f}, gap {gap:.4f} (>= 0.01)",
    )
    assert ok


def test_criterion_4_analytic_vs_quadrature_equivalence():
    start = time.perf_counter()
    q = QuadratureSpec(points=96)
    h = lambda t: h_interaction(t, DISPERSIVE)
    taus = [m * math.pi for m in (5.5, 7.3, 9.1, 11.7, 13.5)]
    # five t's equispaced over the pi-period of the second-order oscillation:
    # their mean cancels e^{+-2i omega t} exactly, isolating the static part
    ts = [j * math.pi / 5.0 for j in range(5)]
    worst1 = worst2_static = worst2_osc = 0.0
    for tau in taus:
        q1 = {}
        q2 = {}
        for t in ts:
            w = Window(t=t, tau=tau)
            q1[t] = f1_numeric(h, w, q) / tau
            q2[t] = f2_numeric(h, w, q) / tau
            a1 = compose(h_eff1_analytic(t, DISPERSIVE, tau))
            rel1 = np.abs(a1 - q1[t]).max() / np.abs(q1[t]).max()
            worst1 = max(worst1, rel1)
        quad_static = sum(q2.values()) / len(ts)
        ana_static = sum(
            (compose(h_eff2_analytic(t, DISPERSIVE, tau)) for t in ts),
            np.zeros((2, 2), complex),
        ) / len(ts)
        worst2_static = max(
            worst2_static,
            np.abs(ana_static - quad_static).max() / np.abs(quad_static).max(),
        )
        for t in ts:
            ana_osc = compose(h_eff2_analytic(t, DISPERSIVE, tau)) - ana_static
            quad_osc = q2[t] - quad_static
            worst2_osc = max(
                worst2_osc, np.abs(ana_osc - quad_osc).max() / np.abs(quad_osc).max()
            )
    elapsed = time.perf_counter() - start
    ok = worst1 <= 1e-6 and worst2_static <= 1e-6 and worst2_osc <= 1e-5 and elapsed < 30
    _report(
        "criterion 4 (analytic vs quadrature)",
        ok,
        f"rel errors: order1 {worst1:.2e} (<=1e-6), order2 static "
        f"{worst2_static:.2e} (<=1e-6), order2 oscillating {worst2_osc:.2e} "
        f"(<=1e-5), runtime {elapsed:.1f}s (< 30s)",
    )
    assert ok


def test_criterion_5_fidelity_closed_form_vs_bruteforce():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        u = expm_pauli(PauliCoeffs(*rng.normal(size=4)), rng.uniform(0.2, 3.0)).matrix
        v = expm_pauli(PauliCoeffs(*rng.normal(size=4)), rng.uniform(0.2, 3.0)).matrix
        worst = max(worst, abs(min_fidelity(u, v) - min_fidelity_bruteforce(u, v, 100)))
    ok = worst <= 1e-4
    _report(
        "criterion 5 (closed form vs Bloch-grid minimum)",
        ok,
        f"worst |difference| {worst:.2e} over 100 random pairs (<= 1e-4)",
    )
    assert ok


def test_criterion_6_propagator_quality():
    # unitarity over a long run
    h = lambda t: h_interaction(t, DISPERSIVE)
    u_long = propagate(h, PropagationSpec(0.0, 100.0 * math.pi, 50_000))
    defect = unitarity_defect(u_long.matrix)

    # measured convergence order of the midpoint-exponential integrator
    period = 2.0 * math.pi
    hl = lambda t: h_lab(t, DISPERSIVE)
    ref = propagate(hl, PropagationSpec(0.0, period, 40_000)).matrix
    errs = [
        np.linalg.norm(propagate(hl, PropagationSpec(0.0, period, n)).matrix - ref, 2)
        for n in (200, 400)
    ]
    order = math.log2(errs[0] / errs[1])

    # two-route frame equivalence, interaction and bar
    t_end, steps = 0.5, 20_000
    u_lab_d = propagate(hl, PropagationSpec(0.0, t_end, steps))
    u_int = propagate(h, PropagationSpec(0.0, t_end, steps))
    diff_int = np.linalg.norm(
        u_lab_d.matrix
        - frame_transform(u_int, Frame.INTERACTION, Frame.LAB, t_end, DISPERSIVE).matrix,
        2,
    )
    u_lab_r = propagate(lambda t: h_lab(t, RESONANT), PropagationSpec(0.0, t_end, steps))
    u_bar = propagate(lambda t: h_bar(t, RESONANT), PropagationSpec(0.0, t_end, steps))
    diff_bar = np.linalg.norm(
        u_lab_r.matrix
        - frame_transform(u_bar, Frame.BAR, Frame.LAB, t_end, RESONANT).matrix,
        2,
    )
    ok = (
        defect <= 1e-12
        and 1.8 <= order <= 2.2
        and diff_int <= 1e-9
        and diff_bar <= 1e-9
    )
    _report(
        "criterion 6 (propagator quality)",
        ok,
        f"unitarity defect {defect:.2e} (<=1e-12), order {order:.3f} "
        f"([1.8, 2.2]), two-route diffs {diff_int:.2e}/{diff_bar:.2e} (<=1e-9)",
    )
    assert ok


def test_criterion_7_floquet_oracle():
    p_small = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.1)
    gap = floquet_splitting(p_small, steps=4000)
    pred = resonant_splitting(p_small)
    diff_small = abs(gap - pred)
    ok = diff_small <= 5e-4
    # the same comparison at W = 0.5 omega documents the degradation (not gated)
    gap_big = floquet_splitting(RESONANT, steps=4000)
    pred_big = resonant_splitting(RESONANT)
    _report(
        "criterion 7 (Floquet vs resonant prediction)",
        ok,
        f"W=0.1: |diff| {diff_small:.2e} (<= 5e-4); "
        f"W=0.5 reported: floquet {gap_big:.6f} vs prediction {pred_big:.6f} "
        f"(|diff| {abs(gap_big - pred_big):.2e}, informational)",
    )
    assert ok


def test_criterion_8_shift_spot_values():
    sh_d = compute_shifts(DISPERSIVE)
    checks = [
        ("S_rw dispersive", sh_d.s_rw, 1.0 / 24.0),
        ("S_bs dispersive", sh_d.s_bs, 1.0 / 40.0),
    ]
    with pytest.warns(ResonantStarkWarning):
        sh_r = compute_shifts(RESONANT)
    checks += [
        ("S_bs resonant", sh_r.s_bs, 0.0625),
        ("S_bs' resonant", sh_r.s_bs_prime, 1.0 / 120.0),
    ]
    worst = max(abs(v - e) / e for _, v, e in checks)
    ok = worst <= 1e-12
    _report(
        "criterion 8 (shift spot values)",
        ok,
        f"worst relative error {worst:.2e} (<= 1e-12)",
    )
    assert ok


def test_criterion_9_csv_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "epsilon = 4.0\namplitude = 0.5\ntau_periods = 5.0\n"
        "models = magnus2, rwa\nt_max_periods = 10\nsamples = 120\n",
        encoding="utf-8",
    )
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    b1 = out.read_bytes()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    b2 = out.read_bytes()
    ok = b1 == b2
    _report(
        "criterion 9 (deterministic CSV)",
        ok,
        f"two identical runs, {len(b1)} bytes each, byte-identical: {ok}",
    )
    assert ok
