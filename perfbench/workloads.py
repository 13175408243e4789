"""The three benchmark workloads: seeded inputs, one timed pass, and its checks.

``dispersive`` and ``resonant_dense`` run ``cgmagnus simulate`` in-process on
a fixed physics scenario, so that every run can be compared with a committed
golden CSV.  Their seed only changes how the config file is written (key
order, equivalent spellings such as ``delta = 3`` for ``epsilon = 4``, a
comment); the effective config the CLI echoes into the CSV header must come
out identical.  ``oracles`` draws its windows, amplitudes, unitary pairs and
frame-check end time from the seed, at a cost that does not depend on it.

Every CLI invocation and every oracle comparison is one operation.  An
operation fails on a nonzero exit code, an exception, or a missed tolerance.
"""
from __future__ import annotations

import contextlib
import functools
import io
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cgmagnus import (
    DriveParams,
    Frame,
    PauliCoeffs,
    PropagationSpec,
    QuadratureSpec,
    Window,
    expm_pauli,
    floquet_splitting,
    frame_transform,
    h_bar,
    h_eff_order2_analytic,
    h_eff_window,
    h_interaction,
    h_lab,
    min_fidelity,
    min_fidelity_bruteforce,
    propagate,
    resonant_splitting,
)
from cgmagnus.cli import load_config, main as cli_main
from cgmagnus.pauli import compose

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Tolerances, from the ROADMAP accuracy rule and the acceptance criteria.
CSV_TOL = 1e-10  # max |dF| per model column against the golden CSV
QUADRATURE_TOL = 1e-10  # relative, 96-point quadrature vs closed form
FLOQUET_TOL = 5e-4  # criterion 7
BRUTEFORCE_TOL = 1e-4  # criterion 5
FRAME_TOL = 1e-9  # criterion 6

SIZES = ("full", "small")


def rng_for(seed: int) -> np.random.Generator:
    """Generator for a benchmark seed of any sign."""
    return np.random.default_rng(seed % 2**64)


def _plain(name, fn):
    return fn


def _wrapper(tracer):
    return tracer.wrap if tracer is not None else _plain


@dataclass
class Outcome:
    """Checked result of one pass."""

    attempted: int
    failed: int
    readouts: dict
    errors: list


# ---------------------------------------------------------------------------
# cgmagnus simulate workloads


@dataclass(frozen=True)
class SimulateWorkload:
    name: str
    # config key -> equivalent lines; the seed picks one of each and their order.
    lines: dict
    small: dict  # entries that replace ``lines`` entries at size "small"

    def golden_path(self, size: str) -> Path:
        suffix = "" if size == "full" else f"-{size}"
        return GOLDEN_DIR / f"{self.name}{suffix}.csv"

    def config_path(self, work: Path, size: str) -> Path:
        return work / f"{self.name}-{size}.cfg"

    def write_inputs(self, seed: int, size: str, work: Path) -> None:
        rng = rng_for(seed)
        choices = dict(self.lines)
        if size == "small":
            choices.update(self.small)
        # The CSV path is echoed into the header, so it is fixed per workload.
        choices["out"] = (f"out = {work.name}/{self.name}-{size}.csv",)
        lines = [options[rng.integers(len(options))] for options in choices.values()]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        text = f"# {self.name} workload, seed {seed}\n" + "\n".join(lines) + "\n"
        self.config_path(work, size).write_text(text, encoding="utf-8")

    def load_inputs(self, seed: int, size: str, work: Path):
        cfg_path = self.config_path(work, size)
        cfg = load_config(str(cfg_path))
        return {"argv": ["simulate", "--config", str(cfg_path)], "out": Path(cfg.out),
                "size": size}

    def execute(self, inputs, tracer=None):
        inputs["out"].unlink(missing_ok=True)
        main = _wrapper(tracer)("cli.main", cli_main)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                return main(inputs["argv"]), None
            except SystemExit as exc:  # argparse rejects arguments by exiting
                return exc.code, None
            except Exception:  # an operation failure, reported by check()
                return None, traceback.format_exc(limit=3)

    def check(self, inputs, result) -> Outcome:
        code, error = result
        if error is not None or code != 0:
            return Outcome(1, 1, {}, [error or f"cgmagnus simulate exited with {code}"])
        try:
            got = read_csv(inputs["out"])
        except (OSError, ValueError) as exc:
            return Outcome(1, 1, {}, [f"unreadable output CSV: {exc}"])
        errors, readouts = compare_csv(got, golden_csv(self.golden_path(inputs["size"])))
        return Outcome(1, 1 if errors else 0, readouts, errors)


def read_csv(path: Path):
    """(``#`` header lines, column names, float rows) of a cgmagnus CSV."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return header, columns, rows


@functools.lru_cache(maxsize=None)
def golden_csv(path: Path):
    return read_csv(path)


def compare_csv(got, expected):
    """Errors against the golden CSV, and min F per model as readouts."""
    g_head, g_cols, g_rows = got
    e_head, e_cols, e_rows = expected
    if g_head != e_head:
        return ["config header lines differ from the golden CSV"], {}
    if g_cols != e_cols or g_rows.shape != e_rows.shape:
        return [f"columns {g_cols} x {g_rows.shape[0]} rows, expected "
                f"{e_cols} x {e_rows.shape[0]}"], {}
    errors = []
    readouts = {}
    for j, col in enumerate(g_cols):
        dev = float(np.abs(g_rows[:, j] - e_rows[:, j]).max())
        if not dev <= CSV_TOL:
            errors.append(f"{col}: max |delta| {dev:.3e} > {CSV_TOL:g}")
        if j:
            readouts[f"min_{col}"] = float(g_rows[:, j].min())
            readouts[f"max_abs_dF.{col}"] = dev
    return errors, readouts


# ---------------------------------------------------------------------------
# Library oracles

DISPERSIVE = DriveParams(epsilon=4.0, omega=1.0, amplitude=0.5)
RESONANT = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)
ORACLE_COUNTS = {
    "full": {"windows": 16, "floquet": 12, "pairs": 100},
    "small": {"windows": 4, "floquet": 3, "pairs": 20},
}
QUADRATURE = QuadratureSpec(points=96)
FLOQUET_STEPS = 4000
# An odd grid holds the rows theta = pi/2 and the poles.  The worst state of
# V lies on the great circle normal to V's rotation axis; with 100 points, an
# axis near sigma_z puts that circle between two theta rows and the grid
# minimum overshoots the closed form by up to 2.5e-4 sin^2(alpha) (1.8e-4 at
# seed 1355), a resolution limit of the grid rather than an error of
# min_fidelity.  At 101 points the overshoot stays below 3e-6.
BRUTEFORCE_GRID = 101
FRAME_STEPS = 5000


def _random_unitary(rng) -> np.ndarray:
    return expm_pauli(PauliCoeffs(*rng.normal(size=4)), rng.uniform(0.2, 3.0)).matrix


class OracleWorkload:
    name = "oracles"

    def write_inputs(self, seed: int, size: str, work: Path) -> None:
        pass

    def load_inputs(self, seed: int, size: str, work: Path):
        rng = rng_for(seed)
        n = ORACLE_COUNTS[size]
        windows = [Window(t=rng.uniform(0.0, 2.0 * math.pi),
                          tau=rng.uniform(5.5, 13.5) * math.pi)
                   for _ in range(n["windows"])]
        amplitudes = np.sort(rng.uniform(0.05, 0.5, n["floquet"]))
        pairs = [(_random_unitary(rng), _random_unitary(rng)) for _ in range(n["pairs"])]
        t_end = rng.uniform(0.25, 0.5)
        return {"windows": windows,
                "floquet": [DriveParams(1.0, 1.0, float(w)) for w in amplitudes],
                "pairs": pairs, "t_end": t_end}

    def execute(self, inputs, tracer=None):
        """Run every oracle comparison; each entry is (kind, residual or error)."""
        wrap = _wrapper(tracer)
        window_fn = wrap("magnus.h_eff_window", h_eff_window)
        analytic = wrap("magnus.h_eff_order2_analytic", h_eff_order2_analytic)
        h_int = wrap("model.h_interaction", h_interaction)
        floquet = wrap("propagation.floquet_splitting", floquet_splitting)
        predicted = wrap("shifts.resonant_splitting", resonant_splitting)
        closed = wrap("fidelity.min_fidelity", min_fidelity)
        brute = wrap("fidelity.min_fidelity_bruteforce", min_fidelity_bruteforce)
        prop = wrap("propagation.propagate", propagate)
        transform = wrap("propagation.frame_transform", frame_transform)
        lab = wrap("model.h_lab", h_lab)
        bar = wrap("model.h_bar", h_bar)

        def quadrature(w):
            quad = compose(window_fn(lambda t: h_int(t, DISPERSIVE), w, 2, QUADRATURE))
            exact = compose(analytic(w.t, DISPERSIVE, w.tau))
            return float(np.abs(quad - exact).max() / np.abs(exact).max())

        def frames(t_end):
            spec = PropagationSpec(0.0, t_end, FRAME_STEPS)
            u_lab = prop(lambda t: lab(t, RESONANT), spec)
            u_bar = prop(lambda t: bar(t, RESONANT), spec)
            back = transform(u_bar, Frame.BAR, Frame.LAB, t_end, RESONANT)
            return float(np.linalg.norm(u_lab.matrix - back.matrix, 2))

        jobs = [("quadrature_rel", quadrature, w) for w in inputs["windows"]]
        jobs += [("floquet_gap", lambda p: abs(floquet(p, steps=FLOQUET_STEPS) - predicted(p)), p)
                 for p in inputs["floquet"]]
        jobs += [("bruteforce_gap",
                  lambda uv: abs(closed(*uv) - brute(*uv, grid_n=BRUTEFORCE_GRID)), uv)
                 for uv in inputs["pairs"]]
        jobs.append(("frame_diff", frames, inputs["t_end"]))
        results = []
        for kind, fn, arg in jobs:
            try:
                results.append((kind, fn(arg)))
            except Exception:  # an operation failure, reported by check()
                results.append((kind, traceback.format_exc(limit=3)))
        return results

    def check(self, inputs, results) -> Outcome:
        tolerance = {"quadrature_rel": QUADRATURE_TOL, "floquet_gap": FLOQUET_TOL,
                     "bruteforce_gap": BRUTEFORCE_TOL, "frame_diff": FRAME_TOL}
        errors = []
        worst = {}
        for kind, value in results:
            if isinstance(value, str):
                errors.append(f"{kind}: {value}")
                continue
            worst[f"worst_{kind}"] = max(worst.get(f"worst_{kind}", 0.0), value)
            if not value <= tolerance[kind]:
                errors.append(f"{kind}: {value:.3e} > {tolerance[kind]:g}")
        return Outcome(len(results), len(errors), worst, errors)


# Why each workload was chosen: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SimulateWorkload(
            name="dispersive",
            lines={
                "epsilon": ("epsilon = 4.0", "epsilon = 4", "delta = 3.0"),
                "amplitude": ("amplitude = 0.5", "amplitude = 5e-1"),
                "tau_periods": ("tau_periods = 5.0", "tau_periods = 5"),
                "models": ("models = magnus2, rwa", "models = MAGNUS2 , rwa"),
                "t_max_periods": ("t_max_periods = 50", "t_max_periods = 50.0"),
                "samples": ("samples = 500",),
                "steps_per_period": ("steps_per_period = 200",),
            },
            small={"t_max_periods": ("t_max_periods = 5",), "samples": ("samples = 50",)},
        ),
        SimulateWorkload(
            name="resonant_dense",
            lines={
                "epsilon": ("epsilon = 1.0", "epsilon = 1", "delta = 0"),
                "amplitude": ("amplitude = 0.5", "amplitude = 5e-1"),
                "models": ("models = rwa, resonant_magnus", "models = RWA , resonant_magnus"),
                "t_max_periods": ("t_max_periods = 50", "t_max_periods = 50.0"),
                "samples": ("samples = 5000",),
                "steps_per_period": ("steps_per_period = 200",),
            },
            small={"t_max_periods": ("t_max_periods = 5",), "samples": ("samples = 500",)},
        ),
        OracleWorkload(),
    )
}
