"""Scenario runner: fidelity curves, coarse-graining regime checks, shift tables.

Subcommands
-----------
simulate          propagate exact and effective models, write a fidelity CSV
regime            print the validity ratios for a coarse-graining window
shifts            print the closed-form shifts next to the Floquet splitting
compare-external  merge an externally computed fidelity column into a run

Configuration is a flat ``key = value`` text file; all frequencies are entered
as ratios to the drive frequency omega (so runs are scale-free and internally
omega = 1).  Command-line flags override config keys.  CSV output is
deterministic: identical configs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmplitudePole, ConfigError, MagnusError
from .fidelity import min_fidelity
from .magnus import _MIN_DETUNING_TAU, h_eff_order2_analytic
from .model import DriveParams, h_interaction, h_rw_interaction
from .pauli import PauliCoeffs
from .propagation import (
    DEFAULT_STEPS_PER_PERIOD,
    default_floquet_steps,
    floquet_splitting,
    max_step,
    trajectory,
)
from .shifts import (
    bloch_siegert_prime_shift,
    bloch_siegert_shift,
    h_eff_resonant_interaction,
    resonant_splitting,
    stark_shift,
    validate_regime,
)

__all__ = ["ScenarioConfig", "load_config", "main"]

KNOWN_MODELS = ("exact", "magnus2", "rwa", "rwa_bs", "resonant_magnus")
RESONANT_ONLY_MODELS = ("resonant_magnus",)

_TWO_PI = 2.0 * math.pi

_MAX_STEPS = 10**7  # samples or steps; a larger run fails at once, not after hours
_MAX_AMPLITUDE = 1e6  # W/omega, far past every model; W^2/delta stays finite squared


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated simulation scenario; frequencies are ratios to omega."""

    epsilon: float
    amplitude: float
    models: tuple
    tau_periods: float | None = None
    t_max_periods: float = 50.0
    samples: int = 500
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD
    kappa: float = 5.0
    out: str | None = None
    seed: int | None = None

    @property
    def delta(self) -> float:
        return self.epsilon - 1.0

    def drive(self) -> DriveParams:
        return DriveParams(epsilon=self.epsilon, omega=1.0, amplitude=self.amplitude)

    @property
    def tau(self) -> float | None:
        return None if self.tau_periods is None else self.tau_periods * _TWO_PI

    def grid_periods(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max_periods, self.samples)

    def effective_lines(self) -> list[str]:
        """Round-trippable ``key = value`` lines of the effective config."""
        values = {key: getattr(self, key) for key in _PARSERS if key != "delta"}
        return [
            f"{key} = {', '.join(value) if key == 'models' else value}"
            for key, value in sorted(values.items())
            if value is not None
        ]


def _parse_kv_file(path: str) -> dict:
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        raw[key.strip().lower()] = value.strip()
    return raw


def _parse_models(text: str) -> tuple:
    names = [name.strip().lower() for name in text.split(",")]
    for name in names:
        if name and name not in KNOWN_MODELS:
            raise ConfigError(f"models: unknown model {name!r}")
    return tuple(dict.fromkeys(name for name in names if name and name != "exact"))


# Every config key with its parser; the defaults are the ScenarioConfig fields.
# ``delta`` is the one alias: it sets epsilon = 1 + delta and is never echoed.
_PARSERS = {
    "epsilon": float,
    "delta": float,
    "amplitude": float,
    "models": _parse_models,
    "tau_periods": float,
    "t_max_periods": float,
    "samples": int,
    "steps_per_period": int,
    "kappa": float,
    "out": str,
    "seed": int,
}


def _parse(key: str, text: str):
    parse = _PARSERS[key]
    try:
        return parse(text)
    except ValueError as exc:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"{key}: not {kind}: {text!r}") from exc


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse and validate a scenario config file, applying flag overrides."""
    raw = _parse_kv_file(path)
    for key in raw:
        if key not in _PARSERS:
            raise ConfigError(f"{key}: unknown config key")
    if "epsilon" not in raw and "delta" not in raw:
        raise ConfigError("epsilon: required (or give delta)")
    for key in ("amplitude", "models"):
        if key not in raw:
            raise ConfigError(f"{key}: required")
    values = {key: _parse(key, text) for key, text in raw.items()}
    if "delta" in values:
        eps = 1.0 + values.pop("delta")
        if abs(values.setdefault("epsilon", eps) - eps) > 1e-12:
            raise ConfigError("epsilon: inconsistent with delta (epsilon = 1 + delta)")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    cfg = replace(ScenarioConfig(**values), **overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: ScenarioConfig) -> None:
    for key in ("epsilon", "tau_periods", "t_max_periods", "kappa"):
        value = getattr(cfg, key)
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{key}: must be finite and > 0, got {value}")
    if not 0 <= cfg.amplitude <= _MAX_AMPLITUDE:
        raise ConfigError(f"amplitude: must be in [0, {_MAX_AMPLITUDE:g}], got {cfg.amplitude}")
    if not cfg.models:
        raise ConfigError("models: at least one model besides 'exact' is required")
    if not 2 <= cfg.samples <= _MAX_STEPS:
        raise ConfigError(f"samples: must be in [2, {_MAX_STEPS}], got {cfg.samples}")
    if not 1 <= cfg.steps_per_period <= _MAX_STEPS:
        raise ConfigError(f"steps_per_period: must be in [1, {_MAX_STEPS}], got {cfg.steps_per_period}")
    steps = max(cfg.t_max_periods, 1.0) * (cfg.epsilon + 1.0) * cfg.steps_per_period
    if not steps <= _MAX_STEPS:  # simulate's steps, or one Floquet period of shifts
        raise ConfigError(f"steps_per_period: max(t_max_periods, 1)*(epsilon+1)*steps_per_period = {steps:.4g} exceeds {_MAX_STEPS}")
    for name in cfg.models:
        if name in RESONANT_ONLY_MODELS and not cfg.drive().is_resonant:
            raise ConfigError(f"models: {name} requires delta = 0, got delta = {cfg.delta}")
    if "magnus2" in cfg.models:
        if cfg.tau_periods is None:
            raise ConfigError("tau_periods: required by the magnus2 model")
        if abs(cfg.delta) * cfg.tau < _MIN_DETUNING_TAU:
            raise ConfigError(
                "models: magnus2 needs |delta|*tau >= 1e-6; use resonant_magnus at resonance"
            )


def _model_hamiltonian(name: str, p: DriveParams, tau: float | None):
    if name == "magnus2":
        return lambda t: h_eff_order2_analytic(t, p, tau)
    if name == "rwa":
        return lambda t: h_rw_interaction(t, p)
    if name == "rwa_bs":
        shift = PauliCoeffs(0.0, 0.0, 0.0, -0.5 * bloch_siegert_shift(p))
        return lambda t: h_rw_interaction(t, p) + shift
    if name == "resonant_magnus":
        return h_eff_resonant_interaction(p)  # static; propagated by exact exponentials
    raise ConfigError(f"models: unknown model {name!r}")


def _run_simulation(cfg: ScenarioConfig):
    """Compute the fidelity table: header names plus one row per time sample."""
    p = cfg.drive()
    periods = cfg.grid_periods()
    grid = periods * _TWO_PI
    dt = max_step(p, cfg.steps_per_period)
    u_exact = trajectory(lambda t: h_interaction(t, p), grid, dt)

    columns = [periods]
    header = ["t_over_period"]
    for name in cfg.models:
        u_model = trajectory(_model_hamiltonian(name, p, cfg.tau), grid, dt)
        columns.append(min_fidelity(u_exact, u_model))
        header.append(f"{name}_fidelity")
    return header, np.column_stack(columns)


def _write_csv(path: str, cfg: ScenarioConfig, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in cfg.effective_lines():
            f.write(f"# {line}\n")
        f.write(",".join(header) + "\n")
        nrows, ncols = rows.shape
        f.write((",".join(["%.12e"] * ncols) + "\n") * nrows % tuple(rows.ravel().tolist()))


def _regime_case(cfg: ScenarioConfig) -> str:
    return "resonant" if cfg.drive().is_resonant else "dispersive"


def cmd_simulate(cfg: ScenarioConfig, strict_regime: bool = False) -> int:
    """Write the fidelity-vs-time CSV; exit 3 on a strict regime failure."""
    if cfg.out is None:
        raise ConfigError("out: required for simulate")
    if strict_regime:
        if cfg.tau_periods is None:
            raise ConfigError("tau_periods: required with --strict-regime")
        report = validate_regime(cfg.drive(), cfg.tau, _regime_case(cfg), cfg.kappa)
        if not report.overall:
            print(report.table(), file=sys.stderr)
            print("regime check failed (strict mode)", file=sys.stderr)
            return 3
    header, rows = _run_simulation(cfg)
    _write_csv(cfg.out, cfg, header, rows)
    print(f"wrote {len(rows)} samples x {len(header) - 1} models to {cfg.out}")
    return 0


def _regime_bounds(cfg: ScenarioConfig):
    """(lower bounds, upper bounds) on tau where the regime ratios reach 1.

    Relies on every ratio of validate_regime being proportional to tau, to
    1/tau or to tau**0: its values at tau = 1 and 2 tell which.  A growing
    ratio reaches 1 at tau = 1/value(1), a shrinking one at tau = value(1).
    A constant, non-positive, infinite or nan value bounds nothing.
    """
    one, two = (validate_regime(cfg.drive(), tau, _regime_case(cfg), cfg.kappa).checks
                for tau in (1.0, 2.0))
    values = [(a.value, b.value) for a, b in zip(one, two) if 0 < a.value < math.inf]
    return [1.0 / v1 for v1, v2 in values if v2 > v1], [v1 for v1, v2 in values if v2 < v1]


def cmd_regime(cfg: ScenarioConfig) -> int:
    """Print validity ratios for the configured tau, or sweep tau if omitted."""
    p = cfg.drive()
    case = _regime_case(cfg)
    if cfg.tau_periods is not None:
        report = validate_regime(p, cfg.tau, case, cfg.kappa)
        print(report.table())
        print("json: " + json.dumps(report.record(), sort_keys=True))
        return 0

    # No tau given: sweep the candidate window and print the feasible band.
    lowers, uppers = _regime_bounds(cfg)
    if not lowers or not uppers:
        print(f"no finite tau window for the {case} case at these parameters")
        return 0
    lo = max(lowers)
    hi = min(uppers)
    print(f"tau sweep ({case} case, kappa = {cfg.kappa:g}):")
    records = []
    for tau in np.geomspace(lo, hi, 9):
        report = validate_regime(p, float(tau), case, cfg.kappa)
        status = "pass" if report.overall else "warn"
        print(f"  tau = {tau:12.6g}  ({tau / _TWO_PI:10.4g} periods)  {status}")
        records.append({"tau": float(tau), "overall": report.overall})
    band_lo = cfg.kappa * lo
    band_hi = hi / cfg.kappa
    if band_lo <= band_hi:
        print(
            f"feasible band at kappa = {cfg.kappa:g}: "
            f"tau in [{band_lo:.6g}, {band_hi:.6g}] "
            f"([{band_lo / _TWO_PI:.4g}, {band_hi / _TWO_PI:.4g}] periods)"
        )
        feasible = [band_lo, band_hi]
    else:
        print(f"no feasible tau band at kappa = {cfg.kappa:g}")
        feasible = None
    print("json: " + json.dumps({"case": case, "kappa": cfg.kappa, "sweep": records, "feasible_band": feasible}, sort_keys=True))
    return 0


def cmd_shifts(cfg: ScenarioConfig) -> int:
    """Tabulate the closed-form shifts next to the Floquet splitting oracle."""
    p = cfg.drive()
    rows = []
    s_rw = math.inf if p.is_resonant else stark_shift(p)
    note = " (resonant: 1/delta pole)" if p.is_resonant else ""
    rows.append(("S_rw (Stark)", s_rw, note))
    rows.append(("S_bs (diagonal Bloch-Siegert)", bloch_siegert_shift(p), ""))
    try:
        s_prime = bloch_siegert_prime_shift(p)
        rows.append(("S_bs' (off-diagonal Bloch-Siegert)", s_prime, ""))
        pred = resonant_splitting(p)
        rows.append(("resonant splitting sqrt(S_bs^2+(W-S_bs')^2)", pred, ""))
    except AmplitudePole:
        pred = None
        rows.append(("S_bs' (off-diagonal Bloch-Siegert)", math.nan, " (amplitude at/beyond the 2*omega pole)"))
    fl = floquet_splitting(p, steps=default_floquet_steps(p, cfg.steps_per_period))
    rows.append(("floquet splitting (monodromy)", fl, ""))
    if pred is not None:
        rows.append(("|floquet - resonant prediction|", abs(fl - pred), ""))

    print(f"shifts for epsilon/omega = {p.epsilon:g}, W/omega = {p.amplitude:g} (omega = 1)")
    print(f"  {'quantity':<44} {'value*1/omega':>16}  {'absolute':>16}")
    for name, value, annotation in rows:
        print(f"  {name:<44} {value:>16.10g}  {value:>16.10g}{annotation}")
    return 0


def _read_external_csv(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as exc:
        raise ConfigError(f"external: cannot read {path!r}: {exc}") from exc
    if not lines:
        raise ConfigError("external: CSV is empty")
    header = [h.strip().lower() for h in lines[0].split(",")]
    if "t_over_period" not in header or "fidelity" not in header:
        raise ConfigError("external: CSV needs 't_over_period' and 'fidelity' columns")
    it = header.index("t_over_period")
    if_ = header.index("fidelity")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        try:
            rows.append((float(parts[it]), float(parts[if_])))
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"external: malformed row {ln!r}") from exc
        if not np.isfinite(rows[-1]).all():
            raise ConfigError(f"external: non-finite value in row {ln!r}")
    if not rows:
        raise ConfigError("external: CSV has no data rows")
    ts, fs = np.array(rows).T
    order = np.argsort(ts)
    return ts[order], fs[order]


def cmd_compare_external(cfg: ScenarioConfig, external_path: str) -> int:
    """Interpolate an external fidelity column onto the run grid and merge."""
    if cfg.out is None:
        raise ConfigError("out: required for compare-external")
    ext_t, ext_f = _read_external_csv(external_path)
    periods = cfg.grid_periods()
    if ext_t[0] > periods[0] + 1e-9 or ext_t[-1] < periods[-1] - 1e-9:
        raise ConfigError(
            f"external: grid [{ext_t[0]:g}, {ext_t[-1]:g}] does not cover the "
            f"run's range [{periods[0]:g}, {periods[-1]:g}]"
        )
    header, rows = _run_simulation(cfg)
    merged = np.column_stack([rows, np.interp(periods, ext_t, ext_f)])
    _write_csv(cfg.out, cfg, header + ["external_fidelity"], merged)
    print(f"wrote {len(merged)} samples (+external column) to {cfg.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgmagnus",
        description="Coarse-grained Magnus effective dynamics of a driven two-level system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", required=True, help="flat key = value config file")
        sp.add_argument("--out", help="output CSV path (overrides config)")
        sp.add_argument("--kappa", type=float, help="'much greater than' threshold")
        sp.add_argument("--steps-per-period", type=int, dest="steps_per_period",
                        help="integrator steps per shortest period")
        sp.add_argument("--seed", type=int, help="reserved; no stochastic paths")

    sp = sub.add_parser("simulate", help="fidelity-vs-time CSV for the configured models")
    add_common(sp)
    sp.add_argument("--strict-regime", action="store_true",
                    help="exit 3 when a validity ratio falls below kappa")

    sp = sub.add_parser("regime", help="coarse-graining validity report")
    add_common(sp)

    sp = sub.add_parser("shifts", help="closed-form shifts and the Floquet splitting")
    add_common(sp)

    sp = sub.add_parser("compare-external", help="merge an external fidelity column")
    add_common(sp)
    sp.add_argument("--external", required=True, help="CSV with t_over_period,fidelity")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("out", "kappa", "steps_per_period", "seed")}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg, strict_regime=args.strict_regime)
        if args.command == "regime":
            return cmd_regime(cfg)
        if args.command == "shifts":
            return cmd_shifts(cfg)
        return cmd_compare_external(cfg, args.external)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MagnusError as exc:  # e.g. AmplitudePole or NotUnitary from the library
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
