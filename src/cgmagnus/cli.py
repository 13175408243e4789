"""Scenario runner: fidelity curves, coarse-graining regime checks, shift tables.

Subcommands
-----------
simulate          propagate exact and effective models, write a fidelity CSV
regime            print the validity ratios for a coarse-graining window
shifts            print the closed-form shifts next to the Floquet splitting
compare-external  simulate, plus an externally computed fidelity column

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

from .errors import AmplitudePole, ConfigError, MagnusError, NotResonant
from .fidelity import min_fidelity
from .magnus import h_eff_order2_analytic
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
    regime_window,
    resonant_splitting,
    stark_shift,
    validate_regime,
)

__all__ = ["ScenarioConfig", "load_config", "main"]

# Every effective model: name -> (builder (p, tau) -> generator, needs tau_periods).
# A generator is a callable of t or a static PauliCoeffs, which is propagated by
# exact exponentials.  Where a model does not apply, its library function raises.
_MODELS = {
    "magnus2": (lambda p, tau: lambda t: h_eff_order2_analytic(t, p, tau), True),
    "rwa": (lambda p, tau: lambda t: h_rw_interaction(t, p), False),
    "rwa_bs": (lambda p, tau: lambda t: h_rw_interaction(t, p)
               + PauliCoeffs(0.0, 0.0, 0.0, -0.5 * bloch_siegert_shift(p)), False),
    "resonant_magnus": (lambda p, tau: h_eff_resonant_interaction(p), False),
}

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
    raw, first_line = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        key = key.strip().lower()
        if not eq or not key:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        if key in first_line:
            raise ConfigError(f"config line {lineno}: {key} given twice (first on line {first_line[key]})")
        first_line[key] = lineno
        raw[key] = value.strip()
    return raw


def _parse_models(text: str) -> tuple:
    names = dict.fromkeys(name.strip().lower() for name in text.split(","))
    for name in names:
        if name not in (*_MODELS, "exact", ""):  # exact is the reference, always run
            raise ConfigError(f"models: unknown model {name!r}")
    return tuple(name for name in names if name in _MODELS)


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
        build, needs_tau = _MODELS[name]
        if needs_tau and cfg.tau is None:
            raise ConfigError(f"tau_periods: required by the {name} model")
        try:
            h = build(cfg.drive(), cfg.tau)
            if callable(h):  # e.g. h_eff2_analytic checks |delta|*tau only when called
                h(0.0)
        except MagnusError as exc:
            raise ConfigError(f"models: {name}: {type(exc).__name__}: {exc}") from exc


def _run_simulation(cfg: ScenarioConfig):
    """Compute the fidelity table: header names plus one row per time sample."""
    p = cfg.drive()
    periods = cfg.grid_periods()
    grid = periods * _TWO_PI
    dt = max_step(p, cfg.steps_per_period)
    u_exact = trajectory(lambda t: h_interaction(t, p), grid, dt)
    u_models = [trajectory(_MODELS[name][0](p, cfg.tau), grid, dt) for name in cfg.models]
    header = ["t_over_period"] + [f"{name}_fidelity" for name in cfg.models]
    return header, np.column_stack([periods, *min_fidelity(u_exact, np.stack(u_models))])


def _write_csv(path: str, cfg: ScenarioConfig, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        for line in cfg.effective_lines():
            f.write(f"# {line}\n")
        f.write(",".join(header) + "\n")
        nrows, ncols = rows.shape
        f.write((",".join(["%.12e"] * ncols) + "\n") * nrows % tuple(rows.ravel().tolist()))


def cmd_simulate(cfg: ScenarioConfig, args) -> int:
    """Write the fidelity-vs-time CSV; exit 3 on a strict regime failure.

    Given ``--external``, that CSV is checked before the run and its fidelity,
    interpolated onto the run's grid, is written as one more column.
    """
    if cfg.out is None:
        raise ConfigError(f"out: required for {args.command}")
    periods = cfg.grid_periods()
    if args.external is not None:
        ext_t, ext_f = _read_external_csv(args.external)
        if ext_t[0] > periods[0] + 1e-9 or ext_t[-1] < periods[-1] - 1e-9:
            raise ConfigError(
                f"external: grid [{ext_t[0]:g}, {ext_t[-1]:g}] does not cover the "
                f"run's range [{periods[0]:g}, {periods[-1]:g}]"
            )
    if args.strict_regime:
        if cfg.tau_periods is None:
            raise ConfigError("tau_periods: required with --strict-regime")
        report = validate_regime(cfg.drive(), cfg.tau, cfg.kappa)
        if not report.overall:
            print(report.table(), file=sys.stderr)
            print("regime check failed (strict mode)", file=sys.stderr)
            return 3
    header, rows = _run_simulation(cfg)
    if args.external is not None:
        header = header + ["external_fidelity"]
        rows = np.column_stack([rows, np.interp(periods, ext_t, ext_f)])
    _write_csv(cfg.out, cfg, header, rows)
    print(f"wrote {len(rows)} samples x {len(cfg.models)} models to {cfg.out}")
    return 0


def cmd_regime(cfg: ScenarioConfig, args) -> int:
    """Print validity ratios for the configured tau, or sweep tau if omitted."""
    p = cfg.drive()
    if cfg.tau_periods is not None:
        report = validate_regime(p, cfg.tau, cfg.kappa)
        print(report.table())
        print("json: " + json.dumps(report.record(), sort_keys=True))
        return 0

    # No tau given: sweep the candidate window and print the feasible band.
    case = validate_regime(p, 1.0, cfg.kappa).case
    window = regime_window(p, cfg.kappa)
    if window is None:
        print(f"no finite tau window for the {case} case at these parameters")
        return 0
    lo, hi, band = window
    print(f"tau sweep ({case} case, kappa = {cfg.kappa:g}):")
    records = []
    for tau in np.geomspace(lo, hi, 9):
        report = validate_regime(p, float(tau), cfg.kappa)
        status = "pass" if report.overall else "warn"
        print(f"  tau = {tau:12.6g}  ({tau / _TWO_PI:10.4g} periods)  {status}")
        records.append({"tau": float(tau), "overall": report.overall})
    if band is None:
        print(f"no feasible tau band at kappa = {cfg.kappa:g}")
    else:
        print(
            f"feasible band at kappa = {cfg.kappa:g}: "
            f"tau in [{band[0]:.6g}, {band[1]:.6g}] "
            f"([{band[0] / _TWO_PI:.4g}, {band[1] / _TWO_PI:.4g}] periods)"
        )
    feasible = None if band is None else list(band)
    print("json: " + json.dumps({"case": case, "kappa": cfg.kappa, "sweep": records, "feasible_band": feasible}, sort_keys=True))
    return 0


def cmd_shifts(cfg: ScenarioConfig, args) -> int:
    """Tabulate the closed-form shifts next to the Floquet splitting oracle."""
    p = cfg.drive()
    rows = []
    s_rw = math.inf if p.is_resonant else stark_shift(p)
    note = " (resonant: 1/delta pole)" if p.is_resonant else ""
    rows.append(("S_rw (Stark)", s_rw, note))
    rows.append(("S_bs (diagonal Bloch-Siegert)", bloch_siegert_shift(p), ""))
    pred = None  # the resonant prediction, where the library gives one
    try:
        rows.append(("S_bs' (off-diagonal Bloch-Siegert)", bloch_siegert_prime_shift(p), ""))
        pred = resonant_splitting(p)
        rows.append(("resonant splitting sqrt(S_bs^2+(W-S_bs')^2)", pred, ""))
    except AmplitudePole:
        rows.append(("S_bs' (off-diagonal Bloch-Siegert)", math.nan, " (amplitude at/beyond the 2*omega pole)"))
    except NotResonant:
        pass
    fl = floquet_splitting(p, steps=default_floquet_steps(p, cfg.steps_per_period))
    rows.append(("floquet splitting (monodromy)", fl, ""))
    if pred is not None:
        rows.append(("|floquet - resonant prediction|", abs(fl - pred), ""))

    print(f"shifts for epsilon/omega = {p.epsilon:g}, W/omega = {p.amplitude:g} (omega = 1)")
    print(f"  {'quantity':<44} {'value':>16}")
    for name, value, annotation in rows:
        print(f"  {name:<44} {value:>16.10g}{annotation}")
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
        if not 0.0 <= rows[-1][1] <= 1.0 + 1e-12:
            raise ConfigError(f"external: fidelity {rows[-1][1]} outside [0, 1 + 1e-12] in row {ln!r}")
    if not rows:
        raise ConfigError("external: CSV has no data rows")
    ts, fs = np.array(rows).T
    order = np.argsort(ts)
    ts, fs = ts[order], fs[order]
    repeated = ts[1:][np.diff(ts) == 0]
    if len(repeated):  # np.interp would take whichever row argsort put last
        raise ConfigError(f"external: t_over_period {repeated[0]:g} appears more than once")
    return ts, fs


def _build_parser() -> argparse.ArgumentParser:
    # The override flags are absent from the namespace unless given, so each
    # one present is a config key to override.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", required=True, help="flat key = value config file")
    common.add_argument("--out", help="output CSV path (overrides config)")
    common.add_argument("--kappa", type=float, help="'much greater than' threshold")
    common.add_argument("--steps-per-period", type=int, dest="steps_per_period",
                        help="integrator steps per shortest period")
    common.add_argument("--seed", type=int, help="reserved; no stochastic paths")

    parser = argparse.ArgumentParser(
        prog="cgmagnus",
        description="Coarse-grained Magnus effective dynamics of a driven two-level system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", parents=[common], help="fidelity-vs-time CSV for the configured models")
    sp.add_argument("--strict-regime", action="store_true",
                    help="exit 3 when a validity ratio falls below kappa")
    sp.set_defaults(run=cmd_simulate, external=None)

    sp = sub.add_parser("regime", parents=[common], help="coarse-graining validity report")
    sp.set_defaults(run=cmd_regime)

    sp = sub.add_parser("shifts", parents=[common], help="closed-form shifts and the Floquet splitting")
    sp.set_defaults(run=cmd_shifts)

    sp = sub.add_parser("compare-external", parents=[common], help="merge an external fidelity column")
    sp.add_argument("--external", required=True, help="CSV with t_over_period,fidelity")
    sp.set_defaults(run=cmd_simulate, strict_regime=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {k: v for k, v in vars(args).items() if k in _PARSERS})
        return args.run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MagnusError as exc:  # a library failure past load, e.g. NotUnitary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
