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
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import AmplitudePole, ConfigError, DegenerateSplittingWarning, MagnusError, NotResonant
from .fidelity import min_fidelity
from .magnus import order2_generator
from .model import DriveParams, RotatingGenerator, h_rwa, interaction_generator
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
    h_rwa_plus_bs,
    regime_window,
    resonant_splitting,
    stark_shift,
    validate_regime,
)

__all__ = ["ScenarioConfig", "load_config", "main"]

# Every effective model: name -> (builder (p, tau) -> generator, needs tau_periods).
# The ``propagation`` docstring states how each kind of generator is propagated.
# Where a model does not apply, its builder raises.
_MODELS = {
    "magnus2": (order2_generator, True),
    "rwa": (lambda p, tau: RotatingGenerator(p.detuning, h_rwa(p)), False),
    "rwa_bs": (lambda p, tau: RotatingGenerator(p.detuning, h_rwa_plus_bs(p)), False),
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


def _read_lines(field: str, path: str) -> list[tuple[int, str]]:
    """The (line number, stripped text) of each line of a UTF-8 file that is
    neither blank nor a ``#`` comment; a leading byte-order mark is dropped, and
    a read fault is a ConfigError on ``field``."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            lines = f.readlines()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ConfigError(f"{field}: cannot read {path!r}: {exc}") from exc
    numbered = ((lineno, line.strip()) for lineno, line in enumerate(lines, start=1))
    return [(lineno, text) for lineno, text in numbered if text and not text.startswith("#")]


def _parse_kv_file(path: str) -> dict:
    raw, first_line = {}, {}
    for lineno, stripped in _read_lines("config", path):
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
    for key in ("epsilon", "tau", "t_max_periods", "kappa"):  # tau: the value the library receives
        value = getattr(cfg, key)
        if value is not None and not 0 < value < math.inf:
            if key == "tau":  # 2*pi*tau_periods overflows from about 2.9e307 periods
                raise ConfigError(f"tau_periods: 2*pi*tau_periods must be finite and > 0, got {cfg.tau_periods}")
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
            build(cfg.drive(), cfg.tau)
        except MagnusError as exc:
            raise ConfigError(f"models: {name}: {type(exc).__name__}: {exc}") from exc


def _run_simulation(cfg: ScenarioConfig):
    """Compute the fidelity table: header names plus one row per time sample."""
    p = cfg.drive()
    periods = cfg.grid_periods()
    grid = periods * _TWO_PI
    hs = (interaction_generator(p), *(_MODELS[name][0](p, cfg.tau) for name in cfg.models))
    u = trajectory(hs, grid, max_step(p, cfg.steps_per_period))
    header = ["t_over_period"] + [f"{name}_fidelity" for name in cfg.models]
    return header, np.column_stack([periods, *min_fidelity(u[0], u[1:])])


# The CSV's "%.12e" fields, 19 bytes each with the separator, built as arrays.
# Rows are formatted in blocks of _CSV_ROWS, so temporaries stay O(block).
_CSV_ROWS = 1024
_POW10 = np.array([float(10**k) for k in range(23)])  # exact in binary64
_SPLITTER = 2.0**27 + 1.0  # Dekker's split into two 26-bit halves


def _split(x):
    """Dekker's split: hi + lo == x, each half with at most 26 significant bits."""
    c = _SPLITTER * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# Four ASCII digits per 32-bit word: _DIGITS4[k] holds the bytes of f"{k:04d}".
_DIGITS4 = np.stack(
    np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).view("<u4").ravel()
_EXPONENT = np.array([int.from_bytes(f"e{k:+03d}".encode(), "little") for k in range(-10, 11)], dtype="<u4")


def _round13(x, e):
    """round_half_even(x * 10**(12 - e)), decided on the exact product.

    y + err == x * 10**p exactly (Dekker's TwoProduct).  Off a half-integer,
    y is at least an ulp from the half-way point and |err| at most half an
    ulp, so rint(y) is right; on one, err's sign says which side of the tie
    the true product lies, and err == 0 is a true tie, rounded to even.
    """
    p = 12 - e
    y = x * _POW10[p]
    xh, xl = _split(x)
    ph, pl = _POW10_HI[p], _POW10_LO[p]
    err = xl * pl - (((y - xh * ph) - xl * ph) - xh * pl)
    r = np.rint(y)
    f = y - r
    return r + np.copysign((np.abs(f) == 0.5) & (f * err > 0), f)


def _format_e12(x: np.ndarray) -> np.ndarray | None:
    """The ``"%.12e,"`` bytes of each value as an (n, 19) uint8 array.

    Covers +0.0 and 1e-10 <= x < 1e10, where the decimal exponent stays in
    [-10, 10] and 10**(12 - e) is exact; returns None for anything else.
    """
    zero = x == 0
    if not (((x >= 1e-10) & (x < 1e10)) | (zero & ~np.signbit(x))).all():
        return None
    x = np.where(zero, 1.0, x)
    e = np.clip(np.floor(np.log10(x)), -10, 9).astype(np.intp)
    n = _round13(x, e)
    shift = (n >= 1e13).astype(np.intp) - (n < 1e12)  # log10 off by one, or rounded up a decade
    if shift.any():
        e += shift
        n = _round13(x, e)
        if not ((n >= 1e12) & (n < 1e13)).all():
            return None
    n = np.where(zero, 0, n.astype(np.int64))  # 13 digits, exact below 2**53
    out = np.empty((len(x), 19), dtype=np.uint8)
    lead = n // 10**12
    out[:, 0] = lead + ord("0")
    out[:, 1] = ord(".")
    n -= lead * 10**12
    words = out[:, 2:18].view("<u4")
    for j, k in enumerate((8, 4, 0)):
        q = n // 10**k
        words[:, j] = _DIGITS4[q]
        n -= q * 10**k
    words[:, 3] = _EXPONENT[e + 10]
    out[:, 18] = ord(",")
    return out


def _write_csv(path: str, cfg: ScenarioConfig, header, rows) -> None:
    """Write the ``#`` config lines, the header and ``rows`` as ``%.12e`` fields.

    Blocks whose values :func:`_format_e12` covers are formatted as arrays;
    any other block goes through the ``%`` template.  The bytes are the same.
    A fault opening or writing ``path`` is a ConfigError on ``out``.
    """
    head = [f"# {line}\n" for line in cfg.effective_lines()] + [",".join(header) + "\n"]
    nrows, ncols = rows.shape
    template = ",".join(["%.12e"] * ncols) + "\n"
    try:
        with open(path, "wb") as f:
            f.write("".join(head).encode("utf-8"))
            for start in range(0, nrows, _CSV_ROWS):
                values = np.asarray(rows[start:start + _CSV_ROWS], dtype=float).ravel()
                out = _format_e12(values)
                if out is None:
                    f.write((template * (len(values) // ncols) % tuple(values.tolist())).encode("ascii"))
                else:
                    out = out.reshape(-1, ncols * 19)
                    out[:, -1] = ord("\n")
                    f.write(out)
    except (OSError, ValueError) as exc:  # ValueError: open() refuses a NUL byte in the path
        raise ConfigError(f"out: cannot write {path!r}: {exc}") from exc


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


def _strict(value):
    """``value`` with every non-finite float in it, at any depth, as None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _print_json(record: dict) -> None:
    """Print ``record`` as one ``json:`` line of strict JSON with sorted keys."""
    print("json: " + json.dumps(_strict(record), sort_keys=True, allow_nan=False))


def cmd_regime(cfg: ScenarioConfig, args) -> int:
    """Print validity ratios for the configured tau, or sweep tau if omitted."""
    p = cfg.drive()
    if cfg.tau_periods is not None:
        report = validate_regime(p, cfg.tau, cfg.kappa)
        print(report.table())
        _print_json(report.record())
        return 0

    # No tau given: sweep the candidate window and print the feasible band.
    case = validate_regime(p, 1.0, cfg.kappa).case
    window = regime_window(p, cfg.kappa)
    if window is None:
        print(f"no finite tau window for the {case} case at these parameters")
        _print_json({"case": case, "kappa": cfg.kappa, "sweep": [], "feasible_band": None})
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
    _print_json({"case": case, "kappa": cfg.kappa, "sweep": records, "feasible_band": band})
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
    with warnings.catch_warnings(record=True) as caught:  # annotated below, not printed raw
        warnings.simplefilter("always", DegenerateSplittingWarning)
        fl = floquet_splitting(p, steps=default_floquet_steps(p, cfg.steps_per_period))
    degenerate = any(issubclass(w.category, DegenerateSplittingWarning) for w in caught)
    rows.append(("floquet splitting (monodromy)", fl, " (degenerate eigenphases)" if degenerate else ""))
    if pred is not None:
        rows.append(("|floquet - resonant prediction|", abs(fl - pred), ""))

    print(f"shifts for epsilon/omega = {p.epsilon:g}, W/omega = {p.amplitude:g} (omega = 1)")
    print(f"  {'quantity':<44} {'value':>16}")
    for name, value, annotation in rows:
        print(f"  {name:<44} {value:>16.10g}{annotation}")
    return 0


def _read_external_csv(path: str):
    lines = [text for _, text in _read_lines("external", path)]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import, and reused by every later one.
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
    args = _parser().parse_args(argv)
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
