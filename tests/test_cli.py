import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from cgmagnus import (
    DriveParams,
    NotUnitary,
    cli,
    fidelity_series,
    h_eff_order2_analytic,
    h_interaction,
    h_rwa_plus_bs,
    validate_regime,
)
from cgmagnus.cli import (
    _CSV_ROWS, _MAX_AMPLITUDE, _MAX_STEPS, _MODELS, _PARSERS, _format_e12, _write_csv, load_config, main,
)
from cgmagnus.propagation import max_step

FLOAT_RE = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def write_cfg(tmp_path, name="run.cfg", **overrides):
    defaults = {
        "epsilon": "4.0",
        "amplitude": "0.5",
        "tau_periods": "5.0",
        "models": "magnus2, rwa",
        "t_max_periods": "4",
        "samples": "40",
        "steps_per_period": "100",
    }
    defaults.update(overrides)
    path = tmp_path / name
    lines = [f"{k} = {v}" for k, v in defaults.items() if v is not None]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    header = data[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in data[1:]])
    return comments, header, rows


def _strict_json_lines(out):
    """Every ``json:`` line of ``out``, parsed as strict JSON (no NaN or Infinity)."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return [json.loads(ln[len("json: "):], parse_constant=refuse)
            for ln in out.splitlines() if ln.startswith("json: ")]


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert header == ["t_over_period", "magnus2_fidelity", "rwa_fidelity"]
    assert rows.shape == (40, 3)
    assert rows[0, 1] == 1.0 and rows[0, 2] == 1.0
    assert rows[:, 0].max() == pytest.approx(4.0)
    assert any("amplitude = 0.5" in c for c in comments)


def test_simulate_float_formatting_and_line_endings(tmp_path):
    cfg = write_cfg(tmp_path, samples="5", t_max_periods="1")
    out = tmp_path / "out.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    raw = out.read_bytes().decode("utf-8")
    assert "\r" not in raw
    body = [ln for ln in raw.split("\n") if ln and not ln.startswith("#")]
    for line in body[1:]:
        for field in line.split(","):
            assert FLOAT_RE.match(field), field


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "a.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    first = out.read_bytes()
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert out.read_bytes() == first


def per_value_csv(cfg, header, rows) -> bytes:
    """The CSV as formatted one value at a time with f"{v:.12e}"."""
    lines = [f"# {line}\n" for line in cfg.effective_lines()] + [",".join(header) + "\n"]
    lines += [",".join(f"{v:.12e}" for v in row) + "\n" for row in rows]
    return "".join(lines).encode("utf-8")


def test_write_csv_matches_per_value_formatting(tmp_path, rng):
    # Values outside the array formatter's range: the whole block takes the % template.
    cfg = load_config(str(write_cfg(tmp_path)))
    edge = [0.0, -0.0, 1.0, 1e-300, 5e-324, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e300]
    rows = np.concatenate([np.reshape(edge, (-1, 2)), rng.uniform(0.0, 1.0, size=(7, 2))])
    out = tmp_path / "t.csv"
    _write_csv(str(out), cfg, ["a", "b"], rows)
    assert out.read_bytes() == per_value_csv(cfg, ["a", "b"], rows)


def _in_range_tables():
    rng = np.random.default_rng(1913)
    powers = np.array([float(f"1e{k}") for k in range(-10, 10)])
    uniform = rng.uniform(1.0, 10.0, size=(20, 200)) * powers[:, None]
    ties = 1.0 + np.arange(1, 8192 * 9) / 8192  # odd k: 14 digits ending in 5, a tie at 13
    # The neighbour below 1e-10 lies outside the exact path.
    neighbours = np.concatenate([np.nextafter(powers[1:], 0.0), powers, np.nextafter(powers, np.inf)])
    # Decimal ties that binary64 misses by less than half an ulp of x * 10**p: only
    # the exact product's error term tells which way they round.
    near = (rng.integers(10**12, 10**13, size=2000) + 0.5) / 10.0 ** rng.integers(3, 23, size=2000)
    near = np.concatenate([np.nextafter(near, 0.0), near, np.nextafter(near, np.inf)])
    decade = np.array([9.9999999999995, 9.99999999999949, 9.999999999999501, 0.99999999999995, 99.99999999999995])
    decade = np.concatenate([decade, 9.9999999999995 * powers[:-1], 9.99999999999996 * powers[:-1], [9999999999.9999]])
    return {
        "uniform_1e-10_to_1e10": uniform.reshape(-1, 4),
        "ties_one_plus_k_over_8192": ties.reshape(-1, 1),
        "nextafter_powers_of_ten": neighbours.reshape(-1, 1),
        "near_ties": near.reshape(-1, 4),
        "rounds_up_a_decade": decade.reshape(-1, 1),
        "zero": np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 1e-10, 0.0, 0.0]]),
    }


@pytest.mark.parametrize("name", sorted(_in_range_tables()))
def test_write_csv_array_path_matches_per_value_formatting(tmp_path, name):
    rows = _in_range_tables()[name]
    assert _format_e12(rows.ravel()) is not None  # every value is on the exact path
    cfg = load_config(str(write_cfg(tmp_path)))
    header = [f"c{k}" for k in range(rows.shape[1])]
    out = tmp_path / "t.csv"
    _write_csv(str(out), cfg, header, rows)
    assert out.read_bytes() == per_value_csv(cfg, header, rows)


@pytest.mark.parametrize("odd", [-1.0, -0.0, 5e-11, 1e10, np.inf, np.nan])
def test_write_csv_one_out_of_range_value_among_in_range_rows(tmp_path, rng, odd):
    rows = rng.uniform(0.0, 1.0, size=(2 * _CSV_ROWS + 7, 3))
    rows[_CSV_ROWS + 5, 1] = odd  # the second block falls back, the others do not
    assert _format_e12(rows[:_CSV_ROWS].ravel()) is not None
    assert _format_e12(rows[_CSV_ROWS:2 * _CSV_ROWS].ravel()) is None
    cfg = load_config(str(write_cfg(tmp_path)))
    out = tmp_path / "t.csv"
    _write_csv(str(out), cfg, ["a", "b", "c"], rows)
    assert out.read_bytes() == per_value_csv(cfg, ["a", "b", "c"], rows)


def test_effective_config_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path)
    out1 = tmp_path / "a.csv"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    comments, _, _ = read_csv(out1)
    # strip the comment prefix and re-run from the echoed effective config
    cfg2 = tmp_path / "roundtrip.cfg"
    cfg2.write_text("\n".join(c[2:] for c in comments) + "\n", encoding="utf-8")
    out2 = tmp_path / "b.csv"
    main(["simulate", "--config", str(cfg2), "--out", str(out2)])
    a = out1.read_text(encoding="utf-8").split("\n")
    b = out2.read_text(encoding="utf-8").split("\n")
    # identical apart from the echoed output path itself
    assert [ln for ln in a if not ln.startswith("# out")] == [
        ln for ln in b if not ln.startswith("# out")
    ]


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"models": "exact"}, "models"),
        ({"models": "exact, nonsense"}, "models"),
        ({"amplitude": None}, "amplitude"),
        ({"samples": "1"}, "samples"),
        ({"t_max_periods": "0"}, "t_max_periods"),
        ({"epsilon": "1.0"}, "magnus2"),  # magnus2 at resonance
        ({"epsilon": "4.0", "models": "resonant_magnus"}, "resonant_magnus"),
        ({"delta": "2.0"}, "epsilon"),  # inconsistent with epsilon = 4
        ({"bogus_key": "1"}, "bogus_key"),
        ({"amplitude": "nan"}, "amplitude"),
        ({"amplitude": "inf"}, "amplitude"),
        ({"epsilon": "inf"}, "epsilon"),
        ({"tau_periods": "inf"}, "tau_periods"),
        ({"t_max_periods": "inf"}, "t_max_periods"),
        ({"epsilon": "1.0", "amplitude": "2.0", "models": "resonant_magnus"}, "amplitude"),
        ({"samples": "100000000000"}, "samples"),
        ({"steps_per_period": "1000000000000"}, "steps_per_period"),
        ({"amplitude": "1e200", "models": "rwa"}, "amplitude"),  # was NotUnitary after overflow
        ({"t_max_periods": "1e9"}, "t_max_periods"),
        ({"epsilon": "1e300"}, "epsilon"),
        ({"epsilon": "1.00000000001"}, "magnus2"),  # |delta|*tau ~ 3e-10 with delta != 0
    ],
)
def test_config_validation_exit_2(tmp_path, capsys, overrides, field):
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,name",
    [
        ({"epsilon": "1.0", "amplitude": "2.0", "models": "resonant_magnus"}, "AmplitudePole"),
    ],
)
def test_library_error_exits_2_with_one_line(tmp_path, capsys, overrides, name):
    cfg = write_cfg(tmp_path, **overrides)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and name in err and "Traceback" not in err


def test_library_failure_past_load_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # Models the library refuses stop at load; a failure while running still exits 2.
    def fail(*args):
        raise NotUnitary("defect 1e-3")

    monkeypatch.setattr(cli, "trajectory", fail)
    cfg = write_cfg(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: NotUnitary: defect 1e-3\n"


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m cgmagnus` hands main's return value to the shell.
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(cfg):
        return subprocess.run([sys.executable, "-m", "cgmagnus", "regime", "--config", str(cfg)],
                              capture_output=True, text=True, env=env, timeout=60)

    ok = run(write_cfg(tmp_path))
    assert ok.returncode == 0 and ok.stderr == ""
    assert any(ln.startswith("json: ") for ln in ok.stdout.splitlines())
    bad = run(write_cfg(tmp_path, "bad.cfg", colour="blue"))
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr == "config error: colour: unknown config key\n"


@pytest.mark.parametrize("command", ["simulate", "regime", "shifts", "compare-external"])
def test_model_the_library_refuses_exits_2_at_load(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, epsilon="1.0", amplitude="2.0", models="rwa, resonant_magnus")
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(cfg), "--out", str(out), "--external", str(tmp_path / "none.csv")]
    assert main(argv if command == "compare-external" else argv[:-2]) == 2
    assert capsys.readouterr().err == (
        "config error: models: resonant_magnus: AmplitudePole: amplitude 2.0 >= 2 * omega = 2.0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("name", list(_MODELS))
def test_every_model_row_runs_or_is_refused_by_the_library(tmp_path, capsys, name):
    # Each row runs on at least one of the two drives; on the other the
    # library may refuse it, which the CLI reports as one config line.
    runs = 0
    for drive, epsilon in (("dispersive", "4.0"), ("resonant", "1.0")):
        cfg = write_cfg(tmp_path, f"{drive}.cfg", epsilon=epsilon, models=name)
        out = tmp_path / f"{drive}.csv"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if rc == 2:
            assert err.count("\n") == 1 and err.startswith(f"config error: models: {name}: ")
            continue
        assert rc == 0
        runs += 1
        _, header, rows = read_csv(out)
        assert header == ["t_over_period", f"{name}_fidelity"]
        assert rows[0, 1] == 1.0 and ((0.0 <= rows[:, 1]) & (rows[:, 1] <= 1.0)).all()
    assert runs >= 1


def test_rwa_bs_row_at_resonance_is_the_library_static_form():
    p = DriveParams(epsilon=1.0, omega=1.0, amplitude=0.5)
    ts = np.linspace(0.0, 40.0, 17)
    got = _MODELS["rwa_bs"][0](p, None)(ts)
    want = h_rwa_plus_bs(p)
    for c in ("c0", "c1", "c2", "c3"):
        assert np.abs(np.broadcast_to(getattr(got, c), ts.shape) - getattr(want, c)).max() <= 1e-15


@pytest.mark.parametrize("command", ["simulate", "regime", "shifts"])
def test_amplitude_range_edge(tmp_path, capsys, command):
    edge = write_cfg(tmp_path, amplitude=repr(_MAX_AMPLITUDE), models="magnus2, rwa, rwa_bs")
    beyond = write_cfg(tmp_path, "b.cfg", amplitude=repr(np.nextafter(_MAX_AMPLITUDE, math.inf)))
    out = str(tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning at the edge or before the exit
        assert main([command, "--config", str(edge), "--out", out]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(beyond), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "amplitude" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"steps_per_period": "1000000000000"},
        {"steps_per_period": "5000000", "t_max_periods": "0.01"},  # one period: 2.5e7 steps
    ],
)
def test_shifts_floquet_steps_bound_exits_2(tmp_path, capsys, overrides):
    cfg = write_cfg(tmp_path, models="rwa", **overrides)
    assert main(["shifts", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "steps_per_period" in err


def test_run_size_bound_edge_is_accepted(tmp_path):
    # epsilon = 4 and one period: exactly _MAX_STEPS steps.
    cfg = write_cfg(tmp_path, t_max_periods="1", steps_per_period=str(_MAX_STEPS // 5))
    assert load_config(str(cfg)).steps_per_period == _MAX_STEPS // 5


def test_zero_amplitude_regime_checks_exit_0(tmp_path, capsys):
    cfg = write_cfg(tmp_path, amplitude="0", models="rwa")
    assert main(["regime", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out.split("json: ", 1)[1])
    assert payload["overall"] is True
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--strict-regime"]) == 0
    assert out.exists()


def test_readme_config_block_parses(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("## Command-line interface", 1)[1]
    block = cli_section.split("```\n", 2)[1]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(str(path))
    assert (cfg.epsilon, cfg.amplitude, cfg.tau_periods) == (4.0, 0.5, 5.0)
    any_of = next(ln for ln in block.splitlines() if ln.startswith("# any of:"))
    assert sorted(name.strip() for name in any_of[len("# any of:"):].split(",")) == sorted(_MODELS)
    assert cfg.models == ("magnus2", "rwa")
    assert (cfg.t_max_periods, cfg.samples, cfg.out) == (50.0, 500, "fidelities.csv")


def test_readme_library_examples_run(capsys):
    # The two library examples run in one namespace and print the same minimum F.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    first, second = capsys.readouterr().out.split()
    assert first == second and 0.0 < float(first) <= 1.0


def test_effective_lines_every_optional_field(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text(
        "delta = 3.0\namplitude = 0.5\nmodels = rwa, exact, magnus2, RWA\n"
        "tau_periods = 5\nout = runs/a#1.csv\nseed = 7\n",
        encoding="utf-8",
    )
    assert load_config(str(path)).effective_lines() == [
        "amplitude = 0.5",
        "epsilon = 4.0",
        "kappa = 5.0",
        "models = rwa, magnus2",
        "out = runs/a#1.csv",
        "samples = 500",
        "seed = 7",
        "steps_per_period = 200",
        "t_max_periods = 50.0",
        "tau_periods = 5.0",
    ]


def test_delta_alone_sets_epsilon(tmp_path):
    cfg = write_cfg(tmp_path, epsilon=None, delta="3.0")
    loaded = load_config(str(cfg))
    assert loaded.epsilon == 4.0


@pytest.mark.parametrize(
    "text,message",
    [
        ("amplitude = 0.5\nepsilon = 4.0\nAmplitude = 0.7\n",
         "config line 3: amplitude given twice (first on line 1)"),
        ("epsilon = 4.0\n= 3\n", "config line 2: expected 'key = value'"),
    ],
    ids=["repeated_key", "empty_key"],
)
def test_config_line_faults_exit_2_naming_the_line(tmp_path, capsys, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert main(["regime", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "regime", "shifts", "compare-external"])
def test_override_flags_reach_the_config(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="2")
    ext = tmp_path / "ext.csv"
    _external_csv(ext, np.linspace(0.0, 2.0, 5), np.full(5, 0.9))
    out = tmp_path / "x.csv"
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command == "compare-external":
        argv += ["--external", str(ext)]
    for flag, field in (("--kappa", "kappa"), ("--steps-per-period", "steps_per_period")):
        assert main(argv + [flag, "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {field}: ")
    assert not out.exists()
    if command == "regime":
        assert main(argv + ["--kappa", "3"]) == 0
        assert '"kappa": 3.0' in capsys.readouterr().out.split("json: ", 1)[1]
    elif command != "shifts":
        assert main(argv + ["--kappa", "3", "--seed", "7", "--steps-per-period", "150"]) == 0
        comments, _, _ = read_csv(out)
        assert {"# kappa = 3.0", "# seed = 7", "# steps_per_period = 150"} <= set(comments)


def test_missing_out_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert "out" in capsys.readouterr().err


def test_strict_regime_exit_3(tmp_path, capsys):
    # tau = 5 periods leaves the Stark-window ratio at 4.8 < kappa = 5.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "x.csv"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out), "--strict-regime"])
    assert rc == 3
    assert not out.exists()
    # relaxing kappa lets the same scenario through
    rc = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--strict-regime",
         "--kappa", "4.5"]
    )
    assert rc == 0
    assert out.exists()


def test_regime_report_values(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["regime", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "dispersive" in out
    payload = json.loads(out.split("json: ", 1)[1])
    values = {c["name"]: c for c in payload["checks"]}
    assert values["slow_detuning"]["value"] == pytest.approx(15.0)
    assert values["stark_window"]["value"] == pytest.approx(4.8)
    assert values["stark_window"]["passes"] is False


def test_regime_sweep_without_tau(tmp_path, capsys):
    cfg = write_cfg(tmp_path, tau_periods=None, models="rwa")
    assert main(["regime", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "tau sweep" in out
    payload = json.loads(out.split("json: ", 1)[1])
    assert payload["sweep"]
    # dispersive feasible band exists for these parameters at kappa = 5
    assert payload["feasible_band"] is not None


def test_regime_resonant_consistency_warn(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epsilon="1.0", amplitude="0.1", models="rwa_bs",
                    tau_periods="2.0")
    assert main(["regime", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out.split("json: ", 1)[1])
    values = {c["name"]: c for c in payload["checks"]}
    assert values["consistency"]["value"] == pytest.approx(0.1 * 32 ** (1 / 3))
    assert values["consistency"]["passes"] is False


TWO_PI = 2.0 * math.pi


# (epsilon, amplitude, sweep ends lo and hi, feasible band at kappa = 5)
SWEEP_DRIVES = [
    # dispersive: max(pi, 2 pi/(1 + eps), 2 pi/|delta|) and 2 pi/|S_rw|
    (4.0, 0.5, math.pi, TWO_PI / (0.25 / 6.0), True),
    (0.3, 0.1, TWO_PI / 0.7, TWO_PI / (0.01 / 1.4), True),
    # resonant: 2 pi/(2 - W) and min(2 pi/W, 2 pi/S_bs'); the consistency
    # ratio (W/omega)*32^(1/3) stays below kappa, so no band
    (1.0, 0.02, TWO_PI / 1.98, TWO_PI / 0.02, False),
    (1.0, 1.9, TWO_PI / 0.1, TWO_PI * 16.0 * (1.0 - 1.9**2 / 4.0) / 1.9**3, False),
]


def _regime_sweep(tmp_path, capsys, epsilon, amplitude):
    cfg = write_cfg(tmp_path, epsilon=str(epsilon), amplitude=str(amplitude),
                    tau_periods=None, models="rwa")
    assert main(["regime", "--config", str(cfg)]) == 0
    [record] = _strict_json_lines(capsys.readouterr().out)
    return record


@pytest.mark.parametrize("epsilon,amplitude,lo,hi,feasible", SWEEP_DRIVES)
def test_regime_sweep_band_matches_closed_form(tmp_path, capsys, epsilon, amplitude, lo, hi, feasible):
    payload = _regime_sweep(tmp_path, capsys, epsilon, amplitude)
    sweep = [r["tau"] for r in payload["sweep"]]
    assert (sweep[0], sweep[-1]) == (pytest.approx(lo, rel=1e-14), pytest.approx(hi, rel=1e-14))
    if feasible:
        assert payload["feasible_band"] == pytest.approx([5.0 * lo, hi / 5.0], rel=1e-14)
    else:
        assert payload["feasible_band"] is None


@pytest.mark.parametrize("epsilon,amplitude", [d[:2] for d in SWEEP_DRIVES] + [(1.0, 0.05)])
def test_regime_band_agrees_with_the_library(tmp_path, capsys, epsilon, amplitude):
    # A reported band passes validate_regime inside it; without one, no sweep point passes.
    payload = _regime_sweep(tmp_path, capsys, epsilon, amplitude)
    band = payload["feasible_band"]
    if band is not None:
        p = DriveParams(epsilon, 1.0, amplitude)
        assert validate_regime(p, math.sqrt(band[0] * band[1]), payload["kappa"]).overall
    else:
        assert not any(r["overall"] for r in payload["sweep"])


@pytest.mark.parametrize("epsilon,amplitude", [(4.0, 0.0), (1.0, 0.0), (1.0, 2.5)])
def test_regime_sweep_without_finite_window(tmp_path, capsys, epsilon, amplitude):
    cfg = write_cfg(tmp_path, epsilon=str(epsilon), amplitude=str(amplitude),
                    tau_periods=None, models="rwa")
    assert main(["regime", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "no finite tau window" in out
    [record] = _strict_json_lines(out)
    assert (record["sweep"], record["feasible_band"]) == ([], None)


def test_shifts_table_dispersive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, steps_per_period="400")
    assert main(["shifts", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count(f"{1.0 / 24.0:.10g}") == 1  # one value column
    assert f"{0.025:.10g}" in out
    assert "resonant" not in out  # the resonant prediction holds at delta = 0 only
    assert "degenerate" not in out


def test_shifts_resonant_prediction_close_to_floquet(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, epsilon="1.0", amplitude="0.1", models="rwa_bs",
        steps_per_period="2000",
    )
    assert main(["shifts", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    gap_line = [ln for ln in out.splitlines() if "floquet - resonant" in ln][0]
    assert float(gap_line.split()[-1]) < 5e-4


def test_shifts_amplitude_pole_annotated(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epsilon="1.0", amplitude="2.5", models="rwa")
    assert main(["shifts", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "pole" in out


def _external_csv(path, ts, fs):
    with open(path, "w", encoding="utf-8") as f:
        f.write("t_over_period,fidelity\n")
        for t, v in zip(ts, fs):
            f.write(f"{t:.12e},{v:.12e}\n")


def test_compare_external_passthrough(tmp_path):
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="2")
    grid = np.linspace(0.0, 2.0, 9)
    ext = tmp_path / "ext.csv"
    values = 0.9 + 0.05 * np.cos(grid)
    _external_csv(ext, grid, values)
    out = tmp_path / "merged.csv"
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(out)])
    assert rc == 0
    _, header, rows = read_csv(out)
    assert header[-1] == "external_fidelity"
    np.testing.assert_allclose(rows[:, -1], values, atol=1e-12)


def test_compare_external_constant_column(tmp_path):
    cfg = write_cfg(tmp_path, samples="7", t_max_periods="2")
    ext = tmp_path / "ext.csv"
    _external_csv(ext, [0.0, 3.0], [1.0, 1.0])
    out = tmp_path / "merged.csv"
    main(["compare-external", "--config", str(cfg), "--external", str(ext),
          "--out", str(out)])
    _, _, rows = read_csv(out)
    np.testing.assert_array_equal(rows[:, -1], 1.0)


def test_compare_external_interpolation_error_bound(tmp_path):
    # Half-resolution external samples of a smooth curve: the merged column
    # must sit within the standard linear-interpolation error of the truth.
    cfg = write_cfg(tmp_path, samples="33", t_max_periods="4")
    fine = np.linspace(0.0, 4.0, 33)
    coarse = fine[::2]
    f = lambda t: 0.9 + 0.1 * np.cos(1.3 * t)
    ext = tmp_path / "ext.csv"
    _external_csv(ext, coarse, f(coarse))
    out = tmp_path / "merged.csv"
    main(["compare-external", "--config", str(cfg), "--external", str(ext),
          "--out", str(out)])
    _, _, rows = read_csv(out)
    h = coarse[1] - coarse[0]
    bound = 0.1 * 1.3**2 * h**2 / 8 + 1e-12
    assert np.abs(rows[:, -1] - f(fine)).max() <= bound


def test_compare_external_range_violation_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="4")
    ext = tmp_path / "ext.csv"
    _external_csv(ext, [0.0, 2.0], [1.0, 1.0])
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "cover" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows", ["0,1\nnan,0.5\n", "0,1\n5,inf\n", "0,nan\n5,1\n", ""]
)
def test_compare_external_rejects_non_finite_and_empty(tmp_path, capsys, rows):
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="4")
    ext = tmp_path / "ext.csv"
    ext.write_text("t_over_period,fidelity\n" + rows, encoding="utf-8")
    out = tmp_path / "m.csv"
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(out)])
    assert rc == 2
    assert "external" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,needle",
    [
        ("0,1\n0.5,0.2\n0.5,0.9\n5,1\n", "0.5 appears more than once"),
        ("5,1\n0,1\n5,0.9\n", "5 appears more than once"),
        ("0,1\n2,7\n5,1\n", "fidelity 7.0 outside"),
        ("0,1\n2,-3\n5,1\n", "fidelity -3.0 outside"),
        ("0,1\n2,1.000001\n5,1\n", "outside [0, 1 + 1e-12]"),
    ],
)
def test_compare_external_rejects_repeated_times_and_bad_fidelities(tmp_path, capsys, rows, needle):
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="4")
    ext = tmp_path / "ext.csv"
    ext.write_text("t_over_period,fidelity\n" + rows, encoding="utf-8")
    out = tmp_path / "m.csv"
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "external: " in err and needle in err
    assert not out.exists()


def test_compare_external_accepts_fidelities_at_the_range_ends(tmp_path):
    # External fidelities must lie in [0, 1 + 1e-12]: roundoff just above 1 passes.
    cfg = write_cfg(tmp_path, samples="9", t_max_periods="4")
    ext = tmp_path / "ext.csv"
    ext.write_text("t_over_period,fidelity\n0,0\n2,1.0000000000005\n4,1\n", encoding="utf-8")
    out = tmp_path / "m.csv"
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(out)])
    assert rc == 0
    _, _, rows = read_csv(out)
    want = np.interp(np.linspace(0.0, 4.0, 9), [0, 2, 4], [0, 1.0000000000005, 1])
    np.testing.assert_allclose(rows[:, -1], want)


def test_compare_external_missing_columns_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    ext = tmp_path / "ext.csv"
    ext.write_text("time,value\n0,1\n", encoding="utf-8")
    rc = main(["compare-external", "--config", str(cfg), "--external", str(ext),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 2
    assert "t_over_period" in capsys.readouterr().err


def test_resonant_simulation_models(tmp_path):
    cfg = write_cfg(
        tmp_path,
        epsilon="1.0",
        models="resonant_magnus, rwa_bs",
        tau_periods=None,
        t_max_periods="30",
        samples="60",
    )
    out = tmp_path / "res.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["t_over_period", "resonant_magnus_fidelity", "rwa_bs_fidelity"]
    # the amplitude-renormalized form dominates the diagonal-shift guess at
    # late times, where the phase error of the unrenormalized drive builds up
    late = rows[rows[:, 0] > 15.0]
    assert late[:, 1].min() > late[:, 2].min() + 0.01
    assert (late[:, 1] >= late[:, 2]).mean() > 0.9


def test_simulate_magnus2_column_matches_the_plain_generators(tmp_path):
    # simulate steps the bodies of exact and magnus2 in their rotating frames;
    # stepping the two library functions themselves in the interaction
    # picture gives the same column.  Off-integer epsilon and tau keep every
    # sinc of magnus2 alive.
    cfg = write_cfg(tmp_path, epsilon="2.5", amplitude="0.3", tau_periods="2.7", models="magnus2",
                    t_max_periods="50", samples="500", steps_per_period="200")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    loaded = load_config(str(cfg))
    p, tau = loaded.drive(), loaded.tau
    want = fidelity_series(
        lambda t: h_interaction(t, p),
        lambda t: h_eff_order2_analytic(t, p, tau),
        loaded.grid_periods() * 2.0 * math.pi,
        max_step(p, loaded.steps_per_period),
    )
    assert np.abs(rows[:, 1] - want).max() <= 1e-10


GOLDEN_DIR = Path(__file__).parents[1] / "perfbench" / "golden"


@pytest.mark.parametrize("golden", sorted(GOLDEN_DIR.glob("*.csv")), ids=lambda p: p.stem)
def test_simulate_matches_committed_golden(tmp_path, golden):
    # Rerun each golden's echoed config (its `out` aside) and compare at the
    # benchmark's 1e-10 per value.
    g_comments, g_header, g_rows = read_csv(golden)
    config = [c[2:] for c in g_comments if not c.startswith("# out = ")]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("\n".join(config) + "\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    comments, header, rows = read_csv(out)
    assert [c for c in comments if not c.startswith("# out = ")] == ["# " + line for line in config]
    assert header == g_header
    assert rows.shape == g_rows.shape
    assert np.abs(rows - g_rows).max() <= 1e-10


# --- The boundary: every input read, every output written, every json: line ---

NOT_UTF8 = b"\xff\xfe\x00bad"
COMMANDS = ["simulate", "regime", "shifts", "compare-external"]


def _boundary_argv(tmp_path, command, fault):
    """argv for ``command`` on a good config and external CSV, with ``fault`` applied."""
    cfg = write_cfg(tmp_path, tau_periods="1e308" if fault == "tau_periods" else "5.0")
    if fault == "config":
        cfg.write_bytes(NOT_UTF8)
    ext = tmp_path / "ext.csv"
    if fault == "external":
        ext.write_bytes(b"t_over_period,fidelity\n" + NOT_UTF8)
    else:
        _external_csv(ext, np.linspace(0.0, 4.0, 5), np.full(5, 0.9))
    out = {"out-directory": tmp_path, "out-missing-directory": tmp_path / "missing" / "x.csv"}.get(
        fault, tmp_path / "x.csv")
    argv = [command, "--config", str(cfg), "--out", str(out)]
    return argv + ["--external", str(ext)] if command == "compare-external" else argv


BOUNDARY_FAULTS = (
    [(command, "config", "config") for command in COMMANDS]
    + [("compare-external", "external", "external")]
    + [(command, fault, "out") for command in ("simulate", "compare-external")
       for fault in ("out-directory", "out-missing-directory")]
    + [(command, "tau_periods", "tau_periods") for command in COMMANDS]
)


@pytest.mark.parametrize("command,fault,field", BOUNDARY_FAULTS, ids=str)
def test_boundary_fault_exits_2_with_one_line_naming_the_field(tmp_path, capsys, command, fault, field):
    assert main(_boundary_argv(tmp_path, command, fault)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"config error: {field}: ")


def test_boundary_fault_through_the_module_entry_point(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = _boundary_argv(tmp_path, "compare-external", "external")
    run = subprocess.run([sys.executable, "-m", "cgmagnus", *argv],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 2 and run.stdout == "" and "Traceback" not in run.stderr
    assert run.stderr.count("\n") == 1 and run.stderr.startswith("config error: external: cannot read ")


@pytest.mark.parametrize(
    "overrides,nulls",
    [
        ({"amplitude": "0", "models": "rwa"}, {"stark_window"}),  # 2*pi/(S_rw*tau) at S_rw = 0
        ({"epsilon": "1.0", "amplitude": "2.5", "models": "rwa", "tau_periods": "1"}, {"prime_window"}),
        ({}, set()),
    ],
    ids=["amplitude_0", "amplitude_pole", "dispersive"],
)
def test_regime_prints_one_strict_json_line(tmp_path, capsys, overrides, nulls):
    # Non-finite ratios, and only those, are null; the sweeps are checked by _regime_sweep.
    cfg = write_cfg(tmp_path, **overrides)
    assert main(["regime", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    [record] = _strict_json_lines(captured.out)
    assert {c["name"] for c in record["checks"] if c["value"] is None} == nulls
    assert all(math.isfinite(c["value"]) for c in record["checks"] if c["name"] not in nulls)


@pytest.mark.parametrize("epsilon", ["4.0", "1.0"])
def test_shifts_at_zero_amplitude_annotates_the_degenerate_splitting(tmp_path, capsys, epsilon):
    cfg = write_cfg(tmp_path, epsilon=epsilon, amplitude="0", models="rwa")
    assert main(["shifts", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    [floquet] = [ln for ln in captured.out.splitlines() if "floquet splitting" in ln]
    assert floquet.endswith(" (degenerate eigenphases)")


# Config values at the edges of float and text; NOT_UTF8 makes the whole file unreadable.
EXTREME_VALUES = [b"0", b"5e-324", b"-5e-324", b"1e-300", b"-1e-300", b"1e300", b"1e308",
                  b"nan", b"inf", b"-inf", b"junk", b"", NOT_UTF8]
# Values a run accepts, for the keys of a base config; the run-size keys stay small.
TYPICAL_VALUES = {
    "epsilon": [b"4", b"1", b"0.5"],
    "amplitude": [b"0.5", b"0", b"2.5"],
    "models": [b"rwa", b"rwa_bs", b"rwa, magnus2", b"resonant_magnus"],
    "tau_periods": [b"5", b"1"],
    "kappa": [b"5", b"1"],
    "steps_per_period": [b"1", b"8", b"20"],
    "samples": [b"2", b"5", b"16"],
    "t_max_periods": [b"0.5", b"1", b"2"],
}


@st.composite
def config_lines(draw):
    """``key = value`` lines: a base config with up to two keys set to an
    extreme value or dropped, among them the optional and unknown keys."""
    values = {key: draw(st.sampled_from(table)) for key, table in TYPICAL_VALUES.items()}
    keys = [k for k in _PARSERS if k != "out"] + ["colour", "EPSILON"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(EXTREME_VALUES + [None]))
    lines = [key.encode() + b" = " + value for key, value in values.items() if value is not None]
    return draw(st.permutations(lines))


@pytest.mark.parametrize("command", [["regime"], ["shifts"], ["simulate"], ["simulate", "--strict-regime"]],
                         ids=" ".join)
@settings(max_examples=100, deadline=None)
@given(lines=config_lines(), out=st.sampled_from(["x.csv", "x.csv", None, ".", "missing/x.csv", "x\0y.csv"]))
def test_main_never_raises_at_the_boundary(command, lines, out):
    with tempfile.TemporaryDirectory() as tmp:
        if out is not None:
            lines = lines + [b"out = " + os.path.join(tmp, out).encode()]
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(b"\n".join(lines) + b"\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main([*command, "--config", str(cfg)])
    assert rc in (0, 2, 3)
    if rc == 0:
        assert stderr.getvalue() == ""
    if rc == 2:
        assert stderr.getvalue().count("\n") == 1
    if command[0] == "regime" and rc == 0:
        assert len(_strict_json_lines(stdout.getvalue())) == 1
    event(f"{command[0]} exits {rc}")


# --- One parser per process ---


def _run_captured(capsys, argv, out):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def test_one_parser_serves_every_command_like_a_fresh_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out.csv"
    base = ["--config", str(cfg), "--out", str(out)]
    runs = [["simulate", *base], ["regime", "--kappa", "3", *base], ["shifts", *base],
            ["simulate", "--steps-per-period", "150", *base], ["simulate", *base]]
    cli._parser.cache_clear()
    shared = []
    for argv in runs:
        out.unlink(missing_ok=True)
        shared.append(_run_captured(capsys, argv, out))
    assert cli._parser.cache_info().misses == 1
    for argv, got in zip(runs, shared):
        cli._parser.cache_clear()
        out.unlink(missing_ok=True)
        assert _run_captured(capsys, argv, out) == got
    assert shared[0][0] == 0 and shared[0][3] is not None
    assert shared[3][3] != shared[0][3] == shared[4][3]  # the override reached only its own run


@pytest.mark.parametrize("command", [[], ["simulate"], ["regime"], ["shifts"], ["compare-external"]])
def test_help_from_the_shared_parser_is_the_fresh_help(capsys, command):
    texts = []
    for fresh in (True, False, False):
        if fresh:
            cli._parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2] and texts[0].startswith("usage: cgmagnus")
