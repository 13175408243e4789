import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cgmagnus import DriveParams, NotUnitary, cli, h_rwa_plus_bs, validate_regime
from cgmagnus.cli import _MAX_AMPLITUDE, _MAX_STEPS, _MODELS, _write_csv, load_config, main

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


def test_write_csv_matches_per_value_formatting(tmp_path, rng):
    cfg = load_config(str(write_cfg(tmp_path)))
    edge = [0.0, -0.0, 1.0, 1e-300, 5e-324, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e300]
    rows = np.concatenate([np.reshape(edge, (-1, 2)), rng.uniform(0.0, 1.0, size=(7, 2))])
    out = tmp_path / "t.csv"
    _write_csv(str(out), cfg, ["a", "b"], rows)
    lines = [f"# {line}\n" for line in cfg.effective_lines()] + ["a,b\n"]
    lines += [",".join(f"{v:.12e}" for v in row) + "\n" for row in rows]
    assert out.read_bytes() == "".join(lines).encode("utf-8")


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
    return json.loads(capsys.readouterr().out.split("json: ", 1)[1])


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
    assert "no finite tau window" in capsys.readouterr().out


def test_shifts_table_dispersive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, steps_per_period="400")
    assert main(["shifts", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.count(f"{1.0 / 24.0:.10g}") == 1  # one value column
    assert f"{0.025:.10g}" in out
    assert "resonant" not in out  # the resonant prediction holds at delta = 0 only


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
