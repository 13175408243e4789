"""Reduced-size self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at ``--size small`` for one pass, untraced and traced,
exactly as the benchmark is invoked, and asserts that each run passes its
checks and prints every metric named in BENCHMARK.json with its unit.  It
also checks that the layers each workload is meant to exercise show up in
its trace, and that a copy of the benchmark without the package sources
exits nonzero without printing a result.  Exits 0 when all of this holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK

# Per workload: spans that must be called in the traced pass, and spans
# that must not be (the bypass side of each layer).
EXPECTED_CALLS = {
    "dispersive": (
        ("magnus.h_eff_order2_analytic", "model.h_interaction", "model.h_rw_interaction",
         "propagation.propagate_coarse", "fidelity.min_fidelity", "cli.main"),
        ("magnus.h_eff_window", "propagation.floquet_splitting"),
    ),
    "resonant_dense": (
        ("model.h_interaction", "model.h_rw_interaction", "shifts.h_eff_resonant_interaction",
         "propagation.propagate_coarse", "fidelity.min_fidelity", "cli.main"),
        ("magnus.h_eff_order2_analytic", "magnus.h_eff_window"),
    ),
    "oracles": (
        ("magnus.h_eff_window", "magnus.f1_numeric", "magnus.f2_numeric",
         "propagation.floquet_splitting", "propagation.frame_transform", "model.h_lab",
         "model.h_bar", "fidelity.min_fidelity_bruteforce", "shifts.resonant_splitting"),
        ("cli.main", "propagation.propagate_coarse"),
    ),
}


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_run(workload: str, trace: int, spec: dict, problems: list) -> dict:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--size", "small"])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    for metric in wanted:
        got = printed.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{where}: metric {metric['name']} missing or wrong unit: {got}")
        elif not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {metric['name']} is not a number: {got}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{where}: end-to-end metric {metric['name']} is {got['value']}")
    extra = set(printed) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
    return printed


def check_bare_copy(problems: list) -> None:
    """Without src/, the benchmark must fail without printing a result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "dispersive", "--seed", "1", "--seconds", "1", "--trace", "0"],
               cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, spec, problems)
        layers = check_run(workload, 1, spec, problems)
        if layers:
            called, bypassed = EXPECTED_CALLS[workload]
            for span in called:
                if not layers[f"{span}.calls"]["value"] > 0:
                    problems.append(f"{workload}: {span} was not called")
            for span in bypassed:
                if layers[f"{span}.calls"]["value"] != 0:
                    problems.append(f"{workload}: {span} was called")
        print(f"{workload}: checked", flush=True)
    check_bare_copy(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
