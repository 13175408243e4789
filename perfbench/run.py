"""cgmagnus benchmark: one closed-loop client running one workload in-process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dispersive --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed.
A run sets the workload up, then repeats timed passes until ``--seconds``
have elapsed (at least one pass) and checks every pass's outputs.

``--trace 0`` prints the end-to-end metrics: median ``wall_s`` and ``cpu_s``
of a pass, the process's ``peak_rss_mb``, and ``setup_s``, the median over
fresh interpreters of ``import cgmagnus`` plus loading the workload's inputs.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (medians over traced passes), the tracing overhead and two probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines carry
informational readouts (physics values and machine info) that are not gated.
The exit code is 0 when every operation passed its check, 1 when one failed,
and 2 when the checkout holds no cgmagnus sources.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Span name -> the per-span fields reported for it.
SPAN_FIELDS = {
    "cli.main": ("calls", "busy_s"),
    "fidelity.fidelity_series": ("calls", "busy_s"),
    "fidelity.min_fidelity": ("calls", "busy_s", "ns_per_call"),
    "fidelity.min_fidelity_bruteforce": ("calls", "busy_s"),
    "propagation.propagate_coarse": ("calls", "busy_s"),
    "propagation.propagate": ("calls", "busy_s"),
    "propagation.floquet_splitting": ("calls", "busy_s"),
    "propagation.frame_transform": ("calls", "busy_s"),
    "model.h_interaction": ("calls", "busy_s", "ns_per_call"),
    "model.h_rw_interaction": ("calls", "busy_s"),
    "model.h_lab": ("calls", "busy_s"),
    "model.h_bar": ("calls", "busy_s"),
    "magnus.h_eff_order2_analytic": ("calls", "busy_s", "ns_per_call"),
    "magnus.h_eff_window": ("calls", "busy_s"),
    "magnus.f1_numeric": ("calls", "busy_s"),
    "magnus.f2_numeric": ("calls", "busy_s"),
    "shifts.h_eff_resonant_interaction": ("calls",),
    "shifts.resonant_splitting": ("calls",),
}

# Module self time: self time of the module's spans that call back into
# other layers.  Generator spans are leaves and report busy_s instead.
SELF_GROUPS = {
    "cli.self_s": ("cli.main",),
    "fidelity.self_s": ("fidelity.fidelity_series",),
    "propagation.self_s": (
        "propagation.propagate_coarse",
        "propagation.propagate",
        "propagation.floquet_splitting",
        "propagation.frame_transform",
    ),
    "magnus.self_s": ("magnus.h_eff_window", "magnus.f1_numeric", "magnus.f2_numeric"),
}

FIELD_UNITS = {"calls": "count", "busy_s": "s", "ns_per_call": "ns"}


def per_layer_metrics():
    """(name, unit, better) of every metric printed with ``--trace 1``."""
    out = []
    for span, fields in SPAN_FIELDS.items():
        out += [(f"{span}.{f}", FIELD_UNITS[f], "lower") for f in fields]
    out += [(name, "s", "lower") for name in SELF_GROUPS]
    out += [
        ("propagation.steps", "count", "lower"),
        ("propagation.ns_per_step", "ns", "lower"),
        ("propagation.propagate.ns_per_step", "ns", "lower"),
        ("pauli.expm_pauli.ns_per_call", "ns", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs, for the self-test")
    return parser.parse_args(argv)


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


SETUP_CHILD = """\
import sys, time
from pathlib import Path
start = time.perf_counter()
import cgmagnus
import workloads
workloads.WORKLOADS[sys.argv[1]].load_inputs(int(sys.argv[2]), sys.argv[3], Path(sys.argv[4]))
print(repr(time.perf_counter() - start))
"""


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    cmd = [sys.executable, "-c", SETUP_CHILD, args.workload, str(args.seed), args.size, str(WORK)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=False)
        if proc.returncode != 0:
            fail_setup(f"set-up interpreter failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def another_fits(deadline: float, cycle_walls: list) -> bool:
    """Whether one more cycle of passes, at the median cycle time so far, ends by the deadline."""
    return not cycle_walls or time.perf_counter() + statistics.median(cycle_walls) <= deadline


class Tally:
    """Operation counts, readouts and the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.readouts = {}
        self.errors = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        for key, value in outcome.readouts.items():
            worse = max if key.startswith(("worst_", "max_")) else min
            self.readouts[key] = worse(self.readouts.get(key, value), value)
        for error in outcome.errors:
            if len(self.errors) < 5:
                self.errors.append(error)


def timed_pass(workload, inputs, tally, tracer=None):
    """Run one pass; return (wall s, cpu s).  The check is not timed."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if tracer is None:
        result = workload.execute(inputs)
    else:
        with tracer.installed():
            result = workload.execute(inputs, tracer)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    tally.add(workload.check(inputs, result))
    return wall, cpu


def layer_snapshot(tracer, wall: float) -> dict:
    values = {}
    for span, fields in SPAN_FIELDS.items():
        calls, busy = tracer.calls[span], tracer.busy[span]
        for field in fields:
            if field == "calls":
                values[f"{span}.calls"] = calls
            elif field == "busy_s":
                values[f"{span}.busy_s"] = busy
            else:
                values[f"{span}.ns_per_call"] = busy / calls * 1e9 if calls else 0.0
    for name, spans in SELF_GROUPS.items():
        values[name] = sum(tracer.self_time[s] for s in spans)
    steps = tracer.steps
    values["propagation.steps"] = steps
    values["propagation.ns_per_step"] = (
        values["propagation.self_s"] / steps * 1e9 if steps else 0.0
    )
    values["trace.wall_s"] = wall
    values["trace.coverage"] = tracer.covered_s() / wall
    return values


def probe_expm_pauli(rng, n: int = 2000, repeats: int = 5) -> float:
    """ns per expm_pauli call on seeded coefficients."""
    from cgmagnus import PauliCoeffs, expm_pauli

    coeffs = [PauliCoeffs(*rng.normal(size=4)) for _ in range(n)]
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for c in coeffs:
            expm_pauli(c, 0.01)
        per_call.append((time.perf_counter() - start) / n * 1e9)
    return statistics.median(per_call)


def probe_propagate(rng, steps: int = 4096, repeats: int = 5) -> float:
    """ns per propagate step with a precomputed-coefficient generator."""
    from cgmagnus import PauliCoeffs, PropagationSpec, propagate

    table = [PauliCoeffs(0.0, *rng.normal(size=3)) for _ in range(steps)]
    spec = PropagationSpec(0.0, 1.0, steps)
    per_step = []
    for _ in range(repeats):
        step = itertools.cycle(table).__next__
        start = time.perf_counter()
        propagate(lambda t: step(), spec)
        per_step.append((time.perf_counter() - start) / steps * 1e9)
    return statistics.median(per_step)


def run_untraced(workload, inputs, args, tally) -> dict:
    setup_s = measure_setup(args)
    walls, cpus = [], []
    deadline = time.perf_counter() + args.seconds
    while another_fits(deadline, walls):
        wall, cpu = timed_pass(workload, inputs, tally)
        walls.append(wall)
        cpus.append(cpu)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"# passes {len(walls)}, wall_s per pass {[round(w, 4) for w in walls]}")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": setup_s,
    }


def run_traced(workload, inputs, args, tally) -> dict:
    from tracing import Tracer
    from workloads import rng_for

    plain, snapshots, cycles = [], [], []
    deadline = time.perf_counter() + args.seconds
    while another_fits(deadline, cycles):
        plain.append(timed_pass(workload, inputs, tally)[0])
        tracer = Tracer()
        wall, _ = timed_pass(workload, inputs, tally, tracer)
        snapshots.append(layer_snapshot(tracer, wall))
        cycles.append(plain[-1] + wall)
        if tracer.missing:
            print(f"# bindings not found, not traced: {tracer.missing}", file=sys.stderr)
    # median_low keeps counts whole: they repeat exactly from pass to pass.
    values = {
        k: (statistics.median_low if isinstance(v, int) else statistics.median)(
            s[k] for s in snapshots)
        for k, v in snapshots[0].items()
    }
    # Paired: each traced pass runs right after its untraced twin, so both
    # usually see the same phase of the host's load.
    values["trace.overhead_s"] = statistics.median(
        s["trace.wall_s"] - p for s, p in zip(snapshots, plain)
    )
    rng = rng_for(args.seed)
    values["pauli.expm_pauli.ns_per_call"] = probe_expm_pauli(rng)
    values["propagation.propagate.ns_per_step"] = probe_propagate(rng)
    print(f"# passes {len(plain)} untraced + {len(snapshots)} traced")
    return values


def machine_info() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cgmagnus" / "__init__.py").is_file():
        fail_setup(f"no cgmagnus sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    import cgmagnus

    if Path(cgmagnus.__file__).resolve().parent != (SRC / "cgmagnus").resolve():
        fail_setup(f"imported cgmagnus from {cgmagnus.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workload.write_inputs(args.seed, args.size, WORK)
    inputs = workload.load_inputs(args.seed, args.size, WORK)

    tally = Tally()
    if args.trace:
        values = run_traced(workload, inputs, args, tally)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        values = run_untraced(workload, inputs, args, tally)
        units = dict(END_TO_END)
    for error in tally.errors:
        print(f"# check failed: {error}", file=sys.stderr)
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    print("# readouts " + json.dumps(tally.readouts, sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
