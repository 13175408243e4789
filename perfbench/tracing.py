"""In-memory spans around cgmagnus's public functions, for the traced run only.

A span is one call of a wrapped function: its name is
``<module>.<function>`` of the cgmagnus module that defines the function.
Wrappers are installed where the *calling* module binds the function (for
example ``cgmagnus.cli.fidelity_series``), so the package itself is never
edited, and they are removed again when the traced pass ends.  The untraced
passes run the package exactly as shipped.

Per span name the tracer keeps a call count, the busy (inclusive) time and
the self time (busy time minus the time of spans nested inside it).  It also
counts propagation steps: generator evaluations made directly by a
propagation routine, plus one exact exponential per static generator handed
to ``propagate_coarse``.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import cgmagnus.cli
import cgmagnus.fidelity
import cgmagnus.magnus
import cgmagnus.propagation

# (module object, attribute the module calls, span name).  These are the
# bindings through which ``cgmagnus simulate`` and the oracles reach each layer.
PATCHES = (
    (cgmagnus.cli, "fidelity_series", "fidelity.fidelity_series"),
    (cgmagnus.cli, "h_interaction", "model.h_interaction"),
    (cgmagnus.cli, "h_rw_interaction", "model.h_rw_interaction"),
    (cgmagnus.cli, "h_eff_order2_analytic", "magnus.h_eff_order2_analytic"),
    (cgmagnus.cli, "h_eff_resonant_interaction", "shifts.h_eff_resonant_interaction"),
    (cgmagnus.fidelity, "propagate_coarse", "propagation.propagate_coarse"),
    (cgmagnus.fidelity, "min_fidelity", "fidelity.min_fidelity"),
    (cgmagnus.magnus, "f1_numeric", "magnus.f1_numeric"),
    (cgmagnus.magnus, "f2_numeric", "magnus.f2_numeric"),
    (cgmagnus.propagation, "h_lab", "model.h_lab"),
)

# Spans whose direct generator calls are integrator steps.
STEPPERS = frozenset(
    {"propagation.propagate", "propagation.propagate_coarse", "propagation.floquet_splitting"}
)


def is_generator(name: str) -> bool:
    """Generator spans: the time-dependent Hamiltonians the integrators sample."""
    return name.startswith("model.") or name == "magnus.h_eff_order2_analytic"


class Tracer:
    """Span recorder for one traced pass; create a fresh one per pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.steps = 0
        self.missing = []
        self._stack = []  # [span name, time covered by nested spans]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        generator = is_generator(name)
        coarse = name == "propagation.propagate_coarse"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if generator and stack and stack[-1][0] in STEPPERS:
                self.steps += 1
            if coarse and args and not callable(args[0]):
                self.steps += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the duration of the block."""
        saved = []
        try:
            for module, attr, name in PATCHES:
                if not hasattr(module, attr):
                    self.missing.append(f"{module.__name__}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def covered_s(self) -> float:
        """Sum of all self times, i.e. the wall time spent inside outermost spans."""
        return sum(self.self_time.values())
