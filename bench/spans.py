"""Per-layer tracing from outside the package.

`traced(tracer)` replaces every public function of the layer modules with a
timing wrapper, at every `mairl` module attribute that refers to it, so a
call is seen wherever the caller looks the function up (for example
`mairl.experiment.sample_round` inside `run_experiment`, or
`mairl.reward_select.solve_lp` inside `max_gap_reward`). The originals are
restored on exit. Nothing in `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "gridworld",
    "equilibrium",
    "estimation",
    "reward_select",
    "simplex",
    "feasible",
    "experiment",
)

# counters read from a layer's return value: span name -> {counter: getter}
RESULT_COUNTERS = {
    "simplex.solve_lp": {"pivots": lambda r: r.iterations},
    "reward_select.max_gap_reward": {
        "lp_pivots": lambda r: r.lp_iterations,
        "projection_sweeps": lambda r: r.projection_sweeps,
    },
    "equilibrium.nash_value_iteration": {"backups": lambda r: r.iterations},
}

ROOT_SPAN = "op"
# layer calls made directly by an op, or by the pipeline entry point it calls
TOP_PARENTS = (ROOT_SPAN, "experiment.run_experiment")


class Tracer:
    """Busy time, self time, calls and result counters per span name.

    A span's self time is its duration minus the time of the spans it
    directly encloses. `top_s` sums the spans whose parent is in
    TOP_PARENTS, i.e. the layer calls an op makes; with the self time of
    `experiment.run_experiment` it should account for the op's duration.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.top_s = 0.0
        self._stack = []  # [name, child seconds]

    def reset(self):
        self.stats.clear()
        self.top_s = 0.0

    @contextmanager
    def span(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            st = self.stats[name]
            st["s"] += duration
            st["self_s"] += duration - frame[1]
            st["calls"] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[1] += duration
                if parent[0] in TOP_PARENTS and name not in TOP_PARENTS:
                    self.top_s += duration

    def wrap(self, name, fn):
        counters = RESULT_COUNTERS.get(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            for counter, get in counters.items():
                self.stats[name][counter] += get(out)
            return out

        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every public layer function through `tracer` for the block."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mairl.{layer}")
        for attr, fn in vars(module).items():
            public = not attr.startswith("_") and inspect.isfunction(fn)
            if public and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "mairl" and not modname.startswith("mairl."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
