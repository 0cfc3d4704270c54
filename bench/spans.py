"""Outside-in spans around the package's public functions, and the per-layer metrics.

Tracer.install() wraps each function in SPANS once and puts the wrapper in
place of every binding of it: the defining module's attribute, every copy a
`from .x import name` made in another module of the package, and for methods
the class attribute.  Patching only the defining module would miss the copies
(`optimizer` calls its own `grad_value` binding, `experiments` its own
`optimize`), and their spans would read zero calls.

Each span is keyed by its path, the names of the open spans above it, so a
span's parent and its ancestors are known.  Spans are aggregated per path
(calls, busy seconds, seconds covered by child spans) rather than kept one by
one: a single run makes hundreds of thousands of `control.at` calls.
"""

import functools
import importlib
import os
import sys
import time

PACKAGE = "learning_control"

# span name -> (module, attribute path); the name's first part is the layer
SPANS = {
    "dynamics.integrate": ("dynamics", "integrate"),
    "dynamics.backward_step": ("dynamics", "backward_step"),
    "value.grad_value": ("value", "grad_value"),
    "value.evaluate_value": ("value", "evaluate_value"),
    "value.maml_value_and_grad": ("value", "maml_value_and_grad"),
    "optimizer.optimize": ("optimizer", "optimize"),
    "control.at": ("control", "ControlSchedule.at"),
    "control.add_grad": ("control", "ControlSchedule.add_grad"),
    "control.project": ("control", "ControlSchedule.project"),
    "experiments.run": ("experiments", "run"),
    "reporting.write_run_outputs": ("reporting", "write_run_outputs"),
}

# per-layer metric -> unit; every traced run reports all of them
LAYER_UNITS = {
    "dynamics.integrate.calls": "count",
    "dynamics.integrate.busy_s": "s",
    "dynamics.integrate.us_per_step": "us",
    "dynamics.backward_step.calls": "count",
    "dynamics.backward_step.busy_s": "s",
    "dynamics.backward_step.us_per_call": "us",
    "value.grad_value.calls": "count",
    "value.grad_value.busy_s": "s",
    "value.grad_value.self_s": "s",
    "value.evaluate_value.calls": "count",
    "value.evaluate_value.busy_s": "s",
    "value.maml_value_and_grad.calls": "count",
    "value.maml_value_and_grad.busy_s": "s",
    "optimizer.optimize.busy_s": "s",
    "optimizer.optimize.self_s": "s",
    "optimizer.iters": "count",
    "optimizer.trials": "count",
    "optimizer.accept_ratio": "ratio",
    "optimizer.forward_per_iter": "count/iter",
    "optimizer.adjoint_per_iter": "count/iter",
    "control.at.calls": "count",
    "control.at.busy_s": "s",
    "control.add_grad.calls": "count",
    "control.add_grad.busy_s": "s",
    "control.project.calls": "count",
    "experiments.run.self_s": "s",
    "experiments.rollouts.calls": "count",
    "experiments.rollouts.busy_s": "s",
    "reporting.write_run_outputs.busy_s": "s",
    "reporting.bytes_written": "B",
    "reporting.files": "count",
    "trace.overhead_frac": "ratio",
}

# trace.csv holds wall-clock milliseconds, so its length varies between runs
_UNTIMED_BYTES = "bundle_bytes_without_trace_csv"


def _resolve(module_name, attr_path):
    owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.stats = {}  # path tuple -> [calls, busy_s, child_s]
        self.steps = 0  # Euler steps integrated, summed over integrate calls
        self._stack = []
        self._patched = []

    def install(self):
        for name, (module_name, attr_path) in SPANS.items():
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        counts_steps = name == "dynamics.integrate"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            path = (stack[-1][0] if stack else ()) + (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get(path)
                if rec is None:
                    rec = stats[path] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                if counts_steps:
                    self.steps += args[0].n_steps

        return span

    def _sum(self, field, name, parent=None, under=None):
        return sum(
            rec[field]
            for path, rec in self.stats.items()
            if path[-1] == name
            and (parent is None or path[-2:-1] == (parent,))
            and (under is None or under in path[:-1])
        )

    def calls(self, name, **where):
        return self._sum(0, name, **where)

    def busy(self, name, **where):
        return self._sum(1, name, **where)

    def self_time(self, name):
        return self._sum(1, name) - self._sum(2, name)


def line_search_trials(trace, ospec):
    """Forward trials the backtracking line search made, read off the optimizer trace.

    An accepted step of size alpha_g / 2**h took h + 1 trials; a stalled
    iteration took max_halvings + 1.
    """
    trials = 0
    for alpha in trace.alpha_used[1:]:
        halvings = 0
        while alpha < ospec.alpha_g:
            alpha *= 2.0
            halvings += 1
        trials += halvings + 1
    if trace.stalled_at is not None:
        trials += ospec.max_halvings + 1
    return trials


def bundle_sizes(out_dir):
    """{file name: size in bytes} for the output bundle (empty without one)."""
    if out_dir is None:
        return {}
    return {entry.name: entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file()}


def layer_metrics(tracer, result, ospec):
    """Per-layer metrics of one traced run(); trace.overhead_frac is filled in by the caller."""
    t = tracer
    iters = len(result.trace.V) - 1
    trials = line_search_trials(result.trace, ospec)
    sizes = bundle_sizes(result.out_dir)
    integrate_s = t.busy("dynamics.integrate")
    backward_calls = t.calls("dynamics.backward_step")
    run_children = ("dynamics.integrate", "value.evaluate_value")
    return {
        "dynamics.integrate.calls": t.calls("dynamics.integrate"),
        "dynamics.integrate.busy_s": integrate_s,
        "dynamics.integrate.us_per_step": 1e6 * integrate_s / t.steps if t.steps else 0.0,
        "dynamics.backward_step.calls": backward_calls,
        "dynamics.backward_step.busy_s": t.busy("dynamics.backward_step"),
        "dynamics.backward_step.us_per_call": (
            1e6 * t.busy("dynamics.backward_step") / backward_calls if backward_calls else 0.0
        ),
        "value.grad_value.calls": t.calls("value.grad_value"),
        "value.grad_value.busy_s": t.busy("value.grad_value"),
        "value.grad_value.self_s": t.self_time("value.grad_value"),
        "value.evaluate_value.calls": t.calls("value.evaluate_value"),
        "value.evaluate_value.busy_s": t.busy("value.evaluate_value"),
        "value.maml_value_and_grad.calls": t.calls("value.maml_value_and_grad"),
        "value.maml_value_and_grad.busy_s": t.busy("value.maml_value_and_grad"),
        "optimizer.optimize.busy_s": t.busy("optimizer.optimize"),
        "optimizer.optimize.self_s": t.self_time("optimizer.optimize"),
        "optimizer.iters": iters,
        "optimizer.trials": trials,
        "optimizer.accept_ratio": iters / trials if trials else 0.0,
        "optimizer.forward_per_iter": (
            t.calls("dynamics.integrate", under="optimizer.optimize") / iters if iters else 0.0
        ),
        "optimizer.adjoint_per_iter": (
            t.calls("value.grad_value", under="optimizer.optimize") / iters if iters else 0.0
        ),
        "control.at.calls": t.calls("control.at"),
        "control.at.busy_s": t.busy("control.at"),
        "control.add_grad.calls": t.calls("control.add_grad"),
        "control.add_grad.busy_s": t.busy("control.add_grad"),
        "control.project.calls": t.calls("control.project"),
        "experiments.run.self_s": t.self_time("experiments.run"),
        "experiments.rollouts.calls": sum(t.calls(n, parent="experiments.run") for n in run_children),
        "experiments.rollouts.busy_s": sum(t.busy(n, parent="experiments.run") for n in run_children),
        "reporting.write_run_outputs.busy_s": t.busy("reporting.write_run_outputs"),
        "reporting.bytes_written": sum(sizes.values()),
        "reporting.files": len(sizes),
        _UNTIMED_BYTES: sum(size for name, size in sizes.items() if name != "trace.csv"),
    }


def is_count(metric):
    """Metrics that must repeat exactly between traced runs of the same code."""
    return metric.endswith(".calls") or metric in (
        "optimizer.iters",
        "optimizer.trials",
        "reporting.files",
        _UNTIMED_BYTES,
    )
