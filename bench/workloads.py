"""The benchmark's workloads and the correctness checks on their results.

Each workload is a preset scenario run through `experiments.run()`, resized
only through `optimizer.iters`; the benchmark's --seed becomes the preset
seed, which draws the initial weights.  Why each workload was chosen is in
README.md next to this file.
"""

import json
import math
import os
from dataclasses import replace

from learning_control import experiments

# name -> (preset, optimizer.iters or None to keep the preset's, writes the output bundle)
WORKLOADS = {
    "switch_gain": ("task_switch", 2, True),
    "neuron_effort": ("single_neuron_effort", None, False),
    "maml_tasks": ("maml_multistep", 120, False),
}

REL_TOL = 1e-9
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def build_config(name, seed, out_dir):
    """RunConfig for workload `name`; `out_dir` receives the bundle when the workload writes one."""
    scenario, iters, writes = WORKLOADS[name]
    cfg = experiments.preset(scenario, seed=seed, out_dir=out_dir if writes else None)
    if iters is not None:
        cfg = replace(cfg, optimizer=replace(cfg.optimizer, iters=iters))
    return cfg


def load_references():
    """{workload: {seed (str): [V_baseline, V_control]}} recorded from the seed code."""
    with open(REFERENCES) as fh:
        return json.load(fh)


def check_result(name, seed, result, references):
    """Problems found in one run's result; an empty list means it is correct.

    Every seed gets the invariants (finite values, a non-decreasing value
    trace, V_control >= V_baseline); seeds with a recorded reference must also
    match it to REL_TOL relative.  A workload that writes its bundle must have
    written a result.json that parses back to the in-memory V_control.
    """
    problems = []
    vb, vc = result.V_baseline, result.V_control
    trace = list(result.trace.V)
    if not all(math.isfinite(v) for v in [vb, vc, *trace]):
        problems.append("non-finite value")
    if any(b < a for a, b in zip(trace, trace[1:])):
        problems.append("value trace decreases")
    if not vc >= vb:
        problems.append(f"V_control {vc!r} < V_baseline {vb!r}")
    ref = references.get(name, {}).get(str(seed))
    if ref is not None:
        for label, got, want in (("V_baseline", vb, ref[0]), ("V_control", vc, ref[1])):
            if not abs(got - want) <= REL_TOL * abs(want):
                problems.append(f"{label} {got!r} differs from reference {want!r}")
    if WORKLOADS[name][2]:
        if result.out_dir is None:
            problems.append("no output bundle written")
        else:
            with open(os.path.join(result.out_dir, "result.json")) as fh:
                written = json.load(fh)["V_control"]
            if written != vc:
                problems.append(f"result.json V_control {written!r} != in-memory {vc!r}")
    return problems
