"""The CLI's error contract over a grid of awkward overrides, and the script that runs the whole grid.

The grid: every scenario, each with every config key (configio.KEYS apart
from output.*, plus seed and run_name) and every parameter of its own,
each set to every value of VALUES, and, in the whole grid, to PAST_FLOAT,
an integer past the float range.  One combination is the run

    learning-control run --preset SCENARIO -p KEY=VALUE -p optimizer.iters=1

made in process through cli.main; the trailing override keeps every run
to one iteration, an optimizer.iters value of the grid included.  The run
keeps the contract when

  - it exits 0, reports a finite V_baseline and V_control and emits no
    RuntimeWarning (a UserWarning, such as export_class_schedule's uniform
    mix for all-zero class weights, is the code's own and allowed), or
  - it exits 2, 3 or 4 with one `error:` line on stderr and no traceback.

tests/test_error_contract.py checks a fixed sample of the grid.  Run the
whole grid, about 3,800 runs, from the repository root with

    PYTHONPATH=src python tests/error_contract_grid.py

which prints each violation and exits 1 if there is any.
"""

import io
import math
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout

from learning_control import cli, configio
from learning_control.experiments import SCENARIOS, preset

VALUES = ("0", "-1", "1.5", "nan", "inf", "-inf", "1e308", "1e-308", "true", "", "abc", "1,2")
PAST_FLOAT = "1" + "0" * 400  # 10**400: an int that float() cannot hold


def grid(values=VALUES):
    """Every (scenario, key, value) of the grid over `values`, in a fixed order."""
    keys = [path for section, _, _, path in configio.KEYS if section != "output"] + list(configio._SCENARIO_FIXED)
    return [(s, k, v) for s in SCENARIOS for k in keys + list(preset(s).params) for v in values]


def violation(scenario, key, value):
    """None when the run of (scenario, key, value) keeps the contract, else what broke it."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["run", "--preset", scenario, "-p", f"{key}={value}", "-p", "optimizer.iters=1"]
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except Exception:  # any escape is a traceback the CLI would print
            return "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    if code == 0:
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if runtime:
            return f"exit 0 with RuntimeWarning: {runtime[0]}"
        reported = dict(line.split(None, 1) for line in out.getvalue().splitlines() if line.startswith("V_"))
        values = [reported.get(name) for name in ("V_baseline", "V_control")]
        if not all(v is not None and math.isfinite(float(v)) for v in values):
            return f"exit 0 with V_baseline {values[0]} and V_control {values[1]}"
        return None
    lines = err.getvalue().splitlines()
    if code not in (2, 3, 4):
        return f"exit {code}"
    if len(lines) != 1 or not lines[0].startswith("error: "):
        return f"exit {code} with stderr {lines!r}"
    return None


def main():
    combos = grid(VALUES + (PAST_FLOAT,))
    bad = 0
    for scenario, key, value in combos:
        why = violation(scenario, key, value)
        if why is not None:
            bad += 1
            print(f"run --preset {scenario} -p '{key}={value}' -p optimizer.iters=1: {why}")
    print(f"{bad} violations in {len(combos)} runs")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
