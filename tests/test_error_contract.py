"""The CLI's error contract on a fixed sample of the override grid (error_contract_grid.py), and its mended runs.

The sample is drawn once, from a fixed seed, over the grid in its fixed
order; the script next to this file runs the whole grid.
"""

import numpy as np
import pytest
from error_contract_grid import PAST_FLOAT, grid, violation

GRID = grid()
SAMPLE = [GRID[i] for i in sorted(np.random.default_rng(29).choice(len(GRID), 300, replace=False))]


@pytest.mark.parametrize("scenario,key,value", SAMPLE, ids=[f"{s}-{k}={v}" for s, k, v in SAMPLE])
def test_a_sampled_override_keeps_the_contract(scenario, key, value):
    assert violation(scenario, key, value) is None


@pytest.mark.parametrize("scenario,key,value", [
    ("maml_multistep", "optimizer.alpha_g", "1e308"),  # the candidate's step overflows, silenced where it is formed
    ("lr_bilevel", "optimizer.alpha_g", "1e308"),
    ("lr_bilevel", "dynamics.dt", "1e-308"),  # detect_plateaus does not difference a flat curve
    ("class_proportion", "g_hi", "1e-308"),  # export_class_schedule's quotas of tiny weights do not overflow
])
def test_a_run_that_warned_exits_0_without_a_warning(scenario, key, value):
    assert violation(scenario, key, value) is None


@pytest.mark.parametrize("scenario,key", [
    ("single_neuron_effort", "segment"),
    ("task_switch", "switch_period"),
    ("class_proportion", "batch_size"),
    ("maml_multistep", "steps_ahead"),
    ("maml_multistep", "eval_steps"),
    ("lr_bilevel", "levels"),
    ("sgd_validation", "n_seeds"),
    ("sgd_validation", "stride"),
])
def test_an_integer_parameter_past_the_float_range_keeps_the_contract(scenario, key):
    assert violation(scenario, key, PAST_FLOAT) is None
