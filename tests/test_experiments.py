"""Scenario plumbing: derived analyses, presets, overrides, sweeps, runs.

The analysis helpers get hand-built curves with known answers.  Run and
sweep tests use shrunk configurations so this file stays quick; the full
scenario claims live in test_acceptance.py.
"""

import concurrent.futures
import math
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from learning_control import dynamics, experiments, optimizer, value
from learning_control.control import ControlSchedule, init_weights_control
from learning_control.dynamics import DynamicsSpec, initial_state
from learning_control.configio import parse_config, serialize_config
from learning_control.errors import ConfigError, DivergenceError
from learning_control.experiments import (
    SCENARIOS,
    RunResult,
    build,
    detect_plateaus,
    difficulty_order,
    export_class_schedule,
    override_param,
    post_switch_peaks,
    preset,
    run,
    set_fields,
    sweep,
    task_switch_schedule,
    time_to_fraction,
    total_control_effort,
)
from learning_control.tasks import TaskMoments, linear_regression_floor


def scalar_task(c):
    """Unit-variance scalar regression; the floor shrinks as |c| grows."""
    return TaskMoments(
        sigma_x=np.array([[1.0]]),
        sigma_xy=np.array([[c]]),
        sigma_y=np.array([[1.0]]),
        mean_x=np.zeros(1),
        mean_y=np.zeros(1),
    )


def _per_row_largest_remainder(phi, batch_size):
    """export_class_schedule row by row: (counts, whether some row fell back to the uniform mix)."""
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    n, c = phi.shape
    counts = np.empty((n, c), dtype=int)
    warned = False
    for i in range(n):
        row = phi[i]
        total = row.sum()
        if total == 0.0:
            warned = True
            row = np.ones(c)
            total = float(c)
        quota = row * (batch_size / total)
        base = np.floor(quota).astype(int)
        short = batch_size - int(base.sum())
        frac = quota - base
        order = np.lexsort((np.arange(c), -frac))
        base[order[:short]] += 1
        counts[i] = base
    return counts, warned


def _start_stop_scan(times, losses, slope_frac=0.01, min_frac=0.05, smooth_frac=0.01):
    """detect_plateaus with its flat intervals found by scanning the mask for starts and stops."""
    times = np.asarray(times, dtype=float)
    losses = np.asarray(losses, dtype=float)
    n = losses.size
    w = max(1, int(round(n * smooth_frac)))
    if w > 1:
        pad = np.pad(losses, (w // 2, w - 1 - w // 2), mode="edge")
        smooth = np.convolve(pad, np.ones(w) / w, mode="valid")
    else:
        smooth = losses
    slope = np.gradient(smooth, times)
    peak = float(np.max(np.abs(slope)))
    swing = float(np.max(smooth) - np.min(smooth))
    if peak == 0.0 or swing <= 1e-12 * max(1.0, float(np.max(np.abs(smooth)))):
        return [(float(times[0]), float(times[-1]))]
    flat = np.abs(slope) < slope_frac * peak
    min_len = min_frac * (times[-1] - times[0])
    out = []
    start = None
    for i, ok in enumerate(flat):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if times[i - 1] - times[start] >= min_len:
                out.append((float(times[start]), float(times[i - 1])))
            start = None
    if start is not None and times[-1] - times[start] >= min_len:
        out.append((float(times[start]), float(times[-1])))
    return out


class TestTaskSwitchSchedule:
    def test_switch_steps_follow_the_period(self):
        a, b = scalar_task(0.5), scalar_task(0.2)
        ts = task_switch_schedule([a, b], 5, 20)
        assert ts.switch_steps == [5, 10, 15]
        assert ts.task_at(0) is a
        assert ts.task_at(5) is b
        assert ts.task_at(10) is a

    def test_period_equal_to_horizon_means_no_switches(self):
        ts = task_switch_schedule([scalar_task(0.5), scalar_task(0.2)], 20, 20)
        assert ts.switch_steps == []

    def test_rejects_period_beyond_horizon(self):
        with pytest.raises(ValueError, match="exceeds"):
            task_switch_schedule([scalar_task(0.5)], 30, 20)

    def test_rejects_ragged_period(self):
        """A period that leaves a partial cycle at the end is refused."""
        with pytest.raises(ValueError, match="does not divide"):
            task_switch_schedule([scalar_task(0.5)], 7, 20)

    @pytest.mark.parametrize("period, n_steps, message", [
        (2.5, 10, "period_steps must be a whole number, got 2.5"),
        (True, 10, "period_steps must be a whole number, got True"),
        (5, 10.5, "n_steps must be a whole number, got 10.5"),
    ])
    def test_rejects_a_fractional_or_bool_count(self, period, n_steps, message):
        with pytest.raises(ValueError, match=message):
            task_switch_schedule([scalar_task(0.5)], period, n_steps)

    def test_whole_counts_of_another_type_are_accepted(self):
        ts = task_switch_schedule([scalar_task(0.5), scalar_task(0.2)], 5.0, np.int64(20))
        assert (ts.period_steps, ts.n_steps, ts.switch_steps) == (5, 20, [5, 10, 15])


class TestPostSwitchPeaks:
    def test_windows_span_switch_to_switch(self):
        losses = np.arange(11.0)
        assert post_switch_peaks(losses, [2, 5, 8]) == [4.0, 7.0, 10.0]

    def test_explicit_horizon_trims_the_last_window(self):
        """With n_steps given, the final window stops at the horizon sample."""
        losses = np.arange(11.0)
        assert post_switch_peaks(losses, [2, 5, 8], n_steps=9) == [4.0, 7.0, 9.0]

    def test_peak_can_sit_on_the_switch_step_itself(self):
        assert post_switch_peaks(np.array([1.0, 5.0, 2.0, 0.5]), [1]) == [5.0]


class TestExportClassSchedule:
    def test_exact_split_needs_no_rounding(self):
        counts = export_class_schedule(np.array([[0.5, 0.3, 0.2]]), 10)
        assert counts.tolist() == [[5, 3, 2]]

    def test_remainders_go_to_largest_fractions(self):
        counts = export_class_schedule(np.array([[0.25, 0.25, 0.5]]), 9)
        assert counts.tolist() == [[2, 2, 5]]

    def test_remainder_ties_break_toward_lower_class_index(self):
        counts = export_class_schedule(np.array([[1.0, 1.0, 1.0]]), 10)
        assert counts.tolist() == [[4, 3, 3]]

    def test_every_row_sums_to_the_batch_size(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(0.0, 5.0, size=(7, 4))
        counts = export_class_schedule(phi, 17)
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts.sum(axis=1).tolist() == [17] * 7

    def test_one_dimensional_input_is_a_single_step(self):
        counts = export_class_schedule([0.5, 0.3, 0.2], 10)
        assert counts.shape == (1, 3)

    def test_weights_too_small_for_their_reciprocal_give_their_mix(self):
        # batch_size / total overflowed for a row summing to 4e-308; the mix of a row does not depend on its scale
        phi = np.array([[1.0, 3.0], [1e-308, 3e-308], [0.5e-310, 1.5e-310]])
        assert export_class_schedule(phi, 4).tolist() == [[1, 3]] * 3

    def test_zero_rows_fall_back_to_uniform_with_one_warning(self):
        phi = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])
        with pytest.warns(UserWarning, match="uniform") as rec:
            counts = export_class_schedule(phi, 4)
        assert len(rec) == 1
        assert counts.tolist() == [[2, 2], [2, 2], [3, 1]]

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            export_class_schedule(np.array([[0.5, -0.1]]), 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="class engagement weights must be finite"):
            export_class_schedule(np.array([[0.5, 0.2], [bad, 0.1]]), 8)

    @pytest.mark.parametrize("batch_size, message", [
        (-1, "must be positive"), (0, "must be positive"),
        (2.5, "must be a whole number"), (np.nan, "must be a whole number"), (np.inf, "must be a whole number"),
    ], ids=["-1", "0", "2.5", "nan", "inf"])
    def test_rejects_a_batch_size_that_is_not_a_whole_number_of_at_least_one(self, batch_size, message):
        with pytest.raises(ValueError, match=f"batch_size {message}, got {batch_size}"):
            export_class_schedule(np.array([[0.5, 0.3, 0.2]]), batch_size)

    @pytest.mark.parametrize("batch_size", [True, np.True_])
    def test_rejects_a_bool_batch_size(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be a whole number, got {batch_size}"):
            export_class_schedule(np.array([[0.5, 0.3, 0.2]]), batch_size)

    def test_matches_the_per_row_largest_remainder_loop(self):
        # random weights (in C and Fortran order), small integer weights (ties and all-zero rows), sparse rows
        # with -0.0, and 1-D input
        rng = np.random.default_rng(26)
        fallbacks = 0
        for trial in range(1200):
            n, c = int(rng.integers(1, 7)), int(rng.integers(1, 40))
            kind = trial % 4
            if kind == 0:
                phi = rng.uniform(0.0, 5.0, size=(n, c))
                phi = np.asfortranarray(phi) if trial % 8 else phi
            elif kind == 1:
                phi = rng.integers(0, 3, size=(n, c)).astype(float)
            elif kind == 2:
                phi = np.where(rng.random((n, c)) < 0.6, rng.choice([0.0, -0.0], size=(n, c)), rng.random((n, c)))
            else:
                phi = rng.integers(0, 4, size=c) * rng.uniform(0.5, 1.5)
            batch_size = int(rng.integers(1, 300))
            want, warned = _per_row_largest_remainder(phi, batch_size)
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                counts = export_class_schedule(phi, batch_size)
            assert counts.dtype == want.dtype and np.array_equal(counts, want)
            assert len(rec) == warned
            fallbacks += warned
        assert fallbacks > 20

    def test_accepts_a_category_schedule_directly(self):
        sched = ControlSchedule.neutral("category_series", 4, segment=2, n_channels=3)
        sched = sched.with_values((np.array([[0.5, 0.3, 0.2], [1.0, 1.0, 1.0]]),))
        counts = export_class_schedule(sched, 10)
        assert counts.tolist() == [[5, 3, 2], [5, 3, 2], [4, 3, 3], [4, 3, 3]]


class TestDifficultyOrder:
    def test_orders_easiest_first_by_regression_floor(self):
        tasks = [scalar_task(0.5), scalar_task(0.9), scalar_task(0.0)]
        order, floors = difficulty_order(tasks)
        assert order == [1, 0, 2]
        np.testing.assert_allclose(floors, [linear_regression_floor(t) for t in tasks])

    def test_reversing_the_input_reverses_the_indices(self):
        tasks = [scalar_task(0.0), scalar_task(0.9), scalar_task(0.5)]
        order, _ = difficulty_order(tasks)
        assert order == [1, 2, 0]

    def test_ties_keep_input_order(self):
        order, _ = difficulty_order([scalar_task(0.4), scalar_task(0.4)])
        assert order == [0, 1]


class TestDetectPlateaus:
    def test_finds_the_flat_stretches_of_a_staircase(self):
        times = np.linspace(0.0, 10.0, 1001)
        losses = np.interp(times, [0, 2, 3, 7, 8, 10], [2, 2, 1, 1, 0, 0])
        plats = detect_plateaus(times, losses)
        assert len(plats) == 3
        for (a, b), (ea, eb) in zip(plats, [(0.0, 2.0), (3.0, 7.0), (8.0, 10.0)]):
            assert abs(a - ea) < 0.15
            assert abs(b - eb) < 0.15

    def test_constant_curve_is_one_plateau_spanning_everything(self):
        times = np.linspace(0.0, 10.0, 101)
        assert detect_plateaus(times, np.ones(101)) == [(0.0, 10.0)]

    def test_a_flat_curve_on_a_grid_too_fine_to_difference_is_one_plateau(self):
        # the spacing's square underflows, so np.gradient would divide by zero
        times = np.arange(101) * 1e-308
        assert detect_plateaus(times, np.full(101, 0.3)) == [(0.0, float(times[-1]))]

    def test_steady_descent_has_none(self):
        times = np.linspace(0.0, 1.0, 201)
        assert detect_plateaus(times, np.exp(-times)) == []

    def test_matches_the_start_stop_scan(self):
        # curves flat where a seeded mask of runs says, descending elsewhere, on uneven time grids
        rng = np.random.default_rng(26)
        found = 0
        for _ in range(300):
            k = int(rng.integers(1, 12))
            mask = np.repeat(rng.random(k) < 0.5, rng.integers(2, 30, size=k))
            times = np.cumsum(rng.uniform(0.5, 1.5, size=mask.size))
            losses = np.cumsum(np.where(mask, 0.0, -rng.uniform(0.5, 2.0, size=mask.size)))
            for min_frac in (0.0, 0.05, 0.2):
                for smooth_frac in (0.0, 0.05):
                    got = detect_plateaus(times, losses, min_frac=min_frac, smooth_frac=smooth_frac)
                    assert got == _start_stop_scan(times, losses, min_frac=min_frac, smooth_frac=smooth_frac)
                    found += len(got)
        assert found > 1000


class TestTimeToFraction:
    def test_first_crossing_on_an_exponential(self):
        times = np.linspace(0.0, 2.0, 201)
        t = time_to_fraction(times, np.exp(-times), 0.5)
        assert t == pytest.approx(0.70)

    def test_inf_when_the_target_is_never_reached(self):
        assert math.isinf(time_to_fraction([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 0.5))

    def test_fraction_one_hits_at_the_first_sample(self):
        assert time_to_fraction([2.0, 3.0, 4.0], [5.0, 4.0, 3.0], 1.0) == 2.0


class TestTotalControlEffort:
    def test_absent_and_init_weight_controls_cost_nothing(self):
        d = DynamicsSpec(kind="two_layer_baseline", input_dim=2, output_dim=2,
                         hidden_dim=3, dt=0.1, n_steps=4, init_std=0.1)
        assert total_control_effort(None, d) == 0.0
        sched = init_weights_control(initial_state(d))
        assert total_control_effort(sched, d) == 0.0

    def test_piecewise_constant_scalar_integral(self):
        d = DynamicsSpec(kind="single_neuron", input_dim=1, output_dim=1, dt=0.1, n_steps=10)
        sched = ControlSchedule.neutral("scalar_series", 10, segment=4)
        sched = sched.with_values((np.array([1.0, 2.0, 0.5]),))
        # runs of 4, 4, 2 steps at dt 0.1
        assert total_control_effort(sched, d) == pytest.approx(0.4 + 0.8 + 0.1)

    def test_matrix_pair_norm_pools_both_layers(self):
        d = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=1, hidden_dim=2,
                         dt=0.5, n_steps=3)
        sched = ControlSchedule.neutral("matrix_pair_series", 3, segment=3,
                                        shapes=((2, 2), (1, 2)))
        sched = sched.with_values((np.ones((1, 2, 2)), np.full((1, 1, 2), 2.0)))
        assert total_control_effort(sched, d) == pytest.approx(1.5 * math.sqrt(12.0))

    def test_final_partial_segment_is_weighted_by_its_true_length(self):
        d = DynamicsSpec(kind="single_neuron", input_dim=1, output_dim=1, dt=0.1, n_steps=5)
        sched = ControlSchedule.neutral("scalar_series", 5, segment=4)
        sched = sched.with_values((np.array([1.0, 2.0]),))
        assert total_control_effort(sched, d) == pytest.approx(0.4 + 0.2)


class TestRunConfig:
    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            replace(preset("single_neuron_effort"), scenario="nope")

    def test_unknown_parameter_is_rejected(self):
        with pytest.raises(ConfigError, match="does not take parameter"):
            preset("single_neuron_effort", bogus=1)

    def test_registered_defaults_fill_missing_params(self):
        cfg = preset("single_neuron_effort")
        assert cfg.params == {"mu": 1.0, "sigma": 1.0, "segment": 30, "g_lo": 0.0, "g_hi": 0.5}

    def test_overrides_merge_with_defaults(self):
        cfg = preset("single_neuron_effort", sigma=2.5)
        assert cfg.params["sigma"] == 2.5
        assert cfg.params["mu"] == 1.0


class TestTypedValues:
    """A value set from Python is typed as a config file types its text, and refused by its dotted name."""

    @pytest.mark.parametrize("changes, message", [
        ({"force": "no"}, "expected bool for force, got 'no'"),
        ({"force": 1}, "expected bool for force, got 1"),
        ({"dynamics.n_steps": 100.5}, "expected int for dynamics.n_steps, got 100.5"),
        ({"optimizer.iters": 2.5}, "expected int for optimizer.iters, got 2.5"),
        ({"dynamics.hidden_dim": 2.0}, "expected int for dynamics.hidden_dim, got 2.0"),
        ({"optimizer.max_halvings": 1.5}, "expected int for optimizer.max_halvings, got 1.5"),
        ({"value.gamma": "0.9"}, "expected float for value.gamma, got '0.9'"),
        ({"value.cost.beta": True}, "expected float for value.cost.beta, got True"),
        ({"seed": 1.7}, "expected int for seed, got 1.7"),
        ({"run_name": 3}, "expected str for run_name, got 3"),
        ({"out_dir": 3}, "expected str for out_dir, got 3"),
    ])
    def test_a_field_of_the_wrong_type_is_refused(self, changes, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            set_fields(preset("single_neuron_effort"), changes)

    @pytest.mark.parametrize("make, message", [
        (lambda: preset("single_neuron_effort", segment=2.5), "expected int for segment, got 2.5"),
        (lambda: preset("single_neuron_effort", seed=1.7), "expected int for seed, got 1.7"),
        (lambda: override_param(preset("task_switch"), "switch_period", 250.7),
         "expected int for switch_period, got 250.7"),
        (lambda: preset("task_switch", task_a="3, 1, 1, 1, 0.8"), "expected a list for task_a"),
        (lambda: preset("maml_multistep", tasks=(2.0, 0.8)), "expected a list for tasks, got 2.0"),
        (lambda: preset("single_neuron_effort", mu=None), "expected float for mu, got None"),
    ], ids=["int_param", "seed", "override_param", "string_for_list", "flat_for_nested", "none"])
    def test_a_scenario_value_of_the_wrong_type_is_refused(self, make, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            make()

    def test_numbers_are_stored_as_the_declared_type(self):
        cfg = set_fields(preset("single_neuron_effort", mu=2, seed=np.int64(3)),
                         {"value.gamma": 1, "dynamics.n_steps": np.int64(300)})
        assert type(cfg.value.gamma) is float and type(cfg.dynamics.n_steps) is int and type(cfg.seed) is int
        assert cfg.params["mu"] == 2.0 and type(cfg.params["mu"]) is float

    @pytest.mark.parametrize("name, key, value, want", [
        ("nonlinear_approx", "task", [2, 1.0, 1.0, 1.0, 0.85], (2.0, 1.0, 1.0, 1.0, 0.85)),
        ("maml_multistep", "tasks", np.array([[2, 1], [1, 1]]), ((2.0, 1.0), (1.0, 1.0))),
    ])
    def test_a_list_parameter_is_stored_as_a_tuple_of_floats(self, name, key, value, want):
        cfg = preset(name, **{key: value})
        assert repr(cfg.params[key]) == repr(want)
        assert parse_config(serialize_config(cfg)) == cfg


class TestPresets:
    def test_every_scenario_has_one(self):
        for name in SCENARIOS:
            cfg = preset(name)
            assert cfg.scenario == name
            assert cfg.run_name == name
            assert isinstance(cfg.dynamics, DynamicsSpec)

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            preset("frobnicate")

    def test_run_name_and_seed_pass_through(self):
        cfg = preset("task_switch", seed=7, run_name="sw1")
        assert cfg.run_name == "sw1"
        assert cfg.seed == 7

    def test_scenario_order_is_fixed(self):
        # `presets list` prints this order
        assert SCENARIOS == (
            "single_neuron_effort",
            "effort_allocation",
            "task_switch",
            "task_engagement",
            "category_engagement",
            "class_proportion",
            "maml_multistep",
            "lr_bilevel",
            "nonlinear_approx",
            "sgd_validation",
        )


class TestBuild:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_schedule_is_neutral_bit_for_bit(self, name):
        dspec, task, sched = build(preset(name, seed=3))
        assert dspec.init_seed == 3
        for t in task if dynamics.is_task_set(task) else [task]:
            got = dynamics.integrate(dspec, sched, t)
            want = dynamics.integrate(dspec, None, t)
            assert np.array_equal(got.losses, want.losses)
            for sg, sw in zip(got.states, want.states):
                assert all(np.array_equal(a, b) for a, b in zip(sg, sw))

    def test_maml_schedule_holds_the_seeded_initial_weights(self):
        dspec, task, sched = build(preset("maml_multistep", seed=3))
        assert isinstance(task, dynamics.TaskSet)  # its moments stacked once for the whole run
        assert sched.kind == "init_weights"
        assert all(np.array_equal(v, w) for v, w in zip(sched.values, initial_state(dspec)))

    @pytest.mark.parametrize("name, kind, control", [
        ("task_switch", "lr_mod", "matrix_pair_series"),
        ("lr_bilevel", "gain_mod", "scalar_series"),
        ("category_engagement", "gain_mod", "category_series"),
        ("task_engagement", "nonlinear_taylor", "engagement_series"),
        ("nonlinear_approx", "single_layer", "matrix_pair_series"),
    ])
    def test_a_kind_that_cannot_read_the_control_is_a_config_error(self, name, kind, control):
        cfg = override_param(preset(name), "dynamics.kind", kind)
        with pytest.raises(ConfigError, match=f"dynamics kind '{kind}' cannot read the scenario's {control} control"):
            build(cfg)


class TestMalformedParameters:
    """A parameter the task function cannot use is a ConfigError that names it."""

    @pytest.mark.parametrize("name, key, value", [
        ("single_neuron_effort", "mu", math.nan),
        ("sgd_validation", "sigma", math.inf),
        ("category_engagement", "class_sigma", -math.inf),
        ("category_engagement", "class_means", ((3.0, 0.0), (0.0, math.nan))),
        ("task_switch", "task_a", (1.0, 1.0, 1.0, math.nan, 0.8)),
        ("maml_multistep", "tasks", ((2.0, math.inf),)),
    ])
    def test_a_non_finite_parameter_is_refused_by_name(self, name, key, value):
        with pytest.raises(ConfigError, match=f"invalid configuration: {key} must be finite, got "):
            build(preset(name, **{key: value}))

    @pytest.mark.parametrize("bounds", [(-math.inf, 0.5), (0.0, math.inf)])
    def test_the_bounds_may_be_infinite(self, bounds):
        g_lo, g_hi = bounds
        assert build(preset("single_neuron_effort", g_lo=g_lo, g_hi=g_hi))[2].bounds == bounds

    @pytest.mark.parametrize("name, key, value, message", [
        ("maml_multistep", "tasks", (), "tasks must be one or more (mu, sigma) pairs, got ()"),
        ("maml_multistep", "tasks", ((2.0, 0.8, 1.0), (1.0, 1.0)), "tasks must be one or more (mu, sigma) pairs"),
        ("maml_multistep", "tasks", ((2.0,), (1.0, 1.0)), "tasks must be one or more (mu, sigma) pairs"),
        ("category_engagement", "class_means", (), "class_means must be one or more means of one length, got ()"),
        ("class_proportion", "class_means", ((3.0, 0.0), (1.0,), (2.0, 2.0)),
         "class_means must be one or more means of one length"),
    ])
    def test_a_malformed_task_parameter_is_refused_by_name(self, name, key, value, message):
        with pytest.raises(ConfigError, match=re.escape(f"invalid configuration: {message}")):
            build(preset(name, **{key: value}))


class TestOverrideParam:
    def test_dotted_path_replaces_a_nested_field(self):
        cfg = preset("single_neuron_effort")
        out = override_param(cfg, "value.gamma", 0.5)
        assert out.value.gamma == 0.5
        assert cfg.value.gamma == 0.99

    def test_reaches_two_levels_down(self):
        out = override_param(preset("single_neuron_effort"), "value.cost.beta", 0.12)
        assert out.value.cost.beta == 0.12

    def test_bare_name_lands_in_scenario_params(self):
        out = override_param(preset("single_neuron_effort"), "sigma", 2.0)
        assert out.params["sigma"] == 2.0

    def test_unknown_dataclass_field_is_rejected(self):
        with pytest.raises(ConfigError, match="has no field"):
            override_param(preset("single_neuron_effort"), "value.nope", 1)

    def test_unknown_key_under_params_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown parameter"):
            override_param(preset("single_neuron_effort"), "params.bogus", 1)

    def test_bare_unknown_name_is_rejected(self):
        """A bare name outside both RunConfig and the scenario params fails."""
        with pytest.raises(ConfigError, match="does not take parameter"):
            override_param(preset("single_neuron_effort"), "bogus", 1)

    def test_set_fields_replaces_each_spec_once(self):
        """A kind and the dims it needs are checked together, not one field at a time."""
        cfg = preset("task_switch")
        out = set_fields(cfg, {"dynamics.kind": "single_neuron", "dynamics.input_dim": 1,
                               "dynamics.output_dim": 1, "value.cost.beta": 0.5, "force": True})
        assert (out.dynamics.kind, out.dynamics.input_dim, out.dynamics.output_dim) == ("single_neuron", 1, 1)
        assert out.value.cost.beta == 0.5 and out.force is True
        assert cfg.dynamics.kind == "gain_mod"
        with pytest.raises(ConfigError, match="invalid configuration: single_neuron dynamics are one-dimensional"):
            override_param(cfg, "dynamics.kind", "single_neuron")

    @pytest.mark.parametrize("change", [
        lambda cfg: override_param(cfg, "dynamics.init_seed", 3),
        lambda cfg: set_fields(cfg, {"dynamics.init_seed": 3, "value.gamma": 0.5}),
        lambda cfg: sweep(cfg, "dynamics.init_seed", [1, 2], parallelism=1),
    ], ids=["override_param", "set_fields", "sweep"])
    def test_the_init_seed_is_rejected_because_build_sets_it_from_seed(self, change):
        """build() overwrites dynamics.init_seed with cfg.seed, so setting it would do nothing."""
        cfg = preset("maml_multistep")
        with pytest.raises(ConfigError, match="dynamics.init_seed.*set it through 'seed'"):
            change(cfg)

    def test_run_suffix_extends_run_name(self):
        out = override_param(preset("single_neuron_effort"), "value.gamma", 0.5,
                             run_suffix="gamma=0.5")
        assert out.run_name == os.path.join("single_neuron_effort", "gamma=0.5")

    def test_path_separators_in_the_suffix_are_flattened(self):
        out = override_param(preset("single_neuron_effort"), "value.gamma", 0.5,
                             run_suffix=f"a{os.sep}b")
        assert out.run_name.endswith("a_b")


def tiny_neuron_config():
    """Single-neuron preset cut down to a fraction of a second per run."""
    cfg = preset("single_neuron_effort")
    cfg = override_param(cfg, "dynamics.n_steps", 150)
    return override_param(cfg, "optimizer.iters", 3)


class TestRunPipeline:
    def test_result_is_internally_consistent(self):
        res = run(tiny_neuron_config())
        assert isinstance(res, RunResult)
        assert res.V_baseline == res.trace.V[0]
        assert res.V_control == res.trace.V[-1]
        assert all(b >= a for a, b in zip(res.trace.V, res.trace.V[1:]))
        assert res.trajectories["baseline"].losses.size == 151
        assert res.trajectories["controlled"].losses.size == 151
        assert res.out_dir is None

    def test_scenario_summaries_are_attached(self):
        res = run(tiny_neuron_config())
        keys = {"V_gain", "total_effort", "effort_integral",
                "gain_mean_first_quarter", "loss_integral_baseline"}
        assert keys <= set(res.summaries)

    def test_errors_carry_the_scenario_name(self):
        cfg = override_param(tiny_neuron_config(), "dynamics.dt", 5.0)
        with pytest.raises(DivergenceError, match="scenario 'single_neuron_effort'"):
            run(cfg)

    def test_multi_task_scenario_rolls_out_each_task(self):
        cfg = override_param(preset("maml_multistep"), "optimizer.iters", 5)
        res = run(cfg)
        assert set(res.trajectories) == {f"{side}:{k}" for side in ("baseline", "controlled")
                                         for k in range(3)}
        assert res.schedule.kind == "init_weights"
        assert math.isfinite(res.summaries["eval_cumulative_loss"])

    # recorded from the per-task loop that preceded the batched rollout
    @pytest.mark.parametrize("kind, v_baseline, v_control, finals, cumulative", [
        ("single_neuron", -3.8621982977464273, -3.2477139955072514,
         [0.06896551724137989, 0.20491810338718552, 0.3730577492090943], 12.953112154168988),
        ("nonlinear_taylor", -6.170955784803234, -3.249783955054434,
         [0.06896551724138461, 0.20491812713793622, 0.3730631581259809], 12.956312681876774),
    ])
    def test_a_task_set_of_a_kind_outside_the_pair_kernel(self, kind, v_baseline, v_control, finals, cumulative):
        res = run(override_param(preset("maml_multistep"), "dynamics.kind", kind))
        assert (res.V_baseline, res.V_control) == (v_baseline, v_control)
        assert res.summaries["eval_final_losses"] == finals
        assert res.summaries["eval_cumulative_loss"] == cumulative

    def test_a_task_set_is_scored_by_the_run_s_value_spec(self):
        """The maml preset's ValueSpec is the per-step sum; another one scores the same task set its own way."""
        assert preset("maml_multistep").value == value.per_step_sum_spec()
        cfg = set_fields(preset("maml_multistep"), {"value.mode": "discounted_integral", "optimizer.iters": 0})
        dspec, task, sched = build(cfg)
        res = run(cfg)
        assert res.V_baseline == value.evaluate_value(dspec, task, sched, cfg.value)
        assert res.V_baseline != run(set_fields(preset("maml_multistep"), {"optimizer.iters": 0})).V_baseline

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_neuron_quarter_means_hold_a_step_at_short_horizons(self, n_steps):
        """A horizon under 4 steps still averages its first and last step, without numpy warnings."""
        cfg = set_fields(preset("single_neuron_effort"), {"dynamics.n_steps": n_steps, "optimizer.iters": 0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run(cfg)
        g = res.schedule.expand()[0]
        assert res.summaries["gain_mean_first_quarter"] == float(g[0])
        assert res.summaries["gain_mean_last_quarter"] == float(g[-1])

    def test_sgd_validation_reports_its_agreement_score(self):
        res = run(preset("sgd_validation"))
        assert res.summaries["sgd_seeds"] == 5
        assert res.summaries["sgd_checked_steps"] == 51
        assert math.isfinite(res.summaries["sgd_max_z"])
        assert res.summaries["sgd_max_z"] >= 0.0


# V_control, trace length and stall of every preset at seed 0 after three
# iterations, and of the full single_neuron_effort (its stall at iteration 23);
# recorded before the optimizer's backtracking switch and Adam fields were removed
PINNED_ASCENTS = [
    ("single_neuron_effort", 3, -6.821483010924373, 4, None),
    ("effort_allocation", 3, -14.098027982968533, 4, None),
    ("task_switch", 3, -13.653373892820692, 4, None),
    ("task_engagement", 3, -22.410508331987703, 4, None),
    ("category_engagement", 3, -4.556465820161556, 4, None),
    ("class_proportion", 3, -4.613851446558371, 4, None),
    ("maml_multistep", 3, -3.2615980658557904, 4, None),
    ("lr_bilevel", 3, -13.679191849106044, 4, None),
    ("nonlinear_approx", 3, -4.612777220493615, 4, None),
    ("sgd_validation", 3, -1.3232593231041758, 4, None),
    ("single_neuron_effort", None, -6.821481369811574, 24, 23),
]


class TestPinnedPresetAscents:
    @pytest.mark.parametrize("name, iters, v_control, n_trace, stalled_at", PINNED_ASCENTS)
    def test_a_preset_climbs_to_its_recorded_value(self, name, iters, v_control, n_trace, stalled_at):
        cfg = preset(name) if iters is None else set_fields(preset(name), {"optimizer.iters": iters})
        res = run(cfg)
        assert (res.V_control, len(res.trace.V), res.trace.stalled_at) == (v_control, n_trace, stalled_at)

    def test_every_preset_is_pinned(self):
        assert {row[0] for row in PINNED_ASCENTS} == set(SCENARIOS)


class TestTrialDivergence:
    def test_diverging_line_search_trial_does_not_kill_the_run(self):
        """The full-size first step of this run blows up; halving recovers."""
        cfg = preset("lr_bilevel", g_hi=50)
        cfg = override_param(cfg, "optimizer.alpha_g", 50.0)
        res = run(override_param(cfg, "optimizer.iters", 5))
        assert len(res.trace.V) == 6
        assert res.V_control > res.V_baseline
        assert all(b >= a for a, b in zip(res.trace.V, res.trace.V[1:]))


def count_passes(monkeypatch):
    """Count forward and adjoint passes, wrapping every binding in the package.

    integrate calls made inside optimize() are counted; those outside it are
    listed by horizon (n_steps).  backward_step calls, and the steps the
    grad_value sweeps cover, are counted everywhere.
    """
    counts = {"integrate": 0, "outside": [], "backward_step": 0, "swept": 0}
    inside = []
    real = {"integrate": dynamics.integrate, "backward_step": dynamics.backward_step,
            "optimize": optimizer.optimize, "grad_value": value.grad_value}

    def integrate(spec, *args, **kwargs):
        if inside:
            counts["integrate"] += 1
        else:
            counts["outside"].append(spec.n_steps)
        return real["integrate"](spec, *args, **kwargs)

    def backward_step(*args, **kwargs):
        counts["backward_step"] += 1
        return real["backward_step"](*args, **kwargs)

    def optimize(*args, **kwargs):
        inside.append(True)
        try:
            return real["optimize"](*args, **kwargs)
        finally:
            inside.pop()

    def grad_value(spec, *args, **kwargs):
        counts["swept"] += spec.n_steps
        return real["grad_value"](spec, *args, **kwargs)

    fakes = {"integrate": integrate, "backward_step": backward_step, "optimize": optimize,
             "grad_value": grad_value}
    for name, module in list(sys.modules.items()):
        if name == "learning_control" or name.startswith("learning_control."):
            for attr, fake in fakes.items():
                if getattr(module, attr, None) is real[attr]:
                    monkeypatch.setattr(module, attr, fake)
    return counts


def line_search_trials(trace, ospec):
    """Forward trials read off the trace: h halvings cost h + 1 trials."""
    trials = sum(round(math.log2(ospec.alpha_g / a)) + 1 for a in trace.alpha_used[1:])
    return trials + (ospec.max_halvings + 1 if trace.stalled_at is not None else 0)


def stalling_neuron_config():
    """tiny_neuron_config run long enough to stall (at iteration 19)."""
    return override_param(tiny_neuron_config(), "optimizer.iters", 60)


def two_task_maml_config():
    cfg = preset("maml_multistep", tasks=((2.0, 0.8), (1.2, 1.0)))
    return override_param(cfg, "optimizer.iters", 5)


class TestRolloutReuse:
    """Each rollout is integrated once, and run() reuses the optimizer's."""

    @pytest.mark.parametrize("make_config", [tiny_neuron_config, stalling_neuron_config])
    def test_single_task_passes(self, monkeypatch, make_config):
        cfg = make_config()
        counts = count_passes(monkeypatch)
        res = run(cfg)
        trials = line_search_trials(res.trace, cfg.optimizer)
        assert (res.trace.stalled_at is not None) == (make_config is stalling_neuron_config)
        # a stall keeps the last accepted trial's rollout: no pass after the line search
        assert counts["integrate"] == 1 + trials
        assert counts["outside"] == []
        # one adjoint sweep over the horizon per point on the trace; the sweep
        # runs through the kind table, and the discounted value puts no weight
        # on the terminal state, so no sweep calls the one-step backward_step
        assert counts["swept"] == len(res.trace.V) * cfg.dynamics.n_steps
        assert counts["backward_step"] == 0

    def test_multi_task_passes(self, monkeypatch):
        cfg = two_task_maml_config()
        counts = count_passes(monkeypatch)
        res = run(cfg)
        trials = line_search_trials(res.trace, cfg.optimizer)
        assert res.trace.stalled_at is None
        # the task set is one batched rollout and one sweep per point
        assert counts["integrate"] == 1 + trials
        # only the summary's evaluation rollouts, which have their own horizon
        assert counts["outside"] == [cfg.params["eval_steps"]] * 2
        # the per-step sum scores the terminal state too, from the sweep's own last stack
        assert counts["swept"] == len(res.trace.V) * cfg.dynamics.n_steps
        assert counts["backward_step"] == 0

    @pytest.mark.parametrize("make_config", [
        tiny_neuron_config,
        stalling_neuron_config,
        lambda: override_param(tiny_neuron_config(), "optimizer.iters", 0),
        two_task_maml_config,
    ], ids=["normal", "stalled", "iters_0", "multi_task"])
    def test_trajectories_equal_a_fresh_integrate(self, make_config):
        cfg = make_config()
        res = run(cfg)
        dspec, task, init = build(cfg)
        init = init.project()
        multi = dynamics.is_task_set(task)
        for k, t in enumerate(task if multi else [task]):
            suffix = f":{k}" if multi else ""
            for side, sched in (("baseline", init), ("controlled", res.schedule)):
                got = res.trajectories[side + suffix]
                want = dynamics.integrate(dspec, sched, t)
                assert np.array_equal(got.losses, want.losses)
                assert len(got.states) == len(want.states)
                for sg, sw in zip(got.states, want.states):
                    assert all(np.array_equal(a, b) for a, b in zip(sg, sw))


class TestSweep:
    def test_results_come_back_in_value_order(self):
        res = sweep(tiny_neuron_config(), "dynamics.n_steps", [100, 140], parallelism=1)
        assert [r.trajectories["baseline"].losses.size for r in res] == [101, 141]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """max_workers of every process pool sweep asks for; the pool runs nothing and starts no process."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [None for _ in items]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiments, "run", lambda cfg: None)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        return sizes

    @pytest.mark.parametrize("parallelism, n_values, want", [
        (64, 2, [2]),      # never more workers than values
        (64, 20, [8]),     # nor than the machine's cores
        (None, 5, [5]),
        (1, 5, []),        # one worker runs in process
        (4, 1, []),
    ])
    def test_the_worker_count_is_capped(self, pool_sizes, parallelism, n_values, want):
        values = [0.5 + 0.01 * k for k in range(n_values)]
        sweep(tiny_neuron_config(), "value.gamma", values, parallelism=parallelism)
        assert pool_sizes == want

    @pytest.mark.parametrize("values", [[0.5, 0.9, 0.5], [0.9, 0.90]])
    def test_a_repeated_value_is_refused_before_anything_runs(self, monkeypatch, values):
        ran = []
        monkeypatch.setattr(experiments, "run", ran.append)
        with pytest.raises(ConfigError, match=re.escape(f"value {values[-1]} of 'value.gamma' repeats")):
            sweep(tiny_neuron_config(), "value.gamma", values, parallelism=1)
        assert ran == []

    @pytest.mark.parametrize("parallelism", [-1, -64])
    def test_a_negative_worker_count_is_a_config_error(self, pool_sizes, parallelism):
        with pytest.raises(ConfigError, match="parallelism must be nonnegative"):
            sweep(tiny_neuron_config(), "value.gamma", [0.5, 0.9], parallelism=parallelism)
        assert pool_sizes == []

    def test_parallel_results_match_sequential(self):
        cfg = tiny_neuron_config()
        seq = sweep(cfg, "value.gamma", [0.5, 0.9], parallelism=1)
        par = sweep(cfg, "value.gamma", [0.5, 0.9], parallelism=2)
        assert [r.V_control for r in par] == [r.V_control for r in seq]
