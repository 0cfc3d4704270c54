"""Schedule ascent: monotone traces, backtracking, stalls, update rules.

These use the single-neuron system (fast, exactly differentiable) so every
optimizer property can be asserted deterministically.
"""

import math
import time
from dataclasses import fields

import numpy as np
import pytest

from learning_control import dynamics, optimizer
from learning_control.control import ControlSchedule
from learning_control.dynamics import DynamicsSpec, integrate
from learning_control.errors import DivergenceError
from learning_control.experiments import build, preset, set_fields
from learning_control.optimizer import OptimizerSpec, optimize
from learning_control.tasks import two_gaussian_moments
from learning_control.value import CostSpec, ValueSpec, evaluate_value, grad_value, per_step_sum_spec

TASK = two_gaussian_moments(1.0, 1.0)


def neuron_spec(**kw):
    base = dict(kind="single_neuron", input_dim=1, output_dim=1, tau_w=2.0,
                dt=0.05, n_steps=20, reg_lambda=0.1, init_mean=0.1)
    base.update(kw)
    return DynamicsSpec(**base)


def neutral(bounds=None):
    return ControlSchedule.neutral("scalar_series", 20, bounds=bounds)


VSPEC = ValueSpec(gamma=0.95, eta=1.0, cost=CostSpec("quadratic", beta=0.3))


class TestSpecValidation:
    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="update rule"):
            OptimizerSpec(update_rule="newton")

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="alpha_g"):
            OptimizerSpec(alpha_g=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_halvings", -1, "max_halvings must be nonnegative"),
            ("iters", -1, "iters must be nonnegative"),
            ("iters", 2.5, "iters must be a whole number, got 2.5"),
            ("iters", True, "iters must be a whole number, got True"),
            ("max_halvings", 1.5, "max_halvings must be a whole number, got 1.5"),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            OptimizerSpec(**{field: value})

    def test_range_edges_are_accepted(self):
        spec = OptimizerSpec(max_halvings=0, iters=0)
        assert (spec.max_halvings, spec.iters) == (0, 0)

    def test_the_fields_are_the_step_the_budget_and_the_rule(self):
        """The ascent always backtracks and Adam's beta1, beta2 and eps are constants, not fields."""
        assert [f.name for f in fields(OptimizerSpec)] == ["alpha_g", "iters", "update_rule", "max_halvings"]
        assert (optimizer._BETA1, optimizer._BETA2, optimizer._EPS) == (0.9, 0.999, 1e-8)

    def test_float_fields_are_stored_as_floats(self):
        spec = OptimizerSpec(alpha_g=50)
        assert type(spec.alpha_g) is float
        _, trace = optimize(neuron_spec(), TASK, VSPEC, OptimizerSpec(alpha_g=1, iters=2), neutral())
        assert [type(a) for a in trace.alpha_used] == [float] * 3


class TestAscent:
    def test_value_improves_and_trace_is_monotone(self):
        ospec = OptimizerSpec(alpha_g=0.5, iters=40)
        sched, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, neutral())
        assert trace.V[-1] > trace.V[0]
        diffs = np.diff(trace.V)
        assert np.all(diffs >= 0)

    def test_first_trace_entry_scores_the_initial_schedule(self):
        ospec = OptimizerSpec(alpha_g=0.5, iters=3)
        init = neutral()
        _, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, init)
        np.testing.assert_allclose(trace.V[0], evaluate_value(neuron_spec(), TASK, init, VSPEC),
                                   rtol=0)

    def test_zero_iterations_returns_projected_input(self):
        init = ControlSchedule(kind="scalar_series", values=(np.full(20, 2.0),),
                               n_steps=20, bounds=(0.0, 0.5))
        ospec = OptimizerSpec(iters=0)
        sched, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, init)
        np.testing.assert_array_equal(sched.values[0], np.full(20, 0.5))
        assert len(trace.V) == 1 and trace.alpha_used == [0.0]

    def test_oversized_steps_are_halved_not_accepted(self):
        """With a deliberately huge base step the line search must still keep
        the trace non-decreasing."""
        init = neutral(bounds=(-0.5, 0.5))
        ospec = OptimizerSpec(alpha_g=80.0, iters=15)
        _, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, init)
        assert np.all(np.diff(trace.V) >= 0)
        # at least one accepted step had to shrink below the base size
        used = [a for a in trace.alpha_used[1:] if a > 0]
        assert used and min(used) < 80.0

    def test_trace_lengths_are_consistent(self):
        ospec = OptimizerSpec(alpha_g=0.5, iters=7)
        _, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, neutral())
        n = len(trace.V)
        assert len(trace.grad_norm) == n == len(trace.alpha_used) == len(trace.wall_ms)

    def test_bounds_respected_at_every_report(self):
        init = neutral(bounds=(0.0, 0.25))
        ospec = OptimizerSpec(alpha_g=2.0, iters=25)
        sched, _ = optimize(neuron_spec(), TASK, VSPEC, ospec, init)
        assert np.all(sched.values[0] >= 0.0) and np.all(sched.values[0] <= 0.25)


class TestWallTime:
    def test_wall_ms_covers_the_gradient_pass(self, monkeypatch):
        """An iteration's wall time runs until its gradient is known."""
        from learning_control import optimizer

        real = optimizer.grad_value

        def slow_grad_value(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "grad_value", slow_grad_value)
        _, trace = optimize(neuron_spec(), TASK, VSPEC, OptimizerSpec(alpha_g=0.5, iters=1), neutral())
        assert len(trace.V) == 2
        assert trace.wall_ms[1] >= 50


class TestStall:
    def test_stall_is_recorded_and_stops_the_loop(self):
        """Near the optimum, a forced full-size jump to the box corner hurts;
        with no halvings allowed the optimizer must declare a stall."""
        spec = neuron_spec()
        warm, _ = optimize(spec, TASK, VSPEC, OptimizerSpec(alpha_g=0.5, iters=60),
                           neutral(bounds=(0.0, 0.5)))
        ospec = OptimizerSpec(alpha_g=1e6, iters=5, max_halvings=0)
        sched, trace = optimize(spec, TASK, VSPEC, ospec, warm)
        assert trace.stalled_at == 0
        assert len(trace.V) == 1
        np.testing.assert_array_equal(sched.values[0], warm.values[0])

    def test_stall_at_zero_reuses_the_initial_rollout(self, monkeypatch):
        spec = neuron_spec()
        warm, _ = optimize(spec, TASK, VSPEC, OptimizerSpec(alpha_g=0.5, iters=60),
                           neutral(bounds=(0.0, 0.5)))
        calls = []
        real = dynamics.integrate

        def integrate(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "integrate", integrate)
        ospec = OptimizerSpec(alpha_g=1e6, iters=5, max_halvings=0)
        _, trace = optimize(spec, TASK, VSPEC, ospec, warm)
        assert trace.stalled_at == 0
        # the initial rollout and one line-search trial, nothing at the end
        assert len(calls) == 1 + (ospec.max_halvings + 1)
        first, last = trace.rollouts
        assert last is first


class TestTrialDivergence:
    """A line-search trial so large that its rollout blows up is a rejection."""

    def test_diverging_trial_is_halved_not_fatal(self):
        init = neutral(bounds=(0.0, 1e3))
        ospec = OptimizerSpec(alpha_g=1e4, iters=3)
        sched, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, init)
        assert trace.stalled_at is None and len(trace.V) == 4
        assert np.all(np.diff(trace.V) >= 0)
        assert 0 < trace.alpha_used[1] < 1e4
        # the full-size first step really diverges
        _, g, _ = grad_value(neuron_spec(), TASK, init, VSPEC)
        full = init.with_values(tuple(v + 1e4 * d for v, d in zip(init.values, g))).project()
        with pytest.raises(DivergenceError):
            integrate(neuron_spec(), full, TASK)

    def test_a_trial_whose_loss_overflows_is_a_rejection(self):
        # a gain of ~1e200 squares past the float range in the single neuron's float loop
        cfg = set_fields(preset("single_neuron_effort", g_hi=math.inf),
                         {"optimizer.alpha_g": 1e200, "dynamics.init_std": 0.1, "optimizer.iters": 3})
        dspec, task, sched = build(cfg)
        _, trace = optimize(dspec, task, cfg.value, cfg.optimizer, sched)
        assert trace.stalled_at == 0 and len(trace.V) == 1
        assert np.all(np.diff(trace.V) >= 0)

    def test_divergence_of_the_initial_rollout_still_raises(self):
        init = neutral(bounds=(0.0, 1e4))
        init = init.with_values(tuple(np.full_like(v, 1e4) for v in init.values))
        with pytest.raises(DivergenceError, match="exceeded"):
            optimize(neuron_spec(), TASK, VSPEC, OptimizerSpec(iters=3), init)


class TestNonFiniteObjective:
    """A V or gradient past the float range is a divergence at the start and a rejection in the line search."""

    @pytest.mark.parametrize("name", ["single_neuron_effort", "effort_allocation"])
    def test_an_initial_value_past_the_float_range_is_a_divergence(self, name):
        cfg = set_fields(preset(name), {"value.eta": 1e308, "optimizer.iters": 1})
        dspec, task, sched = build(cfg)
        # numpy's overflow warnings on the way to -inf are not what this checks
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError, match=r"eta 1e\+308"):
            optimize(dspec, task, cfg.value, cfg.optimizer, sched)

    def test_a_trial_scored_infinite_is_a_rejection(self, monkeypatch):
        scored, real_value = [], optimizer.value

        def infinite_after_the_start(*args, **kw):  # the initial schedule's V is scored first, as it is
            scored.append(1)
            return real_value(*args, **kw) if len(scored) == 1 else math.inf

        monkeypatch.setattr(optimizer, "value", infinite_after_the_start)
        sched, trace = optimize(neuron_spec(), TASK, VSPEC, OptimizerSpec(iters=3, max_halvings=2), neutral())
        assert trace.stalled_at == 0 and len(trace.V) == 1
        assert np.array_equal(sched.values[0], neutral().values[0])


@pytest.mark.parametrize("grads, norm", [
    ((np.array([3.0, -4.0]), np.array([[12.0]])), 13.0),
    # finite entries whose squares overflow: the norm is rescaled, not inf
    ((np.array([1e200, -1e200]), np.array([[3e199]])), pytest.approx(math.hypot(1e200, -1e200, 3e199), rel=1e-15)),
    ((np.full(4, 1e308),), math.inf),  # a norm past the float range
    ((np.array([np.inf, 1.0]),), math.inf),
])
def test_tree_norm(grads, norm):
    assert optimizer._tree_norm(grads) == norm


class TestAdaptiveMoments:
    def test_improves_value(self):
        ospec = OptimizerSpec(alpha_g=0.05, iters=60, update_rule="adaptive_moments")
        sched, trace = optimize(neuron_spec(), TASK, VSPEC, ospec, neutral())
        assert trace.V[-1] > trace.V[0]
        assert np.all(np.diff(trace.V) >= 0)

    def test_reaches_comparable_value_to_plain(self):
        plain_s, plain_t = optimize(neuron_spec(), TASK, VSPEC,
                                    OptimizerSpec(alpha_g=0.5, iters=80), neutral())
        adam_s, adam_t = optimize(neuron_spec(), TASK, VSPEC,
                                  OptimizerSpec(alpha_g=0.05, iters=120,
                                                update_rule="adaptive_moments"), neutral())
        assert adam_t.V[-1] > plain_t.V[0]
        np.testing.assert_allclose(adam_t.V[-1], plain_t.V[-1], rtol=0.05)


class TestMamlObjective:
    def test_optimize_accepts_a_task_list(self):
        from learning_control.control import init_weights_control

        spec = DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1,
                            hidden_dim=3, dt=0.1, n_steps=4)
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        tasks = [two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0)]
        ospec = OptimizerSpec(alpha_g=0.05, iters=20)
        _, trace = optimize(spec, tasks, per_step_sum_spec(), ospec, sched)
        assert trace.V[-1] > trace.V[0]
        assert np.all(np.diff(trace.V) >= 0)

    def test_a_task_set_is_scored_by_the_given_value_spec(self):
        """A discounted ValueSpec scores the initial schedule, the gradients and the trials alike."""
        from learning_control.control import init_weights_control

        spec = DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1,
                            hidden_dim=3, dt=0.1, n_steps=4)
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        tasks = dynamics.TaskSet([two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0)])
        vspec = ValueSpec(gamma=0.9, eta=1.5)
        final, trace = optimize(spec, tasks, vspec, OptimizerSpec(alpha_g=0.05, iters=3), sched)
        v0, g0, _ = grad_value(spec, tasks, sched, vspec)
        assert trace.V[0] == v0 and trace.grad_norm[0] == optimizer._tree_norm(g0)
        assert trace.V[0] != grad_value(spec, tasks, sched, per_step_sum_spec())[0]
        assert len(trace.V) == 4 and trace.V[-1] == evaluate_value(spec, tasks, final, vspec)


class TestRolloutsOwnTheirStates:
    """Rollouts an optimize run keeps hold their states and losses through later passes.

    Kept are the trace's first and last rollouts and every trial rollout the
    line search handed to the adjoint; later integrate and grad_value calls on
    other schedules must not write into them (no step buffer is shared
    between passes).
    """

    @staticmethod
    def gain_mod_case():
        spec = DynamicsSpec(kind="gain_mod", input_dim=1, output_dim=1, hidden_dim=3, dt=0.1, n_steps=30,
                            init_std=0.3, init_seed=2)
        sched = ControlSchedule.neutral("matrix_pair_series", 30, segment=5, shapes=((3, 1), (1, 3)),
                                        bounds=(-0.5, 0.5))
        return spec, TASK, VSPEC, sched

    @staticmethod
    def task_set_case():
        from learning_control.control import init_weights_control

        spec = DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1, hidden_dim=3, dt=0.1, n_steps=6)
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        tasks = dynamics.TaskSet([two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0)])
        return spec, tasks, per_step_sum_spec(), sched

    @pytest.mark.parametrize("case", ["gain_mod_case", "task_set_case"])
    def test_later_passes_leave_kept_rollouts_alone(self, case, monkeypatch):
        spec, task, vspec, sched = getattr(self, case)()
        handed, real = [], optimizer.grad_value

        def recording(dspec, task, schedule, vspec, state0=None, traj=None, **plan):
            if traj is not None:
                handed.append((traj, [a.copy() for a in (*traj.layers, traj.losses)]))
            return real(dspec, task, schedule, vspec, state0=state0, traj=traj, **plan)

        monkeypatch.setattr(optimizer, "grad_value", recording)
        _, trace = optimize(spec, task, vspec, OptimizerSpec(alpha_g=0.5, iters=3), sched)
        kept = handed + [(t, [a.copy() for a in (*t.layers, t.losses)]) for t in trace.rollouts]
        assert len(handed) >= 2 and trace.rollouts[1] is handed[-1][0]
        rng = np.random.default_rng(4)
        for _ in range(2):
            other = sched.with_values(tuple(v + rng.uniform(-0.3, 0.3, v.shape) for v in sched.values))
            integrate(spec, other, task)
            grad_value(spec, task, other, vspec)
        for traj, copies in kept:
            assert all(np.array_equal(a, b) for a, b in zip((*traj.layers, traj.losses), copies))


class TestSetUpOnce:
    """optimize sets up once: it maps the schedule once per rollout and the adjoint sweeps read the rollout's args.

    Counts only; nothing here times anything.
    """

    def test_one_task_switch_iteration_takes_no_at_call(self, monkeypatch):
        from learning_control.experiments import build, preset

        cfg = preset("task_switch")
        spec, task, sched = build(cfg)
        calls = {"at": 0, "integrate": 0, "swept": 0}
        at, real_integrate, real_grad = ControlSchedule.at, dynamics.integrate, optimizer.grad_value

        def counted_at(schedule, step):
            calls["at"] += 1
            return at(schedule, step)

        def counted_integrate(*args, **kwargs):
            calls["integrate"] += 1
            return real_integrate(*args, **kwargs)

        def counted_grad(*args, **kwargs):
            calls["swept"] += kwargs.get("traj") is not None
            return real_grad(*args, **kwargs)

        monkeypatch.setattr(ControlSchedule, "at", counted_at)
        monkeypatch.setattr(dynamics, "integrate", counted_integrate)
        monkeypatch.setattr(optimizer, "grad_value", counted_grad)
        _, trace = optimize(spec, task, cfg.value, OptimizerSpec(alpha_g=cfg.optimizer.alpha_g, iters=1), sched)
        assert len(trace.V) == 2 and calls["swept"] == 2  # the initial rollout and the accepted trial went to the sweep
        assert calls["integrate"] >= 2
        assert calls["at"] == 0  # each rollout maps the schedule's values at once
