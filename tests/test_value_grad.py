"""Value functional and adjoint gradient.

Includes a fully hand-computed one-step gradient (exact to machine epsilon)
plus finite-difference probes of the adjoint sweep for several control kinds.
Fake trajectories with made-up losses pin the Riemann weighting itself.
"""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from test_dynamics import STACK_KINDS, same_bits, sgd_case, stack_case, task_at

from learning_control import dynamics
from learning_control.control import ControlSchedule, init_weights_control
from learning_control.dynamics import DynamicsSpec, TaskSchedule, Trajectory, backward_step, initial_state, integrate
from learning_control.errors import UnsupportedOperationError
from learning_control.experiments import build, preset
from learning_control.tasks import (
    class_mixture_moments,
    compose_block_tasks,
    correlated_gaussian_moments,
    two_gaussian_moments,
)
from learning_control.value import (
    CostSpec,
    FdReport,
    ValueSpec,
    evaluate_value,
    fd_check,
    grad_value,
    _plan,
    _slice_axpy,
    _slice_scale,
    _value_weights,
    maml_value_and_grad,
    per_step_sum_spec,
    segment_cost_grads,
    segment_costs,
    value,
)

NEURON_TASK = two_gaussian_moments(1.0, 1.0)


def neuron_spec(**kw):
    base = dict(kind="single_neuron", input_dim=1, output_dim=1, tau_w=2.0,
                dt=0.1, n_steps=1, reg_lambda=0.1, init_mean=0.5)
    base.update(kw)
    return DynamicsSpec(**base)


# --- C(g) and dC/dg of one control slice, computed slice by slice: the reference


def ref_arrays(control):
    if isinstance(control, tuple):
        return [np.asarray(c, dtype=float) for c in control]
    if np.isscalar(control):
        return [np.array([float(control)])]
    return [np.asarray(control, dtype=float)]


def ref_sumsq(arrays):
    return sum(float((a * a).sum()) for a in arrays)


def ref_cost(control, cspec):
    if cspec.kind == "none":
        return 0.0
    arrays = ref_arrays(control)
    if cspec.kind == "quadratic":
        return cspec.beta * ref_sumsq(arrays)
    if cspec.kind == "exp_frobenius":
        return math.exp(cspec.beta * ref_sumsq(arrays)) - 1.0
    if cspec.kind == "anchored_norm":
        return cspec.beta * sum(float(((a - cspec.anchor) ** 2).sum()) for a in arrays)
    gap = ref_sumsq(arrays) - cspec.target_norm
    return cspec.beta * gap * gap


def ref_cost_grad(control, cspec):
    """dC/dg with the structure of the slice: a float, a vector or a tuple of matrices."""
    arrays = ref_arrays(control)
    if cspec.kind == "none":
        grads = [np.zeros_like(a) for a in arrays]
    elif cspec.kind == "quadratic":
        grads = [2.0 * cspec.beta * a for a in arrays]
    elif cspec.kind == "exp_frobenius":
        factor = 2.0 * cspec.beta * math.exp(cspec.beta * ref_sumsq(arrays))
        grads = [factor * a for a in arrays]
    elif cspec.kind == "anchored_norm":
        grads = [2.0 * cspec.beta * (a - cspec.anchor) for a in arrays]
    else:
        factor = 4.0 * cspec.beta * (ref_sumsq(arrays) - cspec.target_norm)
        grads = [factor * a for a in arrays]
    if isinstance(control, tuple):
        return tuple(grads)
    if np.isscalar(control):
        return float(grads[0][0])
    return grads[0]


class TestSegmentCostsAgainstTheSliceReference:
    """segment_costs and segment_cost_grads over a whole series equal the slice-by-slice reference, bit for bit."""

    CSPECS = {
        "none": CostSpec(),
        "quadratic": CostSpec("quadratic", beta=0.3),
        "exp_frobenius": CostSpec("exp_frobenius", beta=0.4),
        "anchored_norm": CostSpec("anchored_norm", beta=0.3, anchor=0.7),
        "fixed_norm": CostSpec("fixed_norm", beta=0.3, target_norm=1.0),
    }
    # kind and the per-segment shape of each part; 11 steps in segments of 3 leave a ragged last one
    SERIES = {
        "scalar": ("scalar_series", [()]),
        "one_layer": ("matrix_pair_series", [(2, 3)]),
        "two_layers": ("matrix_pair_series", [(3, 2), (2, 3)]),
        "engagement": ("engagement_series", [(2,)]),
        "category": ("category_series", [(4,)]),
    }

    def schedule(self, series):
        kind, shapes = self.SERIES[series]
        rng = np.random.default_rng(8)
        values = tuple(rng.uniform(-1.5, 1.5, (4, *s)) for s in shapes)
        return ControlSchedule(kind=kind, values=values, n_steps=11, segment=3)

    @pytest.mark.parametrize("cost", CSPECS)
    @pytest.mark.parametrize("series", SERIES)
    def test_costs_and_grads(self, series, cost):
        sched, cspec = self.schedule(series), self.CSPECS[cost]
        slices = [sched.at(k * sched.segment) for k in range(sched.n_segments)]
        assert segment_costs(sched.values, cspec).tolist() == [ref_cost(c, cspec) for c in slices]
        grads = segment_cost_grads(sched.values, cspec)
        assert len(grads) == len(sched.values)
        for k, c in enumerate(slices):
            want = ref_cost_grad(c, cspec)
            for got, ref in zip(grads, want if isinstance(want, tuple) else (want,)):
                assert got.shape[1:] == np.shape(ref)
                assert (got[k] == ref).all()

    @pytest.mark.parametrize("cost", CSPECS)
    @pytest.mark.parametrize("series", SERIES)
    def test_value(self, series, cost):
        sched, cspec = self.schedule(series), self.CSPECS[cost]
        dspec = neuron_spec(dt=0.1, n_steps=11)
        vspec = ValueSpec(gamma=0.9, eta=1.3, cost=cspec)
        traj = fake_traj(np.random.default_rng(2).uniform(0.0, 2.0, 12), dt=0.1)
        pw, cw = _value_weights(vspec, dspec)
        want = -float(np.dot(pw, traj.losses))
        seg = sched.segment
        for k in range(sched.n_segments):
            c = ref_cost(sched.at(k * seg), cspec)
            if c != 0.0:
                want -= c * float(cw[k * seg : (k + 1) * seg].sum())
        assert value(traj, sched, vspec, dspec) == want


class TestControlCost:
    G = (np.array([[0.2, -0.1]]),)  # one segment; sum of squares 0.05

    def test_quadratic(self):
        np.testing.assert_allclose(segment_costs(self.G, CostSpec("quadratic", beta=0.3)),
                                   [0.015], rtol=1e-15)

    def test_exp_frobenius(self):
        np.testing.assert_allclose(segment_costs(self.G, CostSpec("exp_frobenius", beta=0.3)),
                                   [math.exp(0.015) - 1.0], rtol=1e-15)

    def test_anchored_norm(self):
        # (0.2-1)^2 + (-0.1-1)^2 = 0.64 + 1.21
        np.testing.assert_allclose(
            segment_costs(self.G, CostSpec("anchored_norm", beta=0.3, anchor=1.0)),
            [0.3 * 1.85], rtol=1e-15)

    def test_fixed_norm(self):
        np.testing.assert_allclose(
            segment_costs(self.G, CostSpec("fixed_norm", beta=0.3, target_norm=1.0)),
            [0.3 * 0.95**2], rtol=1e-15)

    def test_none_is_free(self):
        assert segment_costs(self.G, CostSpec()).tolist() == [0.0]

    def test_tuple_slices_pool_their_squares(self):
        pair = (np.array([[[0.2]]]), np.array([[[-0.1]]]))
        np.testing.assert_allclose(segment_costs(pair, CostSpec("quadratic", beta=0.3)),
                                   [0.015], rtol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="cost kind"):
            CostSpec("cubic")

    @pytest.mark.parametrize("kind, name, value", [
        ("none", "beta", 5.0), ("none", "anchor", 7.0), ("none", "target_norm", 9.0),
        ("quadratic", "anchor", 7.0), ("quadratic", "target_norm", 9.0),
        ("exp_frobenius", "anchor", 7.0), ("exp_frobenius", "target_norm", 9.0),
        ("anchored_norm", "target_norm", 9.0), ("fixed_norm", "anchor", 7.0),
    ])
    def test_a_field_its_kind_does_not_read_is_refused(self, kind, name, value):
        default = getattr(CostSpec(), name)
        with pytest.raises(ValueError, match=f"cost kind {kind} ignores {name}: set it to {default!r}, not {value!r}"):
            CostSpec(kind, **{name: value})
        assert getattr(CostSpec(kind, **{name: default}), name) == default  # its default is no claim


class TestControlCostGrad:
    @pytest.mark.parametrize("kind,kw", [
        ("quadratic", {}),
        ("exp_frobenius", {}),
        ("anchored_norm", {"anchor": 0.7}),
        ("fixed_norm", {"target_norm": 0.3}),
    ])
    def test_matches_finite_differences(self, kind, kw):
        cspec = CostSpec(kind, beta=0.4, **kw)
        g = np.array([[0.3, -0.2, 0.5]])  # one segment
        (grad,) = segment_cost_grads((g,), cspec)
        eps = 1e-7
        for j in range(3):
            bumped = g.copy()
            bumped[0, j] += eps
            dipped = g.copy()
            dipped[0, j] -= eps
            fd = (segment_costs((bumped,), cspec)[0] - segment_costs((dipped,), cspec)[0]) / (2 * eps)
            np.testing.assert_allclose(grad[0, j], fd, rtol=1e-6, atol=1e-10)

    def test_exp_cost_couples_channels(self):
        """The exponential penalty's gradient on one channel grows with the
        total squared norm, unlike the separable quadratic."""
        cspec = CostSpec("exp_frobenius", beta=0.5)
        lone = segment_cost_grads((np.array([[0.3, 0.0]]),), cspec)[0][0, 0]
        crowded = segment_cost_grads((np.array([[0.3, 2.0]]),), cspec)[0][0, 0]
        assert crowded > lone


def fake_traj(losses, dt):
    losses = np.asarray(losses, dtype=float)
    n = len(losses) - 1
    return Trajectory(times=np.arange(n + 1) * dt, layers=([0.0] * (n + 1),),
                      losses=losses, kind="single_neuron")


class TestValueWeighting:
    def test_left_riemann_rule_by_hand(self):
        """Includes t0, excludes the terminal time, discounts by gamma^t."""
        dspec = neuron_spec(dt=0.5, n_steps=2)
        vspec = ValueSpec(gamma=0.8, eta=2.0, cost=CostSpec())
        traj = fake_traj([2.0, 1.0, 0.5], dt=0.5)
        expected = -(0.5 * 2.0 * (1.0 * 2.0 + 0.8**0.5 * 1.0))
        np.testing.assert_allclose(value(traj, None, vspec, dspec), expected, rtol=1e-14)

    def test_cost_weighted_by_discount_and_segments(self):
        dspec = neuron_spec(dt=0.5, n_steps=3)
        vspec = ValueSpec(gamma=0.8, eta=1.0, cost=CostSpec("quadratic", beta=0.1))
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.3, -0.2]),),
                                n_steps=3, segment=2)
        traj = fake_traj([0.0, 0.0, 0.0, 0.0], dt=0.5)
        cw = 0.5 * np.array([1.0, 0.8**0.5, 0.8])
        expected = -(0.1 * 0.09 * (cw[0] + cw[1]) + 0.1 * 0.04 * cw[2])
        np.testing.assert_allclose(value(traj, sched, vspec, dspec), expected, rtol=1e-14)

    def test_per_step_sum_ignores_dt(self):
        dspec = neuron_spec(dt=0.5, n_steps=2)
        sched = ControlSchedule(kind="scalar_series", values=(np.array([1.0, 1.0]),),
                                n_steps=2)
        traj = fake_traj([2.0, 1.0, 0.5], dt=0.5)
        np.testing.assert_allclose(value(traj, sched, per_step_sum_spec(), dspec), -1.5, rtol=1e-15)

    @pytest.mark.parametrize("fields, name", [
        ({"gamma": 0.8}, "gamma"),
        ({}, "gamma"),  # the default gamma, 0.99, discounts
        ({"gamma": 1.0, "eta": 2.0}, "eta"),
        ({"gamma": 1.0, "cost": CostSpec("quadratic", beta=5.0)}, "cost.kind"),
        ({"gamma": 1.0, "cost": CostSpec("quadratic")}, "cost.kind"),
    ])
    def test_per_step_sum_refuses_the_fields_it_would_ignore(self, fields, name):
        with pytest.raises(ValueError, match=f"mode per_step_sum ignores {name}: set it to"):
            ValueSpec(mode="per_step_sum", **fields)

    def test_undiscounted_integral(self):
        dspec = neuron_spec(dt=0.25, n_steps=4)
        vspec = ValueSpec(gamma=1.0, eta=1.0)
        traj = fake_traj([1.0, 1.0, 1.0, 1.0, 7.0], dt=0.25)
        np.testing.assert_allclose(value(traj, None, vspec, dspec), -1.0, rtol=1e-15)

    def test_init_weights_schedules_pay_no_cost(self):
        dspec = neuron_spec(dt=0.5, n_steps=2)
        vspec = ValueSpec(gamma=1.0, cost=CostSpec("quadratic", beta=10.0))
        traj = fake_traj([1.0, 1.0, 1.0], dt=0.5)
        sched = init_weights_control((np.full((1, 1), 3.0),))
        np.testing.assert_allclose(value(traj, sched, vspec, dspec),
                                   value(traj, None, vspec, dspec), rtol=0)

    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            ValueSpec(gamma=0.0)
        with pytest.raises(ValueError, match="mode"):
            ValueSpec(mode="per_minute")


class TestOneStepGradientByHand:
    """n=1, w0=0.5, g=0.2 on the mu=1, x2=2 task: dL/dg = 0.1, the terminal
    state carries no performance weight, so dV/dg = -dt*eta*dL/dg = -0.01."""

    def test_exact_value_and_gradient(self):
        spec = neuron_spec()
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.2]),), n_steps=1)
        vspec = ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec())
        total, buffers, traj = grad_value(spec, NEURON_TASK, sched, vspec)
        np.testing.assert_allclose(total, -0.1 * 0.2725, rtol=1e-15)
        np.testing.assert_allclose(buffers[0], [-0.01], rtol=1e-13)

    def test_cost_term_adds_its_gradient(self):
        spec = neuron_spec()
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.2]),), n_steps=1)
        vspec = ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("quadratic", beta=0.5))
        _, buffers, _ = grad_value(spec, NEURON_TASK, sched, vspec)
        # extra term: -cw0 * dC/dg = -0.1 * (2 * 0.5 * 0.2)
        np.testing.assert_allclose(buffers[0], [-0.01 - 0.1 * 0.2], rtol=1e-13)


class TestAdjointAgainstFiniteDifferences:
    def test_single_neuron_schedule(self):
        spec = neuron_spec(dt=0.05, n_steps=20, init_mean=0.1)
        rng = np.random.default_rng(1)
        sched = ControlSchedule(kind="scalar_series", values=(rng.uniform(-0.3, 0.4, 20),),
                                n_steps=20)
        vspec = ValueSpec(gamma=0.95, eta=1.5, cost=CostSpec("quadratic", beta=0.2))
        report = fd_check(spec, NEURON_TASK, sched, vspec)
        assert report.max_rel < 1e-5

    def test_gain_mod_schedule(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=10, init_std=0.2, init_seed=5,
                            reg_lambda=0.02)
        rng = np.random.default_rng(2)
        vals = (rng.uniform(-0.2, 0.2, (5, 3, 2)), rng.uniform(-0.2, 0.2, (5, 2, 3)))
        sched = ControlSchedule(kind="matrix_pair_series", values=vals, n_steps=10, segment=2)
        task = correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, 0.8)
        vspec = ValueSpec(gamma=0.9, cost=CostSpec("quadratic", beta=0.1))
        report = fd_check(spec, task, sched, vspec, coords=8)
        assert report.max_rel < 1e-5

    def test_engagement_with_exponential_cost(self):
        task = compose_block_tasks([two_gaussian_moments(1.0, 0.4),
                                    correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, 0.8)])
        spec = DynamicsSpec(kind="engagement", input_dim=3, output_dim=3, hidden_dim=4,
                            dt=0.05, n_steps=12, init_std=0.15, init_seed=3)
        rng = np.random.default_rng(4)
        sched = ControlSchedule(kind="engagement_series",
                                values=(rng.uniform(0.5, 1.5, (6, 2)),),
                                n_steps=12, segment=2)
        vspec = ValueSpec(gamma=0.95, cost=CostSpec("exp_frobenius", beta=0.1))
        report = fd_check(spec, task, sched, vspec, coords=6)
        assert report.max_rel < 1e-5

    def test_bounds_are_stripped_for_the_probe(self):
        """A schedule sitting on its bounds must still get an honest two-sided
        difference (the probe would otherwise be clamped to one side)."""
        spec = neuron_spec(dt=0.05, n_steps=8, init_mean=0.1)
        sched = ControlSchedule(kind="scalar_series", values=(np.zeros(8),),
                                n_steps=8, bounds=(0.0, 0.5))
        vspec = ValueSpec(gamma=0.95)
        report = fd_check(spec, NEURON_TASK, sched, vspec, coords=4)
        assert report.max_rel < 1e-5

    def test_explicit_coordinate_list(self):
        spec = neuron_spec(dt=0.05, n_steps=6, init_mean=0.1)
        sched = ControlSchedule.neutral("scalar_series", 6)
        report = fd_check(spec, NEURON_TASK, sched, ValueSpec(), coords=[(0, 0), (0, 5)])
        assert len(report.entries) == 2
        assert "max rel err" in str(report)

    def test_coordinate_count_is_capped_by_size(self):
        spec = neuron_spec(dt=0.05, n_steps=3, init_mean=0.1)
        sched = ControlSchedule.neutral("scalar_series", 3)
        report = fd_check(spec, NEURON_TASK, sched, ValueSpec(), coords=50)
        assert len(report.entries) == 3


def fd_case(name):
    """(dynamics, task, neutral schedule) of a small run under each schedule layout fd_check draws from."""
    pair_task = correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, 0.8)
    if name == "scalar":
        return neuron_spec(dt=0.05, n_steps=20), NEURON_TASK, ControlSchedule.neutral("scalar_series", 20)
    if name == "matrix_pair":
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3, dt=0.05, n_steps=10)
        return spec, pair_task, ControlSchedule.neutral("matrix_pair_series", 10, segment=2, shapes=((3, 2), (2, 3)))
    if name == "engagement":
        spec = DynamicsSpec(kind="engagement", input_dim=3, output_dim=3, hidden_dim=4, dt=0.05, n_steps=12)
        task = compose_block_tasks([two_gaussian_moments(1.0, 0.4), pair_task])
        return spec, task, ControlSchedule.neutral("engagement_series", 12, segment=2, n_channels=2)
    spec = DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1, hidden_dim=3, dt=0.1, n_steps=5,
                        init_std=0.3)
    return spec, NEURON_TASK, init_weights_control(initial_state(spec))


class TestFdCheckDraws:
    """The coordinates fd_check draws, recorded from a draw that mapped flat picks back through offsets."""

    @pytest.mark.parametrize("name, coords, rng, want", [
        ("scalar", None, 0, [(0, i) for i in (0, 1, 2, 3, 4, 5, 6, 7, 12, 14, 15, 18)]),
        ("scalar", 3, 5, [(0, 0), (0, 12), (0, 15)]),
        ("scalar", np.int64(3), 5, [(0, 0), (0, 12), (0, 15)]),
        ("matrix_pair", None, 0, [(0, 0), (0, 2), (0, 4), (0, 9), (0, 14), (0, 16), (0, 26),
                                  (1, 1), (1, 8), (1, 11), (1, 17), (1, 24)]),
        ("matrix_pair", 5, 11, [(0, 7), (0, 29), (1, 5), (1, 16), (1, 26)]),
        ("engagement", 3, 5, [(0, 0), (0, 6), (0, 8)]),
        ("engagement", 4, 2, [(0, 1), (0, 2), (0, 3), (0, 7)]),
        ("init_weights", 3, 5, [(0, 0), (0, 2), (1, 1)]),
        ("init_weights", 4, 2, [(0, 0), (0, 1), (0, 2), (1, 2)]),
    ])
    def test_drawn_coordinates_keep_their_recorded_picks(self, name, coords, rng, want):
        spec, task, sched = fd_case(name)
        report = fd_check(spec, task, sched, ValueSpec(gamma=0.9), coords=coords, rng=rng)
        assert [c for c, *_ in report.entries] == want

    @pytest.mark.parametrize("kw, message", [
        (dict(coords=0), "coords must be a count >= 1 or a nonempty list, got 0"),
        (dict(coords=-3), "coords must be a count >= 1 or a nonempty list, got -3"),
        (dict(coords=[]), r"coords must be a count >= 1 or a nonempty list, got \[\]"),
        (dict(h=0.0), "step h must be finite and positive, got 0.0"),
        (dict(h=-1e-6), "step h must be finite and positive, got -1e-06"),
        (dict(h=float("nan")), "step h must be finite and positive, got nan"),
        (dict(h=float("inf")), "step h must be finite and positive, got inf"),
    ])
    def test_bad_arguments_are_refused_by_name(self, kw, message):
        spec, task, sched = fd_case("scalar")
        with pytest.raises(ValueError, match=f"fd_check's {message}"):
            fd_check(spec, task, sched, ValueSpec(gamma=0.9), **kw)


class TestInitWeightsGradient:
    def two_layer(self):
        return DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1,
                            hidden_dim=3, dt=0.1, n_steps=5, init_std=0.3, init_seed=0)

    def test_grad_value_returns_state_shaped_buffers(self):
        spec = self.two_layer()
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        vspec = ValueSpec(gamma=1.0, mode="per_step_sum")
        total, grads, traj = grad_value(spec, NEURON_TASK, sched, vspec)
        assert grads[0].shape == (3, 1) and grads[1].shape == (1, 3)
        np.testing.assert_allclose(total, -np.sum(traj.losses[1:]), rtol=1e-13)

    @pytest.mark.parametrize("vspec", [per_step_sum_spec(), ValueSpec(gamma=0.9, eta=1.5)],
                             ids=["per_step_sum", "discounted_integral"])
    def test_fd_check_over_a_task_set(self, vspec):
        """The probes and the adjoint both score the task set by the ValueSpec given."""
        spec = self.two_layer()
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        tasks = [two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0)]
        report = fd_check(spec, tasks, sched, vspec, coords=5)
        assert report.max_rel < 1e-5
        _, grads, _ = grad_value(spec, tasks, sched, vspec)
        assert [a for _, a, _, _ in report.entries] == [float(grads[ai].flat[fi]) for (ai, fi), *_ in report.entries]

    def test_maml_sums_per_task_contributions(self):
        spec = self.two_layer()
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        tasks = [two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0)]
        total, grads, trajs = maml_value_and_grad(spec, tasks, sched)
        vspec = ValueSpec(gamma=1.0, mode="per_step_sum")
        parts = [grad_value(spec, t, sched, vspec) for t in tasks]
        np.testing.assert_allclose(total, sum(p[0] for p in parts), rtol=1e-14)
        np.testing.assert_allclose(grads[0], parts[0][1][0] + parts[1][1][0], rtol=1e-13)
        assert len(trajs) == 2

    def test_steps_ahead_shortens_the_inner_rollout(self):
        spec = self.two_layer()
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        _, _, trajs = maml_value_and_grad(spec, [NEURON_TASK], sched, steps_ahead=2)
        assert trajs[0].n_steps == 2

    @pytest.mark.parametrize("steps_ahead, got", [(2.5, "2.5"), (True, "True")])
    def test_rejects_a_fractional_or_bool_steps_ahead(self, steps_ahead, got):
        sched = init_weights_control((np.full((3, 1), 0.3), np.full((1, 3), -0.2)))
        with pytest.raises(ValueError, match=f"steps_ahead must be a whole number, got {got}"):
            maml_value_and_grad(self.two_layer(), [NEURON_TASK], sched, steps_ahead=steps_ahead)


class TestEvaluateValue:
    def test_matches_integrate_plus_value(self):
        spec = neuron_spec(dt=0.05, n_steps=15, init_mean=0.2)
        sched = ControlSchedule(kind="scalar_series",
                                values=(np.linspace(-0.1, 0.3, 15),), n_steps=15)
        vspec = ValueSpec(gamma=0.92, cost=CostSpec("quadratic", beta=0.3))
        direct = evaluate_value(spec, NEURON_TASK, sched, vspec)
        traj = integrate(spec, sched, NEURON_TASK)
        np.testing.assert_allclose(direct, value(traj, sched, vspec, spec), rtol=0)

    def test_grad_value_total_equals_evaluate_value(self):
        spec = DynamicsSpec(kind="lr_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=10, init_std=0.2, init_seed=8)
        task = correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, 0.8)
        sched = ControlSchedule(kind="scalar_series", values=(np.full(10, 0.3),),
                                n_steps=10)
        vspec = ValueSpec(gamma=0.97, cost=CostSpec("quadratic", beta=0.05))
        total, _, _ = grad_value(spec, task, sched, vspec)
        np.testing.assert_allclose(total, evaluate_value(spec, task, sched, vspec), rtol=0)



class TestPerStepTables:
    """A pass reads its per-run controls from one map of the schedule's values, with no at() call."""

    def setup_method(self):
        self.spec = neuron_spec(dt=0.01, n_steps=3000, tau_w=1.0)
        gains = np.random.default_rng(5).uniform(0.0, 0.5, size=100)
        self.sched = ControlSchedule(kind="scalar_series", values=(gains,), n_steps=3000, segment=30)
        self.vspec = ValueSpec(gamma=0.99, cost=CostSpec("quadratic", beta=0.3))

    def count_at_calls(self, monkeypatch, fn):
        calls = []
        original = ControlSchedule.at
        monkeypatch.setattr(ControlSchedule, "at", lambda sched, step: calls.append(step) or original(sched, step))
        fn()
        monkeypatch.setattr(ControlSchedule, "at", original)
        return len(calls)

    def test_integrate_calls_at_once_per_segment(self, monkeypatch):
        count = self.count_at_calls(monkeypatch, lambda: integrate(self.spec, self.sched, NEURON_TASK))
        assert count <= self.sched.n_segments

    def test_grad_value_calls_at_once_per_segment(self, monkeypatch):
        traj = integrate(self.spec, self.sched, NEURON_TASK)
        count = self.count_at_calls(
            monkeypatch, lambda: grad_value(self.spec, NEURON_TASK, self.sched, self.vspec, traj=traj)
        )
        assert count <= self.sched.n_segments

    def test_a_task_switch_inside_a_segment_takes_no_at_call(self, monkeypatch):
        tasks = TaskSchedule([NEURON_TASK, two_gaussian_moments(2.0, 1.0)], period_steps=45, n_steps=3000)
        assert len(dynamics._Plan(self.spec, tasks, self.sched).runs) > self.sched.n_segments
        for fn in (lambda: integrate(self.spec, self.sched, tasks),
                   lambda: grad_value(self.spec, tasks, self.sched, self.vspec)):
            assert self.count_at_calls(monkeypatch, fn) == 0

    @pytest.mark.parametrize("kind", ["single_neuron", "single_layer"])
    def test_a_closed_form_takes_no_at_call(self, monkeypatch, kind):
        spec, sched, task, _ = sgd_case(kind)
        closed_form = getattr(dynamics, f"closed_form_{kind}")
        times = np.linspace(0.0, 1.2 * spec.horizon, 9)  # probes inside runs, on their starts and past the last
        assert self.count_at_calls(monkeypatch, lambda: closed_form(sched, task, spec, times)) == 0

    def test_the_tanh_twin_takes_no_at_call(self, monkeypatch):
        spec, sched, task, _ = sgd_case("nonlinear_taylor")
        assert self.count_at_calls(
            monkeypatch, lambda: dynamics.simulate_sgd(spec, sched, task, 8, 0, eval_batch=64)
        ) == 0

    def test_value_reads_no_per_step_slices(self, monkeypatch):
        traj = integrate(self.spec, self.sched, NEURON_TASK)
        count = self.count_at_calls(monkeypatch, lambda: value(traj, self.sched, self.vspec, self.spec))
        assert count == 0


@pytest.mark.parametrize("kind", [kind for kind in STACK_KINDS if kind != "single_layer"])
def test_a_plan_keeps_no_rollout_alive_between_sweeps(kind):
    spec, task, sched = stack_case(kind, "switching")
    vspec = ValueSpec(gamma=0.9)
    plan = _plan(spec, task, vspec, sched)
    traj = integrate(spec, sched, task, plan=plan)
    rows = weakref.ref(traj.rows)
    grad_value(spec, task, sched, vspec, traj=traj, plan=plan)
    del traj
    assert rows() is None


class TestCategoryScheduleGradient:
    def test_category_engagement_fd(self):
        means = np.array([[1.2, 0.0], [0.0, 1.2], [0.8, 0.8]])
        task = class_mixture_moments(means, 0.4)
        spec = DynamicsSpec(kind="category_engagement", input_dim=2, output_dim=3,
                            hidden_dim=3, dt=0.05, n_steps=12, init_std=0.2, init_seed=6)
        rng = np.random.default_rng(7)
        sched = ControlSchedule(kind="category_series",
                                values=(rng.uniform(0.6, 1.4, (4, 3)),),
                                n_steps=12, segment=3)
        vspec = ValueSpec(gamma=0.95, cost=CostSpec("anchored_norm", beta=0.1, anchor=1.0))
        report = fd_check(spec, task, sched, vspec, coords=6)
        assert report.max_rel < 1e-5


def step_by_step_sweep(spec, task, sched, vspec, traj):
    """The reference sweep: backward_step per step, last first, each step's gradient added with add_grad."""
    n, scale = spec.n_steps, spec.dt / spec.tau_w
    per_step = sched is not None and sched.kind != "init_weights"
    ctrls = [sched.at(i) if per_step else None for i in range(n)]
    tasks = [task_at(task, i) for i in range(n)]
    pw, cw = (w.tolist() for w in _value_weights(vspec, spec))
    buffers = sched.zero_grads() if per_step else None
    states = traj.states
    zero = tuple(np.zeros_like(w) for w in states[n])
    adj = zero
    if pw[n] != 0.0:
        _, _, lgs, lgc = backward_step(spec, states[n], ctrls[-1], tasks[-1], zero)
        adj = tuple(-pw[n] * g for g in lgs)
        if per_step and lgc is not None:
            sched.add_grad(buffers, n - 1, _slice_scale(lgc, -pw[n]))
    for i in range(n - 1, -1, -1):
        svjp, cvjp, lgs, lgc = backward_step(spec, states[i], ctrls[i], tasks[i], adj)
        if per_step:
            g = _slice_scale(cvjp, scale)
            if pw[i] != 0.0:
                g = _slice_axpy(g, lgc, -pw[i])
            if vspec.cost.kind != "none" and cw[i] != 0.0:
                g = _slice_axpy(g, ref_cost_grad(ctrls[i], vspec.cost), -cw[i])
            if g is not None:
                sched.add_grad(buffers, i, g)
        adj = tuple(a + scale * sv - (pw[i] * lg if pw[i] != 0.0 else 0.0)
                    for a, sv, lg in zip(adj, svjp, lgs))
    return buffers if per_step else adj


class TestBatchedSweep:
    """grad_value against the step-by-step sweep through the one-step API, bit for bit.

    The reference adds each step's gradient with add_grad as it goes; grad_value
    sweeps stacks of steps (made small here, so segments straddle stacks) and
    adds each stack's gradients at once.
    """

    VSPECS = {
        "discounted_with_cost": ValueSpec(gamma=0.9, eta=1.3, cost=CostSpec("quadratic", beta=0.2)),
        "per_step_sum": per_step_sum_spec(),  # scores the terminal state too
    }

    @pytest.fixture(autouse=True)
    def small_stacks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SWEEP_CHUNK", 5)

    @pytest.mark.parametrize("vspec", VSPECS)
    @pytest.mark.parametrize("variant", ["switching", "one_task", "neutral"])
    @pytest.mark.parametrize("kind", [k for k in STACK_KINDS if k != "single_layer"])
    def test_gradients_equal_the_step_by_step_sweep(self, kind, variant, vspec):
        spec, task, sched = stack_case(kind, variant)
        if sched is None:  # the baseline is controlled through its initial weights
            sched = init_weights_control(initial_state(spec))
        vspec = self.VSPECS[vspec]
        total, grads, traj = grad_value(spec, task, sched, vspec)
        assert total == value(traj, sched, vspec, spec)
        want = step_by_step_sweep(spec, task, sched, vspec, traj)
        assert len(grads) == len(want)
        for got, ref in zip(grads, want):
            assert same_bits(got, ref)


class TestPassesShareNoResult:
    """What a pass under a plan hands out stays as it was through the plan's next passes.

    The kernels' flows return their own buffers and the adjoint steps update
    the adjoint row in place; neither may reach a rollout or a gradient
    already returned.  The second passes run under other control values.
    """

    VSPEC = ValueSpec(gamma=0.9, eta=1.3, cost=CostSpec("quadratic", beta=0.2))

    @pytest.mark.parametrize("tasks", ["one", "set"])
    @pytest.mark.parametrize("kind", [k for k in STACK_KINDS if k != "single_layer"])
    def test_a_second_integrate_and_grad_value_leave_the_first_results(self, kind, tasks):
        spec, task, sched = stack_case(kind, "switching") if tasks == "one" else task_set_case(kind)
        if sched is None:  # the baseline is controlled through its initial weights
            sched = init_weights_control(initial_state(spec))
        other = sched.project(tuple(0.5 * v + 0.1 for v in sched.values))
        plan = _plan(spec, task, self.VSPEC, sched)
        traj = integrate(spec, sched, task, plan=plan)
        _, grads, _ = grad_value(spec, task, sched, self.VSPEC, traj=traj, plan=plan)
        kept = [np.array(x, copy=True) for x in (*traj.layers, traj.losses, *grads)]
        integrate(spec, other, task, plan=plan)
        grad_value(spec, task, other, self.VSPEC, plan=plan)
        assert all(same_bits(x, k) for x, k in zip((*traj.layers, traj.losses, *grads), kept))


class TestNeuronFloatAdjoint:
    """The single neuron's float sweep in grad_value against the step-by-step sweep, bit for bit.

    The adjoint twin of TestNeuronFloatLoop: a task switch every 5 steps cuts
    the 4-step segments, and the last segment is ragged (23 steps).
    """

    COSTS = {
        "none": CostSpec(),
        "quadratic": CostSpec("quadratic", beta=0.2),
        "exp_frobenius": CostSpec("exp_frobenius", beta=0.2),
        "anchored_norm": CostSpec("anchored_norm", beta=0.2, anchor=0.1),
        "fixed_norm": CostSpec("fixed_norm", beta=0.2, target_norm=0.05),
    }
    VSPECS = {
        **{kind: ValueSpec(gamma=0.9, eta=1.3, cost=cost) for kind, cost in COSTS.items()},
        "per_step_sum": per_step_sum_spec(),  # scores the terminal state too
    }

    def setup_method(self):
        self.task_list = [two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.5, 0.7)]
        self.spec = neuron_spec(dt=0.05, n_steps=23, reg_lambda=0.1)
        gains = np.random.default_rng(2).uniform(-0.4, 0.4, size=6)
        self.series = ControlSchedule(kind="scalar_series", values=(gains,), n_steps=23, segment=4)

    def task(self, name):
        if name == "switching":
            return TaskSchedule(tasks=self.task_list, period_steps=5, n_steps=23)
        return self.task_list[0]

    def schedule(self, name):
        return {"series": self.series, "none": None, "init_weights": init_weights_control((0.3,))}[name]

    def assert_equal_grads(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w) and np.array_equal(g, w)

    @pytest.mark.parametrize("vspec", VSPECS)
    @pytest.mark.parametrize("task", ["switching", "one_task"])
    @pytest.mark.parametrize("sched", ["series", "none", "init_weights"])
    def test_gradients_equal_the_step_by_step_sweep(self, sched, task, vspec):
        task, sched, vspec = self.task(task), self.schedule(sched), self.VSPECS[vspec]
        total, grads, traj = grad_value(self.spec, task, sched, vspec)
        assert total == value(traj, sched, vspec, self.spec)
        self.assert_equal_grads(grads, step_by_step_sweep(self.spec, task, sched, vspec, traj))

    @pytest.mark.parametrize("sched", ["series", "init_weights"])
    def test_a_task_set_sums_the_tasks_step_by_step_sweeps(self, sched):
        sched, vspec = self.schedule(sched), self.VSPECS["quadratic"]
        total, grads, traj = grad_value(self.spec, self.task_list, sched, vspec)
        wants = [step_by_step_sweep(self.spec, t, sched, vspec, tr) for t, tr in zip(self.task_list, traj.per_task())]
        self.assert_equal_grads(grads, tuple(a + b for a, b in zip(*wants)))
        assert total == sum(value(tr, sched, vspec, self.spec) for tr in traj.per_task())

    def test_takes_the_float_branch_not_the_stack_sweeps(self, monkeypatch):
        monkeypatch.setattr(dynamics, "sweeps", None)
        grad_value(self.spec, self.task("switching"), self.series, self.VSPECS["quadratic"])


# --- task sets: one batched rollout and one sweep ------------------------------

PAIR_KINDS = ["two_layer_baseline", "gain_mod", "engagement", "category_engagement", "lr_mod"]
SWEPT_KINDS = [*PAIR_KINDS, "nonlinear_taylor"]  # the array kinds with an adjoint
MAML_TASKS = [two_gaussian_moments(2.0, 0.8), two_gaussian_moments(1.2, 1.0), two_gaussian_moments(0.7, 1.2)]


def task_set_case(kind, reg_lambda=0.05):
    """(spec, three same-shape tasks, the kind's random series schedule or None) from the stacking cases."""
    spec, _, sched = stack_case(kind, "one_task")
    tasks = STACK_KINDS[kind][4]()
    return replace(spec, reg_lambda=reg_lambda), tasks + tasks[:1], sched


def per_task_loop(spec, tasks, sched, vspec):
    """V, gradients and rollouts of a task set, one grad_value per task, summed in task order."""
    parts = [grad_value(spec, t, sched, vspec) for t in tasks]
    total = 0.0
    for v, _, _ in parts:
        total += v
    grads = parts[0][1]
    for _, g, _ in parts[1:]:
        grads = tuple(a + b for a, b in zip(grads, g))
    return total, grads, [p[2] for p in parts]


def assert_same_rollouts(batched, trajs):
    n, b = len(trajs[0].losses) - 1, len(trajs)
    assert batched.losses.shape == (n + 1, b)
    assert all(layer.shape[:2] == (n + 1, b) for layer in batched.layers)
    for got, want in zip(batched.per_task(), trajs):
        assert np.array_equal(got.losses, want.losses)
        assert all(np.array_equal(a, b) for a, b in zip(got.layers, want.layers))


class TestTaskSets:
    """A task set is one rollout with a batch axis after the step axis, and one adjoint sweep."""

    @pytest.fixture(autouse=True)
    def small_stacks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SWEEP_CHUNK", 5)  # stacks straddle segments and the terminal state

    @pytest.mark.parametrize("vspec", ["per_step_sum", "discounted_with_cost"])
    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    def test_init_weights_batched_equals_the_per_task_loop_bitwise(self, kind, vspec):
        spec, tasks, _ = task_set_case(kind)
        sched = init_weights_control(initial_state(spec))
        vspec = TestBatchedSweep.VSPECS[vspec]
        total, grads, traj = grad_value(spec, tasks, sched, vspec)
        want_total, want_grads, want_trajs = per_task_loop(spec, tasks, sched, vspec)
        assert_same_rollouts(traj, want_trajs)
        assert total == want_total
        assert total == value(traj, sched, vspec, spec) == evaluate_value(spec, tasks, sched, vspec)
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))

    @pytest.mark.parametrize("vspec", ["per_step_sum", "discounted_with_cost"])
    @pytest.mark.parametrize("kind", [k for k in SWEPT_KINDS if k != "two_layer_baseline"])
    def test_series_batched_equals_the_per_task_loop(self, kind, vspec):
        # the rollouts and V are bit for bit the per-task ones; the gradient sums the
        # tasks per step before the steps, which reorders additions: 1e-12 relative
        spec, tasks, sched = task_set_case(kind)
        vspec = TestBatchedSweep.VSPECS[vspec]
        total, grads, traj = grad_value(spec, tasks, sched, vspec)
        want_total, want_grads, want_trajs = per_task_loop(spec, tasks, sched, vspec)
        assert_same_rollouts(traj, want_trajs)
        assert total == want_total
        for g, w in zip(grads, want_grads):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("kind", [k for k in PAIR_KINDS if k != "two_layer_baseline"])
    def test_neutral_controls_stay_bitwise_in_the_batched_layout(self, kind):
        spec, tasks, sched = task_set_case(kind)
        neutral = sched.with_values(tuple(np.full_like(v, 0.0 if kind in ("gain_mod", "lr_mod") else 1.0)
                                          for v in sched.values))
        base = integrate(replace(spec, kind="two_layer_baseline"), None, tasks)
        ctrl = integrate(spec, neutral, tasks)
        assert np.array_equal(base.losses, ctrl.losses)
        assert all(np.array_equal(a, b) for a, b in zip(base.layers, ctrl.layers))

    def test_a_kind_without_an_adjoint_rolls_a_task_set_out_batched(self):
        spec, tasks, sched = task_set_case("single_layer")
        assert_same_rollouts(integrate(spec, sched, tasks), [integrate(spec, sched, t) for t in tasks])
        with pytest.raises(UnsupportedOperationError, match="no adjoint for single_layer"):
            grad_value(spec, tasks, sched, TestBatchedSweep.VSPECS["discounted_with_cost"])

    def test_the_single_neuron_rolls_a_task_set_out_one_task_at_a_time(self):
        spec = DynamicsSpec(kind="single_neuron", input_dim=1, output_dim=1, dt=0.1, n_steps=5,
                            reg_lambda=0.05, init_mean=0.3)
        sched = init_weights_control(initial_state(spec))
        total, grads, traj = grad_value(spec, MAML_TASKS, sched, per_step_sum_spec())
        want_total, want_grads, want_trajs = per_task_loop(spec, MAML_TASKS, sched, per_step_sum_spec())
        assert_same_rollouts(traj, want_trajs)
        assert all(type(w) is float for w in traj.per_task()[0].layers[0])
        assert total == want_total
        assert all(np.array_equal(g, w) for g, w in zip(grads, want_grads))


TWO_LAYER_PRESETS = ("task_switch", "effort_allocation", "category_engagement", "class_proportion",
                     "task_engagement", "lr_bilevel", "maml_multistep")


class TestOneTaskSetsAtPresetShapes:
    """A one-task set multiplies through np.matmul, a lone task through ndarray.dot: the same bits.

    Each two-layer preset's spec, value spec and layer shapes, a random
    schedule inside its bounds (the preset's own for init_weights), and one
    task of the preset's (the first of a switching schedule or a set).
    """

    @pytest.mark.parametrize("name", TWO_LAYER_PRESETS)
    def test_rollout_and_gradient_equal_the_lone_task_bitwise(self, name):
        cfg = preset(name)
        spec, task, sched = build(cfg)
        task = task.task_at(0) if isinstance(task, TaskSchedule) else task[0] if dynamics.is_task_set(task) else task
        if sched.kind != "init_weights":
            rng = np.random.default_rng(15)
            sched = sched.with_values(tuple(v + rng.uniform(-0.5, 0.5, v.shape) for v in sched.values)).project()
        lone = grad_value(spec, task, sched, cfg.value)
        one = grad_value(spec, [task], sched, cfg.value)
        assert_same_rollouts(one[2], [lone[2]])
        assert_same_rollouts(integrate(spec, sched, [task]), [integrate(spec, sched, task)])
        assert one[0] == lone[0]
        assert len(one[1]) == len(lone[1])
        assert all(np.array_equal(g, w) for g, w in zip(one[1], lone[1]))


class TestTaskSetMoments:
    """A TaskSet stacks its tasks' moments and means once; the kinds' args read them as they are."""

    def test_a_task_set_stacks_its_moments_once(self):
        spec, tasks, sched = task_set_case("gain_mod")
        ts = dynamics.TaskSet(tasks)
        assert dynamics.TaskSet(ts) is ts and list(ts) == tasks
        assert np.array_equal(ts.sx, np.array([t.sigma_x for t in tasks]))
        assert np.array_equal(ts.sxy_t, np.array([t.sigma_xy.T for t in tasks]))
        assert np.array_equal(ts.tr_sy, np.array([t.sigma_y.trace() for t in tasks]))
        assert np.array_equal(ts.mean_x, np.array([t.mean_x for t in tasks]))
        assert np.array_equal(ts.mean_y, np.array([t.mean_y for t in tasks]))
        args = dynamics._KIND_TABLE["gain_mod"].base(ts, spec)
        assert args.sx is ts.sx and args.sxy_t is ts.sxy_t and args.tr_sy is ts.tr_sy
        taylor = dynamics._KIND_TABLE["nonlinear_taylor"].base(ts, spec)
        assert taylor.mcol.base is ts.mean_x and taylor.ycol.base is ts.mean_y  # the means as the set stacked them
        vspec = TestBatchedSweep.VSPECS["discounted_with_cost"]
        (v_set, g_set, t_set), (v_list, g_list, t_list) = (grad_value(spec, t, sched, vspec) for t in (ts, tasks))
        assert v_set == v_list and all(np.array_equal(a, b) for a, b in zip(g_set, g_list))
        assert_same_rollouts(t_set, t_list.per_task())


# Values recorded from the per-task loop that preceded the batched rollout
# (grad_value once per task, summed in task order).
PINNED_TASK_SETS = {
    "gain_mod": (
        -4.015347769020978,
        [[0.15113780180157435, 0.23393339688207954, 0.08887806895887326, 0.1381849148858832,
          0.04329487202286153, 0.06634566286352117],
         [0.09672819315300762, 0.1799487668323689, 0.08153951280630575, 0.15049842215294212,
          0.05586435099724068, 0.10146983732067945]],
        [((0, 3), 0.1381849148858832, 0.13818491482388914), ((0, 5), 0.06634566286352117, 0.06634566298056545),
         ((1, 0), 0.09672819315300762, 0.09672819381023602), ((1, 1), 0.1799487668323689, 0.17994876661888667)],
        [0.06896551734948564, 0.20541126607469878, 0.3735174968818759],
    ),
    "single_neuron": (
        -3.3728430301543098,
        [[0.9550484703921038]],
        [((0, 0), 0.9550484703921038, 0.9550484707350375)],
        [0.07362757917320821, 0.21319498962887948, 0.37657498972453357],
    ),
    "nonlinear_taylor": (
        -6.170955784803234,
        [[1.0735519623334269, -3.5409934119999127, 4.488623807789091],
         [1.1124030508676905, -2.788288550462269, 5.008676690429459]],
        [((1, 0), 1.1124030508676905, 1.1124030506915006), ((1, 1), -2.788288550462269, -2.7882885505076698),
         ((1, 2), 5.008676690429459, 5.00867669046341)],
        [0.2410968001191779, 0.39955453407106645, 0.4620172388341057],
    ),
}


def pinned_case(kind):
    if kind == "gain_mod":
        spec = DynamicsSpec(kind="gain_mod", input_dim=1, output_dim=1, hidden_dim=2, dt=0.1, n_steps=6,
                            init_std=0.3, init_seed=3)
        sched = ControlSchedule.neutral("matrix_pair_series", 6, segment=2, shapes=((2, 1), (1, 2)))
        return spec, sched.with_values((np.linspace(-0.2, 0.3, 6).reshape(3, 2, 1),
                                        np.linspace(0.25, -0.15, 6).reshape(3, 1, 2)))
    if kind == "single_neuron":
        spec = DynamicsSpec(kind="single_neuron", input_dim=1, output_dim=1, dt=0.1, n_steps=5,
                            reg_lambda=0.05, init_mean=0.3)
    else:
        spec = DynamicsSpec(kind="nonlinear_taylor", input_dim=1, output_dim=1, hidden_dim=3, dt=0.1, n_steps=5,
                            init_std=0.3, init_seed=0)
    return spec, init_weights_control(initial_state(spec))


class TestPinnedTaskSets:
    """maml_value_and_grad and fd_check on task sets, against recorded values.

    Bit for bit, except the gradient under a series schedule (gain_mod), which
    now sums the tasks per step before the steps: 1e-12 relative there.
    """

    @pytest.mark.parametrize("kind", PINNED_TASK_SETS)
    def test_values_gradients_and_fd_entries(self, kind):
        want_v, want_g, want_fd, want_finals = PINNED_TASK_SETS[kind]
        spec, sched = pinned_case(kind)
        total, grads, trajs = maml_value_and_grad(spec, MAML_TASKS, sched)
        assert total == want_v
        assert [float(t.losses[-1]) for t in trajs] == want_finals
        report = fd_check(spec, MAML_TASKS, sched, per_step_sum_spec(), coords=len(want_fd), rng=0)
        got_fd = [(c, a, float(nu)) for c, a, nu, _ in report.entries]
        got_g = [np.asarray(g).ravel().tolist() for g in grads]
        if kind == "gain_mod":
            for got, want in zip(got_g, want_g):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            assert [(c, nu) for c, _, nu in got_fd] == [(c, nu) for c, _, nu in want_fd]
            np.testing.assert_allclose([a for _, a, _ in got_fd], [a for _, a, _ in want_fd], rtol=1e-12, atol=0.0)
        else:
            assert got_g == want_g
            assert got_fd == want_fd


# V, each control array's gradient (raveled) and the rollout's losses of
# stack_case(kind, "switching") under discounted_with_cost; the baseline is
# controlled through its initial weights, as in TestBatchedSweep.
# nonlinear_taylor and single_layer were recorded from the one-step sweep they
# ran before they took stack slots (single_layer has no adjoint, so only its
# losses), the linear pair kinds from the sweep that stacked its steps' task
# and control fields a second time before each step read its own args.
PINNED_SWITCHING = {
    "nonlinear_taylor": (
        -1.2799799990485914,
        [
            [
                -0.042604404922508096, -0.03749282202867475, -0.011312727499379657, 0.0050359847921296295,
                0.025788956111527962, 0.0021238545316529895, -0.006555906048128417, 0.02714478673238087,
                0.029861183273688665, -0.0591076819667137, -0.02367152654828445, 0.016410603328521824,
                -0.008745183372438894, -0.053167674126571196, -0.04622630577953756, -0.04341874102918496,
                0.0001425454774303253, -0.010720311832139883, -0.029019594781868947, 0.026520092033497943,
                -0.016834467788400777, 0.010459411918537491, -0.039414030633934324, 0.025186149329787175,
                -0.028866027209706734, -0.04392965775840731, 0.01226344480876259, -0.04676663835325608,
                -0.03950408813179945, 0.029123843600013806, -0.030772994108529086, 0.03454583290788531,
                -0.01177138357700448, -0.00395434093885486, 0.01913236141890713, 0.00546257495777369,
                -0.03836179375339795, 0.0047605940253763225, 0.01922085600160196, -0.03161414004797752,
                -0.005453967112520809, -0.033135913770011696, 0.005225242789796337, 0.002065735064151067,
                -0.02536619486251565, -0.005757490095570435, -0.003352781600515226, 0.005037650871443147,
            ],
            [
                0.026738990246682044, -0.05263910412358544, 0.028108759077088194, -0.040127545522188404,
                0.0022217377515363016, -0.053245204432406344, -0.006482599572263718, -0.057868864830925945,
                -0.008644755401461736, 0.01034978365948994, -0.027041203102477106, -0.03076526229410957,
                -0.031089252117912546, -0.008484564040748738, 0.018539873811124128, -0.02230626980572568,
                0.0252195427706424, -0.02945423591149773, -0.025108773922740867, -0.00069165256869942,
                -0.03058008342560844, 0.013680193193565636, -0.0007915197194768814, -0.03990871283151552,
                -0.004590894580050341, -0.03245937925083955, -0.013792654183881968, -0.049319155244771706,
                -0.05276430908117767, -0.033673143196140745, -0.03931332877504964, 0.016800394185345978,
                -0.025641551991518387, -0.0403752918407572, 0.0010664598046839925, -0.01610751510447138,
                -0.012572539771581615, -0.05245269032510928, 0.011676402000590374, -0.0014725216943104677,
                0.03552845369561968, -0.003856353050779647, -0.015760750159090134, -0.030409171012324175,
                -0.028629739339601588, 0.0013300691224548584, -0.03485423259601832, 0.010354341805759056,
            ],
        ],
        [
            0.46758773502829626, 0.4571921380286854, 0.44700520630052826, 0.5001301257051325,
            0.47500555025508495, 0.4534825181191249, 0.43039945566558546, 0.3982141467656863,
            0.39183866593231176, 0.3956004180353423, 0.3863813601724597, 0.37753249868826055,
            0.31780725003719645, 0.30987574114967203, 0.33214372529997105, 0.38788593346190464,
            0.38126670268596674, 0.37478790557537967, 0.3931568440849764, 0.38632356542046714,
            0.3798382366162697, 0.30844702821843756, 0.30321104088822176, 0.29865802975744854,
        ],
    ),
    "single_layer": (None, None, [
        1.6132694544897377, 1.0961110931900204, 0.8296075440051222, 0.8395140785751604,
        0.7702342063588205, 0.7137243549521954, 0.6825330425906092, 0.8273149281981594,
        0.7675801735138393, 0.6299001076211852, 0.49546999425529153, 0.40304227960589356,
        0.4715049921143723, 0.4602533856064366, 0.3862868727546022, 0.3482492978160737,
        0.33086897219226574, 0.3211024545180557, 0.2182150247305555, 0.19832896845385997,
        0.18734609341354458, 0.47582134902072737, 0.43753545074863187, 0.41719075868376376,
    ]),
    "two_layer_baseline": (
        -0.8894187709481548,
        [
            [
                -0.3216563091748127, 0.2285727445716295, 0.5887739724278338, -0.3233932363419398, 0.2827501065972937,
                0.07091598663064663,
            ],
            [
                -0.14206869320318447, 0.43711127958198653, 0.3675594847942342, 0.3443763771314715,
                -0.6119046685084659, -0.038490223627739684,
            ],
        ],
        [
            0.9376966498482646, 0.9101801305206192, 0.8818193906859139, 0.8521465816310414, 0.8208230913479019,
            0.7876469282470411, 0.7525661826769618, 0.7555515594136271, 0.7278068341959044, 0.699767233564367,
            0.6716246779077705, 0.6436096190853587, 0.6159785019022884, 0.5889984627450513, 0.4982464795558478,
            0.4624450939502995, 0.42954799694766305, 0.4000649669758942, 0.3742932973280402, 0.3523055419991242,
            0.33396843479979477, 0.4265465766881782, 0.41589155444048337, 0.4059657071309439,
        ],
    ),
    "gain_mod": (
        -1.4434958219810161,
        [
            [
                -0.03874440213488292, -0.019899646553398813, 0.007839955851982616, 0.02678996297731051,
                0.022279366462076667, 0.002725174179618464, 0.00013560149628310007, 0.03393964984548836,
                0.049792272995344763, -0.04393943323884056, -0.024522549436934396, 0.017316263022104407,
                -0.0022050667133788953, -0.04860177198719631, -0.03774283631914593, -0.04271336652446111,
                0.0025592463394061484, -0.006147145442299225, -0.0255851066452243, 0.032276494524752605,
                -0.0105782567281464, 0.02128594590466854, -0.03736600024792003, 0.03366176350210934,
                -0.029965242684348928, -0.05299072024311471, 0.005370484935544767, -0.07032656347747136,
                -0.03763985785147237, 0.03435026387488333, -0.023816634317354635, 0.04571336349679724,
                -0.0016267129496888222, 0.00823951550888501, 0.034396534539466346, -0.0026059312425066243,
                -0.03198232271817985, 0.011917412101102422, 0.038207097117258663, -0.02380724155907825,
                -0.006463038882989215, -0.031930995586480646, -2.5118528891617973e-05, 0.0017105181850719233,
                -0.054246525819933576, -0.008134566912099576, -0.011508629762350198, 0.011395928419222578,
            ],
            [
                0.04329893486767636, -0.03695532562519051, 0.030966554942867073, -0.024911942194336498,
                0.015754302484904247, -0.054979183207852736, -0.0020816768439858558, -0.052255542154577325,
                -0.00044126566237366, 0.017819512581087694, -0.009959269682951391, -0.038634389602329004,
                -0.03083557445239406, -0.0031735504181008853, 0.02747152424522848, -0.011675547969871499,
                0.04049987092815921, -0.02912476277478797, -0.023103650261013298, 0.00036592320181126126,
                -0.025215109522674504, 0.02083813072746295, 0.014834458413154748, -0.04047542104288764,
                -0.009816025035554989, -0.05028373410667848, -0.013965838574478626, -0.055947116662820484,
                -0.06373806434127056, -0.02995511144262589, -0.03398287167921325, 0.03901694354068998,
                -0.022841093881774008, -0.0362677573893114, 0.010206877508599166, -0.016437101344529283,
                -0.009412094999143184, -0.04512592132396906, 0.015246329191097502, 0.011074627393305447,
                0.056502746709868906, -0.007089421442961552, -0.01775472701947408, -0.04208826420758913,
                -0.03374855330445195, -0.0006349706687338658, -0.049990410709727345, 0.016082758524849305,
            ],
        ],
        [
            0.8714923524802485, 0.8098634717637658, 0.7383617765495663, 0.738461579768733, 0.6382903234716099,
            0.5560430493856038, 0.491799134034945, 0.5479551091844084, 0.5036686585074086, 0.5282828599611243,
            0.489367902788583, 0.4577804958361773, 0.3716847178536273, 0.3279094491529955, 0.23027838388115895,
            0.4496893503476991, 0.40748140775881697, 0.371988420110733, 0.3994625720198908, 0.3785228991224924,
            0.35954373384237825, 0.6258567208527653, 0.36072648622351333, 0.3286714185722497,
        ],
    ),
    "engagement": (
        -2.3606819471758422,
        [
            [
                -0.029415113441289553, -0.012650006236273121, -0.009242158333916143, 0.02243680623575553,
                0.033829408116130305, 0.003533370755240106, -0.002979326701750218, 0.024320799152581368,
                0.015587547236105843, -0.0625515336525494, -0.044408147090913, -0.001975039918706248,
                -0.03039084330130851, -0.07104229807623885, -0.047259477633210756, -0.04446518843867645,
            ],
        ],
        [
            1.670321583674958, 1.6132614086869066, 1.5670465005234595, 1.5279803390476643, 1.5118980857249935,
            1.496469576443027, 1.4815861082380979, 1.4616111398755944, 1.451302151085435, 1.44147422908139,
            1.4281429024746706, 1.4150795785320356, 1.4022280074387738, 1.3815483140698017, 1.3895955840440597,
            1.3677972038983, 1.3544772655652428, 1.3411922429486562, 1.3279294125170096, 1.2992043258723298,
            1.268061803379144, 1.217446115362124, 1.1818396523306602, 1.1484261118587953,
        ],
    ),
    "category_engagement": (
        -0.9908973314095252,
        [
            [
                -0.05726176640545044, -0.0486818326613319, -0.03742365555460654, -0.0184154090793628,
                -0.003878588711578171, -0.027698897040532418, -0.029869332034766598, -0.0034094991237466968,
                -0.0036904815957763903, -0.0745002674662322, -0.05071974094544343, -0.017464081351603766,
                -0.03435890535345445, -0.0760613937815596, -0.04773988952806339, -0.04507868133843847,
            ],
        ],
        [
            0.49079128704010644, 0.4830786863818779, 0.47562151520836454, 0.46837335921061607, 0.4668899427359817,
            0.46542779438051407, 0.4639858155045481, 0.4474683872555812, 0.44728589387429046, 0.4471063173623757,
            0.4464939653880259, 0.44588114113747723, 0.4452677257068124, 0.4428486451223315, 0.45264819166612064,
            0.44589803948213613, 0.44418362801874617, 0.4424923712619801, 0.4408214336435955, 0.43389358333058603,
            0.4270106475484216, 0.42010190810717674, 0.4147129877560563, 0.40919993026085133,
        ],
    ),
    "lr_mod": (
        -0.8069757101053145,
        [
            [
                0.03974348145062349, 0.02287107018527753, 0.02809288182645759, 0.03331915235028616,
                0.04223972107130247, 0.0056184596395210396, -0.0031509623254250317, 0.015864731127888974,
            ],
        ],
        [
            0.9376966498482646, 0.8905605103189738, 0.8405425517347408, 0.7857924690910135, 0.7254845959664089,
            0.660431185385675, 0.5927788102281885, 0.6177407885602277, 0.5849008904986824, 0.5538890472215798,
            0.53275013916531, 0.5128892440558767, 0.4943638503855103, 0.483539838313407, 0.3806571100250907,
            0.3671359367312996, 0.3449228632213475, 0.32681812353540607, 0.3123874364375933, 0.3007207504329765,
            0.2917889989807497, 0.4010455318971323, 0.39679776682085205, 0.39258503218633994,
        ],
    ),
}


class TestPinnedSwitchingCases:
    """The switching stack case of the array kinds (runs change inside a stack) against recorded values, bit for bit."""

    @pytest.mark.parametrize("kind", PINNED_SWITCHING)
    def test_value_gradients_and_losses(self, kind):
        want_v, want_g, want_losses = PINNED_SWITCHING[kind]
        spec, task, sched = stack_case(kind, "switching")
        if sched is None:
            sched = init_weights_control(initial_state(spec))
        assert integrate(spec, sched, task).losses.tolist() == want_losses
        if want_v is None:
            return
        total, grads, traj = grad_value(spec, task, sched, TestBatchedSweep.VSPECS["discounted_with_cost"])
        assert total == want_v
        assert [g.ravel().tolist() for g in grads] == want_g
        assert traj.losses.tolist() == want_losses


# --- optimize's plan -------------------------------------------------------------


def plan_case(kind, layout):
    """(spec, task, schedule) of a swept kind over a task set or a task schedule; the baseline takes init_weights."""
    spec, task, sched = task_set_case(kind) if layout == "task_set" else stack_case(kind, "switching")
    return spec, task, init_weights_control(initial_state(spec)) if sched is None else sched


def sweep_bits(spec, task, sched, vspec, **kw):
    """A rollout's layers and losses, then V and the gradient of grad_value on it, as copies."""
    traj = integrate(spec, sched, task, plan=kw["plan"]) if "plan" in kw else integrate(spec, sched, task)
    total, grads, _ = grad_value(spec, task, sched, vspec, traj=traj, **kw)
    return [a.copy() for a in (*traj.layers, traj.losses)], total, [g.copy() for g in grads]


def assert_same_bits(got, want):
    assert len(got[0]) == len(want[0]) and all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
    assert got[1] == want[1]
    assert len(got[2]) == len(want[2]) and all(np.array_equal(a, b) for a, b in zip(got[2], want[2]))


class TestOptimizePlan:
    """optimize's plan (value._plan) changes no bit of integrate and grad_value, and reusing it leaks nothing.

    Small stacks make one grad_value call reuse a sweep workspace across
    stacks, and leave a shorter first stack with a workspace of its own.
    """

    @pytest.fixture(autouse=True)
    def small_stacks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "SWEEP_CHUNK", 5)

    @pytest.mark.parametrize("vspec", TestBatchedSweep.VSPECS)
    @pytest.mark.parametrize("layout", ["task_set", "switching"])
    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    def test_calls_with_the_plan_equal_calls_without(self, kind, layout, vspec):
        spec, task, sched = plan_case(kind, layout)
        vspec = TestBatchedSweep.VSPECS[vspec]
        plan = _plan(spec, task, vspec, sched)
        assert_same_bits(sweep_bits(spec, task, sched, vspec, plan=plan), sweep_bits(spec, task, sched, vspec))
        total, grads, traj = grad_value(spec, task, sched, vspec, plan=plan)
        assert total == grad_value(spec, task, sched, vspec)[0]
        assert value(traj, sched, vspec, spec, plan=plan) == value(traj, sched, vspec, spec) == total

    @pytest.mark.parametrize("layout", ["task_set", "switching"])
    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    def test_one_plan_over_schedules_a_b_a_gives_a_its_bits_twice(self, kind, layout):
        spec, task, a = plan_case(kind, layout)
        vspec = TestBatchedSweep.VSPECS["discounted_with_cost"]
        rng = np.random.default_rng(9)
        b = a.with_values(tuple(v + rng.uniform(-0.3, 0.3, v.shape) for v in a.values)).project()
        plan = _plan(spec, task, vspec, a)
        first = sweep_bits(spec, task, a, vspec, plan=plan)
        kept = grad_value(spec, task, a, vspec, plan=plan)
        kept_bits = [x.copy() for x in (*kept[2].layers, kept[2].losses, *kept[1])]
        assert_same_bits(sweep_bits(spec, task, b, vspec, plan=plan), sweep_bits(spec, task, b, vspec))
        # what a call returned is its own: later calls under the plan leave it alone
        assert all(np.array_equal(x, y) for x, y in zip((*kept[2].layers, kept[2].losses, *kept[1]), kept_bits))
        assert_same_bits(sweep_bits(spec, task, a, vspec, plan=plan), first)

    @pytest.mark.parametrize("kind", SWEPT_KINDS)
    def test_per_task_rollouts_carry_no_args_and_sweep_to_the_lone_bits(self, kind):
        spec, tasks, sched = plan_case(kind, "task_set")
        vspec = TestBatchedSweep.VSPECS["discounted_with_cost"]
        for task, traj in zip(tasks, integrate(spec, sched, tasks).per_task()):
            assert traj.rows is None and traj.args is None
            got = grad_value(spec, task, sched, vspec, traj=traj)
            want = grad_value(spec, task, sched, vspec)
            assert got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))

    @pytest.mark.parametrize("kind", [*SWEPT_KINDS, "single_neuron"])
    def test_a_hand_built_trajectory_sweeps_to_the_rollouts_bits(self, kind):
        if kind == "single_neuron":
            case = TestNeuronFloatAdjoint()
            case.setup_method()
            spec, task, sched = case.spec, case.task("switching"), case.series
        else:
            spec, task, sched = plan_case(kind, "switching")
        vspec = TestBatchedSweep.VSPECS["discounted_with_cost"]
        rollout = integrate(spec, sched, task)
        assert rollout.args is not None
        bare = Trajectory(rollout.times, tuple(list(w) if kind == "single_neuron" else w.copy() for w in rollout.layers),
                          rollout.losses.copy(), rollout.kind)
        got, want = (grad_value(spec, task, sched, vspec, traj=t) for t in (bare, rollout))
        assert got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))
