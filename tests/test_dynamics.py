"""Dynamics oracles: hand-computed steps, closed-form cross-checks, adjoints.

The strategy throughout is dual-route: every integrator result is compared
against an independent computation (explicit arithmetic, an eigenbasis
solution, a finite difference, or a sampled twin), never against itself.
"""

import itertools
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from learning_control import dynamics
from learning_control.control import ControlSchedule, init_weights_control
from learning_control.dynamics import (
    KINDS,
    DynamicsSpec,
    TaskSchedule,
    _rhs,
    backward_step,
    closed_form_single_layer,
    closed_form_single_neuron,
    expected_loss,
    initial_state,
    integrate,
    simulate_sgd,
)
from learning_control.errors import DivergenceError, UnsupportedOperationError
from learning_control.experiments import build, override_param, preset
from learning_control.tasks import (
    TaskMoments,
    class_mixture_moments,
    compose_block_tasks,
    correlated_gaussian_moments,
    linear_regression_floor,
    sample_batch,
    semantic_moments,
    two_gaussian_moments,
)

NEURON_TASK = two_gaussian_moments(1.0, 1.0)  # sigma_x = 2, sigma_xy = 1


def neuron_spec(**kw):
    base = dict(kind="single_neuron", input_dim=1, output_dim=1, tau_w=2.0,
                dt=0.1, n_steps=1, reg_lambda=0.1, init_mean=0.5)
    base.update(kw)
    return DynamicsSpec(**base)


def random_pair_state(rng, spec):
    return (
        rng.standard_normal((spec.hidden_dim, spec.input_dim)) * 0.4,
        rng.standard_normal((spec.output_dim, spec.hidden_dim)) * 0.4,
    )


def pair_task(flip=0.8):
    return correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, flip)


class TestSpecValidation:
    def test_single_neuron_must_be_scalar(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            DynamicsSpec(kind="single_neuron", input_dim=2, output_dim=1)

    def test_two_layer_needs_hidden_units(self):
        with pytest.raises(ValueError, match="hidden_dim"):
            DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=0)

    @pytest.mark.parametrize("field, value, message", [
        ("dt", 0.0, "dt and tau_w must be positive"),
        ("kind", "quadratic_mod", "unknown dynamics kind 'quadratic_mod'"),
        ("n_steps", 0, "n_steps must be positive, got 0"),
        ("init_seed", -1, "init_seed must be nonnegative, got -1"),
        ("nonlinearity", "softsign", "unknown nonlinearity 'softsign'"),
        ("nonlinearity", "identity", "dynamics kind single_neuron ignores nonlinearity: set it to 'tanh', not 'identity'"),
        ("n_steps", 2.5, "n_steps must be a whole number, got 2.5"),
        ("input_dim", 1.5, "input_dim must be a whole number, got 1.5"),
        ("output_dim", True, "output_dim must be a whole number, got True"),
        ("hidden_dim", 0.5, "hidden_dim must be a whole number, got 0.5"),
        ("init_seed", np.True_, "init_seed must be a whole number, got True"),
        ("n_steps", "3", "n_steps must be a whole number, got 3"),
        ("hidden_dim", -1, "hidden_dim must be nonnegative, got -1"),
    ])
    def test_rejects_out_of_range_fields(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            neuron_spec(**{field: value})

    @pytest.mark.parametrize("dims, message", [
        (dict(kind="gain_mod", input_dim=-2, output_dim=0, hidden_dim=3), "input_dim must be positive, got -2"),
        (dict(kind="gain_mod", input_dim=2, output_dim=0, hidden_dim=3), "output_dim must be positive, got 0"),
        (dict(kind="single_layer", input_dim=0, output_dim=2), "input_dim must be positive, got 0"),
    ])
    def test_rejects_a_dimension_below_its_least_value(self, dims, message):
        with pytest.raises(ValueError, match=message):
            DynamicsSpec(**dims)

    def test_whole_counts_of_another_type_are_kept_as_ints(self):
        spec = neuron_spec(n_steps=8.0, input_dim=np.int64(1), init_seed=3.0)
        assert (spec.n_steps, spec.input_dim, spec.init_seed) == (8, 1, 3)
        assert all(type(v) is int for v in (spec.n_steps, spec.input_dim, spec.init_seed))

    def test_horizon(self):
        spec = neuron_spec(dt=0.25, n_steps=8)
        assert spec.horizon == 2.0


class TestInitialState:
    def test_constant_init_skips_the_generator(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=1, hidden_dim=3,
                            init_mean=0.7, init_std=0.0)
        w1, w2 = initial_state(spec)
        np.testing.assert_array_equal(w1, np.full((3, 2), 0.7))
        np.testing.assert_array_equal(w2, np.full((1, 3), 0.7))

    def test_seed_reproducibility(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=2,
                            init_std=0.3, init_seed=17)
        a = initial_state(spec)
        b = initial_state(spec)
        np.testing.assert_array_equal(a[0], b[0])

    def test_override_is_copied(self):
        spec = DynamicsSpec(kind="single_layer", input_dim=2, output_dim=1)
        src = np.ones((1, 2))
        (w,) = initial_state(spec, override=(src,))
        w[0, 0] = 5.0
        assert src[0, 0] == 1.0


class TestSingleNeuronByHand:
    """One Euler step worked out on paper: w0=0.5, g=0.2, mu=1, x2=2,
    lambda=0.1, dt=0.1, tau=2."""

    def test_single_step_weight(self):
        spec = neuron_spec()
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.2]),), n_steps=1)
        traj = integrate(spec, sched, NEURON_TASK)
        # h = 1.2 - 0.5 * (2 * 1.44 + 0.1) = -0.29; w1 = 0.5 + 0.05 * h
        np.testing.assert_allclose(traj.states[1][0], 0.4855, rtol=1e-15)

    def test_loss_at_start(self):
        spec = neuron_spec()
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.2]),), n_steps=1)
        traj = integrate(spec, sched, NEURON_TASK)
        # 0.5 * (1 - 2*1.2*0.5 + 2*0.36) + 0.5*0.1*0.25
        np.testing.assert_allclose(traj.losses[0], 0.2725, rtol=1e-15)

    def test_backward_step_hand_values(self):
        spec = neuron_spec()
        svjp, cvjp, lgs, lgc = backward_step(spec, (0.5,), 0.2, NEURON_TASK, (1.0,))
        np.testing.assert_allclose(svjp[0], -2.98, rtol=1e-15)
        np.testing.assert_allclose(cvjp, -1.4, rtol=1e-15)
        np.testing.assert_allclose(lgs[0], 0.29, rtol=1e-13)
        np.testing.assert_allclose(lgc, 0.1, rtol=1e-14)


class TestFlowIsNegativeLossGradient:
    """For the controlled-map kinds the weight flow must equal the exact
    negative gradient of the expected loss, checked by central differences."""

    def fd_loss_grad(self, spec, state, control, task, eps=1e-6):
        grads = []
        for li, w in enumerate(state):
            g = np.zeros_like(np.atleast_1d(np.asarray(w, dtype=float)))
            flat = g.reshape(-1)
            for j in range(flat.size):
                bump = [np.array(np.atleast_1d(v), dtype=float, copy=True) for v in state]
                bump[li].reshape(-1)[j] += eps
                up = [b if b.ndim else float(b) for b in bump]
                plus = self.loss_of(spec, bump, control, task)
                bump[li].reshape(-1)[j] -= 2 * eps
                minus = self.loss_of(spec, bump, control, task)
                flat[j] = (plus - minus) / (2 * eps)
            grads.append(g.reshape(np.shape(w)))
        return grads

    @staticmethod
    def loss_of(spec, state, control, task):
        if spec.kind == "single_neuron":
            return expected_loss((float(state[0][0]),), control, task, spec)
        return expected_loss(tuple(state), control, task, spec)

    def test_single_neuron(self):
        spec = neuron_spec()
        (h,) = _rhs(spec, (0.5,), 0.2, NEURON_TASK)
        (fd,) = self.fd_loss_grad(spec, (np.array([0.5]),), 0.2, NEURON_TASK)
        np.testing.assert_allclose(h, -fd[0], rtol=1e-8)

    def test_single_layer(self):
        spec = DynamicsSpec(kind="single_layer", input_dim=2, output_dim=2, reg_lambda=0.07)
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 2)) * 0.5
        gain = rng.standard_normal((2, 2)) * 0.2
        task = pair_task()
        (h,) = _rhs(spec, (w,), gain, task)
        (fd,) = self.fd_loss_grad(spec, (w,), gain, task)
        np.testing.assert_allclose(h, -fd, rtol=1e-6, atol=1e-9)

    def test_gain_mod(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            reg_lambda=0.05)
        rng = np.random.default_rng(3)
        state = random_pair_state(rng, spec)
        g1 = rng.standard_normal((3, 2)) * 0.3
        g2 = rng.standard_normal((2, 3)) * 0.3
        task = pair_task()
        h1, h2 = _rhs(spec, state, (g1, g2), task)
        fd = self.fd_loss_grad(spec, state, (g1, g2), task)
        np.testing.assert_allclose(h1, -fd[0], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(h2, -fd[1], rtol=1e-6, atol=1e-9)


class TestEngagementKinds:
    def setup_method(self):
        self.task = compose_block_tasks([two_gaussian_moments(1.0, 0.4), pair_task()])
        self.spec = DynamicsSpec(kind="engagement", input_dim=3, output_dim=3,
                                 hidden_dim=4, reg_lambda=0.02)
        rng = np.random.default_rng(4)
        self.state = random_pair_state(rng, self.spec)

    def test_engagement_scales_error_rows_per_block(self):
        psi = [0.7, 1.3]
        h1, h2 = _rhs(self.spec, self.state, psi, self.task)
        w1, w2 = self.state
        err = self.task.sigma_xy.T - w2 @ w1 @ self.task.sigma_x
        dvec = np.array([0.7, 1.3, 1.3])  # block output sizes are 1 and 2
        err_d = dvec[:, None] * err
        np.testing.assert_allclose(h1, w2.T @ err_d - 0.02 * w1, rtol=1e-13)
        np.testing.assert_allclose(h2, err_d @ w1.T - 0.02 * w2, rtol=1e-13)

    def test_engagement_needs_block_structure(self):
        with pytest.raises(ValueError, match="block"):
            _rhs(self.spec, self.state, [1.0], pair_task())

    def test_engagement_vector_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            _rhs(self.spec, self.state, [1.0, 1.0, 1.0], self.task)

    def test_category_vector_length_checked(self):
        spec = DynamicsSpec(kind="category_engagement", input_dim=3, output_dim=3, hidden_dim=4)
        with pytest.raises(ValueError, match="class engagement length 2 != output dim 3"):
            _rhs(spec, self.state, np.ones(2), self.task)

    def test_engagement_leaves_the_loss_alone(self):
        loss_low = expected_loss(self.state, [0.1, 0.1], self.task, self.spec)
        loss_high = expected_loss(self.state, [5.0, 5.0], self.task, self.spec)
        assert loss_low == loss_high

    def test_category_weights_enter_squared(self):
        spec = DynamicsSpec(kind="category_engagement", input_dim=3, output_dim=3,
                            hidden_dim=4, reg_lambda=0.0)
        phi = np.array([0.5, 1.0, 2.0])
        h1, h2 = _rhs(spec, self.state, phi, self.task)
        w1, w2 = self.state
        err = self.task.sigma_xy.T - w2 @ w1 @ self.task.sigma_x
        err_d = (phi * phi)[:, None] * err
        np.testing.assert_allclose(h1, w2.T @ err_d, rtol=1e-13)
        np.testing.assert_allclose(h2, err_d @ w1.T, rtol=1e-13)

    def test_lr_mod_scales_the_whole_flow(self):
        spec = DynamicsSpec(kind="lr_mod", input_dim=3, output_dim=3, hidden_dim=4,
                            reg_lambda=0.02)
        base = _rhs(replace(spec, kind="two_layer_baseline"), self.state, None, self.task)
        boosted = _rhs(spec, self.state, 0.5, self.task)
        np.testing.assert_allclose(boosted[0], 1.5 * base[0], rtol=1e-15)
        np.testing.assert_allclose(boosted[1], 1.5 * base[1], rtol=1e-15)


class TestNeutralControlsAreExact:
    """Multiplying by a neutral control (gain 0, engagement 1, boost 1) must
    reproduce the uncontrolled trajectory bit for bit, not just closely."""

    def test_gain_mod_neutral_is_bitwise_baseline(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=40, init_std=0.2, init_seed=1)
        task = pair_task()
        shapes = ((3, 2), (2, 3))
        neutral = ControlSchedule.neutral("matrix_pair_series", 40, shapes=shapes)
        a = integrate(spec, neutral, task)
        b = integrate(spec, None, task)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa[0], sb[0]) and np.array_equal(sa[1], sb[1])
        assert np.array_equal(a.losses, b.losses)

    def test_engagement_neutral_is_bitwise_baseline(self):
        task = compose_block_tasks([two_gaussian_moments(1.0, 0.4), pair_task()])
        spec = DynamicsSpec(kind="engagement", input_dim=3, output_dim=3, hidden_dim=4,
                            dt=0.05, n_steps=30, init_std=0.15, init_seed=2)
        neutral = ControlSchedule.neutral("engagement_series", 30, n_channels=2)
        a = integrate(spec, neutral, task)
        b = integrate(spec, None, task)
        for sa, sb in zip(a.states, b.states):
            assert np.array_equal(sa[0], sb[0])
        assert np.array_equal(a.losses, b.losses)


class TestNonlinearTaylor:
    def test_identity_nonlinearity_reduces_to_gain_mod(self):
        """With f(u) = u the first-order propagation collapses algebraically
        onto the linear gained flow; both rhs and loss must agree."""
        task = class_mixture_moments(np.array([[1.0, 0.3], [-0.4, 1.2]]), 0.6)
        lin = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                           reg_lambda=0.04)
        tay = DynamicsSpec(kind="nonlinear_taylor", input_dim=2, output_dim=2,
                           hidden_dim=3, reg_lambda=0.04, nonlinearity="identity")
        rng = np.random.default_rng(6)
        state = random_pair_state(rng, lin)
        g1 = rng.standard_normal((3, 2)) * 0.2
        g2 = rng.standard_normal((2, 3)) * 0.2
        ha = _rhs(lin, state, (g1, g2), task)
        hb = _rhs(tay, state, (g1, g2), task)
        np.testing.assert_allclose(hb[0], ha[0], rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(hb[1], ha[1], rtol=1e-12, atol=1e-14)
        la = expected_loss(state, (g1, g2), task, lin)
        lb = expected_loss(state, (g1, g2), task, tay)
        np.testing.assert_allclose(lb, la, rtol=1e-12)

    def test_tanh_matches_sampled_network_at_small_weights(self):
        """The expansion is exact in the limit of small pre-activations, so a
        wide sampled batch must agree closely on the loss at tiny weights."""
        task = class_mixture_moments(np.array([[0.8, 0.0], [0.0, 0.8]]), 0.4)
        spec = DynamicsSpec(kind="nonlinear_taylor", input_dim=2, output_dim=2,
                            hidden_dim=3, nonlinearity="tanh")
        rng = np.random.default_rng(8)
        state = (rng.standard_normal((3, 2)) * 0.01, rng.standard_normal((2, 3)) * 0.01)
        from learning_control.tasks import sample_batch

        x, y = sample_batch(task, 400_000, np.random.default_rng(5))
        resid = y - np.tanh(x @ state[0].T) @ state[1].T
        sampled = 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))
        np.testing.assert_allclose(expected_loss(state, None, task, spec), sampled, rtol=5e-3)


class TestClosedFormSingleNeuron:
    def exact(self, w0, gain, t, task, spec):
        """Textbook affine-ODE solution, written without phi1."""
        gt = 1.0 + gain
        a = (task.sigma_x[0, 0] * gt * gt + spec.reg_lambda) / spec.tau_w
        b = task.sigma_xy[0, 0] * gt / spec.tau_w
        return w0 * math.exp(-a * t) + (b / a) * (1.0 - math.exp(-a * t))

    def test_constant_gain_against_exponential_solution(self):
        spec = neuron_spec(dt=0.01, n_steps=200)
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.3]),),
                                n_steps=200, segment=200)
        times = np.array([0.0, 0.37, 1.1, 2.0])
        got = closed_form_single_neuron(sched, NEURON_TASK, spec, times)
        for k, t in enumerate(times):
            np.testing.assert_allclose(got[k], self.exact(0.5, 0.3, t, NEURON_TASK, spec),
                                       rtol=1e-12)

    def test_piecewise_gain_composes_segments(self):
        spec = neuron_spec(dt=0.01, n_steps=100)
        sched = ControlSchedule(kind="scalar_series",
                                values=(np.array([0.4, -0.2]),), n_steps=100, segment=50)
        w_mid = self.exact(0.5, 0.4, 0.5, NEURON_TASK, spec)
        w_end = self.exact(w_mid, -0.2, 0.3, NEURON_TASK, spec)
        got = closed_form_single_neuron(sched, NEURON_TASK, spec, np.array([0.8]))
        np.testing.assert_allclose(got[0], w_end, rtol=1e-12)

    def test_euler_error_halves_with_the_step(self):
        """First-order convergence of the explicit scheme toward the exact flow."""
        sched = None
        exact = self.exact(0.5, 0.0, 1.0, NEURON_TASK, neuron_spec())
        errs = []
        for dt, n in ((4e-3, 250), (2e-3, 500)):
            spec = neuron_spec(dt=dt, n_steps=n)
            traj = integrate(spec, sched, NEURON_TASK)
            errs.append(abs(traj.states[-1][0] - exact))
        ratio = errs[0] / errs[1]
        assert 1.7 < ratio < 2.3


CLOSED_FORMS = (closed_form_single_neuron, closed_form_single_layer)

# a kind each closed form does not solve, with the dims it needs
OTHER_KIND = {
    closed_form_single_neuron: dict(kind="lr_mod", hidden_dim=2),
    closed_form_single_layer: dict(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=2),
}


@pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
class TestClosedFormProbes:
    """The probe-time walk both closed forms share, on a 1x1 network of each kind."""

    def spec(self, closed_form, **kw):
        return neuron_spec(kind=closed_form.__name__.removeprefix("closed_form_"), **kw)

    def test_unsorted_and_duplicate_probes(self, closed_form):
        spec = self.spec(closed_form, dt=0.01, n_steps=100)
        times = np.array([0.9, 0.1, 0.9, 0.4])
        got = closed_form(None, NEURON_TASK, spec, times)
        ordered = closed_form(None, NEURON_TASK, spec, np.sort(times))
        np.testing.assert_allclose(got, [ordered[3], ordered[0], ordered[3], ordered[1]],
                                   rtol=1e-13)

    def test_probe_beyond_horizon_returns_final_weight(self, closed_form):
        spec = self.spec(closed_form, dt=0.01, n_steps=50)
        got = closed_form(None, NEURON_TASK, spec, np.array([0.5, 99.0]))
        np.testing.assert_allclose(got[1], got[0], rtol=1e-13)

    def test_a_spec_of_another_kind_is_rejected(self, closed_form):
        spec = neuron_spec(**OTHER_KIND[closed_form])
        with pytest.raises(ValueError, match=f"{closed_form.__name__} needs .* dynamics, not {spec.kind}"):
            closed_form(None, NEURON_TASK, spec, np.array([0.1]))

    def test_negative_probe_rejected(self, closed_form):
        spec = self.spec(closed_form)
        with pytest.raises(ValueError, match="nonnegative"):
            closed_form(None, NEURON_TASK, spec, np.array([-0.5]))

    def test_a_nan_probe_is_rejected(self, closed_form):
        with pytest.raises(ValueError, match="probe times must be nonnegative"):
            closed_form(None, NEURON_TASK, self.spec(closed_form, n_steps=10), np.array([0.05, np.nan]))

    def test_a_schedule_short_of_the_horizon_is_rejected(self, closed_form):
        spec = self.spec(closed_form, dt=0.01, n_steps=20)
        sched = ControlSchedule(kind="scalar_series", values=(np.full(10, 0.2),), n_steps=10, segment=1)
        for call in (lambda: integrate(spec, sched, NEURON_TASK), lambda: closed_form(sched, NEURON_TASK, spec, [0.1])):
            with pytest.raises(ValueError, match="schedule covers 10 steps but dynamics run 20"):
                call()


class TestClosedFormSingleLayer:
    def make_task(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 3))
        sx = a @ a.T / 3 + 0.5 * np.eye(3)
        sxy = rng.standard_normal((3, 1))
        return TaskMoments(sigma_x=sx, sigma_xy=sxy, sigma_y=[[2.0]],
                           mean_x=np.zeros(3), mean_y=np.zeros(1))

    def test_constant_scalar_gain_against_eigenbasis_solution(self):
        task = self.make_task()
        spec = DynamicsSpec(kind="single_layer", input_dim=3, output_dim=1,
                            tau_w=1.5, dt=0.01, n_steps=110, reg_lambda=0.05,
                            init_mean=0.2)
        g = 0.3
        sched = ControlSchedule(kind="scalar_series", values=(np.array([g]),),
                                n_steps=110, segment=110)
        times = np.array([0.0, 0.3, 1.1])
        got = closed_form_single_layer(sched, task, spec, times)

        lam_k, q = np.linalg.eigh(task.sigma_x)
        gt = 1.0 + g
        v0 = q.T @ np.full(3, 0.2)
        bq = gt * (q.T @ task.sigma_xy[:, 0]) / spec.tau_w
        a_k = (gt * gt * lam_k + spec.reg_lambda) / spec.tau_w
        for i, t in enumerate(times):
            v_t = bq / a_k + (v0 - bq / a_k) * np.exp(-a_k * t)
            np.testing.assert_allclose(got[i][0], q @ v_t, rtol=1e-10, atol=1e-12)

    def test_matrix_gain_piecewise_matches_fine_euler(self):
        task = self.make_task()
        spec = DynamicsSpec(kind="single_layer", input_dim=3, output_dim=1,
                            dt=1e-3, n_steps=1000, reg_lambda=0.05, init_mean=0.1)
        rng = np.random.default_rng(12)
        gains = rng.uniform(-0.2, 0.2, size=(4, 1, 3))
        sched = ControlSchedule(kind="matrix_pair_series", values=(gains,),
                                n_steps=1000, segment=250)
        traj = integrate(spec, sched, task)
        got = closed_form_single_layer(sched, task, spec, np.array([1.0]))
        gap = np.max(np.abs(got[0] - traj.states[-1][0]))
        assert gap < 1e-3

    def test_a_stiff_segment_decays_exactly(self):
        """sigma_x = 400: each probe, t = 10 long after the flow settled, is b/a (1 - e^{-at}) to rounding."""
        task = two_gaussian_moments(20.0, 0.0)
        spec = DynamicsSpec(kind="single_layer", input_dim=1, output_dim=1, dt=0.1, n_steps=100)
        times = np.array([0.01, 0.1, 10.0])
        got = closed_form_single_layer(None, task, spec, times)[:, 0, 0]
        a, b = task.sigma_x[0, 0], task.sigma_xy[0, 0]
        np.testing.assert_allclose(got, b / a * -np.expm1(-a * times), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("gain", [np.full((1, 2, 3), -1.0), np.array([-1.0])], ids=["matrix", "scalar"])
    def test_a_zero_gain_segment_without_decay_leaves_the_weights_as_they_are(self, gain):
        """g~ = 0 and lambda = 0 stop the flow: the weights stay where they were, bit for bit."""
        kind = "scalar_series" if gain.ndim == 1 else "matrix_pair_series"
        spec = DynamicsSpec(kind="single_layer", input_dim=3, output_dim=2, dt=0.1, n_steps=10, init_std=0.5)
        sched = ControlSchedule(kind=kind, values=(gain,), n_steps=10, segment=10)
        got = closed_form_single_layer(sched, _layer_task(3, 2, 11), spec, np.array([0.4, 1.0]))
        assert np.array_equal(got, np.stack([initial_state(spec)[0]] * 2))

    def test_single_layer_has_no_adjoint(self):
        spec = DynamicsSpec(kind="single_layer", input_dim=2, output_dim=1)
        with pytest.raises(UnsupportedOperationError, match="closed form"):
            backward_step(spec, (np.zeros((1, 2)),), None, pair_task(), (np.zeros((1, 2)),))


def _layer_task(n_in, n_out, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_in, n_in))
    return TaskMoments(sigma_x=scale * (a @ a.T / n_in + 0.5 * np.eye(n_in)),
                       sigma_xy=rng.standard_normal((n_in, n_out)), sigma_y=np.eye(n_out) * 3.0,
                       mean_x=np.zeros(n_in), mean_y=np.zeros(n_out))


def _series(values, n, segment, kind="scalar_series"):
    return ControlSchedule(kind=kind, values=(np.asarray(values, dtype=float),), n_steps=n, segment=segment)


_NEURON = dict(kind="single_neuron", input_dim=1, output_dim=1)

# (closed form, schedule, task, spec, probe times, the values there), the values recorded from the solvers the
# eigenbasis propagator replaced: a Pade-13 matrix exponential, and the single neuron's own affine step
PINNED_CLOSED_FORMS = {
    "neuron_no_control_lambda0": (
        closed_form_single_neuron, None, two_gaussian_moments(1.0, 1.0),
        DynamicsSpec(**_NEURON, tau_w=2.0, dt=0.1, n_steps=20, init_mean=0.1), [0.0, 0.37, 1.1, 2.0],
        [0.1, 0.22370626774505814, 0.3668515665207682, 0.44586588670535493],
    ),
    "neuron_zero_gain_segment": (
        closed_form_single_neuron, _series([0.4, -1.0, 0.2], 30, 10), two_gaussian_moments(0.8, 0.6),
        DynamicsSpec(**_NEURON, tau_w=1.5, dt=0.1, n_steps=30, reg_lambda=0.1, init_std=0.4, init_seed=3),
        [0.5, 1.5, 2.9, 3.0],
        [0.680914901434732, 0.592659925489476, 0.6034721051253407, 0.6054142341026945],
    ),
    "layer_scalar_gain": (
        closed_form_single_layer, _series([0.3, -0.1], 110, 55), _layer_task(3, 1, 10),
        DynamicsSpec(kind="single_layer", input_dim=3, output_dim=1, tau_w=1.5, dt=0.01, n_steps=110,
                     reg_lambda=0.05, init_mean=0.2), [0.0, 0.3, 1.1],
        [
            [[0.19999999999999998, 0.19999999999999998, 0.19999999999999998]],
            [[0.04906525889243604, -0.011803500385620697, -0.017834234202266902]],
            [[-0.21406816039932935, -0.36266326383733205, -0.3699516679766147]],
        ],
    ),
    "layer_matrix_gain_lambda0": (
        closed_form_single_layer,
        _series(np.random.default_rng(12).uniform(-0.4, 0.6, (4, 2, 3)), 100, 25, "matrix_pair_series"),
        _layer_task(3, 2, 11),
        DynamicsSpec(kind="single_layer", input_dim=3, output_dim=2, dt=0.02, n_steps=100, init_std=0.3,
                     init_seed=5), [0.25, 0.5, 1.3, 2.0],
        [
            [
                [-0.5530887429712473, -0.33495820079480765, -0.09575329470080537],
                [0.39296461205683525, 0.45585641274675176, -0.03999981736896486],
            ],
            [
                [-0.782299010989379, -0.32014052765648354, -0.10017450320296667],
                [0.6112179147856585, 0.565679635729671, -0.10937297576110061],
            ],
            [
                [-1.0791861429428846, -0.44821853201731077, 0.006890232802335174],
                [0.923968942669857, 0.8588072990592337, -0.3384135294250482],
            ],
            [
                [-1.29558198566013, -0.5396592914247511, 0.04146830015752613],
                [0.9122710810127725, 0.9589958846815285, -0.38069833349053744],
            ],
        ],
    ),
    "layer_stiff": (
        closed_form_single_layer, None, _layer_task(3, 1, 16, scale=400.0),
        DynamicsSpec(kind="single_layer", input_dim=3, output_dim=1, dt=0.1, n_steps=100, reg_lambda=0.05,
                     init_mean=-0.1), [0.01, 0.1, 10.0],
        [
            [[-0.015940598285312482, 0.001894937609700796, -0.014206377537648005]],
            [[-0.003937352092808331, 0.0005386825262455927, -0.003816833822067321]],
            [[-0.003937351995637374, 0.0005386825149665654, -0.003816833737852584]],
        ],
    ),
    "layer_correlated_matrix_gain": (
        closed_form_single_layer,
        _series(np.random.default_rng(14).uniform(-0.5, 0.5, (2, 2, 2)), 40, 20, "matrix_pair_series"),
        correlated_gaussian_moments(1.4, 0.9, 0.5, 0.5, 0.8),
        DynamicsSpec(kind="single_layer", input_dim=2, output_dim=2, tau_w=0.7, dt=0.05, n_steps=40, init_std=0.2,
                     init_seed=2), [0.2, 1.0, 2.0],
        [
            [[0.3116826620363085, -0.15689270578565462], [-0.2740168992620308, -0.0687162330059731]],
            [[0.4418365412753445, -0.1404168887611488], [-0.18115126056362, 0.4247641164425796]],
            [[0.5189448785603566, -0.1021863253749091], [-0.11544433838984192, 0.5822671992054925]],
        ],
    ),
}


@pytest.mark.parametrize("case", PINNED_CLOSED_FORMS)
def test_closed_forms_keep_their_recorded_values(case):
    closed_form, sched, task, spec, times, want = PINNED_CLOSED_FORMS[case]
    np.testing.assert_allclose(closed_form(sched, task, spec, np.array(times)), want, rtol=1e-12, atol=0)


# 48 random cases: single neuron and 2x2 single layer, 5-59 steps in 1-8 segments of scalar, matrix or no gains,
# lambda 0 or 0.05, probes at 0, at segment boundaries, at and past the horizon, duplicated and in reverse order.
# The values were recorded from a walk that carried one state forward from probe to probe in time order.
RECORDED_CLOSED_FORMS = json.loads(Path(__file__).with_name("recorded_closed_forms.json").read_text())


@pytest.mark.parametrize("case", RECORDED_CLOSED_FORMS, ids=lambda c: f"{c['spec']['kind']}-{c['spec']['n_steps']}")
def test_closed_forms_agree_with_a_probe_by_probe_walk(case):
    spec = DynamicsSpec(**case["spec"])
    neuron = spec.kind == "single_neuron"
    task = two_gaussian_moments(*case["task"]) if neuron else correlated_gaussian_moments(*case["task"])
    sched = None if case["schedule"] is None else _series(case["gains"], spec.n_steps, case["segment"], case["schedule"])
    got = (closed_form_single_neuron if neuron else closed_form_single_layer)(sched, task, spec, case["probes"])
    want = np.array(case["want"])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.abs(want).max())


def _gain_pair(rng, spec, scale):
    return (rng.standard_normal((spec.hidden_dim, spec.input_dim)) * scale,
            rng.standard_normal((spec.output_dim, spec.hidden_dim)) * scale)


def _neuron_case(rng):
    return neuron_spec(), (0.5 + 0.2 * rng.standard_normal(),), 0.2, NEURON_TASK


def _baseline_case(rng):
    spec = DynamicsSpec(kind="two_layer_baseline", input_dim=2, output_dim=2, hidden_dim=3,
                        reg_lambda=0.02)
    return spec, random_pair_state(rng, spec), None, pair_task()


def _gain_mod_case(rng):
    spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                        reg_lambda=0.03)
    state = random_pair_state(rng, spec)
    return spec, state, _gain_pair(rng, spec, 0.2), pair_task()


def _engagement_case(rng):
    task = compose_block_tasks([two_gaussian_moments(1.0, 0.4), pair_task()])
    spec = DynamicsSpec(kind="engagement", input_dim=3, output_dim=3, hidden_dim=4,
                        reg_lambda=0.02)
    return spec, random_pair_state(rng, spec), np.array([0.8, 1.4]), task


def _category_case(rng):
    spec = DynamicsSpec(kind="category_engagement", input_dim=2, output_dim=2, hidden_dim=3,
                        reg_lambda=0.02)
    return spec, random_pair_state(rng, spec), np.array([0.7, 1.3]), pair_task()


def _lr_mod_case(rng):
    spec = DynamicsSpec(kind="lr_mod", input_dim=2, output_dim=2, hidden_dim=3,
                        reg_lambda=0.02)
    return spec, random_pair_state(rng, spec), 0.4, pair_task()


def _taylor_case(rng):
    task = class_mixture_moments(np.array([[0.9, 0.1], [-0.2, 1.1]]), 0.5)
    spec = DynamicsSpec(kind="nonlinear_taylor", input_dim=2, output_dim=2,
                        hidden_dim=3, reg_lambda=0.01, nonlinearity="tanh")
    state = random_pair_state(rng, spec)
    return spec, state, _gain_pair(rng, spec, 0.15), task


# kind -> rng -> (spec, state, control, task); every kind with an adjoint needs one
VJP_CASES = {
    "single_neuron": _neuron_case,
    "two_layer_baseline": _baseline_case,
    "gain_mod": _gain_mod_case,
    "engagement": _engagement_case,
    "category_engagement": _category_case,
    "lr_mod": _lr_mod_case,
    "nonlinear_taylor": _taylor_case,
}
ADJOINT_KINDS = [k for k in KINDS if k != "single_layer"]  # see test_single_layer_has_no_adjoint


def _dot(xs, ys):
    return sum(float(np.sum(x * y)) for x, y in zip(xs, ys))


class TestBackwardStepAgainstFiniteDifferences:
    EPS = 1e-6

    def check_kind(self, spec, state, control, task, seed):
        """State VJP and loss-versus-state gradient along random directions."""
        rng = np.random.default_rng(seed)
        a_next = tuple(rng.standard_normal(np.shape(w)) for w in state)
        svjp, cvjp, lgs, lgc = backward_step(spec, state, control, task, a_next)

        def dot_h(st):
            return _dot(a_next, _rhs(spec, st, control, task))

        eps = self.EPS
        for li in range(len(state)):
            delta = rng.standard_normal(np.shape(state[li]))
            plus = list(state)
            plus[li] = state[li] + eps * delta
            minus = list(state)
            minus[li] = state[li] - eps * delta
            fd = (dot_h(tuple(plus)) - dot_h(tuple(minus))) / (2 * eps)
            np.testing.assert_allclose(float(np.sum(svjp[li] * delta)), fd,
                                       rtol=2e-5, atol=1e-7)
            fd_loss = (expected_loss(tuple(plus), control, task, spec)
                       - expected_loss(tuple(minus), control, task, spec)) / (2 * eps)
            np.testing.assert_allclose(float(np.sum(lgs[li] * delta)), fd_loss,
                                       rtol=2e-5, atol=1e-7)
        return svjp, cvjp, lgs, lgc, a_next

    def check_control(self, spec, state, control, task, cvjp, lgc, a_next, seed):
        """Control VJP and loss-versus-control gradient along random directions.

        A slice is a float, a vector or a tuple of matrices; each part is
        probed on its own.  A None loss gradient means the loss ignores the
        control, so its difference quotient must vanish exactly.
        """
        if control is None:
            assert cvjp is None and lgc is None
            return
        tupled = isinstance(control, tuple)
        parts = list(control) if tupled else [control]
        vjp_parts = cvjp if tupled else (cvjp,)
        loss_parts = None if lgc is None else (lgc if tupled else (lgc,))
        rng = np.random.default_rng(seed)
        eps = self.EPS

        def bumped(ci, step):
            moved = list(parts)
            moved[ci] = parts[ci] + step
            if np.ndim(moved[ci]) == 0:
                moved[ci] = float(moved[ci])
            return tuple(moved) if tupled else moved[0]

        for ci in range(len(parts)):
            delta = rng.standard_normal(np.shape(parts[ci]))
            plus, minus = bumped(ci, eps * delta), bumped(ci, -eps * delta)
            fd = (_dot(a_next, _rhs(spec, state, plus, task))
                  - _dot(a_next, _rhs(spec, state, minus, task))) / (2 * eps)
            np.testing.assert_allclose(float(np.sum(vjp_parts[ci] * delta)), fd,
                                       rtol=2e-5, atol=1e-7)
            fd_loss = (expected_loss(state, plus, task, spec)
                       - expected_loss(state, minus, task, spec)) / (2 * eps)
            if loss_parts is None:
                assert fd_loss == 0.0
            else:
                np.testing.assert_allclose(float(np.sum(loss_parts[ci] * delta)), fd_loss,
                                           rtol=2e-5, atol=1e-7)

    def check_case(self, kind, seed):
        spec, state, control, task = VJP_CASES[kind](np.random.default_rng(seed))
        _, cvjp, _, lgc, a_next = self.check_kind(spec, state, control, task, seed=seed + 1)
        self.check_control(spec, state, control, task, cvjp, lgc, a_next, seed=seed + 2)

    @pytest.mark.parametrize("kind", ADJOINT_KINDS)
    def test_every_adjoint_kind(self, kind):
        self.check_case(kind, seed=100)

    def test_gain_mod_vjps(self):
        self.check_case("gain_mod", seed=20)

    def test_engagement_vjps(self):
        self.check_case("engagement", seed=23)

    def test_lr_mod_vjps(self):
        self.check_case("lr_mod", seed=25)

    def test_nonlinear_taylor_vjps(self):
        self.check_case("nonlinear_taylor", seed=27)


class TestExpectedLossFloors:
    def test_loss_at_least_squares_solution_hits_the_floor(self):
        task = pair_task()
        spec = DynamicsSpec(kind="single_layer", input_dim=2, output_dim=2, reg_lambda=0.0)
        w_star = np.linalg.solve(task.sigma_x, task.sigma_xy).T
        loss = expected_loss((w_star,), None, task, spec)
        np.testing.assert_allclose(loss, linear_regression_floor(task), rtol=1e-13)

    def test_loss_is_above_floor_elsewhere(self):
        task = pair_task()
        spec = DynamicsSpec(kind="single_layer", input_dim=2, output_dim=2)
        rng = np.random.default_rng(30)
        for _ in range(5):
            w = rng.standard_normal((2, 2))
            assert expected_loss((w,), None, task, spec) >= linear_regression_floor(task)


class TestIntegrationPlumbing:
    def test_trajectory_shapes_and_times(self):
        spec = neuron_spec(dt=0.2, n_steps=5)
        traj = integrate(spec, None, NEURON_TASK)
        assert len(traj.states) == 6 and traj.n_steps == 5
        np.testing.assert_allclose(traj.times, np.arange(6) * 0.2, rtol=1e-15)

    def test_terminal_loss_scored_under_last_control(self):
        spec = neuron_spec(dt=0.05, n_steps=2)
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.0, 0.5]),),
                                n_steps=2)
        traj = integrate(spec, sched, NEURON_TASK)
        w_end = traj.states[-1][0]
        np.testing.assert_allclose(
            traj.losses[-1], expected_loss((w_end,), 0.5, NEURON_TASK, spec), rtol=1e-15
        )

    def test_init_weights_schedule_sets_the_start(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=2,
                            dt=0.05, n_steps=3, init_std=0.5, init_seed=9)
        w0 = (np.full((2, 2), 0.25), np.full((2, 2), -0.5))
        traj = integrate(spec, init_weights_control(w0), pair_task())
        np.testing.assert_array_equal(traj.states[0][0], w0[0])
        np.testing.assert_array_equal(traj.states[0][1], w0[1])

    @pytest.mark.parametrize("start", ["state0", "init_weights"])
    def test_a_start_that_does_not_fit_the_spec_is_rejected(self, start):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=2, dt=0.05, n_steps=3)
        w0 = (np.full((3, 2), 0.25), np.full((2, 3), -0.5))  # hidden width 3, not 2
        call = (None, pair_task(), w0) if start == "state0" else (init_weights_control(w0), pair_task())
        with pytest.raises(ValueError, match=r"shapes \(\(3, 2\), \(2, 3\)\) do not fit the spec's \(\(2, 2\), \(2, 2\)\)"):
            integrate(spec, *call)

    def test_schedule_length_mismatch_rejected(self):
        spec = neuron_spec(n_steps=5)
        sched = ControlSchedule.neutral("scalar_series", n_steps=4)
        with pytest.raises(ValueError, match="covers"):
            integrate(spec, sched, NEURON_TASK)

    def test_out_of_bounds_schedule_warns_and_clamps(self):
        spec = neuron_spec(dt=0.05, n_steps=2)
        wild = ControlSchedule(kind="scalar_series", values=(np.array([5.0, 5.0]),),
                               n_steps=2, bounds=(0.0, 0.5))
        with pytest.warns(UserWarning, match="bounds"):
            traj = integrate(spec, wild, NEURON_TASK)
        tame = ControlSchedule(kind="scalar_series", values=(np.array([0.5, 0.5]),),
                               n_steps=2, bounds=(0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ref = integrate(spec, tame, NEURON_TASK)
        np.testing.assert_array_equal(traj.losses, ref.losses)

    def test_divergence_guard(self):
        spec = neuron_spec(dt=50.0, n_steps=60, tau_w=0.1)
        with pytest.raises(DivergenceError, match="exceeded"):
            integrate(spec, None, NEURON_TASK)

    def test_a_loss_past_the_float_range_is_a_divergence_at_its_step(self):
        # (1 + g) w squares past the float range, which Python floats raise as OverflowError
        spec = neuron_spec(n_steps=5, init_mean=0.1)
        sched = ControlSchedule(kind="scalar_series", values=(np.array([0.0, 1e200]),), n_steps=5, segment=3,
                                bounds=(0.0, math.inf))
        with pytest.raises(DivergenceError, match="weight magnitude inf exceeded 1e\\+06 at step 3"):
            integrate(spec, sched, NEURON_TASK)

    def test_sgd_divergence_guard_reports_the_magnitude(self):
        spec = neuron_spec(dt=50.0, n_steps=60, tau_w=0.1)
        with pytest.raises(DivergenceError, match="exceeded"):
            simulate_sgd(spec, None, NEURON_TASK, batch_size=8, seed=0)


class TestTaskSwitching:
    def test_task_at_cycles(self):
        t1, t2 = two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.0, 0.3)
        sched = TaskSchedule(tasks=[t1, t2], period_steps=2, n_steps=6)
        assert sched.task_at(0) is t1 and sched.task_at(2) is t2 and sched.task_at(4) is t1
        assert sched.switch_steps == [2, 4]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimensions"):
            TaskSchedule(tasks=[two_gaussian_moments(), pair_task()], period_steps=1, n_steps=2)

    def test_period_below_one_rejected(self):
        with pytest.raises(ValueError, match="period_steps must be positive"):
            TaskSchedule(tasks=[two_gaussian_moments()], period_steps=0, n_steps=2)

    @pytest.mark.parametrize("period, n_steps, message", [
        (2.5, 10, "period_steps must be a whole number, got 2.5"),
        (True, 10, "period_steps must be a whole number, got True"),
        (2, 0, "n_steps must be positive, got 0"),
    ])
    def test_a_count_that_is_not_whole_or_below_one_rejected(self, period, n_steps, message):
        with pytest.raises(ValueError, match=message):
            TaskSchedule(tasks=[two_gaussian_moments()], period_steps=period, n_steps=n_steps)

    def test_integrated_losses_follow_the_active_task(self):
        t1, t2 = two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.5, 0.3)
        spec = neuron_spec(dt=0.02, n_steps=4, reg_lambda=0.0)
        sched = TaskSchedule(tasks=[t1, t2], period_steps=2, n_steps=4)
        traj = integrate(spec, None, sched)
        w2 = traj.states[2][0]
        np.testing.assert_allclose(traj.losses[2], expected_loss((w2,), None, t2, spec),
                                   rtol=1e-15)

    def test_sgd_rejects_task_switching(self):
        t1, t2 = two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.0, 0.3)
        spec = neuron_spec(dt=0.02, n_steps=4)
        sched = TaskSchedule(tasks=[t1, t2], period_steps=2, n_steps=4)
        with pytest.raises(UnsupportedOperationError, match="switching"):
            simulate_sgd(spec, None, sched, batch_size=8, seed=0)

    @pytest.mark.parametrize("n", [12, 11, 3, 1])
    def test_runs_take_task_at_of_their_first_step(self, n):
        t1, t2 = two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.0, 0.3)
        sched = TaskSchedule(tasks=[t1, t2], period_steps=3, n_steps=12)
        spec = neuron_spec(n_steps=n)
        plan = dynamics._Plan(spec, sched, None)
        assert [(lo, hi) for lo, hi, _ in plan.runs] == [(lo, min(lo + 3, n)) for lo in range(0, n, 3)]
        assert all(t is sched.task_at(lo) for lo, _, t in plan.runs)
        assert plan.args(None) == [dynamics._slice_args(None, t, spec) for _, _, t in plan.runs]


class TestNeuronFloatLoop:
    """The single-neuron path of integrate against the kind table, step by step."""

    def setup_method(self):
        t1, t2 = two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.5, 0.7)
        self.spec = neuron_spec(dt=0.05, n_steps=23, reg_lambda=0.1)
        self.tasks = TaskSchedule(tasks=[t1, t2], period_steps=5, n_steps=23)
        gains = np.random.default_rng(2).uniform(-0.4, 0.4, size=6)
        self.sched = ControlSchedule(kind="scalar_series", values=(gains,), n_steps=23, segment=4,
                                     bounds=(-0.5, 0.5))

    def roll_through_the_kind_table(self):
        spec, n = self.spec, self.spec.n_steps
        scale = spec.dt / spec.tau_w
        state = initial_state(spec)
        states, losses = [state], []
        for i in range(n):
            ctrl, task = self.sched.at(i), self.tasks.task_at(i)
            losses.append(expected_loss(state, ctrl, task, spec))
            state = tuple(w + scale * h for w, h in zip(state, _rhs(spec, state, ctrl, task)))
            states.append(state)
        losses.append(expected_loss(state, self.sched.at(n - 1), self.tasks.task_at(n - 1), spec))
        return states, losses

    def test_states_and_losses_equal_the_kind_table_roll(self):
        traj = integrate(self.spec, self.sched, self.tasks)
        states, losses = self.roll_through_the_kind_table()
        assert traj.states == states
        assert traj.losses.tolist() == losses

    def test_states_are_python_floats(self):
        traj = integrate(self.spec, self.sched, self.tasks)
        assert all(type(s[0]) is float for s in traj.states)

    @pytest.mark.parametrize("segment, period", [(4, 5), (3, 7), (6, 4), (5, 5), (1, 3), (23, 2), (7, 30)])
    def test_run_table_forward_equals_the_kind_table_roll(self, segment, period):
        n = self.spec.n_steps
        gains = np.random.default_rng(segment).uniform(-0.4, 0.4, size=-(-n // segment))
        self.sched = ControlSchedule(kind="scalar_series", values=(gains,), n_steps=n, segment=segment)
        self.tasks = replace(self.tasks, period_steps=period)
        # a run ends at every segment boundary and at every task switch
        cuts = sorted({0, n, *range(0, n, segment), *range(0, n, period)})
        plan = dynamics._Plan(self.spec, self.tasks, self.sched)
        assert [(lo, hi) for lo, hi, _ in plan.runs] == list(zip(cuts, cuts[1:]))
        assert all(t is self.tasks.task_at(lo) for lo, _, t in plan.runs)
        assert plan.args(self.sched) == [dynamics._slice_args(self.sched.at(lo), t, self.spec) for lo, _, t in plan.runs]
        self.test_states_and_losses_equal_the_kind_table_roll()


def sgd_case(kind):
    """(spec, schedule, task, class_counts) of a 12-step sampled twin of `kind`, its controls drawn in bounds."""
    rng = np.random.default_rng(len(kind))
    n, seg = 12, 5
    dims = {"single_neuron": (1, 1, 0), "engagement": (4, 4, 2)}.get(kind, (2, 2, 2))
    spec = DynamicsSpec(kind=kind, input_dim=dims[0], output_dim=dims[1], hidden_dim=dims[2], dt=0.05, n_steps=n,
                        reg_lambda=0.01, init_std=0.3, init_seed=3)
    task, counts = pair_task(), None

    def series(ctrl, *shapes, lo=-0.5, hi=1.0):
        values = tuple(rng.uniform(lo, hi, (3, *s)) for s in shapes)
        return ControlSchedule(kind=ctrl, values=values, n_steps=n, segment=seg, bounds=(lo, hi))

    sched = None
    if kind == "single_neuron":
        task, sched = two_gaussian_moments(1.0, 1.0), series("scalar_series", ())
    elif kind == "single_layer":
        sched = series("matrix_pair_series", (2, 2))
    elif kind in ("gain_mod", "nonlinear_taylor"):
        sched = series("matrix_pair_series", (2, 2), (2, 2))
    elif kind == "lr_mod":
        sched = series("scalar_series", ())
    elif kind == "engagement":
        task, sched = compose_block_tasks([pair_task(0.8), pair_task(0.6)]), series("engagement_series", (2,), lo=0.0)
    elif kind == "category_engagement":
        task = class_mixture_moments(np.array([[1.5, 0.0], [0.0, 1.5]]), 0.3)
        sched = series("category_series", (2,), lo=0.0)
        counts = np.stack([rng.multinomial(16, [0.5, 0.5]) for _ in range(n)])
    return spec, sched, task, counts


class TestSampledTwin:
    # recorded from the twin's own step loop, before the moment kinds ran through integrate
    @pytest.mark.parametrize("kind, loss, final", [
        ("single_neuron", 0.25074887505867177, [0.2802916777034583]),
        ("single_layer", 0.3470247309717913,
         [[[0.403594522004642, -0.17476036355678937], [-0.2387533192345907, 0.23389208757592148]]]),
        ("two_layer_baseline", 0.33873109840682847,
         [[[0.5901861968062692, -0.8244721634120793], [0.10607383685347078, -0.17021417025300056]],
          [[0.38192515874724003, 0.0391548351649927], [-0.5800752857593029, -0.06618757378133752]]]),
        ("gain_mod", 0.39004074877832456,
         [[[0.5638412917109478, -0.6606841567365203], [0.11163220714556556, -0.15833537250213725]],
          [[0.33476845868777255, 0.047475919370811456], [-0.37079770889239133, -0.04747256679631303]]]),
        ("engagement", 1.367485234515897,
         [[[0.5940454877775145, -0.7720319614186797, 0.11072521508299873, -0.18092678860621034],
           [0.3043359396816447, -0.2060033430915868, -0.2493626031065411, -0.15470267020994877]],
          [[0.15838028553417216, 0.8605649552497656], [-0.3406485963194681, -0.15310367758899526],
           [-0.033475835625675965, -0.23830257288330012], [-0.27879440107112236, -0.1012721330404988]]]),
        ("lr_mod", 0.3267209078003738,
         [[[0.5927249391671403, -0.8311463040829962], [0.10577724041300257, -0.17082553966938552]],
          [[0.41180602031380714, 0.044698348092968535], [-0.5778055067936074, -0.06607980852513475]]]),
        ("category_engagement", 0.2981765711158858,  # with class_counts
         [[[0.4687518966265249, -0.8174452271476139], [0.09074056139812547, -0.1755653891916805]],
          [[0.1192291776725116, -0.013429106139959929], [-0.5547346305614115, -0.06104888487358087]]]),
        ("nonlinear_taylor", 0.330798755522912,
         [[[0.5295712985136507, -0.8250146590206], [0.12219849633369306, -0.18667725743607844]],
          [[0.26580516901506485, 0.07778605566770737], [-0.6143393150551055, -0.11356693862446336]]]),
    ])
    def test_final_loss_and_weights_are_pinned(self, kind, loss, final):
        spec, sched, task, counts = sgd_case(kind)
        traj = simulate_sgd(spec, sched, task, 16, [5, 1], class_counts=counts, eval_batch=64)
        assert traj.losses[-1] == loss
        assert [w if isinstance(w, float) else w.tolist() for w in traj.states[-1]] == final

    def test_category_kind_on_sampled_moments_equals_a_roll_through_the_one_step_api(self):
        spec, task, sched = build(preset("class_proportion"))
        sched = sched.with_values((np.random.default_rng(1).uniform(0.0, 2.0, sched.values[0].shape),))
        traj = simulate_sgd(spec, sched, task, 16, 0)
        rng, scale, n = np.random.default_rng(0), spec.dt / spec.tau_w, spec.n_steps
        state = initial_state(spec)
        states, losses = [state], []
        for i in range(n):
            emp = dynamics._EmpiricalMoments(*sample_batch(task, 16, rng), task.blocks)
            losses.append(expected_loss(state, sched.at(i), task, spec))
            state = tuple(w + scale * h for w, h in zip(state, _rhs(spec, state, sched.at(i), emp)))
            states.append(state)
        losses.append(expected_loss(state, sched.at(n - 1), task, spec))
        assert traj.losses.tolist() == losses
        assert all(np.array_equal(a, b) for s, t in zip(traj.states, states) for a, b in zip(s, t))

    @pytest.mark.parametrize("rows", [11, 13])
    def test_class_counts_need_one_row_per_step(self, rows):
        spec, _, task, counts = sgd_case("category_engagement")
        with pytest.raises(ValueError, match=f"class_counts has {rows} rows but dynamics run 12 steps"):
            simulate_sgd(spec, None, task, 16, 0, class_counts=np.resize(counts, (rows, 2)))

    def test_class_counts_rows_are_whole_nonnegative_counts(self):
        spec, _, task, counts = sgd_case("category_engagement")
        counts = np.array(counts, dtype=float)
        counts[4, 0] += 0.5
        with pytest.raises(ValueError, match="counts must be nonnegative whole numbers"):
            simulate_sgd(spec, None, task, 16, 0, class_counts=counts)

    def test_class_counts_need_a_linear_two_layer_kind(self):
        spec, _, task, counts = sgd_case("category_engagement")
        for kind in ("nonlinear_taylor", "single_layer"):
            with pytest.raises(UnsupportedOperationError, match=f"drive a linear two-layer kind, not {kind}"):
                simulate_sgd(replace(spec, kind=kind), None, task, 16, 0, class_counts=counts)

    def test_a_task_set_is_unsupported(self):
        spec, _, _, _ = sgd_case("two_layer_baseline")
        with pytest.raises(UnsupportedOperationError, match="no task set"):
            simulate_sgd(spec, None, [pair_task(0.8), pair_task(0.6)], 16, 0)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_size_must_be_positive(self, batch):
        spec, sched, task, _ = sgd_case("gain_mod")
        with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch}"):
            simulate_sgd(spec, sched, task, batch, 0)

    @pytest.mark.parametrize("batch", [2.5, True, np.True_])
    def test_a_fractional_or_bool_batch_size_is_refused(self, batch):
        spec, sched, task, _ = sgd_case("gain_mod")
        with pytest.raises(ValueError, match=f"batch_size must be a whole number, got {batch}"):
            simulate_sgd(spec, sched, task, batch, 0)

    def test_a_whole_float_batch_size_draws_as_its_int(self):
        spec, sched, task, _ = sgd_case("gain_mod")
        np.testing.assert_array_equal(simulate_sgd(spec, sched, task, 4.0, 0).losses,
                                      simulate_sgd(spec, sched, task, 4, 0).losses)

    def test_an_out_of_bounds_schedule_warns_once(self):
        spec, sched, task, _ = sgd_case("gain_mod")
        wild = sched.with_values(tuple(3.0 * v for v in sched.values))
        assert wild.out_of_bounds()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traj = simulate_sgd(spec, wild, task, 16, 0)
        assert [str(w.message) for w in caught] == ["control schedule leaves its bounds; clamping for integration"]
        np.testing.assert_array_equal(traj.losses, simulate_sgd(spec, wild.project(), task, 16, 0).losses)

    def test_same_seed_is_deterministic(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=20, init_std=0.1, init_seed=3)
        a = simulate_sgd(spec, None, pair_task(), batch_size=32, seed=11)
        b = simulate_sgd(spec, None, pair_task(), batch_size=32, seed=11)
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_recorded_losses_are_exact_at_the_noisy_weights(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=10, init_std=0.1, init_seed=3)
        traj = simulate_sgd(spec, None, pair_task(), batch_size=16, seed=5)
        for i in (0, 4, 10):
            np.testing.assert_allclose(
                traj.losses[i], expected_loss(traj.states[i], None, pair_task(), spec),
                rtol=1e-14,
            )

    def test_large_batches_approach_the_mean_flow(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=0.05, n_steps=30, init_std=0.2, init_seed=6)
        task = pair_task()
        exact = integrate(spec, None, task)

        def final_gap(batch):
            noisy = simulate_sgd(spec, None, task, batch_size=batch, seed=7)
            return max(
                float(np.max(np.abs(noisy.states[-1][k] - exact.states[-1][k])))
                for k in range(2)
            )

        small, large = final_gap(100), final_gap(40_000)
        assert large < small
        assert large < 0.05

    def test_class_counts_drive_the_batch_composition(self):
        means = np.array([[1.5, 0.0], [0.0, 1.5]])
        task = class_mixture_moments(means, 0.3)
        spec = DynamicsSpec(kind="category_engagement", input_dim=2, output_dim=2,
                            hidden_dim=3, dt=0.05, n_steps=8, init_std=0.1, init_seed=4)
        only_first = np.tile([16, 0], (8, 1))
        uniform = np.tile([8, 8], (8, 1))
        a = simulate_sgd(spec, None, task, batch_size=16, seed=9, class_counts=only_first)
        b = simulate_sgd(spec, None, task, batch_size=16, seed=9, class_counts=uniform)
        assert not np.array_equal(a.states[-1][0], b.states[-1][0])

    def test_the_tanh_twin_scores_each_state_as_if_alone(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DIVERGENCE_BLOCK", 5)  # 13 states: the last block is ragged
        spec, sched, task, _ = sgd_case("nonlinear_taylor")
        traj = simulate_sgd(spec, sched, task, 16, [5, 1], eval_batch=64)
        ex, ey = sample_batch(task, 64, np.random.default_rng([5, 1, 0x5EED]))
        for i, state in enumerate(traj.states):
            g1, g2 = sched.at(min(i, spec.n_steps - 1))
            resid = ey - np.tanh(ex @ ((1.0 + g1) * state[0]).T) @ ((1.0 + g2) * state[1]).T
            loss = 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))
            loss += 0.5 * spec.reg_lambda * sum(float(np.sum(np.square(w))) for w in state)
            assert traj.losses[i] == loss

    def test_nonlinear_kind_uses_frozen_eval_batch(self):
        task = class_mixture_moments(np.array([[0.9, 0.0], [0.0, 0.9]]), 0.4)
        spec = DynamicsSpec(kind="nonlinear_taylor", input_dim=2, output_dim=2,
                            hidden_dim=3, dt=0.05, n_steps=6, init_std=0.1, init_seed=2,
                            nonlinearity="tanh")
        a = simulate_sgd(spec, None, task, batch_size=64, seed=[3, 1], eval_batch=256)
        b = simulate_sgd(spec, None, task, batch_size=64, seed=[3, 1], eval_batch=256)
        np.testing.assert_array_equal(a.losses, b.losses)
        c = simulate_sgd(spec, None, task, batch_size=64, seed=[3, 2], eval_batch=256)
        assert not np.array_equal(a.losses, c.losses)


# --- stacked kernels against the one-step API --------------------------------

# kind -> (input, output, control kind, bounds, two tasks sharing dims and blocks)
STACK_KINDS = {
    "single_layer": (2, 2, "matrix_pair_series", (-0.5, 1.0), lambda: [pair_task(0.8), pair_task(0.6)]),
    "two_layer_baseline": (2, 2, None, None, lambda: [pair_task(0.8), pair_task(0.6)]),
    "gain_mod": (2, 2, "matrix_pair_series", (-0.5, 1.0), lambda: [pair_task(0.8), pair_task(0.6)]),
    "engagement": (3, 3, "engagement_series", (0.0, 1.5), lambda: [
        compose_block_tasks([two_gaussian_moments(1.0, 0.4), pair_task(0.8)]),
        compose_block_tasks([two_gaussian_moments(1.5, 0.6), pair_task(0.6)]),
    ]),
    "category_engagement": (2, 2, "category_series", (0.0, 1.5), lambda: [
        class_mixture_moments(np.array([[0.9, 0.1], [-0.2, 1.1]]), 0.5),
        class_mixture_moments(np.array([[1.2, -0.3], [0.1, 0.7]]), 0.6),
    ]),
    "lr_mod": (2, 2, "scalar_series", (-0.5, 1.0), lambda: [pair_task(0.8), pair_task(0.6)]),
    "nonlinear_taylor": (2, 2, "matrix_pair_series", (-0.5, 1.0), lambda: [
        class_mixture_moments(np.array([[0.9, 0.1], [-0.2, 1.1]]), 0.5),
        class_mixture_moments(np.array([[1.2, -0.3], [0.1, 0.7]]), 0.6),
    ]),
}

# variant -> (n_steps, segment, switch period or None for one task, reg_lambda, neutral)
STACK_VARIANTS = {
    "switching": (23, 3, 7, 0.05, False),  # 3 divides neither 7 nor 23
    "one_task": (22, 4, None, 0.0, False),
    "neutral": (22, 4, 5, 0.05, True),
}


def stack_case(kind, variant):
    """(spec, task, schedule) of a stacking case; the schedule is None for the baseline."""
    in_dim, out_dim, control, bounds, make_tasks = STACK_KINDS[kind]
    n, segment, period, lam, neutral = STACK_VARIANTS[variant]
    spec = DynamicsSpec(kind=kind, input_dim=in_dim, output_dim=out_dim,
                        hidden_dim=0 if kind == "single_layer" else 3, dt=0.05, n_steps=n,
                        reg_lambda=lam, init_std=0.3, init_seed=1)
    tasks = make_tasks()
    task = tasks[0] if period is None else TaskSchedule(tasks=tasks, period_steps=period, n_steps=n)
    if control is None:
        return spec, task, None
    shapes = ((out_dim, in_dim),) if kind == "single_layer" else ((3, in_dim), (out_dim, 3))
    sched = ControlSchedule.neutral(control, n, segment=segment, shapes=shapes,
                                    n_channels=2 if control == "engagement_series" else out_dim,
                                    bounds=bounds)
    if not neutral:
        rng = np.random.default_rng(5)
        sched = sched.with_values(tuple(rng.uniform(*bounds, v.shape) for v in sched.values))
    return spec, task, sched


def task_at(task, step):
    return task.task_at(step) if isinstance(task, TaskSchedule) else task


def same_bits(a, b):
    """Equal values and equal signs, so -0.0 is not +0.0 as np.array_equal alone would have it."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestStackedKernels:
    """integrate's batched losses and stored states against the one-step API, bit for bit.

    A small divergence block makes the step loop cross several blocks.
    """

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DIVERGENCE_BLOCK", 5)

    @pytest.mark.parametrize("variant", STACK_VARIANTS)
    @pytest.mark.parametrize("kind", STACK_KINDS)
    def test_rollout_equals_a_roll_through_the_one_step_api(self, kind, variant):
        spec, task, sched = stack_case(kind, variant)
        traj = integrate(spec, sched, task)
        n, scale = spec.n_steps, spec.dt / spec.tau_w

        def ctrl(i):
            return None if sched is None else sched.at(min(i, n - 1))

        state, states = initial_state(spec), traj.states
        for i in range(n + 1):
            assert all(same_bits(a, b) for a, b in zip(states[i], state))
            assert same_bits(traj.losses[i], expected_loss(state, ctrl(i), task_at(task, min(i, n - 1)), spec))
            if i < n:
                hs = _rhs(spec, state, ctrl(i), task_at(task, i))
                state = tuple(w + scale * h for w, h in zip(state, hs))

    @pytest.mark.parametrize("kind", [k for k, entry in STACK_KINDS.items() if entry[2] is not None])
    def test_neutral_schedules_reproduce_the_uncontrolled_rollout(self, kind):
        spec, task, neutral = stack_case(kind, "neutral")
        a, b = integrate(spec, neutral, task), integrate(spec, None, task)
        for la, lb in zip(a.layers, b.layers):
            assert same_bits(la, lb)
        assert same_bits(a.losses, b.losses)

    def test_divergence_is_reported_at_its_step_inside_a_block(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=2.0, n_steps=40, init_std=0.5, init_seed=1)
        step_by_step = None
        state, scale = initial_state(spec), spec.dt / spec.tau_w
        for i in range(spec.n_steps):
            state = tuple(w + scale * h for w, h in zip(state, _rhs(spec, state, None, pair_task())))
            peak = next((float(abs(w).max()) for w in state if not abs(w).max() < 1e6), None)
            if peak is not None:
                step_by_step = f"weight magnitude {peak:.3e} exceeded 1e+06 at step {i};"
                break
        assert step_by_step is not None and not step_by_step.endswith(" 0;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                integrate(spec, None, pair_task())
        assert str(err.value).startswith(step_by_step)

    def test_when_both_layers_pass_the_limit_at_once_the_first_layers_peak_is_reported(self):
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=2.0, n_steps=40, init_std=0.5, init_seed=0)
        step_by_step, peaks = first_divergence(spec, [pair_task()])
        assert 1e6 <= peaks[0] < peaks[1]  # the second layer's peak, or the row's, would be the larger
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                integrate(spec, None, pair_task())
        assert str(err.value).startswith(step_by_step)

    def test_a_task_set_reports_the_first_bad_step_over_its_tasks(self, monkeypatch):
        monkeypatch.setattr(dynamics, "DIVERGENCE_BLOCK", 3)
        spec = DynamicsSpec(kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=3,
                            dt=1.0, n_steps=40, init_std=0.5, init_seed=1)
        tasks = [pair_task(0.8), pair_task(0.2), pair_task(0.5)]
        step_by_step, _ = first_divergence(spec, tasks)
        # the second task diverges first, in the second block; the first task later
        assert step_by_step.endswith(" at step 5;")
        assert first_divergence(spec, tasks[:1])[0].endswith(" at step 6;")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                integrate(spec, None, tasks)
        assert str(err.value).startswith(step_by_step)


# --- a plan's args: one map of the schedule's values against the one-step API's args of each run's at() slice ---

SERIES_KINDS = [kind for kind, entry in dynamics._KIND_TABLE.items() if entry.reads]


def series_case(kind, variant):
    """stack_case's (spec, task, schedule), and the single neuron's under a random scalar series."""
    if kind != "single_neuron":
        return stack_case(kind, variant)
    n, segment, period, lam, _ = STACK_VARIANTS[variant]
    spec = neuron_spec(n_steps=n, reg_lambda=lam)
    tasks = [NEURON_TASK, two_gaussian_moments(2.0, 0.5)]
    task = tasks[0] if period is None else TaskSchedule(tasks=tasks, period_steps=period, n_steps=n)
    gains = np.random.default_rng(5).uniform(-0.5, 1.0, -(-n // segment))
    return spec, task, ControlSchedule(kind="scalar_series", values=(gains,), n_steps=n, segment=segment)


def assert_same_entry(got, want):
    """`got` is `want` entry by entry: equal arrays, equal numbers and the same objects, each of want's type."""
    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_entry(g, w)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got is want or got == want


@pytest.mark.parametrize("variant", ["one_task", "switching"])
@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_a_plans_args_are_each_runs_args_of_its_at_slice(kind, variant):
    spec, task, sched = series_case(kind, variant)
    plan = dynamics._Plan(spec, task, sched)
    if variant == "switching":  # a task switch cuts a run inside a segment
        assert any(lo % sched.segment for lo, _, _ in plan.runs)
    want = [dynamics._slice_args(sched.at(lo), t, spec) for lo, _, t in plan.runs]
    got = plan.args(sched)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_entry(g, w)


@pytest.mark.parametrize("kind", [kind for kind in SERIES_KINDS if kind != "single_neuron"])
def test_a_task_sets_plan_args_are_each_runs_args_of_its_at_slice(kind):
    spec, _, sched = stack_case(kind, "one_task")
    tasks = dynamics.TaskSet(STACK_KINDS[kind][4]())
    plan = dynamics._Plan(spec, tasks, sched)
    want = [dynamics._slice_args(sched.at(lo), tasks, spec) for lo, _, _ in plan.runs]
    for g, w in zip(plan.args(sched), want, strict=True):
        assert_same_entry(g, w)


def first_divergence(spec, tasks):
    """The start of the divergence message, and each layer's peak over the tasks, at the first bad step.

    From rollouts of each task step by step through the one-step API: the
    first layer, in layer order, past the limit at the first step where any
    layer of any task is.
    """
    states, scale = [initial_state(spec)] * len(tasks), spec.dt / spec.tau_w
    for i in range(spec.n_steps):
        states = [tuple(w + scale * h for w, h in zip(s, _rhs(spec, s, None, t))) for s, t in zip(states, tasks)]
        peaks = [max(float(abs(s[k]).max()) for s in states) for k in range(2)]
        bad = [p for p in peaks if not p < 1e6]
        if bad:
            return f"weight magnitude {bad[0]:.3e} exceeded 1e+06 at step {i};", peaks
    raise AssertionError("no divergence")


def _relative_gap(a, b):
    """Norm-based relative difference of two rollouts' layers (a's scaled by `scale`) and losses."""
    return max(
        max(float(np.linalg.norm(la - lb) / np.linalg.norm(lb)) for la, lb in zip(a[0], b.layers)),
        float(np.linalg.norm(a[1] - b.losses) / np.linalg.norm(b.losses)),
    )


class TestConstantControlsRescaleTime:
    """Whole-trajectory oracles (lambda = 0): a constant uniform control is a change of time scale."""

    def case(self, name, **changes):
        spec, task, sched = build(override_param(preset(name), "dynamics.reg_lambda", 0.0))
        return replace(spec, **changes), task, sched

    def test_lr_mod_boost_divides_tau(self):
        c = 0.7
        spec, task, sched = self.case("lr_bilevel")
        boosted = integrate(spec, sched.with_values((np.full_like(sched.values[0], c),)), task)
        base = integrate(replace(spec, kind="two_layer_baseline", tau_w=spec.tau_w / (1 + c)), None, task)
        assert _relative_gap((boosted.layers, boosted.losses), base) < 1e-12

    def test_engagement_weight_divides_tau(self):
        c = 1.3
        spec, task, sched = self.case("task_engagement")
        engaged = integrate(spec, sched.with_values((np.full_like(sched.values[0], c),)), task)
        base = integrate(replace(spec, kind="two_layer_baseline", tau_w=spec.tau_w / c), None, task)
        assert _relative_gap((engaged.layers, engaged.losses), base) < 1e-12

    def test_uniform_gain_rescales_weights_and_tau(self):
        g = 0.4
        spec, task, sched = self.case("effort_allocation")
        gained = integrate(spec, sched.with_values(tuple(np.full_like(v, g) for v in sched.values)), task)
        start = tuple((1 + g) * w for w in initial_state(spec))
        base = integrate(replace(spec, kind="two_layer_baseline", tau_w=spec.tau_w / (1 + g) ** 2),
                         None, task, state0=start)
        effective = tuple((1 + g) * layer for layer in gained.layers)
        assert _relative_gap((effective, gained.losses), base) < 1e-12


def _layouts(rng, rows, cols):
    """A rows x cols operand in each layout the pair kernel passes: C order, a transposed view,
    a slice of a packed row (at an offset) and a transposed slice of one."""
    return {
        "C": rng.standard_normal((rows, cols)),
        "T": rng.standard_normal((cols, rows)).T,
        "row": rng.standard_normal(3 + rows * cols)[3:].reshape(rows, cols),
        "row.T": rng.standard_normal(5 + rows * cols)[5:].reshape(cols, rows).T,
    }


class TestDotMatchesMatmul:
    """The pair kernel multiplies lone rows with ndarray.dot and a task set's with np.matmul.

    Both make the same BLAS call, so a task set keeps a lone task's bits.  If a
    numpy or BLAS upgrade breaks that, these fail instead of preset bits moving.
    Sizes run to 15, the largest layer dimension of the presets (lr_bilevel's 15 x 8).
    """

    @pytest.mark.parametrize("m", range(1, 16))
    def test_every_layout_up_to_the_largest_preset_layer(self, m):
        rng = np.random.default_rng(m)
        for n in range(1, 16):
            for p in range(1, 16):
                for (ka, a), (kb, b) in itertools.product(_layouts(rng, m, n).items(), _layouts(rng, n, p).items()):
                    got, want = np.empty((m, p)), np.empty((m, p))
                    assert np.ndarray.dot(a, b, got) is got
                    assert np.array_equal(got, np.matmul(a, b, want)), (m, n, p, ka, kb)

    @pytest.mark.parametrize("m", range(1, 16))
    def test_a_matrix_times_its_own_transpose(self, m):
        rng = np.random.default_rng(100 + m)
        for n in range(1, 16):
            for a in _layouts(rng, m, n).values():
                got, want = np.empty((m, m)), np.empty((m, m))
                assert np.array_equal(np.ndarray.dot(a, a.T, got), np.matmul(a, a.T, want)), (m, n)


def closed_form_two_layer_modes(s, u0, times, tau):
    """Mode strengths u(t) = s e^{2st/tau} / (e^{2st/tau} - 1 + s/u0) of a two-layer linear net.

    Saxe, McClelland & Ganguli (2014, arXiv:1312.6120): gradient flow from a
    balanced start aligned with the SVD of Sxy^T, with Sx = I and no weight
    decay, keeps the modes decoupled, each a logistic curve.  Rows are times.
    """
    e = np.exp(2.0 * np.outer(times, s) / tau)
    return s * e / (e - 1.0 + s / u0)


class TestTwoLayerModesClosedForm:
    """Euler on the two-layer kernel converges to the exact mode dynamics at first order."""

    U0, TAU, T = 0.01, 1.0, 6.0

    def rollout(self, dt):
        """(times, mode strengths U^T (W2 W1) V, largest off-mode entry) of a balanced, aligned start."""
        task = semantic_moments(3)  # 4 items, 7 features; singular values sqrt 7, sqrt 3, 1, 1
        u, s, vt = np.linalg.svd(task.sigma_xy.T, full_matrices=False)
        spec = DynamicsSpec(kind="two_layer_baseline", input_dim=4, output_dim=7, hidden_dim=len(s),
                            tau_w=self.TAU, dt=dt, n_steps=round(self.T / dt))
        start = (math.sqrt(self.U0) * vt, math.sqrt(self.U0) * u)  # W2 W1 = U (u0 I) V^T, W1 W1^T = W2^T W2
        traj = integrate(spec, None, task, state0=start)
        maps = traj.layers[1] @ traj.layers[0]
        modes = u.T @ maps @ vt.T
        off = np.abs(modes - modes * np.eye(len(s))).max()
        return traj.times, np.diagonal(modes, axis1=1, axis2=2), s, off

    def test_the_task_and_start_fit_the_closed_form(self):
        task = semantic_moments(3)
        assert np.array_equal(task.sigma_x, np.eye(4))
        times, modes, s, off = self.rollout(0.02)
        np.testing.assert_allclose(modes[0], self.U0, rtol=1e-14)
        assert off < 1e-12  # the modes stay decoupled along the Euler path
        np.testing.assert_allclose(modes[-1], s, rtol=1e-3)  # every mode is learned by T

    def test_euler_converges_at_first_order(self):
        errors = []
        for dt in (0.02, 0.01):
            times, modes, s, off = self.rollout(dt)
            k = round(0.02 / dt)  # compare on the coarse grid
            errors.append(np.abs(modes[::k] - closed_form_two_layer_modes(s, self.U0, times[::k], self.TAU)).max())
            assert off < 1e-12
        assert errors[1] < 0.04
        assert 1.9 < errors[0] / errors[1] < 2.1
