"""The single neuron's split passes against the fused float loops they replace, bit for bit.

integrate's single-neuron loop used to score each state's loss and check each
next weight inside the step, and value._neuron_sweep used to form each
step's control-gradient term inside its loop.  Now the loops carry only the
recurrences, and the losses, the divergence check, the weighted loss
gradients and the gradient terms are one numpy pass each.  The fused loops
are kept here as the reference: weights, losses, V and the gradient must
match them bit for bit, and a divergence must be reported at the same step
with the same magnitude.

The passes read each state's moments from their plan's stack, made once,
and add each segment's gradient terms with add_grads; the plan's moments
must hold across schedules, the one-step API's plan-less stacks must give
the passes' bits, and each segment's sum must be the left fold from 0.0.
"""

import functools
import math
import operator
from dataclasses import replace

import numpy as np
import pytest
from test_dynamics import NEURON_TASK, neuron_spec, same_bits

from learning_control import dynamics
from learning_control.control import ControlSchedule, init_weights_control
from learning_control.dynamics import (
    DIVERGENCE_LIMIT,
    TaskSchedule,
    Trajectory,
    backward_step,
    expected_loss,
    initial_state,
    integrate,
    simulate_sgd,
)
from learning_control.errors import DivergenceError
from learning_control.experiments import build, preset
from learning_control.tasks import sample_batch, two_gaussian_moments
from learning_control.value import (
    CostSpec,
    ValueSpec,
    _fold,
    _plan,
    _segment_total,
    _Weights,
    grad_value,
    per_step_sum_spec,
    segment_cost_grads,
    value,
)

VSPECS = {
    "none": ValueSpec(gamma=0.9, eta=1.3),
    "quadratic": ValueSpec(gamma=0.9, eta=1.3, cost=CostSpec("quadratic", beta=0.2)),
    "per_step_sum": per_step_sum_spec(),  # scores the terminal state too
}
TASKS = [two_gaussian_moments(1.0, 0.3), two_gaussian_moments(2.5, 0.7)]


# --- the fused loops, as they were ---------------------------------------------


def fused_loss(w, gt, mu, x2, sy, lam):
    return 0.5 * (sy - 2.0 * gt * w * mu + x2 * (gt * w) ** 2) + 0.5 * lam * w * w


def fused_rollout(spec, plan, args, w):
    """(weights, losses) of the loop that scored each state and checked each next weight in its step."""
    scale, lam, limit = spec.dt / spec.tau_w, spec.reg_lambda, DIVERGENCE_LIMIT
    half_lam = 0.5 * lam
    ws, losses = [w], []
    try:  # a float square past the float range raises where an array would hold inf
        for (lo, hi, _), (gt, mu, x2, sy, _) in zip(plan.runs, args):
            gt2, drive, decay = 2.0 * gt, mu * gt, x2 * gt * gt + lam
            for i in range(lo, hi):
                losses.append(0.5 * (sy - gt2 * w * mu + x2 * (gt * w) ** 2) + half_lam * w * w)
                w = w + scale * (drive - w * decay)
                if not -limit < w < limit:  # a nan too
                    raise dynamics._divergence(abs(w), i)
                ws.append(w)
        losses.append(fused_loss(w, gt, mu, x2, sy, lam))
    except OverflowError:
        raise dynamics._divergence(np.inf, len(losses)) from None  # the step whose loss overflowed
    return ws, np.array(losses)


def fused_sweep(plan, ws, args, segment, pws, cws, cgs):
    """(adjoint at state 0, each segment's gradient) of the sweep that formed every step's terms in its loop."""
    spec, runs = plan.spec, plan.runs
    n, scale, lam = spec.n_steps, spec.dt / spec.tau_w, spec.reg_lambda
    sums = [0.0] * -(-n // segment)
    cgs = [0.0] * len(sums) if cgs is None else cgs
    a = 0.0
    for r in range(len(runs) - 1, -1, -1):
        lo, hi, _ = runs[r]
        hi += r == len(runs) - 1
        gt, mu, x2, _, _ = args[r]
        dhdw, mgt, s = -(x2 * gt * gt + lam), -mu * gt, lo // segment
        acc, cg = sums[s], cgs[s]
        for i in range(hi - 1, lo - 1, -1):
            w, p = ws[i], pws[i]
            xw = x2 * w
            acc += scale * ((mu - 2.0 * w * x2 * gt) * a) + (-p) * (-mu * w + xw * w * gt) + (-cws[i]) * cg
            a = a + scale * (dhdw * a) - (p * (mgt + xw * gt * gt + lam * w) if p != 0.0 else 0.0)
        sums[s] = acc
    return a, sums


def fused_value_and_grad(spec, task, sched, vspec):
    """(V, gradient, weights, losses) of one task through the fused loops."""
    plan = _plan(spec, task, vspec, sched)
    args = plan.args(sched)
    w0 = initial_state(spec, sched.values if sched is not None and sched.kind == "init_weights" else None)[0]
    ws, losses = fused_rollout(spec, plan, args, w0)
    total = value(Trajectory(plan.times, (ws,), losses, spec.kind), sched, vspec, spec)
    cgs = None
    if plan.series and vspec.cost.kind != "none":
        cgs = segment_cost_grads(sched.values, vspec.cost)[0].tolist()
    segment = sched.segment if plan.series else spec.n_steps
    a, sums = fused_sweep(plan, ws, args, segment, plan.weights.pws, plan.weights.cw.tolist(), cgs)
    return total, (np.array(sums),) if plan.series else (np.asarray(a, dtype=float),), ws, losses


def random_series(rng, n, segment, lo=-0.5, hi=1.0):
    values = rng.uniform(lo, hi, -(-n // segment))
    return ControlSchedule(kind="scalar_series", values=(values,), n_steps=n, segment=segment, bounds=(lo, hi))


def assert_same_grads(got, want):
    assert len(got) == len(want)
    assert all(np.shape(g) == np.shape(w) and same_bits(g, w) for g, w in zip(got, want))


def assert_matches_the_fused_loops(spec, task, sched, vspec):
    total, grads, traj = grad_value(spec, task, sched, vspec)
    want_total, want_grads, ws, losses = fused_value_and_grad(spec, task, sched, vspec)
    assert all(type(w) is float for w in traj.layers[0])
    assert same_bits(np.array(traj.layers[0]), np.array(ws))
    assert same_bits(traj.losses, losses)
    assert same_bits(total, want_total)
    assert_same_grads(grads, want_grads)


# --- bit for bit ---------------------------------------------------------------


class TestSplitPassesEqualTheFusedLoops:
    @pytest.mark.parametrize("vspec", VSPECS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_in_bounds_schedules(self, seed, vspec):
        rng = np.random.default_rng(seed)
        spec = neuron_spec(dt=0.05, n_steps=300, reg_lambda=0.1, init_mean=float(rng.uniform(-1.0, 1.0)))
        assert_matches_the_fused_loops(spec, NEURON_TASK, random_series(rng, 300, 7), VSPECS[vspec])

    @pytest.mark.parametrize("sched", ["none", "init_weights"])
    def test_without_a_series_only_the_adjoint_is_swept(self, sched):
        spec = neuron_spec(dt=0.05, n_steps=40, reg_lambda=0.1)
        sched = None if sched == "none" else init_weights_control((0.3,))
        assert_matches_the_fused_loops(spec, NEURON_TASK, sched, VSPECS["none"])

    @pytest.mark.parametrize("vspec", VSPECS)
    def test_a_task_schedule_switching_mid_segment(self, vspec):
        spec = neuron_spec(dt=0.05, n_steps=61, reg_lambda=0.1)
        tasks = TaskSchedule(tasks=TASKS, period_steps=5, n_steps=61)  # switches cut the 7-step segments
        assert_matches_the_fused_loops(spec, tasks, random_series(np.random.default_rng(5), 61, 7), VSPECS[vspec])

    @pytest.mark.parametrize("vspec", VSPECS)
    def test_a_two_task_set(self, vspec):
        spec, vspec = neuron_spec(dt=0.05, n_steps=50, reg_lambda=0.1), VSPECS[vspec]
        sched = random_series(np.random.default_rng(6), 50, 8)
        total, grads, traj = grad_value(spec, TASKS, sched, vspec)
        wants = [fused_value_and_grad(spec, t, sched, vspec) for t in TASKS]
        for k, (_, _, ws, losses) in enumerate(wants):
            assert same_bits(traj.layers[0][:, k], np.array(ws)) and same_bits(traj.losses[:, k], losses)
        assert same_bits(total, 0.0 + wants[0][0] + wants[1][0])
        assert_same_grads(grads, tuple(a + b for a, b in zip(wants[0][1], wants[1][1])))

    def test_sgd_validations_one_step_runs(self):
        spec, task, sched = build(preset("sgd_validation"))
        n, rng = spec.n_steps, np.random.default_rng(7)
        sched = random_series(rng, n, sched.segment, *sched.bounds)
        rng = np.random.default_rng([0, 1000])  # simulate_sgd's draws for seed [0, 1000]
        batches = [sample_batch(task, 128, rng) for _ in range(n)]
        moments = TaskSchedule([dynamics._EmpiricalMoments(x, y, task.blocks) for x, y in batches], 1, n)
        vspec = VSPECS["quadratic"]
        # a run per step: the rollout and the sweep over the batches' moments
        assert_matches_the_fused_loops(spec, moments, sched, vspec)
        # the sampled twin scores those weights under the real task
        plan = dynamics._Plan(spec, task, sched)
        args = [plan.args(sched)[r] for r in plan.run_of]
        ws = integrate(spec, sched, moments).layers[0]
        twin = simulate_sgd(spec, sched, task, 128, seed=[0, 1000])
        assert same_bits(np.array(twin.layers[0]), np.array(ws))
        assert same_bits(twin.losses, np.array([fused_loss(w, *a) for w, a in zip(ws, args)]))


def test_the_loss_squares_as_python_does():
    # np.float_power is libm pow, as Python's ** is; np.square rounds as u * u does, which differs
    u = np.random.default_rng(0).standard_normal(200_000) * 3.0
    assert np.array_equal(np.float_power(u, 2.0), [v**2 for v in u.tolist()])
    witness = float.fromhex("0x1.10d3be0be29acp+7")
    assert np.square(witness) != witness**2 == np.float_power(witness, 2.0)
    spec = neuron_spec(init_mean=witness)
    args = dynamics._neuron_base(NEURON_TASK, spec)
    want = fused_loss(witness, *args)
    assert want != 0.5 * (args[3] - 2.0 * witness * args[1] + args[2] * np.square(witness)) + 0.05 * witness * witness
    assert expected_loss((witness,), None, NEURON_TASK, spec) == want
    assert integrate(spec, None, NEURON_TASK).losses[0] == want


def test_task_set_totals_fold_left_from_zero():
    # three task totals of a maml_multistep V: Python 3.12's compensated sum ends in ...39b, a left fold in ...39a
    totals = [float.fromhex(x) for x in ("-0x1.dd118eaa42851p-2", "-0x1.3b21cbfad9991p+0", "-0x1.eb71b49170390p+0")]
    want = float.fromhex("-0x1.ceebf21b6d39ap+1")
    assert _fold(totals) == want
    losses = -np.array([totals])  # one state of three tasks, weighted 1: each task's total is its -loss
    assert _segment_total(losses, None, per_step_sum_spec(), _Weights(np.ones(1), [1.0], None, None)) == want


# --- divergence: the step and the magnitude of the fused loop ----------------------------


def neuron_series(values, n, segment):
    values = np.array(values, dtype=float)
    return ControlSchedule(kind="scalar_series", values=(values,), n_steps=n, segment=segment, bounds=(-1.0, math.inf))


DIVERGENCES = {
    # |w| crosses 1e6 inside a 10-step run
    "crossing": (neuron_spec(dt=0.5, n_steps=40, tau_w=0.1), neuron_series([0.2, 0.9, 0.4, 0.1], 40, 10),
                 "weight magnitude 9.756e+06 exceeded 1e+06 at step 6;"),
    # w stays 0.0 under g~ = 0, then 0.0 times the infinite decay of g~ = 1e155 is nan
    "nan": (neuron_spec(n_steps=8, init_mean=0.0), neuron_series([-1.0, 1e155, 0.0], 8, 3),
            "weight magnitude nan exceeded 1e+06 at step 3;"),
    # state 3's g~ w squares past the float range, and weight 4 is a finite -1.9e303: the loss comes first
    "loss_then_weight": (neuron_spec(dt=0.02, n_steps=8, init_mean=1e5), neuron_series([0.0, 1e150, 0.0], 8, 3),
                         "weight magnitude inf exceeded 1e+06 at step 3;"),
    # every weight stays below 1e6; the terminal state, step n = 4, squares past the float range
    "terminal": (neuron_spec(dt=2e-145, n_steps=4, init_mean=0.0), neuron_series([-1.0, 1e150 - 1.0], 4, 3),
                 "weight magnitude inf exceeded 1e+06 at step 4;"),
}


@pytest.mark.parametrize("case", DIVERGENCES)
def test_a_divergence_is_the_fused_loops(case):
    spec, sched, message = DIVERGENCES[case]
    plan = dynamics._Plan(spec, NEURON_TASK, sched)
    with pytest.raises(DivergenceError) as want:
        fused_rollout(spec, plan, plan.args(sched), initial_state(spec)[0])
    with pytest.raises(DivergenceError) as got:
        integrate(spec, sched, NEURON_TASK)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def test_the_weight_after_the_overflowing_loss_is_finite_past_the_limit():
    # so a check of the weights before the losses would name its magnitude, not inf
    spec, sched, _ = DIVERGENCES["loss_then_weight"]
    w3 = integrate(replace(spec, n_steps=3), None, NEURON_TASK).layers[0][3]  # g = 0 up to step 3
    gt, mu, x2, _, lam = dynamics._slice_args(1e150, NEURON_TASK, spec)
    w4 = w3 + spec.dt / spec.tau_w * dynamics._neuron_flow(w3, gt, mu, x2, 0.0, lam)
    assert DIVERGENCE_LIMIT < abs(w4) < math.inf


# --- the plan's moments and the one-step API -------------------------------------------


def plan_passes(spec, task, sched, vspec, plan):
    """(weights, losses, V, gradient) of an integrate and a grad_value under `plan`."""
    traj = integrate(spec, sched, task, plan=plan)
    total, grads, _ = grad_value(spec, task, sched, vspec, traj=traj, plan=plan)
    return np.array(traj.layers[0]), traj.losses, total, grads


def assert_same_passes(got, want):
    for g, w in zip(got[:3], want[:3]):
        assert same_bits(g, w)
    assert_same_grads(got[3], want[3])


STALE_TASKS = {
    "lone": NEURON_TASK,
    "switching": TaskSchedule(tasks=TASKS, period_steps=5, n_steps=61),  # each run's own moments
    "task_set": TASKS,
}


class TestThePlansMomentsAreNeverStale:
    @pytest.mark.parametrize("task", STALE_TASKS)
    @pytest.mark.parametrize("vspec", ["none", "quadratic"])
    def test_schedules_a_b_a_under_one_plan_give_a_fresh_plans_bits(self, task, vspec):
        spec, task, vspec = neuron_spec(dt=0.05, n_steps=61, reg_lambda=0.1), STALE_TASKS[task], VSPECS[vspec]
        rng = np.random.default_rng(11)
        a, b = random_series(rng, 61, 7), random_series(rng, 61, 7)
        plan = _plan(spec, task, vspec, a)
        for sched in (a, b, a):
            want = plan_passes(spec, task, sched, vspec, _plan(spec, task, vspec, sched))
            assert_same_passes(plan_passes(spec, task, sched, vspec, plan), want)
            # and a sweep that makes its own rollout under the plan
            total, grads, _ = grad_value(spec, task, sched, vspec, plan=plan)
            assert same_bits(total, want[2])
            assert_same_grads(grads, want[3])

    @pytest.mark.parametrize("task", STALE_TASKS)
    def test_passes_with_no_schedule_under_one_plan(self, task):
        spec, task, vspec = neuron_spec(dt=0.05, n_steps=40, reg_lambda=0.1), STALE_TASKS[task], VSPECS["none"]
        if isinstance(task, TaskSchedule):
            task = replace(task, n_steps=40)
        plan = _plan(spec, task, vspec, None)
        want = plan_passes(spec, task, None, vspec, _plan(spec, task, vspec, None))
        for _ in range(2):
            assert_same_passes(plan_passes(spec, task, None, vspec, plan), want)


def one_step_value_and_grad(spec, task, sched, vspec):
    """(losses, V, gradient, each step's gradient term) from expected_loss and backward_step, one state at a time.

    The sweep runs from the terminal state down: each step's term adds onto
    its segment's sum, from 0.0, before the adjoint a <- a + scale x - q moves.
    """
    n, scale = spec.n_steps, spec.dt / spec.tau_w
    ws = integrate(spec, sched, task).layers[0]
    weights = _plan(spec, task, vspec, sched).weights
    tasks = [task.task_at(min(i, n - 1)) if isinstance(task, TaskSchedule) else task for i in range(n + 1)]
    controls = [sched.at(min(i, n - 1)) for i in range(n + 1)]
    losses = np.array([expected_loss((w,), c, t, spec) for w, c, t in zip(ws, controls, tasks)])
    total = value(Trajectory(np.arange(n + 1) * spec.dt, (ws,), losses, spec.kind), sched, vspec, spec)
    cgs = segment_cost_grads(sched.values, vspec.cost)[0].tolist() if vspec.cost.kind != "none" else None
    sums, terms, a = [0.0] * sched.n_segments, [0.0] * (n + 1), 0.0
    for i in range(n, -1, -1):
        p, s = weights.pws[i], min(i // sched.segment, sched.n_segments - 1)
        (x,), cv, (lw,), lc = backward_step(spec, (ws[i],), controls[i], tasks[i], (a,))
        terms[i] = scale * cv + (-p) * lc
        if cgs is not None:
            terms[i] = terms[i] + (-float(weights.cw[i])) * cgs[s]
        sums[s] = sums[s] + terms[i]
        a = a + scale * x - (p * lw if p != 0.0 else 0.0)
    return losses, total, (np.array(sums),), terms


class TestTheOneStepApiMatchesThePasses:
    @pytest.mark.parametrize("task", ["lone", "switching"])
    @pytest.mark.parametrize("vspec", VSPECS)
    def test_losses_value_and_gradient(self, task, vspec):
        spec, task, vspec = neuron_spec(dt=0.05, n_steps=61, reg_lambda=0.1), STALE_TASKS[task], VSPECS[vspec]
        sched = random_series(np.random.default_rng(12), 61, 7)
        losses, total, grads, _ = one_step_value_and_grad(spec, task, sched, vspec)
        got_total, got_grads, traj = grad_value(spec, task, sched, vspec)
        assert same_bits(traj.losses, losses) and same_bits(got_total, total)
        assert_same_grads(got_grads, grads)


# --- each segment's gradient is the left fold of its terms ---------------------------------


def left_folds(terms, cuts):
    """Each segment's terms summed last step first onto 0.0, one at a time."""
    return [functools.reduce(operator.add, reversed(terms[lo:hi]), 0.0) for lo, hi in zip(cuts, cuts[1:])]


def segment_pass(terms, n, segment):
    """The neuron sweep's segment sums: add_grads of the terms of states 0..n into zeroed buffers."""
    sched = ControlSchedule("scalar_series", (np.zeros(-(-n // segment)),), n, segment)
    grads = sched.zero_grads()
    with np.errstate(over="ignore", invalid="ignore"):  # as the sweep adds them: a float fold never warns
        sched.add_grads(grads, 0, (np.array(terms),))
    return grads[0]


FOLD_CASES = {
    # n, segment: segments [0, 4), [4, 8) and the ragged [8, 11), which holds the terminal state 10
    "ragged_last": (10, 4, None),
    "segment_1": (6, 1, None),
    "one_segment_of_n": (9, 9, None),
    "one_segment_past_n": (9, 20, None),
    "all_negative_zero": (8, 4, {4: -0.0, 5: -0.0, 6: -0.0, 7: -0.0, 8: -0.0}),
    "inf": (8, 4, {1: math.inf, 6: -math.inf}),
    "inf_minus_inf": (8, 4, {1: math.inf, 2: -math.inf}),
    "nan": (8, 4, {7: math.nan}),
    "overflow": (8, 4, {2: 1e308, 3: 1e308}),
}


@pytest.mark.parametrize("case", FOLD_CASES)
def test_the_segment_pass_is_the_left_fold(case):
    n, segment, fixed = FOLD_CASES[case]
    rng = np.random.default_rng(13)
    terms = (rng.standard_normal(n + 1) * 10.0 ** rng.integers(-8, 9, size=n + 1)).tolist()
    for i, t in (fixed or {}).items():
        terms[i] = t
    cuts = [*range(0, n, segment), n + 1]
    want = left_folds(terms, cuts)
    # the doubles' own bits, so a nan is compared too, and -0.0 is not +0.0
    assert segment_pass(terms, n, segment).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    if case == "all_negative_zero":
        assert math.copysign(1.0, want[1]) == 1.0  # 0.0 + -0.0 is +0.0


def test_a_pairwise_sum_is_not_the_left_fold():
    # nine terms: np.sum adds them pairwise, in either order, to other bits than the fold
    terms = [0.345584192064786, 0.8216181435011584, 0.33043707618338714, -1.303157231604361, 0.9053558666731177,
             0.4463745723640113, -0.5369532353602852, 0.5811181041963531, 0.36457239618607573]
    want = left_folds(terms, [0, 9])[0]
    assert want == 1.9549498842042434
    assert np.sum(terms[::-1]) != want != np.sum(terms)
    assert segment_pass(terms, 8, 8)[0] == want  # step 8 is the terminal state, in the one segment


def test_the_sweep_sums_each_segment_as_the_left_fold_where_a_pairwise_sum_moves_it():
    # 30-step segments, as neuron_effort's: a pairwise sum of their terms would move some segment's bits
    spec, vspec = neuron_spec(dt=0.05, n_steps=300, reg_lambda=0.1), VSPECS["quadratic"]
    sched = random_series(np.random.default_rng(14), 300, 30)
    _, _, grads, terms = one_step_value_and_grad(spec, NEURON_TASK, sched, vspec)
    cuts = [*range(0, 300, 30), 301]
    assert grads[0].tolist() == left_folds(terms, cuts)
    assert any(np.sum(terms[lo:hi][::-1]) != f for (lo, hi), f in zip(zip(cuts, cuts[1:]), left_folds(terms, cuts)))
    assert_same_grads(grad_value(spec, NEURON_TASK, sched, vspec)[1], grads)
