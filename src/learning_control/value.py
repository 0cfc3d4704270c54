"""Discounted cumulative performance of a learning trajectory, and its gradient.

The scalar being maximized is

    V = sum_i dt * gamma^{t_i} * (eta * P(t_i) - C(g(t_i))),    P = -<loss>,

a left-rule Riemann sum over the step grid that includes t_0 and excludes the
terminal time.  A second mode ("per_step_sum") drops dt and the discount and
scores the plain sum of losses at steps 1..N, which is the natural objective
when the control is the initial weights and the horizon is a handful of steps.
It has no discount, reward scale or cost, so its ValueSpec must say gamma 1,
eta 1 and cost kind none (per_step_sum_spec()); any other value is refused.

Gradients come from one reverse (adjoint) sweep through the recorded states:
exact for the discretized system, one forward plus one backward pass per
evaluation regardless of how many control degrees of freedom there are.  A
caller that already holds the schedule's trajectory (the optimizer's line
search does) hands it over, with its V, and pays for the backward pass
alone, which reads the packed rows and per-run args the rollout carries.
optimize also hands over its plan (`_plan`, a dynamics._Plan with the
value weights pw, cw, their float lists and each segment's cost weight),
made once per optimize; a call without one builds its own.
Every array kind sweeps stacks of steps through one protocol, and a task
set is rolled out once on a batch axis and swept once; its V and gradient
are the sum of its tasks', in task order.  The single neuron's sweep is a
loop on Python floats over the rollout's runs of constant control and task
that carries only the adjoint recurrence, like its forward loop in
dynamics.integrate, with each step's other terms one numpy pass each, one
task of a set at a time.
fd_check probes that gradient against central finite differences and is wired
into the CLI, so a broken derivative is loud.
"""

import functools
import math
import numbers
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dynamics as dyn
from .control import segment_sumsq
from .errors import check_finite, whole

# The fields each cost kind reads; CostSpec refuses any other field off its default
_COST_FIELDS = {"none": (), "quadratic": ("beta",), "exp_frobenius": ("beta",), "anchored_norm": ("beta", "anchor"),
                "fixed_norm": ("beta", "target_norm")}
COST_KINDS = tuple(_COST_FIELDS)


@dataclass
class CostSpec:
    """Control effort penalty C(g); a field its kind does not read must keep its default.

    quadratic       beta * sum g^2
    exp_frobenius   exp(beta * sum g^2) - 1   (couples channels through the total)
    anchored_norm   beta * sum (g - anchor)^2;  anchor 1 keeps engagement near
                    its neutral value ("attentive"), anchor 0 prices any
                    engagement at all ("active")
    fixed_norm      beta * (sum g^2 - target_norm)^2, a soft norm constraint
    """

    kind: str = "none"
    beta: float = 0.0
    anchor: float = 1.0
    target_norm: float = 0.0

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind '{self.kind}'")
        check_finite(self)
        for f in fields(self)[1:]:
            got = getattr(self, f.name)
            if f.name not in _COST_FIELDS[self.kind] and got != f.default:
                raise ValueError(f"cost kind {self.kind} ignores {f.name}: set it to {f.default!r}, not {got!r}")


def _exp(x):
    """math.exp of each entry: np.exp can differ from it in the last bit."""
    return np.array([math.exp(v) for v in x.tolist()])


def segment_costs(values, cspec):
    """C(g) of each segment of a series' values (its parts pool their squares), as an array."""
    if cspec.kind == "none":
        return np.zeros(len(values[0]))
    if cspec.kind == "anchored_norm":
        return cspec.beta * segment_sumsq(tuple(v - cspec.anchor for v in values))
    sumsq = segment_sumsq(values)
    if cspec.kind == "quadratic":
        return cspec.beta * sumsq
    if cspec.kind == "exp_frobenius":
        return _exp(cspec.beta * sumsq) - 1.0
    gap = sumsq - cspec.target_norm  # fixed_norm
    return cspec.beta * gap * gap


def segment_cost_grads(values, cspec):
    """dC/dg of each segment, shaped like the values."""
    if cspec.kind == "none":
        return tuple(np.zeros_like(v) for v in values)
    if cspec.kind == "quadratic":
        return tuple(2.0 * cspec.beta * v for v in values)
    if cspec.kind == "anchored_norm":
        return tuple(2.0 * cspec.beta * (v - cspec.anchor) for v in values)
    if cspec.kind == "exp_frobenius":
        factor = 2.0 * cspec.beta * _exp(cspec.beta * segment_sumsq(values))
    else:  # fixed_norm
        factor = 4.0 * cspec.beta * (segment_sumsq(values) - cspec.target_norm)
    return tuple(factor.reshape((-1,) + (1,) * (v.ndim - 1)) * v for v in values)


@dataclass
class ValueSpec:
    """Parameters of the value functional.

    gamma discounts per unit time (gamma^t with t in the dynamics' units);
    eta converts performance into reward units.  The time grid comes from the
    DynamicsSpec.  mode selects the discounted integral (default) or the
    undiscounted per-step sum described above, which refuses a gamma, an eta
    or a cost it would ignore.
    """

    gamma: float = 0.99
    eta: float = 1.0
    cost: CostSpec = field(default_factory=CostSpec)
    mode: str = "discounted_integral"

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.mode not in ("discounted_integral", "per_step_sum"):
            raise ValueError(f"unknown value mode '{self.mode}'")
        if self.mode == "per_step_sum":
            fixed = (("gamma", self.gamma, 1.0), ("eta", self.eta, 1.0), ("cost.kind", self.cost.kind, "none"))
            for name, got, want in fixed:
                if got != want:
                    raise ValueError(f"mode per_step_sum ignores {name}: set it to {want!r}, not {got!r}")


def per_step_sum_spec():
    """The undiscounted, cost-free per-step sum: maml_value_and_grad's objective and maml_multistep's ValueSpec."""
    return ValueSpec(gamma=1.0, eta=1.0, cost=CostSpec("none"), mode="per_step_sum")


def _value_weights(vspec, dspec):
    """(pw, cw): performance weights on states 0..N, cost weights on steps 0..N-1."""
    n = dspec.n_steps
    if vspec.mode == "per_step_sum":
        pw = np.ones(n + 1)
        pw[0] = 0.0
        return pw, np.zeros(n)
    t = np.arange(n) * dspec.dt
    disc = np.exp(t * math.log(vspec.gamma)) if vspec.gamma < 1.0 else np.ones(n)
    pw = np.zeros(n + 1)
    pw[:n] = dspec.dt * vspec.eta * disc
    return pw, dspec.dt * disc


# A pass's value weights: pw (pws as floats) on states 0..N; cw the cost
# weights on states 0..N, the terminal one 0, times the task count (each task of
# a set pays the cost); seg, each segment's cost weight, None where the
# schedule pays no cost (no series or no cost kind).
_Weights = namedtuple("_Weights", "pw pws cw seg")


def _weights(vspec, dspec, schedule, n_tasks=1):
    """The _Weights of passes of `dspec` under schedules of `schedule`'s layout, scored by `vspec`."""
    pw, cw = _value_weights(vspec, dspec)
    seg = None
    if dyn._series(schedule) and vspec.cost.kind != "none":
        seg = [float(cw[lo : lo + schedule.segment].sum()) for lo in range(0, len(cw), schedule.segment)]
    cw = np.append(cw, 0.0) * n_tasks
    return _Weights(pw, pw.tolist(), cw, seg)


def _plan(dspec, task, vspec, schedule):
    """The dynamics._Plan of passes over `task` under schedules of `schedule`'s layout, with vspec's _Weights."""
    weights = _weights(vspec, dspec, schedule, len(task) if dyn.is_task_set(task) else 1)
    return dyn._Plan(dspec, task, schedule, weights)


def _fold(xs):
    """xs summed left to right from 0.0: builtin sum's bits before Python 3.12, whose sum compensates."""
    return functools.reduce(operator.add, xs, 0.0)


def _segment_total(losses, schedule, vspec, weights):
    """V from the losses and, for a series schedule, the cost of each segment.

    A task set's V is its tasks' values summed in task order, each from a
    contiguous row of losses, as a lone task's would be; the segments' costs
    are made once for all of them.
    """
    totals = [-float(np.dot(weights.pw, row)) for row in ((losses,) if losses.ndim == 1 else losses.T.copy())]
    if weights.seg is not None:
        costs = segment_costs(schedule.values, vspec.cost).tolist()
        for k, total in enumerate(totals):
            for c, w in zip(costs, weights.seg):
                if c != 0.0:
                    total -= c * w
            totals[k] = total
    return totals[0] if losses.ndim == 1 else _fold(totals)


def value(trajectory, schedule, vspec, dspec, *, plan=None):
    """V for a recorded trajectory under its schedule (a task set's: its tasks' values, summed).

    `plan`, optimize's, holds the value weights; a call without one makes them.
    """
    weights = _weights(vspec, dspec, schedule) if plan is None else plan.weights
    return _segment_total(trajectory.losses, schedule, vspec, weights)


def evaluate_value(dspec, task, schedule, vspec, state0=None):
    """Forward-only objective evaluation (integrate + value); `task` may be a task set."""
    traj = dyn.integrate(dspec, schedule, task, state0=state0)
    return value(traj, schedule, vspec, dspec)


# --- structure-generic arithmetic over control slices ------------------------


def _slice_axpy(base, add, factor):
    """base + factor*add for float / array / tuple slices (None treated as zero)."""
    if add is None:
        return base
    if base is None:
        return _slice_scale(add, factor)
    if isinstance(base, tuple):
        return tuple(_slice_axpy(b, a, factor) for b, a in zip(base, add))
    return base + factor * add


def _slice_scale(x, factor):
    if x is None:
        return None
    if isinstance(x, tuple):
        return tuple(_slice_scale(v, factor) for v in x)
    return factor * x


def _task_sum(parts):
    """Sum in task order from the first part, so a lone part keeps its bits (a 0.0 start would not keep -0.0)."""
    return functools.reduce(operator.add, parts)


def grad_value(dspec, task, schedule, vspec, state0=None, traj=None, *, plan=None, total=None):
    """V and dV/d(schedule) by one adjoint sweep; also returns the trajectory.

    The gradient has exactly the structure of schedule.values (segment sums
    for series kinds, weight arrays for init_weights).  Bounds on the
    schedule do not enter: the derivative is of the unconstrained objective.
    `traj`, when given, must be the rollout of this schedule and task (from
    `state0`); the forward pass is then skipped and only the adjoint runs,
    on the packed rows and args the rollout carries, and `total`, when given,
    must be its V, which is then not scored again.  `plan` is optimize's
    (_plan): the step cuts, value weights and sweep buffers of this task and
    schedule layout; a call without one builds its own.

    The sweep goes over stacks of steps, last first, the last one ending at
    the terminal state: only the adjoint recurrence loops per step, inside
    one sweep.adjoints call per stack on the packed adjoint row, and each
    stack's control gradients are formed batched and added into the buffers in descending
    step order.  A task set is swept once on its batch axis: V is its
    tasks' values and the gradient their gradients, each summed in task
    order (per step for a series schedule).  The single neuron takes the
    float sweep `_neuron_sweep` instead of the stacks, with the same bits,
    and the tasks of a set one at a time.
    """
    plan = plan or _plan(dspec, task, vspec, schedule)
    if traj is None:
        traj = dyn.integrate(dspec, schedule, task, state0=state0, plan=plan)
    if dspec.kind == "single_neuron" and dyn.is_task_set(task):  # the float sweep takes one task at a time
        parts = [grad_value(dspec, t, schedule, vspec, traj=tr) for t, tr in zip(task, traj.per_task())]
        total = _fold(p[0] for p in parts) if total is None else total
        return total, tuple(map(_task_sum, zip(*(p[1] for p in parts)))), traj
    scale = dspec.dt / dspec.tau_w
    per_step = plan.series
    weights = plan.weights
    pw, cw = weights.pw, weights.cw
    if total is None:
        total = _segment_total(traj.losses, schedule, vspec, weights)
    cost_grads = None
    if per_step and vspec.cost.kind != "none":
        cost_grads = segment_cost_grads(schedule.values, vspec.cost)
    if dspec.kind == "single_neuron":
        adj, grads = _neuron_sweep(plan, traj, schedule, weights, cost_grads)
        return total, grads if per_step else (np.asarray(adj, dtype=float),), traj
    buffers = schedule.zero_grads() if per_step else None
    # per-step weights, shaped to broadcast over a stack of control slices
    weights_shape = (-1,) + (1,) * (schedule.values[0].ndim - 1) if per_step else None

    # from the terminal state, scored under the last control slice, down to state 0, on packed rows
    adj = np.zeros((*plan.batch, plan.width))
    for lo, hi, sweep in dyn.sweeps(traj, schedule, plan, pw, weights.pws):
        adj = sweep.adjoints(adj)
        if per_step:
            # as step by step, but a zero weight adds a signed zero, which the
            # buffers, summed from +0.0, absorb
            cvjp, lgc = sweep.contract()
            g = _slice_axpy(_slice_scale(cvjp, scale), lgc, -pw[lo:hi].reshape(weights_shape))
            if cost_grads is not None:
                seg_of = schedule.segment_of(np.arange(lo, hi))
                g = _slice_axpy(g, tuple(c[seg_of] for c in cost_grads), -cw[lo:hi].reshape(weights_shape))
            if g is not None:
                schedule.add_grads(buffers, lo, g)

    if per_step:
        return total, buffers, traj
    return total, dyn._split(_task_sum(adj) if dyn.is_task_set(task) else adj, plan.shapes), traj


def _neuron_sweep(plan, traj, schedule, weights, cost_grads):
    """The single neuron's adjoint sweep: a loop on Python floats over the plan's runs, last first, then one pass.

    Returns the adjoint at state 0 and the gradient buffers of the segments
    (None without a series schedule).  The loop carries only the recurrence
    a <- a + scale (dh/dw a) - q, keeping each step's entering adjoint; q,
    the weighted loss gradient (0.0 at a zero weight), and then each step's
    control-gradient term from the kept adjoints are one numpy pass each,
    in the products of _neuron_backward and the stack sweep in their order,
    so their bits.  The terms go into the segments through add_grads, as the
    stack sweeps' do: each segment adds its terms one at a time, last step
    first, onto 0.0.  Without a cost each term would add (-cw) * 0.0, a
    signed zero that changes no bits, so it is left out.
    """
    dspec, runs = plan.spec, plan.runs
    n, scale, lam = dspec.n_steps, dspec.dt / dspec.tau_w, dspec.reg_lambda
    args = plan.args(schedule) if traj.args is None else traj.args
    w = dyn._float_array(traj.layers[0]) if traj.rows is None else traj.rows
    stack = plan.stack(args, 0, n + 1)
    gt, mu, x2, _ = dyn._neuron_fields(stack)
    pw = weights.pw
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.where(pw != 0.0, pw * ((-mu * gt + x2 * w * gt * gt) + lam * w), 0.0).tolist()
    kept = []  # each step's entering adjoint, step n first
    keep, a = kept.append, 0.0
    for r in range(len(runs) - 1, -1, -1):
        lo, hi, _ = runs[r]
        hi += r == len(runs) - 1  # the terminal state, scored under the last control
        g, _, x, _, _ = args[r]
        dhdw = -(x * g * g + lam)
        for qi in reversed(q[lo:hi]):
            keep(a)
            a = a + scale * (dhdw * a) - qi
    if not plan.series:
        return a, None
    entering = dyn._float_array(kept)[::-1]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = scale * ((mu - 2.0 * w * x2 * gt) * entering) + (-pw) * (-mu * w + x2 * w * w * gt)
        if cost_grads is not None:
            terms = terms + (-weights.cw) * cost_grads[0][plan.segs].take(stack.idx)
        grads = schedule.zero_grads()
        schedule.add_grads(grads, 0, (terms,))
    return a, grads


def maml_value_and_grad(dspec, tasks, schedule, steps_ahead=None, traj=None):
    """Per-step-sum value over a task set, controlled through shared initial weights.

    The tasks are rolled out from the same starting state as one batched
    rollout and swept once; V = -sum_tasks sum_{i=1..steps} <loss_i>, and
    the gradient is the per-task adjoints at time zero summed in task order.
    `traj`, when given, is the task set's batched rollout, and only the
    adjoint sweep runs.  Returns (V, gradient, each task's Trajectory).
    """
    spec = dspec if steps_ahead is None else replace(dspec, n_steps=whole("steps_ahead", steps_ahead))
    total, grads, traj = grad_value(spec, dyn.TaskSet(tasks), schedule, per_step_sum_spec(), traj=traj)
    return total, grads, traj.per_task()


@dataclass
class FdReport:
    """Outcome of a finite-difference probe of the adjoint gradient."""

    max_rel: float
    mean_rel: float
    entries: list

    def __str__(self):
        return f"fd check: max rel err {self.max_rel:.3e} over {len(self.entries)} coords"


def fd_check(dspec, task, schedule, vspec, coords=None, h=1e-6, rng=0):
    """Compare the adjoint gradient against central finite differences.

    `task` may be a TaskMoments, a TaskSchedule or a task set; `vspec`
    scores every probe of each.  `coords` is a list of (array_index,
    flat_index) pairs into schedule.values, or a count of coordinates to
    sample; by default up to twelve are sampled at random.  Bounds are
    stripped for the probe: the gradient is of the unconstrained objective
    and clamping would corrupt the difference quotient.  Relative error uses
    an absolute floor of 1e-7.  A count below 1, an empty list and a step h
    that is not finite and positive are refused.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"fd_check's step h must be finite and positive, got {h}")
    if coords is not None and (coords < 1 if isinstance(coords, numbers.Integral) else len(coords) == 0):
        raise ValueError(f"fd_check's coords must be a count >= 1 or a nonempty list, got {coords!r}")
    probe = replace(schedule, bounds=None)
    _, grads, _ = grad_value(dspec, task, probe, vspec)

    if coords is None or isinstance(coords, numbers.Integral):
        flat = [(ai, fi) for ai, v in enumerate(probe.values) for fi in range(v.size)]
        picks = np.random.default_rng(rng).choice(len(flat), size=min(coords or 12, len(flat)), replace=False)
        coords = [flat[p] for p in sorted(picks)]

    entries = []
    floor = 1e-7
    for ai, fi in coords:
        base = probe.values[ai].flat[fi]
        step = h * (1.0 + abs(base))

        def with_delta(delta):
            vals = tuple(v.copy() for v in probe.values)
            vals[ai].flat[fi] = base + delta
            return probe.with_values(vals)

        up = evaluate_value(dspec, task, with_delta(step), vspec)
        down = evaluate_value(dspec, task, with_delta(-step), vspec)
        numeric = (up - down) / (2.0 * step)
        analytic = float(grads[ai].flat[fi])
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)
        entries.append(((ai, fi), analytic, numeric, rel))
    rels = [e[3] for e in entries]
    return FdReport(max_rel=max(rels), mean_rel=sum(rels) / len(rels), entries=entries)
