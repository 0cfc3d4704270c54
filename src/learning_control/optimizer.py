"""Projected gradient ascent over control schedules.

The objective V(schedule) and its exact gradient come from the adjoint sweep
in `value`; this module just climbs.  A candidate step is accepted only if
it does not decrease V, halving the step up to max_halvings times (20 by
default) before declaring a stall, so the recorded V trace is non-decreasing
by construction.  A trial whose rollout diverges, or whose V is not finite,
counts as a rejection (V = -inf) and is halved like any other; divergence
of the initial schedule's rollout, or a V or gradient of it that is not
finite, raises a DivergenceError, the V before its sweep runs.
`adaptive_moments` is Adam's direction with Kingma & Ba's (2015) constants
beta1 0.9, beta2 0.999 and eps 1e-8; projection onto box bounds happens
after every update.

Each rollout is integrated and scored once: a line-search trial keeps its
trajectory and V, and the accepted one goes straight to the adjoint sweep
for the next gradient, with the packed rows and per-run args it carries.
Every candidate shares the initial schedule's layout, so optimize sets up
once: one plan (value._plan) holds the step cuts and each run's task, the
value weights, the forward kernel's buffers, each run's neutral args and
the bound flows where the control does not vary them, and one sweep per
stack length, and every integrate and grad_value call takes it.  The trace keeps the rollouts of the initial and the final
schedule for the caller.

The ValueSpec given scores every trial and gradient, whatever the task: a
lone task, a task schedule or a task set (same-shape tasks, one batched
rollout and one adjoint sweep per evaluation, V the sum of its tasks').  A
task set's control is usually the shared initial weights, but a series works.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from .errors import DivergenceError, check_finite, whole
from .value import _plan, grad_value, value

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # adaptive_moments' beta1, beta2 and eps


@dataclass
class OptimizerSpec:
    """Ascent hyperparameters.

    alpha_g is the base step size, iters the number of updates, update_rule
    one of {plain, adaptive_moments}.  max_halvings caps the backtracking
    halvings per update (nonnegative).  alpha_g is stored as a float whatever
    numeric type it is given.
    """

    alpha_g: float = 0.1
    iters: int = 100
    update_rule: str = "plain"
    max_halvings: int = 20

    def __post_init__(self):
        self.alpha_g = float(self.alpha_g)
        check_finite(self)
        if self.update_rule not in ("plain", "adaptive_moments"):
            raise ValueError(f"unknown update rule '{self.update_rule}'")
        if self.alpha_g <= 0:
            raise ValueError("alpha_g must be positive")
        self.iters, self.max_halvings = whole("iters", self.iters, 0), whole("max_halvings", self.max_halvings, 0)


@dataclass
class OptTrace:
    """Per-iteration record; entry 0 describes the initial schedule.

    rollouts is (first, last): the trajectories of the initial and the final
    schedule, batched for a task set.  It is kept in memory only; trace.csv
    does not write it.
    """

    V: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    alpha_used: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    stalled_at: int | None = None
    rollouts: tuple = ()


def _tree_norm(arrays):
    """The 2-norm of all the arrays' entries; finite entries whose squares pass the float range are scaled first."""
    with np.errstate(over="ignore"):
        total = sum([float((a * a).sum()) for a in arrays])
    if math.isinf(total) and all(np.isfinite(a).all() for a in arrays):
        peak = max(float(np.abs(a).max(initial=0.0)) for a in arrays)
        return peak * math.sqrt(sum([float(np.square(a / peak).sum()) for a in arrays]))
    return math.sqrt(total)


def optimize(dspec, task, vspec, ospec, init_schedule):
    """Maximize V over the schedule's values; returns (schedule, trace).

    `task` may be a TaskMoments, a TaskSchedule, or a task set; `vspec`
    scores all of them.  trace.V[0] is the value of the initial schedule,
    computed by the same code path as every later evaluation.
    """
    def forward(schedule):
        traj = dyn.integrate(dspec, schedule, task, plan=plan)
        return value(traj, schedule, vspec, dspec, plan=plan), traj

    cur = init_schedule.project()
    plan = _plan(dspec, task, vspec, cur)  # every candidate keeps cur's layout
    # V first, then its gradient, their overflow silent as the rollout's is: a V
    # or gradient that is not finite is refused by name, not by a warning first
    with np.errstate(over="ignore", invalid="ignore"):
        v_cur, first = forward(cur)
        if math.isfinite(v_cur):
            v_cur, g_cur, first = grad_value(dspec, task, cur, vspec, traj=first, plan=plan, total=v_cur)
    if not (math.isfinite(v_cur) and all(np.isfinite(g).all() for g in g_cur)):
        raise DivergenceError(f"the initial schedule's V ({v_cur}) or its gradient is not finite: "
                              f"the value weights (eta {vspec.eta}, {vspec.cost}) overflow the float range")
    rollout = first
    trace = OptTrace()
    trace.V.append(v_cur)
    trace.grad_norm.append(_tree_norm(g_cur))
    trace.alpha_used.append(0.0)
    trace.wall_ms.append(0.0)

    m_state = None
    v_state = None
    if ospec.update_rule == "adaptive_moments":
        m_state = tuple(np.zeros_like(v) for v in cur.values)
        v_state = tuple(np.zeros_like(v) for v in cur.values)

    for k in range(ospec.iters):
        tick = time.perf_counter()
        if ospec.update_rule == "adaptive_moments":
            t = k + 1
            m_state = tuple(_BETA1 * m + (1 - _BETA1) * g for m, g in zip(m_state, g_cur))
            v_state = tuple(_BETA2 * v + (1 - _BETA2) * g * g for v, g in zip(v_state, g_cur))
            bc1 = 1 - _BETA1**t
            bc2 = 1 - _BETA2**t
            direction = tuple((m / bc1) / (np.sqrt(v / bc2) + _EPS) for m, v in zip(m_state, v_state))
        else:
            direction = g_cur

        alpha = ospec.alpha_g
        for _ in range(ospec.max_halvings + 1):
            with np.errstate(over="ignore"):  # an overflowing step lands on a bound or on a rejected trial
                cand = cur.project(tuple(val + alpha * d for val, d in zip(cur.values, direction)))
            try:
                v_cand, trial = forward(cand)
            except DivergenceError:
                v_cand = -math.inf
            if math.isfinite(v_cand) and v_cand >= v_cur:
                break
            alpha *= 0.5
        else:
            trace.stalled_at = k
            break
        cur = cand
        v_cur, g_cur, rollout = grad_value(dspec, task, cur, vspec, traj=trial, plan=plan, total=v_cand)
        elapsed = (time.perf_counter() - tick) * 1000.0
        trace.V.append(v_cur)
        trace.grad_norm.append(_tree_norm(g_cur))
        trace.alpha_used.append(alpha)
        trace.wall_ms.append(elapsed + 0.0)
    trace.rollouts = (first, rollout)
    return cur, trace

