"""Average learning dynamics of small linear (and near-linear) networks.

The weights of a linear network trained by gradient flow on the expected
square loss follow an ODE driven entirely by the task's second moments.  This
module integrates that ODE with explicit Euler steps `w <- w + (dt/tau) h(w, g)`
for every supported flavor of control signal, evaluates exact expected losses
along the way, and provides closed-form solutions for the two analytically
solvable cases (a single neuron, and a one-layer network with elementwise
gains frozen per segment) plus a sampled-SGD twin for validation.  Both
closed forms are one solver, the single neuron being the 1x1 single layer:
each segment's flow is affine with a symmetric rate, propagated exactly in
its eigenbasis (linalg.propagate_affine).

Control kinds and their knobs:

  single_neuron        scalar weight, scalar gain g; effective map (1+g) w
  single_layer         one weight matrix with an elementwise gain matrix
  two_layer_baseline   W2 W1 composition, no control
  gain_mod             per-layer elementwise gains (1+G) on both layers
  engagement           per-task scaling of the error signal on a
                       block-composed task (learning only; the map is untouched)
  category_engagement  per-class scaling of the error rows (squared, the
                       natural weighting induced by a class-weighted loss)
  lr_mod               scalar multiplier (1+rho) on the whole right-hand side
  nonlinear_taylor     two-layer net with elementwise nonlinearity, propagated
                       through a first-order expansion around the mean input

Each kind is one entry of `_KIND_TABLE`.  A rollout is one buffer of packed
rows [W1.ravel() | W2.ravel()] with a leading step axis, and its per-layer
stacks are reshaped views of it (Python floats for the single neuron).  Every
array kind fills the same slots.  Only the recurrence loops per step in
Python: `flow` makes a pass's buffers once and, once per run of steps, the
step h(w) on a packed row, and integrate writes w + (dt/tau) h straight into
the next row.  The other slots act on a stack of steps: `losses` scores every
state, and `sweep` is the reverse mode, one protocol (`_Sweep`): one sweep
per stack length, made once with its buffers and per-step views, whose
`load` refills them for each stack and does batched all that does not read
the adjoint, leaving `adjoints(a)` as the recurrence over the stack's
steps, looped in one call, each writing its adjoint into the row before
it of one buffer, and `contract()` as the batched control VJPs.  Every
pass -- the rollout, the sweeps, the sampled twin and the closed forms --
is cut as `_runs` cuts it, into runs, stretches of steps sharing one
control slice and task (a segment, cut again at each task switch); `args`,
what the slots read, is made for every run of a pass at once by the
`series` slot, the one way a control gets into args, from one map of the
schedule's values over each run's neutral args (the `base` slot's), so no
pass calls schedule.at().  A `_Plan` holds all a
pass sets up that the control values do not change -- the cuts, the
neutral args, the kernel's buffers, the sweeps, and the bound flows where
no series control varies the args -- so optimize, which moves only the
values, sets up once: it builds one plan and hands it to every integrate
and value.grad_value call, and a call without one builds its own.  A rollout
carries its packed rows and each run's args to the adjoint sweep, and a
sweep lets go of them once swept.  The sampled twin integrates over per-step batch
moments and is scored again under the real task, except for
nonlinear_taylor's sampled tanh network.  The
one-step API, `expected_loss`, `_rhs` and `backward_step`, applies the slots
to a one-step stack under the series args of a one-run stack of its control
slice; tests check the passes against it.  The linear two-layer
kinds share one kernel, for a row and a stack of rows alike, which fills
fixed buffers and runs each elementwise op once on the packed row, not once
per layer.  They hold only two maps: forward from a stack of control
slices to the kernel's channels (packed gains, dvec, rate) --
layer gains, error-row scales, a boost of the whole right-hand side -- and
back from a swept stack to the control-shaped VJPs.  An absent channel skips its multiplication or
multiplies by 1.0, as a neutral one does, which IEEE makes exact, so neutral
schedules reproduce the baseline bit for bit; tests rely on that.  The
single neuron bypasses the table in `integrate` and `value.grad_value` for
Python-float loops over the runs that carry only the recurrences, each run's
constants hoisted; its entry holds only float base, series and losses (one
numpy pass over the recorded weights), and its one-step API the float
helpers, whose bits the loops and passes keep.  A stack runs the same products and reductions
on the same operands as its steps one at a time, so it gives their bits.  A
task set (same-shape tasks from one start; a TaskSet stacks their moments
once) is one rollout on a batch axis after the step axis, with a lone
task's bits per task: the pair kernel's products take np.matmul there and
the cheaper ndarray.dot on a lone task, the same BLAS call.  Only the single
neuron rolls a task set out one task at a time.

A step is a dozen numpy calls on rows of 8 to 200 entries, so each call
takes its cheapest entry: `out` is passed positionally, the constants
(dt/tau, lambda, -lambda, the neutral gain 1.0 and the tail's 0.0) are 0-d
arrays made once, and a step's elementwise results go into buffers made
with the kernel's or the sweep's.  On a 16-entry row (2-vCPU Xeon, Python
3.11.7, numpy 2.4.6) a ufunc took 0.31-0.33 us with a positional `out`
and 0.36-0.40 us with the `out=` keyword, and a Python float operand made
it 0.47-0.52 us where a 0-d array kept it at 0.32-0.34 us; a step makes
the same IEEE operations on the same operands either way, so every bit is
kept.  So a flow returns a buffer of its kernel, valid until that kernel's
next call: the rollout adds it into the next row at once, and
_PairSweep.load's `p` is the one that holds it, until the next load.  An
adjoint step reads its entering adjoint row and writes its leaving one;
what adjoints and contract return is new, never a view of a buffer.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce

import numpy as np

from .errors import DivergenceError, UnsupportedOperationError, check_finite, whole
from .linalg import propagate_affine

DIVERGENCE_LIMIT = 1e6
DIVERGENCE_BLOCK = 32  # steps integrate runs between divergence checks


# least values of DynamicsSpec's counts; the two-layer kinds check hidden_dim >= 1 themselves
_LEAST = {"n_steps": 1, "init_seed": 0, "input_dim": 1, "output_dim": 1, "hidden_dim": 0}


@dataclass
class DynamicsSpec:
    """Shape and discretization of the learning system.

    tau_w is the weight time constant, dt the Euler step, n_steps the number
    of steps (horizon T = n_steps * dt).  reg_lambda is the weight-decay
    coefficient of the trained loss.  Initial weights are drawn i.i.d.
    normal(init_mean, init_std) from seed init_seed; a zero std gives the
    deterministic constant init without touching the generator.
    """

    kind: str
    input_dim: int
    output_dim: int
    hidden_dim: int = 0
    tau_w: float = 1.0
    dt: float = 0.01
    n_steps: int = 100
    reg_lambda: float = 0.0
    init_std: float = 0.0
    init_mean: float = 0.0
    init_seed: int = 0
    nonlinearity: str = "tanh"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown dynamics kind '{self.kind}'")
        check_finite(self)
        for f in fields(self):
            if f.type is int:
                setattr(self, f.name, whole(f.name, getattr(self, f.name), _LEAST.get(f.name)))
        if self.kind == "single_neuron" and (self.input_dim, self.output_dim) != (1, 1):
            raise ValueError("single_neuron dynamics are one-dimensional")
        if self.kind in _TWO_LAYER_KINDS and self.hidden_dim < 1:
            raise ValueError(f"{self.kind} needs hidden_dim >= 1")
        if self.dt <= 0 or self.tau_w <= 0:
            raise ValueError("dt and tau_w must be positive")
        if self.nonlinearity not in _NONLIN:
            raise ValueError(f"unknown nonlinearity '{self.nonlinearity}'")
        if self.kind != "nonlinear_taylor" and self.nonlinearity != "tanh":
            raise ValueError(f"dynamics kind {self.kind} ignores nonlinearity: "
                             f"set it to 'tanh', not '{self.nonlinearity}'")

    @property
    def horizon(self):
        return self.n_steps * self.dt


@dataclass
class TaskSchedule:
    """Piecewise-constant task selector for switching experiments."""

    tasks: list
    period_steps: int
    n_steps: int

    def __post_init__(self):
        # one block layout, so a stack of steps reduces engagement VJPs per block at once
        dims = {(t.input_dim, t.output_dim, t.blocks and tuple(t.blocks.output_sizes())) for t in self.tasks}
        if len(dims) != 1:
            raise ValueError("all tasks in a schedule must share dimensions and blocks")
        self.period_steps = whole("period_steps", self.period_steps, 1)
        self.n_steps = whole("n_steps", self.n_steps, 1)

    def task_at(self, step):
        return self.tasks[(step // self.period_steps) % len(self.tasks)]

    @property
    def switch_steps(self):
        return list(range(self.period_steps, self.n_steps, self.period_steps))


@dataclass
class Trajectory:
    """Recorded rollout: per-layer state stacks and exact expected losses on the step grid.

    layers holds one stack per layer with n_steps+1 entries, entry i the layer
    at step i: an array whose leading axis is the step, or a list of Python
    floats for the single neuron.  losses[i] is the expected loss at state i,
    evaluated with the control slice governing step min(i, n_steps-1) so the
    terminal state is scored under the last control.

    A task set of B tasks is one rollout with a batch axis after the step
    axis: layers (n_steps+1, B, ...) and losses (n_steps+1, B).  per_task()
    gives each task's rollout.

    integrate's rollout also carries what the adjoint sweep reads of it: rows,
    the packed buffer (n_steps+1, ..., K) its array layers view (the single
    neuron's weights as one array beside its float list), and args,
    each run's args (see _Plan).  A Trajectory without them (hand-built, or
    from per_task()) sweeps to the same bits, the sweep making them itself.
    """

    times: np.ndarray
    layers: tuple
    losses: np.ndarray
    kind: str
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    args: list | None = field(default=None, repr=False, compare=False)

    @property
    def n_steps(self):
        return len(self.layers[0]) - 1

    @property
    def states(self):
        """Every state in step order, a tuple of layers (views into the stacks) each."""
        return list(zip(*self.layers))

    def per_task(self):
        """The rollout of each task of a task set, in task order, as contiguous copies."""

        def column(layer, k):
            return layer[:, k].tolist() if self.kind == "single_neuron" else layer[:, k].copy()

        layers = [tuple(column(layer, k) for layer in self.layers) for k in range(self.losses.shape[1])]
        return [Trajectory(self.times, ls, self.losses[:, k].copy(), self.kind) for k, ls in enumerate(layers)]


def is_task_set(task):
    """A task set is a sequence of same-shape tasks, rolled out from one start on a batch axis."""
    return isinstance(task, (list, tuple))


class TaskSet(tuple):
    """A task set, its moments stacked once when made: sx, sxy_t (Sxy^T), tr_sy, mean_x, mean_y; TaskSet(it) is it."""

    def __new__(cls, tasks):
        if type(tasks) is cls:
            return tasks
        self = super().__new__(cls, tasks)
        self.sx, self.sxy_t = np.array([t.sigma_x for t in self]), _mT(np.array([t.sigma_xy for t in self]))
        self.tr_sy = np.array([t.sigma_y.trace() for t in self])
        self.mean_x, self.mean_y = np.array([t.mean_x for t in self]), np.array([t.mean_y for t in self])
        return self


def _layer_shapes(spec):
    """The shape of each layer of the spec's state: a matrix, or () for the single neuron's weight."""
    if spec.kind == "single_neuron":
        return ((),)
    if spec.kind == "single_layer":
        return ((spec.output_dim, spec.input_dim),)
    return (spec.hidden_dim, spec.input_dim), (spec.output_dim, spec.hidden_dim)


def initial_state(spec, override=None):
    """Starting weights as a tuple of arrays (floats for single_neuron): `override`'s, else drawn from the spec."""
    if override is None:
        shapes = _layer_shapes(spec)
        if spec.init_std == 0.0:
            override = [np.full(s, spec.init_mean) for s in shapes]
        else:
            rng = np.random.default_rng(spec.init_seed)
            override = [spec.init_mean + spec.init_std * rng.standard_normal(s) for s in shapes]
    if spec.kind == "single_neuron":
        return (float(override[0]),)
    return tuple(np.array(w, dtype=float, copy=True) for w in override)


# 1.0 and 0.0 as read-only 0-d arrays, which a ufunc takes at less cost than Python floats
_ONE, _ZERO = np.array(1.0), np.array(0.0)
_ONE.flags.writeable = _ZERO.flags.writeable = False

# (f, fp, fpp) of each elementwise nonlinearity: f(u), f'(u) from f0 = f(u), and f''(u) from f0 and f'(u)
_NONLIN = {
    "tanh": (np.tanh, lambda t: _ONE - t * t, lambda t, d1: -2.0 * t * d1),
    "identity": (lambda u: u, np.ones_like, lambda t, d1: np.zeros_like(t)),
}


def _mT(x):
    """Transpose of the last two axes: .T of one matrix, per step on a stack."""
    return x.swapaxes(-1, -2)


def _map_losses(m_eff, sx, sxy_t, tr_sy, weights, lam):
    """0.5 tr(Sy) - <M, Sxy^T> + 0.5 <M Sx, M> + 0.5 lambda sum |W|^2 of a map M or a stack of them."""
    loss = 0.5 * tr_sy - (m_eff * sxy_t).sum(axis=(-2, -1)) + 0.5 * ((m_eff @ sx) * m_eff).sum(axis=(-2, -1))
    if lam:
        loss = loss + 0.5 * lam * sum(np.square(w).sum(axis=(-2, -1)) for w in weights)
    return loss


# --- single neuron ----------------------------------------------------------


def _neuron_base(task, spec):
    """(g~, mu, x2, sy, lambda) under no control, g~ = 1.0, and the task's moments as Python floats.

    They are the arguments of the float helpers below after the weight.
    """
    return 1.0, float(task.sigma_xy[0, 0]), float(task.sigma_x[0, 0]), float(task.sigma_y[0, 0]), spec.reg_lambda


# The float helpers are the single neuron's one-step entry.  The float loops in
# integrate and value._neuron_sweep carry only the recurrences, in the helpers'
# product order with the leading products hoisted per run; the losses and each
# step's other terms are one numpy pass each over the recorded weights, in the
# same order.  The loss squares with np.float_power, libm pow as Python's `** 2`
# is: np.square, u * u and np.power(u, 2.0) round differently on some inputs.
def _neuron_fields(stack, k):
    """The first k float args (g~, mu, x2, sy, lambda) of each state of a stack, as k rows of one array."""
    return np.array(list(zip(*stack.args))[:k], dtype=float).take(stack.idx, axis=1)


def _neuron_losses(layers, stack, spec):
    """The single neuron's losses of a stack of weights layers[0] (floats or an array), in one pass.

    A square past the float range is inf here, where a Python float's `** 2` raises.
    """
    w = np.asarray(layers[0], dtype=float)
    gt, mu, x2, sy = _neuron_fields(stack, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (sy - 2.0 * gt * w * mu + x2 * np.float_power(gt * w, 2.0)) + 0.5 * spec.reg_lambda * w * w


def _neuron_divergence(rows, stack, losses):
    """Raise DivergenceError at the first step that diverged, state i's loss scored before weight i + 1 is checked.

    rows holds the weights of states 0..n, losses their losses under `stack`.  j
    is the first step whose next weight is not below DIVERGENCE_LIMIT (a nan
    too), else n.  The first of states 0..j whose finite g~ w squares past the
    float range is a divergence at its step, as its float `** 2` raised;
    otherwise step j < n is one at the magnitude of weight j + 1.
    """
    n = len(rows) - 1
    hits = np.flatnonzero(~(np.abs(rows[1:]) < DIVERGENCE_LIMIT))
    j = int(hits[0]) if len(hits) else n
    if not np.isfinite(losses[: j + 1]).all():  # an overflowing square leaves its loss inf or nan
        u = _neuron_fields(stack, 1)[0, : j + 1] * rows[: j + 1]
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.isfinite(u) & np.isinf(np.float_power(u, 2.0)))
        if len(over):
            raise _divergence(np.inf, int(over[0]))
    if j < n:
        raise _divergence(float(abs(rows[j + 1])), j)


def _neuron_flow(w, gt, mu, x2, sy, lam):
    """Flow of a single weight under gain control: dw*tau = mu*g~ - w*(x2*g~^2 + lambda)."""
    return mu * gt - w * (x2 * gt * gt + lam)


def _neuron_backward(w, gt, mu, x2, sy, lam, a):
    dhdw = -(x2 * gt * gt + lam)
    dhdg = mu - 2.0 * w * x2 * gt
    dldw = -mu * gt + x2 * w * gt * gt + lam * w
    dldg = -mu * w + x2 * w * w * gt
    return (dhdw * a,), dhdg * a, (dldw,), dldg


def _neuron_series(controls, bases, batched):
    """Each run's float args: its neutral args with the gain g~ = 1 + g, all of them from one tolist()."""
    return [(gt, mu, x2, sy, lam) for gt, (_, mu, x2, sy, lam) in zip((1.0 + controls).tolist(), bases)]


# --- packed rows and task moments -------------------------------------------

# The moment kinds' args: the gains g~ = 1 + g packed like the state, dvec as a
# column and the boost 1 + rate as a length-1 array (None where absent), task
# moments, lambda (0-d, as a step's ufuncs take it), and for the VJPs the raw
# control slice and task.  For a task set: its stacked moments, the control
# fields on a length-1 batch axis, its first task.
_PairArgs = namedtuple("_PairArgs", "g dcol boost sx sxy_t tr_sy lam ctrl task")


def _shapes(layers):
    """The matrix shape of each layer of a state or of a stack of states."""
    return tuple(w.shape[-2:] for w in layers)


def _pack(layers):
    """Layers (of a state or of stacks of states) as packed rows [W1.ravel() | W2.ravel()], a copy."""
    return np.concatenate([w.reshape(*w.shape[:-2], -1) for w in layers], axis=-1)


def _split(rows, shapes):
    """The one or two layers of packed rows (..., K), as views of them, in layer order."""
    lead, cut = rows.shape[:-1], shapes[0][0] * shapes[0][1]
    if len(shapes) == 1:
        return (rows.reshape(lead + shapes[0]),)
    return rows[..., :cut].reshape(lead + shapes[0]), rows[..., cut:].reshape(lead + shapes[1])


def _gained(layers, g):
    """The gained maps G~ o W of layers (or of stacks of them) under packed gains g; None leaves them as they are."""
    return layers if g is None else tuple(gl * w for gl, w in zip(_split(g, _shapes(layers)), layers))


# The args of a stack of states: `args`, those of each run the stack meets, in
# order, and each state's run among them, as a list (`pos`) and an int array
# (`idx`).  State j reads args[pos[j]].
_Stack = namedtuple("_Stack", "args pos idx")


def _lone(args):
    """The _Stack of one state under `args`."""
    return _Stack([args], [0], np.zeros(1, dtype=int))


def _gather(stack, *fields):
    """A stack's args with the named fields stacked by state.

    A field every state shares is kept as is, to broadcast; None stays None.
    """
    args = stack.args
    if len(args) == 1:
        return args[0]
    return args[0]._replace(**{
        f: None if getattr(args[0], f) is None else np.stack([getattr(a, f) for a in args])[stack.idx] for f in fields
    })


def _moment_base(task, spec):
    """The neutral args of a kind driven by the task's moments: no channels and no control slice."""
    lam = np.array(spec.reg_lambda)
    if is_task_set(task):
        ts = TaskSet(task)
        return _PairArgs(None, None, None, ts.sx, ts.sxy_t, ts.tr_sy, lam, None, task[0])
    return _PairArgs(None, None, None, task.sigma_x, task.sigma_xy.T, float(task.sigma_y.trace()), lam, None, task)


def _series_args(channels):
    """The series slot of a kind driven by the task's moments, from channels(controls, task) -> (g, dcol, boost).

    channels maps a stack of slices to a stack per channel (None where absent); a run's ctrl is its row of the stack.
    """

    def series(controls, bases, batched):
        chans = channels(controls, bases[0].task)
        stacks = {f: c[:, None] if batched else c for f, c in zip(("g", "dcol", "boost"), chans) if c is not None}
        ctrls = list(zip(*controls)) if isinstance(controls, tuple) else list(controls[:, None] if batched else controls)
        return [b._replace(ctrl=c, **dict(zip(stacks, row))) for b, c, *row in zip(bases, ctrls, *stacks.values())]

    return series


def _weights_column(pw, ndim):
    """The value weights pw shaped to broadcast over a stack of `ndim`-dimensional rows."""
    return pw.reshape(-1, *(1,) * (ndim - 1))


class _Sweep:
    """Reverse mode of a kind's flow and loss over a stack of steps, on packed rows: the protocol of every array kind.

    A kind's sweep slot, sweep(shapes, lead, spec), makes the sweep of stacks
    of packed rows (*lead, K) once, with its buffers and per-step views.
    load(w, stack, pw, pws) fills them for one stack (w the rows, stack their
    _Stack, pw the states' value weights, pws the same as floats), doing
    batched all that does not read the adjoint, and returns the sweep; its
    _loss_grads keeps dL/dW (`lw`) and pl, a row of pw_i dL/dW per state i.
    adjoints(a) runs the recurrence a <- a + scale [dh/dW]^T a - pw_j dL/dW
    over the stack's steps j, last first, from the adjoint row a of the state
    after the stack, and returns the row of its first state; a step at pw_j =
    0 subtracts nothing.  Step j reads its a from row j + 1 of `adj`, a row
    per state and one for the state after, and writes row j, so `sa`, the view
    adj[1:], holds each step's a for the control VJPs.  A step keeps the
    gained maps' adjoint in `sabb` and [dh/dW]^T a in `x` (scaled into
    `scaled`), so x is the last step's once adjoints returns.  Once every step
    is swept, contract() returns the control VJPs, control_vjp(sweep), and the
    loss gradients, tuples of stacks, None where the kind or the stack has no
    control, summed over a task set's batch axis.  A load writes every buffer
    it later reads, and what adjoints and contract return is new, never a view
    of a buffer.  scale (dt/tau) and neg_lam (-lambda) are 0-d arrays, as a
    step's ufuncs take them.  release() drops what load kept of the stack
    (`stack_fields`), so a sweep kept between passes holds only its buffers
    (and a pair sweep its last args' bound flow), not a rollout's rows.
    """

    stack_fields = ("w", "stack", "args", "pos", "pws", "lg")

    def __init__(self, shapes, lead, spec, control_vjp=None):
        self.shapes, self.scale, self.neg_lam = shapes, np.array(spec.dt / spec.tau_w), np.array(-spec.reg_lambda)
        self.control_vjp, width = control_vjp, sum(r * c for r, c in shapes)
        self.lw, self.plb, self.sabb = np.empty((3, *lead, width))
        self.adj = np.empty((lead[0] + 1, *lead[1:], width))
        self.sa, self.pl = self.adj[1:], list(self.plb)
        self.x, self.scaled = np.empty((2, *lead[1:], width))

    def load(self, w, stack, pw, pws):
        self.w, self.stack, self.args, self.pos, self.pws = w, stack, stack.args, stack.pos, pws
        return self

    def release(self):
        for name in self.stack_fields:
            setattr(self, name, None)

    def _loss_grads(self, lx, a, pw):
        """Fill dL/dW = lx o G~ + lambda W and pl from lx, dL/d(G~ o W), and keep lg, dL/dG~ = lx o W."""
        w = self.w
        lw = lx if a.g is None else np.multiply(lx, a.g, out=self.lw)
        np.add(lw, a.lam * w, out=self.lw)
        self.lg = None if a.g is None else _split(lx * w, self.shapes)
        np.multiply(_weights_column(pw, w.ndim), self.lw, out=self.plb)

    def contract(self):
        if self.control_vjp is None or self.args[0].ctrl is None:
            return None, None
        grads = self.control_vjp(self), self.lg
        if self.w.ndim == 3:  # a task set's stacks (step, task, K)
            grads = (None if x is None else tuple(v.sum(axis=1) for v in x) for x in grads)
        return tuple(grads)


# --- linear two-layer kernel ------------------------------------------------


def _pair_flows(shapes, lead):
    """The shared kernel at packed rows (*lead, K): bind(a) gives its flow h(w) under args `a`.

    Every h writes the buffers, made once here, in full before it reads them,
    so one set serves every run of a pass.  h(w) is the flow boost
    (UP o G~ - lambda W) with UP = B^T E_d | E_d A^T, every elementwise op
    done once on the packed row.  bind.bufs holds the buffers a call fills:
    the gained maps A, B (views of G~ o W), x1 = A Sx, the error
    E = Sxy^T - B x1, E_d = dvec o E (written only under a dvec, E standing
    for it otherwise), and UP.  The four products go through
    ndarray.dot at a lone row (no `lead`) and np.matmul over batch axes,
    which dot does not broadcast.  Both make the same BLAS call, so the
    bits agree, and dot costs about a third of matmul's ufunc dispatch.
    The step's other ops write into buffers too (UP o G~, lambda W and h),
    so h is one of them: valid until this kernel's next call.  Every call
    takes the module's cheapest entry, a positional `out` and 0-d lambda
    and 1.0 (see the module docstring).
    """
    (hid, inp), (out, _) = shapes
    ab, up, gup, lw, h = np.empty((5, *lead, hid * inp + out * hid))
    (a_mat, b_mat), (up1, up2) = _split(ab, shapes), _split(up, shapes)
    a_t, b_t = _mT(a_mat), _mT(b_mat)
    x1, err, bx, err_dcol = np.empty((*lead, hid, inp)), *np.empty((3, *lead, out, inp))
    mm = np.matmul if lead else np.ndarray.dot

    def bind(a):
        g, dcol, boost, sx, sxy_t, lam = a.g, a.dcol, a.boost, a.sx, a.sxy_t, a.lam
        gains = _ONE if g is None else g  # x * 1.0 is x: a copy
        err_d = err if dcol is None else err_dcol

        def flow(w):
            np.multiply(gains, w, ab)
            mm(a_mat, sx, x1)
            mm(b_mat, x1, bx)
            np.subtract(sxy_t, bx, err)
            if dcol is not None:
                np.multiply(dcol, err, err_d)
            mm(b_t, err_d, up1)
            mm(err_d, a_t, up2)
            np.subtract(up if g is None else np.multiply(up, g, gup), np.multiply(lam, w, lw), h)
            return h if boost is None else np.multiply(boost, h, h)

        return flow

    bind.bufs = a_mat, b_mat, x1, err, err_dcol, up
    return bind


class _PairSweep(_Sweep):
    """The sweep of the shared kernel and of the pair's loss.

    Its buffers: _Sweep's, the kernel's (bind), the error's adjoint (`edb`),
    the products' scratch `tmp`, the adjoint's gained copy `ub` and the
    step's elementwise results `elem`; `rows` holds each step's views, its
    entering and leaving adjoint rows among them.
    load runs the kernel on the stack (`p` is its flow before the boost, a
    kernel buffer held until the next load, bound again only for args other
    than the last stack's, `bound`) and forms dL/dW batched.  A step of
    adjoints reads its own args, its seven products (dot or matmul, as in
    _pair_flows) write into the destination rows and `tmp`, and its
    elementwise ops into `elem`, `x`, `scaled` and its leaving adjoint row.
    Like the kernel's, each call passes `out` positionally and takes dt/tau,
    -lambda and 1.0 as 0-d arrays.
    """

    stack_fields = _Sweep.stack_fields + ("p",)

    def __init__(self, shapes, lead, spec, control_vjp=None):
        super().__init__(shapes, lead, spec, control_vjp)
        (_, inp), (out, hid) = shapes
        self.bind, self.bound = _pair_flows(shapes, lead), None
        a_mat, b_mat, x1, self.err, err_dcol, self.up = self.bind.bufs
        self.edb, inner = np.empty_like(self.err), lead[1:]
        self.mm = np.matmul if inner else np.ndarray.dot
        self.tmp = np.empty((*inner, out, inp)), np.empty((*inner, out, hid)), *np.empty((2, *inner, hid, inp))
        ub, gpb, gab = np.empty((3, *self.x.shape))
        self.elem = gpb, gab, np.empty(self.edb.shape[1:])
        self.ub = (ub, *_split(ub, shapes), *(_mT(u) for u in _split(ub, shapes)))
        self.rows = list(zip(a_mat, b_mat, _mT(b_mat), _mT(x1), self.err, err_dcol, self.sabb,
                             *_split(self.sabb, shapes), self.edb, self.sa, self.adj[:-1]))

    def load(self, w, stack, pw, pws):
        super().load(w, stack, pw, pws)
        a = _gather(stack, "g", "dcol", "sx", "sxy_t")
        if a is not self.bound:  # a one-run stack under a plan's neutral args meets the same args every pass
            self.bound, self.flow = a, self.bind(a._replace(boost=None))
        self.p = self.flow(w)
        a_mat, b_mat = self.bind.bufs[:2]
        # the map ignores dvec and rate; b^T (-err) is -(b^T err) bit for bit
        la = -self.up if a.dcol is None else _pack((_mT(b_mat) @ -self.err, -self.err @ _mT(a_mat)))
        self._loss_grads(la, a, pw)
        return self

    def adjoints(self, a):
        rows, args, pos, pws, pl = self.rows, self.args, self.pos, self.pws, self.pl
        scale, neg_lam, x, scaled = self.scale, self.neg_lam, self.x, self.scaled
        ub, u1b, u2b, u1b_t, u2b_t = self.ub
        mm, (te, tb, ta, tas), (gpb, gab, ebb) = self.mm, self.tmp, self.elem
        self.adj[-1] = a
        for j in range(len(pos) - 1, -1, -1):
            a_mat, b_mat, b_t, x1_t, err, err_dcol, abb, ab, bb, edb, a, a_out = rows[j]
            t = args[pos[j]]
            g, dcol, boost, sx = t.g, t.dcol, t.boost, t.sx
            gp = a if boost is None else np.multiply(boost, a, gpb)
            np.multiply(gp, _ONE if g is None else g, ub)  # x * 1.0 is x: a copy
            np.add(mm(b_mat, u1b, edb), mm(u2b, a_mat, te), edb)
            eb = edb if dcol is None else np.multiply(dcol, edb, ebb)
            err_d = err if dcol is None else err_dcol
            np.subtract(mm(err_d, u1b_t, bb), mm(eb, x1_t, tb), bb)
            np.subtract(mm(u2b_t, err_d, ab), mm(mm(b_t, eb, ta), sx, tas), ab)
            np.add(np.multiply(neg_lam, gp, x), abb if g is None else np.multiply(abb, g, gab), x)
            np.add(a, np.multiply(scale, x, scaled), a_out)
            if pws[j]:
                np.subtract(a_out, pl[j], a_out)
        return self.adj[0].copy()


def _pair_kind(reads, channels, control_vjp=None):
    """Entry of a linear two-layer kind from the controls it reads and its two maps.

    channels(controls, task) -> (packed g~, dcol, boost) feeds the kernel;
    control_vjp(sweep) -> per-step stacks of the control's arrays, read from
    the sweep's kernel buffers and the adjoint keeps (`sa` the adjoints a,
    `sabb` the gained maps' adjoints, `edb` the error's).
    """
    return _Kind(2, reads, _moment_base, _series_args(channels), _pair_flows, _moment_losses,
                 partial(_PairSweep, control_vjp=control_vjp))


def _gain_channels(controls, task):
    return _pack((1.0 + controls[0], 1.0 + controls[1])), None, None


def _gain_vjp(sweep):
    # `up` is the flow before gains and decay (nonlinear_taylor's Z); no boost here, so the adjoints a are gp
    return _split(sweep.sa * sweep.up + sweep.sabb * sweep.w, sweep.shapes)


def _engagement_channels(controls, task):
    """Per-task error scaling on a block-composed task.

    Scaling the error rows of each task's output block by its engagement
    weight is identical to the weighted sum of per-task gradient flows,
    because each task's targets occupy disjoint output rows while the input
    covariance is shared.
    """
    if task.blocks is None:
        raise ValueError("engagement dynamics need a block-composed task")
    sizes = task.blocks.output_sizes()
    if controls.shape[-1] != len(sizes):
        raise ValueError(f"engagement vector length {controls.shape[-1]} != task count {len(sizes)}")
    return None, np.repeat(controls, sizes, axis=-1)[..., None], None


def _row_vjp(sweep):
    """Gradient wrt the error-row scales dvec at each step."""
    return (sweep.edb * sweep.err).sum(axis=-1)


def _engagement_vjp(sweep):
    bounds = np.cumsum([0] + sweep.args[0].task.blocks.output_sizes())
    return (np.add.reduceat(_row_vjp(sweep), bounds[:-1], axis=-1),)


def _category_channels(phi, task):
    if phi.shape[-1] != task.output_dim:
        raise ValueError(f"class engagement length {phi.shape[-1]} != output dim {task.output_dim}")
    return None, (phi * phi)[..., None], None


def _category_vjp(sweep):
    return (2.0 * _gather(sweep.stack, "ctrl").ctrl * _row_vjp(sweep),)


def _rate_channels(controls, task):
    return None, None, (1.0 + controls)[..., None]


def _rate_vjp(sweep):
    (a1, a2), (p1, p2) = _split(sweep.sa, sweep.shapes), _split(sweep.p, sweep.shapes)
    return ((a1 * p1).sum(axis=(-2, -1)) + (a2 * p2).sum(axis=(-2, -1)),)


# --- single layer -----------------------------------------------------------


def _layer_channels(controls, task):
    g = 1.0 + (controls[0] if isinstance(controls, tuple) else controls)
    g = g[:, None, None] if g.ndim == 1 else g  # a stack of scalar gains, as the single neuron's closed form gives
    return np.broadcast_to(g, (len(g), task.output_dim, task.input_dim)).reshape(len(g), -1), None, None


def _layer_flows(shapes, lead):
    """One-layer flow with elementwise gains at packed rows: ((Sxy^T - A Sx) o G~) - lambda W, A = G~ o W."""

    def bind(a):
        def flow(w):
            err = (a.sxy_t - _split(w if a.g is None else a.g * w, shapes)[0] @ a.sx).reshape(w.shape)
            return (err if a.g is None else err * a.g) - a.lam * w

        return flow

    return bind


def _moment_losses(layers, stack, spec):
    """The losses of a kind driven by the task's moments, whose map is the gained layers' product, last first."""
    a = _gather(stack, "g", "sx", "sxy_t", "tr_sy")
    return _map_losses(reduce(np.matmul, _gained(layers, a.g)[::-1]), a.sx, a.sxy_t, a.tr_sy, layers, spec.reg_lambda)


def _layer_sweep(shapes, lead, spec):
    raise UnsupportedOperationError("no adjoint for single_layer dynamics; use the closed form")


# --- nonlinear Taylor expansion ---------------------------------------------

# nonlinear_taylor's args: packed gains g~ (None where absent), the nonlinearity's
# (f, fp, fpp), the means <x> and <y> as columns, the input covariance
# S = Sx - <x><x>^T, R = Sxy^T - <y><x>^T, Sxy, tr Sy, lambda, the control slice
# and task; a task set's stacked on a batch axis, as _moment_base does.
_TaylorArgs = namedtuple("_TaylorArgs", "g nl mcol ycol s r sxy tr_sy lam ctrl task")


def _taylor_base(task, spec):
    task = TaskSet(task) if is_task_set(task) else task
    a = _moment_base(task, spec)
    mcol, ycol, mrow = task.mean_x[..., :, None], task.mean_y[..., :, None], task.mean_x[..., None, :]
    return _TaylorArgs(None, _NONLIN[spec.nonlinearity], mcol, ycol, a.sx - mcol * mrow, a.sxy_t - ycol * mrow,
                       _mT(a.sxy_t), a.tr_sy, a.lam, None, a.task)


def _expand(a_mat, a):
    """First-order expansion of f(A x) around u = A <x> at a gained map A or a stack of them.

    Returns (f0, f'(u), J, J S, Ff, Fy): J = diag f'(u) A carries the input
    covariance, Ff = f0 f0^T + J S J^T stands for <f f^T> and
    Fy = <y> f0^T + R J^T for <y f^T>.  With the identity nonlinearity this
    collapses algebraically onto the linear gain_mod flow.
    """
    f, fp, _ = a.nl
    f0 = f((a_mat @ a.mcol)[..., 0])
    d1 = fp(f0)
    j = d1[..., None] * a_mat
    js, j_t = j @ a.s, _mT(j)
    return f0, d1, j, js, f0[..., :, None] * f0[..., None, :] + js @ j_t, a.ycol * f0[..., None, :] + a.r @ j_t


def _taylor_z(b_mat, a, e, z1, z2):
    """Write the flow before gains and decay into z1 = diag f'(u) K and z2 = Fy - B Ff; return (Q, B^T B, K).

    Q = f0 <x>^T + J S and K = B^T Sxy^T - B^T B Q, for the expansion e of _expand.
    """
    f0, d1, _, js, ff, fy = e
    np.subtract(fy, b_mat @ ff, z2)
    q = f0[..., :, None] * _mT(a.mcol) + js
    c2 = _mT(b_mat) @ b_mat
    k = _mT(b_mat) @ _mT(a.sxy) - c2 @ q
    np.multiply(d1[..., None], k, z1)
    return q, c2, k


def _taylor_flows(shapes, lead):
    """nonlinear_taylor's flow at packed rows (*lead, K), as _pair_flows gives the pair's.

    h(w) = Z o G~ - lambda W, Z = [diag f'(u) K | Fy - B Ff] from _taylor_z;
    the gained maps, Z, Z o G~, lambda W and h fill buffers made once here,
    so h is valid until this kernel's next call.
    """
    ab, zz, gz, lw, h = np.empty((5, *lead, sum(r * c for r, c in shapes)))
    (a_mat, b_mat), (z1, z2) = _split(ab, shapes), _split(zz, shapes)

    def bind(a):
        g, lam = a.g, a.lam
        gains = _ONE if g is None else g  # x * 1.0 is x: a copy

        def flow(w):
            np.multiply(gains, w, ab)
            _taylor_z(b_mat, a, _expand(a_mat, a), z1, z2)
            return np.subtract(zz if g is None else np.multiply(zz, g, gz), np.multiply(lam, w, lw), h)

        return flow

    return bind


def _taylor_losses(layers, stack, spec):
    a = _gather(stack, "g", "mcol", "ycol", "s", "r", "tr_sy")
    a_mat, b_mat = _gained(layers, a.g)
    *_, ff, fy = _expand(a_mat, a)
    return _map_losses(b_mat, ff, fy, a.tr_sy, layers, spec.reg_lambda)


# The expansion at a state, or at a stack of states, that the Taylor reverse chain reads.
_Terms = namedtuple("_Terms", "a b f0 d1 d2 j q c2 k ff")


def _taylor_tail(e, t, fyb, ffb, kb, d1b):
    """Reverse chain Fy, Ff, K -> (f0, J, u) -> the gained maps: their adjoints (B's None without kb).

    e holds the _Terms, t the args (a stack's gathered, or one step's own)
    whose mcol, ycol, r, s, sxy it reads, fyb, ffb and kb the adjoints of Fy,
    Ff and K (kb None drops the K terms) and d1b f'(u)'s seed (None for none).
    Each adjoint sums from +0.0, which makes a -0.0 first term +0.0.
    """
    fyb_t, sym = _mT(fyb), ffb + _mT(ffb)
    f0b = _ZERO + (fyb_t @ t.ycol)[..., 0] + (sym @ e.f0[..., None])[..., 0]
    jb = _ZERO + fyb_t @ t.r + sym @ e.j @ t.s
    bb = None
    if kb is not None:
        c2b, qb = -kb @ _mT(e.q), -e.c2 @ kb
        bb = _ZERO + _mT(kb @ t.sxy) + e.b @ (c2b + _mT(c2b))
        f0b = f0b + (qb @ t.mcol)[..., 0]
        jb = jb + qb @ t.s
    d1b = (_ZERO if d1b is None else d1b) + (jb * e.a).sum(axis=-1)
    ub = e.d1 * f0b + e.d2 * d1b
    return e.d1[..., None] * jb + ub[..., :, None] * _mT(t.mcol), bb


class _TaylorSweep(_Sweep):
    """The sweep of nonlinear_taylor's flow and loss.

    Its buffers: _Sweep's, with each step's views of `sabb` and of its
    entering and leaving adjoint rows (`xb_rows`), the flow's Z (`up`, as
    the pair kernel names its flow before gains and decay) and the step's
    elementwise results `elem`.  load forms the expansion (_Terms) and the
    loss gradients on the whole stack, the latter through the tail seeded
    by the loss alone, so a step of adjoints runs only the dynamics'
    reverse chain on its own terms, writing its leaving adjoint row.
    """

    stack_fields = _Sweep.stack_fields + ("rows",)

    def __init__(self, shapes, lead, spec, control_vjp=None):
        super().__init__(shapes, lead, spec, control_vjp)
        self.up = np.empty_like(self.lw)
        self.z = _split(self.up, shapes)
        self.xb_rows = list(zip(self.sabb, *_split(self.sabb, shapes), self.sa, self.adj[:-1]))
        self.elem = tuple(np.empty((2, *self.x.shape)))

    def load(self, w, stack, pw, pws):
        super().load(w, stack, pw, pws)
        a = _gather(stack, "g", "mcol", "ycol", "s", "r", "sxy")
        a_mat, b_mat = _split(w if a.g is None else a.g * w, self.shapes)
        e = _expand(a_mat, a)
        q, c2, k = _taylor_z(b_mat, a, e, *self.z)
        f0, d1, j, _, ff, _ = e
        terms = _Terms(a_mat, b_mat, f0, d1, a.nl[2](f0, d1), j, q, c2, k, ff)
        lab, _ = _taylor_tail(terms, a, -b_mat, 0.5 * c2, None, None)
        self._loss_grads(_pack((lab, 0.0 - self.z[1])), a, pw)
        self.rows = list(zip(map(_Terms._make, zip(*terms)), self.xb_rows))
        return self

    def adjoints(self, a):
        rows, args, pos, pws, pl = self.rows, self.args, self.pos, self.pws, self.pl
        scale, neg_lam, x, scaled, (ga, gxb) = self.scale, self.neg_lam, self.x, self.scaled, self.elem
        self.adj[-1] = a
        for j in range(len(pos) - 1, -1, -1):
            e, (xb, ab, bb, a, a_out) = rows[j]
            t = args[pos[j]]
            g = t.g
            gz1, gz2 = _split(a if g is None else np.multiply(a, g, ga), self.shapes)
            ab[...], tail_b = _taylor_tail(e, t, gz2, -(_mT(e.b) @ gz2), e.d1[..., None] * gz1,
                                           (gz1 * e.k).sum(axis=-1))
            np.subtract(tail_b, gz2 @ e.ff, bb)
            np.add(np.multiply(neg_lam, a, x), xb if g is None else np.multiply(xb, g, gxb), x)
            np.add(a, np.multiply(scale, x, scaled), a_out)
            if pws[j]:
                np.subtract(a_out, pl[j], a_out)
        return self.adj[0].copy()


# --- the kind table ---------------------------------------------------------

# One dynamics kind: its layer count, the series control kinds its channels read
# (None: it reads no control), and the slots the module docstring describes,
# base(task, spec), series(controls, bases, batched), flow(shapes, lead)(args)(w),
# losses(layers, stack, spec) (stack a _Stack) and sweep(shapes, lead, spec).load(w, stack,
# pw, pws).  base gives a run's neutral args.  series, the one way a control gets into args,
# gives every run's args at once: controls stacks the runs' slices on a leading axis (a tuple
# of stacks for a matrix pair), bases holds their base args, batched says a task set.  The
# single neuron's entry holds only base, series and losses behind its float loops.
# single_layer reads none: no scenario builds its one-matrix gains, and it has no adjoint.
_Kind = namedtuple("_Kind", "layers reads base series flow losses sweep")

_KIND_TABLE = {
    "single_neuron": _Kind(1, ("scalar_series",), _neuron_base, _neuron_series, None, _neuron_losses, None),
    "single_layer": _Kind(1, (), _moment_base, _series_args(_layer_channels), _layer_flows, _moment_losses,
                          _layer_sweep),
    "two_layer_baseline": _pair_kind(None, lambda controls, task: (None, None, None)),
    "gain_mod": _pair_kind(("matrix_pair_series",), _gain_channels, _gain_vjp),
    "engagement": _pair_kind(("engagement_series",), _engagement_channels, _engagement_vjp),
    "category_engagement": _pair_kind(("category_series",), _category_channels, _category_vjp),
    "lr_mod": _pair_kind(("scalar_series",), _rate_channels, _rate_vjp),
    "nonlinear_taylor": _Kind(2, ("matrix_pair_series",), _taylor_base, _series_args(_gain_channels), _taylor_flows,
                              _taylor_losses, partial(_TaylorSweep, control_vjp=_gain_vjp)),
}

KINDS = tuple(_KIND_TABLE)
_TWO_LAYER_KINDS = tuple(k for k, entry in _KIND_TABLE.items() if entry.layers == 2)


def fits_control(kind, control):
    """Whether a dynamics kind runs under a control kind: init_weights, a series it reads, or any if it reads none."""
    reads = _KIND_TABLE[kind].reads
    return control == "init_weights" or reads is None or control in reads


def _one_step(state):
    """A state as a stack of one step."""
    return tuple([w] if isinstance(w, float) else np.asarray(w)[None] for w in state)


def _first(stacks, control):
    """Entry 0 of per-step stacks, shaped like the control slice."""
    if stacks is None:
        return None
    if isinstance(control, tuple) or len(stacks) > 1:
        return tuple(s[0] for s in stacks)
    row = stacks[0][0]
    return float(row) if np.ndim(row) == 0 else row


def _slice_args(control, task, spec):
    """The args of one control slice (None: the base), as the kind's series gives them to a one-run stack."""
    kind = _KIND_TABLE[spec.kind]
    base = kind.base(task, spec)
    if control is None:
        return base
    parts = tuple(np.asarray(c, dtype=float)[None] for c in (control if isinstance(control, tuple) else (control,)))
    return kind.series(parts if isinstance(control, tuple) else parts[0], [base], is_task_set(task))[0]


def expected_loss(state, control, task, spec):
    """Exact expected loss (plus weight decay) at a state under a control slice.

    `control` mirrors ControlSchedule.at(step) for the spec's kind; None means
    neutral.  Engagement-style controls never alter the loss, only learning.
    """
    kind = _KIND_TABLE[spec.kind]
    return float(kind.losses(_one_step(state), _lone(_slice_args(control, task, spec)), spec)[0])


def _rhs(spec, state, control, task):
    """Flow h(state, control) of the spec's kind, same structure as the state: the kind's flow at its packed row."""
    kind = _KIND_TABLE[spec.kind]
    a = _slice_args(control, task, spec)
    if kind.flow is None:
        return (_neuron_flow(state[0], *a),)
    shapes = _shapes(state)
    return _split(kind.flow(shapes, ())(a)(_pack(state)), shapes)


def backward_step(spec, state, control, task, a_next):
    """Reverse-mode quantities for one Euler step at (state, control).

    Returns (state_vjp, ctrl_vjp, loss_grad_state, loss_grad_ctrl):
      state_vjp       [dh/dstate]^T a_next, same structure as state
      ctrl_vjp        [dh/dcontrol]^T a_next, structure of the control slice
                      (None without a control)
      loss_grad_state dL/dstate at (state, control)
      loss_grad_ctrl  dL/dcontrol (None where the loss ignores the control)
    Everything is exact for the discretized system; finite differences agree
    to first order in the probe step.  single_layer has no adjoint and raises
    UnsupportedOperationError.  This is the kind's sweep over a one-step
    stack, on packed rows (the single neuron's float helper): one adjoints
    call, whose state_vjp is the sweep's `x` and loss_grad_state its dL/dW.
    """
    kind = _KIND_TABLE[spec.kind]
    a = _slice_args(control, task, spec)
    if kind.sweep is None:
        return _neuron_backward(state[0], *a, a_next[0])
    w = _pack(_one_step(state))
    sweep = kind.sweep(_shapes(state), w.shape[:-1], spec).load(w, _lone(a), np.zeros(1), [0.0])
    sweep.adjoints(_pack(a_next))
    state_vjp, loss_state = (_split(x.copy(), sweep.shapes) for x in (sweep.x, sweep.lw[0]))
    ctrl_vjp, loss_ctrl = sweep.contract()
    return state_vjp, _first(ctrl_vjp, control), loss_state, _first(loss_ctrl, control)


# --- integration ------------------------------------------------------------

SWEEP_CHUNK = 256  # steps per stack in the reverse sweep, which bounds its memory


def _series(schedule):
    """Whether `schedule` gives each run a control: a schedule, and not init_weights (it acts through the state)."""
    return schedule is not None and schedule.kind != "init_weights"


def _runs(schedule, task, n):
    """(lo, hi, task) of each run of the `n` steps, the one place a pass is cut.

    A run is a stretch of steps sharing one control slice and one task: a segment, cut again at each
    task switch.  A series schedule must cover the `n` steps.
    """
    series = _series(schedule)
    if series and schedule.n_steps != n:
        raise ValueError(f"schedule covers {schedule.n_steps} steps but dynamics run {n}")
    switching = isinstance(task, TaskSchedule)
    segment = schedule.segment if series else n
    cuts = sorted({n, *range(0, n, segment), *range(0, n, task.period_steps if switching else n)})
    return [(lo, hi, task.task_at(lo) if switching else task) for lo, hi in zip(cuts, cuts[1:])]


class _Plan:
    """What every pass of one spec over one task under one schedule layout shares, made once.

    A layout is a schedule's kind, n_steps and segment (or no schedule):
    passes under a plan differ only in the control values.  optimize builds
    one plan (value._plan) and hands it to each integrate and grad_value
    call; a call without one builds its own.  It holds
      runs       the step cuts and each run's task (_runs), run_of, the
                 run of each state, the terminal state taking the last, and
                 times, the step grid each rollout copies;
      series     whether the schedule gives each run a control (_series),
                 and then segs, the segment of each run;
      bases      each run's neutral args, made at the first call: the args
                 where no series control varies them (init_weights or no
                 schedule), else the base that the kind's series slot fills
                 per call from one map of the schedule's values (args);
      bind       the forward kernel of the kind's flow slot, its buffers
                 made once (None for the single neuron's float loop), with
                 step, the rollout's buffer for (dt/tau) h, and flows, each
                 state's bound flow, kept where the args are the bases;
      sweeper    per stack length, the kind's sweep, made once with its
                 buffers and per-step views and refilled per stack;
      stack      per stretch of states, its _Stack layout;
      weights    the value weights value._plan puts in (None here).
    Every buffer a pass writes it writes in full before reading it, and
    the rollout's rows are new per call, so passes under one plan share no
    state through it.
    """

    def __init__(self, spec, task, schedule, weights=None):
        self.spec, self.kind, self.weights = spec, _KIND_TABLE[spec.kind], weights
        self.runs, self.times = _runs(schedule, task, spec.n_steps), np.arange(spec.n_steps + 1) * spec.dt
        self.run_of = [r for r, (lo, hi, _) in enumerate(self.runs) for _ in range(lo, hi)] + [len(self.runs) - 1]
        self.series, self.bases, self.flows = _series(schedule), None, None
        self.segs = schedule.segment_of(np.array([lo for lo, _, _ in self.runs])) if self.series else None
        self.batch = (len(task),) if is_task_set(task) else ()
        self.shapes = self.bind = None
        if self.kind.flow is not None:
            self.shapes = _layer_shapes(spec)
            self.width = sum(r * c for r, c in self.shapes)
            self.bind = self.kind.flow(self.shapes, self.batch)
            self.step = np.empty((*self.batch, self.width))
        self._sweepers, self._stacks = {}, {}

    def args(self, schedule):
        """Each run's args under `schedule`'s controls: the bases, filled by one series call under a series."""
        if self.bases is None:
            self.bases = [self.kind.base(t, self.spec) for _, _, t in self.runs]
        if not self.series:
            return self.bases
        controls = tuple(v[self.segs] for v in schedule.values)
        controls = controls if schedule.kind == "matrix_pair_series" else controls[0]
        return self.kind.series(controls, self.bases, bool(self.batch))

    def stack(self, args, lo, hi):
        """The _Stack of states lo..hi-1 under each run's `args`."""
        got = self._stacks.get((lo, hi))
        if got is None:
            r0 = self.run_of[lo]
            pos = [r - r0 for r in self.run_of[lo:hi]]
            got = self._stacks[lo, hi] = r0, r0 + pos[-1] + 1, pos, np.array(pos)
        r0, r1, pos, idx = got
        return _Stack(args[r0:r1], pos, idx)

    def sweeper(self, length):
        """The kind's sweep over stacks of `length` states, made at the first such stack."""
        sweep = self._sweepers.get(length)
        if sweep is None:
            sweep = self._sweepers[length] = self.kind.sweep(self.shapes, (length, *self.batch), self.spec)
        return sweep

    def rollout(self, args, state):
        """(rows, layers): the Euler rollout from `state` under each run's `args`, unscored.

        rows is one new buffer of packed rows (n+1, *batch, K), the layers
        views of it; step i writes w + (dt/tau) h(w) into row i+1, h the bound
        flow of its run, (dt/tau) h going through the plan's `step` buffer,
        and walks the rows lazily.  Raises DivergenceError when any weight
        magnitude passes DIVERGENCE_LIMIT.
        """
        if _shapes(state) != self.shapes:
            raise ValueError(f"starting weights of shapes {_shapes(state)} do not fit the spec's {self.shapes}")
        n, scale, step = self.spec.n_steps, np.array(self.spec.dt / self.spec.tau_w), self.step
        rows = np.empty((n + 1, *self.batch, self.width))
        layers = _split(rows, self.shapes)
        for layer, w in zip(layers, state):
            layer[0] = w  # a task set's start, one per task
        flows = self.flows
        if flows is None:
            flows = [self.bind(a) for a in args]
            flows = [flows[r] for r in self.run_of]
            if not self.series:
                self.flows = flows
        # checked once per block of steps: a diverging rollout runs on to the end
        # of its block, where overflow is expected and kept silent
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n, DIVERGENCE_BLOCK):
                hi = min(lo + DIVERGENCE_BLOCK, n)
                for w, nxt, h in zip(rows[lo:hi], rows[lo + 1 : hi + 1], flows[lo:hi]):
                    np.add(w, np.multiply(scale, h(w), step), nxt)
                if not np.abs(rows[lo + 1 : hi + 1]).max() < DIVERGENCE_LIMIT:
                    _check_divergence(tuple(layer[lo + 1 : hi + 1] for layer in layers), lo)
        return rows, layers


def _divergence(peak, step):
    return DivergenceError(
        f"weight magnitude {peak:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at step {step}; "
        "the Euler step is too large for this system"
    )


def _check_divergence(layers, lo):
    """Raise DivergenceError as a check after each of steps lo, lo+1, ... would.

    `layers` holds per-layer stacks of the states those steps made.
    """
    if all(np.abs(layer).max(initial=0.0) < DIVERGENCE_LIMIT for layer in layers):
        return
    peaks = np.array([np.abs(np.asarray(layer)).reshape(len(layer), -1).max(axis=1, initial=0.0) for layer in layers])
    bad = ~(peaks < DIVERGENCE_LIMIT)
    j = int(bad.any(axis=0).argmax())
    raise _divergence(float(peaks[bad[:, j].argmax(), j]), lo + j)


def _start(spec, schedule, state0=None):
    """(schedule, state): the schedule, clamped with a warning if it leaves its bounds, and the starting state --
    an init_weights schedule's values, else `state0` or the spec's init."""
    if schedule is not None and schedule.out_of_bounds():
        warnings.warn("control schedule leaves its bounds; clamping for integration")
        schedule = schedule.project()
    init = schedule is not None and schedule.kind == "init_weights"
    return schedule, initial_state(spec, override=schedule.values if init else state0)


def integrate(spec, schedule, task, state0=None, *, plan=None):
    """Roll out the Euler discretization and record states and losses.

    `task` is a TaskMoments, a TaskSchedule (for switching) or a task set,
    rolled out as one batched Trajectory; `schedule` may be None for an
    uncontrolled run.  An init_weights schedule supplies the starting state;
    otherwise `state0` (if given) or the spec's init does.  `plan` is the
    _Plan of this spec, task and schedule layout that optimize builds; a call
    without one builds its own.  The rollout is _Plan.rollout, one buffer of
    packed rows, the layers views of it; the losses are batched after it.
    The Trajectory carries the rows and each run's args for the adjoint
    sweep.  Raises DivergenceError when any weight magnitude passes
    DIVERGENCE_LIMIT, or when a loss of the single neuron overflows (its
    g~ w squares past the float range), at the step of whichever came first.
    """
    if spec.kind == "single_neuron" and is_task_set(task):  # the float loop takes one task at a time
        trajs = [integrate(spec, schedule, t, state0) for t in task]
        layers = tuple(np.stack(layer, axis=1) for layer in zip(*(t.layers for t in trajs)))
        return Trajectory(trajs[0].times, layers, np.stack([t.losses for t in trajs], axis=1), spec.kind)
    schedule, state = _start(spec, schedule, state0)
    plan = plan or _Plan(spec, task, schedule)
    args = plan.args(schedule)
    n = spec.n_steps
    times = plan.times.copy()

    if spec.kind == "single_neuron":
        # Python floats, run by run, each run hoisting the leading products of
        # _neuron_flow, which Python evaluates first anyway, so the bits are its;
        # the loop runs on past a divergence, which the check after it finds
        scale, w = spec.dt / spec.tau_w, state[0]
        ws = [w]
        keep_w = ws.append
        for (lo, hi, _), (gt, mu, x2, _, lam) in zip(plan.runs, args):
            drive, decay = mu * gt, x2 * gt * gt + lam
            for _ in range(lo, hi):
                w = w + scale * (drive - w * decay)
                keep_w(w)
        rows, stack = np.array(ws, dtype=float), plan.stack(args, 0, n + 1)
        losses = _neuron_losses((rows,), stack, spec)
        _neuron_divergence(rows, stack, losses)
        return Trajectory(times, (ws,), losses, spec.kind, rows, args)

    rows, layers = plan.rollout(args, state)
    losses = plan.kind.losses(layers, plan.stack(args, 0, n + 1), spec)
    return Trajectory(times, layers, losses, spec.kind, rows, args)


def sweeps(traj, schedule, plan, pw, pws):
    """(lo, hi, sweep) over stacks of SWEEP_CHUNK states of `traj`, last first, each loaded when reached.

    `traj` is the rollout of `schedule` under `plan`; its rows and args are
    read as they are, or made here when it does not carry them.  pw[i] is
    the value weight of state i, and pws the same as floats.  The last stack
    ends at the terminal state n (hi = n + 1), scored under the last control
    like the rollout's last loss.  Each sweep is released when the caller
    asks for the next stack, so the plan's sweeps keep no rollout alive.
    """
    args = plan.args(schedule) if traj.args is None else traj.args
    for hi in range(plan.spec.n_steps + 1, 0, -SWEEP_CHUNK):
        lo = max(hi - SWEEP_CHUNK, 0)
        w = _pack(tuple(layer[lo:hi] for layer in traj.layers)) if traj.rows is None else traj.rows[lo:hi]
        sweep = plan.sweeper(hi - lo).load(w, plan.stack(args, lo, hi), pw[lo:hi], pws[lo:hi])
        yield lo, hi, sweep
        sweep.release()


# --- sampled-SGD twins ------------------------------------------------------


class _EmpiricalMoments:
    """Duck-typed stand-in for TaskMoments built from one batch."""

    __slots__ = ("sigma_x", "sigma_xy", "sigma_y", "blocks", "input_dim", "output_dim")

    def __init__(self, x, y, blocks=None):
        n = x.shape[0]
        self.sigma_x = x.T @ x / n
        self.sigma_xy = x.T @ y / n
        self.sigma_y = y.T @ y / n
        self.blocks = blocks
        self.input_dim, self.output_dim = x.shape[1], y.shape[1]


def simulate_sgd(spec, schedule, task, batch_size, seed, class_counts=None, eval_batch=2048):
    """Stochastic twin of integrate(): batch estimates replace exact moments.

    Each step's batch is drawn up front, in step order, from the generator of
    `seed`.  The moment-driven kinds integrate over a task schedule of the
    batches' moments, one per step, and record the exact expected loss under
    `task` at the noisy weights (a deterministic function of the iterate, so
    seed-to-seed spread reflects weight noise only), scored in one pass.
    The nonlinear kind runs the true sampled tanh network and records loss
    on a frozen evaluation batch, since its expected loss has no closed
    form.

    class_counts, when given, is an (n_steps, n_classes) integer array: each
    step's batch is drawn with exactly those per-class counts and the update
    uses the plain uncontrolled linear kernel (batch composition is the
    control).  Both branches read one _Plan of the spec, task and schedule:
    the tanh network takes each state's packed gains from its run's args.
    """
    from .tasks import sample_batch, sample_class_batch

    if isinstance(task, TaskSchedule) or is_task_set(task):
        raise UnsupportedOperationError("simulate_sgd samples one task: no task switching, no task set")
    n = spec.n_steps
    if class_counts is None:
        batch_size = whole("batch_size", batch_size, 1)
    if class_counts is not None and _KIND_TABLE[spec.kind].flow is not _pair_flows:
        raise UnsupportedOperationError(f"class_counts drive a linear two-layer kind, not {spec.kind}")
    if class_counts is not None and len(class_counts) != n:
        raise ValueError(f"class_counts has {len(class_counts)} rows but dynamics run {n} steps")
    schedule, state = _start(spec, schedule)
    plan = _Plan(spec, task, schedule)
    args = plan.args(schedule)
    rng = np.random.default_rng(seed)
    if class_counts is None:
        batches = [sample_batch(task, batch_size, rng) for _ in range(n)]
    else:
        batches = [sample_class_batch(task, counts, rng) for counts in class_counts]

    if spec.kind != "nonlinear_taylor":
        moments = TaskSchedule([_EmpiricalMoments(x, y, task.blocks) for x, y in batches], 1, n)
        rspec, rsched = (spec, schedule) if class_counts is None else (replace(spec, kind="two_layer_baseline"), None)
        layers = integrate(rspec, rsched, moments, state).layers
        losses = plan.kind.losses(layers, plan.stack(args, 0, n + 1), spec)
        return Trajectory(np.arange(n + 1) * spec.dt, layers, losses, spec.kind)

    f, fp, _ = _NONLIN[spec.nonlinearity]
    key = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
    ex, ey = sample_batch(task, eval_batch, np.random.default_rng(key + [0x5EED]))
    lam, scale = spec.reg_lambda, spec.dt / spec.tau_w
    gains = None if args[0].g is None else np.stack([a.g for a in args])[plan.run_of]  # each state's, packed
    states = [state]
    for i, (x, y) in enumerate(batches):
        g = None if gains is None else gains[i]
        a_mat, b_mat = _gained(state, g)
        u = x @ a_mat.T
        fu = f(u)
        resid = y - fu @ b_mat.T
        grads = (((resid @ b_mat) * fp(fu)).T @ x / x.shape[0], resid.T @ fu / x.shape[0])
        state = tuple(w + scale * (h - lam * w) for w, h in zip(state, _gained(grads, g)))
        _check_divergence(_one_step(state), i)
        states.append(state)

    # the states scored on the evaluation batch DIVERGENCE_BLOCK at a time, which bounds the temporaries
    layers = tuple(np.array(ws) for ws in zip(*states))
    gained = _gained(layers, gains)
    losses = []
    for lo in range(0, n + 1, DIVERGENCE_BLOCK):
        a_mat, b_mat = (m[lo : lo + DIVERGENCE_BLOCK] for m in gained)
        resid = ey - f(ex @ _mT(a_mat)) @ _mT(b_mat)
        losses.append(0.5 * np.mean(np.sum(resid * resid, axis=-1), axis=-1))
    losses = np.concatenate(losses)
    if lam:
        losses = losses + 0.5 * lam * sum(np.square(w).sum(axis=(-2, -1)) for w in layers)
    return Trajectory(np.arange(n + 1) * spec.dt, layers, losses, spec.kind)


# --- closed forms -----------------------------------------------------------


def closed_form_single_neuron(g_schedule, task, spec, times):
    """Exact single-neuron weight at the requested times: the closed form of the 1x1 single layer.

    Within each constant-gain segment the flow tau dw/dt = mu g~ - (x2 g~^2 + lambda) w
    is the single layer's, whose solver it shares.
    """
    if spec.kind != "single_neuron":
        raise ValueError(f"closed_form_single_neuron needs single_neuron dynamics, not {spec.kind}")
    return closed_form_single_layer(g_schedule, task, replace(spec, kind="single_layer"), times)[:, 0, 0]


def closed_form_single_layer(g_schedule, task, spec, times):
    """Exact single-layer weights (flattened flow) at the requested times.

    Row-major flattening turns the gained flow into dw/dt = (b - A w)/tau with
    A = D (I kron sigma_x) D + lambda I and D = diag of the kind's own
    flattened gains, each run's args' g (_Plan).  A is symmetric, so each run of
    constant gain is propagated exactly in its eigenbasis
    (linalg.propagate_affine), a stiff run included.  One pass over the runs
    stores the state at each run's start; a probe at time t is carried from
    the start of its run (np.searchsorted) by t - start, and a probe past the
    last run gets the final state.
    """
    if spec.kind != "single_layer":
        raise ValueError(f"closed_form_single_layer needs single_layer dynamics, not {spec.kind}")
    times = np.asarray(times, dtype=float)
    if not (times >= 0).all():  # a nan probe too, which searchsorted would send past the horizon
        raise ValueError("probe times must be nonnegative")
    size = spec.output_dim * spec.input_dim
    # sigma_x symmetrized, which leaves a symmetric one as it is, so A is symmetric to rounding
    base = np.kron(np.eye(spec.output_dim), 0.5 * (task.sigma_x + task.sigma_x.T))
    drive = task.sigma_xy.T.reshape(-1)

    def advance(w, a, duration):
        g = np.ones(size) if a.g is None else a.g
        rate = (g[:, None] * base * g + spec.reg_lambda * np.eye(size)) / spec.tau_w
        phi, off = propagate_affine(rate, g * drive / spec.tau_w, duration)
        return phi @ w + off

    plan = _Plan(spec, task, g_schedule)
    args = plan.args(g_schedule)
    starts = np.array([lo for lo, _, _ in plan.runs] + [spec.n_steps]) * spec.dt
    states = [initial_state(spec)[0].reshape(-1)]
    for (lo, hi, _), a in zip(plan.runs, args):
        states.append(advance(states[-1], a, (hi - lo) * spec.dt))
    at = np.searchsorted(starts, times, side="right") - 1
    landed = [states[-1] if k == len(args) else advance(states[k], args[k], t - starts[k]) for k, t in zip(at, times)]
    return np.array(landed).reshape(len(times), spec.output_dim, spec.input_dim)
