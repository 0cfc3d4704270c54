"""Average learning dynamics of small linear (and near-linear) networks.

The weights of a linear network trained by gradient flow on the expected
square loss follow an ODE driven entirely by the task's second moments.  This
module integrates that ODE with explicit Euler steps `w <- w + (dt/tau) h(w, g)`
for every supported flavor of control signal, evaluates exact expected losses
along the way, and provides closed-form solutions for the two analytically
solvable cases (a single neuron, and a one-layer network with elementwise
gains frozen per segment) plus sampled-SGD twins for validation.

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

Each kind is one entry of `_KIND_TABLE` holding its expected loss, flow and
adjoint step; `expected_loss`, `_rhs` and `backward_step` look the kind up
once, so adding a kind means adding one entry.  The linear two-layer entries
share one kernel and hold only two maps: forward from a control slice to the
kernel's channels (g1, g2, dvec, rate) -- layer gains, error-row scales, a
boost of the whole right-hand side -- and back from the channel gradients to
the control-shaped VJP.  In that kernel an absent channel skips its
multiplication and a neutral one multiplies by exactly 1.0, which IEEE makes
exact, so neutral schedules reproduce the baseline bit for bit; tests rely on
that.
"""

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, UnsupportedOperationError
from .linalg import phi1, propagate_affine

DIVERGENCE_LIMIT = 1e6
EXPONENT_NORM_WARN = 1e3


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
        if self.kind == "single_neuron" and (self.input_dim, self.output_dim) != (1, 1):
            raise ValueError("single_neuron dynamics are one-dimensional")
        if self.kind in _TWO_LAYER_KINDS and self.hidden_dim < 1:
            raise ValueError(f"{self.kind} needs hidden_dim >= 1")
        if self.dt <= 0 or self.tau_w <= 0:
            raise ValueError("dt and tau_w must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.nonlinearity not in ("tanh", "identity"):
            raise ValueError(f"unknown nonlinearity '{self.nonlinearity}'")

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
        dims = {(t.input_dim, t.output_dim) for t in self.tasks}
        if len(dims) != 1:
            raise ValueError("all tasks in a schedule must share dimensions")
        if self.period_steps < 1:
            raise ValueError("period_steps must be positive")

    def task_at(self, step):
        return self.tasks[(step // self.period_steps) % len(self.tasks)]

    def per_step(self, n):
        return [self.task_at(i) for i in range(n)]

    @property
    def switch_steps(self):
        return list(range(self.period_steps, self.n_steps, self.period_steps))


@dataclass
class Trajectory:
    """Recorded rollout: states and exact expected losses on the step grid.

    states has n_steps+1 entries (tuples of arrays, or 1-tuples of Python
    floats for the single neuron); losses[i] is the expected loss at
    states[i], evaluated with the control slice governing step
    min(i, n_steps-1) so the terminal state is scored under the last control.
    """

    times: np.ndarray
    states: list
    losses: np.ndarray
    kind: str

    @property
    def n_steps(self):
        return len(self.states) - 1


def initial_state(spec, override=None):
    """Starting weights as a tuple of arrays (floats for single_neuron)."""
    if override is not None:
        if spec.kind == "single_neuron":
            return (float(override[0]),)
        return tuple(np.array(w, dtype=float, copy=True) for w in override)
    if spec.kind == "single_neuron":
        if spec.init_std == 0.0:
            return (float(spec.init_mean),)
        rng = np.random.default_rng(spec.init_seed)
        return (float(spec.init_mean + spec.init_std * rng.standard_normal()),)
    if spec.kind == "single_layer":
        shapes = [(spec.output_dim, spec.input_dim)]
    else:
        shapes = [(spec.hidden_dim, spec.input_dim), (spec.output_dim, spec.hidden_dim)]
    if spec.init_std == 0.0:
        return tuple(np.full(s, spec.init_mean) for s in shapes)
    rng = np.random.default_rng(spec.init_seed)
    return tuple(spec.init_mean + spec.init_std * rng.standard_normal(s) for s in shapes)


def _nonlin(name):
    if name == "tanh":

        def f(u):
            return np.tanh(u)

        def fp(u):
            t = np.tanh(u)
            return 1.0 - t * t

        def fpp(u):
            t = np.tanh(u)
            return -2.0 * t * (1.0 - t * t)

        return f, fp, fpp
    if name == "identity":
        return (lambda u: u), (lambda u: np.ones_like(u)), (lambda u: np.zeros_like(u))
    raise ValueError(f"unknown nonlinearity '{name}'")


def _gains(control):
    """(g1, g2) of a two-layer gain slice; None means no gains."""
    return control if control is not None else (None, None)


def _linear_map_loss(m_eff, task, weights, lam):
    # ndarray methods run the same reductions as np.sum/np.trace without the
    # per-call dispatch of the module-level wrappers
    quad = m_eff @ task.sigma_x
    loss = 0.5 * float(task.sigma_y.trace())
    loss -= float((m_eff * task.sigma_xy.T).sum())
    loss += 0.5 * float((quad * m_eff).sum())
    if lam:
        loss += 0.5 * lam * sum(float(np.square(w).sum()) for w in weights)
    return loss


# --- single neuron ----------------------------------------------------------


def _neuron_moments(task):
    """(mu, x2, sy) of a one-dimensional task as Python floats."""
    return float(task.sigma_xy[0, 0]), float(task.sigma_x[0, 0]), float(task.sigma_y[0, 0])


def _neuron_gain(control):
    """g~ = 1 + g; no control is g = 0."""
    return 1.0 + (0.0 if control is None else control)


def _neuron_args(state, control, task, spec):
    """(w, g~, mu, x2, sy, lambda): the arguments of the float helpers below."""
    return (state[0], _neuron_gain(control), *_neuron_moments(task), spec.reg_lambda)


# The float helpers serve the kind-table entries and the float loop in
# integrate alike.  `** 2` is libm pow for floats and np.float64 alike; x * x
# would round differently on some inputs.
def _neuron_loss_f(w, gt, mu, x2, sy, lam):
    return 0.5 * (sy - 2.0 * gt * w * mu + x2 * (gt * w) ** 2) + 0.5 * lam * w * w


def _neuron_flow(w, gt, mu, x2, sy, lam):
    """Flow of a single weight under gain control: dw*tau = mu*g~ - w*(x2*g~^2 + lambda)."""
    return mu * gt - w * (x2 * gt * gt + lam)


def _neuron_loss(state, control, task, spec):
    return _neuron_loss_f(*_neuron_args(state, control, task, spec))


def _neuron_rhs(state, control, task, spec):
    return (_neuron_flow(*_neuron_args(state, control, task, spec)),)


def _neuron_backward(state, control, task, spec, a_next):
    w, gt, mu, x2, _, lam = _neuron_args(state, control, task, spec)
    a = a_next[0]
    dhdw = -(x2 * gt * gt + lam)
    dhdg = mu - 2.0 * w * x2 * gt
    dldw = -mu * gt + x2 * w * gt * gt + lam * w
    dldg = -mu * w + x2 * w * w * gt
    return (dhdw * a,), dhdg * a, (dldw,), dldg


# --- single layer -----------------------------------------------------------


def _layer_gain(control):
    return control[0] if isinstance(control, tuple) else control


def _layer_loss(state, control, task, spec):
    gain = _layer_gain(control)
    eff = state[0] if gain is None else (1.0 + gain) * state[0]
    return _linear_map_loss(eff, task, state, spec.reg_lambda)


def _layer_rhs(state, control, task, spec):
    """One-layer flow with elementwise gains: ((Sxy^T - A Sx) o G~) - lambda W, A = G~ o W."""
    weight = state[0]
    gain = _layer_gain(control)
    if gain is None:
        err = task.sigma_xy.T - weight @ task.sigma_x
        return (err - spec.reg_lambda * weight,)
    gt = 1.0 + gain
    err = task.sigma_xy.T - (gt * weight) @ task.sigma_x
    return (err * gt - spec.reg_lambda * weight,)


def _layer_backward(state, control, task, spec, a_next):
    raise UnsupportedOperationError("no adjoint for single_layer dynamics; use the closed form")


# --- linear two-layer kernel ------------------------------------------------


def _linear_pair_rhs(w1, w2, gain1, gain2, dvec, rate_gain, task, lam):
    """Shared two-layer kernel; see module docstring for the neutrality contract."""
    a_mat = w1 if gain1 is None else (1.0 + gain1) * w1
    b_mat = w2 if gain2 is None else (1.0 + gain2) * w2
    err = task.sigma_xy.T - b_mat @ (a_mat @ task.sigma_x)
    err_d = err if dvec is None else dvec[:, None] * err
    up1 = b_mat.T @ err_d
    up2 = err_d @ a_mat.T
    if gain1 is not None:
        up1 = up1 * (1.0 + gain1)
    if gain2 is not None:
        up2 = up2 * (1.0 + gain2)
    h1 = up1 - lam * w1
    h2 = up2 - lam * w2
    if rate_gain is not None:
        boost = 1.0 + rate_gain
        h1 = boost * h1
        h2 = boost * h2
    return h1, h2


def _linear_pair_backward(state, channels, task, lam, a_next):
    """Reverse mode of the shared kernel and of the pair's loss at one step.

    Returns (state_vjp, loss_grad_state, cbar, lbar): cbar = (g1b, g2b, dvb,
    rate_bar) is the channel VJP and lbar = (lg1, lg2) the loss gradient wrt
    the gains, with None for an absent channel.
    """
    g1, g2, dvec, rate = channels
    w1, w2 = state
    a1, a2 = a_next
    sx = task.sigma_x
    sxy_t = task.sigma_xy.T
    g1t = None if g1 is None else 1.0 + g1
    g2t = None if g2 is None else 1.0 + g2
    a_mat = w1 if g1t is None else g1t * w1
    b_mat = w2 if g2t is None else g2t * w2
    x1 = a_mat @ sx
    err = sxy_t - b_mat @ x1
    err_d = err if dvec is None else dvec[:, None] * err
    up1 = b_mat.T @ err_d
    up2 = err_d @ a_mat.T
    p1 = (up1 if g1t is None else up1 * g1t) - lam * w1
    p2 = (up2 if g2t is None else up2 * g2t) - lam * w2

    # dynamics vjp
    if rate is not None:
        boost = 1.0 + rate
        rate_bar = float(np.sum(a1 * p1) + np.sum(a2 * p2))
        gp1 = boost * a1
        gp2 = boost * a2
    else:
        rate_bar = None
        gp1, gp2 = a1, a2
    u1b = gp1 if g1t is None else gp1 * g1t
    u2b = gp2 if g2t is None else gp2 * g2t
    g1b = None if g1t is None else gp1 * up1
    g2b = None if g2t is None else gp2 * up2
    w1b = -lam * gp1
    w2b = -lam * gp2
    bb = err_d @ u1b.T
    edb = b_mat @ u1b + u2b @ a_mat
    ab = u2b.T @ err_d
    if dvec is None:
        dvb = None
        eb = edb
    else:
        dvb = np.sum(edb * err, axis=1)
        eb = dvec[:, None] * edb
    bb = bb - eb @ x1.T
    x1b = -(b_mat.T @ eb)
    ab = ab + x1b @ sx
    if g1t is None:
        w1b = w1b + ab
    else:
        w1b = w1b + ab * g1t
        g1b = g1b + ab * w1
    if g2t is None:
        w2b = w2b + bb
    else:
        w2b = w2b + bb * g2t
        g2b = g2b + bb * w2

    # loss gradients (the map ignores dvec and rate; err is the same object)
    la = b_mat.T @ (-err)
    lb = (-err) @ a_mat.T
    if g1t is None:
        lw1 = la + lam * w1
        lg1 = None
    else:
        lw1 = la * g1t + lam * w1
        lg1 = la * w1
    if g2t is None:
        lw2 = lb + lam * w2
        lg2 = None
    else:
        lw2 = lb * g2t + lam * w2
        lg2 = lb * w2
    return (w1b, w2b), (lw1, lw2), (g1b, g2b, dvb, rate_bar), (lg1, lg2)


# One dynamics kind: its layer count, then its expected loss, flow h (shaped
# like the state) and adjoint step, each a function of (state, control, task,
# spec); the adjoint also takes a_next and returns what backward_step does.
_Kind = namedtuple("_Kind", "layers loss rhs backward")


def _linear_kind(channels, control_vjp, gained=False):
    """Entry for a linear two-layer kind from its two maps.

    channels(control, task) -> (g1, g2, dvec, rate) feeds the shared kernel;
    control_vjp(cbar, lbar, control, state, task) -> (ctrl_vjp, loss_grad_ctrl)
    maps the kernel's channel and gain-loss gradients onto the control slice.
    Only gains enter the map, so only a `gained` kind's loss reads its control.
    """

    def loss(state, control, task, spec):
        g1, g2 = channels(control, task)[:2] if gained else (None, None)
        a_mat = state[0] if g1 is None else (1.0 + g1) * state[0]
        b_mat = state[1] if g2 is None else (1.0 + g2) * state[1]
        return _linear_map_loss(b_mat @ a_mat, task, state, spec.reg_lambda)

    def rhs(state, control, task, spec):
        return _linear_pair_rhs(state[0], state[1], *channels(control, task), task, spec.reg_lambda)

    def backward(state, control, task, spec, a_next):
        state_vjp, loss_state, cbar, lbar = _linear_pair_backward(
            state, channels(control, task), task, spec.reg_lambda, a_next
        )
        ctrl_vjp, loss_ctrl = control_vjp(cbar, lbar, control, state, task)
        return state_vjp, ctrl_vjp, loss_state, loss_ctrl

    return _Kind(2, loss, rhs, backward)


_NO_CHANNELS = (None, None, None, None)


def _gain_vjp(cbar, lbar, control, state, task):
    def dense(grads):
        return tuple(g if g is not None else np.zeros_like(w) for g, w in zip(grads, state))

    return dense(cbar[:2]), dense(lbar)


def _engagement_channels(control, task):
    """Per-task error scaling on a block-composed task.

    Scaling the error rows of each task's output block by its engagement
    weight is identical to the weighted sum of per-task gradient flows,
    because each task's targets occupy disjoint output rows while the input
    covariance is shared.
    """
    if control is None:
        return _NO_CHANNELS
    if task.blocks is None:
        raise ValueError("engagement dynamics need a block-composed task")
    sizes = task.blocks.output_sizes()
    if len(control) != len(sizes):
        raise ValueError(f"engagement vector length {len(control)} != task count {len(sizes)}")
    return None, None, np.repeat(np.asarray(control, dtype=float), sizes), None


def _engagement_vjp(cbar, lbar, control, state, task):
    dvb = cbar[2]
    sizes = task.blocks.output_sizes()
    if dvb is None:
        return np.zeros(len(sizes)), None
    bounds = np.cumsum([0] + sizes)
    return np.add.reduceat(dvb, bounds[:-1]), None


def _category_channels(control, task):
    if control is None:
        return _NO_CHANNELS
    phi = np.asarray(control, dtype=float)
    if len(phi) != task.output_dim:
        raise ValueError(f"class engagement length {len(phi)} != output dim {task.output_dim}")
    return None, None, phi * phi, None


def _category_vjp(cbar, lbar, control, state, task):
    dvb = cbar[2]
    if dvb is None:
        return np.zeros(task.output_dim), None
    return 2.0 * np.asarray(control, dtype=float) * dvb, None


def _rate_channels(control, task):
    # an absent boost is an exact 1.0, so the adjoint still yields a rate gradient
    return None, None, None, 0.0 if control is None else float(control)


# --- nonlinear Taylor expansion ---------------------------------------------


def _taylor_cache(state, gain1, gain2, task, spec):
    f, fp, fpp = _nonlin(spec.nonlinearity)
    w1, w2 = state
    g1t = None if gain1 is None else 1.0 + gain1
    g2t = None if gain2 is None else 1.0 + gain2
    a_mat = w1 if g1t is None else g1t * w1
    b_mat = w2 if g2t is None else g2t * w2
    m = task.mean_x
    u = a_mat @ m
    f0 = f(u)
    d1 = fp(u)
    d2 = fpp(u)
    jmat = d1[:, None] * a_mat
    s_cov = task.sigma_x - np.outer(m, m)
    sxy_t = task.sigma_xy.T
    r_mat = sxy_t - np.outer(task.mean_y, m)
    ff = np.outer(f0, f0) + jmat @ s_cov @ jmat.T
    fy = np.outer(task.mean_y, f0) + r_mat @ jmat.T
    z2 = fy - b_mat @ ff
    q_mat = np.outer(f0, m) + jmat @ s_cov
    c2 = b_mat.T @ b_mat
    k_mat = b_mat.T @ sxy_t - c2 @ q_mat
    z1 = d1[:, None] * k_mat
    return {
        "w1": w1, "w2": w2, "g1t": g1t, "g2t": g2t, "a": a_mat, "b": b_mat,
        "m": m, "u": u, "f0": f0, "d1": d1, "d2": d2, "j": jmat, "s": s_cov,
        "sxy_t": sxy_t, "r": r_mat, "ff": ff, "fy": fy, "z2": z2, "q": q_mat,
        "c2": c2, "k": k_mat, "z1": z1, "task": task,
    }


def _taylor_loss(state, control, task, spec):
    lam = spec.reg_lambda
    c = _taylor_cache(state, *_gains(control), task, spec)
    loss = 0.5 * float(task.sigma_y.trace())
    loss -= float((c["b"] * c["fy"]).sum())
    loss += 0.5 * float(((c["b"] @ c["ff"]) * c["b"]).sum())
    if lam:
        loss += 0.5 * lam * sum(float(np.square(w).sum()) for w in state)
    return loss


def _taylor_rhs(state, control, task, spec):
    """First-order propagation of a two-layer net with an elementwise nonlinearity.

    The hidden activation f(A x) is expanded around u = A <x>; fluctuations
    enter through J = diag(f'(u)) A and the input covariance.  With the
    identity nonlinearity this collapses algebraically onto the linear
    gain_mod flow.
    """
    c = _taylor_cache(state, *_gains(control), task, spec)
    lam = spec.reg_lambda
    h1 = c["z1"] if c["g1t"] is None else c["z1"] * c["g1t"]
    h2 = c["z2"] if c["g2t"] is None else c["z2"] * c["g2t"]
    return h1 - lam * state[0], h2 - lam * state[1]


def _taylor_tail(c, fyb, ffb, kb, d1b_seed):
    """Shared reverse chain Fy/Ff/K -> (f0, J, u) -> gradient wrt the gained layers."""
    h_dim, i_dim = c["j"].shape
    f0b = np.zeros(h_dim)
    jb = np.zeros((h_dim, i_dim))
    bb = np.zeros_like(c["b"])
    d1b = np.array(d1b_seed, copy=True) if d1b_seed is not None else np.zeros(h_dim)
    if fyb is not None:
        f0b += fyb.T @ c["task"].mean_y
        jb += fyb.T @ c["r"]
    if ffb is not None:
        sym = ffb + ffb.T
        f0b += sym @ c["f0"]
        jb += sym @ c["j"] @ c["s"]
    if kb is not None:
        bb += (kb @ c["task"].sigma_xy).T
        c2b = -kb @ c["q"].T
        qb = -c["c2"] @ kb
        bb += c["b"] @ (c2b + c2b.T)
        f0b += qb @ c["m"]
        jb += qb @ c["s"]
    d1b += np.sum(jb * c["a"], axis=1)
    ab = c["d1"][:, None] * jb
    ub = c["d1"] * f0b + c["d2"] * d1b
    ab += np.outer(ub, c["m"])
    return ab, bb


def _taylor_backward(state, control, task, spec, a_next):
    c = _taylor_cache(state, *_gains(control), task, spec)
    lam = spec.reg_lambda
    a1, a2 = a_next
    w1, w2 = state
    gz1 = a1 if c["g1t"] is None else a1 * c["g1t"]
    gz2 = a2 if c["g2t"] is None else a2 * c["g2t"]
    # dynamics vjp
    kb = c["d1"][:, None] * gz1
    d1b_seed = np.sum(gz1 * c["k"], axis=1)
    fyb = gz2
    ffb = -(c["b"].T @ gz2)
    bb_direct = -(gz2 @ c["ff"])
    ab, bb_tail = _taylor_tail(c, fyb, ffb, kb, d1b_seed)
    bb = bb_direct + bb_tail
    if c["g1t"] is None:
        w1b = -lam * a1 + ab
        g1b = np.zeros_like(w1)
    else:
        w1b = -lam * a1 + ab * c["g1t"]
        g1b = a1 * c["z1"] + ab * w1
    if c["g2t"] is None:
        w2b = -lam * a2 + bb
        g2b = np.zeros_like(w2)
    else:
        w2b = -lam * a2 + bb * c["g2t"]
        g2b = a2 * c["z2"] + bb * w2
    # loss gradients
    lab, lbb_tail = _taylor_tail(c, -c["b"], 0.5 * c["c2"], None, None)
    lz2 = -c["z2"]
    if c["g1t"] is None:
        lw1 = lab + lam * w1
        lg1 = np.zeros_like(w1)
    else:
        lw1 = lab * c["g1t"] + lam * w1
        lg1 = lab * w1
    lbb = lz2 + lbb_tail
    if c["g2t"] is None:
        lw2 = lbb + lam * w2
        lg2 = np.zeros_like(w2)
    else:
        lw2 = lbb * c["g2t"] + lam * w2
        lg2 = lbb * w2
    return (w1b, w2b), (g1b, g2b), (lw1, lw2), (lg1, lg2)


# --- the kind table ---------------------------------------------------------

_KIND_TABLE = {
    "single_neuron": _Kind(1, _neuron_loss, _neuron_rhs, _neuron_backward),
    "single_layer": _Kind(1, _layer_loss, _layer_rhs, _layer_backward),
    "two_layer_baseline": _linear_kind(
        lambda control, task: _NO_CHANNELS, lambda cbar, lbar, control, state, task: (None, None)
    ),
    "gain_mod": _linear_kind(lambda control, task: (*_gains(control), None, None), _gain_vjp, gained=True),
    "engagement": _linear_kind(_engagement_channels, _engagement_vjp),
    "category_engagement": _linear_kind(_category_channels, _category_vjp),
    "lr_mod": _linear_kind(_rate_channels, lambda cbar, lbar, control, state, task: (cbar[3], None)),
    "nonlinear_taylor": _Kind(2, _taylor_loss, _taylor_rhs, _taylor_backward),
}

KINDS = tuple(_KIND_TABLE)
_TWO_LAYER_KINDS = tuple(k for k, entry in _KIND_TABLE.items() if entry.layers == 2)


def expected_loss(state, control, task, spec):
    """Exact expected loss (plus weight decay) at a state under a control slice.

    `control` mirrors ControlSchedule.at(step) for the spec's kind; None means
    neutral.  Engagement-style controls never alter the loss, only learning.
    """
    return _KIND_TABLE[spec.kind].loss(state, control, task, spec)


def _rhs(spec, state, control, task):
    """Flow h(state, control) of the spec's kind, same structure as the state."""
    return _KIND_TABLE[spec.kind].rhs(state, control, task, spec)


def backward_step(spec, state, control, task, a_next):
    """Reverse-mode quantities for one Euler step at (state, control).

    Returns (state_vjp, ctrl_vjp, loss_grad_state, loss_grad_ctrl):
      state_vjp       [dh/dstate]^T a_next, same structure as state
      ctrl_vjp        [dh/dcontrol]^T a_next, structure of the control slice
                      (None for uncontrolled kinds)
      loss_grad_state dL/dstate at (state, control)
      loss_grad_ctrl  dL/dcontrol (None where the loss ignores the control)
    Everything is exact for the discretized system; finite differences agree
    to first order in the probe step.  single_layer has no adjoint and raises
    UnsupportedOperationError.
    """
    return _KIND_TABLE[spec.kind].backward(state, control, task, spec, a_next)


# --- integration ------------------------------------------------------------


def per_step_inputs(schedule, task, n, seg_ctrls=None):
    """Lists of the control slice and the task of each of `n` steps, built once per pass.

    Controls are None without a schedule and for init_weights (it acts through the state).
    `seg_ctrls`, when given, is the schedule's segment_controls().
    """
    ctrls = [None] * n if schedule is None or schedule.kind == "init_weights" else schedule.per_step(seg_ctrls)
    tasks = task.per_step(n) if isinstance(task, TaskSchedule) else [task] * n
    return ctrls, tasks


def _divergence(peak, step):
    return DivergenceError(
        f"weight magnitude {peak:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at step {step}; "
        "the Euler step is too large for this system"
    )


def _check_divergence(state, step):
    for w in state:
        peak = abs(w) if isinstance(w, float) else float(abs(w).max()) if w.size else 0.0
        if not peak < DIVERGENCE_LIMIT:
            raise _divergence(peak, step)


def _prepare_schedule(spec, schedule):
    if schedule is None:
        return None
    if schedule.kind != "init_weights" and schedule.n_steps != spec.n_steps:
        raise ValueError(f"schedule covers {schedule.n_steps} steps but dynamics run {spec.n_steps}")
    if schedule.out_of_bounds():
        warnings.warn("control schedule leaves its bounds; clamping for integration")
        schedule = schedule.project()
    return schedule


def integrate(spec, schedule, task, state0=None):
    """Roll out the Euler discretization and record states and losses.

    `task` is a TaskMoments or a TaskSchedule (for switching); `schedule` may
    be None for an uncontrolled run.  An init_weights schedule supplies the
    starting state; otherwise `state0` (if given) or the spec's init does.
    Raises DivergenceError when any weight magnitude passes DIVERGENCE_LIMIT.
    """
    schedule = _prepare_schedule(spec, schedule)
    if schedule is not None and schedule.kind == "init_weights":
        state = initial_state(spec, override=schedule.values)
    else:
        state = initial_state(spec, override=state0)
    n = spec.n_steps
    ctrls, tasks = per_step_inputs(schedule, task, n)
    scale = spec.dt / spec.tau_w
    times = np.arange(n + 1) * spec.dt

    if spec.kind == "single_neuron":
        # Python floats throughout, with the moments read when the task changes:
        # several times cheaper per step than the tuple loop below
        lam = spec.reg_lambda
        w = state[0]
        states = [(w,)]
        losses = []
        prev = None
        for i, (ctrl, tsk) in enumerate(zip(ctrls, tasks)):
            if tsk is not prev:
                prev, (mu, x2, sy) = tsk, _neuron_moments(tsk)
            gt = _neuron_gain(ctrl)
            losses.append(_neuron_loss_f(w, gt, mu, x2, sy, lam))
            w = w + scale * _neuron_flow(w, gt, mu, x2, sy, lam)
            if not abs(w) < DIVERGENCE_LIMIT:
                raise _divergence(abs(w), i)
            states.append((w,))
        losses.append(_neuron_loss_f(w, gt, mu, x2, sy, lam))
        return Trajectory(times=times, states=states, losses=np.array(losses), kind=spec.kind)

    loss, rhs = _KIND_TABLE[spec.kind].loss, _KIND_TABLE[spec.kind].rhs
    states = [state]
    losses = np.empty(n + 1)
    for i, (ctrl, tsk) in enumerate(zip(ctrls, tasks)):
        losses[i] = loss(state, ctrl, tsk, spec)
        hs = rhs(state, ctrl, tsk, spec)
        state = tuple(w + scale * h for w, h in zip(state, hs))
        _check_divergence(state, i)
        states.append(state)
    losses[n] = loss(state, ctrls[-1], tasks[-1], spec)
    return Trajectory(times=times, states=states, losses=losses, kind=spec.kind)


# --- sampled-SGD twins ------------------------------------------------------


class _EmpiricalMoments:
    """Duck-typed stand-in for TaskMoments built from one batch."""

    __slots__ = ("sigma_x", "sigma_xy", "sigma_y", "blocks")

    def __init__(self, x, y, blocks=None):
        n = x.shape[0]
        self.sigma_x = x.T @ x / n
        self.sigma_xy = x.T @ y / n
        self.sigma_y = y.T @ y / n
        self.blocks = blocks


def simulate_sgd(spec, schedule, task, batch_size, seed, class_counts=None, eval_batch=2048):
    """Stochastic twin of integrate(): batch estimates replace exact moments.

    Linear kinds record the exact expected loss evaluated at the noisy
    weights (a deterministic function of the iterate, so seed-to-seed spread
    reflects weight noise only).  The nonlinear kind runs the true sampled
    tanh network and records loss on a frozen evaluation batch, since its
    expected loss has no closed form.

    class_counts, when given, is an (n_steps, n_classes) integer array: each
    step's batch is drawn with exactly those per-class counts and the update
    uses the plain uncontrolled kernel (batch composition is the control).
    """
    from .tasks import sample_batch, sample_class_batch

    schedule = _prepare_schedule(spec, schedule)
    if schedule is not None and schedule.kind == "init_weights":
        state = initial_state(spec, override=schedule.values)
    else:
        state = initial_state(spec)
    if isinstance(task, TaskSchedule):
        raise UnsupportedOperationError("simulate_sgd does not support task switching")
    rng = np.random.default_rng(seed)
    n = spec.n_steps
    scale = spec.dt / spec.tau_w
    times = np.arange(n + 1) * spec.dt
    losses = np.empty(n + 1)

    nonlinear = spec.kind == "nonlinear_taylor"
    if nonlinear:
        f, fp, _ = _nonlin(spec.nonlinearity)
        key = [int(s) for s in seed] if isinstance(seed, (list, tuple)) else [int(seed)]
        ex, ey = sample_batch(task, eval_batch, np.random.default_rng(key + [0x5EED]))

        def score(state, ctrl):
            g1, g2 = _gains(ctrl)
            a_mat = state[0] if g1 is None else (1.0 + g1) * state[0]
            b_mat = state[1] if g2 is None else (1.0 + g2) * state[1]
            resid = ey - f(ex @ a_mat.T) @ b_mat.T
            loss = 0.5 * float(np.mean(np.sum(resid * resid, axis=1)))
            if spec.reg_lambda:
                loss += 0.5 * spec.reg_lambda * sum(float(np.sum(np.square(w))) for w in state)
            return loss

    else:

        def score(state, ctrl):
            return expected_loss(state, ctrl, task, spec)

    ctrls, _ = per_step_inputs(schedule, task, n)
    states = [state]
    for i, ctrl in enumerate(ctrls):
        losses[i] = score(state, ctrl)
        if class_counts is not None:
            x, y = sample_class_batch(task, class_counts[i], rng)
            emp = _EmpiricalMoments(x, y, blocks=task.blocks)
            hs = _linear_pair_rhs(state[0], state[1], None, None, None, None, emp, spec.reg_lambda)
        elif nonlinear:
            x, y = sample_batch(task, batch_size, rng)
            g1, g2 = _gains(ctrl)
            g1t = None if g1 is None else 1.0 + g1
            g2t = None if g2 is None else 1.0 + g2
            a_mat = state[0] if g1t is None else g1t * state[0]
            b_mat = state[1] if g2t is None else g2t * state[1]
            u = x @ a_mat.T
            fu = f(u)
            resid = y - fu @ b_mat.T
            gb = resid.T @ fu / x.shape[0]
            ga = ((resid @ b_mat) * fp(u)).T @ x / x.shape[0]
            h1 = ga if g1t is None else ga * g1t
            h2 = gb if g2t is None else gb * g2t
            hs = (h1 - spec.reg_lambda * state[0], h2 - spec.reg_lambda * state[1])
        else:
            x, y = sample_batch(task, batch_size, rng)
            hs = _rhs(spec, state, ctrl, _EmpiricalMoments(x, y, blocks=task.blocks))
        state = tuple(w + scale * h for w, h in zip(state, hs))
        _check_divergence(state, i)
        states.append(state)
    losses[n] = score(state, ctrls[-1])
    return Trajectory(times=times, states=states, losses=losses, kind=spec.kind)


# --- closed forms -----------------------------------------------------------


def _schedule_segments(schedule, spec):
    """Yield (duration, control) pieces covering [0, horizon] in order."""
    n = spec.n_steps
    if schedule is None:
        yield n * spec.dt, None
        return
    seg = schedule.segment
    start = 0
    while start < n:
        stop = min(start + seg, n)
        yield (stop - start) * spec.dt, schedule.at(start)
        start = stop


def closed_form_single_neuron(g_schedule, task, spec, times):
    """Exact single-neuron weight at the requested times.

    The flow is affine within each constant-gain segment, so each segment is
    solved exactly: w(s) = w0 + (b - a w0) s phi1(-a s) with
    a = (x2 g~^2 + lambda)/tau and b = mu g~ / tau.  Degenerate a -> 0 is
    covered by phi1's series branch.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="stable")
    mu = task.sigma_xy[0, 0]
    x2 = task.sigma_x[0, 0]
    lam = spec.reg_lambda
    tau = spec.tau_w
    out = np.empty(times.shape)
    w = initial_state(spec)[0]
    t_cur = 0.0
    pieces = list(_schedule_segments(g_schedule, spec))
    piece_idx = 0
    into_piece = 0.0

    def advance(w, gain, duration):
        gt = 1.0 + (0.0 if gain is None else gain)
        a = (x2 * gt * gt + lam) / tau
        b = mu * gt / tau
        return w + (b - a * w) * duration * phi1(-a * duration)

    for k in order:
        target = times[k]
        if target < -1e-12:
            raise ValueError("probe times must be nonnegative")
        while piece_idx < len(pieces):
            duration, gain = pieces[piece_idx]
            remaining = duration - into_piece
            step_needed = target - t_cur
            if step_needed <= remaining + 1e-15:
                out[k] = advance(w, gain, step_needed)
                break
            w = advance(w, gain, remaining)
            t_cur += remaining
            into_piece = 0.0
            piece_idx += 1
        else:
            out[k] = w
            continue
        # stay positioned where this probe landed so later probes continue forward
        w = out[k]
        into_piece += target - t_cur
        t_cur = target
    return out


def closed_form_single_layer(g_schedule, task, spec, times):
    """Exact single-layer weights (flattened flow) at the requested times.

    Row-major flattening turns the gained flow into dw/dt = (b - A w)/tau with
    A = D (I kron sigma_x) D + lambda I and D = diag of the flattened gains;
    each constant-gain segment is then an exact matrix-exponential propagation.
    Warns when an exponent norm passes 1e3, where the result may lose digits.
    """
    times = np.asarray(times, dtype=float)
    order = np.argsort(times, kind="stable")
    o_dim, i_dim = spec.output_dim, spec.input_dim
    base = np.kron(np.eye(o_dim), task.sigma_x)
    sxy_flat_base = task.sigma_xy.T
    lam = spec.reg_lambda
    tau = spec.tau_w

    prop_cache = {}

    def segment_ops(gain, duration):
        if gain is None:
            gflat = np.ones(o_dim * i_dim)
        elif np.isscalar(gain):
            gflat = np.full(o_dim * i_dim, 1.0 + gain)
        else:
            gflat = (1.0 + np.asarray(gain)).reshape(-1)
        key = (gflat.tobytes(), float(duration))
        hit = prop_cache.get(key)
        if hit is not None:
            return hit
        a_mat = (gflat[:, None] * base * gflat[None, :] + lam * np.eye(o_dim * i_dim)) / tau
        drive = gflat * sxy_flat_base.reshape(-1) / tau
        growth = np.linalg.norm(a_mat, 1) * duration
        if growth > EXPONENT_NORM_WARN:
            warnings.warn(
                f"closed-form exponent norm {growth:.3e} exceeds {EXPONENT_NORM_WARN:.0e}; "
                "expect reduced accuracy"
            )
        ops = propagate_affine(a_mat, drive, duration)
        prop_cache[key] = ops
        return ops

    w = initial_state(spec)[0].reshape(-1).copy()
    out = np.empty((times.shape[0], o_dim, i_dim))
    t_cur = 0.0
    pieces = list(_schedule_segments(g_schedule, spec))
    piece_idx = 0
    into_piece = 0.0

    for k in order:
        target = times[k]
        if target < -1e-12:
            raise ValueError("probe times must be nonnegative")
        landed = None
        while piece_idx < len(pieces):
            duration, ctrl = pieces[piece_idx]
            gain = _layer_gain(ctrl)
            remaining = duration - into_piece
            step_needed = target - t_cur
            if step_needed <= remaining + 1e-15:
                phi, off = segment_ops(gain, step_needed)
                landed = phi @ w + off
                break
            phi, off = segment_ops(gain, remaining)
            w = phi @ w + off
            t_cur += remaining
            into_piece = 0.0
            piece_idx += 1
        if landed is None:
            landed = w
        else:
            w = landed
            into_piece += target - t_cur
            t_cur = target
        out[k] = landed.reshape(o_dim, i_dim)
    return out
