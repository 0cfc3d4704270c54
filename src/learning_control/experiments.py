"""Scenario registry: preset experiments over the controlled learning dynamics.

Each scenario is one entry of the `_SCENARIOS` table at the end of this
module: its parameter defaults, its preset dynamics/value/optimizer specs, a
task function, its control kind and its summary function.  Adding a scenario
means adding one entry.  build() turns a RunConfig into the seeded dynamics,
the task and the neutral control schedule; run() optimizes the schedule from
there, takes the uncontrolled baseline and the controlled rollouts from the
optimizer's first and last iterates, and collects scalar summaries (effort
integrals, time-to-loss thresholds, switch peaks, engagement peak times,
plateau counts...).  sweep() runs one config per value of a parameter.

Horizons here are deliberately short: the phenomena of interest (front-loaded
control, curricula, post-switch adaptation, rich-regime plateaus) survive
rescaling of the time axis, and short unrolls keep the whole registry
runnable in minutes on a laptop.
"""

import copy
import math
import numbers
import os
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dynamics as dyn
from .control import ControlSchedule, init_weights_control, segment_sumsq
from .errors import ConfigError, LearningControlError
from .optimizer import OptimizerSpec, OptTrace, optimize
from .tasks import (
    class_mixture_moments,
    compose_block_tasks,
    correlated_gaussian_moments,
    linear_regression_floor,
    semantic_moments,
    two_gaussian_moments,
)
from .value import CostSpec, ValueSpec, per_step_sum_spec


# --- derived analyses --------------------------------------------------------


def task_switch_schedule(tasks, period_steps, n_steps):
    """Alternating task selector: `period_steps` per task, cycling in order.

    The period must divide the total step count (ragged tails would make the
    per-switch statistics ambiguous) and cannot exceed it.
    """
    period_steps = int(period_steps)
    n_steps = int(n_steps)
    if period_steps < 1:
        raise ValueError(f"switch period must be positive, got {period_steps}")
    if period_steps > n_steps:
        raise ValueError(f"switch period {period_steps} exceeds the horizon {n_steps}")
    if n_steps % period_steps != 0:
        raise ValueError(f"switch period {period_steps} does not divide n_steps {n_steps}")
    return dyn.TaskSchedule(tasks=list(tasks), period_steps=period_steps, n_steps=n_steps)


def post_switch_peaks(losses, switch_steps, n_steps=None):
    """Maximum loss inside each post-switch window; one entry per switch."""
    losses = np.asarray(losses, dtype=float)
    stops = list(switch_steps[1:]) + [losses.size if n_steps is None else n_steps + 1]
    return [float(np.max(losses[s:e])) for s, e in zip(switch_steps, stops)]


def export_class_schedule(phi, batch_size):
    """Per-step integer class counts realizing engagement weights as batch mix.

    `phi` is a ControlSchedule (category kind) or an (steps, classes) array of
    nonnegative weights.  Each row is turned into quotas batch_size*phi/sum(phi)
    and rounded by largest remainder, so every row sums to batch_size exactly;
    remainder ties go to the lower class index.  An all-zero row falls back to
    the uniform mix with a warning.  Non-finite weights and a batch_size that
    is not a whole number of at least 1 are refused.
    """
    if isinstance(phi, ControlSchedule):
        phi = phi.expand()[0]
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    if not np.isfinite(phi).all():
        raise ValueError("class engagement weights must be finite")
    if np.any(phi < 0):
        raise ValueError("class engagement weights must be nonnegative")
    if not (float(batch_size).is_integer() and batch_size >= 1):
        raise ValueError(f"batch_size must be a whole number >= 1, got {batch_size}")
    batch_size = int(batch_size)
    n, c = phi.shape
    counts = np.empty((n, c), dtype=int)
    warned = False
    for i in range(n):
        row = phi[i]
        total = row.sum()
        if total == 0.0:
            if not warned:
                warnings.warn("all-zero class weights at some steps; using the uniform mix there")
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
    return counts


def difficulty_order(tasks):
    """Rank tasks by their best achievable linear-regression loss.

    Returns (order, floors): `order` lists task indices easiest first, and
    `floors` the per-task optimal losses in input order.  Ranking is stable
    under permutation of the input (argsort of the floors).
    """
    floors = np.array([linear_regression_floor(t) for t in tasks])
    order = [int(i) for i in np.argsort(floors, kind="stable")]
    return order, floors


def detect_plateaus(times, losses, slope_frac=0.01, min_frac=0.05, smooth_frac=0.01):
    """Intervals where the loss curve is flat relative to its steepest descent.

    Flat means |dL/dt| below `slope_frac` of the curve's own maximum slope
    magnitude (after light boxcar smoothing, window `smooth_frac` of the
    sample count); intervals shorter than `min_frac` of the time span are
    dropped.  The thresholds are this package's instrument, not a canonical
    definition; tune them per application.
    """
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
    # a curve whose total variation is at rounding level has no slope scale
    # to threshold against (np.gradient emits ~1e-16 noise on such input)
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


def time_to_fraction(times, losses, frac):
    """First time the loss falls to `frac` of its initial value (inf if never)."""
    losses = np.asarray(losses, dtype=float)
    target = frac * losses[0]
    hits = np.nonzero(losses <= target)[0]
    if hits.size == 0:
        return math.inf
    return float(np.asarray(times)[hits[0]])


def total_control_effort(schedule, dspec):
    """Time integral of the control vector norm over the horizon."""
    if schedule is None or schedule.kind == "init_weights":
        return 0.0
    norms = np.sqrt(segment_sumsq(schedule.values)).tolist()
    total = 0.0
    for step in range(0, dspec.n_steps, schedule.segment):
        run_len = min(schedule.segment, dspec.n_steps - step)
        total += norms[min(step // schedule.segment, len(norms) - 1)] * run_len * dspec.dt
    return total


# --- configuration -----------------------------------------------------------


@dataclass
class RunConfig:
    """Everything one scenario run needs.

    `seed` governs the drawn initial weights (it replaces the dynamics spec's
    init_seed) and any sampling the scenario does.  `params` holds the
    scenario-specific knobs; unknown keys are rejected and missing ones take
    the registered defaults.  Output files land in out_dir/run_name when
    out_dir is set.
    """

    scenario: str
    dynamics: dyn.DynamicsSpec
    value: ValueSpec
    optimizer: OptimizerSpec
    seed: int = 0
    params: dict = field(default_factory=dict)
    out_dir: str | None = None
    run_name: str = ""
    force: bool = False

    def __post_init__(self):
        defaults = _scenario(self.scenario).params
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ConfigError(f"scenario '{self.scenario}' does not take parameter(s) {sorted(unknown)}")
        self.params = {key: _as_param(val, defaults[key], key) for key, val in {**defaults, **self.params}.items()}
        for f in fields(self):
            setattr(self, f.name, _as_field(getattr(self, f.name), f.type, f.name))
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class RunResult:
    scenario: str
    V_baseline: float
    V_control: float
    trajectories: dict
    schedule: ControlSchedule
    trace: OptTrace
    summaries: dict
    out_dir: str | None = None


# what a field declared int, float, bool or str takes; a bool is not taken for a number
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


def _as_field(value, typ, name):
    """`value` as a field declared `typ` holds it, a number as int or float; a refusal is a ConfigError naming `name`.

    A str | None field also takes None; a field of any other declared type takes anything.
    """
    if typ == str | None:
        return None if value is None else _as_field(value, str, name)
    if typ not in _ACCEPTS:
        return value
    if not isinstance(value, _ACCEPTS[typ]) or (isinstance(value, bool) and typ is not bool):
        raise ConfigError(f"expected {typ.__name__} for {name}, got {value!r}")
    return typ(value)


def _as_param(value, default, name):
    """Scenario parameter `value` typed after its default, by the rule configio types text by.

    A tuple default takes any non-string sequence, stored as a tuple whose
    entries are typed after the default's first; a scalar default types
    `value` as _as_field types a field of its type.
    """
    if not isinstance(default, tuple):
        return _as_field(value, type(default), name)
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ConfigError(f"expected a list for {name}, got {value!r}")
    return tuple(_as_param(v, default[0], name) for v in value)


def _scenario(name):
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown scenario '{name}' (choose from {', '.join(SCENARIOS)})")
    return _SCENARIOS[name]


def preset(name, seed=0, out_dir=None, run_name=None, **param_overrides):
    """RunConfig for a named scenario with tuned desk-scale defaults.

    Horizons are rescaled from the much longer originals; every preset runs
    in seconds to low minutes.  `param_overrides` update the scenario params;
    dynamics/value/optimizer fields are best adjusted on the returned config
    with dataclasses.replace, override_param or set_fields.
    """
    # copies, so a caller editing a spec in place cannot change the table
    dspec, vspec, ospec = copy.deepcopy(_scenario(name).specs)
    return RunConfig(
        scenario=name,
        dynamics=dspec,
        value=vspec,
        optimizer=ospec,
        seed=seed,
        params=dict(param_overrides),
        out_dir=out_dir,
        run_name=name if run_name is None else run_name,
    )


def set_fields(config, changes):
    """Copy of `config` with each dotted path of `changes` set, e.g. {"value.cost.beta": 0.1, "force": True}.

    Every dataclass on the way is replaced once with all of its new fields,
    so fields checked against each other (a dynamics kind and its dims) are
    set together, whatever order `changes` lists them in.  A bare name that
    is not a RunConfig field is a scenario parameter, and a dict (the
    scenario params) takes only keys it has.  A value its spec rejects raises
    ConfigError, and so does dynamics.init_seed, which build() sets from seed.
    """
    if "dynamics.init_seed" in changes:
        raise ConfigError("'dynamics.init_seed' would be overwritten by build(); set it through 'seed'")
    params = {n: v for n, v in changes.items() if "." not in n and n not in RunConfig.__dataclass_fields__}
    if params:  # RunConfig rejects a parameter its scenario does not take
        config = replace(config, params={**config.params, **params})
        changes = {n: v for n, v in changes.items() if n not in params}

    def apply(obj, items):
        own, nested = {}, {}
        for (head, *rest), value, name in items:
            if isinstance(obj, dict) and head not in obj:
                raise ConfigError(f"unknown parameter '{head}' in '{name}'")
            if not isinstance(obj, dict) and head not in getattr(obj, "__dataclass_fields__", ()):
                raise ConfigError(f"'{type(obj).__name__}' has no field '{head}' (from '{name}')")
            if rest:
                nested.setdefault(head, []).append((rest, value, name))
            elif isinstance(obj, dict):
                own[head] = value
            else:
                own[head] = _as_field(value, obj.__dataclass_fields__[head].type, name)
        for head, sub in nested.items():
            own[head] = apply(obj[head] if isinstance(obj, dict) else getattr(obj, head), sub)
        return {**obj, **own} if isinstance(obj, dict) else replace(obj, **own)

    try:
        return apply(config, [(name.split("."), value, name) for name, value in changes.items()])
    except ValueError as err:  # a spec's own validation, worded as configio words it
        raise ConfigError(f"invalid configuration: {err}") from err


def override_param(config, name, value, run_suffix=""):
    """New config with one dotted field replaced, e.g. "value.gamma" or "sigma", as set_fields sets it.

    `run_suffix` extends run_name so sweep outputs never collide.
    """
    cfg = set_fields(config, {name: value})
    suffix = run_suffix.replace(os.sep, "_")
    if suffix:
        cfg = replace(cfg, run_name=os.path.join(cfg.run_name, suffix) if cfg.run_name else suffix)
    return cfg


# --- the run pipeline --------------------------------------------------------


def _loss_integral(traj, dspec):
    return float(np.sum(traj.losses[: dspec.n_steps])) * dspec.dt


def _segment_mid_times(schedule, dspec, seg_indices):
    return [float((i * schedule.segment + 0.5 * schedule.segment) * dspec.dt) for i in seg_indices]


def build(cfg):
    """(dynamics, task, schedule) a run starts from.

    The dynamics spec takes cfg.seed as its init_seed and goes through the
    scenario's task function.  The schedule is the scenario's control kind at
    its neutral value, with the params' segment and (g_lo, g_hi) bounds; for
    the init_weights kind it holds the seeded initial weights, and a cost
    kind other than none is refused.
    """
    entry = _scenario(cfg.scenario)
    p = cfg.params
    try:
        for key, val in p.items():  # the bounds may be infinite
            if key not in ("g_lo", "g_hi") and not _finite(val):
                raise ValueError(f"{key} must be finite, got {val}")
        for key, least in _LEAST.items():
            if key in p and int(p[key]) < least:
                raise ValueError(f"{key} must be {'positive' if least else 'nonnegative'}, got {p[key]}")
        if not dyn.fits_control(cfg.dynamics.kind, entry.control):
            raise ValueError(f"dynamics kind '{cfg.dynamics.kind}' cannot read the scenario's {entry.control} control")
        d, task = entry.task(replace(cfg.dynamics, init_seed=cfg.seed), p)
        task = dyn.TaskSet(task) if dyn.is_task_set(task) else task  # its moments stacked once
        # every task the run sees must fit the network: a schedule's, a task set's or the one task
        tasks = task.tasks if isinstance(task, dyn.TaskSchedule) else task if dyn.is_task_set(task) else [task]
        for t in tasks:
            if (t.input_dim, t.output_dim) != (d.input_dim, d.output_dim):
                raise ValueError(
                    f"dynamics dims {d.input_dim}x{d.output_dim} do not fit task '{t.name}' "
                    f"({t.input_dim}x{t.output_dim})"
                )
        if entry.control == "init_weights":
            if cfg.value.cost.kind != "none":  # the initial weights are not a control signal and cost nothing
                raise ValueError(f"the init_weights control pays no cost: set cost_kind to 'none', "
                                 f"not '{cfg.value.cost.kind}'")
            return d, task, init_weights_control(dyn.initial_state(d))
        n_channels = None
        if entry.control == "engagement_series":
            n_channels = task.blocks.n_tasks
        elif entry.control == "category_series":
            n_channels = task.output_dim
        sched = ControlSchedule.neutral(
            entry.control,
            d.n_steps,
            segment=int(p["segment"]),
            shapes=((d.hidden_dim, d.input_dim), (d.output_dim, d.hidden_dim)),
            n_channels=n_channels,
            bounds=(p["g_lo"], p["g_hi"]),
        )
    except ValueError as err:  # a scenario parameter out of range, worded as configio words it
        raise ConfigError(f"invalid configuration: {err}") from err
    return d, task, sched


def _finite(value):
    """Whether a number, or every number in a (nested) tuple of them, is finite."""
    return all(map(_finite, value)) if isinstance(value, tuple) else math.isfinite(value)


def run(config):
    """Execute one scenario: baseline, optimization, controlled rollout, summaries.

    Returns a RunResult; when config.out_dir is set the result is also written
    to disk (result.json, trajectory CSVs, schedule JSON, optimizer trace).
    """
    try:
        return _run_inner(config)
    except LearningControlError as err:
        err.args = (f"scenario '{config.scenario}': {err.args[0]}",) + err.args[1:]
        raise


def _run_inner(cfg):
    dspec, task, init_sched = build(cfg)
    init_sched = init_sched.project()
    multi = dyn.is_task_set(task)

    sched_opt, trace = optimize(dspec, task, cfg.value, cfg.optimizer, init_sched)
    v_baseline = trace.V[0]
    v_control = trace.V[-1]
    if v_control < v_baseline - 1e-9:
        raise LearningControlError(f"value dropped ({v_control} < {v_baseline}); optimizer contract broken")

    first, last = trace.rollouts
    trajectories = {}
    if multi:
        for k, (base, ctrl) in enumerate(zip(first.per_task(), last.per_task())):
            trajectories[f"baseline:{k}"] = base
            trajectories[f"controlled:{k}"] = ctrl
    else:
        trajectories["baseline"] = first
        trajectories["controlled"] = last

    summaries = {
        "V_baseline": v_baseline,
        "V_control": v_control,
        "V_gain": v_control - v_baseline,
        "optimizer_iters_used": len(trace.V) - 1,
        "total_effort": total_control_effort(sched_opt, dspec),
    }
    if not multi:
        base = trajectories["baseline"]
        ctrl = trajectories["controlled"]
        for frac, tag in ((0.5, "half"), (0.1, "tenth")):
            summaries[f"time_to_{tag}_baseline"] = time_to_fraction(base.times, base.losses, frac)
            summaries[f"time_to_{tag}_controlled"] = time_to_fraction(ctrl.times, ctrl.losses, frac)
        summaries["loss_integral_baseline"] = _loss_integral(base, dspec)
        summaries["loss_integral_controlled"] = _loss_integral(ctrl, dspec)

    summaries.update(_SCENARIOS[cfg.scenario].summarize(cfg, dspec, task, init_sched, sched_opt, trajectories))

    result = RunResult(
        scenario=cfg.scenario,
        V_baseline=v_baseline,
        V_control=v_control,
        trajectories=trajectories,
        schedule=sched_opt,
        trace=trace,
        summaries=summaries,
        out_dir=None,
    )
    if cfg.out_dir is not None:
        from .reporting import write_run_outputs

        result.out_dir = write_run_outputs(result, cfg)
    return result


def sweep(base_config, param_name, values, parallelism=None):
    """Run the scenario once per value of one dotted config parameter.

    Results come back in input order.  Output directories (when configured)
    get a per-value subdirectory so parallel runs never collide.  Worker
    count: `parallelism` if given (0 or None: one per value), capped by the
    number of values and the machine's cores; a pool starts all its workers
    at once.
    """
    if parallelism is not None and parallelism < 0:
        raise ConfigError(f"parallelism must be nonnegative, got {parallelism}")
    configs = [override_param(base_config, param_name, v, run_suffix=f"{param_name}={v}") for v in values]
    names = [c.run_name for c in configs]
    for v, name in zip(values, names):
        if names.count(name) > 1:
            raise ConfigError(f"value {v!r} of '{param_name}' repeats: two runs would share '{name}'")
    workers = min(parallelism or len(configs), len(configs), os.cpu_count() or 1)
    if workers <= 1:
        return [run(c) for c in configs]
    from concurrent.futures import ProcessPoolExecutor  # only here: it costs every import of the package

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, configs))


# --- scenario-specific summaries ---------------------------------------------


def _sum_neuron(cfg, dspec, task, init_sched, sched, trajs):
    g = sched.expand()[0]
    quarter = max(dspec.n_steps // 4, 1)  # a horizon under 4 steps still averages its first and last step
    return {
        "gain_mean_first_quarter": float(np.mean(g[:quarter])),
        "gain_mean_last_quarter": float(np.mean(g[-quarter:])),
        "effort_integral": float(np.sum(g)) * dspec.dt,
    }


def _sum_sgd_validation(cfg, dspec, task, init_sched, sched, trajs):
    p = cfg.params
    n_seeds = int(p["n_seeds"])
    stride = int(p["stride"])
    ode = trajs["baseline"].losses
    checked = list(range(0, dspec.n_steps + 1, stride))
    out = {"sgd_seeds": n_seeds, "sgd_stride": stride}
    if n_seeds >= 2:
        runs = np.stack(
            [
                dyn.simulate_sgd(dspec, init_sched, task, int(p["batch_size"]), seed=[cfg.seed, 1000 + k]).losses
                for k in range(n_seeds)
            ]
        )
        mean = runs.mean(axis=0)
        sd = runs.std(axis=0, ddof=1)
        z = np.zeros(len(checked))
        for j, i in enumerate(checked):
            diff = abs(ode[i] - mean[i])
            z[j] = 0.0 if diff <= 1e-12 else diff / max(sd[i], 1e-300)
        out["sgd_max_z"] = float(np.max(z))
        out["sgd_checked_steps"] = len(checked)
    return out


def _sum_allocation(cfg, dspec, task, init_sched, sched, trajs):
    g1, g2 = sched.expand()
    shares = []
    for (i0, i1), (o0, o1) in zip(task.blocks.input_slices, task.blocks.output_slices):
        shares.append(float(np.sum(g1[:, :, i0:i1] ** 2) + np.sum(g2[:, o0:o1, :] ** 2)))
    total = sum(shares)
    order, floors = difficulty_order(
        [_corr(cfg.params["task_easy"], "task_easy"), _corr(cfg.params["task_hard"], "task_hard")]
    )
    return {
        "gain_energy_by_task": shares,
        "gain_share_by_task": [s / total if total > 0 else 0.0 for s in shares],
        "difficulty_order": order,
        "difficulty_floors": [float(f) for f in floors],
    }


def _sum_switch(cfg, dspec, selector, init_sched, sched, trajs):
    switches = selector.switch_steps
    return {
        "switch_steps": switches,
        "peaks_baseline": post_switch_peaks(trajs["baseline"].losses, switches, dspec.n_steps),
        "peaks_controlled": post_switch_peaks(trajs["controlled"].losses, switches, dspec.n_steps),
    }


def _sum_engagement(cfg, dspec, task, init_sched, sched, trajs):
    psi = sched.values[0]
    arg = [int(i) for i in np.argmax(psi, axis=0)]
    order, floors = difficulty_order([_corr(t, f"tasks[{k}]") for k, t in enumerate(cfg.params["tasks"])])
    return {
        "psi_peak_times": _segment_mid_times(sched, dspec, arg),
        "psi_mean": [float(m) for m in np.mean(psi, axis=0)],
        "difficulty_order": order,
        "difficulty_floors": [float(f) for f in floors],
    }


def _sum_category(cfg, dspec, task, init_sched, sched, trajs):
    phi = sched.values[0]
    arg = [int(i) for i in np.argmax(phi, axis=0)]
    return {
        "phi_peak_times": _segment_mid_times(sched, dspec, arg),
        "phi_mean": [float(m) for m in np.mean(phi, axis=0)],
    }


def _sum_class_proportion(cfg, dspec, task, init_sched, sched, trajs):
    out = _sum_category(cfg, dspec, task, init_sched, sched, trajs)
    counts = export_class_schedule(sched, int(cfg.params["batch_size"]))
    out["class_counts_first_step"] = [int(c) for c in counts[0]]
    out["class_counts_last_step"] = [int(c) for c in counts[-1]]
    out["class_counts_row_sum"] = int(counts[0].sum())
    return out


def _sum_maml(cfg, dspec, tasks, init_sched, sched, trajs):
    eval_steps = int(cfg.params["eval_steps"])
    espec = replace(dspec, n_steps=eval_steps)
    ctrl, base = (dyn.integrate(espec, s, tasks).per_task() for s in (sched, init_sched))
    return {
        "eval_steps": eval_steps,
        "eval_final_losses": [float(t.losses[-1]) for t in ctrl],
        "eval_cumulative_loss": sum(float(np.sum(t.losses[1:])) for t in ctrl),
        "eval_cumulative_loss_baseline": sum(float(np.sum(t.losses[1:])) for t in base),
        "train_steps_ahead": dspec.n_steps,
    }


def _sum_bilevel(cfg, dspec, task, init_sched, sched, trajs):
    base = trajs["baseline"]
    ctrl = trajs["controlled"]
    plateaus = detect_plateaus(base.times, base.losses)
    t_base = time_to_fraction(base.times, base.losses, 0.1)
    t_ctrl = time_to_fraction(ctrl.times, ctrl.losses, 0.1)
    speedup = 1.0 - t_ctrl / t_base if math.isfinite(t_base) and math.isfinite(t_ctrl) and t_base > 0 else 0.0
    return {
        "plateaus": plateaus,
        "n_plateaus": len(plateaus),
        "time_to_tenth_speedup": speedup,
    }


def _sum_nonlinear(cfg, dspec, task, init_sched, sched, trajs):
    batch = int(cfg.params["batch_size"])
    sgd_base = dyn.simulate_sgd(dspec, init_sched, task, batch, seed=[cfg.seed, 77])
    sgd_ctrl = dyn.simulate_sgd(dspec, sched, task, batch, seed=[cfg.seed, 77])
    trajs["sgd_baseline"] = sgd_base
    trajs["sgd_controlled"] = sgd_ctrl

    def weight_gap(a, b):
        acc = 0.0
        for sa, sb in zip(a.states, b.states):
            acc += math.sqrt(sum(float(np.sum((wa - wb) ** 2)) for wa, wb in zip(sa, sb)))
        return acc / len(a.states)

    return {
        "taylor_sgd_weight_gap": weight_gap(trajs["baseline"], sgd_base),
        "taylor_sgd_loss_gap": float(np.mean(np.abs(trajs["baseline"].losses - sgd_base.losses))),
        "sampled_loss_integral_baseline": _loss_integral(sgd_base, dspec),
        "sampled_loss_integral_controlled": _loss_integral(sgd_ctrl, dspec),
    }


# --- the scenario table ------------------------------------------------------


def _corr(p, key, name="correlated_gaussian"):
    """The correlated-Gaussian task of scenario parameter `key`'s five numbers, named `name`."""
    if len(p) != 5:
        raise ValueError(
            f"a correlated-Gaussian task takes 5 numbers (mu1, mu2, sigma1, sigma2, flip_p), got {p!r} for {key}"
        )
    return correlated_gaussian_moments(*p, name=name)


def _neuron_task(d, p):
    return d, two_gaussian_moments(p["mu"], p["sigma"])


def _switch_task(d, p):
    tasks = [_corr(p["task_a"], "task_a", "task_a"), _corr(p["task_b"], "task_b", "task_b")]
    return d, task_switch_schedule(tasks, int(p["switch_period"]), d.n_steps)


def _category_task(d, p):
    if len({len(m) for m in p["class_means"]}) != 1:
        raise ValueError(f"class_means must be one or more means of one length, got {p['class_means']}")
    return d, class_mixture_moments([list(m) for m in p["class_means"]], p["class_sigma"])


def _maml_task(d, p):
    if not p["tasks"] or any(len(t) != 2 for t in p["tasks"]):
        raise ValueError(f"tasks must be one or more (mu, sigma) pairs, got {p['tasks']}")
    if int(p["steps_ahead"]) > 0:
        d = replace(d, n_steps=int(p["steps_ahead"]))
    return d, [two_gaussian_moments(mu, s, name=f"pair{k}") for k, (mu, s) in enumerate(p["tasks"])]


def _bilevel_task(d, p):
    return d, semantic_moments(int(p["levels"]))


# least values of integer scenario parameters, checked by build() before the task
# function runs (steps_ahead = 0 keeps the preset horizon)
_LEAST = {"batch_size": 1, "n_seeds": 0, "stride": 1, "steps_ahead": 0, "eval_steps": 1}

# params: defaults of the scenario's knobs (their types also type config-file
# values); specs: the preset (DynamicsSpec, ValueSpec, OptimizerSpec);
# task(seeded dynamics, params) -> (dynamics, task); control: the schedule
# kind build() starts from; summarize(cfg, dspec, task, init_sched, sched,
# trajectories) -> the scenario's extra summaries.
_Scenario = namedtuple("_Scenario", "params specs task control summarize")

_SCENARIOS = {
    "single_neuron_effort": _Scenario(
        params={"mu": 1.0, "sigma": 1.0, "segment": 30, "g_lo": 0.0, "g_hi": 0.5},
        specs=(
            dyn.DynamicsSpec(
                kind="single_neuron", input_dim=1, output_dim=1, dt=0.01, n_steps=3000, tau_w=1.0, reg_lambda=0.1
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("quadratic", beta=0.3)),
            OptimizerSpec(alpha_g=10.0, iters=60),
        ),
        task=_neuron_task, control="scalar_series", summarize=_sum_neuron,
    ),
    "effort_allocation": _Scenario(
        params={"task_easy": (3.0, 1.0, 1.0, 1.0, 0.8), "task_hard": (1.0, 0.5, 1.0, 1.0, 0.62), "segment": 40,
                "g_lo": -0.5, "g_hi": 1.0},
        specs=(
            dyn.DynamicsSpec(
                kind="gain_mod", input_dim=4, output_dim=4, hidden_dim=4, dt=0.02, n_steps=800, reg_lambda=0.01,
                init_std=0.1,
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("quadratic", beta=0.05)),
            OptimizerSpec(alpha_g=2.0, iters=30),
        ),
        task=lambda d, p: (d, compose_block_tasks(
            [_corr(p["task_easy"], "task_easy", "easy"), _corr(p["task_hard"], "task_hard", "hard")])),
        control="matrix_pair_series", summarize=_sum_allocation,
    ),
    "task_switch": _Scenario(
        # mirror pair: b is a with the input correlation sign flipped, so both
        # halves of the cycle are equally hard and post-switch peaks compare cleanly
        params={"task_a": (3.0, 1.0, 1.0, 1.0, 0.8), "task_b": (3.0, 1.0, 1.0, 1.0, 0.2), "switch_period": 500,
                "segment": 25, "g_lo": -0.5, "g_hi": 1.0},
        specs=(
            dyn.DynamicsSpec(
                kind="gain_mod", input_dim=2, output_dim=2, hidden_dim=4, dt=0.02, n_steps=3000, reg_lambda=0.01,
                init_std=0.1,
            ),
            ValueSpec(gamma=0.995, eta=1.0, cost=CostSpec("quadratic", beta=0.05)),
            OptimizerSpec(alpha_g=2.0, iters=40),
        ),
        task=_switch_task, control="matrix_pair_series", summarize=_sum_switch,
    ),
    "task_engagement": _Scenario(
        # speeds fall ~3x per task (whole-input scaling, which leaves the
        # regression floor alone) while flip_p keeps the floors ranked
        params={"tasks": ((3.0, 1.5, 1.0, 1.0, 0.9), (1.65, 0.825, 0.55, 0.55, 0.75), (0.9, 0.45, 0.3, 0.3, 0.62)),
                "segment": 20, "g_lo": 0.0, "g_hi": 1.5},
        # init well below the regression solution so every block has a visible
        # rise phase, and an exp-of-total cost so engaging tasks one at a time
        # beats engaging them all at once
        specs=(
            dyn.DynamicsSpec(
                kind="engagement", input_dim=6, output_dim=6, hidden_dim=6, dt=0.025, n_steps=600, tau_w=2.0,
                init_std=0.08,
            ),
            ValueSpec(gamma=0.9, eta=1.0, cost=CostSpec("exp_frobenius", beta=0.4)),
            OptimizerSpec(alpha_g=0.04, iters=150, update_rule="adaptive_moments"),
        ),
        task=lambda d, p: (d, compose_block_tasks(
            [_corr(t, f"tasks[{k}]", f"task{k}") for k, t in enumerate(p["tasks"])])),
        control="engagement_series", summarize=_sum_engagement,
    ),
    "category_engagement": _Scenario(
        params={"class_means": ((3.0, 0.0), (0.0, 1.5), (-0.8, -0.8)), "class_sigma": 1.0, "segment": 40,
                "g_lo": 0.0, "g_hi": 2.0},
        specs=(
            dyn.DynamicsSpec(
                kind="category_engagement", input_dim=2, output_dim=3, hidden_dim=4, dt=0.02, n_steps=800,
                init_std=0.1,
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("anchored_norm", beta=0.1, anchor=1.0)),
            OptimizerSpec(alpha_g=1.5, iters=25),
        ),
        task=_category_task, control="category_series", summarize=_sum_category,
    ),
    "class_proportion": _Scenario(
        params={"class_means": ((3.0, 0.0), (0.0, 1.5), (-0.8, -0.8)), "class_sigma": 1.0, "segment": 40,
                "g_lo": 0.0, "g_hi": 2.0, "batch_size": 256},
        specs=(
            dyn.DynamicsSpec(
                kind="category_engagement", input_dim=2, output_dim=3, hidden_dim=4, dt=0.02, n_steps=800,
                init_std=0.1,
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("fixed_norm", beta=0.05, target_norm=3.0)),
            OptimizerSpec(alpha_g=1.5, iters=25),
        ),
        task=_category_task, control="category_series", summarize=_sum_class_proportion,
    ),
    "maml_multistep": _Scenario(
        params={"tasks": ((2.0, 0.8), (1.2, 1.0), (0.7, 1.2)), "steps_ahead": 0, "eval_steps": 20},
        specs=(
            dyn.DynamicsSpec(
                kind="two_layer_baseline", input_dim=1, output_dim=1, hidden_dim=3, dt=0.1, n_steps=5, init_std=0.3
            ),
            per_step_sum_spec(),
            OptimizerSpec(alpha_g=0.05, iters=120),
        ),
        task=_maml_task, control="init_weights", summarize=_sum_maml,
    ),
    "lr_bilevel": _Scenario(
        params={"levels": 4, "segment": 30, "g_lo": -0.5, "g_hi": 4.0},
        specs=(
            dyn.DynamicsSpec(
                kind="lr_mod", input_dim=8, output_dim=15, hidden_dim=8, dt=0.02, n_steps=600, init_std=1e-4
            ),
            ValueSpec(gamma=1.0, eta=1.0, cost=CostSpec("quadratic", beta=1e-3)),
            OptimizerSpec(alpha_g=0.5, iters=30),
        ),
        task=_bilevel_task, control="scalar_series", summarize=_sum_bilevel,
    ),
    "nonlinear_approx": _Scenario(
        params={"task": (2.0, 1.0, 1.0, 1.0, 0.85), "segment": 20, "g_lo": -0.5, "g_hi": 1.0, "batch_size": 256},
        specs=(
            dyn.DynamicsSpec(
                kind="nonlinear_taylor", input_dim=2, output_dim=2, hidden_dim=4, dt=0.05, n_steps=320,
                reg_lambda=0.01, init_std=0.1, nonlinearity="tanh",
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("quadratic", beta=0.05)),
            OptimizerSpec(alpha_g=1.0, iters=30),
        ),
        task=lambda d, p: (d, _corr(p["task"], "task")), control="matrix_pair_series", summarize=_sum_nonlinear,
    ),
    "sgd_validation": _Scenario(
        params={"mu": 1.0, "sigma": 1.0, "segment": 25, "g_lo": 0.0, "g_hi": 0.5, "batch_size": 128, "n_seeds": 5,
                "stride": 10},
        specs=(
            dyn.DynamicsSpec(
                kind="single_neuron", input_dim=1, output_dim=1, dt=0.01, n_steps=500, tau_w=1.0, reg_lambda=0.1
            ),
            ValueSpec(gamma=0.99, eta=1.0, cost=CostSpec("quadratic", beta=0.3)),
            OptimizerSpec(alpha_g=10.0, iters=20),
        ),
        task=_neuron_task, control="scalar_series", summarize=_sum_sgd_validation,
    ),
}

SCENARIOS = tuple(_SCENARIOS)
