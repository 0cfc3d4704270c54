"""File outputs for completed runs: CSVs, result JSON, and SVG charts.

Everything written here is deterministic: identical inputs give byte-identical
files (no timestamps, no environment leakage), which makes outputs diffable
and lets tests pin them.  Floats are formatted with 17 significant digits so
they survive a parse round trip exactly.
"""

import csv
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .control import segment_sumsq
from .errors import ConfigError, DataFormatError
from .idx import _emit as _emit17
from .value import segment_costs

TRAJECTORY_COLUMNS = ("step", "time", "loss", "reward", "cost", "net_reward", "w1_l1", "w1_l2", "w2_l1", "w2_l2", "g_l2")
TRACE_COLUMNS = ("iter", "V", "grad_norm", "alpha_used", "ms")


_BLOCK = 256  # rows per write: neither the file's text nor a table of all its rows is held in memory


def _write_rows(path, header, columns):
    """A CSV of the `header` line and one CRLF line per row of `columns`, a tuple of float columns.

    Column 0 (the step or iteration) is written as an int and the rest with
    17 significant digits, as csv.writer would write them: no cell needs quoting.
    """
    row = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _BLOCK):
            block = np.column_stack([c[lo : lo + _BLOCK] for c in columns]).tolist()
            fh.write("".join([row % tuple(r) for r in block]))
    return path


def _norms(layer):
    """L1 and L2 norms of every entry of a layer stack, one per step."""
    arr = np.asarray(layer, dtype=float)
    axes = tuple(range(1, arr.ndim))
    return abs(arr).sum(axis=axes), np.sqrt((arr * arr).sum(axis=axes))


def write_trajectory_csv(path, traj, schedule=None, vspec=None):
    """One row per recorded state with the pinned column set.

    reward/cost/net_reward are the undiscounted instant rates (eta * -loss and
    C(g)); the terminal row reuses the last step's control, matching how the
    trajectory's terminal loss is scored.  Without a schedule the control
    columns are zero.
    """
    n = traj.n_steps
    usable = schedule is not None and schedule.kind != "init_weights" and schedule.n_steps == n
    eta = vspec.eta if vspec is not None else 1.0
    # one cost and one control norm per segment, which the rows index
    costs = norms = np.zeros(1)
    k = np.zeros(n + 1, dtype=int)
    if usable:
        norms = np.sqrt(segment_sumsq(schedule.values))
        costs = segment_costs(schedule.values, vspec.cost) if vspec is not None else np.zeros_like(norms)
        k = schedule.segment_of(np.arange(n + 1))
    # one pass per layer; a network without a second layer has zero norms there
    second = _norms(traj.layers[1]) if len(traj.layers) > 1 else (np.zeros(n + 1),) * 2
    with np.errstate(over="ignore", invalid="ignore"):  # nan and inf pass through, as Python floats do
        reward = -eta * np.asarray(traj.losses, dtype=float)
        cost = costs[k]
        columns = (np.arange(n + 1), traj.times, traj.losses, reward, cost, reward - cost,
                   *_norms(traj.layers[0]), *second, norms[k])
    return _write_rows(path, TRAJECTORY_COLUMNS, columns)


def write_trace_csv(path, trace):
    columns = (np.arange(len(trace.V)), trace.V, trace.grad_norm, trace.alpha_used, trace.wall_ms)
    return _write_rows(path, TRACE_COLUMNS, columns)


def _config_doc(cfg):
    """The run's config as JSON sections of the config keys, and as config text without its out_dir."""
    from .configio import KEYS, config_value, serialize_config

    doc = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "run_name": cfg.run_name,
        "params": {k: list(val) if isinstance(val, tuple) else val for k, val in cfg.params.items()},
    }
    for section, key, _, path in KEYS:
        if section != "output":
            doc.setdefault(section, {})[key] = config_value(cfg, path)
    # where a run is written is no part of it: the same run gives the same bytes in any directory
    doc["config_text"] = serialize_config(replace(cfg, out_dir=None))
    return doc


def write_result_json(path, result, cfg):
    doc = {
        "scenario": result.scenario,
        "V_baseline": result.V_baseline,
        "V_control": result.V_control,
        "stalled_at": result.trace.stalled_at,
        "summaries": result.summaries,
        "config": _config_doc(cfg),
    }
    text = _emit17(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def write_schedule_json(path, schedule):
    with open(path, "w") as fh:
        fh.write(schedule.to_json() + "\n")
    return path


def write_run_outputs(result, cfg):
    """Write the full output bundle; returns the directory used.

    Refuses to reuse an existing directory unless cfg.force is set (the CLI
    surfaces that as an I/O error and tells the user about --force).  With
    force, the trajectory CSVs of an earlier bundle are removed first, since
    their names depend on the scenario; other files stay.
    """
    out = os.path.join(cfg.out_dir, cfg.run_name) if cfg.run_name else cfg.out_dir
    if os.path.exists(out):
        if not cfg.force:
            raise FileExistsError(f"output directory '{out}' exists; pass --force to overwrite")
        for name in os.listdir(out):
            if name.startswith(("baseline", "controlled", "sgd_")) and name.endswith(".csv"):
                os.remove(os.path.join(out, name))
    os.makedirs(out, exist_ok=True)
    write_result_json(os.path.join(out, "result.json"), result, cfg)
    write_schedule_json(os.path.join(out, "schedule.json"), result.schedule)
    write_trace_csv(os.path.join(out, "trace.csv"), result.trace)
    for name, traj in result.trajectories.items():
        fname = name.replace(":", "_") + ".csv"
        sched = result.schedule if name.startswith(("controlled", "sgd_controlled")) else None
        write_trajectory_csv(os.path.join(out, fname), traj, sched, cfg.value)
    return out


# --- charts ------------------------------------------------------------------


@dataclass
class ChartSpec:
    """What to draw: series of (label, csv_path, x_column, y_column)."""

    series: list = field(default_factory=list)
    x_label: str = "x"
    y_label: str = "y"
    log_x: bool = False
    log_y: bool = False
    title: str = ""
    out_path: str = "chart.svg"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_VIEW_W, _VIEW_H = 800, 500
_X0, _Y0, _PLOT_W, _PLOT_H = 70, 30, 700, 410


def read_csv_columns(path):
    """Numeric columns of a UTF-8 CSV as {name: float array}."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not UTF-8 text: {err}") from None
    if not rows:
        raise DataFormatError(f"{path}: empty CSV")
    header = rows[0]
    cols = {h: [] for h in header}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataFormatError(f"{path}:{r}: expected {len(header)} fields, found {len(row)}")
        for h, cell in zip(header, row):
            try:
                cols[h].append(float(cell))
            except ValueError:
                raise DataFormatError(f"{path}:{r}: non-numeric value '{cell}' in column '{h}'") from None
    return {h: np.array(v) for h, v in cols.items()}


def _axis_range(values, log):
    vals = np.concatenate(values) if values else np.array([])
    if log:
        vals = vals[vals > 0]
    vals = vals[np.isfinite(vals)] if vals.size else vals
    if vals.size == 0:
        return (1.0, 10.0) if log else (0.0, 1.0)
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if lo == hi:
        if log:
            return lo / 2.0, hi * 2.0
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    return lo, hi


def _project(v, lo, hi, log):
    if log:
        return (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
    return (v - lo) / (hi - lo)


def _ticks(lo, hi, log):
    if not log:
        return [float(t) for t in np.linspace(lo, hi, 5)]
    d0, d1 = math.ceil(math.log10(lo)), math.floor(math.log10(hi))
    if d1 < d0:
        return [lo, hi]
    return [10.0**d for d in range(d0, d1 + 1)]


def render_chart(spec):
    """SVG text for a chart spec; raises ConfigError for missing columns."""
    cache = {}
    series_pts = []
    for label, path, xcol, ycol in spec.series:
        if path not in cache:
            cache[path] = read_csv_columns(path)
        cols = cache[path]
        for want in (xcol, ycol):
            if want not in cols:
                raise ConfigError(f"column '{want}' not in {path} (has: {', '.join(cols)})")
        series_pts.append((label, cols[xcol], cols[ycol]))

    x_lo, x_hi = _axis_range([p[1] for p in series_pts], spec.log_x)
    y_lo, y_hi = _axis_range([p[2] for p in series_pts], spec.log_y)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_VIEW_W} {_VIEW_H}" '
        f'width="{_VIEW_W}" height="{_VIEW_H}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="#ffffff"/>',
        f'<rect x="{_X0}" y="{_Y0}" width="{_PLOT_W}" height="{_PLOT_H}" fill="none" stroke="#333333"/>',
    ]
    if spec.title:
        parts.append(f'<text x="{_X0 + _PLOT_W / 2:.1f}" y="20" text-anchor="middle" font-size="15">{spec.title}</text>')

    for t in _ticks(x_lo, x_hi, spec.log_x):
        u = _project(t, x_lo, x_hi, spec.log_x)
        px = _X0 + u * _PLOT_W
        parts.append(f'<line x1="{px:.2f}" y1="{_Y0}" x2="{px:.2f}" y2="{_Y0 + _PLOT_H}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{_Y0 + _PLOT_H + 18}" text-anchor="middle" font-size="12">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi, spec.log_y):
        v = _project(t, y_lo, y_hi, spec.log_y)
        py = _Y0 + _PLOT_H - v * _PLOT_H
        parts.append(f'<line x1="{_X0}" y1="{py:.2f}" x2="{_X0 + _PLOT_W}" y2="{py:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{_X0 - 6}" y="{py + 4:.2f}" text-anchor="end" font-size="12">{t:.4g}</text>')

    parts.append(
        f'<text x="{_X0 + _PLOT_W / 2:.1f}" y="{_VIEW_H - 12}" text-anchor="middle" font-size="13">{spec.x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_Y0 + _PLOT_H / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_Y0 + _PLOT_H / 2:.1f})">{spec.y_label}</text>'
    )

    for k, (label, xs, ys) in enumerate(series_pts):
        color = _PALETTE[k % len(_PALETTE)]
        pts = []
        for x, y in zip(xs, ys):
            if not (np.isfinite(x) and np.isfinite(y)):
                continue
            if (spec.log_x and x <= 0) or (spec.log_y and y <= 0):
                continue
            px = _X0 + _project(x, x_lo, x_hi, spec.log_x) * _PLOT_W
            py = _Y0 + _PLOT_H - _project(y, y_lo, y_hi, spec.log_y) * _PLOT_H
            pts.append(f"{px:.2f},{py:.2f}")
        if pts:
            parts.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _Y0 + 16 + 18 * k
        parts.append(f'<line x1="{_X0 + _PLOT_W - 150}" y1="{ly - 4}" x2="{_X0 + _PLOT_W - 126}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_X0 + _PLOT_W - 120}" y="{ly}" font-size="12">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot(spec):
    """Render the chart and write it to spec.out_path."""
    text = render_chart(spec)
    with open(spec.out_path, "w") as fh:
        fh.write(text)
    return spec.out_path
