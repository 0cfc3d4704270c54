"""Command-line entry point.

Subcommands:
    run         execute one scenario (preset or config file)
    sweep       run a scenario once per value of one parameter
    grad-check  probe the adjoint gradient against finite differences
    moments     estimate task moments from IDX image/label files
    plot        render trajectory CSV columns as an SVG chart
    presets     list scenarios or show a preset as config text

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 I/O or data-format error.
"""

import argparse
import sys

from .errors import ConfigError, DataFormatError, DivergenceError, LearningControlError


def _build_parser():
    top = argparse.ArgumentParser(prog="learning-control", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("--preset", help="scenario name (see `presets list`)")
        p.add_argument("--config", help="path to a config file")
        p.add_argument("--seed", type=int, default=None, help="override the run seed")
        p.add_argument("--out-dir", default=None, help="directory for output files")
        p.add_argument("--run-name", default=None, help="subdirectory / run id")
        p.add_argument("--force", action="store_true", help="allow writing into an existing directory")
        p.add_argument(
            "-p",
            "--param",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a config field (dotted paths allowed, e.g. value.gamma=0.9)",
        )

    p_run = sub.add_parser("run", help="execute one scenario")
    add_source(p_run)

    p_sweep = sub.add_parser("sweep", help="run once per value of one parameter")
    add_source(p_sweep)
    p_sweep.add_argument("--sweep-param", required=True, help="dotted name of the swept field")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--parallel", type=int, default=None, help="worker processes (default: one per value)")

    p_gc = sub.add_parser("grad-check", help="finite-difference check of the gradient")
    add_source(p_gc)
    p_gc.add_argument("--coords", type=int, default=12, help="number of probed coordinates")
    p_gc.add_argument("--fd-step", type=float, default=1e-6, help="relative difference step")

    p_mom = sub.add_parser("moments", help="estimate moments from IDX files")
    p_mom.add_argument("--images", required=True, help="IDX image file (optionally gzipped)")
    p_mom.add_argument("--labels", required=True, help="IDX label file (optionally gzipped)")
    p_mom.add_argument("--digits", default=None, help="comma-separated digits to keep (default: all)")
    p_mom.add_argument("--encoding", choices=("onehot", "pm1"), default="onehot")
    p_mom.add_argument("--bias", action="store_true", help="append a constant input")
    p_mom.add_argument("--no-balanced", action="store_true", help="keep raw class counts")
    p_mom.add_argument("--limit", type=int, default=None, help="cap on examples read")
    p_mom.add_argument("--grid", type=int, default=5, help="downsampled image side length")
    p_mom.add_argument("--out", required=True, help="moments JSON output path")

    p_plot = sub.add_parser("plot", help="render CSV columns to SVG")
    p_plot.add_argument(
        "--series",
        action="append",
        required=True,
        metavar="LABEL:CSV:XCOL:YCOL",
        help="one polyline; repeatable",
    )
    p_plot.add_argument("--x-label", default="x")
    p_plot.add_argument("--y-label", default="y")
    p_plot.add_argument("--log-x", action="store_true")
    p_plot.add_argument("--log-y", action="store_true")
    p_plot.add_argument("--title", default="")
    p_plot.add_argument("--out", required=True, help="SVG output path")

    p_pre = sub.add_parser("presets", help="list scenarios or show one")
    p_pre.add_argument("action", choices=("list", "show"))
    p_pre.add_argument("--name", default=None, help="scenario to show")

    return top


def _load_config(args):
    """The config of --preset or --config with every option and -p override set at once (one set_fields)."""
    from .configio import override_value, parse_config_file
    from .experiments import preset, set_fields

    if bool(args.preset) == bool(args.config):
        raise ConfigError("pass exactly one of --preset or --config")
    if args.config:
        cfg = parse_config_file(args.config)
    else:
        cfg = preset(args.preset)
    flags = {"seed": args.seed, "out_dir": args.out_dir, "run_name": args.run_name, "force": args.force or None}
    changes = {name: val for name, val in flags.items() if val is not None}
    for item in args.param:
        name, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"-p expects NAME=VALUE, got '{item}'")
        path, val = override_value(cfg, name.strip(), raw)
        changes[path] = val
    return set_fields(cfg, changes)


def _fmt17(x):
    return format(float(x), ".17g")


def _print_result(result):
    print(f"{'scenario':<28}{result.scenario}")
    print(f"{'V_baseline':<28}{_fmt17(result.V_baseline)}")
    print(f"{'V_control':<28}{_fmt17(result.V_control)}")
    for key in sorted(result.summaries):
        if key in ("V_baseline", "V_control"):
            continue
        val = result.summaries[key]
        text = _fmt17(val) if isinstance(val, float) else str(val)
        print(f"{key:<28}{text}")
    if result.out_dir:
        print(f"{'outputs':<28}{result.out_dir}")


def _cmd_run(args):
    from .experiments import run

    result = run(_load_config(args))
    _print_result(result)
    return 0


def _cmd_sweep(args):
    from .configio import override_value
    from .experiments import sweep

    cfg = _load_config(args)
    typed = [override_value(cfg, args.sweep_param, v) for v in args.values.split(",")]
    values = [v for _, v in typed]
    results = sweep(cfg, typed[0][0], values, parallelism=args.parallel)
    for v, res in zip(values, results):
        print(f"{args.sweep_param}={v}: V_baseline={_fmt17(res.V_baseline)} V_control={_fmt17(res.V_control)}")
    return 0


def _cmd_grad_check(args):
    from .experiments import build
    from .value import fd_check

    if args.coords < 1:
        raise ConfigError("--coords must be >= 1")
    if not args.fd_step > 0:  # also rejects nan
        raise ConfigError("--fd-step must be positive")
    if not args.preset and not args.config:
        args.preset = "single_neuron_effort"
    cfg = _load_config(args)
    dspec, task, sched = build(cfg)
    report = fd_check(dspec, task, sched, cfg.value, coords=args.coords, h=args.fd_step, rng=cfg.seed)
    for (ai, fi), analytic, numeric, rel in report.entries:
        print(f"  coord ({ai},{fi:5d})  adjoint {analytic: .10e}  fd {numeric: .10e}  rel {rel:.3e}")
    print(f"max rel err {report.max_rel:.6e} over {len(report.entries)} coords")
    return 0


def _cmd_moments(args):
    from .idx import DigitFilter, estimate_moments, load_idx, write_moments_json

    if args.grid < 1:
        raise ConfigError("--grid must be >= 1")
    if args.limit is not None and args.limit < 1:
        raise ConfigError("--limit must be >= 1")
    images = load_idx(args.images).data
    labels = load_idx(args.labels).data
    if images.ndim != 3:
        raise DataFormatError(f"expected a rank-3 image tensor, got rank {images.ndim}")
    if labels.ndim != 1:
        raise DataFormatError(f"expected a rank-1 label tensor, got rank {labels.ndim}")
    try:
        digits = None if args.digits is None else DigitFilter([int(d) for d in args.digits.split(",")])
        task, counts = estimate_moments(
            images,
            labels,
            digit_filter=digits,
            encoding=args.encoding,
            bias=args.bias,
            balanced=not args.no_balanced,
            limit=args.limit,
            out_size=args.grid,
        )
    except ValueError as err:  # a digit list the filter or the encoding refuses
        raise ConfigError(f"invalid moments arguments: {err}") from err
    write_moments_json(task, args.out, extras={"counts": {str(k): v for k, v in counts.items()}})
    total = sum(counts.values())
    print(f"{total} samples over {len(counts)} classes -> {task.input_dim}x{task.output_dim} moments")
    print(f"trace sigma_y = {_fmt17(float(task.sigma_y.trace()))}")
    print(f"wrote {args.out}")
    return 0


def _cmd_plot(args):
    from .reporting import ChartSpec, plot

    series = []
    for item in args.series:
        parts = item.split(":")
        if len(parts) != 4:
            raise ConfigError(f"--series expects LABEL:CSV:XCOL:YCOL, got '{item}'")
        series.append(tuple(parts))
    spec = ChartSpec(
        series=series,
        x_label=args.x_label,
        y_label=args.y_label,
        log_x=args.log_x,
        log_y=args.log_y,
        title=args.title,
        out_path=args.out,
    )
    plot(spec)
    print(f"wrote {args.out}")
    return 0


def _cmd_presets(args):
    from .configio import serialize_config
    from .experiments import SCENARIOS, preset

    if args.action == "list":
        for name in SCENARIOS:
            print(name)
        return 0
    if not args.name:
        raise ConfigError("presets show needs --name")
    print(serialize_config(preset(args.name)), end="")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "grad-check": _cmd_grad_check,
    "moments": _cmd_moments,
    "plot": _cmd_plot,
    "presets": _cmd_presets,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except LearningControlError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
