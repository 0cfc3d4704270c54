"""Run-config text format: a minimal sectioned key-value grammar.

    # full-line comments (starting with # or ;) and blank lines are ignored
    [scenario]
    name = task_switch
    seed = 3
    switch_period = 500
    task_a = 3, 1, 1, 1, 0.8

    [dynamics]
    kind = gain_mod
    ...

Sections are [scenario], [dynamics], [value], [optimizer], [output]; keys are
fixed per section except inside [scenario], which also accepts that scenario's
parameters (typed by their registered defaults; lists are comma-separated and
lists of lists use semicolons between groups).  Errors carry the file path and
line number.  serialize_config is the exact inverse: parse(serialize(cfg))
reproduces cfg, with floats printed at 17 significant digits.

Hand-rolled instead of configparser because the error contract here wants
line numbers on unknown keys and the writer wants stable float formatting;
neither is available there without more glue than this file.
"""

from dataclasses import fields as dataclass_fields

from .dynamics import DynamicsSpec
from .errors import ConfigError
from .experiments import SCENARIOS, RunConfig, preset
from .optimizer import OptimizerSpec
from .value import CostSpec, ValueSpec

_SECTIONS = ("scenario", "dynamics", "value", "optimizer", "output")

_DYNAMICS_KEYS = {
    "kind": str,
    "input_dim": int,
    "output_dim": int,
    "hidden_dim": int,
    "tau_w": float,
    "dt": float,
    "n_steps": int,
    "reg_lambda": float,
    "init_std": float,
    "init_mean": float,
    "nonlinearity": str,
}

_VALUE_KEYS = {
    "gamma": float,
    "eta": float,
    "mode": str,
    "cost_kind": str,
    "beta": float,
    "anchor": float,
    "target_norm": float,
}

_OPTIMIZER_KEYS = {
    "alpha_g": float,
    "iters": int,
    "update_rule": str,
    "backtracking": bool,
    "max_halvings": int,
    "beta1": float,
    "beta2": float,
    "eps": float,
}

_OUTPUT_KEYS = {"out_dir": str, "force": bool}

_SCENARIO_FIXED = {"name": str, "seed": int, "run_name": str}


def _override_keys():
    """{-p name: (RunConfig path, type)} of every [dynamics], [value], [optimizer] and [output] key.

    A key goes by its section.key name and by its dotted RunConfig path:
    value.beta is value.cost.beta, output.force is force.
    """
    keys = {}
    for section, table in (("dynamics", _DYNAMICS_KEYS), ("optimizer", _OPTIMIZER_KEYS)):
        keys.update({f"{section}.{k}": (f"{section}.{k}", t) for k, t in table.items()})
    for k, t in _VALUE_KEYS.items():
        path = f"value.{k}" if k in ("gamma", "eta", "mode") else "value.cost." + k.removeprefix("cost_")
        keys[f"value.{k}"] = keys[path] = (path, t)
    for k, t in _OUTPUT_KEYS.items():
        keys[f"output.{k}"] = keys[k] = (k, t)
    return keys


_OVERRIDE_KEYS = _override_keys()


def _parse_bool(raw, where):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean for {where}, got '{raw}'")


def _parse_scalar(raw, typ, where):
    raw = raw.strip()
    try:
        if typ is bool:
            return _parse_bool(raw, where)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"expected {typ.__name__} for {where}, got '{raw}'") from None
    return raw


def override_value(cfg, name, raw):
    """(RunConfig path, value) of a -p NAME=VALUE override of `cfg`, typed as a config file types that key.

    A [dynamics], [value], [optimizer] or [output] key goes by its key table,
    seed and run_name as under [scenario], and a scenario parameter after its
    value in cfg.params, so a bad value is a ConfigError.  Any other name
    keeps its text, for override_param to reject.
    """
    if name in _OVERRIDE_KEYS:
        path, typ = _OVERRIDE_KEYS[name]
        return path, _parse_scalar(raw, typ, name)
    if name in _SCENARIO_FIXED:
        return name, _parse_scalar(raw, _SCENARIO_FIXED[name], name)
    if name in cfg.params:
        return name, _parse_param(raw, cfg.params[name], name)
    return name, raw


def _parse_param(raw, default, where):
    """Type a scenario parameter after its registered default value."""
    if isinstance(default, bool):
        return _parse_bool(raw, where)
    if isinstance(default, int):
        return _parse_scalar(raw, int, where)
    if isinstance(default, float):
        return _parse_scalar(raw, float, where)
    if isinstance(default, tuple):
        if default and isinstance(default[0], tuple):
            groups = [g for g in (part.strip() for part in raw.split(";")) if g]
            return tuple(tuple(_parse_scalar(v, float, where) for v in g.split(",")) for g in groups)
        return tuple(_parse_scalar(v, float, where) for v in raw.split(","))
    return raw.strip()


def parse_config(text, path="<config>"):
    """Parse config text into a RunConfig; errors point at path:line."""
    sections = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", path=path, line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", path=path, line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got '{line}'", path=path, line=lineno)
        if current is None:
            raise ConfigError("key appears before any [section] header", path=path, line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}]", path=path, line=lineno)
        sections[current][key] = (raw.strip(), lineno)

    if "scenario" not in sections or "name" not in sections["scenario"]:
        raise ConfigError("missing [scenario] section with a 'name' key", path=path)
    scen_raw = sections["scenario"]
    scenario = scen_raw["name"][0]
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario '{scenario}'", path=path, line=scen_raw["name"][1]
        )

    base = preset(scenario)
    seed = 0
    run_name = scenario
    params = {}
    for key, (raw, lineno) in scen_raw.items():
        if key == "name":
            continue
        if key in _SCENARIO_FIXED:
            try:
                val = _parse_scalar(raw, _SCENARIO_FIXED[key], key)
            except ConfigError as err:
                raise ConfigError(err.args[0], path=path, line=lineno) from None
            if key == "seed":
                seed = val
            else:
                run_name = val
        elif key in base.params:
            try:
                params[key] = _parse_param(raw, base.params[key], key)
            except ConfigError as err:
                raise ConfigError(err.args[0], path=path, line=lineno) from None
        else:
            raise ConfigError(
                f"unknown key '{key}' for scenario '{scenario}'", path=path, line=lineno
            )

    def build_section(name, keyspec):
        out = {}
        for key, (raw, lineno) in sections.get(name, {}).items():
            if key not in keyspec:
                raise ConfigError(f"unknown key '{key}' in [{name}]", path=path, line=lineno)
            try:
                out[key] = _parse_scalar(raw, keyspec[key], key)
            except ConfigError as err:
                raise ConfigError(err.args[0], path=path, line=lineno) from None
        return out

    dyn_kw = build_section("dynamics", _DYNAMICS_KEYS)
    val_kw = build_section("value", _VALUE_KEYS)
    opt_kw = build_section("optimizer", _OPTIMIZER_KEYS)
    out_kw = build_section("output", _OUTPUT_KEYS)

    try:
        dynamics = DynamicsSpec(**{**_spec_dict(base.dynamics, _DYNAMICS_KEYS), **dyn_kw})
        cost = CostSpec(
            kind=val_kw.pop("cost_kind", base.value.cost.kind),
            beta=val_kw.pop("beta", base.value.cost.beta),
            anchor=val_kw.pop("anchor", base.value.cost.anchor),
            target_norm=val_kw.pop("target_norm", base.value.cost.target_norm),
        )
        value = ValueSpec(**{**{"gamma": base.value.gamma, "eta": base.value.eta, "mode": base.value.mode}, **val_kw, "cost": cost})
        optimizer = OptimizerSpec(**{**_spec_dict(base.optimizer, _OPTIMIZER_KEYS), **opt_kw})
        return RunConfig(
            scenario=scenario,
            dynamics=dynamics,
            value=value,
            optimizer=optimizer,
            seed=seed,
            params=params,
            out_dir=out_kw.get("out_dir"),
            run_name=run_name,
            force=out_kw.get("force", False),
        )
    except (ValueError, ConfigError) as err:
        raise ConfigError(f"invalid configuration: {err}", path=path) from err


def _spec_dict(spec, keyspec):
    known = {f.name for f in dataclass_fields(type(spec))}
    return {k: getattr(spec, k) for k in keyspec if k in known}


def parse_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}", path=str(path)) from None
    return parse_config(text, path=str(path))


def _fmt_value(val):
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, float):
        return format(val, ".17g")
    if isinstance(val, int):
        return str(val)
    if isinstance(val, tuple):
        if val and isinstance(val[0], tuple):
            return "; ".join(", ".join(format(float(x), ".17g") for x in g) for g in val)
        return ", ".join(format(float(x), ".17g") for x in val)
    return str(val)


def serialize_config(cfg):
    """Config text that parses back to an equal RunConfig."""
    lines = ["[scenario]", f"name = {cfg.scenario}", f"seed = {cfg.seed}", f"run_name = {cfg.run_name}"]
    for key in sorted(cfg.params):
        lines.append(f"{key} = {_fmt_value(cfg.params[key])}")
    lines.append("")

    lines.append("[dynamics]")
    for key in _DYNAMICS_KEYS:
        lines.append(f"{key} = {_fmt_value(getattr(cfg.dynamics, key))}")
    lines.append("")

    lines.append("[value]")
    v = cfg.value
    for key, val in (
        ("gamma", v.gamma),
        ("eta", v.eta),
        ("mode", v.mode),
        ("cost_kind", v.cost.kind),
        ("beta", v.cost.beta),
        ("anchor", v.cost.anchor),
        ("target_norm", v.cost.target_norm),
    ):
        lines.append(f"{key} = {_fmt_value(val)}")
    lines.append("")

    lines.append("[optimizer]")
    for key in _OPTIMIZER_KEYS:
        lines.append(f"{key} = {_fmt_value(getattr(cfg.optimizer, key))}")
    lines.append("")

    lines.append("[output]")
    if cfg.out_dir is not None:
        lines.append(f"out_dir = {cfg.out_dir}")
    lines.append(f"force = {_fmt_value(cfg.force)}")
    lines.append("")
    return "\n".join(lines)
