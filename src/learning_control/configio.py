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

Sections are [scenario], [dynamics], [value], [optimizer], [output]; the keys
of the last four are the KEYS table, and [scenario] takes name, seed, run_name
and that scenario's parameters (typed by their registered defaults; lists are
comma-separated and lists of lists use semicolons between groups).  Every key
is typed by override_value, as -p types it.  Errors carry the file path and
line number.  serialize_config is the exact inverse: parse(serialize(cfg))
reproduces cfg, with floats printed at 17 significant digits.

Hand-rolled instead of configparser because the error contract here wants
line numbers on unknown keys and the writer wants stable float formatting;
neither is available there without more glue than this file.
"""

from contextlib import contextmanager
from functools import reduce

from .errors import ConfigError
from .experiments import SCENARIOS, RunConfig, preset, set_fields

_SECTIONS = ("scenario", "dynamics", "value", "optimizer", "output")

# The only list of [dynamics], [value], [optimizer] and [output] keys, in file
# order: (section, key, type, RunConfig path).  The parser, the writer, -p and
# result.json all read it.  DynamicsSpec.init_seed has no key: [scenario] seed
# sets it.
KEYS = (
    ("dynamics", "kind", str, "dynamics.kind"),
    ("dynamics", "input_dim", int, "dynamics.input_dim"),
    ("dynamics", "output_dim", int, "dynamics.output_dim"),
    ("dynamics", "hidden_dim", int, "dynamics.hidden_dim"),
    ("dynamics", "tau_w", float, "dynamics.tau_w"),
    ("dynamics", "dt", float, "dynamics.dt"),
    ("dynamics", "n_steps", int, "dynamics.n_steps"),
    ("dynamics", "reg_lambda", float, "dynamics.reg_lambda"),
    ("dynamics", "init_std", float, "dynamics.init_std"),
    ("dynamics", "init_mean", float, "dynamics.init_mean"),
    ("dynamics", "nonlinearity", str, "dynamics.nonlinearity"),
    ("value", "gamma", float, "value.gamma"),
    ("value", "eta", float, "value.eta"),
    ("value", "mode", str, "value.mode"),
    ("value", "cost_kind", str, "value.cost.kind"),
    ("value", "beta", float, "value.cost.beta"),
    ("value", "anchor", float, "value.cost.anchor"),
    ("value", "target_norm", float, "value.cost.target_norm"),
    ("optimizer", "alpha_g", float, "optimizer.alpha_g"),
    ("optimizer", "iters", int, "optimizer.iters"),
    ("optimizer", "update_rule", str, "optimizer.update_rule"),
    ("optimizer", "max_halvings", int, "optimizer.max_halvings"),
    ("output", "out_dir", str, "out_dir"),
    ("output", "force", bool, "force"),
)

_SCENARIO_FIXED = {"seed": int, "run_name": str}

# {section.key: (path, type)}; -p also takes a key by its path (value.cost.beta, force), seed and run_name
_BY_KEY = {f"{section}.{key}": (path, typ) for section, key, typ, path in KEYS}
_BY_NAME = {
    **_BY_KEY,
    **{path: (path, typ) for _, _, typ, path in KEYS},
    **{key: (key, typ) for key, typ in _SCENARIO_FIXED.items()},
}


def config_value(cfg, path):
    """The value at a dotted RunConfig path, e.g. config_value(cfg, "value.cost.beta")."""
    return reduce(getattr, path.split("."), cfg)


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True), **dict.fromkeys(("false", "no", "0", "off"), False)}


def _parse_scalar(raw, typ, where):
    raw = raw.strip()
    try:
        return _BOOLS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        expected = "a boolean" if typ is bool else typ.__name__
        raise ConfigError(f"expected {expected} for {where}, got '{raw}'") from None


def override_value(cfg, name, raw):
    """(RunConfig path, value) of a -p NAME=VALUE override of `cfg`, typed as a config file types that key.

    NAME is a key of KEYS (as section.key or by its path), seed, run_name or
    a scenario parameter, typed after its value in cfg.params.  A bad value
    or any other dotted or RunConfig-field name is a ConfigError; any other
    bare name keeps its text, for the config's params check to reject.
    """
    if name in _BY_NAME:
        path, typ = _BY_NAME[name]
        return path, _parse_scalar(raw, typ, name)
    if name in cfg.params:
        return name, _parse_param(raw, cfg.params[name], name)
    if "." in name or name in RunConfig.__dataclass_fields__:
        raise ConfigError(
            f"unknown name '{name}': -p takes a config key as section.key, seed, run_name "
            f"or a parameter of scenario '{cfg.scenario}'"
        )
    return name, raw


def _parse_param(raw, default, where):
    """Type a scenario parameter after its registered default value."""
    if not isinstance(default, tuple):
        return _parse_scalar(raw, type(default), where)
    if default and isinstance(default[0], tuple):
        groups = [g for g in (part.strip() for part in raw.split(";")) if g]
        return tuple(tuple(_parse_scalar(v, float, where) for v in g.split(",")) for g in groups)
    return tuple(_parse_scalar(v, float, where) for v in raw.split(","))


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
    changes = {}
    for section in _SECTIONS:
        for key, (raw, lineno) in sections.get(section, {}).items():
            name = key if section == "scenario" else f"{section}.{key}"
            if name == "name":
                continue
            with _at(path, lineno):
                if section != "scenario" and name not in _BY_KEY:
                    raise ConfigError(f"unknown key '{key}' in [{section}]")
                if section == "scenario" and key not in (*_SCENARIO_FIXED, *base.params):
                    raise ConfigError(f"unknown key '{key}' for scenario '{scenario}'")
                field, value = override_value(base, name, raw)
                changes[field] = value
    try:
        return set_fields(base, changes)
    except ConfigError as err:
        raise ConfigError(str(err), path=path) from err


@contextmanager
def _at(path, line):
    """Re-raise a ConfigError with the file path and line it came from."""
    try:
        yield
    except ConfigError as err:
        raise ConfigError(str(err), path=path, line=line) from None


def parse_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
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
    """Config text that parses back to an equal RunConfig; an unset out_dir is left out."""
    lines = ["[scenario]", f"name = {cfg.scenario}", f"seed = {cfg.seed}", f"run_name = {cfg.run_name}"]
    lines += [f"{key} = {_fmt_value(cfg.params[key])}" for key in sorted(cfg.params)]
    section = "scenario"
    for name, key, _, path in KEYS:
        if name != section:
            lines += ["", f"[{name}]"]
            section = name
        val = config_value(cfg, path)
        if val is not None:
            lines.append(f"{key} = {_fmt_value(val)}")
    return "\n".join(lines) + "\n"
