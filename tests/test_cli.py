"""Command-line surface: argument handling, exit codes, printed output.

Commands run in-process through main(argv) so capsys can watch both streams;
one smoke test goes through a real subprocess to prove the module entry
point wires up.
"""

import gzip
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import learning_control
from learning_control import experiments
from learning_control.cli import _build_parser, _load_config, main
from learning_control.configio import KEYS, config_value, parse_config, parse_config_file, serialize_config
from learning_control.dynamics import KINDS
from learning_control.errors import LearningControlError
from learning_control.experiments import SCENARIOS, preset
from learning_control.idx import IdxTensor, read_moments_json, serialize_idx


class TestConfigLoading:
    def test_flags_land_on_the_config(self):
        args = _build_parser().parse_args(
            ["run", "--preset", "single_neuron_effort", "--seed", "5",
             "--run-name", "rn", "--force"]
        )
        cfg = _load_config(args)
        assert cfg.seed == 5
        assert cfg.run_name == "rn"
        assert cfg.force is True

    def test_needing_exactly_one_source(self, capsys):
        assert main(["run"]) == 2
        assert "exactly one of --preset or --config" in capsys.readouterr().err

    def test_preset_and_config_together_also_fail(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("[scenario]\nname = single_neuron_effort\n")
        assert main(["run", "--preset", "single_neuron_effort", "--config", str(p)]) == 2

    def test_malformed_param_override(self, capsys):
        code = main(["run", "--preset", "single_neuron_effort", "-p", "value.gamma"])
        assert code == 2
        assert "NAME=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("optimizer.iters=-1", "iters must be nonnegative"),
            ("dynamics.dt=-1", "dt and tau_w must be positive"),
        ],
    )
    def test_a_value_the_spec_rejects_is_a_config_error(self, override, message, capsys):
        code = main(["run", "--preset", "single_neuron_effort", "-p", override])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: invalid configuration: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("optimizer.iters=abc", "expected int for optimizer.iters, got 'abc'"),
            ("optimizer.max_halvings=abc", "expected int for optimizer.max_halvings, got 'abc'"),
            ("optimizer.alpha_g=abc", "expected float for optimizer.alpha_g, got 'abc'"),
            ("force=maybe", "expected a boolean for force, got 'maybe'"),
            ("dynamics.n_steps=abc", "expected int for dynamics.n_steps, got 'abc'"),
            ("dynamics.n_steps=3e3", "expected int for dynamics.n_steps, got '3e3'"),
            ("value.gamma=abc", "expected float for value.gamma, got 'abc'"),
            ("value.cost.beta=", "expected float for value.cost.beta, got ''"),
            ("output.force=2", "expected a boolean for output.force, got '2'"),
        ],
    )
    def test_a_spec_field_is_typed_as_a_config_file_types_it(self, override, message, capsys):
        code = main(["run", "--preset", "single_neuron_effort", "-p", override])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override, section, key, value",
        [
            ("output.force=no", "output", "force", False),
            ("force=on", "output", "force", True),
            ("dynamics.n_steps=300", "dynamics", "n_steps", 300),
            ("dynamics.tau_w=2", "dynamics", "tau_w", 2.0),
            ("value.gamma=1", "value", "gamma", 1.0),
            ("value.cost.beta=0.5", "value", "beta", 0.5),
            ("value.beta=0.5", "value", "beta", 0.5),
            ("value.cost_kind=exp_frobenius", "value", "cost_kind", "exp_frobenius"),  # reads beta alone
            ("output.force=yes", "output", "force", True),
            ("output.out_dir=somewhere", "output", "out_dir", "somewhere"),
        ],
    )
    def test_an_override_equals_the_same_key_in_a_config_file(self, override, section, key, value, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = single_neuron_effort\n[{section}]\n{key} = {override.split('=')[1]}\n")
        args = _build_parser().parse_args(["run", "--preset", "single_neuron_effort", "-p", override])
        got = _load_config(args)
        assert got == parse_config_file(str(cfg_file))
        owner = {"output": got, "dynamics": got.dynamics, "optimizer": got.optimizer,
                 "value": got.value.cost if key in ("beta", "cost_kind") else got.value}[section]
        field = getattr(owner, key.removeprefix("cost_"))
        assert field == value and type(field) is type(value)

    @pytest.mark.parametrize("section, key, typ, path", KEYS, ids=[f"{section}.{key}" for section, key, _, _ in KEYS])
    def test_every_key_overrides_as_a_config_file_sets_it(self, section, key, typ, path, tmp_path):
        """Each KEYS row, the preset's own value written as text (an unset out_dir as a name), both ways."""
        val = config_value(preset("single_neuron_effort"), path)
        if typ is bool:
            raw, val = "yes", True
        elif val is None:
            raw, val = "somewhere", "somewhere"
        else:
            raw = format(val, ".17g") if typ is float else str(val)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = single_neuron_effort\n[{section}]\n{key} = {raw}\n")
        got = _load_config(_build_parser().parse_args(["run", "--preset", "single_neuron_effort", "-p",
                                                       f"{section}.{key}={raw}"]))
        assert got == parse_config_file(str(cfg_file))
        assert config_value(got, path) == val and type(config_value(got, path)) is typ

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("single_neuron_effort", "max_halvings", "-1", "max_halvings must be nonnegative"),
            ("single_neuron_effort", "alpha_g", "0", "alpha_g must be positive"),
        ],
    )
    def test_an_optimizer_field_out_of_range_is_a_config_error(self, name, key, value, message, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\n[optimizer]\n{key} = {value}\n")
        for argv in (["run", "--preset", name, "-p", f"optimizer.{key}={value}"], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: {message}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("backtracking", "no"), ("beta1", "0.5"), ("beta2", "0.9"), ("eps", "1e-6")])
    def test_a_removed_optimizer_knob_is_an_unknown_name(self, key, value, tmp_path, capsys):
        """The ascent always backtracks and Adam's constants are fixed: no key may claim otherwise."""
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = task_engagement\n[optimizer]\n{key} = {value}\n")
        assert main(["run", "--preset", "task_engagement", "-p", f"optimizer.{key}={value}"]) == 2
        assert f"error: unknown name 'optimizer.{key}'" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert f"c.cfg:4: unknown key '{key}' in [optimizer]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, overrides, field",
        [
            ("single_neuron_effort", ["value.mode=per_step_sum"], "gamma"),
            ("maml_multistep", ["value.gamma=0.5"], "gamma"),
            ("maml_multistep", ["value.eta=2"], "eta"),
            ("maml_multistep", ["value.cost_kind=quadratic"], "cost.kind"),
            ("single_neuron_effort", ["value.gamma=1", "value.mode=per_step_sum"], "cost.kind"),
        ],
    )
    def test_a_field_the_per_step_sum_ignores_is_a_config_error(self, name, overrides, field, tmp_path, capsys):
        lines = [f"{path.split('.')[1]} = {raw}" for path, raw in (o.split("=") for o in overrides)]
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\n[value]\n" + "\n".join(lines) + "\n")
        flags = [a for o in overrides for a in ("-p", o)]
        for argv in (["run", "--preset", name, *flags], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: mode per_step_sum ignores {field}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["value.anchor=7"], "cost kind quadratic ignores anchor: set it to 1.0, not 7.0"),
            (["value.target_norm=9"], "cost kind quadratic ignores target_norm: set it to 0.0, not 9.0"),
            (["value.cost_kind=none"], "cost kind none ignores beta: set it to 0.0, not 0.3"),
        ],
    )
    def test_a_field_the_cost_kind_ignores_is_a_config_error(self, overrides, message, tmp_path, capsys):
        lines = [f"{path.split('.')[1]} = {raw}" for path, raw in (o.split("=") for o in overrides)]
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("[scenario]\nname = single_neuron_effort\n[value]\n" + "\n".join(lines) + "\n")
        flags = [a for o in overrides for a in ("-p", o)]
        for argv in (["run", "--preset", "single_neuron_effort", *flags], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: {message}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, overrides, message",
        [
            ("task_switch", ["dynamics.nonlinearity=identity"],
             "dynamics kind gain_mod ignores nonlinearity: set it to 'tanh', not 'identity'"),
            ("maml_multistep", ["value.mode=discounted_integral", "value.gamma=0.9", "value.cost_kind=quadratic",
                                "value.beta=5"],
             "the init_weights control pays no cost: set cost_kind to 'none', not 'quadratic'"),
        ],
    )
    def test_a_key_the_run_would_ignore_is_a_config_error(self, name, overrides, message, tmp_path, capsys):
        sections = {}
        for o in overrides:
            path, raw = o.split("=")
            section, key = path.split(".")
            sections.setdefault(section, []).append(f"{key} = {raw}")
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\n"
                            + "".join(f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items()))
        flags = [a for o in overrides for a in ("-p", o)]
        for argv in (["run", "--preset", name, *flags], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: {message}" in err
            assert "Traceback" not in err

    def test_no_cost_runs_once_beta_is_back_at_its_default(self, capsys):
        argv = ["run", "--preset", "single_neuron_effort", "-p", "optimizer.iters=0",
                "-p", "value.cost_kind=none", "-p", "value.beta=0"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"{'V_baseline':<28}{-6.8407265144642615:.17g}"

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("maml_multistep", ["value.gamma=0.9", "value.mode=discounted_integral"]),
            ("single_neuron_effort", ["dynamics.kind=lr_mod", "dynamics.hidden_dim=3"]),
        ],
    )
    def test_overrides_are_set_together_in_either_order(self, name, overrides, capsys):
        """Fields checked against each other do not depend on the order of their -p flags."""
        runs = []
        for order in (overrides, overrides[::-1]):
            argv = ["run", "--preset", name, "-p", "optimizer.iters=0"] + [a for o in order for a in ("-p", o)]
            assert main(argv) == 0, capsys.readouterr().err
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "name, param, message",
        [
            ("single_neuron_effort", "segment=-1", "segment must be positive"),
            ("single_neuron_effort", "segment=0", "segment must be positive"),
            ("task_switch", "switch_period=0", "switch_period must be positive, got 0"),
            ("task_switch", "task_a=1,2", "a correlated-Gaussian task takes 5 numbers"),
            ("task_switch", "task_a=1,2,3,4,5,6", "a correlated-Gaussian task takes 5 numbers"),
            ("effort_allocation", "task_hard=1", "a correlated-Gaussian task takes 5 numbers"),
            ("nonlinear_approx", "task=1,2", "a correlated-Gaussian task takes 5 numbers"),
            ("task_engagement", "tasks=1,2;3,4", "a correlated-Gaussian task takes 5 numbers"),
            ("category_engagement", "class_means=1,2,3;4,5,6", "dynamics dims 2x3 do not fit task 'class_mixture'"),
            ("maml_multistep", "steps_ahead=-2", "steps_ahead must be nonnegative"),
            # read only by the summaries, after the optimization, yet checked before it
            ("maml_multistep", "eval_steps=-1", "eval_steps must be positive"),
            ("maml_multistep", "eval_steps=0", "eval_steps must be positive"),
            ("sgd_validation", "stride=0", "stride must be positive"),
            ("sgd_validation", "stride=-3", "stride must be positive"),
            ("sgd_validation", "n_seeds=-1", "n_seeds must be nonnegative"),
            ("sgd_validation", "batch_size=0", "batch_size must be positive"),
            ("nonlinear_approx", "batch_size=0", "batch_size must be positive"),
            ("class_proportion", "batch_size=0", "batch_size must be positive"),
            ("class_proportion", "batch_size=-4", "batch_size must be positive"),
        ],
    )
    def test_a_scenario_parameter_out_of_range_is_a_config_error(self, name, param, message, tmp_path, capsys):
        key, value = param.split("=")
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\n{key} = {value}\n")
        for argv in (["run", "--preset", name, "-p", param], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"invalid configuration: {message}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, param, key",
        [
            ("task_switch", "task_a=1,2", "task_a"),
            ("task_switch", "task_b=1,2,3,4,5,6", "task_b"),
            ("effort_allocation", "task_easy=1,2", "task_easy"),
            ("effort_allocation", "task_hard=1", "task_hard"),
            ("nonlinear_approx", "task=1,2", "task"),
            ("task_engagement", "tasks=1,2;3,4,5,6,7", "tasks[0]"),
            ("task_engagement", "tasks=1,2,3,4,0.5;3,4", "tasks[1]"),
        ],
    )
    def test_a_correlated_gaussian_task_of_the_wrong_length_is_named(self, name, param, key, capsys):
        assert main(["run", "--preset", name, "-p", param]) == 2
        err = capsys.readouterr().err
        assert "a correlated-Gaussian task takes 5 numbers" in err
        assert err.rstrip().endswith(f" for {key}")

    @pytest.mark.parametrize("section, key", [(section, key) for section, key, typ, _ in KEYS if typ is float])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_a_non_finite_float_key_is_a_config_error(self, section, key, raw, capsys):
        """Every float key of the KEYS table, one added later included, refuses nan and +-inf by name."""
        argv = ["run", "--preset", "single_neuron_effort", "-p", f"{section}.{key}={raw}", "-p", "optimizer.iters=0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {key} must be finite, got {raw}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("single_neuron_effort", "mu=nan"),
            ("single_neuron_effort", "sigma=inf"),
            ("category_engagement", "class_sigma=nan"),
            ("task_switch", "task_a=1,1,1,nan,0.8"),
        ],
    )
    def test_a_non_finite_scenario_parameter_is_a_config_error(self, name, param, capsys):
        assert main(["run", "--preset", name, "-p", param, "-p", "optimizer.iters=0"]) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {param.split('=')[0]} must be finite, got " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, param, message",
        [
            ("maml_multistep", "tasks=2,0.8,1; 1,1", "tasks must be one or more (mu, sigma) pairs"),
            ("maml_multistep", "tasks=2; 1,1", "tasks must be one or more (mu, sigma) pairs"),
            ("maml_multistep", "tasks=", "tasks must be one or more (mu, sigma) pairs, got ()"),
            ("category_engagement", "class_means=3,0; 1; 2,2", "class_means must be one or more means of one length"),
            ("single_neuron_effort", "mu=nan", "mu must be finite, got nan"),
        ],
    )
    def test_a_malformed_scenario_parameter_is_refused_by_name(self, name, param, message, capsys):
        assert main(["run", "--preset", name, "-p", param, "-p", "optimizer.iters=0"]) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["effort_allocation", "sgd_validation", "maml_multistep"])
    def test_a_negative_seed_is_a_config_error(self, name, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\nseed = -1\n")
        for argv in (["--preset", name, "--seed", "-1"], ["--preset", name, "-p", "seed=-1"],
                     ["--config", str(cfg_file)]):
            assert main(["run", *argv, "-p", "optimizer.iters=0"]) == 2
            err = capsys.readouterr().err
            assert "seed must be nonnegative, got -1" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, param, want",
        [
            ("single_neuron_effort", "segment=20", 20),
            ("single_neuron_effort", "g_hi=1", 1.0),
            ("task_switch", "task_a=1,2,3,4,0.5", (1.0, 2.0, 3.0, 4.0, 0.5)),
            ("task_engagement", "tasks=1,1,1,1,0.5;2,2,2,2,0.6", ((1.0, 1.0, 1.0, 1.0, 0.5), (2.0, 2.0, 2.0, 2.0, 0.6))),
        ],
    )
    def test_a_scenario_parameter_is_typed_as_a_config_file_types_it(self, name, param, want, tmp_path):
        key, value = param.split("=")
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = {name}\n{key} = {value}\n")
        got = _load_config(_build_parser().parse_args(["run", "--preset", name, "-p", param]))
        assert got == parse_config_file(str(cfg_file))
        assert got.params[key] == want and repr(got.params[key]) == repr(want)

    @pytest.mark.parametrize(
        "param, message",
        [
            ("segment=2.5", "expected int for segment, got '2.5'"),
            ("g_hi=true", "expected float for g_hi, got 'true'"),
        ],
    )
    def test_a_scenario_parameter_of_the_wrong_type_is_a_config_error(self, param, message, tmp_path, capsys):
        key, value = param.split("=")
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[scenario]\nname = single_neuron_effort\n{key} = {value}\n")
        for argv in (["run", "--preset", "single_neuron_effort", "-p", param], ["run", "--config", str(cfg_file)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err
            assert "Traceback" not in err

    def test_an_unknown_name_is_a_config_error(self, capsys):
        assert main(["run", "--preset", "single_neuron_effort", "-p", "bogus=1"]) == 2
        assert "error: scenario 'single_neuron_effort' does not take parameter(s) ['bogus']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, override",
        [
            ("single_neuron_effort", "dynamics.init_seed=abc"),
            ("maml_multistep", "dynamics.init_seed=3"),
            ("single_neuron_effort", "scenario=sgd_validation"),
            ("single_neuron_effort", "dynamics=3"),
            ("single_neuron_effort", "value.cost=abc"),
            ("single_neuron_effort", "optimizer=1"),
            ("single_neuron_effort", "params.sigma=2"),
            ("single_neuron_effort", "value.wibble=1"),
        ],
    )
    def test_a_name_no_config_file_takes_is_a_config_error(self, name, override, capsys):
        """-p takes a config key (section.key or its path), seed, run_name or a scenario parameter."""
        assert main(["run", "--preset", name, "-p", override]) == 2
        captured = capsys.readouterr()
        assert f"error: unknown name '{override.split('=')[0]}'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("override, field, value", [("seed=3", "seed", 3), ("run_name=r", "run_name", "r"),
                                                        ("force=on", "force", True)])
    def test_seed_run_name_and_key_paths_are_names(self, override, field, value):
        got = _load_config(_build_parser().parse_args(["run", "--preset", "single_neuron_effort", "-p", override]))
        assert getattr(got, field) == value

    def test_unknown_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


SMALL = ["-p", "dynamics.n_steps=120", "-p", "optimizer.iters=2"]


class TestRunCommand:
    def test_prints_the_summary_table_and_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--preset", "single_neuron_effort", *SMALL,
                     "--out-dir", str(tmp_path), "--run-name", "r1"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == f"{'scenario':<28}single_neuron_effort"
        assert any(l.startswith(f"{'V_baseline':<28}") for l in lines)
        assert lines[-1] == f"{'outputs':<28}{tmp_path / 'r1'}"
        assert (tmp_path / "r1" / "result.json").exists()

    def test_existing_outputs_need_force(self, tmp_path, capsys):
        argv = ["run", "--preset", "single_neuron_effort", *SMALL,
                "--out-dir", str(tmp_path), "--run-name", "r1"]
        assert main(argv) == 0
        assert main(argv) == 4
        assert "--force" in capsys.readouterr().err
        assert main(argv + ["--force"]) == 0

    def test_accepts_a_config_file(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(
            "[scenario]\nname = single_neuron_effort\n"
            "[dynamics]\nn_steps = 120\n[optimizer]\niters = 2\n"
        )
        assert main(["run", "--config", str(p)]) == 0
        assert "V_control" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["single_neuron", "nonlinear_taylor"])
    def test_a_task_set_runs_with_a_kind_outside_the_pair_kernel(self, kind, capsys):
        assert main(["run", "--preset", "maml_multistep", "-p", f"dynamics.kind={kind}"]) == 0
        assert "eval_cumulative_loss" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/no/such/file.cfg"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_divergence_maps_to_exit_3(self, capsys):
        code = main(["run", "--preset", "sgd_validation", "-p", "dynamics.dt=5.0"])
        assert code == 3
        assert "exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["effort_allocation", "single_neuron_effort"])
    def test_a_value_past_the_float_range_at_the_start_maps_to_exit_3(self, name, capsys):
        # numpy warns of the overflow on the way; the run ends on one error line
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--preset", name, "-p", "value.eta=1e308", "-p", "optimizer.iters=1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "not finite" in err

    def test_an_int_past_the_float_range_is_a_config_error(self, capsys):
        code = main(["run", "--preset", "single_neuron_effort", "-p", f"dynamics.n_steps={10**400}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "n_steps must be a whole number within the float range" in err

    def test_a_negative_hidden_dim_is_a_config_error(self, tmp_path, capsys):
        code = main(["run", "--preset", "single_neuron_effort", "-p", "dynamics.hidden_dim=-1",
                     "-p", "optimizer.iters=1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "hidden_dim must be nonnegative, got -1" in err
        assert not any(tmp_path.iterdir())

    def test_overflowing_value_weights_end_before_any_sweep_warns(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--preset", "task_switch", "-p", "value.eta=1e308", "-p", "optimizer.iters=1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "not finite" in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("scenario", ["single_neuron_effort", "category_engagement"])
    def test_an_overflowing_cost_weight_ends_on_its_error_line_alone(self, scenario, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--preset", scenario, "-p", "value.cost.beta=1e308", "-p", "optimizer.iters=1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "gradient is not finite" in err
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_a_gradient_whose_squares_overflow_has_a_finite_norm(self, tmp_path, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--preset", "sgd_validation", "-p", "value.eta=1e308", "-p", "optimizer.iters=1",
                         "--out-dir", str(tmp_path), "--run-name", "r1"])
        assert code == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        rows = (tmp_path / "r1" / "trace.csv").read_text().splitlines()
        norms = [float(row.split(",")[2]) for row in rows[1:]]
        assert len(norms) == 2 and all(math.isfinite(x) and x > 1e154 for x in norms)

    def test_any_other_package_error_maps_to_exit_2(self, monkeypatch, capsys):
        def refuse(cfg):
            raise LearningControlError("cannot honor this")

        monkeypatch.setattr(experiments, "run", refuse)
        assert main(["run", "--preset", "single_neuron_effort"]) == 2
        assert capsys.readouterr().err == "error: cannot honor this\n"


# V_baseline of every preset x dynamics kind pair that runs, recorded before a
# kind that cannot read its scenario's control became a config error
RUNNABLE_PAIRS = {
    ("single_neuron_effort", "single_neuron"): -6.8407265144642615,
    ("effort_allocation", "two_layer_baseline"): -14.590266057998342,
    ("effort_allocation", "gain_mod"): -14.590266057998342,
    ("effort_allocation", "nonlinear_taylor"): -14.590266057998342,
    ("task_switch", "two_layer_baseline"): -13.877810453123201,
    ("task_switch", "gain_mod"): -13.877810453123201,
    ("task_switch", "nonlinear_taylor"): -13.877810453123203,
    ("task_engagement", "two_layer_baseline"): -27.834631587837993,
    ("task_engagement", "engagement"): -27.834631587837993,
    ("category_engagement", "two_layer_baseline"): -4.6652781695043366,
    ("category_engagement", "category_engagement"): -4.6652781695043366,
    ("class_proportion", "two_layer_baseline"): -4.6652781695043366,
    ("class_proportion", "category_engagement"): -4.6652781695043366,
    ("maml_multistep", "single_neuron"): -3.8621982977464273,
    ("maml_multistep", "two_layer_baseline"): -6.1709557848032341,
    ("maml_multistep", "gain_mod"): -6.1709557848032341,
    ("maml_multistep", "engagement"): -6.1709557848032341,
    ("maml_multistep", "category_engagement"): -6.1709557848032341,
    ("maml_multistep", "lr_mod"): -6.1709557848032341,
    ("maml_multistep", "nonlinear_taylor"): -6.1709557848032341,
    ("lr_bilevel", "two_layer_baseline"): -62.583135712179946,
    ("lr_bilevel", "lr_mod"): -62.583135712179946,
    ("nonlinear_approx", "two_layer_baseline"): -4.842476130725446,
    ("nonlinear_approx", "gain_mod"): -4.842476130725446,
    ("nonlinear_approx", "nonlinear_taylor"): -4.842476130725446,
    ("sgd_validation", "single_neuron"): -1.3343878120259314,
}


class TestScenarioKindPairs:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_a_pair_runs_or_is_a_config_error(self, scenario, kind, capsys):
        """Every dynamics kind on every preset, at zero iterations: a run, or exit 2 and no traceback."""
        code = main(["run", "--preset", scenario, "-p", f"dynamics.kind={kind}", "-p", "optimizer.iters=0"])
        out, err = capsys.readouterr()
        if (scenario, kind) in RUNNABLE_PAIRS:
            assert code == 0
            assert out.splitlines()[1] == f"{'V_baseline':<28}{RUNNABLE_PAIRS[scenario, kind]:.17g}"
        else:
            assert code == 2 and err.startswith("error: ")


class TestSweepCommand:
    def test_one_line_per_value(self, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL,
                     "--sweep-param", "value.gamma", "--values", "0.5,0.9",
                     "--parallel", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("value.gamma=0.5: V_baseline=")
        assert lines[1].startswith("value.gamma=0.9: ")


    @pytest.mark.parametrize("values", ["", "0.5,", "abc"])
    def test_a_value_of_the_wrong_type_is_a_config_error(self, values, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL,
                     "--sweep-param", "value.gamma", "--values", values, "--parallel", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: expected float for value.gamma" in captured.err
        assert captured.out == ""

    def test_a_scenario_parameter_of_the_wrong_type_is_a_config_error(self, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL,
                     "--sweep-param", "segment", "--values", "2,2.5", "--parallel", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: expected int for segment, got '2.5'" in captured.err
        assert captured.out == ""

    def test_a_name_no_config_file_takes_is_a_config_error(self, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL,
                     "--sweep-param", "dynamics.init_seed", "--values", "1,abc", "--parallel", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: unknown name 'dynamics.init_seed'" in captured.err
        assert captured.out == ""

    def test_a_repeated_value_is_a_config_error_before_any_run(self, tmp_path, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL, "--sweep-param", "value.gamma",
                     "--values", "0.9,0.90", "--parallel", "1", "--out-dir", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: value 0.9 of 'value.gamma' repeats" in captured.err
        assert captured.out == "" and os.listdir(tmp_path) == []

    def test_a_negative_worker_count_is_a_config_error(self, capsys):
        code = main(["sweep", "--preset", "single_neuron_effort", *SMALL,
                     "--sweep-param", "value.gamma", "--values", "0.5,0.9", "--parallel", "-1"])
        assert code == 2
        assert "error: parallelism must be nonnegative" in capsys.readouterr().err


class TestGradCheckCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--coords", "0"], "--coords must be >= 1"),
            (["--coords", "-3"], "--coords must be >= 1"),
            (["--fd-step", "0"], "--fd-step must be positive"),
            (["--fd-step=-1e-6"], "--fd-step must be positive"),
            (["--fd-step", "nan"], "--fd-step must be positive"),
            (["--fd-step", "inf"], "--fd-step must be positive"),
        ],
    )
    def test_a_bad_probe_setting_is_a_config_error(self, flags, message, capsys):
        assert main(["grad-check", *flags]) == 2
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_defaults_to_the_single_neuron_scenario(self, capsys):
        assert main(["grad-check", "--coords", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        tail = re.fullmatch(r"max rel err (\d\.\d{6}e[+-]\d+) over 4 coords", lines[-1])
        assert tail is not None
        assert float(tail.group(1)) < 1e-5


def float_idx(data):
    return serialize_idx(IdxTensor(dtype_code=0x0E, data=np.asarray(data, dtype=np.float64)))


def write_archive(tmp_path):
    """Twelve 4x4 images, four per class, the images gzipped on disk."""
    rng = np.random.default_rng(8)
    labels = np.array([0, 1, 2] * 4, dtype=np.uint8)
    images = rng.uniform(0.0, 1.0, size=(12, 4, 4)) + labels[:, None, None]
    img_path = tmp_path / "images.idx.gz"
    img_path.write_bytes(gzip.compress(float_idx(images)))
    lab_path = tmp_path / "labels.idx"
    lab_path.write_bytes(serialize_idx(IdxTensor(dtype_code=0x08, data=labels)))
    return str(img_path), str(lab_path)


class TestMomentsCommand:
    def test_estimates_from_gzipped_idx(self, tmp_path, capsys):
        img, lab = write_archive(tmp_path)
        out = tmp_path / "moments.json"
        code = main(["moments", "--images", img, "--labels", lab,
                     "--grid", "2", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "12 samples over 3 classes -> 4x3 moments"
        assert lines[1] == "trace sigma_y = 1"
        task = read_moments_json(out)
        assert (task.input_dim, task.output_dim) == (4, 3)
        with open(out) as fh:
            doc = json.load(fh)
        assert doc["counts"] == {"0": 4, "1": 4, "2": 4}

    @pytest.mark.parametrize("which, shape, message", [
        ("--images", (6, 16), "rank-3 image"),
        ("--labels", (12, 1), "rank-1 label"),
    ])
    def test_a_file_of_the_wrong_rank_maps_to_exit_4(self, which, shape, message, tmp_path, capsys):
        img, lab = write_archive(tmp_path)
        files = {"--images": img, "--labels": lab}
        files[which] = str(tmp_path / "wrong.idx")
        (tmp_path / "wrong.idx").write_bytes(float_idx(np.zeros(shape)))
        code = main(["moments", *(x for pair in files.items() for x in pair), "--out", str(tmp_path / "m.json")])
        assert code == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "0"], "--grid must be >= 1"),
        (["--grid", "-2"], "--grid must be >= 1"),
        (["--limit", "0"], "--limit must be >= 1"),
        (["--limit", "-4"], "--limit must be >= 1"),
        (["--digits", "0,0"], "invalid moments arguments: duplicate digits in filter"),
        (["--digits", "0,x"], "invalid moments arguments: invalid literal for int()"),
        (["--digits", "0", "--encoding", "pm1"], "invalid moments arguments: pm1 encoding needs exactly two digits"),
    ])
    def test_a_bad_argument_is_a_config_error(self, flags, message, tmp_path, capsys):
        img, lab = write_archive(tmp_path)
        out = tmp_path / "m.json"
        assert main(["moments", "--images", img, "--labels", lab, *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_digits_keep_only_the_listed_classes(self, tmp_path, capsys):
        img, lab = write_archive(tmp_path)
        code = main(["moments", "--images", img, "--labels", lab, "--digits", "0,2",
                     "--grid", "2", "--out", str(tmp_path / "m.json")])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "8 samples over 2 classes -> 4x2 moments"

    def test_missing_archive_maps_to_exit_4(self, tmp_path):
        assert main(["moments", "--images", "/no/images.idx",
                     "--labels", "/no/labels.idx", "--out", str(tmp_path / "m.json")]) == 4


class TestPlotCommand:
    def make_csv(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("t,loss\n0,2\n1,1\n2,0.5\n")
        return str(p)

    def test_renders_a_chart(self, tmp_path, capsys):
        csv = self.make_csv(tmp_path)
        out = tmp_path / "c.svg"
        assert main(["plot", "--series", f"loss:{csv}:t:loss", "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")
        assert f"wrote {out}" in capsys.readouterr().out

    def test_series_spec_needs_four_fields(self, tmp_path, capsys):
        assert main(["plot", "--series", "a:b", "--out", str(tmp_path / "c.svg")]) == 2
        assert "--series expects" in capsys.readouterr().err

    def test_unknown_column_is_a_config_error(self, tmp_path):
        csv = self.make_csv(tmp_path)
        assert main(["plot", "--series", f"x:{csv}:t:nope", "--out",
                     str(tmp_path / "c.svg")]) == 2

    def test_missing_csv_maps_to_exit_4(self, tmp_path):
        assert main(["plot", "--series", f"x:{tmp_path / 'no.csv'}:t:l",
                     "--out", str(tmp_path / "c.svg")]) == 4


class TestPresetsCommand:
    def test_list_names_every_scenario(self, capsys):
        assert main(["presets", "list"]) == 0
        assert capsys.readouterr().out.splitlines() == list(SCENARIOS)

    def test_show_emits_parseable_config_text(self, capsys):
        assert main(["presets", "show", "--name", "task_switch"]) == 0
        text = capsys.readouterr().out
        assert text == serialize_config(preset("task_switch"))
        assert parse_config(text) == preset("task_switch")

    def test_show_needs_a_name(self, capsys):
        assert main(["presets", "show"]) == 2
        assert "--name" in capsys.readouterr().err

    def test_show_rejects_unknown_names(self, capsys):
        assert main(["presets", "show", "--name", "warp"]) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_works(self):
        # the child imports the package from where this process found it
        src = os.path.dirname(os.path.dirname(learning_control.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "learning_control.cli", "presets", "list"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "single_neuron_effort" in proc.stdout.splitlines()

    def test_importing_the_package_leaves_the_process_pool_unloaded(self):
        """sweep imports concurrent.futures when it starts a pool, so no other command pays for it."""
        src = os.path.dirname(os.path.dirname(learning_control.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = "import sys, learning_control, learning_control.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert (proc.returncode, proc.stdout) == (0, "False\n")
