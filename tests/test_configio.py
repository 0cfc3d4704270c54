"""Config text format: grammar, typed values, line-numbered errors, round trips.

The writer is checked as the exact inverse of the parser, so most value
coverage comes from round-tripping every scenario preset.
"""

from dataclasses import fields, replace

import pytest

from learning_control.configio import KEYS, parse_config, parse_config_file, serialize_config
from learning_control.dynamics import DynamicsSpec
from learning_control.errors import ConfigError
from learning_control.experiments import SCENARIOS, preset
from learning_control.optimizer import OptimizerSpec
from learning_control.value import CostSpec, ValueSpec


class TestRoundTrip:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_serialize_then_parse_is_identity(self, name):
        cfg = preset(name, seed=4)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_output_section_round_trips(self):
        cfg = replace(preset("single_neuron_effort", out_dir="/tmp/le-out"), force=True)
        again = parse_config(serialize_config(cfg))
        assert again.out_dir == "/tmp/le-out"
        assert again.force is True
        assert again == cfg

    def test_floats_are_written_at_full_precision(self):
        text = serialize_config(preset("task_switch"))
        assert "0.80000000000000004" in text  # flip probability 0.8

    def test_through_a_file(self, tmp_path):
        cfg = preset("lr_bilevel", seed=9)
        p = tmp_path / "run.cfg"
        p.write_text(serialize_config(cfg))
        assert parse_config_file(p) == cfg


class TestKeyTable:
    def test_every_spec_field_has_a_key(self):
        """A new spec field cannot miss the config file, -p and result.json.

        init_seed has no key because [scenario] seed sets it.
        """
        want = {("output", "out_dir"), ("output", "force")}
        for section, spec, prefix in (
            ("dynamics", DynamicsSpec, "dynamics."),
            ("value", ValueSpec, "value."),
            ("value", CostSpec, "value.cost."),
            ("optimizer", OptimizerSpec, "optimizer."),
        ):
            want |= {(section, prefix + f.name) for f in fields(spec) if f.name not in ("cost", "init_seed")}
        assert {(section, path) for section, _, _, path in KEYS} == want
        assert len({path for _, _, _, path in KEYS}) == len({(s, k) for s, k, _, _ in KEYS}) == len(KEYS)


class TestParsing:
    def test_minimal_config_equals_the_preset(self):
        assert parse_config("[scenario]\nname = single_neuron_effort\n") == preset("single_neuron_effort")

    def test_section_overrides_apply_on_top_of_the_preset(self):
        cfg = parse_config(
            "[scenario]\nname = single_neuron_effort\n[value]\ngamma = 0.5\n"
        )
        assert cfg.value.gamma == 0.5
        assert cfg.value.cost.kind == "quadratic"

    def test_cost_fields_are_flattened_into_the_value_section(self):
        cfg = parse_config(
            "[scenario]\nname = single_neuron_effort\n"
            "[value]\ncost_kind = anchored_norm\nbeta = 0.2\nanchor = 1.5\n"
        )
        assert cfg.value.cost.kind == "anchored_norm"
        assert cfg.value.cost.beta == 0.2
        assert cfg.value.cost.anchor == 1.5

    def test_scenario_params_typed_by_their_defaults(self):
        cfg = parse_config(
            "[scenario]\nname = task_switch\nswitch_period = 250\ntask_a = 1, 2, 3, 4, 0.5\n"
        )
        assert cfg.params["switch_period"] == 250
        assert cfg.params["task_a"] == (1.0, 2.0, 3.0, 4.0, 0.5)

    def test_semicolons_separate_tuple_groups(self):
        cfg = parse_config(
            "[scenario]\nname = task_engagement\ntasks = 1,1,1,1,0.5; 2,2,2,2,0.6\n"
        )
        assert cfg.params["tasks"] == ((1.0, 1.0, 1.0, 1.0, 0.5), (2.0, 2.0, 2.0, 2.0, 0.6))

    def test_comments_and_blank_lines_are_skipped(self):
        cfg = parse_config(
            "# experiment sweep base\n\n[scenario]\n# which scenario\nname = single_neuron_effort\n\nseed = 2\n"
        )
        assert cfg.seed == 2

    def test_semicolon_lines_are_comments_too(self):
        cfg = parse_config("; sweep base\n[scenario]\nname = single_neuron_effort\n; note\nseed = 2\n")
        assert cfg.seed == 2

    def test_value_may_itself_contain_an_equals_sign(self):
        cfg = parse_config("[scenario]\nname = single_neuron_effort\nrun_name = sweep=1\n")
        assert cfg.run_name == "sweep=1"

    def test_a_kind_and_its_dims_are_checked_together(self):
        cfg = parse_config(
            "[scenario]\nname = task_switch\n"
            "[dynamics]\nkind = single_neuron\ninput_dim = 1\noutput_dim = 1\n"
        )
        assert (cfg.dynamics.kind, cfg.dynamics.input_dim, cfg.dynamics.output_dim) == ("single_neuron", 1, 1)

    def test_boolean_spellings(self):
        for raw, want in (("yes", True), ("on", True), ("0", False), ("FALSE", False)):
            cfg = parse_config(
                f"[scenario]\nname = single_neuron_effort\n[output]\nforce = {raw}\n"
            )
            assert cfg.force is want


def raises_at(text, line, match):
    with pytest.raises(ConfigError, match=match) as ei:
        parse_config(text)
    assert ei.value.line == line
    assert f"<config>:{line}:" in str(ei.value)


class TestErrors:
    def test_unknown_section(self):
        raises_at("[scenario]\nname = task_switch\n[bogus]\n", 3, "unknown section")

    def test_duplicate_section(self):
        raises_at("[scenario]\nname = task_switch\n[dynamics]\n[dynamics]\n", 4, "duplicate section")

    def test_line_without_equals(self):
        raises_at("[scenario]\nname task_switch\n", 2, "expected 'key = value'")

    def test_key_before_any_section(self):
        raises_at("seed = 3\n", 1, "before any")

    def test_duplicate_key(self):
        raises_at("[scenario]\nname = task_switch\nseed = 1\nseed = 2\n", 4, "duplicate key")

    def test_unknown_scenario_name(self):
        raises_at("[scenario]\nname = warp\n", 2, "unknown scenario")

    def test_unknown_scenario_parameter(self):
        raises_at("[scenario]\nname = single_neuron_effort\nwarp = 1\n", 3, "unknown key 'warp'")

    def test_unknown_key_in_a_section(self):
        raises_at(
            "[scenario]\nname = single_neuron_effort\n\n[dynamics]\nwibble = 3\n",
            5,
            r"unknown key 'wibble' in \[dynamics\]",
        )

    def test_bad_int(self):
        raises_at("[scenario]\nname = single_neuron_effort\nseed = soon\n", 3, "expected int")

    def test_bad_float(self):
        raises_at(
            "[scenario]\nname = single_neuron_effort\n[dynamics]\ndt = fast\n", 4, "expected float"
        )

    def test_bad_boolean(self):
        raises_at(
            "[scenario]\nname = single_neuron_effort\n[output]\nforce = maybe\n",
            4,
            "expected a boolean",
        )

    def test_missing_scenario_section(self):
        with pytest.raises(ConfigError, match=r"missing \[scenario\]") as ei:
            parse_config("[dynamics]\nkind = gain_mod\n")
        assert ei.value.line is None
        assert str(ei.value).startswith("<config>:")

    def test_inconsistent_spec_combination_is_wrapped(self):
        """Field values that are individually fine but clash get one summary error."""
        with pytest.raises(ConfigError, match="invalid configuration"):
            parse_config("[scenario]\nname = single_neuron_effort\n[dynamics]\ninput_dim = 3\n")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_errors_carry_the_file_path(self, tmp_path):
        p = tmp_path / "broken.cfg"
        p.write_text("[scenario]\nname = warp\n")
        with pytest.raises(ConfigError) as ei:
            parse_config_file(p)
        assert ei.value.path == str(p)
        assert str(ei.value).startswith(f"{p}:2:")
