"""Run outputs: CSV schemas, JSON documents, SVG charts, overwrite rules.

Rows and charts are pinned against hand-built trajectories; everything
written twice must come out byte-identical, because diffability is part of
the contract here.
"""

import csv
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from learning_control.configio import KEYS, parse_config
from learning_control.control import ControlSchedule, init_weights_control, segment_sumsq
from learning_control.dynamics import Trajectory
from learning_control.errors import ConfigError, DataFormatError
from learning_control.idx import _emit
from learning_control.experiments import override_param, preset, run
from learning_control.optimizer import OptTrace
from learning_control.reporting import (
    _BLOCK,
    TRACE_COLUMNS,
    TRAJECTORY_COLUMNS,
    ChartSpec,
    plot,
    read_csv_columns,
    render_chart,
    write_result_json,
    write_run_outputs,
    write_schedule_json,
    write_trace_csv,
    write_trajectory_csv,
)
from learning_control.value import CostSpec, ValueSpec, segment_costs


def toy_traj():
    """Two-step single-neuron rollout with easy norms."""
    return Trajectory(
        times=np.array([0.0, 0.1, 0.2]),
        layers=([0.5, 0.4, 0.3],),
        losses=np.array([1.0, 0.8, 0.7]),
        kind="single_neuron",
    )


def toy_schedule():
    sched = ControlSchedule.neutral("scalar_series", 2, segment=1)
    return sched.with_values((np.array([2.0, 3.0]),))


TOY_VSPEC = ValueSpec(gamma=0.9, eta=2.0, cost=CostSpec("quadratic", beta=0.1))


class TestTrajectoryCsv:
    def test_rows_carry_rates_norms_and_controls(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), toy_schedule(), TOY_VSPEC)
        cols = read_csv_columns(path)
        assert list(cols) == list(TRAJECTORY_COLUMNS)
        np.testing.assert_array_equal(cols["step"], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(cols["time"], [0.0, 0.1, 0.2])
        np.testing.assert_array_equal(cols["reward"], [-2.0, -2.0 * 0.8, -1.4])
        np.testing.assert_array_equal(cols["cost"], [0.1 * 4.0, 0.1 * 9.0, 0.1 * 9.0])
        np.testing.assert_array_equal(
            cols["net_reward"], [-2.0 - 0.1 * 4.0, -2.0 * 0.8 - 0.1 * 9.0, -1.4 - 0.1 * 9.0]
        )
        np.testing.assert_array_equal(cols["w1_l1"], [0.5, 0.4, 0.3])
        np.testing.assert_array_equal(cols["w1_l2"], [0.5, 0.4, 0.3])
        np.testing.assert_array_equal(cols["w2_l2"], [0.0, 0.0, 0.0])

    def test_terminal_row_reuses_the_last_control(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), toy_schedule(), TOY_VSPEC)
        cols = read_csv_columns(path)
        np.testing.assert_array_equal(cols["g_l2"], [2.0, 3.0, 3.0])

    def test_without_a_schedule_control_columns_are_zero(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), None, TOY_VSPEC)
        cols = read_csv_columns(path)
        assert not np.any(cols["g_l2"])
        assert not np.any(cols["cost"])

    def test_mismatched_schedule_length_is_ignored(self, tmp_path):
        """A schedule for a different horizon cannot label these rows."""
        longer = ControlSchedule.neutral("scalar_series", 5, segment=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), longer, TOY_VSPEC)
        assert not np.any(read_csv_columns(path)["g_l2"])

    def test_init_weight_schedules_have_no_per_step_columns(self, tmp_path):
        sched = init_weights_control((np.full(1, 0.5),))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), sched, TOY_VSPEC)
        assert not np.any(read_csv_columns(path)["g_l2"])


class TestTraceCsv:
    def test_round_trips_exactly(self, tmp_path):
        trace = OptTrace(V=[1.0, 2.5], grad_norm=[0.5, 0.25], alpha_used=[0.0, 1.5],
                         wall_ms=[2.5, 3.5])
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        cols = read_csv_columns(path)
        assert list(cols) == list(TRACE_COLUMNS)
        np.testing.assert_array_equal(cols["iter"], [0.0, 1.0])
        np.testing.assert_array_equal(cols["V"], [1.0, 2.5])
        np.testing.assert_array_equal(cols["alpha_used"], [0.0, 1.5])


# --- the csv-module writers the row writer replaced, kept as the byte reference ---


def _f(x):
    return format(float(x), ".17g")


def _norms(layer):
    """L1 and L2 norms of every entry of a layer stack, as lists of floats."""
    arr = np.asarray(layer, dtype=float)
    axes = tuple(range(1, arr.ndim))
    return abs(arr).sum(axis=axes).tolist(), np.sqrt((arr * arr).sum(axis=axes)).tolist()


def reference_trajectory_csv(path, traj, schedule=None, vspec=None):
    n = traj.n_steps
    usable = schedule is not None and schedule.kind != "init_weights" and schedule.n_steps == n
    eta = vspec.eta if vspec is not None else 1.0
    # one cost and one control norm per segment, which the rows index
    seg = schedule.segment if usable else n
    costs = norms = [0.0]
    if usable:
        norms = np.sqrt(segment_sumsq(schedule.values)).tolist()
        costs = segment_costs(schedule.values, vspec.cost).tolist() if vspec is not None else [0.0] * len(norms)
    # one pass per layer; a network without a second layer has zero norms there
    l1_1, l2_1 = _norms(traj.layers[0])
    l1_2, l2_2 = _norms(traj.layers[1]) if len(traj.layers) > 1 else ([0.0] * (n + 1),) * 2
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRAJECTORY_COLUMNS)
        for i in range(n + 1):
            k = min(i, n - 1) // seg
            cost = costs[k]
            loss = float(traj.losses[i])
            reward = -eta * loss
            out.writerow(
                [i, _f(traj.times[i]), _f(loss), _f(reward), _f(cost), _f(reward - cost),
                 _f(l1_1[i]), _f(l2_1[i]), _f(l1_2[i]), _f(l2_2[i]), _f(norms[k])]
            )
    return path


def reference_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(TRACE_COLUMNS)
        for k in range(len(trace.V)):
            out.writerow([k, _f(trace.V[k]), _f(trace.grad_norm[k]), _f(trace.alpha_used[k]), _f(trace.wall_ms[k])])
    return path


EDGES = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1e22, 3.0, -7.0, 0.1]


def edged(rng, shape):
    """Random floats with the edge values in their first entries."""
    x = rng.standard_normal(shape).ravel()
    x[: len(EDGES)] = EDGES[: x.size]
    return x.reshape(shape)


def pair_traj(rng, n, shapes=((4, 2), (2, 4)), kind="gain_mod"):
    return Trajectory(np.arange(n + 1) * 0.01, tuple(edged(rng, (n + 1, *s)) for s in shapes),
                      edged(rng, n + 1), kind)


def assert_same_bytes(write, reference, tmp_path, *args):
    # nan and inf rewards and costs are the point here, not a fault
    with np.errstate(all="ignore"):
        write(tmp_path / "new.csv", *args)
        reference(tmp_path / "ref.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestWritersMatchTheCsvModule:
    """The row writer gives the bytes csv.writer gave, on every column source and edge value."""

    @pytest.mark.parametrize("vspec", [TOY_VSPEC, None])
    def test_single_neuron_with_list_layers(self, tmp_path, vspec):
        for sched in (toy_schedule(), None):
            assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, toy_traj(), sched, vspec)

    def test_edge_values_in_every_column(self, tmp_path):
        rng = np.random.default_rng(0)
        traj = pair_traj(rng, 20)
        traj.times[: len(EDGES)] = EDGES
        sched = ControlSchedule("matrix_pair_series", (edged(rng, (7, 4, 2)), rng.standard_normal((7, 2, 4))), 20, 3)
        vspec = ValueSpec(gamma=0.9, eta=1e22, cost=CostSpec("quadratic", beta=0.5))
        assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, sched, vspec)

    def test_one_layer(self, tmp_path):
        rng = np.random.default_rng(1)
        traj = pair_traj(rng, 30, shapes=((3, 5),), kind="single_layer")
        sched = ControlSchedule("matrix_pair_series", (rng.standard_normal((6, 3, 5)),), 30, 5)
        assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, sched, TOY_VSPEC)

    def test_two_layer_under_each_cost(self, tmp_path):
        rng = np.random.default_rng(2)
        traj = pair_traj(rng, 40)
        sched = ControlSchedule("scalar_series", (rng.standard_normal(14),), 40, 3)
        for cost in (CostSpec("none"), CostSpec("quadratic", beta=0.3), CostSpec("exp_frobenius", beta=0.2)):
            vspec = ValueSpec(gamma=1.0, eta=3, cost=cost)
            assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, sched, vspec)

    def test_each_task_of_a_task_set(self, tmp_path):
        rng = np.random.default_rng(3)
        stacked = Trajectory(np.arange(6) * 0.1, (rng.standard_normal((6, 3, 4, 2)), rng.standard_normal((6, 3, 2, 4))),
                             rng.standard_normal((6, 3)), "two_layer_baseline")
        for traj in stacked.per_task():
            assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, None, TOY_VSPEC)

    def test_schedules_that_label_no_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        traj = pair_traj(rng, 12)
        for sched in (None, init_weights_control((np.ones((4, 2)), np.ones((2, 4)))),
                      ControlSchedule.neutral("scalar_series", 13, segment=2)):
            assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, sched, TOY_VSPEC)

    @pytest.mark.parametrize("rows", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37])
    def test_row_counts_around_the_block_size(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        if rows > 1:
            traj = pair_traj(rng, rows - 1)
            sched = ControlSchedule("scalar_series", (rng.standard_normal(-(-(rows - 1) // 10)),), rows - 1, 10)
            assert_same_bytes(write_trajectory_csv, reference_trajectory_csv, tmp_path, traj, sched, TOY_VSPEC)
        trace = OptTrace(V=edged(rng, rows).tolist(), grad_norm=rng.random(rows).tolist(),
                         alpha_used=[0, *rng.random(rows - 1).tolist()], wall_ms=rng.random(rows).tolist())
        assert_same_bytes(write_trace_csv, reference_trace_csv, tmp_path, trace)

    def test_empty_trace(self, tmp_path):
        assert_same_bytes(write_trace_csv, reference_trace_csv, tmp_path, OptTrace())

    @pytest.mark.parametrize("bounds", [None, (0, 2), (-np.inf, np.inf)])
    def test_schedule_json_skips_the_json_round_trip(self, tmp_path, bounds):
        rng = np.random.default_rng(5)
        values = (edged(rng, (5, 4, 2)), rng.standard_normal((5, 2, 4)))
        sched = ControlSchedule("matrix_pair_series", values, 13, 3, bounds=bounds)
        write_schedule_json(tmp_path / "schedule.json", sched)
        assert (tmp_path / "schedule.json").read_text() == _emit(json.loads(sched.to_json())) + "\n"

    @pytest.mark.parametrize("bounds", [None, (0, 2), (-np.inf, np.inf)])
    def test_schedule_json_is_to_json_and_reads_back_bit_for_bit(self, tmp_path, bounds):
        rng = np.random.default_rng(5)
        values = (edged(rng, (5, 4, 2)), rng.standard_normal((5, 2, 4)))
        sched = ControlSchedule("matrix_pair_series", values, 13, 3, bounds=bounds)
        write_schedule_json(tmp_path / "schedule.json", sched)
        text = (tmp_path / "schedule.json").read_text()
        assert text == sched.to_json() + "\n"
        back = ControlSchedule.from_json(text)
        assert back.bounds == sched.bounds
        assert all(np.array_equal(b.view(np.int64), v.view(np.int64)) for b, v in zip(back.values, values))


class TestReadCsvColumns:
    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataFormatError, match="empty CSV"):
            read_csv_columns(p)

    def test_ragged_row_reports_its_line(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b,c\n1,2,3\n4,5\n")
        with pytest.raises(DataFormatError, match=r"3: expected 3 fields, found 2"):
            read_csv_columns(p)

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        p = tmp_path / "text.csv"
        p.write_text("a,b\n1,2\n3,soon\n")
        with pytest.raises(DataFormatError, match=r"3: non-numeric value 'soon' in column 'b'"):
            read_csv_columns(p)


def bundle_config(tmp_path):
    cfg = preset("single_neuron_effort", out_dir=str(tmp_path))
    cfg = override_param(cfg, "dynamics.n_steps", 120)
    return override_param(cfg, "optimizer.iters", 2)


class TestRunOutputBundle:
    def test_all_files_land_in_the_run_directory(self, tmp_path):
        cfg = bundle_config(tmp_path)
        res = run(cfg)
        out = res.out_dir
        assert out == os.path.join(str(tmp_path), "single_neuron_effort")
        for fname in ("result.json", "schedule.json", "trace.csv", "baseline.csv", "controlled.csv"):
            assert os.path.exists(os.path.join(out, fname))

    def test_result_json_embeds_a_reparseable_config(self, tmp_path):
        cfg = bundle_config(tmp_path)
        res = run(cfg)
        with open(os.path.join(res.out_dir, "result.json")) as fh:
            doc = json.load(fh)
        assert doc["scenario"] == "single_neuron_effort"
        assert doc["V_baseline"] == res.V_baseline
        assert parse_config(doc["config"]["config_text"]) == replace(cfg, out_dir=None)

    def test_schedule_json_is_valid(self, tmp_path):
        cfg = bundle_config(tmp_path)
        res = run(cfg)
        with open(os.path.join(res.out_dir, "schedule.json")) as fh:
            doc = json.load(fh)
        assert doc["kind"] == "scalar_series"

    def test_existing_directory_needs_force(self, tmp_path):
        cfg = bundle_config(tmp_path)
        run(cfg)
        with pytest.raises(FileExistsError, match="--force"):
            run(cfg)
        run(replace(cfg, force=True))

    def test_force_removes_an_earlier_bundles_trajectories(self, tmp_path):
        maml = override_param(preset("maml_multistep", out_dir=str(tmp_path), run_name="x"), "optimizer.iters", 1)
        out = run(maml).out_dir
        (tmp_path / "x" / "notes.txt").write_text("kept")
        (tmp_path / "x" / "sgd_baseline.csv").write_text("stale")
        assert "controlled_2.csv" in os.listdir(out)
        cfg = replace(bundle_config(tmp_path), run_name="x", force=True)
        assert run(cfg).out_dir == out
        assert sorted(os.listdir(out)) == [
            "baseline.csv", "controlled.csv", "notes.txt", "result.json", "schedule.json", "trace.csv",
        ]
        assert (tmp_path / "x" / "notes.txt").read_text() == "kept"

    def test_result_json_bytes_are_deterministic(self, tmp_path):
        cfg = bundle_config(tmp_path)
        res = run(replace(cfg, out_dir=None))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_result_json(a, res, cfg)
        write_result_json(b, res, cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_result_json_bytes_do_not_depend_on_the_output_directory(self, tmp_path):
        docs = [os.path.join(run(bundle_config(tmp_path / d)).out_dir, "result.json") for d in ("a", "b")]
        with open(docs[0], "rb") as fa, open(docs[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_result_json_holds_every_config_key(self, tmp_path):
        cfg = bundle_config(tmp_path)
        with open(os.path.join(run(cfg).out_dir, "result.json")) as fh:
            doc = json.load(fh)["config"]
        assert doc["optimizer"]["max_halvings"] == cfg.optimizer.max_halvings
        assert {(s, k) for s, k, _, _ in KEYS if s != "output"} == {
            (s, k) for s in ("dynamics", "value", "optimizer") for k in doc[s]
        }


class TestCharts:
    def traj_csv(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, toy_traj(), toy_schedule(), TOY_VSPEC)
        return str(path)

    def test_render_is_deterministic_svg(self, tmp_path):
        path = self.traj_csv(tmp_path)
        spec = ChartSpec(series=[("loss", path, "time", "loss"), ("reward", path, "time", "reward")],
                         x_label="t", y_label="rate", title="toy run")
        text = render_chart(spec)
        assert text.startswith("<svg")
        assert text.endswith("</svg>\n")
        assert text.count("<polyline") == 2
        assert "toy run" in text
        assert text == render_chart(spec)

    def test_tick_labels_use_compact_notation(self, tmp_path):
        spec = ChartSpec(series=[("loss", self.traj_csv(tmp_path), "time", "loss")])
        assert ">0.05<" in render_chart(spec)

    def test_missing_column_is_a_config_error(self, tmp_path):
        spec = ChartSpec(series=[("x", self.traj_csv(tmp_path), "time", "nope")])
        with pytest.raises(ConfigError, match="column 'nope' not in"):
            render_chart(spec)

    def test_log_axis_draws_decade_ticks(self, tmp_path):
        p = tmp_path / "wide.csv"
        p.write_text("x,y\n1,1\n2,10\n3,100\n4,50\n5,5\n")
        text = render_chart(ChartSpec(series=[("y", str(p), "x", "y")], log_y=True))
        assert ">1<" in text
        assert ">10<" in text
        assert ">100<" in text

    @staticmethod
    def y_axis(tmp_path, ys, log_y=False):
        """(y tick labels, polyline y coordinates) of a chart of `ys` against 1, 2, ..."""
        p = tmp_path / "ys.csv"
        p.write_text("x,y\n" + "".join(f"{i + 1},{y}\n" for i, y in enumerate(ys)))
        text = render_chart(ChartSpec(series=[("y", str(p), "x", "y")], log_y=log_y))
        labels = re.findall(r'text-anchor="end" font-size="12">([^<]*)<', text)
        pts = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
        return labels, [pt.split(",")[1] for pt in pts]

    @pytest.mark.parametrize("value, labels", [(3.0, ["2.7", "2.85", "3", "3.15", "3.3"]),
                                               (0.0, ["-0.5", "-0.25", "0", "0.25", "0.5"])])
    def test_a_constant_series_on_a_linear_axis_is_padded_around_it(self, tmp_path, value, labels):
        # a tenth of the value each way, or 0.5 around zero; the line runs mid-plot
        assert self.y_axis(tmp_path, [value] * 3) == (labels, ["235.00"] * 3)

    def test_a_constant_series_on_a_log_axis_spans_half_to_twice_it(self, tmp_path):
        # 2..8 holds no power of ten, so its ends are the ticks
        assert self.y_axis(tmp_path, [4.0] * 3, log_y=True) == (["2", "8"], ["235.00"] * 3)

    def test_a_log_axis_inside_one_decade_ticks_its_ends(self, tmp_path):
        labels, ys = self.y_axis(tmp_path, [2.0, 3.0, 5.0], log_y=True)
        assert labels == ["2", "5"]
        assert (ys[0], ys[-1]) == ("440.00", "30.00")

    def test_log_axis_drops_nonpositive_and_nonfinite_points(self, tmp_path):
        p = tmp_path / "holes.csv"
        p.write_text("x,y\n1,1\n2,0\n3,inf\n4,100\n")
        text = render_chart(ChartSpec(series=[("y", str(p), "x", "y")], log_y=True))
        pts = re.search(r'<polyline points="([^"]*)"', text).group(1).split()
        assert len(pts) == 2
        assert "inf" not in text

    def test_empty_spec_still_renders_axes(self):
        text = render_chart(ChartSpec())
        assert text.startswith("<svg")

    def test_plot_writes_the_rendered_text(self, tmp_path):
        path = self.traj_csv(tmp_path)
        spec = ChartSpec(series=[("loss", path, "time", "loss")],
                         out_path=str(tmp_path / "c.svg"))
        plot(spec)
        assert (tmp_path / "c.svg").read_text() == render_chart(spec)
