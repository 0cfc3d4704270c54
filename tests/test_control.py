"""Control-schedule mechanics: construction, indexing, gradients, projection, JSON."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from learning_control.control import ControlSchedule, init_weights_control, segment_sumsq
from learning_control.dynamics import DynamicsSpec, TaskSchedule, _Plan
from learning_control.errors import whole
from learning_control.tasks import two_gaussian_moments

TASK = two_gaussian_moments(1.0, 0.3)
# task switches every 2 steps, so they cut segments of 3 and 7 steps
SWITCHING = TaskSchedule(tasks=[TASK, two_gaussian_moments(2.0, 0.3)], period_steps=2, n_steps=11)


def _step_by_step_add_grads(sched, buffers, lo, grads):
    """add_grads as one addition per step, last step first, each into its segment's row."""
    for j in range(len(grads[0]) - 1, -1, -1):
        s = min((lo + j) // sched.segment, sched.n_segments - 1)
        for buf, g in zip(buffers, grads):
            buf[s] = buf[s] + g[j]


def _padded_table_add_grads(sched, buffers, lo, grads):
    """add_grads as a padded table per segment (its buffer, then its steps in descending order) summed by np.add.accumulate."""
    steps = np.arange(lo, lo + len(grads[0]))
    segs = np.minimum(steps // sched.segment, sched.n_segments - 1)
    s0, s1 = segs[0], segs[-1] + 1
    cols = np.searchsorted(segs, segs, side="right") - np.arange(len(steps))
    for buf, g in zip(buffers, grads):
        table = np.zeros((s1 - s0, cols.max() + 1, *buf.shape[1:]))
        table[:, 0] = buf[s0:s1]
        table[segs - s0, cols] = g
        buf[s0:s1] = np.add.accumulate(table, axis=1)[:, -1]


class TestScheduleConstruction:
    def test_neutral_gains_are_zero(self):
        sched = ControlSchedule.neutral("scalar_series", n_steps=10, segment=2)
        np.testing.assert_array_equal(sched.values[0], np.zeros(5))
        assert sched.at(3) == 0.0

    def test_neutral_engagement_is_one(self):
        sched = ControlSchedule.neutral("engagement_series", n_steps=6, segment=3, n_channels=4)
        np.testing.assert_array_equal(sched.values[0], np.ones((2, 4)))

    @pytest.mark.parametrize("kind, message", [
        ("matrix_pair_series", "shapes"),
        ("engagement_series", "engagement_series needs n_channels"),
        ("category_series", "category_series needs n_channels"),
        ("init_weights", "init_weights needs the baseline state"),
        ("gain_waves", "unknown control kind 'gain_waves'"),
    ])
    def test_neutral_needs_what_its_kind_is_built_from(self, kind, message):
        with pytest.raises(ValueError, match=message):
            ControlSchedule.neutral(kind, n_steps=4)

    def test_neutral_init_weights_copies_state(self):
        w = np.ones((2, 2))
        sched = ControlSchedule.neutral("init_weights", n_steps=1, state0=(w,))
        sched.values[0][0, 0] = 99.0
        assert w[0, 0] == 1.0

    def test_partial_trailing_segment(self):
        sched = ControlSchedule.neutral("scalar_series", n_steps=7, segment=3)
        assert sched.n_segments == 3
        assert sched.with_values((np.array([0.0, 1.0, 2.0]),)).at(6) == 2.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown control kind"):
            ControlSchedule(kind="gain_waves", values=(np.zeros(1),), n_steps=1)

    def test_rejects_wrong_leading_axis(self):
        with pytest.raises(ValueError, match="leading axis"):
            ControlSchedule(kind="scalar_series", values=(np.zeros(3),), n_steps=8, segment=2)

    @pytest.mark.parametrize("kind, values, n_steps, segment, message", [
        ("scalar_series", (np.zeros(1),), 0, 1, "n_steps must be positive"),
        ("scalar_series", (np.zeros(1),), 1, 0, "segment must be positive"),
        ("init_weights", (), 1, 1, "init_weights schedule needs at least one weight array"),
    ])
    def test_rejects_an_empty_horizon_segment_or_state(self, kind, values, n_steps, segment, message):
        with pytest.raises(ValueError, match=message):
            ControlSchedule(kind=kind, values=values, n_steps=n_steps, segment=segment)

    @pytest.mark.parametrize("n_steps, segment, name, got", [
        (10.7, 2, "n_steps", "10.7"),
        (10, 2.9, "segment", "2.9"),
        (True, 1, "n_steps", "True"),
        (4, np.True_, "segment", "True"),
        (np.nan, 1, "n_steps", "nan"),
        ("4", "2", "n_steps", "4"),
        (4, "2", "segment", "2"),
    ])
    def test_rejects_a_fractional_or_bool_count(self, n_steps, segment, name, got):
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {got}"):
            ControlSchedule(kind="scalar_series", values=(np.zeros(5),), n_steps=n_steps, segment=segment)
        with pytest.raises(ValueError, match=f"{name} must be a whole number, got {got}"):
            ControlSchedule.neutral("scalar_series", n_steps, segment=segment)

    @pytest.mark.parametrize("n_channels, got", [(2.5, "2.5"), (True, "True"), (np.True_, "True")])
    def test_rejects_a_fractional_or_bool_channel_count(self, n_channels, got):
        with pytest.raises(ValueError, match=f"n_channels must be a whole number, got {got}"):
            ControlSchedule.neutral("engagement_series", 4, n_channels=n_channels)

    @pytest.mark.parametrize("n_channels", [0, -1])
    def test_rejects_a_channel_count_below_one(self, n_channels):
        with pytest.raises(ValueError, match=f"n_channels must be positive, got {n_channels}"):
            ControlSchedule.neutral("category_series", 4, n_channels=n_channels)

    @pytest.mark.parametrize("value", [None, [3], {"n": 3}, object(), np.array([1, 2]), b"3"],
                             ids=["none", "list", "dict", "object", "array", "bytes"])
    def test_whole_refuses_a_non_number_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"n must be a whole number, got {value}")):
            whole("n", value)

    @pytest.mark.parametrize("least, word", [(0, "nonnegative"), (1, "positive")])
    def test_whole_refuses_a_count_below_its_least_value(self, least, word):
        assert whole("k", least, least) == least
        with pytest.raises(ValueError, match=f"k must be {word}, got {least - 1}"):
            whole("k", least - 1, least)

    def test_an_int_past_the_float_range_is_refused_by_name(self):
        with pytest.raises(ValueError, match="n_steps must be a whole number within the float range"):
            whole("n_steps", 10**400)
        with pytest.raises(ValueError, match="segment must be a whole number within the float range"):
            ControlSchedule.neutral("scalar_series", 4, segment=-(10**400))

    def test_a_whole_channel_count_of_another_type_is_accepted(self):
        sched = ControlSchedule.neutral("category_series", 4, segment=2, n_channels=3.0)
        assert sched.values[0].shape == (2, 3)

    def test_a_whole_count_of_another_type_is_kept_as_an_int(self):
        sched = ControlSchedule.neutral("scalar_series", 10.0, segment=np.int64(2))
        assert (sched.n_steps, sched.segment) == (10, 2)
        assert type(sched.n_steps) is int and type(sched.segment) is int

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError, match="bounds"):
            ControlSchedule(kind="scalar_series", values=(np.zeros(2),), n_steps=2, bounds=(1.0, 0.0))

    def test_rejects_three_gain_series(self):
        vals = tuple(np.zeros((2, 1, 1)) for _ in range(3))
        with pytest.raises(ValueError, match="one or two"):
            ControlSchedule(kind="matrix_pair_series", values=vals, n_steps=2)

    def test_bare_array_promoted_to_tuple(self):
        sched = ControlSchedule(kind="scalar_series", values=np.zeros(4), n_steps=4)
        assert isinstance(sched.values, tuple) and len(sched.values) == 1


class TestScheduleIndexing:
    def test_at_returns_python_float_for_scalars(self):
        sched = ControlSchedule(kind="scalar_series", values=(np.array([1.5, -2.0]),), n_steps=4, segment=2)
        assert isinstance(sched.at(0), float)
        assert sched.at(0) == 1.5 and sched.at(3) == -2.0

    def test_at_matrix_pair(self):
        vals = (np.arange(8.0).reshape(2, 2, 2), np.zeros((2, 1, 2)))
        sched = ControlSchedule(kind="matrix_pair_series", values=vals, n_steps=2)
        g1, g2 = sched.at(1)
        np.testing.assert_array_equal(g1, [[4.0, 5.0], [6.0, 7.0]])
        assert g2.shape == (1, 2)

    def test_at_for_init_weights_is_none(self):
        sched = init_weights_control((np.ones((1, 1)),))
        assert sched.at(0) is None

    def test_expand_matches_at_stepwise(self):
        sched = ControlSchedule(
            kind="engagement_series",
            values=(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),),
            n_steps=7,
            segment=3,
        )
        (per_step,) = sched.expand()
        assert per_step.shape == (7, 2)
        for step in range(7):
            np.testing.assert_array_equal(per_step[step], sched.at(step))

    def test_expand_of_init_weights_returns_copies(self):
        sched = init_weights_control((np.ones((2, 2)), np.zeros((1, 2))))
        expanded = sched.expand()
        for got, weights in zip(expanded, sched.values, strict=True):
            np.testing.assert_array_equal(got, weights)
            assert not np.shares_memory(got, weights)
        expanded[0][...] = 5.0
        assert (sched.values[0] == 1.0).all()

    def test_segment_norms(self):
        assert np.sqrt(segment_sumsq((np.array([3.0, -4.0]),))).tolist() == [3.0, 4.0]

    def test_segment_sumsq_pools_the_parts_of_a_segment(self):
        values = (np.array([[[1.0, 2.0]], [[0.0, 1.0]]]), np.array([[[2.0]], [[-3.0]]]))
        assert segment_sumsq(values).tolist() == [9.0, 10.0]


def random_schedule(kind, n_steps, segment, rng):
    n_seg = -(-n_steps // segment)
    shapes = {
        "scalar_series": [(n_seg,)],
        "matrix_pair_series": [(n_seg, 3, 2), (n_seg, 2, 3)],
        "engagement_series": [(n_seg, 2)],
        "category_series": [(n_seg, 4)],
    }[kind]
    values = tuple(rng.standard_normal(s) for s in shapes)
    return ControlSchedule(kind=kind, values=values, n_steps=n_steps, segment=segment)


def assert_same_values(a, b):
    """A run's ctrl, its row of the stacked values, holds the values of the at() slice `b`."""
    if isinstance(b, tuple):
        assert isinstance(a, tuple) and len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
    else:
        np.testing.assert_array_equal(a, b)


SERIES_KINDS = ("scalar_series", "matrix_pair_series", "engagement_series", "category_series")


def run_plan(sched, task, n_steps):
    """The _Plan of a two_layer_baseline spec, which runs under any control and keeps each run's slice as its ctrl."""
    return _Plan(DynamicsSpec(kind="two_layer_baseline", input_dim=1, output_dim=1, hidden_dim=2, n_steps=n_steps),
                 task, sched)


class TestRunCut:
    """dynamics._Plan's runs, the one cut of a pass, and each run's slice in its args, against at() and task_at()."""

    @pytest.mark.parametrize("n_steps, segment", [(12, 3), (11, 3), (5, 7), (4, 1)])
    @pytest.mark.parametrize("kind", SERIES_KINDS)
    def test_matches_at_stepwise(self, kind, n_steps, segment):
        sched = random_schedule(kind, n_steps, segment, np.random.default_rng(4))
        plan = run_plan(sched, TASK, n_steps)
        assert [(lo, hi) for lo, hi, _ in plan.runs] == [(lo, min(lo + segment, n_steps)) for lo in range(0, n_steps, segment)]
        for (lo, hi, task), args in zip(plan.runs, plan.args(sched), strict=True):
            assert task is TASK
            for step in range(lo, hi):
                assert_same_values(args.ctrl, sched.at(step))

    def test_init_weights_and_no_schedule_give_none(self):
        sched = init_weights_control((np.ones((2, 2)), np.zeros((1, 2))))
        for s in (sched, None):
            plan = run_plan(s, TASK, 5)
            assert plan.runs == [(0, 5, TASK)] and plan.args(s)[0].ctrl is None

    def test_a_task_switch_cuts_a_segment_whose_runs_share_its_slice(self):
        sched = random_schedule("scalar_series", 100, 7, np.random.default_rng(1))
        tasks = replace(SWITCHING, n_steps=100)
        plan = run_plan(sched, tasks, 100)
        assert any(lo % 7 for lo, *_ in plan.runs)  # task switches cut segments
        for (lo, _, task), args in zip(plan.runs, plan.args(sched), strict=True):
            assert task is tasks.task_at(lo)
            assert_same_values(args.ctrl, sched.at(lo // 7 * 7))


class TestGradBuffers:
    def test_scalar_accumulation_by_segment(self):
        sched = ControlSchedule(kind="scalar_series", values=(np.zeros(2),), n_steps=4, segment=2)
        buffers = sched.zero_grads()
        sched.add_grad(buffers, 0, 1.0)
        sched.add_grad(buffers, 1, 2.0)
        sched.add_grad(buffers, 2, 10.0)
        np.testing.assert_array_equal(buffers[0], [3.0, 10.0])

    def test_tuple_grads_accumulate_per_layer(self):
        sched = ControlSchedule(kind="matrix_pair_series", values=(np.zeros((2, 1, 2)), np.zeros((2, 2, 1))),
                                n_steps=3, segment=2)
        buffers = sched.zero_grads()
        for step in range(3):
            sched.add_grad(buffers, step, (np.full((1, 2), step + 1.0), np.full((2, 1), -1.0)))
        np.testing.assert_array_equal(buffers[0][:, 0, :], [[3.0, 3.0], [3.0, 3.0]])
        np.testing.assert_array_equal(buffers[1][:, :, 0], [[-2.0, -2.0], [-1.0, -1.0]])

    @pytest.mark.parametrize("n_steps", [6, 7])
    def test_the_terminal_step_adds_into_the_last_segment_first(self, n_steps):
        # steps 2..n_steps at once against add_grad from the terminal state (at step n_steps - 1) down
        rng = np.random.default_rng(3)
        sched = ControlSchedule(kind="scalar_series", values=(np.zeros(-(-n_steps // 3)),), n_steps=n_steps, segment=3)
        grads = rng.normal(size=n_steps - 1) * 10.0 ** rng.integers(-8, 9, size=n_steps - 1)
        want = sched.zero_grads()
        sched.add_grad(want, n_steps - 1, grads[-1])
        for step in range(n_steps - 1, 1, -1):
            sched.add_grad(want, step, grads[step - 2])
        got = sched.zero_grads()
        sched.add_grads(got, 2, (grads,))
        assert np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("lo", [0, 2])
    @pytest.mark.parametrize("n_steps", [6, 7])
    @pytest.mark.parametrize("shapes", [[()], [(2, 3), (3, 2)], [(4,)]], ids=["scalar", "pair", "engagement"])
    def test_a_stack_adds_as_step_by_step_and_as_the_padded_table(self, shapes, n_steps, lo):
        # steps lo..n_steps, the terminal one included, with signed zeros among the gradients
        rng = np.random.default_rng(26 + n_steps + lo)
        sched = ControlSchedule(kind="scalar_series", values=(np.zeros(-(-n_steps // 3)),), n_steps=n_steps, segment=3)

        def draw(shape):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            return np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], size=shape), x)

        def added(reference, starts):
            buffers = [b.copy() for b in starts]
            reference(sched, buffers, lo, grads)
            return buffers

        def assert_same(got, want):
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))

        grads = [draw((n_steps + 1 - lo, *s)) for s in shapes]
        starts = [draw((sched.n_segments, *s)) for s in shapes]
        assert_same(added(ControlSchedule.add_grads, starts), added(_step_by_step_add_grads, starts))
        # the table's zero padding turns a -0.0 buffer entry into +0.0, so it starts from +0.0 ones
        starts = [b + 0.0 for b in starts]
        got = added(ControlSchedule.add_grads, starts)
        assert_same(got, added(_step_by_step_add_grads, starts))
        assert_same(got, added(_padded_table_add_grads, starts))

    @pytest.mark.parametrize("n_steps", [6, 7])
    def test_segment_of_maps_every_step_as_at_does(self, n_steps):
        sched = ControlSchedule("scalar_series", (np.arange(-(-n_steps // 3), dtype=float),), n_steps, segment=3)
        want = [sched.at(i) for i in range(n_steps + 1)]
        assert sched.segment_of(np.arange(n_steps + 1)).tolist() == want

    def test_init_weights_has_no_per_step_grads(self):
        sched = init_weights_control((np.ones((1, 1)),))
        with pytest.raises(ValueError, match="per-step"):
            sched.add_grad(sched.zero_grads(), 0, 1.0)


class TestProjection:
    def test_clipping_and_idempotence(self):
        sched = ControlSchedule(
            kind="scalar_series", values=(np.array([-1.0, 0.5, 9.0]),), n_steps=3, bounds=(0.0, 1.0)
        )
        assert sched.out_of_bounds()
        clipped = sched.project()
        np.testing.assert_array_equal(clipped.values[0], [0.0, 0.5, 1.0])
        assert not clipped.out_of_bounds()
        np.testing.assert_array_equal(clipped.project().values[0], clipped.values[0])

    def test_project_without_bounds_copies(self):
        sched = ControlSchedule(kind="scalar_series", values=(np.array([2.0]),), n_steps=1)
        copy = sched.project()
        copy.values[0][0] = -5.0
        assert sched.values[0][0] == 2.0


class TestJsonRoundTrip:
    def test_plain_schedule(self):
        sched = ControlSchedule(
            kind="engagement_series",
            values=(np.array([[1.0, 0.25], [0.5, 2.0]]),),
            n_steps=4,
            segment=2,
            bounds=(0.0, 2.0),
        )
        back = ControlSchedule.from_json(sched.to_json())
        assert back.kind == sched.kind and back.bounds == sched.bounds
        np.testing.assert_array_equal(back.values[0], sched.values[0])

    @pytest.mark.parametrize("field, value", [("n_steps", 4.9), ("segment", 2.5), ("segment", "2"), ("n_steps", None)])
    def test_a_count_that_is_not_whole_is_refused_not_truncated(self, field, value):
        doc = json.loads(ControlSchedule.neutral("scalar_series", 4, segment=2).to_json())
        doc[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a whole number, got {value}"):
            ControlSchedule.from_json(json.dumps(doc))

    def test_matrix_pair_shapes_survive(self):
        vals = (np.zeros((2, 2, 3)), np.zeros((2, 3, 1)))
        sched = ControlSchedule(kind="matrix_pair_series", values=vals, n_steps=2)
        back = ControlSchedule.from_json(sched.to_json())
        assert back.values[0].shape == (2, 2, 3)
        assert back.values[1].shape == (2, 3, 1)
