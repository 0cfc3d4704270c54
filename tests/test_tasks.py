"""Tests for task second-moment construction and sampling.

Every analytic moment builder is cross-checked either against a hand
calculation or against empirical moments of a large sampled batch.
"""

import numpy as np
import pytest

from learning_control.errors import UnsupportedOperationError
from learning_control.tasks import (
    BlockMap,
    SamplingSpec,
    TaskMoments,
    class_mixture_moments,
    compose_block_tasks,
    correlated_gaussian_moments,
    hierarchy_matrix,
    linear_regression_floor,
    sample_batch,
    sample_class_batch,
    semantic_moments,
    two_gaussian_moments,
)


def plain_moments(sigma_x, sigma_xy, sigma_y):
    """Moment-only task with zero means, for validation tests."""
    i_dim = np.atleast_2d(sigma_xy).shape[0]
    o_dim = np.atleast_2d(sigma_xy).shape[1]
    return TaskMoments(
        sigma_x=sigma_x,
        sigma_xy=sigma_xy,
        sigma_y=sigma_y,
        mean_x=np.zeros(i_dim),
        mean_y=np.zeros(o_dim),
    )


class TestTaskMomentsValidation:
    def test_accepts_valid(self):
        task = plain_moments(np.eye(2), np.ones((2, 1)), np.eye(1))
        assert task.input_dim == 2 and task.output_dim == 1

    def test_rejects_asymmetric_sigma_x(self):
        bad = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            plain_moments(bad, np.ones((2, 1)), np.eye(1))

    def test_rejects_indefinite_sigma_x(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(ValueError, match="semidefinite"):
            plain_moments(bad, np.ones((2, 1)), np.eye(1))

    @pytest.mark.parametrize("sigma_x, sigma_y, message", [
        (np.eye(2), np.eye(1), "sigma_x shape"),
        (np.eye(3), np.eye(2), "sigma_y shape"),
    ])
    def test_rejects_cross_moment_shape_mismatch(self, sigma_x, sigma_y, message):
        with pytest.raises(ValueError, match=f"{message} .* inconsistent"):
            TaskMoments(
                sigma_x=sigma_x,
                sigma_xy=np.ones((3, 1)),
                sigma_y=sigma_y,
                mean_x=np.zeros(3),
                mean_y=np.zeros(1),
            )

    @pytest.mark.parametrize("label", ["sigma_x", "sigma_xy", "sigma_y", "mean_x", "mean_y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, label, bad):
        fields = dict(sigma_x=np.eye(2), sigma_xy=np.ones((2, 1)), sigma_y=np.eye(1), mean_x=np.zeros(2),
                      mean_y=np.zeros(1))
        fields[label] = fields[label].copy()
        fields[label].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{label} has a non-finite entry"):
            TaskMoments(**fields)

    def test_rejects_wrong_mean_length(self):
        with pytest.raises(ValueError, match="mean"):
            TaskMoments(
                sigma_x=np.eye(2),
                sigma_xy=np.ones((2, 1)),
                sigma_y=np.eye(1),
                mean_x=np.zeros(5),
                mean_y=np.zeros(1),
            )


class TestScalarFamilies:
    def test_two_gaussian_hand_values(self):
        """Mixture of N(+mu, s^2) and N(-mu, s^2) with labels +1/-1."""
        task = two_gaussian_moments(0.7, 0.2)
        np.testing.assert_allclose(task.sigma_x, [[0.7**2 + 0.2**2]], rtol=1e-15)
        np.testing.assert_allclose(task.sigma_xy, [[0.7]], rtol=1e-15)
        np.testing.assert_allclose(task.sigma_y, [[1.0]], rtol=1e-15)

    def test_two_gaussian_sampled_moments_agree(self):
        task = two_gaussian_moments(1.1, 0.4)
        rng = np.random.default_rng(42)
        x, y = sample_batch(task, 200_000, rng)
        assert set(np.unique(y)) == {-1.0, 1.0}
        np.testing.assert_allclose(np.mean(x * x), task.sigma_x[0, 0], rtol=2e-2)
        np.testing.assert_allclose(np.mean(x * y), task.sigma_xy[0, 0], rtol=2e-2)

    def test_correlated_pair_flip_probability(self):
        """The off-diagonal cross moment carries the 1 - 2p label agreement."""
        task = correlated_gaussian_moments(2.0, 1.0, 0.5, 0.5, flip_p=0.2)
        c = 1.0 - 2.0 * 0.2
        np.testing.assert_allclose(
            task.sigma_xy, [[2.0, 2.0 * c], [1.0 * c, 1.0]], rtol=1e-15
        )
        np.testing.assert_allclose(task.sigma_y[0, 1], c, rtol=1e-15)
        np.testing.assert_allclose(task.sigma_x[0, 1], 2.0 * 1.0 * c, rtol=1e-15)

    def test_correlated_pair_rejects_bad_flip(self):
        with pytest.raises(ValueError, match="flip_p"):
            correlated_gaussian_moments(1.0, 1.0, 0.1, 0.1, flip_p=1.5)

    def test_correlated_pair_sampling(self):
        task = correlated_gaussian_moments(1.5, 0.8, 0.3, 0.3, flip_p=0.25)
        rng = np.random.default_rng(7)
        x, y = sample_batch(task, 300_000, rng)
        emp_xy = x.T @ y / x.shape[0]
        np.testing.assert_allclose(emp_xy, task.sigma_xy, atol=0.02)


class TestHierarchy:
    def test_matrix_shape_and_entries(self):
        h = hierarchy_matrix(3)
        assert h.shape == (7, 4)
        # root row touches every leaf, deepest rows touch exactly one
        np.testing.assert_array_equal(h[0], np.ones(4))
        assert np.count_nonzero(h[-1]) == 1

    def test_every_leaf_crosses_one_node_per_level(self):
        h = hierarchy_matrix(4)
        gram = h.T @ h
        np.testing.assert_array_equal(np.diag(gram), np.full(8, 4.0))

    @pytest.mark.parametrize("levels", range(1, 6))
    def test_matches_node_by_node_construction(self, levels):
        n_items = 2 ** (levels - 1)
        rows = []
        for level in range(levels):
            width = n_items // 2**level
            for k in range(2**level):
                row = np.zeros(n_items)
                row[k * width : (k + 1) * width] = 1.0
                rows.append(row)
        h = hierarchy_matrix(levels)
        assert h.dtype == np.float64 and np.array_equal(h, np.array(rows))

    def test_degenerate_depth(self):
        np.testing.assert_array_equal(hierarchy_matrix(1), [[1.0]])
        with pytest.raises(ValueError):
            hierarchy_matrix(0)

    @pytest.mark.parametrize("levels, message", [
        (0, "levels must be positive, got 0"),
        (2.5, "levels must be a whole number, got 2.5"),
        (True, "levels must be a whole number, got True"),
    ])
    def test_a_depth_that_is_not_a_whole_number_of_at_least_one_is_refused(self, levels, message):
        with pytest.raises(ValueError, match=message):
            hierarchy_matrix(levels)

    def test_semantic_moments_are_item_sums(self):
        """Quadratic moments are per-presentation sums, so sigma_x = I."""
        task = semantic_moments(3)
        feat = hierarchy_matrix(3)
        np.testing.assert_array_equal(task.sigma_x, np.eye(4))
        np.testing.assert_array_equal(task.sigma_xy, feat.T)
        np.testing.assert_array_equal(task.sigma_y, feat @ feat.T)

    def test_semantic_sampling_is_uniform_over_items(self):
        task = semantic_moments(2)
        rng = np.random.default_rng(11)
        x, y = sample_batch(task, 100_000, rng)
        n_items = 2
        np.testing.assert_allclose(x.T @ x / len(x), task.sigma_x / n_items, atol=0.01)
        np.testing.assert_allclose(x.T @ y / len(x), task.sigma_xy / n_items, atol=0.01)


class TestClassMixture:
    def test_moment_formula(self):
        means = np.array([[1.0, 0.0], [0.0, 2.0]])
        task = class_mixture_moments(means, 0.5)
        expected_x = means.T @ means / 2 + 0.25 * np.eye(2)
        np.testing.assert_allclose(task.sigma_x, expected_x, rtol=1e-15)
        np.testing.assert_allclose(task.sigma_xy, means.T / 2, rtol=1e-15)
        np.testing.assert_allclose(task.sigma_y, np.eye(2) / 2, rtol=1e-15)

    def test_class_batch_ordering_and_counts(self):
        means = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        task = class_mixture_moments(means, 0.1)
        rng = np.random.default_rng(5)
        x, y = sample_class_batch(task, [4, 0, 3], rng)
        assert x.shape == (7, 2) and y.shape == (7, 3)
        labels = np.argmax(y, axis=1)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 2, 2, 2])

    @pytest.mark.parametrize("task, n_classes", [
        (class_mixture_moments(np.eye(2), 0.1), 2),
        (semantic_moments(2), 2),
    ], ids=["class_mixture", "semantic"])
    def test_class_batch_rejects_wrong_length(self, task, n_classes):
        with pytest.raises(ValueError, match=f"counts must have length {n_classes}"):
            sample_class_batch(task, [1, 2, 3], np.random.default_rng(0))

    @pytest.mark.parametrize("task, message", [
        (two_gaussian_moments(1.0, 0.3), "not defined for family 'two_gaussian'"),
        (plain_moments(np.eye(1), np.ones((1, 1)), np.eye(1)), "moment-only task"),
    ], ids=["two_gaussian", "moment_only"])
    def test_class_batch_needs_a_classification_family(self, task, message):
        with pytest.raises(UnsupportedOperationError, match=message):
            sample_class_batch(task, [2], np.random.default_rng(0))

    def test_semantic_class_batch(self):
        task = semantic_moments(2)
        x, y = sample_class_batch(task, [1, 2], np.random.default_rng(0))
        np.testing.assert_array_equal(x, [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize("task", [class_mixture_moments(np.eye(2), 0.1), semantic_moments(2)],
                             ids=["class_mixture", "semantic"])
    def test_class_batch_rejects_counts_that_ask_for_no_row(self, task):
        with pytest.raises(ValueError, match="counts must ask for at least one row"):
            sample_class_batch(task, [0, 0], np.random.default_rng(0))

    @pytest.mark.parametrize("counts", [[1.7, 1], [3, -1], [2, np.nan], [np.inf, 1]])
    def test_class_batch_rejects_counts_that_are_not_whole_and_nonnegative(self, counts):
        with pytest.raises(ValueError, match=r"counts must be nonnegative whole numbers, got \["):
            sample_class_batch(semantic_moments(2), counts, np.random.default_rng(0))

    def test_class_batch_takes_whole_float_counts(self):
        x, y = sample_class_batch(semantic_moments(2), [2.0, 1.0], np.random.default_rng(0))
        want = sample_class_batch(semantic_moments(2), [2, 1], np.random.default_rng(0))
        assert np.array_equal(x, want[0]) and np.array_equal(y, want[1])


class TestPinnedDraws:
    """Rows drawn at fixed seeds, recorded once: a change to the samplers must keep every bit."""

    MIXTURE = class_mixture_moments([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]], 0.5)

    def test_class_mixture_batch(self):
        x, y = sample_batch(self.MIXTURE, 5, 7)
        assert np.array_equal(x, [
            [-1.445295919378637, -1.2273353925858612], [-0.4958232774982312, 2.0300718012987193],
            [-0.32989237722273324, -1.246103259275665], [-1.3102374499099703, -0.755078974907401],
            [0.17844350408003037, 2.052707124498949],
        ])
        assert np.array_equal(y, np.eye(3)[[2, 1, 2, 2, 1]])

    def test_class_mixture_class_batch(self):
        x, y = sample_class_batch(self.MIXTURE, [2, 0, 3], np.random.default_rng(4))
        assert np.array_equal(x, [
            [0.6741044236941551, -0.08735864616288858], [1.8318619956955984, 0.3295738749161275],
            [-1.8206986472923234, -1.002601632085966], [-1.3117318704941967, -0.9256842383739868],
            [-1.8040938920931944, -0.8791140615615743],
        ])
        assert np.array_equal(y, np.eye(3)[[0, 0, 2, 2, 2]])

    def test_semantic_batch(self):
        x, y = sample_batch(semantic_moments(3), 8, 3)
        items = [3, 0, 0, 0, 0, 3, 3, 2]
        assert np.array_equal(x, np.eye(4)[items]) and np.array_equal(y, hierarchy_matrix(3).T[items])

    def test_semantic_class_batch(self):
        x, y = sample_class_batch(semantic_moments(3), [1, 0, 2, 1], np.random.default_rng(4))
        items = [0, 2, 2, 3]
        assert np.array_equal(x, np.eye(4)[items]) and np.array_equal(y, hierarchy_matrix(3).T[items])


class TestBlockComposition:
    def test_block_diagonal_layout(self):
        a = two_gaussian_moments(1.0, 0.2)
        b = correlated_gaussian_moments(1.5, 0.5, 0.3, 0.3, 0.9)
        joint = compose_block_tasks([a, b])
        assert joint.input_dim == 3 and joint.output_dim == 3
        np.testing.assert_allclose(joint.sigma_x[0, 0], a.sigma_x[0, 0])
        np.testing.assert_allclose(joint.sigma_x[1:, 1:], b.sigma_x)
        # both families are mean-zero, so the cross blocks vanish here
        np.testing.assert_array_equal(joint.sigma_x[0:1, 1:], np.zeros((1, 2)))

    def test_independent_blocks_option(self):
        a = two_gaussian_moments(1.0, 0.2)
        b = two_gaussian_moments(2.0, 0.1)
        joint = compose_block_tasks([a, b], cross_means=False)
        assert joint.sigma_x[0, 1] == 0.0

    def test_cross_means_fill_off_diagonals(self):
        a = semantic_moments(2)  # mean_x = [0.5, 0.5]
        b = semantic_moments(2)
        joint = compose_block_tasks([a, b])
        np.testing.assert_allclose(
            joint.sigma_x[:2, 2:], np.outer(a.mean_x, b.mean_x), rtol=1e-15
        )

    @pytest.mark.parametrize("cross_means", [True, False])
    def test_three_tasks_match_a_pair_by_pair_reference(self, cross_means):
        """Unequal block sizes and nonzero means: every block, cross blocks included, is the exact product."""
        tasks = [semantic_moments(1), class_mixture_moments([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25]], 0.7),
                 semantic_moments(2)]
        joint = compose_block_tasks(tasks, cross_means=cross_means)
        ins = np.cumsum([0] + [t.input_dim for t in tasks])
        outs = np.cumsum([0] + [t.output_dim for t in tasks])
        want = [np.zeros((ins[-1], ins[-1])), np.zeros((ins[-1], outs[-1])), np.zeros((outs[-1], outs[-1]))]
        for a, ta in enumerate(tasks):
            for b, tb in enumerate(tasks):
                if a == b:
                    own = (ta.sigma_x, ta.sigma_xy, ta.sigma_y)
                elif cross_means:
                    own = (np.outer(ta.mean_x, tb.mean_x), np.outer(ta.mean_x, tb.mean_y),
                           np.outer(ta.mean_y, tb.mean_y))
                else:
                    continue
                want[0][ins[a]:ins[a + 1], ins[b]:ins[b + 1]] = own[0]
                want[1][ins[a]:ins[a + 1], outs[b]:outs[b + 1]] = own[1]
                want[2][outs[a]:outs[a + 1], outs[b]:outs[b + 1]] = own[2]
        for got, ref in zip((joint.sigma_x, joint.sigma_xy, joint.sigma_y), want):
            assert np.array_equal(got, ref)
        assert np.array_equal(joint.mean_x, np.concatenate([t.mean_x for t in tasks]))
        assert joint.blocks.input_slices == [(0, 1), (1, 3), (3, 5)]
        assert joint.blocks.output_slices == [(0, 1), (1, 4), (4, 7)]

    def test_block_map_bookkeeping(self):
        a = two_gaussian_moments(1.0, 0.2)
        b = correlated_gaussian_moments(1.5, 0.5, 0.3, 0.3, 0.9)
        joint = compose_block_tasks([a, b])
        assert isinstance(joint.blocks, BlockMap)
        assert joint.blocks.n_tasks == 2
        assert joint.blocks.output_sizes() == [1, 2]

    def test_composition_needs_a_task(self):
        with pytest.raises(ValueError, match="needs at least one task"):
            compose_block_tasks([])

    def test_composite_sampling_concatenates(self):
        a = two_gaussian_moments(1.0, 0.2)
        b = correlated_gaussian_moments(1.5, 0.5, 0.3, 0.3, 0.9)
        joint = compose_block_tasks([a, b])
        x, y = sample_batch(joint, 64, np.random.default_rng(1))
        assert x.shape == (64, 3) and y.shape == (64, 3)


class TestBiasAndFloor:
    def test_floor_via_direct_residual_arithmetic(self):
        """Half the residual trace at the least-squares solution."""
        task = correlated_gaussian_moments(1.3, 0.9, 0.4, 0.4, 0.85)
        w_star = np.linalg.solve(task.sigma_x, task.sigma_xy)
        expected = 0.5 * (np.trace(task.sigma_y) - np.trace(task.sigma_xy.T @ w_star))
        np.testing.assert_allclose(linear_regression_floor(task), expected, rtol=1e-13)

    def test_floor_zero_for_noise_free_task(self):
        task = semantic_moments(2)
        np.testing.assert_allclose(linear_regression_floor(task), 0.0, atol=1e-12)

    def test_floor_warns_on_near_singular_input(self):
        sx = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
        task = plain_moments(sx, np.ones((2, 1)), np.eye(1))
        with pytest.warns(UserWarning, match="singular"):
            linear_regression_floor(task)

    def test_moment_only_task_cannot_be_sampled(self):
        task = plain_moments(np.eye(2), np.ones((2, 1)), np.eye(1))
        with pytest.raises(UnsupportedOperationError, match="moments only"):
            sample_batch(task, 10, np.random.default_rng(0))

    def test_a_family_without_a_sampler_cannot_be_sampled(self):
        task = plain_moments(np.eye(2), np.ones((2, 1)), np.eye(1))
        task.sampling = SamplingSpec("mnist_digits")
        with pytest.raises(UnsupportedOperationError, match="no sampler for family 'mnist_digits'"):
            sample_batch(task, 10, np.random.default_rng(0))
