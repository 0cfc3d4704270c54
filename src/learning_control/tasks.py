"""Task statistics: second moments of (input, target) pairs, plus samplers.

Average learning dynamics of a linear network depend on the data only through
sigma_x = <x x^T>, sigma_xy = <x y^T> and sigma_y = <y y^T>, so a task here is
just those moments (plus means, which matter for block composition and for the
nonlinear Taylor flow).  Generators for the synthetic families used by the
experiments live here too, each with a declarative sampling spec so batches
can be drawn for SGD validation without dragging closures around.
"""

import warnings
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import UnsupportedOperationError

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10


@dataclass
class SamplingSpec:
    """Declarative description of how to draw (x, y) samples for a task.

    Kept as plain data (family name + params) so tasks stay picklable for
    process-pool sweeps and serializable alongside configs.
    """

    family: str
    params: dict = field(default_factory=dict)


@dataclass
class BlockMap:
    """Index ranges of each constituent task inside a block-composed task."""

    input_slices: list
    output_slices: list

    @property
    def n_tasks(self):
        return len(self.output_slices)

    def output_sizes(self):
        return [stop - start for start, stop in self.output_slices]


@dataclass
class TaskMoments:
    """Second-order statistics of a supervised task.

    sigma_x is I x I, sigma_xy is I x O (input indexes rows), sigma_y is
    O x O.  Symmetry and positive semidefiniteness of the quadratic moments
    are checked on construction; generators are expected to produce exactly
    consistent matrices, so the tolerances are tight.
    """

    sigma_x: np.ndarray
    sigma_xy: np.ndarray
    sigma_y: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    name: str = ""
    sampling: SamplingSpec | None = None
    blocks: BlockMap | None = None

    def __post_init__(self):
        self.sigma_x = np.atleast_2d(np.asarray(self.sigma_x, dtype=float))
        self.sigma_xy = np.atleast_2d(np.asarray(self.sigma_xy, dtype=float))
        self.sigma_y = np.atleast_2d(np.asarray(self.sigma_y, dtype=float))
        self.mean_x = np.asarray(self.mean_x, dtype=float).reshape(-1)
        self.mean_y = np.asarray(self.mean_y, dtype=float).reshape(-1)
        for label in ("sigma_x", "sigma_xy", "sigma_y", "mean_x", "mean_y"):
            if not np.isfinite(getattr(self, label)).all():
                raise ValueError(f"{label} has a non-finite entry")
        i_dim, o_dim = self.sigma_xy.shape
        if self.sigma_x.shape != (i_dim, i_dim):
            raise ValueError(f"sigma_x shape {self.sigma_x.shape} inconsistent with sigma_xy {self.sigma_xy.shape}")
        if self.sigma_y.shape != (o_dim, o_dim):
            raise ValueError(f"sigma_y shape {self.sigma_y.shape} inconsistent with sigma_xy {self.sigma_xy.shape}")
        if self.mean_x.shape != (i_dim,) or self.mean_y.shape != (o_dim,):
            raise ValueError("mean_x/mean_y lengths do not match the moment matrices")
        for label, mat in (("sigma_x", self.sigma_x), ("sigma_y", self.sigma_y)):
            skew = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
            if skew > SYMMETRY_TOL:
                raise ValueError(f"{label} is not symmetric (max asymmetry {skew:.3e})")
            if mat.size:
                low = float(np.min(np.linalg.eigvalsh(mat)))
                if low < PSD_TOL:
                    raise ValueError(f"{label} is not positive semidefinite (min eigenvalue {low:.3e})")

    @property
    def input_dim(self):
        return self.sigma_xy.shape[0]

    @property
    def output_dim(self):
        return self.sigma_xy.shape[1]


def two_gaussian_moments(mu=1.0, sigma=1.0, name="two_gaussian"):
    """Scalar discrimination task: y = +-1 equiprobable, x | y ~ N(y*mu, sigma^2)."""
    mu = float(mu)
    sigma = float(sigma)
    return TaskMoments(
        sigma_x=[[mu * mu + sigma * sigma]],
        sigma_xy=[[mu]],
        sigma_y=[[1.0]],
        mean_x=[0.0],
        mean_y=[0.0],
        name=name,
        sampling=SamplingSpec("two_gaussian", {"mu": mu, "sigma": sigma}),
    )


def correlated_gaussian_moments(mu1, mu2, sigma1, sigma2, flip_p, name="correlated_gaussian"):
    """Pair of scalar discrimination tasks with correlated labels.

    y1 = +-1 equiprobable; y2 equals y1 except flipped with probability
    flip_p, so <y1 y2> = 1 - 2*flip_p.  Each input is x_i = mu_i*y_i +
    sigma_i*noise with independent noise.  flip_p near 0 or 1 makes the pair
    highly informative about each other; flip_p = 0.5 decouples them.
    """
    mu1, mu2, sigma1, sigma2, flip_p = (float(v) for v in (mu1, mu2, sigma1, sigma2, flip_p))
    if not 0.0 <= flip_p <= 1.0:
        raise ValueError(f"flip_p must lie in [0, 1], got {flip_p}")
    c = 1.0 - 2.0 * flip_p
    sigma_x = [
        [mu1 * mu1 + sigma1 * sigma1, mu1 * mu2 * c],
        [mu1 * mu2 * c, mu2 * mu2 + sigma2 * sigma2],
    ]
    sigma_xy = [
        [mu1, mu1 * c],
        [mu2 * c, mu2],
    ]
    sigma_y = [[1.0, c], [c, 1.0]]
    return TaskMoments(
        sigma_x=sigma_x,
        sigma_xy=sigma_xy,
        sigma_y=sigma_y,
        mean_x=[0.0, 0.0],
        mean_y=[0.0, 0.0],
        name=name,
        sampling=SamplingSpec(
            "correlated_gaussian",
            {"mu1": mu1, "mu2": mu2, "sigma1": sigma1, "sigma2": sigma2, "flip_p": flip_p},
        ),
    )


def hierarchy_matrix(levels):
    """Feature matrix of a balanced binary hierarchy with the given depth.

    Items are the 2^(levels-1) leaves; every tree node (root first, then each
    level left to right) contributes one binary feature marking its
    descendants.  Shape is (2^levels - 1, 2^(levels-1)).
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n_items = 2 ** (levels - 1)
    rows = []
    for level in range(levels):
        n_nodes = 2**level
        width = n_items // n_nodes
        for k in range(n_nodes):
            row = np.zeros(n_items)
            row[k * width : (k + 1) * width] = 1.0
            rows.append(row)
    return np.array(rows)


def semantic_moments(levels, name="semantic"):
    """Hierarchically structured one-hot task.

    Convention: one item is presented per unit time, so the stored quadratic
    moments are per-presentation sums over the item set (sigma_x comes out as
    the identity); the sampling moments equal these divided by the item count.
    Means are stored as sampling means.
    """
    feat = hierarchy_matrix(levels)
    n_items = feat.shape[1]
    return TaskMoments(
        sigma_x=np.eye(n_items),
        sigma_xy=feat.T.copy(),
        sigma_y=feat @ feat.T,
        mean_x=np.full(n_items, 1.0 / n_items),
        mean_y=feat.sum(axis=1) / n_items,
        name=name,
        sampling=SamplingSpec("semantic", {"levels": int(levels)}),
    )


def class_mixture_moments(means, sigma, name="class_mixture"):
    """Gaussian mixture classification task with one-hot targets.

    Classes are equiprobable; x | class c ~ N(means[c], sigma^2 I).  Used as
    the synthetic stand-in for image-moment tasks when no data file is given.
    """
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigma = float(sigma)
    n_classes, i_dim = means.shape
    sigma_x = means.T @ means / n_classes + sigma * sigma * np.eye(i_dim)
    sigma_xy = means.T / n_classes
    sigma_y = np.eye(n_classes) / n_classes
    return TaskMoments(
        sigma_x=sigma_x,
        sigma_xy=sigma_xy,
        sigma_y=sigma_y,
        mean_x=means.mean(axis=0),
        mean_y=np.full(n_classes, 1.0 / n_classes),
        name=name,
        sampling=SamplingSpec("class_mixture", {"means": means.tolist(), "sigma": sigma}),
    )


def compose_block_tasks(tasks, cross_means=True, name="composite"):
    """Stack independent tasks into one joint task on concatenated vectors.

    Inputs and targets of all tasks are concatenated.  Each moment matrix
    starts as the outer product of the joint means (exact across independent
    tasks), or as zeros when cross_means is False, and then takes each
    constituent's own moments on its diagonal block.  The returned task
    carries a BlockMap so block-aware dynamics can address each
    constituent's rows.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("compose_block_tasks needs at least one task")
    in_offsets = list(accumulate([t.input_dim for t in tasks], initial=0))
    out_offsets = list(accumulate([t.output_dim for t in tasks], initial=0))
    blocks = BlockMap(list(zip(in_offsets, in_offsets[1:])), list(zip(out_offsets, out_offsets[1:])))
    mean_x = np.concatenate([t.mean_x for t in tasks])
    mean_y = np.concatenate([t.mean_y for t in tasks])
    outer = np.outer if cross_means else lambda a, b: np.zeros((a.size, b.size))
    sigma_x, sigma_xy, sigma_y = outer(mean_x, mean_x), outer(mean_x, mean_y), outer(mean_y, mean_y)
    for t, (i0, i1), (o0, o1) in zip(tasks, blocks.input_slices, blocks.output_slices):
        sigma_x[i0:i1, i0:i1] = t.sigma_x
        sigma_xy[i0:i1, o0:o1] = t.sigma_xy
        sigma_y[o0:o1, o0:o1] = t.sigma_y

    sampling = None
    if all(t.sampling is not None for t in tasks):
        sampling = SamplingSpec("composite", {"children": [t.sampling for t in tasks]})
    return TaskMoments(
        sigma_x=sigma_x,
        sigma_xy=sigma_xy,
        sigma_y=sigma_y,
        mean_x=mean_x,
        mean_y=mean_y,
        name=name,
        sampling=sampling,
        blocks=blocks,
    )


# --- sampling ---------------------------------------------------------------


def _sample_two_gaussian(params, n, rng):
    y = rng.integers(0, 2, size=n) * 2.0 - 1.0
    x = params["mu"] * y + params["sigma"] * rng.standard_normal(n)
    return x[:, None], y[:, None]


def _sample_correlated_gaussian(params, n, rng):
    y1 = rng.integers(0, 2, size=n) * 2.0 - 1.0
    flip = rng.random(n) < params["flip_p"]
    y2 = np.where(flip, -y1, y1)
    x1 = params["mu1"] * y1 + params["sigma1"] * rng.standard_normal(n)
    x2 = params["mu2"] * y2 + params["sigma2"] * rng.standard_normal(n)
    return np.column_stack([x1, x2]), np.column_stack([y1, y2])


def _semantic_rows(params, cls, rng):
    feat = hierarchy_matrix(params["levels"])
    return np.eye(feat.shape[1])[cls], feat.T[cls]


def _class_mixture_rows(params, cls, rng):
    means = np.asarray(params["means"], dtype=float)
    x = means[cls] + params["sigma"] * rng.standard_normal((len(cls), means.shape[1]))
    return x, np.eye(means.shape[0])[cls]


# class-labelled families: (number of classes, (x, y) rows given each row's class)
_CLASS_FAMILIES = {
    "semantic": (lambda params: hierarchy_matrix(params["levels"]).shape[1], _semantic_rows),
    "class_mixture": (lambda params: len(params["means"]), _class_mixture_rows),
}


def _sample_composite(params, n, rng):
    xs, ys = [], []
    for child in params["children"]:
        x, y = _sample_spec(child, n, rng)
        xs.append(x)
        ys.append(y)
    return np.hstack(xs), np.hstack(ys)


_SAMPLERS = {
    "two_gaussian": _sample_two_gaussian,
    "correlated_gaussian": _sample_correlated_gaussian,
    "composite": _sample_composite,
}


def _sample_spec(spec, n, rng):
    if spec.family in _CLASS_FAMILIES:
        n_classes, rows = _CLASS_FAMILIES[spec.family]
        return rows(spec.params, rng.integers(0, n_classes(spec.params), size=n), rng)
    try:
        fn = _SAMPLERS[spec.family]
    except KeyError:
        raise UnsupportedOperationError(f"no sampler for family '{spec.family}'") from None
    return fn(spec.params, n, rng)


def sample_batch(task, batch_size, rng):
    """Draw a batch of (X, Y) rows for a task with a known generative family.

    `rng` is a seed or a numpy Generator.  Moment-only tasks (e.g. estimated
    from an image archive) raise UnsupportedOperationError.
    """
    if task.sampling is None:
        raise UnsupportedOperationError(
            f"task '{task.name or '<unnamed>'}' carries moments only and cannot be sampled"
        )
    return _sample_spec(task.sampling, int(batch_size), np.random.default_rng(rng))


def sample_class_batch(task, counts, rng):
    """Draw a batch of counts[c] rows of each class c, ordered by class.

    Defined for the class-labelled families (class_mixture, semantic): the
    rows are the family's rows for the classes np.repeat(arange(k), counts),
    drawn as sample_batch draws them once it has drawn the classes.  Callers
    shuffle if they care about order.
    """
    if task.sampling is None:
        raise UnsupportedOperationError("moment-only task cannot be sampled per class")
    family = task.sampling.family
    if family not in _CLASS_FAMILIES:
        raise UnsupportedOperationError(f"per-class sampling not defined for family '{family}'")
    n_classes, rows = _CLASS_FAMILIES[family]
    k = n_classes(task.sampling.params)
    whole = np.asarray(counts, dtype=float)
    if whole.shape != (k,):
        raise ValueError(f"counts must have length {k}")
    if not (np.isfinite(whole) & (whole >= 0) & (np.floor(whole) == whole)).all():
        raise ValueError(f"counts must be nonnegative whole numbers, got {whole.tolist()}")
    counts = whole.astype(int)
    if counts.sum() == 0:
        raise ValueError("counts must ask for at least one row")
    return rows(task.sampling.params, np.repeat(np.arange(k), counts), np.random.default_rng(rng))


def linear_regression_floor(task):
    """Minimum expected square loss of an unregularized linear map on the task.

    0.5 * Tr(sigma_y - sigma_xy^T sigma_x^+ sigma_xy); the pseudo-inverse is
    used (with a warning) when sigma_x is singular, which is the right
    generalization for rank-deficient inputs.
    """
    sx = task.sigma_x
    sxy = task.sigma_xy
    eigs = np.linalg.eigvalsh(sx)
    scale = float(eigs[-1]) if sx.size else 0.0
    if sx.size == 0:
        return 0.5 * float(np.trace(task.sigma_y))
    if eigs[0] <= 1e-12 * max(scale, 1.0):
        warnings.warn("sigma_x is singular; using the pseudo-inverse for the regression floor")
        solved = np.linalg.pinv(sx) @ sxy
    else:
        solved = np.linalg.solve(sx, sxy)
    return 0.5 * (float(np.trace(task.sigma_y)) - float(np.sum(sxy * solved)))
