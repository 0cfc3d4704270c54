"""Control schedules: the free variables the optimizer moves.

A schedule is a piecewise-constant assignment of control values to integration
steps: `segment` consecutive steps share one value, so the optimizer can work
on a coarse grid while the integrator runs on a fine one.  Values are stored
as a tuple of arrays whose leading axis (except for init_weights) is the
number of segments; optimizer code treats that tuple generically.

Kinds:
  scalar_series        one scalar per segment (single-neuron gain, rate gain)
  matrix_pair_series   a gain matrix per layer per segment; single-layer
                       networks use a 1-tuple since there is no separate kind
                       for a lone matrix
  engagement_series    one weight per task per segment
  category_series      one weight per class per segment
  init_weights         the starting weights themselves (no time axis)
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import whole
from .idx import _emit

KINDS = (
    "scalar_series",
    "matrix_pair_series",
    "engagement_series",
    "category_series",
    "init_weights",
)


@dataclass
class ControlSchedule:
    kind: str
    values: tuple
    n_steps: int
    segment: int = 1
    bounds: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown control kind '{self.kind}'")
        if isinstance(self.values, np.ndarray):
            self.values = (self.values,)
        self.values = tuple(np.asarray(v, dtype=float) for v in self.values)
        self.n_steps, self.segment = whole("n_steps", self.n_steps, 1), whole("segment", self.segment, 1)
        if self.bounds is not None:
            lo, hi = self.bounds
            if not lo <= hi:
                raise ValueError(f"empty bounds interval ({lo}, {hi})")
            self.bounds = (float(lo), float(hi))
        if self.kind == "init_weights":
            if not self.values:
                raise ValueError("init_weights schedule needs at least one weight array")
        else:
            n_seg = self.n_segments
            for v in self.values:
                if v.shape[0] != n_seg:
                    raise ValueError(
                        f"series leading axis {v.shape[0]} != segment count {n_seg} "
                        f"(n_steps={self.n_steps}, segment={self.segment})"
                    )
        if self.kind == "matrix_pair_series" and len(self.values) not in (1, 2):
            raise ValueError("matrix_pair_series carries one or two gain series")

    # --- construction -------------------------------------------------------

    @classmethod
    def neutral(cls, kind, n_steps, segment=1, shapes=None, n_channels=None, bounds=None, state0=None):
        """Schedule whose expansion leaves the dynamics unmodified.

        Gains and rate boosts are neutral at 0, engagement weights at 1.
        For init_weights pass the baseline starting state in `state0`.
        """
        n_steps, segment = whole("n_steps", n_steps, 1), whole("segment", segment, 1)
        n_seg = -(-n_steps // segment)
        if kind == "scalar_series":
            values = (np.zeros(n_seg),)
        elif kind == "matrix_pair_series":
            if not shapes:
                raise ValueError("matrix_pair_series needs layer shapes")
            values = tuple(np.zeros((n_seg, *s)) for s in shapes)
        elif kind == "engagement_series" or kind == "category_series":
            if n_channels is None:
                raise ValueError(f"{kind} needs n_channels")
            values = (np.ones((n_seg, whole("n_channels", n_channels, 1))),)
        elif kind == "init_weights":
            if state0 is None:
                raise ValueError("init_weights needs the baseline state")
            values = tuple(np.array(w, dtype=float, copy=True) for w in state0)
        else:
            raise ValueError(f"unknown control kind '{kind}'")
        return cls(kind=kind, values=values, n_steps=n_steps, segment=segment, bounds=bounds)

    def with_values(self, values):
        return ControlSchedule(
            kind=self.kind,
            values=values,
            n_steps=self.n_steps,
            segment=self.segment,
            bounds=self.bounds,
        )

    # --- indexing -----------------------------------------------------------

    @property
    def n_segments(self):
        return -(-self.n_steps // self.segment)

    def segment_of(self, steps):
        """The segment of each step of an int array; step n_steps, the terminal state, is in the last segment."""
        return np.minimum(steps // self.segment, self.n_segments - 1)

    def at(self, step):
        """Control value governing integration step `step`.

        Returns a float (scalar_series), a row vector (engagement/category),
        a tuple of matrices (matrix_pair_series), or None for init_weights,
        which acts through the starting state instead.
        """
        if self.kind == "init_weights":
            return None
        s = min(step // self.segment, self.n_segments - 1)
        if self.kind == "scalar_series":
            return float(self.values[0][s])
        if self.kind == "matrix_pair_series":
            return tuple(v[s] for v in self.values)
        return self.values[0][s]

    def expand(self):
        """Per-step arrays (leading axis n_steps); mostly for tests and CSV."""
        if self.kind == "init_weights":
            return tuple(v.copy() for v in self.values)
        return tuple(v[self.segment_of(np.arange(self.n_steps))] for v in self.values)

    # --- gradient plumbing --------------------------------------------------

    def zero_grads(self):
        return tuple(np.zeros_like(v) for v in self.values)

    def add_grad(self, buffers, step, grad):
        """Accumulate a per-step control gradient into segment-shaped buffers.

        `grad` mirrors the structure of at(step), for a step below n_steps.
        """
        parts = grad if isinstance(grad, tuple) else (grad,)
        self.add_grads(buffers, step, [np.asarray(g, dtype=float)[None] for g in parts])

    def add_grads(self, buffers, lo, grads):
        """Accumulate the gradients of steps lo, lo+1, ... (one stack per buffer) into the buffers.

        Each segment adds its steps one at a time, last step first, as add_grad
        calls in a reverse sweep do: np.add.at adds the reversed stack index by
        index, in order.  Step n_steps, the terminal state scored under the
        last control, adds into the last segment, before that segment's steps.
        """
        if self.kind == "init_weights":
            raise ValueError("init_weights gradients are not per-step")
        segs = self.segment_of(np.arange(lo, lo + len(grads[0])))[::-1]
        for buf, g in zip(buffers, grads):
            np.add.at(buf, segs, g[::-1])

    # --- projection ---------------------------------------------------------

    def project(self, values=None):
        """Clamp this schedule's values, or `values` of its layout, into bounds; returns a new schedule (idempotent).

        The new schedule's arrays are copies, except given values, which it
        takes as they are where it has no bounds.
        """
        if values is None:
            values = self.values if self.bounds is not None else tuple(v.copy() for v in self.values)
        if self.bounds is not None:
            values = tuple(np.clip(v, *self.bounds) for v in values)
        return self.with_values(values)

    def out_of_bounds(self):
        if self.bounds is None:
            return False
        lo, hi = self.bounds
        return any(bool(np.any(v < lo) or np.any(v > hi)) for v in self.values)

    # --- serialization ------------------------------------------------------

    def to_doc(self):
        """The schedule as a JSON document of lists, numbers and strings."""
        return {
            "kind": self.kind,
            "n_steps": self.n_steps,
            "segment": self.segment,
            "bounds": list(self.bounds) if self.bounds is not None else None,
            "shapes": [list(v.shape) for v in self.values],
            "values": [v.tolist() for v in self.values],
        }

    def to_json(self):
        """The schedule as JSON text with 17-significant-digit floats: a bundle's schedule.json, less its newline."""
        return _emit(self.to_doc())

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        values = tuple(
            np.asarray(v, dtype=float).reshape(shape)
            for v, shape in zip(doc["values"], [tuple(s) for s in doc["shapes"]])
        )
        return cls(
            kind=doc["kind"],
            values=values,
            n_steps=doc["n_steps"],
            segment=doc["segment"],
            bounds=tuple(doc["bounds"]) if doc.get("bounds") is not None else None,
        )


def segment_sumsq(values):
    """Sum of squares of each segment's control over all parts of a series' values, one entry per segment."""
    return sum((v * v).reshape(len(v), -1).sum(axis=1) for v in values)


def init_weights_control(state0):
    """Wrap a starting state as an init_weights schedule (the MAML handle)."""
    return ControlSchedule.neutral("init_weights", 1, state0=state0)
