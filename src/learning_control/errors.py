"""Exception types shared across the package, and the shared finite-field and whole-count checks.

The CLI maps these onto exit codes (config 2, divergence 3, I/O 4), so library
code should raise the most specific one that applies instead of bare ValueError
whenever the condition is user-facing.
"""

import math
from dataclasses import fields

import numpy as np


def check_finite(spec):
    """Raise ValueError naming the first float field of the dataclass `spec` that is nan or infinite.

    A spec's own validation raises ValueError, which set_fields words as a ConfigError.
    """
    for f in fields(spec):
        if f.type is float and not math.isfinite(getattr(spec, f.name)):
            raise ValueError(f"{f.name} must be finite, got {getattr(spec, f.name)}")


def whole(name, value, least=None):
    """The count `value` as an int; a non-number (a bool, or what has no __float__: text, any buffer, which
    float() reads as text, None, a container), a fraction, a non-finite number, one past the float range or one
    below `least` (0 or 1, when given) is a ValueError naming `name`."""
    try:
        fraction = (isinstance(value, (bool, np.bool_)) or not hasattr(type(value), "__float__")
                    or not float(value).is_integer())
    except OverflowError:
        raise ValueError(f"{name} must be a whole number within the float range") from None
    except TypeError:  # the __float__ of an array of more than one entry
        fraction = True
    if fraction:
        raise ValueError(f"{name} must be a whole number, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")
    return int(value)


class LearningControlError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(LearningControlError):
    """Bad user input: malformed config file, unknown key, invalid combination.

    Carries optional file/line provenance so the CLI can point at the
    offending line.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class DivergenceError(LearningControlError):
    """Numerical blow-up during integration (a weight left the trust region)."""


class DataFormatError(LearningControlError):
    """Malformed binary/tensor input, e.g. a truncated or mislabeled IDX file."""


class UnsupportedOperationError(LearningControlError):
    """A well-formed request the current object cannot honor.

    Typical case: asking a moment-only task (no known generative family)
    for samples.
    """
