"""IDX tensor files and image-moment estimation.

The IDX format (the MNIST container) is a four-byte magic (two zero bytes,
a dtype code, a rank) followed by big-endian u32 dimensions and big-endian
payload.  Parsing and serialization round-trip bit for bit, which the tests
assert on raw bytes.

The rest of the module turns label/image archives into TaskMoments: area
weighted downsampling to a small grid, digit filtering, plus/minus-one or
one-hot target encodings, optional balanced resampling, and a JSON writer
whose floats carry 17 significant digits so files round-trip exactly.
"""

import gzip
import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, whole
from .tasks import TaskMoments

_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


@dataclass
class IdxTensor:
    dtype_code: int
    data: np.ndarray


def parse_idx(raw):
    """Parse IDX bytes into an IdxTensor (native-order array, code preserved)."""
    if len(raw) < 4:
        raise DataFormatError("IDX data shorter than the 4-byte magic")
    zero0, zero1, code, rank = raw[0], raw[1], raw[2], raw[3]
    if zero0 != 0 or zero1 != 0:
        raise DataFormatError(f"bad IDX magic: first two bytes {zero0:#04x} {zero1:#04x}, expected zeros")
    if code not in _DTYPES:
        raise DataFormatError(f"unknown IDX dtype code {code:#04x}")
    header_end = 4 + 4 * rank
    if len(raw) < header_end:
        raise DataFormatError(f"IDX header truncated: rank {rank} needs {header_end} bytes")
    dims = struct.unpack(f">{rank}I", raw[4:header_end]) if rank else ()
    dtype = _DTYPES[code]
    count = 1
    for d in dims:
        count *= d
    expected = header_end + count * dtype.itemsize
    if len(raw) != expected:
        raise DataFormatError(f"IDX payload size {len(raw) - header_end} != expected {count * dtype.itemsize}")
    data = np.frombuffer(raw, dtype=dtype, offset=header_end).reshape(dims)
    return IdxTensor(dtype_code=int(code), data=data.astype(dtype.newbyteorder("=")))


def serialize_idx(tensor):
    """Inverse of parse_idx; identical bytes for an unmodified tensor."""
    code = tensor.dtype_code
    if code not in _DTYPES:
        raise DataFormatError(f"unknown IDX dtype code {code:#04x}")
    data = np.ascontiguousarray(tensor.data.astype(_DTYPES[code]))
    rank = data.ndim
    head = bytes([0, 0, code, rank]) + struct.pack(f">{rank}I", *data.shape)
    return head + data.tobytes()


def load_idx(path):
    """Read an IDX file, transparently decompressing gzip; a truncated or corrupt gzip stream is a DataFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error) as err:
            raise DataFormatError(f"{path}: damaged gzip stream: {err}") from None
    return parse_idx(raw)


def _overlap_weights(src, dst):
    """(dst, src) matrix of fractional pixel coverage; rows average, not sum."""
    w = np.zeros((dst, src))
    width = src / dst
    for r in range(dst):
        lo = r * width
        hi = (r + 1) * width
        for i in range(int(np.floor(lo)), min(src, int(np.ceil(hi)))):
            w[r, i] = (min(hi, i + 1) - max(lo, i)) / width
    return w


def downsample(images, out_size=5):
    """Area-weighted pooling of (n, H, W) images to (n, out_size, out_size).

    Integer inputs are rescaled to [0, 1] first (divide by the dtype max).
    Each output cell is the average intensity over its exact fractional
    source patch, so the per-image mean is preserved.
    """
    images = np.asarray(images)
    if images.ndim == 2:
        images = images[None, :, :]
    if np.issubdtype(images.dtype, np.integer):
        images = images.astype(float) / float(np.iinfo(images.dtype).max)
    else:
        images = images.astype(float)
    n, h, w = images.shape
    wh = _overlap_weights(h, out_size)
    ww = _overlap_weights(w, out_size)
    return np.einsum("ri,nij,cj->nrc", wh, images, ww)


@dataclass
class DigitFilter:
    """Keeps samples whose label is one of `digits` (order defines encoding slots)."""

    digits: list

    def __post_init__(self):
        self.digits = [whole("digits", d) for d in self.digits]
        if len(set(self.digits)) != len(self.digits):
            raise ValueError("duplicate digits in filter")
        if not self.digits:
            raise ValueError("empty digit filter")

    def mask(self, labels):
        labels = np.asarray(labels)
        return np.isin(labels, self.digits)


def _check_size(name, size):
    """A count argument is a Python or numpy integer (not a bool) of at least 1, else a ValueError naming it."""
    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {size!r}")
    if size < 1:
        raise ValueError(f"{name} must be at least 1, got {size}")


def estimate_moments(images, labels, digit_filter=None, encoding="onehot", bias=False, balanced=True, limit=None, out_size=5):
    """Empirical TaskMoments from an image archive.

    images: (n, H, W) raw intensities; labels: (n,) integers.  `limit`, an
    integer of at least 1, caps the number of examples considered (taken from
    the front, before filtering); `out_size`, an integer of at least 1, is the
    side of the downsampled images.  With `balanced`, each selected class is
    truncated to the smallest class count (first occurrences win), which makes one-hot
    target means exactly uniform.  pm1 encoding needs exactly two digits and
    maps the first to +1.  Returns (TaskMoments, counts_by_digit).
    """
    images = np.asarray(images)
    labels = np.asarray(labels).reshape(-1)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(f"{images.shape[0]} images but {labels.shape[0]} labels")
    _check_size("out_size", out_size)
    if limit is not None:
        _check_size("limit", limit)
        images = images[:limit]
        labels = labels[:limit]
    if digit_filter is None:
        digit_filter = DigitFilter(sorted(np.unique(labels).tolist()))
    elif not isinstance(digit_filter, DigitFilter):
        digit_filter = DigitFilter(list(digit_filter))
    keep = digit_filter.mask(labels)
    images = images[keep]
    labels = labels[keep]
    if labels.size == 0:
        raise DataFormatError("no samples left after digit filtering")

    if balanced:
        per_class = min(int(np.sum(labels == d)) for d in digit_filter.digits)
        if per_class == 0:
            raise DataFormatError("a requested digit has no samples")
        chosen = []
        for d in digit_filter.digits:
            idx = np.flatnonzero(labels == d)[:per_class]
            chosen.append(idx)
        order = np.sort(np.concatenate(chosen))
        images = images[order]
        labels = labels[order]

    small = downsample(images, out_size=out_size)
    x = small.reshape(small.shape[0], -1)
    if bias:
        x = np.hstack([x, np.ones((x.shape[0], 1))])

    if encoding == "pm1":
        if len(digit_filter.digits) != 2:
            raise ValueError("pm1 encoding needs exactly two digits")
        y = np.where(labels == digit_filter.digits[0], 1.0, -1.0)[:, None]
    elif encoding == "onehot":
        slot = {d: k for k, d in enumerate(digit_filter.digits)}
        y = np.zeros((labels.size, len(digit_filter.digits)))
        y[np.arange(labels.size), [slot[int(v)] for v in labels]] = 1.0
    else:
        raise ValueError(f"unknown encoding '{encoding}'")

    n = x.shape[0]
    task = TaskMoments(
        sigma_x=x.T @ x / n,
        sigma_xy=x.T @ y / n,
        sigma_y=y.T @ y / n,
        mean_x=x.mean(axis=0),
        mean_y=y.mean(axis=0),
        name=f"idx[{','.join(str(d) for d in digit_filter.digits)}]",
    )
    counts = {d: int(np.sum(labels == d)) for d in digit_filter.digits}
    return task, counts


# --- moments JSON ------------------------------------------------------------


def _emit(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isfinite(obj):
            # json.loads reads "-0" as the integer 0, which drops the sign
            return "-0.0" if obj == 0.0 and math.copysign(1.0, obj) < 0 else format(obj, ".17g")
        # json.loads understands these spellings; plain 'inf' it does not
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj)}")


def write_moments_json(task, path, extras=None):
    """Write moments as JSON with 17-significant-digit floats (row-major lists)."""
    doc = {
        "input_dim": task.input_dim,
        "output_dim": task.output_dim,
        "sigma_x": task.sigma_x,
        "sigma_xy": task.sigma_xy,
        "sigma_y": task.sigma_y,
        "mean_x": task.mean_x,
        "mean_y": task.mean_y,
    }
    if extras:
        doc.update(extras)
    text = "{\n" + ",\n".join(f"  {json.dumps(k)}: {_emit(v)}" for k, v in doc.items()) + "\n}\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


def read_moments_json(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return TaskMoments(
            sigma_x=np.asarray(doc["sigma_x"], dtype=float),
            sigma_xy=np.asarray(doc["sigma_xy"], dtype=float),
            sigma_y=np.asarray(doc["sigma_y"], dtype=float),
            mean_x=np.asarray(doc["mean_x"], dtype=float),
            mean_y=np.asarray(doc["mean_y"], dtype=float),
            name=str(doc.get("name", "moments")),
        )
    except KeyError as missing:
        raise DataFormatError(f"moments JSON missing key {missing}") from None
