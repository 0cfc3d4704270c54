"""IDX container round trips, downsampling oracles, and moment estimation.

All archives here are synthesized in-memory, so expected values are known
exactly (byte-level for the container, closed-form for the pooling).
"""

import gzip
import json
import re
import struct

import numpy as np
import pytest

from learning_control.errors import DataFormatError
from learning_control.idx import (
    DigitFilter,
    IdxTensor,
    _emit,
    downsample,
    estimate_moments,
    load_idx,
    parse_idx,
    read_moments_json,
    serialize_idx,
    write_moments_json,
)


def make_idx(code, dims, payload):
    head = bytes([0, 0, code, len(dims)]) + struct.pack(f">{len(dims)}I", *dims)
    return head + payload


class TestIdxContainer:
    @pytest.mark.parametrize(
        "code,dtype",
        [(0x08, ">u1"), (0x09, ">i1"), (0x0B, ">i2"), (0x0C, ">i4"), (0x0D, ">f4"), (0x0E, ">f8")],
    )
    def test_round_trip_bytes_every_dtype(self, code, dtype):
        rng = np.random.default_rng(code)
        arr = (rng.integers(0, 100, size=(2, 3))).astype(np.dtype(dtype))
        raw = make_idx(code, (2, 3), arr.tobytes())
        tensor = parse_idx(raw)
        assert tensor.dtype_code == code
        assert serialize_idx(tensor) == raw

    def test_parse_values(self):
        raw = make_idx(0x08, (2, 2), bytes([10, 20, 30, 40]))
        tensor = parse_idx(raw)
        np.testing.assert_array_equal(tensor.data, [[10, 20], [30, 40]])

    def test_rank_zero(self):
        raw = make_idx(0x08, (), bytes([7]))
        assert parse_idx(raw).data == 7

    def test_big_endian_layout(self):
        raw = make_idx(0x0B, (1,), struct.pack(">h", 258))
        assert parse_idx(raw).data[0] == 258

    def test_rejects_short_magic(self):
        with pytest.raises(DataFormatError, match="shorter"):
            parse_idx(b"\x00\x00\x08")

    def test_rejects_nonzero_lead_bytes(self):
        with pytest.raises(DataFormatError, match="magic"):
            parse_idx(b"\x01\x00\x08\x01" + struct.pack(">I", 0))

    def test_rejects_unknown_dtype_code(self):
        with pytest.raises(DataFormatError, match="dtype code"):
            parse_idx(b"\x00\x00\x0a\x01" + struct.pack(">I", 0))

    def test_rejects_truncated_header(self):
        with pytest.raises(DataFormatError, match="truncated"):
            parse_idx(b"\x00\x00\x08\x03" + struct.pack(">I", 1))

    def test_rejects_size_mismatch(self):
        raw = make_idx(0x08, (4,), bytes([1, 2, 3]))
        with pytest.raises(DataFormatError, match="size"):
            parse_idx(raw)

    def test_load_plain_and_gzipped(self, tmp_path):
        raw = make_idx(0x08, (3,), bytes([5, 6, 7]))
        plain = tmp_path / "t.idx"
        plain.write_bytes(raw)
        packed = tmp_path / "t.idx.gz"
        packed.write_bytes(gzip.compress(raw))
        np.testing.assert_array_equal(load_idx(plain).data, [5, 6, 7])
        np.testing.assert_array_equal(load_idx(packed).data, [5, 6, 7])

    def test_serialize_rejects_bad_code(self):
        with pytest.raises(DataFormatError):
            serialize_idx(IdxTensor(dtype_code=0x42, data=np.zeros(2)))


class TestDownsample:
    def test_identity_when_sizes_match(self):
        img = np.arange(25, dtype=float).reshape(1, 5, 5)
        np.testing.assert_allclose(downsample(img, out_size=5), img, rtol=1e-14)

    def test_constant_image_stays_constant(self):
        img = np.full((2, 28, 28), 0.37)
        out = downsample(img, out_size=5)
        np.testing.assert_allclose(out, np.full((2, 5, 5), 0.37), rtol=1e-13)

    def test_per_image_mean_preserved(self):
        rng = np.random.default_rng(0)
        imgs = rng.random((4, 28, 28))
        out = downsample(imgs, out_size=5)
        np.testing.assert_allclose(out.mean(axis=(1, 2)), imgs.mean(axis=(1, 2)), rtol=1e-12)

    def test_integer_rescaling_by_dtype_max(self):
        img = np.full((1, 4, 4), 255, dtype=np.uint8)
        np.testing.assert_allclose(downsample(img, out_size=2), np.ones((1, 2, 2)), rtol=1e-14)
        wide = np.full((1, 4, 4), 2**15 - 1, dtype=np.int16)
        np.testing.assert_allclose(downsample(wide, out_size=2), np.ones((1, 2, 2)), rtol=1e-14)

    def test_fractional_overlap_hand_case(self):
        """3 -> 2 pooling: each output covers 1.5 source cells."""
        img = np.array([[[0.0, 3.0, 6.0]]]) * np.ones((1, 3, 1))
        out = downsample(img, out_size=2)
        # first column: (1*0 + 0.5*3) / 1.5 = 1.0; second: (0.5*3 + 1*6) / 1.5 = 5.0
        np.testing.assert_allclose(out[0, 0], [1.0, 5.0], rtol=1e-14)

    def test_single_image_promoted(self):
        out = downsample(np.ones((6, 6)), out_size=3)
        assert out.shape == (1, 3, 3)


class TestDigitFilter:
    def test_mask(self):
        f = DigitFilter([3, 8])
        np.testing.assert_array_equal(f.mask([1, 3, 8, 8, 2]), [False, True, True, True, False])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DigitFilter([1, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DigitFilter([])

    @pytest.mark.parametrize("digits, got", [([1.5, 2], "1.5"), ([True, 2], "True")])
    def test_rejects_a_fractional_or_bool_digit(self, digits, got):
        with pytest.raises(ValueError, match=f"digits must be a whole number, got {got}"):
            DigitFilter(digits)

    def test_whole_digits_of_another_type_are_kept_as_ints(self):
        f = DigitFilter([3.0, np.int64(8)])
        assert f.digits == [3, 8] and all(type(d) is int for d in f.digits)


def toy_archive():
    """Six 4x4 'images' with three labels; class intensity is the label."""
    labels = np.array([0, 1, 2, 0, 1, 2])
    images = np.stack([np.full((4, 4), 10.0 * (lab + 1)) for lab in labels])
    return images, labels


class TestEstimateMoments:
    def test_onehot_target_trace_is_one_when_balanced(self):
        images, labels = toy_archive()
        task, counts = estimate_moments(images, labels, out_size=2)
        np.testing.assert_allclose(np.trace(task.sigma_y), 1.0, rtol=1e-15)
        assert counts == {0: 2, 1: 2, 2: 2}

    def test_balancing_truncates_to_smallest_class(self):
        images, labels = toy_archive()
        images = np.concatenate([images, images[:1]])  # extra label-0 image
        labels = np.concatenate([labels, [0]])
        task, counts = estimate_moments(images, labels, out_size=2)
        assert counts == {0: 2, 1: 2, 2: 2}
        np.testing.assert_allclose(task.mean_y, np.full(3, 1.0 / 3.0), rtol=1e-15)

    def test_pm1_encoding_signs(self):
        images, labels = toy_archive()
        task, _ = estimate_moments(
            images, labels, digit_filter=[2, 0], encoding="pm1", out_size=2
        )
        # digit 2 maps to +1 and has intensity 30, digit 0 to -1 with 10
        assert task.output_dim == 1
        np.testing.assert_allclose(task.mean_y, [0.0], atol=1e-15)
        assert task.sigma_xy[0, 0] > 0

    def test_pm1_needs_two_digits(self):
        images, labels = toy_archive()
        with pytest.raises(ValueError, match="two digits"):
            estimate_moments(images, labels, encoding="pm1", out_size=2)

    def test_bias_column(self):
        images, labels = toy_archive()
        task, _ = estimate_moments(images, labels, bias=True, out_size=2)
        assert task.input_dim == 5
        np.testing.assert_allclose(task.sigma_x[4, 4], 1.0, rtol=1e-15)

    def test_a_requested_digit_without_samples_is_refused(self):
        images, labels = toy_archive()
        with pytest.raises(DataFormatError, match="a requested digit has no samples"):
            estimate_moments(images, labels, digit_filter=[0, 7], out_size=2)

    def test_an_unknown_encoding_is_refused(self):
        images, labels = toy_archive()
        with pytest.raises(ValueError, match="unknown encoding 'ordinal'"):
            estimate_moments(images, labels, encoding="ordinal", out_size=2)

    def test_limit_applies_before_filtering(self):
        images, labels = toy_archive()
        with pytest.raises(DataFormatError, match="no samples"):
            estimate_moments(images, labels, digit_filter=[2], limit=2, out_size=2)

    @pytest.mark.parametrize("limit", [0, -4])
    def test_a_limit_below_one_is_rejected(self, limit):
        images, labels = toy_archive()
        with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
            estimate_moments(images, labels, limit=limit, out_size=2)

    @pytest.mark.parametrize("out_size", [0, -2])
    def test_an_out_size_below_one_is_rejected(self, out_size):
        images, labels = toy_archive()
        with pytest.raises(ValueError, match=f"out_size must be at least 1, got {out_size}"):
            estimate_moments(images, labels, out_size=out_size)

    @pytest.mark.parametrize("name, bad", [("limit", 2.5), ("limit", "3"), ("limit", True), ("out_size", 2.5),
                                           ("out_size", "3"), ("out_size", np.float64(2.0))])
    def test_a_non_integer_size_is_rejected(self, name, bad):
        images, labels = toy_archive()
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            estimate_moments(images, labels, **{"out_size": 2, name: bad})

    def test_numpy_integers_are_sizes(self):
        images, labels = toy_archive()
        want, counts = estimate_moments(images, labels, limit=6, out_size=2)
        got, got_counts = estimate_moments(images, labels, limit=np.int64(6), out_size=np.int32(2))
        assert got_counts == counts and np.array_equal(got.sigma_xy, want.sigma_xy)

    def test_rejects_length_mismatch(self):
        images, labels = toy_archive()
        with pytest.raises(DataFormatError, match="labels"):
            estimate_moments(images, labels[:-1], out_size=2)

    def test_moment_arithmetic_matches_direct_computation(self):
        images, labels = toy_archive()
        task, _ = estimate_moments(images, labels, balanced=False, out_size=2)
        x = downsample(images, out_size=2).reshape(6, -1)
        y = np.eye(3)[labels]
        np.testing.assert_allclose(task.sigma_x, x.T @ x / 6, rtol=1e-15)
        np.testing.assert_allclose(task.sigma_xy, x.T @ y / 6, rtol=1e-15)


class TestMomentsJson:
    def test_emit_spellings(self):
        assert _emit(None) == "null"
        assert _emit(True) == "true"
        assert _emit(float("nan")) == "NaN"
        assert _emit(float("-inf")) == "-Infinity"
        assert _emit(0.1) == format(0.1, ".17g")
        assert _emit([1, 2]) == "[1, 2]"

    def test_emit_keeps_the_sign_of_zero_through_json(self):
        back = json.loads(_emit([-0.0, 0.0]))
        assert np.signbit(back).tolist() == [True, False]

    def test_emit_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            _emit(object())

    def test_write_read_round_trip_is_exact(self, tmp_path):
        images, labels = toy_archive()
        task, counts = estimate_moments(images, labels, out_size=2)
        path = tmp_path / "moments.json"
        write_moments_json(task, path, extras={"counts": {str(k): v for k, v in counts.items()}})
        back = read_moments_json(path)
        np.testing.assert_array_equal(back.sigma_x, task.sigma_x)
        np.testing.assert_array_equal(back.sigma_xy, task.sigma_xy)
        np.testing.assert_array_equal(back.mean_x, task.mean_x)

    def test_written_text_is_valid_json(self, tmp_path):
        images, labels = toy_archive()
        task, _ = estimate_moments(images, labels, out_size=2)
        text = write_moments_json(task, tmp_path / "m.json")
        doc = json.loads(text)
        assert doc["input_dim"] == 4

    def test_read_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sigma_x": [[1.0]], "sigma_xy": [[1.0]]}')
        with pytest.raises(DataFormatError, match="missing"):
            read_moments_json(path)

    def test_read_refuses_a_non_finite_moment(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"sigma_x": [[1.0]], "sigma_xy": [[NaN]], "sigma_y": [[1.0]], "mean_x": [0], "mean_y": [0]}')
        with pytest.raises(ValueError, match="sigma_xy has a non-finite entry"):
            read_moments_json(path)
