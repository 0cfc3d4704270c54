"""Oracle tests for the dense linear-algebra helpers.

propagate_affine is checked against the scalar/diagonal affine-ODE solution
written out by hand and against its own semigroup property; phi1 against
expm1.
"""

import math

import numpy as np
import pytest

from learning_control.linalg import phi1, propagate_affine


class TestPropagateAffine:
    def test_scalar_case_against_hand_solution(self):
        """dx/ds = -r x + b  =>  x(t) = x0 e^{-rt} + (b/r)(1 - e^{-rt})."""
        r, b, t, x0 = 1.7, 0.4, 0.9, 2.0
        phi, off = propagate_affine(np.array([[r]]), np.array([b]), t)
        expected = x0 * math.exp(-r * t) + (b / r) * (1.0 - math.exp(-r * t))
        assert phi.shape == (1, 1) and off.shape == (1,)
        np.testing.assert_allclose(phi[0, 0] * x0 + off[0], expected, rtol=1e-13)

    def test_diagonal_case(self):
        rates = np.array([0.5, 2.0, 0.1])
        drive = np.array([1.0, -0.3, 0.7])
        t = 1.3
        phi, off = propagate_affine(np.diag(rates), drive, t)
        np.testing.assert_allclose(np.diag(phi), np.exp(-rates * t), rtol=1e-13)
        expected_off = drive / rates * (1.0 - np.exp(-rates * t))
        np.testing.assert_allclose(off, expected_off, rtol=1e-12)

    def test_singular_rate_is_pure_drift(self):
        """rate = 0 has no inverse; its zero eigenvalues must still drift exactly."""
        phi, off = propagate_affine(np.zeros((2, 2)), np.array([0.3, -1.1]), 2.5)
        np.testing.assert_allclose(phi, np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(off, np.array([0.75, -2.75]), rtol=1e-14)

    def test_semigroup_property(self):
        """Propagating 0.7 then 0.5 equals propagating 1.2 in one go."""
        rng = np.random.default_rng(3)
        rate = rng.standard_normal((3, 3))
        rate = rate @ rate.T + 0.1 * np.eye(3)  # positive definite, stable
        drive = rng.standard_normal(3)
        p1, o1 = propagate_affine(rate, drive, 0.7)
        p2, o2 = propagate_affine(rate, drive, 0.5)
        pf, of = propagate_affine(rate, drive, 1.2)
        np.testing.assert_allclose(p2 @ p1, pf, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(p2 @ o1 + o2, of, rtol=1e-11, atol=1e-13)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            propagate_affine(np.zeros((2, 2)), np.zeros(3), 1.0)

    @pytest.mark.parametrize("rate, drive", [
        ([[0.0, np.inf], [np.inf, 0.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, np.nan]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
    ], ids=["inf_rate", "nan_rate", "nan_drive"])
    def test_rejects_nonfinite(self, rate, drive):
        with pytest.raises(ValueError, match="non-finite"):
            propagate_affine(np.array(rate), np.array(drive), 1.0)

    @pytest.mark.parametrize("skew", [1e-9, 1e-3])
    def test_rejects_a_non_symmetric_rate(self, skew):
        rate = np.array([[2.0, 0.5 + skew], [0.5, 1.0]])
        with pytest.raises(ValueError, match="symmetric rate"):
            propagate_affine(rate, np.ones(2), 1.0)

    def test_rounding_asymmetry_is_accepted(self):
        """An ulp apart, as products of gains round (i, j) and (j, i), is still symmetric."""
        rate = np.array([[2.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])
        phi, off = propagate_affine(rate, np.ones(2), 1.0)
        assert np.isfinite(phi).all() and np.isfinite(off).all()


class TestPhi1:
    def test_at_zero(self):
        assert phi1(0.0) == 1.0

    def test_large_argument(self):
        np.testing.assert_allclose(phi1(1.0), math.e - 1.0, rtol=1e-15)
        np.testing.assert_allclose(phi1(-2.0), (math.exp(-2.0) - 1.0) / -2.0, rtol=1e-15)

    def test_series_branch_accuracy(self):
        # inside the series cutoff the polynomial is exact to machine precision
        for z in (1e-7, -3e-7, 9e-7):
            series = 1.0 + z / 2.0 + z * z / 6.0
            np.testing.assert_allclose(phi1(z), series, rtol=1e-14)

    def test_series_agrees_with_expm1_oracle_near_cutoff(self):
        """Just below the series cutoff the polynomial matches expm1 exactly,
        so there is no jump when the evaluation strategy switches."""
        for z in (0.99e-6, -0.99e-6, 1.01e-6, -1.01e-6):
            np.testing.assert_allclose(phi1(z), math.expm1(z) / z, rtol=1e-14)
