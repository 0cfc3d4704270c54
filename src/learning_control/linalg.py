"""The exact propagator shared by the closed-form solvers.

propagate_affine solves a constant-coefficient affine flow dx/ds = -R x + b
with a symmetric rate R in R's eigenbasis (np.linalg.eigh): each mode decays
as e^{-l s} and takes s phi1(-l s) of its drive, so a zero eigenvalue is
exact drift and a stiff mode simply decays.  Matrices stay tiny in this
package (tens of rows at most), so the implementation favors clarity over
speed.
"""

import math

import numpy as np


def propagate_affine(rate, drive, duration):
    """Exact solution map of dx/ds = -rate @ x + drive over a time interval, `rate` symmetric.

    Returns (phi, offset) with x(s + duration) = phi @ x(s) + offset.
    Non-finite entries are refused, and so is a rate whose asymmetry passes
    1e-12 of its largest entry.
    """
    rate = np.asarray(rate, dtype=float)
    drive = np.asarray(drive, dtype=float).reshape(-1)
    n = rate.shape[0]
    if rate.shape != (n, n) or drive.shape != (n,):
        raise ValueError("propagate_affine: rate must be n x n and drive length n")
    if not (np.isfinite(rate).all() and np.isfinite(drive).all()):
        raise ValueError("propagate_affine got non-finite entries")
    if np.abs(rate - rate.T).max(initial=0.0) > 1e-12 * np.abs(rate).max(initial=0.0):
        raise ValueError("propagate_affine needs a symmetric rate")
    lam, q = np.linalg.eigh(rate)
    taken = np.array([duration * phi1(-l * duration) for l in lam])
    return (q * np.exp(-lam * duration)) @ q.T, q @ (taken * (q.T @ drive))


def phi1(z):
    """(e^z - 1)/z with the removable singularity at 0 filled in.

    A mode of decay rate l takes s phi1(-l s) of its drive over a time s in
    the exact affine step; the series branch keeps full precision where
    expm1(z)/z would divide two tiny numbers.
    """
    if abs(z) < 1e-6:
        return 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return math.expm1(z) / z
