"""Exact complex 2x2 operator algebra and Bloch-vector representations.

All qubit-side objects are dense 2x2 or 4x4 complex arrays; values are
treated as immutable and every operation is a pure function, so everything
here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonHermitian, NonUnitTrace, NonUnitVector

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])

UNIT_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def cross3(a, b) -> np.ndarray:
    """a x b for real 3-vectors: np.cross's arithmetic, bit for bit, without its overhead."""
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def dot_sigma(v) -> np.ndarray:
    """Pauli observable v . sigma for a real 3-vector v."""
    v = np.asarray(v, dtype=float)
    return np.einsum("i,ijk->jk", v, PAULI)


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector u_i = tr(rho sigma_i) of a matrix Hermitian and of unit
    trace to 1e-10, or of each of a stack of them along leading axes: the
    first entry, in C order, that fails either check is refused, its
    Hermiticity judged before its trace."""
    rho = np.asarray(rho, dtype=complex)
    hermitian = np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2)), axis=(-2, -1)) <= 1e-10  # a NaN fails
    tr = np.trace(rho, axis1=-2, axis2=-1)
    failed = ~hermitian | (np.abs(tr - 1.0) > 1e-10)
    if failed.any():
        first = np.flatnonzero(failed)[0]
        if not hermitian.flat[first]:
            raise NonHermitian("density matrix not Hermitian within 1e-10")
        raise NonUnitTrace(f"trace {np.ravel(tr)[first]} differs from 1 by more than 1e-10")
    return np.einsum("ijk,...kj->...i", PAULI, rho).real


def is_physical_bloch(u) -> bool:
    """Whether u lies in the closed Bloch ball, to UNIT_TOL.  The norm is
    taken by math.hypot, which cannot overflow for finite entries."""
    return math.hypot(*np.asarray(u, dtype=float)) <= 1.0 + UNIT_TOL


def spin_frames(axes) -> np.ndarray:
    """Unitary 2 x 2 frames, one per axis r along the last axis of ``axes``,
    whose columns are the +1 and -1 eigenvectors of r.sigma.

    The +1 eigenvector e is along (1 + z, x + iy) for z >= 0 and along
    (x - iy, 1 - z) for z < 0, so its norm never comes from a vanishing
    1 +- z and r = -z is as well defined as r = +z.  The -1 eigenvector is
    f = (-conj(e1), conj(e0)).  Every r must be a unit axis to 1e-10.
    """
    x, y, z = np.moveaxis(np.asarray(axes, dtype=float), -1, 0)
    sq = x * x + y * y + z * z
    off = np.abs(sq - 1.0) > 1e-10
    if off.any():
        raise NonUnitVector(f"kick axis |r| = {np.sqrt(sq[off].flat[0])} is not 1 within 1e-10")
    up = z >= 0.0
    parts = (np.where(up, 1.0 + z, x), np.where(up, 0.0, -y), np.where(up, x, 1.0 - z), np.where(up, y, 0.0))
    norm = np.sqrt(sum(p * p for p in parts))
    e0, e1 = (parts[0] + 1j * parts[1]) / norm, (parts[2] + 1j * parts[3]) / norm
    frames = np.empty(x.shape + (2, 2), dtype=complex)
    frames[..., 0, 0], frames[..., 1, 0] = e0, e1
    frames[..., 0, 1], frames[..., 1, 1] = -e1.conj(), e0.conj()
    return frames


def max_image_norm(a: np.ndarray, b: np.ndarray):
    """Largest |A u + b| over unit vectors u, and a unit u that attains it.

    Maximizing |A u + b|^2 = u.M u + 2 c.u + |b|^2 (M = A^T A, c = A^T b) on
    the sphere is a trust-region subproblem.  With M = V diag(l) V^T and
    d = V^T c the maximizer is u = V x, x_i = d_i / (delta + g_i), where
    g_i = l_max - l_i >= 0 and delta >= 0 solves the secular equation
    |x(delta)| = 1; working in delta rather than mu = l_max + delta keeps
    small gaps exact.  In the hard case d vanishes on the top eigenspace and
    |x(0)| <= 1 (every map with b = 0, such as dephasing or white-kick
    transition maps): then delta = 0 and a top eigenvector fills the rest of
    the unit length.  Otherwise delta is found by Newton's method on
    1/|x(delta)| - 1, which is concave and increasing, so from the lower
    bound max(|d_i| - g_i, 0) the iterates climb to the root without
    overshooting; from there on delta + g_i >= |d_i|, so |x_i| <= 1.  By
    convexity of |A u + b| the value is also the maximum over the whole Bloch
    ball.
    """
    lam, v = np.linalg.eigh(a.T @ a)
    d = v.T @ (a.T @ b)
    gap = lam[-1] - lam
    keep = d != 0.0
    dk, gk = d[keep], gap[keep]
    hard = not np.any(gk == 0.0) and np.all(np.abs(dk) <= gk) and np.sum((dk / gk) ** 2) <= 1.0
    delta = 0.0
    if not hard:
        delta = max(0.0, float(np.max(np.abs(dk) - gk)))
        for _ in range(100):
            xk = dk / (delta + gk)
            length_sq = xk @ xk
            # the Newton step scaled by the smallest denominator h, so that
            # x_i h / (delta + g_i) <= |x_i| <= 1 cannot overflow when d is
            # subnormal
            h = float(np.min(delta + gk))
            step = h * length_sq * (np.sqrt(length_sq) - 1.0) / (xk @ (xk * (h / (delta + gk))))
            if not step > np.finfo(float).eps * delta:
                break
            delta += step
    x = np.divide(d, delta + gap, out=np.zeros(3), where=keep)
    if hard:
        x[-1] = np.sqrt(max(0.0, 1.0 - x @ x))
    u = v @ x
    u /= np.linalg.norm(u)
    return float(np.linalg.norm(a @ u + b)), u


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Four 2x2 operators orthonormal (to 1e-12) under <A,B> = tr(B^dag A)."""

    ops: np.ndarray

    def __post_init__(self):
        ops = np.array(self.ops, dtype=complex).reshape(4, 2, 2)
        gram = np.einsum("byx,ayx->ab", ops.conj(), ops)
        dev = np.max(np.abs(gram - np.eye(4)))
        if dev > 1e-12:
            raise ValueError(f"basis not orthonormal: max Gram deviation {dev:.3e} > 1e-12")
        object.__setattr__(self, "ops", _freeze(ops))


# the normalized Pauli basis {1, sx, sy, sz}/sqrt(2)
PAULI_BASIS = OperatorBasis(np.stack([I2, SIGMA_X, SIGMA_Y, SIGMA_Z]) / np.sqrt(2.0))
