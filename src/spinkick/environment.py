"""Gaussian environment models.

Every channel coefficient in this library depends on the environment only
through two functions: the mean m(t) = <O(t)> and the centered two-point
correlator

    K(t, t') = <(O(t) - m(t))(O(t') - m(t'))>.

K is Hermitian in its arguments, K(t, t') = conj(K(t', t)); its imaginary
part encodes the commutator, which for fundamental bosonic observables is a
scalar.  The models below supply (m, K) for a single thermal/displaced
oscillator mode, for uncorrelated "white" kicks, and for arbitrary
user-tabulated kernels.
"""

from __future__ import annotations

import abc
import bisect
import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, SpinKickError, TimeNotInTable

_TIME_ATOL = 1e-9

# The one PSD bound: a tabulated covariance, and a channel's Choi matrix
# (``channels._validate``), may have eigenvalues down to -PSD_TOL, and
# ``analysis`` judges CP by it.
PSD_TOL = 1e-10


class GaussianEnvironment(abc.ABC):
    """Interface: first and second moments of the coupling observable.

    Higher-point data is never requested; for Gaussian states these two
    functions determine every expectation value the channel formulas need.
    Instances are immutable and all queries are pure.
    """

    @abc.abstractmethod
    def mean(self, t: float) -> float:
        """<O(t)>."""

    @abc.abstractmethod
    def covariance(self, t: float, t_prime: float) -> complex:
        """Centered correlator K(t, t') = conj(K(t', t))."""

    @property
    @abc.abstractmethod
    def is_even(self) -> bool:
        """True when the mean vanishes identically."""


def commutator_C(env: GaussianEnvironment, t: float, t_prime: float) -> complex:
    """Scalar commutator <[O(t), O(t')]> = 2i Im K(t, t').

    Antisymmetric in (t, t'), purely imaginary, and independent of the
    environment state's occupation.
    """
    return 2.0j * env.covariance(t, t_prime).imag


def gram_matrix(env: GaussianEnvironment, times, weights=None) -> np.ndarray:
    """Hermitian Gram matrix M_ij = w_i w_j K(t_i, t_j).

    Positive semi-definite for any finite time set when the environment is a
    valid quantum state.  Weights so large that an entry overflows are
    refused with SpinKickError: inf - inf would turn the channel into NaN.
    """
    times = np.asarray(times, dtype=float).tolist()
    n = len(times)
    # Python floats and complex numbers: the same products, and an overflow
    # to inf, refused below, raises no numpy warning; the entries fill a flat
    # list, converted once
    w = [1.0] * n if weights is None else np.asarray(weights, dtype=float).tolist()
    if len(w) != n:
        raise LengthMismatch(f"{n} times but {len(w)} weights")
    entries = [0j] * (n * n)
    for i in range(n):
        for j in range(i + 1):
            entry = complex(w[i] * w[j] * env.covariance(times[i], times[j]))
            entries[i * n + j], entries[j * n + i] = entry, entry.conjugate()
    m = np.array(entries, dtype=complex).reshape(n, n)
    if not np.isfinite(m).all():
        raise SpinKickError(f"weights {_numbers(w)} overflow the Gram matrix w_i w_j K(t_i, t_j)")
    return m


def _kick_means(env: GaussianEnvironment, times, weights) -> np.ndarray:
    """The kicks' weighted means w_k m(t_k), refused with SpinKickError like
    the Gram matrix when a product overflows."""
    w = np.asarray(weights, dtype=float).tolist()  # Python floats: an overflow raises no numpy warning
    mu = [w_k * env.mean(t) for w_k, t in zip(w, times)]
    if not all(map(math.isfinite, mu)):
        raise SpinKickError(f"weights {_numbers(w)} overflow the kick means w_k m(t_k)")
    return np.array(mu, dtype=float)


def _numbers(values) -> str:
    return " ".join(f"{x:g}" for x in values)


def _phase(omega: float, t) -> float:
    """omega t as a Python float, refused with SpinKickError when it
    overflows float64: its cosine would be undefined."""
    x = omega * float(t)
    if not math.isfinite(x):
        raise SpinKickError(f"phase {omega:g} * {float(t):g} overflows")
    return x


def gaussian_char(env: GaussianEnvironment, times, coeffs) -> complex:
    """Characteristic function <exp(-i sum_k c_k O(t_k))>.

    Equals exp(-i c.m) exp(-c^T Re(K) c / 2) with the full Hermitian Gram of
    centered operators; the magnitude never exceeds 1.  Coefficients so
    large that the exponent overflows are refused with SpinKickError.
    """
    times = np.asarray(times, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if len(times) != len(c):
        raise LengthMismatch(f"{len(times)} times but {len(c)} coefficients")
    if len(times) == 0:
        return 1.0 + 0.0j
    mu = np.array([env.mean(t) for t in times])
    gram = gram_matrix(env, times)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        exponent = -1j * (c @ mu) - 0.5 * np.real(c @ gram @ c)
    if not np.isfinite(exponent):
        raise SpinKickError(f"coefficients {_numbers(c)} overflow the characteristic function's exponent")
    return complex(np.exp(exponent))


@dataclass(frozen=True)
class SingleModeThermal(GaussianEnvironment):
    """Single oscillator mode in a (possibly displaced) thermal state.

    The coupling observable is the quadrature O(t) = (a e^{-iwt} + a^dag
    e^{iwt})/sqrt(2), normalized so that the vacuum variance is 1/2.  Either
    nbar or beta may be given; beta is converted via nbar = 1/(e^{beta w}-1),
    formed as e^{-beta w}/(1 - e^{-beta w}) so that a large beta w gives
    nbar = 0 rather than an overflow.  A nonzero displacement makes the
    state non-even (coherent/displaced).
    """

    omega: float
    nbar: float = 0.0
    beta: float | None = None
    displacement: complex = 0.0j

    def __post_init__(self):
        # each check written so that a NaN fails it; the values are kept as
        # Python floats, whose arithmetic overflows to inf without a numpy
        # warning, and each overflow is refused where it arises
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        object.__setattr__(self, "omega", float(self.omega))
        if self.beta is not None:
            if not 0 < self.beta < math.inf:
                raise ValueError("beta must be positive and finite")
            x = float(self.beta) * self.omega  # 0 only when the product underflows
            object.__setattr__(self, "nbar", math.exp(-x) / -math.expm1(-x) if x > 0 else math.inf)
        if not 0 <= self.nbar < math.inf:
            raise ValueError("nbar must be non-negative and finite")
        object.__setattr__(self, "nbar", float(self.nbar))
        if not cmath.isfinite(self.displacement):
            raise ValueError("displacement must be finite")
        object.__setattr__(self, "displacement", complex(self.displacement))

    def mean(self, t: float) -> float:
        a0 = self.displacement
        if a0 == 0:
            return 0.0
        return math.sqrt(2.0) * abs(a0) * math.cos(_phase(self.omega, t) - np.angle(a0))

    def covariance(self, t: float, t_prime: float) -> complex:
        d = _phase(self.omega, float(t) - float(t_prime))
        return 0.5 * ((2.0 * self.nbar + 1.0) * math.cos(d) - 1j * math.sin(d))

    @property
    def is_even(self) -> bool:
        return self.displacement == 0


@dataclass(frozen=True)
class WhiteKickKernel(GaussianEnvironment):
    """Uncorrelated kicks: K(t, t') = v [t == t'], zero mean.

    With this kernel the exact multi-kick channel factorizes into a
    composition of single-kick channels (ancillary bombardment).
    """

    variance: float

    def __post_init__(self):
        if not 0 <= self.variance < math.inf:
            raise ValueError("variance must be non-negative and finite")

    def mean(self, t: float) -> float:
        return 0.0

    def covariance(self, t: float, t_prime: float) -> complex:
        return complex(self.variance) if abs(float(t) - float(t_prime)) <= 1e-12 else 0.0j

    @property
    def is_even(self) -> bool:
        return True


class TabulatedKernel(GaussianEnvironment):
    """Mean and covariance supplied on a fixed time grid.

    Lets users plug in arbitrary correlators (e.g. multimode fields).  The
    table is validated eagerly: finite entries, and a matrix Hermitian to
    1e-10 with eigenvalues >= -PSD_TOL, real non-negative diagonal.  Queries
    off the grid raise TimeNotInTable.
    """

    def __init__(self, times, mean_values, covariance_matrix):
        times = np.array(times, dtype=float)
        means = np.array(mean_values, dtype=float)
        cov = np.array(covariance_matrix, dtype=complex)
        n = len(times)
        if means.shape != (n,) or cov.shape != (n, n):
            raise LengthMismatch(
                f"{n} times need mean shape ({n},) and covariance ({n},{n}); "
                f"got {means.shape} and {cov.shape}"
            )
        if not np.all(np.diff(times) > 0):  # a NaN time is refused too
            raise ValueError("times must be strictly increasing")
        if not all(np.isfinite(a).all() for a in (times, means, cov)):
            raise ValueError("times, mean and covariance must be finite")
        if np.max(np.abs(cov - cov.conj().T)) > 1e-10:
            raise ValueError("covariance matrix is not Hermitian within 1e-10")
        evals = np.linalg.eigvalsh(cov)
        if evals.min() < -PSD_TOL:
            raise ValueError(
                f"covariance matrix not PSD: min eigenvalue {evals.min():.3e}"
            )
        for a in (means, cov):
            a.setflags(write=False)
        self._grid = times.tolist()  # Python floats, for the bisection in _index
        self._means = means
        self._cov = cov

    def _index(self, t: float) -> int:
        """The first grid time within _TIME_ATOL of t, by np.isclose's rule
        with rtol = 0 (|t_i - t| <= atol, which a non-finite t never meets
        on the finite grid), found by bisection: t_i - t rises with i."""
        grid, t = self._grid, float(t)
        i = bisect.bisect_left(grid, -_TIME_ATOL, key=lambda x: x - t)
        if not (i < len(grid) and abs(grid[i] - t) <= _TIME_ATOL):
            raise TimeNotInTable(f"t = {t} not on the tabulated grid")
        return i

    def mean(self, t: float) -> float:
        return float(self._means[self._index(t)])

    def covariance(self, t: float, t_prime: float) -> complex:
        return complex(self._cov[self._index(t), self._index(t_prime)])

    @property
    def is_even(self) -> bool:
        return bool(np.all(self._means == 0.0))

    def __repr__(self):
        return f"TabulatedKernel(n={len(self._grid)}, even={self.is_even})"

    # text format: "times:" / "mean:" rows of reals, "covariance:" followed by
    # an n x n matrix of complex entries written as a+bi (one row per line)

    @classmethod
    def from_file(cls, path) -> "TabulatedKernel":
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
        try:
            i_t = lines.index("times:")
            i_m = lines.index("mean:")
            i_c = lines.index("covariance:")
        except ValueError as exc:
            raise ValueError(f"missing section header in {path}: {exc}") from exc
        times = [float(x) for ln in lines[i_t + 1 : i_m] for x in ln.split()]
        means = [float(x) for ln in lines[i_m + 1 : i_c] for x in ln.split()]
        rows = [[parse_complex(x) for x in ln.split()] for ln in lines[i_c + 1 :]]
        return cls(times, means, rows)


def parse_complex(token: str) -> complex:
    """Parse 'a+bi' (also bare reals and 'bi')."""
    return complex(token.replace("i", "j"))


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"
