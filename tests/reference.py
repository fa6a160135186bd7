"""Reference formulas the tests compare the library against.

None of these is reached from a command or from the acceptance suite, so
they live here rather than in ``spinkick``: closed forms of single-kick
purity and entropy, the two-kick transition map and its divisibility
verdict, the truncated environment state of the Fock oracle, the truncated
annihilation operator and Heisenberg-picture quadrature O(t) that the
oracle's direct-exponential cross-checks decompose, the density matrix
of a Bloch vector, the prefix pass's sums f_k doubled kick by kick, the
Gaussian characteristic function from its own unweighted moments, the
independent derivation of the dephasing and single-kick coefficients, and
the 4^n enumeration of one schedule's channel, the reference the prefix
pass and the other constructions are held to.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from spinkick.analysis import DivisibilityReport, _h2, chi_eigenvalues_two_kick
from spinkick.channels import (
    MAX_KICKS_DEFAULT,
    PSD_TOL,
    KickInputs,
    QubitMap,
    TwoKickParams,
    _enumerate,
    _map,
    _provenance,
    _two_kick_affine,
    two_kick_params,
)
from spinkick.environment import GaussianEnvironment, _numbers, gram_matrix
from spinkick.errors import LengthMismatch, NonEvenEnvironment, SpinKickError
from spinkick.kicks import InteractionGeometry, r_of_t
from spinkick.oracle import FockSpec, _environment_factor, coupling_spectrum
from spinkick.pauli import I2, cross3, dot_sigma


def gaussian_char(env: GaussianEnvironment, times, coeffs) -> complex:
    """Characteristic function <exp(-i sum_k c_k O(t_k))>.

    Equals exp(-i c.m) exp(-c^T Re(K) c / 2) with the full Hermitian Gram of
    centered operators, unweighted; the magnitude never exceeds 1.
    Coefficients so large that the exponent overflows are refused with
    SpinKickError.
    """
    times = np.asarray(times, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if len(times) != len(c):
        raise LengthMismatch(f"{len(times)} times but {len(c)} coefficients")
    if len(times) == 0:
        return 1.0 + 0.0j
    mu = np.array([env.mean(t) for t in times])
    gram = gram_matrix(env, times, np.ones(len(times)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        exponent = -1j * (c @ mu) - 0.5 * np.real(c @ gram @ c)
    if not np.isfinite(exponent):
        raise SpinKickError(f"coefficients {_numbers(c)} overflow the characteristic function's exponent")
    return complex(np.exp(exponent))


def enumerated_channel(
    env: GaussianEnvironment, geom: InteractionGeometry, sched, max_kicks: int = MAX_KICKS_DEFAULT
) -> QubitMap:
    """The exact channel of ``sched`` by the 4^n enumeration: ``_enumerate``
    on its one record, which exponentiates all 4^n coefficients and holds
    them (16 * 4^n bytes), refusing a build past ``max_kicks`` or one that
    cannot be allocated with TooManyKicks.  No kicks give the identity."""
    (kicks,), a, b = _enumerate(lambda: [KickInputs.of(env, geom, sched)], 1, len(sched), max_kicks)
    return QubitMap(a[0], b[0], kicks.axes, _provenance("n_kick", env, kicks.times, kicks.weights))


def bloch_to_density(u) -> np.ndarray:
    """Density matrix (1 + u.sigma)/2 for Bloch vector u.

    Vectors with |u| > 1 are accepted on purpose: transition maps can send
    physical states outside the ball and we need to represent the result.
    """
    return (I2 + dot_sigma(u)) / 2.0


def entropy_from_purity(p: float, base=None) -> float:
    """Entropy as a function of purity, via |u| = sqrt(2p - 1)."""
    r = math.sqrt(max(0.0, 2.0 * p - 1.0))
    return _h2((1.0 + r) / 2.0, base)


def post_kick_purity(
    u, env: GaussianEnvironment, geom: InteractionGeometry, t0: float, weight: float = 1.0
) -> float:
    """Purity after a single kick on an even environment.

    (1 + |u|^2 + (e^{-4 Var} - 1)|u x r(t0)|^2) / 2: only the component of u
    perpendicular to the kick axis is degraded.
    """
    if not env.is_even:
        raise NonEvenEnvironment("closed-form purity assumes a vanishing mean")
    u = np.asarray(u, dtype=float)
    var = weight * weight * env.covariance(t0, t0).real
    cross = cross3(u, r_of_t(geom, t0))
    return 0.5 * (1.0 + float(u @ u) + (math.exp(-4.0 * var) - 1.0) * float(cross @ cross))


def entanglement_entropy(
    u,
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    base=None,
    weight: float = 1.0,
) -> float:
    """Entropy of the spin after one kick on a pure input state.

    When the environment state is pure as well (vacuum or coherent) this is
    the entanglement entropy generated by the kick.  It grows with the
    environment variance and with |u x r(t0)|, the degree of non-commutation
    of the state with the coupling observable.  u must be a unit vector to
    1e-10.
    """
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError(f"|u| = {np.linalg.norm(u)} is not 1 within 1e-10")
    var = weight * weight * env.covariance(t0, t0).real
    cross = cross3(u, r_of_t(geom, t0))
    length_sq = 1.0 + (math.exp(-4.0 * var) - 1.0) * float(cross @ cross)
    return _h2((1.0 + math.sqrt(max(0.0, length_sq))) / 2.0, base)


def two_kick_divisibility(params: TwoKickParams) -> DivisibilityReport:
    """Closed-form verdict from the two-kick parameters alone."""
    eigs = np.sort(chi_eigenvalues_two_kick(params.h, params.k))[::-1]
    cp = bool(eigs.min() >= -PSD_TOL)
    # P <=> CP at two kicks: not positive unless k = 0, then |h| <= 1 decides.
    pos = cp
    witness = None if pos else params.frame[0].copy()
    return DivisibilityReport(
        chi_eigenvalues=eigs,
        cp_divisible=cp,
        p_divisible=pos,
        witness=witness,
        closed_form_params=params,
    )


def two_kick_transition_map(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    t1: float,
    weights=(1.0, 1.0),
) -> QubitMap:
    """Closed-form transition map of the two-kick process: the two-kick
    affine action with g set to 1."""
    params = two_kick_params(env, geom, t0, t1, weights)
    meta = {"kind": "transition_closed_form", "times": (float(t0), float(t1))}
    a, b = _two_kick_affine(dataclasses.replace(params, g=1.0))
    return _map(a, b, (r_of_t(geom, t0), params.frame[0]), meta, cp=False)


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def quadrature_heisenberg(spec: FockSpec, t: float) -> np.ndarray:
    """O(t) = (a e^{-iwt} + a^dag e^{iwt}) / sqrt(2), truncated.

    Hermitian by construction; the vacuum second moment tends to 1/2 as the
    truncation grows.
    """
    a = annihilation(spec.dim)
    phase = np.exp(-1j * spec.env.omega * t)
    return (a * phase + a.conj().T * np.conj(phase)) / math.sqrt(2.0)


def environment_state(spec: FockSpec):
    """Truncated (displaced) Gibbs state S S^dag and its top-level occupation."""
    factor, tail = _environment_factor(spec, coupling_spectrum(spec.dim))
    if factor.ndim == 1:
        return np.diag(factor * factor).astype(complex), tail
    return factor @ factor.conj().T, tail


def kick_sums(gram: np.ndarray) -> list:
    """f_k(s) = sum_(j<k) G_kj s_j of each kick k, its 2^k entries doubled in
    place one kick at a time (bit j of the index clear for s_j = +1): the
    loop that ``channels._kick_sums`` runs over all kicks at once."""
    sums = []
    for k in range(len(gram)):
        f = np.empty(2**k, dtype=complex)
        f[0] = 0.0
        for j, g in enumerate(gram[k, :k]):
            np.subtract(f[: 2**j], g, out=f[2**j : 2 ** (j + 1)])
            f[: 2**j] += g
        sums.append(f)
    return sums
