"""Independent brute-force verification in a truncated Fock space.

Builds the joint qubit+oscillator unitaries explicitly, applies them to a
spanning set of product inputs, partial-traces, and reconstructs the channel.
No Weyl-relation shortcuts are taken anywhere, so agreement with the
analytic constructions is a genuine cross-check.  Also provides the nascent-delta
(smooth switching) limit as a time-ordered product of narrow pulses.

All matrix exponentials go through Hermitian eigendecompositions; every
exponent here is i times a Hermitian matrix, so this is exact up to rounding
and the constructed step operators are unitary on the truncated space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import QubitMap, chi_from_affine, default_chi_basis, validate_map
from .environment import SingleModeThermal
from .errors import NonHermitian, StepTooCoarse, TruncationNotConverged
from .kicks import InteractionGeometry, KickSchedule, r_of_t
from .pauli import I2, PAULI, AffineBlochMap, OperatorBasis, density_to_bloch, dot_sigma

TAIL_TOL = 1e-12


@dataclass(frozen=True)
class FockSpec:
    """A single-mode environment truncated to ``dim`` Fock levels.

    dim is the starting truncation; oracle_channel grows it until the
    result is stable.  Frequency, occupation and displacement are those of
    ``env``.
    """

    env: SingleModeThermal
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")


def fock_spec_for(env: SingleModeThermal, dim: int | None = None) -> FockSpec:
    """A reasonable starting truncation for a given analytic environment.

    Thermal tails need roughly 10 extra levels per unit of nbar; coherent
    displacement pushes the occupation up by |alpha0|^2.
    """
    if dim is None:
        dim = 20 + math.ceil(10.0 * env.nbar + 8.0 * abs(env.displacement) ** 2)
    return FockSpec(env, dim)


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


def _expm_i_hermitian(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(i * scale * h) for Hermitian h, via eigendecomposition."""
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * scale * evals)) @ vecs.conj().T


def environment_state(spec: FockSpec):
    """Truncated (displaced) Gibbs state and its top-level occupation.

    The thermal diagonal is renormalized on the truncated space; the
    returned tail mass is the occupation of the highest retained level and
    bounds the renormalization error.
    """
    nbar, displacement = spec.env.nbar, spec.env.displacement
    n = np.arange(spec.dim)
    if nbar == 0:
        p = np.zeros(spec.dim)
        p[0] = 1.0
    else:
        q = nbar / (nbar + 1.0)
        p = q**n
        p /= p.sum()
    rho = np.diag(p).astype(complex)
    if displacement != 0:
        a = annihilation(spec.dim)
        gen = displacement * a.conj().T - np.conj(displacement) * a
        disp = _expm_i_hermitian(-1j * gen)  # exp(gen) with gen anti-Hermitian
        rho = disp @ rho @ disp.conj().T
    tail = float(rho[-1, -1].real)
    return rho, tail


def kick_unitary(r, o_matrix: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Joint unitary exp(-i w r.sigma x O) on qubit (x) oscillator.

    Built from the spectral split P+ x e^{-iwO} + P- x e^{+iwO}; exactly
    unitary on the truncated space for Hermitian O.
    """
    o_matrix = np.asarray(o_matrix, dtype=complex)
    if np.max(np.abs(o_matrix - o_matrix.conj().T)) > 1e-12:
        raise NonHermitian("coupling observable must be Hermitian")
    p_plus = (I2 + dot_sigma(r)) / 2.0
    p_minus = (I2 - dot_sigma(r)) / 2.0
    u_minus = _expm_i_hermitian(o_matrix, -weight)
    u_plus = _expm_i_hermitian(o_matrix, +weight)
    u = np.kron(p_plus, u_minus) + np.kron(p_minus, u_plus)
    dim = u.shape[0]
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if defect > 1e-10:
        raise ValueError(f"joint operator failed unitarity check ({defect:.3e})")
    return u


def _partial_trace_env(m: np.ndarray, dim: int) -> np.ndarray:
    return np.einsum("injn->ij", m.reshape(2, dim, 2, dim))


def _channel_from_joint_unitary(u: np.ndarray, rho_env: np.ndarray, basis: OperatorBasis, meta: dict) -> QubitMap:
    dim = rho_env.shape[0]
    inputs = [I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI]
    blochs = []
    for rho_q in inputs:
        joint = np.kron(rho_q, rho_env)
        out = _partial_trace_env(u @ joint @ u.conj().T, dim)
        blochs.append(density_to_bloch(out, tol=1e-8))
    b = blochs[0]
    a = np.column_stack([v - b for v in blochs[1:]])
    affine = AffineBlochMap(a, b)
    ch = QubitMap(affine, chi_from_affine(affine, basis), basis, meta)
    # truncation error can leave tiny PSD defects, so only the structural
    # invariants are enforced here; CP-ness is what the comparison tests
    validate_map(ch, herm_tol=1e-8, tp_tol=1e-8)
    return ch


def _build_at_dim(spec: FockSpec, geom: InteractionGeometry, times, weights, basis: OperatorBasis):
    u = None
    for t, w in zip(times, weights):
        step = kick_unitary(r_of_t(geom, t), quadrature_heisenberg(spec, t), w)
        u = step if u is None else step @ u
    if u is None:
        u = np.eye(2 * spec.dim, dtype=complex)
    rho_env, tail = environment_state(spec)
    meta = {"kind": "oracle", "dim": spec.dim, "tail": tail}
    return _channel_from_joint_unitary(u, rho_env, basis, meta), tail


def oracle_channel(
    spec: FockSpec,
    geom: InteractionGeometry,
    sched: KickSchedule,
    basis: OperatorBasis | None = None,
    stability_tol: float = 1e-8,
    dim_step: int = 10,
    max_dim: int = 300,
) -> QubitMap:
    """Brute-force channel with adaptive Fock truncation.

    Starting from spec.dim, the dimension grows by dim_step until the
    reconstructed channel changes by less than stability_tol under one more
    increment and the state tail is negligible; the finer result is
    returned, with the dimension and stability recorded in meta.
    """
    times, weights = sched.times, sched.weights
    if basis is None:
        rs = [r_of_t(geom, t) for t in times]
        basis = default_chi_basis(rs[-1], rs[0]) if len(rs) else default_chi_basis([0, 0, 1], [0, 0, 1])
    dim = spec.dim
    current, tail = _build_at_dim(replace(spec, dim=dim), geom, times, weights, basis)
    history = []
    while True:
        next_dim = dim + dim_step
        if next_dim > max_dim:
            raise TruncationNotConverged(
                f"no stable channel up to dim {max_dim} (tol {stability_tol})"
            )
        finer, tail_f = _build_at_dim(replace(spec, dim=next_dim), geom, times, weights, basis)
        dist = channel_distance(current, finer)
        history.append((next_dim, dist))
        if dist < stability_tol and tail_f < TAIL_TOL:
            meta = dict(finer.meta)
            meta.update(
                {"dim": next_dim, "stability": dist, "tail": tail_f, "history": tuple(history)}
            )
            return replace(finer, meta=meta)
        current, tail, dim = finer, tail_f, next_dim


def _pulse_shape(shape: str):
    """Normalized switching profile and its half-width in units of delta_t."""
    if shape == "gaussian":
        half = 5.0
        fn = lambda x: np.exp(-0.5 * x * x)
    elif shape == "rectangular":
        half = 1.0
        fn = lambda x: np.ones_like(x)
    else:
        raise ValueError(f"unknown pulse shape {shape!r}")
    return fn, half


def nascent_delta_channel(
    spec: FockSpec,
    geom: InteractionGeometry,
    kick_times,
    delta_t: float,
    steps_per_kick: int = 48,
    shape: str = "gaussian",
    weights=None,
    basis: OperatorBasis | None = None,
) -> QubitMap:
    """Channel from smooth switchings of width delta_t replacing each delta.

    Each kick becomes a pulse of area w_k; the joint evolution is the
    time-ordered product of narrow-step unitaries on a midpoint grid across
    each pulse.  As delta_t -> 0 this converges to the delta-kick channel on
    the same schedule.  Zero weights are allowed (identity contribution).
    """
    times = np.asarray(kick_times, dtype=float)
    w = np.ones(len(times)) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != len(times):
        raise ValueError("weights and kick_times must match in length")
    profile, half = _pulse_shape(shape)
    if len(times) > 1:
        min_gap = float(np.min(np.diff(np.sort(times))))
        if 2.0 * half * delta_t >= min_gap:
            raise StepTooCoarse(
                f"pulse width {2 * half * delta_t:.3g} overlaps kick gap {min_gap:.3g}"
            )
    fastest = max(geom.omega, spec.env.omega)
    if fastest > 0 and half * delta_t >= 0.5 * math.pi / fastest:
        raise StepTooCoarse(
            f"pulse half-width {half * delta_t:.3g} is not small against the"
            f" fastest period {2 * math.pi / fastest:.3g}"
        )

    # midpoint grid over each pulse, discrete profile renormalized to unit area
    xs = (np.arange(steps_per_kick) + 0.5) / steps_per_kick * 2.0 * half - half
    vals = profile(xs)
    vals = vals / vals.sum()

    u = np.eye(2 * spec.dim, dtype=complex)
    order = np.argsort(times)
    for idx in order:
        for x, frac in zip(xs, vals):
            t = times[idx] + delta_t * x
            theta = w[idx] * frac
            if theta == 0.0:
                continue
            step = kick_unitary(r_of_t(geom, t), quadrature_heisenberg(spec, t), theta)
            u = step @ u
    rho_env, tail = environment_state(spec)
    if basis is None:
        rs = [r_of_t(geom, t) for t in times]
        basis = default_chi_basis(rs[-1], rs[0])
    meta = {
        "kind": "nascent_delta",
        "dim": spec.dim,
        "tail": tail,
        "delta_t": float(delta_t),
        "shape": shape,
        "steps_per_kick": int(steps_per_kick),
    }
    return _channel_from_joint_unitary(u, rho_env, basis, meta)


_AXES = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=float,
)


def channel_distance(c1, c2, n_random: int = 100, seed: int = 2718) -> float:
    """Max trace distance between outputs over a fixed probe-state set.

    The probes are the six axis states plus n_random fixed pseudo-random
    pure states; zero exactly when the affine parts agree on the sample (the
    axis states alone already pin down A and b).
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_random, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    probes = np.vstack([_AXES, pts])
    out1 = probes @ c1.affine.matrix.T + c1.affine.shift
    out2 = probes @ c2.affine.matrix.T + c2.affine.shift
    return 0.5 * float(np.max(np.linalg.norm(out1 - out2, axis=1)))
