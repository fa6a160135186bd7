"""Independent brute-force verification in a truncated Fock space.

Builds the joint qubit+oscillator unitaries explicitly, applies them to a
spanning set of product inputs, partial-traces, and reconstructs the channel.
No Weyl-relation shortcuts are taken anywhere, so agreement with the
analytic constructions is a genuine cross-check.  Also provides the nascent-delta
(smooth switching) limit as a time-ordered product of narrow pulses.

All matrix exponentials go through Hermitian eigendecompositions; every
exponent here is i times a Hermitian matrix, so this is exact up to rounding
and the constructed step operators are unitary on the truncated space.  The
coupling at time t is a diagonal phase rotation of the coupling at time 0,
so one eigendecomposition per truncation serves every kick step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import QubitMap, default_chi_basis, validate_map
from .environment import SingleModeThermal
from .errors import InvalidMap, NonHermitian, NonUnitVector, StepTooCoarse, TruncationNotConverged
from .kicks import InteractionGeometry, KickSchedule, r_of_t
from .pauli import I2, PAULI, AffineBlochMap, OperatorBasis, density_to_bloch, max_image_norm

TAIL_TOL = 1e-12
DIM_STEP = 10  # Fock levels added per truncation step of oracle_channel


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


def coupling_spectrum(o_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian coupling O.

    The one place the coupling is checked for Hermiticity (to 1e-12): every
    spectrum kick_unitary receives comes from here, directly or through
    rotated_spectrum.
    """
    o_matrix = np.asarray(o_matrix, dtype=complex)
    if np.max(np.abs(o_matrix - o_matrix.conj().T)) > 1e-12:
        raise NonHermitian("coupling observable must be Hermitian")
    return np.linalg.eigh(o_matrix)


def rotated_spectrum(spec: FockSpec, spectrum, t: float):
    """Spectrum of O(t) from that of X = O(0), without a new decomposition.

    O(t) = D(t) X D(t)^dag with D(t) = diag(e^{iwtn}), so O(t) has the
    eigenvalues of X and the eigenvectors D(t) V.  The phases are built as
    powers of e^{iwt} so that adjacent levels keep their relative phase to
    rounding, whatever the size of wtn.
    """
    evals, vecs = spectrum
    phases = np.ones(spec.dim, dtype=complex)
    phases[1:] = np.cumprod(np.full(spec.dim - 1, np.exp(1j * spec.env.omega * t)))
    return evals, phases[:, None] * vecs


def _spin_frame(r) -> np.ndarray:
    """Unitary 2 x 2 frame whose columns are the +1 and -1 eigenvectors of r.sigma.

    The +1 eigenvector e is along (1 + z, x + iy) for z >= 0 and along
    (x - iy, 1 - z) for z < 0, so its norm never comes from a vanishing
    1 +- z and r = -z is as well defined as r = +z.  The -1 eigenvector is
    f = (-conj(e1), conj(e0)).  r must be a unit axis to 1e-10.
    """
    x, y, z = (float(c) for c in r)
    if abs(x * x + y * y + z * z - 1.0) > 1e-10:
        raise NonUnitVector(f"kick axis |r| = {math.sqrt(x * x + y * y + z * z)} is not 1 within 1e-10")
    e0, e1 = (complex(1.0 + z), complex(x, y)) if z >= 0.0 else (complex(x, -y), complex(1.0 - z))
    norm = math.sqrt(abs(e0) ** 2 + abs(e1) ** 2)
    e0, e1 = e0 / norm, e1 / norm
    return np.array([[e0, -e1.conjugate()], [e1, e0.conjugate()]])


def kick_unitary(r, spectrum, weight: float = 1.0, u: np.ndarray | None = None) -> np.ndarray:
    """Joint step exp(-i w r.sigma x O) on qubit (x) oscillator, applied to u.

    ``spectrum`` is (lambda, W) with O = W diag(lambda) W^dag, as returned
    by coupling_spectrum or rotated_spectrum.  With e and f the +1 and -1
    eigenvectors of r.sigma, the step is e e^dag x U- + f f^dag x U+, where
    U- = W e^{-iw lambda} W^dag and U+ = U-^dag.  Returns step @ u for a u
    of 2d rows, as e x U-(e^dag u) + f x U+(f^dag u): the spin index is
    rotated in O(d^2) and the oscillator factors act as two d x d products,
    so the 2d x 2d step is never built.  With u None the step itself is
    returned, its four d x d blocks filled directly.  U- must pass a
    unitarity check (1e-10), which an eigenbasis that is not orthonormal
    fails with InvalidMap; the step is unitary exactly when U- is, because
    the spin frame (e, f) is unitary.
    """
    evals, vecs = spectrum
    d = len(evals)
    u_minus = (vecs * np.exp(-1j * weight * evals)) @ vecs.conj().T
    defect = np.max(np.abs(u_minus.conj().T @ u_minus - np.eye(d)))
    if defect > 1e-10:
        raise InvalidMap(f"joint operator failed unitarity check ({defect:.3e})")
    frame = _spin_frame(r)
    if u is None:
        # block (i, j) of the step: e_i conj(e_j) U- + f_i conj(f_j) U+
        factors = np.stack((u_minus, u_minus.conj().T))
        return np.einsum("is,js,sab->iajb", frame, frame.conj(), factors).reshape(2 * d, 2 * d)
    spin = (frame.conj().T @ u.reshape(2, -1)).reshape(2, d, -1)  # e^dag u and f^dag u
    acted = np.empty_like(spin)
    np.matmul(u_minus, spin[0], out=acted[0])
    np.matmul(u_minus.conj().T, spin[1], out=acted[1])
    return (frame @ acted.reshape(2, -1)).reshape(u.shape)


def _channel_from_joint_unitary(u: np.ndarray, rho_env: np.ndarray, basis: OperatorBasis, meta: dict) -> QubitMap:
    """Reduced qubit channel of the joint unitary u on rho_q (x) rho_env.

    With U_ia the d x d blocks of u, the reduced output of rho_q is
    sum_ab rho_q[a, b] m[:, a, :, b], where m[i, a, j, b] = tr(U_ia rho_env
    U_jb^dag): four d x d products and one contraction for all probes.
    """
    dim = rho_env.shape[0]
    blocks = u.reshape(2, dim, 2, dim).transpose(0, 2, 1, 3)  # blocks[i, a] = U_ia
    left = (blocks @ rho_env).reshape(4, dim * dim)
    m = (left @ blocks.reshape(4, dim * dim).conj().T).reshape(2, 2, 2, 2)
    inputs = [I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI]
    blochs = [density_to_bloch(np.einsum("ab,iajb->ij", rho_q, m), tol=1e-8) for rho_q in inputs]
    b = blochs[0]
    a = np.column_stack([v - b for v in blochs[1:]])
    ch = QubitMap(AffineBlochMap(a, b), basis, meta)
    # truncation error can leave tiny PSD defects, so only the structural
    # invariants are enforced here; CP-ness is what the comparison tests
    validate_map(ch, herm_tol=1e-8, tp_tol=1e-8)
    return ch


def _channel_at_dim(spec: FockSpec, geom: InteractionGeometry, steps, basis: OperatorBasis, meta: dict) -> QubitMap:
    """Reduced channel of the joint steps (t, w), in time order, at spec.dim.

    One eigendecomposition of the coupling serves every step; the product
    of the steps acts on the qubit and the truncated environment state, and
    the channel is read from its blocks.  meta gains the dimension, the
    state's tail mass and the work done.
    """
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    u = None  # the first step is built directly, the later ones applied to it
    for t, w in steps:
        u = kick_unitary(r_of_t(geom, t), rotated_spectrum(spec, spectrum, t), w, u)
    if u is None:  # an empty train
        u = np.eye(2 * spec.dim, dtype=complex)
    rho_env, tail = environment_state(spec)
    meta = {**meta, "dim": spec.dim, "tail": tail, "kick_steps": len(steps), "eigendecompositions": 1}
    return _channel_from_joint_unitary(u, rho_env, basis, meta)


def oracle_channel(
    spec: FockSpec,
    geom: InteractionGeometry,
    sched: KickSchedule,
    stability_tol: float = 1e-8,
    max_dim: int = 300,
) -> QubitMap:
    """Brute-force channel with adaptive Fock truncation.

    Starting from spec.dim, the dimension grows by DIM_STEP until the
    reconstructed channel changes by less than stability_tol under one more
    increment and the state tail is negligible; the finer result is
    returned, with the dimension and stability recorded in meta.  meta also
    counts the work of the whole search: ``kick_steps`` joint steps and
    ``eigendecompositions`` of the coupling, one per truncation tried.
    """
    steps = list(zip(sched.times, sched.weights))
    basis = default_chi_basis([r_of_t(geom, t) for t in sched.times])
    dim = spec.dim
    current = _channel_at_dim(replace(spec, dim=dim), geom, steps, basis, {"kind": "oracle"})
    work = {key: current.meta[key] for key in ("kick_steps", "eigendecompositions")}
    history = []
    while True:
        next_dim = dim + DIM_STEP
        if next_dim > max_dim:
            raise TruncationNotConverged(
                f"no stable channel up to dim {max_dim} (tol {stability_tol})"
            )
        finer = _channel_at_dim(replace(spec, dim=next_dim), geom, steps, basis, {"kind": "oracle"})
        dist = channel_distance(current, finer)
        history.append((next_dim, dist))
        for key in work:
            work[key] += finer.meta[key]
        if dist < stability_tol and finer.meta["tail"] < TAIL_TOL:
            return replace(finer, meta={**finer.meta, "stability": dist, "history": tuple(history), **work})
        current, dim = finer, next_dim


# normalized switching profiles and their half-widths in units of delta_t
PULSE_SHAPES = {
    "gaussian": (lambda x: np.exp(-0.5 * x * x), 5.0),
    "rectangular": (lambda x: np.ones_like(x), 1.0),
}


def nascent_delta_channel(
    spec: FockSpec,
    geom: InteractionGeometry,
    kick_times,
    delta_t: float,
    steps_per_kick: int = 48,
    shape: str = "gaussian",
    weights=None,
) -> QubitMap:
    """Channel from smooth switchings of width delta_t replacing each delta.

    Each kick becomes a pulse of area w_k; the joint evolution is the
    time-ordered product of narrow-step unitaries on a midpoint grid across
    each pulse.  As delta_t -> 0 this converges to the delta-kick channel on
    the same schedule.  Zero weights are allowed (identity contribution).
    meta counts the ``kick_steps`` taken and the one eigendecomposition of
    the coupling they share.  The chi basis comes from the kick axes, not
    from the pulse grid.
    """
    times = np.asarray(kick_times, dtype=float)
    w = np.ones(len(times)) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != len(times):
        raise ValueError("weights and kick_times must match in length")
    if shape not in PULSE_SHAPES:
        raise ValueError(f"unknown pulse shape {shape!r}")
    profile, half = PULSE_SHAPES[shape]
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

    steps = [
        (times[idx] + delta_t * x, w[idx] * frac)
        for idx in np.argsort(times)
        for x, frac in zip(xs, vals)
        if w[idx] * frac != 0.0
    ]
    basis = default_chi_basis([r_of_t(geom, t) for t in times])
    meta = {"kind": "nascent_delta", "delta_t": float(delta_t), "shape": shape, "steps_per_kick": int(steps_per_kick)}
    return _channel_at_dim(spec, geom, steps, basis, meta)


def channel_distance(c1, c2) -> float:
    """Largest trace distance between the two maps' outputs over all states.

    Half the exact maximum of |(A1 - A2) u + (b1 - b2)| over the Bloch ball
    (``max_image_norm``); zero exactly when the affine parts agree.
    """
    diff = AffineBlochMap(c1.affine.matrix - c2.affine.matrix, c1.affine.shift - c2.affine.shift)
    return 0.5 * max_image_norm(diff)[0]
