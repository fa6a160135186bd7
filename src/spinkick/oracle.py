"""Independent brute-force verification in a truncated Fock space.

Evolves the joint qubit+oscillator state explicitly, partial-traces it, and
reconstructs the channel.  No Weyl-relation shortcuts are taken anywhere,
so agreement with the analytic constructions is a genuine cross-check.  Also
provides the nascent-delta (smooth switching) limit as a time-ordered
product of narrow pulses.

All matrix exponentials go through Hermitian eigendecompositions, so the
evolution is unitary on the truncated space up to rounding.  The coupling
at time t is a diagonal phase rotation of the coupling at time 0, so one
eigendecomposition per truncation serves every step, and in its eigenbasis
a kick is a diagonal phase; the channel is read from the evolved columns
of a square root of the environment state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import QubitMap, _byte_text, default_chi_basis, validate_map
from .environment import SingleModeThermal
from .errors import (
    InvalidMap,
    InvalidTruncation,
    LengthMismatch,
    NonHermitian,
    NonUnitVector,
    SpinKickError,
    StepTooCoarse,
    TruncationNotConverged,
    UnknownPulseShape,
)
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
            raise InvalidTruncation(f"dim must be at least 2, got {self.dim}")


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


def _environment_factor(spec: FockSpec):
    """S = diag(sqrt(p)), or D(alpha0) diag(sqrt(p)) when displaced, with
    S S^dag the truncated Gibbs state (p renormalized on the truncated
    space), and the occupation of its highest level, which bounds the
    renormalization error."""
    nbar, displacement = spec.env.nbar, spec.env.displacement
    n = np.arange(spec.dim)
    if nbar == 0:
        p = np.zeros(spec.dim)
        p[0] = 1.0
    else:
        q = nbar / (nbar + 1.0)
        p = q**n
        p /= p.sum()
    factor = np.diag(np.sqrt(p)).astype(complex)
    if displacement != 0:
        a = annihilation(spec.dim)
        gen = displacement * a.conj().T - np.conj(displacement) * a
        factor = _expm_i_hermitian(-1j * gen) * np.sqrt(p)  # exp(gen), gen anti-Hermitian
    return factor, float(np.vdot(factor[-1], factor[-1]).real)


def environment_state(spec: FockSpec):
    """Truncated (displaced) Gibbs state S S^dag and its top-level occupation."""
    factor, tail = _environment_factor(spec)
    return factor @ factor.conj().T, tail


def coupling_spectrum(o_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a Hermitian coupling O.

    The one place the coupling is checked for Hermiticity (to 1e-12): every
    spectrum the oracle evolves with comes from here.
    """
    o_matrix = np.asarray(o_matrix, dtype=complex)
    if np.max(np.abs(o_matrix - o_matrix.conj().T)) > 1e-12:
        raise NonHermitian("coupling observable must be Hermitian")
    return np.linalg.eigh(o_matrix)


def _level_phases(dim: int, turn: complex) -> np.ndarray:
    """1, turn, ..., turn^(dim - 1), for turn = e^{iwt} the diagonal of D(t),
    O(t) = D(t) O(0) D(t)^dag: a cumulative product, so adjacent levels keep
    their relative phase to rounding, whatever the size of wtn."""
    phases = np.ones(dim, dtype=complex)
    phases[1:] = np.cumprod(np.full(dim - 1, turn))
    return phases


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


def _evolve(spec: FockSpec, spectrum, steps, columns: np.ndarray) -> np.ndarray:
    """Y[i, a, l, c] (output spin, input spin, eigenlevel, column) with
    U (I2 (x) C) = (I2 (x) D(t_n) V) Y, for U the product of the steps
    exp(-i w r.sigma (x) O(t)), (t, w, r) in time order, C a d x K block of
    environment columns and (lambda, V) = ``spectrum``, O(0) = V diag(lambda)
    V^dag.  With W_k = D(t_k) V and F_k the frame of r_k.sigma, step k is
    (F_k (x) W_k) B_k (F_k (x) W_k)^dag, B_k = e^{-+iw_k lambda} on the +-1
    eigenvector, so the evolution is carried in the latest step's frames and
    between steps only F_{k+1}^dag F_k and G_k = W_{k+1}^dag W_k act (its
    phases are powers of e^{-iwt_{k+1}} e^{iwt_k}, each taken at its own time
    as in O(t)).  V must be orthonormal to 1e-10, else InvalidMap: every G_k
    and B_k is unitary exactly when V is.
    """
    evals, vecs = spectrum
    d, width = columns.shape
    defect = np.max(np.abs(vecs.conj().T @ vecs - np.eye(d)))
    if defect > 1e-10:
        raise InvalidMap(f"coupling eigenbasis failed unitarity check ({defect:.3e})")
    y, other = np.zeros((2, 2, d, width), dtype=complex), np.empty((2, 2, d, width), dtype=complex)
    y[0, 0] = y[1, 1] = columns
    vecs_h, frame = vecs.conj().T, I2
    for k, (t, w, r) in enumerate(steps):
        step_frame, step_turn = _spin_frame(r), np.exp(1j * spec.env.omega * t)
        if k == 0:  # F_1^dag (x) W_1^dag C
            phases = _level_phases(d, step_turn.conjugate())[:, None]
            np.multiply(step_frame.conj().T[:, :, None, None], vecs_h @ (phases * columns), out=y)
        else:
            np.matmul((vecs_h * _level_phases(d, step_turn.conjugate() * turn)) @ vecs, y, out=other)
            np.matmul(step_frame.conj().T @ frame, other.reshape(2, -1), out=y.reshape(2, -1))
        minus = np.exp(-1j * w * evals)
        y *= np.stack((minus, minus.conj()))[:, None, :, None]
        frame, turn = step_frame, step_turn
    np.matmul(frame, y.reshape(2, -1), out=other.reshape(2, -1))
    return other


def _channel_at_dim(spec: FockSpec, steps, basis: OperatorBasis, meta: dict) -> QubitMap:
    """Reduced channel of the joint steps (t, w, r), in time order, at spec.dim.

    With Y the evolved columns of S, rho_env = S S^dag, m[i, a, j, b] =
    tr(U_ia rho_env U_jb^dag) = sum_{l, c} Y[i, a, l, c] conj(Y[j, b, l, c])
    (D(t_n) V cancels in the trace); a probe's output is sum_ab rho_q[a, b]
    m[:, a, :, b].  meta gains the dimension, tail mass, work and peak
    ``bytes``; a build that cannot be allocated raises SpinKickError.
    """
    # Y and its step buffer (64 d^2 bytes each); V, V^dag, S, G_k and the scaled
    # V^dag that forms it (16 d^2 each); numpy's iteration buffers add <= 128 KiB
    nbytes = 208 * spec.dim**2
    try:
        spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
        factor, tail = _environment_factor(spec)
        y = _evolve(spec, spectrum, steps, factor).reshape(4, -1)
        m = (y @ y.conj().T).reshape(2, 2, 2, 2)
    except MemoryError as exc:
        raise SpinKickError(
            f"oracle truncation at dim {spec.dim} needs {_byte_text(nbytes)}, more than could be allocated"
        ) from exc
    inputs = [I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI]
    blochs = [density_to_bloch(np.einsum("ab,iajb->ij", rho_q, m), tol=1e-8) for rho_q in inputs]
    b = blochs[0]
    a = np.column_stack([v - b for v in blochs[1:]])
    meta = {**meta, "dim": spec.dim, "tail": tail, "kick_steps": len(steps), "eigendecompositions": 1, "bytes": nbytes}
    ch = QubitMap(AffineBlochMap(a, b), basis, meta)
    # truncation error can leave tiny PSD defects, so only the structural
    # invariants are enforced here; CP-ness is what the comparison tests
    validate_map(ch, herm_tol=1e-8, tp_tol=1e-8)
    return ch


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
    ``eigendecompositions`` of the coupling, one per truncation tried.  A
    start with no finer truncation up to max_dim to compare it with is
    refused before anything is built.
    """
    dims = range(spec.dim, max_dim + 1, DIM_STEP)
    unstable = f"no stable channel up to dim {max_dim} (tol {stability_tol})"
    if len(dims) < 2:
        raise TruncationNotConverged(unstable)
    steps = [(t, w, r_of_t(geom, t)) for t, w in zip(sched.times, sched.weights)]
    basis = default_chi_basis([r for _, _, r in steps])
    current = _channel_at_dim(replace(spec, dim=dims[0]), steps, basis, {"kind": "oracle"})
    work = {key: current.meta[key] for key in ("kick_steps", "eigendecompositions")}
    history = []
    for dim in dims[1:]:
        finer = _channel_at_dim(replace(spec, dim=dim), steps, basis, {"kind": "oracle"})
        dist = channel_distance(current, finer)
        history.append((dim, dist))
        for key in work:
            work[key] += finer.meta[key]
        if dist < stability_tol and finer.meta["tail"] < TAIL_TOL:
            return replace(finer, meta={**finer.meta, "stability": dist, "history": tuple(history), **work})
        current = finer
    raise TruncationNotConverged(unstable)


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
        raise LengthMismatch(f"{len(times)} kick times but {len(w)} weights")
    if shape not in PULSE_SHAPES:
        raise UnknownPulseShape(f"unknown pulse shape {shape!r}; available: {', '.join(PULSE_SHAPES)}")
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
        (t, wt, r_of_t(geom, t))
        for idx in np.argsort(times)
        for t, wt in zip(times[idx] + delta_t * xs, w[idx] * vals)
        if wt != 0.0
    ]
    basis = default_chi_basis([r_of_t(geom, t) for t in times])
    meta = {"kind": "nascent_delta", "delta_t": float(delta_t), "shape": shape, "steps_per_kick": int(steps_per_kick)}
    return _channel_at_dim(spec, steps, basis, meta)


def channel_distance(c1, c2) -> float:
    """Largest trace distance between the two maps' outputs over all states.

    Half the exact maximum of |(A1 - A2) u + (b1 - b2)| over the Bloch ball
    (``max_image_norm``); zero exactly when the affine parts agree.
    """
    diff = AffineBlochMap(c1.affine.matrix - c2.affine.matrix, c1.affine.shift - c2.affine.shift)
    return 0.5 * max_image_norm(diff)[0]
