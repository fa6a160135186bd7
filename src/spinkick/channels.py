"""Exact qubit channels induced by trains of instantaneous couplings.

A train of n kicks at times t_0 < ... < t_{N} (n = N+1) produces the channel

    E[rho] = sum_{s, s'} gamma(s, s') P(s) rho P(s')^dag,

where P(s) = P^{s_N}(t_N) ... P^{s_0}(t_0) is a product of eigenprojectors of
the precessing Pauli observables r(t_k).sigma and the complex coefficients
gamma(s, s') carry all the environment data through the mean and the
centered two-point correlator.  The sum runs over all 4^n sign-vector pairs;
enumeration order is lexicographic with bit i of the index addressing kick i
(bit 0 = earliest kick, cleared bit = +1).  Construction is deterministic:
fixed enumeration and fixed-order accumulation give bit-reproducible output.

Channels and the transition maps between kick counts are one type,
QubitMap: an affine Bloch action (A, b) together with the chi-matrix in a
declared operator basis, and a flag ``cp`` that says whether the map is
validated as completely positive.  The constructed objects are immutable and
safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .environment import GaussianEnvironment, format_complex, gaussian_char, gram_matrix, parse_complex
from .errors import (
    InvalidMap,
    NonCommutingSchedule,
    NonEvenEnvironment,
    ParallelAxes,
    SingularChannel,
    TooManyKicks,
)
from .kicks import InteractionGeometry, KickSchedule, is_commuting_schedule, r_of_t
from .pauli import (
    I2,
    PAULI,
    PAULI_BASIS,
    AffineBlochMap,
    OperatorBasis,
    apply_affine,
    density_to_bloch,
    dot_sigma,
)

MAX_KICKS_DEFAULT = 10

# At or below this |r_last x r_first| the two reference axes are treated as
# parallel when choosing a chi basis.  Kept deliberately coarse (1e-3) so the
# constructed basis stays orthonormal to ~1e-13 even at the cutoff.
PARALLEL_BASIS_TOL = 1e-3


# ---------------------------------------------------------------------------
# gamma coefficients


def _sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign vectors; row m has s_i = +1 iff bit i of m is clear."""
    m = np.arange(2**n)[:, None]
    bits = (m >> np.arange(n)[None, :]) & 1
    return 1 - 2 * bits


def _gamma_matrix(env, times, weights, signs: np.ndarray) -> np.ndarray:
    """gamma(s, s') for every pair of rows of ``signs`` at once.

    Gaussian expectation of the projected Weyl-operator string: a phase from
    the means, a self-variance damping factor, and cross terms coupling each
    kick to all earlier ones through the centered correlator; gamma(s, s) is
    1.  The separable split exp(phi(s) + conj(phi(s')) + s K^T s') keeps the
    4^n sweep in dense linear algebra (the tests keep the pairwise formula as
    the reference it must match).
    """
    lam = np.asarray(weights, dtype=float)
    mu = lam * np.array([env.mean(t) for t in times])
    gram = gram_matrix(env, times, lam)
    var = np.diag(gram).real
    s = signs.astype(float)
    phi = -1j * (s @ mu) - np.einsum("mi,ij,mj->m", s, np.tril(gram, -1), s) - 0.5 * var.sum()
    return np.exp(phi[:, None] + phi.conj()[None, :] + s @ gram.T @ s.T)


# ---------------------------------------------------------------------------
# chi bases and chi <-> affine conversion


def two_kick_frame(r_later, r_earlier) -> np.ndarray:
    """Orthonormal frame (rows e1, e2, e3) adapted to two kick axes.

    e1 = r_later, e2 completes r_earlier in the (r_later, r_earlier) plane,
    e3 is along r_later x r_earlier.  Raises ParallelAxes when the plane is
    degenerate (|r_later x r_earlier| <= 1e-10).
    """
    r1 = np.asarray(r_later, dtype=float)
    r0 = np.asarray(r_earlier, dtype=float)
    cross = np.cross(r1, r0)
    nc = np.linalg.norm(cross)
    if nc <= 1e-10:
        raise ParallelAxes(f"|r_later x r_earlier| = {nc:.3e} <= 1e-10")
    alpha = float(r1 @ r0)
    e2 = (r0 - alpha * r1) / nc
    return np.stack([r1, e2, cross / nc])


def basis_from_frame(frame: np.ndarray) -> OperatorBasis:
    """Operator basis {1, e1.sigma, e2.sigma, e3.sigma}/sqrt(2)."""
    ops = [I2] + [dot_sigma(e) for e in frame]
    return OperatorBasis(np.stack(ops) / np.sqrt(2.0))


def default_chi_basis(axes) -> OperatorBasis:
    """The chi basis of every constructed map, from its kick axes in time order.

    The frame of the last and first axes (``two_kick_frame``) when
    |r_last x r_first| > PARALLEL_BASIS_TOL; the Pauli basis otherwise, which
    covers a single axis and an empty schedule.
    """
    if len(axes) == 0:
        return PAULI_BASIS
    r_last, r_first = np.asarray(axes[-1], float), np.asarray(axes[0], float)
    if np.linalg.norm(np.cross(r_last, r_first)) <= PARALLEL_BASIS_TOL:
        return PAULI_BASIS
    return basis_from_frame(two_kick_frame(r_last, r_first))


def apply_chi(chi: np.ndarray, basis: OperatorBasis, rho: np.ndarray) -> np.ndarray:
    """sum_ab chi_ab B_a rho B_b^dag."""
    b = basis.ops
    return np.einsum("ab,aij,jk,blk->il", chi, b, rho, b.conj())


def _basis_tensor(basis: OperatorBasis) -> np.ndarray:
    """16x16 tensor T[(c,d),(a,b)] = tr(B_c^dag B_a B_d B_b^dag) linking the
    chi matrix to the superoperator matrix in the same basis."""
    b = basis.ops
    bh = b.conj().transpose(0, 2, 1)
    t = np.einsum("cxy,ayz,dzw,bwx->cdab", bh, b, b, bh)
    return t.reshape(16, 16)


def _sigma_coeffs(x: np.ndarray):
    """Decompose a 2x2 operator as x0*1 + xvec.sigma (complex coefficients)."""
    x0 = np.trace(x) / 2.0
    xvec = np.einsum("ijk,kj->i", PAULI, x) / 2.0
    return x0, xvec


def _apply_affine_linear(affine: AffineBlochMap, x: np.ndarray) -> np.ndarray:
    """Complex-linear extension of the affine Bloch action to operators."""
    x0, xvec = _sigma_coeffs(x)
    out_vec = affine.matrix.astype(complex) @ xvec + x0 * affine.shift
    return x0 * I2 + np.einsum("i,ijk->jk", out_vec, PAULI)


def chi_from_affine(affine: AffineBlochMap, basis: OperatorBasis) -> np.ndarray:
    """chi matrix of the (trace-preserving) map with the given affine action.

    The correspondence is a bijection: the superoperator matrix S_cd =
    tr(B_c^dag E[B_d]) is linear in chi through the basis tensor, which is
    invertible for any orthonormal operator basis.
    """
    s = np.empty((4, 4), dtype=complex)
    for d in range(4):
        out = _apply_affine_linear(affine, basis.ops[d])
        for c in range(4):
            s[c, d] = np.trace(basis.ops[c].conj().T @ out)
    chi = np.linalg.solve(_basis_tensor(basis), s.reshape(16))
    return chi.reshape(4, 4)


def affine_from_chi(chi: np.ndarray, basis: OperatorBasis) -> AffineBlochMap:
    """Affine Bloch action of the map chi."""
    return _affine_from_action(lambda rho: apply_chi(chi, basis, rho))


def _affine_from_action(apply_rho) -> AffineBlochMap:
    """Affine Bloch action of a map, from its action on {1/2, (1+sigma_i)/2}."""
    b = density_to_bloch(apply_rho(I2 / 2.0))
    cols = [density_to_bloch(apply_rho((I2 + sig) / 2.0)) - b for sig in PAULI]
    return AffineBlochMap(np.column_stack(cols), b)


# ---------------------------------------------------------------------------
# the map container


@dataclass(frozen=True, eq=False)
class QubitMap:
    """A trace- and Hermiticity-preserving qubit map: affine Bloch action plus
    chi matrix in a basis.  cp=True marks a channel (CPTP, chi validated
    PSD); transition maps, which need not be CP, carry cp=False."""

    affine: AffineBlochMap
    chi: np.ndarray
    basis: OperatorBasis
    meta: dict = field(default_factory=dict)
    cp: bool = True

    def __post_init__(self):
        chi = np.array(self.chi, dtype=complex).reshape(4, 4)
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)

    def __call__(self, u) -> np.ndarray:
        return apply_affine(self.affine, u)


def validate_map(m, herm_tol: float = 1e-10, tp_tol: float = 1e-10) -> None:
    """Check Hermiticity of chi and trace preservation; raises InvalidMap."""
    chi, basis = m.chi, m.basis
    herm = np.max(np.abs(chi - chi.conj().T))
    if herm > herm_tol:
        raise InvalidMap(f"chi not Hermitian: deviation {herm:.3e} > {herm_tol}")
    b = basis.ops
    tp = np.einsum("ab,bkl,aki->li", chi, b.conj(), b)
    dev = np.max(np.abs(tp - I2))
    if dev > tp_tol:
        raise InvalidMap(f"not trace preserving: sum chi B^dag B deviates by {dev:.3e}")


def validate_channel(ch: QubitMap) -> None:
    """Channel invariants: Hermitian chi, trace preservation, chi PSD (min
    eigenvalue >= -1e-10)."""
    validate_map(ch)
    lo = np.linalg.eigvalsh(ch.chi).min()
    if lo < -1e-10:
        raise InvalidMap(f"chi not PSD: min eigenvalue {lo:.3e} < -1e-10")


def _map(affine, basis, meta, cp=True, chi=None) -> QubitMap:
    """Construct and validate a map; chi is derived from the affine action
    unless given."""
    if chi is None:
        chi = chi_from_affine(affine, basis)
    m = QubitMap(affine, chi, basis, meta, cp)
    (validate_channel if cp else validate_map)(m)
    return m


def identity_channel() -> QubitMap:
    """The channel of an empty schedule, in the Pauli basis."""
    return _map(AffineBlochMap.identity(), default_chi_basis(()), {"kind": "identity"})


# ---------------------------------------------------------------------------
# constructors


def phase_damping_channel(r_axis, gamma: complex, meta: dict | None = None) -> QubitMap:
    """Generalized phase damping about a fixed axis with complex gamma.

    Operator form P+ rho P+ + P- rho P- + gamma P+ rho P- + conj(gamma)
    P- rho P+; the modulus of gamma damps coherences in the r eigenbasis and
    its phase is a rotation about r.
    """
    r = np.asarray(r_axis, dtype=float)
    p_plus = (I2 + dot_sigma(r)) / 2.0
    p_minus = (I2 - dot_sigma(r)) / 2.0
    g = complex(gamma)

    def act(rho):
        return (
            p_plus @ rho @ p_plus
            + p_minus @ rho @ p_minus
            + g * (p_plus @ rho @ p_minus)
            + np.conj(g) * (p_minus @ rho @ p_plus)
        )

    md = {"kind": "phase_damping", "gamma": g, "r_last": tuple(r)}
    md.update(meta or {})
    return _map(_affine_from_action(act), default_chi_basis([r]), md)


def single_kick_channel(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    weight: float = 1.0,
) -> QubitMap:
    """Exact channel for one kick at t0: phase damping about r(t0) with
    gamma = <exp(-2i w O(t0))>.

    For even environments gamma is real and the Bloch action reduces to
    u -> gamma u + (1 - gamma)(u.r) r; a nonzero mean only adds a rotation
    about r(t0).
    """
    r = r_of_t(geom, t0)
    gamma = gaussian_char(env, [t0], [2.0 * weight])
    meta = {
        "kind": "single_kick",
        "times": (float(t0),),
        "weights": (float(weight),),
        "environment": repr(env),
    }
    return phase_damping_channel(r, gamma, meta=meta)


def build_n_kick_channel(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    sched: KickSchedule,
    max_kicks: int = MAX_KICKS_DEFAULT,
) -> QubitMap:
    """Exact channel for an arbitrary kick schedule by full 4^n enumeration.

    Accumulates the chi matrix from the double trace over projector strings
    and recovers the affine action from the chi action on {1/2, (1+s_i)/2}.
    Cost grows as 4^n; schedules longer than ``max_kicks`` are refused
    (raise the budget explicitly if you really mean it).
    """
    n = len(sched)
    if n == 0:
        return identity_channel()
    if n > max_kicks:
        raise TooManyKicks(f"{n} kicks exceeds budget of {max_kicks} (4^n terms)")
    times = sched.times
    rs = np.stack([r_of_t(geom, t) for t in times])
    basis = default_chi_basis(rs)

    signs = _sign_matrix(n)
    m_count = signs.shape[0]
    p_plus = np.stack([(I2 + dot_sigma(r)) / 2.0 for r in rs])
    p_minus = np.stack([(I2 - dot_sigma(r)) / 2.0 for r in rs])

    strings = np.empty((m_count, 2, 2), dtype=complex)
    for m in range(m_count):
        acc = I2
        for i in range(n):  # left-multiply so kick N ends outermost
            acc = (p_plus[i] if signs[m, i] > 0 else p_minus[i]) @ acc
        strings[m] = acc

    coeff = np.einsum("ayx,myx->ma", basis.ops.conj(), strings)
    gammas = _gamma_matrix(env, times, sched.weights, signs)
    chi = coeff.T @ gammas @ coeff.conj()

    affine = affine_from_chi(chi, basis)
    meta = {
        "kind": "n_kick",
        "times": tuple(float(t) for t in times),
        "weights": tuple(float(w) for w in sched.weights),
        "environment": repr(env),
        "r_last": tuple(rs[-1]),
    }
    return _map(affine, basis, meta, chi=chi)


@dataclass(frozen=True, eq=False)
class TwoKickParams:
    """Closed-form parameters of the two-kick channel on an even state."""

    alpha: float
    g: float
    h: complex
    k: complex
    frame: np.ndarray


def two_kick_params(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    t1: float,
    weights=(1.0, 1.0),
) -> TwoKickParams:
    """Parameters (alpha, g, h, k) and the adapted frame for kicks at t0 < t1.

    alpha = r(t1).r(t0), g = exp(-2 Var(t0)), and h, k combine the damping at
    t1 with hyperbolic functions of the cross correlator K(t1, t0).  Requires
    an even environment and non-parallel axes.
    """
    if not env.is_even:
        raise NonEvenEnvironment("two-kick closed form assumes a vanishing mean")
    w0, w1 = float(weights[0]), float(weights[1])
    r0 = r_of_t(geom, t0)
    r1 = r_of_t(geom, t1)
    frame = two_kick_frame(r1, r0)
    alpha = float(r1 @ r0)
    v0 = w0 * w0 * env.covariance(t0, t0).real
    v1 = w1 * w1 * env.covariance(t1, t1).real
    corr = w1 * w0 * env.covariance(t1, t0)
    g = float(np.exp(-2.0 * v0))
    h = np.exp(-v1) * (np.cosh(2.0 * corr) - alpha * np.sinh(2.0 * corr))
    k = np.linalg.norm(np.cross(r1, r0)) * np.exp(-v1) * np.sinh(2.0 * corr)
    return TwoKickParams(alpha, g, complex(h), complex(k), frame)


def _two_kick_affine(params: TwoKickParams, unit_g: bool = False) -> AffineBlochMap:
    """Affine action B C u + b in the lab frame; unit_g builds the
    transition map (g set to 1)."""
    alpha, g, h, k = params.alpha, params.g, params.h, params.k
    if unit_g:
        g = 1.0
    s = float(np.sqrt(max(0.0, 1.0 - alpha * alpha)))
    b_mat = np.array(
        [
            [1.0, 0.0, 0.0],
            [2.0 * np.real(np.conj(h) * k), abs(h) ** 2 - abs(k) ** 2, 0.0],
            [0.0, 0.0, abs(h) ** 2 + abs(k) ** 2],
        ]
    )
    c_mat = np.array(
        [
            [alpha**2 + g * (1.0 - alpha**2), alpha * s * (1.0 - g), 0.0],
            [alpha * s * (1.0 - g), g * alpha**2 + (1.0 - alpha**2), 0.0],
            [0.0, 0.0, g],
        ]
    )
    # shift 2 Im(h* k) e3 = e^{-2 Var(t1)} sin(4 Im K(t1,t0)) |r1 x r0| e3,
    # matching the channel's action on the identity (and the Fock oracle)
    b_vec = np.array([0.0, 0.0, 2.0 * np.imag(np.conj(h) * k)])
    rot = params.frame.T  # columns e1, e2, e3
    return AffineBlochMap(rot @ (b_mat @ c_mat) @ rot.T, rot @ b_vec)


def two_kick_closed_form(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    t1: float,
    weights=(1.0, 1.0),
) -> QubitMap:
    """Closed-form two-kick channel on an even environment.

    When r(t1) is parallel to r(t0) the e-frame degenerates; the schedule is
    then commuting and the construction falls back to the dephasing channel.
    """
    try:
        params = two_kick_params(env, geom, t0, t1, weights)
    except ParallelAxes:
        return dephasing_channel(env, geom, KickSchedule([t0, t1], list(weights)))
    r1 = params.frame[0]
    meta = {
        "kind": "two_kick_closed_form",
        "times": (float(t0), float(t1)),
        "weights": (float(weights[0]), float(weights[1])),
        "environment": repr(env),
        "r_last": tuple(r1),
        "closed_form": {"alpha": params.alpha, "g": params.g, "h": params.h, "k": params.k},
    }
    return _map(_two_kick_affine(params), default_chi_basis([r_of_t(geom, t0), r1]), meta)


def dephasing_gamma(env: GaussianEnvironment, geom: InteractionGeometry, sched: KickSchedule) -> complex:
    """Dephasing coefficient <exp(-2i sum_k f_k w_k O(t_k))> of a commuting
    schedule."""
    ok, signs = is_commuting_schedule(geom, sched)
    if not ok:
        raise NonCommutingSchedule("kick axes are not collinear within tolerance")
    return gaussian_char(env, sched.times, 2.0 * signs * sched.weights)


def dephasing_channel(env: GaussianEnvironment, geom: InteractionGeometry, sched: KickSchedule) -> QubitMap:
    """Phase damping channel for a synchronized (commuting) schedule.

    All kick axes share one spectral decomposition, so the 4^n enumeration
    collapses to a single coefficient computed in O(n^2) from the correlator
    double sum.  Time ordering contributes only a global phase and drops out.
    """
    ok, signs = is_commuting_schedule(geom, sched)
    if not ok:
        raise NonCommutingSchedule("kick axes are not collinear within tolerance")
    r = r_of_t(geom, sched.times[0])
    gamma = gaussian_char(env, sched.times, 2.0 * signs * sched.weights)
    meta = {
        "kind": "dephasing",
        "times": tuple(float(t) for t in sched.times),
        "weights": tuple(float(w) for w in sched.weights),
        "signs": tuple(int(f) for f in signs),
        "environment": repr(env),
    }
    return phase_damping_channel(r, gamma, meta=meta)


# ---------------------------------------------------------------------------
# map algebra


def compose(later: QubitMap, earlier: QubitMap) -> QubitMap:
    """Composition later o earlier; affine parts multiply, chi is recomputed
    from the composed action in the later map's basis.  The result is a
    channel only when both factors are."""
    a2, b2 = later.affine.matrix, later.affine.shift
    a1, b1 = earlier.affine.matrix, earlier.affine.shift
    affine = AffineBlochMap(a2 @ a1, a2 @ b1 + b2)
    meta = {
        "kind": "composition",
        "parents": (later.meta.get("kind"), earlier.meta.get("kind")),
        "r_last": later.meta.get("r_last"),
    }
    return _map(affine, later.basis, meta, cp=later.cp and earlier.cp)


def invert_channel(ch: QubitMap) -> QubitMap:
    """Inverse map (A^{-1}, -A^{-1} b); generally not completely positive.

    Raises SingularChannel when A is singular (for dephasing that is the
    gamma -> 0 limit).  The condition number is recorded in meta.
    """
    a = ch.affine.matrix
    svals = np.linalg.svd(a, compute_uv=False)
    if svals[-1] <= 1e-14 * max(svals[0], 1.0):
        raise SingularChannel(f"affine matrix singular (singular values {svals})")
    a_inv = np.linalg.inv(a)
    affine = AffineBlochMap(a_inv, -a_inv @ ch.affine.shift)
    meta = {
        "kind": "inverse",
        "parent": ch.meta.get("kind"),
        "condition_number": float(svals[0] / svals[-1]),
    }
    return _map(affine, ch.basis, meta, cp=False)


def transition_map(longer: QubitMap, shorter: QubitMap) -> QubitMap:
    """Theta = longer o shorter^{-1}, the map between intermediate states.

    Hermiticity- and trace-preserving by construction; complete positivity
    of Theta is exactly what divisibility analysis interrogates.
    """
    theta = compose(longer, invert_channel(shorter))
    meta = dict(theta.meta)
    meta.update(
        {
            "kind": "transition",
            "longer": longer.meta.get("times"),
            "shorter": shorter.meta.get("times"),
            "r_last": longer.meta.get("r_last"),
        }
    )
    if "closed_form" in longer.meta:
        meta["closed_form"] = longer.meta["closed_form"]
    return replace(theta, meta=meta)


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
    meta = {
        "kind": "transition_closed_form",
        "times": (float(t0), float(t1)),
        "r_last": tuple(params.frame[0]),
        "closed_form": {"alpha": params.alpha, "g": params.g, "h": params.h, "k": params.k},
    }
    basis = default_chi_basis([r_of_t(geom, t0), params.frame[0]])
    return _map(_two_kick_affine(params, unit_g=True), basis, meta, cp=False)


# ---------------------------------------------------------------------------
# serialization (text format, round-trip safe)


def format_channel(m: QubitMap) -> str:
    """A channel or transition map in the documented text format."""
    lines = ["spinkick-map v1", f"kind: {'channel' if m.cp else 'transition'}"]
    times = m.meta.get("times")
    if times is not None:
        lines.append("times: " + " ".join(f"{t:.17g}" for t in times))
    lines.append("basis:")
    for op in m.basis.ops:
        lines.append(" ".join(format_complex(z) for z in op.reshape(4)))
    lines.append("chi:")
    for row in m.chi:
        lines.append(" ".join(format_complex(z) for z in row))
    lines.append("A:")
    for row in m.affine.matrix:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    lines.append("b:")
    lines.append(" ".join(f"{x:.17g}" for x in m.affine.shift))
    return "\n".join(lines) + "\n"


def save_channel(m: QubitMap, path) -> None:
    """Write a channel or transition map to the documented text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_channel(m))


def load_channel(path) -> QubitMap:
    """Read back a map written by save_channel."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines[0] != "spinkick-map v1":
        raise ValueError(f"unrecognized header {lines[0]!r}")
    kind = lines[1].split(":", 1)[1].strip()
    meta = {}
    i = 2
    if lines[i].startswith("times:"):
        meta["times"] = tuple(float(x) for x in lines[i].split(":", 1)[1].split())
        i += 1
    if lines[i] != "basis:":
        raise ValueError("expected basis section")
    ops = np.array(
        [[parse_complex(tok) for tok in lines[i + 1 + r].split()] for r in range(4)]
    ).reshape(4, 2, 2)
    i += 5
    if lines[i] != "chi:":
        raise ValueError("expected chi section")
    chi = np.array([[parse_complex(tok) for tok in lines[i + 1 + r].split()] for r in range(4)])
    i += 5
    if lines[i] != "A:":
        raise ValueError("expected A section")
    a = np.array([[float(tok) for tok in lines[i + 1 + r].split()] for r in range(3)])
    i += 4
    if lines[i] != "b:":
        raise ValueError("expected b section")
    b = np.array([float(tok) for tok in lines[i + 1].split()])
    return _map(AffineBlochMap(a, b), OperatorBasis(ops), meta, cp=kind == "channel", chi=chi)
