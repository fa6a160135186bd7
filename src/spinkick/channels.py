"""Exact qubit channels induced by trains of instantaneous couplings.

A train of n kicks at times t_0 < ... < t_{N} (n = N+1) produces the channel

    E[rho] = sum_{s, s'} gamma(s, s') P(s) rho P(s')^dag,

where P(s) = P^{s_N}(t_N) ... P^{s_0}(t_0) is a product of eigenprojectors of
the precessing Pauli observables r(t_k).sigma and the complex coefficients
gamma(s, s') carry all the environment data through the mean and the
centered two-point correlator.  The sum runs over all 4^n sign-vector pairs;
their order is lexicographic with bit i of the index addressing kick i
(bit 0 = earliest kick, cleared bit = +1).

Two builders evaluate it exactly from a train's ``KickInputs``.
``build_n_kick_channel`` enumerates the 4^n coefficients of one schedule
at once: it exponentiates 4^n complex entries and holds the whole gamma
matrix, 16 * 4^n bytes.  It is the one-record case of ``_enumerate``,
which builds a stack of records in one pass (as ``sweep`` does a stack of
grid points, bounded by ``STACK_BYTES``), each entry bit for bit its
one-record channel.  ``build_prefix_channels`` gives the channel after
every kick of a schedule, a tuple of prefixes validated together, from one
exact recursion on the affine action.  The sign pairs that agree
on a new kick repeat the previous coefficients, so their part of the new
channel is the previous prefix dephased along the kick axis r,
(A, b) -> (r r^T A, r r^T b).  Every projector string has rank one,
P_sigma(r_k) P(s) = g_sigma(s) |e_sigma(r_k)><e_(s_0)(r_0)|, so the pass
carries one complex amplitude g per sign vector, contracts the one new
coherence block X to a 2 x 2 matrix T_k over (s_0, s'_0), and adds
Re(q_k (x) M.T_k) to A and Re(q_k tr T_k) to b.  Every 64 x 64 tile of X
is one base block Gamma_J between a diagonal row and column scaling, so a
level is one matrix product with Gamma_J (summed a row of tiles at a time
where the scalings would leave float64's range, at high occupation), and
no array of 4^(n-1) coefficients is held (its bytes: ``_pass_bytes``).
The two builders agree to rounding (1e-12 in the tests for n <= 10).  A
build past the ``max_kicks`` budget, or one whose coefficients cannot be
allocated at any size (``_held``), raises TooManyKicks naming the bytes;
channels record them in ``meta["bytes"]``.  Construction is deterministic: a
fixed order of accumulation gives bit-reproducible output.

Channels and the transition maps between kick counts are one type,
QubitMap, recorded by the affine Bloch action (A, b) and its kick axes,
and judged by (A, b) alone, by one rule (``_validate``) for one map or a
stack of them: a map must be finite, a channel (flag ``cp``) must have a
PSD Choi matrix in the normalized Pauli basis (``choi_eigenvalues``, one
kernel over leading axes), and ``invert_channel`` refuses an A whose
condition number exceeds ``KAPPA_MAX``.  A QubitMap whose A and b carry
leading axes is a stack of maps; the map algebra (``choi_eigenvalues``,
``invert_channel``, ``transition_map``, ``compose``) takes it entry by
entry in the formula whose 0-d case is the one-map form, and a stack entry
that one map would refuse is nan.  The chi basis of the axes and the
chi in it (``chi_from_affine``) are built only when read, for output.  The
constructed objects are immutable and safe to share between threads.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .environment import PSD_TOL, GaussianEnvironment, _kick_means, _numbers, format_complex, gram_matrix, parse_complex
from .errors import (
    InvalidMap,
    NonCommutingSchedule,
    NonEvenEnvironment,
    ParallelAxes,
    SingularChannel,
    SpinKickError,
    TooManyKicks,
)
from .kicks import COMMUTE_TOL, InteractionGeometry, KickSchedule, collinear_signs, is_commuting_schedule, r_of_t
from .pauli import (
    I2,
    PAULI,
    PAULI_BASIS,
    OperatorBasis,
    _freeze,
    cross3,
    density_to_bloch,
    dot_sigma,
    spin_frames,
)

MAX_KICKS_DEFAULT = 10

# Bytes of gamma matrices that one stacked enumeration holds (``_enumerate``,
# ``_stack_size``): 512 records of 5 kicks, 2 of 9, and from 10 kicks, whose
# one record's coefficients take 16 MiB, a record alone.
STACK_BYTES = 8 * 1024**2

# At or below this |r_last x r_first| the two reference axes are treated as
# parallel when choosing a chi basis.  Kept deliberately coarse (1e-3) so the
# constructed basis stays orthonormal to ~1e-13 even at the cutoff.
PARALLEL_BASIS_TOL = 1e-3

# Side of the prefix pass's base block, of which larger levels are tiles.  It
# must be even: a column s' of the base block has the parity of s'_0, and
# ``_PARITY_HALVES`` splits its columns into the even ones, then the odd.
_BASE = 64
_PARITY_HALVES = (slice(0, None, 2), slice(1, None, 2))

# Largest exponent range in which a tiled level of the prefix pass is
# contracted in factored form (``build_prefix_channels``): its factors then
# lie within [e^-600, e^600], inside float64's normal range [e^-708, e^709].
_FACTOR_RANGE = 600.0

# Largest condition number max(sigma_max, 1) / sigma_min of A that
# ``invert_channel`` accepts: there kappa * eps = 2.2e-10 reaches the scale
# of PSD_TOL, so past it rounding would decide the CP verdict of the
# inverse and of every transition map built from it.
KAPPA_MAX = 1e6

# ln of float64's largest value: e^x is finite up to here, and so are
# cosh(x + iy), sinh(x + iy) and cosh - a sinh for |a| <= 1.
_EXP_MAX = float(np.log(np.finfo(float).max))


# ---------------------------------------------------------------------------
# gamma coefficients


def _sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign vectors; row m has s_i = +1 iff bit i of m is clear."""
    m = np.arange(2**n)[:, None]
    bits = (m >> np.arange(n)[None, :]) & 1
    return 1 - 2 * bits


def _projector_strings(rs: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """P_{s_n}(r_n) ... P_{s_1}(r_1) for every row s of ``signs``, kick n
    outermost: one stacked product per kick."""
    strings = np.broadcast_to(I2, (len(signs), 2, 2))
    for r, s in zip(rs, signs.T):
        p_plus, p_minus = (I2 + dot_sigma(r)) / 2.0, (I2 - dot_sigma(r)) / 2.0
        strings = np.where(s[:, None, None] > 0, p_plus, p_minus) @ strings
    return strings


@dataclass(frozen=True, eq=False)
class KickInputs:
    """What a train hands its exact builders: the kick axes r(t_k), weighted
    means w_k m(t_k) and weighted Gram matrix w_j w_k K(t_j, t_k), by the
    Weyl relations all a channel reads of the environment.  ``of`` is their
    one derivation (the weights scale the means and the Gram matrix, and an
    overflow is refused with SpinKickError); ``head(k)``, slices with the
    Gram block copied contiguous, is byte for byte ``of`` on the first k
    kicks.  The closed forms read it too: the two-kick parameters and
    ``dephasing_gamma``.  Outside it stay the Fock oracle's own axes,
    independent of it, and ``is_commuting_schedule``'s, which judges a
    schedule before its Gram matrix is formed."""

    env: GaussianEnvironment
    times: np.ndarray
    weights: np.ndarray
    axes: np.ndarray
    means: np.ndarray
    gram: np.ndarray

    @classmethod
    def of(cls, env: GaussianEnvironment, geom: InteractionGeometry, sched: KickSchedule) -> KickInputs:
        t, w = sched.times, sched.weights  # derived, and so refused, in this order: axes, means, Gram
        return cls(env, t, w, r_of_t(geom, t), _kick_means(env, t, w), gram_matrix(env, t, w))

    def head(self, k: int) -> KickInputs:
        heads = (self.times[:k], self.weights[:k], self.axes[:k], self.means[:k])
        return KickInputs(self.env, *heads, self.gram[:k, :k].copy())

    def dephasing_gamma(self, signs) -> complex:
        """The dephasing coefficient <exp(-2i sum_k f_k w_k O(t_k))> of a
        commuting train, f its axis signs (``collinear_signs`` of the axes):
        exp(-2i f.means - 2 f^T Re(gram) f).  An exponent that overflows is
        refused with SpinKickError."""
        f = np.asarray(signs, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            exponent = -2j * (f @ self.means) - 2.0 * (f @ self.gram.real @ f)
        if not np.isfinite(exponent):
            raise SpinKickError(f"weights {_numbers(self.weights)} overflow the dephasing coefficient's exponent")
        return complex(np.exp(exponent))


def _gamma_matrix(mu: np.ndarray, gram: np.ndarray, signs: np.ndarray, out=None) -> np.ndarray:
    """gamma(s, s') for every pair of rows of ``signs`` at once, from the
    kicks' weighted means ``mu`` and Gram matrix (``KickInputs``), written
    into ``out`` when it is given (a complex 2^n x 2^n array).

    Gaussian expectation of the projected Weyl-operator string: a phase from
    the means, a self-variance damping factor, and cross terms coupling each
    kick to all earlier ones through the centered correlator; gamma(s, s) is
    1.  The separable split exp(phi(s) + conj(phi(s')) + s K^T s') keeps the
    4^n sweep in dense linear algebra (the tests keep the pairwise formula as
    the reference it must match); the exponent is summed and exponentiated
    in place, so the one temporary of its size is s K^T s'.  Its terms
    cancel to within rounding of the largest Gram entry, so a Gram matrix so
    large that the exponent's rounding overflows exp is refused with
    SpinKickError.
    """
    var = np.diag(gram).real
    s = signs.astype(float)
    gammas = np.empty((len(s), len(s)), dtype=complex) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        phi = -1j * (s @ mu) - np.einsum("mi,ij,mj->m", s, np.tril(gram, -1), s) - 0.5 * var.sum()
        np.add(phi[:, None], phi.conj()[None, :], out=gammas)
        gammas += s @ gram.T @ s.T
        np.exp(gammas, out=gammas)
    if not np.isfinite(gammas).all():
        raise SpinKickError("the Gram matrix is too large for the enumeration: its gamma coefficients overflow")
    return gammas


# ---------------------------------------------------------------------------
# chi bases and chi <-> affine conversion


def two_kick_frame(r_later, r_earlier) -> np.ndarray:
    """Orthonormal frame (rows e1, e2, e3) adapted to two kick axes.

    e1 = r_later, e2 completes r_earlier in the (r_later, r_earlier) plane,
    e3 is along r_later x r_earlier.  Raises ParallelAxes when the plane is
    degenerate (|r_later x r_earlier| <= COMMUTE_TOL).
    """
    r1 = np.asarray(r_later, dtype=float)
    r0 = np.asarray(r_earlier, dtype=float)
    cross = cross3(r1, r0)
    nc = np.linalg.norm(cross)
    if nc <= COMMUTE_TOL:
        raise ParallelAxes(f"|r_later x r_earlier| = {nc:.3e} <= {COMMUTE_TOL:g}")
    alpha = float(r1 @ r0)
    e2 = (r0 - alpha * r1) / nc
    return np.stack([r1, e2, cross / nc])


def basis_from_frame(frame: np.ndarray) -> OperatorBasis:
    """Operator basis {1, e1.sigma, e2.sigma, e3.sigma}/sqrt(2)."""
    ops = [I2] + [dot_sigma(e) for e in frame]
    return OperatorBasis(np.stack(ops) / np.sqrt(2.0))


def default_chi_basis(axes) -> OperatorBasis:
    """The chi basis of every constructed map, from its kick axes in time order.

    The frame of the last and first axes (``two_kick_frame``) unless
    |r_last x r_first| <= PARALLEL_BASIS_TOL, where that frame is too
    ill-conditioned; the Pauli basis otherwise, which covers a single axis
    and an empty schedule.
    """
    if len(axes) == 0:
        return PAULI_BASIS
    r_last, r_first = np.asarray(axes[-1], float), np.asarray(axes[0], float)
    if np.linalg.norm(cross3(r_last, r_first)) <= PARALLEL_BASIS_TOL:
        return PAULI_BASIS
    return basis_from_frame(two_kick_frame(r_last, r_first))


def apply_chi(chi: np.ndarray, basis: OperatorBasis, rho: np.ndarray) -> np.ndarray:
    """sum_ab chi_ab B_a rho B_b^dag; chi and rho may carry leading axes,
    which broadcast."""
    b = basis.ops
    return np.einsum("...ab,aij,...jk,blk->...il", chi, b, rho, b.conj())


def _basis_tensor(basis: OperatorBasis) -> np.ndarray:
    """16x16 tensor T[(c,d),(a,b)] = tr(B_c^dag B_a B_d B_b^dag) linking the
    chi matrix to the superoperator matrix S_cd = tr(B_c^dag E[B_d]) in the
    same basis."""
    b = basis.ops
    bh = b.conj().transpose(0, 2, 1)
    t = np.einsum("cxy,ayz,dzw,bwx->cdab", bh, b, b, bh)
    return t.reshape(16, 16)


# T_P^{-1}, for the normalized Pauli basis P_mu = sigma_mu/sqrt(2) (sigma_0 = 1)
_PAULI_TENSOR_INV = np.linalg.inv(_basis_tensor(PAULI_BASIS))
# the amplitudes of P_sigma(r_0) = |e_sigma><e_sigma|: 1 in column sigma
_FIRST_AMPLITUDES = np.eye(2, dtype=complex)[:, None, :]
# taken once: each np.eye call allocates a 5 KiB flat iterator, the largest
# fixed cost of a short prefix pass
_ID3 = np.eye(3)
# the states whose images give a map's affine action: 1/2, then (1 + sigma_i)/2
_READOUT_STATES = np.stack([I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI])


def _pauli_chi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chi_P = unvec(T_P^{-1} vec S), the chi matrix in the normalized Pauli
    basis of the map whose superoperator there is S = [[1, 0], [b, A]].  A
    and b may carry leading axes, (..., 3, 3) and (..., 3): chi_P then
    carries them too, one matrix product for the whole stack."""
    s = np.zeros(a.shape[:-2] + (4, 4))
    s[..., 0, 0] = 1.0
    s[..., 1:, 0] = b
    s[..., 1:, 1:] = a
    return np.matmul(_PAULI_TENSOR_INV, s.reshape(s.shape[:-2] + (16, 1))).reshape(s.shape)


def chi_from_affine(m, basis: OperatorBasis) -> np.ndarray:
    """chi matrix, in ``basis``, of the trace-preserving map m with affine
    action (A, b): chi = C chi_P C^dag, C_a,mu = tr(B_a^dag sigma_mu)/sqrt(2),
    one fixed linear map of (A, b)."""
    c = np.einsum("ayx,myx->am", basis.ops.conj(), PAULI_BASIS.ops)
    return c @ _pauli_chi(m.matrix, m.shift) @ c.conj().T


def choi_eigenvalues(m) -> np.ndarray:
    """Eigenvalues, ascending, of the map's Choi matrix chi_P in the
    normalized Pauli basis.  C is unitary for an orthonormal basis, so they
    are chi's eigenvalues in every such basis; every CP verdict reads them,
    and none builds a basis.  Of a stack of maps, one ``eigvalsh`` gives
    every entry's; a refused entry, nan throughout, fails it, and then the
    others are taken without it and its eigenvalues are nan."""
    chi = _pauli_chi(m.matrix, m.shift)
    try:
        return np.linalg.eigvalsh(chi)
    except np.linalg.LinAlgError:
        return _on_entries(~np.isnan(chi[..., 0, 0]), np.linalg.eigvalsh, chi)


def affine_from_chi(chi: np.ndarray, basis: OperatorBasis) -> tuple:
    """Affine Bloch action (A, b) of the map chi, from its action on
    {1/2, (1+sigma_i)/2}, or of a stack of chi matrices along leading axes
    in one basis: one ``apply_chi`` and one ``density_to_bloch`` for all,
    whose checks judge each entry's four images in that order."""
    u = density_to_bloch(apply_chi(chi[..., None, :, :], basis, _READOUT_STATES))
    b = u[..., 0, :]
    return np.swapaxes(u[..., 1:, :] - b[..., None, :], -1, -2), b


def _every(ok) -> bool:
    """Whether ``ok`` holds for every entry (one map's ``ok`` is 0-d)."""
    return bool(ok) if ok.ndim == 0 else bool(ok.all())


def _on_entries(ok, fn, *stacks) -> np.ndarray:
    """``fn`` of the arrays ``stacks``, which share their leading axes,
    evaluated on the entries where ``ok`` only, nan in the others."""
    if _every(ok):
        return fn(*stacks)
    part = fn(*(x[ok] for x in stacks))
    out = np.full(ok.shape + part.shape[1:], np.nan, dtype=part.dtype)
    out[ok] = part
    return out


def _apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for matrices and vectors with leading axes, one matrix-vector
    product an entry."""
    return np.matmul(a, v[..., None])[..., 0]


def _frozen(x) -> np.ndarray:
    """``x`` as a read-only float64 array: ``x`` itself when it is one and
    no writable array lies under it, else a frozen copy."""
    if isinstance(x, np.ndarray) and x.dtype == float:
        owner = x
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            owner = owner.base
        if owner is None:
            return x
    return _freeze(np.array(x, dtype=float))


# ---------------------------------------------------------------------------
# the map container


@dataclass(frozen=True, eq=False)
class QubitMap:
    """A trace- and Hermiticity-preserving qubit map, recorded by its affine
    Bloch action u -> A u + b (``matrix`` A and ``shift`` b, read-only; an
    array handed in that is writable, or lies over writable memory, or is
    not float64 is copied) and its kick axes in time order.  Any affine
    Bloch action is that of a trace-preserving map on operators, so trace
    preservation is structural.  The read-only ``basis``
    (``default_chi_basis`` of the axes) and ``chi`` in it
    (``chi_from_affine``) are derived on first read and cached.  cp=True
    marks a channel (CPTP, Choi matrix validated PSD, except the Fock
    oracle's maps, deliberately: ``oracle._channels_at_dim``); transition
    maps, which need not be CP, carry cp=False.

    A and b may carry leading axes, (..., 3, 3) and (..., 3): the map is
    then a stack of maps, which ``choi_eigenvalues``, ``invert_channel``,
    ``transition_map``, ``compose`` and ``analysis.fixed_point`` take entry
    by entry in one formula, the one-map form being its 0-d case; its basis
    and chi are those of no entry."""

    matrix: np.ndarray
    shift: np.ndarray
    axes: tuple = ()
    meta: dict = field(default_factory=dict)
    cp: bool = True

    def __post_init__(self):
        a, b = _frozen(self.matrix), _frozen(self.shift)
        if a.shape[-2:] != (3, 3) or b.shape != a.shape[:-1]:
            raise ValueError(f"an affine action has A of shape (..., 3, 3) and b of (..., 3), not {a.shape}, {b.shape}")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "shift", b)

    @property
    def is_unital(self) -> bool:
        return bool(np.linalg.norm(self.shift) <= 1e-12)

    @cached_property
    def basis(self) -> OperatorBasis:
        return default_chi_basis(self.axes)

    @cached_property
    def chi(self) -> np.ndarray:
        chi = chi_from_affine(self, self.basis)
        chi.setflags(write=False)
        return chi

    def __call__(self, u) -> np.ndarray:
        """A u + b, entry by entry for a stack."""
        return _apply(self.matrix, np.asarray(u, dtype=float)) + self.shift


def _validate(a: np.ndarray, b: np.ndarray, cp: bool) -> None:
    """The one validity rule of a map (A, b), or of a stack of them along
    leading axes: refuse, with InvalidMap, an affine action that is not
    finite (a NaN would pass every tolerance test) and, for channels (cp),
    one whose Choi matrix has an eigenvalue below -PSD_TOL
    (``choi_eigenvalues``), all in one ``eigvalsh``.  Chi built from a real
    (A, b) is Hermitian and trace-preserving by construction, so that is
    the whole check."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidMap("map is not finite: its affine action (A, b) holds NaN or inf")
    if cp:
        lo = np.linalg.eigvalsh(_pauli_chi(a, b))[..., 0].min()
        if lo < -PSD_TOL:
            raise InvalidMap(f"chi not PSD: min eigenvalue {lo:.3e} < {-PSD_TOL:g}")


def _map(a, b, axes, meta, cp=True) -> QubitMap:
    """Construct and validate a map.  A stack of maps that need not be
    channels refuses an entry that is not finite by making it nan, not by
    raising: it is such a map's only check."""
    if not cp and a.ndim > 2:
        refused = ~(np.isfinite(a).all((-2, -1)) & np.isfinite(b).all(-1))
        a[refused], b[refused] = np.nan, np.nan
        return QubitMap(_freeze(a), _freeze(b), axes, meta, cp)
    m = QubitMap(_freeze(a), _freeze(b), axes, meta, cp)  # arrays of its callers' own, so not copied
    _validate(m.matrix, m.shift, cp)
    return m


def identity_channel() -> QubitMap:
    """The channel of an empty schedule, in the Pauli basis."""
    return _map(_ID3, np.zeros(3), (), {"kind": "identity"})


# ---------------------------------------------------------------------------
# constructors


def phase_damping_channel(r_axis, gamma: complex, meta: dict | None = None) -> QubitMap:
    """Generalized phase damping about a fixed axis with complex gamma.

    Operator form P+ rho P+ + P- rho P- + gamma P+ rho P- + conj(gamma)
    P- rho P+; the modulus of gamma damps coherences in the r eigenbasis and
    its phase is a rotation about r.  The Bloch action is u -> A u with
    A = r r^T + Re(gamma) (1 - r r^T) - Im(gamma) [r]_x, where [r]_x u = r x u.
    """
    r = np.asarray(r_axis, dtype=float)
    g = complex(gamma)
    rr = np.outer(r, r)
    a = rr + g.real * (np.eye(3) - rr) - g.imag * np.cross(r, np.eye(3)).T
    md = {"kind": "phase_damping", "gamma": g}
    md.update(meta or {})
    return _map(a, np.zeros(3), (r,), md)


def single_kick_channel(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    t0: float,
    weight: float = 1.0,
) -> QubitMap:
    """Exact channel for one kick at t0: phase damping about r(t0) with
    gamma = <exp(-2i w O(t0))>, the dephasing channel of the schedule
    (t0, weight), which refuses a weight that is not positive and finite.

    For even environments gamma is real and the Bloch action reduces to
    u -> gamma u + (1 - gamma)(u.r) r; a nonzero mean only adds a rotation
    about r(t0).
    """
    return dephasing_channel(env, geom, KickSchedule([t0], [weight]))


def build_n_kick_channel(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    sched: KickSchedule,
    max_kicks: int = MAX_KICKS_DEFAULT,
) -> QubitMap:
    """Exact channel for an arbitrary kick schedule by full 4^n enumeration.

    Accumulates the chi matrix from the double trace over projector strings
    and keeps the affine action it has on {1/2, (1+s_i)/2}; the channel's chi
    is derived from that action.
    It exponentiates all 4^n coefficients gamma(s, s') and holds them as one
    complex matrix (16 * 4^n bytes, ``meta["bytes"]``; 67 MB at 11 kicks).
    For the channels after every kick of a train, ``build_prefix_channels``
    takes about a third of those coefficients in one pass, in under a
    twentieth of the memory at 11 kicks (``_pass_bytes``).  Schedules
    longer than ``max_kicks`` are refused (raise the budget explicitly if
    you really mean it), and so is a build whose gamma matrix cannot be
    allocated.  It is the one-record case of ``_enumerate``, which builds
    a stack of records at once.
    """
    n = len(sched)
    if n == 0:
        return identity_channel()
    (kicks,), a, b = _enumerate(lambda: [KickInputs.of(env, geom, sched)], 1, n, max_kicks)
    meta = {**_provenance("n_kick", env, kicks.times, kicks.weights), "path": "enumeration"}
    return QubitMap(a[0], b[0], kicks.axes, {**meta, "terms": 4**n, "bytes": 16 * 4**n})


def _stack_size(n: int) -> int:
    """The records of n kicks one stacked enumeration holds: as many as
    ``STACK_BYTES`` of gamma matrices hold, and at least one."""
    return max(1, STACK_BYTES // (16 * 4**n))


def _axis_part(rs: np.ndarray) -> tuple:
    """The enumeration's work on the kick axes ``rs`` alone: the chi basis,
    the 2^n sign vectors and the coefficients of every projector string in
    that basis."""
    basis = default_chi_basis(rs)
    signs = _sign_matrix(len(rs))
    return basis, signs, np.einsum("ayx,myx->ma", basis.ops.conj(), _projector_strings(rs, signs))


def _enumerate(inputs, count: int, n: int, max_kicks: int) -> tuple:
    """The 4^n enumeration of ``count`` n-kick records, ``inputs()``, as one
    stack: the records and their channels' stacked (A, b), read-only.

    Inside the coefficient budget's guard, after the kick count is judged,
    the stack of gamma matrices (16 * 4^n bytes a record) is allocated
    first, so a stack that cannot be held is refused before the records are
    read or an axis part is derived; then, per run of consecutive records
    whose axes are the same bytes, one axis part (``_axis_part``), a gamma
    matrix per record and one product coeff^T gamma coeff* for the run.
    Each run is read out in its basis (``affine_from_chi``), and the stack
    is validated with one ``eigvalsh``.  Every entry comes from the
    floating-point operations of the one-record build, so it is that
    build's channel bit for bit; the stack raises the first failure of any
    stage, whichever record meets it.  No kicks give the identity.
    """
    if n == 0:
        return inputs(), np.broadcast_to(_ID3, (count, 3, 3)), np.zeros((count, 3))
    side = 2**n
    with _coefficient_budget(n, max_kicks, count * 16 * 4**n):
        gammas = np.empty((count, side, side), dtype=complex)
        records = inputs()
        starts = [i for i in range(count) if i == 0 or records[i].axes.tobytes() != records[i - 1].axes.tobytes()]
        chi, bases = np.empty((count, 4, 4), dtype=complex), []
        for run in map(slice, starts, starts[1:] + [count]):
            basis, signs, coeff = _axis_part(records[run.start].axes)
            for i in range(run.start, run.stop):
                _gamma_matrix(records[i].means, records[i].gram, signs, gammas[i])
            chi[run] = coeff.T @ gammas[run] @ coeff.conj()
            bases.append((run, basis))
        del gammas
    a, b = np.empty((count, 3, 3)), np.empty((count, 3))
    for run, basis in bases:
        a[run], b[run] = affine_from_chi(chi[run], basis)
    _validate(a, b, cp=True)
    return records, _freeze(a), _freeze(b)


def _byte_text(nbytes: int) -> str:
    """nbytes and the same size in its largest binary unit; past float64's range, its base-2 logarithm."""
    power = min(max(nbytes.bit_length() - 1, 0) // 10, 5)
    try:
        scaled = nbytes / 1024**power
    except OverflowError:
        return f"2^{math.log2(nbytes):.2f} bytes"
    return f"{nbytes} bytes ({scaled:.4g} {('B', 'KiB', 'MiB', 'GiB', 'TiB', 'PiB')[power]})"


@contextmanager
def _held(nbytes: int, refusal: str, error: type = SpinKickError):
    """Run a build of ``nbytes``: if they cannot be allocated, raise ``error``
    with ``refusal``, whose ``{need}`` names them."""
    failure = refusal.format(need=_byte_text(nbytes)) + ", more than could be allocated"
    if nbytes > sys.maxsize:  # numpy would raise ValueError, not MemoryError: refused before the build starts
        raise error(failure)
    try:
        yield
    except MemoryError as exc:
        raise error(failure) from exc


def _coefficient_budget(n: int, max_kicks: int, nbytes: int):
    """Refuse an n-kick exact build past ``max_kicks`` naming ``nbytes``; else its guard ``_held``."""
    if n > max_kicks:
        need = _byte_text(nbytes)
        raise TooManyKicks(f"{n} kicks exceeds budget of {max_kicks}; the build would hold {need} of coefficients")
    return _held(nbytes, f"{n} kicks need {{need}} of coefficients", TooManyKicks)


def _provenance(kind: str, env, times, weights) -> dict:
    """The meta of a constructed channel: its ``kind``, kick ``times`` and
    ``weights``, and the ``environment``'s repr."""
    return {
        "kind": kind,
        "times": tuple(float(t) for t in times),
        "weights": tuple(float(w) for w in weights),
        "environment": repr(env),
    }


def _pass_bytes(n: int) -> int:
    """Peak storage of an n-kick pass, m = 2^(n-1) sign vectors at its last
    kick: what it holds at its last level, plus the larger of that level's
    transients and what it builds after the level loop.

    Held, whatever its length: 3.5 KiB of array headers and small objects;
    per kick 288 bytes (its axis, frame, overlap with the previous frame,
    q, mean and variance, and its block T_k with its route); the Gram
    matrix, 16 n^2.  Per sign vector 128 + 16 n bytes: every kick's f, one
    row of 2^(n-1) entries a kick (16 n); the last kick's Re a, Re b and p
    (32); the amplitudes of both signs and the conjugate of one (96).
    Below the base side, the base block, which is the whole last level (24
    bytes an entry).  From it on, with T tiles a side: the base block and
    Gamma_J's parity halves (40 bytes an entry); per tile and base row the
    row shifts u and pi (24); and the work space, the larger of a factored
    level's scaled columns, one parity half, and their product (16 + 32 per
    tile and base row) and one row of tiles of a summed level (24 an entry).

    Transient at the last level: 1 KiB of temporaries' headers; below the
    base side its x_re, x_ph, exponential and product (48 an entry) and
    numpy's buffer casting the exponential to complex (16, at most
    ``np.getbufsize()`` entries); from it on, per tile and base row the
    real shifts U and V (16) and the column, then row, scalings (16), and
    numpy's buffer casting their exponentials to complex (16 an entry, at
    most ``np.getbufsize()``).

    After the level loop, the n + 1 maps: 1460 bytes for prefix 0 (468:
    its row of the (A, b) stack, map and one-key meta), the stack's
    headers, the provenance the prefixes share (the environment's repr,
    the times and weights tuples), the route counts and the tuple of
    prefixes; and 848 bytes a kick prefix for its row of the stack (96),
    its map (object, views of its rows of the read-only A and b stack and
    of the axes) and its meta.  The
    (A, b) recursion's outer products and the stacked validation's S,
    chi_P and eigenvalues are freed before the maps are built.

    The figures: 3.0 MiB (0.74 * 4^n bytes) at 11 kicks; 7.4, 27.6 and 107
    MiB at 12, 13 and 14; 104 TiB at 24.  Per kick they tend to 4x, and the
    total to 104 bytes per tile and base row, 13/32 * 4^n = 0.41 * 4^n."""
    m = 2 ** (n - 1) if n else 0
    held = 3584 + 288 * n + 16 * n * n + (128 + 16 * n) * m
    maps = 1460 + 848 * n
    if m < _BASE:
        return held + 24 * m * m + max(1024 + 48 * m * m + 16 * min(np.getbufsize(), m * m), maps)
    rows = m * m // _BASE  # tile-and-base-row pairs, T^2 * _BASE
    work = max(48 * rows, 24 * m * _BASE)
    return held + 40 * _BASE * _BASE + 24 * rows + work + max(1024 + 32 * rows + 16 * min(np.getbufsize(), rows), maps)


def _tile_rows(re_l, phase, u, pi, re_a, re_b, p, g_plus, g_minus_conj, work) -> np.ndarray:
    """T = g_+^T X g_-* for a level of t x t tiles, summed a row of tiles at
    a time: tile (i, j) of X is exp(R_J + u' (+) v') * P_J * (pi' (x) rho'),
    the row shifts u_ij, pi_ij moved by Re a and p and the column shifts
    v_ij = u_ji, rho_ij = conj pi_ji by Re b and p; the phases are folded
    into g_+, g_-*.  One row of tiles is held in ``work``."""
    t, side = len(u), _BASE * _BASE
    x_re = work[: t * side].reshape(t, _BASE, _BASE)
    x = work[t * side : 3 * t * side].view(complex).reshape(t, _BASE, _BASE)
    t_mat = np.zeros((2, 2), dtype=complex)
    for i in range(t):
        np.copyto(x_re, (u[i] + re_a[i])[:, :, None])  # unlike np.add, allocates no ufunc buffers
        x_re += re_l
        x_re += (u[:, i] + re_b)[:, None, :]
        np.exp(x_re, out=x_re)
        np.multiply(x_re, phase.real, out=x.real)
        np.multiply(x_re, phase.imag, out=x.imag)
        z = x @ ((pi[:, i].conj() * p)[:, :, None] * g_minus_conj.reshape(-1, _BASE, 2))
        t_mat += g_plus[i * _BASE : (i + 1) * _BASE].T @ np.einsum("tj,tjc->jc", pi[i] * p[i], z)
    return t_mat


def _factored_level(gamma_halves, shift_u, shift_v, top_v, pi, p, g_plus, g_minus_conj, work) -> np.ndarray:
    """T = g_+^T X g_-* for a level of t x t tiles as one product with the
    base block Gamma_J = exp(R_J) * P_J: tile (i, j) of X is
    diag(e^(U_ij + max V_ij) pi_ij p_i) Gamma_J diag(e^(V_ij - max V_ij)
    conj(pi_ji) p_j), U and V its real row and column shifts.  Column s'
    of X meets only column s'_0 of g_-*, so each parity half of the scaled
    columns multiplies that half of Gamma_J's columns (``gamma_halves``),
    (t^2 x _BASE/2) @ (_BASE/2 x _BASE), held in ``work`` with its product;
    ``shift_u`` and ``shift_v`` are overwritten."""
    t, half = len(pi), gamma_halves.shape[2]
    lhs = work[: 4 * t * t * half].view(complex).reshape(2, t, t, half)
    prod = work[4 * t * t * half : 4 * t * t * (half + _BASE)].view(complex).reshape(2, t, t, _BASE)
    scale = np.conjugate(pi.transpose(1, 0, 2), order="C")  # in pi's transposed layout the products take twice as long
    shift_v -= top_v
    scale *= np.exp(shift_v, out=shift_v)
    for tau, cols in enumerate(_PARITY_HALVES):
        np.multiply(scale[..., cols], (p * g_minus_conj[:, tau].reshape(t, _BASE))[:, cols], out=lhs[tau])
    np.matmul(lhs.reshape(2, t * t, half), gamma_halves.transpose(0, 2, 1), out=prod.reshape(2, t * t, _BASE))
    shift_u += top_v
    np.multiply(pi, p[:, None], out=scale)
    scale *= np.exp(shift_u, out=shift_u)
    prod *= scale
    return g_plus.T @ prod.sum(2).reshape(2, -1).T


def _double_tiles(u, pi, t, re_a, re_b, p) -> None:
    """Extend the row shifts of a t x t level's tiles to the next level's
    2t x 2t, in place: the two new off-diagonal quadrants move u by Re a or
    Re b and pi by p or conj p of their row of tiles, and the diagonal one
    repeats the level."""
    for grid, op, upper, lower in ((u, np.add, re_a, re_b), (pi, np.multiply, p, p.conj())):
        op(grid[:t, :t], upper[:, None], out=grid[:t, t : 2 * t])
        op(grid[:t, :t], lower[:, None], out=grid[t : 2 * t, :t])
        grid[t : 2 * t, t : 2 * t] = grid[:t, :t]


def _string_amplitudes(frames):
    """Per kick k, a[sigma, s, tau] with P_sigma(r_k) P(s) = sum_tau
    a[sigma, s, tau] |e_sigma(r_k)><e_tau(r_0)| over the earlier kicks' sign
    vectors s: g_sigma(s) in column s_0 (sigma at kick 0) and 0 in the
    other.  Kick k multiplies by the overlap O_k = F_k^dag F_(k-1) of the
    ``spin_frames``: g_sigma(s) = h(s) O_k[sigma, s_(k-1)], h(s) the
    amplitude of s at kick k - 1."""
    amps = _FIRST_AMPLITUDES
    yield amps
    overlaps = frames[1:].conj().transpose(0, 2, 1) @ frames[:-1]  # one 2 x 2 product per kick, as each alone
    for overlap in overlaps[:, :, :, None, None]:
        amps = (overlap * amps).reshape(2, -1, 2)
        yield amps


def _kick_sums(gram: np.ndarray) -> np.ndarray:
    """f_k(s) = sum_(j<k) G_kj s_j for every kick k of the weighted Gram
    matrix G: row k of the (n, 2^(n-1)) result holds it in its first 2^k
    entries, bit j of the index clear for s_j = +1 (the rest of the row is
    not written).  One doubling in place over the rows of all later kicks
    gives each row the same steps +-G_kj, in the same order, as doubling
    that kick's f alone: 2(n - 1) array operations in place of n(n - 1)."""
    n = len(gram)
    f = np.empty((n, 2 ** (n - 1)), dtype=complex)
    f[:, 0] = 0.0
    for j in range(n - 1):
        g, head = gram[j + 1 :, j, None], f[j + 1 :, : 2**j]
        np.subtract(head, g, out=f[j + 1 :, 2**j : 2 ** (j + 1)])
        head += g
    return f


def build_prefix_channels(
    env: GaussianEnvironment,
    geom: InteractionGeometry,
    sched: KickSchedule,
    max_kicks: int = MAX_KICKS_DEFAULT,
) -> tuple:
    """Exact channel of every prefix of a schedule, in one kick-by-kick pass:
    a tuple of n + 1 validated channels, index k the channel of the first k
    kicks (index 0 the identity).

    Appending kick k splits the sign pairs of the Weyl sum by (s_k, s'_k).
    The two blocks with s_k = s'_k repeat the coefficients Gamma_k of the
    first k kicks, so their part of the new channel is
    sum_sigma P_sigma(r_k) E_k[rho] P_sigma(r_k): the previous prefix
    dephased along r_k, (A, b) -> (r_k r_k^T A, r_k r_k^T b).  The block with
    s_k = +1, s'_k = -1 is the one new coherence block X, and the fourth is
    its adjoint.  P_sigma(r) = |e_sigma(r)><e_sigma(r)| has rank one, so
    P_sigma(r_k) P(s) = g_sigma(s) |e_sigma(r_k)><e_(s_0)(r_0)| with one
    amplitude g_sigma(s) per sign vector (``_string_amplitudes``), and X
    adds rho -> sum T_k[tau, tau'] <e_tau(r_0)|rho|e_tau'(r_0)>
    |e_+(r_k)><e_-(r_k)| + h.c. with the 2 x 2 block
    T_k[tau, tau'] = sum_(s_0 = tau, s'_0 = tau') g_+(s) X[s, s'] conj(g_-(s'))
    (T_0 = [[0, X_00], [0, 0]]).  Its Bloch action is A += Re(q_k (x) M.T_k)
    and b += Re(q_k tr T_k), q_k,i = <e_-(r_k)|sigma_i|e_+(r_k)> and
    M_j[tau, tau'] = <e_tau(r_0)|sigma_j|e_tau'(r_0)>.  So the pass carries
    (A, b), the record of every map, and never forms a chi.

    The coefficients are exp(L) entrywise.  The pass carries the exponent
    of Gamma_k split in two: the real part R_k = Re L_k, and the phase
    P_k = exp(i Im L_k), a unit-modulus matrix.  X has real exponent
    R_k + Re a(s) + Re b(s') and phase P_k * p(s) p(s'), with
    f(s) = sum_{j<k} G_kj s_j over the weighted Gram matrix G,
    a(s) = -2 f(s) - i mu_k, b(s') = 2 conj(f(s')) - i mu_k - 2 Var_k and
    p = exp(i Im a) = exp(i Im b).  As R_k^T = R_k and P_k^T = conj P_k,
    R_{k+1} = [[R_k, R_k + Re a (+) Re b], [R_k + Re b (+) Re a, R_k]]:
    every level is tiles of the level-J block (R_J, P_J; side 2^J =
    ``_BASE`` = 64) plus separable row and column shifts.  Levels below it
    double in place in that block.  From it on, the pass carries each
    tile's real row shift u and phase row shift pi (its column shifts are u
    and conj pi of the mirrored tile) and doubles them by the same rule
    (O(4^k / 64) work).  Tile (i, j) of X has the real row shift
    U_ij = u_ij + Re a_i and column shift V_ij = u_ji + Re b_j, so it is
    diag(e^(U_ij + max V_ij) pi_ij p_i) Gamma_J diag(e^(V_ij - max V_ij)
    conj(pi_ji) p_j) with Gamma_J = exp(R_J) * P_J, and the level is one
    matrix product of Gamma_J with the scaled columns of g_-* for every
    tile, split over the parity halves of Gamma_J's columns
    (``_factored_level``).

    Those factors can leave float64's range where the coefficients do not,
    at high occupation, so a tiled level is factored only when every tile's
    max U_ij + max V_ij is at most ``_FACTOR_RANGE`` = 600.  That bound
    suffices: row factors lie within e^600, column factors within 1, and an
    entry of Gamma_J that underflows (R_J < -708) stands for a coefficient
    below e^(600 - 708) = e^-108.  As every coefficient has modulus at most
    1, max U_ij + max V_ij <= -min R_J, so a base block within the bound
    factors every tiled level.  Any other level sums its real exponent
    R_J + U + V before it exponentiates it, a row of tiles at a time
    (``_tile_rows``), so no factor leaves the range; levels below the base
    block always do.  The rule reads only the first k+1 kicks, so a prefix
    does not depend on the length of the pass; each prefix's meta counts
    its tiled levels in ``factored_levels`` and ``summed_levels``.

    Every kick's f comes from one doubling before the first level
    (``_kick_sums``), and every prefix's (A, b) from one recursion over the
    kicks' blocks T_k after the last (``_affine_record``).  The base block,
    the tile shifts and the work space of a level are allocated at their
    final size first, and the rows of f before the first level, so a pass
    that cannot be held (``_pass_bytes``) is refused before any level runs,
    as is one past ``max_kicks``, before it reads ``KickInputs``.  So is a
    Gram matrix whose exponent sums could leave float64's range:
    |a_k| + |b_k| is at most c_k = 4 sum_(j<k) |G_kj| + 2 |mu_k| + 2 |Var_k|,
    the carried R_k at most sum_(j<k) c_j, and every sum the pass forms
    (R_k + Re a + Re b, a tile's row plus column shift, their difference
    from its maximum) at most twice T = sum_k c_k; a T above a quarter of
    float64's largest value (a factor 2 to spare for rounding) raises
    SpinKickError.  The prefixes are validated together, with one ``eigvalsh`` over their
    stacked (A, b), and share one provenance: the environment's repr and the
    kick times and weights are formed once.  Prefix 0 is row 0 of that
    stack, the identity the recursion starts from, validated with the rest:
    no two passes share a map.
    """
    n = len(sched)
    nbytes = _pass_bytes(n)
    with _coefficient_budget(n, max_kicks, nbytes):
        if n == 0:
            return (identity_channel(),)
        size = 2 ** (n - 1)
        side, tiles = min(size, _BASE), size // _BASE
        re_l, phase = np.empty((side, side)), np.empty((side, side), dtype=complex)
        re_l[0, 0], phase[0, 0] = 0.0, 1.0
        u, pi = np.empty((tiles, tiles, _BASE)), np.empty((tiles, tiles, _BASE), dtype=complex)
        u[:1, :1], pi[:1, :1] = 0.0, 1.0
        half = _BASE // 2
        work = np.empty(max(4 * tiles * tiles * (half + _BASE), 3 * tiles * _BASE * _BASE))  # see _pass_bytes

        kicks = KickInputs.of(env, geom, sched)
        rs, mu, gram = kicks.axes, kicks.means, kicks.gram
        var = np.diag(gram).real
        with np.errstate(over="ignore"):  # an overflow is refused below
            reach = (4.0 * np.abs(np.tril(gram, -1)).sum(1) + 2.0 * np.abs(mu) + 2.0 * np.abs(var)).sum()
        if not reach <= np.finfo(float).max / 4:  # a NaN is refused too
            raise SpinKickError(
                f"the Gram matrix is too large for the prefix pass: its exponent sums may reach 2 * {reach:.3g}"
            )
        f_all = _kick_sums(gram)
        frames = spin_frames(rs)
        q = np.einsum("ka,iab,kb->ki", frames[:, :, 1].conj(), PAULI, frames[:, :, 0])  # <e_-(r_k)|sigma_i|e_+(r_k)>
        m_first = np.einsum("ax,jab,by->jxy", frames[0].conj(), PAULI, frames[0]).reshape(3, 4)  # M_j[tau, tau']
        t_all = np.empty((n, 2, 2), dtype=complex)
        routes = np.zeros((n, 2), dtype=int)  # a tiled level's route: factored, summed
        for k, amps in enumerate(_string_amplitudes(frames)):
            m = 2**k
            f = f_all[k, :m]
            re_a, re_b = -2.0 * f.real, 2.0 * f.real - 2.0 * var[k]
            p = np.exp(-1j * (2.0 * f.imag + mu[k]))

            g_plus, g_minus_conj = amps[0], amps[1].conj()
            if m < _BASE:
                x_re = re_l[:m, :m] + re_a[:, None]
                x_re += re_b
                x_ph = phase[:m, :m] * p[:, None]
                x_ph *= p
                t_all[k] = g_plus.T @ ((np.exp(x_re) * x_ph) @ g_minus_conj)
                if k + 1 < n:
                    re_l[:m, m : 2 * m], re_l[m : 2 * m, :m] = x_re, x_re.T
                    phase[:m, m : 2 * m], phase[m : 2 * m, :m] = x_ph, x_ph.conj().T
                    re_l[m : 2 * m, m : 2 * m] = re_l[:m, :m]
                    phase[m : 2 * m, m : 2 * m] = phase[:m, :m]
                del x_re, x_ph
            else:
                t = m // _BASE
                if t == 1:  # the base block is complete
                    gamma_halves = np.empty((2, _BASE, half), dtype=complex)  # Gamma_J's columns by parity
                    for tau, cols in enumerate(_PARITY_HALVES):
                        gamma_halves[tau] = re_l[:, cols]  # a complex exp in place: a real one would need a cast buffer
                        np.exp(gamma_halves[tau], out=gamma_halves[tau])
                        gamma_halves[tau] *= phase[:, cols]
                re_a, re_b, p = re_a.reshape(t, _BASE), re_b.reshape(t, _BASE), p.reshape(t, _BASE)
                shift_u = u[:t, :t] + re_a[:, None]
                shift_v = u[:t, :t].transpose(1, 0, 2) + re_b
                top_v = shift_v.max(2, keepdims=True)
                if (shift_u.max(2, keepdims=True) + top_v).max() <= _FACTOR_RANGE:
                    t_all[k] = _factored_level(
                        gamma_halves, shift_u, shift_v, top_v, pi[:t, :t], p, g_plus, g_minus_conj, work
                    )
                    routes[k, 0] = 1
                else:
                    t_all[k] = _tile_rows(re_l, phase, u[:t, :t], pi[:t, :t], re_a, re_b, p, g_plus, g_minus_conj, work)
                    routes[k, 1] = 1
                del shift_u, shift_v
                if k + 1 < n:
                    _double_tiles(u, pi, t, re_a, re_b, p)

        a_all, b_all = _affine_record(rs, q, m_first, t_all)
        _validate(a_all, b_all, cp=True)
        _freeze(a_all), _freeze(b_all)  # each prefix's A and b are read-only rows of the stack
        maps = (QubitMap(a_all[0], b_all[0], (), {"kind": "identity"}),)
        shared = _provenance("n_kick", env, kicks.times, kicks.weights)
        for k, (fl, sl) in enumerate(np.cumsum(routes, 0).tolist(), 1):
            meta = dict(
                shared,
                times=shared["times"][:k],
                weights=shared["weights"][:k],
                path="kick_by_kick",
                terms=(4**k - 1) // 3,  # 1 + 4 + ... + 4^(k-1)
                bytes=nbytes,
                factored_levels=fl,
                summed_levels=sl,
            )
            maps += (QubitMap(a_all[k], b_all[k], rs[:k], meta),)
        return maps


def _affine_record(rs, q, m_first, t_all) -> tuple:
    """The stacked (A, b) of every prefix from the kicks' 2 x 2 blocks T_k:
    A_k = r_k r_k^T A_(k-1) + Re(q_k (x) M.T_k) and b_k = r_k r_k^T b_(k-1)
    + Re(q_k tr T_k), from row 0, A_0 = 1 and b_0 = 0 (n + 1 rows).  The
    outer products, M.T_k (a matrix-vector product per kick, in numpy's
    loop over the stack) and the traces are taken for all kicks at once;
    the recursion runs kick by kick."""
    n = len(rs)
    dephase = rs[:, :, None] * rs[:, None, :]
    coherence = np.matmul(m_first, t_all.reshape(n, 4, 1))[..., 0]
    kick_a = (q[:, :, None] * coherence[:, None, :]).real
    kick_b = (q * np.trace(t_all, axis1=1, axis2=2)[:, None]).real
    a_all, b_all = np.empty((n + 1, 3, 3)), np.empty((n + 1, 3))
    a_all[0], b_all[0] = _ID3, 0.0
    for k in range(n):
        a_all[k + 1] = dephase[k] @ a_all[k] + kick_a[k]
        b_all[k + 1] = dephase[k] @ b_all[k] + kick_b[k]
    return a_all, b_all


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
    t1 with hyperbolic functions of the cross correlator K(t1, t0), all read
    from the ``KickInputs`` of ``KickSchedule([t0, t1], weights)``, whose
    ValueError refuses other times and weights.  Requires an even
    environment and non-parallel axes.  Weights whose cross correlator
    would take cosh and sinh out of float64's range, |2 Re w1 w0 K(t1, t0)|
    > ln(float max) = 709.78, are refused with SpinKickError before either
    is evaluated.
    """
    return _two_kick_params(_two_kick_inputs(env, geom, t0, t1, weights))


def _two_kick_inputs(env, geom, t0, t1, weights) -> KickInputs:
    """The record of the two kicks, on an even environment."""
    sched = KickSchedule([t0, t1], weights)
    if not env.is_even:
        raise NonEvenEnvironment("two-kick closed form assumes a vanishing mean")
    return KickInputs.of(env, geom, sched)


def _two_kick_params(kicks: KickInputs) -> TwoKickParams:
    """``two_kick_params`` read from the two kicks' record."""
    (r0, r1), (w0, w1) = kicks.axes, kicks.weights
    frame = two_kick_frame(r1, r0)
    alpha = float(r1 @ r0)
    (v0, v1), corr = np.diag(kicks.gram).real, complex(kicks.gram[1, 0])
    if not abs(2.0 * corr.real) <= _EXP_MAX:  # a NaN is refused too
        raise SpinKickError(
            f"weights {w0:g} {w1:g} overflow the two-kick closed form:"
            f" |2 Re w1 w0 K(t1, t0)| = {abs(2.0 * corr.real):.3g} > {_EXP_MAX:.2f}"
        )
    g = float(np.exp(-2.0 * v0))
    h = np.exp(-v1) * (np.cosh(2.0 * corr) - alpha * np.sinh(2.0 * corr))
    k = np.linalg.norm(cross3(r1, r0)) * np.exp(-v1) * np.sinh(2.0 * corr)
    return TwoKickParams(alpha, g, complex(h), complex(k), frame)


def _two_kick_affine(params: TwoKickParams) -> tuple:
    """Affine action B C u + b in the lab frame, as (B C, b)."""
    alpha, g, h, k = params.alpha, params.g, params.h, params.k
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
    return rot @ (b_mat @ c_mat) @ rot.T, rot @ b_vec


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
    Its meta is the provenance only: reports take ``two_kick_params``.
    """
    kicks = _two_kick_inputs(env, geom, t0, t1, weights)
    try:
        params = _two_kick_params(kicks)
    except ParallelAxes:  # so the axes are collinear, and the record is the dephasing channel's
        return _dephased(kicks, kicks.dephasing_gamma(collinear_signs(kicks.axes)))
    meta = _provenance("two_kick_closed_form", env, kicks.times, kicks.weights)
    return _map(*_two_kick_affine(params), kicks.axes, meta)


def _dephasing(env, geom, sched) -> tuple[KickInputs, complex]:
    """A commuting schedule's record and its dephasing coefficient.  A
    schedule that does not commute is refused with NonCommutingSchedule,
    judged from its axes before the record's Gram matrix is formed."""
    commuting, signs = is_commuting_schedule(geom, sched)
    if not commuting:
        raise NonCommutingSchedule("kick axes are not collinear within tolerance")
    kicks = KickInputs.of(env, geom, sched)
    return kicks, kicks.dephasing_gamma(signs)


def dephasing_gamma(env: GaussianEnvironment, geom: InteractionGeometry, sched: KickSchedule) -> complex:
    """Dephasing coefficient <exp(-2i sum_k f_k w_k O(t_k))> of a commuting
    schedule, read from its ``KickInputs``."""
    return _dephasing(env, geom, sched)[1]


def dephasing_channel(env: GaussianEnvironment, geom: InteractionGeometry, sched: KickSchedule) -> QubitMap:
    """Phase damping channel for a synchronized (commuting) schedule.

    All kick axes share one spectral decomposition, so the 4^n enumeration
    collapses to a single coefficient computed in O(n^2) from the correlator
    double sum.  Time ordering contributes only a global phase and drops out.
    """
    if len(sched) == 0:
        return identity_channel()
    return _dephased(*_dephasing(env, geom, sched))


def _dephased(kicks: KickInputs, gamma: complex) -> QubitMap:
    """The dephasing channel of a commuting train's record, of coefficient ``gamma``."""
    meta = _provenance("dephasing", kicks.env, kicks.times, kicks.weights)
    return phase_damping_channel(kicks.axes[0], gamma, meta=meta)


# ---------------------------------------------------------------------------
# map algebra


def _composed_affine(later: QubitMap, earlier: QubitMap) -> tuple:
    return later.matrix @ earlier.matrix, _apply(later.matrix, earlier.shift) + later.shift


def compose(later: QubitMap, earlier: QubitMap) -> QubitMap:
    """Composition later o earlier, with the later map's axes; the affine
    parts multiply.  The result is a channel only when both factors are."""
    meta = {"kind": "composition", "parents": (later.meta.get("kind"), earlier.meta.get("kind"))}
    return _map(*_composed_affine(later, earlier), later.axes, meta, cp=later.cp and earlier.cp)


def invert_channel(ch: QubitMap) -> QubitMap:
    """Inverse map (A^{-1}, -A^{-1} b); generally not completely positive.

    Raises SingularChannel when the condition number
    kappa = max(sigma_max, 1) / sigma_min of A exceeds ``KAPPA_MAX`` (for
    dephasing, gamma -> 0 is the singular limit).  kappa is recorded in meta.
    Of a stack of maps, kappa is judged and recorded per entry, and an entry
    past ``KAPPA_MAX`` is refused as nan.
    """
    a = ch.matrix
    svals = np.linalg.svd(a, compute_uv=False)
    with np.errstate(divide="ignore"):  # sigma_min = 0 gives kappa = inf
        kappa = np.maximum(svals[..., 0], 1.0) / svals[..., -1]
    accepted = kappa <= KAPPA_MAX
    if a.ndim == 2:
        if not accepted:
            raise SingularChannel(f"affine matrix singular: condition number {kappa:.4g} > KAPPA_MAX = {KAPPA_MAX:g}")
        kappa = float(kappa)
    a_inv = _on_entries(accepted, np.linalg.inv, a)
    meta = {"kind": "inverse", "parent": ch.meta.get("kind"), "condition_number": kappa}
    return _map(a_inv, -_apply(a_inv, ch.shift), ch.axes, meta, cp=False)


def transition_map(longer: QubitMap, shorter: QubitMap) -> QubitMap:
    """Theta = longer o shorter^{-1}, the map between intermediate states.

    Hermiticity- and trace-preserving by construction; complete positivity
    of Theta is exactly what divisibility analysis interrogates.  Of stacks
    of maps, entry by entry: an entry whose inverse is refused, or that is
    not finite, is nan.
    """
    inverse = invert_channel(shorter)
    meta = {
        "kind": "transition",
        "parents": (longer.meta.get("kind"), inverse.meta.get("kind")),
        "longer": longer.meta.get("times"),
        "shorter": shorter.meta.get("times"),
    }
    return _map(*_composed_affine(longer, inverse), longer.axes, meta, cp=False)


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
    for row in m.matrix:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    lines.append("b:")
    lines.append(" ".join(f"{x:.17g}" for x in m.shift))
    return "\n".join(lines) + "\n"


def _read_section(lines, i: int, name: str, rows: int, parse):
    """The ``rows`` rows under the header ``name:`` at lines[i], parsed
    entry by entry, and the index of the line after them."""
    if lines[i] != f"{name}:":
        raise ValueError(f"expected {name} section")
    return np.array([[parse(tok) for tok in lines[i + 1 + r].split()] for r in range(rows)]), i + 1 + rows


def load_channel(path) -> QubitMap:
    """Read back a map from the text of ``format_channel``.

    The map is rebuilt from A and b and validated as a channel or a
    transition map by the file's ``kind``; it keeps the file's
    basis, and its chi derived in that basis must agree with the file's chi
    section to 1e-10 max(1, max|chi|).  A malformed file, or one whose chi
    disagrees, raises InvalidMap.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if lines[0] != "spinkick-map v1":
            raise ValueError(f"unrecognized header {lines[0]!r}")
        key, _, kind = (part.strip() for part in lines[1].partition(":"))
        if key != "kind" or kind not in ("channel", "transition"):
            raise ValueError(f"unknown kind line {lines[1]!r}: expected 'kind: channel' or 'kind: transition'")
        meta = {}
        i = 2
        if lines[i].startswith("times:"):
            meta["times"] = tuple(float(x) for x in lines[i].split(":", 1)[1].split())
            i += 1
        ops, i = _read_section(lines, i, "basis", 4, parse_complex)
        chi, i = _read_section(lines, i, "chi", 4, parse_complex)
        a, i = _read_section(lines, i, "A", 3, float)
        b, i = _read_section(lines, i, "b", 1, float)
        m, basis, chi = QubitMap(a, b[0], (), meta, cp=kind == "channel"), OperatorBasis(ops), chi.reshape(4, 4)
    except IndexError as exc:
        raise InvalidMap(f"malformed channel file {path}: a line is missing or cut short") from exc
    except ValueError as exc:
        raise InvalidMap(f"malformed channel file {path}: {exc}") from exc
    _validate(m.matrix, m.shift, m.cp)
    object.__setattr__(m, "basis", basis)  # the file's, in place of the cached default
    dev = np.max(np.abs(chi - m.chi))
    if not dev <= 1e-10 * max(1.0, np.max(np.abs(m.chi))):
        raise InvalidMap(f"chi section of {path} differs from the chi of its A and b by {dev:.3e}")
    return m
