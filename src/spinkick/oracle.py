"""Independent brute-force verification in a truncated Fock space.

Evolves the joint qubit+oscillator state explicitly, partial-traces it, and
reconstructs the channel.  No Weyl-relation shortcuts are taken anywhere,
so agreement with the analytic constructions is a genuine cross-check.  Also
provides the nascent-delta (smooth switching) limit as a time-ordered
product of narrow pulses.

All matrix exponentials go through the one real symmetric
eigendecomposition X = V diag(lambda) V^T of the coupling at time 0, the
real tridiagonal (a + a^dag) / sqrt2 of the truncation, taken from one SVD
of its half-size even-to-odd block, so the evolution is unitary on the
truncated space up to rounding.  The coupling at time t is a diagonal phase
rotation of X, and so is the generator of a coherent displacement, so that
one decomposition per truncation serves every step and the displaced
environment state, and a process makes it once per truncation size while
it holds that spectrum (``SPECTRA_BYTES``); in its eigenbasis a kick is a
diagonal phase, and the free evolution between kicks is V and V^T around
a diagonal phase, each a +- butterfly and two half-size real products.  The channel is read from the
evolved columns of a square root of the environment state.  One loop
evolves W step sequences of equal length together: the W = 1 kick train,
or every pulse width of a nascent-delta command, whose steps inside a
pulse share one free-evolution matrix per width; a train whose steps all
share one kick axis (``Omega = 0``) is evolved in its two spin sectors
alone, half the state, with no frame changes.  ``oracle_channel`` and
``nascent_delta_channels`` both take the train as a ``KickSchedule``, which
has already checked its times and weights.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .channels import QubitMap, _held
from .environment import SingleModeThermal
from .errors import (
    InvalidMap,
    InvalidTruncation,
    NonHermitian,
    NonUnitTrace,
    StepTooCoarse,
    TruncationNotConverged,
    UnknownPulseShape,
)
from .kicks import InteractionGeometry, KickSchedule, _phases, r_of_t
from .pauli import I2, PAULI, max_image_norm, spin_frames

TAIL_TOL = 1e-12
DIM_STEP = 10  # Fock levels added per truncation step of oracle_channel
SPECTRA_BYTES = 8 * 1024**2  # budget of the coupling spectra a process holds, 8 (d^2 + d) bytes each
_SPECTRA = OrderedDict()  # dim -> read-only (evals, V), least recently used first
_SIGMAS = np.concatenate([I2[None], PAULI])  # sigma_0 = 1, sigma_x, sigma_y, sigma_z
_PAIRS = np.array([[1.0, 1.0], [1.0, -1.0]])  # the +- butterfly of an eigenlevel pair


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
    displacement pushes the occupation up by |alpha0|^2.  An estimate past
    float64's range fits no truncation: TruncationNotConverged.
    """
    if dim is None:
        a = abs(env.displacement)
        levels = 10.0 * env.nbar + 8.0 * (a * a)
        if levels == math.inf:
            raise TruncationNotConverged(f"no Fock truncation holds nbar = {env.nbar:g} and |displacement| = {a:g}")
        dim = 20 + math.ceil(levels)
    return FockSpec(env, dim)


def _environment_factor(spec: FockSpec, spectrum):
    """A square root S of the truncated Gibbs state, S S^dag (p renormalized
    on the truncated space), and the occupation of its highest level, which
    bounds the renormalization error.

    Undisplaced, S = diag(sqrt(p)), returned as its diagonal.  Displaced,
    S = D(alpha) diag(sqrt(p)) as a d x d matrix, with D(alpha) =
    e^{i psi N} V e^{-i sqrt2 |alpha| Lambda} V^T e^{-i psi N}, psi =
    arg(alpha) + pi/2, from the coupling's spectrum (Lambda, V) =
    ``spectrum``: alpha a^dag - conj(alpha) a is -i sqrt2 |alpha| times the
    phase rotation e^{i psi N} X e^{-i psi N} of X = O(0), exactly in the
    truncated space, so no second decomposition is needed.
    """
    nbar, displacement = spec.env.nbar, spec.env.displacement
    p = (nbar / (nbar + 1.0)) ** np.arange(spec.dim)  # [1, 0, ..., 0] exactly in the vacuum
    p /= p.sum()
    factor = np.sqrt(p)
    if displacement != 0:
        evals, vecs = spectrum
        turn = _level_phases(spec.dim, np.exp(1j * (np.angle(displacement) + 0.5 * math.pi)))  # e^{i psi N}
        inner = np.multiply(vecs.T, turn.conj() * factor, order="C")  # V^T e^{-i psi N} diag(sqrt p)
        inner *= np.exp(-1j * math.sqrt(2.0) * abs(displacement) * evals)[:, None]
        factor = np.matmul(vecs, inner.view(float)).view(complex)
        factor *= turn[:, None]
    return factor, float(np.sum(np.abs(factor[-1]) ** 2))


def coupling_spectrum(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real orthonormal eigenvectors of the coupling at time
    0 on ``dim`` Fock levels, X = O(0) = (a + a^dag) / sqrt2: the real
    symmetric tridiagonal matrix with X[n - 1, n] = X[n, n - 1] =
    sqrt(n / 2).  X maps even levels to odd ones and back, so one SVD of
    its ceil(d/2) x floor(d/2) even-to-odd block X[0::2, 1::2] =
    U diag(s) W^T gives it all: the eigenvalues +-s_j, with eigenvectors
    [u_j; +-w_j] / sqrt2 on the (even; odd) levels, and for odd d a 0, with
    U's last column on the even levels.  The columns come in the order
    (0, +s, -s), so V's even and odd blocks are V[0::2, :ceil(d/2)] and
    V[1::2, d mod 2:ceil(d/2)].  V must be orthonormal to 1e-10, else
    InvalidMap: every step the oracle takes from it is unitary exactly
    when V is.

    The spectrum depends on d alone, so the process keeps it, read-only, in
    ``_SPECTRA``: 8 (d^2 + d) bytes per dimension, the least recently used
    dropped first while the held bytes would exceed ``SPECTRA_BYTES``, and
    a spectrum larger than that is not held.  A held dimension is returned
    as it is, with no SVD and no check."""
    spectrum = _SPECTRA.pop(dim, None)
    if spectrum is not None:
        _SPECTRA[dim] = spectrum  # now the most recently used
        return spectrum
    zero, odd = dim % 2, dim // 2
    even = zero + odd
    # sqrt(n) times 1/sqrt2, as numpy rounds (a + a^dag) / sqrt2 in complex
    beside = np.sqrt(np.arange(1.0, dim)) * (1.0 / math.sqrt(2.0))
    u, s, wt = np.linalg.svd((np.diag(beside, 1) + np.diag(beside, -1))[0::2, 1::2])
    vecs = np.zeros((dim, dim))
    vecs[0::2, :zero] = u[:, odd:]
    vecs[0::2, zero:even] = vecs[0::2, even:] = u[:, :odd] * math.sqrt(0.5)
    vecs[1::2, zero:even] = wt.T * math.sqrt(0.5)
    vecs[1::2, even:] = -vecs[1::2, zero:even]
    defect = np.max(np.abs(vecs.T @ vecs - np.eye(dim)))
    if defect > 1e-10:
        raise InvalidMap(f"coupling eigenbasis failed unitarity check ({defect:.3e})")
    spectrum = np.concatenate([np.zeros(zero), s, -s]), vecs
    for array in spectrum:
        array.flags.writeable = False
    size = sum(array.nbytes for array in spectrum)
    if size <= SPECTRA_BYTES:
        while size + sum(array.nbytes for held in _SPECTRA.values() for array in held) > SPECTRA_BYTES:
            _SPECTRA.popitem(last=False)
        _SPECTRA[dim] = spectrum
    return spectrum


def _level_phases(dim: int, turn) -> np.ndarray:
    """1, turn, ..., turn^(dim - 1) along a new last axis, for each turn =
    e^{iwt} the diagonal of D(t), O(t) = D(t) O(0) D(t)^dag: a cumulative
    product, so adjacent levels keep their relative phase to rounding,
    whatever the size of wtn."""
    turn = np.asarray(turn, dtype=complex)
    phases = np.empty(turn.shape + (dim,), dtype=complex)
    phases[..., 0], phases[..., 1:] = 1.0, turn[..., None]
    return np.cumprod(phases, axis=-1, out=phases)


def _frozen(axes) -> bool:
    """Whether every step of every sequence has the kick axis of the first,
    compared bit for bit (``Omega = 0`` gives this exactly, and a single
    step has it); vacuously so for no steps."""
    axes = np.asarray(axes)
    return bool(np.all(axes == axes[:1, :1]))


def _evolve(spec: FockSpec, spectrum, steps, columns: np.ndarray, grid=None) -> np.ndarray:
    """Y[s, i, a, l, c] (sequence, output spin, input spin, eigenlevel,
    column) for W step sequences of S steps each, evolved together, with
    U_s (I2 (x) C) = (I2 (x) D(t_{s,S}) V) Y[s], for U_s the product of the
    steps exp(-i w r.sigma (x) O(t)) of sequence s in time order, C a d x K
    block of environment columns (or a length-d vector for the diagonal
    block diag(C)) and (lambda, V) = ``spectrum``, X = O(0) =
    V diag(lambda) V^T with V real.  ``steps`` is (times, weights, axes),
    shaped (W, S), (W, S) and (W, S, 3).

    With W_k = D(t_k) V and F_k the frame of r_k.sigma, step k is
    (F_k (x) W_k) B_k (F_k (x) W_k)^dag, B_k = e^{-+iw_k lambda} on the +-1
    eigenvector, so the evolution is carried in the latest step's frames and
    between steps k and k + 1 only F_{k+1}^dag F_k and G_k B_k act, with
    G_k = W_{k+1}^dag W_k = V^T diag(P_k) V, P_k = D(t_{k+1})^* D(t_k): the
    kick scales the levels of Y, and G_k is never formed.  On the eigenlevels
    (0, +s, -s) of ``coupling_spectrum``, V is a butterfly (y+ + y-, y+ - y-)
    of the pairs, then V's even and odd blocks, two half-size real products
    on Y viewed as float64; V^T is the reverse: 8 d^2 K real multiply-adds
    for K columns in all, against 16 for d x d products.  P_k's entries,
    formed before the loop, are powers of e^{-iwt_{k+1}} e^{iwt_k}, each
    taken at its own time as in O(t), except where ``grid`` = (h, on_grid)
    marks step k + 1 (on_grid, a bool per step) as the next point of a
    uniform grid of spacing h[s]: all such steps of sequence s share
    G = V^T diag(e^{-iwh[s]n}) V, formed once and applied as one complex
    product: against butterflies there it is 7-18% faster at d = 20-25,
    0-5% faster at d = 29-30 and 3-13% slower at d = 40-60 (the README's
    Fock oracle section gives how this was timed).  The last kick is
    applied on its own.  Every G_k and B_k is unitary exactly when V is
    orthonormal, which ``coupling_spectrum`` checked when it made V.

    When every step has the same axis, bit for bit (``_frozen``), every
    step is diagonal in its frame F: U = sum_sigma P_sigma (x) U_sigma.
    Then the evolution carries one input-spin slot, (W, 2, 1, d, K), in
    which both spin sectors start from Z = V^T D(t_1)^* C; no frame change
    acts, and one frame is formed for the whole train.  F^dag[sigma, a] is
    folded back in once, with the last frame product:
    Y[s, o, a] = sum_sigma F[o, sigma] F^dag[sigma, a] U_sigma Z.  Both
    shapes take the same loop body, step buffers and routes.
    """
    evals, vecs = spectrum
    d = len(evals)
    times, weights, axes = steps
    n_seq, n_steps = np.shape(weights)
    width = d if columns.ndim == 1 else columns.shape[1]
    joint = np.zeros((n_seq, 2, 2, d, width), dtype=complex)
    if not n_steps:  # I2 (x) C
        joint[:, 0, 0] = joint[:, 1, 1] = columns if columns.ndim == 2 else np.diag(columns)
        return joint
    omega = spec.env.omega
    frozen = _frozen(axes)
    if frozen:  # F[o, sigma] F^dag[sigma, a], as (o a, sigma)
        frame = spin_frames(axes[0, 0])
        fold = np.einsum("os,sa->oas", frame, frame.conj().T).reshape(4, 2)
    else:  # F_1^dag, then the frame changes F_{k+1}^dag F_k
        frames = spin_frames(axes)
        changes = frames.conj().swapaxes(-1, -2)
        changes[:, 1:] = changes[:, 1:] @ frames[:, :-1]
    turns = np.exp(1j * _phases(omega, times))
    zero, odd = d % 2, d // 2  # eigenlevels (0, +s, -s): the zero mode, then the pairs
    even = zero + odd
    # e^{-iw lambda} on e and e^{+iw lambda} on f, per step and level (the -s
    # levels conjugate the +s ones): both held, so that one contiguous product
    # scales every spin block (numpy copies one output spin's of a W > 1 stack)
    kicks = np.exp(-1j * np.multiply.outer(np.asarray(weights, dtype=float), evals[:even]))
    kicks = np.concatenate([kicks, kicks[..., zero:].conj()], axis=-1)
    kicks = np.stack([kicks, kicks.conj()], axis=-2)
    # P_k of every step off a pulse grid, on the even levels, then the odd
    on_grid = np.zeros(n_steps, dtype=bool) if grid is None else grid[1]
    gaps = _level_phases(d, (turns[:, 1:].conj() * turns[:, :-1])[:, ~on_grid[1:]])
    gaps = iter(np.concatenate([gaps[..., 0::2], gaps[..., 1::2]], axis=-1).swapaxes(0, 1)[:, :, None, None, :, None])
    if grid is not None:
        grid_g = np.multiply(np.exp(-1j * omega * np.multiply.outer(grid[0], np.arange(d)))[:, :, None], vecs, order="C")
        grid_g = np.matmul(vecs.T, grid_g.view(float)).view(complex)
        kicked = np.empty((n_seq, 2, d, d), dtype=complex)  # G B_k, one per output spin
    # the two step buffers: joint and one of its size, or frozen, joint's
    # first half and one of its size, taken in the order that leaves the
    # last step in the second, apart from joint
    slots = 1 if frozen else 2  # input spins carried
    state = joint.reshape(-1)[: joint.size * slots // 2].reshape(n_seq, 2, slots, d, width)
    other = np.empty_like(state)
    halves = (n_seq, 2, 2 * d * width)  # the output-spin halves, for the frames
    blocks = vecs[0::2, :even], vecs[1::2, zero:even]
    # per buffer, as float64: its eigenlevel pairs, and its levels for V's even and odd blocks
    current, following = [
        (b, *[v.view(float) for v in (b[..., zero:, :].reshape(n_seq, 2, slots, 2, -1), b[..., :even, :], b[..., even:, :])])
        for b in ((other, state) if frozen and n_steps % 2 else (state, other))
    ]
    # the first step, I2 (x) Z with Z = W_1^dag C = V^T D(t_1)^* C, and its
    # frame: F_1^dag (x) Z, or Z in both sectors; a diagonal C makes Z a
    # column scaling of V^T
    y, other = current[0], following[0]
    z, first = other[:, 0, 0], _level_phases(d, turns[:, 0].conj())
    if columns.ndim == 1:  # real and imaginary parts apart: no float-to-complex cast buffers
        scale = first[:, None, :] * columns
        np.multiply(vecs.T, scale.real, out=z.real)
        np.multiply(vecs.T, scale.imag, out=z.imag)
    else:
        np.multiply(first[:, :, None], columns, out=y[:, 0, 0])
        np.matmul(vecs.T, y[:, 0, 0].view(float), out=z.view(float))
    if frozen:
        y[...] = z[:, None, None]
    else:
        np.multiply(changes[:, 0, :, :, None, None], z[:, None, None], out=y)
    for k in range(1, n_steps):
        (y, y_pairs, *y_blocks), (other, o_pairs, *o_blocks) = current, following
        kick = kicks[:, k - 1, :, None, :]  # of the step before
        if on_grid[k]:  # the kick scales G's columns
            np.multiply(grid_g[:, None], kick, out=kicked)
            np.matmul(kicked[:, :, None], y, out=other)
        else:  # the kick scales the levels of Y (the zero mode's by 1, so y keeps it)
            np.multiply(y, kick[..., None], out=other)
            np.matmul(_PAIRS, o_pairs, out=y_pairs)  # (y+ + y-, y+ - y-)
            for block, part, out in zip(blocks, y_blocks, o_blocks):  # V
                np.matmul(block, part, out=out)
            other *= next(gaps)  # P_k
            for block, part, out in zip(blocks, o_blocks, y_blocks):  # V^T
                np.matmul(block.T, part, out=out)
            np.matmul(_PAIRS, y_pairs, out=o_pairs)  # (y+, y-)
            other[..., :zero, :] = y[..., :zero, :]
        if frozen:  # the step landed in the other buffer
            current, following = following, current
        else:
            np.matmul(changes[:, k], other.reshape(halves), out=y.reshape(halves))
    y, other = current[0], following[0]
    y *= kicks[:, -1, :, None, :, None]  # the last kick
    if frozen:  # F^dag folded back in with the last frame product, into the whole of joint
        np.matmul(fold, y.reshape(n_seq, 2, -1), out=joint.reshape(n_seq, 4, -1))
        return joint
    np.matmul(frames[:, -1], y.reshape(halves), out=other.reshape(halves))
    return other


def _channels_at_dim(spec: FockSpec, steps, axes, metas, grid=None) -> list[QubitMap]:
    """Reduced channels of W joint step sequences at spec.dim, one per entry
    of ``metas``, each recorded with the kick axes ``axes``; ``steps`` =
    (times, weights, axes of every step) and ``grid`` as in ``_evolve``.

    With Y the evolved columns C of a square root of the environment state,
    rho_env = C C^dag, m[i, a, j, b] =
    tr(U_ia rho_env U_jb^dag) = sum_{l, c} Y[i, a, l, c] conj(Y[j, b, l, c])
    (D(t_n) V cancels in the trace), so E(rho)[i, j] = sum_ab rho[a, b]
    m[i, a, j, b].  The channel is read from the one contraction
    S_mu,nu = tr(sigma_mu E(sigma_nu)) / 2 (sigma_0 = 1): b = Re S[1:, 0]
    and A = Re S[1:, 1:].  A map whose max |Im S| exceeds 1e-8, or is NaN,
    does not preserve Hermiticity (NonHermitian), and one whose first row S[0]
    differs from (1, 0, 0, 0) by more than 1e-8 does not preserve the trace
    (NonUnitTrace).  Each meta gains the dimension, tail mass, the
    sequence's ``kick_steps``, the ``spin_blocks`` the evolution carried
    (2 on ``_evolve``'s frozen-axis path, 4 otherwise), the
    ``eigendecompositions`` the build made (1, or 0 when the process holds
    the spectrum of spec.dim) and the build's peak ``bytes`` (an int) on
    the path it took, which ``_held`` names if they cannot be held.  The
    spectrum is made inside that guard, so a truncation it refuses neither
    decomposes nor enters the cache.
    """
    d, (n_seq, n_steps) = spec.dim, np.shape(steps[1])
    made, blocks = d not in _SPECTRA, 2 if _frozen(steps[2]) else 4
    # Y (64 W d^2 bytes) and its step buffer (16 W d^2 a spin block); on a
    # pulse grid, G and G B_k for both output spins (48 W d^2); the kick
    # phases on both spins (32 W S d); the phases P_k of the steps off a
    # pulse grid (16 W d each); and numpy's iteration buffer for the
    # broadcast phase products (16 bytes an entry of the state, at most
    # np.getbufsize() entries).  The readout then holds Y and its conjugate
    # (128 W d^2), more than a frozen-axis evolution without a pulse grid.
    # Throughout, V, unless held (8 d^2), and S (16 d^2, or its diagonal,
    # 8 d, undisplaced).  The per-step frames and turns (O(W S)) come on top.
    grid_bytes, grid_steps = (48 * n_seq * d * d, int(np.count_nonzero(grid[1][1:]))) if grid is not None else (0, 0)
    s_bytes = 16 * d * d if spec.env.displacement != 0 else 8 * d
    evolution = (
        (64 + 16 * blocks) * n_seq * d * d + grid_bytes + 32 * n_seq * n_steps * d
        + 16 * n_seq * (max(n_steps - 1, 0) - grid_steps) * d + 16 * min(np.getbufsize(), blocks * n_seq * d * d)
    )
    nbytes = max(evolution, 128 * n_seq * d * d) + (8 * d * d if made else 0) + s_bytes
    with _held(nbytes, f"oracle truncation at dim {d} needs {{need}}"):
        spectrum = coupling_spectrum(d)
        factor, tail = _environment_factor(spec, spectrum)
        y = _evolve(spec, spectrum, steps, factor, grid).reshape(n_seq, 4, d * d)
        m = (y @ y.conj().swapaxes(1, 2)).reshape(n_seq, 2, 2, 2, 2)
    s = 0.5 * np.einsum("mji,nab,wiajb->wmn", _SIGMAS, _SIGMAS, m)
    imag = np.max(np.abs(s.imag))
    if not imag <= 1e-8:  # a NaN is refused too
        raise NonHermitian(f"oracle map does not preserve Hermiticity: max |Im S| = {imag:.3e} > 1e-8")
    trace = np.max(np.abs(s[:, 0] - (1.0, 0.0, 0.0, 0.0)))
    if not trace <= 1e-8:
        raise NonUnitTrace(f"oracle map does not preserve the trace: S[0] is off (1, 0, 0, 0) by {trace:.3e} > 1e-8")
    work = {
        "dim": d, "tail": tail, "kick_steps": n_steps, "spin_blocks": blocks,
        "eigendecompositions": int(made), "bytes": nbytes,
    }
    # truncation error can leave tiny PSD defects, so CP is not enforced
    # here: it is what the comparison tests
    return [QubitMap(sw[1:, 1:], sw[1:, 0], axes, {**meta, **work}) for sw, meta in zip(s.real, metas)]


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
    counts the work of the whole search: ``kick_steps`` joint steps and the
    ``eigendecompositions`` of the coupling it made, one per truncation
    tried whose spectrum the process did not hold (``coupling_spectrum``).  A
    start with no finer truncation up to max_dim to compare it with is
    refused before anything is built.
    """
    dims = range(spec.dim, max_dim + 1, DIM_STEP)
    unstable = f"no stable channel up to dim {max_dim} (tol {stability_tol})"
    if len(dims) < 2:
        raise TruncationNotConverged(unstable)
    times = sched.times[None]
    steps = (times, sched.weights[None], r_of_t(geom, times))
    axes = steps[2][0]
    current = _channels_at_dim(replace(spec, dim=dims[0]), steps, axes, [{"kind": "oracle"}])[0]
    work = {key: current.meta[key] for key in ("kick_steps", "eigendecompositions")}
    history = []
    for dim in dims[1:]:
        finer = _channels_at_dim(replace(spec, dim=dim), steps, axes, [{"kind": "oracle"}])[0]
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


def nascent_delta_channels(
    spec: FockSpec,
    geom: InteractionGeometry,
    sched: KickSchedule,
    deltas,
    steps_per_kick: int = 48,
    shape: str = "gaussian",
) -> list[QubitMap]:
    """Channels from smooth switchings of each width in ``deltas`` replacing
    each delta kick of ``sched``, one channel per width.

    Each kick becomes a pulse of area w_k; the joint evolution is the
    time-ordered product of narrow-step unitaries on a midpoint grid across
    each pulse.  As delta_t -> 0 this converges to the delta-kick channel on
    the same schedule.  Every width is checked (shape, StepTooCoarse) before
    any is evolved; then all widths are evolved together, from one
    eigendecomposition of the coupling, and inside a pulse every step of a
    width shares one free-evolution matrix.  Each channel's meta counts its
    ``kick_steps`` and the ``eigendecompositions`` the call made: 1, or 0
    when the process holds the spectrum.  Each channel records the
    schedule's kick axes, not the pulse grid's, so its chi basis comes from
    them.
    """
    times = sched.times
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if shape not in PULSE_SHAPES:
        raise UnknownPulseShape(f"unknown pulse shape {shape!r}; available: {', '.join(PULSE_SHAPES)}")
    profile, half = PULSE_SHAPES[shape]
    min_gap = float(np.min(np.diff(times))) if len(times) > 1 else math.inf
    fastest = max(geom.omega, spec.env.omega)
    for delta_t in deltas.tolist():  # Python floats: an overflowing width is refused, not warned of
        if 2.0 * half * delta_t >= min_gap:
            raise StepTooCoarse(
                f"pulse width {2 * half * delta_t:.3g} overlaps kick gap {min_gap:.3g}"
            )
        if fastest > 0 and half * delta_t >= 0.5 * math.pi / fastest:
            raise StepTooCoarse(
                f"pulse half-width {half * delta_t:.3g} is not small against the"
                f" fastest period {2 * math.pi / fastest:.3g}"
            )

    # midpoint grid over each pulse, discrete profile renormalized to unit area
    xs = (np.arange(steps_per_kick) + 0.5) / steps_per_kick * 2.0 * half - half
    vals = profile(xs)
    vals = vals / vals.sum()

    # steps in time order; every step but a pulse's first is the next point
    # of its pulse's grid
    step_w = (sched.weights[:, None] * vals).reshape(-1)
    on_grid = np.arange(len(step_w)) % steps_per_kick != 0
    step_t = (times[:, None] + deltas[:, None, None] * xs).reshape(len(deltas), len(step_w))
    steps = (step_t, np.broadcast_to(step_w, step_t.shape), r_of_t(geom, step_t))
    grid = (2.0 * half * deltas / steps_per_kick, on_grid)
    metas = [
        {"kind": "nascent_delta", "delta_t": float(dt), "shape": shape, "steps_per_kick": int(steps_per_kick)}
        for dt in deltas
    ]
    return _channels_at_dim(spec, steps, r_of_t(geom, times), metas, grid)


def channel_distance(c1, c2) -> float:
    """Largest trace distance between the two maps' outputs over all states.

    Half the exact maximum of |(A1 - A2) u + (b1 - b2)| over the Bloch ball
    (``max_image_norm``); zero exactly when the affine parts agree.
    """
    return 0.5 * max_image_norm(c1.matrix - c2.matrix, c1.shift - c2.shift)[0]
