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
a diagonal phase, each a +- butterfly and two half-size real products.
One loop evolves W step sequences of equal length together: the W = 1
kick train, or every pulse width of a nascent-delta command, whose steps
inside a pulse share one free-evolution matrix per width.  It carries only
the spin blocks the channel reads: the two spin sectors of the first kick
axis until some sequence's axis first turns, with no frame changes, then
four blocks; on an axis that never turns (``Omega = 0``, or one kick) an
undisplaced state evolves one sector alone, the other being its parity
mirror.  The evolution is left in the frames it is carried in, with the
4 x B spin map P to the lab frame, and the channel is read from the
evolved columns Y of a square root of the environment state by one
formula for every B, m = P (Y Y^dag) P^dag.  ``oracle_channel`` and
``nascent_delta_channels`` both take the train as a ``KickSchedule``,
which has already checked its times and weights, and derive its
truncation-independent step data (``_Steps``) once per call.
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


@dataclass(frozen=True, eq=False)
class _Steps:
    """What W step sequences of S steps each give every truncation alike,
    derived once per call (``_steps``): the ``weights``, shaped (W, S); the
    mode's phase turns, e^{-iwt_1} at each sequence's ``first`` step (None
    for no steps) and e^{-iwt_{k+1}} e^{iwt_k} at each step k + 1 off a
    pulse grid (``gaps``), with w = ``omega``; the steps ``on_grid`` and
    the grid's ``spacing`` h (None off a pulse grid), as in ``_evolve``;
    the ``turn``, the first step at which some sequence's kick axis differs
    from its own first, bit for bit (S when none does); and the spin map
    ``spins`` P of ``_evolve``, with, when the axis turns, every frame
    change F_{k+1}^dag F_k (``changes``, k = 1 .. S - 1) and the 4 x 2
    ``expand`` of the turn."""

    omega: float
    weights: np.ndarray
    first: np.ndarray | None
    gaps: np.ndarray
    on_grid: np.ndarray
    spacing: np.ndarray | None
    turn: int
    spins: np.ndarray
    changes: np.ndarray | None
    expand: np.ndarray | None

    def blocks(self, diagonal: bool) -> int:
        """The spin blocks B an evolution carries at its end: 4 once the
        axis has turned; else its two sectors, or sector + alone when the
        square root of the environment state is ``diagonal`` (undisplaced)
        and there is a step, sector - being its mirror (``_evolve``)."""
        n_steps = self.weights.shape[1]
        if self.turn < n_steps:
            return 4
        return 1 if diagonal and n_steps else 2


def _steps(omega: float, steps, grid=None) -> _Steps:
    """The ``_Steps`` of ``steps`` = (times, weights, axes), shaped (W, S),
    (W, S) and (W, S, 3), for a mode of frequency ``omega``; ``grid`` as in
    ``_evolve``.  A kick axis off the unit sphere is refused
    (NonUnitVector), and so is a phase w t past float64's range
    (SpinKickError)."""
    times, weights, axes = steps
    n_seq, n_steps = np.shape(weights)
    axes = np.asarray(axes, dtype=float)
    turned = np.any(axes != axes[:, :1], axis=(0, 2))  # per step, any bit of any sequence
    turn = int(np.argmax(turned)) if turned.any() else n_steps
    turns = np.exp(1j * _phases(omega, times))
    on_grid = np.zeros(n_steps, dtype=bool) if grid is None else grid[1]
    gaps = (turns[:, 1:].conj() * turns[:, :-1])[:, ~on_grid[1:]]
    if turn < n_steps:  # F_S (x) 1; F_{k+1}^dag F_k; at the turn, Q[o', sigma] F_1^dag[sigma, a], as (o' a, sigma)
        frames = spin_frames(axes)
        spins = np.einsum("wos,ab->woasb", frames[:, -1], I2).reshape(n_seq, 4, 4)
        changes = frames[:, 1:].conj().swapaxes(-1, -2) @ frames[:, :-1]
        expand = np.einsum("wos,was->woas", changes[:, turn - 1], frames[:, 0].conj()).reshape(n_seq, 4, 2)
    else:  # F[o, sigma] F^dag[sigma, a], as (o a, sigma)
        frame = spin_frames(axes[:, 0]) if n_steps else np.broadcast_to(I2, (n_seq, 2, 2))
        spins = np.einsum("wos,was->woas", frame, frame.conj()).reshape(n_seq, 4, 2)
        changes = expand = None
    first = turns[:, 0].conj() if n_steps else None
    spacing = None if grid is None else grid[0]
    return _Steps(omega, np.asarray(weights, dtype=float), first, gaps, on_grid, spacing, turn, spins, changes, expand)


def _evolve(spectrum, steps: _Steps, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks Y[s, beta, l, c] (sequence, carried spin block, eigenlevel,
    column) that W step sequences of S steps each carry when evolved
    together, and the 4 x B spin map P[s, (i a), beta] (output spin i,
    input spin a) that takes them to the lab frame:
    U_s (I2 (x) C) = (I2 (x) D(t_{s,S}) V) sum_beta P[s, (i a), beta] Y[s, beta],
    for U_s the product of the steps exp(-i w r.sigma (x) O(t)) of sequence
    s in time order, C a d x K block of environment columns (or a length-d
    vector for the diagonal block diag(C)) and (lambda, V) = ``spectrum``,
    X = O(0) = V diag(lambda) V^T with V real.  ``steps`` is the
    sequences' ``_Steps``.

    With W_k = D(t_k) V and F_k the frame of r_k.sigma, step k is
    (F_k (x) W_k) B_k (F_k (x) W_k)^dag, B_k = e^{-+iw_k lambda} on the +-1
    eigenvector, so the evolution is carried in the latest step's frames and
    between steps k and k + 1 only F_{k+1}^dag F_k and G_k B_k act, with
    G_k = W_{k+1}^dag W_k = V^T diag(P_k) V, P_k = D(t_{k+1})^* D(t_k): the
    kick scales the levels of Y, and G_k is never formed.  On the eigenlevels
    (0, +s, -s) of ``coupling_spectrum``, V is a butterfly (y+ + y-, y+ - y-)
    of the pairs, then V's even and odd blocks, two half-size real products
    on Y viewed as float64; V^T is the reverse: 8 d^2 K real multiply-adds
    for K columns in all, against 16 for d x d products.  P_k's entries are
    powers of e^{-iwt_{k+1}} e^{iwt_k}, each taken at its own time as in
    O(t), except where ``on_grid`` (a bool per step) marks step k + 1 as
    the next point of a uniform grid of ``spacing`` h[s]: all such steps of
    sequence s share G = V^T diag(e^{-iwh[s]n}) V, formed once and applied
    as one complex product (faster there than butterflies at d = 20-30,
    slower at 40-60; the README's Fock oracle section gives the timings).
    The last kick is applied on its own.  Every G_k and B_k is unitary
    exactly when V is orthonormal, which ``coupling_spectrum`` checked when
    it made V.

    Only the blocks that m = P (Y Y^dag) P^dag reads are carried, chosen
    from the axes, bit for bit, and from whether C is diagonal
    (``_Steps.blocks``).  While every sequence's axis is its first, each
    step is diagonal in the first frame F_1: U = sum_sigma Pi_sigma (x)
    U_sigma for the projectors Pi_sigma.  So the evolution starts as the two
    sectors Y[s, sigma] = U_sigma Z, both from Z = V^T D(t_1)^* C, and no
    frame change acts.  A train whose axis never turns ends so, B = 2, with
    P[(i a), sigma] = F_1[i, sigma] F_1^dag[sigma, a].  At the first step
    at which some sequence's axis turns, its frame change Q = F_{k+1}^dag F_1
    takes the two sectors to four blocks, Y[(o' a)] = sum_sigma Q[o', sigma]
    F_1^dag[sigma, a] Y[sigma] (``expand``), one 4 x 2 product in place of
    the step's 2 x 2 one; from there Y[s, (sigma a)] is input spin a in the
    latest step's frame, every frame change acts, and B = 4 with
    P = F_S (x) 1.  For a diagonal C (an undisplaced state) on an axis that
    never turns, sector + is evolved alone, B = 1.  X is odd under the
    parity Pi = diag((-1)^n), and V's -s columns are Pi times its +s
    columns, bit for bit, so V^T Pi V = Sw swaps the +-s levels and keeps
    the zero mode; Sw conjugates the kicks and commutes with every G_k, as
    D(t), diag(P_k) and diag(C) commute with Pi.  So U_- = Sw U_+ Sw and
    Sw Z = Z Pi_c, and sector - is the mirror Y_- = Sw Y_+ Pi_c, Pi_c
    multiplying column l by (-1)^l; it is formed at the end, in the step
    buffer, so that Y holds both sectors.  The evolution ends in the first
    of its two step buffers.  No steps are the two-sector case with F = 1
    and C in both sectors.
    """
    evals, vecs = spectrum
    d = len(evals)
    n_seq, n_steps = steps.weights.shape
    width = d if columns.ndim == 1 else columns.shape[1]
    blocks, turn = steps.blocks(columns.ndim == 1), steps.turn
    if not n_steps:  # C in both sectors
        y = np.empty((n_seq, 2, d, width), dtype=complex)
        y[...] = columns if columns.ndim == 2 else np.diag(columns)
        return y, steps.spins
    sectors = min(blocks, 2)
    zero, odd = d % 2, d // 2  # eigenlevels (0, +s, -s): the zero mode, then the pairs
    even = zero + odd
    # e^{-iw lambda} on e and e^{+iw lambda} on f, per step and level (the -s
    # levels conjugate the +s ones): those of the sectors carried, so that one
    # contiguous product scales every spin block (numpy copies one output
    # spin's of a W > 1 stack)
    kicks = np.exp(-1j * np.multiply.outer(steps.weights, evals[:even]))
    kicks = np.concatenate([kicks, kicks[..., zero:].conj()], axis=-1)
    kicks = np.stack([kicks, kicks.conj()], axis=-2) if sectors == 2 else kicks[:, :, None]
    # P_k of every step off a pulse grid, on the even levels, then the odd
    gaps = _level_phases(d, steps.gaps)
    gaps = iter(np.concatenate([gaps[..., 0::2], gaps[..., 1::2]], axis=-1).swapaxes(0, 1)[:, :, None, None, :, None])
    if steps.spacing is not None:
        grid_g = np.exp(-1j * steps.omega * np.multiply.outer(steps.spacing, np.arange(d)))
        grid_g = np.multiply(grid_g[:, :, None], vecs, order="C")
        grid_g = np.matmul(vecs.T, grid_g.view(float)).view(complex)
        kicked = np.empty((n_seq, sectors, d, d), dtype=complex)  # G B_k, one per sector carried
    # the two step buffers, of the B blocks carried at the end; a mirror's
    # are one array, which then holds sector + and its mirror (each buffer
    # contiguous: numpy copies an input whose bounds overlap the output's)
    size = blocks * d * width
    if blocks == 1:
        buffers = pair = np.empty((2, n_seq, size), dtype=complex)
    else:
        buffers = np.empty((n_seq, size), dtype=complex), np.empty((n_seq, size), dtype=complex)
    halves = (n_seq, 2, 2 * d * width)  # the output-spin halves, for the frame changes
    v_blocks = vecs[0::2, :even], vecs[1::2, zero:even]

    def views(buffer, shape):
        """The buffer's first shape = (sectors, input spins) blocks, then, as
        float64, their eigenlevel pairs and their levels for V's even and
        odd blocks."""
        b = buffer[:, : math.prod(shape) * d * width].reshape(n_seq, *shape, d, width)
        parts = b[..., zero:, :].reshape(n_seq, *shape, 2, -1), b[..., :even, :], b[..., even:, :]
        return (b, *[part.view(float) for part in parts])

    # before the turn, the sectors carried, one input spin; from it, four
    # blocks; an odd number of swaps before the turn starts in the second
    # buffer, so that the evolution ends in the first
    before = [views(buffer, (sectors, 1)) for buffer in buffers]
    after = [views(buffer, (2, 2)) for buffer in buffers] if blocks == 4 else None
    current, following = before[(turn - 1) % 2], before[turn % 2]
    # the first step, Z = W_1^dag C = V^T D(t_1)^* C in every sector carried;
    # a diagonal C makes Z a column scaling of V^T
    z, first = following[0][:, 0, 0], _level_phases(d, steps.first)
    if columns.ndim == 1:  # real and imaginary parts apart: no float-to-complex cast buffers
        scale = first[:, None, :] * columns
        np.multiply(vecs.T, scale.real, out=z.real)
        np.multiply(vecs.T, scale.imag, out=z.imag)
    else:
        np.multiply(first[:, :, None], columns, out=current[0][:, 0, 0])
        np.matmul(vecs.T, current[0][:, 0, 0].view(float), out=z.view(float))
    current[0][...] = z[:, None, None]
    for k in range(1, n_steps):
        (y, y_pairs, *y_blocks), (other, o_pairs, *o_blocks) = current, following
        kick = kicks[:, k - 1, :, None, :]  # of the step before
        if steps.on_grid[k]:  # the kick scales G's columns
            np.multiply(grid_g[:, None], kick, out=kicked)
            np.matmul(kicked[:, :, None], y, out=other)
        else:  # the kick scales the levels of Y (the zero mode's by 1, so y keeps it)
            np.multiply(y, kick[..., None], out=other)
            np.matmul(_PAIRS, o_pairs, out=y_pairs)  # (y+ + y-, y+ - y-)
            for block, part, out in zip(v_blocks, y_blocks, o_blocks):  # V
                np.matmul(block, part, out=out)
            other *= next(gaps)  # P_k
            for block, part, out in zip(v_blocks, o_blocks, y_blocks):  # V^T
                np.matmul(block.T, part, out=out)
            np.matmul(_PAIRS, y_pairs, out=o_pairs)  # (y+, y-)
            other[..., :zero, :] = y[..., :zero, :]
        if k < turn:  # the step landed in the other buffer
            current, following = following, current
        elif k == turn:  # the axis turns: four blocks, in the first buffer
            current, following = after
            np.matmul(steps.expand, other.reshape(n_seq, 2, -1), out=current[0].reshape(n_seq, 4, -1))
        else:
            np.matmul(steps.changes[:, k - 1], other.reshape(halves), out=y.reshape(halves))
    y = current[0]
    y *= kicks[:, -1, :, None, :, None]  # the last kick
    if blocks == 1:  # sector - = Sw Y_+ Pi_c, in the step buffer
        mirror = following[0]
        mirror[..., :zero, :] = y[..., :zero, :]
        mirror[..., zero:even, :], mirror[..., even:, :] = y[..., even:, :], y[..., zero:even, :]
        mirror[..., 1::2] *= -1.0
        return pair.swapaxes(0, 1).reshape(n_seq, 2, d, width), steps.spins
    return buffers[0].reshape(n_seq, blocks, d, width), steps.spins


def _channels_at_dim(spec: FockSpec, steps: _Steps, axes, metas) -> list[QubitMap]:
    """Reduced channels of W joint step sequences at spec.dim, one per entry
    of ``metas``, each recorded with the kick axes ``axes``; ``steps`` is
    the sequences' ``_Steps``, which every truncation of a call shares.

    With (Y, P) the ``_evolve`` of the columns C of a square root of the
    environment state, rho_env = C C^dag, m[(i a), (j b)] =
    tr(U_ia rho_env U_jb^dag) = P (Y Y^dag) P^dag for every B, from the
    Gram matrix of the blocks (D(t_n) V cancels in the trace), and
    E(rho)[i, j] = sum_ab rho[a, b] m[i, a, j, b].  A mirrored pair's Gram
    matrix is real: with a, b and z the +s, -s and zero-mode levels of
    Y_+, <Y_+, Y_-> = <a, b Pi_c> + <b, a Pi_c> + <z, z Pi_c>, whose
    second term is the conjugate of its first, so it is read as
    Y_r Y_r^T + Y_i Y_i^T, one real product of Y viewed as float64.  The
    channel is read from the one contraction S_mu,nu =
    tr(sigma_mu E(sigma_nu)) / 2 (sigma_0 = 1): b = Re S[1:, 0] and
    A = Re S[1:, 1:].  A map whose max |Im S| exceeds 1e-8, or is NaN, does
    not preserve Hermiticity (NonHermitian), and one whose first row S[0]
    differs from (1, 0, 0, 0) by more than 1e-8 does not preserve the trace
    (NonUnitTrace).  Each meta gains the dimension, tail mass, the
    sequence's ``kick_steps``, the ``spin_blocks`` B the evolution carried
    at its end (1 mirrored, 2 on an axis that never turns, 4 once it
    turns), the ``eigendecompositions`` the build made (1, or 0 when the
    process holds the spectrum of spec.dim) and the build's peak ``bytes``
    (an int), which ``_held`` names if they cannot be held.  The spectrum is
    made inside that guard, so a truncation it refuses neither decomposes
    nor enters the cache.
    """
    d, (n_seq, n_steps) = spec.dim, steps.weights.shape
    diagonal = spec.env.displacement == 0  # S is returned as its diagonal
    made, blocks = d not in _SPECTRA, steps.blocks(diagonal)
    sectors = min(blocks, 2)
    # Y and its step buffer, 32 B W d^2 for the B blocks carried at the end
    # (the sectors before a turn, and a mirror, lie in them); on a pulse
    # grid, G and G B_k for each sector carried (16 (1 + sectors) W d^2);
    # the kick phases of the sectors carried (16 sectors W S d); the phases
    # P_k of the steps off a pulse grid (16 W d each); and numpy's iteration
    # buffer for the broadcast phase products (16 bytes an entry of the
    # state, at most np.getbufsize() entries).  The readout then holds Y and
    # its conjugate, or a mirrored pair alone, no more.  Throughout, V,
    # unless held (8 d^2), and S (16 d^2, or its diagonal, 8 d,
    # undisplaced).  The per-call step data (O(W S)) comes on top.
    grid_bytes = 16 * (1 + sectors) * n_seq * d * d if steps.spacing is not None else 0
    s_bytes = 16 * d * d if spec.env.displacement != 0 else 8 * d
    nbytes = (
        32 * blocks * n_seq * d * d + grid_bytes + 16 * sectors * n_seq * n_steps * d
        + 16 * n_seq * steps.gaps.shape[1] * d + 16 * min(np.getbufsize(), blocks * n_seq * d * d)
        + (8 * d * d if made else 0) + s_bytes
    )
    with _held(nbytes, f"oracle truncation at dim {d} needs {{need}}"):
        spectrum = coupling_spectrum(d)
        factor, tail = _environment_factor(spec, spectrum)
        if (factor.ndim == 1) != diagonal:  # _evolve mirrors on a diagonal S; the bytes and readout assume so
            raise AssertionError(f"a {factor.ndim}-D S at displacement {spec.env.displacement}")
        y, spins = _evolve(spectrum, steps, factor)
        y = y.reshape(*y.shape[:2], -1)
        if blocks == 1:
            y = y.view(float)
            gram = y @ y.swapaxes(1, 2)
        else:
            gram = y @ y.conj().swapaxes(1, 2)
        m = (spins @ gram @ spins.conj().swapaxes(-1, -2)).reshape(n_seq, 2, 2, 2, 2)
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
    axes = r_of_t(geom, times)
    steps = _steps(spec.env.omega, (times, sched.weights[None], axes))
    axes = axes[0]
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
    return _channels_at_dim(spec, _steps(spec.env.omega, steps, grid), r_of_t(geom, times), metas)


def channel_distance(c1, c2) -> float:
    """Largest trace distance between the two maps' outputs over all states.

    Half the exact maximum of |(A1 - A2) u + (b1 - b2)| over the Bloch ball
    (``max_image_norm``); zero exactly when the affine parts agree.
    """
    return 0.5 * max_image_norm(c1.matrix - c2.matrix, c1.shift - c2.shift)[0]
