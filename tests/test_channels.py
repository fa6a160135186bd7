import pickle
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from spinkick import (
    PAULI_BASIS,
    GaussianEnvironment,
    InteractionGeometry,
    InvalidMap,
    LengthMismatch,
    KickSchedule,
    NonCommutingSchedule,
    NonContractive,
    NonEvenEnvironment,
    QubitMap,
    SingleModeThermal,
    SingularChannel,
    SpinKickError,
    TabulatedKernel,
    TooManyKicks,
    WhiteKickKernel,
    build_n_kick_channel,
    build_prefix_channels,
    compose,
    dephasing_channel,
    dephasing_gamma,
    gram_matrix,
    identity_channel,
    invert_channel,
    load_channel,
    single_kick_channel,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
    r_of_t,
)
from spinkick.analysis import dephasing_divisibility, fixed_point
from spinkick.channels import (
    _EXP_MAX,
    _PARITY_HALVES,
    PARALLEL_BASIS_TOL,
    KickInputs,
    _byte_text,
    _factored_level,
    _gamma_matrix,
    _kick_sums,
    _map,
    _projector_strings,
    _sign_matrix,
    _string_amplitudes,
    _tile_rows,
    _validate,
    affine_from_chi,
    apply_chi,
    basis_from_frame,
    chi_from_affine,
    choi_eigenvalues,
    default_chi_basis,
    format_channel,
    phase_damping_channel,
    two_kick_frame,
)
from spinkick.environment import format_complex, parse_complex
from spinkick.oracle import fock_spec_for, nascent_delta_channels, oracle_channel
from spinkick.pauli import I2, PAULI, OperatorBasis, dot_sigma, spin_frames
from conftest import random_geometry, random_rotation, random_schedule, random_unit, rotation_about
from reference import bloch_to_density, gaussian_char, kick_sums, two_kick_transition_map


# ---------------------------------------------------------------------------
# gamma coefficients: the pairwise formula is the reference for _gamma_matrix


@dataclass(frozen=True)
class GammaCoefficient:
    """One Weyl-relation coefficient gamma(s, s') with its sign vectors."""

    value: complex
    s: tuple
    s_prime: tuple

    def __post_init__(self):
        if len(self.s) != len(self.s_prime):
            raise LengthMismatch("sign vectors differ in length")
        if abs(self.value) > 1.0 + 1e-10:
            raise ValueError(f"|gamma| = {abs(self.value)} exceeds 1")
        if tuple(self.s) == tuple(self.s_prime) and abs(self.value - 1.0) > 1e-12:
            raise ValueError("gamma(s, s) must equal 1")


def gamma_coefficient(env: GaussianEnvironment, sched: KickSchedule, s, s_prime) -> complex:
    """Coefficient gamma(s, s') of the exact n-kick channel, one pair at a time.

    Gaussian expectation of the projected Weyl-operator string: a phase from
    the means, a self-variance damping factor, and cross terms coupling each
    kick to all earlier ones through the centered correlator.  gamma(s, s)
    is exactly 1.
    """
    s = np.asarray(s, dtype=float)
    sp = np.asarray(s_prime, dtype=float)
    n = len(sched.times)
    if s.shape != (n,) or sp.shape != (n,):
        raise LengthMismatch(f"sign vectors must have length {n}")
    lam = sched.weights
    mu = lam * np.array([env.mean(t) for t in sched.times])
    gram = gram_matrix(env, sched.times, lam)
    var = np.diag(gram).real
    expo = 1j * ((sp - s) @ mu) - 0.5 * ((sp - s) ** 2 @ var)
    for i in range(n):
        for j in range(i):
            expo -= (s[i] - sp[i]) * (s[j] * gram[i, j] - sp[j] * gram[j, i])
    return complex(np.exp(expo))


def test_gamma_diagonal_is_one(vacuum, standard_geometry):
    sched = KickSchedule([0.0, 0.8, 1.9])
    for s in ([1, 1, 1], [1, -1, 1], [-1, -1, -1]):
        assert gamma_coefficient(vacuum, sched, s, s) == pytest.approx(1.0, abs=1e-14)


def test_gamma_single_kick_vacuum(vacuum):
    sched = KickSchedule([0.0])
    g = gamma_coefficient(vacuum, sched, [1], [-1])
    assert g == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_gamma_white_kernel_factorizes():
    env = WhiteKickKernel(0.4)
    sched = KickSchedule([0.0, 1.0])
    for s0, sp0, s1, sp1 in [(1, -1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1)]:
        joint = gamma_coefficient(env, sched, [s0, s1], [sp0, sp1])
        g0 = gamma_coefficient(env, KickSchedule([0.0]), [s0], [sp0])
        g1 = gamma_coefficient(env, KickSchedule([1.0]), [s1], [sp1])
        assert joint == pytest.approx(g0 * g1, abs=1e-14)


def test_gamma_matrix_matches_pairwise(standard_geometry):
    rng = np.random.default_rng(7)
    env = SingleModeThermal(omega=1.4, nbar=0.6, displacement=0.5 - 0.3j)
    sched = random_schedule(rng, 3)
    signs = _sign_matrix(3)
    kicks = KickInputs.of(env, standard_geometry, sched)
    gam = _gamma_matrix(kicks.means, kicks.gram, signs)
    for i in range(len(signs)):
        for j in range(len(signs)):
            expected = gamma_coefficient(env, sched, signs[i], signs[j])
            assert gam[i, j] == pytest.approx(expected, abs=1e-13)
            assert abs(gam[i, j]) <= 1 + 1e-12
            GammaCoefficient(gam[i, j], tuple(signs[i]), tuple(signs[j]))


@pytest.mark.parametrize("kind", ["thermal", "displaced", "white", "tabulated", "tabulated_even"])
def test_kick_inputs_head_is_the_record_of_the_first_kicks(kind):
    """``head(k)`` of a train's record is, byte for byte, the record ``of``
    derives from its first k kicks alone, for every k from 0 to n, on all
    three kernels, displaced and undisplaced; its Gram block is contiguous,
    as a derived one is."""
    rng = np.random.default_rng(41)
    n = 7
    geom = random_geometry(rng)
    sched = KickSchedule(np.cumsum(rng.uniform(0.2, 0.9, size=n)), rng.uniform(0.3, 1.5, size=n))
    env = {
        "thermal": SingleModeThermal(omega=1.3, nbar=0.7),
        "displaced": SingleModeThermal(omega=0.8, nbar=0.2, displacement=0.6 - 0.4j),
        "white": WhiteKickKernel(0.35),
        "tabulated": _tabulated(rng, sched.times),
        "tabulated_even": _tabulated(rng, sched.times, mean_bound=0.0),
    }[kind]
    full = KickInputs.of(env, geom, sched)
    for k in range(n + 1):
        head, fresh = full.head(k), KickInputs.of(env, geom, KickSchedule(sched.times[:k], sched.weights[:k]))
        assert head.env is env and head.gram.flags.c_contiguous
        for name in ("times", "weights", "axes", "means", "gram"):
            assert getattr(head, name).shape == getattr(fresh, name).shape
            assert getattr(head, name).tobytes() == getattr(fresh, name).tobytes(), (k, name)


@pytest.mark.parametrize("n", [1, 4, 7])
def test_projector_strings_match_loop(n):
    """The stacked products equal the per-string loop bit for bit."""
    rng = np.random.default_rng(n)
    rs = rng.normal(size=(n, 3))
    rs /= np.linalg.norm(rs, axis=1)[:, None]
    signs = _sign_matrix(n)
    expected = np.empty((len(signs), 2, 2), dtype=complex)
    for m, s in enumerate(signs):
        acc = I2
        for r, sign in zip(rs, s):
            p = (I2 + dot_sigma(r)) / 2.0 if sign > 0 else (I2 - dot_sigma(r)) / 2.0
            acc = p @ acc
        expected[m] = acc
    got = _projector_strings(rs, signs)
    assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# single kick


def test_single_kick_vacuum_affine(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    g = np.exp(-1.0)
    np.testing.assert_allclose(ch.matrix, np.diag([1.0, g, g]), atol=1e-14)
    np.testing.assert_allclose(ch.shift, 0.0, atol=1e-15)


def test_single_kick_fixed_direction(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    u = np.array([0.9, 0, 0])  # parallel to r(0) = x
    np.testing.assert_allclose(ch(u), u, atol=1e-14)


def test_single_kick_strong_damping_limit(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=400.0)  # Var >> 1, gamma ~ 0
    ch = single_kick_channel(env, standard_geometry, 0.0)
    r = r_of_t(standard_geometry, 0.0)
    np.testing.assert_allclose(ch.matrix, np.outer(r, r), atol=1e-12)
    np.testing.assert_allclose(ch.shift, 0.0, atol=1e-14)


def test_single_kick_displaced_rotation(standard_geometry):
    """A mean adds a rotation about r: singular values of A are unchanged."""
    even = SingleModeThermal(omega=1.0)
    disp = SingleModeThermal(omega=1.0, displacement=0.8 + 0.1j)
    a_even = single_kick_channel(even, standard_geometry, 0.3).matrix
    a_disp = single_kick_channel(disp, standard_geometry, 0.3).matrix
    np.testing.assert_allclose(
        np.linalg.svd(a_even, compute_uv=False),
        np.linalg.svd(a_disp, compute_uv=False),
        atol=1e-12,
    )
    # and the rotation really is about r(t0): the r direction stays fixed
    r = r_of_t(standard_geometry, 0.3)
    np.testing.assert_allclose(a_disp @ r, a_even @ r, atol=1e-12)


def test_single_kick_weight_scales_variance(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0, weight=2.0)
    assert ch.meta["gamma"] == pytest.approx(np.exp(-4.0 * 0.5 * 2.0))  # e^{-2 w^2}


@pytest.mark.parametrize("weight", [0.0, -1.0, np.nan, np.inf])
def test_single_kick_refuses_a_weight_that_is_no_schedule(standard_geometry, weight):
    """A single kick's weight is judged by KickSchedule, as every train's
    is: zero, negative, NaN and infinite weights raise the schedule's
    ValueError, not an identity channel or a misnamed overflow."""
    displaced = SingleModeThermal(omega=1.0, nbar=0.3, displacement=0.5 + 0.2j)
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        single_kick_channel(displaced, standard_geometry, 0.3, weight)


@pytest.mark.parametrize("kind", ["thermal", "displaced", "white", "tabulated", "tabulated_even"])
def test_dephasing_coefficients_are_the_characteristic_function(kind):
    """The dephasing coefficient of every head of a commuting train, and the
    single-kick coefficient of each of its kicks, equal the reference
    characteristic function at c = 2 f w, which derives its own unweighted
    moments, to 1e-13 relative: weights 0.3-1.5, axis signs of both kinds
    (kicks a whole number of half turns apart), on every kernel, with and
    without means."""
    rng = np.random.default_rng(44)
    n = 6
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=np.pi / 2)
    times = 0.3 + 2.0 * np.cumsum(rng.integers(1, 3, size=n))
    weights = rng.uniform(0.3, 1.5, size=n)
    env = {
        "thermal": SingleModeThermal(omega=1.3, nbar=0.7),
        "displaced": SingleModeThermal(omega=0.8, nbar=0.2, displacement=0.6 - 0.4j),
        "white": WhiteKickKernel(0.35),
        "tabulated": _tabulated(rng, times),
        "tabulated_even": _tabulated(rng, times, mean_bound=0.0),
    }[kind]
    axes = r_of_t(geom, times)
    signs = np.where(axes @ axes[0] >= 0.0, 1.0, -1.0)
    assert set(signs) == {1.0, -1.0}
    for k in range(n + 1):
        expected = gaussian_char(env, times[:k], 2.0 * signs[:k] * weights[:k])
        got = dephasing_gamma(env, geom, KickSchedule(times[:k], weights[:k]))
        assert got == pytest.approx(expected, rel=1e-13, abs=0), k
    for t, w in zip(times, weights):
        single = single_kick_channel(env, geom, t, w)
        assert single.meta["gamma"] == pytest.approx(gaussian_char(env, [t], [2.0 * w]), rel=1e-13, abs=0)


def test_dephasing_coefficient_whose_exponent_overflows_is_refused():
    """A record whose Gram entries are finite but whose quadratic form
    2 f^T Re(K) f passes float64's range is refused with SpinKickError, not
    turned into gamma = 0 with a numpy warning."""
    env = SingleModeThermal(omega=1.0)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    sched = KickSchedule([0.0, 1.0], [1e154, 1e154])
    assert np.isfinite(KickInputs.of(env, geom, sched).gram).all()
    with pytest.raises(SpinKickError, match="weights 1e\\+154 1e\\+154 overflow the dephasing coefficient's exponent"):
        dephasing_gamma(env, geom, sched)


def test_phase_damping_matches_operator_form():
    """The closed-form Bloch action of phase damping equals the operator form
    P+ rho P+ + P- rho P- + gamma P+ rho P- + conj(gamma) P- rho P+ on the
    probes 1/2 and (1 + sigma_i)/2, for complex gamma."""
    rng = np.random.default_rng(7)
    probes = [np.zeros(3), *np.eye(3)]
    for _ in range(20):
        r = random_unit(rng)
        g = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        p_plus, p_minus = (I2 + dot_sigma(r)) / 2.0, (I2 - dot_sigma(r)) / 2.0
        ch = phase_damping_channel(r, g)
        for u in probes:
            rho = bloch_to_density(u)
            want = (
                p_plus @ rho @ p_plus
                + p_minus @ rho @ p_minus
                + g * (p_plus @ rho @ p_minus)
                + np.conj(g) * (p_minus @ rho @ p_plus)
            )
            np.testing.assert_allclose(bloch_to_density(ch(u)), want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# chi <-> affine conversion: the closed form against its definition


def _affine_on_operator(m, x):
    """The complex-linear extension of u -> A u + b to a 2x2 operator:
    1 -> 1 + b.sigma, sigma_j -> sum_i A_ij sigma_i."""
    x0 = np.trace(x) / 2.0
    xvec = np.einsum("ijk,kj->i", PAULI, x) / 2.0
    out = m.matrix @ xvec + x0 * m.shift
    return x0 * I2 + np.einsum("i,ijk->jk", out, PAULI)


def _random_orthonormal_basis(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u, _ = np.linalg.qr(z)
    return OperatorBasis(np.einsum("ma,myx->ayx", u, PAULI_BASIS.ops))


def test_chi_from_affine_matches_definition():
    """chi_from_affine(A, b) is the chi whose superoperator tr(B_c^dag E[B_d])
    is that of u -> A u + b, and affine_from_chi inverts it, in the Pauli
    basis, a two-kick frame basis and a random orthonormal basis."""
    rng = np.random.default_rng(12)
    bases = [
        PAULI_BASIS,
        basis_from_frame(two_kick_frame(random_unit(rng), random_unit(rng))),
        _random_orthonormal_basis(rng),
    ]
    for basis in bases:
        for _ in range(10):
            affine = QubitMap(rng.normal(size=(3, 3)), rng.normal(size=3), cp=False)
            chi = chi_from_affine(affine, basis)
            for c, bc in enumerate(basis.ops):
                for d, bd in enumerate(basis.ops):
                    want = np.trace(bc.conj().T @ _affine_on_operator(affine, bd))
                    got = np.trace(bc.conj().T @ apply_chi(chi, basis, bd))
                    assert abs(got - want) <= 1e-13, (c, d, abs(got - want))
            back_a, back_b = affine_from_chi(chi, basis)
            np.testing.assert_allclose(back_a, affine.matrix, rtol=0, atol=1e-13)
            np.testing.assert_allclose(back_b, affine.shift, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# n-kick builder


def test_n_kick_reduces_to_single(vacuum, standard_geometry):
    single = single_kick_channel(vacuum, standard_geometry, 0.4)
    built = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.4]))
    np.testing.assert_allclose(built.matrix, single.matrix, atol=1e-12)
    np.testing.assert_allclose(built.shift, single.shift, atol=1e-12)
    np.testing.assert_allclose(built.chi, single.chi, atol=1e-12)


def test_n_kick_matches_closed_form_two_kicks():
    rng = np.random.default_rng(21)
    for _ in range(10):
        geom = random_geometry(rng)
        env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0, 1.5))
        t0, t1 = np.sort(rng.uniform(0, 3, size=2))
        if np.linalg.norm(np.cross(r_of_t(geom, t1), r_of_t(geom, t0))) < 0.05:
            continue
        built = build_n_kick_channel(env, geom, KickSchedule([t0, t1]))
        closed = two_kick_closed_form(env, geom, t0, t1)
        np.testing.assert_allclose(built.matrix, closed.matrix, atol=1e-12)
        np.testing.assert_allclose(built.shift, closed.shift, atol=1e-12)
        np.testing.assert_allclose(built.chi, closed.chi, atol=1e-12)


def test_n_kick_white_kernel_is_composition(standard_geometry):
    env = WhiteKickKernel(0.35)
    times = [0.0, 0.6, 1.1]
    built = build_n_kick_channel(env, standard_geometry, KickSchedule(times))
    comp = single_kick_channel(env, standard_geometry, times[0])
    for t in times[1:]:
        comp = compose(single_kick_channel(env, standard_geometry, t), comp)
    np.testing.assert_allclose(built.matrix, comp.matrix, atol=1e-12)
    chi_comp = chi_from_affine(comp, built.basis)
    np.testing.assert_allclose(built.chi, chi_comp, atol=1e-12)


def test_n_kick_chi_consistent_with_affine():
    """The Appendix-style double-trace accumulation and the affine-route chi
    must agree: the chi representation of a map is unique in a fixed basis."""
    rng = np.random.default_rng(4)
    env = SingleModeThermal(omega=1.1, nbar=0.4, displacement=0.2 + 0.6j)
    geom = random_geometry(rng)
    sched = random_schedule(rng, 3)
    ch = build_n_kick_channel(env, geom, sched)
    rs = np.stack([r_of_t(geom, t) for t in sched.times])
    signs = _sign_matrix(len(sched))
    coeff = np.einsum("ayx,myx->ma", ch.basis.ops.conj(), _projector_strings(rs, signs))
    kicks = KickInputs.of(env, geom, sched)
    gammas = _gamma_matrix(kicks.means, kicks.gram, signs)
    double_trace = coeff.T @ gammas @ coeff.conj()
    np.testing.assert_allclose(double_trace, chi_from_affine(ch, ch.basis), atol=1e-12)


def test_n_kick_budget(vacuum, standard_geometry):
    with pytest.raises(TooManyKicks):
        build_n_kick_channel(
            vacuum, standard_geometry, KickSchedule(np.linspace(0, 1, 11))
        )


def test_byte_text_states_every_size():
    """A byte count keeps its decimal digits and binary unit while the count
    in that unit is a float64; past that, where the division overflows and
    the digits may pass Python's int-to-str limit, its base-2 logarithm.
    No count raises, at any bit length from 0 to 20 000."""
    assert _byte_text(0) == "0 bytes (0 B)"
    assert _byte_text(16 * 4**11) == "67108864 bytes (64 MiB)"
    largest = int(np.finfo(float).max) * 1024**5
    assert _byte_text(largest) == f"{largest} bytes ({np.finfo(float).max:.4g} PiB)"
    assert _byte_text(2**1074) == "2^1074.00 bytes"
    assert _byte_text(16 * 4**600) == "2^1204.00 bytes"
    for bits in range(20001):
        assert _byte_text(2**bits - 1).endswith(("B)", " bytes"))


def test_n_kick_ball_contraction():
    rng = np.random.default_rng(17)
    env = SingleModeThermal(omega=0.9, nbar=1.2)
    geom = random_geometry(rng)
    ch = build_n_kick_channel(env, geom, random_schedule(rng, 3))
    pts = rng.normal(size=(10_000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    out = pts @ ch.matrix.T + ch.shift
    assert np.linalg.norm(out, axis=1).max() <= 1 + 1e-10


def test_n_kick_deterministic(vacuum, standard_geometry):
    sched = KickSchedule([0.0, 0.7, 1.3])
    a = build_n_kick_channel(vacuum, standard_geometry, sched)
    b = build_n_kick_channel(vacuum, standard_geometry, sched)
    assert np.array_equal(a.chi, b.chi)
    assert np.array_equal(a.matrix, b.matrix)


# ---------------------------------------------------------------------------
# kick-by-kick prefix pass: the enumeration is its reference


def _tabulated(rng, times, mean_bound=0.3) -> TabulatedKernel:
    """A kernel on the schedule's grid: two thermal modes plus white noise,
    so the covariance is Hermitian and PSD, with means drawn uniformly from
    [-mean_bound, mean_bound]."""
    t = np.asarray(times)
    cov = 0.05 * np.eye(len(t), dtype=complex)
    for omega, nbar in ((0.7, 0.4), (1.6, 0.9)):
        d = omega * (t[:, None] - t[None, :])
        cov += 0.2 * ((2.0 * nbar + 1.0) * np.cos(d) - 1j * np.sin(d))
    return TabulatedKernel(t, rng.uniform(-mean_bound, mean_bound, size=len(t)), cov)


@pytest.mark.parametrize(
    "kind, n",
    [("thermal", 10), ("displaced", 10), ("white", 10), ("tabulated", 10), ("parallel_axes", 10),
     ("thermal", 1), ("thermal", 0)],
)
def test_prefix_pass_matches_enumeration(kind, n):
    """Every prefix channel of one pass equals the 4^n enumeration of that
    prefix: chi in the same basis, and (A, b)."""
    rng = np.random.default_rng(11)
    sched = KickSchedule(np.sort(rng.uniform(0.0, 5.0, size=n)), rng.uniform(0.5, 1.5, size=n))
    geom = random_geometry(rng)
    env = {
        "thermal": lambda: SingleModeThermal(omega=1.2, nbar=0.8),
        "displaced": lambda: SingleModeThermal(omega=0.9, nbar=0.5, displacement=0.4 - 0.3j),
        "white": lambda: WhiteKickKernel(0.45),
        "tabulated": lambda: _tabulated(rng, sched.times),
        "parallel_axes": lambda: SingleModeThermal(omega=1.0, nbar=1.5),
    }[kind]()
    if kind == "parallel_axes":
        geom = InteractionGeometry(h=random_unit(rng), alpha=random_unit(rng), omega=0.0)
    prefixes = build_prefix_channels(env, geom, sched)
    assert len(prefixes) == n + 1
    for k in range(n + 1):
        got = prefixes[k]
        ref = build_n_kick_channel(env, geom, KickSchedule(sched.times[:k], sched.weights[:k]))
        np.testing.assert_array_equal(got.basis.ops, ref.basis.ops)
        np.testing.assert_allclose(got.chi, ref.chi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.matrix, ref.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.shift, ref.shift, rtol=0, atol=1e-12)
        if k:
            assert got.meta["times"] == ref.meta["times"]
            assert (got.meta["path"], got.meta["terms"]) == ("kick_by_kick", (4**k - 1) // 3)
            assert (ref.meta["path"], ref.meta["terms"]) == ("enumeration", 4**k)
        if kind == "parallel_axes":
            assert got.basis is PAULI_BASIS
    assert prefixes[-1] is prefixes[n]  # one map per prefix


def _extended_chi(env, geom, sched) -> np.ndarray:
    """chi of the 4^n Weyl sum from the same float64 Gram matrix and
    projector strings, with exponents, exponentials and contraction in
    extended precision (np.longdouble)."""
    rs = np.stack([r_of_t(geom, t) for t in sched.times])
    basis = default_chi_basis(rs)
    signs = _sign_matrix(len(sched))
    coeff = np.einsum("ayx,myx->ma", basis.ops.conj(), _projector_strings(rs, signs)).astype(np.clongdouble)
    gram = gram_matrix(env, sched.times, sched.weights).astype(np.clongdouble)
    mu = np.array([w * env.mean(t) for t, w in zip(sched.times, sched.weights)], dtype=np.longdouble)
    s = signs.astype(np.longdouble)
    phi = -1j * (s @ mu) - np.einsum("mi,ij,mj->m", s, np.tril(gram, -1), s) - 0.5 * np.trace(gram).real
    gam = np.exp(phi[:, None] + phi.conj()[None, :] + s @ gram.T @ s.T)
    return coeff.T @ gam @ coeff.conj()


# The enumeration sums exponents of the size of the variance, w^2 (nbar +
# 1/2), before they cancel, so its rounding grows with the occupation.  On
# 20 random 9-kick trains at nbar 5000 its chi lay up to 2.9e-11 from the
# extended-precision sum (median 1.1e-11) and the pass's within 1.7e-13.
# On the train below the two builders differ by 1.2e-11 and the pass lies
# within 1.5e-15 of the extended-precision sum.
@pytest.mark.parametrize("nbar, enumeration_tol", [(500, 1e-11), (5000, 3e-11)])
def test_prefix_pass_at_high_occupation(nbar, enumeration_tol, standard_geometry):
    """Nine kicks on a strongly occupied mode: no overflow (pytest turns a
    RuntimeWarning into an error), every prefix is validated, and
    every prefix matches the enumeration and the extended-precision sum."""
    env = SingleModeThermal(omega=1.0, nbar=nbar)
    sched = KickSchedule(0.5 * np.arange(9))
    prefixes = build_prefix_channels(env, standard_geometry, sched)
    assert (prefixes[9].meta["factored_levels"], prefixes[9].meta["summed_levels"]) == (0, 3)
    extended = np.finfo(np.longdouble).eps < 1e-18
    for k in range(1, 10):
        head = KickSchedule(sched.times[:k])
        got, ref = prefixes[k], build_n_kick_channel(env, standard_geometry, head)
        np.testing.assert_allclose(got.chi, ref.chi, rtol=0, atol=enumeration_tol)
        np.testing.assert_allclose(got.matrix, ref.matrix, rtol=0, atol=enumeration_tol)
        np.testing.assert_allclose(got.shift, ref.shift, rtol=0, atol=enumeration_tol)
        if extended:
            np.testing.assert_allclose(got.chi, _extended_chi(env, standard_geometry, head), rtol=0, atol=1e-13)


def test_prefix_pass_budget(vacuum, standard_geometry):
    sched = KickSchedule(np.linspace(0, 1, 11))
    with pytest.raises(TooManyKicks):
        build_prefix_channels(vacuum, standard_geometry, sched)
    assert len(build_prefix_channels(vacuum, standard_geometry, sched, max_kicks=11)) == 12


@pytest.mark.parametrize("kind", ["tabulated", "displaced"])
def test_prefix_pass_carries_wrapping_phases(kind):
    """Means of tens of radians wrap the carried phase many times: every
    prefix still matches the enumeration and the extended-precision sum."""
    rng = np.random.default_rng(23)
    sched = KickSchedule(np.sort(rng.uniform(0.0, 5.0, size=9)), rng.uniform(0.5, 1.5, size=9))
    geom = random_geometry(rng)
    if kind == "tabulated":
        env = _tabulated(rng, sched.times, mean_bound=40.0)
    else:
        env = SingleModeThermal(omega=1.3, nbar=0.7, displacement=4.0 - 2.0j)
    prefixes = build_prefix_channels(env, geom, sched)
    extended = np.finfo(np.longdouble).eps < 1e-18
    for k in range(1, 10):
        head = KickSchedule(sched.times[:k], sched.weights[:k])
        np.testing.assert_allclose(prefixes[k].chi, build_n_kick_channel(env, geom, head).chi, rtol=0, atol=1e-12)
        if extended:
            np.testing.assert_allclose(prefixes[k].chi, _extended_chi(env, geom, head), rtol=0, atol=1e-13)


def test_prefix_pass_is_independent_of_its_length():
    """The pass fills buffers sized for its last kick; prefix k comes out bit
    for bit the same whatever the length of the pass.  Prefix 0 is the same
    identity in every pass, but each pass's is a map of its own."""
    rng = np.random.default_rng(5)
    sched = KickSchedule(np.sort(rng.uniform(0.0, 5.0, size=10)), rng.uniform(0.5, 1.5, size=10))
    env = SingleModeThermal(omega=0.9, nbar=0.5, displacement=0.4 - 0.3j)
    geom = random_geometry(rng)
    full = build_prefix_channels(env, geom, sched)
    for m in range(11):
        short = build_prefix_channels(env, geom, KickSchedule(sched.times[:m], sched.weights[:m]))
        assert short[0].meta == full[0].meta and short[0].meta is not full[0].meta
        for k in range(m + 1):
            assert np.array_equal(short[k].chi, full[k].chi)
            assert np.array_equal(short[k].matrix, full[k].matrix)
            assert np.array_equal(short[k].shift, full[k].shift)


def test_prefix_zero_is_a_map_of_each_pass(vacuum, standard_geometry):
    """Editing the meta of one pass's prefix 0 changes no other pass and no
    identity channel, and a pass's maps still round-trip through pickle."""
    sched = KickSchedule([0.0, 0.7])
    build_prefix_channels(vacuum, standard_geometry, sched)[0].meta["kind"] = "tampered"
    build_prefix_channels(vacuum, standard_geometry, KickSchedule([]))[0].meta["kind"] = "tampered"
    later = build_prefix_channels(vacuum, standard_geometry, sched)
    assert later[0].meta == {"kind": "identity"}
    assert build_prefix_channels(vacuum, standard_geometry, KickSchedule([]))[0].meta == {"kind": "identity"}
    assert identity_channel().meta == {"kind": "identity"}
    for m, back in zip(later, pickle.loads(pickle.dumps(later))):
        np.testing.assert_array_equal(back.matrix, m.matrix)
        np.testing.assert_array_equal(back.shift, m.shift)
        assert back.meta == m.meta


def test_prefix_pass_peak_memory_is_its_stated_bytes(vacuum, standard_geometry):
    """The traced peak of a 9-kick pass is its meta["bytes"] and little more:
    the string amplitudes and row vectors grow as 2^n, not 4^n.  Every
    prefix records the figure of the pass that built it."""
    sched = KickSchedule(np.linspace(0, 4, 9))
    build_prefix_channels(vacuum, standard_geometry, sched)  # warm caches and imports
    tracemalloc.start()
    try:
        prefixes = build_prefix_channels(vacuum, standard_geometry, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= peak / prefixes[9].meta["bytes"] <= 1.25
    assert prefixes[9].meta["bytes"] == prefixes[1].meta["bytes"]


def test_prefix_pass_peak_memory_at_eleven_kicks(vacuum, standard_geometry):
    """An 11-kick pass carries a 64 x 64 base block and per-tile shifts, not
    a 4^10 exponent: its stated bytes are under 8 MiB and its traced peak is
    that figure and little more."""
    sched = KickSchedule(np.linspace(0, 4, 11))
    build_prefix_channels(vacuum, standard_geometry, sched, max_kicks=11)  # warm caches and imports
    tracemalloc.start()
    try:
        prefixes = build_prefix_channels(vacuum, standard_geometry, sched, max_kicks=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prefixes[11].meta["bytes"] < 8 * 1024**2
    assert 1.0 <= peak / prefixes[11].meta["bytes"] <= 1.25


@pytest.mark.parametrize("n", range(1, 12))
def test_tiled_pass_peak_memory_is_its_stated_bytes(n, vacuum, standard_geometry):
    """From 7 kicks on the pass runs in tiles, and below in its base block;
    either way its stated bytes, which include numpy's iteration or casting
    buffers and the few KiB of small arrays and prefix records that dominate
    short passes, are its traced peak within a quarter."""
    sched = KickSchedule(np.linspace(0, 4, n))
    build_prefix_channels(vacuum, standard_geometry, sched, max_kicks=11)  # warm caches and imports
    tracemalloc.start()
    try:
        prefixes = build_prefix_channels(vacuum, standard_geometry, sched, max_kicks=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= peak / prefixes[n].meta["bytes"] <= 1.25


@pytest.mark.parametrize("base", [2, 8, 64])
def test_prefix_pass_tiles_are_exact_for_any_base_size(base, monkeypatch):
    """The tiles are the base block plus separable shifts, an exact
    rewriting: every prefix's chi is the same whatever the (even) base size,
    on a displaced thermal train and at high occupation."""
    from spinkick import channels

    rng = np.random.default_rng(5)
    trains = [
        (
            SingleModeThermal(omega=0.9, nbar=0.5, displacement=0.4 - 0.3j),
            random_geometry(rng),
            KickSchedule(np.sort(rng.uniform(0.0, 5.0, size=10)), rng.uniform(0.5, 1.5, size=10)),
        ),
        (
            SingleModeThermal(omega=1.0, nbar=5000),
            InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0),
            KickSchedule(0.5 * np.arange(9)),
        ),
    ]
    refs = [build_prefix_channels(*train) for train in trains]
    monkeypatch.setattr(channels, "_BASE", base)
    for train, ref in zip(trains, refs):
        got = build_prefix_channels(*train)
        for k in range(len(ref)):
            np.testing.assert_allclose(got[k].chi, ref[k].chi, rtol=0, atol=1e-14)


def test_prefix_pass_contractions_agree(monkeypatch):
    """A tiled level is contracted either as one product with the base block
    or summed a row of tiles at a time.  With the range bound moved so that
    one displaced thermal train runs every tiled level each way, every prefix
    agrees, and its meta counts the levels each way."""
    from spinkick import channels

    rng = np.random.default_rng(5)
    train = (
        SingleModeThermal(omega=0.9, nbar=0.5, displacement=0.4 - 0.3j),
        random_geometry(rng),
        KickSchedule(np.sort(rng.uniform(0.0, 5.0, size=10)), rng.uniform(0.5, 1.5, size=10)),
    )
    runs = {}
    for bound in (np.inf, -np.inf):
        monkeypatch.setattr(channels, "_FACTOR_RANGE", bound)
        runs[bound] = build_prefix_channels(*train)
    factored, summed = runs[np.inf], runs[-np.inf]
    for k in range(11):
        tiled = max(k - 6, 0)
        if k:
            assert (factored[k].meta["factored_levels"], factored[k].meta["summed_levels"]) == (tiled, 0)
            assert (summed[k].meta["factored_levels"], summed[k].meta["summed_levels"]) == (0, tiled)
        np.testing.assert_allclose(factored[k].chi, summed[k].chi, rtol=0, atol=1e-14)
        np.testing.assert_allclose(factored[k].matrix, summed[k].matrix, rtol=0, atol=1e-14)
        np.testing.assert_allclose(factored[k].shift, summed[k].shift, rtol=0, atol=1e-14)


@pytest.mark.parametrize("omega", [0.9, 0.0])
def test_prefix_pass_routes_by_the_tile_bound_alone(omega, monkeypatch):
    """At nbar 20 the base block's own exponent range exceeds the bound, but
    every tile's row and column shifts stay within it, so each tiled level is
    one product with the base block: every prefix agrees with the summed
    route and, on a commuting train, with the dephasing closed form."""
    from spinkick import channels

    env = SingleModeThermal(omega=1.0, nbar=20)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[0.6, 0, 0.8], omega=omega)
    sched = KickSchedule(0.2 + 0.5 * np.arange(9))
    got = build_prefix_channels(env, geom, sched)
    assert (got[9].meta["factored_levels"], got[9].meta["summed_levels"]) == (3, 0)
    monkeypatch.setattr(channels, "_FACTOR_RANGE", -np.inf)
    summed = build_prefix_channels(env, geom, sched)
    assert (summed[9].meta["factored_levels"], summed[9].meta["summed_levels"]) == (0, 3)
    for k in range(10):
        np.testing.assert_allclose(got[k].matrix, summed[k].matrix, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got[k].shift, summed[k].shift, rtol=0, atol=1e-14)
        if omega == 0.0 and k:
            ref = dephasing_channel(env, geom, KickSchedule(sched.times[:k]))
            np.testing.assert_allclose(got[k].matrix, ref.matrix, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got[k].shift, ref.shift, rtol=0, atol=1e-14)


def test_prefix_pass_factors_long_trains():
    """Trains like the long ones the benchmark runs (11 kicks 0.1 to 1 apart,
    nbar up to 2, weights up to 1.5) stay within the range bound: every
    tiled level is one product with the base block."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0.0, 2.0))
        times = rng.uniform(0.0, 0.5) + np.cumsum(rng.uniform(0.1, 1.0, size=11))
        sched = KickSchedule(times, rng.uniform(0.5, 1.5, size=11))
        prefixes = build_prefix_channels(env, random_geometry(rng), sched, max_kicks=11)
        assert (prefixes[11].meta["factored_levels"], prefixes[11].meta["summed_levels"]) == (5, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_kick_sums_are_the_per_kick_doubling_bit_for_bit(n):
    """Every kick's f from the one doubling over all rows equals the per-kick
    doubling entry for entry, zero signs included, on a complex Gram matrix
    whose entries span sixteen decades (so any other order of the sums
    would round differently) and hold zeros of either sign."""
    rng = np.random.default_rng(n)
    gram = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 10.0 ** rng.uniform(-8, 8, size=(n, n))
    for part in (gram.real, gram.imag):
        part[rng.random((n, n)) < 0.2] = 0.0
        part[rng.random((n, n)) < 0.2] = -0.0
    rows = _kick_sums(gram)
    assert rows.shape == (n, 2 ** (n - 1))
    for k, want in enumerate(kick_sums(gram)):
        got = rows[k, : 2**k]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("kind", ["random", "synchronized", "antiparallel", "minus_z"])
def test_string_amplitudes_are_the_rank_one_projector_strings(kind):
    """P_sigma(r_k) P(s) = g_sigma(s) |e_sigma(r_k)><e_(s_0)(r_0)|: the Pauli
    coefficients of every string of the enumeration (``_projector_strings``)
    equal g_sigma(s) times those of the rank-one operator w(sigma, s_0), to
    1e-14, and each amplitude sits in column s_0 alone (sigma at kick 0).
    Synchronized and antiparallel axes (r_k = +-r_(k-1)) make half the
    overlaps vanish; r = -z takes the frames' z < 0 branch."""
    rng = np.random.default_rng(31)
    z = np.array([0.0, 0.0, 1.0])
    axis = random_unit(rng)
    rs = np.array(
        {
            "random": lambda: [random_unit(rng) for _ in range(7)],
            "synchronized": lambda: [axis] * 7,
            "antiparallel": lambda: [axis * (-1) ** k for k in range(7)],
            "minus_z": lambda: [-z, random_unit(rng), -z, z, -z, random_unit(rng), -z],
        }[kind]()
    )
    frames = spin_frames(rs)
    for k, amps in enumerate(_string_amplitudes(frames)):
        m = 2**k
        strings = _projector_strings(rs[: k + 1], _sign_matrix(k + 1)).reshape(2, m, 2, 2)  # [sigma, s]
        rank_one = np.einsum("xa,yb->abxy", frames[k], frames[0].conj())  # w(sigma, tau) = |e_sigma(r_k)><e_tau(r_0)|
        for sigma in (0, 1):
            tau = np.arange(m) & 1 if k else np.full(m, sigma)  # s_0, or sigma itself at kick 0
            g = amps[sigma, np.arange(m), tau]
            np.testing.assert_array_equal(amps[sigma, np.arange(m), 1 - tau], 0.0)
            got = np.einsum("ayx,syx->sa", PAULI_BASIS.ops.conj(), g[:, None, None] * rank_one[sigma, tau])
            want = np.einsum("ayx,syx->sa", PAULI_BASIS.ops.conj(), strings[sigma])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("t", [1, 2, 4])
def test_level_contractions_match_brute_force(t):
    """Both contractions of a level of t x t tiles equal the brute-force
    T[tau, tau'] = sum over s_0 = tau, s'_0 = tau' of g_+(s) X[s, s'] conj(g_-(s')),
    with X written out tile by tile.  The row phases pi are a view into a
    larger grid, as in the pass; at t = 1 a contiguous view of their
    transpose aliases them, and they must come out unchanged."""
    from spinkick import channels

    rng = np.random.default_rng(t)
    base = channels._BASE
    m = t * base
    re_l = rng.uniform(-0.5, 0.1, size=(base, base))
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(base, base)))
    grid = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4, 4, base)))
    pi = grid[:t, :t]
    u = rng.uniform(-0.5, 0.5, size=(t, t, base))
    re_a, re_b = rng.uniform(-0.5, 0.5, size=(2, t, base))
    p = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(t, base)))
    g = (rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))) / m
    parity = np.arange(m) & 1
    amps = np.zeros((2, m, 2), dtype=complex)
    amps[:, np.arange(m), parity] = g

    x = np.exp(re_l + u[:, :, :, None] + re_a[:, None, :, None] + (u.transpose(1, 0, 2) + re_b)[:, :, None, :])
    x = x * phase * (pi * p[:, None])[:, :, :, None] * (pi.transpose(1, 0, 2).conj() * p)[:, :, None, :]
    x = x.transpose(0, 2, 1, 3).reshape(m, m)  # X[s, s'] with s = i * base + a
    want = np.array(
        [[g[0, parity == tau] @ x[np.ix_(parity == tau, parity == tau_)] @ g[1, parity == tau_].conj()
          for tau_ in (0, 1)] for tau in (0, 1)]
    )

    before = grid.copy()
    half = base // 2
    work = np.empty(max(4 * t * t * (half + base), 3 * t * base * base))
    gamma = np.exp(re_l) * phase
    gamma_halves = np.stack([gamma[:, cols] for cols in _PARITY_HALVES])
    shift_u = u + re_a[:, None]
    shift_v = u.transpose(1, 0, 2) + re_b
    top_v = shift_v.max(2, keepdims=True)
    factored = _factored_level(gamma_halves, shift_u, shift_v, top_v, pi, p, amps[0], amps[1].conj(), work)
    summed = _tile_rows(re_l, phase, u, pi, re_a, re_b, p, amps[0], amps[1].conj(), work)
    np.testing.assert_array_equal(grid, before)
    np.testing.assert_allclose(factored, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(summed, want, rtol=0, atol=1e-14)


def test_prefix_pass_builds_a_chi_basis_only_for_read_prefixes(vacuum, standard_geometry, monkeypatch, tmp_path):
    """The pass carries (A, b) alone, and a map builds its chi basis only
    when its chi is read: reading a prefix of a 10-kick pass builds none,
    reading its chi builds one, once, and simulate builds exactly one, for
    its channel file."""
    from spinkick import channels
    from spinkick.cli import main

    calls = []
    basis_rule = channels.default_chi_basis

    def counting_rule(axes):
        calls.append(len(axes))
        return basis_rule(axes)

    monkeypatch.setattr(channels, "default_chi_basis", counting_rule)
    prefixes = build_prefix_channels(vacuum, standard_geometry, KickSchedule(np.linspace(0, 4, 10)))
    channel = prefixes[10]
    assert calls == []
    chi = channel.chi
    assert calls == [10]
    assert prefixes[10] is channel and channel.chi is chi and calls == [10]

    calls.clear()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[environment]\nmodel = single_mode_thermal\nomega = 1\n"
        "[geometry]\nh = 0 0 1\nalpha = 1 0 0\nOmega = 1\n"
        f"[schedule]\ntimes = 0 0.7 1.3\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert main(["--config", str(cfg), "simulate"]) == 0
    assert calls == [3]


def test_exact_builders_record_their_bytes(vacuum, standard_geometry):
    sched = KickSchedule([0.0, 0.4, 0.9])
    assert build_n_kick_channel(vacuum, standard_geometry, sched).meta["bytes"] == 16 * 4**3
    assert build_prefix_channels(vacuum, standard_geometry, sched)[3].meta["bytes"] == (
        3584 + 288 * 3 + 16 * 3**2 + (128 + 16 * 3) * 4 + 24 * 4**2 + max(1024 + 48 * 4**2 + 16 * 4**2, 1460 + 848 * 3)
    )


def test_budget_refusal_names_the_bytes(vacuum, standard_geometry):
    sched = KickSchedule(np.linspace(0, 1, 11))
    with pytest.raises(TooManyKicks, match=f"would hold {16 * 4**11} bytes"):
        build_n_kick_channel(vacuum, standard_geometry, sched)
    with pytest.raises(TooManyKicks, match=r"would hold \d+ bytes"):
        build_prefix_channels(vacuum, standard_geometry, sched)


@pytest.mark.parametrize(
    "build, n",
    [(build_prefix_channels, n) for n in (24, 34, 63)] + [(build_n_kick_channel, n) for n in (40, 60, 63)],
    ids=["pass-24", "pass-34", "pass-63", "enumeration-40", "enumeration-60", "enumeration-63"],
)
def test_pass_beyond_memory_is_refused(vacuum, standard_geometry, build, n):
    """A 24-kick pass needs 104 TiB: the allocation of its tile shifts fails
    before memory is touched, and the failure is a TooManyKicks that names
    the bytes.  A build whose stated bytes exceed sys.maxsize, where numpy
    raises ValueError (or, at 63 kicks, the sign matrix's shift TypeError)
    rather than MemoryError, is refused the same way before it starts."""
    with pytest.raises(TooManyKicks, match=rf"^{n} kicks need \d+ bytes .*, more than could be allocated$"):
        build(vacuum, standard_geometry, KickSchedule(np.linspace(0, 1, n)), max_kicks=n)


# ---------------------------------------------------------------------------
# two-kick closed form


def test_two_kick_uncorrelated_composes(standard_geometry):
    env = WhiteKickKernel(0.25)
    closed = two_kick_closed_form(env, standard_geometry, 0.0, 0.8)
    comp = compose(
        single_kick_channel(env, standard_geometry, 0.8),
        single_kick_channel(env, standard_geometry, 0.0),
    )
    np.testing.assert_allclose(closed.matrix, comp.matrix, atol=1e-12)
    np.testing.assert_allclose(closed.shift, comp.shift, atol=1e-12)


def test_two_kick_real_kernel_unital(standard_geometry):
    # kernel real at these times: omega (t1 - t0) = pi gives Im K = 0
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    closed = two_kick_closed_form(env, standard_geometry, 0.0, np.pi)
    np.testing.assert_allclose(closed.shift, 0.0, atol=1e-14)


def test_two_kick_nonunital_shift(vacuum, standard_geometry):
    t0, t1 = 0.0, 0.7
    closed = two_kick_closed_form(vacuum, standard_geometry, t0, t1)
    r0, r1 = r_of_t(standard_geometry, t0), r_of_t(standard_geometry, t1)
    corr = vacuum.covariance(t1, t0)
    expected = (
        np.exp(-2 * vacuum.covariance(t1, t1).real)
        * np.sin(4 * corr.imag)
        * np.cross(r1, r0)
    )
    np.testing.assert_allclose(closed.shift, expected, atol=1e-13)
    assert np.linalg.norm(closed.shift) > 1e-2  # genuinely non-unital


def test_two_kick_rejects_displaced(standard_geometry):
    env = SingleModeThermal(omega=1.0, displacement=0.3)
    with pytest.raises(NonEvenEnvironment):
        two_kick_closed_form(env, standard_geometry, 0.0, 0.7)
    with pytest.raises(NonEvenEnvironment):
        two_kick_params(env, standard_geometry, 0.0, 0.7)


def test_two_kick_params_refuse_weights_beyond_cosh_range(standard_geometry):
    """Weights that take cosh and sinh of 2 w1 w0 K(t1, t0) out of float64's
    range (|2 Re w1 w0 K| > ln(float max)) are refused before either is
    evaluated; NaN weights are refused before that, by the schedule, with
    ValueError.  Just inside that edge the parameters are the formula's,
    finite and without a warning."""
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    t0, t1 = 0.0, 0.7
    edge = np.sqrt(_EXP_MAX / abs(2.0 * env.covariance(t1, t0).real))
    for w in (edge * (1 + 1e-6), 1e30):
        with pytest.raises(SpinKickError, match="overflow the two-kick closed form"):
            two_kick_params(env, standard_geometry, t0, t1, (w, w))
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        two_kick_params(env, standard_geometry, t0, t1, (np.nan, 1.0))
    w = edge * (1 - 1e-6)
    params = two_kick_params(env, standard_geometry, t0, t1, (w, w))
    corr = w * w * env.covariance(t1, t0)
    damping = np.exp(-w * w * env.covariance(t1, t1).real)
    assert params.h == damping * (np.cosh(2.0 * corr) - params.alpha * np.sinh(2.0 * corr))
    assert np.isfinite(params.h) and np.isfinite(params.k) and abs(params.k) > 0


@pytest.mark.parametrize(
    "t0, t1, weights, message",
    [
        (0.5, 0.3, (1.0, 1.0), "strictly increasing"),
        (0.3, 0.3, (1.0, 1.0), "strictly increasing"),
        (2 * np.pi, 2 * np.pi, (1.0, 1.0), "strictly increasing"),
        (0.0, 0.7, (1.0,), "2 times but 1 weights"),
        (0.0, 0.7, (1.0, 1.0, 1.0), "2 times but 3 weights"),
        (0.0, 0.7, (1.0, -0.5), "positive and finite"),
    ],
    ids=["reversed", "equal", "equal_parallel", "one_weight", "three_weights", "negative_weight"],
)
@pytest.mark.parametrize("build", [two_kick_params, two_kick_closed_form])
def test_two_kick_refuses_what_is_not_a_schedule(vacuum, standard_geometry, build, t0, t1, weights, message):
    """The closed form reads the record of the schedule (t0, t1) with its
    weights, so times that are not strictly increasing, a weight count
    other than two and a weight that is not positive are refused with the
    schedule's ValueError; a channel for (0.5, 0.3) would silently differ
    from the one for (0.3, 0.5)."""
    with pytest.raises(ValueError, match=message):
        build(vacuum, standard_geometry, t0, t1, weights)


def test_two_kick_parallel_falls_back_to_dephasing(vacuum, standard_geometry):
    closed = two_kick_closed_form(vacuum, standard_geometry, 0.0, 2 * np.pi)
    deph = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0, 2 * np.pi]))
    np.testing.assert_allclose(closed.matrix, deph.matrix, atol=1e-12)
    assert closed.meta["kind"] == "dephasing"


@pytest.mark.parametrize("t1", [np.pi, 2 * np.pi])
def test_two_kick_parallel_derives_its_train_once(monkeypatch, vacuum, standard_geometry, t1):
    """On parallel (t = pi) or antiparallel axes the closed form's fallback
    reads the record it already built, with its collinear signs: one r(t)
    and one Gram matrix for the channel, whose text is the dephasing
    channel's byte for byte."""
    from spinkick import channels, kicks

    deph = format_channel(dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0, t1])))
    calls = {"r_of_t": 0, "gram_matrix": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for module in (channels, kicks):
        monkeypatch.setattr(module, "r_of_t", counting("r_of_t", kicks.r_of_t))
    monkeypatch.setattr(channels, "gram_matrix", counting("gram_matrix", channels.gram_matrix))
    closed = two_kick_closed_form(vacuum, standard_geometry, 0.0, t1)
    assert calls == {"r_of_t": 1, "gram_matrix": 1}
    assert format_channel(closed) == deph and closed.meta["kind"] == "dephasing"


# ---------------------------------------------------------------------------
# dephasing


def test_dephasing_channel_of_an_empty_schedule_is_the_identity(vacuum, standard_geometry):
    """As both exact builders do, the dephasing channel of no kicks is the
    identity."""
    ch = dephasing_channel(vacuum, standard_geometry, KickSchedule([]))
    assert np.array_equal(ch.matrix, np.eye(3)) and np.array_equal(ch.shift, np.zeros(3))
    assert ch.meta["kind"] == "identity"


def test_dephasing_reduces_to_single_kick(vacuum, standard_geometry):
    deph = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.3]))
    single = single_kick_channel(vacuum, standard_geometry, 0.3)
    np.testing.assert_allclose(deph.matrix, single.matrix, atol=1e-14)


def test_dephasing_white_kernel_gamma(standard_geometry):
    v = 0.2
    env = WhiteKickKernel(v)
    times = [0.0, 2 * np.pi, 4 * np.pi, 6 * np.pi]  # f = +1 throughout
    ch = dephasing_channel(env, standard_geometry, KickSchedule(times))
    assert ch.meta["gamma"] == pytest.approx(np.exp(-2 * len(times) * v), abs=1e-14)


def test_dephasing_echo_cancellation(standard_geometry):
    """Perfectly correlated kernel with alternating signs: coherence revives."""
    v = 0.3
    times = [0.0, np.pi]  # alternating f = (+1, -1) for alpha perpendicular to h
    kernel = TabulatedKernel(times, [0, 0], v * np.ones((2, 2)))
    gam = dephasing_gamma(kernel, standard_geometry, KickSchedule(times))
    assert gam == pytest.approx(1.0, abs=1e-14)


def test_dephasing_rejects_non_commuting(vacuum, standard_geometry, monkeypatch):
    """Refused from the kick axes, before the record's Gram matrix is formed."""
    from spinkick import channels

    def no_gram(*args):
        raise AssertionError("gram_matrix called")

    monkeypatch.setattr(channels, "gram_matrix", no_gram)
    for dephasing in (dephasing_channel, dephasing_gamma):
        with pytest.raises(NonCommutingSchedule):
            dephasing(vacuum, standard_geometry, KickSchedule([0.0, 1.0]))


def test_dephasing_order_invariance(standard_geometry):
    """gamma depends on the set of (time, sign) pairs, not their order."""
    env = SingleModeThermal(omega=2.0, nbar=0.8)
    times = np.array([0.0, np.pi, 2 * np.pi, 3 * np.pi])
    signs = np.array([1, -1, 1, -1])
    perm = [2, 0, 3, 1]
    g1 = gaussian_char(env, times, 2.0 * signs)
    g2 = gaussian_char(env, times[perm], 2.0 * signs[perm])
    assert g1 == pytest.approx(g2, abs=1e-14)


# ---------------------------------------------------------------------------
# compose / invert / transition


def test_compose_identity(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    ident = identity_channel()
    out = compose(ident, ch)
    np.testing.assert_allclose(out.matrix, ch.matrix, atol=1e-14)


def test_invert_roundtrip(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    inv = invert_channel(ch)
    assert not inv.cp
    round_trip = compose(inv, ch)
    np.testing.assert_allclose(round_trip.matrix, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(round_trip.shift, 0.0, atol=1e-10)
    np.testing.assert_allclose(
        inv.matrix @ ch.matrix, np.eye(3), atol=1e-12
    )


def test_invert_single_kick_diagonal(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)  # r = x, gamma = 1/e
    inv = invert_channel(ch)
    np.testing.assert_allclose(
        inv.matrix, np.diag([1.0, np.e, np.e]), atol=1e-12
    )
    assert inv.meta["condition_number"] == pytest.approx(np.e, rel=1e-12)


def test_invert_singular(standard_geometry):
    ch = single_kick_channel(SingleModeThermal(omega=1.0, nbar=5000.0), standard_geometry, 0.0)
    with pytest.raises(SingularChannel):
        invert_channel(ch)


@pytest.mark.parametrize("kappa, refused", [(0.999e6, False), (1.001e6, True)])
def test_inversion_is_refused_past_kappa_max(kappa, refused):
    """A diagonal A with condition number just under KAPPA_MAX = 1e6
    inverts; just over it, the inverse is refused as singular, naming kappa."""
    m = QubitMap(np.diag([1.0, 0.5, 1.0 / kappa]), np.zeros(3), (), {}, cp=False)
    if not refused:
        assert invert_channel(m).meta["condition_number"] == pytest.approx(kappa, rel=1e-12)
    else:
        with pytest.raises(SingularChannel, match=r"^affine matrix singular: condition number 1\.001e\+06 > KAPPA_MAX"):
            invert_channel(m)


def test_choi_eigenvalues_are_the_chi_eigenvalues():
    """The Pauli-basis Choi eigenvalues equal chi's eigenvalues in the
    frame basis, on prefixes of random trains and on the transition maps
    between them."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0.0, 1.5))
        geom = random_geometry(rng)
        sched = KickSchedule(np.sort(rng.uniform(0.0, 3.0, 4)), rng.uniform(0.5, 1.2, 4))
        prefixes = build_prefix_channels(env, geom, sched)
        maps = [prefixes[k] for k in range(2, 5)] + [transition_map(prefixes[k + 1], prefixes[k]) for k in range(1, 4)]
        for m in maps:
            assert m.basis is not PAULI_BASIS
            np.testing.assert_allclose(choi_eigenvalues(m), np.linalg.eigvalsh(m.chi), rtol=0, atol=1e-13)


def test_transition_map_consistency(vacuum, standard_geometry):
    longer = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    shorter = single_kick_channel(vacuum, standard_geometry, 0.0)
    theta = transition_map(longer, shorter)
    recomposed = compose(theta, shorter)
    np.testing.assert_allclose(recomposed.matrix, longer.matrix, atol=1e-10)
    np.testing.assert_allclose(recomposed.shift, longer.shift, atol=1e-10)
    _validate(theta.matrix, theta.shift, cp=False)


def test_transition_identity(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    theta = transition_map(ch, ch)
    np.testing.assert_allclose(theta.matrix, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(theta.shift, 0.0, atol=1e-12)


def test_transition_uncorrelated_is_later_kick(standard_geometry):
    env = WhiteKickKernel(0.4)
    longer = build_n_kick_channel(env, standard_geometry, KickSchedule([0.0, 0.9]))
    shorter = single_kick_channel(env, standard_geometry, 0.0)
    theta = transition_map(longer, shorter)
    later = single_kick_channel(env, standard_geometry, 0.9)
    np.testing.assert_allclose(theta.matrix, later.matrix, atol=1e-12)
    assert np.linalg.eigvalsh(theta.chi).min() >= -1e-10  # completely positive


# ---------------------------------------------------------------------------
# properties across constructors


def test_unital_entropy_never_decreases(vacuum):
    from spinkick import entropy

    rng = np.random.default_rng(31)
    geom = random_geometry(rng)
    channels_under_test = [
        single_kick_channel(vacuum, geom, 0.5),
        dephasing_channel(
            SingleModeThermal(omega=1.0, nbar=0.7),
            InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0),
            KickSchedule([0.0, np.pi]),
        ),
        build_n_kick_channel(WhiteKickKernel(0.3), geom, random_schedule(rng, 3)),
    ]
    for ch in channels_under_test:
        assert ch.is_unital
        for _ in range(200):
            u = rng.normal(size=3)
            u = u / np.linalg.norm(u) * rng.uniform(0, 1)
            assert entropy(ch(u)) >= entropy(u) - 1e-12


def test_mean_shift_preserves_singular_values():
    """Adding a mean to an even environment only rotates the channel (up to
    two kicks); the singular values of A are invariant."""
    rng = np.random.default_rng(8)
    for n_kicks in (1, 2):
        for _ in range(5):
            geom = random_geometry(rng)
            sched = random_schedule(rng, n_kicks)
            even = SingleModeThermal(omega=1.3, nbar=0.4)
            disp = SingleModeThermal(
                omega=1.3, nbar=0.4, displacement=rng.normal() + 1j * rng.normal()
            )
            a_even = build_n_kick_channel(even, geom, sched).matrix
            a_disp = build_n_kick_channel(disp, geom, sched).matrix
            np.testing.assert_allclose(
                np.linalg.svd(a_even, compute_uv=False),
                np.linalg.svd(a_disp, compute_uv=False),
                atol=1e-10,
            )


def test_mean_shift_invariance_has_a_boundary():
    """With three or more kicks the displaced channel is no longer a
    rotation of the even one; this pins the scope of the invariance."""
    rng = np.random.default_rng(5)
    geom = InteractionGeometry(
        h=[0, 0, 1], alpha=[np.sqrt(0.5), 0, np.sqrt(0.5)], omega=0.9
    )
    sched = KickSchedule(np.sort(rng.uniform(0, 3, size=3)))
    even = SingleModeThermal(omega=1.3, nbar=0.3)
    disp = SingleModeThermal(omega=1.3, nbar=0.3, displacement=0.6 + 0.8j)
    s_even = np.linalg.svd(
        build_n_kick_channel(even, geom, sched).matrix, compute_uv=False
    )
    s_disp = np.linalg.svd(
        build_n_kick_channel(disp, geom, sched).matrix, compute_uv=False
    )
    assert np.max(np.abs(s_even - s_disp)) > 1e-6


def test_channel_validation_catches_bad_chi(vacuum, standard_geometry):
    """A chi derived from real (A, b) is Hermitian and trace-preserving by
    construction, so the chi validation can catch is one that is not PSD:
    here the single-kick channel with its kick axis mapped to 1.5 r."""
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    with pytest.raises(ValueError):
        _map(ch.matrix, 0.5 * ch.axes[0], ch.axes, {})


def test_channel_validation_refuses_a_non_psd_chi():
    """A = 2 I is trace- and Hermiticity-preserving but not CP: its chi has
    eigenvalue -1/2, and building it as a channel is refused."""
    with pytest.raises(InvalidMap, match=r"chi not PSD: min eigenvalue -5\.000e-01"):
        _map(2.0 * np.eye(3), np.zeros(3), (), {})


def test_invalid_map_is_a_domain_error(vacuum, standard_geometry):
    from spinkick import SpinKickError

    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    with pytest.raises(InvalidMap):
        _map(ch.matrix, np.full(3, np.inf), ch.axes, {}, cp=False)
    assert issubclass(InvalidMap, SpinKickError)


@pytest.mark.parametrize("where", ["A", "b"])
def test_non_finite_map_is_refused(where):
    """A NaN in A or b would pass every tolerance comparison (each is false
    with NaN); the map is refused as InvalidMap instead, and so is a channel
    holding it."""
    a, b = np.eye(3), np.zeros(3)
    if where == "A":
        a[0, 1] = np.nan
    else:
        b[2] = np.nan
    for cp in (False, True):
        with pytest.raises(InvalidMap, match="map is not finite"):
            _map(a, b, (), {}, cp)


def test_one_rule_refuses_a_bad_map_and_a_bad_stack_entry(vacuum, standard_geometry):
    """One rule judges a single map and every entry of a stack of maps
    alike, with one Choi kernel whose stacked chi_P equals each map's bit
    for bit: a non-PSD or non-finite entry anywhere in a stack of prefixes
    is refused with the InvalidMap a single map gets."""
    from spinkick.channels import _pauli_chi

    prefixes = build_prefix_channels(vacuum, standard_geometry, KickSchedule([0.0, 0.7, 1.3]))
    a, b = np.stack([m.matrix for m in prefixes]), np.stack([m.shift for m in prefixes])
    stacked = _pauli_chi(a, b)
    for k, m in enumerate(prefixes):
        assert np.array_equal(stacked[k], _pauli_chi(m.matrix, m.shift))
    _validate(a, b, cp=True)
    with pytest.raises(InvalidMap, match=r"chi not PSD: min eigenvalue -5\.000e-01"):
        _map(2.0 * np.eye(3), np.zeros(3), (), {})
    for k in range(len(prefixes)):
        not_cp_a, not_cp_b, nan_b = a.copy(), b.copy(), b.copy()
        not_cp_a[k], not_cp_b[k], nan_b[k, 1] = 2.0 * np.eye(3), 0.0, np.nan
        with pytest.raises(InvalidMap, match=r"chi not PSD: min eigenvalue -5\.000e-01"):
            _validate(not_cp_a, not_cp_b, cp=True)
        _validate(not_cp_a, not_cp_b, cp=False)  # A = 2 I is a map, just not a channel
        for cp in (False, True):
            with pytest.raises(InvalidMap, match="map is not finite"):
                _validate(a, nan_b, cp)


def test_compose_is_channel_only_for_channel_pairs(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    assert compose(ch, ch).cp
    assert not compose(invert_channel(ch), ch).cp
    assert not compose(ch, invert_channel(ch)).cp


# ---------------------------------------------------------------------------
# serialization


def _random_channel_stack(rng, count: int, n: int):
    """Channels of random precessing thermal trains, and their (n-1)-kick
    heads, from the prefix pass."""
    longer, shorter = [], []
    for _ in range(count):
        env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0.0, 1.0))
        prefixes = build_prefix_channels(env, random_geometry(rng), random_schedule(rng, n))
        longer.append(prefixes[n])
        shorter.append(prefixes[n - 1])
    return longer, shorter


def test_stacked_map_algebra_is_the_one_map_algebra_entry_by_entry():
    """choi_eigenvalues, invert_channel, transition_map, compose and
    fixed_point take a stack of maps in one formula whose one-map form is
    its 0-d case: every entry is the one-map result bit for bit.  Where one
    map raises (a singular inverse, a fixed-point equation with no
    solution), its stack entry is nan, kappa is recorded per entry, and the
    entries beside it are unchanged; a singular but consistent fixed-point
    equation is solved by lstsq entry by entry."""
    rng = np.random.default_rng(11)
    longer, shorter = _random_channel_stack(rng, 6, 3)
    dephased = phase_damping_channel([0.0, 0.0, 1.0], 0.0)  # A = diag(0, 0, 1): no inverse
    translation = QubitMap(np.eye(3), [0.0, 0.0, 0.2], cp=False)  # 1 - A = 0 with b != 0: no fixed point
    echo = QubitMap(np.diag([1.0, 0.5, 0.5]), np.zeros(3), cp=False)  # a singular, consistent fixed point
    shorter[2] = dephased
    stack = lambda maps, cp=True: QubitMap(np.stack([m.matrix for m in maps]), np.stack([m.shift for m in maps]), cp=cp)
    big, small = stack(longer), stack(shorter)

    theta = transition_map(big, small)
    inverse = invert_channel(small)
    composed = compose(big, small)
    for k in range(6):
        if k == 2:
            with pytest.raises(SingularChannel):
                transition_map(longer[k], shorter[k])
            assert np.isnan(theta.matrix[k]).all() and np.isnan(theta.shift[k]).all()
            assert np.isnan(choi_eigenvalues(theta)[k]).all() and inverse.meta["condition_number"][k] == np.inf
            continue
        one = transition_map(longer[k], shorter[k])
        assert np.array_equal(theta.matrix[k], one.matrix) and np.array_equal(theta.shift[k], one.shift)
        assert np.array_equal(choi_eigenvalues(theta)[k], choi_eigenvalues(one))
        assert inverse.meta["condition_number"][k] == invert_channel(shorter[k]).meta["condition_number"]
        assert np.array_equal(composed.matrix[k], compose(longer[k], shorter[k]).matrix)

    maps = longer[:4] + [translation, echo]
    result = fixed_point(stack(maps, cp=False))
    for k, m in enumerate(maps):
        if m is translation:
            with pytest.raises(NonContractive):
                fixed_point(m)
            assert np.isnan(result.u_f[k]).all() and np.isnan(result.residual[k])
            continue
        one = fixed_point(m)
        assert np.array_equal(result.u_f[k], one.u_f)
        assert (result.spectral_radius[k], result.converged[k], result.unique[k], result.residual[k]) == (
            one.spectral_radius, one.converged, one.unique, one.residual
        )
    assert not result.unique[5] and result.unique[:4].all()


def test_stacked_enumeration_is_each_build_bit_for_bit(standard_geometry):
    """The enumeration of a stack of records, with runs of equal and of
    differing axes, gives each record's one-map channel bit for bit, and
    allocates its gamma matrices as one stack of 16 * 4^n bytes a record."""
    from spinkick import channels

    rng = np.random.default_rng(12)
    sched = KickSchedule([0.1, 0.8, 1.5], [0.9, 0.6, 0.8])
    trains = [(SingleModeThermal(omega=1.0, nbar=nbar), standard_geometry, sched) for nbar in (0.0, 0.4, 0.9)]
    trains += [(SingleModeThermal(omega=1.0, nbar=0.3), random_geometry(rng), sched) for _ in range(2)]
    trains += [(WhiteKickKernel(0.3), standard_geometry, sched)]
    records, a, b = channels._enumerate(lambda: [KickInputs.of(*train) for train in trains], len(trains), 3, 10)
    assert not a.flags.writeable and not b.flags.writeable
    for k, train in enumerate(trains):
        one = build_n_kick_channel(*train)
        assert np.array_equal(a[k], one.matrix) and np.array_equal(b[k], one.shift)
        assert np.array_equal(records[k].gram, KickInputs.of(*train).gram)


def test_stacked_enumeration_peak_memory_is_its_stated_bytes(vacuum, standard_geometry):
    """A stack of 8 records of 7 kicks states 16 * 4^7 bytes of gamma
    coefficients a record, and holds beside them only one record's exponent
    sum (16 * 4^7) and the axis part at a time: its traced peak is its
    stated bytes within a quarter."""
    from spinkick import channels

    sched = KickSchedule(np.linspace(0, 4, 7))
    envs = [SingleModeThermal(omega=1.0, nbar=nbar) for nbar in np.linspace(0.0, 1.0, 8)]
    inputs = lambda: [KickInputs.of(env, standard_geometry, sched) for env in envs]
    channels._enumerate(inputs, 8, 7, 10)  # warm caches and imports
    tracemalloc.start()
    try:
        channels._enumerate(inputs, 8, 7, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.0 <= peak / (8 * 16 * 4**7) <= 1.25


def test_prefixes_are_read_only_rows_of_one_stack(vacuum, standard_geometry):
    """The pass freezes its validated (A, b) stack and makes every prefix,
    the identity among them, from views of its rows: no prefix copies its
    A or b, and none can be written."""
    prefixes = build_prefix_channels(vacuum, standard_geometry, KickSchedule([0.0, 0.7, 1.3]))
    stack = prefixes[0].matrix.base
    assert isinstance(stack, np.ndarray) and stack.shape == (4, 3, 3) and not stack.flags.writeable
    for m in prefixes:
        assert m.matrix.base is stack and np.shares_memory(m.matrix, stack)
        assert m.shift.base is prefixes[0].shift.base and not m.shift.base.flags.writeable


@pytest.mark.parametrize("handed", ["writable", "read-only view of a writable array", "integers", "list"])
def test_a_map_never_changes_with_its_callers_array(handed):
    """QubitMap copies any array it is handed that is writable, lies over
    writable memory or is not float64, so writing to the caller's array
    never changes the map; a read-only float64 array over read-only memory
    is taken as it is."""
    a, b = np.diag([1.0, 0.5, 0.25]), np.zeros(3)
    given = {
        "writable": a,
        "read-only view of a writable array": a.view(),
        "integers": np.eye(3, dtype=int),
        "list": [[1.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.25]],
    }[handed]
    if handed == "read-only view of a writable array":
        given.setflags(write=False)
    m = QubitMap(given, b, cp=False)
    before = m.matrix.copy()
    for target in (a, given):
        if isinstance(target, np.ndarray) and target.flags.writeable:
            target[0, 0] = 7.0
    assert np.array_equal(m.matrix, before) and not m.matrix.flags.writeable
    frozen = before.copy()
    frozen.setflags(write=False)
    assert QubitMap(frozen, b, cp=False).matrix is frozen


def test_channel_roundtrip(tmp_path, vacuum, standard_geometry):
    ch = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    path = tmp_path / "channel.txt"
    path.write_text(format_channel(ch))
    back = load_channel(path)
    np.testing.assert_array_equal(back.matrix, ch.matrix)
    np.testing.assert_array_equal(back.shift, ch.shift)
    np.testing.assert_array_equal(back.chi, ch.chi)
    np.testing.assert_array_equal(back.basis.ops, ch.basis.ops)
    assert back.meta["times"] == ch.meta["times"]


def test_transition_roundtrip(tmp_path, vacuum, standard_geometry):
    longer = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    theta = transition_map(longer, single_kick_channel(vacuum, standard_geometry, 0.0))
    path = tmp_path / "theta.txt"
    path.write_text(format_channel(theta))
    back = load_channel(path)
    assert not back.cp
    np.testing.assert_array_equal(back.chi, theta.chi)


def test_load_rejects_an_edited_chi_entry(tmp_path, vacuum, standard_geometry):
    """chi is derived from the file's A and b; a chi section that disagrees
    with them is refused."""
    ch = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    path = tmp_path / "channel.txt"
    path.write_text(format_channel(ch))
    lines = path.read_text().splitlines()
    row = lines.index("chi:") + 2
    entries = lines[row].split()
    entries[1] = format_complex(parse_complex(entries[1]) + 1e-6)
    lines[row] = " ".join(entries)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidMap, match="chi section"):
        load_channel(path)


@pytest.mark.parametrize("line", ["kind: chanel", "kind chanel", "kind:", "type: channel"])
def test_load_refuses_an_unknown_kind(tmp_path, vacuum, standard_geometry, line):
    """Only 'channel' and 'transition' are kinds: any other kind line is
    refused, naming it, so a mistyped channel cannot load as a transition
    map and skip its CP check."""
    ch = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    path = tmp_path / "channel.txt"
    path.write_text(format_channel(ch).replace("kind: channel", line))
    with pytest.raises(InvalidMap, match=f"unknown kind line '{line}'"):
        load_channel(path)


@pytest.mark.parametrize("cut", ["empty", "after_chi", "bad_header", "renamed_section"])
def test_load_rejects_a_malformed_file(tmp_path, vacuum, standard_geometry, cut):
    ch = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    text = format_channel(ch)
    text, reason = {
        "empty": ("", "a line is missing"),
        "after_chi": (text[: text.index("chi:\n") + len("chi:\n")], "a line is missing"),
        "bad_header": (text.replace("spinkick-map v1", "spinkick-map v2"), "unrecognized header"),
        "renamed_section": (text.replace("\nA:\n", "\nB:\n"), "expected A section"),
    }[cut]
    path = tmp_path / "channel.txt"
    path.write_text(text)
    with pytest.raises(InvalidMap, match=f"malformed channel file .*: {reason}"):
        load_channel(path)


# ---------------------------------------------------------------------------
# one chi-basis rule, identity equality


def test_two_kick_transition_map_matches_inverted_composition():
    """The closed-form transition map is longer o shorter^-1 of the exact
    two-kick and one-kick channels (worst deviation 4e-14 on these draws)."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        env = SingleModeThermal(omega=rng.uniform(0.3, 2.0), nbar=rng.uniform(0.0, 1.0))
        geom = random_geometry(rng)
        t0 = rng.uniform(0.0, 1.0)
        t1 = t0 + rng.uniform(0.2, 1.5)
        w = rng.uniform(0.5, 1.0, size=2)
        closed = two_kick_transition_map(env, geom, t0, t1, w)
        exact = transition_map(
            build_n_kick_channel(env, geom, KickSchedule([t0, t1], w)),
            single_kick_channel(env, geom, t0, w[0]),
        )
        assert not closed.cp
        np.testing.assert_allclose(closed.matrix, exact.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.shift, exact.shift, rtol=0, atol=1e-12)


def test_every_constructor_reads_chi_in_the_default_basis():
    """Frame of the last and first kick axes when they are well separated,
    the Pauli basis for parallel axes and for an empty schedule."""
    rng = np.random.default_rng(3)
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    geom = random_geometry(rng)
    times = [0.1, 0.5, 0.9]
    rs = [r_of_t(geom, t) for t in times]
    frame = default_chi_basis(rs).ops
    assert np.linalg.norm(np.cross(rs[-1], rs[0])) > PARALLEL_BASIS_TOL
    assert not np.array_equal(frame, PAULI_BASIS.ops)
    spec = fock_spec_for(env, dim=20)
    framed = [
        build_n_kick_channel(env, geom, KickSchedule(times)),
        oracle_channel(spec, geom, KickSchedule(times), stability_tol=1.0),
        nascent_delta_channels(spec, geom, KickSchedule(times), [0.01], steps_per_kick=4)[0],
    ]
    for m in framed:
        np.testing.assert_array_equal(m.basis.ops, frame)
    pair = default_chi_basis(rs[:2]).ops
    np.testing.assert_array_equal(two_kick_closed_form(env, geom, *times[:2]).basis.ops, pair)
    np.testing.assert_array_equal(two_kick_transition_map(env, geom, *times[:2]).basis.ops, pair)

    synced = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)
    empty = KickSchedule([])
    pauli = [
        identity_channel(),
        build_n_kick_channel(env, geom, empty),
        oracle_channel(spec, geom, empty, stability_tol=1.0),
        nascent_delta_channels(spec, geom, empty, [0.01])[0],
        single_kick_channel(env, geom, 0.3),
        dephasing_channel(env, synced, KickSchedule([0.0, np.pi])),
        two_kick_closed_form(env, synced, 0.0, np.pi),
    ]
    for m in pauli:
        assert m.basis is PAULI_BASIS


def _geometry():
    return InteractionGeometry([0, 0, 1], [1, 0, 0], 1.0)


@pytest.mark.parametrize(
    "make",
    [
        identity_channel,
        lambda: OperatorBasis(PAULI_BASIS.ops),
        _geometry,
        lambda: KickSchedule([0.0, 1.0]),
        lambda: two_kick_params(SingleModeThermal(omega=1.0), _geometry(), 0.0, 0.7),
        lambda: fixed_point(single_kick_channel(SingleModeThermal(omega=1.0), _geometry(), 0.0)),
        lambda: dephasing_divisibility(0.5, 0.8),
    ],
    ids=[
        "QubitMap",
        "OperatorBasis",
        "InteractionGeometry",
        "KickSchedule",
        "TwoKickParams",
        "FixedPointResult",
        "DivisibilityReport",
    ],
)
def test_equality_is_identity(make):
    """Types with numpy fields compare by identity: == gives a bool, never
    the ambiguous truth value of an array."""
    a, b = make(), make()
    assert (a == a) is True
    assert (a == b) is False


def test_enumeration_refuses_gamma_coefficients_that_overflow():
    """At nbar = 1e250 the exponents of the 4^n gamma coefficients cancel
    only to within rounding of the Gram entries, which overflows exp: the
    enumeration refuses with SpinKickError, before numpy could warn, while
    the pass, which never forms those sums, still builds the channel."""
    env = SingleModeThermal(omega=1.0, nbar=1e250)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)
    sched = KickSchedule([0.0, 0.7, 1.3])
    with pytest.raises(SpinKickError, match="gamma coefficients overflow"):
        build_n_kick_channel(env, geom, sched)
    assert np.isfinite(build_prefix_channels(env, geom, sched)[3].matrix).all()


@pytest.mark.parametrize("build", [build_n_kick_channel, lambda *a: build_prefix_channels(*a)[1]])
def test_kick_means_that_overflow_are_refused(build):
    """A weight times a displaced mean past float64's range is refused like
    an overflowing Gram entry, with no numpy warning first."""
    env = SingleModeThermal(omega=1.0, displacement=1e300)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)
    with pytest.raises(SpinKickError, match=r"weights 1e\+10 overflow the kick means"):
        build(env, geom, KickSchedule([0.0], [1e10]))


def test_dephasing_coefficient_of_overflowing_weights_is_refused():
    """2 w past float64's range is refused by the characteristic function,
    not warned of."""
    env = SingleModeThermal(omega=1.0)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    with pytest.raises(SpinKickError, match="overflow"):
        dephasing_gamma(env, geom, KickSchedule([0.0, 1.0], [1e308, 1.0]))


# ---------------------------------------------------------------------------
# exact symmetries of the Weyl sum: gates where no second builder reaches


def _symmetry_train(kind, rng):
    """(env, schedule, env with the opposite mean) of a 12- or 13-kick train,
    kicks 0.4-0.9 apart, weights 0.3-0.8.  ``high_nbar`` occupies its mode
    so strongly that its last levels take the summed route."""
    n = 13 if kind == "even" else 12
    times = np.cumsum(rng.uniform(0.4, 0.9, size=n))
    sched = KickSchedule(times, rng.uniform(0.3, 0.8, size=n))
    if kind == "even":
        env = flipped = SingleModeThermal(omega=1.1, nbar=0.5)
    elif kind == "high_nbar":
        env = flipped = SingleModeThermal(omega=1.1, nbar=200.0)
    elif kind == "white":
        env = flipped = WhiteKickKernel(0.3)
    elif kind == "displaced":
        env, flipped = (SingleModeThermal(omega=0.9, nbar=0.4, displacement=d) for d in (0.5 - 0.3j, -0.5 + 0.3j))
    else:
        env = _tabulated(rng, times)
        cov = [[env.covariance(t, s) for s in times] for t in times]
        flipped = TabulatedKernel(times, [-env.mean(t) for t in times], cov)
    return env, sched, flipped


def _assert_maps_equal(maps, others, rot=np.eye(3)):
    """Each of ``others`` is (R A R^T, R b) of its own in ``maps``, to a
    fixed 1e-13 (measured at most 6.6e-15 over 20 seeds)."""
    for m, other in zip(maps, others, strict=True):
        np.testing.assert_allclose(other.matrix, rot @ m.matrix @ rot.T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(other.shift, rot @ m.shift, rtol=0, atol=1e-13)


_SYMMETRY_KINDS = ["even", "displaced", "high_nbar", "tabulated"]


@pytest.mark.parametrize("kind", _SYMMETRY_KINDS)
def test_rotating_the_geometry_rotates_every_prefix(kind):
    """Rotating h and alpha by R in SO(3) maps every prefix channel (A, b) of
    a pass to (R A R^T, R b): the axes turn, and the environment does not
    see them.  On 12 and 13 kicks, past the enumeration's reach, on both
    level routes."""
    rng = np.random.default_rng(31)
    env, sched, _ = _symmetry_train(kind, rng)
    geom = random_geometry(rng)
    prefixes = build_prefix_channels(env, geom, sched, max_kicks=13)
    summed = [m.meta["summed_levels"] for m in prefixes[7:]]  # the tiled levels
    assert summed == ([0, 1, 2, 3, 4, 5] if kind == "high_nbar" else [0] * len(summed))
    for rot in (random_rotation(rng), random_rotation(rng)):
        turned = InteractionGeometry(h=rot @ geom.h, alpha=rot @ geom.alpha, omega=geom.omega)
        _assert_maps_equal(prefixes, build_prefix_channels(env, turned, sched, max_kicks=13), rot)


@pytest.mark.parametrize("kind", _SYMMETRY_KINDS)
def test_flipping_the_coupling_axis_flips_the_mean(kind):
    """alpha -> -alpha is m -> -m: every kick's projectors swap, as the sign
    of the coupling does.  An even environment's channels do not change;
    a displaced one's become those of the opposite displacement, and a
    tabulated kernel's those of its negated means."""
    rng = np.random.default_rng(32)
    env, sched, flipped = _symmetry_train(kind, rng)
    geom = random_geometry(rng)
    reversed_axis = InteractionGeometry(h=geom.h, alpha=-geom.alpha, omega=geom.omega)
    _assert_maps_equal(
        build_prefix_channels(env, reversed_axis, sched, max_kicks=13),
        build_prefix_channels(flipped, geom, sched, max_kicks=13),
    )


@pytest.mark.parametrize("kind", ["even", "high_nbar", "white"])
def test_shifting_the_times_rotates_every_prefix_about_h(kind):
    """On a stationary kernel (an undisplaced mode, white kicks) shifting
    every kick time by tau moves only the axes, r(t + tau) = R r(t) with R
    the rotation about h by -Omega tau, so every prefix channel (A, b) of a
    pass goes to (R A R^T, R b).  On 12 and 13 kicks, on both level
    routes."""
    rng = np.random.default_rng(34)
    env, sched, _ = _symmetry_train(kind, rng)
    geom = random_geometry(rng)
    prefixes = build_prefix_channels(env, geom, sched, max_kicks=13)
    routes = [m.meta["summed_levels"] for m in prefixes[1:]]
    assert (routes[-1] > 0) == (kind == "high_nbar")
    for tau in (-1.6, 0.37, 2.9):
        shifted = build_prefix_channels(env, geom, KickSchedule(sched.times + tau, sched.weights), max_kicks=13)
        assert [m.meta["summed_levels"] for m in shifted[1:]] == routes
        _assert_maps_equal(prefixes, shifted, rotation_about(geom.h, -geom.omega * tau))


@pytest.mark.parametrize("kind", ["displaced", "tabulated"])
def test_enumeration_keeps_both_symmetries(kind):
    """The rotation and the axis flip hold on the 4^n enumeration too, at 5
    kicks."""
    rng = np.random.default_rng(33)
    env, sched, flipped = _symmetry_train(kind, rng)
    sched = KickSchedule(sched.times[:5], sched.weights[:5])
    geom = random_geometry(rng)
    channel = build_n_kick_channel(env, geom, sched)
    rot = random_rotation(rng)
    turned = InteractionGeometry(h=rot @ geom.h, alpha=rot @ geom.alpha, omega=geom.omega)
    _assert_maps_equal([channel], [build_n_kick_channel(env, turned, sched)], rot)
    reversed_axis = InteractionGeometry(h=geom.h, alpha=-geom.alpha, omega=geom.omega)
    _assert_maps_equal([build_n_kick_channel(env, reversed_axis, sched)], [build_n_kick_channel(flipped, geom, sched)])
