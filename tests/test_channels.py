from dataclasses import dataclass

import numpy as np
import pytest

from spinkick import (
    PAULI_BASIS,
    AffineBlochMap,
    GaussianEnvironment,
    InteractionGeometry,
    LengthMismatch,
    KickSchedule,
    NonCommutingSchedule,
    NonEvenEnvironment,
    SingleModeThermal,
    SingularChannel,
    TabulatedKernel,
    TooManyKicks,
    WhiteKickKernel,
    build_n_kick_channel,
    compose,
    dephasing_channel,
    dephasing_gamma,
    gaussian_char,
    gram_matrix,
    identity_channel,
    invert_channel,
    load_channel,
    save_channel,
    single_kick_channel,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
    two_kick_transition_map,
    r_of_t,
)
from spinkick.analysis import dephasing_divisibility, fixed_point
from spinkick.channels import (
    PARALLEL_BASIS_TOL,
    _gamma_matrix,
    _sign_matrix,
    chi_from_affine,
    default_chi_basis,
    validate_channel,
    validate_map,
)
from spinkick.oracle import fock_spec_for, nascent_delta_channel, oracle_channel
from spinkick.pauli import OperatorBasis
from conftest import random_geometry, random_schedule


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


def test_gamma_matrix_matches_pairwise():
    rng = np.random.default_rng(7)
    env = SingleModeThermal(omega=1.4, nbar=0.6, displacement=0.5 - 0.3j)
    sched = random_schedule(rng, 3)
    signs = _sign_matrix(3)
    gam = _gamma_matrix(env, sched.times, sched.weights, signs)
    for i in range(len(signs)):
        for j in range(len(signs)):
            expected = gamma_coefficient(env, sched, signs[i], signs[j])
            assert gam[i, j] == pytest.approx(expected, abs=1e-13)
            assert abs(gam[i, j]) <= 1 + 1e-12
            GammaCoefficient(gam[i, j], tuple(signs[i]), tuple(signs[j]))


# ---------------------------------------------------------------------------
# single kick


def test_single_kick_vacuum_affine(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    g = np.exp(-1.0)
    np.testing.assert_allclose(ch.affine.matrix, np.diag([1.0, g, g]), atol=1e-14)
    np.testing.assert_allclose(ch.affine.shift, 0.0, atol=1e-15)


def test_single_kick_fixed_direction(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    u = np.array([0.9, 0, 0])  # parallel to r(0) = x
    np.testing.assert_allclose(ch(u), u, atol=1e-14)


def test_single_kick_strong_damping_limit(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=400.0)  # Var >> 1, gamma ~ 0
    ch = single_kick_channel(env, standard_geometry, 0.0)
    r = r_of_t(standard_geometry, 0.0)
    np.testing.assert_allclose(ch.affine.matrix, np.outer(r, r), atol=1e-12)
    np.testing.assert_allclose(ch.affine.shift, 0.0, atol=1e-14)


def test_single_kick_displaced_rotation(standard_geometry):
    """A mean adds a rotation about r: singular values of A are unchanged."""
    even = SingleModeThermal(omega=1.0)
    disp = SingleModeThermal(omega=1.0, displacement=0.8 + 0.1j)
    a_even = single_kick_channel(even, standard_geometry, 0.3).affine.matrix
    a_disp = single_kick_channel(disp, standard_geometry, 0.3).affine.matrix
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


# ---------------------------------------------------------------------------
# n-kick builder


def test_n_kick_reduces_to_single(vacuum, standard_geometry):
    single = single_kick_channel(vacuum, standard_geometry, 0.4)
    built = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.4]))
    np.testing.assert_allclose(built.affine.matrix, single.affine.matrix, atol=1e-12)
    np.testing.assert_allclose(built.affine.shift, single.affine.shift, atol=1e-12)
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
        np.testing.assert_allclose(built.affine.matrix, closed.affine.matrix, atol=1e-12)
        np.testing.assert_allclose(built.affine.shift, closed.affine.shift, atol=1e-12)
        np.testing.assert_allclose(built.chi, closed.chi, atol=1e-12)


def test_n_kick_white_kernel_is_composition(standard_geometry):
    env = WhiteKickKernel(0.35)
    times = [0.0, 0.6, 1.1]
    built = build_n_kick_channel(env, standard_geometry, KickSchedule(times))
    comp = single_kick_channel(env, standard_geometry, times[0])
    for t in times[1:]:
        comp = compose(single_kick_channel(env, standard_geometry, t), comp)
    np.testing.assert_allclose(built.affine.matrix, comp.affine.matrix, atol=1e-12)
    chi_comp = chi_from_affine(comp.affine, built.basis)
    np.testing.assert_allclose(built.chi, chi_comp, atol=1e-12)


def test_n_kick_chi_consistent_with_affine():
    """The Appendix-style double-trace accumulation and the affine-route chi
    must agree: the chi representation of a map is unique in a fixed basis."""
    rng = np.random.default_rng(4)
    env = SingleModeThermal(omega=1.1, nbar=0.4, displacement=0.2 + 0.6j)
    geom = random_geometry(rng)
    sched = random_schedule(rng, 3)
    ch = build_n_kick_channel(env, geom, sched)
    np.testing.assert_allclose(ch.chi, chi_from_affine(ch.affine, ch.basis), atol=1e-12)


def test_n_kick_budget(vacuum, standard_geometry):
    with pytest.raises(TooManyKicks):
        build_n_kick_channel(
            vacuum, standard_geometry, KickSchedule(np.linspace(0, 1, 11))
        )


def test_n_kick_ball_contraction():
    rng = np.random.default_rng(17)
    env = SingleModeThermal(omega=0.9, nbar=1.2)
    geom = random_geometry(rng)
    ch = build_n_kick_channel(env, geom, random_schedule(rng, 3))
    pts = rng.normal(size=(10_000, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    out = pts @ ch.affine.matrix.T + ch.affine.shift
    assert np.linalg.norm(out, axis=1).max() <= 1 + 1e-10


def test_n_kick_deterministic(vacuum, standard_geometry):
    sched = KickSchedule([0.0, 0.7, 1.3])
    a = build_n_kick_channel(vacuum, standard_geometry, sched)
    b = build_n_kick_channel(vacuum, standard_geometry, sched)
    assert np.array_equal(a.chi, b.chi)
    assert np.array_equal(a.affine.matrix, b.affine.matrix)


# ---------------------------------------------------------------------------
# two-kick closed form


def test_two_kick_uncorrelated_composes(standard_geometry):
    env = WhiteKickKernel(0.25)
    closed = two_kick_closed_form(env, standard_geometry, 0.0, 0.8)
    comp = compose(
        single_kick_channel(env, standard_geometry, 0.8),
        single_kick_channel(env, standard_geometry, 0.0),
    )
    np.testing.assert_allclose(closed.affine.matrix, comp.affine.matrix, atol=1e-12)
    np.testing.assert_allclose(closed.affine.shift, comp.affine.shift, atol=1e-12)


def test_two_kick_real_kernel_unital(standard_geometry):
    # kernel real at these times: omega (t1 - t0) = pi gives Im K = 0
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    closed = two_kick_closed_form(env, standard_geometry, 0.0, np.pi)
    np.testing.assert_allclose(closed.affine.shift, 0.0, atol=1e-14)


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
    np.testing.assert_allclose(closed.affine.shift, expected, atol=1e-13)
    assert np.linalg.norm(closed.affine.shift) > 1e-2  # genuinely non-unital


def test_two_kick_rejects_displaced(standard_geometry):
    env = SingleModeThermal(omega=1.0, displacement=0.3)
    with pytest.raises(NonEvenEnvironment):
        two_kick_closed_form(env, standard_geometry, 0.0, 0.7)
    with pytest.raises(NonEvenEnvironment):
        two_kick_params(env, standard_geometry, 0.0, 0.7)


def test_two_kick_parallel_falls_back_to_dephasing(vacuum, standard_geometry):
    closed = two_kick_closed_form(vacuum, standard_geometry, 0.0, 2 * np.pi)
    deph = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0, 2 * np.pi]))
    np.testing.assert_allclose(closed.affine.matrix, deph.affine.matrix, atol=1e-12)
    assert closed.meta["kind"] == "dephasing"


# ---------------------------------------------------------------------------
# dephasing


def test_dephasing_reduces_to_single_kick(vacuum, standard_geometry):
    deph = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.3]))
    single = single_kick_channel(vacuum, standard_geometry, 0.3)
    np.testing.assert_allclose(deph.affine.matrix, single.affine.matrix, atol=1e-14)


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


def test_dephasing_rejects_non_commuting(vacuum, standard_geometry):
    with pytest.raises(NonCommutingSchedule):
        dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0, 1.0]))


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
    np.testing.assert_allclose(out.affine.matrix, ch.affine.matrix, atol=1e-14)


def test_invert_roundtrip(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    inv = invert_channel(ch)
    assert not inv.cp
    round_trip = compose(inv, ch)
    np.testing.assert_allclose(round_trip.affine.matrix, np.eye(3), atol=1e-10)
    np.testing.assert_allclose(round_trip.affine.shift, 0.0, atol=1e-10)
    np.testing.assert_allclose(
        inv.affine.matrix @ ch.affine.matrix, np.eye(3), atol=1e-12
    )


def test_invert_single_kick_diagonal(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)  # r = x, gamma = 1/e
    inv = invert_channel(ch)
    np.testing.assert_allclose(
        inv.affine.matrix, np.diag([1.0, np.e, np.e]), atol=1e-12
    )
    assert inv.meta["condition_number"] == pytest.approx(np.e, rel=1e-12)


def test_invert_singular(standard_geometry):
    ch = single_kick_channel(SingleModeThermal(omega=1.0, nbar=5000.0), standard_geometry, 0.0)
    with pytest.raises(SingularChannel):
        invert_channel(ch)


def test_transition_map_consistency(vacuum, standard_geometry):
    longer = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    shorter = single_kick_channel(vacuum, standard_geometry, 0.0)
    theta = transition_map(longer, shorter)
    recomposed = compose(theta, shorter)
    np.testing.assert_allclose(recomposed.affine.matrix, longer.affine.matrix, atol=1e-10)
    np.testing.assert_allclose(recomposed.affine.shift, longer.affine.shift, atol=1e-10)
    validate_map(theta)


def test_transition_identity(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    theta = transition_map(ch, ch)
    np.testing.assert_allclose(theta.affine.matrix, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(theta.affine.shift, 0.0, atol=1e-12)


def test_transition_uncorrelated_is_later_kick(standard_geometry):
    env = WhiteKickKernel(0.4)
    longer = build_n_kick_channel(env, standard_geometry, KickSchedule([0.0, 0.9]))
    shorter = single_kick_channel(env, standard_geometry, 0.0)
    theta = transition_map(longer, shorter)
    later = single_kick_channel(env, standard_geometry, 0.9)
    np.testing.assert_allclose(theta.affine.matrix, later.affine.matrix, atol=1e-12)
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
        assert ch.affine.is_unital
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
            a_even = build_n_kick_channel(even, geom, sched).affine.matrix
            a_disp = build_n_kick_channel(disp, geom, sched).affine.matrix
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
        build_n_kick_channel(even, geom, sched).affine.matrix, compute_uv=False
    )
    s_disp = np.linalg.svd(
        build_n_kick_channel(disp, geom, sched).affine.matrix, compute_uv=False
    )
    assert np.max(np.abs(s_even - s_disp)) > 1e-6


def test_channel_validation_catches_bad_chi(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    from spinkick import QubitMap

    bad = QubitMap(ch.affine, ch.chi + 1e-3 * np.eye(4) * 1j, ch.basis, {})
    with pytest.raises(ValueError):
        validate_channel(bad)


def test_invalid_map_is_a_domain_error(vacuum, standard_geometry):
    from spinkick import InvalidMap, QubitMap, SpinKickError

    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    bad = QubitMap(ch.affine, ch.chi + 1e-3j * np.eye(4), ch.basis, {}, cp=False)
    with pytest.raises(InvalidMap):
        validate_map(bad)
    assert issubclass(InvalidMap, SpinKickError)


def test_compose_is_channel_only_for_channel_pairs(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.2)
    assert compose(ch, ch).cp
    assert not compose(invert_channel(ch), ch).cp
    assert not compose(ch, invert_channel(ch)).cp


# ---------------------------------------------------------------------------
# serialization


def test_channel_roundtrip(tmp_path, vacuum, standard_geometry):
    ch = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    path = tmp_path / "channel.txt"
    save_channel(ch, path)
    back = load_channel(path)
    np.testing.assert_array_equal(back.affine.matrix, ch.affine.matrix)
    np.testing.assert_array_equal(back.affine.shift, ch.affine.shift)
    np.testing.assert_array_equal(back.chi, ch.chi)
    np.testing.assert_array_equal(back.basis.ops, ch.basis.ops)
    assert back.meta["times"] == ch.meta["times"]


def test_transition_roundtrip(tmp_path, vacuum, standard_geometry):
    longer = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 0.7]))
    theta = transition_map(longer, single_kick_channel(vacuum, standard_geometry, 0.0))
    path = tmp_path / "theta.txt"
    save_channel(theta, path)
    back = load_channel(path)
    assert not back.cp
    np.testing.assert_array_equal(back.chi, theta.chi)


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
        np.testing.assert_allclose(closed.affine.matrix, exact.affine.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.affine.shift, exact.affine.shift, rtol=0, atol=1e-12)


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
        nascent_delta_channel(spec, geom, times, 0.01, steps_per_kick=4),
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
        nascent_delta_channel(spec, geom, [], 0.01),
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
        AffineBlochMap.identity,
        lambda: OperatorBasis(PAULI_BASIS.ops),
        _geometry,
        lambda: KickSchedule([0.0, 1.0]),
        lambda: two_kick_params(SingleModeThermal(omega=1.0), _geometry(), 0.0, 0.7),
        lambda: fixed_point(single_kick_channel(SingleModeThermal(omega=1.0), _geometry(), 0.0)),
        lambda: dephasing_divisibility(0.5, 0.8),
    ],
    ids=[
        "AffineBlochMap",
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
