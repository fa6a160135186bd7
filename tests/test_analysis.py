import numpy as np
import pytest

from spinkick import (
    DivisibilityReport,
    InteractionGeometry,
    KickSchedule,
    NonContractive,
    NonEvenEnvironment,
    SingleModeThermal,
    SingularChannel,
    WhiteKickKernel,
    chi_eigenvalues_two_kick,
    dephasing_channel,
    dephasing_divisibility,
    dephasing_gamma,
    divisibility_report,
    entropy,
    fixed_point,
    identity_channel,
    is_cp,
    max_image_norm,
    purity,
    trace_distance,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
)
from spinkick.analysis import PSD_TOL
from spinkick.channels import QubitMap
from spinkick.pauli import PAULI_BASIS
from conftest import fibonacci_sphere, random_geometry, random_schedule
from reference import (
    entanglement_entropy,
    entropy_from_purity,
    enumerated_channel,
    post_kick_purity,
    two_kick_divisibility,
)


def test_purity_examples():
    assert purity([0, 0, 0]) == 0.5
    assert purity([0, 0, 1]) == 1.0
    assert purity([0.6, 0, 0]) == pytest.approx(0.68)


def test_entropy_examples():
    assert entropy([0, 1, 0]) == 0.0
    assert entropy([0, 0, 0]) == pytest.approx(np.log(2))
    assert entropy([0, 0, 0], base=2) == pytest.approx(1.0)
    assert entropy([0.6, 0, 0]) == pytest.approx(0.5004024235381879, abs=1e-12)


def test_entropy_matches_purity_form():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u) * rng.uniform(0, 1)
        assert entropy(u) == pytest.approx(entropy_from_purity(purity(u)), abs=1e-13)


def test_post_kick_purity(vacuum, standard_geometry):
    # u parallel to r(0): unchanged
    assert post_kick_purity([0.7, 0, 0], vacuum, standard_geometry, 0.0) == pytest.approx(
        purity([0.7, 0, 0])
    )
    # u perpendicular, Var = 1/2: (2 - (1 - e^-2))/2
    expected = (1.0 + np.exp(-2.0)) / 2.0
    assert post_kick_purity([0, 0, 1], vacuum, standard_geometry, 0.0) == pytest.approx(expected)
    assert expected == pytest.approx(0.5676676416183064, abs=1e-15)


def test_post_kick_purity_strong_damping(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=500.0)
    assert post_kick_purity([0, 0, 1], env, standard_geometry, 0.0) == pytest.approx(0.5)


def test_post_kick_purity_matches_channel(standard_geometry):
    rng = np.random.default_rng(9)
    env = SingleModeThermal(omega=1.4, nbar=0.8)
    for _ in range(20):
        u = rng.normal(size=3)
        u = u / np.linalg.norm(u) * rng.uniform(0, 1)
        t0 = rng.uniform(0, 3)
        ch = dephasing_channel(env, standard_geometry, KickSchedule([t0]))
        assert post_kick_purity(u, env, standard_geometry, t0) == pytest.approx(
            purity(ch(u)), abs=1e-12
        )


def test_post_kick_purity_rejects_displaced(standard_geometry):
    env = SingleModeThermal(omega=1.0, displacement=0.4)
    with pytest.raises(NonEvenEnvironment):
        post_kick_purity([0, 0, 1], env, standard_geometry, 0.0)


def test_entanglement_entropy(vacuum, standard_geometry):
    assert entanglement_entropy([1, 0, 0], vacuum, standard_geometry, 0.0) == 0.0
    val = entanglement_entropy([0, 0, 1], vacuum, standard_geometry, 0.0)
    assert val == pytest.approx(entropy([np.exp(-1), 0, 0]), abs=1e-12)
    env = SingleModeThermal(omega=1.0, nbar=2000.0)
    assert entanglement_entropy([0, 0, 1], env, standard_geometry, 0.0) == pytest.approx(
        np.log(2), abs=1e-6
    )
    with pytest.raises(ValueError, match="is not 1 within 1e-10"):
        entanglement_entropy([0.5, 0, 0], vacuum, standard_geometry, 0.0)


def test_trace_distance_examples():
    assert trace_distance([0, 0, 1], [0, 0, 1]) == 0.0
    assert trace_distance([0, 0, 1], [0, 0, -1]) == 1.0
    assert trace_distance([0.5, 0, 0], [0, 0, 0]) == 0.25


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_unital_contractive():
    env = WhiteKickKernel(0.4)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.7)
    ch = enumerated_channel(env, geom, KickSchedule([0.0, 0.5, 1.3]))
    assert ch.is_unital
    res = fixed_point(ch)
    np.testing.assert_allclose(res.u_f, 0.0, atol=1e-12)


def test_fixed_point_two_kick_nonunital(vacuum, standard_geometry):
    ch = two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7)
    res = fixed_point(ch)
    assert res.residual <= 1e-10
    assert res.converged
    u = np.zeros(3)
    for _ in range(1000):
        u = ch(u)
    np.testing.assert_allclose(u, res.u_f, atol=1e-8)


def test_fixed_point_identity_flagged():
    res = fixed_point(identity_channel())
    assert not res.unique
    assert not res.converged
    np.testing.assert_allclose(res.u_f, 0.0)


def test_fixed_point_inconsistent_raises():
    bad = QubitMap(np.eye(3), [0, 0, 0.2], (), {}, cp=False)  # translation with A = 1
    with pytest.raises(NonContractive):
        fixed_point(bad)


def _echo_channel():
    """A synchronized echo train at vacuum (the benchmark pool's
    ``sweep_sync_n4.0`` at nbar 0): every kick axis is +-r(t_0), so the
    fixed family is the line along r through 0, whose least-norm point is
    0.  The enumeration leaves 1 - A a singular value of 2.7e-16, above
    lstsq's default cutoff (3 eps sigma_max = 2.4e-16), and b of norm 1.1e-15."""
    env = SingleModeThermal(omega=1.9619904022307777)
    geom = InteractionGeometry(
        h=[-0.26034074849679251, 0.23337684224657865, -0.93688737005850675],
        alpha=[-0.7097688145151777, -0.70409603392030107, 0.021840443205702036],
        omega=1.5136031459432457,
    )
    times = [4.2408070358726135, 6.3163792636457119, 10.467523719191909, 12.543095946965007]
    weights = [0.90686288343599364, 0.91781059536068477, 0.59436231361648773, 0.67026759815955372]
    return enumerated_channel(env, geom, KickSchedule(times, weights))


def test_echo_train_has_a_singular_value_between_the_cutoffs():
    """What the xfail below stands on: 1 - A has a singular value below
    fixed_point's 1e-12 test but above lstsq's own cutoff."""
    a = _echo_channel().matrix
    svals = np.linalg.svd(np.eye(3) - a, compute_uv=False)
    assert 3 * np.finfo(float).eps * svals[0] < svals[-1] <= 1e-12
    assert not fixed_point(_echo_channel()).unique


@pytest.mark.xfail(
    strict=True,
    reason="fixed_point's lstsq (rcond=None) inverts a singular value of rounding size; "
    "rcond=1e-12 waits for the benchmark change of ROADMAP item 1, step 0",
)
def test_fixed_point_of_a_non_unique_family_is_not_rounding_noise():
    """A non-unique fixed family reports its least-norm point, here 0, not
    rounding noise: today |u_f| = 0.135.  Once the fix lands this passes,
    and strict xfail turns that into a loud failure, so the mark goes with it."""
    assert np.linalg.norm(fixed_point(_echo_channel()).u_f) <= 1e-12


# ---------------------------------------------------------------------------
# chi eigenvalues


def test_chi_eigenvalues_identity_like():
    np.testing.assert_allclose(chi_eigenvalues_two_kick(1.0, 0.0), [2, 0, 0, 0], atol=1e-14)


def test_chi_eigenvalue_signs():
    lam = chi_eigenvalues_two_kick(0.8, 0.3)
    assert lam[3] < 0
    lam = chi_eigenvalues_two_kick(1.2, 0.0)
    assert lam[3] == pytest.approx(1 - 1.2**2)
    lam = chi_eigenvalues_two_kick(0.9, 0.0)
    assert lam[3] == pytest.approx(0.0, abs=1e-14)


def test_chi_eigenvalues_match_numeric(vacuum, standard_geometry):
    rng = np.random.default_rng(12)
    for _ in range(20):
        geom = random_geometry(rng)
        env = SingleModeThermal(omega=rng.uniform(0.5, 2), nbar=rng.uniform(0, 2))
        t0, t1 = np.sort(rng.uniform(0, 3, size=2))
        try:
            params = two_kick_params(env, geom, t0, t1)
        except Exception:
            continue
        longer = two_kick_closed_form(env, geom, t0, t1)
        shorter = dephasing_channel(env, geom, KickSchedule([t0]))
        theta = transition_map(longer, shorter)
        lam_closed = np.sort(chi_eigenvalues_two_kick(params.h, params.k))
        lam_num = np.sort(np.linalg.eigvalsh(theta.chi))
        np.testing.assert_allclose(lam_closed, lam_num, atol=1e-10)


# ---------------------------------------------------------------------------
# positivity and divisibility


def test_is_cp_examples(vacuum, standard_geometry):
    ch = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0]))
    assert is_cp(ch)
    env = WhiteKickKernel(0.4)
    longer = enumerated_channel(env, standard_geometry, KickSchedule([0.0, 0.9]))
    theta = transition_map(longer, dephasing_channel(env, standard_geometry, KickSchedule([0.0])))
    assert is_cp(theta)
    longer_c = two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7)
    theta_c = transition_map(longer_c, dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0])))
    assert not is_cp(theta_c)


def test_is_positive_identity():
    ident = identity_channel()
    norm, _ = max_image_norm(ident.matrix, ident.shift)
    assert norm <= 1.0 + PSD_TOL


def test_is_positive_witness(vacuum, standard_geometry):
    longer = two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7)
    shorter = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0]))
    theta = transition_map(longer, shorter)
    assert max_image_norm(theta.matrix, theta.shift)[0] > 1.0 + PSD_TOL
    report = divisibility_report(longer, shorter)
    assert not report.p_divisible
    witness = report.witness
    np.testing.assert_allclose(witness, theta.axes[-1], atol=1e-12)
    params = two_kick_params(vacuum, standard_geometry, 0.0, 0.7)
    out = theta(witness)
    assert np.linalg.norm(out) ** 2 == pytest.approx(
        1 + 4 * abs(params.h * params.k) ** 2, abs=1e-12
    )


def test_is_positive_synthetic_h():
    """k = 0: the transition map is diagonal and positive iff |h| <= 1."""
    for h_abs, expect in ((0.7, True), (1.0, True), (1.3, False)):
        tm = QubitMap(np.diag([1.0, h_abs**2, h_abs**2]), np.zeros(3), (), {}, cp=False)
        ok = max_image_norm(tm.matrix, tm.shift)[0] <= 1.0 + PSD_TOL
        assert ok is expect
        assert is_cp(tm) is expect


def test_fibonacci_sphere_on_sphere():
    pts = fibonacci_sphere(500)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_cp_equals_positive_two_kicks():
    rng = np.random.default_rng(13)
    for _ in range(15):
        geom = random_geometry(rng)
        env = SingleModeThermal(omega=rng.uniform(0.5, 2), nbar=rng.uniform(0, 2))
        t0, t1 = np.sort(rng.uniform(0, 3, size=2))
        try:
            longer = two_kick_closed_form(env, geom, t0, t1)
            shorter = dephasing_channel(env, geom, KickSchedule([t0]))
            theta = transition_map(longer, shorter)
        except Exception:
            continue
        cp = is_cp(theta)
        pos = max_image_norm(theta.matrix, theta.shift)[0] <= 1.0 + PSD_TOL
        assert cp == pos
        if cp:
            assert pos  # CP implies P


def test_divisibility_report_two_kick(vacuum, standard_geometry):
    longer = two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7)
    shorter = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0]))
    params = two_kick_params(vacuum, standard_geometry, 0.0, 0.7)
    report = divisibility_report(longer, shorter, closed_form=params)
    assert not report.cp_divisible and not report.p_divisible
    assert report.witness is not None
    assert report.closed_form_params is params
    kv = report.to_kv()
    assert "cp_divisible=false" in kv
    assert "lambda_4=" in kv
    assert "witness=" in kv
    text = report.to_text()
    assert "not CP-divisible" in text


def test_two_kick_divisibility_closed_form(vacuum, standard_geometry):
    params = two_kick_params(vacuum, standard_geometry, 0.0, 0.7)
    report = two_kick_divisibility(params)
    assert not report.cp_divisible
    longer = two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7)
    shorter = dephasing_channel(vacuum, standard_geometry, KickSchedule([0.0]))
    numeric = divisibility_report(longer, shorter)
    np.testing.assert_allclose(
        report.chi_eigenvalues, numeric.chi_eigenvalues, atol=1e-10
    )


def test_report_invariant():
    with pytest.raises(ValueError):
        DivisibilityReport(np.zeros(4), cp_divisible=True, p_divisible=False)


def test_dephasing_divisibility_examples():
    rep = dephasing_divisibility(0.5, 0.5)
    np.testing.assert_allclose(rep.chi_eigenvalues, [2, 0, 0, 0], atol=1e-14)
    assert rep.cp_divisible
    rep = dephasing_divisibility(0.9, 0.5)  # coherence revival
    assert not rep.cp_divisible
    rep = dephasing_divisibility(0.0, 0.5)
    np.testing.assert_allclose(rep.chi_eigenvalues, [1, 1, 0, 0], atol=1e-14)
    assert rep.cp_divisible
    with pytest.raises(SingularChannel):
        dephasing_divisibility(0.5, 0.0)


def test_dephasing_divisibility_matches_assembled(standard_geometry):
    """Closed-form |gamma| comparison equals the CP verdict on the assembled
    transition map for a synchronized schedule."""
    env = SingleModeThermal(omega=2.0, nbar=0.5)
    times = [0.0, np.pi, 2 * np.pi]
    for n, m in [(1, 2), (1, 3), (2, 3)]:
        sched_n = KickSchedule(times[:n])
        sched_m = KickSchedule(times[:m])
        ch_n = dephasing_channel(env, standard_geometry, sched_n)
        ch_m = dephasing_channel(env, standard_geometry, sched_m)
        theta = transition_map(ch_m, ch_n)
        gam_n = dephasing_gamma(env, standard_geometry, sched_n)
        gam_m = dephasing_gamma(env, standard_geometry, sched_m)
        closed = dephasing_divisibility(gam_m, gam_n)
        assert is_cp(theta) == closed.cp_divisible


# ---------------------------------------------------------------------------
# contractivity


def test_contractivity(vacuum, standard_geometry):
    rng = np.random.default_rng(23)
    channels_under_test = [
        dephasing_channel(vacuum, standard_geometry, KickSchedule([0.2])),
        two_kick_closed_form(vacuum, standard_geometry, 0.0, 0.7),
        enumerated_channel(
            SingleModeThermal(omega=1.2, nbar=0.9), random_geometry(rng), random_schedule(rng, 3)
        ),
    ]
    for ch in channels_under_test:
        for _ in range(300):
            u1, u2 = rng.normal(size=(2, 3))
            u1 = u1 / np.linalg.norm(u1) * rng.uniform(0, 1)
            u2 = u2 / np.linalg.norm(u2) * rng.uniform(0, 1)
            assert trace_distance(ch(u1), ch(u2)) <= trace_distance(u1, u2) + 1e-12


def test_monotone_decay_under_cp_divisible(standard_geometry):
    """White-kernel kicks give CP transition maps; distances to a reference
    trajectory must then decrease kick by kick."""
    env = WhiteKickKernel(0.3)
    times = [0.0, 0.5, 1.1, 1.7]
    rng = np.random.default_rng(3)
    u_a = np.array([0.2, -0.6, 0.4])
    u_b = np.array([-0.5, 0.1, 0.6])
    last = trace_distance(u_a, u_b)
    for k in range(1, len(times) + 1):
        ch = enumerated_channel(env, standard_geometry, KickSchedule(times[:k]))
        d = trace_distance(ch(u_a), ch(u_b))
        assert d <= last + 1e-12
        last = d
