import numpy as np
import pytest

from spinkick import InteractionGeometry, KickSchedule, NonUnitVector, SpinKickError, is_commuting_schedule, r_of_t
from spinkick.kicks import COMMUTE_TOL, collinear_signs
from spinkick.pauli import cross3
from conftest import random_geometry


def test_r_of_t_examples(standard_geometry):
    np.testing.assert_allclose(r_of_t(standard_geometry, 0.0), [1, 0, 0])
    np.testing.assert_allclose(
        r_of_t(standard_geometry, np.pi / 2), [0, -1, 0], atol=1e-15
    )


def test_parallel_axes_are_static():
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[0, 0, 1], omega=2.0)
    for t in (0.0, 0.4, 3.1):
        np.testing.assert_allclose(r_of_t(geom, t), [0, 0, 1], atol=1e-15)


def test_degenerate_gap_is_static():
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    for t in (0.0, 1.7, -2.0):
        np.testing.assert_allclose(r_of_t(geom, t), [1, 0, 0])


def test_unit_norm_and_periodicity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        h = rng.normal(size=3)
        h /= np.linalg.norm(h)
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        omega = rng.uniform(0.2, 3.0)
        geom = InteractionGeometry(h=h, alpha=a, omega=omega)
        t = rng.uniform(-4, 4)
        r = r_of_t(geom, t)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        np.testing.assert_allclose(r, r_of_t(geom, t + 2 * np.pi / omega), atol=1e-10)


def test_antiperiodicity_perpendicular():
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.3)
    t = 0.37
    np.testing.assert_allclose(
        r_of_t(geom, t + np.pi / 1.3), -r_of_t(geom, t), atol=1e-10
    )


def test_geometry_rejects_non_unit():
    with pytest.raises(NonUnitVector):
        InteractionGeometry(h=[0, 0, 2], alpha=[1, 0, 0], omega=1.0)
    with pytest.raises(NonUnitVector):
        InteractionGeometry(h=[0, 0, 1], alpha=[0.5, 0, 0], omega=1.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        KickSchedule([0.0, 0.0])
    with pytest.raises(ValueError):
        KickSchedule([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="2 times but 1 weights"):
        KickSchedule([0.0, 1.0], [1.0])
    sched = KickSchedule([0.0, 1.0])
    np.testing.assert_allclose(sched.weights, [1.0, 1.0])


def test_commuting_schedule_periodic(standard_geometry):
    sched = KickSchedule([0.0, 2 * np.pi, 4 * np.pi])
    ok, signs = is_commuting_schedule(standard_geometry, sched)
    assert ok
    np.testing.assert_array_equal(signs, [1, 1, 1])


def test_commuting_schedule_alternating(standard_geometry):
    sched = KickSchedule([0.0, np.pi, 2 * np.pi])
    ok, signs = is_commuting_schedule(standard_geometry, sched)
    assert ok
    np.testing.assert_array_equal(signs, [1, -1, 1])


def test_non_commuting_schedule(standard_geometry):
    ok, signs = is_commuting_schedule(standard_geometry, KickSchedule([0.0, 1.0]))
    assert not ok
    assert signs is None


def test_empty_schedule_commutes(standard_geometry):
    ok, signs = is_commuting_schedule(standard_geometry, KickSchedule([]))
    assert ok
    assert len(signs) == 0


@pytest.mark.parametrize("turn, commute", [(0.8, True), (1.2, False)])
def test_axes_commute_within_the_tolerance_of_the_first(turn, commute):
    """The rule is every |r_k x r_0| <= COMMUTE_TOL: axes turned by
    +-0.8 COMMUTE_TOL about the first commute, though the two turned ones
    lie 1.6 COMMUTE_TOL apart, and by +-1.2 COMMUTE_TOL they do not.  The
    signs are those of r_k . r_0, antiparallel axes included."""
    angle = turn * COMMUTE_TOL
    axes = np.array([[1.0, 0.0, 0.0], [np.cos(angle), np.sin(angle), 0.0], [-np.cos(angle), np.sin(angle), 0.0]])
    signs = collinear_signs(axes)
    if commute:
        np.testing.assert_array_equal(signs, [1, 1, -1])
    else:
        assert signs is None


def test_axes_are_judged_until_the_first_that_fails(monkeypatch):
    """One comparison with r_0 per later axis, none after the first that
    fails."""
    from spinkick import kicks

    compared = []

    def counting_cross3(a, b):
        compared.append(1)
        return cross3(a, b)

    monkeypatch.setattr(kicks, "cross3", counting_cross3)
    axes = np.tile([0.0, 0.0, 1.0], (8, 1))
    assert collinear_signs(axes).tolist() == [1] * 8 and len(compared) == 7
    compared.clear()
    axes[3] = [1.0, 0.0, 0.0]
    assert collinear_signs(axes) is None and len(compared) == 3


def test_cached_cross_product_keeps_r_of_t_bits():
    """r(t) with the cached h x alpha equals the formula with the cross
    product taken on every call, bit for bit."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        h, a = rng.normal(size=(2, 3))
        geom = InteractionGeometry(h / np.linalg.norm(h), a / np.linalg.norm(a), rng.uniform(0, 3))
        for t in rng.uniform(-5, 5, size=5):
            ha = float(geom.h @ geom.alpha)
            wt = geom.omega * t
            cross = np.cross(geom.h, geom.alpha)
            direct = ha * geom.h + np.cos(wt) * (geom.alpha - ha * geom.h) - np.sin(wt) * cross
            assert np.array_equal(r_of_t(geom, t), direct)


def test_r_of_t_over_arrays_is_the_scalar_call_bit_for_bit():
    """r(t) of an array of times, shaped (n,) or (W, S), equals the scalar
    call at each time bit for bit: on random geometries, on a zero gap, and
    for |t| up to 1e4.  The exact builders take their axes this way, so
    their rounding does not depend on how many times are asked for together."""
    rng = np.random.default_rng(20)
    geoms = [random_geometry(rng) for _ in range(40)]
    geoms.append(InteractionGeometry(h=[0, 0.6, 0.8], alpha=[1, 0, 0], omega=0.0))
    for geom in geoms:
        times = rng.uniform(-1.0, 1.0, size=(4, 9)) * 10.0 ** rng.uniform(-3.0, 4.0, size=(4, 9))
        grid = r_of_t(geom, times)
        flat = r_of_t(geom, times.reshape(-1))
        assert grid.shape == (4, 9, 3) and flat.shape == (36, 3)
        for t, r_flat, r_grid in zip(times.reshape(-1), flat, grid.reshape(-1, 3)):
            scalar = r_of_t(geom, float(t))
            assert scalar.shape == (3,)
            assert np.array_equal(r_flat, scalar) and np.array_equal(r_grid, scalar)


@pytest.mark.parametrize("axis", ["h", "alpha"])
def test_huge_axis_entry_is_refused_by_its_norm(axis):
    """An entry of 1e300 gives |v| = 1e300, taken without overflow: the
    refusal names the true norm and no numpy warning comes first."""
    vectors = {"h": [0, 0, 1], "alpha": [1, 0, 0]}
    vectors[axis] = [0, 1e300, 0]
    with pytest.raises(NonUnitVector, match=rf"^\|{axis}\| = 1e\+300 is not 1 within 1e-12$"):
        InteractionGeometry(omega=1.0, **vectors)


def test_r_of_t_refuses_an_overflowing_phase():
    """Omega t past float64's range has no cosine: SpinKickError, before
    numpy could warn."""
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1e300)
    np.testing.assert_allclose(r_of_t(geom, [0.0, 0.0]), [[1, 0, 0], [1, 0, 0]])
    with pytest.raises(SpinKickError, match="overflows"):
        r_of_t(geom, [0.0, 1e300])
