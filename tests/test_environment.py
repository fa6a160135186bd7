import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinkick import (
    InteractionGeometry,
    KickSchedule,
    LengthMismatch,
    NonUnitVector,
    SingleModeThermal,
    SpinKickError,
    TabulatedKernel,
    TimeNotInTable,
    WhiteKickKernel,
    commutator_C,
    gram_matrix,
)
from spinkick.environment import _TIME_ATOL, format_complex, parse_complex

from reference import gaussian_char

time_sets = st.lists(
    st.floats(-5.0, 5.0, allow_nan=False), min_size=1, max_size=8, unique=True
)


def test_thermal_kernel_values():
    env = SingleModeThermal(omega=1.0)
    assert env.covariance(0.3, 0.3) == pytest.approx(0.5)
    # 0.5 e^{-i w (t - t')} at t=0, t'=pi/2 gives 0.5 e^{i pi/2} = 0.5i
    assert env.covariance(0.0, np.pi / 2) == pytest.approx(0.5j)
    nb = SingleModeThermal(omega=2.0, nbar=1.5)
    assert nb.covariance(1.0, 1.0).real == pytest.approx((2 * 1.5 + 1) / 2)
    assert nb.covariance(1.0, 1.0).imag == 0


def test_thermal_vacuum_kernel_closed_form():
    env = SingleModeThermal(omega=1.7)
    rng = np.random.default_rng(0)
    for t, tp in rng.uniform(-3, 3, size=(20, 2)):
        expected = 0.5 * np.exp(-1j * env.omega * (t - tp))
        assert env.covariance(t, tp) == pytest.approx(expected, abs=1e-12)


def test_beta_to_nbar():
    env = SingleModeThermal(omega=2.0, beta=1.0)
    assert env.nbar == pytest.approx(1.0 / np.expm1(2.0))


def test_beta_past_float_range_is_the_ground_state():
    """beta omega past e^-x's range is nbar = 0, not an overflow, also when
    the product itself overflows; below it the formula still follows
    1/(e^x - 1) to rounding."""
    assert SingleModeThermal(omega=3.0, beta=1e300).nbar == 0.0
    assert SingleModeThermal(omega=1e10, beta=1e300).nbar == 0.0
    assert SingleModeThermal(omega=1.0, beta=700.0).nbar == pytest.approx(1.0 / np.expm1(700.0), rel=1e-15)


def test_beta_whose_product_underflows_is_refused():
    """beta omega = 0 in float64 would be an infinite occupation: refused as
    such, not a division by zero."""
    with pytest.raises(ValueError, match="nbar must be non-negative and finite"):
        SingleModeThermal(omega=0.5, beta=5e-324)


@pytest.mark.parametrize(
    "query",
    [
        lambda: SingleModeThermal(omega=1e300).covariance(np.float64(1e10), np.float64(0.0)),
        lambda: SingleModeThermal(omega=1.0).covariance(np.float64(-1e308), np.float64(1e308)),
        lambda: SingleModeThermal(omega=1e300, displacement=0.5).mean(np.float64(1e300)),
    ],
    ids=["covariance", "time_difference", "mean"],
)
def test_phase_past_float_range_is_refused(query):
    """A phase omega t that overflows float64 has no cosine: SpinKickError,
    with no numpy warning first (warnings are errors under pytest)."""
    with pytest.raises(SpinKickError, match="overflows"):
        query()


def test_white_kernel_takes_far_apart_times():
    """Times of opposite sign near float64's limit are simply distinct."""
    assert WhiteKickKernel(0.3).covariance(np.float64(-1e308), np.float64(1e308)) == 0.0


def test_displaced_mean():
    a0 = 0.7 * np.exp(0.3j)
    env = SingleModeThermal(omega=1.2, displacement=a0)
    assert not env.is_even
    assert env.mean(0.5) == pytest.approx(
        np.sqrt(2) * abs(a0) * np.cos(1.2 * 0.5 - np.angle(a0))
    )
    # displacement does not touch the centered covariance
    even = SingleModeThermal(omega=1.2)
    assert env.covariance(0.4, 1.1) == pytest.approx(even.covariance(0.4, 1.1))


def test_commutator_examples():
    env = SingleModeThermal(omega=1.0)
    assert commutator_C(env, 0.0, np.pi / 2) == pytest.approx(1.0j)
    assert commutator_C(env, 0.7, 0.7) == 0
    # independent of occupation
    hot = SingleModeThermal(omega=1.0, nbar=3.0)
    for t, tp in [(0.1, 0.9), (2.0, 0.4)]:
        assert commutator_C(env, t, tp) == pytest.approx(commutator_C(hot, t, tp))
        assert commutator_C(env, t, tp) == pytest.approx(-commutator_C(env, tp, t))


def test_white_kernel():
    env = WhiteKickKernel(0.3)
    assert env.covariance(1.0, 2.0) == 0
    assert env.covariance(1.0, 1.0) == pytest.approx(0.3)
    assert commutator_C(env, 1.0, 2.0) == 0
    assert env.is_even


def test_gaussian_char_examples():
    env = SingleModeThermal(omega=1.0)
    assert gaussian_char(env, [], []) == 1.0
    assert gaussian_char(env, [0.0], [2.0]) == pytest.approx(np.exp(-1.0))
    white = WhiteKickKernel(0.5)
    assert gaussian_char(white, [0.0, 1.0], [1.0, 1.0]) == pytest.approx(np.exp(-0.5))
    with pytest.raises(LengthMismatch):
        gaussian_char(env, [0.0, 1.0], [1.0])


@settings(max_examples=40, deadline=None)
@given(time_sets, st.floats(0.1, 3.0), st.floats(0.0, 2.0))
def test_gram_psd(times, omega, nbar):
    env = SingleModeThermal(omega=omega, nbar=nbar)
    gram = gram_matrix(env, times, np.ones(len(times)))
    assert np.max(np.abs(gram - gram.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(gram).min() >= -1e-10


@settings(max_examples=40, deadline=None)
@given(
    time_sets,
    st.floats(0.1, 3.0),
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=8, max_size=8),
)
def test_char_bounded(times, omega, coeffs):
    env = SingleModeThermal(omega=omega, nbar=0.7, displacement=0.3 + 0.2j)
    val = gaussian_char(env, times, coeffs[: len(times)])
    assert abs(val) <= 1.0 + 1e-12


def test_tabulated_kernel_roundtrip(tmp_path):
    times = [0.0, 1.0, 2.5]
    means = [0.0, 0.1, -0.2]
    base = SingleModeThermal(omega=1.3, nbar=0.4)
    cov = gram_matrix(base, times, np.ones(len(times)))
    kernel = TabulatedKernel(times, means, cov)
    assert kernel.covariance(1.0, 2.5) == pytest.approx(base.covariance(1.0, 2.5))
    assert kernel.mean(1.0) == pytest.approx(0.1)
    assert not kernel.is_even

    path = tmp_path / "kernel.txt"
    rows = "\n".join(" ".join(format_complex(z) for z in row) for row in cov)
    path.write_text(
        "times:\n" + " ".join(f"{t:.17g}" for t in times) + "\nmean:\n"
        + " ".join(f"{m:.17g}" for m in means) + "\ncovariance:\n" + rows + "\n",
        encoding="utf-8",
    )
    back = TabulatedKernel.from_file(path)
    assert repr(back).startswith("TabulatedKernel(n=3,")
    for t in times:
        assert back.mean(t) == pytest.approx(kernel.mean(t))
        for tp in times:
            assert back.covariance(t, tp) == pytest.approx(kernel.covariance(t, tp), abs=1e-15)


def test_tabulated_kernel_validation():
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [0, 0], [[0.5, 0.9], [0.9, 0.5]])  # not PSD
    with pytest.raises(ValueError):
        TabulatedKernel([0.0, 1.0], [0, 0], [[0.5, 0.1j], [0.1j, 0.5]])  # not Hermitian
    with pytest.raises(ValueError, match="strictly increasing"):
        TabulatedKernel([0.0, np.nan, 1.0], [0, 0, 0], np.eye(3))
    kernel = TabulatedKernel([0.0, 1.0], [0, 0], [[0.5, 0.2], [0.2, 0.5]])
    with pytest.raises(TimeNotInTable):
        kernel.covariance(0.0, 0.5)


def test_tabulated_lookup_is_the_isclose_rule():
    """The bisection in _index finds the index np.isclose (rtol 0, atol
    _TIME_ATOL) finds, the first grid time within the tolerance: on the
    grid, within +-atol/2 of it, at +-atol and just beyond, off it, and on a
    run of grid times closer together than the tolerance; TimeNotInTable
    where there is none."""
    rng = np.random.default_rng(7)
    run = 6.0 + 0.6 * _TIME_ATOL * np.arange(4)
    times = np.concatenate([np.sort(rng.uniform(-5.0, 5.0, 40)), run])
    kernel = TabulatedKernel(times, np.zeros(len(times)), np.eye(len(times)))
    beyond = np.nextafter(times + _TIME_ATOL, np.inf)
    queries = np.concatenate(
        [times, times + 0.5 * _TIME_ATOL, times - 0.5 * _TIME_ATOL, times + _TIME_ATOL, times - _TIME_ATOL,
         beyond, rng.uniform(-6.0, 7.0, 200), [np.inf, -np.inf, np.nan]]
    )
    found = missed = 0
    for t in queries:
        hits = np.nonzero(np.isclose(times, t, rtol=0.0, atol=_TIME_ATOL))[0]
        if len(hits):
            assert kernel._index(t) == hits[0]
            found += 1
        else:
            with pytest.raises(TimeNotInTable):
                kernel._index(t)
            missed += 1
    assert found >= 3 * len(times) and missed > 200


def test_complex_token_format():
    for z in (0.5 - 0.25j, 1.0 + 0j, -2e-3 + 1e-17j):
        assert parse_complex(format_complex(z)) == pytest.approx(z, abs=0)
    assert parse_complex("0.5-0.5i") == 0.5 - 0.5j


def test_overflowing_weights_and_coefficients_are_refused():
    """w_i w_j K or c^T Re(K) c beyond the float range is refused, naming the
    weights or coefficients; inf - inf would otherwise give NaN downstream."""
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    with pytest.raises(SpinKickError, match="weights 1e\\+160 1e\\+160 overflow the Gram matrix"):
        gram_matrix(env, [0.0, 0.7], [1e160, 1e160])
    with pytest.raises(SpinKickError, match="coefficients 2e\\+160 overflow"):
        gaussian_char(env, [0.0], [2e160])
    assert np.isfinite(gram_matrix(env, [0.0, 0.7], [1e150, 1e150])).all()


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: KickSchedule([0.0, NAN]), ValueError, "kick times must be finite"),
        (lambda: KickSchedule([0.0, np.inf]), ValueError, "kick times must be finite"),
        (lambda: KickSchedule([NAN]), ValueError, "kick times must be finite"),
        (lambda: KickSchedule([0.0, 1.0], [1.0, NAN]), ValueError, "weights must be positive and finite"),
        (lambda: KickSchedule([0.0, 1.0], [np.inf, 1.0]), ValueError, "weights must be positive and finite"),
        (lambda: InteractionGeometry([NAN, 0, 1], [1, 0, 0], 1.0), NonUnitVector, "|h| = nan"),
        (lambda: InteractionGeometry([0, 0, 1], [1, 0, NAN], 1.0), NonUnitVector, "|alpha| = nan"),
        (lambda: InteractionGeometry([0, 0, 1], [1, 0, 0], NAN), ValueError, "omega .qubit gap. must be finite"),
        (lambda: SingleModeThermal(omega=NAN), ValueError, "omega must be positive and finite"),
        (lambda: SingleModeThermal(omega=1.0, nbar=NAN), ValueError, "nbar must be non-negative and finite"),
        (lambda: SingleModeThermal(omega=1.0, beta=NAN), ValueError, "beta must be positive and finite"),
        (lambda: SingleModeThermal(omega=1.0, displacement=complex(0.0, NAN)), ValueError, "displacement"),
        (lambda: WhiteKickKernel(NAN), ValueError, "variance must be non-negative and finite"),
        (lambda: TabulatedKernel([0.0, 1.0], [0.0, NAN], np.eye(2)), ValueError, "mean and covariance must be"),
        (lambda: TabulatedKernel([0.0, 1.0], [0.0, 0.0], [[1, NAN], [NAN, 1]]), ValueError, "must be finite"),
        (lambda: TabulatedKernel([NAN], [0.0], [[1.0]]), ValueError, "must be finite"),
    ],
)
def test_model_range_checks_refuse_nan(build, error, message):
    """Every range check of the models is written so that a NaN (or an
    infinite time, weight or parameter) fails it, naming the quantity,
    instead of passing it on to the builders."""
    with pytest.raises(error, match=message):
        build()
