import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from spinkick import (
    FockSpec,
    InteractionGeometry,
    KickSchedule,
    NonHermitian,
    NonUnitTrace,
    NonUnitVector,
    SingleModeThermal,
    StepTooCoarse,
    TruncationNotConverged,
    build_n_kick_channel,
    channel_distance,
    commutator_C,
    dephasing_channel,
    entropy,
    fock_spec_for,
    identity_channel,
    nascent_delta_channels,
    oracle_channel,
    single_kick_channel,
    two_kick_closed_form,
)
from spinkick.errors import InvalidMap, InvalidTruncation, SpinKickError, UnknownPulseShape
from spinkick.kicks import r_of_t
from spinkick.oracle import (
    PULSE_SHAPES,
    SPECTRA_BYTES,
    _channels_at_dim,
    _environment_factor,
    _evolve,
    _frozen,
    _level_phases,
    coupling_spectrum,
)
from spinkick.pauli import I2, PAULI, density_to_bloch, dot_sigma
from conftest import random_geometry, random_rotation, random_schedule, random_unit, rotation_about
from reference import annihilation, entanglement_entropy, environment_state, quadrature_heisenberg


def test_quadrature_small():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=2)
    np.testing.assert_allclose(
        quadrature_heisenberg(spec, 0.0),
        np.array([[0, 1], [1, 0]]) / np.sqrt(2),
        atol=1e-15,
    )


def test_quadrature_vacuum_moment():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=30)
    o = quadrature_heisenberg(spec, 1.3)
    assert np.max(np.abs(o - o.conj().T)) < 1e-12
    rho, _ = environment_state(spec)
    second = np.trace(rho @ o @ o).real
    assert second == pytest.approx(0.5, abs=1e-12)


def test_vacuum_covariance_matches_fock():
    """<0| O(t) O(t') |0> computed in the truncated space equals the
    closed-form kernel 0.5 e^{-i w (t - t')}."""
    spec = FockSpec(SingleModeThermal(omega=1.4), dim=30)
    env = SingleModeThermal(omega=1.4)
    rho, _ = environment_state(spec)
    rng = np.random.default_rng(6)
    for t, tp in rng.uniform(0, 4, size=(10, 2)):
        o1 = quadrature_heisenberg(spec, t)
        o2 = quadrature_heisenberg(spec, tp)
        fock_val = complex(np.trace(rho @ o1 @ o2))
        assert fock_val == pytest.approx(env.covariance(t, tp), abs=1e-12)
    # pinned value: the kernel at (0, pi/2) for unit frequency is +0.5i
    unit = FockSpec(SingleModeThermal(omega=1.0), dim=30)
    rho0, _ = environment_state(unit)
    val = complex(
        np.trace(rho0 @ quadrature_heisenberg(unit, 0.0) @ quadrature_heisenberg(unit, np.pi / 2))
    )
    assert val == pytest.approx(0.5j, abs=1e-12)


def test_quadrature_commutator_matches_kernel():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    env = SingleModeThermal(omega=1.0)
    t, tp = 0.0, np.pi / 2
    o1 = quadrature_heisenberg(spec, t)
    o2 = quadrature_heisenberg(spec, tp)
    rho, _ = environment_state(spec)
    comm = np.trace(rho @ (o1 @ o2 - o2 @ o1))
    # truncation error affects only the top level; expectation is clean
    assert comm == pytest.approx(commutator_C(env, t, tp), abs=1e-10)


def test_thermal_state_moments():
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=1.5), dim=60)
    rho, tail = environment_state(spec)
    assert tail < 1e-12
    n_op = np.diag(np.arange(60).astype(float))
    assert np.trace(rho @ n_op).real == pytest.approx(1.5, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 33, 300])
def test_vacuum_weights_are_the_ground_state_exactly(dim):
    """The one thermal-weight formula, p proportional to (nbar / (nbar +
    1))^n, gives the vacuum's [1, 0, ..., 0] bit for bit at nbar = 0, with
    no tail."""
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=dim)
    factor, tail = _environment_factor(spec, coupling_spectrum(dim))
    np.testing.assert_array_equal(factor, np.eye(dim)[0])
    assert tail == 0.0


def test_displaced_state_mean_matches_env():
    a0 = 0.6 - 0.4j
    spec = FockSpec(SingleModeThermal(omega=1.3, displacement=a0), dim=40)
    env = SingleModeThermal(omega=1.3, displacement=a0)
    rho, _ = environment_state(spec)
    for t in (0.0, 0.7, 2.1):
        o = quadrature_heisenberg(spec, t)
        assert np.trace(rho @ o).real == pytest.approx(env.mean(t), abs=1e-10)


def _sequence(steps):
    """Steps (t, w, r) as the (times, weights, axes) arrays of one sequence."""
    return tuple(np.array([[step[i] for step in steps]], dtype=float) for i in range(3))


def _joint(spec, spectrum, steps, columns):
    """U (I2 (x) C) rebuilt from the oracle's evolution of steps (t, w, r) as
    (I2 (x) D(t_n) V) Y."""
    y = _evolve(spec, spectrum, _sequence(steps), columns)[0]
    dim, width = columns.shape
    basis = _level_phases(dim, np.exp(1j * spec.env.omega * steps[-1][0]))[:, None] * spectrum[1]
    return np.kron(I2, basis) @ y.transpose(0, 2, 1, 3).reshape(2 * dim, 2 * width)


def test_kick_unitary_properties():
    """One kick step, as the oracle evolves it, is the identity at weight 0,
    block diagonal along z, and unitary."""
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=25)
    spectrum = coupling_spectrum(spec.dim)
    u = _joint(spec, spectrum, [(0.4, 0.0, [0, 0, 1])], np.eye(25))
    np.testing.assert_allclose(u, np.eye(50), atol=1e-14)
    u = _joint(spec, spectrum, [(0.4, 1.3, [0, 0, 1])], np.eye(25))
    np.testing.assert_allclose(u[:25, 25:], 0.0, atol=1e-14)  # block diagonal
    np.testing.assert_allclose(u.conj().T @ u, np.eye(50), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 20, 21, 60, 150, 151])
def test_coupling_spectrum_is_real_and_orthonormal(dim):
    """X = O(0) is real symmetric: its spectrum is float64, V^T V = 1 and
    X V = V Lambda to 1e-13, for X the quadrature at time 0."""
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=dim)
    x = quadrature_heisenberg(spec, 0.0).real
    evals, vecs = coupling_spectrum(dim)
    assert evals.dtype == vecs.dtype == np.float64
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) < 1e-13
    assert np.max(np.abs(x @ vecs - vecs * evals)) < 1e-13


@pytest.mark.parametrize("dim", [2, 3, 20, 21, 150, 151])
def test_coupling_spectrum_is_split_by_parity_exactly(dim):
    """The spectrum comes from the even-to-odd block of X, so its structure
    is exact, bit for bit: the eigenvalues are a 0 for odd d, then +s and -s;
    V's even rows in the -s columns equal those in the +s columns, its odd
    rows there are their negatives, and the zero mode has no odd rows."""
    evals, vecs = coupling_spectrum(dim)
    zero, odd = dim % 2, dim // 2
    plus, minus = slice(zero, zero + odd), slice(zero + odd, dim)
    np.testing.assert_array_equal(evals[:zero], 0.0)
    np.testing.assert_array_equal(evals[minus], -evals[plus])
    assert np.all(evals[plus] > 0)
    np.testing.assert_array_equal(vecs[0::2, minus], vecs[0::2, plus])
    np.testing.assert_array_equal(vecs[1::2, minus], -vecs[1::2, plus])
    np.testing.assert_array_equal(vecs[1::2, :zero], 0.0)


@pytest.mark.parametrize("dim", [2, 3, 20, 21, 60, 150, 151])
def test_displaced_factor_comes_from_the_coupling_spectrum(dim):
    """D(alpha) = e^{i psi N} V e^{-i sqrt2 |alpha| Lambda} V^T e^{-i psi N},
    psi = arg(alpha) + pi/2, taken from the coupling's spectrum, equals
    exp(alpha a^dag - conj(alpha) a) from a direct decomposition of the
    Hermitian generator -i(alpha a^dag - conj(alpha) a), to 1e-13, in every
    quadrant and on both axes; so does the factor's top-level occupation."""
    a = annihilation(dim)
    nbar = 0.6
    p = (nbar / (nbar + 1.0)) ** np.arange(dim)
    p /= p.sum()
    for alpha in (0.7 + 0.4j, -0.5 + 0.9j, -0.8 - 0.3j, 0.2 - 1.1j, 0.9, -0.6, 1.2j, -0.4j):
        spec = FockSpec(SingleModeThermal(omega=1.3, nbar=nbar, displacement=alpha), dim=dim)
        factor, tail = _environment_factor(spec, coupling_spectrum(dim))
        evals, vecs = np.linalg.eigh(-1j * (alpha * a.conj().T - np.conj(alpha) * a))
        direct = ((vecs * np.exp(1j * evals)) @ vecs.conj().T) * np.sqrt(p)
        assert np.max(np.abs(factor - direct)) < 1e-13
        assert tail == pytest.approx(np.sum(np.abs(direct[-1]) ** 2), rel=0, abs=1e-13)


def _direct_step(r, o, weight):
    """The step from its own decomposition of O(t), assembled with kron."""
    evals, vecs = np.linalg.eigh(o)
    u_minus = (vecs * np.exp(-1j * weight * evals)) @ vecs.conj().T
    u_plus = (vecs * np.exp(1j * weight * evals)) @ vecs.conj().T
    s = dot_sigma(r)
    return np.kron((I2 + s) / 2, u_minus) + np.kron((I2 - s) / 2, u_plus)


@pytest.mark.parametrize("dim", [10, 11, 40, 41, 80, 120, 121])
def test_cached_spectrum_step_matches_direct(dim):
    """O(t) = D(t) O(0) D(t)^dag: the step from the time-0 spectrum equals
    the step from a decomposition of O(t) itself."""
    rng = np.random.default_rng(dim)
    omega = 1.7
    spec = FockSpec(SingleModeThermal(omega=omega), dim=dim)
    spectrum = coupling_spectrum(spec.dim)
    for _ in range(6):
        t = rng.uniform(0.0, 50.0) / omega
        w = rng.uniform(0.0, 3.0)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        cached = _joint(spec, spectrum, [(t, w, r)], np.eye(dim))
        direct = _direct_step(r, quadrature_heisenberg(spec, t), w)
        assert np.max(np.abs(cached - direct)) < 1e-12


_AXES = {
    "generic": None,  # a random axis at every step
    "generic_fixed": "random",  # one random axis at every step of a train: a complex frame
    "plus_z": [0.0, 0.0, 1.0],
    "minus_z": [0.0, 0.0, -1.0],
    "near_minus_z": [0.6e-9, 0.8e-9, -np.sqrt(1.0 - 1e-18)],  # 1e-9 from -z
}


@pytest.mark.parametrize("axis", list(_AXES))
@pytest.mark.parametrize("dim", [10, 11, 40, 41, 80, 120, 121])
def test_applied_steps_match_kron_product(dim, axis):
    """The evolution carried in each step's coupling eigenbasis and spin
    frame, as the oracle carries it, equals the product of kron-assembled
    steps; every train but the generic one has one axis, and takes the
    frozen-axis path, in both of its buffer orders (odd and even S)."""
    rng = np.random.default_rng(dim)
    omega = 1.7
    spec = FockSpec(SingleModeThermal(omega=omega), dim=dim)
    spectrum = coupling_spectrum(spec.dim)
    for n_steps in (2, 5, 8):
        steps, direct = [], np.eye(2 * dim, dtype=complex)
        fixed = rng.normal(size=3) if _AXES[axis] == "random" else _AXES[axis]
        for _ in range(n_steps):
            t = rng.uniform(0.0, 50.0) / omega
            w = rng.uniform(0.0, 3.0)
            r = rng.normal(size=3) if fixed is None else np.array(fixed)
            r /= np.linalg.norm(r)
            steps.append((t, w, r))
            direct = _direct_step(r, quadrature_heisenberg(spec, t), w) @ direct
        assert _frozen(_sequence(steps)[2]) == (axis != "generic")
        u = _joint(spec, spectrum, steps, np.eye(dim))
        assert np.max(np.abs(u - direct)) < 1e-13


def _oracle_linalg(monkeypatch, **linalg):
    """Give the oracle a numpy whose np.linalg holds only ``linalg`` (the
    oracle calls np.linalg.svd and nothing else there)."""
    from spinkick import oracle

    class StubNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

    stub = StubNumpy()
    stub.linalg = SimpleNamespace(**linalg)
    monkeypatch.setattr(oracle, "np", stub)


def test_non_orthonormal_eigenbasis_fails_unitarity(spectra, monkeypatch):
    """V is checked where it is made: an SVD whose U is off by 1.001 makes
    coupling_spectrum refuse V^T V = 1 (1e-10), called directly or by a
    build, and nothing is cached."""

    def skewed(matrix, *args, **kwargs):
        u, s, wt = np.linalg.svd(matrix, *args, **kwargs)
        return 1.001 * u, s, wt

    _oracle_linalg(monkeypatch, svd=skewed)
    with pytest.raises(InvalidMap, match="unitarity"):
        coupling_spectrum(20)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(InvalidMap, match="unitarity"):
        _channels_at_dim(spec, _sequence([(0.0, 0.5, [0, 0, 1])]), (), [{}])
    assert not spectra


def test_non_unit_kick_axis_rejected():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    spectrum = coupling_spectrum(spec.dim)
    with pytest.raises(NonUnitVector):
        _evolve(spec, spectrum, _sequence([(0.0, 0.5, [0.0, 0.0, 1.001])]), np.eye(20))


def _kron_readout(u, rho_env):
    """Bloch vectors of the four probe outputs by explicit joint states."""
    dim = rho_env.shape[0]
    blochs = []
    for rho_q in [I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI]:
        joint = u @ np.kron(rho_q, rho_env) @ u.conj().T
        blochs.append(density_to_bloch(np.einsum("injn->ij", joint.reshape(2, dim, 2, dim))))
    return blochs


def _assert_is_kron_readout(spec, steps, ch):
    """The channel ch at spec.dim against explicit joint states of the
    product of kron-assembled steps (t, w, r), partial-traced."""
    u = np.eye(2 * spec.dim, dtype=complex)
    for t, w, r in steps:
        u = _direct_step(r, quadrature_heisenberg(spec, t), w) @ u
    rho_env, _ = environment_state(spec)
    b, *cols = _kron_readout(u, rho_env)
    np.testing.assert_allclose(ch.shift, b, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ch.matrix, np.column_stack([c - b for c in cols]), rtol=0, atol=1e-13)


def _assert_channel_is_kron_readout(spec, steps):
    """The oracle's channel at spec.dim, read from the evolved square root of
    the environment state, against the kron product's partial trace; the
    channel is returned."""
    (ch,) = _channels_at_dim(spec, _sequence(steps), (), [{}])
    _assert_is_kron_readout(spec, steps, ch)
    return ch


@pytest.mark.parametrize(
    "defect, error",
    [("scale", NonUnitTrace), ("block", NonUnitTrace), ("nan", NonHermitian)],
)
def test_readout_refuses_a_map_that_breaks_trace_or_hermiticity(defect, error, standard_geometry, monkeypatch):
    """The one Pauli readout S keeps the checks the probe states made: an
    evolution scaled by 1.01, or with one spin block times 1j, does not
    preserve the trace (S[0] off (1, 0, 0, 0)); a NaN fails the
    Hermiticity check (max |Im S| <= 1e-8).  The environment is displaced:
    on an even one, parity makes the blocks' cross terms vanish, and a
    phase on one block keeps the trace."""
    from spinkick import oracle

    def broken(*args, **kwargs):
        y = _evolve(*args, **kwargs)
        if defect == "scale":
            y *= 1.01
        elif defect == "block":
            y[:, 0, 0] *= 1j
        else:
            y[0, 0, 0, 0, 0] = np.nan
        return y

    monkeypatch.setattr(oracle, "_evolve", broken)
    with pytest.raises(error):
        env = SingleModeThermal(omega=1.0, nbar=0.3, displacement=0.4 + 0.2j)
        oracle_channel(fock_spec_for(env), standard_geometry, KickSchedule([0.0, 0.7]))


def test_block_readout_matches_kron_partial_trace(standard_geometry):
    env = SingleModeThermal(omega=1.1, nbar=0.7, displacement=0.4 - 0.3j)
    steps = [(t, w, r_of_t(standard_geometry, t)) for t, w in [(0.0, 0.8), (0.9, 1.3), (2.2, 0.6)]]
    _assert_channel_is_kron_readout(FockSpec(env, dim=40), steps)


@pytest.mark.parametrize(
    "dim, frozen",
    [
        pytest.param(dim, frozen, id=f"{dim}-frozen" if frozen else str(dim))
        for frozen in (False, True)
        for dim in (10, 11, 40, 41, 80, 120, 121)
    ],
)
def test_channel_matches_kron_partial_trace_at_fixed_dim(dim, frozen):
    """At a fixed truncation, on a displaced thermal state and a train of
    random axes, or of one random axis (the frozen-axis path, 2 spin
    blocks), the channel is the partial trace of the kron product."""
    rng = np.random.default_rng(dim)
    env = SingleModeThermal(omega=1.3, nbar=0.9, displacement=0.5 + 0.2j)
    steps, fixed = [], random_unit(rng) if frozen else None
    for t in np.sort(rng.uniform(0.0, 6.0, size=5)):
        r = rng.normal(size=3)
        steps.append((t, rng.uniform(0.2, 2.0), fixed if frozen else r / np.linalg.norm(r)))
    ch = _assert_channel_is_kron_readout(FockSpec(env, dim=dim), steps)
    assert ch.meta["spin_blocks"] == (2 if frozen else 4)


_GEOMETRIES = {
    "precessing": InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0),
    "frozen": InteractionGeometry(h=[0, 0.8, 0.6], alpha=[0.36, 0.48, 0.8], omega=0.0),  # a complex frame
}


@pytest.mark.parametrize(
    "shape, geometry",
    [
        pytest.param(shape, geometry, id=shape if geometry == "precessing" else f"{shape}-frozen")
        for geometry in _GEOMETRIES
        for shape in PULSE_SHAPES
    ],
)
def test_nascent_pulse_grid_matches_kron_product(shape, geometry):
    """The steps inside a pulse share one free-evolution matrix per width,
    and the kick before each step scales its columns; the channel equals the
    kron product of every grid step, with precessing axes (4 spin blocks)
    or a frozen one (2)."""
    geom = _GEOMETRIES[geometry]
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.6, displacement=0.2 + 0.1j), dim=12)
    times, weights, delta, per = [0.3, 1.4], [0.9, 1.3], 0.02, 6
    profile, half = PULSE_SHAPES[shape]
    xs = (np.arange(per) + 0.5) / per * 2.0 * half - half
    vals = profile(xs) / profile(xs).sum()
    steps = [
        (t + delta * x, w * v, r_of_t(geom, t + delta * x))
        for t, w in zip(times, weights)
        for x, v in zip(xs, vals)
    ]
    (ch,) = nascent_delta_channels(spec, geom, KickSchedule(times, weights), [delta], steps_per_kick=per, shape=shape)
    _assert_is_kron_readout(spec, steps, ch)
    assert ch.meta["spin_blocks"] == (2 if geometry == "frozen" else 4)


@pytest.mark.parametrize("shape", list(PULSE_SHAPES))
@pytest.mark.parametrize("gap", [0.0, 1.3])
def test_batched_widths_match_single_width_builds(shape, gap, spectra):
    """All widths evolved together give each width the channel of its own
    W = 1 build, to 1e-13, with frozen or precessing axes; only the build's
    stated bytes differ, and the eigendecompositions it made: the batched
    build makes the one SVD, and the single-width builds after it find the
    spectrum held."""
    geom = InteractionGeometry(h=[0, 0.8, 0.6], alpha=[1, 0, 0], omega=gap)
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.4, displacement=0.3 - 0.2j), dim=30)
    sched, deltas = KickSchedule([0.0, 1.1, 2.3], [0.8, 0.5, 1.2]), [0.04, 0.02, 0.01, 0.005]
    batched = nascent_delta_channels(spec, geom, sched, deltas, steps_per_kick=16, shape=shape)
    assert len(batched) == len(deltas)
    for delta, ch in zip(deltas, batched):
        single = nascent_delta_channels(spec, geom, sched, [delta], steps_per_kick=16, shape=shape)[0]
        assert {**ch.meta, "bytes": 0, "eigendecompositions": 0} == {**single.meta, "bytes": 0}
        assert ch.meta["kick_steps"] == 48 and ch.meta["eigendecompositions"] == 1
        assert single.meta["eigendecompositions"] == 0
        assert channel_distance(ch, single) < 1e-13


def test_batched_widths_are_all_checked_before_any_is_evolved(standard_geometry, monkeypatch):
    """A width that overlaps the kick gap, or is wide against the fastest
    period, is refused before any width is evolved."""
    from spinkick import oracle

    evolved = []
    monkeypatch.setattr(oracle, "_evolve", lambda *args, **kwargs: evolved.append(args))
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(StepTooCoarse, match="pulse width 1 overlaps kick gap 0.7"):
        nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 0.7]), [0.008, 0.02, 0.1])
    with pytest.raises(StepTooCoarse, match="fastest period"):
        nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0]), [0.01, 0.5])
    assert evolved == []


def _traced_peak(build, before=lambda: None):
    """The build's result and its traced peak, after a warm-up build and
    then ``before``."""
    build()  # warm caches and imports
    before()
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_oracle_build_peak_memory_is_its_stated_bytes(spectra):
    """One build's evolution holds the result and a step buffer (128 d^2;
    on the frozen-axis path, 2 spin blocks, the result and a half-size
    step buffer, 96 d^2), the kick phases of its S steps on both spins
    (32 S d), the phases P_k of its S - 1 gaps (16 d each) and numpy's
    iteration buffer (16 bytes an entry of the state, 4 d^2 entries, or
    2 d^2 frozen, at most np.getbufsize()); its readout holds Y and its
    conjugate (128 d^2), which the frozen path reaches first at d = 100.
    The larger of the two, V when the build makes it (8 d^2) and S (its
    diagonal, 8 d, or 16 d^2 displaced) are meta["bytes"], and the traced
    peak is that and little more, both cold (no spectrum held, so the
    build makes V) and warm (V held), on a precessing and a frozen axis."""
    for geometry, blocks in (("precessing", 4), ("frozen", 2)):
        buffer = 16 * min(np.getbufsize(), blocks * 100**2)
        evolution = (64 + 16 * blocks) * 100**2 + 32 * 4 * 100 + 16 * 3 * 100 + buffer
        steps = _sequence([(t, 1.0, r_of_t(_GEOMETRIES[geometry], t)) for t in (0.0, 0.7, 1.9, 2.4)])
        for displacement, s_bytes in ((0.0, 8 * 100), (0.3 - 0.4j, 16 * 100**2)):
            spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5, displacement=displacement), dim=100)
            for before, v_bytes in ((spectra.clear, 8 * 100**2), (lambda: None, 0)):
                (ch,), peak = _traced_peak(lambda: _channels_at_dim(spec, steps, (), [{}]), before)
                assert ch.meta["spin_blocks"] == blocks
                assert ch.meta["bytes"] == max(evolution, 128 * 100**2) + v_bytes + s_bytes
                assert ch.meta["eigendecompositions"] == (v_bytes > 0)
                assert 1.0 <= peak / ch.meta["bytes"] <= 1.25


def test_batched_nascent_peak_memory_is_its_stated_bytes(spectra):
    """W = 4 widths evolved together hold, per width, the result, its step
    buffer (half-size on the frozen-axis path), the pulse grid's G and G B_k
    for both output spins (176 W d^2 in all, 144 W d^2 frozen), then V once
    (8 d^2, made: no spectrum is held), S's diagonal (8 d), the kick phases
    on both spins (32 W S d), the phases P_k of the one gap between the
    pulses (16 W d) and numpy's iteration buffer (4 W d^2 entries, 2 W d^2
    frozen): meta["bytes"] is their sum, more than the readout's 128 W d^2,
    and the traced peak is that and little more, on a precessing and a
    frozen axis."""
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5), dim=60)
    deltas = [0.04, 0.02, 0.01, 0.005]
    for geometry, blocks in (("precessing", 4), ("frozen", 2)):
        chans, peak = _traced_peak(
            lambda: nascent_delta_channels(
                spec, _GEOMETRIES[geometry], KickSchedule([0.0, 1.5]), deltas, steps_per_kick=12
            ),
            spectra.clear,
        )
        buffer = 16 * min(np.getbufsize(), blocks * 4 * 60**2)
        stated = ((112 + 16 * blocks) * 4 + 8) * 60**2 + 8 * 60 + 32 * 4 * 24 * 60 + 16 * 4 * 60 + buffer
        assert [(ch.meta["bytes"], ch.meta["spin_blocks"]) for ch in chans] == [(stated, blocks)] * 4
        assert 1.0 <= peak / chans[0].meta["bytes"] <= 1.25


@pytest.mark.parametrize("geometry", list(_GEOMETRIES))
def test_every_map_records_its_spin_blocks(geometry):
    """Every oracle map records the spin blocks its evolution carried: 2 on
    the frozen-axis path, 4 on a precessing train, through oracle_channel's
    search and for every nascent width."""
    geom, blocks = _GEOMETRIES[geometry], 2 if geometry == "frozen" else 4
    env = SingleModeThermal(omega=1.0, nbar=0.3)
    sched = KickSchedule([0.0, 0.7, 1.9])
    orc = oracle_channel(fock_spec_for(env), geom, sched)
    assert orc.meta["history"] and orc.meta["spin_blocks"] == blocks
    chans = nascent_delta_channels(FockSpec(env, dim=20), geom, sched, [0.02, 0.01], steps_per_kick=12)
    assert [ch.meta["spin_blocks"] for ch in chans] == [blocks] * 2


def test_axes_a_billionth_apart_take_the_four_block_path():
    """The frozen-axis test is exact equality: a train whose axis moves by
    1e-9 between steps is evolved in 4 spin blocks, and its one-axis twin in
    2; each is the partial trace of its kron product."""
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.4, displacement=0.3 + 0.1j), dim=21)
    base = np.array([0.36, 0.48, 0.8])
    moved = base + 1e-9 * np.array([0.8, -0.6, 0.0])  # perpendicular to base
    moved /= np.linalg.norm(moved)
    times, weights = [0.0, 0.6, 1.5, 2.1], [0.9, 1.2, 0.7, 1.1]
    for axes, blocks in (([base, moved, base, moved], 4), ([base] * 4, 2)):
        ch = _assert_channel_is_kron_readout(spec, list(zip(times, weights, axes)))
        assert ch.meta["spin_blocks"] == blocks


@pytest.mark.parametrize("displacement", [0.0, 0.3 - 0.2j])
@pytest.mark.parametrize("dim", [2, 3, 20, 61])
def test_the_frozen_path_states_no_more_bytes(dim, displacement, spectra):
    """At the same d and W, a frozen-axis build states no more bytes than a
    precessing one, as a kick train and as 4 pulse widths (every build from
    the spectrum made first, so none counts V)."""
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5, displacement=displacement), dim=dim)
    coupling_spectrum(dim)
    sched = KickSchedule([0.0, 0.7, 1.9], [0.8, 1.1, 0.6])
    stated = {}
    for geometry, geom in _GEOMETRIES.items():
        steps = (sched.times[None], sched.weights[None], r_of_t(geom, sched.times[None]))
        kicks = _channels_at_dim(spec, steps, (), [{}])
        pulses = nascent_delta_channels(spec, geom, sched, [0.04, 0.02, 0.01, 0.005], steps_per_kick=12)
        stated[geometry] = [(ch.meta["bytes"], ch.meta["spin_blocks"]) for ch in (*kicks, pulses[0])]
    for (frozen, two), (precessing, four) in zip(stated["frozen"], stated["precessing"]):
        assert (two, four) == (2, 4) and frozen <= precessing


def test_oracle_records_its_work(standard_geometry, spectra):
    """From an empty cache every truncation tried makes its eigendecomposition;
    the same search again finds every spectrum held and makes none, with the
    same steps."""
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    sched = KickSchedule([0.0, 0.7, 1.9])
    for made in (True, False):
        orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
        builds = len(orc.meta["history"]) + 1
        assert builds > 1
        assert orc.meta["eigendecompositions"] == (builds if made else 0)
        assert orc.meta["kick_steps"] == 3 * builds
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    for made in (1, 0):
        ch = nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 1.5]), [0.02], steps_per_kick=12)[0]
        assert ch.meta["eigendecompositions"] == made
        assert ch.meta["kick_steps"] == 24


def test_each_build_makes_the_one_decomposition_it_records(standard_geometry, monkeypatch, spectra):
    """np.linalg.svd, counted in the oracle's namespace, runs exactly as
    often as the builds' summed meta["eigendecompositions"] say, and
    np.linalg.eigh never: over a displaced truncation search, and once for
    a displaced nascent command of four widths, whose displacement comes
    from the same spectrum.  From an empty cache that is one SVD per
    truncation; the same search and command again make none, and record
    none."""
    calls = {"svd": [], "eigh": []}

    def counted(name):
        def decomposition(matrix, *args, **kwargs):
            calls[name].append(np.shape(matrix))
            return getattr(np.linalg, name)(matrix, *args, **kwargs)

        return decomposition

    _oracle_linalg(monkeypatch, svd=counted("svd"), eigh=counted("eigh"))
    env = SingleModeThermal(omega=1.2, nbar=0.4, displacement=0.5 - 0.3j)
    frozen = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    for made in (1, 0):
        calls["svd"].clear()
        orc = oracle_channel(fock_spec_for(env), standard_geometry, KickSchedule([0.0, 0.7, 1.9]))
        assert len(orc.meta["history"]) + 1 > 1
        assert len(calls["svd"]) == orc.meta["eigendecompositions"] == made * (len(orc.meta["history"]) + 1)
        calls["svd"].clear()
        chans = nascent_delta_channels(FockSpec(env, dim=30), frozen, KickSchedule([0.0, 1.5]), [0.04, 0.02, 0.01, 0.005])
        assert len(calls["svd"]) == made and all(ch.meta["eigendecompositions"] == made for ch in chans)
    assert calls["eigh"] == []


def test_held_spectra_are_read_only(spectra):
    """The cache hands out the arrays it holds, so a write to them raises."""
    evals, vecs = coupling_spectrum(21)
    assert coupling_spectrum(21)[0] is evals and coupling_spectrum(21)[1] is vecs
    for array in (evals, vecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0


@pytest.mark.parametrize("displacement", [0.0, 0.5 - 0.3j])
def test_warm_build_equals_cold_build(standard_geometry, spectra, displacement):
    """A build from a held spectrum gives the channel of the build that
    made it, bit for bit, in both modes; only the work recorded differs."""
    env = SingleModeThermal(omega=1.2, nbar=0.4, displacement=displacement)
    sched = KickSchedule([0.0, 0.7, 1.9])
    cold = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    warm = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    pulses = [nascent_delta_channels(FockSpec(env, dim=25), standard_geometry, sched, [0.02, 0.01]) for _ in range(2)]
    assert cold.meta["eigendecompositions"] > 0 == warm.meta["eigendecompositions"]
    assert pulses[0][0].meta["eigendecompositions"] == 1 and pulses[1][0].meta["eigendecompositions"] == 0
    for first, again in [(cold, warm), *zip(*pulses)]:
        assert np.array_equal(first.matrix, again.matrix) and np.array_equal(first.shift, again.shift)
        work = {"bytes": 0, "eigendecompositions": 0}
        assert {**first.meta, **work} == {**again.meta, **work}


@pytest.mark.parametrize("mode", ["kicks", "nascent"])
def test_a_refused_truncation_leaves_the_cache_as_it_was(standard_geometry, monkeypatch, spectra, mode):
    """A truncation past any address space (d = 1.2e18, as in the CLI's
    test) is refused by its guard before the spectrum is made: no SVD runs,
    and the held spectra and their order are unchanged."""
    coupling_spectrum(21)
    coupling_spectrum(20)
    held = list(spectra.items())
    svds = []
    _oracle_linalg(monkeypatch, svd=lambda *args, **kwargs: svds.append(args))
    dim = 12 * 10**17
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5), dim=dim)
    with pytest.raises(SpinKickError, match=f"oracle truncation at dim {dim} needs .*, more than could be allocated"):
        if mode == "kicks":
            oracle_channel(spec, standard_geometry, KickSchedule([0.0, 0.7]), max_dim=dim + 10)
        else:
            nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 0.7]), [0.01])
    assert svds == []
    assert list(spectra.items()) == held


def test_held_spectra_stay_within_the_budget(spectra):
    """The held spectra, 8 (d^2 + d) bytes each, never exceed SPECTRA_BYTES
    (8 MiB): the least recently used go first, a dimension asked for again
    counts as used, and a spectrum larger than the budget is made but not
    held.  d = 300, 400, 500 and 600 hold 6.9 MB; 300 again is a hit; 700
    (3.9 MB) then drops 400 and 500, not 300; 1100 (9.7 MB) fits no
    budget."""
    assert SPECTRA_BYTES == 8 * 1024**2
    for dim, after in [
        (300, [300]),
        (400, [300, 400]),
        (500, [300, 400, 500]),
        (600, [300, 400, 500, 600]),
        (300, [400, 500, 600, 300]),
        (700, [600, 300, 700]),
        (1100, [600, 300, 700]),
    ]:
        evals, vecs = coupling_spectrum(dim)
        assert evals.nbytes + vecs.nbytes == 8 * (dim * dim + dim)
        assert list(spectra) == after
        assert sum(array.nbytes for held in spectra.values() for array in held) <= SPECTRA_BYTES


def test_oracle_single_kick_vacuum(vacuum, standard_geometry):
    analytic = single_kick_channel(vacuum, standard_geometry, 0.0)
    orc = oracle_channel(fock_spec_for(vacuum), standard_geometry, KickSchedule([0.0]))
    assert channel_distance(analytic, orc) < 1e-8
    assert orc.meta["tail"] < 1e-12


def test_oracle_two_kick_thermal(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=1.0)
    analytic = two_kick_closed_form(env, standard_geometry, 0.0, 0.7)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, KickSchedule([0.0, 0.7]))
    assert channel_distance(analytic, orc) < 1e-8


def test_oracle_synchronized_dephasing(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    sched = KickSchedule([0.0, np.pi, 2 * np.pi])
    analytic = dephasing_channel(env, standard_geometry, sched)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    assert channel_distance(analytic, orc) < 1e-8


def test_oracle_displaced(standard_geometry):
    env = SingleModeThermal(omega=1.0, displacement=0.5 + 0.3j)
    sched = KickSchedule([0.0, 0.9])
    analytic = build_n_kick_channel(env, standard_geometry, sched)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    assert channel_distance(analytic, orc) < 1e-8


def test_oracle_confirms_echo(standard_geometry):
    """Alternating-sign kicks on a perfectly recorrelated mode cancel.

    With the mode at twice the qubit gap, the kernel at spacing pi/Omega is
    the constant (2 nbar + 1)/2, so the two-kick dephasing coefficient is
    exactly 1: the second kick undoes the first and the channel is the
    identity.  The brute-force evolution confirms it.
    """
    env = SingleModeThermal(omega=2.0, nbar=0.5)
    sched = KickSchedule([0.0, np.pi])
    deph = dephasing_channel(env, standard_geometry, sched)
    assert deph.meta["gamma"] == pytest.approx(1.0, abs=1e-13)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    assert channel_distance(deph, orc) < 1e-8
    assert channel_distance(identity_channel(), orc) < 1e-8


def test_oracle_weighted_kicks(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=0.3)
    sched = KickSchedule([0.0, 0.8], weights=[0.7, 1.4])
    analytic = build_n_kick_channel(env, standard_geometry, sched)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    assert channel_distance(analytic, orc) < 1e-8


def test_oracle_entanglement_entropy(vacuum, standard_geometry):
    """Reduced-state entropy from the oracle equals the closed form."""
    u0 = np.array([0.0, 0.0, 1.0])  # perpendicular to r(0) = x
    orc = oracle_channel(fock_spec_for(vacuum), standard_geometry, KickSchedule([0.0]))
    s_oracle = entropy(orc(u0))
    s_closed = entanglement_entropy(u0, vacuum, standard_geometry, 0.0)
    assert s_oracle == pytest.approx(s_closed, abs=1e-8)


def test_oracle_truncation_budget(vacuum, standard_geometry):
    with pytest.raises(TruncationNotConverged):
        oracle_channel(
            FockSpec(vacuum, dim=3), standard_geometry, KickSchedule([0.0]), max_dim=3
        )


@pytest.mark.parametrize("dim", [400, 295, 60000])
def test_oracle_refuses_a_start_past_max_dim_before_building(dim, vacuum, standard_geometry, monkeypatch):
    """A starting truncation with no finer one up to max_dim is refused at
    once: no truncation is built (at dim 60000 one would need 750 GB)."""
    from spinkick import oracle

    builds = []
    monkeypatch.setattr(oracle, "_channels_at_dim", lambda spec, *args: builds.append(spec.dim))
    with pytest.raises(TruncationNotConverged, match="no stable channel up to dim 300"):
        oracle_channel(FockSpec(vacuum, dim=dim), standard_geometry, KickSchedule([0.0, 0.7]), max_dim=300)
    assert builds == []


def test_oracle_raises_after_an_unstable_ladder(standard_geometry, monkeypatch):
    """At nbar 2 the truncations 20, 30 and 40 still differ by more than the
    stability tolerance: each is built once, and the search then gives up at
    max_dim."""
    from spinkick import oracle

    builds, build = [], oracle._channels_at_dim

    def counting(spec, *args):
        builds.append(spec.dim)
        return build(spec, *args)

    monkeypatch.setattr(oracle, "_channels_at_dim", counting)
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=2.0), dim=20)
    with pytest.raises(TruncationNotConverged, match="no stable channel up to dim 40"):
        oracle_channel(spec, standard_geometry, KickSchedule([0.0, 0.7]), max_dim=40)
    assert builds == [20, 30, 40]


def test_oracle_random_matrix(standard_geometry):
    rng = np.random.default_rng(42)
    geom = random_geometry(rng)
    env = SingleModeThermal(omega=1.2, nbar=0.5)
    sched = random_schedule(rng, 3)
    analytic = build_n_kick_channel(env, geom, sched)
    orc = oracle_channel(fock_spec_for(env), geom, sched)
    assert channel_distance(analytic, orc) < 1e-8


# ---------------------------------------------------------------------------
# exact symmetries at a fixed truncation


def _onto(h, e) -> np.ndarray:
    """The rotation taking the unit h onto the unit e about their normal."""
    normal = np.cross(h, e)
    return rotation_about(normal / np.linalg.norm(normal), np.arccos(np.clip(h @ e, -1.0, 1.0)))


def _symmetry_channels(spec, geom, times, weights):
    """The kick train's channel from ``_channels_at_dim`` at spec.dim, then
    the channels of two pulse widths in its place from
    ``nascent_delta_channels``."""
    times, weights = np.asarray(times), np.asarray(weights)
    steps = (times[None], weights[None], r_of_t(geom, times[None]))
    pulses = nascent_delta_channels(spec, geom, KickSchedule(times, weights), [0.02, 0.01], steps_per_kick=12)
    return [*_channels_at_dim(spec, steps, (), [{}]), *pulses]


def _assert_rotated(chans, turned, rot):
    """Each channel of ``turned`` is (R A R^T, R b) of its own in ``chans``,
    to a fixed 1e-12, on the same path."""
    for ch, other in zip(chans, turned, strict=True):
        assert other.meta["spin_blocks"] == ch.meta["spin_blocks"]
        np.testing.assert_allclose(other.matrix, rot @ ch.matrix @ rot.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(other.shift, rot @ ch.shift, rtol=0, atol=1e-12)


def _symmetry_train(rng, n_kicks):
    """Kick times 0.4-0.9 apart and weights 0.3-0.8."""
    return np.cumsum(rng.uniform(0.4, 0.9, size=n_kicks)), rng.uniform(0.3, 0.8, size=n_kicks)


@pytest.mark.parametrize("displacement", [0.0, 0.4 - 0.3j])
@pytest.mark.parametrize("gap", [0.0, 1.3])
def test_rotating_the_geometry_rotates_the_channel(gap, displacement):
    """Rotating h and alpha by R in SO(3) maps every oracle channel (A, b) to
    (R A R^T, R b): the spin frames turn with the axes, and the environment
    does not see them.  At d = 24, for a 9-kick train and two pulse widths
    in its place, with a frozen axis (gap 0) or a precessing one, on an even
    and on a displaced state; R is random, or takes h onto a coordinate
    axis, which is then given exactly, since special cases live there."""
    rng = np.random.default_rng(11)
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.4, displacement=displacement), dim=24)
    h, alpha = random_unit(rng), random_unit(rng)
    times, weights = _symmetry_train(rng, 9)
    chans = _symmetry_channels(spec, InteractionGeometry(h=h, alpha=alpha, omega=gap), times, weights)
    assert {ch.meta["spin_blocks"] for ch in chans} == {2 if gap == 0 else 4}
    rotations = [(rot, rot @ h) for rot in (random_rotation(rng), random_rotation(rng))]
    rotations += [(_onto(h, e), e) for e in np.eye(3)]
    for rot, turned_h in rotations:
        turned = InteractionGeometry(h=turned_h, alpha=rot @ alpha, omega=gap)
        _assert_rotated(chans, _symmetry_channels(spec, turned, times, weights), rot)


@pytest.mark.parametrize("gap", [0.0, 1.3])
def test_shifting_the_times_rotates_the_channel_about_h(gap):
    """On an undisplaced mode, whose state commutes with the free
    evolution, shifting every kick time by tau equals rotating about h by
    -Omega tau: (A, b) goes to (R A R^T, R b), R = R_h(-Omega tau), for a
    9-kick train and two pulse widths in its place, precessing or frozen
    (R = 1)."""
    rng = np.random.default_rng(12)
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.4), dim=24)
    geom = InteractionGeometry(h=random_unit(rng), alpha=random_unit(rng), omega=gap)
    times, weights = _symmetry_train(rng, 9)
    chans = _symmetry_channels(spec, geom, times, weights)
    for tau in (0.37, 2.9, -1.6):
        shifted = _symmetry_channels(spec, geom, times + tau, weights)
        _assert_rotated(chans, shifted, rotation_about(geom.h, -gap * tau))


# ---------------------------------------------------------------------------
# nascent delta


def test_nascent_converges_monotonically(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    dists = [
        channel_distance(
            analytic, nascent_delta_channels(spec, geom, KickSchedule([1.0]), [dt], steps_per_kick=48)[0]
        )
        for dt in (0.064, 0.032, 0.016, 0.008)
    ]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 1e-4
    # second-order trend: halving delta_t cuts the distance by ~4
    assert dists[-1] < dists[-2] / 2


def test_nascent_with_precession_still_converges(vacuum, standard_geometry):
    analytic = single_kick_channel(vacuum, standard_geometry, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    dists = [
        channel_distance(
            analytic,
            nascent_delta_channels(spec, standard_geometry, KickSchedule([1.0]), [dt], steps_per_kick=32)[0],
        )
        for dt in (0.08, 0.04, 0.02)
    ]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_domain_errors_are_spinkick_errors(vacuum, standard_geometry):
    """A truncation below two levels and an unknown pulse shape raise
    SpinKickErrors that are also ValueErrors."""
    with pytest.raises(InvalidTruncation, match="dim must be at least 2, got 1") as exc:
        FockSpec(vacuum, dim=1)
    assert isinstance(exc.value, SpinKickError) and isinstance(exc.value, ValueError)
    spec = FockSpec(vacuum, dim=20)
    with pytest.raises(UnknownPulseShape, match="unknown pulse shape 'sawtooth'") as exc:
        nascent_delta_channels(spec, standard_geometry, KickSchedule([1.0]), [0.01], shape="sawtooth")
    assert isinstance(exc.value, SpinKickError) and isinstance(exc.value, ValueError)


def test_nascent_rectangular_shape(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    d = channel_distance(
        analytic,
        nascent_delta_channels(spec, geom, KickSchedule([1.0]), [0.01], steps_per_kick=64, shape="rectangular")[0],
    )
    assert d < 1e-3


def test_nascent_two_kicks(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    analytic = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 1.5]))
    d1 = channel_distance(
        analytic, nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 1.5]), [0.04])[0]
    )
    d2 = channel_distance(
        analytic, nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 1.5]), [0.02])[0]
    )
    assert d2 < d1


def test_nascent_step_too_coarse(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(StepTooCoarse):
        nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 0.3]), [0.05])  # pulses overlap
    with pytest.raises(StepTooCoarse):
        nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0]), [0.5])  # wide vs period


def test_nascent_length_mismatch(standard_geometry):
    """Times and weights of unequal length are refused by the schedule the
    nascent oracle is given (KickSchedule's ValueError), before any pulse is
    evolved."""
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(ValueError, match="2 times but 1 weights"):
        nascent_delta_channels(spec, standard_geometry, KickSchedule([0.0, 1.5], [1.0]), [0.02])


# ---------------------------------------------------------------------------
# channel distance


def test_channel_distance_properties(vacuum, standard_geometry):
    ch = single_kick_channel(vacuum, standard_geometry, 0.0)
    assert channel_distance(ch, ch) == 0.0
    full_dephasing = single_kick_channel(
        SingleModeThermal(omega=1.0, nbar=50_000.0),
        InteractionGeometry(h=[1, 0, 0], alpha=[0, 0, 1], omega=0.0),
        0.0,
    )
    ident = identity_channel()
    assert channel_distance(ident, full_dephasing) == pytest.approx(0.5, abs=1e-12)
    other = single_kick_channel(vacuum, standard_geometry, 0.4)
    assert channel_distance(ch, other) == pytest.approx(
        channel_distance(other, ch), abs=0
    )


def test_annihilation_matrix():
    a = annihilation(3)
    np.testing.assert_allclose(a, [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])


def test_occupation_past_float_range_fits_no_truncation():
    """|displacement|^2 past float64's range is refused by the truncation
    estimate itself, not by an OverflowError."""
    with pytest.raises(TruncationNotConverged, match="no Fock truncation holds"):
        fock_spec_for(SingleModeThermal(omega=1.0, displacement=1e300))


def test_oracle_refuses_an_overflowing_mode_phase():
    """A kick time whose mode phase omega t overflows is refused with
    SpinKickError before the evolution, with no numpy warning first."""
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    spec = FockSpec(SingleModeThermal(omega=1e300), dim=4)
    with pytest.raises(SpinKickError, match="overflows"):
        oracle_channel(spec, geom, KickSchedule([1e10]), max_dim=14)


def test_nascent_refuses_an_overflowing_width_without_a_warning(vacuum, standard_geometry):
    """A pulse width whose extent overflows is too coarse, not a warning."""
    with pytest.raises(StepTooCoarse, match="pulse width inf"):
        nascent_delta_channels(FockSpec(vacuum, dim=4), standard_geometry, KickSchedule([0.0, 1.0]), [1e308])
