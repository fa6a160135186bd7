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
from spinkick.errors import InvalidMap, InvalidTruncation, LengthMismatch, SpinKickError, UnknownPulseShape
from spinkick.kicks import r_of_t
from spinkick.oracle import (
    PULSE_SHAPES,
    _channels_at_dim,
    _environment_factor,
    _evolve,
    _level_phases,
    annihilation,
    coupling_spectrum,
    quadrature_heisenberg,
)
from spinkick.pauli import I2, PAULI, density_to_bloch, dot_sigma
from conftest import random_geometry, random_schedule
from reference import entanglement_entropy, environment_state


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
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    u = _joint(spec, spectrum, [(0.4, 0.0, [0, 0, 1])], np.eye(25))
    np.testing.assert_allclose(u, np.eye(50), atol=1e-14)
    u = _joint(spec, spectrum, [(0.4, 1.3, [0, 0, 1])], np.eye(25))
    np.testing.assert_allclose(u[:25, 25:], 0.0, atol=1e-14)  # block diagonal
    np.testing.assert_allclose(u.conj().T @ u, np.eye(50), atol=1e-12)


def test_non_hermitian_coupling_rejected():
    o = quadrature_heisenberg(FockSpec(SingleModeThermal(omega=1.0), dim=25), 0.4)
    with pytest.raises(NonHermitian):
        coupling_spectrum(o + 1e-3j * np.eye(25))


@pytest.mark.parametrize("dim", [2, 20, 60, 150])
def test_coupling_spectrum_is_real_and_orthonormal(dim):
    """X = O(0) is real symmetric: its spectrum is float64, V^T V = 1 and
    X V = V Lambda to 1e-13; a complex Hermitian coupling, which has no real
    eigenbasis, is refused."""
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=dim)
    x = quadrature_heisenberg(spec, 0.0)
    evals, vecs = coupling_spectrum(x)
    assert evals.dtype == vecs.dtype == np.float64
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) < 1e-13
    assert np.max(np.abs(x.real @ vecs - vecs * evals)) < 1e-13
    with pytest.raises(NonHermitian, match="real symmetric"):
        coupling_spectrum(quadrature_heisenberg(spec, 0.4))


@pytest.mark.parametrize("dim", [2, 20, 60, 150])
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
        factor, tail = _environment_factor(spec, coupling_spectrum(quadrature_heisenberg(spec, 0.0)))
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


@pytest.mark.parametrize("dim", [10, 40, 80, 120])
def test_cached_spectrum_step_matches_direct(dim):
    """O(t) = D(t) O(0) D(t)^dag: the step from the time-0 spectrum equals
    the step from a decomposition of O(t) itself."""
    rng = np.random.default_rng(dim)
    omega = 1.7
    spec = FockSpec(SingleModeThermal(omega=omega), dim=dim)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    for _ in range(6):
        t = rng.uniform(0.0, 50.0) / omega
        w = rng.uniform(0.0, 3.0)
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        cached = _joint(spec, spectrum, [(t, w, r)], np.eye(dim))
        direct = _direct_step(r, quadrature_heisenberg(spec, t), w)
        assert np.max(np.abs(cached - direct)) < 1e-12


_AXES = {
    "generic": None,
    "plus_z": [0.0, 0.0, 1.0],
    "minus_z": [0.0, 0.0, -1.0],
    "near_minus_z": [0.6e-9, 0.8e-9, -np.sqrt(1.0 - 1e-18)],  # 1e-9 from -z
}


@pytest.mark.parametrize("axis", list(_AXES))
@pytest.mark.parametrize("dim", [10, 40, 80, 120])
def test_applied_steps_match_kron_product(dim, axis):
    """The evolution carried in each step's coupling eigenbasis and spin
    frame, as the oracle carries it, equals the product of kron-assembled
    steps."""
    rng = np.random.default_rng(dim)
    omega = 1.7
    spec = FockSpec(SingleModeThermal(omega=omega), dim=dim)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    for n_steps in (2, 5, 8):
        steps, direct = [], np.eye(2 * dim, dtype=complex)
        for _ in range(n_steps):
            t = rng.uniform(0.0, 50.0) / omega
            w = rng.uniform(0.0, 3.0)
            r = rng.normal(size=3) if _AXES[axis] is None else np.array(_AXES[axis])
            r /= np.linalg.norm(r)
            steps.append((t, w, r))
            direct = _direct_step(r, quadrature_heisenberg(spec, t), w) @ direct
        u = _joint(spec, spectrum, steps, np.eye(dim))
        assert np.max(np.abs(u - direct)) < 1e-13


def test_non_orthonormal_eigenbasis_fails_unitarity():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    evals, vecs = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    with pytest.raises(InvalidMap, match="unitarity"):
        _evolve(spec, (evals, 1.001 * vecs), _sequence([(0.0, 0.5, [0, 0, 1])]), np.eye(20))


def test_non_unit_kick_axis_rejected():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
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
    the environment state, against the kron product's partial trace."""
    (ch,) = _channels_at_dim(spec, _sequence(steps), (), [{}])
    _assert_is_kron_readout(spec, steps, ch)


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


@pytest.mark.parametrize("dim", [10, 40, 80, 120])
def test_channel_matches_kron_partial_trace_at_fixed_dim(dim):
    """At a fixed truncation, on a displaced thermal state and a train of
    random axes, the channel is the partial trace of the kron product."""
    rng = np.random.default_rng(dim)
    env = SingleModeThermal(omega=1.3, nbar=0.9, displacement=0.5 + 0.2j)
    steps = []
    for t in np.sort(rng.uniform(0.0, 6.0, size=5)):
        r = rng.normal(size=3)
        steps.append((t, rng.uniform(0.2, 2.0), r / np.linalg.norm(r)))
    _assert_channel_is_kron_readout(FockSpec(env, dim=dim), steps)


@pytest.mark.parametrize("shape", list(PULSE_SHAPES))
def test_nascent_pulse_grid_matches_kron_product(shape, standard_geometry):
    """The steps inside a pulse share one free-evolution matrix per width,
    and the kick before each step scales its columns; the channel equals the
    kron product of every grid step, precessing axes included."""
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.6, displacement=0.2 + 0.1j), dim=12)
    times, weights, delta, per = [0.3, 1.4], [0.9, 1.3], 0.02, 6
    profile, half = PULSE_SHAPES[shape]
    xs = (np.arange(per) + 0.5) / per * 2.0 * half - half
    vals = profile(xs) / profile(xs).sum()
    steps = [
        (t + delta * x, w * v, r_of_t(standard_geometry, t + delta * x))
        for t, w in zip(times, weights)
        for x, v in zip(xs, vals)
    ]
    (ch,) = nascent_delta_channels(
        spec, standard_geometry, times, [delta], steps_per_kick=per, shape=shape, weights=weights
    )
    _assert_is_kron_readout(spec, steps, ch)


@pytest.mark.parametrize("shape", list(PULSE_SHAPES))
@pytest.mark.parametrize("gap", [0.0, 1.3])
def test_batched_widths_match_single_width_builds(shape, gap):
    """All widths evolved together give each width the channel of its own
    W = 1 build, to 1e-13, with frozen or precessing axes and a zero weight;
    only the build's stated bytes differ."""
    geom = InteractionGeometry(h=[0, 0.8, 0.6], alpha=[1, 0, 0], omega=gap)
    spec = FockSpec(SingleModeThermal(omega=1.1, nbar=0.4, displacement=0.3 - 0.2j), dim=30)
    times, weights, deltas = [0.0, 1.1, 2.3], [0.8, 0.0, 1.2], [0.04, 0.02, 0.01, 0.005]
    batched = nascent_delta_channels(spec, geom, times, deltas, steps_per_kick=16, shape=shape, weights=weights)
    assert len(batched) == len(deltas)
    for delta, ch in zip(deltas, batched):
        single = nascent_delta_channels(spec, geom, times, [delta], steps_per_kick=16, shape=shape, weights=weights)[0]
        assert {**ch.meta, "bytes": 0} == {**single.meta, "bytes": 0}
        assert ch.meta["kick_steps"] == 32 and ch.meta["eigendecompositions"] == 1
        assert channel_distance(ch, single) < 1e-13


def test_batched_widths_are_all_checked_before_any_is_evolved(standard_geometry, monkeypatch):
    """A width that overlaps the kick gap, or is wide against the fastest
    period, is refused before any width is evolved."""
    from spinkick import oracle

    evolved = []
    monkeypatch.setattr(oracle, "_evolve", lambda *args, **kwargs: evolved.append(args))
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(StepTooCoarse, match="pulse width 1 overlaps kick gap 0.7"):
        nascent_delta_channels(spec, standard_geometry, [0.0, 0.7], [0.008, 0.02, 0.1])
    with pytest.raises(StepTooCoarse, match="fastest period"):
        nascent_delta_channels(spec, standard_geometry, [0.0], [0.01, 0.5])
    assert evolved == []


def _traced_peak(build):
    """The build's result and its traced peak, after a warm-up build."""
    build()  # warm caches and imports
    tracemalloc.start()
    try:
        result = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_oracle_build_peak_memory_is_its_stated_bytes(standard_geometry):
    """One build holds its evolution and a step buffer (128 d^2), V (8 d^2),
    S (its diagonal, 8 d, or 16 d^2 displaced), the kick phases of its S
    steps on both spins (32 S d) and numpy's iteration buffer: meta["bytes"]
    is their sum, and the traced peak is that and little more."""
    buffer = 16 * min(np.getbufsize(), 4 * 100**2)
    steps = _sequence([(t, 1.0, r_of_t(standard_geometry, t)) for t in (0.0, 0.7, 1.9, 2.4)])
    for displacement, s_bytes in ((0.0, 8 * 100), (0.3 - 0.4j, 16 * 100**2)):
        spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5, displacement=displacement), dim=100)
        (ch,), peak = _traced_peak(lambda: _channels_at_dim(spec, steps, (), [{}]))
        assert ch.meta["bytes"] == 136 * 100**2 + s_bytes + 32 * 4 * 100 + buffer
        assert 1.0 <= peak / ch.meta["bytes"] <= 1.25


def test_batched_nascent_peak_memory_is_its_stated_bytes(standard_geometry):
    """W = 4 widths evolved together hold, per width, the evolution, its
    step buffer, the pulse grid's G and G B_k for both output spins
    (176 W d^2 in all), then V once (8 d^2), S's diagonal (8 d), the kick
    phases on both spins (32 W S d) and numpy's iteration buffer:
    meta["bytes"] is their sum, and the traced peak is that and little
    more."""
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.5), dim=60)
    deltas = [0.04, 0.02, 0.01, 0.005]
    chans, peak = _traced_peak(
        lambda: nascent_delta_channels(spec, standard_geometry, [0.0, 1.5], deltas, steps_per_kick=12)
    )
    buffer = 16 * min(np.getbufsize(), 4 * 4 * 60**2)
    assert [ch.meta["bytes"] for ch in chans] == [(176 * 4 + 8) * 60**2 + 8 * 60 + 32 * 4 * 24 * 60 + buffer] * 4
    assert 1.0 <= peak / chans[0].meta["bytes"] <= 1.25


def test_oracle_records_its_work(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    sched = KickSchedule([0.0, 0.7, 1.9])
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    builds = len(orc.meta["history"]) + 1
    assert builds > 1
    assert orc.meta["eigendecompositions"] == builds
    assert orc.meta["kick_steps"] == 3 * builds
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    ch = nascent_delta_channels(spec, standard_geometry, [0.0, 1.5], [0.02], steps_per_kick=12)[0]
    assert ch.meta["eigendecompositions"] == 1
    assert ch.meta["kick_steps"] == 24


def test_each_build_makes_the_one_decomposition_it_records(standard_geometry, monkeypatch):
    """np.linalg.eigh, counted in the oracle's namespace, runs exactly as
    often as the builds' summed meta["eigendecompositions"] say: over a
    displaced truncation search, and once for a displaced nascent command of
    four widths, whose displacement comes from the same spectrum."""
    from spinkick import oracle

    calls = []

    def eigh(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return np.linalg.eigh(matrix, *args, **kwargs)

    class CountingNumpy:
        linalg = SimpleNamespace(eigh=eigh)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(oracle, "np", CountingNumpy())
    env = SingleModeThermal(omega=1.2, nbar=0.4, displacement=0.5 - 0.3j)
    orc = oracle_channel(fock_spec_for(env), standard_geometry, KickSchedule([0.0, 0.7, 1.9]))
    assert len(orc.meta["history"]) + 1 > 1
    assert len(calls) == orc.meta["eigendecompositions"] == len(orc.meta["history"]) + 1
    calls.clear()
    frozen = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    chans = nascent_delta_channels(FockSpec(env, dim=30), frozen, [0.0, 1.5], [0.04, 0.02, 0.01, 0.005])
    assert len(calls) == 1 and all(ch.meta["eigendecompositions"] == 1 for ch in chans)


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


def test_oracle_random_matrix(standard_geometry):
    rng = np.random.default_rng(42)
    geom = random_geometry(rng)
    env = SingleModeThermal(omega=1.2, nbar=0.5)
    sched = random_schedule(rng, 3)
    analytic = build_n_kick_channel(env, geom, sched)
    orc = oracle_channel(fock_spec_for(env), geom, sched)
    assert channel_distance(analytic, orc) < 1e-8


# ---------------------------------------------------------------------------
# nascent delta


def test_nascent_zero_weight_is_identity(standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    ch = nascent_delta_channels(spec, standard_geometry, [1.0], [0.05], weights=[0.0])[0]
    assert channel_distance(ch, identity_channel()) == 0.0


def test_nascent_converges_monotonically(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    dists = [
        channel_distance(
            analytic, nascent_delta_channels(spec, geom, [1.0], [dt], steps_per_kick=48)[0]
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
            nascent_delta_channels(spec, standard_geometry, [1.0], [dt], steps_per_kick=32)[0],
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
        nascent_delta_channels(spec, standard_geometry, [1.0], [0.01], shape="sawtooth")
    assert isinstance(exc.value, SpinKickError) and isinstance(exc.value, ValueError)


def test_nascent_rectangular_shape(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    d = channel_distance(
        analytic,
        nascent_delta_channels(spec, geom, [1.0], [0.01], steps_per_kick=64, shape="rectangular")[0],
    )
    assert d < 1e-3


def test_nascent_two_kicks(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    analytic = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 1.5]))
    d1 = channel_distance(
        analytic, nascent_delta_channels(spec, standard_geometry, [0.0, 1.5], [0.04])[0]
    )
    d2 = channel_distance(
        analytic, nascent_delta_channels(spec, standard_geometry, [0.0, 1.5], [0.02])[0]
    )
    assert d2 < d1


def test_nascent_axes_are_in_time_order(standard_geometry):
    """Kick times given out of order give the channel of the sorted train,
    its kick axes and so its chi basis and chi included."""
    spec = FockSpec(SingleModeThermal(omega=1.0, nbar=0.3), dim=20)
    (ordered,) = nascent_delta_channels(
        spec, standard_geometry, [0.5, 2.0], [0.02], steps_per_kick=8, weights=[0.8, 1.3]
    )
    (swapped,) = nascent_delta_channels(
        spec, standard_geometry, [2.0, 0.5], [0.02], steps_per_kick=8, weights=[1.3, 0.8]
    )
    np.testing.assert_array_equal(np.asarray(swapped.axes), np.asarray(ordered.axes))
    np.testing.assert_allclose(swapped.matrix, ordered.matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(swapped.chi, ordered.chi, rtol=0, atol=1e-14)


def test_nascent_step_too_coarse(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(StepTooCoarse):
        nascent_delta_channels(spec, standard_geometry, [0.0, 0.3], [0.05])  # pulses overlap
    with pytest.raises(StepTooCoarse):
        nascent_delta_channels(spec, standard_geometry, [0.0], [0.5])  # wide vs period


def test_nascent_length_mismatch(standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(LengthMismatch, match="2 kick times but 1 weights"):
        nascent_delta_channels(spec, standard_geometry, [0.0, 1.5], [0.02], weights=[1.0])


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
        nascent_delta_channels(FockSpec(vacuum, dim=4), standard_geometry, [0.0, 1.0], [1e308])
