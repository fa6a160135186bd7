import numpy as np
import pytest

from spinkick import (
    FockSpec,
    InteractionGeometry,
    KickSchedule,
    NonHermitian,
    NonUnitVector,
    SingleModeThermal,
    StepTooCoarse,
    TruncationNotConverged,
    build_n_kick_channel,
    channel_distance,
    commutator_C,
    coupling_spectrum,
    dephasing_channel,
    entanglement_entropy,
    entropy,
    fock_spec_for,
    identity_channel,
    kick_unitary,
    nascent_delta_channel,
    oracle_channel,
    quadrature_heisenberg,
    rotated_spectrum,
    single_kick_channel,
    two_kick_closed_form,
)
from spinkick.errors import InvalidMap, LengthMismatch
from spinkick.kicks import r_of_t
from spinkick.oracle import _channel_from_joint_unitary, annihilation, environment_state
from spinkick.pauli import I2, PAULI, PAULI_BASIS, density_to_bloch, dot_sigma
from conftest import random_geometry, random_schedule


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


def test_kick_unitary_properties():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=25)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.4))
    u = kick_unitary([0, 0, 1], spectrum, weight=0.0)
    np.testing.assert_allclose(u, np.eye(50), atol=1e-14)
    u = kick_unitary([0, 0, 1], spectrum, weight=1.3)
    np.testing.assert_allclose(u[:25, 25:], 0.0, atol=1e-14)  # block diagonal
    np.testing.assert_allclose(u.conj().T @ u, np.eye(50), atol=1e-12)


def test_non_hermitian_coupling_rejected():
    o = quadrature_heisenberg(FockSpec(SingleModeThermal(omega=1.0), dim=25), 0.4)
    with pytest.raises(NonHermitian):
        coupling_spectrum(o + 1e-3j * np.eye(25))


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
        cached = kick_unitary(r, rotated_spectrum(spec, spectrum, t), w)
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
    """The running product built step by step in the spin eigenbasis, as
    the oracle builds it (first step direct, later steps applied), equals
    the product of kron-assembled steps."""
    rng = np.random.default_rng(dim)
    omega = 1.7
    spec = FockSpec(SingleModeThermal(omega=omega), dim=dim)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    for n_steps in (2, 5, 8):
        u, direct = None, np.eye(2 * dim, dtype=complex)
        for _ in range(n_steps):
            t = rng.uniform(0.0, 50.0) / omega
            w = rng.uniform(0.0, 3.0)
            r = rng.normal(size=3) if _AXES[axis] is None else np.array(_AXES[axis])
            r /= np.linalg.norm(r)
            u = kick_unitary(r, rotated_spectrum(spec, spectrum, t), w, u)
            direct = _direct_step(r, quadrature_heisenberg(spec, t), w) @ direct
        assert np.max(np.abs(u - direct)) < 1e-13


def test_non_orthonormal_eigenbasis_fails_unitarity():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    evals, vecs = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    with pytest.raises(InvalidMap, match="unitarity"):
        kick_unitary([0, 0, 1], (evals, 1.001 * vecs), weight=0.5)


def test_non_unit_kick_axis_rejected():
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    with pytest.raises(NonUnitVector):
        kick_unitary([0.0, 0.0, 1.001], spectrum, weight=0.5)


def _kron_readout(u, rho_env):
    """Bloch vectors of the four probe outputs by explicit joint states."""
    dim = rho_env.shape[0]
    blochs = []
    for rho_q in [I2 / 2.0] + [(I2 + sig) / 2.0 for sig in PAULI]:
        joint = u @ np.kron(rho_q, rho_env) @ u.conj().T
        blochs.append(density_to_bloch(np.einsum("injn->ij", joint.reshape(2, dim, 2, dim))))
    return blochs


def test_block_readout_matches_kron_partial_trace(standard_geometry):
    env = SingleModeThermal(omega=1.1, nbar=0.7, displacement=0.4 - 0.3j)
    spec = FockSpec(env, dim=40)
    spectrum = coupling_spectrum(quadrature_heisenberg(spec, 0.0))
    u = np.eye(2 * spec.dim, dtype=complex)
    for t, w in [(0.0, 0.8), (0.9, 1.3), (2.2, 0.6)]:
        u = kick_unitary(r_of_t(standard_geometry, t), rotated_spectrum(spec, spectrum, t), w) @ u
    rho_env, _ = environment_state(spec)
    ch = _channel_from_joint_unitary(u, rho_env, PAULI_BASIS, {})
    b, *cols = _kron_readout(u, rho_env)
    np.testing.assert_allclose(ch.affine.shift, b, rtol=0, atol=1e-13)
    np.testing.assert_allclose(ch.affine.matrix, np.column_stack([c - b for c in cols]), rtol=0, atol=1e-13)


def test_oracle_records_its_work(standard_geometry):
    env = SingleModeThermal(omega=1.0, nbar=0.5)
    sched = KickSchedule([0.0, 0.7, 1.9])
    orc = oracle_channel(fock_spec_for(env), standard_geometry, sched)
    builds = len(orc.meta["history"]) + 1
    assert builds > 1
    assert orc.meta["eigendecompositions"] == builds
    assert orc.meta["kick_steps"] == 3 * builds
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    ch = nascent_delta_channel(spec, standard_geometry, [0.0, 1.5], 0.02, steps_per_kick=12)
    assert ch.meta["eigendecompositions"] == 1
    assert ch.meta["kick_steps"] == 24


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
    ch = nascent_delta_channel(spec, standard_geometry, [1.0], 0.05, weights=[0.0])
    assert channel_distance(ch, identity_channel()) == 0.0


def test_nascent_converges_monotonically(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    dists = [
        channel_distance(
            analytic, nascent_delta_channel(spec, geom, [1.0], dt, steps_per_kick=48)
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
            nascent_delta_channel(spec, standard_geometry, [1.0], dt, steps_per_kick=32),
        )
        for dt in (0.08, 0.04, 0.02)
    ]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_nascent_rectangular_shape(vacuum):
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(vacuum, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    d = channel_distance(
        analytic,
        nascent_delta_channel(spec, geom, [1.0], 0.01, steps_per_kick=64, shape="rectangular"),
    )
    assert d < 1e-3


def test_nascent_two_kicks(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    analytic = build_n_kick_channel(vacuum, standard_geometry, KickSchedule([0.0, 1.5]))
    d1 = channel_distance(
        analytic, nascent_delta_channel(spec, standard_geometry, [0.0, 1.5], 0.04)
    )
    d2 = channel_distance(
        analytic, nascent_delta_channel(spec, standard_geometry, [0.0, 1.5], 0.02)
    )
    assert d2 < d1


def test_nascent_step_too_coarse(vacuum, standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(StepTooCoarse):
        nascent_delta_channel(spec, standard_geometry, [0.0, 0.3], 0.05)  # pulses overlap
    with pytest.raises(StepTooCoarse):
        nascent_delta_channel(spec, standard_geometry, [0.0], 0.5)  # wide vs period


def test_nascent_length_mismatch(standard_geometry):
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=20)
    with pytest.raises(LengthMismatch, match="2 kick times but 1 weights"):
        nascent_delta_channel(spec, standard_geometry, [0.0, 1.5], 0.02, weights=[1.0])


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
