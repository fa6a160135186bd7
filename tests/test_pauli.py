import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinkick import (
    AffineBlochMap,
    InteractionGeometry,
    KickSchedule,
    NonHermitian,
    NonUnitTrace,
    NonUnitVector,
    apply_affine,
    bloch_to_density,
    density_to_bloch,
    WhiteKickKernel,
    build_n_kick_channel,
    is_physical_bloch,
    max_image_norm,
    projector,
    transition_map,
)
from spinkick.pauli import I2, PAULI_BASIS, SIGMA_X, SIGMA_Y, SIGMA_Z, OperatorBasis, dot_sigma
from conftest import fibonacci_sphere

bloch_vectors = st.lists(
    st.floats(-1.0, 1.0, allow_nan=False), min_size=3, max_size=3
).map(lambda v: np.array(v) * 0.577)  # keep |u| <= 1


def test_bloch_to_density_examples():
    np.testing.assert_allclose(bloch_to_density([0, 0, 0]), I2 / 2)
    np.testing.assert_allclose(bloch_to_density([0, 0, 1]), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(bloch_to_density([1, 0, 0]), np.full((2, 2), 0.5))


def test_density_to_bloch_examples():
    np.testing.assert_allclose(density_to_bloch(I2 / 2), [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(density_to_bloch(np.diag([1.0, 0.0])), [0, 0, 1])
    rho_y = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    np.testing.assert_allclose(density_to_bloch(rho_y), [0, 1, 0])


def test_density_to_bloch_rejects_bad_input():
    with pytest.raises(NonHermitian):
        density_to_bloch(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NonUnitTrace):
        density_to_bloch(np.diag([1.0, 0.5]))


@given(bloch_vectors)
def test_round_trip(u):
    np.testing.assert_allclose(density_to_bloch(bloch_to_density(u)), u, atol=1e-12)


def test_projector_examples():
    np.testing.assert_allclose(projector([0, 0, 1], +1), np.diag([1.0, 0.0]))
    np.testing.assert_allclose(projector([0, 0, 1], -1), np.diag([0.0, 1.0]))
    np.testing.assert_allclose(projector([1, 0, 0], +1), np.full((2, 2), 0.5))


def test_projector_algebra():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = rng.normal(size=3)
        r /= np.linalg.norm(r)
        p, m = projector(r, +1), projector(r, -1)
        assert np.max(np.abs(p @ p - p)) < 1e-14
        assert np.max(np.abs(p - p.conj().T)) < 1e-14
        assert np.max(np.abs(p @ m)) < 1e-14
        np.testing.assert_allclose(p + m, I2, atol=1e-15)


def test_projector_rejects_non_unit():
    with pytest.raises(NonUnitVector):
        projector([0, 0, 1.001], +1)


def test_apply_affine_examples():
    ident = AffineBlochMap(np.eye(3), np.zeros(3))
    np.testing.assert_allclose(apply_affine(ident, [0.3, 0, 0]), [0.3, 0, 0])
    const = AffineBlochMap(np.zeros((3, 3)), [0, 0, 0.5])
    np.testing.assert_allclose(apply_affine(const, [0.9, -0.2, 0.1]), [0, 0, 0.5])
    damp = AffineBlochMap(np.diag([np.exp(-1), np.exp(-1), 1.0]), np.zeros(3))
    np.testing.assert_allclose(apply_affine(damp, [1, 0, 0]), [np.exp(-1), 0, 0])


@given(bloch_vectors)
def test_affine_outputs_unit_trace(u):
    m = AffineBlochMap(0.3 * np.eye(3), [0.1, 0.0, -0.2])
    rho = bloch_to_density(apply_affine(m, u))
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_is_physical_bloch():
    assert is_physical_bloch([0, 0, 1])
    assert not is_physical_bloch([0, 0, 1.1])


def test_pauli_basis_orthonormal():
    b = PAULI_BASIS
    gram = np.einsum("byx,ayx->ab", b.ops.conj(), b.ops)
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_operator_basis_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        OperatorBasis(np.stack([I2, I2, SIGMA_X, SIGMA_Y]) / np.sqrt(2))


def test_dot_sigma():
    np.testing.assert_allclose(dot_sigma([1, 0, 0]), SIGMA_X)
    np.testing.assert_allclose(dot_sigma([0, 1, 1]), SIGMA_Y + SIGMA_Z)


# ---------------------------------------------------------------------------
# exact maximum of |A u + b| over the unit sphere

REFERENCE_SPHERE = fibonacci_sphere(20_000)
# A 90-degree rotation about (1, 1, 1): moves every eigenvector off the axes,
# so the eigensolver no longer returns exact zeros for the hard cases.
ROTATION = np.array([[1, 1 - np.sqrt(3), 1 + np.sqrt(3)], [1 + np.sqrt(3), 1, 1 - np.sqrt(3)],
                     [1 - np.sqrt(3), 1 + np.sqrt(3), 1]]) / 3.0


def _assert_attained(m, norm, u):
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(apply_affine(m, u)) - norm) <= 1e-12


def _diag_shifted(h2, beta):
    """A = diag(1, h^2, h^2), b = (0, 0, beta) and its exact maximum."""
    t = h2 * beta / (1.0 - h2 * h2)
    exact = np.sqrt(1.0 + beta**2 + h2 * beta * t) if t <= 1.0 else h2 + beta
    return np.diag([1.0, h2, h2]), np.array([0.0, 0.0, beta]), exact


HARD_CASES = {
    "identity": (np.eye(3), np.zeros(3), 1.0),
    "dephasing": (np.diag([1.0, 0.3, 0.3]), np.zeros(3), 1.0),
    "amplifying_unital": (np.diag([1.0, 1.69, 1.69]), np.zeros(3), 1.69),
    "diag_1_h2_h2": (np.diag([1.0, 0.49, 0.49]), np.zeros(3), 1.0),
    "diag_1_h2_h2_shifted": _diag_shifted(0.49, 0.3),
    "diag_1_h2_h2_past_hard_case": _diag_shifted(0.49, 0.9),
    "constant": (np.zeros((3, 3)), np.array([0.3, -0.4, 0.0]), 0.5),
    "zero": (np.zeros((3, 3)), np.zeros(3), 0.0),
}


@pytest.mark.parametrize("rotate", [False, True], ids=["axes", "rotated"])
@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_max_image_norm_hard_cases(name, rotate):
    a, b, exact = HARD_CASES[name]
    if rotate:
        a, b = ROTATION @ a @ ROTATION.T, ROTATION @ b
    m = AffineBlochMap(a, b)
    norm, u = max_image_norm(m)
    assert norm == pytest.approx(exact, abs=1e-12)
    _assert_attained(m, norm, u)


def test_max_image_norm_white_kick_transition_map():
    """b = 0 up to rounding and a degenerate A^T A: the maximum is the
    largest singular value."""
    env = WhiteKickKernel(0.4)
    geom = InteractionGeometry(h=[0, 0.6, 0.8], alpha=[1, 0, 0], omega=1.3)
    sched = KickSchedule([0.0, 0.5, 1.6])
    theta = transition_map(
        build_n_kick_channel(env, geom, sched), build_n_kick_channel(env, geom, KickSchedule([0.0, 0.5]))
    )
    assert np.linalg.norm(theta.affine.shift) <= 1e-15
    assert np.ptp(np.linalg.svd(theta.affine.matrix, compute_uv=False)[1:]) <= 1e-12
    norm, u = max_image_norm(theta.affine)
    assert norm == pytest.approx(np.linalg.norm(theta.affine.matrix, 2), abs=1e-12)
    _assert_attained(theta.affine, norm, u)


entries = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, min_size=9, max_size=9), st.lists(entries, min_size=3, max_size=3))
@example(np.eye(3).ravel().tolist(), [0.0, 0.0, 0.0])
def test_max_image_norm_bounds_dense_sampling(a, b):
    """The exact maximum is attained and no sample beats it.  The samples are
    unit vectors only to rounding (the identity map reads 1 + 2.2e-16 on
    them), hence the relative 1e-13."""
    m = AffineBlochMap(np.reshape(a, (3, 3)), b)
    norm, u = max_image_norm(m)
    _assert_attained(m, norm, u)
    sampled = np.max(np.linalg.norm(REFERENCE_SPHERE @ m.matrix.T + m.shift, axis=1))
    assert norm >= sampled * (1.0 - 1e-13)
