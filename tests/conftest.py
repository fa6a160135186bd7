import math
from collections import OrderedDict

import numpy as np
import pytest

from spinkick import InteractionGeometry, KickSchedule, SingleModeThermal


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly-uniform points on the unit sphere, deterministic: the dense
    sampler that exact sphere maxima are checked against."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_rotation(rng) -> np.ndarray:
    """A random rotation R in SO(3)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def rotation_about(axis, angle) -> np.ndarray:
    """The rotation by ``angle`` about the unit ``axis`` (Rodrigues)."""
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_geometry(rng, omega_max: float = 2.5) -> InteractionGeometry:
    return InteractionGeometry(
        h=random_unit(rng), alpha=random_unit(rng), omega=rng.uniform(0.0, omega_max)
    )


def random_schedule(rng, n_kicks: int, t_max: float = 4.0) -> KickSchedule:
    times = np.sort(rng.uniform(0.0, t_max, size=n_kicks))
    while np.any(np.diff(times) < 1e-3):
        times = np.sort(rng.uniform(0.0, t_max, size=n_kicks))
    return KickSchedule(times)


@pytest.fixture
def vacuum():
    return SingleModeThermal(omega=1.0)


@pytest.fixture
def standard_geometry():
    """h along z, coupling along x, unit gap: r(0) = x."""
    return InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)


@pytest.fixture(autouse=True)
def spectra(monkeypatch):
    """The oracle's cache of coupling spectra, empty for every test, so no
    test passes only on spectra held from an earlier one; the process's own
    comes back after it."""
    from spinkick import oracle

    monkeypatch.setattr(oracle, "_SPECTRA", OrderedDict())
    return oracle._SPECTRA
