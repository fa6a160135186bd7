"""Interaction geometry: precessing coupling axis, kick schedules, and
detection of synchronized (commuting) schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environment import _phase
from .errors import NonUnitVector
from .pauli import cross3

COMMUTE_TOL = 1e-10


def _unit(v, name: str) -> np.ndarray:
    v = np.array(v, dtype=float).reshape(3)
    norm = math.hypot(*v)  # no overflow for finite entries
    if not abs(norm - 1.0) <= 1e-12:  # a NaN is refused too
        raise NonUnitVector(f"|{name}| = {norm} is not 1 within 1e-12")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class InteractionGeometry:
    """Free-Hamiltonian axis h, coupling axis alpha, and qubit gap Omega.

    The free Hamiltonian is Omega h.sigma and the coupling observable is
    alpha.sigma; in the interaction picture the coupling axis precesses
    about h at frequency Omega.  h_cross_alpha = h x alpha is derived once
    here, because r(t) needs it on every call.
    """

    h: np.ndarray
    alpha: np.ndarray
    omega: float
    h_cross_alpha: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h", _unit(self.h, "h"))
        object.__setattr__(self, "alpha", _unit(self.alpha, "alpha"))
        cross = cross3(self.h, self.alpha)
        cross.setflags(write=False)
        object.__setattr__(self, "h_cross_alpha", cross)
        if not 0 <= self.omega < np.inf:
            raise ValueError("omega (qubit gap) must be finite and >= 0")


@dataclass(frozen=True, eq=False)
class KickSchedule:
    """Strictly increasing finite kick times with positive finite per-kick
    weights."""

    times: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        t = np.array(self.times, dtype=float).reshape(-1)
        if not np.isfinite(t).all():
            raise ValueError("kick times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("kick times must be strictly increasing")
        w = (
            np.ones(len(t))
            if self.weights is None
            else np.array(self.weights, dtype=float).reshape(-1)
        )
        if len(w) != len(t):
            raise ValueError(f"{len(t)} times but {len(w)} weights")
        if not np.all((w > 0) & (w < np.inf)):  # a NaN is refused too
            raise ValueError("weights must be positive and finite")
        t.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.times)


def _phases(omega, t) -> np.ndarray:
    """omega t for a time or an array of times, refused by ``_phase`` (with
    SpinKickError) when the largest product overflows float64."""
    t = np.asarray(t, dtype=float)
    _phase(float(omega), max(map(abs, t.ravel().tolist()), default=0.0))
    return omega * t


def r_of_t(geom: InteractionGeometry, t) -> np.ndarray:
    """Interaction-picture coupling axis at time t, or at each of an array
    of times: shape t.shape + (3,).

    r(t) = (h.a)h + cos(Omega t)(a - (h.a)h) - sin(Omega t)(h x a); a rigid
    rotation of alpha about h, so |r(t)| = 1 for all t.
    """
    h, a = geom.h, geom.alpha
    ha = float(h @ a)
    wt = _phases(geom.omega, t)[..., None]
    return ha * h + np.cos(wt) * (a - ha * h) - np.sin(wt) * geom.h_cross_alpha


def collinear_signs(axes) -> np.ndarray | None:
    """The signs f_k = sign(r_k . r_0) of kick axes that commute, else None.

    The axes commute when every |r_k x r_0| <= COMMUTE_TOL, judged in one
    pass left at the first axis that fails; near-commuting axes do not, as
    exactness is preferred over a silent approximation.
    """
    if len(axes) == 0:
        return np.array([], dtype=int)
    r0 = axes[0]
    for r in axes[1:]:
        if np.linalg.norm(cross3(r, r0)) > COMMUTE_TOL:
            return None
    return np.where(axes @ r0 >= 0.0, 1, -1).astype(int)


def is_commuting_schedule(geom: InteractionGeometry, sched: KickSchedule):
    """(True, f) when a schedule's kick axes commute (``collinear_signs``),
    else (False, None): judged from the axes alone, before any Gram matrix."""
    signs = collinear_signs(r_of_t(geom, sched.times))
    return signs is not None, signs
