"""Scalar diagnostics and divisibility analysis.

Purity and entropy of kicked states; fixed points of repeated rounds;
closed-form chi eigenvalues of the two-kick transition map; and
CP/P-divisibility verdicts with explicit witnesses, P judged by the exact
maximum of |A u + b| over pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import PSD_TOL, QubitMap, TwoKickParams, choi_eigenvalues, transition_map
from .errors import NonContractive, SingularChannel
from .pauli import max_image_norm


def purity(u) -> float:
    """(1 + |u|^2) / 2."""
    u = np.asarray(u, dtype=float)
    return 0.5 * (1.0 + float(u @ u))


def _h2(p_up: float, base) -> float:
    """Binary entropy of (p_up, 1 - p_up) with 0 log 0 = 0."""
    total = 0.0
    for p in (p_up, 1.0 - p_up):
        if p > 0.0:
            total -= p * math.log(p)
    if base is not None:
        total /= math.log(base)
    return total


def entropy(u, base=None) -> float:
    """Von Neumann entropy of the state with Bloch vector u.

    Eigenvalues are (1 +- |u|)/2.  Natural log by default; pass base=2 for
    bits.
    """
    r = float(np.linalg.norm(np.asarray(u, dtype=float)))
    return _h2((1.0 + r) / 2.0, base)


def trace_distance(u1, u2) -> float:
    """Trace distance |rho1 - rho2|_1 / 2 = |u1 - u2| / 2 for qubits."""
    d = np.asarray(u1, dtype=float) - np.asarray(u2, dtype=float)
    return 0.5 * float(np.linalg.norm(d))


# ---------------------------------------------------------------------------
# fixed points


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    u_f: np.ndarray
    spectral_radius: float
    converged: bool
    unique: bool = True
    residual: float = 0.0


def fixed_point(round_map) -> FixedPointResult:
    """Fixed point u_f = (1 - A)^{-1} b of one round of kicks.

    When 1 - A has a singular value at most 1e-12, the fixed family is
    flagged non-unique and u_f is ``lstsq``'s solution with numpy's default
    cutoff (rcond=None: 3 eps times the largest singular value); with b
    inconsistent the equation has no solution and NonContractive is raised.
    That cutoff lies far below 1e-12, so a singular value between the two,
    rounding noise on a synchronized echo train, is inverted and u_f is
    noise of any size (|u_f| = 0.135 on the benchmark pool's
    ``sweep_sync_n4.0`` at nbar 0) where the least-norm point of the family
    is 0.  The fix, rcond=1e-12, changes cells the benchmark's references
    pin, so it waits for their rebuild (ROADMAP item 1, step 0).
    converged indicates that iterating the round from any start reaches u_f
    (spectral radius < 1).
    """
    a, b = round_map.matrix, round_map.shift
    spectral_radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    one_minus_a = np.eye(3) - a
    svals = np.linalg.svd(one_minus_a, compute_uv=False)
    if svals[-1] <= 1e-12:
        u_f, *_ = np.linalg.lstsq(one_minus_a, b, rcond=None)
        residual = float(np.linalg.norm(one_minus_a @ u_f - b))
        if residual > 1e-10:
            raise NonContractive(
                f"no fixed point: spectral radius {spectral_radius}, residual {residual:.3e}"
            )
        return FixedPointResult(u_f, spectral_radius, converged=False, unique=False, residual=residual)
    u_f = np.linalg.solve(one_minus_a, b)
    residual = float(np.linalg.norm(a @ u_f + b - u_f))
    return FixedPointResult(u_f, spectral_radius, converged=spectral_radius < 1.0, residual=residual)


# ---------------------------------------------------------------------------
# chi eigenvalues and divisibility


def chi_eigenvalues_two_kick(h: complex, k: complex) -> np.ndarray:
    """Closed-form chi eigenvalues of the two-kick transition map.

    lambda^(1,2) = m +- sqrt(m^2 - |k|^2) with m = (1 + |h|^2 + |k|^2)/2 and
    lambda^(3,4) = p +- sqrt(p^2 + |k|^2) with p = (1 - |h|^2 - |k|^2)/2;
    lambda^(4) < 0 whenever k != 0.
    """
    h2 = abs(h) ** 2
    k2 = abs(k) ** 2
    m = 0.5 * (1.0 + h2 + k2)
    p = 0.5 * (1.0 - h2 - k2)
    s1 = math.sqrt(max(0.0, m * m - k2))
    s2 = math.sqrt(p * p + k2)
    return np.array([m + s1, m - s1, p + s2, p - s2])


def is_cp(m) -> bool:
    """Complete positivity: the Choi matrix is PSD (min eigenvalue >= -PSD_TOL)."""
    return bool(choi_eigenvalues(m)[0] >= -PSD_TOL)


@dataclass(frozen=True, eq=False)
class DivisibilityReport:
    """CP/P verdicts for a transition map, with eigenvalues and witness."""

    chi_eigenvalues: np.ndarray
    cp_divisible: bool
    p_divisible: bool
    witness: np.ndarray | None = None
    closed_form_params: TwoKickParams | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cp_divisible and not self.p_divisible:
            raise ValueError("inconsistent report: CP-divisible but not P-divisible")

    def to_kv(self) -> str:
        lines = [
            f"cp_divisible={str(self.cp_divisible).lower()}",
            f"p_divisible={str(self.p_divisible).lower()}",
        ]
        for i, lam in enumerate(self.chi_eigenvalues, start=1):
            lines.append(f"lambda_{i}={lam:.17g}")
        p = self.closed_form_params
        if p is not None:
            lines += [f"alpha={p.alpha:.17g}", f"g={p.g:.17g}", f"h_abs={abs(p.h):.17g}", f"k_abs={abs(p.k):.17g}"]
        if self.witness is not None:
            lines.append("witness=" + " ".join(f"{x:.17g}" for x in self.witness))
        for key, val in self.meta.items():
            lines.append(f"{key}={val}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        verdict = "CP-divisible (Markovian step)" if self.cp_divisible else "not CP-divisible"
        pos = "positive" if self.p_divisible else "not positive"
        out = [
            "divisibility report",
            f"  transition map is {verdict}; as a Bloch map it is {pos}",
            "  chi eigenvalues: " + ", ".join(f"{v:+.12g}" for v in self.chi_eigenvalues),
        ]
        p = self.closed_form_params
        if p is not None:
            out.append(f"  closed form: alpha={p.alpha:.12g} g={p.g:.12g} |h|={abs(p.h):.12g} |k|={abs(p.k):.12g}")
        if self.witness is not None:
            out.append(
                "  witness state mapped outside the ball: ("
                + ", ".join(f"{x:.12g}" for x in self.witness)
                + ")"
            )
        return "\n".join(out) + "\n"


def divisibility_report(longer: QubitMap, shorter: QubitMap, tol: float = PSD_TOL, closed_form=None) -> DivisibilityReport:
    """Assemble Theta = longer o shorter^{-1}, judge CP and P, and report the TwoKickParams ``closed_form`` if given.

    P (positivity) holds when Theta keeps every pure state in the ball,
    judged exactly by ``max_image_norm``; CP implies P, so a CP step is
    reported positive even when rounding lifts the maximum just past 1 + tol.
    The witness of a non-positive step is the analytic hint, the map's last
    kick axis, when its image leaves the ball, else the maximizer.
    """
    theta = transition_map(longer, shorter)
    eigs = choi_eigenvalues(theta)[::-1]
    cp = bool(eigs.min() >= -tol)
    norm, u = max_image_norm(theta.matrix, theta.shift)
    pos = cp or norm <= 1.0 + tol
    witness = None
    if not pos:
        hint = theta.axes[-1] if len(theta.axes) else None
        hint_leaves = hint is not None and np.linalg.norm(theta(hint)) > 1.0 + tol
        witness = np.array(hint, dtype=float) if hint_leaves else u
    return DivisibilityReport(
        chi_eigenvalues=eigs,
        cp_divisible=cp,
        p_divisible=pos,
        witness=witness,
        closed_form_params=closed_form,
        meta={"longer": theta.meta.get("longer"), "shorter": theta.meta.get("shorter")},
    )


def dephasing_divisibility(gamma_m: complex, gamma_n: complex) -> DivisibilityReport:
    """Verdict for a dephasing process between n and m > n kicks.

    The transition map's chi eigenvalues are (1 +- |gamma_m|/|gamma_n|, 0, 0)
    and the step is CP exactly when |gamma_m| <= |gamma_n| (coherences keep
    shrinking).  gamma_n = 0 has no inverse and raises SingularChannel.
    """
    if gamma_n == 0:
        raise SingularChannel("gamma_n = 0: dephasing channel has no inverse")
    ratio = abs(gamma_m) / abs(gamma_n)
    eigs = np.array([1.0 + ratio, 1.0 - ratio, 0.0, 0.0])
    cp = ratio <= 1.0
    return DivisibilityReport(
        chi_eigenvalues=eigs,
        cp_divisible=cp,
        p_divisible=cp,
        witness=None,
        closed_form_params=None,
        meta={"gamma_ratio": ratio},
    )
