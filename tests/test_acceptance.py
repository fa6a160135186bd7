"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
from spinkick import (
    FockSpec,
    InteractionGeometry,
    KickSchedule,
    SingleModeThermal,
    WhiteKickKernel,
    build_n_kick_channel,
    channel_distance,
    chi_eigenvalues_two_kick,
    compose,
    dephasing_channel,
    dephasing_divisibility,
    dephasing_gamma,
    entropy,
    fixed_point,
    fock_spec_for,
    is_cp,
    max_image_norm,
    nascent_delta_channels,
    oracle_channel,
    single_kick_channel,
    transition_map,
    two_kick_closed_form,
    two_kick_params,
    r_of_t,
)
from spinkick.analysis import PSD_TOL
from spinkick.channels import chi_from_affine
from conftest import random_geometry, random_unit


def _report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {detail}")


def _random_times(rng, n, t_max=4.0, min_gap=0.05):
    while True:
        times = np.sort(rng.uniform(0.0, t_max, size=n))
        if n == 1 or np.min(np.diff(times)) >= min_gap:
            return times


def _random_env(rng, flavor):
    omega = rng.uniform(0.6, 1.8)
    if flavor == "vacuum":
        return SingleModeThermal(omega=omega)
    if flavor == "thermal_low":
        return SingleModeThermal(omega=omega, nbar=0.5)
    if flavor == "thermal_high":
        return SingleModeThermal(omega=omega, nbar=2.0)
    if flavor == "coherent":
        amp = rng.uniform(0.2, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        return SingleModeThermal(omega=omega, displacement=amp)
    raise ValueError(flavor)


def test_criterion_1_oracle_equivalence():
    """Analytic channels match the truncated-Fock oracle to 1e-8."""
    rng = np.random.default_rng(20260808)
    flavors = ["vacuum", "thermal_low", "thermal_high", "coherent"]
    start = time.time()
    count = 0
    worst = 0.0
    for n_kicks in (1, 2, 3, 4):
        for flavor in flavors:
            for _ in range(4 if n_kicks <= 2 else 3):
                env = _random_env(rng, flavor)
                geom = random_geometry(rng)
                sched = KickSchedule(_random_times(rng, n_kicks))
                analytic = build_n_kick_channel(env, geom, sched)
                orc = oracle_channel(fock_spec_for(env), geom, sched)
                dist = channel_distance(analytic, orc)
                assert dist <= 1e-8, (
                    f"oracle disagrees: {dist:.3e} for {flavor}, {n_kicks} kicks"
                )
                worst = max(worst, dist)
                count += 1
    elapsed = time.time() - start
    assert count >= 50
    assert elapsed <= 120.0, f"oracle sweep took {elapsed:.1f}s > 2min"
    _report(1, f"{count} instances, worst distance {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_closed_form_consistency():
    """4^n enumeration vs closed forms, entrywise to 1e-12."""
    rng = np.random.default_rng(31415)
    worst = 0.0
    for i in range(100):
        geom = random_geometry(rng)
        if i % 5 == 0:
            env = WhiteKickKernel(rng.uniform(0.05, 0.8))
        else:
            env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0, 2))
        while True:
            t0, t1 = _random_times(rng, 2)
            if np.linalg.norm(np.cross(r_of_t(geom, t1), r_of_t(geom, t0))) >= 0.05:
                break
        built = build_n_kick_channel(env, geom, KickSchedule([t0, t1]))
        closed = two_kick_closed_form(env, geom, t0, t1)
        for got, want in (
            (built.matrix, closed.matrix),
            (built.shift, closed.shift),
            (built.chi, closed.chi),
        ):
            diff = np.max(np.abs(got - want))
            assert diff <= 1e-12
            worst = max(worst, diff)
    worst0 = 0.0
    for _ in range(100):
        geom = random_geometry(rng)
        env = _random_env(rng, rng.choice(["vacuum", "thermal_low", "coherent"]))
        t0 = rng.uniform(0, 4)
        built = build_n_kick_channel(env, geom, KickSchedule([t0]))
        single = single_kick_channel(env, geom, t0)
        for got, want in (
            (built.matrix, single.matrix),
            (built.shift, single.shift),
            (built.chi, single.chi),
        ):
            diff = np.max(np.abs(got - want))
            assert diff <= 1e-12
            worst0 = max(worst0, diff)
    _report(2, f"two-kick worst {worst:.2e}, single-kick worst {worst0:.2e} (100 each)")


def test_criterion_3_white_kernel_factorization():
    """Uncorrelated kicks compose: n-kick channel = product of single kicks."""
    rng = np.random.default_rng(2020)
    worst = 0.0
    for n_kicks in range(1, 7):  # up to N = 5
        env = WhiteKickKernel(rng.uniform(0.05, 0.6))
        geom = random_geometry(rng)
        sched = KickSchedule(_random_times(rng, n_kicks))
        built = build_n_kick_channel(env, geom, sched)
        comp = single_kick_channel(env, geom, sched.times[0])
        for t in sched.times[1:]:
            comp = compose(single_kick_channel(env, geom, t), comp)
        diff_a = np.max(np.abs(built.matrix - comp.matrix))
        diff_b = np.max(np.abs(built.shift - comp.shift))
        diff_chi = np.max(np.abs(built.chi - chi_from_affine(comp, built.basis)))
        assert max(diff_a, diff_b, diff_chi) <= 1e-12
        worst = max(worst, diff_a, diff_b, diff_chi)
    _report(3, f"N <= 5 composition, worst entry difference {worst:.2e}")


def _two_kick_instances(seed=977, count=100):
    """Random two-kick transition maps with closed-form parameters."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        white = len(instances) % 5 == 4
        geom = random_geometry(rng)
        if white:
            env = WhiteKickKernel(rng.uniform(0.05, 0.8))
        else:
            env = SingleModeThermal(omega=rng.uniform(0.5, 2.0), nbar=rng.uniform(0, 2))
        t0, t1 = _random_times(rng, 2)
        if np.linalg.norm(np.cross(r_of_t(geom, t1), r_of_t(geom, t0))) < 0.05:
            continue
        params = two_kick_params(env, geom, t0, t1)
        if not white and abs(params.k) < 1e-4:
            continue  # too weakly correlated to certify strict negativity
        longer = two_kick_closed_form(env, geom, t0, t1)
        shorter = single_kick_channel(env, geom, t0)
        theta = transition_map(longer, shorter)
        instances.append((params, theta, white))
    return instances


def test_criterion_4_chi_eigenvalue_formulas():
    """Closed-form transition-map eigenvalues vs a Hermitian eigensolver."""
    worst = 0.0
    negatives = 0
    instances = _two_kick_instances()
    for params, theta, white in instances:
        lam_closed = np.sort(chi_eigenvalues_two_kick(params.h, params.k))
        lam_num = np.sort(np.linalg.eigvalsh(theta.chi))
        diff = np.max(np.abs(lam_closed - lam_num))
        assert diff <= 1e-10
        worst = max(worst, diff)
        if abs(params.k) > 0:
            assert lam_closed[0] <= -1e-12, f"lambda4={lam_closed[0]} with k={params.k}"
            negatives += 1
    assert negatives >= 50
    _report(4, f"{len(instances)} maps, eigenvalue worst {worst:.2e}, {negatives} with k != 0 all had lambda4 < 0")


def test_criterion_5_divisibility_equivalence():
    """is_cp and the exact positivity check agree on every two-kick transition map."""
    instances = _two_kick_instances()
    cp_count = 0
    for params, theta, white in instances:
        cp = is_cp(theta)
        norm, witness = max_image_norm(theta.matrix, theta.shift)
        positive = norm <= 1.0 + PSD_TOL
        assert cp == positive, f"CP={cp} but P={positive} (k={params.k}, h={params.h})"
        if cp:
            cp_count += 1
        else:
            assert np.linalg.norm(theta(witness)) > 1.0 + PSD_TOL
    assert 0 < cp_count < len(instances)  # both verdicts exercised
    _report(5, f"{len(instances)} maps, zero CP/P disagreements ({cp_count} divisible)")


def test_criterion_6_dephasing_divisibility():
    """CP verdict of synchronized transition maps equals the |gamma| test."""
    gap = np.pi  # alternating signs for alpha perpendicular to h at Omega = 1
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)
    envs = [
        SingleModeThermal(omega=1.3, nbar=0.5),
        SingleModeThermal(omega=2.0, nbar=1.0),  # omega = 2 Omega: echo kernel
        SingleModeThermal(omega=0.7),
    ]
    checked = 0
    revivals = 0
    for env in envs:
        for n_kicks in range(2, 10):  # N up to 8
            times = gap * np.arange(n_kicks)
            for n in range(1, n_kicks):
                sched_n = KickSchedule(times[:n])
                sched_m = KickSchedule(times[:n_kicks])
                gam_n = dephasing_gamma(env, geom, sched_n)
                gam_m = dephasing_gamma(env, geom, sched_m)
                closed = dephasing_divisibility(gam_m, gam_n)
                theta = transition_map(
                    dephasing_channel(env, geom, sched_m),
                    dephasing_channel(env, geom, sched_n),
                )
                assert is_cp(theta) == closed.cp_divisible
                checked += 1
                if abs(gam_m) > abs(gam_n):
                    revivals += 1
                    assert not closed.cp_divisible
    assert revivals > 0, "suite never produced a coherence revival"
    _report(6, f"{checked} (n, m) pairs, verdicts identical; {revivals} echo revivals seen")


def test_criterion_7_nascent_delta_convergence():
    """Smooth switchings converge to the delta channel as widths shrink."""
    start = time.time()
    env = SingleModeThermal(omega=1.0)
    geom = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=0.0)
    analytic = single_kick_channel(env, geom, 1.0)
    spec = FockSpec(SingleModeThermal(omega=1.0), dim=40)
    dists = []
    for dt in (0.064, 0.032, 0.016, 0.008):
        ch = nascent_delta_channels(spec, geom, KickSchedule([1.0]), [dt], steps_per_kick=48)[0]
        dists.append(channel_distance(analytic, ch))
    elapsed = time.time() - start
    assert all(b < a for a, b in zip(dists, dists[1:])), f"not monotone: {dists}"
    assert dists[-1] < 1e-4, f"finest distance {dists[-1]:.3e}"
    assert elapsed <= 60.0
    _report(7, f"distances {['%.2e' % d for d in dists]}, {elapsed:.1f}s")


def _representative_channels(rng):
    vacuum = SingleModeThermal(omega=1.0)
    geom_std = InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0)
    chans = [
        ("single vacuum", single_kick_channel(vacuum, geom_std, 0.3)),
        (
            "single coherent",
            single_kick_channel(
                SingleModeThermal(omega=1.2, displacement=0.6 + 0.2j), geom_std, 0.5
            ),
        ),
        (
            "dephasing",
            dephasing_channel(
                SingleModeThermal(omega=1.5, nbar=0.8), geom_std, KickSchedule([0.0, np.pi, 2 * np.pi])
            ),
        ),
        (
            "white 3-kick",
            build_n_kick_channel(WhiteKickKernel(0.3), random_geometry(rng), KickSchedule(_random_times(rng, 3))),
        ),
        ("two-kick vacuum", two_kick_closed_form(vacuum, geom_std, 0.0, 0.7)),
        (
            "thermal 3-kick",
            build_n_kick_channel(
                SingleModeThermal(omega=1.1, nbar=1.0), random_geometry(rng), KickSchedule(_random_times(rng, 3))
            ),
        ),
    ]
    return chans


def _random_states(rng, count):
    u = rng.normal(size=(count, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    return u * rng.uniform(0, 1, size=count)[:, None] ** (1 / 3)


def test_criterion_8_unitality_and_entropy():
    """Unital channels never lower entropy; a non-unital two-kick one does."""
    rng = np.random.default_rng(88)
    states = np.vstack([np.zeros(3), _random_states(rng, 1000)])
    unital = [
        (name, ch) for name, ch in _representative_channels(rng) if ch.is_unital
    ]
    assert len(unital) >= 4
    for name, ch in unital:
        for u in states:
            assert entropy(ch(u)) >= entropy(u) - 1e-12, name
    nonunital = two_kick_closed_form(
        SingleModeThermal(omega=1.0), InteractionGeometry(h=[0, 0, 1], alpha=[1, 0, 0], omega=1.0), 0.0, 0.7
    )
    assert not nonunital.is_unital
    drops = [u for u in states if entropy(nonunital(u)) < entropy(u) - 1e-9]
    assert drops, "non-unital channel should purify some state"
    _report(8, f"{len(unital)} unital channels never lowered S; non-unital lowered S for {len(drops)} states")


def test_criterion_9_contractivity():
    """Trace distance between outputs never exceeds that of inputs."""
    rng = np.random.default_rng(99)
    pairs = (_random_states(rng, 1000), _random_states(rng, 1000))
    worst = -1.0
    chans = _representative_channels(rng)
    for name, ch in chans:
        d_in = np.linalg.norm(pairs[0] - pairs[1], axis=1) / 2
        out0 = pairs[0] @ ch.matrix.T + ch.shift
        out1 = pairs[1] @ ch.matrix.T + ch.shift
        d_out = np.linalg.norm(out0 - out1, axis=1) / 2
        assert np.all(d_out <= d_in + 1e-12), name
        worst = max(worst, float(np.max(d_out - d_in)))
    _report(9, f"{len(chans)} channels x 1000 pairs, max increase {worst:.2e} (<= 0 expected)")


def test_criterion_10_fixed_point():
    """Direct fixed-point solve matches the 1000-fold iterated round."""
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 20:
        geom = random_geometry(rng)
        env = SingleModeThermal(omega=rng.uniform(0.6, 1.6), nbar=rng.uniform(0, 1.5))
        t0, t1 = _random_times(rng, 2)
        ch = build_n_kick_channel(env, geom, KickSchedule([t0, t1]))
        res = fixed_point(ch)
        if res.spectral_radius > 0.95:
            continue
        assert res.residual <= 1e-10
        u = rng.normal(size=3)
        u /= max(1.0, np.linalg.norm(u))
        for _ in range(1000):
            u = ch(u)
        assert np.linalg.norm(u - res.u_f) <= 1e-8
        checked += 1
    _report(10, f"{checked} contractive rounds: solve residual <= 1e-10, iteration agrees to 1e-8")


def test_criterion_11_mean_shift_covariance():
    """A mean function only rotates the channel: singular values invariant.

    Exercised where the claim holds identically: one- and two-kick schedules
    and synchronized (fixed-axis) trains.  Three or more non-synchronized
    kicks genuinely break the invariance (see test_channels for the
    boundary), so they are excluded by design.
    """
    rng = np.random.default_rng(1111)
    worst = 0.0
    count = 0
    for _ in range(20):  # one- and two-kick instances
        for n_kicks in (1, 2):
            geom = random_geometry(rng)
            sched = KickSchedule(_random_times(rng, n_kicks))
            omega = rng.uniform(0.6, 1.8)
            nbar = rng.uniform(0, 1.5)
            amp = rng.uniform(0.3, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            even = SingleModeThermal(omega=omega, nbar=nbar)
            shifted = SingleModeThermal(omega=omega, nbar=nbar, displacement=amp)
            s_even = np.linalg.svd(
                build_n_kick_channel(even, geom, sched).matrix, compute_uv=False
            )
            s_shift = np.linalg.svd(
                build_n_kick_channel(shifted, geom, sched).matrix, compute_uv=False
            )
            diff = np.max(np.abs(s_even - s_shift))
            assert diff <= 1e-10
            worst = max(worst, diff)
            count += 1
    for _ in range(10):  # synchronized trains (fixed axis, any length)
        axis = random_unit(rng)
        geom = InteractionGeometry(h=axis, alpha=axis, omega=rng.uniform(0, 2))
        sched = KickSchedule(_random_times(rng, int(rng.integers(3, 6))))
        omega = rng.uniform(0.6, 1.8)
        amp = rng.uniform(0.3, 1.2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        even = SingleModeThermal(omega=omega, nbar=0.4)
        shifted = SingleModeThermal(omega=omega, nbar=0.4, displacement=amp)
        s_even = np.linalg.svd(
            build_n_kick_channel(even, geom, sched).matrix, compute_uv=False
        )
        s_shift = np.linalg.svd(
            build_n_kick_channel(shifted, geom, sched).matrix, compute_uv=False
        )
        diff = np.max(np.abs(s_even - s_shift))
        assert diff <= 1e-10
        worst = max(worst, diff)
        count += 1
    assert count >= 50
    _report(11, f"{count} instances, singular values invariant to {worst:.2e}")
