import errno
import itertools
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinkick import (
    ConfigError,
    KickSchedule,
    SingleModeThermal,
    SpinKickError,
    build_prefix_channels,
    divisibility_report,
    load_channel,
    two_kick_params,
)
from spinkick.cli import (
    _SCHEMA,
    _SWEEP_QUANTITIES,
    _SWEEPABLE,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    RunConfig,
    _apply_sweep_value,
    main,
)

from reference import enumerated_channel, gaussian_char

BASE_CFG = """
[environment]
model = single_mode_thermal
omega = 1.0
nbar = 0.0

[geometry]
h = 0 0 1
alpha = 0 1 0
Omega = 1.0

[schedule]
times = 0.0

[initial_state]
u = 1 0 0

[output]
dir = {out}
prefix = run
"""


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def test_simulate_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
    assert main(["--config", cfg, "simulate"]) == EXIT_OK
    lines = (out / "run_trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "kick_index,t,u_x,u_y,u_z,purity,entropy"
    assert len(lines) == 3  # header + initial + one kick
    final = dict(zip(lines[0].split(","), lines[2].split(",")))
    # u = (1,0,0) is perpendicular to r(0) = y for this geometry
    assert float(final["purity"]) == pytest.approx(0.5676676416183064, abs=1e-13)
    ch = load_channel(out / "run_channel.txt")
    assert ch.meta["times"] == (0.0,)


def test_simulate_empty_schedule(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=out).replace("times = 0.0", "times ="))
    assert main(["--config", cfg, "simulate"]) == EXIT_OK
    lines = (out / "run_trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2  # header + initial state only
    ch = load_channel(out / "run_channel.txt")
    np.testing.assert_allclose(ch.matrix, np.eye(3))


def test_simulate_white_purity_monotone(tmp_path):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace(
        "model = single_mode_thermal\nomega = 1.0\nnbar = 0.0",
        "model = white_kick\nvariance = 0.3",
    ).replace("times = 0.0", "times = 0.0 0.5 1.0 1.5")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "simulate"]) == EXIT_OK
    lines = (out / "run_trajectory.csv").read_text().strip().splitlines()[1:]
    purities = [float(row.split(",")[5]) for row in lines]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    body = BASE_CFG.format(out=out1).replace("times = 0.0", "times = 0.0 0.7")
    cfg1 = write_cfg(tmp_path, body, "a.cfg")
    cfg2 = write_cfg(tmp_path, body.replace(str(out1), str(out2)), "b.cfg")
    assert main(["--config", cfg1, "--seed", "5", "simulate"]) == EXIT_OK
    assert main(["--config", cfg2, "--seed", "5", "simulate"]) == EXIT_OK
    assert (out1 / "run_trajectory.csv").read_bytes() == (out2 / "run_trajectory.csv").read_bytes()
    assert (out1 / "run_channel.txt").read_bytes() == (out2 / "run_channel.txt").read_bytes()


def test_unknown_key_rejected(tmp_path, capsys):
    body = BASE_CFG.format(out=tmp_path).replace("[schedule]", "[schedule]\nbogus = 1")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) + "\n[mystery]\nx = 1\n")
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    assert "mystery" in capsys.readouterr().err


def test_default_section_rejected(tmp_path, capsys):
    """configparser would copy [DEFAULT] keys into every section; the error
    names [DEFAULT] rather than the first section the copy lands in."""
    cfg = write_cfg(tmp_path, "[DEFAULT]\ntol = 1e-6\n" + BASE_CFG.format(out=tmp_path))
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[DEFAULT]" in err and "unknown key" not in err


def test_duplicate_section_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path) + "\n[schedule]\ntimes = 1\n")
    assert main(["--config", cfg, "simulate"]) == EXIT_CONFIG


def test_missing_config(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "simulate"]) == EXIT_CONFIG


def test_bad_arguments_exit_2_with_the_parser_built_once(tmp_path, capsys):
    """The parser is built once per process; parsing leaves it unchanged, so
    a bad argument exits 2 with argparse's message on every call, and a good
    call after it still runs."""
    from spinkick.cli import build_parser

    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--config", "run.cfg", "frobnicate"])
        assert exc.value.code == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=tmp_path / "out"))
    assert main(["--config", cfg, "simulate"]) == EXIT_OK


def test_divisibility_two_kick(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    kv = dict(
        line.split("=", 1)
        for line in (out / "run_divisibility.kv").read_text().strip().splitlines()
    )
    assert kv["cp_divisible"] == "false"
    assert kv["p_divisible"] == "false"
    assert float(kv["lambda_4"]) < 0
    assert "witness" in kv
    assert "k_abs" in kv


def test_divisibility_white_cp(tmp_path):
    out = tmp_path / "out"
    body = (
        BASE_CFG.format(out=out)
        .replace(
            "model = single_mode_thermal\nomega = 1.0\nnbar = 0.0",
            "model = white_kick\nvariance = 0.4",
        )
        .replace("times = 0.0", "times = 0.0 0.7")
    )
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    kv = dict(
        line.split("=", 1)
        for line in (out / "run_divisibility.kv").read_text().strip().splitlines()
    )
    assert kv["cp_divisible"] == "true"
    assert kv["p_divisible"] == "true"


def test_divisibility_dephasing(tmp_path):
    out = tmp_path / "out"
    body = (
        BASE_CFG.format(out=out)
        .replace("alpha = 0 1 0", "alpha = 1 0 0")
        .replace("times = 0.0", f"times = 0.0 {np.pi:.17g} {2 * np.pi:.17g}")
    )
    body += "\n[divisibility]\nmode = dephasing\nn = 1\nm = 3\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    kv = dict(
        line.split("=", 1)
        for line in (out / "run_divisibility.kv").read_text().strip().splitlines()
    )
    assert kv["cp_divisible"] in ("true", "false")
    assert float(kv["lambda_3"]) == 0.0


@pytest.mark.parametrize("m", [2, 500])
def test_synchronized_divisibility_judges_each_axis_once(tmp_path, monkeypatch, m):
    """A 500-kick synchronized divisibility (Omega = 0, so auto mode picks
    dephasing) compares each kick axis after the first with r(t_0) once, 499
    comparisons in all, where the pairwise rule made 124 750.  It forms one
    Gram matrix, the weighted one of its first m kicks, and reads both
    coefficients from it: gamma_ratio is the reference characteristic
    functions' ratio."""
    from spinkick import channels, cli, environment, kicks

    times = 0.01 * np.arange(500)
    weights = 0.5 + 0.25 * (np.arange(500) % 3)
    schedule = f"times = {' '.join(map(repr, times.tolist()))}\nweights = {' '.join(map(repr, weights.tolist()))}"
    body = BASE_CFG.format(out=tmp_path / "out").replace("Omega = 1.0", "Omega = 0.0").replace("times = 0.0", schedule)
    body += f"\n[divisibility]\nmode = auto\nn = 1\nm = {m}\n"
    cfg = RunConfig.from_file(write_cfg(tmp_path, body))
    train = cli._Train(cfg)  # its geometry's own h x alpha is formed here, before the counting

    calls = {"compare": 0, "gram": []}
    cross3, gram_matrix = kicks.cross3, environment.gram_matrix

    def counting_cross3(*args):
        calls["compare"] += 1
        return cross3(*args)

    def counting_gram_matrix(*args):
        calls["gram"].append(args)
        return gram_matrix(*args)

    monkeypatch.setattr(kicks, "cross3", counting_cross3)
    monkeypatch.setattr(channels, "gram_matrix", counting_gram_matrix)
    monkeypatch.setattr(environment, "gram_matrix", counting_gram_matrix)
    code, files, _ = cli.cmd_divisibility(cfg, train)
    assert code == EXIT_OK
    assert calls["compare"] == 499
    assert [(list(t), list(w)) for _, t, w in calls["gram"]] == [(list(times[:m]), list(weights[:m]))]
    gamma_m, gamma_n = (gaussian_char(train.env, times[:k], 2.0 * weights[:k]) for k in (m, 1))
    ratio = abs(gamma_m) / abs(gamma_n)
    kv = dict(line.split("=", 1) for line in files["divisibility.kv"].splitlines())
    assert float(kv["gamma_ratio"]) == pytest.approx(ratio, rel=1e-13)


def test_fixed_point_command(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "fixed-point"]) == EXIT_OK
    text = (out / "run_fixed_point.txt").read_text()
    assert "spectral_radius=" in text
    assert "converged=true" in text


def test_sweep(tmp_path):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    body += "\n[sweep]\nparameter = nbar\nstart = 0.0\nstop = 2.0\ncount = 5\n"
    body += "quantities = purity_final lambda_min\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "sweep"]) == EXIT_OK
    lines = (out / "run_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "nbar,purity_final,lambda_min"
    assert len(lines) == 6
    # |gamma| decreases with nbar, so purity of a damped state decreases too
    purities = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))
    lam4 = [float(r.split(",")[2]) for r in lines[1:]]
    assert all(v < 0 for v in lam4)  # correlated env: never CP-divisible


def test_sweep_two_parameters(tmp_path):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    body += (
        "\n[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 3\n"
        "parameter2 = gap\nstart2 = 0.4\nstop2 = 1.2\ncount2 = 2\n"
        "quantities = purity_final\n"
    )
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "sweep"]) == EXIT_OK
    lines = (out / "run_sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "nbar,gap,purity_final"
    assert len(lines) == 1 + 3 * 2


def test_sweep_gap_parameter(tmp_path):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.5")
    body += "\n[sweep]\nparameter = gap\nstart = 0.3\nstop = 2.5\ncount = 6\n"
    body += "quantities = lambda_min nonunital_shift\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "sweep"]) == EXIT_OK
    lines = (out / "run_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 7
    lam = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(v < 0 or np.isnan(v) for v in lam)


def test_omega_sweep_keeps_the_temperature():
    """A config that gives beta sweeps omega at that beta, so nbar follows."""
    env = SingleModeThermal(omega=1.0, beta=1.0)
    swept, _, _ = _apply_sweep_value(env, None, KickSchedule([0.0]), "omega", 2.0)
    assert swept.omega == 2.0
    assert swept.nbar == pytest.approx(1.0 / (np.e**2 - 1.0), rel=1e-14)


@pytest.mark.parametrize(
    "parameter, quantities, builds, fixed_points",
    [
        ("nbar", "purity_final", [3], 0),
        ("nbar", "lambda_min", [3, 2], 0),
        ("nbar", "fixed_point_norm", [3], 1),
        ("nbar", "commuting", [3], 0),
        ("Omega", "lambda_min", [3, 2], 0),
    ],
    ids=["purity_final", "lambda_min", "fixed_point_norm", "commuting", "Omega-lambda_min"],
)
def test_sweep_computes_only_requested_quantities(tmp_path, monkeypatch, parameter, quantities, builds, fixed_points):
    """A grid of two points is one stack: one enumeration of its channels,
    plus one of their (n-1)-kick heads only for lambda_min, and one stacked
    fixed-point solve only for fixed_point_norm.  Each enumeration derives
    one axis part per run of equal axes: on an nbar grid the axes hold, so
    one; on an Omega grid they change, so one per point.  Every point reads
    its one ``KickInputs``: one weighted Gram matrix a point, whatever is
    asked for."""
    from spinkick import analysis, channels

    calls = {"build": [], "axis_part": [], "gram": 0, "fixed_point": []}
    enumerate_, axis_part, fixed_point = channels._enumerate, channels._axis_part, analysis.fixed_point
    gram_matrix = channels.gram_matrix

    def counting_enumerate(inputs, count, n, max_kicks):
        calls["build"].append(n)
        return enumerate_(inputs, count, n, max_kicks)

    def counting_axis_part(rs):
        calls["axis_part"].append(len(rs))
        return axis_part(rs)

    def counting_gram_matrix(*args, **kwargs):
        calls["gram"] += 1
        return gram_matrix(*args, **kwargs)

    def counting_fixed_point(round_map):
        calls["fixed_point"].append(round_map.matrix.shape)
        return fixed_point(round_map)

    monkeypatch.setattr(channels, "_enumerate", counting_enumerate)
    monkeypatch.setattr(channels, "_axis_part", counting_axis_part)
    monkeypatch.setattr(channels, "gram_matrix", counting_gram_matrix)
    monkeypatch.setattr(analysis, "fixed_point", counting_fixed_point)
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", "times = 0.0 0.7 1.3")
    body += f"\n[sweep]\nparameter = {parameter}\nstart = 0.0\nstop = 1.0\ncount = 2\nquantities = {quantities}\n"
    assert main(["--config", write_cfg(tmp_path, body), "sweep"]) == EXIT_OK
    derived = [n for n in builds for _ in range(2)] if parameter == "Omega" else builds
    assert calls == {"build": builds, "axis_part": derived, "gram": 2, "fixed_point": [(2, 3, 3)] * fixed_points}


# Inputs of the byte-for-byte test of the stacked sweep: a precessing
# 3-kick train, a white-kick one, and a synchronized 4-kick echo train
# (Omega = pi/2, kicks 2 apart, coupling axis perpendicular to h), whose
# fixed_point_norm is rounding noise and so shows any change in rounding.
_SWEEP_TRAINS = {
    "thermal": BASE_CFG.replace("times = 0.0", "times = 0.1 0.8 1.5\nweights = 0.9 0.6 0.8").replace(
        "nbar = 0.0", "nbar = 0.3\ndisplacement = 0.2-0.1i"
    ),
    "white": BASE_CFG.replace("times = 0.0", "times = 0.1 0.8 1.5").replace(
        "model = single_mode_thermal\nomega = 1.0\nnbar = 0.0", "model = white_kick\nvariance = 0.3"
    ),
    "synchronized": BASE_CFG.replace("times = 0.0", "times = 0.3 2.3 4.3 6.3\nweights = 0.7 0.9 0.6 0.8").replace(
        "Omega = 1.0", f"Omega = {np.pi / 2!r}"
    ),
}
_SWEEP_GRIDS = {
    "nbar": ("thermal", "nbar", "start = 0.0\nstop = 1.0"),
    "omega": ("thermal", "omega", "start = 0.5\nstop = 2.0"),
    "Omega": ("thermal", "Omega", "start = 0.3\nstop = 2.0"),
    "gap": ("thermal", "gap", "start = 0.2\nstop = 1.0"),
    "variance": ("white", "variance", "start = 0.05\nstop = 0.6"),
    "scale": ("thermal", "scale", "start = 0.5\nstop = 1.5"),
    "Omega-scale": (
        "thermal", "Omega", "start = 0.3\nstop = 2.0\nparameter2 = scale\nstart2 = 0.5\nstop2 = 1.5\ncount2 = 3"
    ),
    "omega-gap": (
        "thermal", "omega", "start = 0.5\nstop = 2.0\nparameter2 = gap\nstart2 = 0.2\nstop2 = 1.0\ncount2 = 3"
    ),
    "synchronized-nbar": ("synchronized", "nbar", "start = 0.0\nstop = 1.0"),
    # 3 stacks of 2, 2 and 1 points, with the stack budget cut to 2 records of 3 kicks
    "nbar-stacks": ("thermal", "nbar", "start = 0.0\nstop = 1.0\ncount = 5"),
}


def _point_by_point_csv(cfg_path: str) -> str:
    """The sweep CSV of a config from the one-map calls, a grid point at a
    time (``enumerated_channel``, ``transition_map``, ``fixed_point``,
    ``choi_eigenvalues``, ``dephasing_gamma``): the sweep as a loop over its
    points, which raises the first SpinKickError a point meets."""
    from spinkick import analysis, channels
    from spinkick.cli import _Train, _fmt, _sweep_grid

    cfg = RunConfig.from_file(cfg_path)
    train = _Train(cfg)
    parameter, parameter2, wanted = (cfg["sweep", key] for key in ("parameter", "parameter2", "quantities"))
    max_kicks, u0, base = cfg["analysis", "max_kicks"], cfg["initial_state", "u"], cfg["analysis", "log_base"]
    rows = [",".join([parameter, *([parameter2] if parameter2 else []), *wanted])]
    for value in _sweep_grid(cfg):
        for value2 in _sweep_grid(cfg, "2") if parameter2 else [None]:
            env, geom, sched = _apply_sweep_value(train.env, train.geom, train.sched, parameter, value)
            cells = [_fmt(value)]
            if parameter2:
                env, geom, sched = _apply_sweep_value(env, geom, sched, parameter2, value2)
                cells.append(_fmt(value2))
            n = len(sched)
            ch = enumerated_channel(env, geom, sched, max_kicks)
            commuting = channels.is_commuting_schedule(geom, sched)[0]

            def lambda_min():
                if n < 2:
                    return np.nan
                head = enumerated_channel(env, geom, KickSchedule(sched.times[:-1], sched.weights[:-1]), max_kicks)
                try:
                    theta = channels.transition_map(ch, head)
                except channels.SpinKickError:
                    return np.nan
                return channels.choi_eigenvalues(theta)[0]

            def fixed_point_norm():
                try:
                    return np.linalg.norm(analysis.fixed_point(ch).u_f)
                except channels.SpinKickError:
                    return np.nan

            formulas = {
                "purity_final": lambda: analysis.purity(ch(u0)),
                "entropy_final": lambda: analysis.entropy(ch(u0), base),
                "nonunital_shift": lambda: np.linalg.norm(ch.shift),
                "fixed_point_norm": fixed_point_norm,
                "commuting": lambda: float(commuting),
                "gamma_abs": lambda: abs(channels.dephasing_gamma(env, geom, sched)) if commuting else np.nan,
                "lambda_min": lambda_min,
            }
            values = {q: formulas[q]() for q in dict.fromkeys(wanted)}
            rows.append(",".join(cells + [_fmt(values[q]) for q in wanted]))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("grid", list(_SWEEP_GRIDS))
def test_sweep_reuse_is_bit_for_bit(tmp_path, monkeypatch, grid):
    """The stacked sweep's CSV equals, byte for byte, the one built a point
    at a time from the one-map calls, for every sweep parameter, two 2D
    grids and a grid over several stacks: each entry of a stack runs the
    floating-point operations of its one-map build, transition map, fixed
    point and Choi spectrum, and each stack derives one axis part per run
    of equal axes."""
    from spinkick import channels

    train, parameter, rest = _SWEEP_GRIDS[grid]
    body = _SWEEP_TRAINS[train].format(out=tmp_path / "out")
    count = "" if "count =" in rest else "\ncount = 4"
    body += f"\n[sweep]\nparameter = {parameter}\n{rest}{count}\nquantities = {' '.join(_SWEEP_QUANTITIES)}\n"
    cfg = write_cfg(tmp_path, body)
    stacks = []
    if grid == "nbar-stacks":
        enumerate_ = channels._enumerate
        monkeypatch.setattr(channels, "STACK_BYTES", 2 * 16 * 4**3)

        def counting_enumerate(inputs, count, n, max_kicks):
            stacks.append((count, n))
            return enumerate_(inputs, count, n, max_kicks)

        monkeypatch.setattr(channels, "_enumerate", counting_enumerate)
    assert main(["--config", cfg, "sweep"]) == EXIT_OK
    if grid == "nbar-stacks":  # each stack's channels, then their heads
        assert stacks == [(2, 3), (2, 2), (2, 3), (2, 2), (1, 3), (1, 2)]
    stacked = (tmp_path / "out" / "run_sweep.csv").read_text()
    assert stacked == _point_by_point_csv(cfg)
    if train == "synchronized":  # the noise this test keeps: a fixed point where 1 - A is singular
        cells = [dict(zip(_SWEEP_QUANTITIES, row.split(",")[1:])) for row in stacked.splitlines()[1:]]
        assert max(float(c["fixed_point_norm"]) for c in cells) > 1e-3


# Grids whose first refused point fails at different stages, while other
# points fail at other stages: a config error at the third of four nbar
# points; a gamma matrix that overflows at the first point before a
# weight that is no schedule at the second; the channel of the first point
# built but its head's readout refused (not Hermitian) before the second
# point's gamma matrix overflows; the dephasing coefficient refused at the
# second point after its channel and head were built; the record of the
# second point refused (its Gram matrix overflows); and the kick budget.
_FAILING_SWEEPS = {
    "config-at-third-point": ("thermal", "parameter = nbar\nstart = 1\nstop = -1\ncount = 4", ()),
    "gamma-before-config": ("synchronized", "parameter = scale\nstart = 1e150\nstop = -1\ncount = 2", ()),
    "head-before-channel": (
        "synchronized", "parameter = scale\nstart = 2.81838293126438e+149\nstop = 1e150\ncount = 2", ()
    ),
    "dephasing-after-head": (
        "synchronized3", "parameter = scale\nstart = 1\nstop = 7.079457843841287e+153\ncount = 2", ()
    ),
    "record": ("thermal", "parameter = scale\nstart = 1\nstop = 1e156\ncount = 2", ()),
    "budget": ("thermal", "parameter = nbar\nstart = 0\nstop = 1\ncount = 3", ("--max-kicks", "2")),
}


_FIRST_FAILURES = {
    "config-at-third-point": "config error: [sweep] nbar must be non-negative",
    "gamma-before-config": "error: the Gram matrix is too large for the enumeration",
    "head-before-channel": "error: density matrix not Hermitian",
    "dephasing-after-head": "error: weights 4.95562e+153",
    "record": "error: weights 9e+155 6e+155 8e+155 overflow the Gram matrix",
    "budget": "error: 3 kicks exceeds budget of 2",
}


@pytest.mark.parametrize("case", list(_FAILING_SWEEPS))
def test_stacked_sweep_raises_what_the_point_loop_raises_first(tmp_path, capsys, case):
    """A stack holding refused points ends the sweep with the exit code and
    the one stderr line of the loop over its points: the failure that the
    lowest refused point meets at its earliest stage."""
    train, sweep, flags = _FAILING_SWEEPS[case]
    trains = {
        **_SWEEP_TRAINS,
        "synchronized3": _SWEEP_TRAINS["synchronized"]
        .replace("times = 0.3 2.3 4.3 6.3\nweights = 0.7 0.9 0.6 0.8", "times = 0.3 2.3 4.3\nweights = 0.7 0.9 0.6")
        .replace("nbar = 0.0", "nbar = 0.5"),
    }
    body = trains[train].format(out=tmp_path / "out")
    body += f"\n[sweep]\n{sweep}\nquantities = purity_final lambda_min gamma_abs\n"
    cfg = write_cfg(tmp_path, body)
    code = main(["--config", cfg, *flags, "sweep"])
    err = capsys.readouterr().err
    if flags:  # the loop reads the budget from the config
        flagged = body.replace("[sweep]", f"[analysis]\nmax_kicks = {flags[1]}\n\n[sweep]")
        cfg = write_cfg(tmp_path, flagged, "flagged.cfg")
    with pytest.raises(SpinKickError) as raised:
        _point_by_point_csv(cfg)
    expected = (EXIT_CONFIG, "config error") if isinstance(raised.value, ConfigError) else (EXIT_DOMAIN, "error")
    assert (code, err) == (expected[0], f"{expected[1]}: {raised.value}\n")
    assert err.startswith(_FIRST_FAILURES[case])
    assert not (tmp_path / "out").exists()


def test_refused_stack_touches_no_axis_work(tmp_path, monkeypatch, capsys):
    """The stack of gamma matrices is allocated first inside the budget's
    guard: when it cannot be, no sign vector or projector string is made,
    and the sweep exits 4 naming the bytes of one point's coefficients (the
    stack is refused, and so is the point alone)."""
    from spinkick import channels

    empty = np.empty

    def no_stack(shape, dtype=float, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 3 and shape[1:] == (8, 8):
            raise MemoryError(f"Unable to allocate a stack of {shape}")
        return empty(shape, dtype, *args, **kwargs)

    def no_signs(n):
        raise AssertionError("sign matrix made")

    monkeypatch.setattr(np, "empty", no_stack)
    monkeypatch.setattr(channels, "_sign_matrix", no_signs)
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", "times = 0.0 0.7 1.3")
    body += "\n[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\nquantities = purity_final\n"
    assert main(["--config", write_cfg(tmp_path, body), "sweep"]) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert err == f"error: 3 kicks need {16 * 4**3} bytes (1 KiB) of coefficients, more than could be allocated\n"
    assert out == "" and not (tmp_path / "out").exists()


def test_oracle_check(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "oracle-check"]) == EXIT_OK
    assert "OK" in capsys.readouterr().out
    assert (out / "run_oracle.csv").exists()


def test_oracle_check_tiny_dim_fails(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out) + "\n[oracle]\ndim = 3\ndim_max = 3\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "oracle-check"]) == EXIT_CHECK
    assert not (out / "run_oracle.csv").exists()  # no partial output


def test_oracle_check_nascent(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("Omega = 1.0", "Omega = 0.0")
    body += "\n[oracle]\nmode = nascent\ndelta_t = 0.064\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "--tol", "1e-4", "oracle-check"]) == EXIT_OK
    lines = (out / "run_nascent.csv").read_text().strip().splitlines()
    dists = [float(r.split(",")[1]) for r in lines[1:]]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-4


@pytest.mark.parametrize("deltas", ["0.064 0.032 0.016 0.008", "0.008 0.016 0.032 0.064", "0.016 0.008 0.064 0.032"])
def test_nascent_check_judges_the_finest_width_in_any_order(tmp_path, capsys, deltas):
    """Nascent oracle-check judges the distance at the narrowest pulse
    width, wherever [oracle] deltas lists it, and writes its rows in the
    config's order.  The example config, in nascent mode with tol = 1e-2,
    passes in every order: only the widest pulse is off by more."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "docs", "example-run.cfg")) as fh:
        body = fh.read()
    for old, new in [
        ("mode = kicks", "mode = nascent"),
        ("tol = 1e-8", "tol = 1e-2"),
        ("# deltas = .*", f"deltas = {deltas}"),
        ("dir = out", f"dir = {tmp_path / 'out'}"),
    ]:
        body, count = re.subn(f"^{old}", new, body, flags=re.M)
        assert count == 1
    assert main(["--config", write_cfg(tmp_path, body), "oracle-check"]) == EXIT_OK
    finest = float(re.search(r"OK: finest distance (\S+) <= tolerance", capsys.readouterr().out).group(1))
    rows = [r.split(",") for r in (tmp_path / "out" / "spinkick_nascent.csv").read_text().splitlines()[1:]]
    assert [float(dt) for dt, _ in rows] == [float(dt) for dt in deltas.split()]
    assert finest == pytest.approx(dict((float(dt), float(dist)) for dt, dist in rows)[0.008], rel=1e-3)
    assert finest < 1e-2 < max(float(dist) for _, dist in rows)


@pytest.mark.parametrize(
    "oracle_keys",
    [
        "mode = bogus",
        "mode = nascent\ndeltas = 0.05 abc",
        "mode = nascent\nshape = triangle",
        "dim = 1",
        "dim_max = 1",
        "tol = -1",
        "mode = nascent\nsteps_per_kick = 0",
        "mode = nascent\ndelta_t = -0.01",
        "mode = nascent\ndeltas = 0.01 -0.01",
    ],
    ids=[
        "unknown_mode",
        "non_numeric_deltas",
        "unknown_shape",
        "dim_1",
        "dim_max_1",
        "negative_tol",
        "zero_steps",
        "negative_delta_t",
        "negative_deltas",
    ],
)
def test_bad_oracle_value_exits_2(tmp_path, capsys, oracle_keys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("Omega = 1.0", "Omega = 0.0")
    cfg = write_cfg(tmp_path, body + "\n[oracle]\n" + oracle_keys + "\n")
    assert main(["--config", cfg, "oracle-check"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [oracle]")
    assert not out.exists()


def test_simulate_with_toggles(tmp_path, capsys):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7")
    body += "\n[analysis]\ndivisibility = true\nfixed_point = true\noracle_check = true\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "simulate"]) == EXIT_OK
    for name in (
        "run_trajectory.csv",
        "run_channel.txt",
        "run_divisibility.kv",
        "run_fixed_point.txt",
        "run_oracle.csv",
    ):
        assert (out / name).exists(), name


def test_entropy_toggle_off(tmp_path):
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out) + "\n[analysis]\nentropy = false\n"
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "simulate"]) == EXIT_OK
    lines = (out / "run_trajectory.csv").read_text().strip().splitlines()
    assert lines[1].split(",")[6] == "nan"


def test_log_base_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=out))
    assert main(["--config", cfg, "--log-base", "2", "simulate"]) == EXIT_OK
    lines = (out / "run_trajectory.csv").read_text().strip().splitlines()
    s_bits = float(lines[2].split(",")[6])
    cfg2 = write_cfg(tmp_path, BASE_CFG.format(out=out), "nats.cfg")
    assert main(["--config", cfg2, "simulate"]) == EXIT_OK
    s_nats = float((out / "run_trajectory.csv").read_text().strip().splitlines()[2].split(",")[6])
    assert s_bits == pytest.approx(s_nats / np.log(2), rel=1e-12)


def test_simulate_builds_each_channel_once(tmp_path, monkeypatch):
    """n kicks take one pass, and its n + 1 prefix channels, the identity
    among them, are built and validated together, in one stacked
    validation, straight from the affine action the pass carries: the
    channel file reuses the last prefix channel."""
    from spinkick import channels

    passes, stacks, conversions = [], [], []
    build, validate = channels.build_prefix_channels, channels._validate

    def counting_build(*args, **kwargs):
        passes.append(len(args[2]))
        return build(*args, **kwargs)

    def counting_validate(a, b, cp):
        if a.ndim == 3:
            stacks.append((a.shape, b.shape, cp))
        return validate(a, b, cp)

    monkeypatch.setattr(channels, "build_prefix_channels", counting_build)
    monkeypatch.setattr(channels, "_validate", counting_validate)
    monkeypatch.setattr(channels, "affine_from_chi", lambda *args: conversions.append(args))
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7 1.3")
    assert main(["--config", write_cfg(tmp_path, body), "simulate"]) == EXIT_OK
    assert passes == [3]
    assert stacks == [((4, 3, 3), (4, 3), True)]
    ch = load_channel(out / "run_channel.txt")
    assert ch.meta["times"] == (0.0, 0.7, 1.3)
    assert sorted(p.name for p in out.iterdir()) == ["run_channel.txt", "run_trajectory.csv"]

    # the reports simulate toggles on reuse those channels
    passes.clear()
    stacks.clear()
    toggled = body + "\n[analysis]\ndivisibility = true\nfixed_point = true\noracle_check = true\n"
    assert main(["--config", write_cfg(tmp_path, toggled, "toggled.cfg"), "simulate"]) == EXIT_OK
    assert passes == [3]
    assert len(stacks) == 1
    assert conversions == []
    assert len(list(out.iterdir())) == 6


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("simulate", "times = 0.0", "times = 0.7 0.0"),  # decreasing times
        ("simulate", "nbar = 0.0", "nbar = -1"),
        ("simulate", "h = 0 0 1", "h = 0 0 2"),  # not a unit vector
        ("simulate", "u = 1 0 0", "u = 1 0"),
        ("sweep", "[output]", "[sweep]\nparameter = nbar\nstart = -1\nstop = 1\ncount = 3\n\n[output]"),
        ("simulate", "u = 1 0 0", "u = 2 0 0"),  # outside the Bloch ball
        # a bad value fails every command, also one that does not read it
        ("simulate", "[output]", "[analysis]\ntol = -5\n\n[output]"),
        ("simulate", "[output]", "[divisibility]\nmode = bogus\n\n[output]"),
        ("sweep", "[output]", "[sweep]\nparameter = nbar\nstart = 0\nstop = nan\ncount = 3\n\n[output]"),
        ("sweep", "[output]", "[sweep]\nparameter = nbar\nstart = 0\nstop = 1\ncount = 3\nquantities = purity_final bogus\n\n[output]"),
        ("--max-kicks -1 simulate", "[output]", "[output]"),
        ("simulate", "prefix = run", "prefix = 50%"),  # a bare % is an interpolation error
        ("simulate", "[environment]", "[DEFAULT]\ntol = 1e-6\n\n[environment]"),
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, command, old, new):
    body = BASE_CFG.format(out=tmp_path / "out").replace(old, new)
    assert main(["--config", write_cfg(tmp_path, body), *command.split()]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("h = 0 0 1", "h = 0 0 1e300", "config error: [geometry] |h| = 1e+300 is not 1 within 1e-12\n"),
        (
            "u = 1 0 0",
            "u = 1e300 0 0",
            "config error: [initial_state] u: |u| = 1.0000000000000001e+300 lies outside the Bloch ball\n",
        ),
    ],
    ids=["h", "u"],
)
def test_huge_vector_entry_exits_2(tmp_path, capsys, old, new, message):
    """An entry of 1e300 in an axis or the initial state is refused with
    exit 2 and its true norm; the norm is taken without overflow, so no
    warning (an error under pytest) comes first."""
    body = BASE_CFG.format(out=tmp_path / "out").replace(old, new)
    assert main(["--config", write_cfg(tmp_path, body), "simulate"]) == EXIT_CONFIG
    assert capsys.readouterr().err == message


def test_beta_past_float_range_runs_as_the_ground_state(tmp_path):
    """beta omega = 3e300 is the ground state: simulate exits 0 and writes
    what nbar = 0 writes."""
    outputs = []
    for name, env in [("beta", "omega = 3.0\nbeta = 1e300"), ("nbar", "omega = 3.0\nnbar = 0.0")]:
        out = tmp_path / name
        body = BASE_CFG.format(out=out).replace("omega = 1.0\nnbar = 0.0", env)
        assert main(["--config", write_cfg(tmp_path, body, f"{name}.cfg"), "simulate"]) == EXIT_OK
        outputs.append([(out / f"run_{kind}").read_bytes() for kind in ("trajectory.csv", "channel.txt")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "environment, oracle, message",
    [
        ("nbar = 1e300", "mode = nascent", "oracle failure: nascent truncation dim "),
        ("nbar = 0.0\ndisplacement = 1e300", "mode = kicks", "oracle failure: no Fock truncation holds "),
    ],
    ids=["nascent_dim", "displacement"],
)
def test_oracle_of_an_unholdable_state_exits_5(tmp_path, capsys, environment, oracle, message):
    """An occupation no truncation up to dim_max can hold ends oracle-check
    with exit 5 in either mode, before a Fock matrix is allocated."""
    body = BASE_CFG.format(out=tmp_path / "out").replace("nbar = 0.0", environment)
    body += f"\n[oracle]\n{oracle}\ntol = 1e-2\n"
    assert main(["--config", write_cfg(tmp_path, body), "oracle-check"]) == EXIT_CHECK
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("parameter", ["gap", "scale"])
def test_sweep_value_that_overflows_the_schedule_exits_2(tmp_path, capsys, parameter):
    """A gap or scale whose times or weights overflow to inf is refused by
    the schedule's range check, not warned of."""
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", "times = 0.0 0.7 1.4\nweights = 2 2 2")
    body += f"\n[sweep]\nparameter = {parameter}\nstart = 1e308\nstop = 1e308\ncount = 2\n"
    assert main(["--config", write_cfg(tmp_path, body), "sweep"]) == EXIT_CONFIG
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("times, code", [("0.0", EXIT_DOMAIN), ("", EXIT_OK)])
def test_max_kicks_flag_zero_is_a_budget(tmp_path, times, code):
    """--max-kicks 0 is honoured like max_kicks = 0 in the config: only the
    empty schedule fits."""
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", f"times = {times}")
    assert main(["--config", write_cfg(tmp_path, body), "--max-kicks", "0", "simulate"]) == code


@pytest.mark.parametrize(
    "command, kicks, section",
    [
        ("simulate", 24, ""),
        *((command, 40, "") for command in ("simulate", "fixed-point", "divisibility", "oracle-check")),
        ("sweep", 62, "[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\n"),
    ],
    ids=["simulate-24", "simulate-40", "fixed-point-40", "divisibility-40", "oracle-check-40", "sweep-62"],
)
def test_simulate_beyond_memory_exits_4(tmp_path, capsys, command, kicks, section):
    """24 kicks within a raised budget: the pass cannot allocate its 104 TiB,
    and the run exits 4 naming the bytes, not with a traceback.  So does a
    build whose stated bytes exceed sys.maxsize, where numpy would raise
    ValueError rather than MemoryError, before it allocates anything: the
    prefix pass at 40 kicks in every command that builds it, and the
    enumeration of a sweep at 62."""
    times = " ".join(str(0.1 * i) for i in range(kicks))
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", f"times = {times}") + "\n" + section
    assert main(["--config", write_cfg(tmp_path, body), "--max-kicks", str(kicks), command]) == EXIT_DOMAIN
    refusal = rf"error: {kicks} kicks need \d+ bytes .*, more than could be allocated\n$"
    assert re.match(refusal, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_schedule_over_budget_is_refused_up_front(tmp_path, monkeypatch, capsys):
    """15 kicks against the default budget of 10: the run exits 4 naming the
    schedule's own length, and the pass is refused before it builds any
    prefix."""
    from spinkick import channels

    passes = []
    build = channels.build_prefix_channels

    def counting_build(*args, **kwargs):
        passes.append(len(args[2]))
        return build(*args, **kwargs)

    monkeypatch.setattr(channels, "build_prefix_channels", counting_build)
    times = " ".join(str(0.1 * i) for i in range(15))
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", f"times = {times}")
    assert main(["--config", write_cfg(tmp_path, body), "simulate"]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: 15 kicks exceeds budget of 10")
    assert passes == [15]
    assert not (tmp_path / "out").exists()


def _long_train_cfg(tmp_path, kicks):
    """A train of ``kicks`` kicks 0.01 apart, with a sweep over nbar."""
    times = " ".join(repr(0.01 * i) for i in range(kicks))
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", f"times = {times}")
    body += "\n[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\nquantities = purity_final lambda_min\n"
    return write_cfg(tmp_path, body)


@pytest.mark.parametrize("kicks", [600, 7200, 20000])
@pytest.mark.parametrize("command", ["simulate", "fixed-point", "divisibility", "oracle-check", "sweep"])
def test_trains_past_float_range_are_refused_naming_the_budget(tmp_path, monkeypatch, capsys, command, kicks):
    """Trains whose bytes pass float64's range (600 kicks) and whose digits
    pass Python's int-to-str limit (7200) end every building command with
    exit 4 and one line naming the budget and the bytes' base-2 logarithm:
    no traceback, nothing on stdout, no output directory.  The kick count
    is judged first: no train's record, whose Gram matrix would hold 4e8
    entries at 20 000 kicks, is derived."""
    from spinkick import channels

    def no_gram(*args, **kwargs):
        raise AssertionError("gram_matrix called")

    monkeypatch.setattr(channels, "gram_matrix", no_gram)
    assert main(["--config", _long_train_cfg(tmp_path, kicks), command]) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert re.match(rf"error: {kicks} kicks exceeds budget of 10; the build would hold 2\^\d+\.\d\d bytes", err)
    assert out == "" and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_sweep_beyond_memory_exits_4(tmp_path, monkeypatch, capsys):
    """A gamma matrix the enumeration cannot allocate ends the sweep with
    exit 4."""
    from spinkick import channels

    def no_memory(*args):
        raise MemoryError("Unable to allocate 16.0 TiB")

    monkeypatch.setattr(channels, "_gamma_matrix", no_memory)
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", "times = 0.0 0.7 1.3")
    body += "\n[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\nquantities = purity_final\n"
    assert main(["--config", write_cfg(tmp_path, body), "sweep"]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith(f"error: 3 kicks need {16 * 4**3} bytes")


def test_oracle_beyond_memory_exits_4(tmp_path, monkeypatch, capsys, vacuum, standard_geometry, spectra):
    """An oracle truncation whose arrays cannot be allocated ends the run
    with exit 4, naming the dimension and the bytes of the build.  The one
    kick has one axis, which never turns, and the vacuum is even, so its
    evolution carries sector + alone: 32 d^2 for its 1 spin block and its
    step buffer, which then holds the mirror (the readout holds no more),
    16 d for the phases of the one kick on that sector and numpy's
    iteration buffer of d^2 entries (at most np.getbufsize()); then 8 d^2
    for V, made from an empty cache, and 8 d for S's diagonal.
    In nascent mode, 4 widths of 48 steps, all but the first on the pulse
    grid, precess: the 4 spin blocks and their step buffer are 128 W d^2,
    G and G B_k add 48 W d^2, the kick phases are 32 W S d, the buffer
    holds 4 W d^2 entries, no step needs its own P_k, and V is not counted,
    since the kicks-mode run made the spectrum of d = 30 before its
    evolution failed.  A nascent map records its bytes as an int, as a
    kicks-mode map does.  A truncation
    past sys.maxsize bytes (d = 1.2e18), where numpy would raise ValueError,
    is refused the same way in either mode before anything is built, and so
    is one at d = 1e200, whose bytes pass float64's range."""
    from spinkick import oracle

    nascent = oracle.nascent_delta_channels(oracle.FockSpec(vacuum, 4), standard_geometry, KickSchedule([0.0]), [0.01])
    assert type(nascent[0].meta["bytes"]) is int

    def no_memory(*args):
        raise MemoryError("Unable to allocate 26.8 GiB")

    monkeypatch.setattr(oracle, "_evolve", no_memory)
    body = BASE_CFG.format(out=tmp_path / "out") + "\n[oracle]\ndim = 30\n"
    assert main(["--config", write_cfg(tmp_path, body), "oracle-check"]) == EXIT_DOMAIN
    nbytes = 32 * 30**2 + 16 * 30 + 16 * min(np.getbufsize(), 30**2) + 8 * 30**2 + 8 * 30
    assert capsys.readouterr().err.startswith(f"error: oracle truncation at dim 30 needs {nbytes} bytes")
    assert not (tmp_path / "out").exists()

    assert main(["--config", write_cfg(tmp_path, body + "mode = nascent\n"), "oracle-check"]) == EXIT_DOMAIN
    w, s = 4, 48
    assert 30 in spectra
    nbytes = 176 * w * 30**2 + 8 * 30 + 32 * w * s * 30 + 16 * min(np.getbufsize(), 4 * w * 30**2)
    assert capsys.readouterr().err.startswith(f"error: oracle truncation at dim 30 needs {nbytes} bytes")
    assert not (tmp_path / "out").exists()

    for mode, dim in itertools.product(("kicks", "nascent"), (12 * 10**17, 10**200)):
        body = BASE_CFG.format(out=tmp_path / "out") + f"\n[oracle]\nmode = {mode}\ndim = {dim}\ndim_max = {dim + 10}\n"
        assert main(["--config", write_cfg(tmp_path, body), "oracle-check"]) == EXIT_DOMAIN
        need = r"\d+ bytes .*" if dim < 10**100 else r"2\^\d+\.\d\d bytes"
        refusal = rf"error: oracle truncation at dim {dim} needs {need}, more than could be allocated\n$"
        assert re.match(refusal, capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


_BEYOND_ANY_ADDRESS_SPACE = 10**18  # points: 8 EB of float64, past the 2^57 bytes of 5-level paging
_PAST_SYS_MAXSIZE = 12 * 10**17  # points: 9.6 EB of float64, where numpy raises ValueError, not MemoryError


@pytest.mark.parametrize(
    "command, section",
    [
        ("sweep", f"[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = {_BEYOND_ANY_ADDRESS_SPACE}\n"),
        (
            "sweep",
            "[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\n"
            f"parameter2 = gap\nstart2 = 0.4\nstop2 = 1.2\ncount2 = {_BEYOND_ANY_ADDRESS_SPACE}\n",
        ),
        ("oracle-check", f"[oracle]\nmode = nascent\nsteps_per_kick = {_BEYOND_ANY_ADDRESS_SPACE}\n"),
        ("sweep", f"[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = {_PAST_SYS_MAXSIZE}\n"),
        (
            "sweep",
            "[sweep]\nparameter = nbar\nstart = 0.0\nstop = 1.0\ncount = 2\n"
            f"parameter2 = gap\nstart2 = 0.4\nstop2 = 1.2\ncount2 = {_PAST_SYS_MAXSIZE}\n",
        ),
        ("oracle-check", f"[oracle]\nmode = nascent\nsteps_per_kick = {_PAST_SYS_MAXSIZE}\n"),
    ],
    ids=[
        "count", "count2", "steps_per_kick", "count-past-maxsize", "count2-past-maxsize", "steps_per_kick-past-maxsize"
    ],
)
def test_a_grid_beyond_any_address_space_exits_4(tmp_path, capsys, command, section):
    """A sweep grid or a nascent pulse grid of 10^18 points, which no
    machine can map, so that numpy's allocation fails at once and touches
    no page, ends the run with exit 4 and numpy's message, not with a
    traceback; so does one of 1.2 * 10^18 points, past sys.maxsize bytes,
    which is refused before numpy sees it."""
    body = BASE_CFG.format(out=tmp_path / "out").replace("times = 0.0", "times = 0.0 0.7") + "\n" + section
    assert main(["--config", write_cfg(tmp_path, body), command]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kernel",
    [
        "times:\n0 1\nmean:\n0 0\ncovariance:\n1 0\n0.5 1\n",  # not Hermitian
        "times:\n0 1\nmean:\n0\ncovariance:\n1 0\n0 1\n",  # mean too short
        "times:\n0 1\nmean:\n0 nan\ncovariance:\n1 0\n0 1\n",  # a NaN mean
        "times:\n0 1\nmean:\n0 0\ncovariance:\n1 nan\nnan 1\n",  # a NaN covariance
    ],
)
def test_malformed_tabulated_kernel_exits_2(tmp_path, capsys, kernel):
    (tmp_path / "kernel.txt").write_text(kernel)
    body = BASE_CFG.format(out=tmp_path / "out").replace(
        "model = single_mode_thermal\nomega = 1.0\nnbar = 0.0",
        "model = tabulated\npath = kernel.txt",
    )
    assert main(["--config", write_cfg(tmp_path, body), "simulate"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: [environment]")


def _kv(path):
    return dict(line.split("=", 1) for line in path.read_text().strip().splitlines())


TWO_KICK_CFG = """
[environment]
{env}

[geometry]
h = {h}
alpha = {alpha}
Omega = {gap}

[schedule]
times = {times}
weights = {weights}

[output]
dir = {{out}}
prefix = run
"""

# |r1 x r0| = 2e-9: the frame adapted to the two kick axes is ill-conditioned
NEAR_PARALLEL_CFG = TWO_KICK_CFG.format(
    env="model = white_kick\nvariance = 2.74",
    h="0 0 1", alpha="1 0 0", gap="0.04", times="2.75 2.75000005", weights="0.22 0.21",
)
# |h|^2 + |k|^2 = 8.2e4
HIGH_GAIN_CFG = TWO_KICK_CFG.format(
    env="model = single_mode_thermal\nomega = 1.89\nnbar = 0.3",
    h="0 0.8 0.6", alpha="0 1 0", gap="0.85", times="0.16 1.63", weights="2.93 2.15",
)
# |h| = 1.5e10, and the first kick leaves coherences of e^-62
ERASING_CFG = TWO_KICK_CFG.format(
    env="model = single_mode_thermal\nomega = 0.5\nnbar = 3",
    h="0 0.8 0.6", alpha="1 0 0", gap="2", times="2.0 2.989", weights="2.989 2.272",
)


@pytest.mark.parametrize("body", [NEAR_PARALLEL_CFG, HIGH_GAIN_CFG], ids=["near_parallel", "high_gain"])
def test_divisibility_leaves_ill_conditioned_closed_form(tmp_path, body):
    """Two kicks where the closed form is ill-conditioned: the eigenvalues
    come from the exact prefix channels, which match the 4^n enumeration,
    and the closed-form parameters are still reported.

    The eigenvalues are compared with the builder the CLI runs.  At high
    gain A_1 has condition number 9.2e5, so the transition map amplifies
    rounding: lambda_2 is 0.12315789 in 60-digit arithmetic and reads
    0.12315840 from the enumeration and 0.12315787 from the pass, though
    both constructions' affine maps lie within 6e-16 of the 60-digit ones.
    """
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, body.format(out=out))
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    kv = _kv(out / "run_divisibility.kv")
    c = RunConfig.from_file(cfg)
    env, geom, sched = c.environment(), c.geometry(), c.schedule()
    params = two_kick_params(env, geom, *sched.times, sched.weights)
    assert [kv[key] for key in ("alpha", "g", "h_abs", "k_abs")] == [
        f"{x:.17g}" for x in (params.alpha, params.g, abs(params.h), abs(params.k))
    ]
    prefixes = build_prefix_channels(env, geom, sched)
    for k in (1, 2):
        ref = enumerated_channel(env, geom, KickSchedule(sched.times[:k], sched.weights[:k]))
        np.testing.assert_allclose(prefixes[k].chi, ref.chi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prefixes[k].matrix, ref.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(prefixes[k].shift, ref.shift, rtol=0, atol=1e-12)
    ref = divisibility_report(prefixes[2], prefixes[1])
    got = [float(kv[f"lambda_{i}"]) for i in range(1, 5)]
    np.testing.assert_allclose(got, ref.chi_eigenvalues, rtol=0, atol=1e-9)


def test_divisibility_takes_both_channels_from_one_pass(tmp_path, monkeypatch):
    """On a well-conditioned two-kick train divisibility runs one prefix pass
    and builds no closed-form channel; the closed-form parameters appear only
    as report lines, and the eigenvalues are those of the pass's channels."""
    from spinkick import channels

    passes = []

    def counting_build(env, geom, sched, **kwargs):
        passes.append(len(sched))
        return build_prefix_channels(env, geom, sched, **kwargs)

    def no_closed_form(*args, **kwargs):
        raise AssertionError("a closed-form channel was built")

    monkeypatch.setattr(channels, "build_prefix_channels", counting_build)
    monkeypatch.setattr(channels, "two_kick_closed_form", no_closed_form)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7"))
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    assert passes == [2]
    kv = _kv(out / "run_divisibility.kv")
    c = RunConfig.from_file(cfg)
    env, geom, sched = c.environment(), c.geometry(), c.schedule()
    params = two_kick_params(env, geom, *sched.times)
    assert abs(params.h) ** 2 + abs(params.k) ** 2 < 1e4  # within the former closed-form limit
    assert kv["h_abs"] == f"{abs(params.h):.17g}"
    prefixes = build_prefix_channels(env, geom, sched)
    ref = divisibility_report(prefixes[2], prefixes[1])
    assert [float(kv[f"lambda_{i}"]) for i in range(1, 5)] == list(ref.chi_eigenvalues)
    assert "  closed form: alpha=" in (out / "run_divisibility.txt").read_text()


def test_divisibility_after_erasing_kick_is_singular(tmp_path, capsys):
    """The 4^n channel of this train is valid (the closed form's is not), but
    its first kick erases the state, so no transition map exists."""
    cfg = write_cfg(tmp_path, ERASING_CFG.format(out=tmp_path / "out"))
    assert main(["--config", cfg, "divisibility"]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: affine matrix singular")
    c = RunConfig.from_file(cfg)
    longer = enumerated_channel(c.environment(), c.geometry(), c.schedule())
    assert np.linalg.eigvalsh(longer.chi).min() > 0.29


# chi's smallest eigenvalue is -7.6e-11, inside the 1e-10 tolerance, while
# rounding lifts the image of the unit sphere to 1 + 1.1e-10
CP_AT_ROUNDING_CFG = TWO_KICK_CFG.format(
    env="model = white_kick\nvariance = 1.0862921068769453",
    h="0 0 1", alpha="0 1 0", gap="1.6544937572858738",
    times="0.15385277108826723 0.4927448533294416 2.8433797086990795",
    weights="1.1841735273762743 2.1111604474218986 1.195031453043704",
)


def test_divisibility_cp_implies_p(tmp_path):
    """A CP step is reported positive even where the image of the sphere
    reads just past 1 + tol; this report used to end in a traceback."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, CP_AT_ROUNDING_CFG.format(out=out))
    assert main(["--config", cfg, "divisibility"]) == EXIT_OK
    kv = _kv(out / "run_divisibility.kv")
    assert kv["cp_divisible"] == "true"
    assert kv["p_divisible"] == "true"
    assert "witness" not in kv


def test_seed_and_sampling_keys_change_nothing(tmp_path, capsys):
    """--seed, [analysis] seed and sphere_samples are still accepted, and the
    divisibility files and stdout are the same bytes with and without them."""
    runs = []
    for name, flags, keys in (("plain", [], ""), ("seeded", ["--seed", "5"], "seed = 3\nsphere_samples = 20\n")):
        out = tmp_path / name
        body = BASE_CFG.format(out=out).replace("times = 0.0", "times = 0.0 0.7") + "\n[analysis]\n" + keys
        assert main(["--config", write_cfg(tmp_path, body, f"{name}.cfg"), *flags, "divisibility"]) == EXIT_OK
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        runs.append((files, capsys.readouterr().out))
    assert b"witness=" in runs[0][0]["run_divisibility.kv"]
    assert runs[0] == runs[1]


ILL_CONDITIONED_CFG = """
[environment]
model = single_mode_thermal
omega = 1
nbar = 3

[geometry]
h = 0 0 1
alpha = 1 0 0
Omega = 1

[schedule]
times = 0 1 2
weights = 1.5 1.5 1.5

[output]
dir = {out}
prefix = run
"""


def test_invalid_transition_map_exits_4(tmp_path, capsys):
    """The 2-kick channel's A has condition number 8.46e6, past KAPPA_MAX:
    its inverse is refused as singular, a domain error naming kappa, not a
    traceback."""
    cfg = write_cfg(tmp_path, ILL_CONDITIONED_CFG.format(out=tmp_path / "out"))
    assert main(["--config", cfg, "divisibility"]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: affine matrix singular: condition number 8.46e+06 > KAPPA_MAX")


def test_sweep_invalid_transition_map_is_nan(tmp_path):
    out = tmp_path / "out"
    body = ILL_CONDITIONED_CFG.format(out=out)
    body += "\n[sweep]\nparameter = nbar\nstart = 2.5\nstop = 3\ncount = 2\n"
    body += "quantities = lambda_min purity_final\n"
    assert main(["--config", write_cfg(tmp_path, body), "sweep"]) == EXIT_OK
    rows = (out / "run_sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["nan", "nan"]


# numbers every numeric key is sometimes given: non-finite, zero, huge and
# subnormal
SPECIAL_NUMBERS = ("nan", "inf", "-inf", "0", "1e300", "5e-324")


def _number(draw, lo, hi):
    """The text of a float in [lo, hi], or of a special number one time in ten."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from(SPECIAL_NUMBERS))
    return repr(draw(st.floats(lo, hi)))


def _vector(draw, choices):
    """One of ``choices``, one time in ten with an entry a special number."""
    entries = [repr(float(x)) for x in draw(st.sampled_from(choices))]
    if draw(st.integers(0, 9)) == 9:
        entries[draw(st.integers(0, 2))] = draw(st.sampled_from(SPECIAL_NUMBERS))
    return " ".join(entries)


@st.composite
def cli_runs(draw):
    """Runs of every command on up to 3 kicks, some inputs out of range and
    some numbers special.  Sweeps have at most 3 points an axis, and the
    oracle at most 40 Fock levels and 8 steps a pulse.  Each run gives only
    the sections its command reads, so that fewer runs end at the parse."""
    command = draw(st.sampled_from(["simulate", "divisibility", "sweep", "oracle-check", "fixed-point"]))
    n = draw(st.integers(0, 3))
    times = [_number(draw, 0.0, 3.0) for _ in range(n)]
    if draw(st.integers(0, 3)):
        times.sort(key=float)
    schedule = "times = " + " ".join(times)
    if draw(st.booleans()):
        schedule += "\nweights = " + " ".join(_number(draw, 0.0, 3.0) for _ in range(n))
    thermal = draw(st.integers(0, 3)) > 0
    if thermal:
        env = f"model = single_mode_thermal\nomega = {_number(draw, 0.1, 2.0)}"
        env += f"\nnbar = {_number(draw, -0.5, 3.0)}" if draw(st.booleans()) else f"\nbeta = {_number(draw, 0.1, 5.0)}"
        if draw(st.booleans()):
            env += f"\ndisplacement = {_number(draw, -1.0, 1.0)}"
    else:
        env = f"model = white_kick\nvariance = {_number(draw, -0.5, 3.0)}"
    h = _vector(draw, [(0, 0, 1), (1, 0, 0), (0.6, 0, 0.8), (0, 0.8, 0.6), (0, 0, 2)])
    alpha = _vector(draw, [(1, 0, 0), (0, 1, 0), (0.6, 0.8, 0)])
    u = _vector(draw, [(0, 0, 1), (1, 0, 0), (0, 0, 0), (0.5, 0.5, 0.5), (0, 2, 0)])
    toggles = ("divisibility", "fixed_point", "oracle_check")
    analysis = "\n".join(f"{key} = {str(draw(st.booleans())).lower()}" for key in toggles)
    analysis += f"\ntol = {_number(draw, 1e-12, 1e-6)}"
    sweep = []
    sweepable = [p for p in _SWEEPABLE if (p == "variance") != thermal]
    for suffix in ("", "2")[: draw(st.integers(1, 2))]:
        sweep += [
            f"parameter{suffix} = {draw(st.sampled_from(sweepable))}",
            f"start{suffix} = {_number(draw, 0.0, 3.0)}",
            f"stop{suffix} = {_number(draw, 0.0, 3.0)}",
            f"count{suffix} = {draw(st.integers(2, 3))}",
        ]
    oracle = [
        f"mode = {draw(st.sampled_from(['kicks', 'nascent']))}",
        f"dim_max = {draw(st.integers(2, 40))}",
        f"tol = {_number(draw, 1e-10, 1e-1)}",
        f"delta_t = {_number(draw, 1e-3, 0.1)}",
        f"steps_per_kick = {draw(st.integers(1, 8))}",
        f"shape = {draw(st.sampled_from(['gaussian', 'rectangular']))}",
    ]
    if draw(st.booleans()):
        oracle.append(f"dim = {draw(st.integers(2, 30))}")
    divisibility = f"mode = {draw(st.sampled_from(['auto', 'two_kick', 'dephasing']))}\nn = {draw(st.integers(1, 3))}"
    sections = {
        "environment": env,
        "geometry": f"h = {h}\nalpha = {alpha}\nOmega = {_number(draw, 0.0, 2.0)}",
        "schedule": schedule,
        "initial_state": f"u = {u}",
        "analysis": analysis,
        "divisibility": divisibility,
        "sweep": "\n".join(sweep) + "\nquantities = " + " ".join(_SWEEP_QUANTITIES),
        "oracle": "\n".join(oracle),
    }
    reads = {
        "simulate": ("initial_state", "analysis", "divisibility", "oracle"),
        "divisibility": ("analysis", "divisibility"),
        "sweep": ("initial_state", "sweep"),
        "oracle-check": ("oracle",),
        "fixed-point": (),
    }[command]
    given = ("environment", "geometry", "schedule") + reads
    return command, "".join(f"[{name}]\n{sections[name]}\n\n" for name in given)


@settings(max_examples=150, deadline=None)
@given(cli_runs())
@example(("simulate", BASE_CFG.format(out="out").replace("nbar = 0.0", "beta = 1e300")))
@example(("simulate", BASE_CFG.format(out="out").replace("h = 0 0 1", "h = 0 0 1e300")))
@example(("simulate", BASE_CFG.format(out="out").replace(
    "single_mode_thermal\nomega = 1.0\nnbar = 0.0", "white_kick\nvariance = 1e308")))
@example(("simulate", BASE_CFG.format(out="out").replace(
    "single_mode_thermal\nomega = 1.0\nnbar = 0.0", "white_kick\nvariance = 0.3") + "\n[analysis]\noracle_check = true\n"))
@example(("simulate", BASE_CFG.format(out="out").replace("times = 0.0", "times = 0.0 0.7")
          + "\n[analysis]\ndivisibility = true\n\n[divisibility]\nmode = dephasing\n"))
def test_exit_codes_stay_in_contract(run):
    """Every command ends in a documented exit code, never in a traceback or
    a warning (an error under pytest), whatever the numbers it is given; a
    config or domain error leaves no file, also after the trajectory of a
    simulate whose toggled report then fails."""
    command, body = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(body)
        code = main(["--config", cfg, "--out", out, command])
        assert code in {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DOMAIN, EXIT_CHECK}
        if code in {EXIT_CONFIG, EXIT_DOMAIN}:
            assert not os.path.exists(out), os.listdir(out)


EXAMPLE_CFG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "docs", "example-run.cfg")


def test_example_config_lists_every_key():
    """The example's header promises every section and key, commented-out
    ones included, and no other."""
    keys, section = set(), None
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        for line in fh:
            if m := re.match(r"\[(\w+)\]", line):
                section = m[1]
            elif m := re.match(r"#?\s*(\w+)\s*=", line):
                keys.add((section, m[1]))
    assert keys == {(section, key) for section, table in _SCHEMA.items() for key in table}


def test_out_naming_a_file_exits_3(tmp_path, capsys):
    """An --out that names an existing regular file is an I/O error."""
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    assert main(["--config", EXAMPLE_CFG, "--out", str(target), "simulate"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: [Errno 17] File exists")
    assert target.read_text() == "not a directory\n"


def test_a_target_that_is_a_directory_writes_no_file(tmp_path, capsys):
    """A run whose later file names an existing directory is an I/O error
    before any file is written: simulate's trajectory, written first, is not
    left behind, and neither is a temp file."""
    out = tmp_path / "out"
    (out / "spinkick_channel.txt").mkdir(parents=True)
    assert main(["--config", EXAMPLE_CFG, "--out", str(out), "simulate"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: [Errno 21] Is a directory")
    assert os.listdir(out) == ["spinkick_channel.txt"]


def test_a_full_disk_while_a_later_file_is_written_leaves_no_file(tmp_path, capsys, monkeypatch):
    """A run writes all of its files or none: when the disk fills while
    simulate's second file is written, the run is an I/O error, and neither
    the first file, staged as a temp before any rename, nor any temp is
    left behind."""
    fdopen, opened = os.fdopen, []

    class FullDisk:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_at_the_second(fd, *args, **kwargs):
        opened.append(fdopen(fd, *args, **kwargs))
        return FullDisk(opened[-1]) if len(opened) == 2 else opened[-1]

    monkeypatch.setattr(os, "fdopen", full_at_the_second)
    out = tmp_path / "out"
    assert main(["--config", EXAMPLE_CFG, "--out", str(out), "simulate"]) == EXIT_IO
    assert len(opened) == 2
    assert capsys.readouterr().err.startswith("I/O error: [Errno 28] No space left on device")
    assert not [name for name in os.listdir(out) if name.startswith(("spinkick_", ".tmp-spinkick-"))]


def _example_with(tmp_path, **values):
    """The example config with the given keys of [analysis] or [oracle] set."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = fh.read()
    for key, value in values.items():
        body, count = re.subn(rf"^{key} = \S+", f"{key} = {value}", body, flags=re.M)
        assert count == 1, key
    return write_cfg(tmp_path, body)


def test_a_run_whose_report_fails_prints_nothing(tmp_path, capsys):
    """A simulate whose toggled oracle check cannot converge exits 5 after
    its divisibility report has run: it prints nothing on stdout, only its
    error line on stderr, and writes no file."""
    cfg = _example_with(tmp_path, divisibility="true", oracle_check="true", dim_max=25)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_CHECK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("oracle failure: no stable channel up to dim 25")
    assert not out.exists()


def test_simulate_prints_its_reports_in_run_order_then_wrote(tmp_path, capsys):
    """simulate prints the text of each toggled report, in run order, then
    its wrote line; each report's text is that of its file."""
    cfg = _example_with(tmp_path, divisibility="true", fixed_point="true")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "simulate"]) == EXIT_OK
    report = (out / "spinkick_divisibility.txt").read_text()
    fixed = (out / "spinkick_fixed_point.txt").read_text()
    assert report.startswith("divisibility") and len(fixed.splitlines()) == 5
    wrote = f"wrote spinkick_trajectory.csv and spinkick_channel.txt in {out}\n"
    assert capsys.readouterr().out == report + fixed + wrote


def test_defaults_are_shared_and_read_only(tmp_path, monkeypatch):
    """A key a config leaves out takes its default, parsed once for every
    config: arrays are shared read-only, so no run can change another's.
    [output] dir alone is parsed per config, against the working directory
    of the read."""
    first = RunConfig.from_file(write_cfg(tmp_path, "[schedule]\ntimes = 0.5\n", "first.cfg"))
    second = RunConfig.from_file(write_cfg(tmp_path, "", "second.cfg"))
    u, times = first["initial_state", "u"], second["schedule", "times"]
    assert u is second["initial_state", "u"]
    np.testing.assert_array_equal(u, [0.0, 0.0, 1.0])
    assert times.shape == (0,)
    for default in (u, times):
        assert not default.flags.writeable
    assert first["sweep", "quantities"] == ("gamma_abs", "purity_final", "lambda_min")
    monkeypatch.chdir(tmp_path)
    assert RunConfig.from_file("second.cfg")["output", "dir"] == os.path.join(str(tmp_path), "out")


def test_example_nascent_check_fails_at_its_own_tolerance(tmp_path, capsys):
    """The example config's nascent mode at its own tol = 1e-8 exits 5, as its
    comment says: the finest default pulse (delta_t / 8) is still about
    1.8e-3 from the kick channel."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = fh.read().replace("mode = kicks", "mode = nascent")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), "oracle-check"]) == EXIT_CHECK
    rows = (tmp_path / "out" / "spinkick_nascent.csv").read_text().strip().splitlines()
    finest = float(rows[-1].split(",")[1])
    assert 1.7e-3 < finest < 1.9e-3
    assert f"FAIL: finest distance {finest:.3e} > tolerance 1e-08" in capsys.readouterr().out


def test_nascent_check_states_its_truncation(tmp_path, capsys):
    """A nascent oracle-check states its truncation and the tail it kept on
    stdout, before its verdict, as kicks mode does; it demands no tail: at
    nbar = 50 the example's dim = 20 keeps 4.1% of the state in its top
    level, and a frozen-axis run still passes tol = 0.1."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = fh.read()
    for old, new in [
        ("nbar = 0.0 ", "nbar = 50 "),
        ("Omega = 1.0 ", "Omega = 0.0 "),
        ("tol = 1e-8 ", "tol = 0.1 "),
        ("mode = kicks ", "mode = nascent "),
    ]:
        body, count = re.subn(f"^{old}", new, body, flags=re.M)
        assert count == 1
    assert main(["--config", write_cfg(tmp_path, body), "--out", str(tmp_path / "out"), "oracle-check"]) == EXIT_OK
    *_, stated, verdict = capsys.readouterr().out.splitlines()
    assert stated == "oracle dim=20 tail=4.116e-02"
    assert verdict.startswith("OK: finest distance 7.19")


@pytest.mark.parametrize(
    "command, oracle_mode, code",
    [
        ("simulate", "kicks", EXIT_OK),
        ("sweep", "kicks", EXIT_OK),
        ("fixed-point", "kicks", EXIT_OK),
        ("oracle-check", "kicks", EXIT_OK),
        ("oracle-check", "nascent", EXIT_OK),
        ("divisibility", "kicks", EXIT_CONFIG),
    ],
    ids=["simulate", "sweep", "fixed-point", "oracle-kicks", "oracle-nascent", "divisibility"],
)
def test_example_config_with_empty_schedule(tmp_path, command, oracle_mode, code):
    """An empty schedule is a valid run: every command ends in its documented
    code (the identity channel; divisibility needs two kicks)."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = fh.read()
    body = re.sub(r"^times = .*$", "times =", body, flags=re.M)
    body = re.sub(r"^weights = .*$", "", body, flags=re.M)
    body = body.replace("mode = kicks", f"mode = {oracle_mode}")
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == code


@pytest.mark.parametrize("command", ["simulate", "divisibility", "fixed-point", "oracle-check"])
def test_overflowing_weights_exit_4(tmp_path, capsys, command):
    """Weights whose products overflow the Gram matrix end in exit 4 with a
    message naming them, not in a traceback from NaN further on."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = re.sub(r"^weights = .*$", "weights = 1e160 1e160", fh.read(), flags=re.M)
    cfg = write_cfg(tmp_path, body)
    assert main(["--config", cfg, "--out", str(tmp_path / "out"), command]) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("error: weights 1e+160 1e+160 overflow the Gram matrix")


@pytest.mark.parametrize("command", ["divisibility", "sweep"])
def test_weights_beyond_the_closed_form_range_are_refused(tmp_path, capsys, command):
    """Weights of 1e30 keep the Gram matrix finite but take the two-kick
    closed form's cosh and sinh out of float64's range.  divisibility leaves
    out the closed-form lines and exits 4 on its singular pass channel;
    sweep's lambda_min cells are nan.  Neither warns (warnings are errors
    under pytest)."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body = re.sub(r"^weights = .*$", "weights = 1e30 1e30", fh.read(), flags=re.M)
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), command])
    captured = capsys.readouterr()
    if command == "divisibility":
        assert code == EXIT_DOMAIN
        assert captured.err.startswith("error: affine matrix singular")
        assert "closed" not in captured.out
    else:
        assert code == EXIT_OK
        lines = (out / "spinkick_sweep.csv").read_text().strip().splitlines()
        column = lines[0].split(",").index("lambda_min")
        assert all(line.split(",")[column] == "nan" for line in lines[1:])


def test_nascent_refusal_comes_before_any_output(tmp_path, capsys):
    """A pulse width that overlaps the kick gap is refused before any width
    is evolved: no distance line is printed and no nascent file is written."""
    out = tmp_path / "out"
    body = BASE_CFG.format(out=out).replace("Omega = 1.0", "Omega = 0.0").replace("times = 0.0", "times = 0.0 0.7")
    body += "\n[oracle]\nmode = nascent\ndeltas = 0.008 0.02 0.1\n"
    assert main(["--config", write_cfg(tmp_path, body), "oracle-check"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "distance" not in captured.out
    assert captured.err.startswith("error: pulse width 1 overlaps kick gap 0.7")
    assert not (out / "run_nascent.csv").exists()


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys, monkeypatch):
    """Config files are read as UTF-8 whatever the locale: a Latin-1 byte is
    a config error before any command runs, not a traceback."""
    with open(EXAMPLE_CFG, "rb") as fh:
        (tmp_path / "latin.cfg").write_bytes(b"# caf\xe9\n" + fh.read())
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "latin.cfg", "fixed-point"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: config file latin.cfg is not UTF-8")
    assert os.listdir(tmp_path) == ["latin.cfg"]


@pytest.mark.parametrize("key", ["dir", "prefix"])
def test_a_nul_byte_in_an_output_name_exits_2(tmp_path, capsys, monkeypatch, key):
    """No path holds a NUL byte: [output] dir and prefix refuse one when the
    config is read, so the run exits 2 and makes no directory."""
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        body, count = re.subn(rf"^({key} = \w)(\w+)$", "\\1\0\\2", fh.read(), flags=re.M)
    assert count == 1
    write_cfg(tmp_path, body)
    monkeypatch.chdir(tmp_path)
    assert main(["--config", "run.cfg", "simulate"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: [output] {key}: holds a NUL byte")
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_an_atomic_write_that_fails_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    """A rename that fails after an earlier one succeeded is an I/O error:
    the file already renamed stays, and every temp not yet renamed is
    removed."""
    replace, renamed = os.replace, []

    def refuse_the_second(src, dst):
        if renamed:
            raise OSError(errno.EXDEV, "refused")
        replace(src, dst)
        renamed.append(os.path.basename(dst))

    monkeypatch.setattr(os, "replace", refuse_the_second)
    out = tmp_path / "out"
    assert main(["--config", EXAMPLE_CFG, "--out", str(out), "simulate"]) == EXIT_IO
    assert capsys.readouterr().err.startswith("I/O error: [Errno 18] refused")
    assert len(renamed) == 1 and renamed[0].startswith("spinkick_")
    assert sorted(os.listdir(out)) == renamed


# Each case: the command, the example config's lines replaced (a line by
# None is dropped), and the start of the documented refusal.
_REFUSALS = {
    "no_model": ("fixed-point", {"model = single_mode_thermal": None}, "[environment] model is required"),
    "no_omega": ("fixed-point", {"omega = 1.0": None}, "[environment] omega is required for single_mode_thermal"),
    "no_variance": ("fixed-point", {"model = single_mode_thermal": "model = white_kick"},
                    "[environment] variance is required for white_kick"),
    "no_path": ("fixed-point", {"model = single_mode_thermal": "model = tabulated"},
                "[environment] path is required for tabulated"),
    # the config itself as the kernel file: it has none of the kernel's section headers
    "kernel_without_headers": ("fixed-point", {"model = single_mode_thermal": "model = tabulated\npath = run.cfg"},
                               "[environment] missing section header in "),
    "no_gap": ("fixed-point", {"Omega = 1.0": None}, "[geometry] h, alpha and Omega are all required"),
    "dephasing_range": (
        "divisibility",
        {"Omega = 1.0": "Omega = 0.0", "mode = auto": "mode = dephasing", "n = 1": "n = 2"},
        "need 1 <= n < m <= 2, got n=2, m=2",
    ),
    "nbar_of_white": ("sweep", {"model = single_mode_thermal": "model = white_kick\nvariance = 0.3"},
                      "sweep parameter 'nbar' needs the single_mode_thermal model"),
    "variance_of_thermal": ("sweep", {"parameter = nbar": "parameter = variance"},
                            "sweep parameter 'variance' needs the white_kick model"),
    "gap_of_no_kicks": (
        "sweep",
        {"parameter = nbar": "parameter = gap", "times = 0.0 0.7": "times =", "weights = 1 1": None},
        "sweep parameter 'gap' needs a non-empty schedule",
    ),
    "no_count": ("sweep", {"count = 21": None}, "[sweep] start, stop and count are required"),
    "no_parameter": ("sweep", {"parameter = nbar": None}, "[sweep] parameter is required"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_required_keys_and_model_mismatches_exit_2(tmp_path, capsys, case):
    """A key a command needs, a kernel file without its headers, or a sweep
    parameter its model or schedule cannot take, ends in exit 2 with its
    documented message and no output."""
    command, edits, message = _REFUSALS[case]
    with open(EXAMPLE_CFG, encoding="utf-8") as fh:
        lines = [re.sub(r"\s+#.*", "", line) for line in fh.read().splitlines()]
    for old, new in edits.items():
        assert lines.count(old) == 1, old
        lines[lines.index(old)] = "" if new is None else new
    out = tmp_path / "out"
    assert main(["--config", write_cfg(tmp_path, "\n".join(lines) + "\n"), "--out", str(out), command]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()
