"""Config-driven command-line front end.

Commands: simulate, divisibility, sweep, oracle-check, fixed-point.  Each
reads a single key-value/section config file (grammar documented in the
README, one canonical example in the repo), writes CSV/report files
atomically (write-then-rename, so failures leave no partial outputs), and
maps every failure class to a documented exit code:

    0  success
    2  config error (parse failure, unknown key, bad value)
    3  I/O error
    4  domain error (library exceptions: TooManyKicks, SingularChannel,
       InvalidMap, ...)
    5  verification failure (oracle distance above tolerance, truncation
       not converged)

All floats are printed with 17 significant digits so round-trips are
lossless; the decimal separator is always '.'.  Nothing is sampled: the
positivity verdict and the channel distance are exact maxima over the Bloch
sphere, and every output is a deterministic function of the config.  The
--seed flag and the [analysis] keys seed and sphere_samples are still
accepted, so older configs and scripts keep working, but they change nothing.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import os
import sys
import tempfile

import numpy as np

from . import analysis, channels, oracle
from .environment import SingleModeThermal, TabulatedKernel, WhiteKickKernel, parse_complex
from .errors import ConfigError, LengthMismatch, NonUnitVector, SpinKickError, TruncationNotConverged
from .kicks import InteractionGeometry, KickSchedule, is_commuting_schedule, r_of_t

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_CHECK = 5


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_text_atomic(path: str, content: str) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-spinkick-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_KNOWN_KEYS = {
    "environment": {"model", "omega", "nbar", "beta", "displacement", "variance", "path"},
    "geometry": {"h", "alpha", "Omega"},
    "schedule": {"times", "weights"},
    "initial_state": {"u"},
    "analysis": {
        "divisibility",
        "fixed_point",
        "entropy",
        "oracle_check",
        "log_base",
        "sphere_samples",  # accepted, unused: positivity is exact
        "tol",
        "max_kicks",
        "seed",  # accepted, unused: nothing is sampled
    },
    "divisibility": {"mode", "n", "m"},
    "oracle": {"dim", "dim_max", "tol", "mode", "delta_t", "deltas", "steps_per_kick", "shape"},
    "sweep": {
        "parameter",
        "start",
        "stop",
        "count",
        "parameter2",
        "start2",
        "stop2",
        "count2",
        "quantities",
    },
    "output": {"dir", "prefix"},
}


@contextlib.contextmanager
def _bad_values(section: str):
    """Report the value errors of the model constructors as config errors."""
    try:
        yield
    except (ValueError, NonUnitVector, LengthMismatch) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class RunConfig:
    """Validated run configuration; unknown sections or keys are rejected."""

    def __init__(self, parser: configparser.ConfigParser, base_dir: str):
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
        self._p = parser
        self.base_dir = base_dir

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str  # keep case (Omega vs omega)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls(parser, os.path.dirname(os.path.abspath(path)))

    def _get(self, section, key, default=None):
        if self._p.has_option(section, key):
            return self._p.get(section, key)
        return default

    def getfloat(self, section, key, default=None):
        raw = self._get(section, key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc

    def getint(self, section, key, default=None):
        raw = self._get(section, key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc

    def getbool(self, section, key, default=False):
        raw = self._get(section, key)
        if raw is None:
            return default
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")

    def getvec(self, section, key, default=None):
        raw = self._get(section, key)
        if raw is None:
            return default
        try:
            return np.array([float(x) for x in raw.split()])
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not a vector: {raw!r}") from exc

    def getstr(self, section, key, default=None):
        return self._get(section, key, default)

    # object builders -------------------------------------------------------

    def environment(self):
        model = self.getstr("environment", "model")
        if model is None:
            raise ConfigError("[environment] model is required")
        if model == "single_mode_thermal":
            omega = self.getfloat("environment", "omega")
            if omega is None:
                raise ConfigError("[environment] omega is required for single_mode_thermal")
            disp_raw = self.getstr("environment", "displacement", "0+0i")
            try:
                disp = parse_complex(disp_raw)
            except ValueError as exc:
                raise ConfigError(f"bad displacement {disp_raw!r}") from exc
            beta = self.getfloat("environment", "beta")
            nbar = self.getfloat("environment", "nbar", 0.0)
            with _bad_values("environment"):
                return SingleModeThermal(omega=omega, nbar=nbar, beta=beta, displacement=disp)
        if model == "white_kick":
            v = self.getfloat("environment", "variance")
            if v is None:
                raise ConfigError("[environment] variance is required for white_kick")
            with _bad_values("environment"):
                return WhiteKickKernel(v)
        if model == "tabulated":
            path = self.getstr("environment", "path")
            if path is None:
                raise ConfigError("[environment] path is required for tabulated")
            if not os.path.isabs(path):
                path = os.path.join(self.base_dir, path)
            with _bad_values("environment"):
                return TabulatedKernel.from_file(path)
        raise ConfigError(f"unknown environment model {model!r}")

    def geometry(self) -> InteractionGeometry:
        h = self.getvec("geometry", "h")
        alpha = self.getvec("geometry", "alpha")
        gap = self.getfloat("geometry", "Omega")
        if h is None or alpha is None or gap is None:
            raise ConfigError("[geometry] h, alpha and Omega are all required")
        with _bad_values("geometry"):
            return InteractionGeometry(h=h, alpha=alpha, omega=gap)

    def schedule(self) -> KickSchedule:
        times = self.getvec("schedule", "times")
        if times is None:
            times = np.array([])
        weights = self.getvec("schedule", "weights")
        with _bad_values("schedule"):
            return KickSchedule(times, weights)

    def initial_state(self) -> np.ndarray:
        u = self.getvec("initial_state", "u", np.array([0.0, 0.0, 1.0]))
        if u.shape != (3,):
            raise ConfigError(f"[initial_state] u needs 3 components, got {len(u)}")
        return u


def _log_base(args, cfg) -> float | None:
    name = args.log_base or cfg.getstr("analysis", "log_base", "e")
    if name == "e":
        return None
    if name == "2":
        return 2.0
    raise ConfigError(f"log base must be 'e' or '2', got {name!r}")


def _out_dir(args, cfg) -> str:
    out = args.out or cfg.getstr("output", "dir", "out")
    if not os.path.isabs(out):
        out = os.path.join(os.getcwd(), out)
    return out


def _prefix(cfg) -> str:
    return cfg.getstr("output", "prefix", "spinkick")


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, cfg: RunConfig) -> int:
    env = cfg.environment()
    geom = cfg.geometry()
    sched = cfg.schedule()
    base = _log_base(args, cfg)
    max_kicks = args.max_kicks or cfg.getint("analysis", "max_kicks", channels.MAX_KICKS_DEFAULT)
    u0 = cfg.initial_state()
    out = _out_dir(args, cfg)
    prefix = _prefix(cfg)
    with_entropy = cfg.getbool("analysis", "entropy", True)

    def entropy_cell(u):
        return analysis.entropy(u, base) if with_entropy else float("nan")

    rows = ["kick_index,t,u_x,u_y,u_z,purity,entropy"]
    u = np.asarray(u0, dtype=float)
    t_start = float(sched.times[0]) if len(sched) else 0.0
    rows.append(
        "0,"
        + ",".join(
            _fmt(v) for v in (t_start, u[0], u[1], u[2], analysis.purity(u), entropy_cell(u))
        )
    )
    full = channels.identity_channel() if len(sched) == 0 else None
    for k in range(1, len(sched) + 1):
        prefix_sched = KickSchedule(sched.times[:k], sched.weights[:k])
        full = channels.build_n_kick_channel(env, geom, prefix_sched, max_kicks=max_kicks)
        uk = full(u0)
        rows.append(
            f"{k},"
            + ",".join(
                _fmt(v)
                for v in (
                    sched.times[k - 1],
                    uk[0],
                    uk[1],
                    uk[2],
                    analysis.purity(uk),
                    entropy_cell(uk),
                )
            )
        )
    write_text_atomic(os.path.join(out, f"{prefix}_trajectory.csv"), "\n".join(rows) + "\n")
    write_text_atomic(os.path.join(out, f"{prefix}_channel.txt"), channels.format_channel(full))
    print(f"wrote {prefix}_trajectory.csv and {prefix}_channel.txt in {out}")

    # optional follow-on analyses, toggled in [analysis]
    code = EXIT_OK
    if cfg.getbool("analysis", "divisibility", False) and len(sched) >= 2:
        code = max(code, cmd_divisibility(args, cfg))
    if cfg.getbool("analysis", "fixed_point", False):
        code = max(code, cmd_fixed_point(args, cfg))
    if cfg.getbool("analysis", "oracle_check", False):
        code = max(code, cmd_oracle_check(args, cfg))
    return code


def cmd_fixed_point(args, cfg: RunConfig) -> int:
    env = cfg.environment()
    geom = cfg.geometry()
    sched = cfg.schedule()
    max_kicks = args.max_kicks or cfg.getint("analysis", "max_kicks", channels.MAX_KICKS_DEFAULT)
    out = _out_dir(args, cfg)
    prefix = _prefix(cfg)
    ch = channels.build_n_kick_channel(env, geom, sched, max_kicks=max_kicks)
    res = analysis.fixed_point(ch)
    lines = [
        "u_f=" + " ".join(_fmt(x) for x in res.u_f),
        f"spectral_radius={_fmt(res.spectral_radius)}",
        f"converged={str(res.converged).lower()}",
        f"unique={str(res.unique).lower()}",
        f"residual={_fmt(res.residual)}",
    ]
    write_text_atomic(os.path.join(out, f"{prefix}_fixed_point.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


# Largest |h|^2 + |k|^2 at which divisibility trusts the two-kick closed form.
CLOSED_FORM_MAX_GAIN = 1e4


def _closed_form_is_well_conditioned(env, geom, sched: KickSchedule) -> bool:
    """Whether the two-kick closed form may stand in for the 4^n builder.

    It needs two kicks on an even environment, and two named limits:

    - ``CLOSED_FORM_MAX_GAIN``: the closed form multiplies a matrix whose
      entries grow like |h|^2 + |k|^2 (as exp(2 w0 w1 Re K)) by one damped
      by g = exp(-2 Var), so beyond this gain the product has lost the
      digits that make the channel CP;
    - ``channels.PARALLEL_BASIS_TOL``: below this |r1 x r0| the frame
      adapted to the two kick axes is too ill-conditioned to build the
      channel in.

    Otherwise divisibility uses the 4^n builder, which has 16 terms here.
    """
    if len(sched) != 2 or not env.is_even:
        return False
    t0, t1 = sched.times
    if np.linalg.norm(np.cross(r_of_t(geom, t1), r_of_t(geom, t0))) < channels.PARALLEL_BASIS_TOL:
        return False
    params = channels.two_kick_params(env, geom, t0, t1, sched.weights)
    return abs(params.h) ** 2 + abs(params.k) ** 2 <= CLOSED_FORM_MAX_GAIN


def cmd_divisibility(args, cfg: RunConfig) -> int:
    env = cfg.environment()
    geom = cfg.geometry()
    sched = cfg.schedule()
    tol = args.tol or cfg.getfloat("analysis", "tol", analysis.PSD_TOL)
    max_kicks = args.max_kicks or cfg.getint("analysis", "max_kicks", channels.MAX_KICKS_DEFAULT)
    out = _out_dir(args, cfg)
    prefix = _prefix(cfg)

    mode = cfg.getstr("divisibility", "mode", "auto")
    commuting, _ = is_commuting_schedule(geom, sched) if len(sched) else (False, None)
    if mode == "auto":
        mode = "dephasing" if commuting and len(sched) >= 2 else "two_kick"

    if mode == "dephasing":
        if not commuting:
            raise ConfigError("dephasing divisibility requires a synchronized schedule")
        n = cfg.getint("divisibility", "n", 1)
        m = cfg.getint("divisibility", "m", len(sched))
        if not 1 <= n < m <= len(sched):
            raise ConfigError(f"need 1 <= n < m <= {len(sched)}, got n={n}, m={m}")
        gam_n = channels.dephasing_gamma(env, geom, KickSchedule(sched.times[:n], sched.weights[:n]))
        gam_m = channels.dephasing_gamma(env, geom, KickSchedule(sched.times[:m], sched.weights[:m]))
        report = analysis.dephasing_divisibility(gam_m, gam_n)
    else:
        if len(sched) < 2:
            raise ConfigError("divisibility needs a schedule with at least 2 kicks")
        if _closed_form_is_well_conditioned(env, geom, sched):
            longer = channels.two_kick_closed_form(
                env, geom, sched.times[0], sched.times[1], weights=sched.weights
            )
        else:
            longer = channels.build_n_kick_channel(env, geom, sched, max_kicks=max_kicks)
        shorter = channels.build_n_kick_channel(
            env, geom, KickSchedule(sched.times[:-1], sched.weights[:-1]), max_kicks=max_kicks
        )
        report = analysis.divisibility_report(longer, shorter, tol=tol)

    write_text_atomic(os.path.join(out, f"{prefix}_divisibility.txt"), report.to_text())
    write_text_atomic(os.path.join(out, f"{prefix}_divisibility.kv"), report.to_kv())
    print(report.to_text(), end="")
    return EXIT_OK


_SWEEPABLE = ("nbar", "omega", "Omega", "gap", "variance", "scale")


def _apply_sweep_value(cfg, env, geom, sched, parameter, value):
    if parameter in ("nbar", "omega") and not isinstance(env, SingleModeThermal):
        raise ConfigError(f"sweep parameter {parameter!r} needs the single_mode_thermal model")
    if parameter == "variance" and not isinstance(env, WhiteKickKernel):
        raise ConfigError("sweep parameter 'variance' needs the white_kick model")
    if parameter in ("gap", "scale") and len(sched) == 0:
        raise ConfigError(f"sweep parameter {parameter!r} needs a non-empty schedule")
    with _bad_values("sweep"):
        if parameter == "nbar":
            env = SingleModeThermal(env.omega, nbar=value, displacement=env.displacement)
        elif parameter == "omega":
            env = SingleModeThermal(value, nbar=env.nbar, displacement=env.displacement)
        elif parameter == "variance":
            env = WhiteKickKernel(value)
        elif parameter == "Omega":
            geom = InteractionGeometry(geom.h, geom.alpha, value)
        elif parameter == "gap":
            t0 = sched.times[0]
            times = t0 + value * np.arange(len(sched))
            sched = KickSchedule(times, sched.weights)
        elif parameter == "scale":
            sched = KickSchedule(sched.times, sched.weights * value)
        else:
            raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {_SWEEPABLE}")
    return env, geom, sched


def _sweep_quantities(env, geom, sched, u0, base, max_kicks):
    """Scalar observables available to cmd_sweep, computed per grid point."""
    ch = channels.build_n_kick_channel(env, geom, sched, max_kicks=max_kicks)
    uf_norm = np.nan
    try:
        uf_norm = float(np.linalg.norm(analysis.fixed_point(ch).u_f))
    except SpinKickError:
        pass
    out = {
        "purity_final": analysis.purity(ch(u0)),
        "entropy_final": analysis.entropy(ch(u0), base),
        "nonunital_shift": float(np.linalg.norm(ch.affine.shift)),
        "fixed_point_norm": uf_norm,
    }
    commuting, _ = is_commuting_schedule(geom, sched)
    out["commuting"] = 1.0 if commuting else 0.0
    if commuting:
        out["gamma_abs"] = abs(channels.dephasing_gamma(env, geom, sched))
    else:
        out["gamma_abs"] = np.nan
    if len(sched) == 2 and env.is_even:
        try:
            params = channels.two_kick_params(env, geom, sched.times[0], sched.times[1], sched.weights)
            lam = analysis.chi_eigenvalues_two_kick(params.h, params.k)
            out["lambda_min"] = float(lam.min())
        except SpinKickError:
            out["lambda_min"] = np.nan
    else:
        theta_ok = len(sched) >= 2
        if theta_ok:
            shorter = channels.build_n_kick_channel(
                env, geom, KickSchedule(sched.times[:-1], sched.weights[:-1]), max_kicks=max_kicks
            )
            try:
                theta = channels.transition_map(ch, shorter)
                out["lambda_min"] = float(np.linalg.eigvalsh(theta.chi).min())
            except SpinKickError:
                out["lambda_min"] = np.nan
        else:
            out["lambda_min"] = np.nan
    return out


def cmd_sweep(args, cfg: RunConfig) -> int:
    env = cfg.environment()
    geom = cfg.geometry()
    sched = cfg.schedule()
    base = _log_base(args, cfg)
    max_kicks = args.max_kicks or cfg.getint("analysis", "max_kicks", channels.MAX_KICKS_DEFAULT)
    u0 = cfg.initial_state()
    out_dir = _out_dir(args, cfg)
    prefix = _prefix(cfg)

    parameter = cfg.getstr("sweep", "parameter")
    if parameter is None:
        raise ConfigError("[sweep] parameter is required")
    start = cfg.getfloat("sweep", "start")
    stop = cfg.getfloat("sweep", "stop")
    count = cfg.getint("sweep", "count")
    if start is None or stop is None or count is None or count < 2:
        raise ConfigError("[sweep] start, stop and count >= 2 are required")
    wanted = (cfg.getstr("sweep", "quantities") or "gamma_abs purity_final lambda_min").split()

    parameter2 = cfg.getstr("sweep", "parameter2")
    if parameter2 is not None:
        start2 = cfg.getfloat("sweep", "start2")
        stop2 = cfg.getfloat("sweep", "stop2")
        count2 = cfg.getint("sweep", "count2")
        if start2 is None or stop2 is None or count2 is None or count2 < 2:
            raise ConfigError("[sweep] start2, stop2 and count2 >= 2 are required")
        grid2 = np.linspace(start2, stop2, count2)
    else:
        grid2 = [None]

    grid = np.linspace(start, stop, count)
    header = parameter + ("," + parameter2 if parameter2 else "") + "," + ",".join(wanted)
    rows = [header]
    for value in grid:
        for value2 in grid2:
            env_v, geom_v, sched_v = _apply_sweep_value(cfg, env, geom, sched, parameter, value)
            cells = [_fmt(value)]
            if parameter2 is not None:
                env_v, geom_v, sched_v = _apply_sweep_value(
                    cfg, env_v, geom_v, sched_v, parameter2, value2
                )
                cells.append(_fmt(value2))
            quantities = _sweep_quantities(env_v, geom_v, sched_v, u0, base, max_kicks)
            unknown = [q for q in wanted if q not in quantities]
            if unknown:
                raise ConfigError(
                    f"unknown sweep quantities {unknown}; available: {sorted(quantities)}"
                )
            rows.append(",".join(cells + [_fmt(quantities[q]) for q in wanted]))
    write_text_atomic(os.path.join(out_dir, f"{prefix}_sweep.csv"), "\n".join(rows) + "\n")
    print(f"wrote {prefix}_sweep.csv ({len(rows) - 1} rows) in {out_dir}")
    return EXIT_OK


def cmd_oracle_check(args, cfg: RunConfig) -> int:
    env = cfg.environment()
    if not isinstance(env, SingleModeThermal):
        raise ConfigError("oracle-check requires the single_mode_thermal environment")
    geom = cfg.geometry()
    sched = cfg.schedule()
    tol = args.tol or cfg.getfloat("oracle", "tol", 1e-8)
    if not tol > 0:
        raise ConfigError(f"[oracle] tol must be positive, got {tol!r}")
    max_kicks = args.max_kicks or cfg.getint("analysis", "max_kicks", channels.MAX_KICKS_DEFAULT)
    out_dir = _out_dir(args, cfg)
    prefix = _prefix(cfg)
    mode = cfg.getstr("oracle", "mode", "kicks")
    if mode not in ("kicks", "nascent"):
        raise ConfigError(f"[oracle] mode must be 'kicks' or 'nascent', got {mode!r}")
    dim = cfg.getint("oracle", "dim")
    with _bad_values("oracle"):
        spec = oracle.fock_spec_for(env, dim)
    analytic = channels.build_n_kick_channel(env, geom, sched, max_kicks=max_kicks)

    if mode == "nascent":
        deltas = cfg.getvec("oracle", "deltas")
        if deltas is None or len(deltas) == 0:
            base_dt = cfg.getfloat("oracle", "delta_t", 0.064)
            deltas = [base_dt, base_dt / 2, base_dt / 4, base_dt / 8]
        steps = cfg.getint("oracle", "steps_per_kick", 48)
        if steps < 1:
            raise ConfigError(f"[oracle] steps_per_kick must be at least 1, got {steps}")
        shape = cfg.getstr("oracle", "shape", "gaussian")
        if shape not in oracle.PULSE_SHAPES:
            raise ConfigError(f"[oracle] shape must be one of {sorted(oracle.PULSE_SHAPES)}, got {shape!r}")
        rows = ["delta_t,distance"]
        dists = []
        for dt in deltas:
            ch = oracle.nascent_delta_channel(
                spec, geom, sched.times, dt, steps_per_kick=steps, shape=shape, weights=sched.weights
            )
            d = oracle.channel_distance(analytic, ch)
            dists.append(d)
            rows.append(f"{_fmt(dt)},{_fmt(d)}")
            print(f"delta_t={dt:g}  distance={d:.3e}")
        write_text_atomic(os.path.join(out_dir, f"{prefix}_nascent.csv"), "\n".join(rows) + "\n")
        final = dists[-1]
        if final > tol:
            print(f"FAIL: finest distance {final:.3e} > tolerance {tol:g}")
            return EXIT_CHECK
        print(f"OK: finest distance {final:.3e} <= tolerance {tol:g}")
        return EXIT_OK

    max_dim = cfg.getint("oracle", "dim_max", 300)
    orc = oracle.oracle_channel(spec, geom, sched, stability_tol=min(tol, 1e-8), max_dim=max_dim)
    dist = oracle.channel_distance(analytic, orc)
    rows = ["dim,stability,distance_to_analytic"]
    for step_dim, step_dist in orc.meta["history"]:
        rows.append(f"{step_dim},{_fmt(step_dist)},")
    rows.append(f"{orc.meta['dim']},{_fmt(orc.meta['stability'])},{_fmt(dist)}")
    write_text_atomic(os.path.join(out_dir, f"{prefix}_oracle.csv"), "\n".join(rows) + "\n")
    for step_dim, step_dist in orc.meta["history"]:
        print(f"dim={step_dim}  change={step_dist:.3e}")
    print(
        f"oracle dim={orc.meta['dim']} stability={orc.meta['stability']:.3e} "
        f"tail={orc.meta['tail']:.3e} distance={dist:.3e}"
    )
    if dist > tol:
        print(f"FAIL: distance {dist:.3e} > tolerance {tol:g}")
        return EXIT_CHECK
    print(f"OK: distance {dist:.3e} <= tolerance {tol:g}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinkick",
        description="Exact qubit channels from delta-kick couplings to a Gaussian environment",
    )
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=int, help="accepted for compatibility; nothing is sampled")
    parser.add_argument("--log-base", choices=["e", "2"], dest="log_base", help="entropy log base")
    parser.add_argument("--tol", type=float, help="tolerance override for checks")
    parser.add_argument("--max-kicks", type=int, dest="max_kicks", help="enumeration budget override")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="build channels, write trajectory CSV and channel file")
    sub.add_parser("divisibility", help="transition-map CP/P analysis")
    sub.add_parser("sweep", help="grid sweep over one parameter, CSV output")
    sub.add_parser("oracle-check", help="compare against the truncated Fock oracle")
    sub.add_parser("fixed-point", help="fixed point of one round of kicks")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "divisibility": cmd_divisibility,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
    "fixed-point": cmd_fixed_point,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
        code = _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationNotConverged as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except SpinKickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
