"""Config-driven command-line front end.

Commands: simulate, divisibility, sweep, oracle-check, fixed-point.  Each
reads one INI-style config file (grammar in the README; docs/example-run.cfg
lists every key).  ``_SCHEMA`` declares each section and key once, with the
parser of its text and its default.  The defaults are parsed once, at
import (``_DEFAULTS``); ``RunConfig`` parses every key the file gives when
it reads the file, and --tol, --max-kicks, --log-base and --out go through
the same parsers, so a bad value anywhere stops the run before a command
starts.  Commands compute and ``main`` writes: each ``cmd_*`` returns its
exit code, the files of its run as ``{suffix: text}`` and its stdout text,
and prints and writes nothing itself.  ``main`` writes those files, each
atomically (write-then-rename), once the command and the reports simulate
toggles on have returned and no target is an existing directory, and then
the stdout text.  So a command that raises writes no file and prints
nothing on stdout (its error line goes to stderr), and an oracle-check over
its tolerance writes its report, prints its verdict and exits 5.  Every
failure class maps to a documented exit code:

    0  success
    2  config error (parse failure, unknown section or key, a bad value in
       any section or flag)
    3  I/O error
    4  domain error (library exceptions: TooManyKicks, SingularChannel,
       InvalidMap, ..., and an array too large to allocate)
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
import cmath
import configparser
import contextlib
import errno
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import analysis, channels, oracle
from .environment import SingleModeThermal, TabulatedKernel, WhiteKickKernel, parse_complex
from .errors import ConfigError, LengthMismatch, NonUnitVector, SpinKickError, TruncationNotConverged
from .kicks import InteractionGeometry, KickSchedule, is_commuting_schedule
from .pauli import is_physical_bloch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_CHECK = 5


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_text_atomic(path: str, content: str) -> None:
    """Write via a temp file (mode 0600) in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
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


# ---------------------------------------------------------------------------
# value parsers: config text -> typed value, ValueError on a bad one


def _finite(convert, what: str):
    """``convert``, for a finite value; ``what`` names the expected kind."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise ValueError(f"not {what}: {raw!r}") from None
        if not isinstance(value, int) and not cmath.isfinite(value):
            raise ValueError(f"not finite: {raw!r}")
        return value

    return parse


_real = _finite(float, "a number")
_integer = _finite(int, "an integer")
_complex = _finite(parse_complex, "a complex number a+bi")


def _vector(raw: str) -> np.ndarray:
    return np.array([_real(x) for x in raw.split()])


def _bloch_vector(raw: str) -> np.ndarray:
    u = _vector(raw)
    if u.shape != (3,):
        raise ValueError(f"needs 3 components, got {len(u)}")
    if not is_physical_bloch(u):
        raise ValueError(f"|u| = {math.hypot(*u):.17g} lies outside the Bloch ball")
    return u


def _at_least(parse, lower, strict: bool = False):
    """``parse``, then require every value >= lower (> lower when strict)."""

    def bounded(raw: str):
        value = parse(raw)
        if np.any(np.asarray(value) <= lower if strict else np.asarray(value) < lower):
            raise ValueError(f"must be {'>' if strict else '>='} {lower}, got {raw!r}")
        return value

    return bounded


def _choice(options):
    """One word of ``options``: a tuple of words, or a dict from word to value."""
    mapping = options if isinstance(options, dict) else dict(zip(options, options))

    def choose(raw: str):
        if raw not in mapping:
            raise ValueError(f"must be one of {', '.join(mapping)}; got {raw!r}")
        return mapping[raw]

    return choose


_booleans = _choice(configparser.ConfigParser.BOOLEAN_STATES)


def _bool(raw: str) -> bool:
    return _booleans(raw.lower())


_SWEEPABLE = ("nbar", "omega", "Omega", "gap", "variance", "scale")
_SWEEP_QUANTITIES = (
    "gamma_abs", "purity_final", "entropy_final", "lambda_min", "nonunital_shift", "fixed_point_norm", "commuting"
)
_DEFAULT_QUANTITIES = "gamma_abs purity_final lambda_min"


def _quantities(raw: str) -> tuple[str, ...]:
    """Names from _SWEEP_QUANTITIES; a blank value asks for the default list."""
    names = tuple((raw or _DEFAULT_QUANTITIES).split())
    unknown = [q for q in names if q not in _SWEEP_QUANTITIES]
    if unknown:
        raise ValueError(f"unknown {unknown}; available: {sorted(_SWEEP_QUANTITIES)}")
    return names


_positive_real = _at_least(_real, 0, strict=True)


def _path_part(raw: str) -> str:
    """Text for a file path: no path can hold a NUL byte."""
    if "\0" in raw:
        raise ValueError(f"holds a NUL byte: {raw!r}")
    return raw


# Every section and key of a run config: the parser of its text and its
# default text.  A default of None means the key has none: the command that
# needs the key requires it, or the library picks the value.
_SCHEMA = {
    "environment": {
        "model": (_choice(("single_mode_thermal", "white_kick", "tabulated")), None),
        "omega": (_real, None),
        "nbar": (_real, "0"),
        "beta": (_real, None),
        "displacement": (_complex, "0+0i"),
        "variance": (_real, None),
        "path": (str, None),
    },
    "geometry": {"h": (_vector, None), "alpha": (_vector, None), "Omega": (_real, None)},
    "schedule": {"times": (_vector, ""), "weights": (_vector, None)},
    "initial_state": {"u": (_bloch_vector, "0 0 1")},
    "analysis": {
        "divisibility": (_bool, "false"),
        "fixed_point": (_bool, "false"),
        "oracle_check": (_bool, "false"),
        "entropy": (_bool, "true"),
        "log_base": (_choice({"e": None, "2": 2.0}), "e"),
        "tol": (_positive_real, repr(channels.PSD_TOL)),
        "max_kicks": (_at_least(_integer, 0), str(channels.MAX_KICKS_DEFAULT)),
        "sphere_samples": (str, None),  # accepted, unused: positivity is exact
        "seed": (str, None),  # accepted, unused: nothing is sampled
    },
    "divisibility": {
        "mode": (_choice(("auto", "two_kick", "dephasing")), "auto"),
        "n": (_integer, "1"),
        "m": (_integer, None),  # the schedule length
    },
    "oracle": {
        "dim": (_at_least(_integer, 2), None),  # oracle.fock_spec_for's estimate
        "dim_max": (_integer, "300"),
        "tol": (_positive_real, "1e-8"),
        "mode": (_choice(("kicks", "nascent")), "kicks"),
        "delta_t": (_positive_real, "0.064"),
        "deltas": (_at_least(_vector, 0, strict=True), None),  # delta_t halved 3x
        "steps_per_kick": (_at_least(_integer, 1), "48"),
        "shape": (_choice(tuple(oracle.PULSE_SHAPES)), "gaussian"),
    },
    "sweep": {
        "parameter": (_choice(_SWEEPABLE), None),
        "start": (_real, None),
        "stop": (_real, None),
        "count": (_at_least(_integer, 2), None),
        "parameter2": (_choice(_SWEEPABLE), None),
        "start2": (_real, None),
        "stop2": (_real, None),
        "count2": (_at_least(_integer, 2), None),
        "quantities": (_quantities, _DEFAULT_QUANTITIES),
    },
    "output": {
        "dir": (lambda raw: os.path.join(os.getcwd(), _path_part(raw)), "out"),
        "prefix": (_path_part, "spinkick"),
    },
}


def _shared(value):
    """A parsed default as every config shares it: arrays read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


# The value of every key of _SCHEMA but [output] dir, parsed once: None where
# the key has no default.  The default of [output] dir joins the working
# directory when a config is read, so each config parses it.
_DEFAULTS = {
    (section, key): None if default is None else _shared(parse(default))
    for section, keys in _SCHEMA.items()
    for key, (parse, default) in keys.items()
    if (section, key) != ("output", "dir")
}

# The config keys that each command-line flag overrides.
_FLAG_KEYS = {
    "--out": (("output", "dir"),),
    "--log-base": (("analysis", "log_base"),),
    "--tol": (("analysis", "tol"), ("oracle", "tol")),
    "--max-kicks": (("analysis", "max_kicks"),),
}


def _parse(section: str, key: str, raw: str, origin: str = ""):
    try:
        return _SCHEMA[section][key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}{origin}: {exc}") from exc


@contextlib.contextmanager
def _bad_values(section: str):
    """Report the value errors of the model constructors as config errors."""
    try:
        yield
    except (ValueError, NonUnitVector, LengthMismatch) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class RunConfig:
    """A run configuration: the typed value of every key of ``_SCHEMA``.

    Unknown sections and keys and bad values are rejected when the file is
    read.  ``cfg[section, key]`` is the value, the default where the file
    does not give the key, and None where the key has no default.
    """

    def __init__(self, parser: configparser.ConfigParser, base_dir: str):
        if parser.defaults():
            raise ConfigError("a [DEFAULT] section is not allowed: it would copy its keys into every section")
        given = {}
        try:
            for section in parser.sections():
                if section not in _SCHEMA:
                    raise ConfigError(f"unknown config section [{section}]")
                for key, raw in parser[section].items():
                    if key not in _SCHEMA[section]:
                        raise ConfigError(f"unknown key '{key}' in section [{section}]")
                    given[section, key] = raw
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        self._values = {}
        for section, keys in _SCHEMA.items():
            for key, (_, default) in keys.items():
                if (section, key) in given:
                    self._values[section, key] = _parse(section, key, given[section, key])
                elif (section, key) in _DEFAULTS:
                    self._values[section, key] = _DEFAULTS[section, key]
                else:
                    self._values[section, key] = _parse(section, key, default)
        self.base_dir = base_dir

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str  # keep case (Omega vs omega)
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls(parser, os.path.dirname(os.path.abspath(path)))

    def __getitem__(self, section_key: tuple[str, str]):
        return self._values[section_key]

    def override(self, section: str, key: str, raw: str, flag: str) -> None:
        """Set a key from a command-line flag's text, through the key's parser."""
        self._values[section, key] = _parse(section, key, raw, f" ({flag})")

    # object builders -------------------------------------------------------

    def environment(self):
        model = self["environment", "model"]
        if model is None:
            raise ConfigError("[environment] model is required")
        if model == "single_mode_thermal":
            omega = self["environment", "omega"]
            if omega is None:
                raise ConfigError("[environment] omega is required for single_mode_thermal")
            nbar, beta, disp = (self["environment", key] for key in ("nbar", "beta", "displacement"))
            with _bad_values("environment"):
                return SingleModeThermal(omega=omega, nbar=nbar, beta=beta, displacement=disp)
        if model == "white_kick":
            v = self["environment", "variance"]
            if v is None:
                raise ConfigError("[environment] variance is required for white_kick")
            with _bad_values("environment"):
                return WhiteKickKernel(v)
        path = self["environment", "path"]
        if path is None:
            raise ConfigError("[environment] path is required for tabulated")
        with _bad_values("environment"):
            return TabulatedKernel.from_file(os.path.join(self.base_dir, path))

    def geometry(self) -> InteractionGeometry:
        h, alpha, gap = (self["geometry", key] for key in ("h", "alpha", "Omega"))
        if h is None or alpha is None or gap is None:
            raise ConfigError("[geometry] h, alpha and Omega are all required")
        with _bad_values("geometry"):
            return InteractionGeometry(h=h, alpha=alpha, omega=gap)

    def schedule(self) -> KickSchedule:
        with _bad_values("schedule"):
            return KickSchedule(self["schedule", "times"], self["schedule", "weights"])


def _head(sched: KickSchedule, k: int) -> KickSchedule:
    """The first k kicks of a schedule."""
    return KickSchedule(sched.times[:k], sched.weights[:k])


class _Train:
    """A run's environment, geometry and schedule, and the exact channel of
    each prefix of the schedule, all from one ``build_prefix_channels`` pass:
    the reports simulate toggles on reuse the channels of its trajectory."""

    def __init__(self, cfg: RunConfig):
        self.env, self.geom, self.sched = cfg.environment(), cfg.geometry(), cfg.schedule()
        self._max_kicks = cfg["analysis", "max_kicks"]
        self._prefixes = None

    def channel(self, k: int | None = None) -> channels.QubitMap:
        """The channel of the first k kicks; of the whole schedule by default.

        The first request runs the pass over the whole schedule, which
        refuses a schedule longer than ``max_kicks`` with TooManyKicks
        before it builds anything."""
        if self._prefixes is None:
            self._prefixes = channels.build_prefix_channels(self.env, self.geom, self.sched, max_kicks=self._max_kicks)
        return self._prefixes[len(self.sched) if k is None else k]


# ---------------------------------------------------------------------------
# commands

# What a command returns: its exit code, the files main writes for it, each
# {suffix: text} at <[output] dir>/<[output] prefix>_<suffix>, and the stdout
# text main prints once they exist (whole lines; "" for none).
_Outcome = tuple[int, dict[str, str], str]


def cmd_simulate(cfg: RunConfig, train: _Train) -> _Outcome:
    sched = train.sched
    base = cfg["analysis", "log_base"]
    with_entropy = cfg["analysis", "entropy"]
    u0 = cfg["initial_state", "u"]
    out, prefix = cfg["output", "dir"], cfg["output", "prefix"]

    def row(k, t, u):
        s = analysis.entropy(u, base) if with_entropy else float("nan")
        return f"{k}," + ",".join(_fmt(v) for v in (t, u[0], u[1], u[2], analysis.purity(u), s))

    rows = ["kick_index,t,u_x,u_y,u_z,purity,entropy", row(0, sched.times[0] if len(sched) else 0.0, u0)]
    for k in range(1, len(sched) + 1):
        rows.append(row(k, sched.times[k - 1], train.channel(k)(u0)))
    code, said = EXIT_OK, ""
    files = {"trajectory.csv": "\n".join(rows) + "\n", "channel.txt": channels.format_channel(train.channel())}

    # the follow-on reports toggled in [analysis]; divisibility needs 2 kicks
    toggled = {"divisibility": cmd_divisibility, "fixed_point": cmd_fixed_point, "oracle_check": cmd_oracle_check}
    for key, report in toggled.items():
        if cfg["analysis", key] and (key != "divisibility" or len(sched) >= 2):
            report_code, report_files, report_said = report(cfg, train)
            code, said = max(code, report_code), said + report_said
            files.update(report_files)
    return code, files, said + f"wrote {prefix}_trajectory.csv and {prefix}_channel.txt in {out}\n"


def cmd_fixed_point(cfg: RunConfig, train: _Train) -> _Outcome:
    res = analysis.fixed_point(train.channel())
    lines = [
        "u_f=" + " ".join(_fmt(x) for x in res.u_f),
        f"spectral_radius={_fmt(res.spectral_radius)}",
        f"converged={str(res.converged).lower()}",
        f"unique={str(res.unique).lower()}",
        f"residual={_fmt(res.residual)}",
    ]
    text = "\n".join(lines) + "\n"
    return EXIT_OK, {"fixed_point.txt": text}, text


def cmd_divisibility(cfg: RunConfig, train: _Train) -> _Outcome:
    env, geom, sched = train.env, train.geom, train.sched
    mode = cfg["divisibility", "mode"]
    commuting, _ = is_commuting_schedule(geom, sched) if len(sched) else (False, None)
    if mode == "auto":
        mode = "dephasing" if commuting and len(sched) >= 2 else "two_kick"

    if mode == "dephasing":
        if not commuting:
            raise ConfigError("dephasing divisibility requires a synchronized schedule")
        n, m = cfg["divisibility", "n"], cfg["divisibility", "m"]
        m = len(sched) if m is None else m
        if not 1 <= n < m <= len(sched):
            raise ConfigError(f"need 1 <= n < m <= {len(sched)}, got n={n}, m={m}")
        gam_n = channels.dephasing_gamma(env, geom, _head(sched, n))
        gam_m = channels.dephasing_gamma(env, geom, _head(sched, m))
        report = analysis.dephasing_divisibility(gam_m, gam_n)
    else:
        if len(sched) < 2:
            raise ConfigError("divisibility needs a schedule with at least 2 kicks")
        params = None
        if len(sched) == 2 and env.is_even:
            # report lines only, wherever the closed form is defined (axes not
            # parallel, cosh and sinh in range); the channels stay the pass's
            with contextlib.suppress(SpinKickError):
                params = channels.two_kick_params(env, geom, *sched.times, sched.weights)
        longer, shorter = train.channel(), train.channel(len(sched) - 1)
        report = analysis.divisibility_report(longer, shorter, tol=cfg["analysis", "tol"], closed_form=params)

    text = report.to_text()
    return EXIT_OK, {"divisibility.txt": text, "divisibility.kv": report.to_kv()}, text


def _apply_sweep_value(env, geom, sched, parameter, value):
    if parameter in ("nbar", "omega") and not isinstance(env, SingleModeThermal):
        raise ConfigError(f"sweep parameter {parameter!r} needs the single_mode_thermal model")
    if parameter == "variance" and not isinstance(env, WhiteKickKernel):
        raise ConfigError("sweep parameter 'variance' needs the white_kick model")
    if parameter in ("gap", "scale") and len(sched) == 0:
        raise ConfigError(f"sweep parameter {parameter!r} needs a non-empty schedule")
    # a time or weight that overflows to inf is refused by KickSchedule
    with _bad_values("sweep"), np.errstate(over="ignore"):
        if parameter == "nbar":
            env = SingleModeThermal(env.omega, nbar=value, displacement=env.displacement)
        elif parameter == "omega":
            env = SingleModeThermal(value, nbar=env.nbar, beta=env.beta, displacement=env.displacement)
        elif parameter == "variance":
            env = WhiteKickKernel(value)
        elif parameter == "Omega":
            geom = InteractionGeometry(geom.h, geom.alpha, value)
        elif parameter == "gap":
            sched = KickSchedule(sched.times[0] + value * np.arange(len(sched)), sched.weights)
        else:  # scale
            sched = KickSchedule(sched.times, sched.weights * value)
    return env, geom, sched


def _sweep_quantities(env, geom, sched, u0, base, max_kicks, wanted, builds):
    """The scalar observables of cmd_sweep named in ``wanted``, at one grid
    point.  Each is computed only when asked for: the channel is built once,
    and the (n-1)-kick prefix, the transition map and the fixed point only
    for the quantities that need them.  ``builds`` are the builders of the
    channel and of its prefix (``channels.reusing_builder``)."""
    build, build_head = builds
    kicks = functools.cache(lambda: channels.KickInputs.of(env, geom, sched))
    ch = build(kicks, len(sched), max_kicks)
    commuting = functools.cache(lambda: is_commuting_schedule(geom, sched)[0])

    def fixed_point_norm():
        try:
            return float(np.linalg.norm(analysis.fixed_point(ch).u_f))
        except SpinKickError:
            return np.nan

    def lambda_min():
        if len(sched) < 2:
            return np.nan
        shorter = build_head(lambda: kicks().head(len(sched) - 1), len(sched) - 1, max_kicks)
        try:
            theta = channels.transition_map(ch, shorter)
        except SpinKickError:
            return np.nan
        return float(channels.choi_eigenvalues(theta)[0])

    formulas = {
        "purity_final": lambda: analysis.purity(ch(u0)),
        "entropy_final": lambda: analysis.entropy(ch(u0), base),
        "nonunital_shift": lambda: float(np.linalg.norm(ch.shift)),
        "fixed_point_norm": fixed_point_norm,
        "commuting": lambda: 1.0 if commuting() else 0.0,
        "gamma_abs": lambda: abs(channels.dephasing_gamma(env, geom, sched)) if commuting() else np.nan,
        "lambda_min": lambda_min,
    }
    return {q: formulas[q]() for q in dict.fromkeys(wanted)}


def _grid_points(count: int) -> int:
    """``count``, the points of a float64 grid; past sys.maxsize bytes, where
    numpy raises ValueError, refused as out of memory before numpy sees it."""
    if 8 * count > sys.maxsize:
        raise MemoryError(f"Unable to allocate {8 * count} bytes for a grid of {count} points")
    return count


def _sweep_grid(cfg: RunConfig, suffix: str = "") -> np.ndarray:
    start, stop, count = (cfg["sweep", key + suffix] for key in ("start", "stop", "count"))
    if start is None or stop is None or count is None:
        raise ConfigError(f"[sweep] start{suffix}, stop{suffix} and count{suffix} are required")
    return np.linspace(start, stop, _grid_points(count))


def cmd_sweep(cfg: RunConfig, train: _Train) -> _Outcome:
    """One CSV row of the requested quantities per grid point, over
    ``parameter`` and, when given, ``parameter2`` (the inner loop).

    Each point's channel, and its (n-1)-kick head for ``lambda_min``, comes
    from the 4^n enumeration of the point's ``channels.KickInputs`` and its
    ``head(n - 1)`` through a ``channels.reusing_builder``, one for the
    channels and one for the heads: each takes the previous point's axis
    part again while the axes are the same bytes.  Grids over ``nbar``,
    ``omega``, ``variance`` and ``scale`` keep them; ``Omega`` and ``gap``
    change them at every point (unless Omega is 0), so a 2D grid reuses
    along an inner loop that keeps them.  Every cell is
    byte-identical to a fresh ``build_n_kick_channel`` at every point.
    """
    base = cfg["analysis", "log_base"]
    max_kicks = cfg["analysis", "max_kicks"]
    u0 = cfg["initial_state", "u"]
    out_dir, prefix = cfg["output", "dir"], cfg["output", "prefix"]

    parameter = cfg["sweep", "parameter"]
    if parameter is None:
        raise ConfigError("[sweep] parameter is required")
    grid = _sweep_grid(cfg)
    wanted = cfg["sweep", "quantities"]
    parameter2 = cfg["sweep", "parameter2"]
    grid2 = _sweep_grid(cfg, "2") if parameter2 is not None else [None]

    rows = [",".join([parameter, *([parameter2] if parameter2 else []), *wanted])]
    builds = (channels.reusing_builder(), channels.reusing_builder())
    for value in grid:
        for value2 in grid2:
            env_v, geom_v, sched_v = _apply_sweep_value(train.env, train.geom, train.sched, parameter, value)
            cells = [_fmt(value)]
            if parameter2 is not None:
                env_v, geom_v, sched_v = _apply_sweep_value(env_v, geom_v, sched_v, parameter2, value2)
                cells.append(_fmt(value2))
            quantities = _sweep_quantities(env_v, geom_v, sched_v, u0, base, max_kicks, wanted, builds)
            rows.append(",".join(cells + [_fmt(quantities[q]) for q in wanted]))
    wrote = f"wrote {prefix}_sweep.csv ({len(rows) - 1} rows) in {out_dir}\n"
    return EXIT_OK, {"sweep.csv": "\n".join(rows) + "\n"}, wrote


def cmd_oracle_check(cfg: RunConfig, train: _Train) -> _Outcome:
    env, geom, sched = train.env, train.geom, train.sched
    if not isinstance(env, SingleModeThermal):
        raise ConfigError("oracle-check requires the single_mode_thermal environment")
    tol = cfg["oracle", "tol"]
    spec = oracle.fock_spec_for(env, cfg["oracle", "dim"])
    analytic = train.channel()

    if cfg["oracle", "mode"] == "nascent":
        dim_max = cfg["oracle", "dim_max"]
        if spec.dim > dim_max:
            raise TruncationNotConverged(f"nascent truncation dim {spec.dim} exceeds dim_max {dim_max}")
        deltas = cfg["oracle", "deltas"]
        if deltas is None or len(deltas) == 0:
            base_dt = cfg["oracle", "delta_t"]
            deltas = [base_dt, base_dt / 2, base_dt / 4, base_dt / 8]
        steps, shape = _grid_points(cfg["oracle", "steps_per_kick"]), cfg["oracle", "shape"]
        chans = oracle.nascent_delta_channels(spec, geom, sched, deltas, steps_per_kick=steps, shape=shape)
        name, rows, dists, said = "nascent.csv", ["delta_t,distance"], [], []
        for dt, ch in zip(deltas, chans):
            d = oracle.channel_distance(analytic, ch)
            dists.append((dt, d))
            rows.append(f"{_fmt(dt)},{_fmt(d)}")
            said.append(f"delta_t={dt:g}  distance={d:.3e}")
        judged, dist = "finest distance", min(dists)[1]  # at the narrowest width, wherever the config lists it
    else:
        orc = oracle.oracle_channel(
            spec, geom, sched, stability_tol=min(tol, 1e-8), max_dim=cfg["oracle", "dim_max"]
        )
        judged, dist = "distance", oracle.channel_distance(analytic, orc)
        name, rows, said = "oracle.csv", ["dim,stability,distance_to_analytic"], []
        for step_dim, step_dist in orc.meta["history"]:
            rows.append(f"{step_dim},{_fmt(step_dist)},")
            said.append(f"dim={step_dim}  change={step_dist:.3e}")
        rows.append(f"{orc.meta['dim']},{_fmt(orc.meta['stability'])},{_fmt(dist)}")
        said.append(
            f"oracle dim={orc.meta['dim']} stability={orc.meta['stability']:.3e} "
            f"tail={orc.meta['tail']:.3e} distance={dist:.3e}"
        )
    failed = dist > tol
    said.append(f"{'FAIL' if failed else 'OK'}: {judged} {dist:.3e} {'>' if failed else '<='} tolerance {tol:g}")
    return EXIT_CHECK if failed else EXIT_OK, {name: "\n".join(rows) + "\n"}, "\n".join(said) + "\n"


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, and building it costs about as much as a short command."""
    parser = argparse.ArgumentParser(
        prog="spinkick",
        description="Exact qubit channels from delta-kick couplings to a Gaussian environment",
    )
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=int, help="accepted for compatibility; nothing is sampled")
    parser.add_argument("--log-base", dest="log_base", metavar="{e,2}", help="entropy log base")
    parser.add_argument("--tol", help="tolerance override for checks")
    parser.add_argument("--max-kicks", dest="max_kicks", metavar="N", help="kick budget of both exact builders")
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
        for flag, keys in _FLAG_KEYS.items():
            raw = getattr(args, flag[2:].replace("-", "_"))
            if raw is not None:
                for section, key in keys:
                    cfg.override(section, key, raw, flag)
        code, files, said = _COMMANDS[args.command](cfg, _Train(cfg))
        out, prefix = cfg["output", "dir"], cfg["output", "prefix"]
        targets = {os.path.join(out, f"{prefix}_{suffix}"): text for suffix, text in files.items()}
        for path in targets:  # a rename onto a directory would fail after earlier files were written
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, text in targets.items():
            write_text_atomic(path, text)
        print(said, end="")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TruncationNotConverged as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except SpinKickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
