"""Seeded config generators for the three benchmark workloads, and the
reference pool built from them.

Each workload is a set of slots.  A slot fixes what sets the cost of a
command (the CLI command, the kick count, the environment model, the grid
size); the other values (geometry, times, weights, occupation) are drawn
from a generator with a fixed seed.  The pool stores ``MEMBERS`` configs per
slot together with the files the CLI wrote for them, so a run can check every
command's output against a reference made by the program at the commit that
built the pool.

Parameter ranges stay where every command succeeds at that commit.  Wider
ones reach two known limits: small-map trains with occupation above ~1 or
weights above 1 make the inverse of a strongly damped channel fail the
Hermiticity/trace checks of ``validate_map``, which escapes the CLI as a bare
ValueError; and nascent-mode oracle checks exit 5 when the coupling axis
precesses during a pulse, because the finest pulse is then not yet within
tolerance of the delta kick.

Rebuild the pool (only when a workload definition changes):

    python3 bench/pool.py
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the oracle's eigendecompositions
# round differently with more threads, and the pool's reference files must
# come from the configuration the benchmark runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(BENCH_DIR, "refs")
POOL_SEED = 2002_01994
MEMBERS = 3  # configs per slot; a round runs each of them once

ALL_QUANTITIES = (
    "gamma_abs purity_final entropy_final lambda_min nonunital_shift fixed_point_norm commuting"
)


def _num(x: float) -> str:
    return f"{float(x):.17g}"


def _vec(v) -> str:
    return " ".join(_num(x) for x in v)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _times(rng, n, lo=0.1, hi=1.0) -> np.ndarray:
    return rng.uniform(0.0, 0.5) + np.cumsum(rng.uniform(lo, hi, size=n))


def _config(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def _thermal(rng, nbar, displaced: bool) -> dict:
    env = {"model": "single_mode_thermal", "omega": _num(rng.uniform(0.5, 2.0)), "nbar": _num(nbar)}
    if displaced:
        d = rng.uniform(0.2, 0.6) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        env["displacement"] = f"{d.real:.17g}{d.imag:+.17g}i"
    return env


def _geometry(rng, gap=None, perpendicular=False) -> dict:
    gap = rng.uniform(0.3, 2.0) if gap is None else gap
    h, alpha = _unit(rng), _unit(rng)
    if perpendicular:
        alpha -= (alpha @ h) * h
        alpha /= np.linalg.norm(alpha)
    return {"h": _vec(h), "alpha": _vec(alpha), "Omega": _num(gap)}


def _schedule(times, weights) -> dict:
    return {"times": _vec(times), "weights": _vec(weights)}


def _initial_state(rng) -> dict:
    return {"u": _vec(_unit(rng) * rng.uniform(0.5, 1.0))}


def _tabulated_kernel(rng, times) -> str:
    """Kernel file on the schedule's grid: a sum of two thermal modes plus a
    little white noise, so the covariance is Hermitian and PSD."""
    t = np.asarray(times)
    cov = np.zeros((len(t), len(t)), dtype=complex)
    for _ in range(2):
        w, nbar, amp = rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.1, 0.25)
        d = w * (t[:, None] - t[None, :])
        cov += amp * ((2.0 * nbar + 1.0) * np.cos(d) - 1j * np.sin(d))
    cov += np.eye(len(t)) * rng.uniform(0.0, 0.05)
    mean = rng.uniform(-0.3, 0.3, size=len(t)) if rng.uniform() < 0.5 else np.zeros(len(t))
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in cov]
    return "\n".join(["times:", _vec(t), "mean:", _vec(mean), "covariance:", *rows]) + "\n"


# ---------------------------------------------------------------------------
# slot generators: each returns (files, extra CLI flags); the config is
# always written as run.cfg and the command appended by the runner


def long_train(rng, n):
    times = _times(rng, n)
    cfg = {
        "environment": _thermal(rng, rng.uniform(0.0, 2.0), displaced=False),
        "geometry": _geometry(rng),
        "schedule": _schedule(times, rng.uniform(0.5, 1.5, size=n)),
        "initial_state": _initial_state(rng),
        "analysis": {"log_base": "e" if rng.uniform() < 0.5 else "2"},
        "output": {"prefix": "run"},
    }
    return {"run.cfg": _config(cfg)}, ["--max-kicks", "11"]


def _sweep_env(rng, env_kind, n):
    """Environment section, schedule times and gap for a small-map command."""
    gap = None
    if env_kind == "synchronized":
        # coupling axis perpendicular to h and kick spacings that are
        # multiples of pi/Omega: every axis is +-r(t_0), an echo sequence
        gap = rng.uniform(0.5, 2.0)
        times = rng.uniform(0.0, 0.5) + (math.pi / gap) * np.cumsum(rng.integers(1, 3, size=n))
        env = _thermal(rng, rng.uniform(0.0, 1.0), displaced=False)
    else:
        times = _times(rng, n, lo=0.2, hi=1.0)
        if env_kind == "white":
            env = {"model": "white_kick", "variance": _num(rng.uniform(0.05, 0.6))}
        elif env_kind == "tabulated":
            env = {"model": "tabulated", "path": "kernel.txt"}
        else:
            env = _thermal(rng, rng.uniform(0.0, 1.0), displaced=env_kind == "displaced")
    return env, times, gap


def small_sweep(rng, n, env_kind, grid):
    env, times, gap = _sweep_env(rng, env_kind, n)
    sweep = {}
    for axis, (param, count) in enumerate(grid):
        lo, hi = {
            "nbar": (0.0, 1.0),
            "omega": (0.5, 2.0),
            "Omega": (0.3, 2.0),
            "gap": (0.2, 1.0),
            "scale": (0.5, 1.5),
            "variance": (0.05, 0.6),
        }[param]
        suffix = "" if axis == 0 else "2"
        sweep.update(
            {
                "parameter" + suffix: param,
                "start" + suffix: _num(lo),
                "stop" + suffix: _num(hi),
                "count" + suffix: str(count),
            }
        )
    sweep["quantities"] = ALL_QUANTITIES
    cfg = {
        "environment": env,
        "geometry": _geometry(rng, gap, perpendicular=env_kind == "synchronized"),
        "schedule": _schedule(times, rng.uniform(0.5, 1.0, size=n)),
        "initial_state": _initial_state(rng),
        "sweep": sweep,
        "output": {"prefix": "run"},
    }
    files = {"run.cfg": _config(cfg)}
    if env_kind == "tabulated":
        files["kernel.txt"] = _tabulated_kernel(rng, times)
    return files, []


def small_divisibility(rng, n, env_kind):
    env, times, gap = _sweep_env(rng, env_kind, n)
    cfg = {
        "environment": env,
        "geometry": _geometry(rng, gap, perpendicular=env_kind == "synchronized"),
        "schedule": _schedule(times, rng.uniform(0.5, 1.0, size=n)),
        "analysis": {"sphere_samples": "10000", "seed": str(int(rng.integers(0, 2**31)))},
        "output": {"prefix": "run"},
    }
    files = {"run.cfg": _config(cfg)}
    if env_kind == "tabulated":
        files["kernel.txt"] = _tabulated_kernel(rng, times)
    return files, []


def oracle_kicks(rng, n, nbar_lo, nbar_hi, displaced):
    cfg = {
        "environment": _thermal(rng, rng.uniform(nbar_lo, nbar_hi), displaced),
        "geometry": _geometry(rng),
        "schedule": _schedule(_times(rng, n), rng.uniform(0.5, 1.5, size=n)),
        "oracle": {"mode": "kicks"},
        "output": {"prefix": "run"},
    }
    return {"run.cfg": _config(cfg)}, []


def oracle_nascent(rng, n):
    # A frozen coupling axis (Omega = 0) lets the smooth pulses converge to
    # the delta kicks at the finest width; spacings exceed the widest pulse.
    cfg = {
        "environment": _thermal(rng, rng.uniform(0.0, 1.0), displaced=False),
        "geometry": _geometry(rng, gap=0.0),
        "schedule": _schedule(_times(rng, n, lo=0.8, hi=1.2), rng.uniform(0.5, 1.0, size=n)),
        "oracle": {"mode": "nascent", "delta_t": "0.064", "tol": "1e-4"},
        "output": {"prefix": "run"},
    }
    return {"run.cfg": _config(cfg)}, []


class Slot(NamedTuple):
    command: str
    generator: Callable
    kwargs: dict
    per_cycle: int = 1  # occurrences in each cycle


class Workload(NamedTuple):
    slots: dict
    # latency percentile reported as the tail: fixed per workload so that it
    # means the same on every run, and chosen so that a run of the
    # benchmark's run_seconds leaves at
    # least ten samples beyond it
    tail_percentile: float
    trace_rounds: int  # rounds in each traced pass


WORKLOADS = {
    "long_trains": Workload(
        {
            "simulate_n9": Slot("simulate", long_train, {"n": 9}),
            "simulate_n10": Slot("simulate", long_train, {"n": 10}, per_cycle=2),
            "simulate_n11": Slot("simulate", long_train, {"n": 11}),
            "fixed_point_n9": Slot("fixed-point", long_train, {"n": 9}),
            "fixed_point_n10": Slot("fixed-point", long_train, {"n": 10}),
            "fixed_point_n11": Slot("fixed-point", long_train, {"n": 11}),
        },
        tail_percentile=75,
        trace_rounds=1,
    ),
    "small_sweeps": Workload(
        {
            "sweep_even_nbar_n3": Slot("sweep", small_sweep, {"n": 3, "env_kind": "even", "grid": [("nbar", 8)]}),
            "sweep_displaced_2d_n2": Slot(
                "sweep", small_sweep, {"n": 2, "env_kind": "displaced", "grid": [("omega", 4), ("gap", 4)]}
            ),
            "sweep_even_2d_n2": Slot(
                "sweep", small_sweep, {"n": 2, "env_kind": "even", "grid": [("Omega", 4), ("scale", 4)]}
            ),
            "sweep_white_n4": Slot("sweep", small_sweep, {"n": 4, "env_kind": "white", "grid": [("variance", 8)]}),
            "sweep_tabulated_n3": Slot(
                "sweep", small_sweep, {"n": 3, "env_kind": "tabulated", "grid": [("scale", 8)]}
            ),
            "sweep_sync_n4": Slot("sweep", small_sweep, {"n": 4, "env_kind": "synchronized", "grid": [("nbar", 8)]}),
            "div_even_n2": Slot("divisibility", small_divisibility, {"n": 2, "env_kind": "even"}),
            "div_displaced_n3": Slot("divisibility", small_divisibility, {"n": 3, "env_kind": "displaced"}),
            "div_white_n4": Slot("divisibility", small_divisibility, {"n": 4, "env_kind": "white"}),
            "div_tabulated_n4": Slot("divisibility", small_divisibility, {"n": 4, "env_kind": "tabulated"}),
            "div_sync_n3": Slot("divisibility", small_divisibility, {"n": 3, "env_kind": "synchronized"}),
        },
        tail_percentile=95,
        trace_rounds=6,
    ),
    "oracle_checks": Workload(
        {
            "kicks_n4_nbar0-3_displaced": Slot(
                "oracle-check", oracle_kicks, {"n": 4, "nbar_lo": 0.0, "nbar_hi": 3.0, "displaced": True}
            ),
            "kicks_n5_nbar0-1": Slot(
                "oracle-check", oracle_kicks, {"n": 5, "nbar_lo": 0.0, "nbar_hi": 1.0, "displaced": False}
            ),
            "kicks_n6_nbar1-2": Slot(
                "oracle-check", oracle_kicks, {"n": 6, "nbar_lo": 1.0, "nbar_hi": 2.0, "displaced": False}
            ),
            "kicks_n7_nbar0-1_displaced": Slot(
                "oracle-check", oracle_kicks, {"n": 7, "nbar_lo": 0.0, "nbar_hi": 1.0, "displaced": True}
            ),
            "kicks_n8_nbar2-3": Slot(
                "oracle-check", oracle_kicks, {"n": 8, "nbar_lo": 2.0, "nbar_hi": 3.0, "displaced": False}
            ),
            "nascent_n2": Slot("oracle-check", oracle_nascent, {"n": 2}),
            "nascent_n3": Slot("oracle-check", oracle_nascent, {"n": 3}),
        },
        tail_percentile=75,
        trace_rounds=1,
    ),
}


def generate(workload: str) -> list[dict]:
    """The pool's configs: MEMBERS per slot, from a seed fixed per workload."""
    rng = np.random.default_rng([POOL_SEED, sorted(WORKLOADS).index(workload)])
    entries = []
    for name, slot in WORKLOADS[workload].slots.items():
        for member in range(MEMBERS):
            files, flags = slot.generator(rng, **slot.kwargs)
            entries.append(
                {"id": f"{name}.{member}", "slot": name, "command": slot.command, "flags": flags, "files": files}
            )
    return entries


def write_inputs(entry: dict, directory: str) -> list[str]:
    """Write an entry's config files into ``directory``; returns the CLI argv."""
    os.makedirs(directory, exist_ok=True)
    for name, text in entry["files"].items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return [
        "--config",
        os.path.join(directory, "run.cfg"),
        "--out",
        os.path.join(directory, "out"),
        *entry["flags"],
        entry["command"],
    ]


def read_outputs(directory: str) -> dict:
    out = os.path.join(directory, "out")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    result = {}
    for name in names:
        with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
            result[name] = fh.read()
    return result


def build_refs(workload: str, cli) -> dict:
    entries = generate(workload)
    work = tempfile.mkdtemp(prefix="refs-", dir=BENCH_DIR)
    try:
        for entry in entries:
            directory = os.path.join(work, entry["id"])
            argv = write_inputs(entry, directory)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{workload} {entry['id']}: exit {code}: {err.getvalue().strip()}")
            entry["outputs"] = read_outputs(directory)
            print(f"{workload} {entry['id']}: ok", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    return {"workload": workload, "pool_seed": POOL_SEED, "members": MEMBERS, "entries": entries}


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
    from spinkick import cli

    os.makedirs(REFS_DIR, exist_ok=True)
    for workload in (sys.argv[1:] or WORKLOADS):
        refs = build_refs(workload, cli)
        with open(os.path.join(REFS_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
