"""Output checks for one CLI command against the pool's reference files.

Numbers must agree with the reference within ``ATOL + RTOL * |reference|``
(nan matches nan); verdicts and headers must match exactly.  The compared
values are the ones a user reads off the files: ``A`` and ``b`` of the
channel file, every trajectory and sweep CSV cell, the fixed-point report,
and ``cp_divisible``/``p_divisible``/``lambda_*`` of the divisibility report.
Oracle reports are checked only through the command's exit code, because
the oracle compares itself with the analytic channel.
"""

from __future__ import annotations

import math

ATOL = 1e-9
RTOL = 1e-9


class Mismatch(Exception):
    pass


def _channel(text: str) -> dict:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    i = lines.index("A:")
    a = [float(x) for row in lines[i + 1 : i + 4] for x in row.split()]
    j = lines.index("b:")
    b = [float(x) for x in lines[j + 1].split()]
    return {"A": a, "b": b}


def _csv(text: str) -> dict:
    lines = text.strip().splitlines()
    return {"header": lines[0], "cells": [float(x) for ln in lines[1:] for x in ln.split(",")]}


def _kv(text: str, numeric: tuple, exact: tuple) -> dict:
    pairs = dict(ln.split("=", 1) for ln in text.strip().splitlines())
    out = {}
    for key, value in pairs.items():
        if key in exact:
            out[key] = value
        elif key.startswith(numeric):
            out[key] = [float(x) for x in value.split()]
    return out


def _divisibility(text: str) -> dict:
    return _kv(text, ("lambda_",), ("cp_divisible", "p_divisible"))


def _fixed_point(text: str) -> dict:
    return _kv(text, ("u_f", "spectral_radius"), ("converged", "unique"))


PARSERS = {
    "_channel.txt": _channel,
    "_trajectory.csv": _csv,
    "_sweep.csv": _csv,
    "_divisibility.kv": _divisibility,
    "_fixed_point.txt": _fixed_point,
}


def _compare(got, ref, where: str) -> float:
    """Worst absolute deviation; raises Mismatch beyond the tolerance."""
    if isinstance(ref, dict):
        if set(got) != set(ref):
            raise Mismatch(f"{where}: keys {sorted(got)} != {sorted(ref)}")
        return max((_compare(got[k], ref[k], f"{where}:{k}") for k in ref), default=0.0)
    if isinstance(ref, str):
        if got != ref:
            raise Mismatch(f"{where}: {got!r} != {ref!r}")
        return 0.0
    if len(got) != len(ref):
        raise Mismatch(f"{where}: {len(got)} values, reference has {len(ref)}")
    worst = 0.0
    for i, (x, r) in enumerate(zip(got, ref)):
        if math.isnan(r) or math.isnan(x):
            if not (math.isnan(r) and math.isnan(x)):
                raise Mismatch(f"{where}[{i}]: {x!r} vs reference {r!r}")
            continue
        dev = abs(x - r)
        if dev > ATOL + RTOL * abs(r):
            raise Mismatch(f"{where}[{i}]: {x!r} vs reference {r!r} (deviation {dev:.3e})")
        worst = max(worst, dev)
    return worst


def check_outputs(outputs: dict, reference: dict) -> float:
    """Compare the files a command wrote with the reference files; returns
    the worst numeric deviation, raises Mismatch on any failure."""
    if set(outputs) != set(reference):
        raise Mismatch(f"files {sorted(outputs)} != reference {sorted(reference)}")
    worst = 0.0
    for name, ref_text in reference.items():
        for suffix, parse in PARSERS.items():
            if name.endswith(suffix):
                try:
                    got = parse(outputs[name])
                except (ValueError, IndexError) as exc:
                    raise Mismatch(f"{name}: cannot parse ({exc})") from exc
                worst = max(worst, _compare(got, parse(ref_text), name))
    return worst
