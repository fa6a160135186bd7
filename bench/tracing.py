"""Outside-in tracing of the spinkick modules.

``Tracer.install`` replaces every public function of the seven traced modules
with a timing wrapper, in every namespace that binds it: ``from … import``
copies the binding, so a function is rebound in each module (and in module
level dicts such as the CLI's command table) that holds it, or calls made
inside the library would be missed.  ``uninstall`` puts the originals back.

Each call appends one span ``[name, start, end, parent, command]`` to an
in-memory list; spans of one CLI command share the command id the runner
sets.  A few wrappers also add work counts (terms, points, dimensions,
bytes) computed from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "channels", "analysis", "oracle", "environment", "kicks", "pauli")
# classmethods traced next to the module-level functions: the file parsers
CLASSMETHODS = (("cli", "RunConfig", "from_file"), ("environment", "TabulatedKernel", "from_file"))

GAMMA_BYTES_PER_TERM = 16  # one complex128 gamma(s, s') per sign-vector pair


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_build(counts, fn, args, kwargs, result):
    n = len(_bound(fn, args, kwargs)["sched"])
    if n:
        counts["channels.gamma_terms"] += 4**n
        counts["channels.gamma_bytes_peak"] = max(
            counts["channels.gamma_bytes_peak"], GAMMA_BYTES_PER_TERM * 4**n
        )


def _count_positive(counts, fn, args, kwargs, result):
    """Sphere points evaluated: the analytic witness alone when it already
    leaves the ball, else the witness (if any) plus every sample."""
    a = _bound(fn, args, kwargs)
    m, hint = a["m"], a["m"].meta.get("r_last")
    points = 0 if hint is None else 1
    if hint is None or np.linalg.norm(m.affine.matrix @ np.asarray(hint, float) + m.affine.shift) <= 1.0 + a["tol"]:
        points += a["n_samples"] * (1 if a["rng"] is None else 2)
    counts["analysis.is_positive.points"] += points


def _count_oracle(counts, fn, args, kwargs, result):
    steps = len(result.meta["history"])
    counts["oracle.truncation_steps"] += steps
    counts["oracle.builds"] += steps + 1
    counts["oracle.final_dim_sum"] += result.meta["dim"]


def _count_write(counts, fn, args, kwargs, result):
    counts["cli.write_text_atomic.bytes"] += len(_bound(fn, args, kwargs)["content"].encode("utf-8"))


COUNTERS = {
    "channels.build_n_kick_channel": _count_build,
    "analysis.is_positive": _count_positive,
    "oracle.oracle_channel": _count_oracle,
    "cli.write_text_atomic": _count_write,
}


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall, read."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.scales: dict = {}  # command id -> machine-speed factor
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [vars(self.package)] + [vars(m) for m in modules.values()]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = wrappers[id(value)][1]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers and wrappers[id(v)][0] is v:
                            self._restore.append((value, k, v))
                            value[k] = wrappers[id(v)][1]
        for layer, cls_name, attr in CLASSMETHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(f"{layer}.{cls_name}.{attr}", original.__func__)))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._restore):
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, total_s and self_s per traced function, plus the counts.

        self_s is a span's duration minus the durations of its direct
        children; the library is single-threaded, so children never overlap.
        Durations are CPU times scaled by their command's speed factor, like
        the end-to-end latencies.
        """
        durations = [(s[2] - s[1]) * self.scales.get(s[4], 1.0) for s in self.spans]
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durations):
            if span[3] >= 0:
                child[span[3]] += dur
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for span, dur, inner in zip(self.spans, durations, child):
            calls[span[0]] += 1
            total[span[0]] += dur
            own[span[0]] += dur - inner
        # shares of the time inside cli.main: what a layer's speed-up can
        # save at most, comparable between machines of different speed
        root_s = total.get("cli.main", 0.0) or 1.0
        out = {}
        for name in sorted(calls):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.total_share"] = total[name] / root_s
            out[f"{name}.self_share"] = own[name] / root_s
        counts = dict(self.counts)
        oracle_calls = calls.get("oracle.oracle_channel", 0)
        counts["oracle.useful_ratio"] = oracle_calls / counts["oracle.builds"] if oracle_calls else 0.0
        counts["oracle.final_dim"] = counts.pop("oracle.final_dim_sum", 0) / oracle_calls if oracle_calls else 0.0
        for key in (
            "channels.gamma_terms",
            "channels.gamma_bytes_peak",
            "analysis.is_positive.points",
            "oracle.truncation_steps",
            "oracle.builds",
            "cli.write_text_atomic.bytes",
        ):
            counts.setdefault(key, 0)
        out.update(counts)
        return out

    def write_spans(self, path: str) -> None:
        """All spans as one JSON document: names are interned in a table."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_cpu_s", "end_cpu_s", "parent", "command"],
                    "names": names,
                    "command_speed_factors": self.scales,
                    "spans": rows,
                },
                fh,
            )


TIMED_SUFFIXES = (".total_s", ".self_s", ".total_share", ".self_share")


def repeatable_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly for the same seed: call counts
    and the computed work counts, not times."""
    return {k: v for k, v in metrics.items() if not k.endswith(TIMED_SUFFIXES)}
