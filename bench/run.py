"""End-to-end and per-layer benchmark of the spinkick command line.

    python3 bench/run.py --workload long_trains --seed 1 --seconds 12 --trace 0

Run from the repository root.  The benchmark drives ``spinkick.cli.main``
in-process as a single closed-loop client: the next command starts only when
the previous one has returned.  Inputs are the generated configs of the
reference pool (``bench/refs``, built by ``bench/pool.py``).  A workload is a
set of slots; a cycle runs each slot once (or ``per_cycle`` times) and a
round runs ``pool.MEMBERS`` cycles, which uses every pool config of every slot
equally often.  ``--seed`` orders the slots within each cycle and the configs
within each round.  The loop stops at the first round boundary after
``--seconds`` of command time (at the reference speed, see below), so every
run does the same mix of work.

Every command is checked: exit code 0, outputs equal to the reference within
the tolerance of ``check.py``, and byte-identical files when a config runs
again.

Times are CPU times of the benchmark process (time the hypervisor steals is
not counted), scaled to one reference speed by ``SpeedProbe``: the shared
host's speed drifts by up to 2x within a minute, which the scaling removes
from the reported figures.  The run record keeps the raw CPU and wall-clock
throughput next to them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` reports per-layer metrics from two traced passes over a fixed
number of rounds (their counts must agree exactly), and the tracing overhead
against an untraced closed loop of ``--seconds``.  The last line of standard
output is a JSON object; a full run record and the spans go to
``bench/out/``.
"""

from __future__ import annotations

import pool  # first: it pins the BLAS thread count before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import check
from tracing import Tracer, repeatable_counts

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
WALL_LIMIT_S = 150  # a loop that has not reached --seconds by then stops
TAIL_MIN_BEYOND = 10
PROBE_REF_S = 0.003  # CPU time of one SpeedProbe at the reference speed

# Runs in a fresh interpreter: argv is [src, bench, CLI args...].  Prints the
# CPU time of the set-up and the median of three speed probes run after it.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import spinkick
import spinkick.cli as cli
args = cli.build_parser().parse_args(sys.argv[3:])
cfg = cli.RunConfig.from_file(args.config)
cfg.environment(), cfg.geometry(), cfg.schedule()
setup = time.process_time()
sys.path.insert(0, sys.argv[2])
from run import SpeedProbe
probe = SpeedProbe()
print(setup, probe.measure(3))
"""


def fail_harness(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# command sequence


def rounds(workload, entries, rng):
    """Endless sequence of rounds; each round is a list of cycles."""
    by_slot = {}
    for entry in entries:
        by_slot.setdefault(entry["slot"], []).append(entry)
    template = [name for name, slot in workload.slots.items() for _ in range(slot.per_cycle)]
    while True:
        queues = {}
        for name, slot in workload.slots.items():
            queue = []
            for _ in range(slot.per_cycle):
                queue += rng.sample(by_slot[name], len(by_slot[name]))
            queues[name] = queue
        cycles = []
        for _ in range(pool.MEMBERS):
            order = rng.sample(template, len(template))
            cycles.append([queues[name].pop() for name in order])
        yield cycles


class SpeedProbe:
    """A fixed computation, independent of spinkick, timed between commands.

    Each command's CPU time is multiplied by PROBE_REF_S over the probe's
    CPU time around it, which scales it to one reference speed.
    The probe mixes the kinds of work the workloads do: interpreted Python,
    numpy calls on tiny arrays, BLAS/LAPACK on small dense matrices, and
    streaming over an array larger than the L2 cache.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dense = rng.normal(size=(96, 96)) + 1j * rng.normal(size=(96, 96))
        self.dense, self.herm = dense, (dense + dense.conj().T)[:64, :64]
        self.stream = rng.normal(size=2**18) + 1j * rng.normal(size=2**18)
        self.last = self.measure()

    def _work(self):
        acc = 0
        for i in range(12_500):
            acc += i * i
        x = self.tiny
        for _ in range(150):
            x = np.einsum("ij,jk->ik", x, self.tiny) / 2.0
        self.dense @ self.dense
        np.linalg.eigh(self.herm)
        (self.stream * 0.5).sum()

    def measure(self, repeats: int = 1) -> float:
        """Median CPU time of ``repeats`` runs of the probe, after one
        untimed run that reloads its data into the caches, so that the
        timing does not depend on what the command before it left there."""
        self._work()
        times = []
        for _ in range(repeats):
            start = time.process_time()
            self._work()
            times.append(time.process_time() - start)
        return statistics.median(times)

    def scale(self, interval_s: float) -> float:
        """Speed factor for the ``interval_s`` CPU seconds since the previous
        call; a longer interval gets a longer, more precise probe (about 5%
        of the interval, at most nine runs)."""
        repeats = max(1, min(9, int(interval_s / (20 * PROBE_REF_S))))
        before, self.last = self.last, self.measure(repeats)
        return PROBE_REF_S / (0.5 * (before + self.last))


class Runner:
    """Executes pool entries through the CLI and checks their outputs."""

    def __init__(self, cli, work_dir, probe):
        self.cli, self.probe = cli, probe
        self.work_dir = work_dir
        self.argv = {}
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.worst_deviation = 0.0
        self.checked_repeats = 0
        self.cpu_s = self.wall_s = 0.0
        self.last_scale = 1.0

    def prepare(self, entries):
        for entry in entries:
            self.argv[entry["id"]] = pool.write_inputs(entry, os.path.join(self.work_dir, entry["id"]))

    def execute(self, entry) -> float:
        """Run one command; returns its CPU time at the reference speed and
        records any failure."""
        directory = os.path.join(self.work_dir, entry["id"])
        shutil.rmtree(os.path.join(directory, "out"), ignore_errors=True)
        argv = self.argv[entry["id"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            wall, start = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failed command
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.process_time() - start
            self.wall_s += time.perf_counter() - wall
        self.attempted += 1
        self.cpu_s += elapsed
        self.last_scale = self.probe.scale(elapsed)
        scaled = elapsed * self.last_scale
        try:
            if code != 0:
                raise check.Mismatch(f"exit {code}: {sink.getvalue().strip()[-300:]}")
            outputs = pool.read_outputs(directory)
            digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
            previous = self.digests.get(entry["id"])
            if previous is None:
                self.digests[entry["id"]] = digest
            elif previous != digest:
                raise check.Mismatch("repeated command wrote different bytes")
            else:
                self.checked_repeats += 1
            self.worst_deviation = max(self.worst_deviation, check.check_outputs(outputs, entry["outputs"]))
        except check.Mismatch as exc:
            self.failures.append(f"{entry['id']} ({entry['command']}): {exc}")
        return scaled


def closed_loop(runner, sequence, seconds):
    """Whole rounds until the commands' time at the reference speed reaches
    ``seconds``, so a run does the same number of rounds however fast the
    host is at the moment; returns the latencies of each slot."""
    by_slot, spent = {}, 0.0
    wall_start = time.perf_counter()
    while spent < seconds and time.perf_counter() - wall_start < WALL_LIMIT_S:
        for cycle in next(sequence):
            for entry in cycle:
                latency = runner.execute(entry)
                by_slot.setdefault(entry["slot"], []).append(latency)
                spent += latency
    return by_slot


def throughput(by_slot) -> float:
    return sum(map(len, by_slot.values())) / sum(map(sum, by_slot.values()))


def fixed_rounds(runner, sequence, n_rounds):
    by_slot = {}
    for _ in range(n_rounds):
        for cycle in next(sequence):
            for entry in cycle:
                by_slot.setdefault(entry["slot"], []).append(runner.execute(entry))
    return by_slot


# ---------------------------------------------------------------------------
# metrics


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, wanted):
    """The workload's tail percentile, lowered if fewer than ten samples
    would lie beyond it."""
    for p in (99.9, 99, 95, 90, 75, 50):
        if p <= wanted and n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return 50


def setup_times(entry_argv):
    """CPU time of fresh interpreters that import spinkick, build the CLI
    parser and parse one generated config, scaled by a speed probe run in
    the same interpreter right after; one unmeasured start first."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC, BENCH_DIR, *entry_argv]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            fail_harness(f"setup probe failed: {proc.stderr[-500:]}")
        setup, probe = (float(x) for x in proc.stdout.split())
        if i:
            samples.append(setup * PROBE_REF_S / probe)
    return samples


def machine_info():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(pool.BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


# ---------------------------------------------------------------------------


class TracedRunner:
    """Runner facade that tags each command's spans with its own id."""

    def __init__(self, runner, tracer):
        self.runner, self.tracer = runner, tracer

    def execute(self, entry):
        self.tracer.command += 1
        latency = self.runner.execute(entry)
        self.tracer.scales[self.tracer.command] = self.runner.last_scale
        return latency


def end_to_end(args, workload, runner, sequence, first_argv):
    setup = setup_times(first_argv)
    wall_before, cpu_before = runner.wall_s, runner.cpu_s
    by_slot = closed_loop(runner, sequence, args.seconds)
    latencies = [x for samples in by_slot.values() for x in samples]
    n = len(latencies)
    tail_p = tail_percentile(n, workload.tail_percentile)
    tail = percentile(latencies, tail_p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "ops_per_s": metric(n / sum(latencies), "1/s", n),
        "latency_p50_ms": metric(1e3 * percentile(latencies, 50), "ms", n),
        "latency_tail_ms": metric(1e3 * tail, "ms", n),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
    }
    record = {
        "size_mix": {name: len(samples) for name, samples in by_slot.items()},
        "ops_per_s_over_cpu_time": n / (runner.cpu_s - cpu_before),
        "ops_per_s_over_wall_time": n / (runner.wall_s - wall_before),
        "latency_tail_percentile": tail_p,
        "latency_tail_samples_beyond": sum(x > tail for x in latencies),
        "setup_samples_s": setup,
    }
    return metrics, record


def per_layer(args, spec, workload, entries, runner, sequence, package):
    """Untraced closed loop, then two traced passes over the same fixed
    rounds of a fresh sequence; their counts must agree exactly."""
    untraced = closed_loop(runner, sequence, args.seconds)
    passes = []
    for _ in range(2):
        tracer = Tracer(package)
        tracer.install()
        try:
            traced = fixed_rounds(
                TracedRunner(runner, tracer), rounds(workload, entries, random.Random(args.seed)), workload.trace_rounds
            )
        finally:
            tracer.uninstall()
        passes.append((tracer, traced))
    (tracer, traced), (tracer_b, _) = passes
    layers = tracer.layer_metrics()
    counts_a, counts_b = repeatable_counts(layers), repeatable_counts(tracer_b.layer_metrics())
    if counts_a != counts_b:
        diff = {k: (counts_a.get(k), counts_b.get(k)) for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k)}
        fail_harness(f"traced counts differ between two passes with the same seed: {diff}")
    commands = sum(map(len, traced.values()))
    layers["trace.commands"] = commands
    layers["channels.build_n_kick_channel.calls_per_command"] = layers.get("channels.build_n_kick_channel.calls", 0) / commands
    layers["trace.ops_per_s_untraced"] = throughput(untraced)
    layers["trace.ops_per_s_traced"] = throughput(traced)
    layers["trace.overhead_ratio"] = layers["trace.ops_per_s_untraced"] / layers["trace.ops_per_s_traced"]
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
    metrics = {m["name"]: metric(layers.get(m["name"], 0), m["unit"], commands) for m in spec["per_layer"]}
    record = {
        "size_mix": {name: len(v) for name, v in untraced.items()},
        "per_layer_all": layers,
        "spans": len(tracer.spans),
    }
    return metrics, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "spinkick", "cli.py")):
        fail_harness(f"no spinkick sources under {SRC}; run from a repository checkout")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    refs_path = os.path.join(BENCH_DIR, "refs", f"{args.workload}.json")
    if not os.path.isfile(spec_path) or not os.path.isfile(refs_path):
        fail_harness(f"missing {spec_path} or {refs_path}")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(refs_path, encoding="utf-8") as fh:
        refs = json.load(fh)

    sys.path.insert(0, SRC)
    import spinkick
    import spinkick.cli as cli

    workload = pool.WORKLOADS[args.workload]
    entries = refs["entries"]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}")
    shutil.rmtree(work_dir, ignore_errors=True)
    runner = Runner(cli, work_dir, SpeedProbe())
    runner.prepare(entries)
    sequence = rounds(workload, entries, random.Random(args.seed))
    first_cycle = next(sequence)[0]

    # warm-up: one command per CLI command, untimed, so first-call costs
    # inside numpy and the library are not charged to the first sample
    seen = set()
    for entry in first_cycle:
        if entry["command"] not in seen:
            seen.add(entry["command"])
            runner.execute(entry)

    if args.trace == 0:
        metrics, record = end_to_end(args, workload, runner, sequence, runner.argv[first_cycle[0]["id"]])
    else:
        metrics, record = per_layer(args, spec, workload, entries, runner, sequence, spinkick)
    shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.failures)
    fail_frac = failed / runner.attempted
    record.update(
        {
            "workload": args.workload,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_info(),
            "client": "one in-process client, closed loop",
            "pool": {"seed": refs["pool_seed"], "members_per_slot": refs["members"], "entries": len(entries)},
            "probe_ref_s": PROBE_REF_S,
            "attempted": runner.attempted,
            "failed": failed,
            "fail_frac": fail_frac,
            "failures": runner.failures[:50],
            "repeat_checks": runner.checked_repeats,
            "worst_deviation": runner.worst_deviation,
            "tolerance": {"atol": check.ATOL, "rtol": check.RTOL},
            "metrics": metrics,
        }
    )
    with open(os.path.join(OUT_DIR, f"record-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(
        f"{args.workload} seed={args.seed} commands={runner.attempted} repeats_checked={runner.checked_repeats} "
        f"worst_deviation={runner.worst_deviation:.3g} (tolerance {check.ATOL:g} + {check.RTOL:g}*|ref|)"
    )
    for name, m in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{record['latency_tail_percentile']:g}, {record['latency_tail_samples_beyond']} samples beyond)"
        print(f"  {name} = {m['value']:.6g} {m['unit']}  [n={m['samples']}]{extra}")
    print(f"  fail_frac = {fail_frac:.6g} ratio  [{failed} of {runner.attempted} commands]")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
