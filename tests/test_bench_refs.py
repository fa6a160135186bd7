"""The benchmark's correctness gate as a test: every entry of the reference
pool under bench/refs, run through the CLI, exits 0 and matches its
reference files within bench/check.py's tolerance.  A few of its entries
also write the same bytes on one BLAS thread and on two."""

import contextlib
import io
import json
import os
import subprocess
import sys

from spinkick import cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Pool entries for the thread-count test: an 11-kick simulate, a displaced
# kick-mode and a nascent oracle-check, and a sweep.
THREAD_ENTRIES = {
    "long_trains.json": ["simulate_n11.0"],
    "oracle_checks.json": ["kicks_n7_nbar0-1_displaced.0", "nascent_n2.0"],
    "small_sweeps.json": ["sweep_even_nbar_n3.0"],
}

# Runs each CLI argv given as JSON in argv[2], with src at argv[1], and exits
# with the largest exit code.
RUN_ALL = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from spinkick import cli
with contextlib.redirect_stdout(io.StringIO()):
    sys.exit(max(cli.main(argv) for argv in json.loads(sys.argv[2])))
"""


def test_reference_pool_reproduces(tmp_path, monkeypatch):
    # importing bench/pool.py sets these for child processes; restore them afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(BENCH)
    import check
    import pool

    failures, count = [], 0
    for name in sorted(os.listdir(os.path.join(BENCH, "refs"))):
        with open(os.path.join(BENCH, "refs", name), encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        for entry in entries:
            count += 1
            directory = str(tmp_path / name / entry["id"])
            argv = pool.write_inputs(entry, directory)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            try:
                if code != 0:
                    raise check.Mismatch(f"exit {code}: {err.getvalue().strip()}")
                check.check_outputs(pool.read_outputs(directory), entry["outputs"])
            except check.Mismatch as exc:
                failures.append(f"{name} {entry['id']}: {exc}")
    assert count == 72
    assert failures == []


def test_outputs_are_the_same_bytes_on_one_and_two_blas_threads(tmp_path, monkeypatch):
    """Four pool entries, each run in a fresh interpreter whose BLAS thread
    count is set before numpy loads, to 1 and then to 2, write byte-identical
    files."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(BENCH)
    import pool

    entries = []
    for name, ids in THREAD_ENTRIES.items():
        with open(os.path.join(BENCH, "refs", name), encoding="utf-8") as fh:
            entries += [entry for entry in json.load(fh)["entries"] if entry["id"] in ids]
    assert len(entries) == 4
    outputs = {}
    for threads in ("1", "2"):
        argvs = [pool.write_inputs(entry, str(tmp_path / threads / entry["id"])) for entry in entries]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", RUN_ALL, SRC, json.dumps(argvs)], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr.decode()
        outputs[threads] = {}
        for entry in entries:
            out = tmp_path / threads / entry["id"] / "out"
            outputs[threads][entry["id"]] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert all(outputs["1"].values())
    assert outputs["1"] == outputs["2"]
