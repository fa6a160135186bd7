"""The benchmark's correctness gate as a test: every entry of the reference
pool under bench/refs, run through the CLI, exits 0 and matches its
reference files within bench/check.py's tolerance."""

import contextlib
import io
import json
import os
import sys

from spinkick import cli

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")


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
