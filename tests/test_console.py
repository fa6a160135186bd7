"""The console checks: each run is its own process, ``python -m
spinkick.cli``, on docs/example-run.cfg or a config derived from it, and is
judged by its exit status, its streams and the files it leaves behind."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLE = ROOT / "docs" / "example-run.cfg"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _config(tmp_path, name, *edits):
    """The example config with each (pattern, line) edit made on exactly one
    line (a line of None drops it), written to tmp_path / name."""
    body = EXAMPLE.read_text(encoding="utf-8")
    for pattern, line in edits:
        body, count = re.subn(pattern + ("[^\n]*\n" if line is None else ""), line or "", body, flags=re.M)
        assert count == 1, pattern
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def _times(count, per):
    """The edits that give ``count`` kick times 1 / ``per`` apart from 0, and
    no weights: a train of unit kicks."""
    times = " ".join(str(k / per) for k in range(count))
    return (r"^times = .*", f"times = {times}"), (r"^weights = ", None)


def _run(tmp_path, config, command, *flags):
    """The finished process of one command, and the output directory it was
    given."""
    out = tmp_path / f"out-{Path(config).stem}-{command}"
    argv = [sys.executable, "-m", "spinkick.cli", "--config", str(config), "--out", str(out), *flags, command]
    done = subprocess.run(argv, capture_output=True, text=True, errors="replace", env=ENV, cwd=tmp_path, timeout=300)
    return done, out


def _rows(path):
    """The data rows of a CSV file, after its header."""
    return path.read_text(encoding="utf-8").splitlines()[1:]


@pytest.mark.parametrize("command", ["simulate", "divisibility", "sweep", "oracle-check", "fixed-point"])
def test_every_command_runs_on_the_example(tmp_path, command):
    done, _ = _run(tmp_path, EXAMPLE, command)
    assert done.returncode == 0, done.stderr


def test_a_simulate_whose_oracle_check_cannot_converge_exits_5(tmp_path):
    """Exit 5 with nothing on stdout and no output directory."""
    config = _config(
        tmp_path,
        "failing.cfg",
        (r"^divisibility = false", "divisibility = true"),
        (r"^oracle_check = false", "oracle_check = true"),
        (r"^dim_max = 300", "dim_max = 25"),
    )
    done, out = _run(tmp_path, config, "simulate")
    assert done.returncode == 5, done.stderr
    assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("bad", ["latin", "nul"])
def test_a_config_that_is_not_utf8_or_names_a_nul_exits_2(tmp_path, bad):
    """A config that is not UTF-8, or whose prefix holds a NUL, exits 2 with
    a config error and no output directory."""
    if bad == "latin":
        config = tmp_path / "latin.cfg"
        config.write_bytes(b"# caf\xe9\n" + EXAMPLE.read_bytes())
    else:
        config = _config(tmp_path, "nul.cfg", (r"^prefix = spinkick", "prefix = sp\x00k"))
    done, out = _run(tmp_path, config, "fixed-point")
    assert done.returncode == 2, done.stderr
    assert re.search(r"^config error:", done.stderr, flags=re.M)
    assert not out.exists()


@pytest.mark.parametrize(
    "kicks, per, flags, first",
    [
        (40, 10, ["--max-kicks", "40"], "error: 40 kicks need "),
        (600, 100, [], "error: 600 kicks exceeds budget of 10"),
    ],
    ids=["bytes", "budget"],
)
def test_a_long_simulate_exits_4_naming_its_bytes_or_budget(tmp_path, kicks, per, flags, first):
    """A 40-kick simulate, whose prefix pass would need more bytes than any
    address space holds, exits 4 naming them; a 600-kick one, whose bytes
    pass float64's range, on its kick count; either with nothing on stdout
    and no output directory."""
    config = _config(tmp_path, f"long{kicks}.cfg", *_times(kicks, per))
    done, out = _run(tmp_path, config, "simulate", *flags)
    assert done.returncode == 4, done.stderr
    assert done.stderr.splitlines()[0].startswith(first)
    assert done.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("kicks", [None, 2000])
def test_a_synchronized_divisibility_writes_its_gamma_ratio(tmp_path, kicks):
    """Omega = 0, so auto mode picks dephasing: the example's train and one
    of 2000 kicks, whose axes are judged in one pass, write a gamma ratio."""
    times = _times(kicks, 100) if kicks else ()
    config = _config(tmp_path, f"synchronized{kicks or ''}.cfg", (r"^Omega = 1.0 ", "Omega = 0.0 "), *times)
    done, out = _run(tmp_path, config, "divisibility")
    assert done.returncode == 0, done.stderr
    assert re.search(r"^gamma_ratio=", (out / "spinkick_divisibility.kv").read_text(encoding="utf-8"), flags=re.M)


def test_a_frozen_axis_nascent_check_passes_its_tolerance(tmp_path):
    """On a frozen axis (Omega = 0) a nascent oracle-check passes tol = 1e-4
    and writes its 4 pulse widths."""
    config = _config(
        tmp_path,
        "frozen.cfg",
        (r"^Omega = 1.0 ", "Omega = 0.0 "),
        (r"^tol = 1e-8 ", "tol = 1e-4 "),
        (r"^mode = kicks ", "mode = nascent "),
    )
    done, out = _run(tmp_path, config, "oracle-check")
    assert done.returncode == 0, done.stderr
    assert len(_rows(out / "spinkick_nascent.csv")) == 4


@pytest.mark.parametrize(
    "name, edits, rows",
    [
        (
            "sweep2d",
            [
                (r"^parameter = nbar ", "parameter = Omega "),
                (r"^# parameter2 = gap ", "parameter2 = nbar "),
                (r"^# start2 = .*", "start2 = 0.0"),
                (r"^# stop2 = .*", "stop2 = 1.0"),
                (r"^# count2 = .*", "count2 = 4"),
            ],
            21 * 4,
        ),
        (
            "stacks",
            [
                (r"^times = .*", "times = 0.0 0.4 0.8 1.2 1.6 2.0 2.4 2.8 3.2"),
                (r"^weights = ", None),
                (r"^count = 21$", "count = 5"),
            ],
            5,
        ),
    ],
)
def test_a_sweep_writes_every_grid_point(tmp_path, name, edits, rows):
    """A 2D sweep over Omega (outer) and nbar (inner) writes its 21 x 4 grid
    points; a sweep of 5 nbar points of a 9-kick train, whose gamma
    coefficients take 4 MiB a point, runs in stacks of 2, 2 and 1 points
    under channels.STACK_BYTES (8 MiB) and writes its 5 rows."""
    done, out = _run(tmp_path, _config(tmp_path, f"{name}.cfg", *edits), "sweep")
    assert done.returncode == 0, done.stderr
    assert len(_rows(out / "spinkick_sweep.csv")) == rows
