import re
from pathlib import Path

import spinkick as sk
from spinkick.channels import KAPPA_MAX, PSD_TOL
from spinkick.oracle import SPECTRA_BYTES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    """The README's library tour runs as written, and its comments state
    what it yields."""
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    ns = {}
    exec(compile(tour, str(README), "exec"), ns)
    assert not sk.is_cp(ns["theta"])
    assert sk.max_image_norm(ns["theta"].matrix, ns["theta"].shift)[0] > 1.0
    assert sk.channel_distance(ns["ch"], ns["orc"]) < 1e-12
    assert sk.channel_distance(ns["one"], ns["prefixes"][1]) < 1e-12


def test_readme_states_kappa_max():
    """The README states the inversion bound the code enforces."""
    stated = re.search(r"`KAPPA_MAX = ([0-9.e+-]+)`", README.read_text(encoding="utf-8"))
    assert stated is not None and float(stated.group(1)) == KAPPA_MAX == 1e6


def test_readme_states_psd_tol():
    """The README states the PSD bound every channel is validated by."""
    stated = re.search(r"`channels\.PSD_TOL = ([0-9.e+-]+)`", README.read_text(encoding="utf-8"))
    assert stated is not None and float(stated.group(1)) == PSD_TOL


def test_readme_states_spectra_bytes():
    """The README states the byte budget of the oracle's spectrum cache."""
    stated = re.search(r"`oracle\.SPECTRA_BYTES = ([0-9]+)`", README.read_text(encoding="utf-8"))
    assert stated is not None and int(stated.group(1)) == SPECTRA_BYTES
