"""Every Python file of the project parses under the oldest Python the
package claims (``requires-python = ">=3.10"`` in pyproject.toml)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for tree in ("src", "tests") for path in (ROOT / tree).rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_parses_under_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
