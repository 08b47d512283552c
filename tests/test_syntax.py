import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(), re.M).groups()))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_requires_python_floor(path):
    # a grammar check only: names added to the standard library after the
    # floor are not caught here
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
