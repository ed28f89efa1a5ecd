"""Every source and test file parses under the Python 3.10 grammar.

Python 3.10 is the declared minimum (pyproject's requires-python), but the
suite may run on a newer interpreter.  ast.parse with feature_version
rejects syntax newer than 3.10, such as `except*` or type parameter lists.
This checks grammar only: a stdlib function or type added after 3.10 still
passes here.  The numpy floor is declared once, in pyproject, which the CI
install step reads by installing the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "orientcorr").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_numpy_floor_is_the_same_in_pyproject_and_ci():
    # CI installs the package itself, so pyproject holds the one numpy floor
    # and the workflow pins none of its own.
    assert len(re.findall(r'"numpy>=[0-9.]+"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))) == 1
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert 'run: python -m pip install ".[test]"' in [line.strip() for line in workflow.splitlines()]
    assert "numpy>=" not in workflow
