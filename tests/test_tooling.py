"""Checks on the repository's documents and source files rather than on the
library's behaviour."""

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    """The README's fenced `python` block runs in a fresh interpreter, so
    the documentation names only functions that exist."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks, "README.md has no python block"
    for code in blocks:
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr


SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_under_the_oldest_supported_python(path):
    """Every source file parses with the grammar of Python 3.10, the
    `requires-python` floor.  This checks grammar only: a call to a function
    that 3.10's standard library lacks, for example, still passes."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
