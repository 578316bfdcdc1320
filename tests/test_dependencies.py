"""kangle's runtime needs numpy alone; scipy is a test and bench tool."""

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")

ROOT = Path(__file__).resolve().parents[1]


def _names(requirements):
    return [re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()
            for r in requirements]


def test_package_imports_no_scipy():
    modules = sorted((ROOT / "src" / "kangle").glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_runtime_dependencies_are_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _names(project["dependencies"]) == ["numpy"]
    assert "scipy" in _names(project["optional-dependencies"]["test"])
