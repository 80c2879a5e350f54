"""What ``pyproject.toml`` must declare for the package and its test suite to run."""

from __future__ import annotations

import ast
import re
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _imported_top_level_modules(directory: Path) -> set[str]:
    modules = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def _undeclared(directory: Path, requirements: list[str]) -> list[str]:
    """The third-party modules imported under ``directory`` that no requirement provides."""
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements}
    providers = packages_distributions()
    third_party = sorted(
        _imported_top_level_modules(directory) - set(sys.stdlib_module_names) - {"submax"}
    )
    assert third_party
    return [
        module for module in third_party
        if not any(_normalized(dist) in declared for dist in providers.get(module, [module]))
    ]


def test_every_third_party_module_the_tests_import_is_declared():
    project = _project()
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    assert _undeclared(ROOT / "tests", requirements) == []


def test_every_third_party_module_the_package_imports_is_a_dependency():
    # the test extra does not count: `pip install submax` would lack it
    assert _undeclared(ROOT / "src" / "submax", _project()["dependencies"]) == []
