"""Each shared construction has one home module in the package source:
keyed random streams in montecarlo, the support-Gram inverse in model and
the estimator names in estimators.  The only other matrix inverse, the
rank-deficient CCRB fallback, is a solve.  The package imports no scipy:
its linear algebra is numpy.linalg."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sparsebounds"

HOMES = {
    "SeedSequence": "montecarlo.py",
    "inv": "model.py",
    "_KIND_NAMES": "estimators.py",
}


def _references(name: str) -> list[str]:
    """file:line of every name, attribute or import of `name`."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (node.name, node.asname)
            ):
                found.append(f"{path.name}:{node.lineno}")
    return found


@pytest.mark.parametrize("name, home", HOMES.items())
def test_referenced_only_in_its_home(name, home):
    found = _references(name)
    assert found, f"{name} is not referenced at all"
    assert [f for f in found if not f.startswith(f"{home}:")] == []


def test_no_module_imports_scipy():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert found == []
