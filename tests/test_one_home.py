"""Each shared construction has one home module in the package source:
keyed random streams in montecarlo, the support-Gram inverse, the
Cholesky test and array conversion in model, and the estimator names in estimators.  The rank-deficient CCRB inverts no
matrix: its bound is a closed form in the eigenpairs of A^T A.  The
package imports no scipy: its linear algebra is numpy.linalg.  The
public names are declared once, in each layer's __all__, and the package
exports exactly those."""

import ast
from pathlib import Path

import pytest

import sparsebounds
from sparsebounds import ccrb, errors, estimators, fisher, hcrb, model, montecarlo

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sparsebounds"

HOMES = {
    "SeedSequence": "montecarlo.py",
    "inv": "model.py",
    "cholesky": "model.py",
    "_KIND_NAMES": "estimators.py",
    "asarray": "model.py",
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


def test_package_exports_the_layers_public_names_and_every_error():
    layers = (ccrb, estimators, fisher, hcrb, model, montecarlo)
    public = set().union(*(layer.__all__ for layer in layers)) | {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SparseBoundsError)
    }
    assert len(sparsebounds.__all__) == len(public)
    assert set(sparsebounds.__all__) == public
    namespace = {}
    exec("from sparsebounds import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
