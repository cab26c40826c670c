"""Runtime checks must not rely on `assert`, which `python -O` strips."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sparsebounds"


def test_package_source_has_no_assert_statement():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
