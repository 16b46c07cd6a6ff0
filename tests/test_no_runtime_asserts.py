"""The package's runtime contracts must hold under ``python -O``, which
strips every ``assert`` statement: contracts raise typed exceptions."""

import ast
from pathlib import Path

import cnotsteer


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(Path(cnotsteer.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
