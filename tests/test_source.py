"""Rules the package's source keeps: invariants raise exceptions, never
`assert`, which `python -O` strips."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flowcache"


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
