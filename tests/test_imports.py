"""Lint: every module-level import in the package is used.

Built on ``ast`` alone, since the package has no linter dependency. A
name counts as used when it is read anywhere in its module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "depthart"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_unused_imports_detected():
    src = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert unused_imports(src) == ["line 3: b", "line 1: os"]


def test_package_has_no_unused_imports():
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
