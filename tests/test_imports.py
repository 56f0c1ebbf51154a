"""Lints over the package source, built on ``ast`` alone, since the
package has no linter dependency.

- Every module-level import is used: a name counts as used when it is
  read anywhere in its module.
- Every public definition has a caller outside the tests: a top-level
  function, class or method counts as used when its name is referenced
  anywhere in the package or the benchmark harness.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "depthart"


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


def public_definitions(module: str, source: str) -> list[str]:
    """``module.name`` of each public top-level function and class, and
    ``module.Class.name`` of each public method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def referenced_names(source: str) -> set[str]:
    """Names read, attributes accessed, names imported and string
    constants anywhere in ``source``."""
    used = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            used.add(n.value)
    return used


def unreferenced(modules: dict[str, str], callers: list[str]) -> list[str]:
    used = set().union(*(referenced_names(src) for src in callers))
    return sorted(name for module, src in modules.items()
                  for name in public_definitions(module, src)
                  if name.rsplit(".", 1)[-1] not in used)


def test_unreferenced_definitions_detected():
    src = ("class A:\n    def used(self): pass\n    def spare(self): pass\n"
           "    def _own(self): pass\n"
           "def f(): pass\ndef g(): pass\ndef h(): pass\ndef _k(): pass\n")
    caller = "from m import h\nA().used()\nnames = ['g']\n"
    assert unreferenced({"m": src}, [src, caller]) == ["m.A.spare", "m.f"]


def test_no_public_definition_is_test_only():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(modules.values()) + [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced(modules, callers) == []
