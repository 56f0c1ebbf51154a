"""Lints over the package source, built on ``ast`` alone, since the
package has no linter dependency.

- Every module-level import is used: a name counts as used when it is
  read anywhere in its module.
- Every definition has a caller outside the tests: a top-level function
  or class, or a method other than a dunder, private ones included,
  counts as used when its name is referenced anywhere in the package or
  the benchmark harness other than by its own ``def``.
- Every parameter default is set by some call: a call of the same name in
  the package, the benchmark harness or the tests passes the parameter,
  so a value no caller varies is a constant, not a parameter.
- Every dataclass field is read: its name is read as an attribute
  somewhere in the package or the benchmark harness, so no field is only
  ever written.
- The ``Subcommands:`` line of the ``cli`` docstring names exactly the
  subcommands ``build_parser`` adds, in the same order.
- No backward closure in ``tensor`` captures a ``Tensor``: a function
  nested in an op reads no parameter of the op annotated with ``Tensor``
  and no local the op bound to a ``Tensor(...)`` call, since a closure
  on the tape would keep that tensor's data alive until ``backward()``.
- Every weight-gradient contraction in ``tensor`` is ``_project_grads``:
  no other definition sends ``a.T @ b`` to a gradient node, so a
  change to how those sums over rows run is a change to one function.
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


def definitions(module: str, source: str) -> list[str]:
    """``module.name`` of each top-level function and class, and
    ``module.Class.name`` of each method that is not a dunder."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))]
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
                  for name in definitions(module, src)
                  if name.rsplit(".", 1)[-1] not in used)


def test_unreferenced_definitions_detected():
    src = ("class A:\n    def __init__(self): pass\n    def used(self): pass\n"
           "    def spare(self): pass\n    def _own(self): self.used()\n"
           "def f(): pass\ndef g(): pass\ndef h(): pass\ndef _k(): pass\n"
           "def _j(): _k()\n")
    caller = "from m import h\nA().used()\nnames = ['g']\n"
    assert unreferenced({"m": src}, [src, caller]) == ["m.A._own", "m.A.spare", "m._j",
                                                       "m.f"]


def test_no_definition_is_test_only():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(modules.values()) + [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced(modules, callers) == []


def defaulted_parameters(module: str, source: str) -> list[tuple[str, str, str, int]]:
    """(callee name, reported name, parameter, position) of each parameter
    with a default on a function or method of ``source``. A class's
    ``__init__`` is called by the class name; other dunders are skipped.
    A method's positions start after ``self`` or ``cls``, as its calls
    pass them; keyword-only parameters have position -1."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, owner)
                continue
            visit(child, None)
            callee = owner.name if child.name == "__init__" else child.name
            if callee.startswith("__"):
                continue
            qual = f"{module}.{callee}" if owner is None or child.name == "__init__" \
                else f"{module}.{owner.name}.{callee}"
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in child.decorator_list)
            shift = 1 if owner is not None and not static else 0
            args = child.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out.extend((callee, qual, a.arg, i - shift)
                       for i, a in enumerate(positional) if i >= first)
            out.extend((callee, qual, a.arg, -1)
                       for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)

    visit(ast.parse(source), None)
    return out


def unset_defaults(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter that no
    call of the same name passes, by keyword or by position, or covers
    with a ``*``/``**`` splat. Functions whose name is read other than as
    a callee (stored in a table, used as an annotation) are skipped: their
    calls cannot be found by name."""
    calls: dict[str, list[ast.Call]] = {}
    callees, read = set(), set()
    for src in callers:
        for n in ast.walk(ast.parse(src)):  # breadth first: a call before its callee
            if isinstance(n, ast.Call):
                callees.add(id(n.func))
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                if name:
                    calls.setdefault(name, []).append(n)
            elif id(n) in callees or not isinstance(getattr(n, "ctx", None), ast.Load):
                continue
            elif isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)

    def passes(call: ast.Call, param: str, pos: int) -> bool:
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, param) for k in call.keywords)
                or 0 <= pos < len(call.args))

    return sorted(f"{qual}({param})" for module, src in modules.items()
                  for callee, qual, param, pos in defaulted_parameters(module, src)
                  if callee not in read
                  and not any(passes(c, param, pos) for c in calls.get(callee, [])))


def test_unset_defaults_detected():
    src = ("def f(a, b=1, *, c=2): pass\n"
           "def g(x=0): pass\n"
           "def h(y=0): pass\n"
           "class K:\n"
           "    def __init__(self, n=3, m=4): pass\n"
           "    def meth(self, p=5, q=6): pass\n"
           "    @staticmethod\n"
           "    def stat(r=7): pass\n"
           "TABLE = [g]\n")
    caller = "f(1, 2)\nK(m=1).meth(5)\nobj.stat(1)\nh(**opts)\n"
    assert unset_defaults({"m": src}, [src, caller]) == [
        "m.K(n)", "m.K.meth(q)", "m.f(c)"]


def test_every_default_is_set_by_some_call():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8")
               for d in (PACKAGE, ROOT / "perfbench", ROOT / "tests")
               for p in sorted(d.glob("*.py"))]
    assert unset_defaults(modules, callers) == []


def dataclass_fields(module: str, source: str) -> list[str]:
    """``module.Class.field`` of each annotated field of each class that
    ``dataclass`` decorates, called or not."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass"
               for d in decorators):
            out += [f"{module}.{node.name}.{n.target.id}" for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    return out


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    read = {n.attr for src in readers for n in ast.walk(ast.parse(src))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(name for module, src in modules.items()
                  for name in dataclass_fields(module, src)
                  if name.rsplit(".", 1)[-1] not in read)


def test_unread_fields_detected():
    src = ("@dataclass\nclass A:\n    x: int\n    y: int = 0\n    k = 3\n"
           "@dataclasses.dataclass(frozen=True)\nclass B:\n    z: int\n"
           "class C:\n    w: int\n")
    caller = "print(a.x, a.k)\nb.z = 1\nw = 2\n"
    assert unread_fields({"m": src}, [src, caller]) == ["m.A.y", "m.B.z"]


def test_every_dataclass_field_is_read():
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8")
               for d in (ROOT / "src", ROOT / "perfbench") for p in sorted(d.rglob("*.py"))]
    assert unread_fields(modules, readers) == []


def documented_and_parsed_subcommands(source: str) -> tuple[list[str], list[str]]:
    """(names on the module docstring's ``Subcommands:`` line, first
    arguments of the ``add_parser`` calls), both in source order."""
    tree = ast.parse(source)
    line = next(ln for ln in ast.get_docstring(tree).splitlines()
                if ln.startswith("Subcommands:"))
    documented = [n.strip() for n in line.removeprefix("Subcommands:").rstrip(".").split(",")]
    calls = [n for n in ast.walk(tree)
             if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add_parser"]
    calls.sort(key=lambda n: (n.lineno, n.col_offset))
    return documented, [n.args[0].value for n in calls]


def test_subcommand_listing_detected():
    src = ('"""Tool.\n\nSubcommands: a, b-c.\n"""\n'
           'def build_parser(sub):\n'
           '    sub.add_parser("a", help="x")\n'
           '    sub.add_parser(\n        "d")\n')
    assert documented_and_parsed_subcommands(src) == (["a", "b-c"], ["a", "d"])


def test_cli_docstring_names_every_subcommand():
    documented, parsed = documented_and_parsed_subcommands(
        (PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert documented == parsed


def _mentions_tensor(annotation) -> bool:
    return annotation is not None and any(
        getattr(n, "id", None) == "Tensor"
        or (isinstance(n, ast.Constant) and isinstance(n.value, str) and "Tensor" in n.value)
        for n in ast.walk(annotation))


def _bound_names(fn) -> set[str]:
    """The parameters of ``fn`` and the names it assigns: its locals."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    if isinstance(fn, ast.Lambda):
        return names
    return names | {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def closures_capturing_tensors(source: str) -> list[str]:
    """``line N: op.inner reads name`` for each read, in a function or
    lambda nested in a function ``op``, of a parameter of ``op`` annotated
    with ``Tensor`` or of a name ``op`` assigned a ``Tensor(...)`` call,
    unless the nested function binds that name itself."""
    found = []
    for op in ast.walk(ast.parse(source)):
        if not isinstance(op, ast.FunctionDef):
            continue
        args = op.args
        tensors = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                   if _mentions_tensor(a.annotation)}
        tensors |= {t.id for n in ast.walk(op) if isinstance(n, ast.Assign)
                    and isinstance(n.value, ast.Call)
                    and getattr(n.value.func, "id", None) == "Tensor"
                    for t in n.targets if isinstance(t, ast.Name)}
        for inner in ast.walk(op):
            if inner is op or not isinstance(inner, (ast.FunctionDef, ast.Lambda)):
                continue
            own = _bound_names(inner)
            name = getattr(inner, "name", "<lambda>")
            found += [f"line {n.lineno}: {op.name}.{name} reads {n.id}"
                      for n in ast.walk(inner)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                      and n.id in tensors - own]
    return sorted(set(found))


def test_closures_capturing_tensors_detected():
    src = ("def op(x: Tensor, w: Optional[Tensor], parts: Sequence['Tensor'], k: int):\n"
           "    nx = x.node\n"
           "    out = Tensor(x.data)\n"
           "    def backward(g):\n"
           "        nx.accumulate(g * k)\n"
           "        if w is not None: print(x.dtype, parts, out)\n"
           "    def shadow(x):\n"
           "        return x\n"
           "    def rebind(g):\n"
           "        w = g\n"
           "        return w\n"
           "    f = lambda: out.data\n"
           "    return backward\n")
    assert closures_capturing_tensors(src) == [
        "line 12: op.<lambda> reads out", "line 6: op.backward reads out",
        "line 6: op.backward reads parts", "line 6: op.backward reads w",
        "line 6: op.backward reads x"]


def test_no_backward_closure_captures_a_tensor():
    source = (PACKAGE / "tensor.py").read_text(encoding="utf-8")
    assert closures_capturing_tensors(source) == []


def weight_gradient_contractions(source: str) -> list[str]:
    """``line N: name`` for each ``accumulate_owned(a.T @ b)`` or
    ``accumulate(a.T @ b)`` call in a top-level definition of ``source``
    other than ``_project_grads``."""
    found = []
    for node in ast.parse(source).body:
        if getattr(node, "name", None) == "_project_grads":
            continue
        found += [f"line {n.lineno}: {getattr(node, 'name', '<module>')}"
                  for n in ast.walk(node)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "attr", None) in ("accumulate", "accumulate_owned")
                  and n.args and isinstance(n.args[0], ast.BinOp)
                  and isinstance(n.args[0].op, ast.MatMult)
                  and getattr(n.args[0].left, "attr", None) == "T"]
    return sorted(found)


def test_weight_gradient_contractions_detected():
    src = ("def _project_grads(rows, g, nw):\n"
           "    nw.accumulate_owned(rows.T @ g)\n"
           "def op(x, g, nw, nx, w):\n"
           "    def backward(g):\n"
           "        nw.accumulate_owned(f(x).T @ g)\n"
           "        nx.accumulate_owned(g @ w.T)\n"
           "        nw.accumulate(x.T @ g)\n"
           "        nw.accumulate(x @ g)\n"
           "    return backward\n")
    assert weight_gradient_contractions(src) == ["line 5: op", "line 7: op"]


def test_weight_gradients_are_contracted_in_one_function():
    source = (PACKAGE / "tensor.py").read_text(encoding="utf-8")
    assert weight_gradient_contractions(source) == []
