"""Every module of the package and every test file reads each name it
imports.  ``__init__.py`` is exempt: it imports names to re-export them.
An import kept for its side effects says so with ``# noqa: F401``.  Some
call sets each defaulted parameter of the package's functions."""

import ast
import importlib
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each name bound by an import and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted("line %d: %s" % (line, name) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unused_import():
    source = "import os, sys\nfrom a.b import c, d as e\nimport x.y  # noqa: F401\nsys.exit(c)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: e"]


def test_every_imported_name_is_read():
    files = [*ROOT.glob("src/codescent/*.py"), *ROOT.glob("tests/*.py")]
    assert len(files) > 15
    unused = {str(path.relative_to(ROOT)): found for path in sorted(files)
              if path.name != "__init__.py" and (found := unused_imports(path.read_text()))}
    assert unused == {}


def unset_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """``"file: function(param)"`` for each defaulted parameter of a
    module-level function in ``package`` (file name -> source) that no call
    by the function's name in ``callers`` passes, by position or by keyword.
    A function that is also read as a value, not only called, is exempt:
    its callers cannot be found by name."""
    positional, keywords, values = {}, {}, set()
    for tree in map(ast.parse, callers):
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                called.add(id(node.func))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                positional[name] = max(positional.get(name, 0),
                                       math.inf if starred else len(node.args))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in called:
                values.add(getattr(node, "id", getattr(node, "attr", None)))
    unset = []
    for path, source in package.items():
        for fn in ast.parse(source).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name in values:
                continue
            args = fn.args.posonlyargs + fn.args.args
            defaulted = list(enumerate(args))[len(args) - len(fn.args.defaults):]
            defaulted += [(math.inf, a) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            passed = keywords.get(fn.name, set())
            for i, arg in defaulted:
                if positional.get(fn.name, 0) <= i and not {arg.arg, None} & passed:
                    unset.append("%s: %s(%s)" % (path, fn.name, arg.arg))
    return sorted(unset)


def test_the_scan_finds_a_parameter_nobody_sets():
    package = {"m.py": "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                       "def g(x=0):\n    pass\n"
                       "def h(y=0):\n    pass\n"
                       "TABLE = (g,)\n"}
    callers = [package["m.py"], "f(0, 1, e=5)\nm.f(0)\nh(**{'y': 1})\n"]
    assert unset_defaults(package, callers) == ["m.py: f(c)", "m.py: f(d)"]


def test_every_defaulted_parameter_is_set_somewhere():
    package = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted(ROOT.glob("src/codescent/*.py"))}
    callers = [path.read_text()
               for pattern in ("src/codescent/*.py", "tests/*.py", "perfbench/*.py")
               for path in sorted(ROOT.glob(pattern))]
    assert len(package) > 8 and len(callers) > 25
    assert unset_defaults(package, callers) == []


def codescent_reads(source: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each name ``source`` takes from a ``codescent``
    module: each name it imports from one, and each ``alias.name`` where
    ``alias`` is bound to one."""
    tree = ast.parse(source)
    alias_of, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.partition(".")[0] == "codescent":
                    alias_of[a.asname or "codescent"] = a.name if a.asname else "codescent"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "codescent":
            for a in node.names:
                try:
                    importlib.import_module("%s.%s" % (node.module, a.name))
                    alias_of[a.asname or a.name] = "%s.%s" % (node.module, a.name)
                except ModuleNotFoundError:
                    reads.append((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in alias_of:
            reads.append((alias_of[node.value.id], node.attr))
    return reads


def test_the_scan_finds_what_a_file_reads_from_codescent():
    source = ("import codescent\nfrom codescent import selftest as st, sphere\n"
              "from codescent.cli import main\nimport numpy as np\n"
              "codescent.codescent_at(st.make_diagram(), np.eye(1))\n")
    assert sorted(codescent_reads(source)) == [
        ("codescent", "codescent_at"), ("codescent", "sphere"),
        ("codescent.cli", "main"), ("codescent.selftest", "make_diagram")]


def test_every_name_the_benchmark_reads_exists():
    """The benchmark scripts run on every checkout of the package, so a
    name they read must not be deleted or renamed under them."""
    reads = {(module, name) for path in sorted(ROOT.glob("perfbench/*.py"))
             for module, name in codescent_reads(path.read_text())}
    assert ("codescent.selftest", "_random_map_diagram") in reads
    assert sorted((module, name) for module, name in reads
                  if not hasattr(importlib.import_module(module), name)) == []
