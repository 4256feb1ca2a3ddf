"""Every module of the package and every test file reads each name it
imports.  ``__init__.py`` is exempt: it imports names to re-export them.
An import kept for its side effects says so with ``# noqa: F401``."""

import ast
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
