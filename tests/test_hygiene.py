"""Source hygiene: no module, test or demo imports a name it never reads,
and every package module imports only from layers below its own.

No linter ships with the project, so these AST scans are its lint step.  A
name counts as read if it appears as a loaded ``Name`` anywhere in the file or
is listed in the file's ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))
PACKAGE = ROOT / "src" / "fspec"
# the package's layers, lowest first; __init__ re-exports them all
LAYERS = {"fields": 0, "grid": 0, "svgplot": 0, "metrics": 1, "fiber": 2,
          "solver": 2, "experiments": 3, "cli": 4}


def unused_imports(tree):
    """Sorted names that `tree` imports but never reads or re-exports."""
    imported = set()
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names
                         if alias.name != "*"}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            exported |= {elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant)}
    return sorted(imported - read - exported)


def test_scan_flags_unused_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, os.path as osp, numpy.linalg\n"
                     "from a import b as c, d, e\n"
                     "__all__ = ['d']\n"
                     "print(numpy, e)\n")
    assert unused_imports(tree) == ["c", "os", "osp"]


def test_no_unused_imports():
    assert SOURCES, "no sources found to scan"
    offenders = [f"{path.relative_to(ROOT)}: {name}" for path in SOURCES
                 for name in unused_imports(ast.parse(path.read_text()))]
    assert not offenders, "imported but never read:\n" + "\n".join(offenders)


def package_imports(tree):
    """Package modules that `tree` imports, at any depth of the file."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("fspec.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "fspec":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
    return found


def layering_violations(name, tree):
    """Sorted package modules that module `name` imports from its own layer
    or a higher one."""
    return sorted(module for module in package_imports(tree)
                  if LAYERS[module] >= LAYERS[name])


def test_layering_scan_flags_upward_imports():
    tree = ast.parse("import numpy, fspec.metrics\n"
                     "from .grid import TorusGrid\n"
                     "from fspec.fields import as_field\n"
                     "def f():\n"
                     "    from .fiber import SymbolField\n"
                     "    from fspec import experiments\n")
    assert layering_violations("solver", tree) == ["experiments", "fiber"]
    assert layering_violations("cli", tree) == []


def test_imports_go_down_the_layers():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    assert set(modules) == set(LAYERS) | {"__init__"}, "unranked module"
    offenders = [f"{name} imports {module}" for name in LAYERS
                 for module in layering_violations(
                     name, ast.parse(modules[name].read_text()))]
    assert not offenders, "imports against the layering:\n" + "\n".join(offenders)
