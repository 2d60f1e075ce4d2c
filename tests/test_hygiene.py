"""Source hygiene: no module, test or demo imports a name it never reads.

No linter ships with the project, so this AST scan is its lint step.  A name
counts as read if it appears as a loaded ``Name`` anywhere in the file or is
listed in the file's ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


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
