"""Source hygiene: no module, test or demo imports a name it never reads,
every package module imports only from layers below its own, no package
module imports scipy when it is imported (a Fourier-route run never does),
only ``fspec.metrics`` reads a metric family's per-node ``_parts``, only
``fspec.solver`` reads the stencil's edge offsets ``_OFFSETS``, no public
name serves the tests alone, every private helper of the package serves
the package, every oracle of ``tests/oracles.py`` serves a test, every
verdict is seen to fail on a perturbed program, and every demo runs to the
end without leaving a file behind.

No linter ships with the project, so these AST scans are its lint step.  A
name counts as read if it appears as a loaded ``Name`` anywhere in the file or
is listed in the file's ``__all__`` (a re-export).
"""

import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))
PACKAGE = ROOT / "src" / "fspec"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the files that use the public API for what it computes, not to check it
PROGRAM = sorted([path for path in PACKAGE.glob("*.py")
                  if path.stem != "__init__"]
                 + DEMOS + [ROOT / "benchmarks" / "scaling.py"])
# the package's layers, lowest first; __init__ re-exports them all
LAYERS = {"fields": 0, "grid": 0, "svgplot": 0, "metrics": 1, "fiber": 2,
          "solver": 2, "experiments": 3, "cli": 4}


def exported_names(tree):
    """The names listed in `tree`'s ``__all__``."""
    return {elt.value for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets)
            for elt in node.value.elts if isinstance(elt, ast.Constant)}


def unused_imports(tree):
    """Sorted names that `tree` imports but never reads or re-exports."""
    imported = set()
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
    return sorted(imported - read - exported_names(tree))


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


def eager_imports(tree):
    """Sorted top-level packages that `tree` imports when it is executed:
    every import outside a function body."""
    found = set()
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_eager_import_scan_flags_module_level_imports():
    tree = ast.parse("import numpy as np\n"
                     "from .grid import TorusGrid\n"
                     "try:\n"
                     "    import scipy.sparse\n"
                     "except ImportError:\n"
                     "    pass\n"
                     "class A:\n"
                     "    from scipy import linalg\n"
                     "    def f(self):\n"
                     "        import os\n"
                     "def g():\n"
                     "    import scipy.sparse.linalg as spla\n")
    assert eager_imports(tree) == ["numpy", "scipy"]


def test_scipy_is_imported_where_it_is_used():
    # importing scipy.sparse costs more than the rest of the package, and
    # only the block and shift-invert routes and a built K need it
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "scipy" in eager_imports(ast.parse(path.read_text()))]
    assert not offenders, "modules importing scipy at import: " + ", ".join(offenders)


def test_fourier_route_run_never_imports_scipy():
    code = ("import sys\n"
            "import fspec.cli\n"
            "from fspec import RiemannianMetric, SymbolField, TorusGrid, "
            "assemble, solve\n"
            "field = SymbolField.compute(RiemannianMetric.stretched(2.0), "
            "TorusGrid.square(32))\n"
            "assert solve(assemble(field), 4).route == 'fourier'\n"
            "print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ,
                                         "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def reads_name(tree, name):
    """Whether `tree` imports or reads `name` anywhere outside strings and
    comments."""
    return any((isinstance(node, ast.Attribute) and node.attr == name)
               or (isinstance(node, ast.Name) and node.id == name)
               or (isinstance(node, ast.alias) and node.name == name)
               for node in ast.walk(tree))


def test_parts_scan_flags_readers():
    assert reads_name(ast.parse("f, g, rho = spec._parts(x, y)\n"), "_parts")
    assert reads_name(ast.parse("read = _parts\n"), "_parts")
    assert not reads_name(ast.parse('"""reads _parts"""\n# _parts\n'), "_parts")
    assert reads_name(ast.parse("from .solver import _OFFSETS as o\n"), "_OFFSETS")
    assert reads_name(ast.parse("from . import solver\nsolver._OFFSETS\n"),
                      "_OFFSETS")


def readers(name, owner):
    """Package modules other than `owner` that import or read `name`."""
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name != owner and reads_name(ast.parse(path.read_text()), name)]


def test_only_metrics_reads_parts():
    # every symbol route reads a family through its fold
    # (``_RandersCore._folded``), so the per-node parts stay in one module
    offenders = readers("_parts", "metrics.py")
    assert not offenders, "modules reading _parts: " + ", ".join(offenders)


def test_only_solver_reads_the_stencil_layout():
    # the edge offsets of the stencil's weights are the solver's layout:
    # every reader of the weights (routes, gate, K, condition estimate)
    # lives there
    offenders = readers("_OFFSETS", "solver.py")
    assert not offenders, "modules reading _OFFSETS: " + ", ".join(offenders)


def unserved_names(exported, trees):
    """Sorted names of `exported` that no tree of `trees` imports or reads."""
    return sorted(name for name in exported
                  if not any(reads_name(tree, name) for tree in trees))


def test_tests_only_scan_flags_unserved_names():
    trees = [ast.parse("from fspec import solve\nsolve(problem, 3)\n"),
             ast.parse("import fspec\nfspec.assemble(field)\n")]
    assert unserved_names(["solve", "assemble", "oracle_only"],
                          trees) == ["oracle_only"]


def test_no_public_name_serves_tests_alone():
    # an oracle that only tests call lives in tests/oracles.py: each public
    # name is read by a package module other than __init__, a demo or the
    # scaling benchmark
    exported = exported_names(ast.parse((PACKAGE / "__init__.py").read_text()))
    assert exported, "no __all__ found"
    offenders = unserved_names(exported, [ast.parse(path.read_text())
                                          for path in PROGRAM])
    assert not offenders, "public names only tests read: " + ", ".join(offenders)


def unread_helpers(modules):
    """Sorted names of the top-level private (``_name``) functions and
    classes of the trees `modules` that no top-level statement of them
    imports or reads, other than the helper's own definition."""
    statements = [node for tree in modules for node in tree.body]
    return sorted(node.name for node in statements
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and not any(reads_name(other, node.name)
                              for other in statements if other is not node))


def test_helper_scan_flags_unread_helpers():
    modules = [ast.parse("def _served():\n    return _helper()\n"
                         "def _helper():\n    return 1\n"
                         "def _recursive():\n    return _recursive()\n"
                         "class _Unread:\n    pass\n"
                         "def public():\n    return 2\n"),
               ast.parse("from .a import _served\nTABLE = {'a': _served}\n")]
    assert unread_helpers(modules) == ["_Unread", "_recursive"]
    assert unread_helpers(modules[:1]) == ["_Unread", "_recursive", "_served"]


def test_every_private_helper_serves_the_package():
    # a helper that only tests or nothing reads is dead package code: each
    # top-level _name function or class of src/fspec is read by package
    # code outside its own definition
    modules = [ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py"))]
    offenders = unread_helpers(modules)
    assert not offenders, "private helpers the package never reads: " + \
        ", ".join(offenders)


def unread_functions(module, trees):
    """Sorted names of the top-level functions of `module` that no other
    function of it and no tree of `trees` imports or reads."""
    functions = {node.name: node for node in module.body
                 if isinstance(node, ast.FunctionDef)}
    return sorted(name for name in functions
                  if not any(reads_name(other, name)
                             for other_name, other in functions.items()
                             if other_name != name)
                  and not any(reads_name(tree, name) for tree in trees))


def test_oracle_scan_flags_unread_functions():
    module = ast.parse("def served():\n    return helper()\n"
                       "def helper():\n    return 1\n"
                       "def recursive():\n    return recursive()\n"
                       "def unread():\n    return 2\n")
    trees = [ast.parse("from oracles import served\nserved()\n"),
             ast.parse("import oracles\noracles.recursive\n")]
    assert unread_functions(module, trees) == ["unread"]
    assert unread_functions(module, trees[:1]) == ["recursive", "unread"]


def test_every_oracle_serves_a_test():
    # an oracle that no test reads is dead test code: each top-level
    # function of tests/oracles.py is read by a test module or another oracle
    module = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    offenders = unread_functions(module, [
        ast.parse(path.read_text())
        for path in sorted((ROOT / "tests").glob("test_*.py"))])
    assert not offenders, "oracles no test reads: " + ", ".join(offenders)


def emitted_verdicts(tree):
    """The verdict names `tree` can emit: each literal name given to
    ``Verdict`` (first argument) or ``_within_tolerance`` (fourth), and an
    f-string name as its literal prefix followed by ``*``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            index = {"Verdict": 0, "_within_tolerance": 3}.get(node.func.id)
            if index is None or len(node.args) <= index:
                continue
            arg = node.args[index]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                names.add(arg.values[0].value + "*")
    return names


def perturbs_experiments(test):
    """Whether function `test` calls a ``setattr`` on ``fspec.experiments``."""
    return any(isinstance(node, ast.Call) and node.args
               and ast.unparse(node.func).endswith("setattr")
               and ast.unparse(node.args[0]) == "fspec.experiments"
               for node in ast.walk(test))


def failed_verdicts(tree):
    """The verdict names that the tests of `tree` which perturb a name of
    ``fspec.experiments`` require to fail: the entries of a ``verdict``
    parametrize column, and the keys a dict literal maps to False."""
    names = set()
    tests = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and perturbs_experiments(node)]
    for node in (node for test in tests for node in ast.walk(test)):
        if isinstance(node, ast.Dict):
            names |= {key.value for key, value in zip(node.keys, node.values)
                      if isinstance(key, ast.Constant)
                      and isinstance(value, ast.Constant) and value.value is False}
        elif (isinstance(node, ast.Call)
              and ast.unparse(node.func).endswith("parametrize")):
            columns = [name.strip() for name in node.args[0].value.split(",")]
            if "verdict" in columns:
                names |= {case.elts[columns.index("verdict")].value
                          for case in node.args[1].elts}
    return names


def verdict_coverage_gaps(emitted, failed):
    """The emitted names no test fails, sorted; a ``*`` name is failed by
    any name it prefixes."""
    def covered(name):
        return any(seen == name or (name.endswith("*")
                                    and seen.startswith(name[:-1]))
                   for seen in failed)
    return sorted(name for name in emitted if not covered(name))


def test_verdict_scan_flags_gaps():
    emitted = emitted_verdicts(ast.parse(
        'Verdict("a", c, ok, d)\n'
        '_within_tolerance(rows, err, "tol", "b", c, m)\n'
        'Verdict(f"c-h{h:g}", c, ok, d)\n'
        'Verdict(name, c, ok, d)\n'))
    assert emitted == {"a", "b", "c-h*"}
    failed = failed_verdicts(ast.parse(
        '@pytest.mark.parametrize("verdict, name", [("a", "solve")])\n'
        'def test_a(monkeypatch, verdict, name):\n'
        '    monkeypatch.setattr(fspec.experiments, name, None)\n'
        '    assert passed == {"c-h2": False, "b": True}\n'
        'def test_unperturbed():\n'
        '    assert passed == {"b": False}\n'))
    assert failed == {"a", "c-h2"}
    assert verdict_coverage_gaps(emitted, failed) == ["b"]
    assert verdict_coverage_gaps(emitted, failed | {"b"}) == []


def test_every_verdict_is_seen_to_fail():
    # each verdict name of fspec.experiments has a test that perturbs a name
    # bound there and requires that verdict to fail
    emitted = emitted_verdicts(ast.parse((PACKAGE / "experiments.py").read_text()))
    assert len(emitted) == 18, sorted(emitted)
    failed = set().union(*(failed_verdicts(ast.parse(path.read_text()))
                           for path in sorted((ROOT / "tests").glob("test_*.py"))))
    missing = verdict_coverage_gaps(emitted, failed)
    assert not missing, "verdicts no perturbation test fails: " + ", ".join(missing)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch):
    # the demos call the public API end to end, so an API change that breaks
    # one shows here
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert not list(tmp_path.iterdir()), "the demo left files behind"
