"""The package's public surface and source hygiene."""

import ast
import inspect
from pathlib import Path

import socpath
import socpath.cli
import socpath.solver

from util import cold_point, toy_lp


def test_every_export_resolves():
    missing = [name for name in socpath.__all__ if not hasattr(socpath, name)]
    assert missing == []
    namespace = {}
    exec("from socpath import *", namespace)
    assert set(socpath.__all__) <= set(namespace)


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    """Every imported name is referenced (no linter is installed to check)."""
    package = Path(socpath.__file__).parent
    unused = [item for path in sorted(package.glob("*.py"))
              if path.name != "__init__.py" for item in _unused_imports(path)]
    assert unused == []


def _matrix_inversions(path):
    tree = ast.parse(path.read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "inv"
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "linalg"]
    found += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and node.module == "numpy.linalg"
              and any(alias.name == "inv" for alias in node.names)]
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_matrix_inversion():
    """Every inverse in the package is closed form (the group inverse
    Q G' Q, the reflection identity for T_v^{-1}); no np.linalg.inv."""
    package = Path(socpath.__file__).parent
    found = [item for path in sorted(package.glob("*.py"))
             for item in _matrix_inversions(path)]
    assert found == []


def _definitions(path):
    tree = ast.parse(path.read_text())
    return [(node.name, node.lineno) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]


def _references(path):
    tree = ast.parse(path.read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)}


def test_no_unreferenced_private_definitions():
    """Every module-level function or class is referenced somewhere in the
    package; a public one may instead be exported in socpath.__all__ or
    referenced by a test.  A definition left without readers fails."""
    paths = sorted(Path(socpath.__file__).parent.glob("*.py"))
    referenced = set().union(*(_references(path) for path in paths))
    tests = sorted(Path(__file__).parent.glob("*.py"))
    public = referenced | set(socpath.__all__) \
        | set().union(*(_references(path) for path in tests))
    unused = [f"{path.name}:{line} {name}" for path in paths
              for name, line in _definitions(path)
              if name not in (referenced if name.startswith("_") else public)]
    assert unused == []


def test_cli_only_parses_and_writes():
    """socpath.cli defines only the parser, the entry point, the command
    handlers and the diagnostics document; warm-start and benchmark logic
    live in the library, and the CLI imports what it runs."""
    cli = socpath.cli
    defined = [name for name, obj in vars(cli).items()
               if inspect.isfunction(obj) and obj.__module__ == cli.__name__
               and not name.startswith("_")]
    allowed = {"main", "build_parser", "diagnostics_document"}
    assert [name for name in defined
            if name not in allowed and not name.startswith("cmd_")] == []
    assert cli.run_bench.__module__ == "socpath.warmstart"


def test_one_step_point_call_per_iteration(monkeypatch):
    """`solve` takes every Newton step through `socpath.solver.step_point`,
    the name that the benchmark's per-step clock wraps; a step taken
    another way would leave that clock without stamps."""
    calls = []
    original = socpath.solver.step_point

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)
    monkeypatch.setattr(socpath.solver, "step_point", counted)
    problem = toy_lp()
    for scaling in ("identity", "nt"):
        calls.clear()
        result = socpath.solve(problem, cold_point(problem),
                               socpath.SolverParams(epsilon=1e-2,
                                                    scaling=scaling))
        assert result.iterations > 0
        assert len(calls) == result.iterations
