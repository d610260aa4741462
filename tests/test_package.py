"""The package's public surface and source hygiene."""

import ast
import builtins
import dataclasses
import inspect
import re
from pathlib import Path

import socpath
import socpath.analysis
import socpath.cli
import socpath.cones
import socpath.kkt
import socpath.problem
import socpath.solver
import socpath.warmstart

from util import cold_point, toy_lp


def test_every_export_resolves():
    missing = [name for name in socpath.__all__ if not hasattr(socpath, name)]
    assert missing == []
    namespace = {}
    exec("from socpath import *", namespace)
    assert set(socpath.__all__) <= set(namespace)


def _resolves(path):
    """Whether a dotted name resolves on socpath, on one of its modules or
    in builtins; a `socpath.` prefix is read from the package."""
    head, *attrs = path.split(".")
    if head == "socpath":
        owners, head, attrs = [socpath], attrs[0], attrs[1:]
    else:
        owners = [socpath, builtins] + [
            module for name, module in vars(socpath).items()
            if inspect.ismodule(module) and module.__name__ == f"socpath.{name}"]
    for owner in owners:
        obj = getattr(owner, head, None)
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def test_readme_names_only_what_exists():
    """Every backticked CamelCase name or dotted socpath path in the
    README, call parentheses stripped, resolves, so the README cannot name
    a class, function or attribute that is gone."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = {re.sub(r"\(.*\)$", "", span.strip())
             for span in re.findall(r"`([^`\n]+)`", readme)}
    named = {name for name in names if re.fullmatch(
        r"(?:socpath|[A-Z]\w*[a-z]\w*)(?:\.\w+)+|[A-Z]\w*[a-z]\w*", name)}
    assert "socpath.kkt.KktWorkspace" in named and "Spectrum" in named
    assert sorted(name for name in named if not _resolves(name)) == []


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


def test_every_solver_option_has_a_caller():
    """Each SolverParams field is passed by keyword or read as an attribute
    by a package module other than solver.py, so an option that only tests
    set fails here."""
    package = Path(socpath.__file__).parent
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "solver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword):
                used.add(node.arg)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    fields = [f.name for f in dataclasses.fields(socpath.SolverParams)]
    assert [name for name in fields if name not in used] == []


# Public functions of the hot path that the acceptance suite and users call
# but nothing in the package does.
ENTRY_POINTS = {"membership", "nt_scaling", "jordan_product", "t_inverse_apply",
                "increment_bound", "scaled_increment_diagnostics"}


def _imported_modules(path):
    """Absolute names of what a package file imports, each name imported
    from a module also as module.name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "socpath" + ("." + base if base else "")
            found.add(base)
            found |= {f"{base}.{alias.name}" for alias in node.names}
    return found


def test_hot_path_holds_only_what_runs():
    """cones, kkt and solver define only what a solve, a warm start, the
    CLI or a listed entry point runs: every public module-level function
    there is read by a package module other than __init__ (which only
    re-exports) and analysis (which no solve runs), or is an entry point.
    No package module but __init__ imports analysis."""
    package = Path(socpath.__file__).parent
    paths = sorted(package.glob("*.py"))
    readers = set().union(*(_references(path) for path in paths
                            if path.name not in ("__init__.py", "analysis.py")))
    functions = [(path.name, node.lineno, node.name)
                 for path in (package / "cones.py", package / "kkt.py",
                              package / "solver.py")
                 for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef)
                 and not node.name.startswith("_")]
    assert ENTRY_POINTS <= {name for _, _, name in functions}
    unread = [f"{file}:{line} {name}" for file, line, name in functions
              if name not in readers | ENTRY_POINTS]
    assert unread == []
    importers = [path.name for path in paths if path.name != "__init__.py"
                 and "socpath.analysis" in _imported_modules(path)]
    assert importers == []


ANALYSIS = ("arrow_matrix", "t_scaling_matrix", "u_p_matrices", "w_vector",
            "r_matrix", "apply_scaling", "random_automorphism",
            "embed_residual_constants")


def test_analysis_objects_live_in_one_module():
    """The paper's analysis objects are defined in socpath.analysis, reach
    users as the same objects through the package, and are absent from the
    modules a solve runs."""
    for name in ANALYSIS:
        obj = getattr(socpath.analysis, name)
        assert obj.__module__ == "socpath.analysis"
        assert getattr(socpath, name) is obj
        for module in (socpath.cones, socpath.kkt, socpath.problem,
                       socpath.solver):
            assert not hasattr(module, name)


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
