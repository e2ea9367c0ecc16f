import ast
import subprocess
import sys
from pathlib import Path

import pytest

import cohkit

SRC = str(Path(cohkit.__file__).resolve().parent.parent)
MODULES = sorted(p for p in Path(cohkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_import_leaves_out_numpy_and_scipy():
    # a fresh interpreter, so nothing the test run loaded counts
    probe = (
        "import sys, cohkit, cohkit.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    """Every name a library module imports is read somewhere in it
    (cohkit/__init__.py re-exports, so it is left out)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_lp_exports_only_what_the_library_calls():
    """Every public function of cohkit.lp is called inside lp.py or
    imported by another library module: no door that only tests open."""
    package = Path(cohkit.__file__).parent
    tree = ast.parse((package / "lp.py").read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("lp", "cohkit.lp"):
                imported.update(alias.name for alias in node.names)
    assert sorted(public - called - imported) == []


def test_simplex_runs_only_inside_the_two_phases():
    """run_simplex and _set_objective are called in lp.py only from
    _phase1 and _phase2, so every LP goes through one phase-1 and one
    phase-2 routine."""
    tree = ast.parse((Path(cohkit.__file__).parent / "lp.py").read_text())
    callers = set()
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("run_simplex", "_set_objective")
                ):
                    callers.add((function.name, node.func.id))
    assert sorted(callers) == [
        ("_phase1", "run_simplex"),
        ("_phase2", "_set_objective"),
        ("_phase2", "run_simplex"),
    ]


def test_only_the_round_driver_runs_subfamily_hulls():
    """In coherence.py, subfamily_hull is called only from _rounds, so
    Gilio's check and the extension run one iteration."""
    tree = ast.parse((Path(cohkit.__file__).parent / "coherence.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    callers = {
        function.name
        for function in functions
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "subfamily_hull"
    }
    assert sorted(callers) == ["_rounds"]
