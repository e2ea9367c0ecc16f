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
