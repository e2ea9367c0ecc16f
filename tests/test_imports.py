import subprocess
import sys
from pathlib import Path

import cohkit

SRC = str(Path(cohkit.__file__).resolve().parent.parent)


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
