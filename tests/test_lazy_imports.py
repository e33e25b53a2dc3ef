"""What start-up loads: ``import raman_pairs`` resolves its exports on first
use, and ``tables`` never imports numpy.  Each check runs in a fresh
interpreter, since this one has numpy loaded already."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import raman_pairs

SRC = Path(raman_pairs.__file__).parents[1]
NUMPY_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')), file=sys.stderr)"


def fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def test_tables_imports_no_numpy():
    proc = fresh(
        "import json, sys\n"
        "from raman_pairs.cli import main\n"
        "code = main(['tables', '--max-doubled-j', '2'])\n"
        f"{NUMPY_LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (  # the J = 2 pin
        "ede8e5e9157466bf5e1b0186ac5f3a3669280f52613be33c854f9a2b5336a478"
    )


def test_package_import_is_lazy_and_every_export_resolves():
    proc = fresh(
        "import json, sys\n"
        "import raman_pairs\n"
        f"{NUMPY_LOADED}\n"
        "missing = [n for n in raman_pairs.__all__ if getattr(raman_pairs, n, None) is None]\n"
        "print(json.dumps([missing, sorted(set(raman_pairs.__all__) - set(dir(raman_pairs)))]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []
    assert json.loads(proc.stdout) == [[], []]
