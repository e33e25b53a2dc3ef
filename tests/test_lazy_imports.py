"""What start-up loads: ``import raman_pairs`` resolves its exports on first
use, ``tables`` never imports numpy, and neither ``tables``, ``state`` nor
``filter --f-select`` imports ``fractions`` or ``decimal``, which only a
``Fraction`` argument or a ``CoupledValue`` needs.  Each check runs in a fresh
interpreter, since this one has numpy loaded already."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import raman_pairs

SRC = Path(raman_pairs.__file__).parents[1]
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {'numpy', 'fractions', 'decimal'})), file=sys.stderr)"


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
        f"{LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (  # the J = 2 pin
        "ede8e5e9157466bf5e1b0186ac5f3a3669280f52613be33c854f9a2b5336a478"
    )


def test_state_imports_no_fractions():
    config = SRC / "raman_pairs" / "data" / "sodium_state.json"
    proc = fresh(
        "import json, sys\n"
        "from raman_pairs.cli import main\n"
        f"code = main(['state', '--config', {str(config)!r}])\n"
        f"{LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert not {"fractions", "decimal"} & set(json.loads(proc.stderr))
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (  # the state pin
        "09d58668e9319756a301015be4693b5816979175799d07c61cf0cfc57dd9d6ad"
    )


def test_filter_level_string_imports_no_fractions():
    # a level spelled on the command line is read by int and re alone
    config = SRC / "raman_pairs" / "data" / "sodium_state.json"
    proc = fresh(
        "import json, sys\n"
        "from raman_pairs.cli import main\n"
        f"code = main(['filter', '--config', {str(config)!r}, '--f-select', '1'])\n"
        f"{LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert not {"fractions", "decimal"} & set(json.loads(proc.stderr))


def test_package_import_is_lazy_and_every_export_resolves():
    proc = fresh(
        "import json, sys\n"
        "import raman_pairs\n"
        f"{LOADED}\n"
        "missing = [n for n in raman_pairs.__all__ if getattr(raman_pairs, n, None) is None]\n"
        "print(json.dumps([missing, sorted(set(raman_pairs.__all__) - set(dir(raman_pairs)))]))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []
    assert json.loads(proc.stdout) == [[], []]
