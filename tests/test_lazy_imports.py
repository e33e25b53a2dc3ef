"""What start-up loads: ``import raman_pairs`` resolves its exports on first
use, ``tables`` never imports numpy, and neither ``tables``, ``state`` nor
``filter --f-select`` imports ``fractions`` or ``decimal``, which only a
``Fraction`` argument or a ``CoupledValue`` needs.  No command imports
``dataclasses``, since no record is one, and ``tables`` imports no
``inspect`` either (numpy imports it for the others).  Each check runs in a
fresh interpreter, since this one has numpy loaded already."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import raman_pairs
from raman_pairs.cli import main

SRC = Path(raman_pairs.__file__).parents[1]
# the recorded parts of each fixed call of tools/same_bytes.py
MANIFEST = json.loads(
    (Path(__file__).resolve().parent / "output_digests.json").read_text(encoding="utf-8")
)
WATCHED = {"numpy", "fractions", "decimal", "dataclasses", "inspect"}
LOADED = f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {WATCHED})), file=sys.stderr)"
DATA = SRC / "raman_pairs" / "data"


def fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


def loaded_by(argv: list[str]) -> set[str]:
    """The watched modules that ``cli.main(argv)`` loads in a new interpreter."""
    proc = fresh(
        "import json, sys\n"
        "from raman_pairs.cli import main\n"
        f"code = main({argv!r})\n"
        f"{LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr))


def test_tables_imports_no_numpy():
    proc = fresh(
        "import json, sys\n"
        "from raman_pairs.cli import main\n"
        "code = main(['tables', '--max-doubled-j', '2'])\n"
        f"{LOADED}\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == []  # no numpy, fractions, decimal, dataclasses, inspect
    # the lazy imports change no byte: the fresh process prints the recorded stdout
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == MANIFEST["tables 2"]["stdout"]


def test_state_imports_no_fractions(capsys):
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
    assert "dataclasses" not in json.loads(proc.stderr)
    # the lazy imports change no byte: the fresh process prints what this one does
    assert main(["state", "--config", str(config)]) == 0
    assert proc.stdout == capsys.readouterr().out


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
    assert "dataclasses" not in json.loads(proc.stderr)


def test_scan_imports_no_dataclasses(tmp_path):
    config = tmp_path / "scan.json"
    text = (DATA / "sodium_scan.json").read_text()
    config.write_text(text.replace('"resolution_deg": 2.0', '"resolution_deg": 30.0'))
    argv = ["scan", "--config", str(config), "--output", str(tmp_path / "s")]
    assert "dataclasses" not in loaded_by(argv)


def test_chsh_imports_no_dataclasses(tmp_path):
    config, events = str(DATA / "sodium_chsh.json"), str(tmp_path / "e.csv")
    argv = ["chsh", "--config", config, "--samples", "1000", "--events-csv", events]
    assert "dataclasses" not in loaded_by(argv)


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
