"""The measuring tools under ``tools/`` still run: each exits 0 and names every
module or command it covers, so the figures they give can be taken again."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(tool: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_lines_counts_every_module():
    out = run("cli_lines.py")
    for path in (ROOT / "src" / "raman_pairs").glob("*.py"):
        assert f"\n{path.name} " in out
    assert "\ntotal " in out


def test_cold_path_times_every_probe():
    out = run("cold_path.py", "--repeats", "1")
    assert f"{ROOT}  (1 runs)" in out
    for figure in ("cli import", "first state", "import + first state"):
        assert f"  {figure} (ms) " in out
    for command in ("state", "scan", "tables"):
        assert f"  {command} wall (ms) " in out
        assert f"  {command} peak RSS (MB) " in out
        assert f"  {command} loads: " in out


def test_test_lines_lists_the_lines_no_test_ran():
    test_file = str(ROOT / "tests" / "test_json_text.py")
    out = run("test_lines.py", "-q", "-p", "no:cacheprovider", test_file)  # pytest's arguments
    assert " passed" in out
    for path in (ROOT / "src" / "raman_pairs").glob("*.py"):
        assert f"\n{path.name}: " in out
    # test_json_text never runs a CHSH sample: bell_sim has lines that no test ran
    missed = next(line for line in out.splitlines() if line.startswith("bell_sim.py: "))
    assert not missed.startswith("bell_sim.py: 0 of ")


def test_same_bytes_finds_the_checkout_identical_to_itself():
    out = run("same_bytes.py", str(ROOT), str(ROOT), "--variants", "2")
    lines = out.splitlines()
    digests = [line.split()[0] for line in lines[:2]]
    assert lines[0].endswith(f"  {ROOT}  (25 calls)") and digests[0] == digests[1]
    assert len(digests[0]) == 64 and lines[2:] == ["identical"]
