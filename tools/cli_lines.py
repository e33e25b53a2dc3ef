"""Which source lines of the package do the five CLI commands run?

Traces every line executed under ``src/raman_pairs`` while the commands run
in this process through ``raman_pairs.cli.main`` on the shipped configs,
from before the package is imported, so module-level lines count too.  The
runs are ``state`` and ``filter`` (JSON and CSV), ``scan``, ``chsh
--samples 1000 --events-csv`` and ``tables --max-doubled-j 2``; the JSON
``state`` and ``filter`` print, and the other runs write into a temporary
directory.  Per module it prints the executable lines (every line that a
code object of the file maps an instruction to, from ``co_lines``) and how
many of them ran; the rest is code that no command reaches.  Standard
library only:

    python tools/cli_lines.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raman_pairs"
PREFIX = str(PACKAGE) + "/"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some code object maps an instruction to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def _runs(tmp: Path) -> list[list[str]]:
    data = PACKAGE / "data"
    state, chsh, scan = (str(data / f"sodium_{n}.json") for n in ("state", "chsh", "scan"))
    return [
        ["state", "--config", state],
        ["state", "--config", state, "--format", "csv", "--output", str(tmp / "state.csv")],
        ["filter", "--config", state, "--f-select", "1"],
        ["filter", "--config", chsh, "--format", "csv", "--output", str(tmp / "filter.csv")],
        ["scan", "--config", scan, "--output", str(tmp / "scan")],
        ["chsh", "--config", chsh, "--samples", "1000", "--events-csv", str(tmp / "events.csv"),
         "--output", str(tmp / "chsh.json")],
        ["tables", "--max-doubled-j", "2", "--output", str(tmp / "tables")],
    ]


def trace_lines(work) -> dict[str, set[int]]:
    """The lines run in each package file, keyed by path, while ``work()`` runs
    in this thread, with the package importable from this checkout."""
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(PREFIX):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    sys.settrace(trace)
    try:
        work()
    finally:
        sys.settrace(None)
    return ran


def trace_cli() -> dict[str, set[int]]:
    """The lines run in each package file, keyed by path, over all the runs."""

    def work() -> None:
        from raman_pairs.cli import main

        with tempfile.TemporaryDirectory() as tmp:
            for argv in _runs(Path(tmp)):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise SystemExit(f"{argv[0]} exited {code}")

    return trace_lines(work)


def main() -> int:
    ran = trace_cli()
    total_exec = total_run = 0
    print(f"{'module':<26}{'executable':>11}{'run':>7}{'not run':>9}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        hit = lines & ran.get(str(path), set())
        total_exec, total_run = total_exec + len(lines), total_run + len(hit)
        print(f"{path.name:<26}{len(lines):>11}{len(hit):>7}{len(lines) - len(hit):>9}")
    print(f"{'total':<26}{total_exec:>11}{total_run:>7}{total_exec - total_run:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
