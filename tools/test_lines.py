"""Which source lines of the package does no test run?

Runs pytest in this process, with the arguments given here passed on to it,
while it traces every line executed under ``src/raman_pairs`` (through
``cli_lines.trace_lines``, from before the package is imported, so
module-level lines count too).  Per module it prints how many of the
executable lines (``cli_lines.executable_lines``) no test ran, and those
lines as ranges.  Code that a test runs in a subprocess does not count.
Standard library and pytest only; from the repository root, on tier-1:

    python tools/test_lines.py -q --continue-on-collection-errors
    python tools/test_lines.py -q tests/test_cli.py -k scan

It exits with pytest's exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_lines import PACKAGE, executable_lines, trace_lines  # noqa: E402


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(args: list[str]) -> int:
    code = 0

    def work() -> None:
        nonlocal code
        code = pytest.main(args)

    ran = trace_lines(work)
    print(f"\nexecutable lines that no test ran (pytest exit code {int(code)}):")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        listed = f": {ranges(missed)}" if missed else ""
        print(f"{path.name}: {len(missed)} of {len(lines)}{listed}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
