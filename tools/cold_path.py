"""What a fresh CLI process pays before and while it answers, per source tree.

Each tree is a checkout root with ``src/raman_pairs``.  Per round and per
probe, the trees take turns, in reverse order on odd rounds, so that a drift
of the machine falls on every tree alike.  The probes:

* in-process: a new interpreter imports numpy, then times ``from
  raman_pairs import cli`` and the first ``state`` call on the shipped
  preset, which loads the species and builds the first pair state;
* fresh processes: ``state`` on the shipped preset, ``scan`` at 30 degrees
  (a temporary copy of ``sodium_scan.json``) and ``tables --max-doubled-j
  6``, each timed from start to exit, with its peak RSS from ``os.wait4``
  and the modules among ``dataclasses``, ``inspect`` and ``numpy`` that it
  loaded.

Each tree's package is byte-compiled first, so no probe compiles.  Prints
the median and quartiles of every figure.  Standard library only:

    python tools/cold_path.py [TREE ...] [--repeats N]

The default tree is the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHED = ("dataclasses", "inspect", "numpy")
IN_PROCESS = """\
import contextlib, io, json, sys, time
import numpy
start = time.perf_counter()
from raman_pairs import cli
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["state", "--config", sys.argv[1]])
done = time.perf_counter()
print(json.dumps([code, cli.__file__, imported - start, done - imported]))
"""
FRESH = f"""\
import sys
from raman_pairs.cli import main
code = main(sys.argv[1:])
print(",".join(m for m in {WATCHED!r} if m in sys.modules), file=sys.stderr)
sys.exit(code)
"""
COMMANDS = ("state", "scan", "tables")


def _data(tree: Path) -> Path:
    return tree / "src" / "raman_pairs" / "data"


def _argv(command: str, data: Path, tmp: Path) -> list[str]:
    if command == "state":
        return ["state", "--config", str(data / "sodium_state.json")]
    if command == "scan":
        config = json.loads((data / "sodium_scan.json").read_text(encoding="utf-8"))
        config["detection"]["scan"]["resolution_deg"] = 30.0
        path = tmp / "scan_config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return ["scan", "--config", str(path), "--output", str(tmp / "scan")]
    return ["tables", "--max-doubled-j", "6", "--output", str(tmp / "tables")]


def _run(tree: Path, code: str, args: list[str]) -> tuple[float, float, str, str]:
    """Wall seconds, peak RSS in MB, stdout and stderr of ``python -c code args``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        cmd = [sys.executable, "-c", code, *args]
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0), err.seek(0)
        stdout, stderr = out.read(), err.read()
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {args[:1]} exited {proc.returncode}:\n{stderr}")
    return wall, usage.ru_maxrss / 1024.0, stdout, stderr


def _in_process(tree: Path, data: Path) -> dict[str, float]:
    _, _, stdout, _ = _run(tree, IN_PROCESS, [str(data / "sodium_state.json")])
    code, module, imported, first_state = json.loads(stdout)
    if code != 0 or not Path(module).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: state exited {code} from {module}")
    return {
        "cli import (ms)": 1e3 * imported,
        "first state (ms)": 1e3 * first_state,
        "import + first state (ms)": 1e3 * (imported + first_state),
    }


def measure(trees: list[Path], repeats: int) -> tuple[dict, dict]:
    """Per tree, each figure's samples and each command's loaded modules."""
    samples: dict[Path, dict[str, list[float]]] = {tree: {} for tree in trees}
    loaded: dict[Path, dict[str, str]] = {tree: {} for tree in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for round_ in range(repeats):
            turn = trees[:: -1 if round_ % 2 else 1]
            for tree in turn:
                for name, value in _in_process(tree, _data(tree)).items():
                    samples[tree].setdefault(name, []).append(value)
            for command in COMMANDS:
                for tree in turn:
                    argv = _argv(command, _data(tree), Path(tmp))
                    wall, rss, _, stderr = _run(tree, FRESH, argv)
                    samples[tree].setdefault(f"{command} wall (ms)", []).append(1e3 * wall)
                    samples[tree].setdefault(f"{command} peak RSS (MB)", []).append(rss)
                    loaded[tree][command] = stderr.splitlines()[-1] or "none"
    return samples, loaded


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--repeats", type=int, default=20, help="rounds per tree (default 20)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "raman_pairs" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/raman_pairs")
        compileall.compile_dir(tree / "src" / "raman_pairs", quiet=1)
    samples, loaded = measure(trees, max(1, args.repeats))
    for tree in trees:
        print(f"{tree}  ({len(samples[tree]['cli import (ms)'])} runs)")
        print(f"  {'figure':<28}{'median':>10}{'q1':>10}{'q3':>10}")
        for name, values in samples[tree].items():
            print(f"  {name:<28}" + "".join(f"{v:>10.1f}" for v in _quartiles(values)))
        for command in COMMANDS:
            print(f"  {command} loads: {loaded[tree][command]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
