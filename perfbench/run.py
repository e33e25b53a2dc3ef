"""Benchmark of the raman-pairs command-line program.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the program is imported from
``src/``.  Each run generates the workload's configs from the seed, measures
set-up time in fresh interpreters, then runs the workload in one fresh child
process that calls ``raman_pairs.cli.main`` in-process, one closed-loop
client, serial scans.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine, versions and run details.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of ``BENCHMARK.json``.
``--smoke`` shrinks every input to a few calls, for tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PRESET = SRC / "raman_pairs" / "data" / "sodium_state.json"
SETUP_REPEATS = 7  # fresh interpreters per run, half before and half after the workload
IMPORTTIME_REPEATS = 3
CHILD_GRACE_S = 150.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("RAMAN_PAIR_THREADS", None)  # scans stay serial, the default
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up loads cached bytecode, as an install does
    env["PYTHONPATH"] = str(SRC)
    return env


def _import_times(stderr: str) -> dict:
    """Cumulative import times of raman_pairs and of scipy from ``-X importtime``."""
    entries = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if match:
            entries.append((len(match.group(2)) // 2, match.group(3), int(match.group(1)) * 1e-6))
    raman = scipy = 0.0
    stack: list[tuple[int, bool]] = []
    # Children print before their parent; reversed, every parent precedes its subtree.
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(flag for _, flag in stack):
            scipy += cumulative
        if name == "raman_pairs":
            raman = cumulative
        stack.append((depth, is_scipy))
    return {"import_raman_pairs_s": raman, "import_scipy_s": scipy}


def _probe(workdir: Path, importtime: bool) -> tuple[float, dict]:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "setup_probe.py"), str(PRESET), str(workdir / "setup_state.json")]
    start = perf_counter()
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    data = json.loads(proc.stdout.splitlines()[-1])
    if SRC.resolve() not in Path(data["module"]).resolve().parents:
        raise RuntimeError(f"set-up probe imported {data['module']}, not the checkout's src/")
    if importtime:
        data.update(_import_times(proc.stderr))
    return wall, data


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args: argparse.Namespace, workdir: Path) -> tuple[dict, dict]:
    plan = workloads.build_plan(args.workload, args.seed, SRC, workdir, args.smoke)
    plan.update(src=str(SRC), seconds=args.seconds, trace=bool(args.trace), result=str(workdir / "result.json"))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    _probe(workdir, importtime=False)  # compiles bytecode and warms the file cache
    repeats = 1 if args.smoke else (IMPORTTIME_REPEATS if args.trace else SETUP_REPEATS)
    probes = [_probe(workdir, importtime=bool(args.trace)) for _ in range((repeats + 1) // 2)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        timeout=args.seconds + CHILD_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    probes += [_probe(workdir, importtime=bool(args.trace)) for _ in range(repeats // 2)]
    child = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    attempted = child["attempted"] + len(probes) + 1
    failed = child["failed"]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "item": workloads.ITEM_UNITS[args.workload],
        "machine": {"nproc": os.cpu_count(), "platform": sys.platform, **child["versions"]},
        "checks": child["checks"],
        "failures": child["failures"],
    }
    if args.trace:
        trace = child["trace"]
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = _metric(trace["spans"][name]["calls"], "count")
            metrics[f"{name}.self_s"] = _metric(trace["spans"][name]["self_s"], "s")
        nodes = child["nodes"]
        metrics.update(
            {
                "angular_momentum.cache_hit_ratio": _metric(trace["cache_hit_ratio"], "ratio"),
                "geometry_explorer.flagged_ratio": _metric(child["flagged"] / nodes if nodes else 0.0, "ratio"),
                "bell_sim.events_csv_bytes": _metric(child["events_csv_bytes"], "bytes"),
                "setup.import_raman_pairs_s": _metric(
                    statistics.median(p["import_raman_pairs_s"] for _, p in probes), "s"
                ),
                "setup.import_scipy_s": _metric(statistics.median(p["import_scipy_s"] for _, p in probes), "s"),
                "setup.first_state_s": _metric(statistics.median(p["first_state_s"] for _, p in probes), "s"),
                "tracing_overhead_ratio": _metric(trace["tracing_overhead_ratio"], "ratio"),
                "trace.uncovered_ratio": _metric(trace["uncovered_ratio"], "ratio"),
                "failed_ratio": _metric(failed / attempted, "ratio"),
            }
        )
        detail["traced_passes"] = trace["passes"]
    else:
        # Each input's latency is its fastest repetition in the timed phase:
        # the machine's speed drifts by tens of percent over seconds to
        # minutes, and the fastest repetition is the least disturbed one.
        timed = child["timed"]
        items = {call["id"]: call["items"] for calls in plan["rounds"] for call in calls}
        best = {int(k): v for k, v in timed["best_s"].items()}
        per_input = sorted(best.values())
        raw = sorted(timed["latencies_s"])
        metrics = {
            "setup_s": _metric(statistics.median(wall for wall, _ in probes), "s"),
            "throughput_per_s": _metric(sum(items[i] for i in best) / sum(per_input), "1/s"),
            "query_p50_ms": _metric(_percentile(per_input, 0.50) * 1e3, "ms"),
            "query_p95_ms": _metric(_percentile(per_input, 0.95) * 1e3, "ms"),
            "peak_rss_mb": _metric(child["peak_rss_mb"], "MB"),
        }
        detail.update(
            inputs=len(items),
            calls=len(raw),
            elapsed_s=timed["elapsed_s"],
            inputs_beyond_p95=sum(1 for x in per_input if x > _percentile(per_input, 0.95)),
            raw_latency_ms={"p50": _percentile(raw, 0.5) * 1e3, "p99": _percentile(raw, 0.99) * 1e3},
            raw_throughput_per_s=timed["items"] / timed["elapsed_s"],
        )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "raman_pairs" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'raman_pairs'}; run from a raman-pairs checkout", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        detail, result = run(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
