"""Run one workload plan in-process through ``raman_pairs.cli.main``.

Usage: python3 perfbench/child.py PLAN_JSON

The parent writes the plan (see ``workloads.build_plan``) and reads the
result file named in it.  Order of work:

1. the reference calls and one check pass over every seeded input, each
   output validated by its check and its digest recorded;
2. the timed phase, which cycles through the inputs until ``seconds`` have
   passed (at least one full pass) and compares each output digest with the
   one from step 1.  It records every call's latency and each input's
   fastest repetition.  With
   ``trace`` set, it alternates untraced and traced passes over all inputs
   instead, to report per-pass span statistics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads
from tracer import SPAN_NAMES, Tracer


class Runner:
    """Invokes CLI calls and keeps the operation and check tallies."""

    def __init__(self, cli, caches) -> None:
        self.cli = cli
        self.caches = caches
        self.cleared = [0, 0]  # cache hits and misses dropped by cache_clear
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks: Counter = Counter()
        self.digests: dict[int, str] = {}
        self.facts: dict[int, dict] = {}

    def cache_counts(self) -> tuple[int, int]:
        hits, misses = self.cleared
        for cache in self.caches:
            info = cache.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def _invoke(self, call: dict) -> tuple[float, object, str]:
        if call.get("cold_caches"):
            for cache in self.caches:
                info = cache.cache_info()
                self.cleared[0] += info.hits
                self.cleared[1] += info.misses
                cache.cache_clear()
        buf = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(call["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an unexpected exception is a failed operation
            code = repr(exc)
        return perf_counter() - start, code, buf.getvalue()

    @staticmethod
    def _digest(call: dict, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for path in call["outputs"]:
            h.update(Path(path).read_bytes())
        return h.hexdigest()

    def run(self, call: dict, check: bool) -> tuple[float, bool]:
        """Run one call; validate it fully (``check``) or by its digest."""
        self.attempted += 1
        elapsed, code, stdout = self._invoke(call)
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code!r}")
            digest = self._digest(call, stdout)
            if check:
                self.digests[call["id"]] = digest
                self.checks[call["check"]] += 1
                self.facts[call["id"]] = workloads.CHECKS[call["check"]](call, stdout)
            else:
                self.checks["digest"] += 1
                if digest != self.digests[call["id"]]:
                    raise workloads.CheckFailed("output differs from the first pass with the same inputs")
        except Exception as exc:  # a check that cannot parse the output fails it too
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{call['argv'][0]} [{call['check']}]: {exc}")
            return elapsed, False
        return elapsed, True

    def run_pass(self, rounds: list[list[dict]]) -> float:
        start = perf_counter()
        for calls in rounds:
            for call in calls:
                self.run(call, check=False)
        return perf_counter() - start


def _timed(runner: Runner, rounds: list[list[dict]], seconds: float) -> dict:
    """Cycle through the inputs; keep every latency and each input's fastest one."""
    latencies: list[float] = []
    best: dict[int, float] = {}
    items = 0
    index = 0
    start = perf_counter()
    deadline = start + seconds
    while index < len(rounds) or perf_counter() < deadline:
        for call in rounds[index % len(rounds)]:
            elapsed, ok = runner.run(call, check=False)
            latencies.append(elapsed)
            if ok:
                items += call["items"]
                best[call["id"]] = min(elapsed, best.get(call["id"], elapsed))
        index += 1
    return {"items": items, "elapsed_s": perf_counter() - start, "latencies_s": latencies, "best_s": best}


def _traced(runner: Runner, rounds: list[list[dict]], seconds: float, tracer: Tracer) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    uncovered: list[float] = []
    per_pass = {name: ([], []) for name in SPAN_NAMES}
    hits = misses = 0
    deadline = perf_counter() + seconds
    pair = 0
    while True:
        if pair % 2 == 0:  # ABBA order, so a steady drift cancels in the overhead ratio
            plain.append(runner.run_pass(rounds))
        tracer.reset()
        h0, m0 = runner.cache_counts()
        tracer.install()
        try:
            wall = runner.run_pass(rounds)
        finally:
            tracer.uninstall()
        h1, m1 = runner.cache_counts()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        traced.append(wall)
        uncovered.append((wall - tracer.top_s) / wall)
        for name, (calls, self_s) in tracer.stats.items():
            per_pass[name][0].append(calls)
            per_pass[name][1].append(self_s)
        if pair % 2 == 1:
            plain.append(runner.run_pass(rounds))
        pair += 1
        if perf_counter() >= deadline:
            break
    return {
        "passes": len(traced),
        "spans": {
            name: {"calls": statistics.median(c), "self_s": min(s)} for name, (c, s) in per_pass.items()
        },
        "tracing_overhead_ratio": min(traced) / min(plain),
        "uncovered_ratio": statistics.median(uncovered),
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import numpy
    import raman_pairs
    from raman_pairs import angular_momentum, cli

    if Path(plan["src"]).resolve() not in Path(raman_pairs.__file__).resolve().parents:
        print(f"raman_pairs imported from {raman_pairs.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    caches = [
        obj
        for obj in vars(angular_momentum).values()
        if callable(getattr(obj, "cache_info", None)) and callable(getattr(obj, "cache_clear", None))
    ]
    runner = Runner(cli, caches)
    for call in plan["reference"]:
        runner.run(call, check=True)
    for calls in plan["rounds"]:
        for call in calls:
            runner.run(call, check=True)

    result: dict = {}
    if plan["trace"]:
        result["trace"] = _traced(runner, plan["rounds"], plan["seconds"], Tracer("raman_pairs"))
    else:
        result["timed"] = _timed(runner, plan["rounds"], plan["seconds"])

    pass_facts = [runner.facts.get(c["id"], {}) for calls in plan["rounds"] for c in calls]
    scipy_version = getattr(sys.modules.get("scipy"), "__version__", None)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        checks=dict(runner.checks),
        nodes=sum(f.get("nodes", 0) for f in pass_facts),
        flagged=sum(f.get("flagged", 0) for f in pass_facts),
        events_csv_bytes=sum(f.get("events_csv_bytes", 0) for f in pass_facts),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy_version,
            "raman_pairs": raman_pairs.__version__,
        },
    )
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
