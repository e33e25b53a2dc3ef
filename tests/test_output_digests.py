"""Every fixed call writes the bytes that ``tests/output_digests.json`` records.

The fixed calls are those of ``tools/same_bytes.py`` without seeded variants:
``state``, ``filter``, ``chsh``, ``scan`` and ``tables`` on the shipped
configs, ``state`` and ``filter`` at 12 off-axis directions, a state whose
levels share one float frequency, each physics refusal once, a seeded
``chsh`` of 65,636 trials with its events CSV, and ``tables`` to stdout at
each J from 0 to 12.  The manifest holds each call's parts: its exit code and
the SHA-256 of its ``stdout``, its ``stderr`` and each file it wrote, by
name.  A change that alters output on purpose re-records the manifest once,

    python tools/same_bytes.py . --record tests/output_digests.json

and its diff names the calls and parts whose bytes changed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "output_digests.json"
sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402


def test_fixed_calls_write_the_recorded_bytes(tmp_path):
    """The tool records this checkout's parts afresh, its calls in a fresh
    interpreter, and every part that differs from the manifest is named with
    its call, not only the first.  The digests depend on the BLAS build, as
    the pinned bytes elsewhere do: numpy's bundled OpenBLAS fuses
    multiply-adds in its dot products, so another build may change the last
    bits of a scan's directions and so the scan bytes."""
    written = tmp_path / "output_digests.json"
    tool = [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT), "--record", str(written)]
    proc = subprocess.run(tool, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    differ = same_bytes.differing([recorded, json.loads(written.read_text(encoding="utf-8"))])
    named = [f"{call}: {part}" for call, part in differ]
    assert not differ, f"parts whose bytes differ from {MANIFEST.name}: {named}"
