"""Every fixed call writes the bytes that ``tests/output_digests.json`` records.

The fixed calls are those of ``tools/same_bytes.py`` without seeded variants:
``state``, ``filter``, ``chsh``, ``scan`` and ``tables`` on the shipped
configs, ``state`` and ``filter`` at 12 off-axis directions, a state whose
levels share one float frequency, and each physics refusal once.  Each call's digest covers its exit
code, stdout, stderr and every file it wrote.  A change that alters output on
purpose re-records the manifest once,

    python tools/same_bytes.py . --record tests/output_digests.json

and its diff names the calls whose bytes changed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "output_digests.json"


def test_fixed_calls_write_the_recorded_bytes(tmp_path):
    """The tool records this checkout's digests afresh, its calls in a fresh
    interpreter, and every call whose digest differs from the manifest is
    named, not only the first.  The digests depend on the BLAS build, as the
    pinned bytes elsewhere do: numpy's bundled OpenBLAS fuses multiply-adds in
    its dot products, so another build may change the last bits of a scan's
    directions and so the scan bytes."""
    written = tmp_path / "output_digests.json"
    tool = [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT), "--record", str(written)]
    proc = subprocess.run(tool, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(MANIFEST.read_text(encoding="utf-8"))
    digests = json.loads(written.read_text(encoding="utf-8"))
    differ = [name for name in {**recorded, **digests} if recorded.get(name) != digests.get(name)]
    assert not differ, f"calls whose bytes differ from {MANIFEST.name}: {differ}"
