"""The measuring tools under ``tools/`` still run: each exits 0 and names every
module or command it covers, so the figures they give can be taken again."""

import json
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
    # 10 on the shipped configs, 7 scans, one state of one float frequency, 6
    # physics refusals, 6 at each of 12 off-axis directions, a chsh of 65,636
    # trials, tables to stdout at 13 J, and per variant 7 on sodium and 3 on a
    # drawn species
    assert lines[0].endswith(f"  {ROOT}  (130 calls)") and digests[0] == digests[1]
    assert len(digests[0]) == 64 and lines[2:] == ["identical"]


def test_same_bytes_draws_species_its_other_calls_do_not_see(tmp_path, monkeypatch):
    # the species variants come from their own generator: drawing more of
    # them changes no sodium call or config
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import same_bytes

    calls = same_bytes.plan(ROOT, tmp_path, 6, 5)
    draw = same_bytes._species
    monkeypatch.setattr(same_bytes, "_species", lambda rng, *a: [rng.random(), draw(rng, *a)][1])
    (tmp_path / "more").mkdir()
    more = same_bytes.plan(ROOT, tmp_path / "more", 6, 5)
    assert [c for c in calls if " species " not in c[0]] == [
        c for c in more if " species " not in c[0]
    ]
    for path in tmp_path.glob("*.json"):
        if "_species" not in path.name:
            assert path.read_text() == (tmp_path / "more" / path.name).read_text()
    species = [name for name, _ in calls if " species " in name]
    assert len(calls) == 110 + 6 * 10 and len(species) == 6 * 3
    drawn = set()
    for i in range(6):
        atom = json.loads((tmp_path / f"variant{i}_species.json").read_text())
        doc = json.loads((tmp_path / f"variant{i}_species_state.json").read_text())
        ti, tjg = atom["doubled_I"], atom["doubled_ground_J"]
        assert ti in (1, 3, 5) and atom["doubled_excited_J"] in (1, 3)
        assert atom["reduced_dipole"] == 1.0
        lowest = abs(ti - tjg)
        assert list(atom["ground_splittings_hz"]) == [str(lowest), str(ti + tjg)]
        assert {int(k.split(":")[0]) for k in doc["condensate"]["amplitudes"]} == {lowest}
        assert doc["atom_spec_path"] == f"variant{i}_species.json"
        drawn.add((ti, atom["doubled_excited_J"]))
    assert len(drawn) > 1
