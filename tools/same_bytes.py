"""Whether source trees write the same bytes: a digest per output of every call.

Each tree is a checkout root with ``src/raman_pairs``.  The calls, the same
for every tree, run through ``raman_pairs.cli.main`` in one fresh
interpreter per tree:

* ``state`` (JSON and CSV), ``filter`` (each level, JSON and CSV, and the
  config's) and ``chsh`` (analytic, and seeded with ``--events-csv``) on the
  tree's shipped configs, ``scan`` at 30 degrees with each measure, at 6
  degrees with each measure and at 5 degrees (2,664 nodes in 3 chunks, so
  rows cross chunk boundaries), and ``tables``;
* ``state`` on a species whose two levels' photon frequencies are one float,
  so that channels named by level, not by frequency, are compared;
* each physics refusal once, so that every exit-3 message is compared: a
  resonant pump, an emission weight that underflows and one that is not
  finite, a laser below a ground splitting, an empty filter channel and a
  scan whose every node is flagged;
* ``state`` and ``filter`` (each level, JSON and CSV) at 12 fixed off-axis
  detection directions, each with its own F=1 condensate;
* ``chsh`` at the analyzer angles (0, pi/4, pi/8, 3pi/8) with 65,636 seeded
  trials, so that the events CSV crosses the 65,536-trial chunk, and
  ``tables`` to stdout at each ``--max-doubled-j`` from 0 to 12;
* per seeded variant of the shipped configs, with a random unit detection
  direction, a random F=1 condensate and a random transverse pump
  polarization: ``state`` (JSON, and CSV into a file), ``filter`` at each
  level, ``chsh`` (most off-axis states exit 3) and a 30-degree ``scan``;
  and a seeded ``chsh`` with ``--events-csv`` on the shipped CHSH config
  turned to +z or -z, at a random filter level and analyzer angles;
* per seeded variant, also a species of random angular structure (2I in
  {1, 3, 5} and 2J_e in {1, 3}, the shipped 2J_g, unit reduced dipole), with
  a random condensate in its lowest ground level, direction, pump
  polarization and filter level: ``state``, ``filter`` and a 30-degree
  ``scan``.  These draws come from a generator of their own, so a seed
  gives the other calls the configs it gave them before.

A call's parts are its exit code and the SHA-256 of each of its outputs:
``stdout``, ``stderr`` and every file it wrote, by name, with the
shipped-config, config and output directories masked.  The variants are
built from the first tree's shipped configs.  Prints one digest per tree
over all the parts and names each part that differs between trees, as
``differs: <call>: <part>``; exits 1 if any does.  With ``--record FILE`` it
instead writes the parts of each fixed call (the plan of ``--variants 0``)
on one tree to FILE, as a JSON object from call name to parts;
``tests/output_digests.json`` is that manifest of this checkout, and
:func:`fixed_parts` runs one fixed call in the calling process, for a test
to compare with it.  Standard library only:

    python tools/same_bytes.py TREE [TREE ...] [--variants N] [--seed S]
    python tools/same_bytes.py TREE --record FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

MEASURES = ("entropy", "concurrence_after_filter", "conditional_overlap")
# the fixed off-axis calls: seeded random detection directions and F=1
# condensates, rounded to 4 digits; the CLI scales the direction to unit length
OFF_AXIS = [
    ([0.0538, -0.9317, 0.3591], {
        "2:-2": [0.6536, -0.4628], "2:0": [-0.8648, -0.5474], "2:2": [0.6422, 0.2318]
    }),
    ([0.1842, 0.9727, -0.1409], {
        "2:-2": [-0.0077, 1.0441], "2:0": [-0.3645, 1.0698], "2:2": [1.1524, -0.6568]
    }),
    ([0.1262, -0.2817, 0.9512], {
        "2:-2": [1.6913, -0.66], "2:0": [-0.3493, -0.6012], "2:2": [-2.8455, 0.7827]
    }),
    ([-0.2099, 0.0131, 0.9776], {
        "2:-2": [0.2242, -0.7838], "2:0": [0.0487, -0.2146], "2:2": [-1.0801, -0.5855]
    }),
    ([0.5849, -0.407, 0.7016], {
        "2:-2": [0.1259, -0.381], "2:0": [-1.4426, -0.3712], "2:2": [1.2833, -0.7477]
    }),
    ([0.1571, -0.8435, 0.5136], {
        "2:-2": [-2.5459, -0.9246], "2:0": [-0.7225, 0.335], "2:2": [-0.0801, -1.0133]
    }),
    ([-0.1664, 0.6738, -0.72], {
        "2:-2": [-1.0518, 0.8083], "2:0": [-2.5138, 3.3521], "2:2": [-1.1711, 1.3167]
    }),
    ([-0.0091, -0.9908, -0.1351], {
        "2:-2": [-0.1811, -0.7996], "2:0": [0.2269, -1.3446], "2:2": [-0.0306, 1.027]
    }),
    ([0.9186, 0.3752, 0.1241], {
        "2:-2": [0.0878, -0.4994], "2:0": [0.9849, 1.8646], "2:2": [0.766, -0.7095]
    }),
    ([0.6668, 0.3486, 0.6586], {
        "2:-2": [-0.0227, 0.4386], "2:0": [0.08, 0.147], "2:2": [-0.0354, -1.6156]
    }),
    ([-0.0992, 0.9606, 0.2596], {
        "2:-2": [-0.2442, -0.2207], "2:0": [0.5076, -0.1502], "2:2": [0.6498, 0.7002]
    }),
    ([-0.8311, -0.4326, 0.3494], {
        "2:-2": [1.5704, -1.4565], "2:0": [-0.4584, -1.0535], "2:2": [-1.4087, -1.4227]
    }),
]
# the single-direction outputs of one config: call-name suffix and arguments
SINGLE_DIRECTION = {
    "state": ["state"],
    "state csv": ["state", "--format", "csv"],
    "filter 1": ["filter", "--f-select", "1"],
    "filter 1 csv": ["filter", "--f-select", "1", "--format", "csv"],
    "filter 2": ["filter", "--f-select", "2"],
    "filter 2 csv": ["filter", "--f-select", "2", "--format", "csv"],
}
# a fresh interpreter that runs the calls of a job (see _job) with this module
CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import same_bytes
from raman_pairs import cli
print(json.dumps([cli.__file__, same_bytes.run_calls(json.load(sys.stdin))]))
"""


def _data(tree: Path) -> Path:
    return tree / "src" / "raman_pairs" / "data"


def _gauss_unit(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def _cross(a: list[float], b: list[float]) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _transverse(rng: random.Random, k: list[float]) -> list[list[float]]:
    """A random complex polarization orthogonal to ``k``, as [re, im] pairs."""
    e1 = _cross(k, _gauss_unit(rng))
    e2 = _cross(k, e1)
    c1, c2 = (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2))
    return [[(c1 * a + c2 * b).real, (c1 * a + c2 * b).imag] for a, b in zip(e1, e2)]


def _condensate(rng: random.Random) -> dict:
    """A random F=1 condensate."""
    return {"amplitudes": {f"2:{m}": [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
                           for m in (-2, 0, 2)}}


def _species(rng: random.Random, shipped: dict, state: dict) -> tuple[dict, dict]:
    """A species of random angular structure built from the ``shipped`` one,
    and a copy of the ``state`` config with a condensate, direction, pump
    polarization and filter level drawn for it; the caller names the species
    file in the config."""
    ti, tje, tjg = rng.choice((1, 3, 5)), rng.choice((1, 3)), shipped["doubled_ground_J"]
    levels = range(abs(ti - tjg), ti + tjg + 1, 2)
    species = {**shipped, "doubled_I": ti, "doubled_excited_J": tje, "reduced_dipole": 1.0,
               "ground_splittings_hz": {str(tf): 1.772e9 * n for n, tf in enumerate(levels)}}
    doc = json.loads(json.dumps(state))
    doc["pump"]["polarization"] = _transverse(rng, doc["pump"]["direction"])
    lowest = levels[0]
    doc["condensate"] = {"amplitudes": {f"{lowest}:{tm}": [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]
                                        for tm in range(-lowest, lowest + 1, 2)}}
    doc["detection"] = {"direction": _gauss_unit(rng)}
    tf = rng.choice(levels)
    doc["filter_f"] = str(tf // 2) if tf % 2 == 0 else f"{tf}/2"
    return species, doc


def plan(first: Path, configs: Path, variants: int, seed: int) -> list[tuple[str, list[str]]]:
    """The calls, each a name and an argv in which ``{data}``, ``{configs}`` and
    ``{out}`` stand for the tree's shipped-config directory, ``configs``, where
    the configs built from the first tree's are written, and the call's own
    output directory."""
    shipped = {
        name: json.loads((_data(first) / f"sodium_{name}.json").read_text(encoding="utf-8"))
        for name in ("state", "chsh", "scan")
    }
    species = json.loads((_data(first) / "sodium.json").read_text(encoding="utf-8"))
    rng, species_rng = random.Random(seed), random.Random(f"species {seed}")

    def write(name: str, doc: dict, indent: int | None = None) -> str:
        (configs / f"{name}.json").write_text(json.dumps(doc, indent=indent), encoding="utf-8")
        return f"{{configs}}/{name}.json"

    def scan(base: dict, measure: str, level: str = "1", degrees: float = 30.0) -> dict:
        block = {"resolution_deg": degrees, "measure": measure}
        if measure == "concurrence_after_filter":
            block["filter_f"] = level
        return {**base, "detection": {"scan": block}}

    state, chsh = "{data}/sodium_state.json", "{data}/sodium_chsh.json"
    single = {name: [args[0], "--config", state, *args[1:]] for name, args in SINGLE_DIRECTION.items()}
    calls = [
        *((name, single[name]) for name in ("state", "state csv", "filter 1", "filter 2 csv")),
        ("filter config", ["filter", "--config", chsh, "--output", "{out}/filter.json"]),
        ("chsh", ["chsh", "--config", chsh]),
        ("chsh sampled", ["chsh", "--config", chsh, "--samples", "2000", "--seed", "7",
                          "--output", "{out}/chsh.json", "--events-csv", "{out}/events.csv"]),
        ("tables", ["tables", "--max-doubled-j", "2", "--output", "{out}/tables"]),
    ]
    for measure in MEASURES:
        path = write(f"scan_{measure}", scan(shipped["scan"], measure))
        calls.append((f"scan {measure}", ["scan", "--config", path, "--output", "{out}/scan"]))
    path = write("scan_chunks", scan(shipped["scan"], "conditional_overlap", degrees=5.0))
    calls.append(("scan 3 chunks", ["scan", "--config", path, "--output", "{out}/scan"]))
    # two species: levels of almost one splitting, and an inverted one whose nodes are all flagged
    for name, atom in (("close", {"ground_splittings_hz": {"2": 0.0, "4": 1e-3}}),
                       ("inverted", {"doubled_I": 0, "doubled_ground_J": 3,
                                     "doubled_excited_J": 1, "ground_splittings_hz": {"3": 0.0}})):
        (configs / f"{name}.json").write_text(json.dumps({**species, **atom}), encoding="utf-8")
    # splittings of 0 and 1 mHz: distinct levels whose photon frequencies are one float
    path = write("one_float_frequency", {**shipped["state"], "atom_spec_path": "close.json"})
    calls.append(("one float frequency", ["state", "--config", path]))
    # one call per physics refusal (exit 3), on the config of the test that pins it
    pump = shipped["state"]["pump"]
    sigma_plus = {**pump, "direction": [0.0, 0.0, 1.0],
                  "polarization": [[-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]}
    refusals = [
        ("resonant pump", {"pump": {**pump, "laser_hz": 5.088487162e14}}, ["state"]),
        ("weight underflow", {"pump": {**pump, "amplitude": [1e-160, 0.0]}}, ["state"]),
        ("weight not finite",
         {"pump": {**pump, "amplitude": [1e20, 0.0], "atom_number": 1e308}}, ["state"]),
        ("laser below a splitting", {"pump": {**pump, "laser_hz": 1e9}}, ["state"]),
        ("empty filter channel",
         {"pump": sigma_plus, "condensate": {"amplitudes": {"4:4": [1.0, 0.0]}}},
         ["filter", "--f-select", "1"]),
    ]
    for name, changes, command in refusals:
        path = write(name.replace(" ", "_"), {**shipped["state"], **changes})
        calls.append((name, [*command, "--config", path]))
    flagged = {**shipped["state"], "atom_spec_path": "inverted.json", "pump": sigma_plus,
               "condensate": {"amplitudes": {"3:3": [1.0, 0.0]}}}
    path = write("all_flagged", scan(flagged, "entropy"))
    calls.append(("all-flagged scan", ["scan", "--config", path, "--output", "{out}/scan"]))
    # appended after the calls above, so that each of those keeps its output
    # directory's number, which a path in its output (and so its digest) shows
    calls += [(name, single[name]) for name in ("filter 1 csv", "filter 2")]
    for measure in MEASURES:
        path = write(f"scan_6_{measure}", scan(shipped["scan"], measure, degrees=6.0))
        calls.append((f"scan 6 degrees {measure}", ["scan", "--config", path, "--output", "{out}/scan"]))
    for i, (direction, amplitudes) in enumerate(OFF_AXIS):
        doc = {**shipped["state"], "detection": {"direction": direction},
               "condensate": {"amplitudes": amplitudes}}
        path = write(f"off_axis{i}", doc)
        calls += [(f"off axis {i} {name}", [args[0], "--config", path, *args[1:]])
                  for name, args in SINGLE_DIRECTION.items()]
    # indented as the config whose stdout was first pinned, so config_sha256 is the same
    settings = [0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8]
    path = write("chsh_settings", {**shipped["chsh"], "chsh": {"settings_rad": settings}}, indent=1)
    calls.append(("chsh 65636 samples", ["chsh", "--config", path, "--samples", "65636",
                                         "--seed", "3", "--events-csv", "{out}/events.csv"]))
    calls += [(f"tables {j}", ["tables", "--max-doubled-j", str(j)]) for j in range(13)]
    for i in range(variants):
        doc = json.loads(json.dumps(shipped["state"]))
        doc["pump"]["polarization"] = _transverse(rng, doc["pump"]["direction"])
        doc["condensate"] = _condensate(rng)
        doc["detection"] = {"direction": _gauss_unit(rng)}
        doc["filter_f"] = "1"
        path = write(f"variant{i}", doc)
        # the shipped pump and condensate, whose filtered states on +-z are Bell states
        axis = {**shipped["chsh"], "detection": {"direction": [0.0, 0.0, rng.choice((1.0, -1.0))]},
                "filter_f": rng.choice(("1", "2"))}
        if i % 2:
            axis["chsh"] = {"settings_rad": [rng.uniform(0.0, math.pi) for _ in range(4)]}
        on_axis = write(f"variant{i}_axis", axis)
        scan_path = write(f"variant{i}_scan", scan(doc, MEASURES[i % len(MEASURES)]))
        calls += [
            (f"variant {i} state", ["state", "--config", path]),
            (f"variant {i} state csv",
             ["state", "--config", path, "--format", "csv", "--output", "{out}/state.csv"]),
            (f"variant {i} filter 1", ["filter", "--config", path]),
            (f"variant {i} filter 2 csv",
             ["filter", "--config", path, "--f-select", "2", "--format", "csv"]),
            (f"variant {i} chsh", ["chsh", "--config", path]),
            (f"variant {i} chsh on axis",
             ["chsh", "--config", on_axis, "--samples", "500", "--seed", str(rng.randrange(2**31)),
              "--events-csv", "{out}/events.csv"]),
            (f"variant {i} scan", ["scan", "--config", scan_path, "--output", "{out}/scan"]),
        ]
        atom, doc = _species(species_rng, species, shipped["state"])
        (configs / f"variant{i}_species.json").write_text(json.dumps(atom), encoding="utf-8")
        doc["atom_spec_path"] = f"variant{i}_species.json"
        path = write(f"variant{i}_species_state", doc)
        level = doc.pop("filter_f")
        scan_path = write(f"variant{i}_species_scan", scan(doc, MEASURES[i % len(MEASURES)], level))
        calls += [
            (f"variant {i} species state", ["state", "--config", path]),
            (f"variant {i} species filter", ["filter", "--config", path]),
            (f"variant {i} species scan",
             ["scan", "--config", scan_path, "--output", "{out}/scan"]),
        ]
    return calls


def _job(tree: Path, calls: list[tuple[str, list[str]]], configs: Path, out: Path) -> dict:
    """The calls on ``tree`` with their places filled, call ``i`` writing into
    ``out/i``, and the masks of the three directories."""
    resolved = []
    for number, (_, argv) in enumerate(calls):
        places = {"{data}": str(_data(tree)), "{configs}": str(configs), "{out}": f"{out}/{number}"}
        resolved.append([[_fill(arg, places) for arg in argv], places["{out}"]])
    # the longest path first, in case one holds another
    masks = [(str(_data(tree)), "<data>"), (str(configs), "<configs>"), (str(out), "<out>")]
    masks.sort(key=lambda mask: -len(mask[0]))
    return {"calls": resolved, "masks": masks}


def run_calls(job: dict) -> list[dict]:
    """Each call's parts, run in this process through ``raman_pairs.cli.main``:
    its exit code, and the SHA-256 of its stdout, its stderr (warnings
    included, each shown every time) and each file it wrote, by name, with the
    masks applied."""
    from raman_pairs import cli

    masks = [(path.encode(), name.encode()) for path, name in job["masks"]]

    def digest(data: bytes) -> str:
        for path, name in masks:
            data = data.replace(path, name)
        return hashlib.sha256(data).hexdigest()

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    result = []
    for argv, out in job["calls"]:
        Path(out).mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = show
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        parts = {"exit": code, "stdout": digest(stdout.getvalue().encode()),
                 "stderr": digest(stderr.getvalue().encode())}
        parts.update((path.name, digest(path.read_bytes())) for path in sorted(Path(out).iterdir()))
        result.append(parts)
    return result


def fixed_parts(tree: Path, name: str, tmp: Path) -> dict:
    """The parts of the fixed call ``name`` on ``tree``, run in this process
    with the empty directory ``tmp`` for its configs and output; they equal
    the parts that ``--record`` writes for the call."""
    configs = tmp / "configs"
    configs.mkdir()
    calls = plan(tree, configs, 0, 0)
    job = _job(tree, calls, configs, tmp / "out")
    number = [call for call, _ in calls].index(name)
    return run_calls({**job, "calls": [job["calls"][number]]})[0]


def digests(tree: Path, calls: list[tuple[str, list[str]]], configs: Path, out: Path) -> list[dict]:
    """Each call's parts, from one fresh interpreter on ``tree``; call ``i``
    writes into ``out/i``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(Path(__file__).resolve().parent)],
        input=json.dumps(_job(tree, calls, configs, out)),
        capture_output=True, text=True, env=env, cwd=out.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the calls did not run:\n{proc.stderr}")
    module, result = json.loads(proc.stdout)
    if not Path(module).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"{tree}: ran {module}, not the tree's package")
    return result


def _fill(arg: str, places: dict[str, str]) -> str:
    for key, value in places.items():
        arg = arg.replace(key, value)
    return arg


def _runs(trees: list[Path], variants: int, seed: int) -> list[dict[str, dict]]:
    """Per tree, the parts of each call of the plan, by call name."""
    with tempfile.TemporaryDirectory() as tmp:
        configs = Path(tmp) / "configs"
        configs.mkdir()
        calls = plan(trees[0], configs, variants, seed)
        names = [name for name, _ in calls]
        return [dict(zip(names, digests(tree, calls, configs, Path(tmp) / f"out{i}")))
                for i, tree in enumerate(trees)]


def differing(runs: list[dict[str, dict]]) -> list[tuple[str, str]]:
    """Each ``(call, part)`` whose value is not the same in every run, a part
    that a run lacks included; a run maps call names to parts."""
    differ = []
    for name in dict.fromkeys(name for run in runs for name in run):
        calls = [run.get(name, {}) for run in runs]
        parts = dict.fromkeys(part for call in calls for part in call)
        differ += [(name, part) for part in parts if len({call.get(part) for call in calls}) > 1]
    return differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", type=Path)
    parser.add_argument("--variants", type=int, default=10, help="seeded variants (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the variants (default 0)")
    parser.add_argument("--record", type=Path, metavar="FILE",
                        help="write each fixed call's parts on the one TREE to FILE")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "raman_pairs" / "__init__.py").is_file():
            parser.error(f"{tree} has no src/raman_pairs")
    if args.record:
        if len(trees) != 1:
            parser.error("--record takes one tree")
        (manifest,) = _runs(trees, 0, 0)  # the fixed calls alone
        args.record.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        print(f"{len(manifest)} calls recorded in {args.record}")
        return 0
    runs = _runs(trees, max(0, args.variants), args.seed)
    for tree, run in zip(trees, runs):
        print(f"{hashlib.sha256(json.dumps(run).encode()).hexdigest()}  {tree}  ({len(run)} calls)")
    differ = differing(runs)
    for name, part in differ:
        print(f"differs: {name}: {part}")
    calls = len({name for name, _ in differ})
    print("identical" if not differ else f"{calls} of {len(runs[0])} calls differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
