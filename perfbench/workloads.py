"""Seeded inputs, CLI calls and output checks for the benchmark workloads.

A workload is a plan of CLI calls.  ``reference`` calls run once, on the
shipped sodium preset, and check physics whose value is known exactly.
``rounds`` hold the seeded inputs; the timed phase cycles through them.
Every call names the check that validates its output.  A check raises
:class:`CheckFailed` or returns facts about the output that the traced run
reports (scan nodes, flagged nodes, event-file bytes).

Only the standard library is imported here: the parent process generates the
inputs without importing the program or numpy.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

WORKLOADS = ("sphere_scan", "point_queries", "chsh_sampling", "coefficient_tables")

ITEM_UNITS = {
    "sphere_scan": "scan node",
    "point_queries": "query",
    "chsh_sampling": "sampled trial",
    "coefficient_tables": "coefficient row",
}

# Sizes: (normal, smoke).
SCAN_RESOLUTION_DEG = (30.0, 30.0)
SCAN_CONFIGS = (3, 1)
POINT_CONFIGS = (67, 2)
CHSH_CONFIGS = (10, 2)
CHSH_SAMPLES = (10_000, 2_000)
CHSH_REFERENCE_SAMPLES = (100_000, 2_000)  # untimed; sets peak_rss_mb
TABLES_MAX_DOUBLED_J = (6, 2)

MEASURES = ("entropy", "concurrence_after_filter", "conditional_overlap")
TSIRELSON = 2.0 * math.sqrt(2.0)
TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


# --- input generation --------------------------------------------------------


def _copy(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def _complex(rng: random.Random) -> list[float]:
    return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def _unit_vector(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return [x / norm for x in v]


def _cross(a: list[float], b: list[float]) -> list[float]:
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _transverse_polarization(rng: random.Random, direction: list[float]) -> list[list[float]]:
    """Random complex polarization orthogonal to the pump direction."""
    norm = math.sqrt(sum(x * x for x in direction))
    d = [x / norm for x in direction]
    helper = [0.0, 0.0, 1.0] if abs(d[2]) < 0.9 else [1.0, 0.0, 0.0]
    e1 = _cross(d, helper)
    n1 = math.sqrt(sum(x * x for x in e1))
    e1 = [x / n1 for x in e1]
    e2 = _cross(d, e1)
    a, b = _complex(rng), _complex(rng)
    return [[a[0] * e1[i] + b[0] * e2[i], a[1] * e1[i] + b[1] * e2[i]] for i in range(3)]


def _condensate(rng: random.Random) -> dict:
    """Random spinor over the lowest ground level (F = 1) of sodium."""
    return {"amplitudes": {key: _complex(rng) for key in ("2:-2", "2:0", "2:2")}}


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def scan_node_count(resolution_deg: float) -> int:
    """Nodes of the equiangular grid, poles included."""
    resolution = math.radians(resolution_deg)
    n_theta = max(1, math.ceil(math.pi / resolution - 1e-12))
    n_phi = max(1, math.ceil(2.0 * math.pi / resolution - 1e-12))
    return (n_theta + 1) * n_phi


def table_row_counts(max_doubled_j: int) -> dict[str, int]:
    """Rows of the CG, 3-j and 6-j tables, counted from the selection rules."""
    rng = range(max_doubled_j + 1)
    coupled = 0
    for tj1 in rng:
        for tj2 in rng:
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, max_doubled_j) + 1, 2):
                coupled += sum(
                    1
                    for tm1 in range(-tj1, tj1 + 1, 2)
                    for tm2 in range(-tj2, tj2 + 1, 2)
                    if abs(tm1 + tm2) <= tj
                )
    six = 0
    for tj1 in rng:
        for tj2 in rng:
            for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, max_doubled_j) + 1, 2):
                for tj4 in rng:
                    for tj5 in range(abs(tj4 - tj3), min(tj4 + tj3, max_doubled_j) + 1, 2):
                        low = max(abs(tj1 - tj5), abs(tj4 - tj2))
                        high = min(tj1 + tj5, tj4 + tj2, max_doubled_j)
                        if high >= low:
                            six += (high - low) // 2 + 1
    return {"cg": coupled, "3j": coupled, "6j": six}


def build_plan(workload: str, seed: int, src: Path, workdir: Path, smoke: bool) -> dict:
    """Write the workload's configs into ``workdir`` and return its call plan."""
    size = 1 if smoke else 0
    preset_path = src / "raman_pairs" / "data" / "sodium_state.json"
    preset = json.loads(preset_path.read_text(encoding="utf-8"))
    rng = random.Random(f"{workload}:{seed}")
    cfg_dir = workdir / "configs"
    out_dir = workdir / "outputs"
    cfg_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True)
    reference: list[dict] = []
    rounds: list[list[dict]] = []

    if workload == "sphere_scan":
        res = SCAN_RESOLUTION_DEG[size]
        nodes = scan_node_count(res)

        def scan_config(base: dict, measure: str) -> dict:
            doc = _copy(base)
            block = {"resolution_deg": res, "measure": measure}
            if measure == "concurrence_after_filter":
                block["filter_f"] = "1"
            doc["detection"] = {"scan": block}
            return doc

        path = _write(cfg_dir / "reference.json", scan_config(preset, "concurrence_after_filter"))
        reference.append(
            {
                "argv": ["scan", "--config", path, "--output", str(out_dir / "reference")],
                "check": "scan_argmax_on_axis",
                "items": nodes,
                "params": {"measure": "concurrence_after_filter", "nodes": nodes},
                "outputs": [str(out_dir / "reference.csv"), str(out_dir / "reference.json")],
            }
        )
        for i in range(SCAN_CONFIGS[size]):
            base = _copy(preset)
            base["pump"]["polarization"] = _transverse_polarization(rng, preset["pump"]["direction"])
            base["condensate"] = _condensate(rng)
            calls = []
            for measure in MEASURES:
                path = _write(cfg_dir / f"scan{i}_{measure}.json", scan_config(base, measure))
                prefix = out_dir / f"scan{i}_{measure}"
                calls.append(
                    {
                        "argv": ["scan", "--config", path, "--output", str(prefix)],
                        "check": "scan",
                        "items": nodes,
                        "params": {"measure": measure, "nodes": nodes},
                        "outputs": [str(prefix) + ".csv", str(prefix) + ".json"],
                    }
                )
            rounds.append(calls)

    elif workload == "point_queries":
        for level in ("1", "2"):
            for fmt in ("json", "csv"):
                reference.append(
                    {
                        "argv": ["filter", "--config", str(preset_path), "--f-select", level, "--format", fmt],
                        "check": f"bell_filter_{fmt}",
                        "items": 1,
                        "params": {"f": int(level)},
                        "outputs": [],
                    }
                )
        for i in range(POINT_CONFIGS[size]):
            doc = _copy(preset)
            doc["condensate"] = _condensate(rng)
            doc["detection"] = {"direction": _unit_vector(rng)}
            path = _write(cfg_dir / f"query{i}.json", doc)
            level = rng.choice((1, 2))
            state = ["state", "--config", path, "--format"]
            filtered = ["filter", "--config", path, "--f-select", str(level), "--format"]
            # Two JSON calls and one CSV call per config: the JSON and CSV
            # latencies form two clusters, and an uneven mix keeps the median
            # inside one of them.
            rounds.append(
                [
                    {"argv": state + ["json"], "check": "state_json", "params": {}},
                    {"argv": filtered + ["json"], "check": "filter_json", "params": {"f": level}},
                    (
                        {"argv": state + ["csv"], "check": "state_csv", "params": {}}
                        if i % 2
                        else {"argv": filtered + ["csv"], "check": "filter_csv", "params": {"f": level}}
                    ),
                ]
            )
            for call in rounds[-1]:
                call.update(items=1, outputs=[])

    elif workload == "chsh_sampling":

        def chsh_call(name: str, doc: dict, check: str, sample_seed: int, n: int = CHSH_SAMPLES[size]) -> dict:
            path = _write(cfg_dir / f"{name}.json", doc)
            events = str(out_dir / f"{name}_events.csv")
            argv = ["chsh", "--config", path, "--samples", str(n), "--seed", str(sample_seed), "--events-csv", events]
            return {"argv": argv, "check": check, "items": n, "params": {"n": n}, "outputs": [events]}

        # Bell states of the preset on the +-z axis: the filtered state has
        # 2x2 support only there.  The reference calls check the optimum on
        # the preset; their larger samples set the peak memory.  Of the
        # timed calls, the last lets the CLI optimize the analyzers, as the
        # shipped config does; the others sample at seeded settings, so the
        # median call is sampling and CSV alone and the slowest one adds the
        # optimizer.
        for level in ("1", "2"):
            doc = _copy(preset)
            doc["filter_f"] = level
            n = CHSH_REFERENCE_SAMPLES[size]
            reference.append(chsh_call(f"reference_f{level}", doc, "chsh_bell_reference", 1 + int(level), n))

        def bell_config() -> dict:
            doc = _copy(preset)
            doc["detection"] = {"direction": [0.0, 0.0, rng.choice((1.0, -1.0))]}
            doc["filter_f"] = rng.choice(("1", "2"))
            return doc

        for i in range(CHSH_CONFIGS[size]):
            doc = bell_config()
            if i < CHSH_CONFIGS[size] - 1:
                doc["chsh"] = {"settings_rad": [rng.uniform(0.0, math.pi) for _ in range(4)]}
            rounds.append([chsh_call(f"chsh{i}", doc, "chsh", rng.randrange(2**31))])

    elif workload == "coefficient_tables":
        # The inputs are fixed: the seed is not used.
        max_j = TABLES_MAX_DOUBLED_J[size]
        counts = table_row_counts(max_j)
        prefix = out_dir / "tables"
        rounds.append(
            [
                {
                    "argv": ["tables", "--max-doubled-j", str(max_j), "--output", str(prefix)],
                    "check": "tables",
                    "items": sum(counts.values()),
                    "params": {"rows": counts, "max_j": max_j},
                    "outputs": [f"{prefix}_{suffix}.csv" for suffix in ("cg", "3j", "6j")],
                    "cold_caches": True,
                }
            ]
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for number, call in enumerate(reference + [c for r in rounds for c in r]):
        call["id"] = number
    return {"workload": workload, "reference": reference, "rounds": rounds}


# --- output checks -----------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str) -> dict:
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from None


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    _require(bool(lines), "CSV has no header row")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _check_state_doc(doc: dict, f: int | None) -> dict:
    amps = doc["amplitudes"]
    norm = sum(re * re + im * im for atoms in amps.values() for re, im in atoms.values())
    _require(_close(norm, 1.0), f"state norm {norm!r} != 1")
    n_photon = len(amps)
    n_atom = len({key for atoms in amps.values() for key in atoms})
    analysis = doc["analysis"]
    coeffs = analysis["schmidt_coefficients"]
    _require(_close(sum(c * c for c in coeffs), 1.0), "Schmidt coefficients not normalized")
    _require(all(c >= 0.0 for c in coeffs), "negative Schmidt coefficient")
    entropy = analysis["entropy_bits"]
    expect = -sum(c * c * math.log2(c * c) for c in coeffs if c > 0.0)
    _require(_close(entropy, expect), f"entropy {entropy!r} != {expect!r} from its coefficients")
    _require(-TOL <= entropy <= math.log2(min(n_photon, n_atom)) + TOL, f"entropy {entropy!r} out of range")
    probs = analysis["channel_probabilities"].values()
    _require(_close(sum(probs), 1.0), "channel probabilities do not sum to 1")
    overlap = analysis["conditional_overlap"]
    _require(overlap is None or -TOL <= overlap <= 1.0 + TOL, f"overlap {overlap!r} out of [0, 1]")
    if f is not None:
        _require(all(ch["doubled_f"] == 2 * f for ch in doc["channels"]), "filter kept another channel")
        _require(entropy <= 1.0 + TOL, "filtered entropy above 1 bit")
    return {"coefficients": coeffs, "entropy": entropy}


def _state_csv_amplitudes(text: str, f: int | None) -> dict:
    header, rows = _csv_rows(text)
    col = {name: i for i, name in enumerate(header)}
    matrix: dict[tuple, dict[tuple, complex]] = {}
    for row in rows:
        photon = (row[col["omega_hz"]], row[col["lambda"]])
        atom = (row[col["doubled_F"]], row[col["doubled_m"]])
        matrix.setdefault(photon, {})[atom] = complex(float(row[col["amp_re"]]), float(row[col["amp_im"]]))
        if f is not None:
            _require(int(row[col["doubled_F"]]) == 2 * f, "filter kept another channel")
    norm = sum(abs(a) ** 2 for atoms in matrix.values() for a in atoms.values())
    _require(_close(norm, 1.0), f"state norm {norm!r} != 1")
    return matrix


def check_state_json(call: dict, stdout: str) -> dict:
    _check_state_doc(strict_json(stdout), None)
    return {}


def check_state_csv(call: dict, stdout: str) -> dict:
    _state_csv_amplitudes(stdout, None)
    return {}


def check_filter_json(call: dict, stdout: str) -> dict:
    _check_state_doc(strict_json(stdout), call["params"]["f"])
    return {}


def check_filter_csv(call: dict, stdout: str) -> dict:
    _state_csv_amplitudes(stdout, call["params"]["f"])
    return {}


def check_bell_filter_json(call: dict, stdout: str) -> dict:
    """On the +z preset either filtered channel is a Bell state."""
    facts = _check_state_doc(strict_json(stdout), call["params"]["f"])
    _require(_close(facts["entropy"], 1.0), f"filtered entropy {facts['entropy']!r} != 1 bit")
    c = facts["coefficients"]
    _require(len(c) == 2 and _close(2.0 * c[0] * c[1], 1.0), "filtered concurrence != 1")
    return {}


def check_bell_filter_csv(call: dict, stdout: str) -> dict:
    matrix = _state_csv_amplitudes(stdout, call["params"]["f"])
    atoms = sorted({a for row in matrix.values() for a in row})
    photons = sorted(matrix)
    _require(len(photons) == 2 and len(atoms) == 2, "filtered state is not 2x2")
    m = [[matrix[p].get(a, 0j) for a in atoms] for p in photons]
    concurrence = 2.0 * abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    _require(_close(concurrence, 1.0), f"filtered concurrence {concurrence!r} != 1")
    return {}


_MEASURE_MAX = {"entropy": 3.0, "concurrence_after_filter": 1.0, "conditional_overlap": 1.0}
_ARGMAX = re.compile(r"argmax direction \(([^)]*)\) value (\S+)")


def check_scan(call: dict, stdout: str) -> dict:
    params = call["params"]
    csv_text = Path(call["outputs"][0]).read_text(encoding="utf-8")
    header, rows = _csv_rows(csv_text)
    _require(len(rows) == params["nodes"], f"{len(rows)} scan rows, expected {params['nodes']}")
    col = header.index("measure")
    values = [row[col] for row in rows]
    scored = [float(v) for v in values if v != "nan"]
    top = _MEASURE_MAX[params["measure"]]
    _require(all(-TOL <= v <= top + TOL for v in scored), f"{params['measure']} out of [0, {top}]")
    doc = strict_json(Path(call["outputs"][1]).read_text(encoding="utf-8"))
    _require(len(doc["nodes"]) == params["nodes"], "JSON node count differs from the CSV")
    match = _ARGMAX.search(stdout)
    _require(match is not None, "no argmax line on stdout")
    _require(bool(scored) and float(match.group(2)) == max(scored), "argmax value is not the maximum")
    direction = [float(x) for x in match.group(1).split(",")]
    return {"nodes": len(rows), "flagged": len(rows) - len(scored), "argmax": direction, "max": max(scored)}


def check_scan_argmax_on_axis(call: dict, stdout: str) -> dict:
    """On the preset, concurrence after the F=1 filter peaks on +-z at 1."""
    facts = check_scan(call, stdout)
    x, y, z = facts["argmax"]
    _require(abs(x) < 1e-6 and abs(y) < 1e-6 and abs(abs(z) - 1.0) < 1e-6, f"argmax {facts['argmax']} not on +-z")
    _require(_close(facts["max"], 1.0), f"maximum concurrence {facts['max']!r} != 1")
    return facts


def check_chsh(call: dict, stdout: str) -> dict:
    doc = strict_json(stdout)
    n = call["params"]["n"]
    s = doc["s_analytic"]
    _require(abs(s) <= TSIRELSON + TOL, f"S = {s!r} above 2 sqrt 2")
    sampling = doc["sampling"]
    _require(sampling["n"] == n and sum(sampling["counts"]) == n, "sample counts do not add up to n")
    _require(all(-1.0 <= c <= 1.0 for c in sampling["correlations"]), "correlation outside [-1, 1]")
    se = sampling["standard_error"]
    _require(0.0 < se and abs(sampling["s_estimate"] - s) <= 5.0 * se, "sampled S disagrees with analytic S by > 5 SE")
    events = Path(call["outputs"][0])
    with open(events, encoding="utf-8") as fh:
        lines = sum(1 for _ in fh)
    _require(lines == n + 1, f"events CSV has {lines - 1} rows, expected {n}")
    return {"events_csv_bytes": events.stat().st_size, "s": s}


def check_chsh_bell_reference(call: dict, stdout: str) -> dict:
    """The filtered preset is a Bell state: its optimum is exactly 2 sqrt 2."""
    facts = check_chsh(call, stdout)
    _require(_close(facts["s"], TSIRELSON), f"Bell-state S = {facts['s']!r} != 2 sqrt 2")
    return facts


# Exact values (sign, radicand numerator, radicand denominator) keyed by
# (table, doubled arguments in the table's column order).
_SPOT_VALUES = {
    ("cg", (1, 1, 1, -1, 2, 0)): (1, 1, 2),  # <1 0|1/2 1/2; 1/2 -1/2> = 1/sqrt2
    ("cg", (1, 1, 1, -1, 0, 0)): (1, 1, 2),  # <0 0|1/2 1/2; 1/2 -1/2> = 1/sqrt2
    ("cg", (1, -1, 1, 1, 0, 0)): (-1, 1, 2),  # <0 0|1/2 -1/2; 1/2 1/2> = -1/sqrt2
    ("cg", (2, 2, 2, -2, 0, 0)): (1, 1, 3),  # <0 0|1 1; 1 -1> = 1/sqrt3
    ("cg", (2, 0, 2, 0, 0, 0)): (-1, 1, 3),  # <0 0|1 0; 1 0> = -1/sqrt3
    ("cg", (2, 0, 2, 0, 2, 0)): (0, 0, 1),  # <1 0|1 0; 1 0> = 0
    ("3j", (2, 2, 0, 0, 0, 0)): (-1, 1, 3),  # (1 1 0; 0 0 0) = -1/sqrt3
    ("3j", (1, 1, 0, 1, -1, 0)): (1, 1, 2),  # (1/2 1/2 0; 1/2 -1/2 0) = 1/sqrt2
    ("3j", (2, 2, 2, 0, 0, 0)): (0, 0, 1),  # (1 1 1; 0 0 0) = 0
    ("6j", (1, 1, 2, 1, 1, 0)): (1, 1, 4),  # {1/2 1/2 1; 1/2 1/2 0} = 1/2
    ("6j", (2, 2, 2, 2, 2, 0)): (-1, 1, 9),  # {1 1 1; 1 1 0} = -1/3
    ("6j", (2, 2, 0, 2, 2, 0)): (1, 1, 9),  # {1 1 0; 1 1 0} = 1/3
    ("6j", (2, 2, 2, 2, 2, 2)): (1, 1, 36),  # {1 1 1; 1 1 1} = 1/6
}


def check_tables(call: dict, stdout: str) -> dict:
    """Row counts and spot values of the coefficient tables are exact."""
    expected = call["params"]["rows"]
    for suffix, path in zip(("cg", "3j", "6j"), call["outputs"]):
        header, rows = _csv_rows(Path(path).read_text(encoding="utf-8"))
        _require(len(rows) == expected[suffix], f"{suffix} table has {len(rows)} rows, expected {expected[suffix]}")
        col = {name: i for i, name in enumerate(header)}
        index = {tuple(int(x) for x in row[:6]): row for row in rows}
        for (table, key), (sign, num, den) in _SPOT_VALUES.items():
            if table != suffix or max(abs(k) for k in key) > call["params"]["max_j"]:
                continue
            row = index.get(key)
            _require(row is not None, f"{suffix} table lacks row {key}")
            got = (int(row[col["sign"]]), int(row[col["radicand_num"]]), int(row[col["radicand_den"]]))
            _require(got == (sign, num, den), f"{suffix}{key} = {got}, expected {(sign, num, den)}")
            value = float(row[col["value"]])
            _require(math.isclose(value, sign * math.sqrt(num / den), rel_tol=1e-14), f"{suffix}{key} value {value!r}")
    return {}


CHECKS = {
    "state_json": check_state_json,
    "state_csv": check_state_csv,
    "filter_json": check_filter_json,
    "filter_csv": check_filter_csv,
    "bell_filter_json": check_bell_filter_json,
    "bell_filter_csv": check_bell_filter_csv,
    "scan": check_scan,
    "scan_argmax_on_axis": check_scan_argmax_on_axis,
    "chsh": check_chsh,
    "chsh_bell_reference": check_chsh_bell_reference,
    "tables": check_tables,
}


def checks_of(plan: dict) -> set[str]:
    """Names of the output checks a plan runs, the digest check included."""
    calls = plan["reference"] + [c for r in plan["rounds"] for c in r]
    return {call["check"] for call in calls} | {"digest"}
