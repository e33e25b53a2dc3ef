"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import builtins
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import pytest

import raman_pairs
from oracles import oracle_3j_classes, oracle_6j_classes
from raman_pairs import angular_momentum
from raman_pairs.cli import main

DATA = Path(raman_pairs.__file__).parent / "data"


@pytest.fixture()
def state_config(tmp_path) -> Path:
    path = tmp_path / "config.json"
    shutil.copy(DATA / "sodium_state.json", path)
    return path


def edit_config(path: Path, mutate) -> Path:
    raw = json.loads(path.read_text())
    mutate(raw)
    path.write_text(json.dumps(raw, indent=1))
    return path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- state ---------------------------------------------------------------------


def test_state_reproduces_reference_amplitudes(state_config, capsys):
    code, out, _ = run(["state", "--config", str(state_config)], capsys)
    assert code == 0
    doc = json.loads(out)
    ref = 1.0 / (2.0 * math.sqrt(2.0))
    flat = {}
    for channel_key, atoms in doc["amplitudes"].items():
        lam = int(channel_key.rsplit(":", 1)[1])
        for atom_key, (re, im) in atoms.items():
            flat[(lam, atom_key)] = complex(re, im)
    assert abs(flat[(1, "2:-2")] - ref) < 1e-10
    assert abs(flat[(1, "4:-2")] - math.sqrt(3.0) * ref) < 1e-10
    assert abs(flat[(2, "2:2")] - ref) < 1e-10
    assert abs(flat[(2, "4:2")] + math.sqrt(3.0) * ref) < 1e-10
    assert doc["analysis"]["entropy_bits"] == pytest.approx(1.81128, abs=1e-5)
    assert doc["provenance"]["tool"] == "raman-pairs"
    assert "config_sha256" in doc["provenance"]


def test_state_csv_format(state_config, capsys):
    code, out, _ = run(
        ["state", "--config", str(state_config), "--format", "csv"], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "omega_hz,lambda,doubled_F,doubled_m,amp_re,amp_im"
    assert len(lines) == 5


def test_state_resonant_pump_exits_3(state_config, capsys):
    edit_config(state_config, lambda c: c["pump"].__setitem__("laser_hz", 5.088487162e14))
    code, _, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert "off-resonant" in err


def test_state_unknown_key_exits_2(state_config, capsys):
    def mutate(c):
        c["pump"]["polarisation"] = c["pump"].pop("polarization")

    edit_config(state_config, mutate)
    code, _, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert "pump.polarisation" in err


def test_state_missing_required_key_exits_2(state_config, capsys):
    edit_config(state_config, lambda c: c.pop("condensate"))
    code, _, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert "condensate" in err


def test_state_output_file_byte_identical(state_config, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["state", "--config", str(state_config), "--output", str(out1)]) == 0
    assert main(["state", "--config", str(state_config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- filter --------------------------------------------------------------------


def test_filter_f1_bell_state(state_config, capsys):
    code, out, _ = run(
        ["filter", "--config", str(state_config), "--f-select", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["analysis"]["entropy_bits"] == pytest.approx(1.0, abs=1e-9)
    amps = [pair for atoms in doc["amplitudes"].values() for pair in atoms.values()]
    values = sorted(complex(re, im).real for re, im in amps)
    want = 1.0 / math.sqrt(2.0)
    assert values == pytest.approx([want, want], abs=1e-10)


def test_filter_f2_antisymmetric(state_config, capsys):
    code, out, _ = run(
        ["filter", "--config", str(state_config), "--f-select", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    amps = [pair for atoms in doc["amplitudes"].values() for pair in atoms.values()]
    values = sorted(complex(re, im).real for re, im in amps)
    want = 1.0 / math.sqrt(2.0)
    assert values == pytest.approx([-want, want], abs=1e-10)


def test_filter_nonexistent_level_exits_2(state_config, capsys):
    code, _, err = run(
        ["filter", "--config", str(state_config), "--f-select", "0"], capsys
    )
    assert code == 2
    assert "not a ground level" in err


# --- scan ----------------------------------------------------------------------


@pytest.fixture()
def scan_config(tmp_path) -> Path:
    path = tmp_path / "scan.json"
    shutil.copy(DATA / "sodium_scan.json", path)
    edit_config(path, lambda c: c["detection"]["scan"].__setitem__("resolution_deg", 15.0))
    return path


def test_scan_reports_pole_argmax(scan_config, tmp_path, capsys):
    out_prefix = tmp_path / "scanout"
    code, out, _ = run(
        ["scan", "--config", str(scan_config), "--output", str(out_prefix)], capsys
    )
    assert code == 0
    assert "argmax direction (+0.000000, +0.000000, +1.000000)" in out
    assert out.splitlines()[2] == (
        "flagged nodes: no_scattering 0, empty_filter_channel 0, undefined_overlap 0"
    )
    assert (tmp_path / "scanout.csv").exists()
    assert (tmp_path / "scanout.json").exists()


def test_scan_rerun_byte_identical(scan_config, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["scan", "--config", str(scan_config), "--output", str(a)]) == 0
    assert main(["scan", "--config", str(scan_config), "--output", str(b)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# stdout, CSV and JSON of sodium_scan.json at 6 degrees, recorded when the
# JSON became scan-map/2 (one array a node) and the CSV gained the flag
# reason, frequency and channel-weight columns
SCAN_PINS = {
    "entropy": (
        "22ae56efed9352303a9d2281cfeeccef86c81e0eeeb567b3c4218a98c949349d",
        "777ebe05e3705bd74c55776f8386c81ec3407b54c77838ad11f1bb2e4a9f7145",
        "3a18cd286a6aa091e933bf0f02edc0f399e77fd41f0d2d33c3f5905cc8570729",
    ),
    "concurrence_after_filter": (
        "e4cfde9dcb2422e4aceaf43c3cccd665ea16f3876955154c218efa6e25025fae",
        "41e333ff4791c814cc7525160baa374dd70683ea0d2e1e102e0a96c0f0898f0f",
        "4d093dcf27af873b628eac26b4d78b1a1479c53ca3b35f77f95a644dfde7d3cc",
    ),
    "conditional_overlap": (
        "ed98e76ad83d63e076ef8cecbb7252c22825768de6a6064e5fa4a0045f679340",
        "b5745ac05cd56cebdb47109efc493f274677fc2da05fea3238ce418b540cd10c",
        "d8ccc94e6fe04a01a72a7dddf0fe2e906bcbabca14e2f70a5c90f645880627d0",
    ),
}


@pytest.mark.parametrize("measure", SCAN_PINS)
def test_scan_pinned_bytes(measure, tmp_path, monkeypatch, capsys):
    def mutate(c):
        c["detection"]["scan"].update(resolution_deg=6.0, measure=measure)
        if measure != "concurrence_after_filter":
            del c["detection"]["scan"]["filter_f"]

    config = tmp_path / "scan.json"
    shutil.copy(DATA / "sodium_scan.json", config)
    edit_config(config, mutate)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["scan", "--config", "scan.json", "--output", "out"], capsys)
    assert code == 0
    outputs = [out.encode()] + [(tmp_path / name).read_bytes() for name in ("out.csv", "out.json")]
    assert [hashlib.sha256(b).hexdigest() for b in outputs] == list(SCAN_PINS[measure])


def test_scan_resolution_out_of_range_exits_2(scan_config, tmp_path, capsys):
    edit_config(scan_config, lambda c: c["detection"]["scan"].__setitem__("resolution_deg", 45.0))
    code, _, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "resolution" in err


def test_scan_workers_key_exits_2(scan_config, tmp_path, capsys):
    # scans are serial; a config that still asks for workers is rejected by name
    edit_config(scan_config, lambda c: c["detection"]["scan"].__setitem__("workers", 2))
    code, _, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "detection.scan.workers" in err


def test_scan_requires_output(scan_config, capsys):
    code, _, err = run(["scan", "--config", str(scan_config)], capsys)
    assert code == 2
    assert "output" in err


def _poison_chunk(monkeypatch, number: int) -> None:
    """Make the last concurrence of the scan's ``number``-th kernel chunk infinite."""
    from raman_pairs import geometry_explorer

    real = geometry_explorer.filtered_concurrence_of_blocks
    calls = []

    def poisoned(grams, level):
        values = real(grams, level)
        calls.append(None)
        if len(calls) == number:
            values[-1] = math.inf
        return values

    monkeypatch.setattr(geometry_explorer, "filtered_concurrence_of_blocks", poisoned)


def test_scan_non_finite_json_exits_3(scan_config, tmp_path, monkeypatch, capsys):
    # the scan JSON is strict: a non-finite value is a physics error, and
    # neither file is written
    _poison_chunk(monkeypatch, 1)
    prefix = tmp_path / "x"
    code, out, err = run(["scan", "--config", str(scan_config), "--output", str(prefix)], capsys)
    assert code == 3
    assert "non-finite" in err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


def test_scan_non_finite_in_last_chunk_leaves_no_file(scan_config, tmp_path, monkeypatch, capsys):
    # 13 x 24 nodes in 7-node chunks: the 45th and last chunk fails after 44
    # chunks were written; the temporary files go, and a finished earlier
    # scan under the same prefix stays as it was
    from raman_pairs import geometry_explorer

    monkeypatch.setattr(geometry_explorer, "_CHUNK", 7)
    argv = ["scan", "--config", str(scan_config), "--output", str(tmp_path / "x")]
    _poison_chunk(monkeypatch, 45)
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert "non-finite" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]
    monkeypatch.undo()
    assert run(argv, capsys)[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(geometry_explorer, "_CHUNK", 7)
    _poison_chunk(monkeypatch, 45)
    assert run(argv, capsys)[0] == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- chsh ----------------------------------------------------------------------


def test_chsh_analytic_optimum(capsys):
    code, out, _ = run(["chsh", "--config", str(DATA / "sodium_chsh.json")], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["s_analytic"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert doc["optimized"] is True


def test_chsh_sampled_reproducible(tmp_path, capsys):
    events1 = tmp_path / "e1.csv"
    events2 = tmp_path / "e2.csv"
    base = ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "20000",
            "--seed", "7"]
    assert main(base + ["--events-csv", str(events1)]) == 0
    assert main(base + ["--events-csv", str(events2)]) == 0
    capsys.readouterr()
    assert events1.read_bytes() == events2.read_bytes()


def test_chsh_sampled_matches_analytic(capsys):
    code, out, _ = run(
        ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "100000",
         "--seed", "7"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    s = doc["sampling"]["s_estimate"]
    se = doc["sampling"]["standard_error"]
    assert abs(s - 2.0 * math.sqrt(2.0)) <= 5.0 * se
    assert doc["metadata"]["seed"] == 7
    assert "PCG64" in doc["sampling"]["generator"]


def test_chsh_unfiltered_exits_3(state_config, capsys):
    code, _, err = run(["chsh", "--config", str(state_config)], capsys)
    assert code == 3
    assert "2x2" in err


def test_chsh_pinned_bytes(tmp_path, monkeypatch, capsys):
    # seeded settings, past the 65536-trial chunk boundary: stdout and events
    # CSV keep these exact bytes
    raw = json.loads((DATA / "sodium_chsh.json").read_text())
    raw["chsh"] = {"settings_rad": [0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0]}
    (tmp_path / "config.json").write_text(json.dumps(raw, indent=1))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        ["chsh", "--config", "config.json", "--samples", "65636", "--seed", "3",
         "--events-csv", "events.csv"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e384603f808638da941e270ab1b49cff48cfbaa30c7ef8f42f507cc16b152508"
    )
    assert hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest() == (
        "02d876b73394f9525ed56f752cff3a23dd9dfc7d81b53d021995361204f0e65c"
    )


# recorded before PairState held the kernel's arrays; the shipped configs'
# filtered amplitudes are the same bits under the kernel's phase rule
_SINGLE_DIRECTION_PINS = {
    ("state",): "09d58668e9319756a301015be4693b5816979175799d07c61cf0cfc57dd9d6ad",
    ("state", "--format", "csv"): (
        "e599436fcee4c758a1f5c383805c5ce70b255fcc5135c55c011a8ddd047f7c14"
    ),
    ("filter", "--f-select", "1"): (
        "2482e7d88ee08e63655f8848e07056a01ab4e36a2cb7018c64e98f9e880c57bc"
    ),
    ("filter", "--f-select", "1", "--format", "csv"): (
        "4f576f7fc90cb1d4cfac5d4aacbe2847796a142034596f57ed0ca76eeb40c3a2"
    ),
    ("filter", "--f-select", "2"): (
        "ad227ac7211db9d808e559786ab5017505d2a3587d0ae13156881f80ad39d5fd"
    ),
    ("filter", "--f-select", "2", "--format", "csv"): (
        "477c346f0eea2ef74a57a3c5fdf8110e52ac5931d8db28a60f9298578898e312"
    ),
}


@pytest.mark.parametrize("args", _SINGLE_DIRECTION_PINS, ids=" ".join)
def test_single_direction_pinned_bytes(args, capsys):
    code, out, _ = run([args[0], "--config", str(DATA / "sodium_state.json"), *args[1:]], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SINGLE_DIRECTION_PINS[args]


@pytest.mark.parametrize(
    "args, calls",
    [(["state", "--format", "json"], 1), (["filter", "--f-select", "1"], 2)],
)
def test_one_gram_computation_per_state(args, calls, monkeypatch, capsys):
    # each state computes its block Gram matrices once, for the Schmidt,
    # entropy, overlap and channel-probability reads: the filtered and the
    # full state make two
    from raman_pairs import pair_state

    counted = []
    real = pair_state.block_grams

    def counting(*a, **k):
        counted.append(1)
        return real(*a, **k)

    monkeypatch.setattr(pair_state, "block_grams", counting)
    code, _, _ = run([args[0], "--config", str(DATA / "sodium_state.json"), *args[1:]], capsys)
    assert code == 0
    assert len(counted) == calls


def test_parser_built_once_per_process():
    from raman_pairs import cli

    assert cli.build_parser() is cli.build_parser()


def strict_json(text: str):
    def reject(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_chsh_empty_setting_pair_is_null(capsys):
    code, out, _ = run(
        ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--samples", "2", "--seed", "1"],
        capsys,
    )
    assert code == 0
    sampling = strict_json(out)["sampling"]
    assert 0 in sampling["counts"]
    assert sampling["s_estimate"] is None
    assert sampling["standard_error"] is None
    for count, corr in zip(sampling["counts"], sampling["correlations"]):
        assert (corr is None) == (count == 0)


@pytest.mark.parametrize("flag", ["--samples", "--seed"])
def test_chsh_negative_count_exits_2(flag, capsys):
    code, _, err = run(["chsh", "--config", str(DATA / "sodium_chsh.json"), flag, "-1"], capsys)
    assert code == 2
    assert flag in err


def test_non_finite_output_exits_3(state_config, capsys):
    # finite inputs whose emission weight overflows: no Infinity in the output
    def mutate(c):
        c["pump"]["atom_number"] = 1e308
        c["pump"]["amplitude"] = [1e10, 0.0]

    edit_config(state_config, mutate)
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert out == ""
    assert "non-finite" in err


def test_chsh_events_csv_without_samples_exits_2(tmp_path, capsys):
    target = tmp_path / "events.csv"
    code, out, err = run(
        ["chsh", "--config", str(DATA / "sodium_chsh.json"), "--events-csv", str(target)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--events-csv" in err
    assert not target.exists()


def test_chsh_refuses_csv_output_format(tmp_path, capsys):
    # the analysis is JSON only: the config key is refused like --format csv
    config = tmp_path / "chsh.json"
    shutil.copy(DATA / "sodium_chsh.json", config)
    edit_config(config, lambda c: c.__setitem__("output", {"format": "csv"}))
    code, out, err = run(["chsh", "--config", str(config)], capsys)
    assert code == 2 and out == ""
    assert "'output.format'" in err
    code, out, _ = run(["chsh", "--config", str(config), "--format", "csv"], capsys)
    assert code == 2 and out == ""


def test_equal_ground_splittings_exit_2(state_config, capsys):
    spec = json.loads((DATA / "sodium.json").read_text())
    spec["ground_splittings_hz"]["4"] = 0.0
    (state_config.parent / "flat.json").write_text(json.dumps(spec))
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="flat.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "distinct splittings" in err and "F'=1: 0.0 rad/s, F'=2: 0.0 rad/s" in err


def test_state_json_refuses_levels_of_one_float_frequency(state_config, capsys):
    # splittings of 0 and 1 mHz are distinct, but the photon frequencies round
    # to one float: the JSON would key two levels' channels alike and drop one
    # level, where the CSV keeps a row per amplitude
    spec = json.loads((DATA / "sodium.json").read_text())
    spec["ground_splittings_hz"]["4"] = 1e-3
    (state_config.parent / "close.json").write_text(json.dumps(spec))
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="close.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3 and out == ""
    assert "2F=2 and 2F=4" in err and "equal as floats" in err
    code, out, _ = run(["state", "--config", str(state_config), "--format", "csv"], capsys)
    assert code == 0
    assert len([line for line in out.splitlines() if not line.startswith("#")]) == 5


@pytest.mark.parametrize(
    "key, value",
    [
        ("doubled_I", 3.7),
        ("doubled_I", "3"),
        ("doubled_I", True),
        ("doubled_excited_J", 3.0),
        ("resonance_hz", "5.088487162e14"),
        ("mass_kg", False),
        ("ground_splittings_hz", {"2": 0.0, "4": "1.772e9"}),
        ("ground_splittings_hz", [0.0, 1.772e9]),
        ("name", ["sodium", 23]),
        ("name", "sodium\n0,0,0"),  # a line break would add rows to the CSV outputs
    ],
)
def test_atom_spec_numbers_are_strict(state_config, capsys, key, value):
    # int() and float() would read 3.7 and "3" as 3 and True as 1
    spec = json.loads((DATA / "sodium.json").read_text())
    spec[key] = value
    (state_config.parent / "loose.json").write_text(json.dumps(spec))
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="loose.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert f"'{key}" in err


def test_atom_spec_that_is_not_json_exits_2(state_config, capsys):
    (state_config.parent / "broken.json").write_text('{"name": ')
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="broken.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "broken.json" in err and "not valid JSON" in err


def test_huge_condensate_amplitude_exits_2(state_config, capsys):
    # finite, but its square overflows the float range
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", {"2:0": [1e200, 0.0]}))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'condensate.amplitudes'" in err


def test_huge_pump_amplitude_exits_3(state_config, capsys):
    # finite, but its intensity overflows: the non-finite emission weight is
    # a physics error, as for a huge atom number
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", [1e300, 0.0]))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert out == ""
    assert "non-finite" in err


def _set_angle(c, v):
    c["chsh"] = {"settings_rad": [0.0, v, 0.0, 0.0]}


_NUMERIC_KEYS = {
    "chsh.settings_rad": _set_angle,
    "validity_threshold": lambda c, v: c.__setitem__("validity_threshold", v),
    "pump.laser_hz": lambda c, v: c["pump"].__setitem__("laser_hz", v),
    "pump.atom_number": lambda c, v: c["pump"].__setitem__("atom_number", v),
    "pump.amplitude": lambda c, v: c["pump"].__setitem__("amplitude", [1.0, v]),
    "pump.direction": lambda c, v: c["pump"].__setitem__("direction", [0.0, v, 0.0]),
    "pump.polarization": lambda c, v: c["pump"].__setitem__("polarization", [0.0, 0.0, v]),
    "detection.direction": lambda c, v: c["detection"].__setitem__("direction", [0.0, 0.0, v]),
    "condensate.amplitudes.2:0": lambda c, v: c["condensate"]["amplitudes"].__setitem__("2:0", v),
}


@pytest.mark.parametrize("value", ["1.0", True, math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("key", sorted(_NUMERIC_KEYS))
def test_non_finite_config_number_exits_2(key, value, tmp_path, capsys):
    path = tmp_path / "config.json"
    shutil.copy(DATA / "sodium_chsh.json", path)
    edit_config(path, lambda c: _NUMERIC_KEYS[key](c, value))
    code, out, err = run(["chsh", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert f"'{key}'" in err


@pytest.mark.parametrize("value", ["15", False, math.nan, math.inf])
def test_scan_resolution_not_a_number_exits_2(value, scan_config, tmp_path, capsys):
    edit_config(scan_config, lambda c: c["detection"]["scan"].__setitem__("resolution_deg", value))
    code, _, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "'detection.scan.resolution_deg'" in err


def test_negative_validity_threshold_exits_2(capsys, tmp_path):
    path = tmp_path / "config.json"
    shutil.copy(DATA / "sodium_chsh.json", path)
    edit_config(path, lambda c: c.__setitem__("validity_threshold", -1.0))
    code, _, err = run(["chsh", "--config", str(path)], capsys)
    assert code == 2
    assert "validity_threshold" in err


# --- file boundaries -------------------------------------------------------------

_STATE = str(DATA / "sodium_state.json")
_CHSH = str(DATA / "sodium_chsh.json")

# argv, and the flag (or config key) and path the message names; "{tmp}" is
# a fresh directory, in which "missing" does not exist
_IO_CASES = {
    "config missing": (
        ["state", "--config", "{tmp}/missing.json"], "--config", "{tmp}/missing.json"
    ),
    "config directory": (["state", "--config", "{tmp}"], "--config", "{tmp}"),
    "state output": (
        ["state", "--config", _STATE, "--output", "{tmp}/missing/s.json"],
        "--output",
        "{tmp}/missing/s.json",
    ),
    "state csv output": (
        ["state", "--config", _STATE, "--format", "csv", "--output", "{tmp}/missing/s.csv"],
        "--output",
        "{tmp}/missing/s.csv",
    ),
    "filter output": (
        ["filter", "--config", _STATE, "--f-select", "1", "--output", "{tmp}/missing/f.json"],
        "--output",
        "{tmp}/missing/f.json",
    ),
    "chsh output": (
        ["chsh", "--config", _CHSH, "--output", "{tmp}/missing/c.json"],
        "--output",
        "{tmp}/missing/c.json",
    ),
    "chsh events": (
        ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", "{tmp}/missing/e.csv"],
        "--events-csv",
        "{tmp}/missing/e.csv",
    ),
    "tables output": (
        ["tables", "--max-doubled-j", "1", "--output", "{tmp}/missing/t"],
        "--output",
        "{tmp}/missing/t_cg.csv",
    ),
    "scan output": (
        ["scan", "--config", "{scan}", "--output", "{tmp}/missing/s"],
        "--output",
        "{tmp}/missing/s",
    ),
    "output.path key": (
        ["state", "--config", "{state}"], "'output.path'", "{tmp}/missing/o.json"
    ),
}


@pytest.mark.parametrize("case", _IO_CASES)
def test_unusable_path_exits_2(case, scan_config, state_config, tmp_path, capsys):
    # a path that cannot be read or written is a configuration error that
    # names the flag (or config key) and the path, not a traceback
    edit_config(state_config, lambda c: c.update(output={"path": f"{tmp_path}/missing/o.json"}))
    fill = {"{tmp}": str(tmp_path), "{scan}": str(scan_config), "{state}": str(state_config)}

    def expand(text):
        for key, value in fill.items():
            text = text.replace(key, value)
        return text

    argv, flag, path = _IO_CASES[case]
    code, out, err = run([expand(a) for a in argv], capsys)
    assert code == 2, err
    assert f"{flag} '{expand(path)}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_output_path_not_a_string_exits_2(state_config, capsys):
    edit_config(state_config, lambda c: c.update(output={"path": 5}))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "'output.path'" in err


_WRITERS = {
    "state": (_STATE, []),
    "filter": (_STATE, ["--f-select", "1"]),
    "chsh": (_CHSH, ["--samples", "10", "--events-csv", "events.csv"]),
}


@pytest.mark.parametrize("path", ["newdir/", "sub/", ".", "..", "sub/.."])
@pytest.mark.parametrize("source", ["--output", "'output.path'"])
@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_output_naming_a_directory_exits_2(
    command, source, path, tmp_path, monkeypatch, capsys
):
    # the scan prefix rule: "newdir/" once wrote a file named newdir
    shipped, extra = _WRITERS[command]
    config = tmp_path / "config.json"
    shutil.copy(shipped, config)
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", "config.json", *extra]
    if source == "--output":
        argv += ["--output", path]
    else:
        edit_config(config, lambda c: c.update(output={"path": path}))
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"{source} '{path}' names a directory" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["config.json", "sub"]


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_species_file_opened_once(command, tmp_path, monkeypatch, capsys):
    # the bytes hashed into atom_spec_sha256 are the bytes parsed: one open
    shipped, extra = _WRITERS[command]
    config = tmp_path / "config.json"
    shutil.copy(shipped, config)
    species = tmp_path / "species.json"
    shutil.copy(DATA / "sodium.json", species)
    edit_config(config, lambda raw: raw.update(atom_spec_path="species.json"))
    monkeypatch.chdir(tmp_path)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int) and Path(file).resolve() == species.resolve():
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    code, out, _ = run([command, "--config", "config.json", *extra], capsys)
    assert code == 0
    assert len(opened) == 1
    digest = hashlib.sha256(species.read_bytes()).hexdigest()
    assert f'"atom_spec_sha256": "{digest}"' in out


@pytest.mark.parametrize("prefix", ["run.v1", "run.v2", "run"])
def test_scan_prefix_keeps_its_dots(prefix, scan_config, tmp_path, capsys):
    # <prefix>.csv and <prefix>.json: run.v1 and run.v2 do not overwrite each other
    argv = ["scan", "--config", str(scan_config), "--output", str(tmp_path / prefix)]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert f"{tmp_path / prefix}.csv, {tmp_path / prefix}.json" in out
    assert (tmp_path / f"{prefix}.csv").is_file() and (tmp_path / f"{prefix}.json").is_file()


@pytest.mark.parametrize("prefix", [".", "..", "sub/..", "sub/"])
def test_scan_prefix_naming_a_directory_exits_2(
    prefix, scan_config, tmp_path, monkeypatch, capsys
):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["scan", "--config", str(scan_config), "--output", prefix], capsys)
    assert code == 2 and out == ""
    assert f"'{prefix}' names a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json", "sub"]


@pytest.mark.parametrize("prefix", [".", "..", "sub/..", "sub/"])
def test_tables_prefix_naming_a_directory_exits_2(prefix, tmp_path, monkeypatch, capsys):
    # the scan's prefix rule: "sub/" once wrote sub_cg.csv beside sub
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["tables", "--max-doubled-j", "1", "--output", prefix], capsys)
    assert code == 2 and out == ""
    assert f"'{prefix}' names a directory" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["sub"]


@pytest.mark.parametrize("blocked", ["t.csv", "t.json"])
def test_scan_output_writes_both_files_or_neither(blocked, scan_config, tmp_path, capsys):
    # a directory in the way of either file: nothing is written, and the
    # message names the directory, not the prefix
    (tmp_path / blocked).mkdir()
    code, out, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "t")], capsys
    )
    assert code == 2 and out == ""
    assert f"--output '{tmp_path / blocked}': Is a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["scan.json", blocked])
    assert not any((tmp_path / blocked).iterdir())


def test_scan_has_no_format_option(scan_config, tmp_path, capsys):
    # a scan always writes both files; --format is refused by name
    argv = ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--format", "csv"])
    assert exit_info.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


@pytest.mark.parametrize("value", ["json", "csv"])
def test_scan_refuses_output_format(value, scan_config, tmp_path, capsys):
    # the config key is refused like the flag, not silently ignored
    edit_config(scan_config, lambda c: c.__setitem__("output", {"format": value}))
    argv = ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "'output.format'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


# --- tables ----------------------------------------------------------------------


def test_tables_small_grid(capsys):
    code, out, _ = run(["tables", "--max-doubled-j", "2"], capsys)
    assert code == 0
    assert "2j1,2m1,2j2,2m2,2J,2M,value,sign,radicand_num,radicand_den" in out
    assert "2j1,2j2,2j3,2j4,2j5,2j6,value,sign,radicand_num,radicand_den" in out


def test_tables_values_cross_match_library(tmp_path, capsys):
    from raman_pairs.angular_momentum import HalfInt, clebsch_gordan

    assert main(["tables", "--max-doubled-j", "2", "--output", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    text = (tmp_path / "t_cg.csv").read_text()
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith(("#", "2j1"))]
    assert rows
    for row in rows:
        tj1, tm1, tj2, tm2, tj, tm = (int(x) for x in row[:6])
        value = clebsch_gordan(*(HalfInt(t) for t in (tj1, tm1, tj2, tm2, tj, tm)))
        assert float(row[6]) == value.value
        assert int(row[7]) == value.sign


def test_tables_pinned_bytes(capsys):
    # recorded while the CG and 3-j tables still walked their index set apart
    code, out, _ = run(["tables", "--max-doubled-j", "6"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f6f0fa71995f09069af13561a6a013696a556ba6c5d2723a52f883f0cfcf74c"
    )


def test_tables_pinned_bytes_at_the_cap(capsys):
    # the largest table the CLI allows, recorded while every symbol was
    # still summed in fractions.Fraction
    code, out, _ = run(["tables", "--max-doubled-j", "12"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "35b25b901c59564ad91f42671733711112660eef2a568c76315e1e5096dad2d8"
    )


TABLES_SHA256 = {  # stdout of `tables --max-doubled-j J`, recorded with two index walks
    0: "882153f079f18c499a702f394e353d08dcb418788ba894c4518caa4faa27d43a",
    1: "493244a590647e7863fe7b6cded0d6ae3ceaa10ae20666c8a39b2740db40f082",
    2: "ede8e5e9157466bf5e1b0186ac5f3a3669280f52613be33c854f9a2b5336a478",
    3: "82a4176867f127ad984c7ef55d9609611ca495b52c8d3d266cd5c120fb076086",
    4: "9d012aa6b2ed6e903f78b8fd66380f900be5fb13a597f741a1f65c775cbf4c5a",
    5: "9a4bc0451b90859b2bd4309426857ca494e14a968f098b8af3cc59cb5cf79a4a",
    6: "7f6f0fa71995f09069af13561a6a013696a556ba6c5d2723a52f883f0cfcf74c",
    7: "d494fd691a7ec43703a9ee17af12834f3fa5743aa67c8aa1411cf3fbeaf3d878",
    8: "87b686ba166eda8c801d59e251348ce43d81f41ef57efc6a6546630caf05b29a",
    9: "fdc85c33cdfb15b25c2e26fe7f4e889b3fc4d63d63c04bf2e62b887282ccb929",
    10: "42677dab4fc5e9e4dc61df7694ec103f7c5e25e1450b106c921b0059724802ac",
    11: "2550818c5bec47ae0a8cb69789241ce3dd70d2cd820b9c3d9374669875cc9449",
    12: "35b25b901c59564ad91f42671733711112660eef2a568c76315e1e5096dad2d8",
}


@pytest.mark.parametrize("max_doubled_j", sorted(TABLES_SHA256))
def test_tables_pinned_bytes_every_j(max_doubled_j, capsys):
    code, out, _ = run(["tables", "--max-doubled-j", str(max_doubled_j)], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_SHA256[max_doubled_j]


def test_tables_sum_one_symbol_per_symmetry_class(tmp_path, capsys):
    # each 3-j and 6-j class is summed once, and its other members are
    # cache hits: as many cache entries as independently counted orbits.
    # One walk of the coupling indices: one 3-j lookup a CG and 3-j row pair.
    angular_momentum._racah_3j.cache_clear()
    angular_momentum._racah_6j.cache_clear()
    assert main(["tables", "--max-doubled-j", "6", "--output", str(tmp_path / "t")]) == 0
    capsys.readouterr()

    def rows(suffix):
        lines = (tmp_path / f"t_{suffix}.csv").read_text().splitlines()
        return [tuple(int(x) for x in line.split(",")[:6]) for line in lines[3:]]

    classes_3j, classes_6j = oracle_3j_classes(rows("3j")), oracle_6j_classes(rows("6j"))
    assert (classes_3j, classes_6j) == (155, 270)
    info_3j = angular_momentum._racah_3j.cache_info()
    info_6j = angular_momentum._racah_6j.cache_info()
    assert info_3j.currsize == classes_3j
    assert info_6j.currsize == classes_6j
    assert (info_3j.hits + info_3j.misses, info_6j.hits + info_6j.misses) == (1384, 3418)
    assert (len(rows("3j")), len(rows("6j"))) == (1384, 3418)


def test_tables_output_writes_all_files_or_none(tmp_path, capsys):
    # a directory in the way of the second file: nothing is written
    (tmp_path / "t_3j.csv").mkdir()
    code, out, err = run(["tables", "--max-doubled-j", "2", "--output", str(tmp_path / "t")], capsys)
    assert code == 2 and out == ""
    assert f"--output '{tmp_path / 't_3j.csv'}'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t_3j.csv"]
    assert not any((tmp_path / "t_3j.csv").iterdir())


def test_tables_cap_exceeded_exits_2(capsys):
    code, _, err = run(["tables", "--max-doubled-j", "100"], capsys)
    assert code == 2
    assert "max-doubled-j" in err
