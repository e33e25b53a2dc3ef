"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import builtins
import errno
import hashlib
import io
import json
import math
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import raman_pairs
from oracles import oracle_3j_classes, oracle_6j_classes
from raman_pairs import angular_momentum, bell_sim
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


@pytest.mark.parametrize("kz", [1.0, -1.0])
def test_undefined_overlap_note_does_not_call_the_state_a_product(kz, state_config, capsys):
    # a sigma+ pump along z on |F=1, m=1>, seen from +-z, scatters into one
    # polarization branch only: the overlap is undefined, yet the state is
    # entangled across the two frequency channels
    def mutate(c):
        c["pump"]["direction"] = [0.0, 0.0, 1.0]
        c["pump"]["polarization"] = [[math.sqrt(0.5), 0.0], [0.0, math.sqrt(0.5)], [0.0, 0.0]]
        c["condensate"]["amplitudes"] = {"2:2": [1.0, 0.0]}
        c["detection"]["direction"] = [0.0, 0.0, kz]

    edit_config(state_config, mutate)
    code, out, _ = run(["state", "--config", str(state_config)], capsys)
    assert code == 0
    analysis = json.loads(out)["analysis"]
    assert analysis["conditional_overlap"] is None
    assert "factoriz" not in analysis["conditional_overlap_note"]
    squares = [c * c for c in analysis["schmidt_coefficients"]]
    assert len(squares) == 2
    want = -sum(p * math.log2(p) for p in squares)
    assert analysis["entropy_bits"] == pytest.approx(want, abs=1e-12)


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


@pytest.mark.parametrize("spelling", ["1.0", "1e0", "2/2", " 1"])
def test_filter_f_select_is_digits_or_odd_halves(spelling, state_config, capsys):
    # each of these once parsed as a Fraction and filtered F = 1
    code, out, err = run(
        ["filter", "--config", str(state_config), "--f-select", spelling], capsys
    )
    assert (code, out) == (2, "")
    assert f"'f-select' must be an integer or half-integer, got {spelling!r}" in err


def test_filter_nonexistent_level_exits_2(state_config, capsys):
    code, _, err = run(
        ["filter", "--config", str(state_config), "--f-select", "0"], capsys
    )
    assert code == 2
    assert "not a ground level" in err


def spell_level(path: Path, where, literal: str) -> Path:
    """Set the level key that ``where`` picks out of the config to the JSON text ``literal``."""
    edit_config(path, lambda c: where(c).__setitem__("filter_f", "LEVEL"))
    path.write_text(path.read_text().replace('"LEVEL"', literal))
    return path


@pytest.mark.parametrize(
    "literal, code",
    [('"1"', 0), ("1", 0), ("1.0", 2), ("2e0", 2), ("true", 2)]
    + [(f'"{text}"', 2) for text in ("1.0", "1e0", "2/2", " 1")],
)
def test_filter_f_is_an_integer_or_a_string(literal, code, state_config, capsys):
    # a JSON float or bool is no quantum number: 1.0 was once read as F = 1
    spell_level(state_config, lambda c: c, literal)
    got, out, err = run(["filter", "--config", str(state_config)], capsys)
    assert got == code
    if code:
        assert out == "" and f"'filter_f' must be an integer or half-integer, got {json.loads(literal)!r}" in err
    else:
        assert json.loads(out)["analysis"]["entropy_bits"] == pytest.approx(1.0, abs=1e-9)


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
    assert "resolution" in err and "'detection.scan.resolution_deg'" in err


def test_scan_concurrence_after_filter_without_filter_f_exits_2(scan_config, tmp_path, capsys):
    edit_config(scan_config, lambda c: c["detection"]["scan"].pop("filter_f"))
    code, out, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")], capsys
    )
    assert code == 2 and out == ""
    assert "'detection.scan.filter_f'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


def test_scan_workers_key_exits_2(scan_config, tmp_path, capsys):
    # scans are serial; a config that still asks for workers is rejected by name
    edit_config(scan_config, lambda c: c["detection"]["scan"].__setitem__("workers", 2))
    code, _, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "x")], capsys
    )
    assert code == 2
    assert "detection.scan.workers" in err


@pytest.mark.parametrize("measure", ["entropy", "conditional_overlap"])
def test_scan_filter_f_of_another_measure_exits_2(measure, scan_config, tmp_path, capsys):
    # filter_f selects the channel of concurrence_after_filter only; elsewhere
    # it was once accepted and ignored.  Both keys are named.
    edit_config(scan_config, lambda c: c["detection"]["scan"].__setitem__("measure", measure))
    code, out, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")], capsys
    )
    assert code == 2 and out == ""
    assert "'detection.scan.filter_f'" in err and "'detection.scan.measure'" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


def test_scan_filter_f_float_exits_2(scan_config, tmp_path, capsys):
    spell_level(scan_config, lambda c: c["detection"]["scan"], "1.0")
    code, out, err = run(
        ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")], capsys
    )
    assert code == 2 and out == ""
    assert "'detection.scan.filter_f' must be an integer or half-integer, got 1.0" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.json"]


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


def test_chsh_off_axis_with_filter_f_set_does_not_advise_setting_it(tmp_path, capsys):
    # the shipped config sets filter_f; off the axis its F=1 channel still
    # holds 2 photon x 3 atom labels
    raw = json.loads((DATA / "sodium_chsh.json").read_text())
    raw["detection"]["direction"] = [0.6, 0.0, 0.8]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    code, _, err = run(["chsh", "--config", str(path)], capsys)
    assert code == 3
    assert "2x2" in err and "2 photon x 3 atom labels" in err
    assert "Set 'filter_f'" not in err


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


# Seeded random detection directions and condensates over 2:-2, 2:0 and 2:2,
# rounded to 4 digits; the CLI scales the direction to unit length.
_OFF_AXIS_CONFIGS = [
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
# one SHA-256 per output, in the order of _SINGLE_DIRECTION_PINS
_OFF_AXIS_PINS = [
    (
        "daeb03500c1a15029179a90bb383a315ed51fdf0efa5f306908843675d6479dd",
        "5c05aee239001b7a28b2e94e28ca1ee3193f3b83a49c7c6c23a0a8ba432efbf8",
        "3fa91f7d8f834a1912b15bf2a3199f789182a477968f55e3d971b0b7e982fc25",
        "44dedfbeb2e5e0687a251f6fa7c407c9721c32dae26b51093f889648b6b7467e",
        "fbd915c4d80479aaaee843fc4d3a2ac7e12b0a8001b93266023a4b2e4403bc50",
        "8f1a21c2839bcaddfc1535f46fdb4d039db78cfe86a2a0b48d2c69028dc1323a",
    ),
    (
        "475349a1dcb88feeb22323555e41c58022e91796f9601653145f74e6770eda9f",
        "f05ea6083505cbd14e59971f58da403bfce695fb74d042327e16e3818bb22ec3",
        "6b35f23ee8df025219e99065e16532ec08e688b012882577239ddb8ad1d97a42",
        "fbef7b741996689dd54aaaf1982921d096718c6db8c559ef40b82535b8f9e170",
        "58dc6de991a774f24b956c0d5c0a2c0d3a7ecae3389af3a459c08a97e59a4c01",
        "4b72dec4d5175d145f521b906dc274ea38b3dc89ff7cc02bf6ef193ec427cf8c",
    ),
    (
        "385cf6a3d8f525db4b78cb476ccaf78275e25829088921e30637d71f0672a565",
        "60b075fa3c8f24eeec2c75c81b2f9ca4f489c5e17872ea8b5b7c9c249d8bdaa6",
        "cf59ec89cfafbeaedccec8c90ef0d9321fbc258326415d502da854e9f59df334",
        "c18cc0b617ab1bbdcd7ea9b946b139fdb3825f51537f480c7d2951e15181d456",
        "5550aed0a398eff57ee196fc3b17c984c821c8f81bb02088a0faad9aee88d016",
        "3e890aa19879ab7c62d68f9452b5c9e1de5ca072eb2b8915918844e3c6a26bce",
    ),
    (
        "af54c2340c582a133a6fac4af22978026710912d374e1a896c26c0d7b60c6afa",
        "0bf3e68d605143e900776cbb0d1046a862f96357b913d65538adc1fffabf86c2",
        "95ddd48734c16082a748c5d4937b965f30f0b9ec615298db861bf53c798b3257",
        "555d7e56e006929efb4473e5e62e431194538d5aa43b707077b0114bb09a2473",
        "9301900221d0faefb49caf134b04fc0540ac4b0b0f4e1a144d00b1a7dd016ba3",
        "5a3a54cc0653d21a76a159a8c10de06dcc27eb75f4e6c8b6bc48c60a9a5831ce",
    ),
    (
        "015462507f70153d82f7ff3f65fadbe231b8bc0cac6375caab307ec7ba865364",
        "1e856e05520791276b9ed56eb1fa856eaaebb65e686db65266c0ed50dbc091fe",
        "21108ee12a13506d1f9c2fe099928a8d89242bdb03fd9186a5e83916a3258743",
        "18cdc5614a62d478389d72109d2317699c94a91550de8bebeb0dcd343c967ba6",
        "74d657bd7ab203f18ea6d3ac01991259260eb9f10e1658d483eef29e8dae5a0c",
        "10c5a7aa4aaddbb605e7e166b24a0c178455d75f87256a193ad428d18d51724d",
    ),
    (
        "05cffdf09ba19d357d4ea2531cb68250b8a4c1a2eea7ea37e39c0f7969d76503",
        "0d1f90247aba471f92a1b2224331a3b36c956edb2c7020b67ff3d21e2a1c3a7c",
        "55ae911414c0233baff2a61f46fd10aefa24c36a91893f7663f2fe204232302b",
        "1a73598664a2b6ba2fc41186ad3689e55d450a5ceeb7cdcd6a7bae049ed5f0f5",
        "61dbe8d2ed825f2b206491a5fe5255e1802d6367cc3e2d5933806c7a3a513b9e",
        "98457f4dbd211429746e1a9eea7e1d47b3c640af852f8eadc5b0895d521f5bb1",
    ),
    (
        "370d40984310c70d70def6dc096f8ec06c7643b7b603ee8044bfa3d1a8f01f24",
        "a4beabdc612b5343be962660446327ecf13f6ceed929ab4e61b2d920e30dedc1",
        "0cdefceebe5633d55ce0b9ed017c7c4254f701a4c55e1b9c0702af2b235f3593",
        "d718144bbc73fb4e9d2bf72ad04c681251561bf36832eba2d9fcfe4eb1131020",
        "82ed7a1a43ef5e2ab259de2a7c6a836331ae1d8cbd0c67e5dac33ce7942d2ab0",
        "6259d59023b074a21c308ebd71d27d8b437e0e0238bcfcf295a9d10ee3416cb0",
    ),
    (
        "d42ac4a801953fea47810aabfcb2e874153f0f6b4093da248fad42582df34d74",
        "69a6f7409ac0257226031d51ef5d041e103a53c3aefb4aa0d2326df51a697e7d",
        "89fe31919aa25d22cb00a31d389005772977e70c08d5c668590199f023696ac6",
        "8ff1b113c82934ed37050db6a25747503c146680e8627297659263564261a773",
        "b96720b94af7d27e7fa79249eeb0e267325248adf680778459c33cf24136e956",
        "e9a1b5585fbedc527f066ebe651b880e14070ddb4a846d53fd3c5197eb6a9f0d",
    ),
    (
        "1204c7f16280922658cf371d945c15b4008a41252d13a0b49a8ce1e5ba1d0582",
        "e1255366c42855a041f9fbf8f9f5a833418a603424caff3fb68f41499592cf30",
        "673e35a14da4d1b2d483c74ade87df37b4f40d1b67752f41cf9af2eb78b84ec0",
        "aba67ed20db4ed22a5c86999f0a7d840352b80918c87bced0681c796ea03087c",
        "00794a91985417d066088aafed2e29d855f7fc1feb2e9f8dfb6e3934cae90040",
        "8c389c09cdfdad68afa2ade700f7f5dbc72833beda3e04e5431d0cf816ddfaff",
    ),
    (
        "88d7f9a52562af40fe05dad988524347fbfda4718c1f6a3b1cfcb48432fc8af7",
        "46c40534c858000dbb58b1f4e22ddf1134ad8533269850e1b0fc5a7e39eb18b7",
        "9f294a2b0891f25a9b516b9058a142fa37ae5138499423dfb44b3a95c0b455d5",
        "90213e7cbfdf1b25eb6d0d48403c614de3a8100de06d8050c27cc00e6ce8a7ba",
        "d60949a3645d12c5edfdf49710961272c70b26c89168c5a252373324eaf9e63f",
        "3011b28d940895f25a6d949c36d321a48aebe4fb3082671ef602e4f1b3a8a7c8",
    ),
    (
        "2485830311233422a0d0ec4eb7d8f1ac068768a3f059e1606cb1b7e5dbaada34",
        "9704b96d73254d034c4d72a56f5f7412c9639567b8d27ee22b05a1a33645c23f",
        "cf163d375fe2c9a10c3b50ab6c772194551441fb31b43f6e49125fa6995b8ae6",
        "bb220fcf6b148b09bb8c7916fe2e819d418f7473ff468a72bc39aeca1dcdcbdc",
        "bb8e9c1fe554b7b3508e991594d4d970de9c43f58d8aeca50608d840fe8fe943",
        "5facee59258879fc4faabcb64a4b1938087270dcf3453afe7d407c0a0e9ddf2a",
    ),
    (
        "28466d76900be6d9e49016c6f6512dba50e9d3e4d0a554a9ac51246b6dfe9417",
        "7e8416def598bb001ed0b05f4546b8777102fa04c302bf08b9f6639933ad9d3b",
        "33efbf62e1ea9b98296663ea4c8bf8336270604b38fbd2f7db97919ab41ff9a6",
        "484fcd132117501e923bc04983a29f1e573a1c921a80378d995a587d13c6b7cd",
        "260d6a0e836a5e4a846ea77d0041630d29005f9a25d2d6121eddc2c1b0aa5699",
        "5d35029072bc03629885f58a2bf08cf575efb4c897b2a61b826495f29395b28a",
    ),
]


@pytest.mark.parametrize("args", _SINGLE_DIRECTION_PINS, ids=" ".join)
@pytest.mark.parametrize("index", range(len(_OFF_AXIS_CONFIGS)))
def test_off_axis_pinned_bytes(index, args, state_config, capsys):
    direction, amplitudes = _OFF_AXIS_CONFIGS[index]

    def mutate(c):
        c["detection"]["direction"] = direction
        c["condensate"]["amplitudes"] = amplitudes

    edit_config(state_config, mutate)
    code, out, _ = run([args[0], "--config", str(state_config), *args[1:]], capsys)
    assert code == 0
    pin = _OFF_AXIS_PINS[index][list(_SINGLE_DIRECTION_PINS).index(args)]
    assert hashlib.sha256(out.encode()).hexdigest() == pin


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


def test_chsh_refuses_csv_output_format(capsys):
    # the analysis is JSON only, so chsh has no --format; argparse refuses it by name
    with pytest.raises(SystemExit) as exit_info:
        main(["chsh", "--config", str(DATA / "sodium_chsh.json"), "--format", "csv"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--format" in captured.err


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


@pytest.mark.parametrize("amplitude", [0.5, 0.0])
@pytest.mark.parametrize("key", ["6:0", "2:1"])
def test_condensate_key_that_is_no_ground_sublevel_exits_2(key, amplitude, state_config, capsys):
    # 2F = 6 is no ground level of sodium; 2m = 1 is no sublevel of 2F = 2
    edit_config(state_config, lambda c: c["condensate"]["amplitudes"].__setitem__(key, amplitude))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert f"'condensate.amplitudes.{key}'" in err


def test_huge_pump_amplitude_exits_3(state_config, capsys):
    # finite, but its intensity overflows: the non-finite emission weight is
    # a physics error, as for a huge atom number
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", [1e300, 0.0]))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("amplitude", [[0.0, 0.0], [1e-200, 0.0], 0, [0.0, -1e-170]])
def test_zero_pump_amplitude_exits_2(amplitude, state_config, capsys):
    # |amplitude|^2 is 0, exactly or by underflow: nothing scatters
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", amplitude))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'pump.amplitude'" in err


def test_emission_weight_underflow_exits_3(state_config, capsys):
    # a positive intensity whose product with the branch norms underflows
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", [1e-160, 0.0]))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert out == ""
    assert "underflows" in err


@pytest.mark.parametrize("spelling", ["02:0", "+2:0", "2: 0"])
def test_two_spellings_of_one_sublevel_exit_2(spelling, state_config, capsys):
    amplitudes = {"2:0": [1.0, 0.0], spelling: [0.0, 1.0]}
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", amplitudes))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'2:0'" in err and f"{spelling!r}" in err


@pytest.mark.parametrize("angle", [1e308, -1e308, 8.99e307])
def test_chsh_angle_whose_double_overflows_exits_2(angle, tmp_path, capsys):
    path = tmp_path / "config.json"
    shutil.copy(DATA / "sodium_chsh.json", path)
    edit_config(path, lambda c: c.__setitem__("chsh", {"settings_rad": [angle, 0.0, 0.0, 0.0]}))
    code, out, err = run(["chsh", "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "'chsh.settings_rad'" in err


def test_chsh_largest_angle_with_a_finite_double_runs(tmp_path, capsys):
    path = tmp_path / "config.json"
    shutil.copy(DATA / "sodium_chsh.json", path)
    edit_config(path, lambda c: c.__setitem__("chsh", {"settings_rad": [8e307, 0.0, 0.0, 0.0]}))
    code, out, _ = run(["chsh", "--config", str(path)], capsys)
    assert code == 0
    assert strict_json(out)["settings_rad"][0] == 8e307


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
}


@pytest.mark.parametrize("case", _IO_CASES)
def test_unusable_path_exits_2(case, scan_config, tmp_path, capsys):
    # a path that cannot be read or written is a configuration error that
    # names the flag and the path, not a traceback
    fill = {"{tmp}": str(tmp_path), "{scan}": str(scan_config)}

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
    # the scan prefix rule: "newdir/" once wrote a file named newdir.  Outputs
    # are named by flags only: a config's output block is an unknown key.
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
    if source == "--output":
        assert f"{source} '{path}' names a directory" in err
    else:
        assert "unknown key 'output'" in err
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
    # outputs are named by flags only: any config block "output" is refused
    # as an unknown key, not silently ignored, and nothing is written
    edit_config(scan_config, lambda c: c.__setitem__("output", {"format": value, "path": "p"}))
    argv = ["scan", "--config", str(scan_config), "--output", str(tmp_path / "s")]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "unknown key 'output'" in err
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


# --- chsh: one output transaction ------------------------------------------------


def test_chsh_writes_both_files_or_neither(tmp_path, monkeypatch, capsys):
    # the JSON cannot be written: the events CSV is not left behind either
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", "e.csv",
         "--output", "missing/c.json"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "--output 'missing/c.json'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("blocked", ["c.json", "e.csv"])
def test_chsh_directory_in_the_way_writes_nothing(blocked, tmp_path, monkeypatch, capsys):
    (tmp_path / blocked).mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", "e.csv",
         "--output", "c.json"],
        capsys,
    )
    assert code == 2 and out == ""
    flag = "--output" if blocked == "c.json" else "--events-csv"
    assert f"{flag} '{blocked}': Is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == [blocked]


def test_chsh_failure_mid_csv_keeps_old_files(tmp_path, monkeypatch, capsys):
    # an error after the first 65536-trial chunk leaves both targets as they were
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.csv").write_bytes(b"old events\n")
    (tmp_path / "c.json").write_bytes(b"old json\n")
    rows = bell_sim._rows

    def failing_rows(first, codes):
        if first >= 65_536:
            raise RuntimeError("disk gone")
        return rows(first, codes)

    monkeypatch.setattr(bell_sim, "_rows", failing_rows)
    argv = ["chsh", "--config", _CHSH, "--samples", "70000", "--events-csv", "e.csv",
            "--output", "c.json"]
    with pytest.raises(RuntimeError, match="disk gone"):
        main(argv)
    assert (tmp_path / "e.csv").read_bytes() == b"old events\n"
    assert (tmp_path / "c.json").read_bytes() == b"old json\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "e.csv"]


@pytest.mark.parametrize("events", ["", ".", "sub/"])
def test_chsh_events_csv_naming_a_directory_exits_2(events, tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", events], capsys
    )
    assert code == 2 and out == ""
    assert f"--events-csv '{events}' names a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize("events", ["c.json", "./c.json", "sub/../c.json"])
def test_chsh_events_csv_and_output_one_file_exits_2(events, tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", events,
         "--output", "c.json"],
        capsys,
    )
    assert code == 2 and out == ""
    assert "--events-csv and --output name one file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


# --- chsh: memory that does not grow with --samples --------------------------------


def _traced_peak(argv) -> int:
    """The traced peak of ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("events", [[], ["--events-csv", "e.csv"]])
def test_chsh_memory_does_not_grow_with_the_trials(events, tmp_path, monkeypatch):
    # the command reads one 65536-trial chunk at a time: 2^22 trials take what
    # 2^18 take, where 2 bytes kept per trial would add about 8 MB
    monkeypatch.chdir(tmp_path)
    argv = ["chsh", "--config", _CHSH, "--output", "c.json", *events, "--samples"]
    assert main([*argv, "1"]) == 0  # numpy's random submodules load untraced
    small, large = (_traced_peak([*argv, str(n)]) for n in (2**18, 2**22))
    assert abs(large - small) < 2e6


def test_chsh_huge_sample_count_reaches_the_stream(tmp_path, monkeypatch):
    # 10^15 trials fit in no array: the command draws them chunk by chunk, so
    # it reaches the stream's own failure after the first chunk
    asked = []

    def one_chunk_then_fail(state, settings, n, seed):
        asked.append(n)
        yield 0, np.zeros(bell_sim._CHUNK, dtype=np.int8)
        raise RuntimeError("after the first chunk")

    monkeypatch.setattr(bell_sim, "sample_chunks", one_chunk_then_fail)
    monkeypatch.chdir(tmp_path)
    for events in ([], ["--events-csv", "e.csv"]):
        with pytest.raises(RuntimeError, match="after the first chunk"):
            main(["chsh", "--config", _CHSH, "--samples", str(10**15), *events])
    assert asked == [10**15, 10**15]
    assert list(tmp_path.iterdir()) == []


# --- repeated JSON keys ------------------------------------------------------------


def _repeat_pump(text: str) -> str:
    pump = json.dumps(json.loads(text)["pump"])
    return text.replace('"condensate":', f'"pump": {pump}, "condensate":', 1)


# each makes json.loads alone read the last of two equal keys
_REPEATS = {
    "'pump'": _repeat_pump,
    "'2:0'": lambda text: text.replace('"2:0": [1.0, 0.0]', '"2:0": [1.0, 0.0], "2:0": [0.0, 1.0]'),
}


@pytest.mark.parametrize("key", sorted(_REPEATS))
def test_repeated_config_key_exits_2(key, state_config, capsys):
    text = state_config.read_text()
    state_config.write_text(_REPEATS[key](text))
    assert state_config.read_text() != text
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert f"the key {key} appears twice" in err
    assert str(state_config) in err


def test_repeated_species_key_exits_2(state_config, capsys):
    text = (DATA / "sodium.json").read_text()
    repeated = text.replace('"ground_splittings_hz": {', '"ground_splittings_hz": {"4": 1.0, ', 1)
    assert repeated != text
    (state_config.parent / "twice.json").write_text(repeated)
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="twice.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "the key '4' appears twice" in err and "twice.json" in err


def test_config_not_utf8_exits_2(state_config, capsys):
    state_config.write_bytes(state_config.read_bytes().replace(b'"2:0"', b'"2:\xff"'))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "not valid JSON" in err


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_config_in_another_encoding_exits_2(encoding, state_config, capsys):
    # json.loads alone detects UTF-16, UTF-32 and a UTF-8 byte-order mark;
    # a config is read as UTF-8, as a species file is
    state_config.write_bytes(state_config.read_text().encode(encoding))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "not valid JSON" in err


@pytest.mark.parametrize("spelling", ["relative", "absolute", "empty", "dot", "dots"])
def test_builtin_names_only_shipped_species(spelling, state_config, capsys):
    # a species file outside the package data, however "builtin:" spells its path
    outside = state_config.parent / "outside_species"
    shutil.copy(DATA / "sodium.json", outside.with_name("outside_species.json"))
    name = {
        "relative": os.path.relpath(outside, DATA),
        "absolute": str(outside),
        "empty": "",
        "dot": ".",
        "dots": "..",
    }[spelling]
    edit_config(state_config, lambda raw: raw.update(atom_spec_path=f"builtin:{name}"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "'atom_spec_path'" in err and "shipped species" in err


@pytest.mark.parametrize("command", ["chsh", "tables", "state", "filter", "scan"])
def test_failed_rename_exits_2_by_name(command, scan_config, tmp_path, monkeypatch, capsys):
    # a rename that the file system refuses after every file was written
    # (another user's file in a sticky directory) names its flag and path;
    # a scan names its prefix
    run_dir = tmp_path / "run"  # the scan config stays outside it
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    argv = {
        "chsh": ["chsh", "--config", _CHSH, "--samples", "10", "--events-csv", "e.csv"],
        "tables": ["tables", "--max-doubled-j", "1", "--output", "t"],
        "state": ["state", "--config", _STATE, "--output", "s.json"],
        "filter": ["filter", "--config", _STATE, "--f-select", "1", "--output", "f.json"],
        "scan": ["scan", "--config", str(scan_config), "--output", "s"],
    }[command]
    blocked = {
        "chsh": "e.csv", "tables": "t_cg.csv", "state": "s.json", "filter": "f.json", "scan": "s"
    }[command]

    def refuse(source, target):
        error = os.strerror(errno.EPERM)
        raise PermissionError(errno.EPERM, error, os.fspath(source), None, os.fspath(target))

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"--{'events-csv' if command == 'chsh' else 'output'} '{blocked}'" in err
    assert list(run_dir.iterdir()) == []
