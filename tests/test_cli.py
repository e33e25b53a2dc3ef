"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import builtins
import errno
import hashlib
import io
import json
import math
import os
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import raman_pairs
from oracles import oracle_3j_classes, oracle_6j_classes
from raman_pairs import angular_momentum, bell_sim
from raman_pairs.atomic_model import bounded_repr
from raman_pairs.cli import main

DATA = Path(raman_pairs.__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import same_bytes  # noqa: E402

# the recorded parts of each fixed call of tools/same_bytes.py
MANIFEST = json.loads((ROOT / "tests" / "output_digests.json").read_text(encoding="utf-8"))


@pytest.fixture()
def fixed_parts(tmp_path):
    """The parts of a fixed call of ``tools/same_bytes.py``, by name, run in
    this process: what the manifest records for the call."""
    return lambda name: same_bytes.fixed_parts(ROOT, name, tmp_path)


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


@pytest.mark.parametrize("laser_hz, code", [(1e9, 3), (1e3, 3), (2e9, 0)])
def test_state_laser_below_a_ground_splitting_exits_3(laser_hz, code, state_config, capsys):
    # below sodium's 1.772 GHz F=2 splitting, omega_L - delta(F=2) is negative
    # before any recoil: the channel is closed, and the message says so
    edit_config(state_config, lambda c: c["pump"].__setitem__("laser_hz", laser_hz))
    got, out, err = run(["state", "--config", str(state_config)], capsys)
    closed = (
        f"physics error: the laser at {laser_hz:.12g} Hz is not above the F=2 ground splitting "
        "of 1772000000 Hz: that Raman channel is energetically closed\n"
    )
    assert (got, err) == (code, closed if code else "")
    assert (out == "") == (code == 3)


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


@pytest.mark.parametrize("measure", same_bytes.MEASURES)
def test_scan_pinned_bytes(measure, fixed_parts):
    # stdout, CSV and JSON of sodium_scan.json at 6 degrees
    name = f"scan 6 degrees {measure}"
    assert fixed_parts(name) == MANIFEST[name]


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


def test_chsh_pinned_bytes(fixed_parts):
    # seeded settings, past the 65536-trial chunk boundary: the exit code,
    # stdout, stderr and events CSV that the manifest records
    name = "chsh 65636 samples"
    assert fixed_parts(name) == MANIFEST[name]


@pytest.mark.parametrize("settings", [None, [0.0, math.pi / 4.0, math.pi / 8.0, 0.3]])
def test_chsh_reads_one_moment_matrix(settings, tmp_path, monkeypatch, capsys):
    # S, optimized or at the config's angles, and the sampler read the moment
    # matrix of one _moments call per run
    raw = json.loads((DATA / "sodium_chsh.json").read_text())
    if settings is not None:
        raw["chsh"] = {"settings_rad": settings}
    (tmp_path / "config.json").write_text(json.dumps(raw, indent=1))
    calls = []
    moments = bell_sim._moments
    monkeypatch.setattr(bell_sim, "_moments", lambda m: calls.append(m) or moments(m))
    code, out, _ = run(
        ["chsh", "--config", str(tmp_path / "config.json"), "--samples", "1000"], capsys
    )
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    assert doc["optimized"] == (settings is None) and doc["sampling"]["n"] == 1000


# the single-direction outputs of tools/same_bytes.py, by their arguments
_SINGLE_DIRECTION = {tuple(args): name for name, args in same_bytes.SINGLE_DIRECTION.items()}


@pytest.mark.parametrize("args", _SINGLE_DIRECTION, ids=" ".join)
def test_single_direction_pinned_bytes(args, fixed_parts):
    name = _SINGLE_DIRECTION[args]
    assert fixed_parts(name) == MANIFEST[name]


@pytest.mark.parametrize("args", _SINGLE_DIRECTION, ids=" ".join)
@pytest.mark.parametrize("index", range(len(same_bytes.OFF_AXIS)))
def test_off_axis_pinned_bytes(index, args, fixed_parts):
    # seeded random detection directions and condensates over 2:-2, 2:0 and 2:2
    name = f"off axis {index} {_SINGLE_DIRECTION[args]}"
    assert fixed_parts(name) == MANIFEST[name]


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
    # finite inputs whose emission weight, about 5.6e325, overflows: no Infinity in the output
    def mutate(c):
        c["pump"]["atom_number"] = 1e308
        c["pump"]["amplitude"] = [1e20, 0.0]

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


def test_state_json_keeps_levels_of_one_float_frequency(state_config, capsys):
    # splittings of 0 and 1 mHz are distinct, but the photon frequencies round
    # to one float: channels named by level keep both levels apart, in the
    # JSON as in the CSV's row per amplitude
    spec = json.loads((DATA / "sodium.json").read_text())
    spec["ground_splittings_hz"]["4"] = 1e-3
    (state_config.parent / "close.json").write_text(json.dumps(spec))
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="close.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    channels = doc["channels"]
    assert {ch["doubled_f"] for ch in channels} == {2, 4}
    assert len({ch["key"] for ch in channels}) == len(channels) == len(doc["amplitudes"])
    assert len({ch["omega_hz"] for ch in channels}) == 1
    assert doc["unresolved_channel_pairs"] == [[2, 4]]
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


@pytest.mark.parametrize("file, key", [
    ("config", "validity_threshold"), ("config", "filter_f"),
    ("species", "doubled_I"), ("species", "name"),
])
def test_long_rejected_value_is_named_not_copied(file, key, state_config, capsys):
    # a message echoed a rejected value whole: a million characters once made a
    # megabyte of stderr; a short value keeps its exact message
    long = "\x01" + "x" * 999_999  # no printable name either
    for value, shown in (("\x01", "'\\x01'"), (long, f"{repr(long)[:100]}... (1000005 characters)")):
        if file == "config":
            edit_config(state_config, lambda raw: raw.update({key: value}))
        else:
            spec = json.loads((DATA / "sodium.json").read_text())
            (state_config.parent / "long.json").write_text(json.dumps({**spec, key: value}))
            edit_config(state_config, lambda raw: raw.update(atom_spec_path="long.json"))
        code, out, err = run(["filter", "--config", str(state_config), "--f-select", "1"], capsys)
        assert (code, out) == (2, "")
        assert f"'{key}' must be " in err and f", got {shown}" in err
        assert len(err.encode()) < 1000


def test_atom_spec_that_is_not_json_exits_2(state_config, capsys):
    (state_config.parent / "broken.json").write_text('{"name": ')
    edit_config(state_config, lambda raw: raw.update(atom_spec_path="broken.json"))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "broken.json" in err and "not valid JSON" in err


@pytest.mark.parametrize("deep_file", ["config.json", "species.json"])
def test_deeply_nested_input_file_exits_2_naming_it(deep_file, tmp_path, capsys):
    # nesting past the recursion limit once escaped json.loads as a RecursionError
    doc = json.loads((DATA / "sodium_state.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**doc, "atom_spec_path": "species.json"}))
    shutil.copy(DATA / "sodium.json", tmp_path / "species.json")
    (tmp_path / deep_file).write_text("[" * 100_000 + "]" * 100_000)
    argv = ["state", "--config", str(tmp_path / "config.json"), "--output", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert f"{tmp_path / deep_file} nests arrays or objects too deeply to parse" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


def test_huge_condensate_amplitude_exits_2(state_config, capsys):
    # finite, but its square overflows the float range
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", {"2:0": [1e200, 0.0]}))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'condensate.amplitudes'" in err


@pytest.mark.parametrize(
    "amplitude, code",
    [([1e-157, 0.0], 2), ([1e-162, 0.0], 2), ([1e155, 0.0], 2), ([1e-155, 0.0], 0),
     ([1e154, 0.0], 0)],
)
def test_condensate_norm_out_of_float_range_exits_2_by_name(amplitude, code, state_config, capsys):
    # a square in the subnormal range leaves the normalized spinor off unit
    # norm; one that underflows to 0 or overflows leaves no norm to divide by
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", {"2:0": amplitude}))
    got, out, err = run(["state", "--config", str(state_config)], capsys)
    refusal = "'condensate.amplitudes' has a norm too small, too large or zero to normalize"
    assert (got, err) == (code, f"configuration error: {refusal}\n" if code else "")
    assert (out == "") == (code == 2)


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


@pytest.mark.parametrize("amplitude", [[0.0, 0.0], 0])
def test_zero_pump_amplitude_exits_2(amplitude, state_config, capsys):
    # an amplitude of exactly 0: nothing scatters
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", amplitude))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'pump.amplitude'" in err


@pytest.mark.parametrize("amplitude", [[1e-200, 0.0], [0.0, -1e-170]])
def test_pump_amplitude_whose_square_underflows_exits_3(amplitude, state_config, capsys):
    # |amplitude|^2 underflows, which the weight's verdicts judge, not the
    # amplitude's: at the fixture's 1e6 atoms the weights, about 5.6e-417 and
    # 5.6e-357, underflow too
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", amplitude))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert (code, out) == (3, "")
    assert "underflows" in err


def test_emission_weight_underflow_exits_3(state_config, capsys):
    # a positive intensity whose product with the branch norms underflows
    edit_config(state_config, lambda c: c["pump"].__setitem__("amplitude", [1e-160, 0.0]))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 3
    assert out == ""
    assert "underflows" in err


@pytest.mark.parametrize("spelling", ["02:0"])
def test_two_spellings_of_one_sublevel_exit_2(spelling, state_config, capsys):
    amplitudes = {"2:0": [1.0, 0.0], spelling: [0.0, 1.0]}
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", amplitudes))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2
    assert out == ""
    assert "'2:0'" in err and f"{spelling!r}" in err


# --- one integer spelling: ASCII digits with an optional '-' ---------------------
# int() reads each key below as a level; an input file spells an integer one way
# only, so each is a malformed key, refused by name.


@pytest.mark.parametrize(
    "key", ["+2:0", "2: 0", " 2:0", "2:+0", "\uff12:0", "0_2:0", "2 :0", "2", "2:0:0", ":"]
)
def test_condensate_key_in_another_spelling_exits_2(key, state_config, capsys):
    amplitudes = {"2:0": [1.0, 0.0], key: [0.0, 1.0]}
    edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", amplitudes))
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert f"'condensate.amplitudes.{key}'" in err


def test_condensate_keys_with_a_sign_or_a_leading_zero_still_parse(state_config, capsys):
    def amplitudes_for(amplitudes):
        edit_config(state_config, lambda c: c["condensate"].__setitem__("amplitudes", amplitudes))
        code, out, err = run(["state", "--config", str(state_config)], capsys)
        assert code == 0, err
        return json.loads(out)["amplitudes"]

    assert amplitudes_for({"4:-4": 1.0})
    assert amplitudes_for({"02:0": [1.0, 0.0]}) == amplitudes_for({"2:0": [1.0, 0.0]})


def _species_config(state_config: Path, splittings: dict) -> Path:
    spec = json.loads((DATA / "sodium.json").read_text())
    spec["ground_splittings_hz"] = splittings
    (state_config.parent / "species.json").write_text(json.dumps(spec))
    return edit_config(state_config, lambda raw: raw.update(atom_spec_path="species.json"))


@pytest.mark.parametrize("key, level", [("\uff12", "2"), ("\u0664", "4")])
def test_species_level_key_in_another_spelling_exits_2(key, level, state_config, capsys):
    # a fullwidth 2 and an Arabic-Indic 4, which str.isdecimal() and int() accept
    splittings = {"2": 0.0, "4": 1.772e9}
    splittings[key] = splittings.pop(level)
    _species_config(state_config, splittings)
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert f"'ground_splittings_hz.{key}'" in err


@pytest.mark.parametrize("twin", ["04", "004"])
def test_two_spellings_of_one_species_level_exit_2(twin, state_config, capsys):
    _species_config(state_config, {"2": 0.0, "4": 1.772e9, twin: 1.772e9})
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert code == 2 and out == ""
    assert "'ground_splittings_hz'" in err and "'4'" in err and f"'{twin}'" in err


_SCAN_BLOCK = {"resolution_deg": 30.0, "measure": "entropy"}

# command, shipped config, edit of the config, edit of its species file and
# the text the message must hold; an edit returns the document to write
_MALFORMED_INPUTS = {
    "config root": ("state", "state", lambda c: [c], None, "config {config}"),
    "both detections": (
        "state", "state",
        lambda c: {**c, "detection": {"direction": [0, 0, 1], "scan": _SCAN_BLOCK}}, None,
        "'detection'",
    ),
    "no detection": ("state", "state", lambda c: {**c, "detection": {}}, None, "'detection'"),
    "species missing": (
        "state", "state", lambda c: {**c, "atom_spec_path": "missing.json"}, None,
        "'atom_spec_path' names no file: '{tmp}/missing.json'",
    ),
    "scan not an object": (
        "scan", "scan", lambda c: {**c, "detection": {"scan": 30.0}}, None, "'detection.scan'"
    ),
    "scan measure missing": (
        "scan", "scan", lambda c: {**c, "detection": {"scan": {"resolution_deg": 30.0}}}, None,
        "missing required key 'detection.scan.measure'",
    ),
    "unknown measure": (
        "scan", "scan",
        lambda c: {**c, "detection": {"scan": {**_SCAN_BLOCK, "measure": "purity"}}}, None,
        "'detection.scan.measure'",
    ),
    "state on a scan config": ("state", "scan", None, None, "'detection.direction'"),
    "scan on a direction config": ("scan", "state", None, None, "'detection.scan'"),
    "species root": ("state", "state", None, lambda s: [s], "atom spec {species}"),
    "negative doubled_I": (
        "state", "state", None, lambda s: {**s, "doubled_I": -3}, "atom spec {species}"
    ),
    "lowest splitting not zero": (
        "state", "state", None, lambda s: {**s, "ground_splittings_hz": {"2": 1.0, "4": 1.772e9}},
        "atom spec {species}",
    ),
    "negative splitting": (
        "state", "state", None, lambda s: {**s, "ground_splittings_hz": {"2": 0.0, "4": -1.772e9}},
        "atom spec {species}",
    ),
    "species mass missing": (
        "state", "state", None, lambda s: {k: v for k, v in s.items() if k != "mass_kg"},
        "missing required key 'mass_kg'",
    ),
}


@pytest.mark.parametrize("case", _MALFORMED_INPUTS)
def test_malformed_input_exits_2_naming_it_and_writes_nothing(case, tmp_path, capsys):
    command, shipped, edit_config_doc, edit_species, named = _MALFORMED_INPUTS[case]
    config, species = tmp_path / "config.json", tmp_path / "species.json"
    doc = json.loads((DATA / f"sodium_{shipped}.json").read_text())
    doc["atom_spec_path"] = "species.json"
    config.write_text(json.dumps(edit_config_doc(doc) if edit_config_doc else doc))
    spec = json.loads((DATA / "sodium.json").read_text())
    species.write_text(json.dumps(edit_species(spec) if edit_species else spec))
    argv = [command, "--config", str(config), "--output", str(tmp_path / "out")]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == "", err
    assert named.format(config=config, species=species, tmp=tmp_path) in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


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


@pytest.mark.parametrize("value", ["x" * 300, "builtin:" + "x" * 300])
def test_atom_spec_path_too_long_to_stat_exits_2(value, state_config, tmp_path, capsys):
    # the name is longer than a file name may be: stat fails with ENAMETOOLONG,
    # and the message shows the path as a refused value, cut to its head
    edit_config(state_config, lambda c: c.__setitem__("atom_spec_path", value))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["state", "--config", str(state_config), "--output", str(tmp_path / "s.json")]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    name = value.removeprefix("builtin:")
    path = DATA / f"{name}.json" if name != value else state_config.parent / value
    shown = bounded_repr(str(path))
    assert shown.endswith(" characters)")
    assert err == (
        f"configuration error: 'atom_spec_path' {shown}: {os.strerror(errno.ENAMETOOLONG)}\n"
    )
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_LONG = 1_000_000
# an input text that a refusal once echoed whole, by the config edit that puts
# it there, and the key that the message names
_ECHOED_INPUTS = {
    "unknown key": (lambda c: c.__setitem__("k" * _LONG, 1), "unknown key 'kkk"),
    "unknown key in a block": (
        lambda c: c["pump"].__setitem__("k" * _LONG, 1), "unknown key 'pump.kkk"
    ),
    "builtin species": (
        lambda c: c.__setitem__("atom_spec_path", "builtin:" + "x" * _LONG), "'atom_spec_path' '"
    ),
    "builtin species with a slash": (
        lambda c: c.__setitem__("atom_spec_path", "builtin:/" + "x" * _LONG),
        "'atom_spec_path' 'builtin:/xxx",
    ),
    "species path of two lines": (
        lambda c: c.__setitem__("atom_spec_path", "a\nb"), "'atom_spec_path' names no file: '"
    ),
    "condensate key of more digits than int reads": (
        lambda c: c["condensate"]["amplitudes"].__setitem__("2:" + "0" * 100_000 + "9", 1.0),
        "'condensate.amplitudes.2:000",
    ),
    # 4,000 digits: under int's limit of 4,300, so read as the integer 9 or 0
    "condensate key of no sublevel": (
        lambda c: c["condensate"]["amplitudes"].__setitem__("2:" + "0" * 4_000 + "9", 1.0),
        "'condensate.amplitudes.2:000",
    ),
    "condensate key spelled twice": (
        lambda c: c["condensate"]["amplitudes"].__setitem__("2:" + "0" * 4_000, 1.0),
        "'condensate.amplitudes' keys '2:0' and '2:000",
    ),
    "condensate value at a long key": (
        lambda c: c["condensate"]["amplitudes"].__setitem__("2:" + "0" * 4_000 + "2", "1"),
        "'condensate.amplitudes.2:000",
    ),
}


@pytest.mark.parametrize("case", _ECHOED_INPUTS)
def test_refusal_names_its_key_in_one_short_line(case, state_config, capsys):
    # a refusal shows a long or multi-line key or path as a refused value is
    # shown: cut to its head and escaped, so stderr stays one short line
    edit, named = _ECHOED_INPUTS[case]
    edit_config(state_config, edit)
    code, out, err = run(["state", "--config", str(state_config)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: ") and named in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 400


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


def test_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    from raman_pairs import cli

    monkeypatch.setattr("sys.argv", ["raman-pairs", "tables", "--max-doubled-j", "0"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "".join(cli._tables_text(0))


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
    # recorded while the CG and 3-j tables still walked their index set apart;
    # a literal, so re-recording the manifest cannot move it
    code, out, _ = run(["tables", "--max-doubled-j", "6"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7f6f0fa71995f09069af13561a6a013696a556ba6c5d2723a52f883f0cfcf74c"
    )


def test_tables_pinned_bytes_at_the_cap(capsys):
    # the largest table the CLI allows, recorded while every symbol was
    # still summed in fractions.Fraction; a literal, like the one above
    code, out, _ = run(["tables", "--max-doubled-j", "12"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "35b25b901c59564ad91f42671733711112660eef2a568c76315e1e5096dad2d8"
    )


@pytest.mark.parametrize("max_doubled_j", range(13))
def test_tables_pinned_bytes_every_j(max_doubled_j, fixed_parts):
    # stdout of `tables --max-doubled-j J` up to the cap, as the manifest records it
    name = f"tables {max_doubled_j}"
    assert fixed_parts(name) == MANIFEST[name]


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

    def one_chunk_then_fail(moments, settings, n, seed):
        asked.append(n)
        yield 0, np.zeros(bell_sim._CHUNK, dtype=np.int8)
        raise RuntimeError("after the first chunk")

    monkeypatch.setattr(bell_sim, "_sampled", one_chunk_then_fail)
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
