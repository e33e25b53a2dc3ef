"""The per-call front end of the CLI: argv goes straight to the command's
parser with the outcome of ``build_parser().parse_args``, a species file is
parsed once per content while every call still reads and hashes it, and a
species value that the checks refuse exits 2 naming its key."""

import json
import re
import sys
from pathlib import Path

import pytest

import raman_pairs
from raman_pairs import cli, config
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.atomic_model import sodium
from raman_pairs.config import RunConfig
from raman_pairs.errors import InputDomainError

DATA = Path(raman_pairs.__file__).parent / "data"
STATE = str(DATA / "sodium_state.json")
CHSH = str(DATA / "sodium_chsh.json")

# --- argv ----------------------------------------------------------------------

ARGVS = {
    "no argv": [],
    "help": ["-h"],
    "version": ["--version"],
    "help before a command": ["-h", "state"],
    "unknown command": ["frobnicate", "--config", STATE],
    "command as an option": ["--state"],
    "option before the command": ["--config", STATE, "state"],
    "separator before the command": ["--", "state", "--config", STATE],
    "state": ["state", "--config", STATE],
    "state csv": ["state", "--config", STATE, "--format", "csv"],
    "state help": ["state", "-h"],
    "state help after options": ["state", "--config", STATE, "--help"],
    "missing --config": ["state"],
    "missing --config value": ["state", "--config"],
    "unknown option": ["state", "--config", STATE, "--bogus"],
    "unknown option with a value": ["state", "--config", STATE, "--bogus=1", "x"],
    "extra positional": ["state", "--config", STATE, "extra"],
    "two extra positionals": ["state", "extra", "--config", STATE, "more"],
    "version after the command": ["state", "--config", STATE, "--version"],
    "bad format": ["state", "--config", STATE, "--format", "xml"],
    "equals syntax": ["state", f"--config={STATE}"],
    "abbreviation": ["state", "--conf", STATE],
    "ambiguous abbreviation": ["filter", "--config", STATE, "--f", "1"],
    "repeated option": ["filter", "--config", STATE, "--f-select", "1", "--f-select", "2"],
    "separator after the options": ["state", "--config", STATE, "--"],
    "separator before the options": ["state", "--", "--config", STATE],
    "separator and a positional": ["state", "--config", STATE, "--", "extra"],
    "tables not an integer": ["tables", "--max-doubled-j", "x"],
    "tables": ["tables", "--max-doubled-j", "1"],
    "tables out of range": ["tables", "--max-doubled-j", "-1"],
    "scan without --output": ["scan", "--config", STATE],
    "chsh no format": ["chsh", "--config", CHSH, "--format", "json"],
    "chsh sampled": ["chsh", "--config", CHSH, "--samples", "20", "--seed", "3"],
    "chsh samples not an integer": ["chsh", "--config", CHSH, "--samples", "1e3"],
}


def _outcome(call, argv, capsys):
    """What ``call(argv)`` returns or exits with, and its stdout and stderr."""
    try:
        result = call(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    if hasattr(result, "command"):  # a namespace
        result = vars(result)
    return result, captured.out, captured.err


def _reference(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("case", ARGVS)
def test_argv_parses_as_the_top_level_parser_parses_it(case, capsys):
    argv = ARGVS[case]
    assert _outcome(cli._parse, argv, capsys) == _outcome(_reference, argv, capsys)


@pytest.mark.parametrize("case", ARGVS)
def test_main_runs_argv_as_through_the_top_level_parser(case, monkeypatch, capsys):
    argv = ARGVS[case]
    outcome = _outcome(cli.main, argv, capsys)
    monkeypatch.setattr(cli, "_parse", _reference)
    assert outcome == _outcome(cli.main, argv, capsys)


@pytest.mark.parametrize("case", ["no argv", "state help", "extra positional", "state"])
def test_main_reads_sys_argv_without_an_argv(case, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["raman-pairs", *ARGVS[case]])
    assert _outcome(lambda _: cli.main(), None, capsys) == _outcome(cli.main, ARGVS[case], capsys)


def test_command_parsers_are_the_subparsers_of_the_top_level_parser():
    parser, commands = cli._parsers()
    assert parser is cli.build_parser()
    assert sorted(commands) == ["chsh", "filter", "scan", "state", "tables"]
    for name, command in commands.items():
        assert command.prog == f"raman-pairs {name}"


# --- one species parse per content -----------------------------------------------


def _species_setup(tmp_path: Path) -> tuple[Path, Path, dict]:
    species = json.loads((DATA / "sodium.json").read_text())
    doc = json.loads((DATA / "sodium_state.json").read_text())
    doc["atom_spec_path"] = "species.json"
    (tmp_path / "config.json").write_text(json.dumps(doc))
    (tmp_path / "species.json").write_text(json.dumps(species))
    return tmp_path / "config.json", tmp_path / "species.json", species


def _state_doc(config_path: Path, capsys) -> dict:
    code = cli.main(["state", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_an_edit_to_the_species_file_shows_on_the_next_call(tmp_path, capsys):
    config_path, species_path, species = _species_setup(tmp_path)
    before = _state_doc(config_path, capsys)
    species["ground_splittings_hz"]["4"] *= 2.0
    species_path.write_text(json.dumps(species))
    after = _state_doc(config_path, capsys)
    sha = [doc["provenance"]["atom_spec_sha256"] for doc in (before, after)]
    assert sha[0] != sha[1]
    assert [RunConfig(config_path).atom_sha256] == sha[1:]
    for old, new in zip(before["channels"], after["channels"]):  # the F=2 channels move
        assert (old["omega_hz"] != new["omega_hz"]) == (old["doubled_f"] == 4)
    species["ground_splittings_hz"]["4"] /= 2.0
    species_path.write_text(json.dumps(species))
    assert _state_doc(config_path, capsys) == before


def test_a_malformed_species_file_fails_on_every_call(tmp_path, capsys):
    config_path, species_path, species = _species_setup(tmp_path)
    _state_doc(config_path, capsys)
    species_path.write_text(json.dumps({**species, "mass_kg": 0.0}))
    for _ in range(2):
        code = cli.main(["state", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "'mass_kg' must be positive" in captured.err
    species_path.write_text(json.dumps(species))
    _state_doc(config_path, capsys)


def test_the_species_cache_is_bounded_and_holds_no_bytes(tmp_path):
    config_path, species_path, species = _species_setup(tmp_path)
    specs = set()
    for i in range(3 * config._SPECIES_MAX):
        species_path.write_text(json.dumps({**species, "notes": f"copy {i}"}))
        specs.add(RunConfig(config_path).spec)
        assert 0 < len(config._SPECIES) <= config._SPECIES_MAX
    assert specs == {sodium()}  # the notes are no part of the species
    for (sha256, path), spec in config._SPECIES.items():
        assert isinstance(sha256, str) and isinstance(path, Path) and spec == sodium()


def test_one_content_at_two_paths_parses_at_each(tmp_path):
    config_path, species_path, _ = _species_setup(tmp_path)
    first = RunConfig(config_path)
    (tmp_path / "twin.json").write_bytes(species_path.read_bytes())
    config_path.write_text(config_path.read_text().replace("species.json", "twin.json"))
    second = RunConfig(config_path)
    assert first.atom_sha256 == second.atom_sha256 and first.spec == second.spec
    assert second.atom_path == tmp_path / "twin.json"
    assert (first.atom_sha256, second.atom_path) in config._SPECIES


# --- species values named by key -------------------------------------------------

_SPECIES_VALUES = {
    "negative doubled_I": ({"doubled_I": -3}, "'doubled_I' must be non-negative, got -3"),
    "negative doubled_ground_J": (
        {"doubled_ground_J": -1}, "'doubled_ground_J' must be non-negative, got -1"
    ),
    "negative doubled_excited_J": (
        {"doubled_excited_J": -3}, "'doubled_excited_J' must be non-negative, got -3"
    ),
    "negative mass": ({"mass_kg": -1}, "'mass_kg' must be positive, got -1"),
    "zero linewidth": ({"linewidth_hz": 0}, "'linewidth_hz' must be positive, got 0"),
    "zero resonance": ({"resonance_hz": 0.0}, "'resonance_hz' must be positive, got 0.0"),
    "zero reduced dipole": ({"reduced_dipole": 0}, "'reduced_dipole' must be nonzero, got 0"),
    "negative splitting": (
        {"ground_splittings_hz": {"2": 0.0, "4": -1.772e9}},
        "'ground_splittings_hz.4' must be non-negative, got -1772000000.0",
    ),
    "lowest splitting not zero": (
        {"ground_splittings_hz": {"2": 1.0, "4": 1.772e9}},
        "'ground_splittings_hz.2' must be 0",
    ),
    "equal splittings": (
        {"ground_splittings_hz": {"2": 0.0, "4": 0.0}},
        "'ground_splittings_hz' keys '2' and '4' give one splitting",
    ),
    "missing level": (
        {"ground_splittings_hz": {"2": 0.0}}, "'ground_splittings_hz' must have one key per"
    ),
    "extra level": (
        {"ground_splittings_hz": {"2": 0.0, "4": 1.0, "6": 2.0}},
        "'ground_splittings_hz' must have one key per ground level, 2F' = [2, 4]",
    ),
    "J parity": (
        {"doubled_ground_J": 1, "doubled_excited_J": 2},
        "'doubled_ground_J' and 'doubled_excited_J' must have one parity",
    ),
}


@pytest.mark.parametrize("case", _SPECIES_VALUES)
def test_species_value_error_exits_2_naming_its_key(case, tmp_path, capsys):
    change, named = _SPECIES_VALUES[case]
    config_path, species_path, species = _species_setup(tmp_path)
    species_path.write_text(json.dumps({**species, **change}))
    out_path = tmp_path / "out.json"
    code = cli.main(["state", "--config", str(config_path), "--output", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    head = f"configuration error: malformed atom spec {species_path}: {named}"
    assert captured.err.startswith(head) and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"nuclear_spin": HalfInt(-3)}, "nuclear spin must be non-negative"),
        ({"excited_j": HalfInt(-1)}, "excited J must be non-negative"),
        ({"mass": -1.0}, "resonance, linewidth and mass must be positive"),
        ({"linewidth": 0.0}, "resonance, linewidth and mass must be positive"),
        ({"reduced_dipole": 0.0}, "reduced dipole must be finite and nonzero"),
        ({"ground_splittings": ((HalfInt(2), 1.0), (HalfInt(4), 2.0))},
         "lowest ground level must have zero splitting"),
        ({"ground_splittings": ((HalfInt(2), 0.0), (HalfInt(4), -2.0))},
         "ground splittings must be non-negative"),
        ({"ground_splittings": ((HalfInt(2), 0.0),)},
         "ground splittings must cover F' = ['1', '2'] in order, got ['1']"),
        ({"excited_j": HalfInt(2)},
         "ground and excited J must couple to the same F parity (J_g + J_e must be an integer)"),
    ],
)
def test_library_species_errors_keep_their_field_words(change, message):
    with pytest.raises(InputDomainError, match=f"^{re.escape(message)}$"):
        sodium().replace(**change)
