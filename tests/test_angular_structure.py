"""The species' angular structure has one owner: ``atomic_model`` lays out the
sublevels of every level tuple once, keys the dipole tensor on (2I, 2J_g,
2J_e) at unit reduced dipole, bounds the three momenta, and the reduced
dipole D enters the published numbers only as the D^4 of the emission weight,
whose overflow and underflow exit 3 naming the inputs that set it."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import raman_pairs
from raman_pairs import cli
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.atomic_model import (
    MAX_DOUBLED_MOMENTUM,
    _ground_layout,
    _sublevels,
    sodium,
    spherical_component,
)
from raman_pairs.errors import InputDomainError
from raman_pairs.pair_state import CondensateSpinor, _intensity_frexp, pair_batch

DATA = Path(raman_pairs.__file__).parent / "data"
FACTORS = "|pump.amplitude|^2 times pump.atom_number times the species' reduced_dipole^4"


def _setup(tmp_path, species_change=None, config_change=None, shipped="state"):
    """A copy of a shipped config reading a copy of the sodium species, each edited."""
    species = {**json.loads((DATA / "sodium.json").read_text()), **(species_change or {})}
    (tmp_path / "species.json").write_text(json.dumps(species))
    doc = json.loads((DATA / f"sodium_{shipped}.json").read_text())
    doc["atom_spec_path"] = "species.json"
    if config_change:
        config_change(doc)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    return config


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- one layout ------------------------------------------------------------------


def test_the_ground_layout_is_the_sublevels_of_the_ground_levels():
    spec = sodium()
    layout = _ground_layout(spec)
    assert layout is _sublevels((2, 4)) and layout.levels == (2, 4)
    assert layout.atoms == ((2, -2), (2, 0), (2, 2), (4, -4), (4, -2), (4, 0), (4, 2), (4, 4))
    assert layout.level.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    phi0 = CondensateSpinor.from_dict({(4, -2): 0.6, (2, 2): 0.8j})
    assert phi0.vector(spec).tolist() == [0, 0, 0.8j, 0, 0.6, 0, 0, 0]


# --- the reduced dipole ------------------------------------------------------------


def test_the_reduced_dipole_enters_the_weights_alone_as_its_fourth_power(spec, pump, phi0):
    directions = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
    one = pair_batch(spec, pump, phi0, directions)
    two = pair_batch(spec.replace(reduced_dipole=-2.0), pump, phi0, directions)
    for name in ("amplitudes", "norms", "phases", "omega"):
        assert getattr(two, name).tobytes() == getattr(one, name).tobytes(), name
    assert two.weights.tobytes() == (16.0 * one.weights).tobytes()  # 16 = 2^4, exact
    assert (one.weights > 0.0).all()


def test_an_empty_direction_weighs_zero_whatever_the_reduced_dipole(spec, pump):
    # a sigma+ pump on the stretched J = 3/2 state of a species with I = 0 and
    # excited J = 1/2 drives nothing: D^4 overflows, and the weights stay 0
    inverted = spec.replace(
        nuclear_spin=HalfInt(0), ground_j=HalfInt(3), excited_j=HalfInt(1),
        ground_splittings=((HalfInt(3), 0.0),), reduced_dipole=1e100,
    )
    sigma = pump.replace(direction=np.array([0.0, 0.0, 1.0]), polarization=spherical_component(1))
    batch = pair_batch(inverted, sigma, CondensateSpinor.single("3/2", "3/2"), np.eye(3))
    assert batch.norms.tolist() == batch.weights.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("dipole", [1e100, 1e160, 1.7])
@pytest.mark.parametrize(
    "argv",
    [["state", "--format", "csv"], ["chsh"], ["scan"]],
    ids=["state csv", "chsh", "scan"],
)
def test_outputs_without_the_weight_are_those_at_unit_dipole(argv, dipole, tmp_path, capsys):
    shipped = {"state": "state", "chsh": "chsh", "scan": "scan"}[argv[0]]
    texts = []
    for d in (1.0, dipole):
        run_dir = tmp_path / repr(d)
        run_dir.mkdir()
        config = _setup(run_dir, {"reduced_dipole": d}, shipped=shipped)
        out = ["--output", str(run_dir / "out")]
        code, stdout, err = _run([*argv[:1], "--config", str(config), *argv[1:], *out], capsys)
        assert code == 0 and err == ""
        files = sorted(p for p in run_dir.iterdir() if p.name.startswith("out"))
        text = stdout.replace(str(run_dir), "<dir>") + "".join(p.read_text() for p in files)
        texts.append(re.sub(r"(config|atom_spec)_sha256(=|\": \")[0-9a-f]+", "", text))
    assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["state", "filter"])
def test_a_weight_that_overflows_exits_3_naming_its_factors(command, tmp_path, capsys):
    def huge(doc):  # a weight of about 5.6e317
        doc["pump"]["atom_number"] = 1e300
        doc["pump"]["amplitude"] = [1e20, 0.0]

    for species_change, config_change in (({}, huge), ({"reduced_dipole": 1e100}, None)):
        config = _setup(tmp_path, species_change, config_change)
        argv = [command, "--config", str(config), "--output", str(tmp_path / "out.json")]
        code, out, err = _run(argv + (["--f-select", "1"] if command == "filter" else []), capsys)
        assert (code, out) == (3, "")
        assert err == (
            "physics error: the emission weight into this direction overflows to a non-finite "
            f"number: {FACTORS} is too large\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


@pytest.mark.parametrize("command", ["state", "filter", "chsh"])
def test_a_weight_that_underflows_exits_3_naming_its_factors(command, tmp_path, capsys):
    def faint(doc):
        doc["pump"]["amplitude"] = [1e-160, 0.0]

    def mixed(doc):  # N |a|^2 overflows, D^4 = 1e-800 underflows: a weight of about 5.6e-503
        doc["pump"]["atom_number"] = 1e300
        doc["pump"]["amplitude"] = [1e10, 0.0]

    for species_change, config_change in (
        ({"reduced_dipole": 1e-100}, None), ({}, faint), ({"reduced_dipole": 1e-200}, mixed)
    ):
        config = _setup(tmp_path, species_change, config_change)
        argv = [command, "--config", str(config), "--output", str(tmp_path / "out.json")]
        code, out, err = _run(argv + (["--f-select", "1"] if command == "filter" else []), capsys)
        assert (code, out) == (3, "")
        assert err == (
            "physics error: the emission weight into this direction underflows to zero: "
            f"{FACTORS} is too small\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


def _state_weight(tmp_path, atom_number, amplitude, dipole, capsys):
    """The emission weight that ``state`` publishes for a pump amplitude."""
    def pump(doc):
        doc["pump"].update(atom_number=atom_number, amplitude=[amplitude.real, amplitude.imag])

    config = _setup(tmp_path, {"reduced_dipole": dipole}, pump)
    code, out, err = _run(["state", "--config", str(config)], capsys)
    assert (code, err) == (0, "")
    return json.loads(out)["emission_weight"]


@pytest.mark.parametrize(
    "atom_number, amplitude, dipole, factors",
    [(1e300, 1e10, 1e-100, (1e300, 1e20, 1e-200, 1e-200)), (1e308, 1e10, 1.0, (1e308, 1e20)),
     (1e300, 1e-200, 1.0, (1e300, 1e-200, 1e-200)), (1e300, -1e-170j, 1.0, (1e300, 1e-170, 1e-170))],
)
def test_a_weight_that_is_a_float_is_published_whatever_its_factors(
    atom_number, amplitude, dipole, factors, tmp_path, capsys
):
    # N |a|^2 = 1e320 or 1e328 overflows on its own, D^4 = 1e-400 or |a|^2 =
    # 1e-400 or 1e-340 underflows, but the weights, about 5.6e-103, 5.6e305,
    # 5.6e-123 and 5.6e-63, are floats
    expected = _state_weight(tmp_path, 1.0, 1.0, 1.0, capsys)
    for factor in factors:
        expected *= factor
    weight = _state_weight(tmp_path, atom_number, amplitude, dipole, capsys)
    assert weight == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "amplitude, normal",
    [(1 + 0j, True), (0.3 - 0.4j, True), (1e154 + 1e154j, False), (1e200 - 3e199j, False),
     (1e-160 + 0j, False), (3e-170 - 4e-170j, False)],
)
def test_the_pump_intensity_has_its_bits_where_normal_and_is_exact_beyond(amplitude, normal):
    mantissa, exponent = _intensity_frexp(amplitude)
    exact = Fraction(amplitude.real) ** 2 + Fraction(amplitude.imag) ** 2
    assert abs(Fraction(mantissa) * Fraction(2) ** exponent / exact - 1) < 1e-15
    if normal:
        assert (mantissa, exponent) == math.frexp(abs(amplitude) ** 2)


# --- the bound on the momenta ----------------------------------------------------


@pytest.mark.parametrize(
    "key, value",
    [("doubled_I", 401), ("doubled_I", 13), ("doubled_ground_J", 13), ("doubled_excited_J", 15)],
)
def test_a_momentum_above_the_bound_exits_2_naming_its_key(key, value, tmp_path, capsys):
    config = _setup(tmp_path, {key: value})
    argv = ["state", "--config", str(config), "--output", str(tmp_path / "out.json")]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    species = tmp_path / "species.json"
    assert err == (
        f"configuration error: malformed atom spec {species}: "
        f"'{key}' must be at most {MAX_DOUBLED_MOMENTUM}, got {value}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "species.json"]


@pytest.mark.parametrize(
    "field, label",
    [("nuclear_spin", "nuclear spin"), ("ground_j", "ground J"), ("excited_j", "excited J")],
)
def test_the_constructor_bounds_each_momentum_in_field_words(field, label):
    with pytest.raises(InputDomainError, match=f"^{label} must be at most 6, got 401/2$"):
        sodium().replace(**{field: HalfInt(401)})


def test_a_species_at_the_bound_runs(tmp_path, capsys):
    # 2I = 12 with J_g = 1/2: ground levels 2F = 11 and 13
    species = {"doubled_I": 12, "ground_splittings_hz": {"11": 0.0, "13": 1.772e9}}
    assert MAX_DOUBLED_MOMENTUM == 12
    condensate = {"amplitudes": {"11:1": [1.0, 0.0]}}
    config = _setup(tmp_path, species, lambda doc: doc.update(condensate=condensate))
    code, out, err = _run(["state", "--config", str(config), "--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = out.split("omega_hz,lambda,doubled_F,doubled_m,amp_re,amp_im\n")[1].splitlines()
    assert rows and all(row.split(",")[2] in ("11", "13") for row in rows)
