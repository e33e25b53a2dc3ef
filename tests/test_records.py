"""The records' semantics: value records are equal, hashed and ordered by value
and so share cache entries; identity records, which hold arrays, are equal
only to themselves; and ``replace`` goes through the constructor and its
checks."""

import math

import numpy as np
import pytest

from raman_pairs.angular_momentum import HalfInt, halfint
from raman_pairs.atomic_model import AtomSpec, _dipole_tensor, sodium
from raman_pairs.entanglement_analysis import schmidt
from raman_pairs.geometry_explorer import ScanMap, scan_sphere
from raman_pairs.pair_state import (
    Channel,
    CondensateSpinor,
    PairState,
    PumpConfig,
    pair_batch,
)


@pytest.fixture(scope="module")
def scan(spec, pump, phi0):
    return scan_sphere(spec, pump, phi0, math.pi / 6.0, "entropy")


def assert_same_error(replaced, constructed, match: str) -> None:
    """``replaced()`` and ``constructed()`` raise one error type with one message."""
    errors = []
    for build in (replaced, constructed):
        with pytest.raises(Exception, match=match) as info:
            build()
        errors.append((info.type, str(info.value)))
    assert errors[0] == errors[1]


# --- replace ------------------------------------------------------------------


def spec_fields(spec: AtomSpec) -> dict:
    return dict(
        name=spec.name, nuclear_spin=spec.nuclear_spin, ground_j=spec.ground_j,
        excited_j=spec.excited_j, ground_splittings=spec.ground_splittings,
        resonance=spec.resonance, linewidth=spec.linewidth, mass=spec.mass,
        reduced_dipole=spec.reduced_dipole,
    )


@pytest.mark.parametrize(
    "change, match",
    [
        ({"mass": 0.0}, "mass must be positive"),
        ({"ground_splittings": ((HalfInt(2), 0.0), (HalfInt(4), 0.0))}, "distinct splittings"),
    ],
)
def test_atom_spec_replace_runs_the_constructor_checks(spec, change, match):
    assert_same_error(
        lambda: spec.replace(**change), lambda: AtomSpec(**{**spec_fields(spec), **change}), match
    )
    light = spec.replace(name="light", mass=1.0e-33)
    assert (light.name, light.mass) == ("light", 1.0e-33)
    assert spec_fields(light) == {**spec_fields(spec), "name": "light", "mass": 1.0e-33}


@pytest.mark.parametrize(
    "change, match",
    [
        ({"omega_laser": -1.0}, "pump frequency must be positive"),
        ({"direction": np.array([0.0, 2.0, 0.0])}, "direction must be a unit vector"),
    ],
)
def test_pump_replace_runs_the_constructor_checks(pump, change, match):
    fields = dict(
        direction=pump.direction, polarization=pump.polarization, omega_laser=pump.omega_laser,
        pump_amplitude=pump.pump_amplitude, atom_number=pump.atom_number,
    )
    assert_same_error(
        lambda: pump.replace(**change), lambda: PumpConfig(**{**fields, **change}), match
    )


@pytest.mark.parametrize(
    "change, match",
    [
        ({"levels": (4, 2)}, "levels must be distinct"),
        ({"emission_weight": -1.0}, "emission weight"),
    ],
)
def test_pair_state_replace_runs_the_constructor_checks(state_z, change, match):
    fields = dict(
        amplitudes=state_z.amplitudes, levels=state_z.levels, omega=state_z.omega,
        recoil_momentum=state_z.recoil_momentum, photon_wavevector=state_z.photon_wavevector,
        emission_weight=state_z.emission_weight,
        detection_direction=state_z.detection_direction, pump=state_z.pump,
        unresolved_channel_pairs=state_z.unresolved_channel_pairs,
    )
    assert_same_error(
        lambda: state_z.replace(**change), lambda: PairState(**{**fields, **change}), match
    )


def test_pair_state_replace_computes_its_views_anew(state_z):
    weights = state_z.grams.weights[0]  # cached on the original
    swapped = state_z.replace(amplitudes=state_z.amplitudes[::-1])
    np.testing.assert_array_equal(swapped.grams.weights[0], weights[::-1])
    assert not swapped.amplitudes.flags.writeable


def test_scan_map_replace_runs_the_constructor(scan):
    fields = dict(
        thetas=scan.thetas, phis=scan.phis, directions=scan.directions, measures=scan.measures,
        flag_reasons=scan.flag_reasons, channel_weights=scan.channel_weights, omega=scan.omega,
        levels=scan.levels, resolution=scan.resolution, measure_name=scan.measure_name,
        metadata=scan.metadata,
    )
    change = {"thetas": ["x"] * len(scan.thetas)}
    assert_same_error(
        lambda: scan.replace(**change), lambda: ScanMap(**{**fields, **change}), "float"
    )
    tagged = scan.replace(metadata={"seed": 7})
    assert tagged.metadata == {"seed": 7} and scan.metadata == {}
    assert tagged.thetas is scan.thetas and not tagged.thetas.flags.writeable


def test_replace_refuses_an_unknown_field(spec, pump, state_z, scan):
    for record in (spec, pump, state_z, scan):
        with pytest.raises(TypeError):
            record.replace(colour="blue")


# --- value records and the caches keyed on them ------------------------------


def test_two_parses_of_the_species_share_the_dipole_tensor():
    first, second = sodium(), sodium()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert _dipole_tensor(first) is _dipole_tensor(second)


def test_equal_condensates_hash_equal():
    single, spelled = CondensateSpinor.single(1, 0), CondensateSpinor.from_dict({(2, 0): 1.0})
    assert single is not spelled
    assert single == spelled and hash(single) == hash(spelled)


def test_pumps_with_equal_fields_are_distinct(pump):
    twin = pump.replace()
    assert pump == pump and twin != pump and len({pump, twin}) == 2


def test_halfint_sorts_and_compares_by_value():
    values = [HalfInt(t) for t in (3, -1, 4, 0, -5, 2)]
    assert sorted(values) == [HalfInt(t) for t in (-5, -1, 0, 2, 3, 4)]
    assert max(values) == HalfInt(4) and min(values) == HalfInt(-5)
    assert HalfInt(1) < HalfInt(2) <= HalfInt(2) < HalfInt(3) and HalfInt(3) >= HalfInt(3)
    assert HalfInt(2) == halfint(1) and hash(HalfInt(2)) == hash(halfint("1"))
    assert HalfInt(2) != 2 and HalfInt(2) != HalfInt(4)
    assert repr(HalfInt(3)) == "HalfInt(3)" and HalfInt(twice=3).twice == 3


def test_channels_sort_by_frequency_then_polarization_then_level():
    channels = [
        Channel(2.0, 2, 4), Channel(1.0, 2, 2), Channel(2.0, 1, 4), Channel(2.0, 1, 2),
        Channel(1.0, 1, 4),
    ]
    assert sorted(channels) == [
        Channel(1.0, 1, 4), Channel(1.0, 2, 2), Channel(2.0, 1, 2), Channel(2.0, 1, 4),
        Channel(2.0, 2, 4),
    ]
    assert Channel(2.0, 1, 4) == Channel(omega=2.0, lam=1, doubled_f=4)
    assert hash(Channel(2.0, 1, 4)) == hash(Channel(omega=2.0, lam=1, doubled_f=4))
    assert Channel(2.0, 1, 4).key() == f"{2.0 / (2.0 * np.pi)!r}:1"


# --- identity records ---------------------------------------------------------


def test_comparing_pair_states_does_not_raise(state_z):
    twin = state_z.replace()
    assert state_z == state_z and twin != state_z and not twin == state_z
    assert len({state_z, twin}) == 2


def test_array_records_are_equal_only_to_themselves(spec, pump, phi0, state_z, scan):
    batch = pair_batch(spec, pump, phi0, state_z.detection_direction[np.newaxis])
    for record in (pump, state_z, state_z.grams, batch, schmidt(state_z), scan):
        assert not isinstance(record, tuple)
        assert record == record and record != object() and hash(record) == hash(record)
