"""Sphere scans: grid structure, flags, argmax, round trips, determinism."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_condensate, random_pump
from raman_pairs import geometry_explorer
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.atomic_model import AtomSpec, spherical_component
from raman_pairs.entanglement_analysis import (
    concurrence_after_filter,
    conditional_overlap,
    entanglement_entropy,
)
from raman_pairs.errors import (
    EmptyScanError,
    EmptyStateError,
    InputDomainError,
    UndefinedOverlapError,
)
from raman_pairs.geometry_explorer import (
    ScanMap,
    argmax_direction,
    scan_sphere,
    scan_to_csv_text,
    scan_to_json_doc,
    write_scan,
)
from raman_pairs.pair_state import CondensateSpinor, PumpConfig, build_pair_state

COARSE = math.pi / 6.0
TWO_PI = 2.0 * math.pi
COLUMNS = ("thetas", "phis", "directions", "measures", "channel_weights", "omega")


def test_resolution_bounds(spec, pump, phi0):
    with pytest.raises(InputDomainError):
        scan_sphere(spec, pump, phi0, math.pi / 4.0, "entropy")
    with pytest.raises(InputDomainError):
        scan_sphere(spec, pump, phi0, math.pi / 5000.0, "entropy")


def test_unknown_measure_rejected(spec, pump, phi0):
    with pytest.raises(InputDomainError):
        scan_sphere(spec, pump, phi0, COARSE, "negativity")


def test_filter_level_required_and_validated(spec, pump, phi0):
    with pytest.raises(InputDomainError):
        scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter")
    with pytest.raises(InputDomainError):
        scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=7)


def test_coarse_scan_smoke(spec, pump, phi0):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    assert len(scan.measures) == 7 * 12
    thetas = sorted(set(scan.thetas.tolist()))
    assert thetas[0] == 0.0 and thetas[-1] == pytest.approx(math.pi)
    for measure, flagged in zip(scan.measures, scan.flagged):
        if not flagged:
            assert math.isfinite(measure)
            assert -1e-12 <= measure <= 2.0 + 1e-12


def test_grid_is_sorted_and_covers_poles(spec, pump, phi0):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    keys = list(zip(scan.thetas.tolist(), scan.phis.tolist()))
    assert keys == sorted(keys)
    directions = {tuple(np.round(direction, 12)) for direction in scan.directions}
    assert (0.0, 0.0, 1.0) in directions
    assert (0.0, 0.0, -1.0) in directions


def test_grid_directions_equal_the_per_node_formula(spec, pump, phi0):
    # the columns are built per grid line; each node still gets the bits of
    # its own unit vector, normalized as np.linalg.norm does for one vector
    scan = scan_sphere(spec, pump, phi0, math.radians(10.0), "entropy")
    for theta, phi, direction in zip(scan.thetas, scan.phis, scan.directions):
        v = np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )
        np.testing.assert_array_equal(direction, v / np.linalg.norm(v), strict=True)


def test_pole_node_is_bell(spec, pump, phi0):
    scan = scan_sphere(
        spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1
    )
    pole = [m for t, m in zip(scan.thetas, scan.measures) if t == 0.0][0]
    assert pole == pytest.approx(1.0, abs=1e-9)


def test_mirror_symmetry_of_reference_geometry(spec, pump, phi0):
    scan = scan_sphere(
        spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1
    )
    nodes = list(zip(scan.thetas, scan.measures))
    top = [m for t, m in nodes if t == 0.0][0]
    bottom = [m for t, m in nodes if t == pytest.approx(math.pi)][0]
    assert top == pytest.approx(bottom, abs=1e-9)


def test_measures_match_single_direction_ops(spec, pump, phi0):
    # round trip: every reported value reproducible from the node direction
    rng = np.random.default_rng(89)
    for measure, filter_f in (
        ("entropy", None),
        ("concurrence_after_filter", 1),
        ("conditional_overlap", None),
    ):
        scan = scan_sphere(spec, pump, phi0, COARSE, measure, filter_f=filter_f)
        candidates = np.flatnonzero(~scan.flagged)
        picks = rng.choice(len(candidates), size=10, replace=False)
        for idx in picks:
            node = candidates[idx]
            direction = scan.directions[node]
            if measure == "entropy":
                want = entanglement_entropy(
                    build_pair_state(spec, pump, phi0, direction)
                )
            elif measure == "concurrence_after_filter":
                want = concurrence_after_filter(
                    build_pair_state(spec, pump, phi0, direction), filter_f
                )
            else:
                want = conditional_overlap(spec, pump, phi0, direction)
            assert scan.measures[node] == want


ALL_MEASURES = (
    ("entropy", None),
    ("concurrence_after_filter", 1),
    ("concurrence_after_filter", 2),
    ("conditional_overlap", None),
)


def _property_configs(spec, pump):
    """Seeded random geometries plus sigma+ on |2,2>, where nodes get flagged."""
    rng = np.random.default_rng(107)
    configs = [(random_pump(spec, rng), random_condensate(spec, rng)) for _ in range(3)]
    sigma_plus = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    return configs + [(sigma_plus, CondensateSpinor.single(2, 2))]


def test_scan_nodes_equal_single_direction_calls(spec, pump):
    # every node, flagged or not, is exactly what the single-direction calls
    # return for its direction: one kernel, no second implementation
    for rpump, rphi in _property_configs(spec, pump):
        for measure, filter_f in ALL_MEASURES:
            scan = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            for direction, value, flagged, channels in zip(
                scan.directions, scan.measures, scan.flagged, scan.node_channels()
            ):
                try:
                    state = build_pair_state(spec, rpump, rphi, direction)
                except EmptyStateError:
                    assert flagged and channels == ()
                    continue
                assert channels == tuple(
                    (ch.key(), p) for ch, p in state.channel_probabilities()
                )
                try:
                    if measure == "entropy":
                        want = entanglement_entropy(state)
                    elif measure == "concurrence_after_filter":
                        want = concurrence_after_filter(state, filter_f)
                    else:
                        want = conditional_overlap(spec, rpump, rphi, direction)
                except (EmptyStateError, UndefinedOverlapError):
                    assert flagged and math.isnan(value)
                    continue
                assert not flagged
                assert value == want


def test_chunk_size_does_not_change_scan(spec, pump, monkeypatch):
    for rpump, rphi in _property_configs(spec, pump)[-2:]:
        for measure, filter_f in ALL_MEASURES:
            whole = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            monkeypatch.setattr(geometry_explorer, "_CHUNK", 7)
            chunked = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            monkeypatch.undo()
            for column in COLUMNS:
                np.testing.assert_array_equal(  # NaN equals NaN here
                    getattr(chunked, column), getattr(whole, column), strict=True
                )
            assert (chunked.resolution, chunked.measure_name, chunked.metadata) == (
                whole.resolution,
                whole.measure_name,
                whole.metadata,
            )


def test_scan_columns_read_only(spec, pump, phi0):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    for column in COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(scan, column)[0] = 0.0


def test_scan_retains_only_its_columns(spec, pump, phi0):
    # 2 deg grid, sodium: angles, direction, measure, 4 channel weights and
    # 2 frequencies are 12 doubles (96 bytes) a node; node objects took ~970
    resolution = math.radians(2.0)
    scan_sphere(spec, pump, phi0, resolution, "entropy")  # fill the caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scan = scan_sphere(spec, pump, phi0, resolution, "entropy")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(scan.measures) == 16380
    assert retained / len(scan.measures) <= 150


def test_argmax_value_is_a_python_float(spec, pump, phi0):
    # the CLI prints repr(value), which for np.float64 would read differently
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    direction, value = argmax_direction(scan)
    assert type(value) is float
    direction[0] = 2.0  # a copy, not a view of the read-only column


def test_unresolved_filter_channel_warns(spec, pump, phi0, monkeypatch):
    # as spectral_filter does for one state: a 10 GHz resolution cannot
    # separate the 1.77 GHz-split sodium channels
    monkeypatch.setattr(geometry_explorer, "DEFAULT_CHANNEL_RESOLUTION", TWO_PI * 10.0e9)
    with pytest.warns(UserWarning, match="not spectrally resolvable"):
        scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1)


def test_flagged_nodes_for_undefined_overlap(spec, pump):
    # sigma+ pump on |2,2>: on the detection axis one branch dies, so the
    # conditional overlap is undefined there and those nodes carry the NaN
    # sentinel instead of a zero
    phi0 = CondensateSpinor.single(2, 2)
    pump_sigma = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    scan = scan_sphere(spec, pump_sigma, phi0, COARSE, "conditional_overlap")
    flagged = scan.flagged
    assert flagged.any() and not flagged.all()
    assert np.isnan(scan.measures[flagged]).all()
    # poles are the degenerate directions here
    assert set(scan.thetas[flagged].tolist()) == {0.0, math.pi}


def test_empty_state_nodes_flagged(spec, pump):
    # species whose stretched state cannot absorb sigma+ light at all:
    # every node is flagged and argmax raises
    inverted = AtomSpec(
        name="inverted-test",
        nuclear_spin=HalfInt(0),
        ground_j=HalfInt(3),
        excited_j=HalfInt(1),
        ground_splittings=((HalfInt(3), 0.0),),
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=spec.mass,
    )
    pump_sigma = PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )
    phi0 = CondensateSpinor.single("3/2", "3/2")
    scan = scan_sphere(inverted, pump_sigma, phi0, COARSE, "entropy")
    assert scan.flagged.all()
    with pytest.raises(EmptyScanError):
        argmax_direction(scan)


def _columns_map(thetas, phis, directions, measures) -> ScanMap:
    """A hand-made map without photon channels."""
    n = len(measures)
    return ScanMap(
        thetas=thetas,
        phis=phis,
        directions=directions,
        measures=measures,
        channel_weights=np.zeros((n, 0)),
        omega=np.zeros((n, 0)),
        resolution=1.0,
        measure_name="entropy",
    )


def test_argmax_tie_break_constant_map():
    scan = _columns_map(
        [0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0], [[0.0, 0.0, 1.0]] * 4, [0.5] * 4
    )
    direction, value = argmax_direction(scan)
    assert value == 0.5
    assert scan.thetas[0] == 0.0 and scan.phis[0] == 0.0


def test_argmax_tie_goes_to_the_first_node():
    scan = _columns_map(
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0],
        [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [0.25, 0.5, 0.5],
    )
    direction, value = argmax_direction(scan)
    assert value == 0.5
    np.testing.assert_array_equal(direction, [1.0, 0.0, 0.0])


def test_argmax_single_unflagged_node():
    scan = _columns_map(
        [0.0, 1.0], [0.0, 0.0], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [math.nan, 0.25]
    )
    direction, value = argmax_direction(scan)
    assert value == 0.25
    np.testing.assert_array_equal(direction, [1.0, 0.0, 0.0])


def test_csv_layout_and_flags(spec, pump, phi0):
    scan = scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1)
    text = scan_to_csv_text(scan)
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    assert header == ["theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag"]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == len(scan.measures)
    for row, theta, flagged in zip(rows, scan.thetas, scan.flagged):
        assert float(row[0]) == theta
        assert row[6] == ("1" if flagged else "0")


def test_scan_serialization_deterministic(spec, pump, phi0, tmp_path):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    a = scan_to_csv_text(scan)
    b = scan_to_csv_text(scan)
    assert a == b
    doc = json.dumps(scan_to_json_doc(scan), sort_keys=True)
    doc2 = json.dumps(scan_to_json_doc(scan), sort_keys=True)
    assert doc == doc2
    csv_path, json_path = write_scan(scan, tmp_path / "out")
    assert csv_path.exists() and json_path.exists()
    parsed = json.loads(json_path.read_text())
    assert parsed["format"] == "raman-pairs/scan-map/1"
    assert len(parsed["nodes"]) == len(scan.measures)
