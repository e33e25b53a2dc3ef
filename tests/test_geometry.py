"""Sphere scans: grid structure, flags, argmax, round trips, determinism."""

import csv
import io
import json
import math

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
    ScanNode,
    argmax_direction,
    scan_sphere,
    scan_to_csv_text,
    scan_to_json_doc,
    write_scan,
)
from raman_pairs.pair_state import CondensateSpinor, PumpConfig, build_pair_state

COARSE = math.pi / 6.0
TWO_PI = 2.0 * math.pi


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
    assert len(scan.nodes) == 7 * 12
    thetas = sorted({node.theta for node in scan.nodes})
    assert thetas[0] == 0.0 and thetas[-1] == pytest.approx(math.pi)
    for node in scan.nodes:
        if not node.flagged:
            assert math.isfinite(node.measure)
            assert -1e-12 <= node.measure <= 2.0 + 1e-12


def test_grid_is_sorted_and_covers_poles(spec, pump, phi0):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    keys = [(node.theta, node.phi) for node in scan.nodes]
    assert keys == sorted(keys)
    directions = {tuple(np.round(node.direction, 12)) for node in scan.nodes}
    assert (0.0, 0.0, 1.0) in directions
    assert (0.0, 0.0, -1.0) in directions


def test_pole_node_is_bell(spec, pump, phi0):
    scan = scan_sphere(
        spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1
    )
    pole = [n for n in scan.nodes if n.theta == 0.0][0]
    assert pole.measure == pytest.approx(1.0, abs=1e-9)


def test_mirror_symmetry_of_reference_geometry(spec, pump, phi0):
    scan = scan_sphere(
        spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1
    )
    top = [n for n in scan.nodes if n.theta == 0.0][0]
    bottom = [n for n in scan.nodes if n.theta == pytest.approx(math.pi)][0]
    assert top.measure == pytest.approx(bottom.measure, abs=1e-9)


def test_measures_match_single_direction_ops(spec, pump, phi0):
    # round trip: every reported value reproducible from the node direction
    rng = np.random.default_rng(89)
    for measure, filter_f in (
        ("entropy", None),
        ("concurrence_after_filter", 1),
        ("conditional_overlap", None),
    ):
        scan = scan_sphere(spec, pump, phi0, COARSE, measure, filter_f=filter_f)
        candidates = [n for n in scan.nodes if not n.flagged]
        picks = rng.choice(len(candidates), size=10, replace=False)
        for idx in picks:
            node = candidates[idx]
            direction = np.array(node.direction)
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
            assert node.measure == want


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
            for node in scan.nodes:
                direction = np.array(node.direction)
                try:
                    state = build_pair_state(spec, rpump, rphi, direction)
                except EmptyStateError:
                    assert node.flagged and node.channel_info == ()
                    continue
                assert node.channel_info == tuple(
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
                    assert node.flagged and math.isnan(node.measure)
                    continue
                assert not node.flagged
                assert node.measure == want


def test_chunk_size_does_not_change_scan(spec, pump, monkeypatch):
    for rpump, rphi in _property_configs(spec, pump)[-2:]:
        for measure, filter_f in ALL_MEASURES:
            whole = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            monkeypatch.setattr(geometry_explorer, "_CHUNK", 7)
            chunked = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            monkeypatch.undo()
            assert chunked.nodes == whole.nodes
            assert (chunked.resolution, chunked.measure_name, chunked.metadata) == (
                whole.resolution,
                whole.measure_name,
                whole.metadata,
            )


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
    flagged = [n for n in scan.nodes if n.flagged]
    clean = [n for n in scan.nodes if not n.flagged]
    assert flagged and clean
    for node in flagged:
        assert math.isnan(node.measure)
    # poles are the degenerate directions here
    assert {n.theta for n in flagged} == {0.0, math.pi}


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
    assert all(node.flagged for node in scan.nodes)
    with pytest.raises(EmptyScanError):
        argmax_direction(scan)


def test_argmax_tie_break_constant_map():
    nodes = tuple(
        ScanNode(theta=t, phi=p, direction=(0.0, 0.0, 1.0), measure=0.5, flagged=False)
        for t in (0.0, 1.0)
        for p in (0.0, 1.0)
    )
    scan = ScanMap(nodes=nodes, resolution=1.0, measure_name="entropy")
    direction, value = argmax_direction(scan)
    assert value == 0.5
    assert scan.nodes[0].theta == 0.0 and scan.nodes[0].phi == 0.0


def test_argmax_single_unflagged_node():
    nodes = (
        ScanNode(theta=0.0, phi=0.0, direction=(0.0, 0.0, 1.0), measure=math.nan, flagged=True),
        ScanNode(theta=1.0, phi=0.0, direction=(1.0, 0.0, 0.0), measure=0.25, flagged=False),
    )
    scan = ScanMap(nodes=nodes, resolution=1.0, measure_name="entropy")
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
    assert len(rows) == len(scan.nodes)
    for row, node in zip(rows, scan.nodes):
        assert float(row[0]) == node.theta
        assert row[6] == ("1" if node.flagged else "0")


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
    assert len(parsed["nodes"]) == len(scan.nodes)
