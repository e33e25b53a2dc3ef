"""Sphere scans: grid structure, flags, argmax, round trips, determinism."""

import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_condensate, random_pump
from oracles import oracle_scan_csv, oracle_scan_json, oracle_scan_rows, scan_to_json_doc
from raman_pairs import geometry_explorer
from raman_pairs.angular_momentum import HalfInt
from raman_pairs.atomic_model import AtomSpec, spherical_component
from raman_pairs import pair_state
from raman_pairs.entanglement_analysis import (
    _UNDEFINED_OVERLAP,
    branch_overlap,
    concurrence_after_filter,
    entanglement_entropy,
)
from raman_pairs.errors import InputDomainError, PhysicsError
from raman_pairs.geometry_explorer import (
    ScanMap,
    argmax_direction,
    scan_chunks,
    scan_sphere,
    write_scan,
)
from raman_pairs.pair_state import (
    _EMPTY_CHANNEL,
    CondensateSpinor,
    PumpConfig,
    build_pair_state,
    pair_state_to_json,
)

COARSE = math.pi / 6.0
TWO_PI = 2.0 * math.pi
COLUMNS = ("thetas", "phis", "directions", "measures", "flag_reasons", "channel_weights", "omega")
NO_SCATTERING, EMPTY_FILTER_CHANNEL, UNDEFINED_OVERLAP = 1, 2, 3


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
                want = branch_overlap(build_pair_state(spec, pump, phi0, direction))
            assert scan.measures[node] == want


ALL_MEASURES = (
    ("entropy", None),
    ("concurrence_after_filter", 1),
    ("concurrence_after_filter", 2),
    ("conditional_overlap", None),
)


def _sigma_plus(pump) -> PumpConfig:
    return PumpConfig(
        direction=np.array([0.0, 0.0, 1.0]),
        polarization=spherical_component(+1).copy(),
        omega_laser=pump.omega_laser,
    )


def _inverted(spec) -> AtomSpec:
    """A species whose stretched state cannot absorb sigma+ light at all."""
    return AtomSpec(
        name="inverted-test",
        nuclear_spin=HalfInt(0),
        ground_j=HalfInt(3),
        excited_j=HalfInt(1),
        ground_splittings=((HalfInt(3), 0.0),),
        resonance=spec.resonance,
        linewidth=spec.linewidth,
        mass=spec.mass,
    )


def _property_configs(spec, pump):
    """Seeded random geometries plus sigma+ on |2,2>, where nodes get flagged."""
    rng = np.random.default_rng(107)
    configs = [(random_pump(spec, rng), random_condensate(spec, rng)) for _ in range(3)]
    return configs + [(_sigma_plus(pump), CondensateSpinor.single(2, 2))]


def test_state_channels_are_its_scan_nodes_columns(spec):
    # a channel is named by level and polarization alike in both outputs: the
    # state document lists the occupied p_2F{tf}_lambda{lam} columns of its
    # node, in column order, and its channel probabilities are the node's weights
    rng = np.random.default_rng(67)
    for _ in range(4):
        rpump, rphi = random_pump(spec, rng), random_condensate(spec, rng)
        scan = scan_sphere(spec, rpump, rphi, COARSE, "entropy")
        names = [re.fullmatch(r"p_2F(\d+)_lambda([12])", c) for c in scan.columns]
        keys = [f"{m[1]}:{m[2]}" for m in names if m]
        assert len(keys) == scan.channel_weights.shape[1]
        for n in np.flatnonzero(scan.flag_reasons != NO_SCATTERING):
            state = build_pair_state(spec, rpump, rphi, scan.directions[n])
            weights = scan.channel_weights[n].tolist()
            occupied = [(key, w) for key, w in zip(keys, weights) if w > 0.0]
            doc = pair_state_to_json(state)
            assert [ch["key"] for ch in doc["channels"]] == [key for key, _ in occupied]
            got = [(ch.key(), p) for ch, p in state.channel_probabilities()]
            assert got == occupied


def test_scan_nodes_equal_single_direction_calls(spec, pump):
    # every node, flagged or not, is exactly what the single-direction calls
    # return for its direction: one kernel, no second implementation
    for rpump, rphi in _property_configs(spec, pump):
        for measure, filter_f in ALL_MEASURES:
            scan = scan_sphere(spec, rpump, rphi, COARSE, measure, filter_f=filter_f)
            for n, direction in enumerate(scan.directions):
                value, flagged = scan.measures[n], scan.flagged[n]
                try:
                    state = build_pair_state(spec, rpump, rphi, direction)
                except PhysicsError as exc:
                    if not str(exc).startswith("no scattering amplitude into this direction"):
                        raise
                    assert scan.flag_reasons[n] == NO_SCATTERING
                    assert not scan.channel_weights[n].any()
                    continue
                levels = list(state.levels)
                weights = [0.0] * (2 * len(levels))
                for ch, p in state.channel_probabilities():
                    weights[(ch.lam - 1) * len(levels) + levels.index(ch.doubled_f)] = p
                assert scan.channel_weights[n].tolist() == weights
                assert scan.omega[n].tolist() == state.omega.tolist()
                try:
                    if measure == "entropy":
                        want = entanglement_entropy(state)
                    elif measure == "concurrence_after_filter":
                        want = concurrence_after_filter(state, filter_f)
                    else:
                        want = branch_overlap(state)
                except PhysicsError as exc:
                    if str(exc) not in (_EMPTY_CHANNEL.format(filter_f), _UNDEFINED_OVERLAP):
                        raise
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
    # separate the 1.77 GHz-split sodium channels, and 1 MHz can
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1)
    monkeypatch.setattr(pair_state, "DEFAULT_CHANNEL_RESOLUTION", TWO_PI * 10.0e9)
    with pytest.warns(UserWarning, match="not spectrally resolvable"):
        scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1)


def test_unresolved_scan_warning_names_the_caller(spec, pump, phi0, tmp_path, monkeypatch):
    # the scan's warning is raised inside a generator that the package's own
    # consumers drive; it must point past them at the calling code
    from raman_pairs import cli

    config = json.loads((Path(cli.__file__).parent / "data" / "sodium_scan.json").read_text())
    config["detection"]["scan"]["resolution_deg"] = 30.0
    (tmp_path / "scan.json").write_text(json.dumps(config))
    monkeypatch.setattr(pair_state, "DEFAULT_CHANNEL_RESOLUTION", TWO_PI * 10.0e9)
    options = {"filter_f": 1}
    calls = [
        lambda: scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", **options),
        lambda: write_scan(
            scan_chunks(spec, pump, phi0, COARSE, "concurrence_after_filter", **options),
            tmp_path / "chunks",
        ),
        lambda: cli.main(
            ["scan", "--config", str(tmp_path / "scan.json"), "--output", str(tmp_path / "cli")]
        ),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        resolvable = [w for w in caught if "not spectrally resolvable" in str(w.message)]
        assert resolvable and {w.filename for w in resolvable} == {__file__}


def test_flagged_nodes_for_undefined_overlap(spec, pump):
    # sigma+ pump on |2,2>: on the detection axis one branch dies, so the
    # conditional overlap is undefined there and those nodes carry the NaN
    # sentinel instead of a zero
    phi0 = CondensateSpinor.single(2, 2)
    scan = scan_sphere(spec, _sigma_plus(pump), phi0, COARSE, "conditional_overlap")
    flagged = scan.flagged
    assert flagged.any() and not flagged.all()
    assert np.isnan(scan.measures[flagged]).all()
    assert (scan.flag_reasons[flagged] == UNDEFINED_OVERLAP).all()
    assert (scan.flag_reasons[~flagged] == 0).all()
    # poles are the degenerate directions here
    assert set(scan.thetas[flagged].tolist()) == {0.0, math.pi}


def test_empty_filter_channel_nodes_flagged(spec, pump, tmp_path):
    # sigma+ on |2,2> only reaches F'=3, which cannot decay to F=1: light
    # scatters into every direction, but the F=1 channel is always empty
    phi0 = CondensateSpinor.single(2, 2)
    args = (spec, _sigma_plus(pump), phi0, COARSE, "concurrence_after_filter")
    scan = scan_sphere(*args, filter_f=1)
    assert (scan.flag_reasons == EMPTY_FILTER_CHANNEL).all()
    assert np.isnan(scan.measures).all()
    files = write_scan(scan, tmp_path / "s")
    assert files.flag_counts == {
        "no_scattering": 0,
        "empty_filter_channel": len(scan.measures),
        "undefined_overlap": 0,
    }
    lines = [line for line in files.csv_path.read_text().splitlines() if line[0] != "#"]
    rows = list(csv.reader(lines[1:]))
    assert len(rows) == len(scan.measures)
    assert {tuple(row[5:8]) for row in rows} == {("nan", "1", "empty_filter_channel")}


def test_empty_state_nodes_flagged(spec, pump):
    # every node is flagged and argmax raises
    phi0 = CondensateSpinor.single("3/2", "3/2")
    scan = scan_sphere(_inverted(spec), _sigma_plus(pump), phi0, COARSE, "entropy")
    assert scan.flagged.all()
    assert (scan.flag_reasons == NO_SCATTERING).all()
    with pytest.raises(PhysicsError, match="^every node of the scan is flagged$"):
        argmax_direction(scan)


def _columns_map(thetas, phis, directions, measures) -> ScanMap:
    """A hand-made map without photon channels."""
    n = len(measures)
    return ScanMap(
        thetas=thetas,
        phis=phis,
        directions=directions,
        measures=measures,
        flag_reasons=np.isnan(measures).astype(int),
        channel_weights=np.zeros((n, 0)),
        omega=np.zeros((n, 0)),
        levels=(),
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


def test_csv_layout_and_flags(spec, pump, phi0, tmp_path):
    scan = scan_sphere(spec, pump, phi0, COARSE, "concurrence_after_filter", filter_f=1)
    text = write_scan(scan, tmp_path / "s").csv_path.read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    assert header == list(scan.columns) == [
        *("theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag", "flag_reason"),
        *("omega_hz_2F2", "omega_hz_2F4"),
        *("p_2F2_lambda1", "p_2F4_lambda1", "p_2F2_lambda2", "p_2F4_lambda2"),
    ]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == len(scan.measures)
    for row, theta, flagged in zip(rows, scan.thetas, scan.flagged):
        assert len(row) == len(header)
        assert float(row[0]) == theta
        assert row[6] == ("1" if flagged else "0")
        assert row[7] == ("empty_filter_channel" if flagged else "")


def test_scan_serialization_deterministic(spec, pump, phi0, tmp_path):
    scan = scan_sphere(spec, pump, phi0, COARSE, "entropy")
    a = write_scan(scan, tmp_path / "a")
    b = write_scan(scan, tmp_path / "b")
    for path_a, path_b in ((a.csv_path, b.csv_path), (a.json_path, b.json_path)):
        assert path_a.read_bytes() == path_b.read_bytes()
    parsed = json.loads(a.json_path.read_text())
    assert parsed["format"] == "raman-pairs/scan-map/2"
    assert len(parsed["nodes"]) == len(scan.measures) == a.nodes


METADATA = {"tool": "raman-pairs", "seed": 7, "note": 'a "quoted" \\ path, caf\u00e9 \u2603'}


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _oracle_configs(spec, pump):
    """(species, pump, condensate, resolution, measures): seeded random
    geometries at 10-15 degrees, sigma+ on |2,2> (flagged nodes) and a
    species where every node is flagged (no channels at all)."""
    rng = np.random.default_rng(151)
    configs = []
    for _ in range(3):
        rpump, rphi = random_pump(spec, rng), random_condensate(spec, rng)
        configs.append((spec, rpump, rphi, rng.uniform(10, 15), ALL_MEASURES))
    sigma_plus = _sigma_plus(pump)
    stretched = CondensateSpinor.single("3/2", "3/2")
    measures = (("entropy", None), ("concurrence_after_filter", "3/2"), ("conditional_overlap", None))
    return configs + [
        (spec, sigma_plus, CondensateSpinor.single(2, 2), 12.0, ALL_MEASURES),
        (_inverted(spec), sigma_plus, stretched, 12.0, measures),
    ]


def test_streamed_files_equal_the_document_oracle(spec, pump, tmp_path, monkeypatch):
    # the per-node JSON template against json.dumps of one dict per node, and
    # the row template against the csv module; 7-node chunks cross many chunk
    # boundaries, and the running argmax is the argmax of the whole map
    monkeypatch.setattr(geometry_explorer, "_CHUNK", 7)
    for species, rpump, rphi, degrees, measures in _oracle_configs(spec, pump):
        for measure, filter_f in measures:
            args = (species, rpump, rphi, math.radians(degrees), measure)
            scan = scan_sphere(*args, filter_f=filter_f).replace(metadata=METADATA)
            chunks = (c.replace(metadata=METADATA) for c in scan_chunks(*args, filter_f=filter_f))
            files = write_scan(chunks, tmp_path / "s")
            doc = scan_to_json_doc(scan)
            text = files.json_path.read_text(encoding="utf-8")
            assert text == oracle_scan_json(doc)
            assert json.loads(text, parse_constant=_reject_constant) == doc
            assert all(len(node) == len(doc["columns"]) for node in doc["nodes"])
            assert files.csv_path.read_bytes() == oracle_scan_csv(scan).encode()
            assert files.nodes == len(scan.measures)
            if scan.flagged.all():
                for best in (scan, files.best):
                    with pytest.raises(PhysicsError, match="^every node of the scan is flagged$"):
                        argmax_direction(best)
                continue
            (want_direction, want), (direction, value) = map(argmax_direction, (scan, files.best))
            np.testing.assert_array_equal(direction, want_direction, strict=True)
            assert value == want


# a quiet NaN with a payload: another bit pattern that also prints nan
_PAYLOAD_NAN = float(np.array([0x7FF8_0000_0000_0001]).view(float)[0])
# hand-made chunks of sodium's two ground levels, one row of twelve floats a
# node (theta, phi, k, measure, the levels' omega, the channel weights), and
# each node's flag reason; a flagged node's measure is NaN
_EDGE_CHUNKS = {
    "signed zeros": (
        [
            [0.0, -0.0, 0.0, -0.0, 1.0, 0.5, 0.0, -0.0, 0.0, -0.0, 1.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0, -1.0, 0.25, -0.0, 0.0, -0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, -0.0, 1.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
        ],
        [0, 0, 0],
    ),
    "flagged nans": (
        [
            [0.0, 0.0, 0.0, 0.0, 1.0, math.nan, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.6, 0.0, 0.8, -math.nan, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
            [0.1, 0.3, 0.0, 0.6, 0.8, _PAYLOAD_NAN, 1.0, 2.0, 0.0, 0.0, 0.0, 1.0],
            [0.1, 0.4, 0.0, 0.0, 1.0, 0.75, 1.0, 2.0, 0.25, 0.25, 0.25, 0.25],
        ],
        [1, 2, 3, 0],
    ),
    "extremes": (
        [
            [5e-324, 1e16, 1e-05, 2.5e-310, 1.0, 5e-324, 1e16, 1e-05, 5e-324, 2.5e-310, 1e-05, 1.0],
            [2.2250738585072014e-308, 1e-05, 1e16, 1.7976931348623157e308, -5e-324, 1e-05,
             1e-07, 1.7976931348623157e308, 1e16, 1e-05, 2.5e-310, 1e22],
        ],
        [0, 0],
    ),
    "repeats": (
        [
            [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.5, 0.25, 0.5, 0.25, 0.5, 0.25, 0.5, 0.25, 0.5, 0.25, 0.5, 0.25],
            [0.25, 0.5, 0.1, 0.1, 0.5, 0.1, 0.25, 0.5, 0.1, 0.1, 0.25, 0.5],
        ],
        [0, 0, 0],
    ),
    "one node": ([[0.5, -0.0, 0.6, 0.0, -0.8, 1e-05, 3.0, 4.0, 0.5, 0.25, 0.125, 0.125]], [0]),
}


@pytest.mark.parametrize("case", list(_EDGE_CHUNKS))
def test_rows_equal_a_repr_of_every_number(case, tmp_path):
    # _rows formats each distinct bit pattern of a chunk once: -0.0 stays
    # apart from 0.0, every NaN prints nan, and subnormals and the extremes
    # of repr's two notations print as a repr of each value prints them
    rows, reasons = _EDGE_CHUNKS[case]
    nodes = np.array(rows)
    scan = ScanMap(
        nodes[:, 0], nodes[:, 1], nodes[:, 2:5], nodes[:, 5], reasons, nodes[:, 8:],
        nodes[:, 6:8], (2, 4), 1.0, "entropy", METADATA,
    )
    assert np.isnan(scan.measures).tolist() == [r > 0 for r in reasons]
    assert geometry_explorer._rows(scan) == oracle_scan_rows(scan)
    files = write_scan(scan, tmp_path / "s")
    assert files.csv_path.read_bytes() == oracle_scan_csv(scan).encode()
    assert files.json_path.read_text(encoding="utf-8") == oracle_scan_json(scan_to_json_doc(scan))


def test_write_scan_keeps_levels_with_equal_frequencies(spec, pump, phi0, tmp_path):
    # a 1 mHz ground splitting vanishes in the photon frequencies' rounding;
    # each level still has its own columns, so both levels' weights are written
    tiny = spec.replace(ground_splittings=((HalfInt(2), 0.0), (HalfInt(4), TWO_PI * 1e-3)))
    scan = scan_sphere(tiny, pump, phi0, COARSE, "entropy")
    assert (scan.omega[:, 0] == scan.omega[:, 1]).all()
    files = write_scan(scan, tmp_path / "s")
    doc = json.loads(files.json_path.read_text())
    nodes = np.array([node[8:] for node in doc["nodes"]])
    np.testing.assert_array_equal(nodes[:, 0], nodes[:, 1])
    np.testing.assert_array_equal(nodes[:, 2:], scan.channel_weights, strict=True)
    for level in (0, 1):  # both levels carry weight somewhere
        assert (scan.channel_weights[:, [level, level + 2]] > 0.0).any()


def test_write_scan_memory_is_per_chunk(spec, pump, phi0, tmp_path):
    # a streamed scan holds one chunk of columns and text at a time, so the
    # writer's peak does not grow with the grid (json.dumps of the whole map
    # took about 3.7 kB a node: 60 MB at 2 degrees)
    write_scan(scan_chunks(spec, pump, phi0, COARSE, "conditional_overlap"), tmp_path / "warm")
    peaks = {}
    for degrees in (4.0, 2.0):
        args = (spec, pump, phi0, math.radians(degrees), "conditional_overlap")
        tracemalloc.start()
        try:
            files = write_scan(scan_chunks(*args), tmp_path / "out")
            peaks[degrees] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert files.nodes == 16380
    assert peaks[2.0] <= 5_000 * geometry_explorer._CHUNK
    assert peaks[2.0] <= 1.1 * peaks[4.0]
