"""The input guards of the library that no command can reach: each bad
argument raises its error class with its message, and a scan with no node
writes no file."""

import numpy as np
import pytest

from raman_pairs.atomic_model import spherical_component
from raman_pairs.bell_sim import sample_chunks
from raman_pairs.errors import InputDomainError, PhysicsError
from raman_pairs.geometry_explorer import _COLUMNS, scan_sphere, write_scan
from raman_pairs.pair_state import build_pair_state, spectral_filter


@pytest.mark.parametrize(
    "direction, polarization",
    [([0.0, 1.0], [0.0, 0.0, 1.0]), ([0.0, 1.0, 0.0], [[0.0], [0.0], [1.0]])],
)
def test_pump_vectors_must_be_3_vectors(pump, direction, polarization):
    message = "^pump direction and polarization must be 3-vectors$"
    with pytest.raises(InputDomainError, match=message):
        pump.replace(direction=np.array(direction), polarization=np.array(polarization))


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_pair_state_channel_frequencies_must_be_positive(state_z, scale):
    omega = state_z.omega.copy()
    omega[-1] *= scale
    with pytest.raises(InputDomainError, match="^channel frequencies must be positive$"):
        state_z.replace(omega=omega)


@pytest.mark.parametrize("k_hat", [[0.0, 1.0], [[0.0, 0.0, 1.0]], 1.0])
def test_detection_direction_must_be_a_3_vector(spec, pump, phi0, k_hat):
    with pytest.raises(InputDomainError, match="^detection direction must be a 3-vector$"):
        build_pair_state(spec, pump, phi0, np.array(k_hat))


@pytest.mark.parametrize("settings", [(0.0, 0.1, 0.2), (0.0, 0.1, 0.2, 0.3, 0.4)])
def test_sampling_needs_four_analyzer_angles(state_z, settings):
    bell = spectral_filter(state_z, 1)
    with pytest.raises(InputDomainError, match=r"^expected 4 analyzer angles \(a, a', b, b'\)$"):
        sample_chunks(bell, settings, 10, 0)


@pytest.mark.parametrize("q", [-2, 2])
def test_spherical_component_refuses_q_outside_minus_1_to_1(q):
    with pytest.raises(InputDomainError, match=f"^q must be -1, 0 or \\+1, got {q}$"):
        spherical_component(q)


def _empty(scan):
    return scan.replace(**{name: getattr(scan, name)[:0] for name in _COLUMNS})


@pytest.fixture(scope="module")
def coarse_scan(spec, pump, phi0):
    return scan_sphere(spec, pump, phi0, np.pi / 6, "entropy")


def test_scan_writer_skips_an_empty_chunk(coarse_scan, tmp_path):
    alone = write_scan(coarse_scan, tmp_path / "alone")
    chunks = [_empty(coarse_scan), coarse_scan, _empty(coarse_scan)]
    padded = write_scan(chunks, tmp_path / "padded")
    assert padded.nodes == alone.nodes == len(coarse_scan.measures)
    for a, b in ((alone.csv_path, padded.csv_path), (alone.json_path, padded.json_path)):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("chunks", [0, 2])
def test_scan_with_no_node_raises_and_writes_nothing(coarse_scan, tmp_path, chunks):
    with pytest.raises(PhysicsError, match="^the scan has no nodes$"):
        write_scan([_empty(coarse_scan)] * chunks, tmp_path / "empty")
    assert list(tmp_path.iterdir()) == []
