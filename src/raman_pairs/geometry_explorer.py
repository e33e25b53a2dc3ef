"""Sphere scans of entanglement measures over detection directions.

The grid is an equiangular (theta, phi) lattice that contains both poles
exactly, since the interesting optimum sits on the quantization axis and
must not fall between nodes.  Directions where no scattering amplitude
exists (or where the requested measure is undefined, e.g. a zero-weight
filter channel) are recorded with a NaN sentinel and flagged rather than
scored 0: "no scattering" and "unentangled scattering" are different
statements.

A scan is serial.  It walks the grid in fixed-size chunks and evaluates
each chunk with one call of the batched pair-state kernel
(:func:`~raman_pairs.pair_state.pair_batch`) and the closed-form block
measures of :mod:`~raman_pairs.entanglement_analysis`: the same code that
single-direction calls run with N = 1.  Every kernel and measure value is an
elementwise function of its own direction, so a node gets the same bits in
any chunk, and a scan equals its node-by-node single-direction results.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angular_momentum import halfint
from .atomic_model import AtomSpec
from .entanglement_analysis import (
    block_grams,
    block_index,
    branch_overlap_of_blocks,
    entropy_of_blocks,
    filtered_concurrence_of_blocks,
)
from .errors import EmptyScanError, InputDomainError
from .pair_state import (
    DEFAULT_CHANNEL_RESOLUTION,
    CondensateSpinor,
    PumpConfig,
    frequency_label,
    json_text,
    pair_batch,
    warn_unresolved,
)

__all__ = [
    "MEASURES",
    "ScanNode",
    "ScanMap",
    "direction_from_angles",
    "scan_sphere",
    "argmax_direction",
    "scan_to_csv_text",
    "scan_to_json_doc",
    "write_scan",
]

MEASURES = ("entropy", "concurrence_after_filter", "conditional_overlap")
MIN_RESOLUTION = math.pi / 1800.0
MAX_RESOLUTION = math.pi / 6.0
_CHUNK = 1024  # scan nodes per kernel call


@dataclass(frozen=True)
class ScanNode:
    theta: float
    phi: float
    direction: tuple[float, float, float]
    measure: float
    flagged: bool
    channel_info: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class ScanMap:
    nodes: tuple[ScanNode, ...]
    resolution: float
    measure_name: str
    metadata: dict = field(default_factory=dict)


def direction_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


def _grid(resolution: float) -> list[tuple[float, float]]:
    n_theta = max(1, math.ceil(math.pi / resolution - 1e-12))
    n_phi = max(1, math.ceil(2.0 * math.pi / resolution - 1e-12))
    thetas = [i * math.pi / n_theta for i in range(n_theta + 1)]
    phis = [j * 2.0 * math.pi / n_phi for j in range(n_phi)]
    return [(t, p) for t in thetas for p in phis]


def _node_directions(grid: list[tuple[float, float]]) -> np.ndarray:
    """Unit vectors of the grid nodes, bit for bit those of direction_from_angles."""
    directions = np.array(
        [
            (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
            for theta, phi in grid
        ]
    )
    # Renormalize against trig rounding so downstream unit checks hold; the
    # per-row dot product is the one np.linalg.norm takes for one vector.
    norms = np.array([math.sqrt(row.dot(row)) for row in directions])
    return directions / norms[:, np.newaxis]


def _channel_info(
    order: list[int], weights: list[float], omega_row: list[float], n_levels: int
) -> tuple[tuple[str, float], ...]:
    """(key, probability) of the occupied channels in (omega, lambda, F) order."""
    labels = [frequency_label(omega) for omega in omega_row]
    info = []
    for c in order:
        if weights[c] > 0.0:
            info.append((f"{labels[c % n_levels]}:{c // n_levels + 1}", weights[c]))
    return tuple(info)


def _evaluate_chunk(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    measure: str,
    filter_f,
    grid: list[tuple[float, float]],
    kwargs: dict,
) -> list[ScanNode]:
    """Scan nodes of one chunk of the grid, from one batched kernel call."""
    directions = _node_directions(grid)
    batch = pair_batch(spec, pump, phi0, directions, **kwargs)
    levels = spec.ground_levels()
    grams = block_grams(batch.amplitudes, block_index(tuple(f.twice for f in levels)))
    if measure == "entropy":
        values = np.where(batch.norms > 0.0, entropy_of_blocks(grams), np.nan)
    elif measure == "concurrence_after_filter":
        level = levels.index(filter_f)
        values = filtered_concurrence_of_blocks(grams, level)
        present = grams.weights.max(axis=1) > 0.0
        gaps = np.abs(batch.omega - batch.omega[:, [level]])
        gaps[:, level] = np.inf
        close = present & (gaps < DEFAULT_CHANNEL_RESOLUTION)
        if np.any(present[:, level] & close.any(axis=1)):
            warn_unresolved(filter_f, stacklevel=3)
    else:
        values = branch_overlap_of_blocks(grams)

    # channels sort by (omega, lambda, 2F); the flat channel index
    # (lambda-1) * nF + i already runs in (lambda, 2F) order
    n, n_levels = batch.omega.shape
    channel_order = np.argsort(np.tile(batch.omega, 2), axis=1, kind="stable")
    # flagged nodes share the math.nan object, so equal scans compare equal
    return [
        ScanNode(
            theta=theta,
            phi=phi,
            direction=tuple(direction),
            measure=math.nan if math.isnan(value) else value,
            flagged=math.isnan(value),
            channel_info=_channel_info(order, weights, omega_row, n_levels),
        )
        for (theta, phi), direction, value, order, weights, omega_row in zip(
            grid,
            directions.tolist(),
            values.tolist(),
            channel_order.tolist(),
            grams.weights.reshape(n, -1).tolist(),
            batch.omega.tolist(),
        )
    ]


def scan_sphere(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    resolution: float,
    measure: str,
    *,
    filter_f=None,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> ScanMap:
    """Evaluate an entanglement measure on the full detection sphere."""
    if not (MIN_RESOLUTION <= resolution <= MAX_RESOLUTION):
        raise InputDomainError(
            f"resolution must lie in [pi/1800, pi/6] rad, got {resolution!r}"
        )
    if measure not in MEASURES:
        raise InputDomainError(
            f"unknown measure {measure!r}; choose one of {', '.join(MEASURES)}"
        )
    if measure == "concurrence_after_filter":
        if filter_f is None:
            raise InputDomainError("concurrence_after_filter needs a filter level F")
        filter_f = halfint(filter_f)
        if filter_f not in spec.ground_levels():
            raise InputDomainError(
                f"F={filter_f} is not a ground level of {spec.name}"
            )
    kwargs = {
        "validity_threshold": validity_threshold,
        "enforce_validity": enforce_validity,
    }
    grid = _grid(resolution)
    nodes: list[ScanNode] = []
    for start in range(0, len(grid), _CHUNK):
        chunk = grid[start : start + _CHUNK]
        nodes.extend(_evaluate_chunk(spec, pump, phi0, measure, filter_f, chunk, kwargs))

    name = measure
    if measure == "concurrence_after_filter":
        name = f"concurrence_after_filter(F={filter_f})"
    return ScanMap(
        nodes=tuple(nodes),
        resolution=resolution,
        measure_name=name,
        metadata={},
    )


def argmax_direction(scan: ScanMap) -> tuple[np.ndarray, float]:
    """Maximum over non-flagged nodes; ties go to the smallest (theta, phi)."""
    best: ScanNode | None = None
    for node in scan.nodes:
        if node.flagged:
            continue
        if best is None or node.measure > best.measure:
            best = node
    if best is None:
        raise EmptyScanError("every node of the scan is flagged")
    return np.array(best.direction), best.measure


def scan_to_csv_text(scan: ScanMap) -> str:
    """Delimited node table with '#' metadata header lines."""
    buf = io.StringIO()
    for key in sorted(scan.metadata):
        buf.write(f"# {key}={scan.metadata[key]}\n")
    buf.write(f"# measure={scan.measure_name}\n")
    buf.write(f"# resolution_rad={scan.resolution!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag"])
    for node in scan.nodes:
        writer.writerow(
            [
                repr(node.theta),
                repr(node.phi),
                repr(node.direction[0]),
                repr(node.direction[1]),
                repr(node.direction[2]),
                "nan" if math.isnan(node.measure) else repr(node.measure),
                1 if node.flagged else 0,
            ]
        )
    return buf.getvalue()


def scan_to_json_doc(scan: ScanMap) -> dict:
    return {
        "format": "raman-pairs/scan-map/1",
        "measure": scan.measure_name,
        "resolution_rad": scan.resolution,
        "metadata": scan.metadata,
        "nodes": [
            {
                "theta_rad": node.theta,
                "phi_rad": node.phi,
                "direction": list(node.direction),
                "measure": None if math.isnan(node.measure) else node.measure,
                "flagged": node.flagged,
                "channels": {key: prob for key, prob in node.channel_info},
            }
            for node in scan.nodes
        ],
    }


def write_scan(scan: ScanMap, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` and strict ``<prefix>.json``; returns both paths.

    A non-finite number is a physics error, raised before either file exists.
    """
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    json_doc = json_text(scan_to_json_doc(scan))
    csv_path.write_text(scan_to_csv_text(scan), encoding="utf-8")
    json_path.write_text(json_doc, encoding="utf-8")
    return csv_path, json_path
