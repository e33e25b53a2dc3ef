"""Sphere scans of entanglement measures over detection directions.

The grid is an equiangular (theta, phi) lattice that contains both poles
exactly, since the interesting optimum sits on the quantization axis and
must not fall between nodes.  Directions where no scattering amplitude
exists (or where the requested measure is undefined, e.g. a zero-weight
filter channel) get a NaN measure and count as flagged rather than scored
0: "no scattering" and "unentangled scattering" are different statements.

A scan is serial.  It walks the grid in fixed-size chunks and evaluates
each chunk with one call of the batched pair-state kernel
(:func:`~raman_pairs.pair_state.pair_batch`) and the closed-form block
measures of :mod:`~raman_pairs.entanglement_analysis`: the same code that
single-direction calls run with N = 1.  Every kernel and measure value is an
elementwise function of its own direction, so a node gets the same bits in
any chunk, and a scan equals its node-by-node single-direction results.
A :class:`ScanMap` keeps the kernel's arrays as columns, one row a node;
the writers turn each column into Python numbers once.
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
    "ScanMap",
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


@dataclass(frozen=True, eq=False)
class ScanMap:
    """A measure on the detection sphere as read-only columns, one row a node.

    Node n lies at ``(thetas[n], phis[n])`` with unit vector ``directions[n]``
    and has ``measures[n]``, NaN where the node is flagged.
    ``channel_weights[n, (lambda-1) * nF + i]`` is the probability of photon
    channel (level i, lambda) and ``omega[n, i]`` the photon frequency of
    level ``i`` of the species' ground levels.
    """

    thetas: np.ndarray
    phis: np.ndarray
    directions: np.ndarray
    measures: np.ndarray
    channel_weights: np.ndarray
    omega: np.ndarray
    resolution: float
    measure_name: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("thetas", "phis", "directions", "measures", "channel_weights", "omega"):
            column = np.asarray(getattr(self, name), dtype=float)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def flagged(self) -> np.ndarray:
        return np.isnan(self.measures)

    def node_channels(self) -> list[tuple[tuple[str, float], ...]]:
        """Each node's (channel key, probability) of its occupied channels in
        (omega, lambda, F) order."""
        # the flat channel index (lambda-1) * nF + i already runs in
        # (lambda, 2F) order, so one stable sort by frequency finishes it
        n_levels = self.omega.shape[1]
        orders = np.argsort(np.tile(self.omega, 2), axis=1, kind="stable").tolist()
        return [
            tuple(
                (f"{frequency_label(omega[c % n_levels])}:{c // n_levels + 1}", weights[c])
                for c in order
                if weights[c] > 0.0
            )
            for order, weights, omega in zip(
                orders, self.channel_weights.tolist(), self.omega.tolist()
            )
        ]


def _grid(resolution: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles (theta-major) and unit vectors of the grid nodes."""
    n_theta = max(1, math.ceil(math.pi / resolution - 1e-12))
    n_phi = max(1, math.ceil(2.0 * math.pi / resolution - 1e-12))
    theta = np.arange(n_theta + 1) * math.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    # math's sin and cos once per grid line, for the bits of the per-node formula
    sin_t, cos_t = (np.array([f(t) for t in theta.tolist()]) for f in (math.sin, math.cos))
    sin_p, cos_p = (np.array([f(p) for p in phi.tolist()]) for f in (math.sin, math.cos))
    directions = np.stack(
        [np.outer(sin_t, cos_p).ravel(), np.outer(sin_t, sin_p).ravel(), np.repeat(cos_t, n_phi)],
        axis=1,
    )
    # Renormalize against trig rounding so downstream unit checks hold; the
    # per-row BLAS dot product is the one np.linalg.norm takes for one vector.
    norms = np.sqrt(np.matmul(directions[:, np.newaxis], directions[:, :, np.newaxis]))
    return np.repeat(theta, n_phi), np.tile(phi, n_theta + 1), directions / norms[:, 0]


def _evaluate_chunk(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    measure: str,
    filter_f,
    directions: np.ndarray,
    kwargs: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measures, channel weights and photon frequencies of a chunk of nodes,
    from one batched kernel call."""
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
    return values, grams.weights.reshape(len(directions), -1), batch.omega


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
    thetas, phis, directions = _grid(resolution)
    chunks = []
    for start in range(0, len(directions), _CHUNK):
        chunk = directions[start : start + _CHUNK]
        chunks.append(_evaluate_chunk(spec, pump, phi0, measure, filter_f, chunk, kwargs))
    measures, channel_weights, omega = (np.concatenate(column) for column in zip(*chunks))

    name = measure
    if measure == "concurrence_after_filter":
        name = f"concurrence_after_filter(F={filter_f})"
    return ScanMap(
        thetas=thetas,
        phis=phis,
        directions=directions,
        measures=measures,
        channel_weights=channel_weights,
        omega=omega,
        resolution=resolution,
        measure_name=name,
    )


def argmax_direction(scan: ScanMap) -> tuple[np.ndarray, float]:
    """Maximum over non-flagged nodes; ties go to the smallest (theta, phi)."""
    flagged = scan.flagged
    if flagged.all():
        raise EmptyScanError("every node of the scan is flagged")
    best = int(np.argmax(np.where(flagged, -np.inf, scan.measures)))  # first of a tie
    return scan.directions[best].copy(), float(scan.measures[best])


def scan_to_csv_text(scan: ScanMap) -> str:
    """Delimited node table with '#' metadata header lines."""
    buf = io.StringIO()
    for key in sorted(scan.metadata):
        buf.write(f"# {key}={scan.metadata[key]}\n")
    buf.write(f"# measure={scan.measure_name}\n")
    buf.write(f"# resolution_rad={scan.resolution!r}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag"])
    # csv writes a float as its repr, NaN as "nan"
    columns = (scan.thetas, scan.phis, *scan.directions.T, scan.measures, scan.flagged.astype(int))
    writer.writerows(zip(*(column.tolist() for column in columns)))
    return buf.getvalue()


def scan_to_json_doc(scan: ScanMap) -> dict:
    return {
        "format": "raman-pairs/scan-map/1",
        "measure": scan.measure_name,
        "resolution_rad": scan.resolution,
        "metadata": scan.metadata,
        "nodes": [
            {
                "theta_rad": theta,
                "phi_rad": phi,
                "direction": direction,
                "measure": None if flag else measure,
                "flagged": flag,
                "channels": dict(channels),
            }
            for theta, phi, direction, measure, flag, channels in zip(
                scan.thetas.tolist(),
                scan.phis.tolist(),
                scan.directions.tolist(),
                scan.measures.tolist(),
                scan.flagged.tolist(),
                scan.node_channels(),
            )
        ],
    }


def write_scan(scan: ScanMap, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` and strict ``<prefix>.json``; returns both paths.

    A non-finite number is a physics error, raised before either file exists.
    """
    prefix = Path(prefix)
    if prefix.name in ("", ".", ".."):
        raise InputDomainError(f"scan output prefix '{prefix}' names a directory, not a file")
    csv_path = prefix.with_name(prefix.name + ".csv")
    json_path = prefix.with_name(prefix.name + ".json")
    json_doc = json_text(scan_to_json_doc(scan))
    csv_path.write_text(scan_to_csv_text(scan), encoding="utf-8")
    json_path.write_text(json_doc, encoding="utf-8")
    return csv_path, json_path
