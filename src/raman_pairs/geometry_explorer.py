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

:func:`scan_chunks` yields the scan as a stream of :class:`ScanMap` chunks
that hold the kernel's arrays as columns, one row a node.  Two consumers
read it: :func:`scan_sphere` concatenates the chunks into one map, and
:func:`write_scan` writes each chunk's CSV rows and JSON nodes as soon as
the chunk is evaluated, so writing a scan holds one chunk whatever the grid.
The JSON goes through a per-node text template that lays the document out
byte for byte as ``json.dumps(indent=2, sort_keys=True)`` does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
from .errors import EmptyScanError, InputDomainError, PhysicsError
from .pair_state import (
    CondensateSpinor,
    PumpConfig,
    frequency_label,
    json_text,
    pair_batch,
    unresolved_levels,
    warn_unresolved,
)

__all__ = [
    "MEASURES",
    "ScanFiles",
    "ScanMap",
    "scan_chunks",
    "scan_sphere",
    "argmax_direction",
    "scan_to_csv_text",
    "write_scan",
]

MEASURES = ("entropy", "concurrence_after_filter", "conditional_overlap")
MIN_RESOLUTION = math.pi / 1800.0
MAX_RESOLUTION = math.pi / 6.0
_CHUNK = 1024  # scan nodes per kernel call
_COLUMNS = ("thetas", "phis", "directions", "measures", "channel_weights", "omega")


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
        for name in _COLUMNS:
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


def scan_chunks(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    resolution: float,
    measure: str,
    *,
    filter_f=None,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> Iterator[ScanMap]:
    """The scan of :func:`scan_sphere` as consecutive maps of at most ``_CHUNK``
    nodes, each evaluated when it is drawn; the arguments are checked on the call."""
    if not (MIN_RESOLUTION <= resolution <= MAX_RESOLUTION):
        raise InputDomainError(f"resolution must lie in [pi/1800, pi/6] rad, got {resolution!r}")
    if measure not in MEASURES:
        raise InputDomainError(f"unknown measure {measure!r}; choose one of {', '.join(MEASURES)}")
    name = measure
    if measure == "concurrence_after_filter":
        if filter_f is None:
            raise InputDomainError("concurrence_after_filter needs a filter level F")
        filter_f = halfint(filter_f)
        if filter_f not in spec.ground_levels():
            raise InputDomainError(f"F={filter_f} is not a ground level of {spec.name}")
        name = f"concurrence_after_filter(F={filter_f})"
    kwargs = {"validity_threshold": validity_threshold, "enforce_validity": enforce_validity}
    return _chunks(spec, pump, phi0, resolution, measure, filter_f, name, kwargs)


def _chunks(spec, pump, phi0, resolution, measure, filter_f, name, kwargs) -> Iterator[ScanMap]:
    """The grid nodes, theta-major, ``_CHUNK`` at a time, each chunk from one kernel call."""
    n_theta = max(1, math.ceil(math.pi / resolution - 1e-12))
    n_phi = max(1, math.ceil(2.0 * math.pi / resolution - 1e-12))
    theta = np.arange(n_theta + 1) * math.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    # math's sin and cos once per grid line, for the bits of the per-node formula
    sin_t, cos_t = (np.array([f(t) for t in theta.tolist()]) for f in (math.sin, math.cos))
    sin_p, cos_p = (np.array([f(p) for p in phi.tolist()]) for f in (math.sin, math.cos))
    levels = spec.ground_levels()
    doubled = tuple(f.twice for f in levels)
    blocks = block_index(doubled)
    nodes = (n_theta + 1) * n_phi
    for start in range(0, nodes, _CHUNK):
        t, p = np.divmod(np.arange(start, min(start + _CHUNK, nodes)), n_phi)
        directions = np.stack([sin_t[t] * cos_p[p], sin_t[t] * sin_p[p], cos_t[t]], axis=1)
        # Renormalize against trig rounding so downstream unit checks hold; the
        # per-row BLAS dot product is the one np.linalg.norm takes for one vector.
        norms = np.sqrt(np.matmul(directions[:, np.newaxis], directions[:, :, np.newaxis]))
        directions /= norms[:, 0]
        batch = pair_batch(spec, pump, phi0, directions, **kwargs)
        grams = block_grams(batch.amplitudes, blocks)
        if measure == "entropy":
            values = np.where(batch.norms > 0.0, entropy_of_blocks(grams), np.nan)
        elif measure == "concurrence_after_filter":
            level = levels.index(filter_f)
            values = filtered_concurrence_of_blocks(grams, level)
            if unresolved_levels(batch.amplitudes, batch.omega, doubled)[:, level].any():
                warn_unresolved(filter_f)
        else:
            values = branch_overlap_of_blocks(grams)
        weights = grams.weights.reshape(len(directions), -1)
        yield ScanMap(theta[t], phi[p], directions, values, weights, batch.omega, resolution, name)


def scan_sphere(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    resolution: float,
    measure: str,
    **options,
) -> ScanMap:
    """Evaluate an entanglement measure on the full detection sphere; ``options``
    are the keyword arguments of :func:`scan_chunks`."""
    chunks = list(scan_chunks(spec, pump, phi0, resolution, measure, **options))
    columns = {name: np.concatenate([getattr(c, name) for c in chunks]) for name in _COLUMNS}
    return replace(chunks[0], **columns)


def argmax_direction(scan: ScanMap) -> tuple[np.ndarray, float]:
    """Maximum over non-flagged nodes; ties go to the smallest (theta, phi)."""
    flagged = scan.flagged
    if flagged.all():
        raise EmptyScanError("every node of the scan is flagged")
    best = int(np.argmax(np.where(flagged, -np.inf, scan.measures)))  # first of a tie
    return scan.directions[best].copy(), float(scan.measures[best])


def _csv_head(scan: ScanMap) -> str:
    lines = [f"# {key}={scan.metadata[key]}" for key in sorted(scan.metadata)]
    lines += [f"# measure={scan.measure_name}", f"# resolution_rad={scan.resolution!r}"]
    return "\n".join([*lines, "theta_rad,phi_rad,kx,ky,kz,measure,flag\n"])


def _csv_rows(scan: ScanMap) -> str:
    # a float as its repr, NaN as "nan", as the csv module writes them
    columns = (scan.thetas, scan.phis, *scan.directions.T, scan.measures, scan.flagged.astype(int))
    rows = zip(*(column.tolist() for column in columns))
    return "".join([f"{t!r},{p!r},{x!r},{y!r},{z!r},{m!r},{f}\n" for t, p, x, y, z, m, f in rows])


def scan_to_csv_text(scan: ScanMap) -> str:
    """Delimited node table with '#' metadata header lines."""
    return _csv_head(scan) + _csv_rows(scan)


def _json_head(scan: ScanMap) -> str:
    """The scan JSON up to its first node."""
    head = {
        "format": "raman-pairs/scan-map/1",
        "measure": scan.measure_name,
        "metadata": scan.metadata,
    }
    return json_text(head)[: -len("\n}\n")] + ',\n  "nodes": [\n'


def _json_nodes(scan: ScanMap) -> str:
    """A map's nodes, laid out as ``json.dumps(indent=2, sort_keys=True)`` lays them out.

    Floats are written by their repr.  A node's channel keys are sorted as
    strings; no key ``omega_hz:lambda`` is a proper prefix of another, so
    sorting whole entry lines sorts their keys.
    """
    n_levels = scan.omega.shape[1]
    hz = (scan.omega / (2.0 * np.pi)).T.tolist()
    keys = [
        [f'        "{h!r}:{c // n_levels + 1}": ' for h in hz[c % n_levels]]
        for c in range(2 * n_levels)
    ]
    # one column of entry lines per channel (lambda-1) * nF + i; None where it is empty
    entries = [
        [f"{key}{w!r}" if w > 0.0 else None for key, w in zip(column_keys, weights)]
        for column_keys, weights in zip(keys, scan.channel_weights.T.tolist())
    ]
    nodes = []
    for theta, phi, (x, y, z), measure, flag, node_entries in zip(
        scan.thetas.tolist(),
        scan.phis.tolist(),
        scan.directions.tolist(),
        scan.measures.tolist(),
        scan.flagged.tolist(),
        zip(*entries) if entries else [()] * len(scan.measures),
    ):
        lines = sorted(filter(None, node_entries))
        channels = "{\n" + ",\n".join(lines) + "\n      }" if lines else "{}"
        nodes.append(
            f'    {{\n      "channels": {channels},\n      "direction": [\n        {x!r},\n'
            f'        {y!r},\n        {z!r}\n      ],\n'
            f'      "flagged": {"true" if flag else "false"},\n'
            f'      "measure": {"null" if flag else repr(measure)},\n'
            f'      "phi_rad": {phi!r},\n      "theta_rad": {theta!r}\n    }}'
        )
    return ",\n".join(nodes)


def _require_writable(scan: ScanMap) -> None:
    """Strict JSON: every number written is finite and each node's channel keys differ."""
    values = {name: getattr(scan, name) for name in _COLUMNS}
    values["measures"] = scan.measures[~scan.flagged]  # a flagged node's NaN is written null
    values["resolution"] = scan.resolution
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise PhysicsError(f"scan output has a non-finite number in {', '.join(bad)}")
    if (np.diff(np.sort(scan.omega, axis=1), axis=1) == 0.0).any():
        raise PhysicsError("two photon channels share one key: two levels have equal frequencies")


class ScanFiles(NamedTuple):
    """The files :func:`write_scan` wrote, the node count and the best node as
    a one-row map (a flagged node if every node is flagged)."""

    csv_path: Path
    json_path: Path
    nodes: int
    best: ScanMap


def write_scan(scan: ScanMap | Iterable[ScanMap], prefix: str | Path) -> ScanFiles:
    """Write ``<prefix>.csv`` and strict ``<prefix>.json`` from a map or a
    stream of chunks, one chunk at a time, and keep the running argmax.

    Both files are written under temporary sibling names and renamed only
    when all is written: an error, such as a non-finite number (a physics
    error), leaves neither file nor a temporary one behind.
    """
    prefix = Path(prefix)
    if prefix.name in ("", ".", ".."):
        raise InputDomainError(f"scan output prefix '{prefix}' names a directory, not a file")
    paths = [prefix.with_name(f"{prefix.name}.{ext}") for ext in ("csv", "json")]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    nodes, best = 0, None
    try:
        with (
            open(temps[0], "w", encoding="utf-8") as csv_out,
            open(temps[1], "w", encoding="utf-8") as json_out,
        ):
            for chunk in [scan] if isinstance(scan, ScanMap) else scan:
                if not len(chunk.measures):
                    continue
                _require_writable(chunk)
                csv_out.write((_csv_head(chunk) if best is None else "") + _csv_rows(chunk))
                json_out.write((_json_head(chunk) if best is None else ",\n") + _json_nodes(chunk))
                # the first node of a tie wins, as in argmax_direction
                i = int(np.argmax(np.where(chunk.flagged, -np.inf, chunk.measures)))
                if best is None or best.flagged[0] or chunk.measures[i] > best.measures[0]:
                    best = replace(chunk, **{c: getattr(chunk, c)[i : i + 1] for c in _COLUMNS})
                nodes += len(chunk.measures)
            if best is None:
                raise EmptyScanError("the scan has no nodes")
            json_out.write(f'\n  ],\n  "resolution_rad": {best.resolution!r}\n}}\n')
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    return ScanFiles(*paths, nodes, best)
