"""Sphere scans of entanglement measures over detection directions.

The grid is an equiangular (theta, phi) lattice that contains both poles
exactly, since the interesting optimum sits on the quantization axis and
must not fall between nodes.  A node whose measure does not exist gets a NaN
measure and one of the :data:`FLAG_REASONS` rather than a score of 0: "no
scattering" and "unentangled scattering" are different statements.

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
:func:`write_scan` writes each chunk's rows as soon as the chunk is
evaluated, so writing a scan holds one chunk whatever the grid.  One column
list, :attr:`ScanMap.columns`, heads both files, and each distinct number of
a chunk is formatted once into the strings of its nodes' CSV lines and JSON
arrays.  Both files are written in the one output transaction of
:mod:`~raman_pairs.outputs`.
A map is an identity record; ``ScanMap.replace`` builds one through its constructor.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .angular_momentum import halfint
from .atomic_model import DEFAULT_VALIDITY_THRESHOLD, TWO_PI, AtomSpec, _ground_layout
from .entanglement_analysis import (
    branch_overlap_of_blocks,
    entropy_of_blocks,
    filtered_concurrence_of_blocks,
)
from .errors import InputDomainError, PhysicsError
from .outputs import _all_or_none, _prefix_path, json_text
from .pair_state import (
    CondensateSpinor,
    PumpConfig,
    block_grams,
    pair_batch,
    unresolved_levels,
    warn_unresolved,
)

__all__ = [
    "MEASURES",
    "FLAG_REASONS",
    "ScanFiles",
    "ScanMap",
    "scan_chunks",
    "scan_sphere",
    "argmax_direction",
    "write_scan",
]

MEASURES = ("entropy", "concurrence_after_filter", "conditional_overlap")
# why a node is flagged; ScanMap.flag_reasons holds 1 + the index, 0 where scored
FLAG_REASONS = ("no_scattering", "empty_filter_channel", "undefined_overlap")
# the reason for a NaN measure at a node that scatters; an entropy is never NaN there
_UNDEFINED = {"entropy": 0, "concurrence_after_filter": 2, "conditional_overlap": 3}
MIN_RESOLUTION = math.pi / 1800.0
MAX_RESOLUTION = math.pi / 6.0
_CHUNK = 1024  # scan nodes per kernel call
_COLUMNS = ("thetas", "phis", "directions", "measures", "flag_reasons", "channel_weights", "omega")


class ScanMap:
    """A measure on the detection sphere as read-only columns, one row a node.

    Node n lies at ``(thetas[n], phis[n])`` with unit vector ``directions[n]``
    and has ``measures[n]``, NaN where the node is flagged.
    ``flag_reasons[n]`` is 0 for a scored node and ``1 + i`` for reason
    ``FLAG_REASONS[i]``.  ``levels`` holds the doubled F of the species'
    ground levels; ``omega[n, i]`` is the photon frequency of level ``i``
    and ``channel_weights[n, (lambda-1) * nF + i]`` the probability of
    photon channel (level i, lambda).  ``metadata`` heads both files.
    """

    def __init__(
        self, thetas: np.ndarray, phis: np.ndarray, directions: np.ndarray, measures: np.ndarray,
        flag_reasons: np.ndarray, channel_weights: np.ndarray, omega: np.ndarray,
        levels: tuple[int, ...], resolution: float, measure_name: str, metadata: dict | None = None,
    ) -> None:
        columns = (thetas, phis, directions, measures, flag_reasons, channel_weights, omega)
        for name, value in zip(_COLUMNS, columns):
            column = np.asarray(value, dtype=np.int8 if name == "flag_reasons" else float)
            column.flags.writeable = False
            setattr(self, name, column)
        self.levels, self.resolution, self.measure_name = levels, resolution, measure_name
        self.metadata = {} if metadata is None else metadata

    def replace(self, **changes) -> "ScanMap":
        """This map with ``changes``, through the constructor."""
        return ScanMap(**{**vars(self), **changes})

    @property
    def flagged(self) -> np.ndarray:
        return self.flag_reasons > 0

    @property
    def columns(self) -> tuple[str, ...]:
        """The name of each field of a node's row: the CSV header and the JSON ``"columns"``."""
        return (
            *("theta_rad", "phi_rad", "kx", "ky", "kz", "measure", "flag", "flag_reason"),
            *(f"omega_hz_2F{tf}" for tf in self.levels),
            *(f"p_2F{tf}_lambda{lam}" for lam in (1, 2) for tf in self.levels),
        )


def scan_chunks(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    resolution: float,
    measure: str,
    *,
    filter_f=None,
    validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD,
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
    return _chunks(spec, pump, phi0, resolution, measure, filter_f, name, validity_threshold)


def _chunks(spec, pump, phi0, resolution, measure, filter_f, name, threshold) -> Iterator[ScanMap]:
    """The grid nodes, theta-major, ``_CHUNK`` at a time, each chunk from one kernel call."""
    n_theta = max(1, math.ceil(math.pi / resolution - 1e-12))
    n_phi = max(1, math.ceil(2.0 * math.pi / resolution - 1e-12))
    theta = np.arange(n_theta + 1) * math.pi / n_theta
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    # math's sin and cos once per grid line: test_scan_pinned_bytes pins their bits
    sin_t, cos_t = (np.array([f(t) for t in theta.tolist()]) for f in (math.sin, math.cos))
    sin_p, cos_p = (np.array([f(p) for p in phi.tolist()]) for f in (math.sin, math.cos))
    doubled = _ground_layout(spec).levels
    nodes = (n_theta + 1) * n_phi
    for start in range(0, nodes, _CHUNK):
        t, p = np.divmod(np.arange(start, min(start + _CHUNK, nodes)), n_phi)
        directions = np.stack([sin_t[t] * cos_p[p], sin_t[t] * sin_p[p], cos_t[t]], axis=1)
        # Renormalize against trig rounding so downstream unit checks hold; the
        # per-row BLAS dot product is the one np.linalg.norm takes for one vector.
        norms = np.sqrt(np.matmul(directions[:, np.newaxis], directions[:, :, np.newaxis]))
        directions /= norms[:, 0]
        batch = pair_batch(spec, pump, phi0, directions, validity_threshold=threshold)
        grams = block_grams(batch.amplitudes, doubled)
        if measure == "entropy":
            values = entropy_of_blocks(grams)
        elif measure == "concurrence_after_filter":
            level = doubled.index(filter_f.twice)
            values = filtered_concurrence_of_blocks(grams, level)
            if unresolved_levels(batch.amplitudes, batch.omega, doubled)[:, level].any():
                warn_unresolved(filter_f)
        else:
            values = branch_overlap_of_blocks(grams)
        # no scattering takes precedence over the measure's own undefined case
        undefined = np.where(np.isnan(values), _UNDEFINED[measure], 0)
        reasons = np.where(batch.norms > 0.0, undefined, 1)
        measures = np.where(reasons > 0, np.nan, values)
        weights = grams.weights.reshape(len(directions), -1)
        yield ScanMap(
            theta[t], phi[p], directions, measures, reasons, weights, batch.omega, doubled,
            resolution, name,
        )


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
    return chunks[0].replace(**columns)


def argmax_direction(scan: ScanMap) -> tuple[np.ndarray, float]:
    """Maximum over non-flagged nodes; ties go to the smallest (theta, phi)."""
    flagged = scan.flagged
    if flagged.all():
        raise PhysicsError("every node of the scan is flagged")
    best = int(np.argmax(np.where(flagged, -np.inf, scan.measures)))  # first of a tie
    return scan.directions[best].copy(), float(scan.measures[best])


def _csv_head(scan: ScanMap) -> str:
    lines = [f"# {key}={scan.metadata[key]}" for key in sorted(scan.metadata)]
    lines += [f"# measure={scan.measure_name}", f"# resolution_rad={scan.resolution!r}"]
    return "\n".join([*lines, ",".join(scan.columns) + "\n"])


def _rows(scan: ScanMap) -> tuple[str, str]:
    """The nodes' CSV lines and JSON arrays, from one repr of each distinct number.

    A float is written as its repr, as the csv module and ``json`` write it.
    The chunk's float columns repeat themselves (theta along a grid line, phi
    down a column, the pole's direction), so each distinct bit pattern is
    formatted once; keying on bits keeps -0.0 apart from 0.0.  The two files
    differ only in their separators and in two tokens: a flagged node's
    measure is ``nan`` in the CSV and ``null`` in the JSON, and a scored
    node's reason an empty field and ``null``.
    """
    flagged = scan.flagged.tolist()
    names = ("", *FLAG_REASONS)
    reasons = [names[r] for r in scan.flag_reasons.tolist()]
    numbers = np.vstack([
        scan.thetas, scan.phis, scan.directions.T, scan.measures,
        (scan.omega / TWO_PI).T, scan.channel_weights.T,
    ])
    bits, index = np.unique(numbers.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    columns = text[index.reshape(numbers.shape)].tolist()
    fields = [*columns[:6], ["1" if f else "0" for f in flagged], reasons, *columns[6:]]
    csv_rows = "".join([",".join(row) + "\n" for row in zip(*fields)])
    fields[5] = ["null" if f else m for m, f in zip(fields[5], flagged)]
    fields[7] = [f'"{r}"' if r else "null" for r in reasons]
    return csv_rows, ",\n".join(["    [" + ",".join(row) + "]" for row in zip(*fields)])


def _json_head(scan: ScanMap) -> str:
    """The scan JSON up to its first node."""
    head = {
        "columns": scan.columns,
        "format": "raman-pairs/scan-map/2",
        "measure": scan.measure_name,
        "metadata": scan.metadata,
    }
    return json_text(head)[: -len("\n}\n")] + ',\n  "nodes": [\n'


def _require_writable(scan: ScanMap) -> None:
    """Strict JSON: every number written is finite."""
    values = {name: getattr(scan, name) for name in _COLUMNS}
    values["measures"] = scan.measures[~scan.flagged]  # a flagged node's NaN is written null
    values["resolution"] = scan.resolution
    bad = [name for name, value in values.items() if not np.isfinite(value).all()]
    if bad:
        raise PhysicsError(f"scan output has a non-finite number in {', '.join(bad)}")


class ScanFiles(NamedTuple):
    """The files :func:`write_scan` wrote, the node count, the best node as a
    one-row map (flagged if every node is) and the flagged nodes per reason."""

    csv_path: Path
    json_path: Path
    nodes: int
    best: ScanMap
    flag_counts: dict[str, int]


def write_scan(scan: ScanMap | Iterable[ScanMap], prefix: str | Path) -> ScanFiles:
    """Write ``<prefix>.csv`` and strict ``<prefix>.json`` from a map or a
    stream of chunks, one chunk at a time, and keep the running argmax.

    Both files are written in one :func:`~raman_pairs.outputs._all_or_none`:
    an error, such as a non-finite number (a physics error) or a directory
    in the way, leaves both files as they were and no temporary behind.
    """
    prefix = _prefix_path(prefix)
    paths = [prefix.with_name(f"{prefix.name}.{ext}") for ext in ("csv", "json")]
    with _all_or_none(list(zip(("CSV", "JSON"), paths))) as temps:
        return ScanFiles(*paths, *_write_chunks(scan, *temps))


def _write_chunks(scan: ScanMap | Iterable[ScanMap], csv_path: Path, json_path: Path) -> tuple:
    """Write the two files of :func:`write_scan` to the given paths; the node
    count, the best node and the flagged nodes per reason."""
    nodes, best = 0, None
    counts = np.zeros(len(FLAG_REASONS) + 1, dtype=int)
    with (
        open(csv_path, "w", encoding="utf-8") as csv_out,
        open(json_path, "w", encoding="utf-8") as json_out,
    ):
        for chunk in [scan] if isinstance(scan, ScanMap) else scan:
            if not len(chunk.measures):
                continue
            _require_writable(chunk)
            csv_rows, json_rows = _rows(chunk)
            csv_out.write((_csv_head(chunk) if best is None else "") + csv_rows)
            json_out.write((_json_head(chunk) if best is None else ",\n") + json_rows)
            # the first node of a tie wins, as in argmax_direction
            i = int(np.argmax(np.where(chunk.flagged, -np.inf, chunk.measures)))
            if best is None or best.flagged[0] or chunk.measures[i] > best.measures[0]:
                best = chunk.replace(**{c: getattr(chunk, c)[i : i + 1] for c in _COLUMNS})
            counts += np.bincount(chunk.flag_reasons, minlength=len(counts))
            nodes += len(chunk.measures)
        if best is None:
            raise PhysicsError("the scan has no nodes")
        json_out.write(f'\n  ],\n  "resolution_rad": {best.resolution!r}\n}}\n')
    return nodes, best, dict(zip(FLAG_REASONS, counts[1:].tolist()))
