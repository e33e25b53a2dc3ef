"""Entangled atom-photon pair states for N detection directions.

A pump photon scattered into direction k creates one atom-photon pair.  Per
polarization branch lambda the atom lands in the normalized spinor

    S_klambda(F, m) = N^-1 sum_(F'm') G_klambda,pump(F m, F' m') phi0(F' m'),

with N the Euclidean norm of the unnormalized vector, and the branch enters
the joint state with weight N.  The photon label is (frequency channel,
polarization): energy conservation with atomic recoil assigns each final
ground level F its own photon frequency, solving

    omega = omega_L - delta(F) - hbar |K - k(omega)|^2 / (2 m_atom)

as the stable root of a quadratic (delta measured from the lowest ground
level, which is where the condensate sits in the configurations treated
here).

The joint amplitude tensor is normalized and its global phase fixed so that
the lexicographically first nonzero (channel, F, m) entry is real positive;
only relative phases are physical.  Spatial structure is carried solely as
the recoil momentum label hbar(K - k).

One kernel, :func:`pair_batch`, computes all of this as arrays for N
directions at once; :func:`build_pair_state` is its N = 1 case.  A
:class:`PairState` keeps that row as it is: a (2, G) amplitude array over
the sublevels of its final levels, block-diagonal by F, with one photon
frequency per level (``omega``).  A branch's scattered spinor is the row
``norms * phases * amplitudes[:, lambda-1]`` of the batch.  Labels, the
(photon x atom) matrix and the JSON document are views of those arrays, and
:func:`spectral_filter` reuses the kernel's normalization and phase rule.

Each level's sublevels form one 2 x (2F+1) block, laid out on the G axis
by one cached layout per level tuple.  :func:`block_grams` takes the 2 x 2
Gram matrix of every block of N states; a state computes its own once
(``PairState.grams``) and reads its channel probabilities there, as a scan does.

Two channels whose frequencies lie closer than
``DEFAULT_CHANNEL_RESOLUTION`` cannot be told apart by a filter:
:func:`unresolved_levels` is that rule, for single states and scans alike.

:class:`CondensateSpinor` and :class:`Channel` are value records, tuples equal
and hashed by value; the records that hold arrays are identity records, equal
only to themselves.  ``replace`` on a pump or a state builds a new one through
the constructor, so every check runs again.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .angular_momentum import HalfInt, HalfIntLike, halfint
from .atomic_model import AtomSpec, validity_check
from .errors import (
    EmptyStateError,
    InputDomainError,
    OffResonanceError,
    PhysicsError,
)
from .outputs import json_text
from .raman_coupling import (
    branch_amplitudes,
    condensate_factor,
    polarization_bases,
    sequential_sum,
)

__all__ = [
    "PumpConfig",
    "CondensateSpinor",
    "Channel",
    "PairState",
    "PairBatch",
    "pair_batch",
    "BlockGrams",
    "block_grams",
    "build_pair_state",
    "spectral_filter",
    "sodium_condensate",
    "pair_state_to_json",
    "json_text",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in the SI
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, from the exact SI Planck constant

_GEOM_TOL = 1e-12
_NORM_TOL = 1e-12
DEFAULT_CHANNEL_RESOLUTION = 2.0 * np.pi * 1.0e6  # rad/s


def _intensity(amplitude: complex) -> float:
    """|amplitude|^2; infinite where a finite amplitude's square overflows."""
    try:
        return abs(amplitude) ** 2
    except OverflowError:
        return math.inf


class PumpConfig:
    """Undepleted pump laser plus condensate atom number."""

    def __init__(
        self, direction: np.ndarray, polarization: np.ndarray, omega_laser: float,
        pump_amplitude: complex = 1.0 + 0.0j, atom_number: float = 1.0,
    ) -> None:
        # here and in the other constructors every guard fails on NaN
        k = np.asarray(direction, dtype=float)
        pol = np.asarray(polarization, dtype=complex)
        if k.shape != (3,) or pol.shape != (3,):
            raise InputDomainError("pump direction and polarization must be 3-vectors")
        with np.errstate(over="ignore"):  # a huge finite vector fails silently
            k_norm, pol_norm = np.linalg.norm(k), np.linalg.norm(pol)
        if not abs(k_norm - 1.0) <= _GEOM_TOL:
            raise InputDomainError("pump direction must be a unit vector")
        if not abs(pol_norm - 1.0) <= _GEOM_TOL:
            raise InputDomainError("pump polarization must be a unit vector")
        if not abs(np.vdot(pol, k)) <= _GEOM_TOL:
            raise InputDomainError("pump polarization must be transverse")
        if not omega_laser > 0:
            raise InputDomainError("pump frequency must be positive")
        if not atom_number >= 1:
            raise InputDomainError("atom number must be at least 1")
        if not _intensity(pump_amplitude) > 0:  # zero, or a square that underflows
            raise InputDomainError(
                f"pump amplitude must have a positive |amplitude|^2, got {pump_amplitude!r}"
            )
        k.flags.writeable = False
        pol.flags.writeable = False
        self.direction, self.polarization, self.omega_laser = k, pol, omega_laser
        self.pump_amplitude, self.atom_number = pump_amplitude, atom_number

    def replace(self, **changes) -> "PumpConfig":
        """This pump with ``changes``, checked again by the constructor."""
        return PumpConfig(**{**vars(self), **changes})


class CondensateSpinor(NamedTuple("CondensateSpinor", [("amplitudes", tuple)])):
    """Internal state of the source condensate over ground (F', m')."""

    __slots__ = ()

    def __new__(cls, amplitudes: tuple[tuple[tuple[int, int], complex], ...]) -> "CondensateSpinor":
        # squares as products: a huge finite amplitude then makes inf, which
        # fails the guard, where a float power would raise OverflowError
        norm_sq = sum(a.real * a.real + a.imag * a.imag for _, a in amplitudes)
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise InputDomainError(
                f"condensate spinor must be unit norm, got |.|^2 = {norm_sq!r}"
            )
        return super().__new__(cls, amplitudes)

    @classmethod
    def from_dict(cls, amplitudes: dict[tuple[int, int], complex]) -> "CondensateSpinor":
        items = tuple(sorted((k, complex(v)) for k, v in amplitudes.items() if v != 0))
        return cls(items)

    @classmethod
    def single(cls, f: HalfIntLike, m: HalfIntLike) -> "CondensateSpinor":
        f, m = halfint(f), halfint(m)
        return cls((((f.twice, m.twice), 1.0 + 0.0j),))

    def as_dict(self) -> dict[tuple[int, int], complex]:
        return dict(self.amplitudes)

    def vector(self, spec: AtomSpec) -> np.ndarray:
        """Amplitudes over the canonical ground basis of ``spec``."""
        atoms = _sublevels(tuple(f.twice for f, _ in spec.ground_splittings)).atoms
        vec = np.zeros(len(atoms), dtype=complex)
        for key, amp in self.amplitudes:
            if key not in atoms:
                raise InputDomainError(
                    f"condensate occupies (2F,2m)={key}, not a ground sublevel of {spec.name}"
                )
            vec[atoms.index(key)] = amp
        return vec


def sodium_condensate() -> CondensateSpinor:
    """The |F'=1, m'=0> condensate used in the sodium example."""
    return CondensateSpinor.single(1, 0)


def frequency_label(omega: float) -> str:
    """The "omega_hz" part of a channel label, exact to the last bit."""
    return repr(omega / (2.0 * np.pi))


class Channel(NamedTuple):
    """One photon label: frequency (keyed by final F) and polarization index."""

    omega: float
    lam: int
    doubled_f: int

    def key(self) -> str:
        return f"{frequency_label(self.omega)}:{self.lam}"


class _Layout(NamedTuple):
    """The sublevels of a level tuple, F-major with m ascending."""

    level: np.ndarray  # level index of each sublevel g
    tiled: np.ndarray  # level index of each kernel entry (lambda-1) * G + g
    atoms: tuple[tuple[int, int], ...]  # (2F, 2m) of each sublevel
    blocks: np.ndarray  # (nF, dmax) sublevels of each level, padded with G
    pairs: tuple[np.ndarray, np.ndarray]  # a block's column pairs i < j, row-major


@lru_cache(maxsize=32)
def _sublevels(levels: tuple[int, ...]) -> _Layout:
    """The :class:`_Layout` of ``levels``, the doubled F of each level."""
    sizes = np.array([tf + 1 for tf in levels], dtype=int)[:, np.newaxis]
    level = np.repeat(np.arange(len(levels)), sizes[:, 0])
    columns = np.arange(sizes.max(initial=0))
    blocks = np.where(columns < sizes, np.cumsum(sizes, axis=0) - sizes + columns, len(level))
    atoms = tuple((tf, tm) for tf in levels for tm in range(-tf, tf + 1, 2))
    layout = _Layout(level, np.tile(level, 2), atoms, blocks, np.triu_indices(len(columns), 1))
    for arr in (layout.level, layout.tiled, layout.blocks, *layout.pairs):
        arr.flags.writeable = False
    return layout


class BlockGrams:
    """Gram matrices [[a, c], [c*, b]] of the F blocks of N states.

    ``weights[n, lambda-1, i]`` is a (lambda = 1) or b (lambda = 2) of block i,
    i.e. the probability of photon channel (F_i, lambda); ``c_re``, ``c_im``
    and ``det`` have shape (N, nF).  The arrays are read-only.
    """

    def __init__(self, weights: np.ndarray, c_re: np.ndarray, c_im: np.ndarray, det: np.ndarray):
        self.weights, self.c_re, self.c_im, self.det = weights, c_re, c_im, det


def block_grams(amplitudes: np.ndarray, levels: tuple[int, ...]) -> BlockGrams:
    """Per-block Gram matrices of (N, 2, G) amplitudes over the sublevels of ``levels``.

    Every sum over m runs in a fixed order (:func:`sequential_sum`), so a
    state gets the same bits alone or in a batch, and zero padding or
    absent levels leave the results unchanged.
    """
    layout = _sublevels(levels)
    n, _, g = amplitudes.shape
    padded = np.zeros((n, 2, g + 1), dtype=complex)  # column G is the blocks' padding
    padded[:, :, :g] = amplitudes
    blocks = padded[:, :, layout.blocks]  # (N, 2, nF, dmax)
    re, im = blocks.real, blocks.imag
    r0, i0, r1, i1 = re[:, 0], im[:, 0], re[:, 1], im[:, 1]
    p, q = layout.pairs
    left, right = blocks[..., p], blocks[..., q]
    lr0, li0, lr1, li1 = left.real[:, 0], left.imag[:, 0], left.real[:, 1], left.imag[:, 1]
    rr0, ri0, rr1, ri1 = right.real[:, 0], right.imag[:, 0], right.real[:, 1], right.imag[:, 1]
    # minors r0_i r1_j - r0_j r1_i of the 2 x (2F+1) block
    minor_re = (lr0 * rr1 - li0 * ri1) - (rr0 * lr1 - ri0 * li1)
    minor_im = (lr0 * ri1 + li0 * rr1) - (rr0 * li1 + ri0 * lr1)
    grams = BlockGrams(
        weights=sequential_sum(re * re + im * im),
        c_re=sequential_sum(r0 * r1 + i0 * i1),
        c_im=sequential_sum(i0 * r1 - r0 * i1),
        det=sequential_sum(minor_re * minor_re + minor_im * minor_im),
    )
    for arr in vars(grams).values():
        arr.flags.writeable = False
    return grams


class PairState:
    """Joint atom-photon amplitudes for one detection direction: a row of :class:`PairBatch`.

    ``amplitudes[lambda-1, g]`` runs over the sublevels of ``levels`` (2F of
    each final level, ascending), F-major with m ascending.  The photon label
    (F, lambda) pairs only with atomic level F, so entry g sits in the
    channel of its own level, whose frequency is ``omega[i]``.  Labels, the
    matrix and the channel probabilities are views of these arrays over the
    entries that carry amplitude, each computed once.
    """

    def __init__(
        self, amplitudes: np.ndarray, levels: tuple[int, ...], omega: np.ndarray,
        recoil_momentum: np.ndarray, photon_wavevector: np.ndarray, emission_weight: float,
        detection_direction: np.ndarray, pump: PumpConfig,
        unresolved_channel_pairs: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.levels, self.emission_weight, self.pump = tuple(levels), emission_weight, pump
        self.unresolved_channel_pairs = unresolved_channel_pairs
        arrays = (amplitudes, omega, recoil_momentum, photon_wavevector, detection_direction)
        vectors = ("omega", "recoil_momentum", "photon_wavevector", "detection_direction")
        for name, value in zip(("amplitudes", *vectors), arrays):
            arr = np.array(value, dtype=complex if name == "amplitudes" else float)
            arr.flags.writeable = False
            setattr(self, name, arr)
        levels, amps = self.levels, self.amplitudes
        if not levels or levels[0] < 0 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise InputDomainError("levels must be distinct doubled F values, ascending")
        if amps.shape != (2, len(_sublevels(levels).atoms)) or self.omega.shape != (len(levels),):
            raise InputDomainError(
                f"levels {levels} need (2, G) amplitudes over their sublevels and one "
                f"frequency each, got {amps.shape} and {self.omega.shape}"
            )
        if not abs(np.vdot(amps, amps).real - 1.0) <= _NORM_TOL:
            raise InputDomainError("pair state must be unit norm")
        if not (self.omega > 0).all():
            raise InputDomainError("channel frequencies must be positive")
        for name in vectors[1:]:
            if getattr(self, name).shape != (3,):
                raise InputDomainError(f"{name} must be a 3-vector")
        weight = self.emission_weight
        if not isinstance(weight, numbers.Real) or not weight >= 0:  # NaN fails too
            raise InputDomainError(f"emission weight must be real and >= 0, got {weight!r}")

    def replace(self, **changes) -> "PairState":
        """This state with ``changes``, checked again; its views are computed anew."""
        fields = {k: v for k, v in vars(self).items() if k not in vars(PairState)}
        return PairState(**{**fields, **changes})

    @cached_property
    def _view(self) -> tuple:
        """Occupied rows and columns, the matrix over them, and their labels."""
        layout = _sublevels(self.levels)
        nf, g = len(self.levels), len(layout.atoms)
        # each level's amplitudes go to its own rows (lambda-1) * nF + i; a zero
        # entry becomes +0.0 whatever the sign of its parts, so the sign of an
        # all-zero sum downstream (an atan2 argument) cannot flip
        full = np.zeros((2, nf, g), dtype=complex)
        full[:, layout.level, np.arange(g)] = np.where(self.amplitudes != 0.0, self.amplitudes, 0.0)
        full = full.reshape(2 * nf, g)
        rows = np.argsort(np.tile(self.omega, 2), kind="stable")
        rows = rows[full[rows].any(axis=1)]
        cols = np.flatnonzero(full.any(axis=0))
        matrix = full[np.ix_(rows, cols)]
        for arr in (rows, cols, matrix):
            arr.flags.writeable = False
        omega = self.omega.tolist()
        photon = tuple(
            Channel(omega=omega[r % nf], lam=r // nf + 1, doubled_f=self.levels[r % nf])
            for r in rows.tolist()
        )
        return rows, cols, matrix, photon, tuple(layout.atoms[c] for c in cols.tolist())

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Photon rows (lambda-1) * nF + i and sublevels g that carry amplitude.

        Rows come in (omega, lambda, 2F) order, from one stable sort by
        frequency as in :func:`pair_batch`; sublevels ascend.
        """
        return self._view[:2]

    def matrix(self) -> tuple[np.ndarray, tuple[Channel, ...], tuple[tuple[int, int], ...]]:
        """Read-only (photon x atom) amplitudes over the labels that carry amplitude,
        and those photon and atom labels."""
        return self._view[2:]

    def photon_labels(self) -> tuple[Channel, ...]:
        """Channels carrying nonzero amplitude, in (omega, lambda) order."""
        return self.matrix()[1]

    def atom_labels(self) -> tuple[tuple[int, int], ...]:
        """(2F, 2m) labels carrying nonzero amplitude, ascending."""
        return self.matrix()[2]

    @cached_property
    def grams(self) -> BlockGrams:
        """:func:`block_grams` of this state, as N = 1 arrays, computed once."""
        return block_grams(self.amplitudes[np.newaxis], self.levels)

    def channel_probabilities(self) -> tuple[tuple[Channel, float], ...]:
        """Each occupied channel's probability: its block weight, as in a scan."""
        probs = self.grams.weights.reshape(-1)[self.support()[0]]
        return tuple(zip(self.photon_labels(), probs.tolist()))


def _photon_frequencies(spec: AtomSpec, pump: PumpConfig, k: np.ndarray) -> np.ndarray:
    """Photon frequency per (direction, final ground level), with recoil.

    With base = omega_L - delta(F) and a = hbar / (2 M c^2), the recoil shift
    delta = base - omega solves a delta^2 - B delta + delta0 = 0, where
    delta0 = a (omega_L^2 + base^2 - 2 omega_L base cos) and
    B = 1 + 2a (base - omega_L cos).  The small root, taken as
    2 delta0 / (B + sqrt(B^2 - 4 a delta0)), cancels nothing, so omega keeps
    its last bits; it is elementwise, so a batch changes no bits.
    """
    px, py, pz = pump.direction
    cos_angle = (k[:, 0:1] * px + k[:, 1:2] * py) + k[:, 2:3] * pz
    laser = pump.omega_laser
    base = laser - np.array([delta for _, delta in spec.ground_splittings])
    a = HBAR / (2.0 * spec.mass * SPEED_OF_LIGHT * SPEED_OF_LIGHT)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta0 = a * (laser * laser + base * base - 2.0 * laser * base * cos_angle)
        b = 1.0 + 2.0 * a * (base - laser * cos_angle)
        omega = base - 2.0 * delta0 / (b + np.sqrt(b * b - 4.0 * a * delta0))
    if not (omega > 0.0).all():
        raise PhysicsError("the recoil leaves the optical regime: no positive frequency")
    return omega


def _normalize_and_phase(
    rows: np.ndarray, omega: np.ndarray, level: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize (N, 2G) rows and fix their global phase.

    ``omega[n, i]`` is the photon frequency of level i and ``level`` the
    level of each flat entry (lambda-1) * G + g.  The first nonzero entry in
    (channel, atom) order becomes real positive: channels sort by (omega,
    lambda, 2F) and atoms by 2m, and since the flat entries already run in
    (lambda, 2F, 2m) order, a stable sort by frequency gives that order.
    Returns the amplitudes, the squared norms and the removed phase factors;
    an all-zero row stays all zero.
    """
    n, g = rows.shape[0], rows.shape[1] // 2
    order = np.argsort(omega[:, level], axis=1, kind="stable")
    re, im = rows.real, rows.imag
    squares = re * re + im * im
    total_sq = sequential_sum(squares[:, :g] + squares[:, g:])  # both branches per sublevel
    index = np.arange(n)
    nonzero = (re != 0.0) | (im != 0.0)
    ref = order[index, nonzero[index[:, np.newaxis], order].argmax(axis=1)]
    first_re, first_im = re[index, ref], im[index, ref]
    nonempty = total_sq > 0.0
    first = np.hypot(first_re, first_im)
    safe_first = np.where(nonempty, first, 1.0)
    phases = np.empty(n, dtype=complex)
    phases.real = first_re / safe_first
    phases.imag = first_im / safe_first
    scale = np.where(nonempty, np.sqrt(total_sq), 1.0)[:, np.newaxis]
    cos_p = phases.real[:, np.newaxis]
    sin_p = phases.imag[:, np.newaxis]
    amplitudes = np.empty(rows.shape, dtype=complex)
    amplitudes.real = (re * cos_p + im * sin_p) / scale
    amplitudes.imag = (im * cos_p - re * sin_p) / scale
    amplitudes[index, ref] = np.where(nonempty, first / scale[:, 0], 0.0)
    return amplitudes, total_sq, phases


class PairBatch:
    """Pair states of N detection directions as arrays.

    ``amplitudes[n, lambda-1, g]`` is the joint amplitude over the canonical
    ground basis, normalized and phase-fixed as in :class:`PairState`.  The
    scattered amplitudes are ``norms * phases * amplitudes``: ``norms`` holds
    their Euclidean norm and ``phases`` the removed global phase factor; a
    direction where nothing scatters has ``norms`` 0 and all-zero
    amplitudes.  ``weights`` is the emission weight and ``omega[n, i]`` the
    photon frequency of final level ``spec.ground_levels()[i]``.
    """

    def __init__(self, directions, amplitudes, norms, phases, weights, omega) -> None:
        self.directions, self.amplitudes, self.norms = directions, amplitudes, norms
        self.phases, self.weights, self.omega = phases, weights, omega


def pair_batch(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hats: np.ndarray,
    *,
    validity_threshold: float = 100.0,
) -> PairBatch:
    """The pair-state kernel: (N, 3) unit detection directions to N states.

    The direction-independent condensate factor is computed once per batch;
    each direction then costs one 3-term contraction per amplitude.  All
    per-direction arithmetic is elementwise or summed in a fixed order, so
    the result for a direction does not depend on N or on its place in the
    batch.  A pump that fails :func:`~raman_pairs.atomic_model.validity_check`
    at ``validity_threshold`` raises :class:`OffResonanceError`; a threshold
    of 0 lets every pump through except an exact resonance.
    """
    k = np.asarray(k_hats, dtype=float)
    if k.ndim != 2 or k.shape[1] != 3:
        raise InputDomainError("detection directions must have shape (N, 3)")
    lengths = np.sqrt(k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1] + k[:, 2] * k[:, 2])
    if not (abs(lengths - 1.0) <= _GEOM_TOL).all():
        raise InputDomainError("detection direction must be a unit vector")
    report = validity_check(spec, pump.omega_laser, validity_threshold)
    if not report.passed:
        raise OffResonanceError(
            "far off-resonant condition |Delta(F')| >> Gamma violated: " + report.describe()
        )

    polarizations = polarization_bases(k)
    factor = condensate_factor(spec, pump.omega_laser, pump.polarization, phi0.vector(spec))
    n, g = len(k), factor.shape[0]
    rows = branch_amplitudes(factor, polarizations).reshape(n, 2 * g)
    omega = _photon_frequencies(spec, pump, k)
    level = _sublevels(tuple(f.twice for f, _ in spec.ground_splittings)).tiled
    amplitudes, total_sq, phases = _normalize_and_phase(rows, omega, level)
    return PairBatch(
        directions=k,
        amplitudes=amplitudes.reshape(n, 2, g),
        norms=np.sqrt(total_sq),
        phases=phases,
        weights=pump.atom_number * _intensity(pump.pump_amplitude) * total_sq,
        omega=omega,
    )


def _one_direction(k_hat: np.ndarray) -> np.ndarray:
    k = np.asarray(k_hat, dtype=float)
    if k.shape != (3,):
        raise InputDomainError("detection direction must be a 3-vector")
    return k[np.newaxis]


def unresolved_levels(
    amplitudes: np.ndarray, omega: np.ndarray, levels: tuple[int, ...]
) -> np.ndarray:
    """Pairs of levels whose photon channels no filter can separate, as an (N, nF, nF) mask.

    ``amplitudes`` (N, 2, G) and ``omega`` (N, nF) are rows of the kernel
    over ``levels``.  Entry [n, i, j] is set where levels i != j both carry
    amplitude and their frequencies differ by less than
    ``DEFAULT_CHANNEL_RESOLUTION``.
    """
    rows, sublevels = np.nonzero(amplitudes.any(axis=1))
    present = np.zeros(omega.shape, dtype=bool)
    present[rows, _sublevels(levels).level[sublevels]] = True
    both = present[:, :, np.newaxis] & present[:, np.newaxis, :]
    close = np.abs(omega[:, :, np.newaxis] - omega[:, np.newaxis, :]) < DEFAULT_CHANNEL_RESOLUTION
    return both & close & ~np.eye(len(levels), dtype=bool)


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn_unresolved(f: HalfIntLike) -> None:
    """Warn that the selected level's channel overlaps a neighbor's: a ``UserWarning``
    attributed to the first frame outside this package, whichever public
    function, generator or CLI command led here."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"selected channel F={halfint(f)} is not spectrally resolvable from its "
        f"neighbor at the configured resolution",
        stacklevel=level,
    )


def warn_if_unresolved(state: PairState, f: HalfInt) -> None:
    """:func:`warn_unresolved` if level ``f`` of ``state`` is in one of its
    unresolved pairs."""
    if any(f.twice in pair for pair in state.unresolved_channel_pairs):
        warn_unresolved(f)


def build_pair_state(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hat: np.ndarray,
    *,
    validity_threshold: float = 100.0,
) -> PairState:
    """Assemble the normalized joint state over (channel x polarization) x (F, m)."""
    batch = pair_batch(
        spec, pump, phi0, _one_direction(k_hat), validity_threshold=validity_threshold
    )
    if not batch.norms[0] > 0.0:
        raise EmptyStateError(
            "no scattering amplitude into this direction for the given pump "
            "and condensate"
        )
    if not batch.weights[0] > 0.0:
        raise EmptyStateError(
            "the emission weight into this direction underflows to zero: the pump "
            "intensity times the atom number is too small"
        )

    levels = tuple(f.twice for f in spec.ground_levels())
    omegas = batch.omega[0].tolist()
    pairs = np.argwhere(unresolved_levels(batch.amplitudes, batch.omega, levels)[0]).tolist()
    unresolved = tuple((levels[i], levels[j]) for i, j in pairs if i < j)

    # Reference photon wavevector: the elastic channel of the lowest ground
    # level.  Channel frequencies differ from it only at the 1e-9 level.
    k = batch.directions[0]
    k_out = k * (omegas[0] / SPEED_OF_LIGHT)
    k_pump_vec = pump.direction * (pump.omega_laser / SPEED_OF_LIGHT)
    recoil = HBAR * k_pump_vec - HBAR * k_out

    return PairState(
        amplitudes=batch.amplitudes[0],
        levels=levels,
        omega=batch.omega[0],
        recoil_momentum=recoil,
        photon_wavevector=k_out,
        emission_weight=float(batch.weights[0]),
        detection_direction=k.copy(),
        pump=pump,
        unresolved_channel_pairs=unresolved,
    )


def spectral_filter(state: PairState, f_select: HalfIntLike) -> PairState:
    """Project onto the frequency channel of one final F and renormalize.

    The other levels are zeroed, and normalization and global phase follow
    the rule of :func:`pair_batch`.
    """
    f = halfint(f_select)
    level = _sublevels(state.levels).tiled
    keep = np.array(state.levels)[level] == f.twice
    rows = np.where(keep, state.amplitudes.ravel(), 0.0)[np.newaxis]
    amplitudes, total_sq, _ = _normalize_and_phase(rows, state.omega[np.newaxis], level)
    if not total_sq[0] > 0.0:
        raise EmptyStateError(
            f"the F={f} frequency channel carries zero probability; nothing to select"
        )
    warn_if_unresolved(state, f)
    return state.replace(amplitudes=amplitudes.reshape(2, -1))


# --- serialization ----------------------------------------------------------


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair_state_csv(state: PairState, provenance: dict) -> str:
    """CSV text: the provenance as sorted comment lines, then one row per nonzero
    amplitude, in channel and then atom order."""
    lines = [f"# {key}={provenance[key]}\n" for key in sorted(provenance)]
    lines.append("omega_hz,lambda,doubled_F,doubled_m,amp_re,amp_im\n")
    matrix, photon, atoms = state.matrix()
    for ch, row in zip(photon, matrix.tolist()):
        omega = frequency_label(ch.omega)
        lines += [
            f"{omega},{ch.lam},{tf},{tm},{amp.real!r},{amp.imag!r}\n"
            for (tf, tm), amp in zip(atoms, row)
            if amp != 0.0
        ]
    return "".join(lines)


def pair_state_to_json(state: PairState, provenance: dict | None = None) -> dict:
    """JSON-ready document; channels keyed "omega_hz:lambda", atoms "2F:2m".

    Two levels of one float frequency would share their keys: a physics error."""
    matrix, photon, atoms = state.matrix()
    channels: dict[str, Channel] = {}
    for ch in photon:
        other = channels.setdefault(ch.key(), ch)
        if other is not ch:
            raise PhysicsError(
                f"levels 2F={other.doubled_f} and 2F={ch.doubled_f} have photon frequencies "
                f"equal as floats, so their channels share the key {ch.key()!r}"
            )
    amplitude_doc = {
        key: {
            f"{tf}:{tm}": _complex_pair(amp)
            for (tf, tm), amp in zip(atoms, row.tolist())
            if amp != 0.0
        }
        for key, row in zip(channels, matrix)
    }
    pump = state.pump
    doc = {
        "format": "raman-pairs/pair-state/1",
        "detection_direction": [float(x) for x in state.detection_direction],
        "channels": [
            {
                "key": key,
                "omega_hz": ch.omega / (2.0 * np.pi),
                "lambda": ch.lam,
                "doubled_f": ch.doubled_f,
            }
            for key, ch in channels.items()
        ],
        "amplitudes": amplitude_doc,
        "recoil_momentum_kg_m_per_s": [float(x) for x in state.recoil_momentum],
        "photon_wavevector_rad_per_m": [float(x) for x in state.photon_wavevector],
        "emission_weight": state.emission_weight,
        "unresolved_channel_pairs": [list(p) for p in state.unresolved_channel_pairs],
        "pump": {
            "direction": [float(x) for x in pump.direction],
            "polarization": [_complex_pair(z) for z in pump.polarization],
            "laser_hz": pump.omega_laser / (2.0 * np.pi),
            "amplitude": _complex_pair(pump.pump_amplitude),
            "atom_number": pump.atom_number,
        },
        "provenance": provenance or {},
    }
    return doc
