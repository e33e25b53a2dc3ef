"""Entangled atom-photon pair states for N detection directions.

A pump photon scattered into direction k creates one atom-photon pair.  Per
polarization branch lambda the atom lands in the normalized spinor

    S_klambda(F, m) = N^-1 sum_(F'm') G_klambda,pump(F m, F' m') phi0(F' m'),

with N the Euclidean norm of the unnormalized vector, and the branch enters
the joint state with weight N.  The photon label is (final level,
polarization): energy conservation with atomic recoil assigns each final
ground level F its own photon frequency, solving

    omega = omega_L - delta(F) - hbar |K - k(omega)|^2 / (2 m_atom)

as the stable root of a quadratic (delta measured from the lowest ground
level, which is where the condensate sits in the configurations treated
here).

A photon channel is named by its level and polarization, (F, lambda), never
by its frequency, so two levels of one float frequency stay two channels:
photon row ``(lambda-1) * nF + i`` is channel (level i, lambda), the order
of the scan's channel columns, and the labels, the matrix and the state
documents list channels in that order.  The joint amplitude tensor is
normalized and its global phase fixed so that the first nonzero entry in
that (channel, F, m) order is real positive; only relative phases are
physical.  Spatial structure is carried solely as the recoil momentum label
hbar(K - k), which a state derives per channel, with the photon wavevector
k, from its detection direction, frequencies and pump.

One kernel, :func:`pair_batch`, computes all of this as arrays for N
directions at once; :func:`build_pair_state` is its N = 1 case.  A
:class:`PairState` keeps that row as it is: a (2, G) amplitude array over
the sublevels of its final levels, block-diagonal by F, with one photon
frequency per level (``omega``), from which it derives one photon wavevector
and one recoil per level.  A branch's scattered spinor is the row
``norms * phases * amplitudes[:, lambda-1]`` of the batch.  Labels, the
(photon x atom) matrix and the JSON document are views of those arrays, and
:func:`spectral_filter` reuses the kernel's normalization and phase rule.

Each level's sublevels form one 2 x (2F+1) block, laid out on the G axis
by ``atomic_model._sublevels``, the one cached layout per level tuple; the
kernel's G axis is the species' ground layout (``atomic_model._ground_layout``).
:func:`block_grams` takes the 2 x 2 Gram matrix of every block of N states; a
state computes its own once (``PairState.grams``) and reads its channel
probabilities there, as a scan does.  The species' reduced dipole D enters
only the emission weight, as D^4.

Two channels whose frequencies lie closer than
``DEFAULT_CHANNEL_RESOLUTION`` cannot be told apart by a filter:
:func:`unresolved_levels` is that rule, for single states and scans alike.

:class:`CondensateSpinor` and :class:`Channel` are value records, tuples equal
and hashed by value; the records that hold arrays are identity records, equal
only to themselves.  ``replace`` on a pump or a state builds a new one through
the constructor, so every check runs again; it takes no derived value.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import warnings
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .angular_momentum import HalfInt, HalfIntLike, halfint
from .atomic_model import DEFAULT_VALIDITY_THRESHOLD, AtomSpec, _ground_layout, _sublevels
from .atomic_model import TWO_PI, validity_check
from .errors import InputDomainError, PhysicsError
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
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in the SI
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, from the exact SI Planck constant

_GEOM_TOL = 1e-12
_NORM_TOL = 1e-12
DEFAULT_CHANNEL_RESOLUTION = TWO_PI * 1.0e6  # rad/s
# the inputs whose product scales the emission weight
_WEIGHT_FACTORS = "|pump.amplitude|^2 times pump.atom_number times the species' reduced_dipole^4"
# the refusal to select a level that carries nothing, formatted with its F
_EMPTY_CHANNEL = "the F={} frequency channel carries zero probability; nothing to select"


def _norm(vector: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float or complex ``vector``, by the same dot
    products and so to the same bits, without its dispatch."""
    x = vector.ravel()
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def _intensity_frexp(amplitude: complex) -> tuple[float, int]:
    """|amplitude|^2 as the (mantissa, exponent) of ``math.frexp``, also where
    the square overflows or is subnormal: the mantissa of ``abs(amplitude) ** 2``
    wherever that is finite and normal, else of the square of ``amplitude``
    scaled by a power of two."""
    try:
        square = abs(amplitude) ** 2
    except OverflowError:
        square = math.inf
    if sys.float_info.min <= square < math.inf:
        return math.frexp(square)
    e = math.frexp(max(abs(amplitude.real), abs(amplitude.imag)))[1]
    scaled = complex(math.ldexp(amplitude.real, -e), math.ldexp(amplitude.imag, -e))
    m, scaled_e = math.frexp(abs(scaled) ** 2)
    return m, scaled_e + 2 * e


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
            k_norm, pol_norm = _norm(k), _norm(pol)
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
        # zero or NaN; a square that underflows is left to the emission weight's verdicts
        if not abs(pump_amplitude.real) + abs(pump_amplitude.imag) > 0:
            raise InputDomainError(f"pump amplitude must be nonzero, got {pump_amplitude!r}")
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
        vec = np.zeros(len(_ground_layout(spec).atoms), dtype=complex)
        for key, amp in self.amplitudes:
            vec[_ground_index(spec, key)] = amp
        return vec


def _ground_index(spec: AtomSpec, key: tuple[int, int]) -> int:
    """The index of the sublevel ``key`` = (2F, 2m) in the canonical ground
    basis of ``spec``, its ground layout; a key that is not there raises."""
    atoms = _ground_layout(spec).atoms
    if key not in atoms:
        raise InputDomainError(
            f"condensate occupies (2F,2m)={key}, not a ground sublevel of {spec.name}"
        )
    return atoms.index(key)


def sodium_condensate() -> CondensateSpinor:
    """The |F'=1, m'=0> condensate used in the sodium example."""
    return CondensateSpinor.single(1, 0)


class Channel(NamedTuple):
    """One photon label: the final level's frequency, the polarization index and
    that level's 2F; (2F, lambda) names it."""

    omega: float
    lam: int
    doubled_f: int

    def key(self) -> str:
        return f"{self.doubled_f}:{self.lam}"


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
        emission_weight: float, detection_direction: np.ndarray, pump: PumpConfig,
        unresolved_channel_pairs: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.levels, self.emission_weight, self.pump = tuple(levels), emission_weight, pump
        self.unresolved_channel_pairs = unresolved_channel_pairs
        self.amplitudes = np.array(amplitudes, dtype=complex)
        self.omega = np.array(omega, dtype=float)
        self.detection_direction = np.array(detection_direction, dtype=float)
        for arr in (self.amplitudes, self.omega, self.detection_direction):
            arr.flags.writeable = False
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
        if self.detection_direction.shape != (3,):
            raise InputDomainError("detection_direction must be a 3-vector")
        weight = self.emission_weight
        if not isinstance(weight, numbers.Real) or not weight >= 0:  # NaN fails too
            raise InputDomainError(f"emission weight must be real and >= 0, got {weight!r}")

    def replace(self, **changes) -> "PairState":
        """This state with ``changes``, checked again; its views are computed anew."""
        fields = {k: v for k, v in vars(self).items() if k not in vars(PairState)}
        return PairState(**{**fields, **changes})

    @property
    def photon_wavevector(self) -> np.ndarray:
        """k = k_hat omega/c in rad/m, one row per level, as ``omega``: each
        channel's photon has the frequency of its own level."""
        return self.detection_direction * (self.omega[:, np.newaxis] / SPEED_OF_LIGHT)

    @property
    def recoil_momentum(self) -> np.ndarray:
        """The atom's recoil hbar (K - k) in kg m/s, with K the pump's
        wavevector, one row per level, as :attr:`photon_wavevector`."""
        k_pump_vec = self.pump.direction * (self.pump.omega_laser / SPEED_OF_LIGHT)
        return HBAR * k_pump_vec - HBAR * self.photon_wavevector

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
        rows = np.flatnonzero(full.any(axis=1))
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
        """Photon rows (lambda-1) * nF + i and sublevels g that carry amplitude,
        both ascending: channels in (lambda, level) order, as a scan's columns."""
        return self._view[:2]

    def matrix(self) -> tuple[np.ndarray, tuple[Channel, ...], tuple[tuple[int, int], ...]]:
        """Read-only (photon x atom) amplitudes over the labels that carry amplitude,
        and those photon and atom labels."""
        return self._view[2:]

    def photon_labels(self) -> tuple[Channel, ...]:
        """Channels carrying nonzero amplitude, in (lambda, level) order."""
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
    for level, delta in spec.ground_splittings:
        if not laser > delta:  # no photon, whatever the recoil
            raise PhysicsError(
                f"the laser at {laser / TWO_PI:.12g} Hz is not above the F={level} ground "
                f"splitting of {delta / TWO_PI:.12g} Hz: that Raman channel is energetically closed"
            )
    base = laser - np.array([delta for _, delta in spec.ground_splittings])
    a = HBAR / (2.0 * spec.mass * SPEED_OF_LIGHT * SPEED_OF_LIGHT)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        delta0 = a * (laser * laser + base * base - 2.0 * laser * base * cos_angle)
        b = 1.0 + 2.0 * a * (base - laser * cos_angle)
        omega = base - 2.0 * delta0 / (b + np.sqrt(b * b - 4.0 * a * delta0))
    if not (omega > 0.0).all():
        raise PhysicsError("the recoil leaves the optical regime: no positive frequency")
    return omega


def _normalize_and_phase(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize (N, 2G) rows and fix their global phase.

    The first nonzero flat entry (lambda-1) * G + g becomes real positive.
    The flat entries run in (lambda, 2F, 2m) order, which is the published
    (channel, atom) order of :meth:`PairState.matrix`.  Returns the
    amplitudes, the squared norms and the removed phase factors; an
    all-zero row stays all zero.
    """
    n, g = rows.shape[0], rows.shape[1] // 2
    re, im = rows.real, rows.imag
    squares = re * re + im * im
    total_sq = sequential_sum(squares[:, :g] + squares[:, g:])  # both branches per sublevel
    index = np.arange(n)
    nonzero = (re != 0.0) | (im != 0.0)
    ref = nonzero.argmax(axis=1)
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
    photon frequency of final level ``spec.ground_levels()[i]``.  The
    amplitudes do not depend on the species' reduced dipole D, which enters
    the weights alone, as D^4.
    """

    def __init__(self, amplitudes, norms, phases, weights, omega) -> None:
        self.amplitudes, self.norms, self.phases = amplitudes, norms, phases
        self.weights, self.omega = weights, omega


def pair_batch(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hats: np.ndarray,
    *,
    validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD,
) -> PairBatch:
    """The pair-state kernel: (N, 3) unit detection directions to N states.

    The direction-independent condensate factor is computed once per batch;
    each direction then costs one 3-term contraction per amplitude.  All
    per-direction arithmetic is elementwise or summed in a fixed order, so
    the result for a direction does not depend on N or on its place in the
    batch.  A pump that fails :func:`~raman_pairs.atomic_model.validity_check`
    at ``validity_threshold`` raises :class:`PhysicsError`; a threshold
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
        raise PhysicsError(
            "far off-resonant condition |Delta(F')| >> Gamma violated: " + report.describe()
        )

    polarizations = polarization_bases(k)
    factor = condensate_factor(spec, pump.omega_laser, pump.polarization, phi0.vector(spec))
    n, g = len(k), factor.shape[0]
    rows = branch_amplitudes(factor, polarizations).reshape(n, 2 * g)
    omega = _photon_frequencies(spec, pump, k)
    amplitudes, total_sq, phases = _normalize_and_phase(rows)
    # N |a|^2 (D D) (D D) total_sq in that order, on mantissas with the exponents
    # summed apart: no one factor's overflow or underflow decides the weight,
    # whose bits are the plain product's wherever its partial products are normal
    n_m, n_e = math.frexp(pump.atom_number)
    a_m, a_e = _intensity_frexp(pump.pump_amplitude)
    d_m, d_e = math.frexp(spec.reduced_dipole)
    t_m, t_e = np.frexp(total_sq)
    with np.errstate(over="ignore", invalid="ignore"):  # an empty direction weighs 0
        weights = np.ldexp(n_m * a_m * (d_m * d_m) * (d_m * d_m) * t_m, n_e + a_e + 4 * d_e + t_e)
        weights = np.where(total_sq > 0.0, weights, 0.0)
    return PairBatch(
        amplitudes=amplitudes.reshape(n, 2, g),
        norms=np.sqrt(total_sq),
        phases=phases,
        weights=weights,
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
    validity_threshold: float = DEFAULT_VALIDITY_THRESHOLD,
) -> PairState:
    """Assemble the normalized joint state over (channel x polarization) x (F, m)."""
    k = _one_direction(k_hat)
    batch = pair_batch(spec, pump, phi0, k, validity_threshold=validity_threshold)
    if not batch.norms[0] > 0.0:
        raise PhysicsError(
            "no scattering amplitude into this direction for the given pump "
            "and condensate"
        )
    if not batch.weights[0] > 0.0:
        raise PhysicsError(
            f"the emission weight into this direction underflows to zero: {_WEIGHT_FACTORS} "
            "is too small"
        )

    levels = _ground_layout(spec).levels
    pairs = np.argwhere(unresolved_levels(batch.amplitudes, batch.omega, levels)[0]).tolist()
    unresolved = tuple((levels[i], levels[j]) for i, j in pairs if i < j)
    return PairState(
        amplitudes=batch.amplitudes[0],
        levels=levels,
        omega=batch.omega[0],
        emission_weight=float(batch.weights[0]),
        detection_direction=k[0],
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
    amplitudes, total_sq, _ = _normalize_and_phase(rows)
    if not total_sq[0] > 0.0:
        raise PhysicsError(_EMPTY_CHANNEL.format(f))
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
        omega = repr(ch.omega / TWO_PI)
        lines += [
            f"{omega},{ch.lam},{tf},{tm},{amp.real!r},{amp.imag!r}\n"
            for (tf, tm), amp in zip(atoms, row)
            if amp != 0.0
        ]
    return "".join(lines)


def pair_state_to_json(state: PairState, provenance: dict | None = None) -> dict:
    """JSON-ready document; channels keyed "2F:lambda" in the order of
    :meth:`PairState.photon_labels`, atoms "2F:2m".

    Each channel carries its level's frequency, photon wavevector and recoil.
    An emission weight that overflows has no JSON number: a physics error."""
    if not math.isfinite(state.emission_weight):
        raise PhysicsError(
            "the emission weight into this direction overflows to a non-finite number: "
            f"{_WEIGHT_FACTORS} is too large"
        )
    matrix, photon, atoms = state.matrix()
    wavevector, recoil = state.photon_wavevector.tolist(), state.recoil_momentum.tolist()
    level = (state.support()[0] % len(state.levels)).tolist()  # each channel's level index
    pump = state.pump
    doc = {
        "format": "raman-pairs/pair-state/2",
        "detection_direction": state.detection_direction.tolist(),
        "channels": [
            {
                "key": ch.key(),
                "omega_hz": ch.omega / TWO_PI,
                "lambda": ch.lam,
                "doubled_f": ch.doubled_f,
                "photon_wavevector_rad_per_m": wavevector[i],
                "recoil_momentum_kg_m_per_s": recoil[i],
            }
            for ch, i in zip(photon, level)
        ],
        "amplitudes": {
            ch.key(): {
                f"{tf}:{tm}": [amp.real, amp.imag]
                for (tf, tm), amp in zip(atoms, row)
                if amp != 0.0
            }
            for ch, row in zip(photon, matrix.tolist())
        },
        "emission_weight": state.emission_weight,
        "unresolved_channel_pairs": [list(p) for p in state.unresolved_channel_pairs],
        "pump": {
            "direction": pump.direction.tolist(),
            "polarization": [[z.real, z.imag] for z in pump.polarization.tolist()],
            "laser_hz": pump.omega_laser / TWO_PI,
            "amplitude": _complex_pair(pump.pump_amplitude),
            "atom_number": pump.atom_number,
        },
        "provenance": provenance or {},
    }
    return doc
