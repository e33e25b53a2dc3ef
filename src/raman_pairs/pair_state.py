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
directions at once; :func:`build_pair_state` and :func:`scattered_spinor`
are its N = 1 case.  A :class:`PairState` keeps that row as it is: a (2, G)
amplitude array over the sublevels of its final levels, block-diagonal by
F, with one photon frequency per level.  Labels, the (photon x atom) matrix,
channel probabilities and the JSON document are views of those arrays, and
:func:`spectral_filter` reuses the kernel's normalization and phase rule.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .angular_momentum import HalfIntLike, halfint
from .atomic_model import AtomSpec, validity_check
from .errors import (
    EmptyStateError,
    InputDomainError,
    OffResonanceError,
    PhysicsError,
)
from .raman_coupling import (
    branch_amplitudes,
    condensate_factor,
    ground_basis,
    polarization_bases,
    sequential_sum,
)

__all__ = [
    "PumpConfig",
    "CondensateSpinor",
    "ScatteredSpinor",
    "Channel",
    "PairState",
    "PairBatch",
    "pair_batch",
    "scattered_spinor",
    "photon_frequency",
    "build_pair_state",
    "spectral_filter",
    "pair_state_to_json",
    "pair_state_from_json",
    "json_text",
]

SPEED_OF_LIGHT = 299792458.0  # m/s, exact in the SI
HBAR = 6.62607015e-34 / (2 * math.pi)  # J s, from the exact SI Planck constant

_GEOM_TOL = 1e-12
_NORM_TOL = 1e-12
DEFAULT_CHANNEL_RESOLUTION = 2.0 * np.pi * 1.0e6  # rad/s


@dataclass(frozen=True, eq=False)
class PumpConfig:
    """Undepleted pump laser plus condensate atom number."""

    direction: np.ndarray
    polarization: np.ndarray
    omega_laser: float
    pump_amplitude: complex = 1.0 + 0.0j
    atom_number: float = 1.0

    def __post_init__(self) -> None:
        # here and in the other constructors every guard fails on NaN
        k = np.asarray(self.direction, dtype=float)
        pol = np.asarray(self.polarization, dtype=complex)
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
        if not self.omega_laser > 0:
            raise InputDomainError("pump frequency must be positive")
        if not self.atom_number >= 1:
            raise InputDomainError("atom number must be at least 1")
        k.flags.writeable = False
        pol.flags.writeable = False
        object.__setattr__(self, "direction", k)
        object.__setattr__(self, "polarization", pol)


@dataclass(frozen=True)
class CondensateSpinor:
    """Internal state of the source condensate over ground (F', m')."""

    amplitudes: tuple[tuple[tuple[int, int], complex], ...]

    def __post_init__(self) -> None:
        norm_sq = sum(abs(a) ** 2 for _, a in self.amplitudes)
        if not abs(norm_sq - 1.0) <= _NORM_TOL:
            raise InputDomainError(
                f"condensate spinor must be unit norm, got |.|^2 = {norm_sq!r}"
            )

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
        basis = ground_basis(spec)
        index = {(g.f.twice, g.m.twice): i for i, g in enumerate(basis)}
        vec = np.zeros(len(basis), dtype=complex)
        for key, amp in self.amplitudes:
            if key not in index:
                raise InputDomainError(
                    f"condensate occupies (2F,2m)={key}, not a ground sublevel of {spec.name}"
                )
            vec[index[key]] = amp
        return vec


def sodium_condensate() -> CondensateSpinor:
    """The |F'=1, m'=0> condensate used in the sodium example."""
    return CondensateSpinor.single(1, 0)


@dataclass(frozen=True, eq=False)
class ScatteredSpinor:
    """Normalized internal state of the scattered atom for one branch."""

    amplitudes: tuple[tuple[tuple[int, int], complex], ...]
    normalization: float

    def __post_init__(self) -> None:
        if not self.normalization >= 0:
            raise InputDomainError("branch normalization must be non-negative")
        if (self.normalization == 0.0) != (len(self.amplitudes) == 0):
            raise InputDomainError("zero normalization must pair with an empty spinor")
        if self.amplitudes:
            norm_sq = sum(abs(a) ** 2 for _, a in self.amplitudes)
            if not abs(norm_sq - 1.0) <= _NORM_TOL:
                raise InputDomainError("scattered spinor must be unit norm")

    @property
    def is_empty(self) -> bool:
        return self.normalization == 0.0

    def as_dict(self) -> dict[tuple[int, int], complex]:
        return dict(self.amplitudes)


def frequency_label(omega: float) -> str:
    """The "omega_hz" part of a channel label, exact to the last bit."""
    return repr(omega / (2.0 * np.pi))


@dataclass(frozen=True, order=True)
class Channel:
    """One photon label: frequency (keyed by final F) and polarization index."""

    omega: float
    lam: int
    doubled_f: int

    def key(self) -> str:
        return f"{frequency_label(self.omega)}:{self.lam}"


@lru_cache(maxsize=32)
def _sublevels(levels: tuple[int, ...]) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Level index and (2F, 2m) label of each sublevel of ``levels``, F-major, m ascending."""
    atoms = tuple((tf, tm) for tf in levels for tm in range(-tf, tf + 1, 2))
    level = np.repeat(np.arange(len(levels)), [tf + 1 for tf in levels])
    level.flags.writeable = False
    return level, atoms


@dataclass(frozen=True, eq=False)
class PairState:
    """Joint atom-photon amplitudes for one detection direction: a row of :class:`PairBatch`.

    ``amplitudes[lambda-1, g]`` runs over the sublevels of ``levels`` (2F of
    each final level, ascending), F-major with m ascending.  The photon label
    (F, lambda) pairs only with atomic level F, so entry g sits in the
    channel of its own level, whose frequency is ``omega[i]``.  Labels, the
    matrix and the channel probabilities are views of these arrays over the
    entries that carry amplitude.
    """

    amplitudes: np.ndarray
    levels: tuple[int, ...]
    omega: np.ndarray
    recoil_momentum: np.ndarray
    photon_wavevector: np.ndarray
    emission_weight: float
    detection_direction: np.ndarray
    pump: PumpConfig
    unresolved_channel_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        vectors = ("omega", "recoil_momentum", "photon_wavevector", "detection_direction")
        for name in ("amplitudes", *vectors):
            arr = np.array(getattr(self, name), dtype=complex if name == "amplitudes" else float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        levels, amps = self.levels, self.amplitudes
        if not levels or levels[0] < 0 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise InputDomainError("levels must be distinct doubled F values, ascending")
        if amps.shape != (2, len(_sublevels(levels)[1])) or self.omega.shape != (len(levels),):
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

    @cached_property
    def _view(self) -> tuple:
        """Occupied rows and columns, the matrix over them, and their labels."""
        level, atoms = _sublevels(self.levels)
        nf, g = len(self.levels), len(atoms)
        # each level's amplitudes go to its own rows (lambda-1) * nF + i; a zero
        # entry becomes +0.0 whatever the sign of its parts, so the sign of an
        # all-zero sum downstream (an atan2 argument) cannot flip
        full = np.zeros((2, nf, g), dtype=complex)
        full[:, level, np.arange(g)] = np.where(self.amplitudes != 0.0, self.amplitudes, 0.0)
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
        return rows, cols, matrix, photon, tuple(atoms[c] for c in cols.tolist())

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

    def channel_probabilities(self) -> tuple[tuple[Channel, float], ...]:
        # re^2 + im^2 summed in m order: the same bits as the batched
        # per-block weights of entanglement_analysis.block_grams
        matrix, photon, _ = self.matrix()
        probs = sequential_sum(matrix.real * matrix.real + matrix.imag * matrix.imag)
        return tuple(zip(photon, probs.tolist()))


def _require_valid(
    spec: AtomSpec, omega_laser: float, threshold: float, enforce: bool
) -> None:
    report = validity_check(spec, omega_laser, threshold)
    if report.passed:
        return
    message = (
        "far off-resonant condition |Delta(F')| >> Gamma violated: "
        + report.describe()
    )
    if enforce:
        raise OffResonanceError(message)
    warnings.warn(message, stacklevel=4)


@lru_cache(maxsize=32)
def _layout(spec: AtomSpec) -> tuple[np.ndarray, np.ndarray]:
    """Ground-level index of each kernel entry (lambda-1) * G + g, and the
    splitting of each ground level."""
    levels = spec.ground_levels()
    level = np.tile(_sublevels(tuple(f.twice for f in levels))[0], 2)
    deltas = np.array([spec.splitting(f) for f in levels])
    level.flags.writeable = False
    deltas.flags.writeable = False
    return level, deltas


@lru_cache(maxsize=16)
def _shared_factor(spec: AtomSpec, pump: PumpConfig, phi0: CondensateSpinor) -> np.ndarray:
    """The direction-independent factor B of a species, pump and condensate."""
    factor = condensate_factor(spec, pump.omega_laser, pump.polarization, phi0.vector(spec))
    factor.flags.writeable = False
    return factor


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
    base = laser - _layout(spec)[1]
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


@dataclass(frozen=True, eq=False)
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

    directions: np.ndarray
    polarizations: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    phases: np.ndarray
    weights: np.ndarray
    omega: np.ndarray


def pair_batch(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hats: np.ndarray,
    *,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> PairBatch:
    """The pair-state kernel: (N, 3) unit detection directions to N states.

    The condensate factor is computed once per species, pump and condensate;
    each direction then costs one 3-term contraction per amplitude.  All
    per-direction arithmetic is elementwise or summed in a fixed order, so
    the result for a direction does not depend on N or on its place in the
    batch.
    """
    k = np.asarray(k_hats, dtype=float)
    if k.ndim != 2 or k.shape[1] != 3:
        raise InputDomainError("detection directions must have shape (N, 3)")
    lengths = np.sqrt(k[:, 0] * k[:, 0] + k[:, 1] * k[:, 1] + k[:, 2] * k[:, 2])
    if not (abs(lengths - 1.0) <= _GEOM_TOL).all():
        raise InputDomainError("detection direction must be a unit vector")
    _require_valid(spec, pump.omega_laser, validity_threshold, enforce_validity)

    polarizations = polarization_bases(k)
    factor = _shared_factor(spec, pump, phi0)
    n, g = len(k), factor.shape[0]
    rows = branch_amplitudes(factor, polarizations).reshape(n, 2 * g)
    omega = _photon_frequencies(spec, pump, k)
    amplitudes, total_sq, phases = _normalize_and_phase(rows, omega, _layout(spec)[0])
    try:
        intensity = abs(pump.pump_amplitude) ** 2
    except OverflowError:  # a finite amplitude whose square is not: infinite weights
        intensity = math.inf

    return PairBatch(
        directions=k,
        polarizations=polarizations,
        amplitudes=amplitudes.reshape(n, 2, g),
        norms=np.sqrt(total_sq),
        phases=phases,
        weights=pump.atom_number * intensity * total_sq,
        omega=omega,
    )


def _one_direction(k_hat: np.ndarray) -> np.ndarray:
    k = np.asarray(k_hat, dtype=float)
    if k.shape != (3,):
        raise InputDomainError("detection direction must be a 3-vector")
    return k[np.newaxis]


def scattered_spinor(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hat: np.ndarray,
    lam: int,
    *,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> ScatteredSpinor:
    """Internal state of the atom paired with a photon in branch ``lam``.

    Returns the empty-spinor sentinel (normalization 0) when every amplitude
    vanishes by selection rules.
    """
    if lam not in (1, 2):
        raise InputDomainError("polarization index must be 1 or 2")
    batch = pair_batch(
        spec,
        pump,
        phi0,
        _one_direction(k_hat),
        validity_threshold=validity_threshold,
        enforce_validity=enforce_validity,
    )
    vec = batch.amplitudes[0, lam - 1] * batch.phases[0]
    share = float(np.linalg.norm(vec))
    if share == 0.0:
        return ScatteredSpinor(amplitudes=(), normalization=0.0)
    amps = tuple(
        ((g.f.twice, g.m.twice), complex(v / share))
        for g, v in zip(ground_basis(spec), vec)
        if v != 0.0
    )
    return ScatteredSpinor(amplitudes=amps, normalization=share * float(batch.norms[0]))


def photon_frequency(
    spec: AtomSpec, pump: PumpConfig, k_hat: np.ndarray, f_final: HalfIntLike
) -> float:
    """Scattered photon frequency for a final ground level, with recoil.

    The root of the recoil quadratic with the small, physical recoil shift;
    a :class:`PhysicsError` if that root is not real and positive.
    """
    k = _one_direction(k_hat)
    if not abs(np.linalg.norm(k) - 1.0) <= _GEOM_TOL:  # NaN fails too
        raise InputDomainError("detection direction must be a unit vector")
    spec.splitting(f_final)  # rejects a level the species does not have
    index = spec.ground_levels().index(halfint(f_final))
    return float(_photon_frequencies(spec, pump, k)[0, index])


def warn_unresolved(f: HalfIntLike, stacklevel: int = 2) -> None:
    """Warn that the selected level's channel overlaps a neighbor's."""
    warnings.warn(
        f"selected channel F={halfint(f)} is not spectrally resolvable from its "
        f"neighbor at the configured resolution",
        stacklevel=stacklevel + 1,
    )


def build_pair_state(
    spec: AtomSpec,
    pump: PumpConfig,
    phi0: CondensateSpinor,
    k_hat: np.ndarray,
    *,
    channel_resolution: float = DEFAULT_CHANNEL_RESOLUTION,
    validity_threshold: float = 100.0,
    enforce_validity: bool = True,
) -> PairState:
    """Assemble the normalized joint state over (channel x polarization) x (F, m)."""
    batch = pair_batch(
        spec,
        pump,
        phi0,
        _one_direction(k_hat),
        validity_threshold=validity_threshold,
        enforce_validity=enforce_validity,
    )
    if not batch.norms[0] > 0.0:
        raise EmptyStateError(
            "no scattering amplitude into this direction for the given pump "
            "and condensate"
        )

    levels = tuple(f.twice for f in spec.ground_levels())
    omegas = batch.omega[0].tolist()
    # A set, not np.unique: that lazily imports numpy.ma, which costs the
    # first call of a process some 20 ms.
    present = sorted(set(_sublevels(levels)[0][batch.amplitudes[0].any(axis=0)].tolist()))
    unresolved = tuple(
        (levels[a], levels[b])
        for a, b in combinations(present, 2)
        if abs(omegas[a] - omegas[b]) < channel_resolution
    )

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
    level = np.tile(_sublevels(state.levels)[0], 2)  # of each flat entry
    keep = np.array(state.levels)[level] == f.twice
    rows = np.where(keep, state.amplitudes.ravel(), 0.0)[np.newaxis]
    amplitudes, total_sq, _ = _normalize_and_phase(rows, state.omega[np.newaxis], level)
    if not total_sq[0] > 0.0:
        raise EmptyStateError(
            f"the F={f} frequency channel carries zero probability; nothing to select"
        )
    if any(f.twice in pair for pair in state.unresolved_channel_pairs):
        warn_unresolved(f)
    return replace(state, amplitudes=amplitudes.reshape(2, -1))


# --- serialization ----------------------------------------------------------


def json_text(doc: dict) -> str:
    """Indented, key-sorted strict JSON; a non-finite number is a physics error."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise PhysicsError(f"output has a non-finite number: {exc}") from None


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def pair_state_to_json(state: PairState, provenance: dict | None = None) -> dict:
    """JSON-ready document; channels keyed "omega_hz:lambda", atoms "2F:2m"."""
    matrix, photon, atoms = state.matrix()
    amplitude_doc = {
        ch.key(): {
            f"{tf}:{tm}": _complex_pair(amp)
            for (tf, tm), amp in zip(atoms, row.tolist())
            if amp != 0.0
        }
        for ch, row in zip(photon, matrix)
    }
    pump = state.pump
    doc = {
        "format": "raman-pairs/pair-state/1",
        "detection_direction": [float(x) for x in state.detection_direction],
        "channels": [
            {
                "key": ch.key(),
                "omega_hz": ch.omega / (2.0 * np.pi),
                "lambda": ch.lam,
                "doubled_f": ch.doubled_f,
            }
            for ch in photon
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


_MAX_DOUBLED_F = 64  # far above any ground level; bounds the sublevel table a document sets
_STATE_VECTORS = (
    "recoil_momentum_kg_m_per_s",
    "photon_wavevector_rad_per_m",
    "detection_direction",
)


def pair_state_from_json(doc: dict) -> PairState:
    """Rebuild a :class:`PairState` from :func:`pair_state_to_json` output.

    A malformed document is an :class:`InputDomainError` that names the key
    where reading failed.
    """
    where = "pump"
    try:
        pump_doc = doc["pump"]
        pump = PumpConfig(
            direction=np.array(pump_doc["direction"], dtype=float),
            polarization=np.array([complex(re, im) for re, im in pump_doc["polarization"]]),
            omega_laser=2.0 * np.pi * pump_doc["laser_hz"],
            pump_amplitude=complex(*pump_doc["amplitude"]),
            atom_number=pump_doc["atom_number"],
        )
        where = "channels"
        channels = {ch["key"]: ch for ch in doc["channels"]}
        if len(channels) != len(doc["channels"]):
            raise InputDomainError(
                "two photon channels share one key: their levels have equal frequencies"
            )
        omega: dict[int, float] = {}
        for ch in channels.values():
            if ch["lambda"] not in (1, 2):
                raise InputDomainError("polarization index must be 1 or 2")
            tf, w = ch["doubled_f"], 2.0 * np.pi * ch["omega_hz"]
            if not isinstance(tf, int) or not 0 <= tf <= _MAX_DOUBLED_F:
                raise InputDomainError(
                    f"doubled_f must be a non-negative integer up to {_MAX_DOUBLED_F}, got {tf!r}"
                )
            if omega.setdefault(tf, w) != w:
                raise InputDomainError(f"the channels of level 2F={tf} differ in frequency")
        levels = tuple(sorted(omega))
        _, atoms = _sublevels(levels)
        column = {atom: j for j, atom in enumerate(atoms)}
        amplitudes = np.zeros((2, len(atoms)), dtype=complex)
        for key, by_atom in doc["amplitudes"].items():
            where = f"amplitudes.{key}"
            ch = channels[key]
            for atom_key, (re, im) in by_atom.items():
                where = f"amplitudes.{key}.{atom_key}"
                atom = tuple(int(x) for x in atom_key.split(":"))
                if atom[0] != ch["doubled_f"] or atom not in column:
                    raise InputDomainError(
                        f"atom label {atom_key} sits in photon channel {key} of "
                        f"2F={ch['doubled_f']}; a channel pairs only with its own level"
                    )
                amplitudes[ch["lambda"] - 1, column[atom]] = complex(re, im)
        vectors = {}
        for where in _STATE_VECTORS:
            vectors[where] = np.array(doc[where], dtype=float)
            if vectors[where].shape != (3,):
                raise ValueError(f"expected a 3-vector, got shape {vectors[where].shape}")
        where = "emission_weight"
        weight = doc[where]
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or not weight >= 0:
            raise ValueError(f"expected a number >= 0, got {weight!r}")
        weight = float(weight)
        where = "unresolved_channel_pairs"
        pairs = tuple((int(a), int(b)) for a, b in doc[where])
    except InputDomainError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputDomainError(
            f"pair-state document: key '{where}' is missing or malformed ({exc!r})"
        ) from None
    return PairState(
        amplitudes=amplitudes,
        levels=levels,
        omega=[omega[tf] for tf in levels],
        recoil_momentum=vectors["recoil_momentum_kg_m_per_s"],
        photon_wavevector=vectors["photon_wavevector_rad_per_m"],
        emission_weight=weight,
        detection_direction=vectors["detection_direction"],
        pump=pump,
        unresolved_channel_pairs=pairs,
    )
