"""Alkali-like species with hyperfine structure and dipole matrix elements.

An :class:`AtomSpec` carries the nuclear spin I, the ground and excited
electronic angular momenta (J_g, J_e), the ground hyperfine splittings, and
the optical-line constants.  Hyperfine levels are built by coupling the
nuclear spin first, |(I J) F m>, with Condon-Shortley Clebsch-Gordan
coefficients; the dipole matrix element between an excited |F m> and a
ground |F' m'| sublevel then factorizes as

    <F m|e r . eps_q|F' m'> = -(-1)^(I + J_g + F) sqrt((2F'+1)(2J_e+1)) D
                              <F m|F' 1 m' q> {I J_g F'; 1 F J_e}

with D the reduced dipole moment of the J_g <-> J_e line.  The 6-j argument
layout was fixed by checking the whole sodium table against an explicit
|m_I, m_J> expansion; with the nuclear-spin-first coupling order the two
routes agree identically (global sign +1).

Excited-state hyperfine splittings are neglected: a single resonance
frequency per species, with the detuning of ground level F' given by
Delta(F') = omega_L - omega_a + delta(F').  An :class:`AtomSpec` is a value
record, a checked tuple equal and hashed by value; ``AtomSpec.replace``
builds one through its checks.

This module owns the angular structure.  :func:`_sublevels` is the one
enumeration of the (2F, 2m) sublevels of a level tuple, F-major with m
ascending: the G axis of every amplitude array, the condensate vector and
both axes of the dipole tensor.  A species' ground basis is its
:func:`_ground_layout`.  The dipole tensor depends on the doubled I, J_g and
J_e alone, so it is built and cached per (2I, 2J_g, 2J_e) at unit reduced
dipole; D enters :func:`dipole_matrix_element` as a factor and the kernel
only as D^4 in the emission weight, since it cancels in every normalized
state.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .angular_momentum import HalfInt, HalfIntLike, halfint, integer
from .angular_momentum import _clebsch_gordan_exact, _signed_sqrt, _wigner_6j_exact
from .errors import InputDomainError

__all__ = [
    "AtomSpec",
    "dipole_matrix_element",
    "detuning",
    "validity_check",
    "ValidityReport",
    "load_atom_spec",
    "sodium",
]

TWO_PI = 2.0 * np.pi
DEFAULT_VALIDITY_THRESHOLD = 100.0  # |Delta(F')| / Gamma that a far off-resonant pump exceeds
# the largest 2I, 2J_g and 2J_e of a species: its dipole tensor grows as the
# square of (2I + 1)(2J + 1)
MAX_DOUBLED_MOMENTUM = 12


def _manifold_levels(ti: int, tj: int) -> tuple[int, ...]:
    """2F of each level that I and J couple to, ascending, from their doubles."""
    return tuple(range(abs(ti - tj), ti + tj + 1, 2))


class _Layout(NamedTuple):
    """The sublevels of a level tuple, F-major with m ascending."""

    levels: tuple[int, ...]  # 2F of each level
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
    pairs = np.triu_indices(len(columns), 1)
    layout = _Layout(levels, level, np.tile(level, 2), atoms, blocks, pairs)
    for arr in (layout.level, layout.tiled, layout.blocks, *layout.pairs):
        arr.flags.writeable = False
    return layout


class _AtomFields(NamedTuple):
    name: str
    nuclear_spin: HalfInt
    ground_j: HalfInt
    excited_j: HalfInt
    ground_splittings: tuple[tuple[HalfInt, float], ...]
    resonance: float
    linewidth: float
    mass: float
    reduced_dipole: float = 1.0


class AtomSpec(_AtomFields):
    """Immutable species definition.

    Frequencies are angular (rad/s).  ``ground_splittings`` maps each ground
    F' to its offset above the lowest ground level; the lowest level must map
    to zero.  ``reduced_dipole`` defaults to 1 because it cancels in every
    normalized state; it enters only the emission weight, as its fourth
    power.  Each angular momentum is at most ``MAX_DOUBLED_MOMENTUM`` / 2.
    """

    __slots__ = ()

    def __new__(cls, *fields, **named) -> "AtomSpec":
        self = super().__new__(cls, *fields, **named)
        I, Jg, Je = self.nuclear_spin, self.ground_j, self.excited_j
        for j, label in ((I, "nuclear spin"), (Jg, "ground J"), (Je, "excited J")):
            if j.twice < 0:
                raise InputDomainError(f"{label} must be non-negative")
            if j.twice > MAX_DOUBLED_MOMENTUM:
                raise InputDomainError(
                    f"{label} must be at most {HalfInt(MAX_DOUBLED_MOMENTUM)}, got {j}"
                )
        if not (self.resonance > 0 and self.linewidth > 0 and self.mass > 0):
            raise InputDomainError("resonance, linewidth and mass must be positive")
        if not 0 < abs(self.reduced_dipole) < np.inf:
            raise InputDomainError("reduced dipole must be finite and nonzero")

        expected = self.ground_levels()
        given = tuple(f for f, _ in self.ground_splittings)
        if given != expected:
            raise InputDomainError(
                f"ground splittings must cover F' = {[str(f) for f in expected]} "
                f"in order, got {[str(f) for f in given]}"
            )
        split = dict(self.ground_splittings)
        if split[expected[0]] != 0.0:
            raise InputDomainError("lowest ground level must have zero splitting")
        if not all(v >= 0 for v in split.values()):
            raise InputDomainError("ground splittings must be non-negative")
        if len(set(split.values())) < len(split):
            # an input rule: two levels at one splitting would be one level
            raise InputDomainError(
                "ground levels must have distinct splittings, got "
                + ", ".join(f"F'={f}: {v!r} rad/s" for f, v in self.ground_splittings)
            )

        # The decomposition phase (-1)^(I + J_g + F) must be real for every
        # excited F, i.e. I + J_g + F integer.  Since F pairs I with J_e this
        # reduces to J_g + J_e being an integer.
        if (self.ground_j.twice + self.excited_j.twice) % 2 != 0:
            raise InputDomainError(
                "ground and excited J must couple to the same F parity "
                "(J_g + J_e must be an integer)"
            )
        return self

    def replace(self, **changes) -> "AtomSpec":
        """This species with ``changes``, checked again by the constructor."""
        return AtomSpec(**{**self._asdict(), **changes})

    # --- manifold structure -------------------------------------------------

    def ground_levels(self) -> tuple[HalfInt, ...]:
        return tuple(map(HalfInt, _manifold_levels(self.nuclear_spin.twice, self.ground_j.twice)))

    def excited_levels(self) -> tuple[HalfInt, ...]:
        return tuple(map(HalfInt, _manifold_levels(self.nuclear_spin.twice, self.excited_j.twice)))

    def splitting(self, f_ground: HalfIntLike) -> float:
        f = halfint(f_ground)
        for level, value in self.ground_splittings:
            if level == f:
                return value
        raise InputDomainError(f"F'={f} is not a ground level of {self.name}")


# --- spherical polarization basis ------------------------------------------

# the unit vectors eps_q, row q + 1 for q = -1, 0, +1
_SPHERICAL = np.array([
    np.array([1.0, -1.0j, 0.0]) / np.sqrt(2.0),
    np.array([0.0, 0.0, 1.0], dtype=complex),
    np.array([-1.0, -1.0j, 0.0]) / np.sqrt(2.0),
])
_SPHERICAL.flags.writeable = False


def spherical_component(q: int) -> np.ndarray:
    """Read-only view of the spherical unit vector for q in {-1, 0, +1}."""
    if q not in (-1, 0, +1):
        raise InputDomainError(f"q must be -1, 0 or +1, got {q}")
    return _SPHERICAL[q + 1]


# --- dipole matrix elements -------------------------------------------------


def dipole_matrix_element(spec: AtomSpec, tfe: int, tme: int, tfg: int, tmg: int, q: int) -> float:
    """<F m (excited)|e r . eps_q|F' m' (ground)>, real in this convention; the
    arguments are the doubled integers 2F, 2m, 2F', 2m' and q.

    Zero unless m = m' + q and the triangle {F', 1, F} closes.  The element
    at unit reduced dipole times ``spec.reduced_dipole``.
    """
    if q not in (-1, 0, +1):
        raise InputDomainError(f"q must be -1, 0 or +1, got {q}")
    ti, tjg, tje = spec.nuclear_spin.twice, spec.ground_j.twice, spec.excited_j.twice
    levels = (_manifold_levels(ti, tje), _manifold_levels(ti, tjg))
    for (tf, tm), allowed in zip(((tfe, tme), (tfg, tmg)), levels):
        f, m = HalfInt(tf), HalfInt(tm)  # refuses a non-int
        if tf not in allowed:
            raise InputDomainError("sublevel does not belong to this species")
        if (tf - tm) % 2 != 0 or abs(tm) > tf:
            raise InputDomainError(f"invalid sublevel F={f}, m={m}")

    if tme != tmg + 2 * q:
        return 0.0
    element = _dipole_element(ti, tjg, tje, tfe, tme, tfg, tmg)
    return element * spec.reduced_dipole if element else 0.0


def _dipole_element(ti: int, tjg: int, tje: int, tfe: int, tme: int, tfg: int, tmg: int) -> float:
    """:func:`dipole_matrix_element` at unit reduced dipole on doubled ints, for
    q = m - m'; +0.0 where the CG or the 6-j {I J_g F'; 1 F J_e} vanishes."""
    cg = _clebsch_gordan_exact(tfg, tmg, 2, tme - tmg, tfe, tme)
    sixj = _wigner_6j_exact(ti, tjg, tfg, 2, tfe, tje)
    if cg[0] == 0 or sixj[0] == 0:
        return 0.0
    phase = -1.0 if (ti + tjg + tfe) // 2 % 2 == 0 else 1.0
    scale = math.sqrt((tfg + 1.0) * (tje + 1.0))
    return phase * scale * _signed_sqrt(*cg) * _signed_sqrt(*sixj)


@lru_cache(maxsize=32)
def _dipole_tensor(ti: int, tjg: int, tje: int) -> np.ndarray:
    """The read-only table dip[e, g, q] of :func:`dipole_matrix_element` at unit
    reduced dipole for the doubled I, J_g and J_e, over the :func:`_sublevels` of
    the excited and the ground levels; an element only where m - m' = q is -1, 0
    or +1."""
    excited = _sublevels(_manifold_levels(ti, tje)).atoms
    ground = _sublevels(_manifold_levels(ti, tjg)).atoms
    dip = np.zeros((len(excited), len(ground), 3))
    for ie, (tfe, tme) in enumerate(excited):
        for ig, (tfg, tmg) in enumerate(ground):
            if abs(tme - tmg) <= 2:
                value = _dipole_element(ti, tjg, tje, tfe, tme, tfg, tmg)
                dip[ie, ig, (tme - tmg) // 2 + 1] = value
    dip.flags.writeable = False
    return dip


def _ground_layout(spec: AtomSpec) -> _Layout:
    """The :class:`_Layout` of the ground levels of ``spec``: its canonical ground basis."""
    return _sublevels(_manifold_levels(spec.nuclear_spin.twice, spec.ground_j.twice))


def detuning(spec: AtomSpec, omega_laser: float, f_ground: HalfIntLike) -> float:
    """Delta(F') = omega_L - omega_a + delta(F'), sign preserved."""
    return omega_laser - spec.resonance + spec.splitting(f_ground)


class ValidityReport:
    """|Delta(F')| / Gamma per ground level, against a pass threshold."""

    def __init__(self, ratios: tuple[tuple[HalfInt, float], ...], threshold: float):
        self.ratios, self.threshold = ratios, threshold

    @property
    def passed(self) -> bool:
        """Whether every ratio exceeds the threshold."""
        return all(r > self.threshold for _, r in self.ratios)

    def describe(self) -> str:
        parts = ", ".join(f"F'={f}: {r:.3g}" for f, r in self.ratios)
        verdict = "pass" if self.passed else "fail"
        return f"|detuning|/linewidth {{{parts}}} vs threshold {self.threshold:g}: {verdict}"


def validity_check(
    spec: AtomSpec, omega_laser: float, threshold: float = DEFAULT_VALIDITY_THRESHOLD
) -> ValidityReport:
    """Check the far off-resonant condition |Delta(F')| >> Gamma."""
    ratios = tuple(
        (f, abs(detuning(spec, omega_laser, f)) / spec.linewidth)
        for f in spec.ground_levels()
    )
    return ValidityReport(ratios=ratios, threshold=threshold)


# --- input files -------------------------------------------------------------
# The rules shared by species files and run configs (``raman_pairs.config``).

# the required and the optional keys of a species file
_ATOM_KEYS = (("name", "doubled_I", "doubled_ground_J", "doubled_excited_J", "ground_splittings_hz",
               "resonance_hz", "linewidth_hz", "mass_kg"), ("reduced_dipole", "notes"))
# the most characters of a rejected value that a message shows
_SHOWN = 100


def bounded_repr(value) -> str:
    """``repr(value)`` for a message that refuses an input value: a longer repr
    is cut to its first ``_SHOWN`` characters and its length, so a message
    names the bad value without copying all of it."""
    text = repr(value)
    return text if len(text) <= _SHOWN else f"{text[:_SHOWN]}... ({len(text)} characters)"


def finite_number(value, key: str) -> float:
    """The float of a JSON number; strings, booleans, NaN and +-Infinity fail, naming ``key``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise InputDomainError(
        f"{bounded_repr(key)} must be a finite number, got {bounded_repr(value)}"
    )


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object of a JSON ``object_pairs_hook``, refusing a key that it
    names twice (``json.loads`` alone keeps the last one without a word)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise InputDomainError(f"the key {key!r} appears twice in one object")
    return obj


def json_object(data: bytes, name: str) -> dict:
    """The JSON object in the UTF-8 ``data`` of the file ``name``: other encodings
    (``json.loads`` would detect UTF-16 and -32), invalid JSON, nesting deeper than
    the parser's recursion limit, a repeated key and a root that is no object
    raise, naming ``name``."""
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except InputDomainError as exc:  # a repeated key
        raise InputDomainError(f"{name}: {exc}") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputDomainError(f"{name} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputDomainError(f"{name} nests arrays or objects too deeply to parse") from None
    if not isinstance(raw, dict):
        raise InputDomainError(f"{name} must be a JSON object")
    return raw


def check_keys(obj, path: str, required: tuple, optional: tuple) -> None:
    """Check that ``obj``, the value at the dotted ``path`` ("" for a root), is an
    object with each key of ``required`` and no key outside ``required`` and ``optional``."""
    if not isinstance(obj, dict):
        raise InputDomainError(f"'{path}' must be an object")
    dotted = f"{path}." if path else ""
    for key in obj:
        if key not in required and key not in optional:
            raise InputDomainError(f"unknown key {bounded_repr(dotted + key)}")
    for key in required:
        if key not in obj:
            raise InputDomainError(f"missing required key '{dotted}{key}'")


def integer_keys(obj, path: str, form: str) -> dict[tuple[int, ...], tuple[str, object]]:
    """Each ``(key, value)`` of the object at ``path``, under the integers that
    ``key`` spells as ``form`` ("2F", or "2F:2m" for two), each one read by
    :func:`integer`; another form, or two spellings of one key, raise."""
    if not isinstance(obj, dict):
        raise InputDomainError(f"'{path}' must be an object")
    keyed: dict[tuple[int, ...], tuple[str, object]] = {}
    for key, value in obj.items():
        head, _, tail = key.partition(":")
        try:
            ints = (integer(head), integer(tail)) if ":" in form else (integer(key),)
        except InputDomainError:
            raise InputDomainError(
                f"{bounded_repr(f'{path}.{key}')} must spell '{form}' in ASCII digits"
            ) from None
        first, _ = keyed.setdefault(ints, (key, value))
        if first != key:
            raise InputDomainError(
                f"'{path}' keys {bounded_repr(first)} and {bounded_repr(key)} spell one '{form}'"
            )
    return keyed


def load_atom_spec(path: str | Path) -> AtomSpec:
    """Load an :class:`AtomSpec` from its JSON file format.

    Frequencies are given in Hz in the file and converted to rad/s here.
    The ``doubled_*`` keys take JSON integers and the line constants and
    splittings JSON numbers.  The ``notes`` key is free-form provenance text
    and is ignored.
    """
    path = Path(path)
    return _parse_atom_spec(json_object(path.read_bytes(), f"atom spec {path}"), path)


def _parse_atom_spec(raw: dict, path: Path) -> AtomSpec:
    """The :class:`AtomSpec` of the species-file object ``raw`` read from ``path``.

    The value checks of the constructor run here first, in its order, each
    naming the species-file key that it refuses."""

    def doubled(key: str) -> HalfInt:
        if isinstance(raw[key], int) and not isinstance(raw[key], bool):
            return HalfInt(raw[key])
        raise InputDomainError(f"'{key}' must be an integer, got {bounded_repr(raw[key])}")

    try:
        check_keys(raw, "", *_ATOM_KEYS)
        if not isinstance(raw["name"], str) or not raw["name"].isprintable():
            raise InputDomainError(
                f"'name' must be a printable string, got {bounded_repr(raw['name'])}"
            )
        hz = sorted(integer_keys(raw["ground_splittings_hz"], "ground_splittings_hz", "2F").items())
        splittings = tuple(
            (HalfInt(tf), TWO_PI * finite_number(v, f"ground_splittings_hz.{k}"))
            for (tf,), (k, v) in hz
        )
        fields = dict(
            name=raw["name"],
            nuclear_spin=doubled("doubled_I"),
            ground_j=doubled("doubled_ground_J"),
            excited_j=doubled("doubled_excited_J"),
            ground_splittings=splittings,
            resonance=TWO_PI * finite_number(raw["resonance_hz"], "resonance_hz"),
            linewidth=TWO_PI * finite_number(raw["linewidth_hz"], "linewidth_hz"),
            mass=finite_number(raw["mass_kg"], "mass_kg"),
            reduced_dipole=finite_number(raw.get("reduced_dipole", 1.0), "reduced_dipole"),
        )
        for key in ("doubled_I", "doubled_ground_J", "doubled_excited_J"):
            if raw[key] < 0:
                raise InputDomainError(f"'{key}' must be non-negative, got {raw[key]!r}")
            if raw[key] > MAX_DOUBLED_MOMENTUM:
                raise InputDomainError(
                    f"'{key}' must be at most {MAX_DOUBLED_MOMENTUM}, got {raw[key]!r}"
                )
        for key in ("resonance_hz", "linewidth_hz", "mass_kg"):
            if not raw[key] > 0:
                raise InputDomainError(f"'{key}' must be positive, got {raw[key]!r}")
        if fields["reduced_dipole"] == 0:
            raise InputDomainError(
                f"'reduced_dipole' must be nonzero, got {raw['reduced_dipole']!r}"
            )
        levels = list(_manifold_levels(raw["doubled_I"], raw["doubled_ground_J"]))
        if [tf for (tf,), _ in hz] != levels:
            raise InputDomainError(
                f"'ground_splittings_hz' must have one key per ground level, 2F' = {levels}, "
                f"got {[k for _, (k, _) in hz]}"
            )
        lowest, value = hz[0][1]
        if value != 0:
            raise InputDomainError(
                f"'ground_splittings_hz.{lowest}' must be 0: splittings are measured "
                f"from the lowest ground level, got {value!r}"
            )
        for _, (key, value) in hz:
            if not value >= 0:
                raise InputDomainError(
                    f"'ground_splittings_hz.{key}' must be non-negative, got {value!r}"
                )
        keys: dict[float, str] = {}
        for (_, (key, _)), (_, split) in zip(hz, splittings):
            if (twin := keys.setdefault(split, key)) != key:
                raise InputDomainError(
                    f"'ground_splittings_hz' keys {twin!r} and {key!r} give one splitting: "
                    "ground levels must have distinct splittings, got "
                    + ", ".join(f"F'={f}: {v!r} rad/s" for f, v in splittings)
                )
        if (tjg := raw["doubled_ground_J"]) % 2 != (tje := raw["doubled_excited_J"]) % 2:
            raise InputDomainError(
                "'doubled_ground_J' and 'doubled_excited_J' must have one parity "
                f"(J_g + J_e an integer), got {tjg} and {tje}"
            )
        return AtomSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise InputDomainError(f"malformed atom spec {path}: {exc}") from exc


def sodium() -> AtomSpec:
    """The shipped sodium D2 preset (I=3/2, J_g=1/2, J_e=3/2)."""
    return load_atom_spec(Path(__file__).parent / "data" / "sodium.json")
