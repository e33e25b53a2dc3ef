"""The run configuration: strict JSON, checked key by key.

Unknown keys are rejected by name, frequencies are given in Hz with the unit
in the key name, and every error is an
:class:`~raman_pairs.errors.InputDomainError` (exit code 2) that names its key
or file.  The rules a config shares with a species file (one strict JSON
reader, one key check, finite numbers, integer keys) are ``atomic_model``'s.
The CLI imports this module in the commands that read a config, so ``tables``
never loads it or numpy; the scan and CHSH modules load only for a config
with a scan or CHSH block.

Every :class:`RunConfig` reads and hashes both of its files, so an edit to
either shows on the next parse.  A species file is decoded and checked once
per content in each process: its :class:`~raman_pairs.atomic_model.AtomSpec`
is kept under its SHA-256 and path in a small bounded cache, which holds no
file bytes and never an error.  Before a command builds its ``RunConfig``,
``cli.main`` hands the argv straight to that command's argument parser, so a
point query pays for one parser, not two.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from . import __version__
from .angular_momentum import HalfInt, halfint
from .atomic_model import DEFAULT_VALIDITY_THRESHOLD, TWO_PI, AtomSpec, _parse_atom_spec
from .atomic_model import bounded_repr, check_keys, finite_number, integer_keys, json_object
from .errors import InputDomainError
from .outputs import _io
from .pair_state import CondensateSpinor, PumpConfig, _ground_index, _norm

# the required and the optional keys of each object
_ROOT_KEYS = (("atom_spec_path", "pump", "condensate", "detection"),
              ("filter_f", "chsh", "validity_threshold"))
_BLOCK_KEYS = {
    "pump": (("direction", "polarization", "laser_hz"), ("amplitude", "atom_number")),
    "condensate": (("amplitudes",), ()),
    "detection": ((), ("direction", "scan")),
    "chsh": ((), ("settings_rad",)),
}
_SCAN_KEYS = ("resolution_deg", "measure"), ("filter_f",)

_BUILTIN_DIR = Path(__file__).parent / "data"  # the species that "builtin:<name>" names

# the species parsed in this process, under (SHA-256, path); the oldest goes first
_SPECIES: dict[tuple[str, Path], AtomSpec] = {}
_SPECIES_MAX = 8


def _species(data: bytes, sha256: str, path: Path) -> AtomSpec:
    """The species in the file ``data`` read from ``path``, whose SHA-256 is
    ``sha256``: parsed on the first call for each (``sha256``, ``path``), and
    kept if it parses."""
    key = sha256, path
    spec = _SPECIES.get(key)
    if spec is None:
        spec = _parse_atom_spec(json_object(data, f"atom spec {path}"), path)
        if len(_SPECIES) >= _SPECIES_MAX:
            del _SPECIES[next(iter(_SPECIES))]
        _SPECIES[key] = spec
    return spec


def _as_complex(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(finite_number(value[0], path), finite_number(value[1], path))
    if isinstance(value, list):
        raise InputDomainError(f"{bounded_repr(path)} must be a number or an [re, im] pair")
    return complex(finite_number(value, path))


def _as_unit_vector(value, path: str, complex_ok: bool) -> np.ndarray:
    """A 3-component list scaled to unit length."""
    if not isinstance(value, list) or len(value) != 3:
        raise InputDomainError(f"'{path}' must be a 3-component list")
    parse = _as_complex if complex_ok else finite_number
    vector = np.array([parse(v, path) for v in value])
    with np.errstate(all="ignore"):
        unit = vector / _norm(vector)
        if not abs(_norm(unit) - 1.0) <= 1e-12:
            raise InputDomainError(f"'{path}' has a length too small, too large or zero to scale")
    return unit


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, path: Path) -> None:
        self.path = path
        data, self.sha256 = self._read("--config", path)
        raw = json_object(data, f"config {path}")
        check_keys(raw, "", *_ROOT_KEYS)
        for key, keys in _BLOCK_KEYS.items():
            if key in raw:
                check_keys(raw[key], key, *keys)

        self.atom_path = self._atom_path(raw["atom_spec_path"])
        data, self.atom_sha256 = self._read(
            "'atom_spec_path'", self.atom_path, bounded_repr(str(self.atom_path))
        )
        self.spec = _species(data, self.atom_sha256, self.atom_path)
        self.pump = self._parse_pump(raw["pump"])
        self.condensate = self._parse_condensate(raw["condensate"])
        detection = raw["detection"]
        if ("direction" in detection) == ("scan" in detection):
            raise InputDomainError("'detection' must contain exactly one of 'direction', 'scan'")
        self.direction: np.ndarray | None = None
        self.scan: dict | None = None
        if "direction" in detection:
            self.direction = _as_unit_vector(
                detection["direction"], "detection.direction", False
            )
        else:
            self.scan = self._parse_scan(detection["scan"])

        self.filter_f: HalfInt | None = None
        if "filter_f" in raw:
            self.filter_f = self.parse_level(raw["filter_f"], "filter_f")
        self.chsh_settings: tuple[float, float, float, float] | None = None
        if "chsh" in raw:
            settings = raw["chsh"].get("settings_rad")
            if settings is not None:
                if not isinstance(settings, list) or len(settings) != 4:
                    raise InputDomainError("'chsh.settings_rad' must be a list of 4 angles")
                from .bell_sim import _ANGLE_NAMES, _finite_angles

                angles = tuple(finite_number(x, "chsh.settings_rad") for x in settings)
                try:
                    self.chsh_settings = _finite_angles(_ANGLE_NAMES, angles)
                except InputDomainError as exc:  # an angle whose double overflows
                    raise InputDomainError(f"invalid 'chsh.settings_rad': {exc}")
        self.validity_threshold = finite_number(
            raw.get("validity_threshold", DEFAULT_VALIDITY_THRESHOLD), "validity_threshold"
        )
        if self.validity_threshold < 0:
            raise InputDomainError("'validity_threshold' must not be negative")

    @staticmethod
    def _read(flag: str, path: Path, shown: str | None = None) -> tuple[bytes, str]:
        """The bytes of the file at ``path`` and their SHA-256; an error names
        ``flag`` and the path, as ``shown`` if given."""
        data = _io(flag, path, Path.read_bytes, shown)
        return data, hashlib.sha256(data).hexdigest()

    def _atom_path(self, value) -> Path:
        """The species file that the ``atom_spec_path`` ``value`` names; a
        message shows the value or path through ``bounded_repr``, as the
        config's text gave it."""
        if not isinstance(value, str):
            raise InputDomainError("'atom_spec_path' must be a string")
        if value.startswith("builtin:"):
            name = value[len("builtin:"):]
            if not name or set(name) & {"/", "\\", "."}:
                raise InputDomainError(
                    f"'atom_spec_path' {bounded_repr(value)} must name a shipped species, "
                    "with no '/', '\\' or '.' after 'builtin:'"
                )
            path = _BUILTIN_DIR / f"{name}.json"
        else:
            path = Path(value)
            if not path.is_absolute():
                path = self.path.parent / path
        shown = bounded_repr(str(path))
        if not _io("'atom_spec_path'", path, Path.is_file, shown):
            raise InputDomainError(f"'atom_spec_path' names no file: {shown}")
        return path

    def _parse_scan(self, scan) -> dict:
        """``detection.scan`` as the ``resolution``, ``measure`` and ``filter_f``
        keyword arguments of ``geometry_explorer.scan_chunks``."""
        check_keys(scan, "detection.scan", *_SCAN_KEYS)
        from .geometry_explorer import MAX_RESOLUTION, MEASURES, MIN_RESOLUTION

        if (measure := scan["measure"]) not in MEASURES:
            raise InputDomainError(f"'detection.scan.measure' must be one of {', '.join(MEASURES)}")
        degrees = finite_number(scan["resolution_deg"], "detection.scan.resolution_deg")
        resolution = math.radians(degrees)  # the value scan_chunks checks, so 30 passes
        if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
            raise InputDomainError(
                f"'detection.scan.resolution_deg' must lie in [{math.degrees(MIN_RESOLUTION):g}, "
                f"{math.degrees(MAX_RESOLUTION):g}] degrees, got {degrees!r}"
            )
        filter_f = None
        if "filter_f" in scan:
            if measure != "concurrence_after_filter":
                raise InputDomainError(
                    "'detection.scan.filter_f' does not apply to "
                    f"'detection.scan.measure' {measure}"
                )
            filter_f = self.parse_level(scan["filter_f"], "detection.scan.filter_f")
        elif measure == "concurrence_after_filter":
            raise InputDomainError(
                "'detection.scan.measure' concurrence_after_filter needs 'detection.scan.filter_f'"
            )
        return {"resolution": resolution, "measure": measure, "filter_f": filter_f}

    def parse_level(self, value, key: str) -> HalfInt:
        try:
            level = halfint(value)
        except InputDomainError:
            raise InputDomainError(
                f"'{key}' must be an integer or half-integer, got {bounded_repr(value)}"
            )
        if level not in self.spec.ground_levels():
            raise InputDomainError(
                f"'{key}'={level} is not a ground level of {self.spec.name} "
                f"(levels: {[str(f) for f in self.spec.ground_levels()]})"
            )
        return level

    def _parse_pump(self, raw: dict) -> PumpConfig:
        direction = _as_unit_vector(raw["direction"], "pump.direction", False)
        polarization = _as_unit_vector(raw["polarization"], "pump.polarization", True)
        amplitude = _as_complex(raw.get("amplitude", 1.0), "pump.amplitude")
        if amplitude == 0:  # a square that underflows is left to the emission weight's verdicts
            raise InputDomainError(f"'pump.amplitude' must be nonzero, got {amplitude!r}")
        try:
            return PumpConfig(
                direction=direction,
                polarization=polarization,
                omega_laser=TWO_PI * finite_number(raw["laser_hz"], "pump.laser_hz"),
                pump_amplitude=amplitude,
                atom_number=finite_number(raw.get("atom_number", 1.0), "pump.atom_number"),
            )
        except InputDomainError as exc:
            raise InputDomainError(f"invalid 'pump': {exc}")

    def _parse_condensate(self, raw: dict) -> CondensateSpinor:
        parsed: dict[tuple[int, int], complex] = {}
        keyed = integer_keys(raw["amplitudes"], "condensate.amplitudes", "2F:2m")
        for sublevel, (key, value) in keyed.items():
            try:  # a sublevel of the species, zero amplitude or not
                _ground_index(self.spec, sublevel)
            except InputDomainError as exc:
                raise InputDomainError(f"{bounded_repr(f'condensate.amplitudes.{key}')}: {exc}")
            parsed[sublevel] = _as_complex(value, f"condensate.amplitudes.{key}")
        # a square that overflows, a norm of zero, or one whose squares fall in
        # the subnormal range and leave the spinor off the unit norm that
        # CondensateSpinor checks
        try:
            total = math.sqrt(sum(abs(a) ** 2 for a in parsed.values()))
            return CondensateSpinor.from_dict({key: amp / total for key, amp in parsed.items()})
        except (OverflowError, ZeroDivisionError, InputDomainError):
            raise InputDomainError(
                "'condensate.amplitudes' has a norm too small, too large or zero to normalize"
            ) from None

    def metadata(self, seed: int | None = None) -> dict:
        doc = {
            "tool": "raman-pairs",
            "version": __version__,
            "config_sha256": self.sha256,
            "atom_spec_sha256": self.atom_sha256,
            "atom": self.spec.name,
        }
        if seed is not None:
            doc["seed"] = seed
        return doc
