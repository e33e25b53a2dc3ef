"""The run configuration: strict JSON, checked key by key.

Unknown keys are rejected by name, frequencies are given in Hz with the unit
in the key name, and every error is a :class:`~raman_pairs.errors.ConfigError`
(exit code 2) that names its key.  A config, like a species file, is read as
UTF-8.  The CLI imports this module in the commands that read a config, so
``tables`` never loads it or numpy; the scan and CHSH modules load only for a
config with a scan or CHSH block.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .angular_momentum import HalfInt, halfint
from .atomic_model import TWO_PI, AtomSpec, _parse_atom_spec, finite_number, unique_keys
from .errors import ConfigError, InputDomainError
from .outputs import _io
from .pair_state import CondensateSpinor, PumpConfig, _intensity

_CONFIG_SCHEMA = {
    "atom_spec_path": None,
    "pump": {"direction", "polarization", "laser_hz", "amplitude", "atom_number"},
    "condensate": {"amplitudes"},
    "detection": {"direction", "scan"},
    "filter_f": None,
    "chsh": {"settings_rad"},
    "validity_threshold": None,
}
_SCAN_KEYS = {"resolution_deg", "measure", "filter_f"}


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}{key}'")


def _as_complex(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(finite_number(value[0], path), finite_number(value[1], path))
    if isinstance(value, list):
        raise ConfigError(f"'{path}' must be a number or an [re, im] pair")
    return complex(finite_number(value, path))


def _as_unit_vector(value, path: str, complex_ok: bool) -> np.ndarray:
    """A 3-component list scaled to unit length."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a 3-component list")
    parse = _as_complex if complex_ok else finite_number
    vector = np.array([parse(v, path) for v in value])
    with np.errstate(all="ignore"):
        unit = vector / np.linalg.norm(vector)
        if not abs(np.linalg.norm(unit) - 1.0) <= 1e-12:
            raise ConfigError(f"'{path}' has a length too small, too large or zero to scale")
    return unit


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, path: Path) -> None:
        self.path = path
        raw_bytes = _io("--config", path, Path.read_bytes)
        self.sha256 = hashlib.sha256(raw_bytes).hexdigest()
        try:  # UTF-8 only, as for a species file: json.loads would detect UTF-16 and -32
            raw = json.loads(raw_bytes.decode("utf-8"), object_pairs_hook=unique_keys)
        except InputDomainError as exc:  # a repeated key
            raise ConfigError(f"config {path}: {exc}")
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        _check_keys(raw, set(_CONFIG_SCHEMA), "")
        for key in ("atom_spec_path", "pump", "condensate", "detection"):
            if key not in raw:
                raise ConfigError(f"missing required key '{key}'")
        for key, sub in _CONFIG_SCHEMA.items():
            if sub is not None and key in raw:
                if not isinstance(raw[key], dict):
                    raise ConfigError(f"'{key}' must be an object")
                _check_keys(raw[key], sub, f"{key}.")

        self.atom_path, self.atom_sha256, self.spec = self._load_atom(raw["atom_spec_path"])
        self.pump = self._parse_pump(raw["pump"])
        self.condensate = self._parse_condensate(raw["condensate"])
        detection = raw["detection"]
        if ("direction" in detection) == ("scan" in detection):
            raise ConfigError("'detection' must contain exactly one of 'direction', 'scan'")
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
                    raise ConfigError("'chsh.settings_rad' must be a list of 4 angles")
                from .bell_sim import _ANGLE_NAMES, _finite_angles

                angles = tuple(finite_number(x, "chsh.settings_rad") for x in settings)
                try:
                    self.chsh_settings = _finite_angles(_ANGLE_NAMES, angles)
                except InputDomainError as exc:  # an angle whose double overflows
                    raise ConfigError(f"invalid 'chsh.settings_rad': {exc}")
        self.validity_threshold = finite_number(
            raw.get("validity_threshold", 100.0), "validity_threshold"
        )
        if self.validity_threshold < 0:
            raise ConfigError("'validity_threshold' must not be negative")

    def _load_atom(self, value) -> tuple[Path, str, AtomSpec]:
        if not isinstance(value, str):
            raise ConfigError("'atom_spec_path' must be a string")
        if value.startswith("builtin:"):
            name = value[len("builtin:"):]
            if not name or set(name) & {"/", "\\", "."}:
                raise ConfigError(
                    f"'atom_spec_path' {value!r} must name a shipped species, "
                    "with no '/', '\\' or '.' after 'builtin:'"
                )
            path = Path(__file__).parent / "data" / f"{name}.json"
        else:
            path = Path(value)
            if not path.is_absolute():
                path = self.path.parent / path
        if not path.is_file():
            raise ConfigError(f"'atom_spec_path' names no file: '{path}'")
        data = _io("'atom_spec_path'", path, Path.read_bytes)  # hashed and parsed: one read
        return path, hashlib.sha256(data).hexdigest(), _parse_atom_spec(data, path)

    def _parse_scan(self, scan) -> dict:
        """``detection.scan`` as the ``resolution``, ``measure`` and ``filter_f``
        keyword arguments of ``geometry_explorer.scan_chunks``."""
        if not isinstance(scan, dict):
            raise ConfigError("'detection.scan' must be an object")
        _check_keys(scan, _SCAN_KEYS, "detection.scan.")
        for key in ("resolution_deg", "measure"):
            if key not in scan:
                raise ConfigError(f"missing required key 'detection.scan.{key}'")
        from .geometry_explorer import MAX_RESOLUTION, MEASURES, MIN_RESOLUTION

        if (measure := scan["measure"]) not in MEASURES:
            raise ConfigError(f"'detection.scan.measure' must be one of {', '.join(MEASURES)}")
        degrees = finite_number(scan["resolution_deg"], "detection.scan.resolution_deg")
        resolution = math.radians(degrees)  # the value scan_chunks checks, so 30 passes
        if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
            raise ConfigError(
                f"'detection.scan.resolution_deg' must lie in [{math.degrees(MIN_RESOLUTION):g}, "
                f"{math.degrees(MAX_RESOLUTION):g}] degrees, got {degrees!r}"
            )
        filter_f = None
        if "filter_f" in scan:
            if measure != "concurrence_after_filter":
                raise ConfigError(
                    "'detection.scan.filter_f' does not apply to "
                    f"'detection.scan.measure' {measure}"
                )
            filter_f = self.parse_level(scan["filter_f"], "detection.scan.filter_f")
        elif measure == "concurrence_after_filter":
            raise ConfigError(
                "'detection.scan.measure' concurrence_after_filter needs 'detection.scan.filter_f'"
            )
        return {"resolution": resolution, "measure": measure, "filter_f": filter_f}

    def parse_level(self, value, key: str) -> HalfInt:
        try:
            level = halfint(value)
        except InputDomainError:
            raise ConfigError(f"'{key}' must be an integer or half-integer, got {value!r}")
        if level not in self.spec.ground_levels():
            raise ConfigError(
                f"'{key}'={level} is not a ground level of {self.spec.name} "
                f"(levels: {[str(f) for f in self.spec.ground_levels()]})"
            )
        return level

    def _parse_pump(self, raw: dict) -> PumpConfig:
        for key in ("direction", "polarization", "laser_hz"):
            if key not in raw:
                raise ConfigError(f"missing required key 'pump.{key}'")
        direction = _as_unit_vector(raw["direction"], "pump.direction", False)
        polarization = _as_unit_vector(raw["polarization"], "pump.polarization", True)
        amplitude = _as_complex(raw.get("amplitude", 1.0), "pump.amplitude")
        if not _intensity(amplitude) > 0:
            raise ConfigError(
                f"'pump.amplitude' must have a positive |amplitude|^2, got {amplitude!r}"
            )
        try:
            return PumpConfig(
                direction=direction,
                polarization=polarization,
                omega_laser=TWO_PI * finite_number(raw["laser_hz"], "pump.laser_hz"),
                pump_amplitude=amplitude,
                atom_number=finite_number(raw.get("atom_number", 1.0), "pump.atom_number"),
            )
        except InputDomainError as exc:
            raise ConfigError(f"invalid 'pump': {exc}")

    def _parse_condensate(self, raw: dict) -> CondensateSpinor:
        amplitudes = raw.get("amplitudes")
        if not isinstance(amplitudes, dict) or not amplitudes:
            raise ConfigError("'condensate.amplitudes' must be a non-empty object")
        parsed: dict[tuple[int, int], complex] = {}
        spelling: dict[tuple[int, int], str] = {}
        for key, value in amplitudes.items():
            try:
                tf, tm = (int(x) for x in key.split(":"))
            except ValueError:
                raise ConfigError(
                    f"condensate key {key!r} must look like '2F:2m' with doubled integers"
                )
            first = spelling.setdefault((tf, tm), key)
            if first != key:
                raise ConfigError(
                    f"'condensate.amplitudes' keys {first!r} and {key!r} name one sublevel"
                )
            try:  # a sublevel of the species, zero amplitude or not
                CondensateSpinor.from_dict({(tf, tm): 1.0}).vector(self.spec)
            except InputDomainError as exc:
                raise ConfigError(f"'condensate.amplitudes.{key}': {exc}")
            parsed[(tf, tm)] = _as_complex(value, f"condensate.amplitudes.{key}")
        try:
            total = math.sqrt(sum(abs(a) ** 2 for a in parsed.values()))
        except OverflowError:
            total = math.inf
        if not 0 < total < math.inf:
            raise ConfigError("'condensate.amplitudes' must have a nonzero, finite norm")
        normalized = {key: amp / total for key, amp in parsed.items()}
        return CondensateSpinor.from_dict(normalized)

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
