"""Command-line interface.

Subcommands: ``state``, ``filter``, ``scan``, ``chsh``, ``tables``.  Configs
are strict JSON (unknown keys are rejected, frequencies are given in Hz with
the unit in the key name).  Exit codes: 0 success, 2 configuration error,
3 physics or numerical-domain error.  All outputs carry a metadata block and
two runs with identical inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .angular_momentum import (
    HalfInt,
    _cg_from_3j,
    _signed_sqrt,
    _wigner_3j_exact,
    _wigner_6j_exact,
    halfint,
)
from .atomic_model import AtomSpec, _parse_atom_spec, finite_number, unique_keys
from .bell_sim import (
    _ANGLE_NAMES,
    GENERATOR_ID,
    _finite_angles,
    chsh,
    events_to_csv,
    optimize_chsh,
    sample_events,
)
from .entanglement_analysis import _schmidt_coefficients, branch_overlap, entanglement_entropy
from .errors import (
    ConfigError,
    InputDomainError,
    PhysicsError,
    UndefinedOverlapError,
)
from .geometry_explorer import (
    FLAG_REASONS,
    MEASURES,
    _write_chunks,
    argmax_direction,
    scan_chunks,
)
from .outputs import _all_or_none, _into, _io, _named, _prefix_path, _text_writer
from .pair_state import (
    CondensateSpinor,
    PairState,
    PumpConfig,
    _intensity,
    build_pair_state,
    json_text,
    pair_state_to_json,
    spectral_filter,
)

TWO_PI = 2.0 * math.pi
TABLES_MAX_DOUBLED_J = 12

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
# the files that an --output prefix names; elsewhere --output names one file
_PREFIX_FILES = {"scan": (".csv", ".json"), "tables": ("_cg.csv", "_3j.csv", "_6j.csv")}


def _fail_config(message: str) -> None:
    raise ConfigError(message)


def _check_keys(obj: dict, allowed, path: str) -> None:
    for key in obj:
        if key not in allowed:
            _fail_config(f"unknown key '{path}{key}'")


def _as_complex(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2:
        return complex(finite_number(value[0], path), finite_number(value[1], path))
    if isinstance(value, list):
        _fail_config(f"'{path}' must be a number or an [re, im] pair")
    return complex(finite_number(value, path))


def _as_unit_vector(value, path: str, complex_ok: bool) -> np.ndarray:
    """A 3-component list scaled to unit length."""
    if not isinstance(value, list) or len(value) != 3:
        _fail_config(f"'{path}' must be a 3-component list")
    parse = _as_complex if complex_ok else finite_number
    vector = np.array([parse(v, path) for v in value])
    with np.errstate(all="ignore"):
        unit = vector / np.linalg.norm(vector)
        if not abs(np.linalg.norm(unit) - 1.0) <= 1e-12:
            _fail_config(f"'{path}' has a length too small, too large or zero to scale")
    return unit


class RunConfig:
    """Parsed and validated run configuration."""

    def __init__(self, path: Path) -> None:
        self.path = path
        raw_bytes = _io("--config", path, Path.read_bytes)
        self.sha256 = hashlib.sha256(raw_bytes).hexdigest()
        try:
            raw = json.loads(raw_bytes, object_pairs_hook=unique_keys)
        except InputDomainError as exc:  # a repeated key
            _fail_config(f"config {path}: {exc}")
        except ValueError as exc:  # not JSON, or not UTF-8
            _fail_config(f"config {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            _fail_config("config root must be an object")
        _check_keys(raw, set(_CONFIG_SCHEMA), "")
        for key in ("atom_spec_path", "pump", "condensate", "detection"):
            if key not in raw:
                _fail_config(f"missing required key '{key}'")
        for key, sub in _CONFIG_SCHEMA.items():
            if sub is not None and key in raw:
                if not isinstance(raw[key], dict):
                    _fail_config(f"'{key}' must be an object")
                _check_keys(raw[key], sub, f"{key}.")

        self.atom_path, self.atom_sha256, self.spec = self._load_atom(raw["atom_spec_path"])
        self.pump = self._parse_pump(raw["pump"])
        self.condensate = self._parse_condensate(raw["condensate"])
        detection = raw["detection"]
        if ("direction" in detection) == ("scan" in detection):
            _fail_config("'detection' must contain exactly one of 'direction', 'scan'")
        self.direction: np.ndarray | None = None
        self.scan: dict | None = None
        if "direction" in detection:
            self.direction = _as_unit_vector(
                detection["direction"], "detection.direction", False
            )
        else:
            scan = detection["scan"]
            if not isinstance(scan, dict):
                _fail_config("'detection.scan' must be an object")
            _check_keys(scan, _SCAN_KEYS, "detection.scan.")
            for key in ("resolution_deg", "measure"):
                if key not in scan:
                    _fail_config(f"missing required key 'detection.scan.{key}'")
            if scan["measure"] not in MEASURES:
                _fail_config(
                    f"'detection.scan.measure' must be one of {', '.join(MEASURES)}"
                )
            self.scan = scan

        self.filter_f: HalfInt | None = None
        if "filter_f" in raw:
            self.filter_f = self.parse_level(raw["filter_f"], "filter_f")
        self.chsh_settings: tuple[float, float, float, float] | None = None
        if "chsh" in raw:
            settings = raw["chsh"].get("settings_rad")
            if settings is not None:
                if not isinstance(settings, list) or len(settings) != 4:
                    _fail_config("'chsh.settings_rad' must be a list of 4 angles")
                angles = tuple(finite_number(x, "chsh.settings_rad") for x in settings)
                try:
                    self.chsh_settings = _finite_angles(_ANGLE_NAMES, angles)
                except InputDomainError as exc:  # an angle whose double overflows
                    _fail_config(f"invalid 'chsh.settings_rad': {exc}")
        self.validity_threshold = finite_number(
            raw.get("validity_threshold", 100.0), "validity_threshold"
        )
        if self.validity_threshold < 0:
            _fail_config("'validity_threshold' must not be negative")

    def _load_atom(self, value) -> tuple[Path, str, AtomSpec]:
        if not isinstance(value, str):
            _fail_config("'atom_spec_path' must be a string")
        if value.startswith("builtin:"):
            path = Path(__file__).parent / "data" / f"{value[len('builtin:'):]}.json"
        else:
            path = Path(value)
            if not path.is_absolute():
                path = self.path.parent / path
        if not path.is_file():
            _fail_config(f"'atom_spec_path' names no file: '{path}'")
        data = _io("'atom_spec_path'", path, Path.read_bytes)  # hashed and parsed: one read
        return path, hashlib.sha256(data).hexdigest(), _parse_atom_spec(data, path)

    def parse_level(self, value, key: str) -> HalfInt:
        try:
            level = halfint(str(value))
        except InputDomainError:
            _fail_config(f"'{key}' must be an integer or half-integer, got {value!r}")
        if level not in self.spec.ground_levels():
            _fail_config(
                f"'{key}'={level} is not a ground level of {self.spec.name} "
                f"(levels: {[str(f) for f in self.spec.ground_levels()]})"
            )
        return level

    def _parse_pump(self, raw: dict) -> PumpConfig:
        for key in ("direction", "polarization", "laser_hz"):
            if key not in raw:
                _fail_config(f"missing required key 'pump.{key}'")
        direction = _as_unit_vector(raw["direction"], "pump.direction", False)
        polarization = _as_unit_vector(raw["polarization"], "pump.polarization", True)
        amplitude = _as_complex(raw.get("amplitude", 1.0), "pump.amplitude")
        if not _intensity(amplitude) > 0:
            _fail_config(f"'pump.amplitude' must have a positive |amplitude|^2, got {amplitude!r}")
        try:
            return PumpConfig(
                direction=direction,
                polarization=polarization,
                omega_laser=TWO_PI * finite_number(raw["laser_hz"], "pump.laser_hz"),
                pump_amplitude=amplitude,
                atom_number=finite_number(raw.get("atom_number", 1.0), "pump.atom_number"),
            )
        except InputDomainError as exc:
            _fail_config(f"invalid 'pump': {exc}")

    def _parse_condensate(self, raw: dict) -> CondensateSpinor:
        amplitudes = raw.get("amplitudes")
        if not isinstance(amplitudes, dict) or not amplitudes:
            _fail_config("'condensate.amplitudes' must be a non-empty object")
        parsed: dict[tuple[int, int], complex] = {}
        spelling: dict[tuple[int, int], str] = {}
        for key, value in amplitudes.items():
            try:
                tf, tm = (int(x) for x in key.split(":"))
            except ValueError:
                _fail_config(
                    f"condensate key {key!r} must look like '2F:2m' with doubled integers"
                )
            first = spelling.setdefault((tf, tm), key)
            if first != key:
                _fail_config(
                    f"'condensate.amplitudes' keys {first!r} and {key!r} name one sublevel"
                )
            parsed[(tf, tm)] = _as_complex(value, f"condensate.amplitudes.{key}")
        try:
            total = math.sqrt(sum(abs(a) ** 2 for a in parsed.values()))
        except OverflowError:
            total = math.inf
        if not 0 < total < math.inf:
            _fail_config("'condensate.amplitudes' must have a nonzero, finite norm")
        normalized = {key: amp / total for key, amp in parsed.items()}
        spinor = CondensateSpinor.from_dict(normalized)
        spinor.vector(self.spec)  # validates sublevel keys against the species
        return spinor

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


def _outputs(args) -> list[tuple[str, str, Path]]:
    """Each file the command writes, in order and from argv alone: the flag that
    names it, the path its errors show (a scan's prefix, else the file) and its
    path, refused if its text names a directory."""
    outputs = []
    if args.output is not None:
        prefix = _prefix_path(args.output, "--output")
        for suffix in _PREFIX_FILES.get(args.command, ("",)):
            path = prefix.with_name(prefix.name + suffix)
            outputs.append(("--output", str(prefix if args.command == "scan" else path), path))
    if getattr(args, "events_csv", None) is not None:
        path = _prefix_path(args.events_csv, "--events-csv")
        outputs.append(("--events-csv", str(path), path))
    return outputs


def _emit(texts: tuple[str, ...], files: list[tuple[Path, Path]]) -> str:
    """Each text written to the temporary of its ``(path, temp)`` output, in
    order, and "" returned; with no output, the texts joined for stdout."""
    if not files:
        return "".join(texts)
    for (_, temp), text in zip(files, texts):
        _into(temp, _text_writer(text))
    return ""


def _analysis_block(state: PairState, full_state: PairState) -> dict:
    try:
        overlap_doc: float | None = branch_overlap(full_state)
        overlap_note = None
    except UndefinedOverlapError as exc:
        overlap_doc = None
        overlap_note = str(exc)
    block = {
        "entropy_bits": entanglement_entropy(state),
        "schmidt_coefficients": list(_schmidt_coefficients(state)),
        "channel_probabilities": {
            ch.key(): prob for ch, prob in state.channel_probabilities()
        },
        "conditional_overlap": overlap_doc,
    }
    if overlap_note is not None:
        block["conditional_overlap_note"] = overlap_note
    return block


def _state_csv(state: PairState, metadata: dict) -> str:
    buf = io.StringIO()
    for key in sorted(metadata):
        buf.write(f"# {key}={metadata[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["omega_hz", "lambda", "doubled_F", "doubled_m", "amp_re", "amp_im"])
    matrix, photon, atoms = state.matrix()
    for ch, row in zip(photon, matrix.tolist()):
        writer.writerows(
            [repr(ch.omega / TWO_PI), ch.lam, tf, tm, repr(amp.real), repr(amp.imag)]
            for (tf, tm), amp in zip(atoms, row)
            if amp != 0.0
        )
    return buf.getvalue()


def _state(config: RunConfig) -> PairState:
    """The pair state of the configured detection direction."""
    if config.direction is None:
        _fail_config("this command needs 'detection.direction', not a scan block")
    return build_pair_state(
        config.spec,
        config.pump,
        config.condensate,
        config.direction,
        validity_threshold=config.validity_threshold,
    )


def _state_text(
    config: RunConfig, state: PairState, args, full_state: PairState | None = None
) -> str:
    """``state`` as text; its branch overlap is that of ``full_state`` (default: itself)."""
    if args.format == "csv":
        return _state_csv(state, config.metadata())
    doc = pair_state_to_json(state, provenance=config.metadata())
    doc["analysis"] = _analysis_block(state, full_state or state)
    return json_text(doc)


def cmd_state(args, files: list[tuple[Path, Path]]) -> str:
    config = RunConfig(Path(args.config))
    return _emit((_state_text(config, _state(config), args),), files)


def cmd_filter(args, files: list[tuple[Path, Path]]) -> str:
    config = RunConfig(Path(args.config))
    if args.f_select is not None:
        level = config.parse_level(args.f_select, "f-select")
    elif config.filter_f is not None:
        level = config.filter_f
    else:
        _fail_config("no filter level: pass --f-select or set 'filter_f' in the config")
    state = _state(config)
    filtered = spectral_filter(state, level)
    return _emit((_state_text(config, filtered, args, full_state=state),), files)


def cmd_scan(args, files: list[tuple[Path, Path]]) -> str:
    if not files:
        _fail_config("scan needs an output prefix: pass --output")
    config = RunConfig(Path(args.config))
    if config.scan is None:
        _fail_config("'detection.scan' block required for the scan command")
    resolution = math.radians(
        finite_number(config.scan["resolution_deg"], "detection.scan.resolution_deg")
    )
    filter_f = None
    if "filter_f" in config.scan:
        if (measure := config.scan["measure"]) != "concurrence_after_filter":
            _fail_config(
                f"'detection.scan.filter_f' does not apply to 'detection.scan.measure' {measure}"
            )
        filter_f = config.parse_level(config.scan["filter_f"], "detection.scan.filter_f")
    try:
        chunks = scan_chunks(
            config.spec,
            config.pump,
            config.condensate,
            resolution,
            config.scan["measure"],
            filter_f=filter_f,
            validity_threshold=config.validity_threshold,
        )
    except InputDomainError as exc:  # resolution range, measure without filter_f
        _fail_config(f"invalid 'detection.scan': {exc}")
    metadata = config.metadata()
    chunks = (replace(chunk, metadata=metadata) for chunk in chunks)
    (csv_path, csv_temp), (json_path, json_temp) = files
    nodes, best, counts = _into(csv_temp, lambda temp: _write_chunks(chunks, temp, json_temp))
    direction, value = argmax_direction(best)
    return (
        f"scan {best.measure_name}: {nodes} nodes -> {csv_path}, {json_path}\n"
        f"argmax direction ({direction[0]:+.6f}, {direction[1]:+.6f}, "
        f"{direction[2]:+.6f}) value {value!r}\n"
        f"flagged nodes: {', '.join(f'{r} {counts[r]}' for r in FLAG_REASONS)}\n"
    )


def cmd_chsh(args, files: list[tuple[Path, Path]]) -> str:
    if args.samples < 0:
        _fail_config(f"--samples must be 0 (no sampling) or positive, got {args.samples}")
    if args.seed < 0:
        _fail_config(f"--seed must not be negative, got {args.seed}")
    if args.events_csv is not None and not args.samples:
        _fail_config("--events-csv needs --samples: there are no sampled events to write")
    config = RunConfig(Path(args.config))
    state = _state(config)
    if config.filter_f is not None:
        state = spectral_filter(state, config.filter_f)
    _, photon_labels, atom_labels = state.matrix()
    if len(photon_labels) != 2 or len(atom_labels) != 2:
        raise PhysicsError(
            "CHSH needs a 2x2 state (2 photon labels x 2 atom labels); this one has "
            f"{len(photon_labels)} photon x {len(atom_labels)} atom labels. "
            "Set 'filter_f' in the config to select one frequency channel."
        )
    if config.chsh_settings is not None:
        settings = config.chsh_settings
        s_value = chsh(state, *settings)
        optimized = False
    else:
        settings, s_value = optimize_chsh(state)
        optimized = True
    doc = {
        "format": "raman-pairs/chsh/1",
        "metadata": config.metadata(seed=args.seed if args.samples else None),
        "settings_rad": list(settings),
        "optimized": optimized,
        "s_analytic": s_value,
        "tsirelson_bound": 2.0 * math.sqrt(2.0),
    }
    if args.samples:
        result = sample_events(state, settings, args.samples, args.seed)
        doc["sampling"] = {
            "n": args.samples,
            "seed": args.seed,
            "generator": GENERATOR_ID,
            "s_estimate": result.s_estimate,
            "standard_error": result.standard_error,
            "correlations": list(result.correlations),
            "counts": list(result.counts),
        }
        if args.events_csv is not None:
            doc["sampling"]["events_csv"] = str(args.events_csv)
    # the JSON first: a JSON write that fails does so before a long CSV
    text = _emit((json_text(doc),), files[:1] if args.output is not None else [])
    if args.events_csv is not None:
        _into(files[-1][1], lambda temp: events_to_csv(result, temp))
    return text


class _RowTails(dict):
    """The row tail ``value,sign,p,q`` of each exact ``(sign, p, q)``, formatted once."""

    def __missing__(self, exact: tuple[int, int, int]) -> str:
        tail = self[exact] = "{!r},{},{},{}\n".format(_signed_sqrt(*exact), *exact)
        return tail


def _tables_text(max_doubled_j: int) -> tuple[str, str, str]:
    def couplings():
        """(2j1, 2j2, 2J, 2m1, 2m2) with |m1 + m2| <= J: the CG and 3-j index set."""
        for tj1 in range(max_doubled_j + 1):
            for tj2 in range(max_doubled_j + 1):
                for tj in range(abs(tj1 - tj2), min(tj1 + tj2, max_doubled_j) + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            if abs(tm1 + tm2) <= tj:
                                yield tj1, tj2, tj, tm1, tm2

    def sixj_indices():
        rng = range(max_doubled_j + 1)
        for tj1 in rng:
            for tj2 in rng:
                for tj3 in range(abs(tj1 - tj2), min(tj1 + tj2, max_doubled_j) + 1, 2):
                    for tj4 in rng:
                        for tj5 in range(
                            abs(tj4 - tj3), min(tj4 + tj3, max_doubled_j) + 1, 2
                        ):
                            for tj6 in range(
                                max(abs(tj1 - tj5), abs(tj4 - tj2)),
                                min(tj1 + tj5, tj4 + tj2, max_doubled_j) + 1,
                                2,
                            ):
                                yield tj1, tj2, tj3, tj4, tj5, tj6

    head = f"# tool=raman-pairs\n# version={__version__}\n"
    cg, w3j, w6j = io.StringIO(), io.StringIO(), io.StringIO()
    cg.write(f"{head}2j1,2m1,2j2,2m2,2J,2M,value,sign,radicand_num,radicand_den\n")
    w3j.write(f"{head}2j1,2j2,2j3,2m1,2m2,2m3,value,sign,radicand_num,radicand_den\n")
    w6j.write(f"{head}2j1,2j2,2j3,2j4,2j5,2j6,value,sign,radicand_num,radicand_den\n")
    # A row is its six indices, valid by construction, and the tail of its
    # exact value, formatted once per distinct value.  One walk of the
    # coupling indices writes each 3-j row and, through the bridge that
    # clebsch_gordan uses, its CG row.
    cg_tails, w3j_tails, w6j_tails = _RowTails(), _RowTails(), _RowTails()
    for tj1, tj2, tj, tm1, tm2 in couplings():
        tm = tm1 + tm2
        exact = _wigner_3j_exact(tj1, tj2, tj, tm1, tm2, -tm)
        w3j.write(f"{tj1},{tj2},{tj},{tm1},{tm2},{-tm},{w3j_tails[exact]}")
        cg_tail = cg_tails[_cg_from_3j(tj1, tj2, tj, tm, *exact)]
        cg.write(f"{tj1},{tm1},{tj2},{tm2},{tj},{tm},{cg_tail}")
    cg, w3j = cg.getvalue(), w3j.getvalue()  # frees two buffers before the largest table
    for a, b, c, d, e, f in sixj_indices():
        w6j.write(f"{a},{b},{c},{d},{e},{f},{w6j_tails[_wigner_6j_exact(a, b, c, d, e, f)]}")
    return cg, w3j, w6j.getvalue()


def cmd_tables(args, files: list[tuple[Path, Path]]) -> str:
    n = args.max_doubled_j
    if n < 0 or n > TABLES_MAX_DOUBLED_J:
        _fail_config(f"--max-doubled-j must lie in [0, {TABLES_MAX_DOUBLED_J}], got {n}")
    return _emit(_tables_text(n), files) or "".join(f"wrote {path}\n" for path, _ in files)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="raman-pairs",
        description=(
            "Entangled atom-photon pair states from off-resonant light "
            "scattering on a spinor condensate"
        ),
    )
    parser.add_argument("--version", action="version", version=f"raman-pairs {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: bool = True) -> None:
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--output", help="output path (default: stdout)")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), help="output format")

    p_state = sub.add_parser("state", help="build the pair state for one direction")
    add_common(p_state)
    p_state.set_defaults(func=cmd_state)

    p_filter = sub.add_parser("filter", help="spectrally filter one frequency channel")
    add_common(p_filter)
    p_filter.add_argument("--f-select", help="final ground level F, e.g. '1' or '3/2'")
    p_filter.set_defaults(func=cmd_filter)

    p_scan = sub.add_parser("scan", help="scan detection directions over the sphere")
    add_common(p_scan, formats=False)  # a scan always writes both files
    p_scan.set_defaults(func=cmd_scan)

    p_chsh = sub.add_parser("chsh", help="CHSH correlations of a filtered state")
    add_common(p_chsh, formats=False)  # JSON only; the events go to --events-csv
    p_chsh.add_argument("--samples", type=int, default=0, help="sampled trials")
    p_chsh.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_chsh.add_argument("--events-csv", help="write sampled events to this CSV")
    p_chsh.set_defaults(func=cmd_chsh)

    p_tables = sub.add_parser("tables", help="dump coefficient grids as CSV")
    p_tables.add_argument("--max-doubled-j", type=int, required=True)
    p_tables.add_argument("--output", help="output path prefix")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Open the command's output files, do its work, commit the files and only
    then print its stdout: an output that cannot be opened exits 2 before any work."""
    args = build_parser().parse_args(argv)
    try:
        outputs = _outputs(args)
        try:
            with _all_or_none([(flag, path) for flag, _, path in outputs]) as temps:
                text = args.func(args, [(path, temp) for (_, _, path), temp in zip(outputs, temps)])
        except OSError as exc:
            named = [(flag, shown) for flag, shown, path in outputs if str(path) == exc.filename]
            if not named:
                raise
            raise _named(*named[0], exc) from exc
        sys.stdout.write(text)
        return 0
    except InputDomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
