"""Command-line interface.

Subcommands: ``state``, ``filter``, ``scan``, ``chsh``, ``tables``.  Configs
are strict JSON (unknown keys are rejected, frequencies are given in Hz with
the unit in the key name).  Exit codes: 0 success, 2 configuration error,
3 physics or numerical-domain error.  All outputs carry a metadata block and
two runs with identical inputs are byte-identical.

Only what every command needs is imported here: each command imports the
modules of its own work, so ``tables`` never loads numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import suppress
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .angular_momentum import _cg_from_3j, _signed_sqrt, _wigner_3j_exact, _wigner_6j_exact
from .errors import InputDomainError, PhysicsError
from .outputs import _all_or_none, _into, _io, _named, _prefix_path, _text_writer, json_text

if TYPE_CHECKING:
    from .config import RunConfig
    from .pair_state import PairState

TABLES_MAX_DOUBLED_J = 12

# the files that an --output prefix names; elsewhere --output names one file
_PREFIX_FILES = {"scan": (".csv", ".json"), "tables": ("_cg.csv", "_3j.csv", "_6j.csv")}


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


def _config(args) -> RunConfig:
    """The run configuration of ``--config``.  An output that is the config or
    its species file, by any name or link, is refused, naming its flag and the
    input, and the command writes nothing; the outputs are the list of
    :func:`_outputs` that :func:`main` keeps in ``args.outputs``."""
    from .config import RunConfig

    config = RunConfig(Path(args.config))
    inputs = {"--config": config.path, "'atom_spec_path'": config.atom_path}
    for flag, _, path in args.outputs:
        with suppress(FileNotFoundError):  # a file still to be made is no input
            target = os.stat(path)
            for name, file in inputs.items():
                if os.path.samestat(target, _io(name, file, os.stat)):
                    raise InputDomainError(f"{flag} '{path}' is the {name} file '{file}'")
    return config


def _emit(texts: tuple[str, ...], files: list[tuple[Path, Path]]) -> str:
    """Each text written to the temporary of its ``(path, temp)`` output, in
    order, and "" returned; with no output, the texts joined for stdout."""
    if not files:
        return "".join(texts)
    for (_, temp), text in zip(files, texts):
        _into(temp, _text_writer(text))
    return ""


def _analysis_block(state: PairState, full_state: PairState) -> dict:
    """The measures of ``state``; its branch overlap, as a scan reads it, is
    that of ``full_state``: ``null`` and a note where it is undefined."""
    from .entanglement_analysis import _UNDEFINED_OVERLAP, _schmidt_coefficients
    from .entanglement_analysis import branch_overlap_of_blocks, entanglement_entropy

    overlap = float(branch_overlap_of_blocks(full_state.grams)[0])
    block = {
        "entropy_bits": entanglement_entropy(state),
        "schmidt_coefficients": list(_schmidt_coefficients(state)),
        "channel_probabilities": {
            ch.key(): prob for ch, prob in state.channel_probabilities()
        },
        "conditional_overlap": None if math.isnan(overlap) else overlap,
    }
    if math.isnan(overlap):
        block["conditional_overlap_note"] = _UNDEFINED_OVERLAP
    return block


def _state(config: RunConfig) -> PairState:
    """The pair state of the configured detection direction."""
    from .pair_state import build_pair_state

    if config.direction is None:
        raise InputDomainError("this command needs 'detection.direction', not a scan block")
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
    from .pair_state import _pair_state_csv, pair_state_to_json

    if args.format == "csv":
        return _pair_state_csv(state, config.metadata())
    doc = pair_state_to_json(state, provenance=config.metadata())
    doc["analysis"] = _analysis_block(state, full_state or state)
    return json_text(doc)


def cmd_state(args, files: list[tuple[Path, Path]]) -> str:
    config = _config(args)
    return _emit((_state_text(config, _state(config), args),), files)


def cmd_filter(args, files: list[tuple[Path, Path]]) -> str:
    from .pair_state import spectral_filter

    config = _config(args)
    if args.f_select is not None:
        level = config.parse_level(args.f_select, "f-select")
    elif config.filter_f is not None:
        level = config.filter_f
    else:
        raise InputDomainError("no filter level: pass --f-select or set 'filter_f' in the config")
    state = _state(config)
    filtered = spectral_filter(state, level)
    return _emit((_state_text(config, filtered, args, full_state=state),), files)


def cmd_scan(args, files: list[tuple[Path, Path]]) -> str:
    from .geometry_explorer import FLAG_REASONS, _write_chunks, argmax_direction, scan_chunks

    if not files:
        raise InputDomainError("scan needs an output prefix: pass --output")
    config = _config(args)
    if config.scan is None:
        raise InputDomainError("'detection.scan' block required for the scan command")
    chunks = scan_chunks(
        config.spec,
        config.pump,
        config.condensate,
        **config.scan,
        validity_threshold=config.validity_threshold,
    )
    metadata = config.metadata()
    chunks = (chunk.replace(metadata=metadata) for chunk in chunks)
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
    from .bell_sim import GENERATOR_ID, _moments, _optimum, _s_value, _sampled, _support_matrix
    from .bell_sim import tally_chunks
    from .pair_state import spectral_filter

    if args.samples < 0:
        raise InputDomainError(f"--samples must be 0 (no sampling) or positive, got {args.samples}")
    if args.seed < 0:
        raise InputDomainError(f"--seed must not be negative, got {args.seed}")
    if args.events_csv is not None and not args.samples:
        raise InputDomainError("--events-csv needs --samples: there are no sampled events to write")
    config = _config(args)
    state = _state(config)
    if config.filter_f is not None:
        state = spectral_filter(state, config.filter_f)
    moments = _moments(_support_matrix(state))  # once, for S and for the sampler
    optimized = config.chsh_settings is None
    if optimized:
        settings, s_value = _optimum(moments[1:, 1:])
    else:
        settings = config.chsh_settings
        s_value = _s_value(moments[1:, 1:], settings)
    doc = {
        "format": "raman-pairs/chsh/1",
        "metadata": config.metadata(seed=args.seed if args.samples else None),
        "settings_rad": list(settings),
        "optimized": optimized,
        "s_analytic": s_value,
        "tsirelson_bound": 2.0 * math.sqrt(2.0),
    }
    if args.samples:
        chunks = _sampled(moments, settings, args.samples, args.seed)
        sampling = doc["sampling"] = dict(n=args.samples, seed=args.seed, generator=GENERATOR_ID)
        if args.events_csv is None:
            sampling.update(tally_chunks(chunks))
        else:

            def write(temp: Path) -> dict:
                with open(temp, "wb") as csv:
                    return tally_chunks(chunks, csv)

            # the events are written as they are drawn, into the last temporary
            sampling.update(_into(files.pop()[1], write), events_csv=str(args.events_csv))
    return _emit((json_text(doc),), files)


class _RowTails(dict):
    """The row tail ``value,sign,p,q`` of each exact ``(sign, p, q)``, formatted once."""

    def __missing__(self, exact: tuple[int, int, int]) -> str:
        tail = self[exact] = "{!r},{},{},{}\n".format(_signed_sqrt(*exact), *exact)
        return tail


def _tables_text(max_doubled_j: int) -> tuple[str, str, str]:
    """The CG, 3-j and 6-j tables up to ``max_doubled_j``, each one flat walk.

    A row is its six indices, valid by construction, and the tail of its
    exact value, formatted once per distinct value; the indices but the
    innermost are formatted once per outer index.  One walk of the coupling
    indices (2j1, 2j2, 2J, 2m1, 2m2), with |m1 + m2| <= J, writes each 3-j
    row and, through the bridge that clebsch_gordan uses, its CG row.
    """
    n = max_doubled_j
    head = f"# tool=raman-pairs\n# version={__version__}\n"
    cg = [f"{head}2j1,2m1,2j2,2m2,2J,2M,value,sign,radicand_num,radicand_den\n"]
    w3j = [f"{head}2j1,2j2,2j3,2m1,2m2,2m3,value,sign,radicand_num,radicand_den\n"]
    w6j = [f"{head}2j1,2j2,2j3,2j4,2j5,2j6,value,sign,radicand_num,radicand_den\n"]
    cg_tails, w3j_tails, w6j_tails = _RowTails(), _RowTails(), _RowTails()
    for tj1 in range(n + 1):
        for tj2 in range(n + 1):
            for tj in range(abs(tj1 - tj2), min(tj1 + tj2, n) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    w3j_head, cg_head = f"{tj1},{tj2},{tj},{tm1},", f"{tj1},{tm1},{tj2},"
                    for tm2 in range(max(-tj2, -tj - tm1), min(tj2, tj - tm1) + 1, 2):
                        tm = tm1 + tm2
                        exact = _wigner_3j_exact(tj1, tj2, tj, tm1, tm2, -tm)
                        w3j.append(f"{w3j_head}{tm2},{-tm},{w3j_tails[exact]}")
                        cg_tail = cg_tails[_cg_from_3j(tj1, tj2, tj, tm, *exact)]
                        cg.append(f"{cg_head}{tm2},{tj},{tm},{cg_tail}")
    cg, w3j = "".join(cg), "".join(w3j)  # frees two lists before the largest table
    for a in range(n + 1):
        for b in range(n + 1):
            for c in range(abs(a - b), min(a + b, n) + 1, 2):
                for d in range(n + 1):
                    for e in range(abs(d - c), min(d + c, n) + 1, 2):
                        row_head = f"{a},{b},{c},{d},{e},"
                        for f in range(max(abs(a - e), abs(d - b)), min(a + e, d + b, n) + 1, 2):
                            tail = w6j_tails[_wigner_6j_exact(a, b, c, d, e, f)]
                            w6j.append(f"{row_head}{f},{tail}")
    return cg, w3j, "".join(w6j)


def cmd_tables(args, files: list[tuple[Path, Path]]) -> str:
    n = args.max_doubled_j
    if n < 0 or n > TABLES_MAX_DOUBLED_J:
        raise InputDomainError(f"--max-doubled-j must lie in [0, {TABLES_MAX_DOUBLED_J}], got {n}")
    return _emit(_tables_text(n), files) or "".join(f"wrote {path}\n" for path, _ in files)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and the parser of each command, by name."""
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
    return parser, sub.choices


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: the same namespace, exit and messages.
    An ``argv`` that begins with a command goes straight to that command's parser,
    as the top-level parser would pass it on; any other goes through the top level."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Open the command's output files, do its work, commit the files and only
    then print its stdout: an output that cannot be opened exits 2 before any work."""
    args = _parse(argv)
    try:
        args.outputs = outputs = _outputs(args)
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
