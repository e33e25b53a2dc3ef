"""Output files and their JSON text.  Every command writes its files through
one transaction, :func:`_all_or_none`, which the CLI opens before any work.
No numpy."""

from __future__ import annotations

import errno
import math
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

from .errors import InputDomainError, PhysicsError


def _prefix_path(prefix: str | os.PathLike, name: str = "output prefix") -> Path:
    """An output prefix or file as a path, checked on its text, where a trailing
    separator shows: one that ends in a separator or is named "", "." or ".."
    is a directory.  The error calls it ``name``, such as the flag that gave it."""
    text = os.fspath(prefix)
    if text.endswith((os.sep, os.altsep or os.sep)) or Path(text).name in ("", ".", ".."):
        raise InputDomainError(f"{name} '{text}' names a directory, not a file")
    return Path(text)


def _io(flag: str, path, action, shown: str | None = None):
    """``action(path)``; an OS error becomes a configuration error naming ``flag``
    and the path, as ``shown`` if given."""
    try:
        return action(path)
    except OSError as exc:
        raise _named(flag, path, exc, shown)


def _named(flag: str, path, exc: OSError, shown: str | None = None) -> InputDomainError:
    """``exc`` as a configuration error naming ``flag`` and ``path`` (as
    ``shown`` if given, else quoted), or the directory in the way, which may be
    a sibling of ``path``."""
    if isinstance(exc, IsADirectoryError) and exc.filename:
        path, shown = exc.filename, None
    shown = shown or f"'{path}'"
    return InputDomainError(f"{flag} {shown}: {exc.strerror or exc}")


def _on(path: Path, target: Path, action: Callable[[Path], Path | None] | None = None):
    """``action(target)``, refused if ``target`` is a directory; an OS error names ``path``."""
    try:
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        return action and action(target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _fresh(target: Path) -> Path:
    """An empty file beside ``target`` under a name no file has, with a new file's mode."""
    while True:
        temp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
        with suppress(FileExistsError):  # the name is taken: draw another
            os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            return temp


@contextmanager
def _all_or_none(outputs: list[tuple[str, Path]]) -> Iterator[list[Path]]:
    """A fresh temporary file beside each ``(name, path)`` output, renamed onto
    its path when the block ends; any error removes every temporary, so either
    all the files are written or none is.  Each path is resolved once, so a
    symlinked output keeps its link.  Two outputs that resolve to one file are
    refused by name, and a directory in the way on entry and again before the
    first rename.  An OS error that names an output or its temporary names the
    output's path."""
    targets = [Path(os.path.realpath(path)) for _, path in outputs]
    for j, (name, path) in enumerate(outputs):
        if (i := targets.index(targets[j])) < j:
            raise InputDomainError(
                f"{name} and {outputs[i][0]} name one file: '{path}' and '{outputs[i][1]}'"
            )
    temps: list[Path] = []
    try:
        for (_, path), target in zip(outputs, targets):
            temps.append(_on(path, target, _fresh))
        yield temps
        for (_, path), target in zip(outputs, targets):
            _on(path, target)
        for (_, path), target, temp in zip(outputs, targets, temps):
            _on(path, target, lambda _: os.replace(temp, target))
    except BaseException as exc:
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (names := list(map(str, temps))):
            exc.filename = str(outputs[names.index(exc.filename)][1])
        raise


def _into(temp: Path, write):
    """``write(temp)``; an OS error that names no file, such as a full disk, names ``temp``."""
    try:
        return write(temp)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = str(temp)
        raise


def _text_writer(text: str) -> Callable[[Path], None]:
    return lambda path: path.write_text(text, encoding="utf-8")


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, sort_keys=True)`` writes it at ``indent``."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not -math.inf < value < math.inf:  # NaN fails too
            raise PhysicsError(f"output has a non-finite number: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_value(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str fails in _json_string, or in sorting
        items = [f"{_json_string(k)}: {_json_value(v, inner)}" for k, v in sorted(value.items())]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(doc: dict) -> str:
    """Indented, key-sorted, ASCII-escaped strict JSON; a non-finite number is a physics error.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``, for str keys.  The standard library
    encodes an indented document in pure Python; this writer does less.
    """
    return _json_value(doc, "") + "\n"
