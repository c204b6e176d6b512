"""Files: inputs are read whole and parsed here, each fault naming its file; outputs are written whole."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterator, Tuple

# Kinds for checked(); str.__instancecheck__(v) is isinstance(v, str), without
# a Python call for each corpus field.
STRING = ("a string", str.__instancecheck__)
STRINGS = ("a list of strings", lambda v: type(v) is list and all(type(t) is str for t in v))


def lines(path: str) -> Iterator[Tuple[str, str]]:
    """("<path> line N", stripped line) for each non-blank line of path."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            yield f"{path} line {lineno}", line


def parse_json(text: str, where: str) -> object:
    """The JSON value text holds; a malformed one is a ValueError naming where."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def read_text(path: str) -> str:
    """The whole file's text; a bad byte is a ValueError naming path and its offset."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def sha256(path: str) -> str:
    """The hex SHA-256 of the file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path: str) -> object:
    """The JSON value of the whole file, parsed from its full text."""
    return parse_json(read_text(path), path)


def checked(value: object, where: str, fields: dict) -> dict:
    """value, once it is an object whose values pass fields' key -> (kind, check) table."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object")
    for key, (kind, valid) in fields.items():
        if key not in value:
            raise ValueError(f"{where}: missing key {key!r}")
        if not valid(value[key]):
            raise ValueError(f"{where}: {key!r} must be {kind}")
    return value


def atomic_write_text(path: str, text: str) -> None:
    """Write path through a temporary file, with the mode open(path, "w") gives.

    An OSError names path, not the temporary file it arose on.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.chmod(tmp, 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
