"""The one module that opens files: it writes every file, JSON, CSV or raw
bytes, and reads every input file, JSON or raw bytes.  RFC 8259 has no inf or
nan, so a non-finite float is written to JSON as ``null``, and
``allow_nan=False`` holds.  Every file is written whole or not at all: to a
temporary file beside it, renamed into place once complete.  ``typed`` is the
one check of a value's type read from a file."""

import contextlib
import csv
import json
import math
import os

from .errors import ParseError


def _finite_or_none(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return value


def dump(doc, fh):
    """Stream doc to the text file fh: sorted keys, a two-space indent, a final newline."""
    json.dump(_finite_or_none(doc), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


@contextlib.contextmanager
def _replacing(path, mode, **kwargs):
    """A file open for writing beside ``path`` that replaces ``path`` when the
    block ends.  If the block raises, the file is removed and ``path`` is
    left as it was."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc):
    with _replacing(path, "w") as fh:
        dump(doc, fh)


def write_csv(path, header, rows):
    """Write a header line, then one line per row; floats (numpy's too) as
    their repr, which reads back exactly and gives ``inf`` and ``nan``."""
    with _replacing(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_bytes(path, data):
    with _replacing(path, "wb") as fh:
        fh.write(data)


def read_bytes(path):
    """The bytes of the file at path; raises ParseError naming the path when
    the file cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_json(path):
    """The JSON document in the file at path; raises ParseError naming the
    path when the file cannot be opened, is not UTF-8, or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


_KIND_NAMES = {(int,): "an integer", (str,): "a string", (bool,): "a boolean",
               (int, float): "a number", (dict,): "an object"}


def typed(value, kinds, what):
    """value, if its type is exactly one of the JSON types kinds, a key of
    ``_KIND_NAMES`` (``true`` is not an int, nor is ``1.0``); else a one-line
    ParseError naming what and spelling value as the file does."""
    if type(value) not in kinds:
        raise ParseError(f"{what} must be {_KIND_NAMES[kinds]}, not {json.dumps(value)}")
    return value
