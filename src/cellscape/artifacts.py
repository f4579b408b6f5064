"""The one module that writes files, JSON, CSV or raw bytes, and the one
reader of input files.  RFC 8259 has no inf or nan, so a non-finite float is
written to JSON as ``null``, and ``allow_nan=False`` holds."""

import csv
import json
import math

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


def write_json(path, doc):
    with open(path, "w") as fh:
        dump(doc, fh)


def write_csv(path, header, rows):
    """Write a header line, then one line per row; floats (numpy's too) as
    their repr, which reads back exactly and gives ``inf`` and ``nan``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_bytes(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


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
