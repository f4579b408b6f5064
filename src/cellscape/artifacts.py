"""The one JSON writer of artifacts and manifests, and the one reader of input
files.  RFC 8259 has no inf or nan, so a non-finite float is written as
``null``, and ``allow_nan=False`` holds."""

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
