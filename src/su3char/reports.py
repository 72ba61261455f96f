"""Byte-stable CSV/JSON artifact emission.

Identical inputs produce identical bytes: fixed field order (dataclass /
dict insertion order), floats as ``%.17g`` (exact float64 round-trip), LF
line endings, UTF-8, one trailing newline.  JSON is strict: non-finite
floats are written as the strings ``"inf"``, ``"-inf"`` and ``"nan"`` (the
CSV spelling), never as the bare ``Infinity``/``NaN`` tokens.  The resolved
run configuration is echoed into every artifact -- as a ``# config=...``
preamble line in CSV and a top-level ``"config"`` key in JSON.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
from typing import Iterable, List

__all__ = [
    "emit_report",
    "emit_json",
    "read_report_csv",
]


class ReportWriteError(RuntimeError):
    """I/O failure while writing an artifact; message carries the path."""


def _finite_or_str(v):
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, dict):
        return {k: _finite_or_str(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_str(x) for x in v]
    return v


def strict_json(obj, **kwargs) -> str:
    """json.dumps(obj, **kwargs) with non-finite floats spelled as strings."""
    return json.dumps(_finite_or_str(obj), allow_nan=False, **kwargs)


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, int):
        return str(v)
    if v is None:
        return ""
    s = str(v)
    if "," in s or "\n" in s or '"' in s:
        raise ValueError(f"CSV field value needs quoting, refusing: {s!r}")
    return s


def _field_names(rec) -> List[str]:
    if isinstance(rec, dict):
        return list(rec)
    if dataclasses.is_dataclass(rec) and not isinstance(rec, type):
        return [f.name for f in dataclasses.fields(rec)]
    raise TypeError(f"records must be dataclasses or dicts, got {type(rec)!r}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as e:
        raise ReportWriteError(f"cannot write report to {path}: {e}") from e


def emit_report(records: Iterable, format: str, path: str, config=None) -> None:
    """Write a table of records as CSV; any other ``format`` is refused.
    Empty input is an error and creates no file."""
    if format != "csv":
        raise ValueError(f"format must be 'csv', got {format!r}")
    records = list(records)
    if not records:
        raise ValueError(f"no records to emit; refusing to create {path}")
    fields = _field_names(records[0])
    lines = []
    if config is not None:
        lines.append("# config=" + strict_json(config, sort_keys=True, separators=(",", ":")))
    lines.append(",".join(fields))
    if any(map(fields.__ne__, map(_field_names, records))):
        raise ValueError("all records must share one field set")
    columns = [[rec[name] if isinstance(rec, dict) else getattr(rec, name) for rec in records]
               for name in fields]
    lines += map(",".join, zip(*(map(_fmt_scalar, column) for column in columns)))
    _write_text(path, "\n".join(lines) + "\n")


def emit_json(payload: dict, path: str, config=None) -> None:
    """Write a summary object (config echoed as the first key)."""
    _write_text(path, strict_json({"config": config, **payload}, indent=2) + "\n")


_INT_RE = re.compile(r"[+-]?\d+\Z")


def _parse_cell(s: str):
    if _INT_RE.match(s):
        return int(s)
    try:
        return float(s)
    except ValueError:
        pass
    if s == "true":
        return True
    if s == "false":
        return False
    if s == "":
        return None
    return s


def _parse_column(cells: List[str]) -> list:
    """A column's values: ints when every cell reads as one, else floats when
    every one does, else cell by cell (_parse_cell)."""
    for parse in (int, float):
        try:
            return list(map(parse, cells))
        except ValueError:
            pass
    return list(map(_parse_cell, cells))


def read_report_csv(path: str):
    """Parse an emitted CSV back into (config, rows-as-dicts).

    Ints, floats (17-significant-digit, exact round-trip), booleans, and
    empty cells are restored to Python values, by column: a column of
    numbers with any non-integer reads as floats throughout.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    config = None
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        if lines[i].startswith("# config="):
            config = json.loads(lines[i][len("# config="):])
        i += 1
    header = lines[i].split(",")
    body = lines[i + 1:]
    commas = map(str.count, body, itertools.repeat(","))
    for line in itertools.compress(body, map((len(header) - 1).__ne__, commas)):
        raise ValueError(f"malformed CSV row in {path}: {line!r}")
    # one flat list of cell strings, read column by column
    cells = ",".join(body).split(",") if body else []
    columns = [_parse_column(cells[j::len(header)]) for j in range(len(header))]
    return config, list(map(dict, map(zip, itertools.repeat(header), zip(*columns))))
