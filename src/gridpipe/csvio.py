"""Delimited-file reading and writing.

Two reading modes:

* ``rfc4180`` -- quoted fields, doubled-quote escapes, embedded commas
  and line breaks. The default for real data.
* ``naive-split`` -- the record is split on every comma, quotes are
  ordinary characters. Matches the classic one-line split and is kept
  for fixture fidelity.

Readers yield ``(raw, fields)`` so callers that must preserve records
byte-for-byte (sorting, comparison) can write the original text back
out. Output always uses LF line endings and UTF-8.
"""

from __future__ import annotations

import csv
import io
from typing import Iterator

from .errors import DataError

__all__ = ["read_records", "split_record", "encode_record", "CSV_MODES"]

CSV_MODES = ("rfc4180", "naive-split")


class BadCsvMode(DataError):
    pass


def split_record(raw: str, mode: str = "rfc4180") -> list[str]:
    """Fields of one record (no trailing newline in ``raw``)."""
    if mode == "naive-split":
        return raw.split(",")
    if '"' not in raw:
        return raw.split(",")
    try:
        rows = list(csv.reader(io.StringIO(raw)))
    except csv.Error as exc:
        raise DataError(f"unreadable record {raw!r}: {exc}") from None
    if not rows:
        return [""]
    return rows[0]


def read_records(path, mode: str = "rfc4180") -> Iterator[tuple[str, list[str]]]:
    """Stream ``(raw, fields)`` records from a delimited file.

    ``raw`` carries no line terminator; a quoted field spanning physical
    lines is reassembled with LF separators.
    """
    if mode not in CSV_MODES:
        raise BadCsvMode(f"unknown csv mode: {mode!r}")
    with open(path, encoding="utf-8-sig", newline="") as handle:
        # With newline="" a line holds one terminator (CR, LF or CRLF)
        # and no other CR or LF, so rstrip removes exactly that.
        if mode == "naive-split":
            for line in handle:
                raw = line.rstrip("\r\n")
                yield raw, raw.split(",")
            return
        pending: list[str] = []
        quotes = 0  # quote characters in the lines read for this record
        for line in handle:
            raw = line.rstrip("\r\n")
            quotes += raw.count('"')
            # An odd number of quotes so far means the record continues
            # on the next physical line.
            if quotes % 2:
                pending.append(raw)
                continue
            if pending:
                pending.append(raw)
                raw = "\n".join(pending)
                pending = []
            if quotes:
                quotes = 0
                yield raw, split_record(raw)
            else:
                yield raw, raw.split(",")
        if pending:  # unterminated quote at EOF: surface as-is
            raw = "\n".join(pending)
            yield raw, split_record(raw)


def encode_field(field: str) -> str:
    """RFC-style quoting: only when the field needs it."""
    if any(ch in field for ch in ',"\n\r'):
        return '"' + field.replace('"', '""') + '"'
    return field


def encode_record(fields: list[str]) -> str:
    return ",".join(encode_field(f) for f in fields)
