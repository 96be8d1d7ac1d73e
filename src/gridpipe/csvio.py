"""Delimited-file reading and writing.

Two reading modes:

* ``rfc4180`` -- quoted fields, doubled-quote escapes, embedded commas
  and line breaks, kept as written. The default for real data.
* ``naive-split`` -- the record is split on every comma, quotes are
  ordinary characters. Matches the classic one-line split and is kept
  for fixture fidelity.

Readers yield ``(raw, fields)`` so callers that must preserve records
byte-for-byte (sorting, comparison) can write the original text back
out. Output always uses LF line endings and UTF-8, and reaches its path
only once it is complete (``atomic_output``).
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from itertools import filterfalse
from typing import Iterator

from .errors import DataError

__all__ = ["read_records", "split_record", "encode_record", "atomic_output", "CSV_MODES"]

CSV_MODES = ("rfc4180", "naive-split")

csv.field_size_limit(2**31 - 1)  # not the stdlib's 128 KiB: see read_records


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

    ``raw`` is the record's physical lines as written, less the final
    terminator, and an empty line is one empty field. CR and CRLF inside
    quotes stay in ``raw`` and ``fields``. One ``csv.reader(strict=True)``
    parses an rfc4180 file: a malformed record, or a quote open at EOF,
    is a ``DataError`` naming the file and physical line. Quoted fields,
    like unquoted ones, have no size limit: this module sets
    ``csv.field_size_limit`` to 2**31 - 1.
    """
    if mode not in CSV_MODES:
        raise BadCsvMode(f"unknown csv mode: {mode!r}")
    with open(path, encoding="utf-8-sig", newline="") as handle:
        # With newline="" a line holds one terminator (CR, LF or CRLF)
        # and no other CR or LF, and a record's last line is empty only
        # if the record is, so rstrip removes exactly that terminator.
        if mode == "naive-split":
            for line in handle:
                raw = line.rstrip("\r\n")
                yield raw, raw.split(",")
            return
        consumed: list[str] = []  # the physical lines of the current record
        # append returns None, so filterfalse hands the reader every line
        # once it is recorded, with no Python frame per line.
        reader = csv.reader(filterfalse(consumed.append, handle), strict=True)
        try:
            for fields in reader:
                raw = "".join(consumed).rstrip("\r\n")
                consumed.clear()
                yield raw, fields or [""]
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def encode_field(field: str) -> str:
    """RFC-style quoting: only when the field needs it."""
    if "," in field or '"' in field or "\n" in field or "\r" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def encode_record(fields: list[str]) -> str:
    return ",".join(encode_field(f) for f in fields)


@contextmanager
def atomic_output(path):
    """Write ``path`` (UTF-8, LF) through a temp file beside it, which
    replaces it when the block completes and is removed if it raises."""
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
