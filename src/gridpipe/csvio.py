"""Delimited-file reading and writing in one dialect, RFC 4180: every
record gridpipe reads, from a file or a line, goes through ``_reader``.

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
from functools import partial
from itertools import filterfalse
from typing import Iterator

from .errors import DataError

__all__ = ["read_records", "parse_line", "encode_record", "atomic_output"]

csv.field_size_limit(2**31 - 1)  # not the stdlib's 128 KiB: see read_records
_reader = partial(csv.reader, strict=True)


def read_records(path) -> Iterator[tuple[str, list[str]]]:
    """Stream ``(raw, fields)`` records from a delimited file.

    ``raw`` is the record's physical lines as written, less the final
    terminator, and an empty line is one empty field. CR and CRLF inside
    quotes stay in ``raw`` and ``fields``. One ``csv.reader(strict=True)``
    parses the file: a malformed record, or a quote open at EOF,
    is a ``DataError`` naming the file, the physical line where parsing
    stopped and the line where the record began. Quoted fields,
    like unquoted ones, have no size limit: this module sets
    ``csv.field_size_limit`` to 2**31 - 1.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        # With newline="" a line holds one terminator (CR, LF or CRLF)
        # and no other CR or LF, and a record's last line is empty only
        # if the record is, so rstrip removes exactly that terminator.
        consumed: list[str] = []  # the physical lines of the current record
        # append returns None, so filterfalse hands the reader every line
        # once it is recorded, with no Python frame per line.
        reader = _reader(filterfalse(consumed.append, handle))
        try:
            for fields in reader:
                raw = "".join(consumed).rstrip("\r\n")
                consumed.clear()
                yield raw, fields or [""]
        except csv.Error as exc:
            line = reader.line_num
            start = line - len(consumed) + 1
            raise DataError(f"{path} line {line}: {exc} (record from line {start})") from None


def parse_line(line: str) -> list[list[str]]:
    """The records ``read_records`` reads from ``line`` written as a line
    of a file; a malformed line is a ``DataError``."""
    try:
        return [fields or [""] for fields in _reader(io.StringIO(line + "\n", newline=""))]
    except csv.Error as exc:
        raise DataError(str(exc)) from None


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
