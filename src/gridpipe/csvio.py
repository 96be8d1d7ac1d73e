"""Delimited-file reading and writing in one dialect, RFC 4180: every
record gridpipe reads, from a file or a line, goes through ``_reader``.

``read_records`` yields ``(raw, fields)`` so callers that must preserve
records byte-for-byte (sorting, comparison) can write the original text
back out; ``read_fields`` and ``open_fields`` give the same fields
without building that text. A malformed record is named in the pass that
reads it, by ``malformed`` from the reader's ``line_num``. Output is
UTF-8 with LF line endings, and reaches its path only once it is
complete (``atomic_output``).
"""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, filterfalse
from typing import Iterator

from .errors import DataError

__all__ = ["read_records", "read_fields", "open_fields", "malformed", "parse_line",
           "encode_record", "atomic_output"]

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
            raise malformed(path, exc, line, line - len(consumed) + 1) from None


def malformed(path, exc: csv.Error, line: int, start: int) -> DataError:
    """The error for a record of ``path`` that ``csv.reader`` rejects with
    ``exc``: it names the physical line where parsing stopped and the
    line where the record began."""
    return DataError(f"{path} line {line}: {exc} (record from line {start})")


@contextmanager
def open_fields(path, head: bool = False):
    """Open ``path`` to read field lists, with no raw text: yields
    ``(first, records)``. With ``head``, ``first`` is the first record as
    ``read_records`` gives it, or None for an empty file; without, None.
    ``records`` is the ``csv.reader`` over the records after it, so an
    empty line comes as ``[]``, where ``read_records`` gives ``[""]``,
    and its ``line_num`` counts the file's physical lines from the
    first. The reader raises ``csv.Error`` for a malformed record; its
    caller names it with ``malformed`` from ``line_num`` and may read on
    from the next physical line. A malformed first record is named here.
    """
    with open(path, encoding="utf-8-sig", newline="") as handle:
        first, lines = None, []
        if head:
            reader = _reader(filterfalse(lines.append, handle))
            try:
                fields = next(reader, None)
            except csv.Error as exc:
                raise malformed(path, exc, reader.line_num, 1) from None
            if fields is not None:
                first = "".join(lines).rstrip("\r\n"), fields or [""]
        # A reader takes no line past the record it returns. This one
        # reads the first record's lines again, so that its line_num
        # counts them, then the rest of the file.
        records = _reader(chain(lines, handle) if lines else handle)
        if lines:
            next(records)
        yield first, records


def read_fields(path) -> Iterator[list[str]]:
    """Stream the field lists ``read_records`` reads from ``path``, and
    raise its ``DataError`` for a malformed record, without building any
    record's raw text."""
    with open_fields(path) as (_, records):
        ended = 0  # the physical line where the last record read ended
        try:
            for fields in records:
                yield fields or [""]
                ended = records.line_num
        except csv.Error as exc:
            raise malformed(path, exc, records.line_num, ended + 1) from None


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
