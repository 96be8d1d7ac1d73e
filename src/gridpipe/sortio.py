"""Stable sorting of delimited files, in memory or via external merge.

Both paths produce byte-identical output: records travel as raw text
and the same composite key drives a stable sort (``sorted``) and a
stable k-way merge (``heapq.merge`` preserves run order on ties).
Because every sort is stable, sorting by the last key, then the next,
up to the first, gives exactly the composite multi-key order -- which
is also how more keys than a sort dialog allows can be applied by hand.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from .csvio import atomic_output, read_records, split_record
from .errors import ConfigError, DataError, UnknownColumn
from .values import parse_number

__all__ = [
    "SortKey",
    "SortSpec",
    "MissingColumn",
    "UnknownColumn",
    "sort_file",
]

MERGE_FAN_IN = 64


class MissingColumn(DataError):
    """A data row too short for one of the key columns."""


@dataclass(frozen=True)
class SortKey:
    column: int | str  # 1-based index, or header name (needs headings)
    descending: bool = False
    collation: str = "numeric-aware"  # numeric-aware | text


@dataclass
class SortSpec:
    input_path: str
    output_path: str
    has_headings: bool = False
    keys: list[SortKey] = field(default_factory=lambda: [SortKey(1)])
    memory_budget_rows: int = 0  # 0 = sort in memory
    csv_mode: str = "rfc4180"
    scratch_dir: str | None = None


class _Desc:
    """Inverts the ordering of a wrapped key element."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner

    def __lt__(self, other):
        return other.inner < self.inner

    def __eq__(self, other):
        return other.inner == self.inner


def _key_element(field_text: str, collation: str):
    # Numeric-aware collation is a total order: all numbers sort before
    # all non-numeric text, numbers numerically, text case-insensitively.
    # The tag decides first, so a number is never compared with a text.
    if collation == "numeric-aware":
        number = parse_number(field_text)
        if number is not None:
            return (0, number)
        return (1, field_text.upper())
    return field_text.upper()


def _key_function(keys: list[SortKey], indices: list[int]):
    """Sort key of a row: the bare element for one key, else a tuple."""
    pairs = list(zip(keys, indices))

    def element(fields: list[str], row_no: int, sort_key: SortKey, index: int):
        if index >= len(fields):
            raise MissingColumn(f"row {row_no}: no column {index + 1} for sort key")
        value = _key_element(fields[index], sort_key.collation)
        return _Desc(value) if sort_key.descending else value

    if len(pairs) == 1:
        [(sort_key, index)] = pairs
        return lambda fields, row_no: element(fields, row_no, sort_key, index)
    return lambda fields, row_no: tuple(
        element(fields, row_no, sort_key, index) for sort_key, index in pairs
    )


def _resolve_key_columns(spec: SortSpec, header_fields: list[str] | None) -> list[int]:
    """0-based field indices for the sort keys."""
    indices = []
    for sort_key in spec.keys:
        column = sort_key.column
        if isinstance(column, int):
            if column < 1:
                raise ConfigError(f"sort key column must be >= 1, got {column}")
            indices.append(column - 1)
            continue
        if header_fields is None:
            raise ConfigError(
                f"sort key {column!r} is a header name but the file has no headings"
            )
        wanted = column.strip().upper()
        for i, name in enumerate(header_fields):
            if name.strip().upper() == wanted:
                indices.append(i)
                break
        else:
            raise UnknownColumn(f"sort key column {column!r} not in header")
    return indices


def sort_file(spec: SortSpec) -> int:
    """Sort a delimited file per the spec; returns the data row count.

    Synchronous: when it returns the output file is complete. With a
    memory budget the input is cut into sorted runs which are merged a
    bounded number at a time, so the row budget is honoured and file
    handles stay bounded.
    """
    if not spec.keys:
        raise ConfigError("sort spec has no keys")
    records = read_records(spec.input_path, spec.csv_mode)
    header_raw = None
    header_fields = None
    if spec.has_headings:
        head = next(records, None)
        if head is not None:
            header_raw, header_fields = head
    indices = _resolve_key_columns(spec, header_fields)
    key_of = _key_function(spec.keys, indices)

    if spec.memory_budget_rows and spec.memory_budget_rows > 0:
        count = _sort_external(spec, records, key_of, header_raw)
    else:
        count = _sort_in_memory(spec, records, key_of, header_raw)
    return count


def _write_output(spec: SortSpec, header_raw, lines) -> int:
    count = 0
    with atomic_output(spec.output_path) as out:
        if header_raw is not None:
            out.write(header_raw + "\n")
        for raw in lines:
            out.write(raw + "\n")
            count += 1
    return count


def _sort_in_memory(spec, records, key_of, header_raw) -> int:
    rows = []
    for row_no, (raw, fields) in enumerate(records, start=1):
        rows.append((key_of(fields, row_no), raw))
    rows.sort(key=lambda pair: pair[0])
    return _write_output(spec, header_raw, (raw for _, raw in rows))


def _sort_external(spec, records, key_of, header_raw) -> int:
    scratch = tempfile.mkdtemp(prefix="gridsort-", dir=spec.scratch_dir)
    budget = spec.memory_budget_rows
    mode = spec.csv_mode
    try:
        runs: list[str] = []
        chunk: list[tuple] = []
        row_no = 0

        def flush():
            if not chunk:
                return
            chunk.sort(key=lambda pair: pair[0])
            path = os.path.join(scratch, f"run-{len(runs):06d}")
            with open(path, "w", encoding="utf-8") as handle:
                for _, raw in chunk:
                    handle.write(json.dumps(raw) + "\n")
            runs.append(path)
            chunk.clear()

        for raw, fields in records:
            row_no += 1
            chunk.append((key_of(fields, row_no), raw))
            if len(chunk) >= budget:
                flush()
        flush()

        def run_reader(path):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    yield json.loads(line)

        def merge_key(raw):
            return key_of(split_record(raw, mode), 0)

        # Merge at most MERGE_FAN_IN runs at a time until the last merge
        # can stream straight into the output file.
        generation = 0
        while len(runs) > MERGE_FAN_IN:
            generation += 1
            merged: list[str] = []
            for group_start in range(0, len(runs), MERGE_FAN_IN):
                group = runs[group_start : group_start + MERGE_FAN_IN]
                path = os.path.join(scratch, f"merge-{generation}-{len(merged):06d}")
                with open(path, "w", encoding="utf-8") as handle:
                    for raw in heapq.merge(*(run_reader(p) for p in group), key=merge_key):
                        handle.write(json.dumps(raw) + "\n")
                merged.append(path)
                for p in group:
                    os.remove(p)
            runs = merged

        lines = heapq.merge(*(run_reader(p) for p in runs), key=merge_key)
        return _write_output(spec, header_raw, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
