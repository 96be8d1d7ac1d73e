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
import logging
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
    "BadControlTable",
    "MissingColumn",
    "UnknownColumn",
    "sort_file",
    "sort_records",
    "parse_sort_params",
]

log = logging.getLogger(__name__)

MERGE_FAN_IN = 64


class BadControlTable(ConfigError):
    """A sort control table with an unusable cell."""


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


def sort_records(rows: list[list[str]], keys: list[SortKey]) -> list[list[str]]:
    """Stable multi-key sort of parsed rows (test and library helper)."""
    if not all(isinstance(k.column, int) for k in keys):
        raise ConfigError("sort_records requires positional key columns")
    indices = [k.column - 1 for k in keys]
    if any(i < 0 for i in indices):
        raise ConfigError("sort key columns are 1-based")
    key_of = _key_function(keys, indices)
    return sorted(rows, key=lambda row: key_of(row, 0))


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


# --- Control table ----------------------------------------------------------


def parse_sort_params(block: list[list], warn=None) -> SortSpec:
    """Build a SortSpec from the on-sheet control table block.

    Expected shape (a 4-row, 2-column named block): two label/value
    rows for the input and output paths, a row of column labels, and a
    row holding the headings flag (y/n) and sort order (asc/desc).
    Values are trimmed; trimming that changes a value is worth a
    warning, so it is reported.
    """
    emit = warn or log.warning

    def cell(r, c) -> str:
        try:
            value = block[r][c]
        except (IndexError, TypeError):
            raise BadControlTable(
                f"sort control table is missing cell row {r + 1}, column {c + 1}"
            ) from None
        if value is None:
            return ""
        text = value if isinstance(value, str) else str(value)
        return text

    def tidy(text: str, where: str) -> str:
        stripped = text.strip()
        if stripped != text:
            emit(f"superfluous spaces in sort control table {where}: {text!r}")
        return stripped

    if len(block) < 4:
        raise BadControlTable("sort control table must have 4 rows")
    input_path = tidy(cell(0, 1), "input path")
    output_path = tidy(cell(1, 1), "output path")
    headings_text = tidy(cell(3, 0), "headings flag").lower()
    order_text = tidy(cell(3, 1), "sort order").lower()
    if headings_text not in ("y", "n"):
        raise BadControlTable(
            f"headings flag (row 4, column 1) must be y or n, got {headings_text!r}"
        )
    if order_text not in ("asc", "desc"):
        raise BadControlTable(
            f"sort order (row 4, column 2) must be asc or desc, got {order_text!r}"
        )
    if not input_path:
        raise BadControlTable("sort input path (row 1, column 2) is empty")
    if not output_path:
        raise BadControlTable("sort output path (row 2, column 2) is empty")
    return SortSpec(
        input_path=input_path,
        output_path=output_path,
        has_headings=headings_text == "y",
        keys=[SortKey(1, descending=order_text == "desc")],
    )
