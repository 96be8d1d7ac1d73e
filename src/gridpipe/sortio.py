"""Stable sorting of delimited files, in memory or via external merge.

There is one path. Each row's composite key is computed once, when the
row is read, and travels with the raw text as a ``(key, raw)`` pair.
Rows collect in a chunk; with a memory budget, a full chunk is sorted
and spilled as a run of pickled blocks when the next row arrives. The
last chunk is never written: it joins the final ``heapq.merge`` of the
runs from memory, as its last input. ``heapq.merge`` keeps its inputs'
order on ties and the runs are merged in input order, so the external
path is byte-identical to the in-memory one (no budget: no runs).
Memory is O(budget + MERGE_FAN_IN x block). Because every sort is
stable, sorting by the last key, then the next, up to the first, gives
exactly the composite multi-key order -- which is also how more keys
than a sort dialog allows can be applied by hand.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter

from .csvio import atomic_output, read_records
from .errors import ConfigError, DataError, UnknownColumn
from .report import translation_table
from .values import parse_number

__all__ = [
    "SortKey",
    "SortSpec",
    "MissingColumn",
    "UnknownColumn",
    "sort_file",
]

MERGE_FAN_IN = 64
_BLOCK_PAIRS = 64  # pairs per pickled block of a spilled run
_pair_key = itemgetter(0)


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
    translation = None if header_fields is None else translation_table(header_fields)
    indices = []
    for sort_key in spec.keys:
        column = sort_key.column
        if isinstance(column, int):
            if column < 1:
                raise ConfigError(f"sort key column must be >= 1, got {column}")
            indices.append(column - 1)
            continue
        if translation is None:
            raise ConfigError(
                f"sort key {column!r} is a header name but the file has no headings"
            )
        index = translation.get(column.strip().upper())
        if index is None:
            raise UnknownColumn(f"sort key column {column!r} not in header")
        indices.append(index)
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
    key_of = _key_function(spec.keys, _resolve_key_columns(spec, header_fields))

    # A full chunk spills only when another row arrives, so the last
    # chunk always stays in memory; without a budget nothing spills.
    spill_at = spec.memory_budget_rows if spec.memory_budget_rows > 0 else None
    scratch = None
    runs: list[str] = []
    chunk: list[tuple] = []
    try:
        for row_no, (raw, fields) in enumerate(records, start=1):
            if len(chunk) == spill_at:
                if scratch is None:
                    scratch = tempfile.mkdtemp(prefix="gridsort-", dir=spec.scratch_dir)
                chunk.sort(key=_pair_key)
                runs.append(_write_run(os.path.join(scratch, f"run-{len(runs):06d}"), chunk))
                chunk = []
            chunk.append((key_of(fields, row_no), raw))
        chunk.sort(key=_pair_key)

        # Merge at most MERGE_FAN_IN runs at a time until the spilled
        # runs and the last chunk can stream straight into the output.
        generation = 0
        while len(runs) >= MERGE_FAN_IN:
            generation += 1
            groups = [runs[i : i + MERGE_FAN_IN] for i in range(0, len(runs), MERGE_FAN_IN)]
            runs = []
            for group in groups:
                path = os.path.join(scratch, f"merge-{generation}-{len(runs):06d}")
                runs.append(
                    _write_run(path, heapq.merge(*map(_read_run, group), key=_pair_key))
                )
                for done in group:
                    os.remove(done)

        # The chunk merges last, so equal keys keep their input order.
        pairs = heapq.merge(*map(_read_run, runs), chunk, key=_pair_key)
        count = 0
        with atomic_output(spec.output_path) as out:
            if header_raw is not None:
                out.write(header_raw + "\n")
            for _, raw in pairs:
                out.write(raw + "\n")
                count += 1
        return count
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _write_run(path: str, pairs) -> str:
    """Store sorted ``(key, raw)`` pairs at ``path`` as pickled blocks,
    ended by an empty block; returns the path."""
    import pickle  # importing it raises peak RSS: only a sort that spills pays

    pairs = iter(pairs)
    with open(path, "wb") as handle:
        while True:
            block = list(islice(pairs, _BLOCK_PAIRS))
            pickle.dump(block, handle, pickle.HIGHEST_PROTOCOL)
            if not block:
                return path


def _read_run(path: str):
    """The ``(key, raw)`` pairs of a run written by ``_write_run``."""
    import pickle

    with open(path, "rb") as handle:
        while block := pickle.load(handle):
            yield from block
