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
from itertools import islice
from operator import itemgetter

from .csvio import atomic_output, read_records
from .errors import ConfigError, DataError, SettingError, UnknownColumn, check_choices
from .report import translation_table
from .values import parse_number

__all__ = [
    "SortKey",
    "SortSpec",
    "COLLATIONS",
    "MissingColumn",
    "UnknownColumn",
    "parse_sort_key",
    "sort_file",
]

MERGE_FAN_IN = 64
_BLOCK_PAIRS = 64  # pairs per pickled block of a spilled run
_pair_key = itemgetter(0)
COLLATIONS = ("numeric-aware", "text")


class MissingColumn(DataError):
    """A data row too short for one of the key columns."""


class SortKey:
    __slots__ = ("column", "descending", "collation")

    def __init__(self, column: int | str, descending: bool = False,
                 collation: str = "numeric-aware"):
        self.column = column  # 1-based index, or header name (needs headings)
        self.descending = descending
        self.collation = collation  # COLLATIONS
        check_choices(self, collation=COLLATIONS)

    def __eq__(self, other):
        if other.__class__ is not SortKey:
            return NotImplemented
        return ((self.column, self.descending, self.collation)
                == (other.column, other.descending, other.collation))


class SortSpec:
    __slots__ = ("input_path", "output_path", "has_headings", "keys", "memory_budget_rows",
                 "scratch_dir")

    def __init__(self, input_path: str, output_path: str, has_headings: bool = False,
                 keys: list[SortKey] | None = None, memory_budget_rows: int = 0,
                 scratch_dir: str | None = None):
        self.input_path = input_path
        self.output_path = output_path
        self.has_headings = has_headings
        self.keys = [SortKey(1)] if keys is None else keys
        self.memory_budget_rows = memory_budget_rows  # 0 = sort in memory
        self.scratch_dir = scratch_dir
        if not self.keys:
            raise SettingError("keys", "none given")
        for sort_key in self.keys:
            column = sort_key.column
            if isinstance(column, int) and column < 1:
                raise SettingError("keys", f"column must be >= 1, got {column}")
            if isinstance(column, str) and not has_headings:
                raise SettingError("keys", f"{column!r} is a header name, which needs headings")


# The words a written sort key may end with, and the SortKey setting of each.
_KEY_WORDS = {
    "asc": {"descending": False},
    "desc": {"descending": True},
    "numeric": {"collation": "numeric-aware"},
    **{collation: {"collation": collation} for collation in COLLATIONS},
}


def parse_sort_key(text: str) -> SortKey:
    """A key as a job file writes it: ``<column> [asc|desc] [numeric|text]``,
    the column a 1-based index or a header name. Of two words of a kind,
    the first wins."""
    parts = text.split()
    if not parts:
        raise ConfigError("empty sort key")
    settings = {}
    while len(parts) > 1 and parts[-1].lower() in _KEY_WORDS:
        settings.update(_KEY_WORDS[parts.pop().lower()])
    column = " ".join(parts)
    return SortKey(int(column) if column.isdigit() else column, **settings)


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
            indices.append(column - 1)
            continue
        if translation is None:  # headings, but the file is empty
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
    records = read_records(spec.input_path)
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
