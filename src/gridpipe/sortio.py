"""Stable sorting of delimited files, in memory or via external merge.

There is one path, and it moves rows in blocks of ``_BLOCK`` rows. A
block's keys are computed by mapping over its key columns. The first
key is a scalar. Numeric-aware order puts every number before every
text, so a block splits into a numbers section, keyed by bare floats,
and a texts section, keyed by upper-cased text (texts first for a
descending key); ``text`` collation has the texts section alone. Later
keys follow the scalar in a tuple. Each section collects ``(key, raw)``
pairs in a chunk; with a memory budget, a full chunk is sorted and
spilled, when the next row arrives, as a run of pickled blocks holding
one section after the other. The last chunk is never written: it is the
last run of the final merge, and with nothing spilled its only run. A
merge generation's runs share one unnamed scratch file, and a run is the
offset of its next block there; the system removes the file when it is
closed or its process dies, even by SIGKILL.

A merge takes one section at a time from at most MERGE_FAN_IN runs and
is ``heapq.merge`` over their pairs, keyed by the pair's key: equal keys
leave in run order, and the chunk is the last run, so the external path
is byte-identical to the in-memory one. The merged pairs are regrouped
into blocks of ``_BLOCK``, and each block is written with one call. While
MERGE_FAN_IN runs or more remain, a generation merges them into a new
file and closes the old one. Memory is O(budget + MERGE_FAN_IN x block).
Because every sort is stable, sorting by the last key, then the next,
up to the first, gives exactly the composite multi-key order -- which is
also how more keys than a sort dialog allows can be applied by hand.
"""

from __future__ import annotations

import tempfile
from heapq import merge
from itertools import chain, compress, islice
from operator import itemgetter, not_

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
_BLOCK = 64  # rows per key block, per pickled block of a run and per merge step
_first = itemgetter(0)  # a pair's key; a record's raw text
_second = itemgetter(1)  # a pair's raw text; a record's fields
_INF = float("inf")
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
        for entry, sort_key in enumerate(self.keys):
            column = sort_key.column
            if isinstance(column, int) and column < 1:
                raise SettingError("keys", f"column must be >= 1, got {column}", entry)
            if isinstance(column, str) and not has_headings:
                raise SettingError("keys", f"{column!r} is a header name, which needs headings",
                                   entry)


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


def _numbers(texts: list[str]) -> list:
    """``parse_number`` of each of a block's key texts: a float, or None."""
    if all(map(str.isdecimal, texts)):
        # Digit runs, which ids are, are read by float() in C as
        # parse_number reads them, unless one is too long for a float:
        # float() gives inf for it, and parse_number None.
        numbers = list(map(float, texts))
        if _INF not in numbers:
            return numbers
    return list(map(parse_number, texts))


def _element(sort_key: SortKey):
    """``element(text)``: a later sort key's element of a key text. A
    numeric-aware element is tagged, so a number never meets a text."""
    if sort_key.collation == "numeric-aware":
        def element(text: str):
            number = parse_number(text)
            return (1, text.upper()) if number is None else (0, number)
    else:
        element = str.upper
    if sort_key.descending:
        return lambda text: _Desc(element(text))
    return element


def _block_splitter(keys: list[SortKey]):
    """``split(columns, raws)``: a block's numbers and texts sections, each
    a list of ``(key, raw)`` pairs in input order. ``columns`` holds each
    sort key's texts and ``raws`` the rows' raw texts."""
    numeric = keys[0].collation == "numeric-aware"
    descending = keys[0].descending
    elements = [_element(sort_key) for sort_key in keys[1:]]

    def pairs(scalars, later, raws):
        if descending:
            scalars = map(_Desc, scalars)
        if elements:
            scalars = zip(scalars, *(map(e, texts) for e, texts in zip(elements, later)))
        return list(zip(scalars, raws))

    def split(columns, raws):
        texts, later = columns[0], columns[1:]
        if not numeric:
            return [], pairs(map(str.upper, texts), later, raws)
        numbers = _numbers(texts)
        if None not in numbers:
            return pairs(numbers, later, raws), []
        is_number = [number is not None for number in numbers]

        def part(scalars, chosen):
            return pairs(compress(scalars, chosen), [compress(c, chosen) for c in later],
                         compress(raws, chosen))

        return part(numbers, is_number), part(map(str.upper, texts), list(map(not_, is_number)))

    return split


def _keyed_blocks(records, indices: list[int], spill_at: int | None):
    """``(block, columns)`` for the records in blocks of at most
    ``_BLOCK``, where ``columns`` holds each sort key's texts. With
    ``spill_at``, a block ends where a chunk of that many rows does. A
    row too short for a key is a ``MissingColumn``, met in a row-by-row
    read's order: before a malformed record after it in the block."""
    rows_read = 0
    while True:
        take = _BLOCK if spill_at is None else min(_BLOCK, spill_at - rows_read % spill_at)
        block = []
        try:
            # extend keeps the records it took before one that failed.
            block.extend(islice(records, take))
        except DataError:
            _key_columns(block, indices, rows_read)
            raise
        if not block:
            return
        yield block, _key_columns(block, indices, rows_read)
        rows_read += len(block)


def _key_columns(block: list, indices: list[int], rows_before: int) -> list[list[str]]:
    """Each sort key's texts in a block of records. A row too short for a
    key is a ``MissingColumn`` naming the block's first such row and its
    first missing key column."""
    rows = list(map(_second, block))
    try:
        return [list(map(itemgetter(index), rows)) for index in indices]
    except IndexError:
        pass
    for row_no, fields in enumerate(rows, start=rows_before + 1):
        for index in indices:
            if index >= len(fields):
                raise MissingColumn(f"row {row_no}: no column {index + 1} for sort key")
    raise AssertionError("no short row in the block")


def _resolve_key_columns(spec: SortSpec, header_fields: list[str] | None) -> list[int]:
    """0-based field indices for the sort keys; a key that is a header
    name needs ``header_fields``."""
    translation = None if header_fields is None else translation_table(header_fields)
    indices = []
    for sort_key in spec.keys:
        column = sort_key.column
        if isinstance(column, int):
            indices.append(column - 1)
            continue
        index = translation.get(column.strip().upper())
        if index is None:
            raise UnknownColumn(f"sort key column {column!r} not in header")
        indices.append(index)
    return indices


def sort_file(spec: SortSpec) -> int:
    """Sort a delimited file per the spec; returns the data row count.

    Synchronous: when it returns the output file is complete. With a
    memory budget, sorted runs of at most that many rows are merged at
    most MERGE_FAN_IN at a time, each generation's in one unnamed file
    in ``scratch_dir``.
    """
    records = read_records(spec.input_path)
    header_raw = None
    header_fields = None
    if spec.has_headings:
        head = next(records, None)
        if head is not None:
            header_raw, header_fields = head
    # An empty file has no header line to resolve a key's name in, and no row to key.
    empty = spec.has_headings and header_raw is None
    indices = [] if empty else _resolve_key_columns(spec, header_fields)
    split = _block_splitter(spec.keys)
    # The numbers section comes first, the texts section for a descending key.
    order = (1, 0) if spec.keys[0].descending else (0, 1)

    # A full chunk spills only when another row arrives, so the last
    # chunk always stays in memory; without a budget nothing spills.
    spill_at = spec.memory_budget_rows if spec.memory_budget_rows > 0 else None
    scratch = None  # the current generation's file, made by the first spill
    runs: list[list[int]] = []  # each run's cursor in it
    chunk: tuple[list, list] = ([], [])
    size = 0
    try:
        for block, columns in _keyed_blocks(records, indices, spill_at):
            if size == spill_at:
                if scratch is None:
                    scratch = tempfile.TemporaryFile(dir=spec.scratch_dir)
                for section in chunk:
                    section.sort(key=_first)
                runs.append(_write_run(scratch, ([chunk[s]] for s in order)))
                chunk = ([], [])
                size = 0
            numbers, texts = split(columns, list(map(_first, block)))
            chunk[0].extend(numbers)
            chunk[1].extend(texts)
            size += len(block)
        for section in chunk:
            section.sort(key=_first)

        # Merge at most MERGE_FAN_IN runs at a time until the spilled
        # runs and the last chunk can stream straight into the output.
        while len(runs) >= MERGE_FAN_IN:
            source, scratch = scratch, tempfile.TemporaryFile(dir=spec.scratch_dir)
            with source:  # closing the old generation's file frees its space
                groups = [runs[i : i + MERGE_FAN_IN] for i in range(0, len(runs), MERGE_FAN_IN)]
                runs = []
                for group in groups:
                    sections = (_merge([_run_section(source, c) for c in group]) for _ in order)
                    runs.append(_write_run(scratch, sections))

        # The chunk merges last, so equal keys keep their input order.
        count = 0
        with atomic_output(spec.output_path) as out:
            if header_raw is not None:
                out.write(header_raw + "\n")
            for s in order:
                pairs = chunk[s]
                blocks = (pairs[i : i + _BLOCK] for i in range(0, len(pairs), _BLOCK))
                for batch in _merge([*(_run_section(scratch, c) for c in runs), blocks]):
                    out.write("\n".join(map(_second, batch)) + "\n")
                    count += len(batch)
        return count
    finally:
        if scratch is not None:
            scratch.close()


def _merge(runs: list):
    """Merge ``runs``, iterators of sorted blocks of ``(key, raw)`` pairs,
    into blocks of at most ``_BLOCK`` pairs in key order, equal keys in
    run order (``heapq.merge`` is stable). A lone run is returned as it is."""
    if len(runs) == 1:
        return runs[0]
    pairs = merge(*map(chain.from_iterable, runs), key=_first)
    return iter(lambda: list(islice(pairs, _BLOCK)), [])


def _write_run(handle, sections) -> list[int]:
    """Append ``sections``, each an iterable of sorted pair batches, to
    ``handle`` as pickled blocks of at most ``_BLOCK`` pairs, each section
    ended by an empty block; returns the run's cursor, ``[offset]``."""
    import pickle  # importing it raises peak RSS: only a sort that spills pays

    cursor = [handle.tell()]
    for batches in sections:
        for batch in batches:
            for start in range(0, len(batch), _BLOCK):
                pickle.dump(batch[start : start + _BLOCK], handle, pickle.HIGHEST_PROTOCOL)
        pickle.dump([], handle, pickle.HIGHEST_PROTOCOL)
    return cursor


def _run_section(handle, cursor: list[int]):
    """The blocks of a run's next section in ``handle``, a file its
    generation's runs share; reading a block moves ``cursor`` past it."""
    import pickle

    while True:
        handle.seek(cursor[0])
        block = pickle.load(handle)
        cursor[0] = handle.tell()
        if not block:
            return
        yield block
