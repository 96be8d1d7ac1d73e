"""Subtotal reports: group-by aggregation over delimited records.

Each subtotal job names measure columns and group-by columns; the
report holds one row per distinct group-key tuple, ordered
lexicographically so output diffs are deterministic.
"""

from __future__ import annotations

from typing import Iterable

from .csvio import encode_record
from .errors import ConfigError, DataError, UnknownColumn
from .values import parse_number, render_number

__all__ = [
    "REPORT_FORMATS",
    "SubtotalJob",
    "ReportTable",
    "UnknownColumn",
    "BadControlTable",
    "NonNumericMeasure",
    "split_job_line",
    "parse_job_line",
    "aggregate",
    "subtotal",
    "render_report",
]

REPORT_FORMATS = ("csv", "aligned-text")


class BadControlTable(ConfigError):
    """A subtotal job line with an unusable part."""


class NonNumericMeasure(DataError):
    """A measure field that cannot be summed."""

    def __init__(self, record_index: int, column: str, value: str):
        self.record_index = record_index
        self.column = column
        super().__init__(
            f"record {record_index}: column {column!r} is not numeric: {value!r}"
        )


class SubtotalJob:
    __slots__ = ("measures", "group_by", "aggregate", "measure_indices", "group_indices")

    def __init__(self, measures: tuple[str, ...], group_by: tuple[str, ...],
                 aggregate: str = "sum", measure_indices: tuple[int, ...] = (),
                 group_indices: tuple[int, ...] = ()):
        self.measures = measures
        self.group_by = group_by
        self.aggregate = aggregate  # sum | count
        self.measure_indices = measure_indices
        self.group_indices = group_indices


class ReportTable:
    __slots__ = ("group_names", "measure_labels", "rows")

    def __init__(self, group_names: list[str], measure_labels: list[str],
                 rows: list[tuple[tuple[str, ...], list[float]]]):
        self.group_names = group_names
        self.measure_labels = measure_labels
        self.rows = rows  # (group key, aggregates)

    def header(self) -> list[str]:
        return list(self.group_names) + list(self.measure_labels)

    def __eq__(self, other):
        if other.__class__ is not ReportTable:
            return NotImplemented
        return ((self.group_names, self.measure_labels, self.rows)
                == (other.group_names, other.measure_labels, other.rows))


def translation_table(headers: list[str]) -> dict[str, int]:
    """Header name (uppercased, trimmed) to 0-based column index."""
    table: dict[str, int] = {}
    for i, name in enumerate(headers):
        table.setdefault(name.strip().upper(), i)
    return table


def _split_names(text: str, where: str) -> list[str]:
    names = []
    for part in text.split(","):
        cleaned = part.strip()
        if cleaned:
            names.append(cleaned)
    if not names:
        raise BadControlTable(f"subtotal {where} is empty")
    return names


def _resolve(names: list[str], translation: dict[str, int]) -> tuple[int, ...]:
    indices = []
    for name in names:
        index = translation.get(name.strip().upper())
        if index is None:
            raise UnknownColumn(f"column {name!r} not found in headers")
        indices.append(index)
    return tuple(indices)


def make_job(
    measures: list[str],
    group_by: list[str],
    translation: dict[str, int],
    aggregate_kind: str = "sum",
) -> SubtotalJob:
    if aggregate_kind not in ("sum", "count"):
        raise BadControlTable(f"aggregate must be sum or count, got {aggregate_kind!r}")
    overlap = {m.upper() for m in measures} & {g.upper() for g in group_by}
    if overlap:
        raise BadControlTable(
            f"columns cannot be both measure and group key: {sorted(overlap)}"
        )
    return SubtotalJob(
        measures=tuple(measures),
        group_by=tuple(group_by),
        aggregate=aggregate_kind,
        measure_indices=_resolve(measures, translation),
        group_indices=_resolve(group_by, translation),
    )


def split_job_line(text: str) -> tuple[str, list[str], list[str]]:
    """``(aggregate, measures, group columns)`` of a job line
    ``[sum|count] <measures> : <group columns>``, read without headers.
    Spaces around ``:`` and ``,`` are syntax, trimmed without a warning."""
    aggregate_kind = "sum"
    body = text.strip()
    head = body.split(None, 1)
    if head and head[0].lower() in ("sum", "count") and ":" not in head[0]:
        aggregate_kind = head[0].lower()
        body = head[1] if len(head) > 1 else ""
    if ":" not in body:
        raise BadControlTable(
            f"subtotal job needs '<measures> : <group columns>', got {text!r}"
        )
    measures_text, groups_text = body.split(":", 1)
    measures = _split_names(measures_text, "measures")
    group_by = _split_names(groups_text, "group columns")
    return aggregate_kind, measures, group_by


def parse_job_line(text: str, translation: dict[str, int]) -> SubtotalJob:
    """One job from a job line, its columns resolved through ``translation``."""
    aggregate_kind, measures, group_by = split_job_line(text)
    return make_job(measures, group_by, translation, aggregate_kind)


def subtotal(records: Iterable[list[str]], jobs: list[SubtotalJob]) -> list[ReportTable]:
    """One table per job from a single pass over ``records``.

    ``records`` may be a one-shot iterator: each record feeds every
    job's group accumulator and is then dropped, so memory is O(groups).
    Aggregates accumulate in input order. A non-numeric measure raises
    at the first record that holds one (within it, the first job, then
    the first measure).
    """
    accumulators: list[dict[tuple[str, ...], list[float]]] = [{} for _ in jobs]
    for record_index, fields in enumerate(records, start=1):
        width = len(fields)
        for job, groups in zip(jobs, accumulators):
            key = tuple(fields[i] if i < width else "" for i in job.group_indices)
            totals = groups.get(key)
            if totals is None:
                totals = groups[key] = [0.0] * len(job.measure_indices)
            for slot, column_index in enumerate(job.measure_indices):
                text = fields[column_index] if column_index < width else ""
                if not text.strip():
                    continue  # blank fields are neither counted nor summed
                if job.aggregate == "count":
                    totals[slot] += 1.0
                    continue
                number = parse_number(text)
                if number is None:
                    raise NonNumericMeasure(record_index, job.measures[slot], text)
                totals[slot] += number
    return [
        ReportTable(
            group_names=list(job.group_by),
            measure_labels=[f"{job.aggregate.capitalize()} of {m}" for m in job.measures],
            rows=sorted(groups.items()),
        )
        for job, groups in zip(jobs, accumulators)
    ]


def aggregate(records: list[list[str]], job: SubtotalJob) -> ReportTable:
    """One row per distinct group key, aggregates accumulated in input order."""
    return subtotal(records, [job])[0]


def render_report(table: ReportTable, format: str = "csv") -> str:
    """Render as CSV (re-parseable) or as space-aligned text."""
    header = table.header()
    body_rows = [
        list(key) + [render_number(v) for v in totals] for key, totals in table.rows
    ]
    if format == "csv":
        lines = [encode_record(header)]
        lines.extend(encode_record(row) for row in body_rows)
        return "\n".join(lines) + "\n"
    if format == "aligned-text":
        all_rows = [header] + body_rows
        widths = [
            max(len(row[i]) for row in all_rows) for i in range(len(header))
        ]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
            for row in all_rows
        ]
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown report format: {format!r}")
