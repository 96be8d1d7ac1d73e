"""Subtotal reports: group-by aggregation over delimited records.

Each subtotal job names measure columns and group-by columns; the
report holds one row per distinct group-key tuple, ordered
lexicographically so output diffs are deterministic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .csvio import encode_record
from .errors import ConfigError, DataError, UnknownColumn
from .values import parse_number, render_number

__all__ = [
    "SubtotalJob",
    "SubtotalSpec",
    "ReportTable",
    "UnknownColumn",
    "BadControlTable",
    "NonNumericMeasure",
    "parse_subtotal_spec",
    "parse_job_line",
    "aggregate",
    "render_report",
]

log = logging.getLogger(__name__)


class BadControlTable(ConfigError):
    """A subtotal control table with an unusable row."""


class NonNumericMeasure(DataError):
    """A measure field that cannot be summed."""

    def __init__(self, record_index: int, column: str, value: str):
        self.record_index = record_index
        self.column = column
        super().__init__(
            f"record {record_index}: column {column!r} is not numeric: {value!r}"
        )


@dataclass(frozen=True)
class SubtotalJob:
    measures: tuple[str, ...]
    group_by: tuple[str, ...]
    aggregate: str = "sum"  # sum | count
    measure_indices: tuple[int, ...] = ()
    group_indices: tuple[int, ...] = ()


@dataclass
class SubtotalSpec:
    jobs: list[SubtotalJob] = field(default_factory=list)
    output_path: str | None = None
    format: str = "csv"  # csv | aligned-text


@dataclass
class ReportTable:
    group_names: list[str]
    measure_labels: list[str]
    rows: list[tuple[tuple[str, ...], list[float]]]  # (group key, aggregates)

    def header(self) -> list[str]:
        return list(self.group_names) + list(self.measure_labels)


def translation_table(headers: list[str]) -> dict[str, int]:
    """Header name (uppercased, trimmed) to 0-based column index."""
    table: dict[str, int] = {}
    for i, name in enumerate(headers):
        table.setdefault(name.strip().upper(), i)
    return table


def _split_names(text: str, where: str, warn=None) -> list[str]:
    names = []
    for part in text.split(","):
        cleaned = part.strip()
        if warn and part != cleaned and cleaned:
            warn(f"superfluous spaces in subtotal {where}: {part!r}")
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


def parse_job_line(text: str, translation: dict[str, int]) -> SubtotalJob:
    """One job from ``[sum|count] <measures> : <group columns>``. Spaces
    around ``:`` and ``,`` are syntax, trimmed without a warning."""
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
    return make_job(measures, group_by, translation, aggregate_kind)


_LABEL_ROW = ("subtotal these amounts", "for column names")


def parse_subtotal_spec(block: list[list], translation: dict[str, int], warn=None) -> SubtotalSpec:
    """Jobs from an on-sheet control block of (measures, group columns) rows.

    A leading label row and a bare title row are recognised and
    skipped; every other row must carry both columns.
    """
    emit = warn or log.warning
    spec = SubtotalSpec()
    for row in block:
        texts = ["" if v is None else str(v) for v in row]
        while len(texts) < 2:
            texts.append("")
        first, second = texts[0].strip(), texts[1].strip()
        if not first and not second:
            continue
        if first.lower() == "subtotals" and not second:
            continue
        if (first.lower(), second.lower()) == _LABEL_ROW:
            continue
        if not first or not second:
            raise BadControlTable(
                f"subtotal row needs measures and group columns, got {texts!r}"
            )
        measures = _split_names(texts[0], "measures", emit)
        group_by = _split_names(texts[1], "group columns", emit)
        spec.jobs.append(make_job(measures, group_by, translation))
    return spec


def aggregate(records: list[list[str]], job: SubtotalJob) -> ReportTable:
    """One row per distinct group key, aggregates accumulated in input order."""
    groups: dict[tuple[str, ...], list[float]] = {}
    width = len(job.measure_indices)
    for record_index, fields in enumerate(records, start=1):
        key = tuple(
            fields[i] if i < len(fields) else "" for i in job.group_indices
        )
        totals = groups.get(key)
        if totals is None:
            totals = groups[key] = [0.0] * width
        for slot, column_index in enumerate(job.measure_indices):
            text = fields[column_index] if column_index < len(fields) else ""
            if job.aggregate == "count":
                if text.strip():
                    totals[slot] += 1.0
                continue
            if not text.strip():
                continue  # blank fields contribute nothing to a sum
            number = parse_number(text)
            if number is None:
                raise NonNumericMeasure(record_index, job.measures[slot], text)
            totals[slot] += number
    label = "Sum of %s" if job.aggregate == "sum" else "Count of %s"
    return ReportTable(
        group_names=list(job.group_by),
        measure_labels=[label % m for m in job.measures],
        rows=sorted(groups.items()),
    )


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
