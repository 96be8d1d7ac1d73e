"""Subtotal reports: group-by aggregation over delimited records.

Each subtotal job names measure columns and group-by columns; the
report holds one row per distinct group-key tuple, ordered
lexicographically so output diffs are deterministic. One piece of
generated code adds a record to every job's groups: ``subtotal`` runs
it over a file's field lists, and a run splices it into its own record
loop (``Subtotals``), so it reports what it writes without reading it
back.
"""

from __future__ import annotations

import math
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
    "parse_job_lines",
    "Subtotals",
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


def parse_job_lines(lines: list[str], header: list[str]) -> list[SubtotalJob]:
    """The jobs of ``lines``, their columns resolved against ``header``."""
    translation = translation_table(header)
    return [parse_job_line(line, translation) for line in lines]


class Subtotals:
    """Subtotal jobs and their group tables, which generated code
    (``code``) fills a record at a time. ``subtotal`` runs that code
    over a file's field lists; a run splices it into its record loop,
    after resolving the job lines against the header line it reads."""

    __slots__ = ("job_lines", "jobs", "reach", "groups", "failure")

    def __init__(self, job_lines: list[str] = ()):
        self.job_lines = job_lines
        self.jobs: list[SubtotalJob] | None = None  # until they are resolved
        self.failure: NonNumericMeasure | None = None  # the first one met

    def resolve(self, header: list[str]) -> None:
        self.start(parse_job_lines(self.job_lines, header))

    def start(self, jobs: list[SubtotalJob]) -> None:
        self.jobs = jobs
        self.reach = 1 + max((i for job in jobs for i in job.group_indices + job.measure_indices),
                             default=-1)  # how many columns the jobs read
        self.groups: list[dict] = [{} for _ in jobs]  # per job, group key -> totals

    def code(self, texts: list[str], numbers: dict[int, str], index: str):
        """Statements that add one record to each job's groups, and the
        names they read.

        ``texts[i]`` is code for the text of column ``i``; a column past
        them reads as blank. ``numbers[i]``, where given, is code for the
        float whose ``render_number`` text column ``i`` holds: it is added
        as it is, since ``parse_number`` would give it back exactly, and it
        is never blank. ``index`` is code for the record's 1-based index. A
        blank measure is neither counted nor summed; a non-numeric one
        calls ``fail(index, column, text)``, which notes the first for
        ``tables`` to raise: within a record, the first job's first.
        """
        names: dict = {"parse_number": parse_number, "fail": self._fail}
        lines = []
        for j, (job, found) in enumerate(zip(self.jobs, self.groups)):
            names[f"groups{j}"] = found
            keys = [texts[i] if i < len(texts) else "''" for i in job.group_indices]
            key = keys[0] if len(keys) == 1 else f"({', '.join(keys)})"
            lines += [f"key = {key}",
                      f"totals = groups{j}.get(key)",
                      "if totals is None:",
                      f"    totals = groups{j}[key] = {[0.0] * len(job.measure_indices)}"]
            for slot, i in enumerate(job.measure_indices):
                if i in numbers:
                    added = "1.0" if job.aggregate == "count" else numbers[i]
                    lines.append(f"totals[{slot}] += {added}")
                elif i >= len(texts):
                    continue  # blank
                elif job.aggregate == "count":
                    lines += [f"if {texts[i]}.strip():", f"    totals[{slot}] += 1.0"]
                else:
                    lines += [f"number = parse_number({texts[i]})",
                              "if number is not None:",
                              f"    totals[{slot}] += number",
                              f"elif {texts[i]}.strip():",
                              f"    fail({index}, {job.measures[slot]!r}, {texts[i]})"]
        return lines, names

    def _fail(self, index: int, column: str, text: str) -> None:
        if self.failure is None:
            self.failure = NonNumericMeasure(index, column, text)

    def tables(self, data_path=None) -> list[ReportTable]:
        """One table per job, its rows in key order; or the error that
        stopped the report: ``data_path`` had no header line, a measure
        was not numeric, or a total overflowed."""
        if self.jobs is None:
            raise DataError(f"{data_path}: no header row to aggregate against")
        if self.failure is not None:
            raise self.failure
        tables = []
        for job, groups in zip(self.jobs, self.groups):
            rows = sorted(groups.items())
            if len(job.group_indices) == 1:  # the key was the bare field
                rows = [((key,), totals) for key, totals in rows]
            for key, totals in rows:
                for measure, total in zip(job.measures, totals):
                    if not math.isfinite(total):
                        group = ", ".join(f"{n}={v!r}" for n, v in zip(job.group_by, key))
                        raise DataError(f"sum of column {measure!r} overflows in group {group}")
            labels = [f"{job.aggregate.capitalize()} of {m}" for m in job.measures]
            tables.append(ReportTable(list(job.group_by), labels, rows))
        return tables


def _raise_non_numeric(index: int, column: str, text: str):
    raise NonNumericMeasure(index, column, text)


def subtotal(records: Iterable[list[str]], jobs: list[SubtotalJob]) -> list[ReportTable]:
    """One table per job from a single pass over ``records``.

    ``records`` may be a one-shot iterator: each record feeds every
    job's group accumulator and is then dropped, so memory is O(groups).
    A short record reads as blank past its end. Aggregates accumulate
    in input order. A non-numeric measure raises at the first record
    that holds one (within it, the first job, then the first measure).
    """
    report = Subtotals()
    report.start(jobs)
    width = report.reach
    lines, names = report.code([f"fields[{i}]" for i in range(width)], {}, "index")
    source = ["def accumulate(records):",
              "    for index, fields in enumerate(records, 1):",
              f"        if len(fields) < {width}:",
              f"            fields = fields + [''] * ({width} - len(fields))",
              *(f"        {line}" for line in lines)]
    namespace = {**names, "fail": _raise_non_numeric}
    exec(compile("\n".join(source) + "\n", "<subtotal loop>", "exec"), namespace)
    namespace["accumulate"](records)
    return report.tables()


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
