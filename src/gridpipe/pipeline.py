"""The streaming loop: drop each record into the input cells,
recalculate, collect the output cells, and write the result.

Per record the engine (1) parses the fields, (2) bulk-writes them as
text literals into the input range, (3) runs the compiled plan: the
cells downstream of the input and carry-forward cells that the output
and skip cells read, (4) consults the skip cell, and (5) for kept
records writes the joined output line and copies it into the
carry-forward cells. Cross-row rules (duplicate detection) fall out of
the carry-forward mechanism. Also hosts the sorted-file
comparison loop, which drives a status cell the same way.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import asdict, dataclass, field

from .csvio import read_records
from .engine import compile_plan, recalculate
from .errors import ConfigError, DataError
from .values import BLANK, CellError, CellValue, render_value, values_equal
from .workbook import CellRange, Workbook, format_a1

__all__ = [
    "PipelineSpec",
    "CompareSpec",
    "RunStats",
    "HeaderReport",
    "HeaderMismatch",
    "FieldCountError",
    "RecordError",
    "StatusCellError",
    "CompareReport",
    "run_pipeline",
    "validate_headers",
    "compare_files",
    "report_progress",
]

log = logging.getLogger(__name__)


class HeaderMismatch(ConfigError):
    """The input file's header row differs from the expected headers."""


class FieldCountError(DataError):
    """A record's field count differs from the input range width."""


class RecordError(DataError):
    """A record produced an error value in an output or skip cell."""


class StatusCellError(DataError):
    """The comparison status cell produced something other than
    LEFT, RIGHT, or MATCH."""


@dataclass
class PipelineSpec:
    input_path: str
    output_path: str
    input_range: str = "InputCells"
    output_range: str = "OutputCells"
    skip_cell: str | None = None
    skip_sentinel: CellValue = "Skip"
    carry_forward_range: str | None = None
    header_policy: str = "pass-through"  # pass-through | validate | none
    expected_headers: list[str] | None = None
    csv_mode: str = "rfc4180"
    field_count_policy: str = "pad-truncate"  # strict | pad-truncate
    on_record_error: str = "fail-fast"  # fail-fast | skip-and-log
    max_rows: int = 0  # 0 = unlimited


@dataclass
class CompareSpec:
    left_path: str
    right_path: str
    output_path: str | None = None
    left_range: str = "LeftCells"
    right_range: str = "RightCells"
    status_cell: str = "Status"
    has_headings: bool = False
    csv_mode: str = "rfc4180"


@dataclass
class RunStats:
    records_read: int = 0
    records_written: int = 0
    records_skipped: int = 0
    records_errored: int = 0
    elapsed: float = 0.0
    plan_cells: list[str] = field(default_factory=list, compare=False)  # A1, topo order

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class HeaderReport:
    ok: bool
    position: int = 0  # 1-based first differing position
    found: str = ""
    expected: str = ""
    warnings: list[str] = field(default_factory=list)

    def message(self) -> str:
        if self.ok:
            return "headers match"
        return (
            f"header mismatch at position {self.position}: "
            f"found {self.found!r}, expected {self.expected!r}"
        )


def validate_headers(found: list[str], expected: list[str], trim: bool = True) -> HeaderReport:
    """Positional, case-insensitive header comparison.

    With ``trim`` on, surrounding whitespace is ignored but reported as
    a warning, since stray spaces in headers are a classic data smell.
    """
    warnings = []
    for position, (got, want) in enumerate(zip(found, expected), start=1):
        got_cmp, want_cmp = got, want
        if trim:
            if got != got.strip():
                warnings.append(f"superfluous spaces in header {position}: {got!r}")
            got_cmp, want_cmp = got.strip(), want.strip()
        if got_cmp.upper() != want_cmp.upper():
            return HeaderReport(False, position, got, want, warnings)
    if len(found) != len(expected):
        position = min(len(found), len(expected)) + 1
        found_text = found[position - 1] if position <= len(found) else "<missing>"
        expected_text = expected[position - 1] if position <= len(expected) else "<extra>"
        return HeaderReport(False, position, found_text, expected_text, warnings)
    return HeaderReport(True, warnings=warnings)


def report_progress(stats: RunStats, every_n: int, stream=None) -> None:
    """Emit a progress line when the record count hits a multiple of n."""
    if every_n and stats.records_read % every_n == 0:
        print(f"records processed: {stats.records_read}", file=stream or sys.stderr)


def _range_for(wb: Workbook, name: str, what: str) -> CellRange:
    try:
        return wb.resolve_name(name)
    except Exception as exc:
        raise ConfigError(f"{what} range {name!r}: {exc}") from exc


def _a1(wb: Workbook, key: tuple) -> str:
    return f"{wb.sheet_display_name(key[0])}!{format_a1(key[1], key[2])}"


def _require_formula_free(wb: Workbook, rng: CellRange, what: str) -> None:
    for addr in rng.addresses():
        if wb.formula_at(addr) is not None:
            raise ConfigError(
                f"{what} range {rng} overlaps formula cell {addr}; "
                "writing records there would destroy the rule"
            )


def _fit_fields(fields: list[str], width: int, policy: str, record_no: int) -> list[str]:
    if len(fields) == width:
        return fields
    if policy == "strict":
        raise FieldCountError(
            f"record {record_no}: {len(fields)} fields, input range holds {width}"
        )
    if len(fields) < width:
        return fields + [""] * (width - len(fields))
    return fields[:width]


def run_pipeline(
    spec: PipelineSpec,
    wb: Workbook,
    progress_every: int = 0,
    progress_stream=None,
) -> RunStats:
    """Stream the input file through the workbook into the output file.

    Each record evaluates only the formula cells the output and skip
    cells read (``plan_cells`` in the stats). Afterwards the other
    formula cells are stale; ``recalculate(wb)`` refreshes them.
    """
    started = time.perf_counter()
    input_range = _range_for(wb, spec.input_range, "input")
    output_range = _range_for(wb, spec.output_range, "output")
    _require_formula_free(wb, input_range, "input")
    wb.declare_writable(input_range)

    skip_key = None
    if spec.skip_cell:
        skip_range = _range_for(wb, spec.skip_cell, "skip")
        if skip_range.size() != 1:
            raise ConfigError(f"skip cell {spec.skip_cell!r} must be a single cell")
        skip_key = next(skip_range.keys())

    # The skip cell may sit inside the output range; it never joins the payload.
    payload_keys = [k for k in output_range.keys() if k != skip_key]
    if not payload_keys:
        raise ConfigError(f"output range {spec.output_range!r} has no payload cells")

    carry_keys: list = []
    if spec.carry_forward_range:
        carry_range = _range_for(wb, spec.carry_forward_range, "carry-forward")
        _require_formula_free(wb, carry_range, "carry-forward")
        wb.declare_writable(carry_range)
        carry_keys = list(carry_range.keys())
        if len(carry_keys) not in (1, len(payload_keys)):
            raise ConfigError(
                f"carry-forward range holds {len(carry_keys)} cells; "
                f"expected 1 or {len(payload_keys)} (the output payload width)"
            )

    input_keys = list(input_range.keys())
    width = len(input_keys)
    if spec.header_policy == "validate" and not spec.expected_headers:
        raise ConfigError("header policy 'validate' requires expected headers")
    if spec.header_policy not in ("pass-through", "validate", "none"):
        raise ConfigError(f"unknown header policy: {spec.header_policy!r}")
    if spec.field_count_policy not in ("strict", "pad-truncate"):
        raise ConfigError(f"unknown field count policy: {spec.field_count_policy!r}")
    if spec.on_record_error not in ("fail-fast", "skip-and-log"):
        raise ConfigError(f"unknown record error policy: {spec.on_record_error!r}")

    recalculate(wb)  # cells not fed by the stream are computed once
    values = wb.values
    observed = payload_keys + ([skip_key] if skip_key is not None else [])
    plan = compile_plan(wb, input_keys + carry_keys, observed)
    run = plan.run
    sentinel = spec.skip_sentinel
    fail_fast = spec.on_record_error == "fail-fast"
    single_carry = len(carry_keys) == 1
    stats = RunStats(plan_cells=[_a1(wb, key) for key in plan.cells])

    with open(spec.output_path, "w", encoding="utf-8", newline="\n") as out:
        records = read_records(spec.input_path, spec.csv_mode)

        if spec.header_policy in ("pass-through", "validate"):
            head = next(records, None)
            if head is not None:
                raw, fields = head
                if spec.header_policy == "validate":
                    report = validate_headers(fields, spec.expected_headers)
                    for warning in report.warnings:
                        log.warning(warning)
                    if not report.ok:
                        raise HeaderMismatch(report.message())
                out.write(raw + "\n")

        for raw, fields in records:
            stats.records_read += 1
            if spec.max_rows and stats.records_read > spec.max_rows:
                raise DataError(
                    f"input exceeds the configured row limit ({spec.max_rows})"
                )
            try:
                row = _fit_fields(fields, width, spec.field_count_policy, stats.records_read)

                for key, text in zip(input_keys, row):
                    values[key] = text
                run(values)

                if skip_key is not None:
                    flag = values.get(skip_key, BLANK)
                    if flag.__class__ is CellError:
                        raise RecordError(
                            f"record {stats.records_read}: skip cell "
                            f"{_a1(wb, skip_key)} is {flag.code}"
                        )
                    if flag is True or values_equal(flag, sentinel):
                        stats.records_skipped += 1
                        if progress_every:
                            report_progress(stats, progress_every, progress_stream)
                        continue

                rendered = []
                for key in payload_keys:
                    value = values.get(key, BLANK)
                    if value.__class__ is CellError:
                        raise RecordError(
                            f"record {stats.records_read}: output cell "
                            f"{_a1(wb, key)} is {value.code}"
                        )
                    rendered.append(render_value(value))
                line = ",".join(rendered)
            except DataError as exc:
                if fail_fast:
                    stats.records_errored += 1
                    raise
                stats.records_errored += 1
                log.warning("%s (record skipped)", exc)
                if progress_every:
                    report_progress(stats, progress_every, progress_stream)
                continue

            out.write(line + "\n")
            stats.records_written += 1
            if single_carry:
                values[carry_keys[0]] = line
            elif carry_keys:
                for key, text in zip(carry_keys, rendered):
                    values[key] = text
            if progress_every:
                report_progress(stats, progress_every, progress_stream)

    stats.elapsed = time.perf_counter() - started
    assert stats.records_read == (
        stats.records_written + stats.records_skipped + stats.records_errored
    ), "record conservation violated"
    return stats


@dataclass
class CompareReport:
    left_only: list[str] = field(default_factory=list)
    right_only: list[str] = field(default_factory=list)
    matches: int = 0

    def is_empty(self) -> bool:
        return not self.left_only and not self.right_only

    def lines(self):
        for raw in self.left_only:
            yield "< " + raw
        for raw in self.right_only:
            yield "> " + raw


def compare_files(spec: CompareSpec, wb: Workbook) -> CompareReport:
    """Merge-compare two key-sorted files through a status-cell workbook.

    While both files have records, the current pair is loaded into the
    left/right ranges and the status cell decides: LEFT means the left
    record is unmatched (advance left), RIGHT the converse, MATCH
    advances both. The tail of the longer file is one-sided by
    construction. Only the status cell and the formula cells it reads
    are evaluated; afterwards the others are stale until
    ``recalculate(wb)``.
    """
    left_range = _range_for(wb, spec.left_range, "left")
    right_range = _range_for(wb, spec.right_range, "right")
    status_range = _range_for(wb, spec.status_cell, "status")
    if status_range.size() != 1:
        raise ConfigError(f"status cell {spec.status_cell!r} must be a single cell")
    status_key = next(status_range.keys())
    _require_formula_free(wb, left_range, "left")
    _require_formula_free(wb, right_range, "right")
    wb.declare_writable(left_range)
    wb.declare_writable(right_range)

    left_keys = list(left_range.keys())
    right_keys = list(right_range.keys())
    recalculate(wb)
    values = wb.values
    run = compile_plan(wb, left_keys + right_keys, [status_key]).run

    left_records = read_records(spec.left_path, spec.csv_mode)
    right_records = read_records(spec.right_path, spec.csv_mode)
    if spec.has_headings:
        next(left_records, None)
        next(right_records, None)

    report = CompareReport()
    left = next(left_records, None)
    right = next(right_records, None)
    index = 0
    while left is not None and right is not None:
        index += 1
        for key, text in zip(left_keys, _fit_fields(left[1], len(left_keys), "pad-truncate", index)):
            values[key] = text
        for key, text in zip(right_keys, _fit_fields(right[1], len(right_keys), "pad-truncate", index)):
            values[key] = text
        run(values)
        status = values.get(status_key, BLANK)
        if status.__class__ is CellError:
            raise StatusCellError(
                f"record pair {index}: status cell {_a1(wb, status_key)} is {status.code}"
            )
        verdict = render_value(status).strip().upper()
        if verdict == "LEFT":
            report.left_only.append(left[0])
            left = next(left_records, None)
        elif verdict == "RIGHT":
            report.right_only.append(right[0])
            right = next(right_records, None)
        elif verdict == "MATCH":
            report.matches += 1
            left = next(left_records, None)
            right = next(right_records, None)
        else:
            raise StatusCellError(
                f"record pair {index}: status cell returned {verdict!r}, "
                "expected LEFT, RIGHT, or MATCH"
            )
    while left is not None:
        report.left_only.append(left[0])
        left = next(left_records, None)
    while right is not None:
        report.right_only.append(right[0])
        right = next(right_records, None)

    if spec.output_path:
        with open(spec.output_path, "w", encoding="utf-8", newline="\n") as out:
            for line in report.lines():
                out.write(line + "\n")
    return report
