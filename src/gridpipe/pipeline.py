"""The streaming loop: drop each record into the input cells,
recalculate, collect the output cells, and write the result.

Per record the engine (1) parses the fields, (2) fits them to the input
range, (3) runs the compiled record step, which takes the fields as
text and returns the output and skip cells' values, computing only the
cells downstream of the input and carry-forward cells that those read,
(4) consults the skip cell, and (5) for kept records writes the joined
output line and copies it into the carry-forward cells. Cross-row rules
(duplicate detection) fall out of the carry-forward mechanism. Also
hosts the sorted-file comparison loop, which drives a status cell
through the same step.
"""

from __future__ import annotations

import logging
import sys
import time
from dataclasses import asdict, dataclass, field

from .csvio import atomic_output, encode_record, read_records
from .engine import compile_plan, recalculate
from .errors import ConfigError, DataError
from .values import CellError, CellValue, render_value, values_equal
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


def _record_step(wb: Workbook, ranges: list[CellRange], observed: dict, carry_keys: list,
                 policy: str, what: str, error: type, skip=None):
    """The per-record step shared by ``run_pipeline`` and ``compare_files``.

    Returns ``(step, write_back, plan)``. ``step(number, fields, *more)``
    fits each field list to its range, runs the plan and returns the
    values of the ``observed`` cells in order. An error value raises
    ``error`` naming the record and the cell by its role in ``observed``.
    A record whose first value is TRUE or equals the ``skip`` sentinel
    returns None unchecked. ``write_back()`` stores the last record's
    fields and values.
    """
    recalculate(wb)  # cells not fed by the stream are computed once
    field_keys = [key for rng in ranges for key in rng.keys()]
    width, *more_widths = [rng.size() for rng in ranges]
    plan = compile_plan(wb, carry_keys, observed, field_keys)
    run, values = plan.run, wb.values
    names = [f"{role} {_a1(wb, key)}" for key, role in observed.items()]
    last_row = last_out = ()

    def step(number, fields, *more):
        nonlocal last_row, last_out
        row = fields if len(fields) == width else _fit_fields(fields, width, policy, number)
        if more:  # the right-hand side of a comparison
            for fields, size in zip(more, more_widths):
                row = row + _fit_fields(fields, size, policy, number)
        last_row = row
        last_out = out = run(values, row)
        if skip is not None and (out[0] is True or values_equal(out[0], skip)):
            return None
        for value in out:
            if value.__class__ is CellError:
                name = next(n for n, v in zip(names, out) if v is value)
                raise error(f"{what} {number}: {name} is {value.code}")
        return out

    def write_back():
        values.update(zip(field_keys, last_row))
        values.update(zip(observed, last_out))

    return step, write_back, plan


def run_pipeline(
    spec: PipelineSpec,
    wb: Workbook,
    progress_every: int = 0,
    progress_stream=None,
) -> RunStats:
    """Stream the input file through the workbook into the output file.

    Each record evaluates only the formula cells the output and skip
    cells read (``plan_cells`` in the stats). Afterwards the input,
    output and skip cells hold the last record's values and the other
    formula cells are stale; ``recalculate(wb)`` refreshes them.
    """
    started = time.perf_counter()
    input_range = _range_for(wb, spec.input_range, "input")
    output_range = _range_for(wb, spec.output_range, "output")
    _require_formula_free(wb, input_range, "input")

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
        carry_keys = list(carry_range.keys())
        if len(carry_keys) not in (1, len(payload_keys)):
            raise ConfigError(
                f"carry-forward range holds {len(carry_keys)} cells; "
                f"expected 1 or {len(payload_keys)} (the output payload width)"
            )

    if spec.header_policy == "validate" and not spec.expected_headers:
        raise ConfigError("header policy 'validate' requires expected headers")
    if spec.header_policy not in ("pass-through", "validate", "none"):
        raise ConfigError(f"unknown header policy: {spec.header_policy!r}")
    if spec.field_count_policy not in ("strict", "pad-truncate"):
        raise ConfigError(f"unknown field count policy: {spec.field_count_policy!r}")
    if spec.on_record_error not in ("fail-fast", "skip-and-log"):
        raise ConfigError(f"unknown record error policy: {spec.on_record_error!r}")

    values = wb.values
    observed = dict.fromkeys(payload_keys, "output cell")
    if skip_key is not None:
        observed = {skip_key: "skip cell", **observed}
    step, write_back, plan = _record_step(
        wb, [input_range], observed, carry_keys, spec.field_count_policy, "record",
        RecordError, None if skip_key is None else spec.skip_sentinel,
    )
    first = 0 if skip_key is None else 1  # where the payload starts in a step's values
    width = len(payload_keys)
    fail_fast = spec.on_record_error == "fail-fast"
    single_carry = len(carry_keys) == 1
    stats = RunStats(plan_cells=[_a1(wb, key) for key in plan.cells])

    with atomic_output(spec.output_path) as out:
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
                result = step(stats.records_read, fields)
            except DataError as exc:
                stats.records_errored += 1
                if fail_fast:
                    raise
                log.warning("%s (record skipped)", exc)
                if progress_every:
                    report_progress(stats, progress_every, progress_stream)
                continue
            if result is None:
                stats.records_skipped += 1
                if progress_every:
                    report_progress(stats, progress_every, progress_stream)
                continue

            if width == 1:  # a single-cell payload is written verbatim
                line = render_value(result[first])
            else:
                rendered = [render_value(value) for value in result[first:]]
                line = ",".join(rendered)
                if line.count(",") != width - 1 or '"' in line or "\n" in line or "\r" in line:
                    line = encode_record(rendered)
            out.write(line + "\n")
            stats.records_written += 1
            if single_carry:
                values[carry_keys[0]] = line
            elif carry_keys:
                values.update(zip(carry_keys, rendered))
            if progress_every:
                report_progress(stats, progress_every, progress_stream)
    write_back()

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
    step, write_back, _ = _record_step(wb, [left_range, right_range], {status_key: "status cell"},
                                       [], "pad-truncate", "record pair", StatusCellError)

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
        (status,) = step(index, left[1], right[1])
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
    write_back()
    while left is not None:
        report.left_only.append(left[0])
        left = next(left_records, None)
    while right is not None:
        report.right_only.append(right[0])
        right = next(right_records, None)

    if spec.output_path:
        with atomic_output(spec.output_path) as out:
            for line in report.lines():
                out.write(line + "\n")
    return report
