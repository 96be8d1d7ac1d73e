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

import sys
import time

from .csvio import atomic_output, encode_record, parse_line, read_records
from .engine import compile_constants, compile_plan
from .errors import ConfigError, DataError, check_choices, warn
from .values import CellError, CellValue, render_value, values_equal
from .workbook import CellRange, Workbook

__all__ = [
    "PipelineSpec",
    "CompareSpec",
    "FIELD_COUNT_POLICIES",
    "RECORD_ERROR_POLICIES",
    "RunStats",
    "HeaderMismatch",
    "FieldCountError",
    "RecordError",
    "StatusCellError",
    "CompareReport",
    "run_cells",
    "compare_cells",
    "run_pipeline",
    "validate_headers",
    "compare_files",
    "report_progress",
]

FIELD_COUNT_POLICIES = ("strict", "pad-truncate")
RECORD_ERROR_POLICIES = ("fail-fast", "skip-and-log")


class HeaderMismatch(ConfigError):
    """The input file's header row differs from the expected headers."""


class FieldCountError(DataError):
    """A record's field count differs from the input range width."""


class RecordError(DataError):
    """A record produced an error value in an output or skip cell."""


class StatusCellError(DataError):
    """The comparison status cell produced something other than
    LEFT, RIGHT, or MATCH."""


class PipelineSpec:
    __slots__ = ("input_path", "output_path", "input_range", "output_range", "skip_cell",
                 "skip_sentinel", "carry_forward_range", "has_headings", "expected_headers",
                 "field_count_policy", "on_record_error")

    def __init__(self, input_path: str, output_path: str, input_range: str = "InputCells",
                 output_range: str = "OutputCells", skip_cell: str | None = None,
                 skip_sentinel: CellValue = "Skip", carry_forward_range: str | None = None,
                 has_headings: bool = True, expected_headers: list[str] | None = None,
                 field_count_policy: str = "pad-truncate", on_record_error: str = "fail-fast"):
        self.input_path = input_path
        self.output_path = output_path
        self.input_range = input_range
        self.output_range = output_range
        self.skip_cell = skip_cell
        self.skip_sentinel = skip_sentinel
        self.carry_forward_range = carry_forward_range
        self.has_headings = has_headings
        self.expected_headers = expected_headers  # the header line must match, if given
        self.field_count_policy = field_count_policy  # FIELD_COUNT_POLICIES
        self.on_record_error = on_record_error  # RECORD_ERROR_POLICIES
        check_choices(
            self,
            field_count_policy=FIELD_COUNT_POLICIES,
            on_record_error=RECORD_ERROR_POLICIES,
        )


class CompareSpec:
    __slots__ = ("left_path", "right_path", "output_path", "left_range", "right_range",
                 "status_cell", "has_headings")

    def __init__(self, left_path: str, right_path: str, output_path: str | None = None,
                 left_range: str = "LeftCells", right_range: str = "RightCells",
                 status_cell: str = "Status", has_headings: bool = False):
        self.left_path = left_path
        self.right_path = right_path
        self.output_path = output_path
        self.left_range = left_range
        self.right_range = right_range
        self.status_cell = status_cell
        self.has_headings = has_headings


class RunStats:
    __slots__ = ("records_read", "records_written", "records_skipped", "records_errored",
                 "elapsed", "plan_cells")

    def __init__(self, records_read: int = 0, records_written: int = 0,
                 records_skipped: int = 0, records_errored: int = 0, elapsed: float = 0.0,
                 plan_cells: list[str] | None = None):
        self.records_read = records_read
        self.records_written = records_written
        self.records_skipped = records_skipped
        self.records_errored = records_errored
        self.elapsed = elapsed
        self.plan_cells = [] if plan_cells is None else plan_cells  # A1, topo order

    def as_dict(self) -> dict:
        """The statistics by name, in the order ``__slots__`` lists them."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not RunStats:
            return NotImplemented
        counts = self.__slots__[:-1]  # plan_cells is not compared
        return [getattr(self, n) for n in counts] == [getattr(other, n) for n in counts]


def validate_headers(found: list[str], expected: list[str]) -> None:
    """Positional, case-insensitive header comparison that ignores
    surrounding whitespace; raises ``HeaderMismatch`` naming the first
    position that differs."""
    for position, (got, want) in enumerate(zip(found, expected), start=1):
        if got.strip().upper() != want.strip().upper():
            break
    else:
        if len(found) == len(expected):
            return
        position = min(len(found), len(expected)) + 1
        got = found[position - 1] if position <= len(found) else "<missing>"
        want = expected[position - 1] if position <= len(expected) else "<extra>"
    raise HeaderMismatch(
        f"header mismatch at position {position}: found {got!r}, expected {want!r}"
    )


def report_progress(stats: RunStats, every_n: int, stream=None) -> None:
    """Emit a progress line when the record count hits a multiple of n."""
    if every_n and stats.records_read % every_n == 0:
        print(f"records processed: {stats.records_read}", file=stream or sys.stderr)


def _range_for(wb: Workbook, name: str, what: str) -> CellRange:
    try:
        return wb.resolve_name(name)
    except Exception as exc:
        raise ConfigError(f"{what} range {name!r}: {exc}") from exc


def _record_range(wb: Workbook, name: str, what: str) -> CellRange:
    """The named range records are written to; it must hold no formula."""
    rng = _range_for(wb, name, what)
    for addr in rng.addresses():
        if wb.formula_at(addr) is not None:
            raise ConfigError(
                f"{what} range {rng} overlaps formula cell {addr}; "
                "writing records there would destroy the rule"
            )
    return rng


def _single_cell(wb: Workbook, name: str, what: str) -> tuple:
    """The key of the named range, which must be one cell."""
    rng = _range_for(wb, name, what)
    if rng.size() != 1:
        raise ConfigError(f"{what} cell {name!r} must be a single cell")
    return next(rng.keys())


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


def _check_readback(line: str, width: int | None, where: str) -> None:
    """Raise ``RecordError``, naming ``where``, unless ``line`` reads back as
    one record of 1 or ``width`` fields (any number if ``width`` is None)."""
    if '"' in line:
        try:
            records = parse_line(line)
        except DataError as exc:
            raise RecordError(f"{where} does not read back: {exc}") from None
        if len(records) != 1:
            raise RecordError(f"{where} reads back as {len(records)} records")
        count = len(records[0])
    elif "\n" in line or "\r" in line:
        raise RecordError(f"{where} holds a line break outside quotes")
    else:
        count = line.count(",") + 1
    if width is not None and count not in (1, width):
        raise RecordError(f"{where} reads back as {count} fields, the header has {width}")


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
    field_keys = [key for rng in ranges for key in rng.keys()]
    # cells the plan reads but no record changes are computed once
    compile_constants(wb, field_keys + carry_keys, observed).run(wb.values)
    width, *more_widths = [rng.size() for rng in ranges]
    plan = compile_plan(wb, carry_keys, observed, field_keys)
    run, values = plan.run, wb.values
    names = [f"{role} {wb.cell_name(key)}" for key, role in observed.items()]
    skip_false = skip is not None and values_equal(False, skip)
    last_row = last_out = ()

    def step(number, fields, *more):
        nonlocal last_row, last_out
        row = fields if len(fields) == width else _fit_fields(fields, width, policy, number)
        if more:  # the right-hand side of a comparison
            for fields, size in zip(more, more_widths):
                row = row + _fit_fields(fields, size, policy, number)
        last_row = row
        last_out = out = run(values, row)
        if skip is not None:
            flag = out[0]
            if flag is True or (skip_false if flag is False else values_equal(flag, skip)):
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


def run_cells(spec: PipelineSpec, wb: Workbook):
    """The checks ``run_pipeline`` makes before it streams, which the job
    loader makes too. Reads no data and compiles nothing; returns
    ``(input_range, skip_key, payload_keys, carry_keys)``."""
    input_range = _record_range(wb, spec.input_range, "input")
    output_range = _range_for(wb, spec.output_range, "output")
    skip_key = _single_cell(wb, spec.skip_cell, "skip") if spec.skip_cell else None

    # The skip cell may sit inside the output range; it never joins the payload.
    payload_keys = [k for k in output_range.keys() if k != skip_key]
    if not payload_keys:
        raise ConfigError(f"output range {spec.output_range!r} has no payload cells")

    carry_keys: list = []
    if spec.carry_forward_range:
        carry_range = _record_range(wb, spec.carry_forward_range, "carry-forward")
        carry_keys = list(carry_range.keys())
        if len(carry_keys) not in (1, len(payload_keys)):
            raise ConfigError(
                f"carry-forward range holds {len(carry_keys)} cells; "
                f"expected 1 or {len(payload_keys)} (the output payload width)"
            )
    return input_range, skip_key, payload_keys, carry_keys


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
    formula cells are stale, or never evaluated if the run did not need
    them; ``recalculate(wb)`` refreshes them.
    """
    started = time.perf_counter()
    input_range, skip_key, payload_keys, carry_keys = run_cells(spec, wb)

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
    payload_name = f"output cell {wb.cell_name(payload_keys[0])}"
    fail_fast = spec.on_record_error == "fail-fast"
    single_carry = len(carry_keys) == 1
    stats = RunStats(plan_cells=[wb.cell_name(key) for key in plan.cells])
    read = written = skipped = errored = 0

    with atomic_output(spec.output_path) as out:
        records = read_records(spec.input_path)
        header_width = len(spec.expected_headers) if spec.expected_headers else None

        if spec.has_headings:
            head = next(records, None)
            if head is not None:
                raw, fields = head
                if spec.expected_headers:
                    validate_headers(fields, spec.expected_headers)
                header_width = len(fields)
                out.write(raw + "\n")
        commas = () if header_width is None else (0, header_width - 1)

        for raw, fields in records:
            read += 1
            try:
                result = step(read, fields)
                if result is not None and width == 1:  # the line as the sheet built it
                    line = result[first]
                    if line.__class__ is not str:
                        line = render_value(line)
                    # Without quotes or line breaks, its commas tell its width.
                    if ('"' in line or "\n" in line or "\r" in line
                            or commas and line.count(",") not in commas):
                        _check_readback(line, header_width, f"record {read}: {payload_name}")
            except DataError as exc:
                errored += 1
                if fail_fast:
                    raise
                warn(f"{exc} (record skipped)")
            else:
                if result is None:
                    skipped += 1
                else:
                    if width > 1:
                        rendered = [value if value.__class__ is str else render_value(value)
                                    for value in result[first:]]
                        line = ",".join(rendered)
                        if (line.count(",") != width - 1 or '"' in line
                                or "\n" in line or "\r" in line):
                            line = encode_record(rendered)
                    out.write(line + "\n")
                    written += 1
                    if single_carry:
                        values[carry_keys[0]] = line
                    elif carry_keys:
                        values.update(zip(carry_keys, rendered))
            if progress_every and not read % progress_every:
                stats.records_read = read
                report_progress(stats, progress_every, progress_stream)
    write_back()

    stats.records_read, stats.records_written = read, written
    stats.records_skipped, stats.records_errored = skipped, errored
    stats.elapsed = time.perf_counter() - started
    assert stats.records_read == (
        stats.records_written + stats.records_skipped + stats.records_errored
    ), "record conservation violated"
    return stats


class CompareReport:
    __slots__ = ("left_only", "right_only", "matches")

    def __init__(self):
        self.left_only: list[str] = []
        self.right_only: list[str] = []
        self.matches = 0

    def is_empty(self) -> bool:
        return not self.left_only and not self.right_only

    def lines(self):
        for raw in self.left_only:
            yield "< " + raw
        for raw in self.right_only:
            yield "> " + raw


def compare_cells(spec: CompareSpec, wb: Workbook):
    """The checks ``compare_files`` makes before it streams, which the job
    loader makes too. Reads no data and compiles nothing; returns
    ``(left_range, right_range, status_key)``."""
    return (
        _record_range(wb, spec.left_range, "left"),
        _record_range(wb, spec.right_range, "right"),
        _single_cell(wb, spec.status_cell, "status"),
    )


def compare_files(spec: CompareSpec, wb: Workbook) -> CompareReport:
    """Merge-compare two key-sorted files through a status-cell workbook.

    While both files have records, the current pair is loaded into the
    left/right ranges and the status cell decides: LEFT means the left
    record is unmatched (advance left), RIGHT the converse, MATCH
    advances both. The tail of the longer file is one-sided by
    construction. Only the status cell and the formula cells it reads
    are evaluated; afterwards the others are stale, or never evaluated,
    until ``recalculate(wb)``.
    """
    left_range, right_range, status_key = compare_cells(spec, wb)
    step, write_back, _ = _record_step(wb, [left_range, right_range], {status_key: "status cell"},
                                       [], "pad-truncate", "record pair", StatusCellError)

    left_records = read_records(spec.left_path)
    right_records = read_records(spec.right_path)
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
