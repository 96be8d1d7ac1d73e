"""The streaming loop: drop each record into the input cells,
recalculate, collect the output cells, and write the result.

A cell's role is the name the definition gives it, known only here:
``InputCells``, ``OutputCells`` and, if defined, ``Skip`` and
``CarryForward`` for a run; ``LeftCells``, ``RightCells`` and ``Status``
for a comparison.

A run compiles one function for itself, ``stream(records, write)``: the
record loop with the plan's code inline. The reader hands it each
record's field list (``csvio.open_fields``; no record but the header
keeps its raw text), and per record it (1) counts it, (2) fits the
fields to the input range if their number differs, (3) computes, as
locals, the cells downstream of the input and carry-forward cells that
the output and skip cells read, (4) consults the skip cell, and (5) for
a kept record tests each value that can be an error, joins the output
line, writes it, adds it to the run's subtotal report, if any, and
copies it into the carry-forward cells. A malformed record, named as it
is read, or a record's ``DataError`` ends the run, or under
``skip-and-log`` is counted and logged: one loop serves both. Cross-row
rules (duplicate detection) fall out of the carry-forward mechanism.
A comparison compiles one function the same way, ``merge``: the loop
over a pair of sorted files with the status cell's plan inline.
"""

from __future__ import annotations

import sys
import time
from csv import Error as CsvError

from .csvio import atomic_output, encode_record, malformed, open_fields, parse_line, read_records
from .engine import inline_plan
from .errors import ConfigError, DataError, check_choices, warn
from .functions import NUMBER
from .report import Subtotals
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
    __slots__ = ("input_path", "output_path", "has_headings", "expected_headers",
                 "field_count_policy", "on_record_error")

    def __init__(self, input_path: str, output_path: str, has_headings: bool = True,
                 expected_headers: list[str] | None = None,
                 field_count_policy: str = "pad-truncate", on_record_error: str = "fail-fast"):
        self.input_path = input_path
        self.output_path = output_path
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
    __slots__ = ("left_path", "right_path", "output_path", "has_headings")

    def __init__(self, left_path: str, right_path: str, output_path: str | None = None,
                 has_headings: bool = False):
        self.left_path = left_path
        self.right_path = right_path
        self.output_path = output_path
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


def _range_for(wb: Workbook, name: str) -> CellRange:
    if not wb.has_name(name):
        raise ConfigError(f"the definition does not define {name!r}")
    return wb.resolve_name(name)


def _record_range(wb: Workbook, name: str, what: str, beside=None) -> CellRange:
    """The named range records are written to; it must hold no formula,
    nor share a cell with ``beside``, the ``(what, range)`` the command
    writes its other records to."""
    rng = _range_for(wb, name)
    for addr in rng.addresses():
        if wb.formula_at(addr) is not None:
            raise ConfigError(
                f"{what} range {rng} overlaps formula cell {addr}; "
                "writing records there would destroy the rule"
            )
    if beside is not None and not set(rng.keys()).isdisjoint(beside[1].keys()):
        raise ConfigError(
            f"{what} range {rng} overlaps {beside[0]} range {beside[1]}; "
            "a record written to one would overwrite the other's"
        )
    return rng


def _single_cell(wb: Workbook, name: str, what: str) -> tuple:
    """The key of the named range, which must be one cell."""
    rng = _range_for(wb, name)
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


def _check_readback(line: str, width: int | None, where: str) -> list[str]:
    """The fields ``line`` reads back as; a ``RecordError``, naming
    ``where``, unless they are one record of 1 or ``width`` fields (any
    number if ``width`` is None)."""
    if '"' in line:
        try:
            records = parse_line(line)
        except DataError as exc:
            raise RecordError(f"{where} does not read back: {exc}") from None
        if len(records) != 1:
            raise RecordError(f"{where} reads back as {len(records)} records")
        fields = records[0]
    elif "\n" in line or "\r" in line:
        raise RecordError(f"{where} holds a line break outside quotes")
    else:
        fields = line.split(",")
    if width is not None and len(fields) not in (1, width):
        raise RecordError(f"{where} reads back as {len(fields)} fields, the header has {width}")
    return fields


def run_cells(wb: Workbook):
    """The checks ``run_pipeline`` makes before it streams, which the job
    loader makes too. Reads no data and compiles nothing; returns
    ``(input_range, skip_key, payload_keys, carry_keys)``."""
    input_range = _record_range(wb, "InputCells", "input")
    output_range = _range_for(wb, "OutputCells")
    skip_key = _single_cell(wb, "Skip", "skip") if wb.has_name("Skip") else None

    # The skip cell may sit inside the output range; it never joins the payload.
    payload_keys = [k for k in output_range.keys() if k != skip_key]
    if not payload_keys:
        raise ConfigError("output range 'OutputCells' has no payload cells")

    carry_keys: list = []
    if wb.has_name("CarryForward"):
        carry_range = _record_range(wb, "CarryForward", "carry-forward", ("input", input_range))
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
    report: Subtotals | None = None,
) -> RunStats:
    """Stream the input file through the workbook into the output file.

    Each record evaluates only the formula cells the output and skip
    cells read (``plan_cells`` in the stats), over a copy of the
    workbook's values: the run writes nothing into ``wb``, so the
    carry-forward cells start from the definition's literals and two runs
    of one workbook agree. ``recalculate(wb)`` fills its formula cells.
    With ``progress_every``, a ``records processed: N`` line goes to
    stderr every N records read.

    With a ``report``, its jobs resolve against the header line and each
    written record is added to its tables as it is written, as if the
    output file were read back: ``report.tables`` gives them, or raises
    what stopped them.
    """
    started = time.perf_counter()
    input_range, skip_key, payload_keys, carry_keys = run_cells(wb)
    observed = dict.fromkeys(payload_keys, "output cell")
    if skip_key is not None:
        observed = {skip_key: "skip cell", **observed}
    cells, lines, emitter = inline_plan(wb, observed, input_range.keys(), carry_keys)
    stats = RunStats(plan_cells=[wb.cell_name(key) for key in cells])
    with (atomic_output(spec.output_path) as out,
          open_fields(spec.input_path, spec.has_headings) as (head, records)):
        header_width = len(spec.expected_headers) if spec.expected_headers else None
        if head is not None:
            raw, names = head
            if spec.expected_headers:
                validate_headers(names, spec.expected_headers)
            header_width = len(names)
            out.write(raw + "\n")
            if report is not None:
                report.resolve(names)
        source, report_names = _loop_source(wb, emitter, lines, spec, observed, carry_keys,
                                            header_width, progress_every, report)
        stream = emitter.define("stream", "record loop", source, **_LOOP_NAMES, **report_names)
        counts = stream(records, out.write)

    (stats.records_read, stats.records_written, stats.records_skipped,
     stats.records_errored) = counts
    stats.elapsed = time.perf_counter() - started
    if counts[0] != sum(counts[1:]):
        raise RuntimeError("record conservation violated: read {}, written {}, "
                           "skipped {}, errored {}".format(*counts))
    return stats


def _progress(read: int) -> None:
    print(f"records processed: {read}", file=sys.stderr)


# What the record loop calls besides the plan's names and ``values``.
_LOOP_NAMES = {"DataError": DataError, "RecordError": RecordError, "_fit_fields": _fit_fields,
               "_check_readback": _check_readback, "encode_record": encode_record, "warn": warn,
               "CsvError": CsvError, "malformed": malformed, "progress": _progress}


def _loop_source(wb, emitter, lines, spec, observed, carry_keys, header_width,
                 progress_every, report) -> tuple[str, dict]:
    """The source of ``stream(records, write)``, the run's record loop
    around the plan's ``lines``, which returns the four counts of
    ``RunStats``, and the names it reads for the ``report``.

    Per field list: the width check, the plan, the skip test, an error
    test for each observed value that can be an error, the line (each
    value rendered unless its kind is text) and its read-back test, the
    write, the report's accumulation (once its jobs are resolved) and
    the carry-forward update. One loop serves both policies and notes
    where each record ended, so a record the reader rejects is named with
    ``malformed`` in the same pass. Under ``skip-and-log`` that error is
    counted and logged and the reader goes on at the next physical line,
    as one ``try`` per record counts and logs a record's ``DataError``.
    The carry-forward cells the plan takes as locals (``emitter.carry``)
    are locals of the loop.
    """
    operand, fields, carry_locals = emitter.operand, emitter.fields, emitter.carry
    skip_key = next((key for key, role in observed.items() if role == "skip cell"), None)
    payload = [key for key in observed if key != skip_key]
    suspect = "'\"' in line or '\\n' in line or '\\r' in line"  # a line that may need quoting
    reporting = report is not None and report.jobs is not None

    kept = []  # the code for a record the skip cell keeps
    for key, role in observed.items():
        if emitter.can_fail(key):
            name, value = emitter.const(f"{role} {wb.cell_name(key)}"), operand(key)
            kept.append(f"if {value}.__class__ is CellError: "
                        f'raise RecordError(f"record {{read}}: {{{name}}} is {{{value}.code}}")')
    if len(payload) == 1:  # the line as the sheet built it, if it reads back
        kept.append(f"line = {emitter.text_of(payload[0])}")
        if header_width is not None:  # without quotes or line breaks, its commas tell its width
            suspect += f" or line.count(',') not in (0, {header_width - 1})"
        name = emitter.const(f"output cell {wb.cell_name(payload[0])}")
        check = f'_check_readback(line, {header_width}, f"record {{read}}: {{{name}}}")'
        if reporting:  # the report reads the fields the check parsed
            kept += [f"if {suspect}:", f"    cols = {check}", "else:", "    cols = line.split(',')"]
        else:
            kept += [f"if {suspect}:", f"    {check}"]
    else:
        texts = [f"r{i}" for i in range(len(payload))]
        kept += [f"{text} = {emitter.text_of(key)}" for text, key in zip(texts, payload)]
        joined = "".join(f"{text}, " for text in texts)
        kept += [f"line = ','.join(({joined}))",
                 f"if line.count(',') != {len(payload) - 1} or {suspect}:",
                 f"    line = encode_record(({joined}))"]
    kept += ['write(line + "\\n")', "written += 1"]
    names = {}
    if reporting:
        # The report's columns are the texts the line reads back as; a
        # number is added as it is, not parsed back from its text.
        numbers = {i: emitter.locals[key] for i, key in enumerate(payload)
                   if emitter.kinds.get(key) is NUMBER}
        if len(payload) > 1:
            columns = texts
        else:  # the fields of the line, padded to the columns the jobs read
            columns = [f"cols[{i}]" for i in range(report.reach)]
            kept += [f"if len(cols) < {report.reach}:",
                     f"    cols += [''] * ({report.reach} - len(cols))"]
        accumulate, names = report.code(columns, numbers, "written")
        kept += accumulate
    # A carry-forward cell takes the line, or its payload cell's text.
    carried = ["line"] if len(carry_keys) == 1 else texts if carry_keys else []
    for key, text in zip(carry_keys, carried):
        target = emitter.locals[key] if key in carry_locals else f"values[{key!r}]"
        kept.append(f"{target} = {text}")

    # The reader gives an empty line as [], which is one empty field.
    body = [f"if len(row) != {len(fields)}:",
            f"    row = _fit_fields(row or [''], {len(fields)}, {spec.field_count_policy!r}, read)",
            *lines]
    if skip_key is None:
        body += kept
    else:
        flag = operand(skip_key)
        body += [f'if {flag} is True or {flag}.__class__ is str and {flag}.upper() == "SKIP":',
                 "    skipped += 1",
                 "else:", *(f"    {text}" for text in kept)]
    tick = [f"if not read % {progress_every}: progress(read)"] if progress_every else []
    # ``ended``: the physical line where the last record read ended.
    error = f"malformed({emitter.const(spec.input_path)}, exc, records.line_num, ended + 1)"
    if spec.on_record_error == "fail-fast":  # a record's error ends the run
        rejected = [f"raise {error} from None"]
    else:  # counted and logged; the reader goes on at the next physical line
        body = ["try:", *(f"    {text}" for text in body), "except DataError as exc:",
                "    errored += 1", '    warn(f"{exc} (record skipped)")']
        rejected = ["read += 1", "errored += 1", f'warn(f"{{{error}}} (record skipped)")',
                    "ended = records.line_num", *tick]
    loop = ["ended = records.line_num",
            "while True:",
            "    try:",
            "        for row in records:",
            *(f"            {text}" for text in
              ["read += 1", *body, *tick, "ended = records.line_num"]),
            "        break",
            "    except CsvError as exc:",
            *(f"        {text}" for text in rejected)]
    source = ["get = values.get",
              "read = written = skipped = errored = 0",
              *(f"{emitter.locals[key]} = get({key!r}, BLANK)" for key in carry_locals),
              *loop,
              "return read, written, skipped, errored"]
    return "def stream(records, write):\n" + "".join(f"    {text}\n" for text in source), names


class CompareReport:
    __slots__ = ("left_only", "right_only", "matches")

    def __init__(self):
        self.left_only: list[str] = []
        self.right_only: list[str] = []
        self.matches = 0

    def lines(self):
        for raw in self.left_only:
            yield "< " + raw
        for raw in self.right_only:
            yield "> " + raw


def compare_cells(wb: Workbook):
    """The checks ``compare_files`` makes before it streams, which the job
    loader makes too. Reads no data and compiles nothing; returns
    ``(left_range, right_range, status_key)``."""
    left_range = _record_range(wb, "LeftCells", "left")
    right_range = _record_range(wb, "RightCells", "right", ("left", left_range))
    return left_range, right_range, _single_cell(wb, "Status", "status")


def compare_files(spec: CompareSpec, wb: Workbook) -> CompareReport:
    """Merge-compare two key-sorted files through a status-cell workbook.

    While both files have records, the current pair is loaded into the
    left/right ranges and the status cell decides: LEFT means the left
    record is unmatched (advance left), RIGHT the converse, MATCH
    advances both. The tail of the longer file is one-sided by
    construction. Only the status cell and the formula cells it reads
    are evaluated, over a copy of the workbook's values: the comparison
    writes nothing into ``wb``.
    """
    left_range, right_range, status_key = compare_cells(wb)
    _, lines, emitter = inline_plan(wb, [status_key], [*left_range.keys(), *right_range.keys()])
    source = _merge_source(wb, emitter, lines, left_range.size(), status_key)
    merge = emitter.define("merge", "compare loop", source, _fit_fields=_fit_fields,
                           StatusCellError=StatusCellError)

    lefts, rights = read_records(spec.left_path), read_records(spec.right_path)
    if spec.has_headings:
        next(lefts, None)
        next(rights, None)
    report = CompareReport()
    report.matches = merge(lefts, rights, report.left_only, report.right_only)

    if spec.output_path:
        with atomic_output(spec.output_path) as out:
            for line in report.lines():
                out.write(line + "\n")
    return report


def _merge_source(wb, emitter, lines, left_width, status_key) -> str:
    """The source of ``merge(lefts, rights, left_only, right_only)``, the
    comparison's loop over record pairs, numbered from 1, around the
    status plan's ``lines``; it returns the number of matches. Each side
    is fitted to its range (pad-truncate), the status is tested for an
    error if it can be one, and its text, stripped and upper-cased, is the
    verdict."""
    status, name = emitter.operand(status_key), emitter.const(wb.cell_name(status_key))
    sides = (("left", left_width), ("right", len(emitter.fields) - left_width))
    body = ["index += 1",
            "row = " + " + ".join(f"({side}[1] if len({side}[1]) == {width} else "
                                  f"_fit_fields({side}[1], {width}, 'pad-truncate', index))"
                                  for side, width in sides),
            *lines]
    if emitter.can_fail(status_key):
        body.append(f"if {status}.__class__ is CellError: raise StatusCellError("
                    f'f"record pair {{index}}: status cell {{{name}}} is {{{status}.code}}")')
    body += [f"verdict = {emitter.text_of(status_key)}.strip().upper()",
             'if verdict == "LEFT":',
             "    left_only.append(left[0])",
             "    left = next(lefts, None)",
             'elif verdict == "RIGHT":',
             "    right_only.append(right[0])",
             "    right = next(rights, None)",
             'elif verdict == "MATCH":',
             "    matches += 1",
             "    left = next(lefts, None)",
             "    right = next(rights, None)",
             "else:",
             '    raise StatusCellError(f"record pair {index}: status cell returned {verdict!r}, "',
             '                          "expected LEFT, RIGHT, or MATCH")']
    source = ["get = values.get",
              "matches = index = 0",
              "left, right = next(lefts, None), next(rights, None)",
              "while left is not None and right is not None:",
              *(f"    {text}" for text in body)]
    for side, _ in sides:  # each side's tail is one-sided
        source += [f"if {side} is not None:", f"    {side}_only.append({side}[0])",
                   f"    {side}_only.extend(raw for raw, _ in {side}s)"]
    source.append("return matches")
    return ("def merge(lefts, rights, left_only, right_only):\n"
            + "".join(f"    {text}\n" for text in source))
