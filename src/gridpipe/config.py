"""Workbook definitions and job configuration.

Two plain-text formats, both read exactly once per run:

Definition file (the business rules, diffable and auditable)::

    # comment
    format = 1
    [sheet Main]
    cell A1 = Id            # bare text
    cell B1 = 42            # bare number
    cell C1 = "  padded "   # quoted text keeps spaces
    cell D1 = =A1&B1        # leading = means formula
    [names]
    InputCells = Main!A2:D2

Job file (everything an operator would have kept in control tables)::

    format = 1
    definition = rules.sheet
    [pipeline]
    input = in.csv
    output = out.csv
    input-range = InputCells
    output-range = OutputCells

Relative paths resolve against the job file's directory, so a job runs
the same from anywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .formula import LexError, ParseError, parse_formula, render_formula
from .pipeline import CompareSpec, PipelineSpec
from .sortio import SortKey, SortSpec
from .values import Blank, parse_number, render_number
from .workbook import CellAddress, Workbook, normalized_range, parse_a1

__all__ = [
    "DefinitionError",
    "DuplicateCell",
    "UnknownSection",
    "UnknownKey",
    "UnknownRangeName",
    "LimitExceeded",
    "Limits",
    "JobSubtotals",
    "JobConfig",
    "load_definition",
    "load_job",
    "render_definition",
]


class DefinitionError(ConfigError):
    """A definition or job file line that cannot be read, with location."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class DuplicateCell(ConfigError):
    """The same cell assigned twice in a definition file."""


class UnknownSection(ConfigError):
    """A job file section outside the documented schema."""


class UnknownKey(ConfigError):
    """A job file key outside its section's documented schema."""


class UnknownRangeName(ConfigError):
    """A job file referencing a range name the definition lacks."""


class LimitExceeded(ConfigError):
    """A job-file list (headers, sort keys, subtotal jobs) over its cap."""


def _read_text(path) -> str:
    # Single seam for all config reads; also lets tests assert that
    # configuration is read exactly once per run. An unreadable config
    # file is a configuration error, unlike an unreadable data file.
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def _logical_lines(text: str):
    """(line_no, content) with blank and comment lines dropped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _decode_quoted(text: str, path, line_no: int) -> str:
    if len(text) < 2 or not text.endswith('"'):
        raise DefinitionError(path, line_no, f"unterminated quoted text: {text}")
    body = text[1:-1]
    # doubled quotes escape one quote; a lone interior quote is malformed
    if body.replace('""', "").count('"'):
        raise DefinitionError(path, line_no, f"stray quote in quoted text: {text}")
    return body.replace('""', '"')


def load_definition(path) -> Workbook:
    """Read a definition file into a workbook with its graph built."""
    from .engine import build_graph

    text = _read_text(path)
    wb = Workbook()
    sheet: str | None = None
    in_names = False
    assigned: set[tuple] = set()

    for line_no, line in _logical_lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section.lower() == "names":
                in_names = True
                sheet = None
            elif section.lower().startswith("sheet "):
                sheet = section[6:].strip()
                if not sheet:
                    raise DefinitionError(path, line_no, "sheet section needs a name")
                wb.add_sheet(sheet)
                in_names = False
            else:
                raise DefinitionError(
                    path, line_no, f"unknown section [{section}]"
                )
            continue

        if "=" not in line:
            raise DefinitionError(path, line_no, f"expected 'key = value': {line}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()

        if in_names:
            try:
                rng = _parse_range_text(value)
                wb.define_name(key, rng)
            except ConfigError as exc:
                if isinstance(exc, DefinitionError):
                    raise
                raise type(exc)(f"{path}:{line_no}: {exc}") from None
            continue

        if key.lower() == "format" and sheet is None:
            if value != "1":
                raise DefinitionError(path, line_no, f"unsupported format: {value}")
            continue

        if not key.lower().startswith("cell "):
            raise DefinitionError(
                path, line_no, f"expected 'cell <address> = <content>': {line}"
            )
        if sheet is None:
            raise DefinitionError(path, line_no, "cell assignment outside [sheet]")
        try:
            addr = parse_a1(key[5:], sheet)
        except ConfigError as exc:
            raise DefinitionError(path, line_no, str(exc)) from None
        if addr.key() in assigned:
            raise DuplicateCell(f"{path}:{line_no}: cell {addr} assigned twice")
        assigned.add(addr.key())

        try:
            wb.set_cell(addr, _decode_cell_value(value, path, line_no))
        except (LexError, ParseError) as exc:
            raise DefinitionError(path, line_no, str(exc)) from None
    build_graph(wb)
    return wb


def _decode_cell_value(value: str, path, line_no: int):
    if value.startswith("="):
        return parse_formula(value)
    if value.startswith('"'):
        return _decode_quoted(value, path, line_no)
    number = parse_number(value)
    if number is not None:
        return number
    return value


def _parse_range_text(text: str):
    if "!" not in text:
        raise ConfigError(
            f"named range must be '<Sheet>!<A1>' or '<Sheet>!<A1>:<A1>': {text!r}"
        )
    sheet, _, cells = text.partition("!")
    sheet = sheet.strip()
    cells = cells.strip()
    if ":" in cells:
        a, _, b = cells.partition(":")
        return normalized_range(parse_a1(a, sheet), parse_a1(b, sheet))
    corner = parse_a1(cells, sheet)
    return normalized_range(corner, corner)


def render_definition(wb: Workbook) -> str:
    """Canonical definition text; loading it reproduces the workbook."""
    lines = ["format = 1"]
    by_sheet: dict[str, list[tuple]] = {name: [] for name in wb.sheet_names()}
    for key, is_formula in wb.populated():
        display = wb.sheet_display_name(key[0])
        by_sheet.setdefault(display, []).append((key[1], key[2], is_formula))
    for sheet_name in by_sheet:
        lines.append("")
        lines.append(f"[sheet {sheet_name}]")
        for row, col, is_formula in sorted(by_sheet[sheet_name]):
            addr = CellAddress(sheet_name, row, col)
            if is_formula:
                content = render_formula(wb.formula_at(addr))
            else:
                literal = wb.literal_at(addr)
                cls = literal.__class__
                if cls is Blank:
                    continue  # observationally identical to an absent cell
                if cls is float:
                    content = render_number(literal)
                elif cls is str:
                    content = '"%s"' % literal.replace('"', '""')
                else:
                    raise ConfigError(
                        f"cell {addr} holds a {cls.__name__} literal, which the "
                        "definition format cannot express"
                    )
            lines.append(f"cell {addr.a1()} = {content}")
    names = sorted(wb.defined_names(), key=lambda n: n.name.upper())
    if names:
        lines.append("")
        lines.append("[names]")
        for named in names:
            rng = named.range
            display = wb.sheet_display_name(rng.start.sheet)
            lines.append(
                f"{named.name} = {display}!{rng.start.a1()}:{rng.end.a1()}"
            )
    return "\n".join(lines) + "\n"


# --- Job files ---------------------------------------------------------------


@dataclass
class Limits:
    max_rows: int = 0  # 0 = unlimited
    max_control_entries: int = 10_000


@dataclass
class JobSubtotals:
    job_lines: list[str] = field(default_factory=list)
    output_path: str | None = None
    format: str = "csv"


@dataclass
class JobConfig:
    job_path: str
    definition_path: str | None
    workbook: Workbook | None
    pipeline: PipelineSpec | None
    sort: SortSpec | None
    subtotals: JobSubtotals | None
    compare: CompareSpec | None
    expected_headers: list[str] | None
    limits: Limits


_SECTIONS = {
    "pipeline": {
        "input", "output", "input-range", "output-range", "skip-cell",
        "skip-sentinel", "carry-forward", "header", "csv", "fields", "on-error",
    },
    "sort": {"input", "output", "headings", "key", "csv"},
    "subtotals": {"output", "format", "job"},
    "compare": {
        "left", "right", "output", "left-range", "right-range",
        "status-cell", "headings", "csv",
    },
    "expected-headers": {"headers"},
    "limits": {"max-rows", "max-control-entries"},
}
_REPEATABLE = {("sort", "key"), ("subtotals", "job")}
_TOP_KEYS = {"format", "definition"}


def _parse_job_text(text: str, path) -> dict:
    """Sections to key/value maps; repeatable keys collect into lists."""
    sections: dict[str, dict] = {"": {}}
    current = ""
    for line_no, line in _logical_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise UnknownSection(f"{path}:{line_no}: unknown section [{name}]")
            if name in sections:
                raise DefinitionError(path, line_no, f"section [{name}] repeated")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise DefinitionError(path, line_no, f"expected 'key = value': {line}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if current == "":
            if key not in _TOP_KEYS:
                raise UnknownKey(
                    f"{path}:{line_no}: key {key!r} outside any section"
                )
            if key in sections[""]:
                raise DefinitionError(path, line_no, f"key {key!r} repeated")
            sections[""][key] = value
            continue
        if key not in _SECTIONS[current]:
            raise UnknownKey(
                f"{path}:{line_no}: unknown key {key!r} in [{current}]"
            )
        if (current, key) in _REPEATABLE:
            sections[current].setdefault(key, []).append(value)
        elif key in sections[current]:
            raise DefinitionError(path, line_no, f"key {key!r} repeated in [{current}]")
        else:
            sections[current][key] = value
    return sections


def _need(section: dict, key: str, where: str, path) -> str:
    try:
        return section[key]
    except KeyError:
        raise ConfigError(f"{path}: [{where}] is missing required key {key!r}") from None


def _choice(value: str, allowed: tuple, what: str, path) -> str:
    if value not in allowed:
        raise ConfigError(
            f"{path}: {what} must be one of {', '.join(allowed)}; got {value!r}"
        )
    return value


def _yes_no(value: str, what: str, path) -> bool:
    cleaned = value.strip().lower()
    if cleaned not in ("y", "n"):
        raise ConfigError(f"{path}: {what} must be y or n, got {value!r}")
    return cleaned == "y"


def _parse_sort_key(value: str, path) -> SortKey:
    parts = value.split()
    if not parts:
        raise ConfigError(f"{path}: empty sort key")
    descending = False
    collation = "numeric-aware"
    while len(parts) > 1 and parts[-1].lower() in ("asc", "desc", "text", "numeric", "numeric-aware"):
        flag = parts.pop().lower()
        if flag in ("asc", "desc"):
            descending = flag == "desc"
        else:
            collation = "text" if flag == "text" else "numeric-aware"
    column_text = " ".join(parts)
    column: int | str = int(column_text) if column_text.isdigit() else column_text
    return SortKey(column, descending=descending, collation=collation)


def load_job(path) -> JobConfig:
    """Read and fully validate a job file (and its definition)."""
    path = os.path.abspath(path)
    base = os.path.dirname(path)

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))

    sections = _parse_job_text(_read_text(path), path)
    top = sections[""]
    if top.get("format", "1") != "1":
        raise ConfigError(f"{path}: unsupported format: {top['format']!r}")

    limits = Limits()
    if "limits" in sections:
        sec = sections["limits"]
        if "max-rows" in sec:
            limits.max_rows = _positive_int(sec["max-rows"], "max-rows", path, allow_zero=True)
        if "max-control-entries" in sec:
            limits.max_control_entries = _positive_int(
                sec["max-control-entries"], "max-control-entries", path
            )

    expected_headers = None
    if "expected-headers" in sections:
        raw = _need(sections["expected-headers"], "headers", "expected-headers", path)
        expected_headers = [part.strip() for part in raw.split(",") if part.strip()]
        if not expected_headers:
            raise ConfigError(f"{path}: [expected-headers] headers list is empty")
        if len(expected_headers) > limits.max_control_entries:
            raise LimitExceeded(
                f"{path}: {len(expected_headers)} expected headers exceed the "
                f"cap of {limits.max_control_entries}"
            )

    definition_path = None
    workbook = None
    if "definition" in top:
        definition_path = resolve(top["definition"])
        workbook = load_definition(definition_path)

    def require_name(name: str, what: str) -> str:
        if workbook is None or not workbook.has_name(name):
            raise UnknownRangeName(
                f"{path}: {what} {name!r} is not defined in the definition file"
            )
        return name

    pipeline = None
    if "pipeline" in sections:
        if workbook is None:
            raise ConfigError(f"{path}: [pipeline] requires a definition file")
        sec = sections["pipeline"]
        header = _choice(
            sec.get("header", "pass-through"),
            ("pass-through", "validate", "none"),
            "[pipeline] header",
            path,
        )
        if header == "validate" and expected_headers is None:
            raise ConfigError(
                f"{path}: header = validate requires an [expected-headers] section"
            )
        pipeline = PipelineSpec(
            input_path=resolve(_need(sec, "input", "pipeline", path)),
            output_path=resolve(_need(sec, "output", "pipeline", path)),
            input_range=require_name(
                sec.get("input-range", "InputCells"), "input range"
            ),
            output_range=require_name(
                sec.get("output-range", "OutputCells"), "output range"
            ),
            skip_cell=(
                require_name(sec["skip-cell"], "skip cell")
                if "skip-cell" in sec
                else None
            ),
            skip_sentinel=sec.get("skip-sentinel", "Skip"),
            carry_forward_range=(
                require_name(sec["carry-forward"], "carry-forward range")
                if "carry-forward" in sec
                else None
            ),
            header_policy=header,
            expected_headers=expected_headers,
            csv_mode=_choice(
                sec.get("csv", "rfc4180"),
                ("rfc4180", "naive-split"),
                "[pipeline] csv",
                path,
            ),
            field_count_policy=_choice(
                sec.get("fields", "pad-truncate"),
                ("strict", "pad-truncate"),
                "[pipeline] fields",
                path,
            ),
            on_record_error=_choice(
                sec.get("on-error", "fail-fast"),
                ("fail-fast", "skip-and-log"),
                "[pipeline] on-error",
                path,
            ),
            max_rows=limits.max_rows,
        )

    sort = None
    if "sort" in sections:
        sec = sections["sort"]
        keys = [_parse_sort_key(k, path) for k in sec.get("key", ["1"])]
        if len(keys) > limits.max_control_entries:
            raise LimitExceeded(
                f"{path}: {len(keys)} sort keys exceed the cap of "
                f"{limits.max_control_entries}"
            )
        sort = SortSpec(
            input_path=resolve(_need(sec, "input", "sort", path)),
            output_path=resolve(_need(sec, "output", "sort", path)),
            has_headings=_yes_no(sec.get("headings", "n"), "[sort] headings", path),
            keys=keys,
            csv_mode=_choice(
                sec.get("csv", "rfc4180"),
                ("rfc4180", "naive-split"),
                "[sort] csv",
                path,
            ),
        )

    subtotals = None
    if "subtotals" in sections:
        sec = sections["subtotals"]
        job_lines = sec.get("job", [])
        if not job_lines:
            raise ConfigError(f"{path}: [subtotals] has no job lines")
        if len(job_lines) > limits.max_control_entries:
            raise LimitExceeded(
                f"{path}: {len(job_lines)} subtotal jobs exceed the cap of "
                f"{limits.max_control_entries}"
            )
        for line in job_lines:
            if ":" not in line:
                raise ConfigError(
                    f"{path}: subtotal job needs '<measures> : <group columns>', "
                    f"got {line!r}"
                )
        subtotals = JobSubtotals(
            job_lines=job_lines,
            output_path=resolve(sec["output"]) if "output" in sec else None,
            format=_choice(
                sec.get("format", "csv"),
                ("csv", "aligned-text"),
                "[subtotals] format",
                path,
            ),
        )

    compare = None
    if "compare" in sections:
        if workbook is None:
            raise ConfigError(f"{path}: [compare] requires a definition file")
        sec = sections["compare"]
        compare = CompareSpec(
            left_path=resolve(_need(sec, "left", "compare", path)),
            right_path=resolve(_need(sec, "right", "compare", path)),
            output_path=resolve(sec["output"]) if "output" in sec else None,
            left_range=require_name(sec.get("left-range", "LeftCells"), "left range"),
            right_range=require_name(
                sec.get("right-range", "RightCells"), "right range"
            ),
            status_cell=require_name(sec.get("status-cell", "Status"), "status cell"),
            has_headings=_yes_no(
                sec.get("headings", "n"), "[compare] headings", path
            ),
            csv_mode=_choice(
                sec.get("csv", "rfc4180"),
                ("rfc4180", "naive-split"),
                "[compare] csv",
                path,
            ),
        )

    return JobConfig(
        job_path=path,
        definition_path=definition_path,
        workbook=workbook,
        pipeline=pipeline,
        sort=sort,
        subtotals=subtotals,
        compare=compare,
        expected_headers=expected_headers,
        limits=limits,
    )


def _positive_int(value: str, what: str, path, allow_zero: bool = False) -> int:
    try:
        number = int(value)
    except ValueError:
        raise ConfigError(f"{path}: {what} must be an integer, got {value!r}") from None
    if number < 0 or (number == 0 and not allow_zero):
        raise ConfigError(f"{path}: {what} must be positive, got {number}")
    return number
