"""Workbook definitions and job configuration.

Two plain-text formats, both read exactly once per run:

Definition file (the business rules, diffable and auditable)::

    # a comment is a whole line: a "#" after a value is part of it
    format = 1
    [sheet Main]
    # bare text
    cell A1 = Id
    # bare number
    cell B1 = 42
    # quoted text keeps spaces
    cell C1 = "  padded "
    # leading = means formula
    cell D1 = =A1&B1
    [names]
    InputCells = Main!A2:D2

Job file (everything an operator would have kept in control tables)::

    format = 1
    definition = rules.sheet
    [pipeline]
    input = in.csv
    output = out.csv

A cell's role is the name the definition gives it (see ``pipeline``).
Relative paths resolve against the job file's directory, so a job runs
the same from anywhere.
"""

from __future__ import annotations

import os

from .errors import ConfigError, SettingError, check_choices
from .formula import LexError, ParseError, decode_string, parse_formula, render_formula, token_kind
from .pipeline import CompareSpec, PipelineSpec, compare_cells, run_cells
from .report import REPORT_FORMATS, BadControlTable, split_job_line
from .sortio import SortKey, SortSpec, parse_sort_key
from .values import Blank, parse_number, render_number
from .workbook import CellAddress, Workbook, normalized_range, parse_a1

__all__ = [
    "DefinitionError",
    "DuplicateCell",
    "UnknownSection",
    "UnknownKey",
    "LimitExceeded",
    "MAX_LIST_ENTRIES",
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
                sheet = section[6:].strip()  # not empty: ``section`` is stripped
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
            try:  # raises errors without a location, never a DefinitionError
                wb.define_name(key, _parse_range_text(value))
            except ConfigError as exc:
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
        if token_kind(value) != "string":
            raise DefinitionError(path, line_no, f"malformed quoted text: {value}")
        return decode_string(value)
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

MAX_LIST_ENTRIES = 10_000  # expected headers, sort keys or subtotal jobs in one job


class JobSubtotals:
    __slots__ = ("job_lines", "output_path", "format")

    def __init__(self, job_lines: list[str], output_path: str | None = None,
                 format: str = "csv"):
        self.job_lines = job_lines  # parsed by report.parse_job_line against the data's headers
        self.output_path = output_path
        self.format = format  # REPORT_FORMATS
        check_choices(self, format=REPORT_FORMATS)
        for line in job_lines:
            try:
                split_job_line(line)
            except BadControlTable as exc:
                raise SettingError("job_lines", str(exc)) from None


class JobConfig:
    __slots__ = ("job_path", "definition_path", "workbook", "pipeline", "sort", "subtotals",
                 "compare", "expected_headers")

    def __init__(self, job_path: str, definition_path: str | None, workbook: Workbook | None,
                 pipeline: PipelineSpec | None, sort: SortSpec | None,
                 subtotals: JobSubtotals | None, compare: CompareSpec | None,
                 expected_headers: list[str] | None):
        self.job_path = job_path
        self.definition_path = definition_path
        self.workbook = workbook
        self.pipeline = pipeline
        self.sort = sort
        self.subtotals = subtotals
        self.compare = compare
        self.expected_headers = expected_headers


# Converters from a key's text (a list of texts for a repeatable key) to
# its field's value; ``base`` is the job file's directory.


def _text(value: str, base: str) -> str:
    return value


def _path(value: str, base: str) -> str:
    return value if os.path.isabs(value) else os.path.normpath(os.path.join(base, value))


def _yes_no(value: str, base: str) -> bool:
    cleaned = value.lower()
    if cleaned not in ("y", "n"):
        raise ConfigError(f"must be y or n, got {value!r}")
    return cleaned == "y"


def _list(values: list, base: str) -> list:
    if len(values) > MAX_LIST_ENTRIES:
        raise LimitExceeded(f"{len(values)} entries exceed the cap of {MAX_LIST_ENTRIES}")
    return values


def _names(value: str, base: str) -> list[str]:
    names = _list([part.strip() for part in value.split(",") if part.strip()], base)
    if not names:
        raise ConfigError("list is empty")
    return names


def _sort_keys(values: list[str], base: str) -> list[SortKey]:
    return [parse_sort_key(value) for value in _list(values, base)]


# Per section: the spec it builds and, per job key, the spec field the
# key sets and its converter. A key the job leaves out is not passed, so
# the spec's default applies; a spec parameter without a default makes its
# key required. Each spec checks its own values when it is built.
_SCHEMA = {
    "expected-headers": (None, {"headers": ("expected_headers", _names)}),
    "pipeline": (PipelineSpec, {
        "input": ("input_path", _path),
        "output": ("output_path", _path),
        "headings": ("has_headings", _yes_no),
        "fields": ("field_count_policy", _text),
        "on-error": ("on_record_error", _text),
    }),
    "sort": (SortSpec, {
        "input": ("input_path", _path),
        "output": ("output_path", _path),
        "headings": ("has_headings", _yes_no),
        "key": ("keys", _sort_keys),
    }),
    "subtotals": (JobSubtotals, {
        "output": ("output_path", _path),
        "format": ("format", _text),
        "job": ("job_lines", _list),
    }),
    "compare": (CompareSpec, {
        "left": ("left_path", _path),
        "right": ("right_path", _path),
        "output": ("output_path", _path),
        "headings": ("has_headings", _yes_no),
    }),
}
# The checks a command makes before it streams, run again at load on the
# definition, which such a section requires.
_PREFLIGHT = {"pipeline": run_cells, "compare": compare_cells}
_REPEATABLE = {("sort", "key"), ("subtotals", "job")}
_TOP_KEYS = {"format", "definition"}


def _parse_job_text(text: str, path) -> dict:
    """Sections to key/value maps; repeatable keys collect into lists."""
    sections: dict[str, dict] = {"": {}}
    current = ""
    for line_no, line in _logical_lines(text):
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SCHEMA:
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
            if key == "format" and value != "1":
                raise DefinitionError(path, line_no, f"unsupported format: {value}")
            sections[""][key] = value
            continue
        if key not in _SCHEMA[current][1]:
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


def _build_section(path: str, section: str, raw: dict, workbook, **extra):
    """The section's spec, or for a section without one its settings."""
    spec_class, table = _SCHEMA[section]
    settings = dict(extra)
    for key, (name, convert) in table.items():
        if key in raw:
            try:
                settings[name] = convert(raw[key], os.path.dirname(path))
            except ConfigError as exc:
                raise type(exc)(f"{path}: [{section}] {key}: {exc}") from None
    key_of = {name: key for key, (name, _) in table.items()}
    if spec_class is None:
        required = list(key_of)
    else:  # the spec's parameters without a default
        init = spec_class.__init__
        required = init.__code__.co_varnames[1:init.__code__.co_argcount - len(init.__defaults__)]
    for name in required:
        if name not in settings:
            raise ConfigError(f"{path}: [{section}] is missing required key {key_of[name]!r}")
    if spec_class is None:
        return settings
    try:
        spec = spec_class(**settings)
    except SettingError as exc:
        raise ConfigError(f"{path}: [{section}] {key_of[exc.setting]}: {exc.problem}") from None
    if section in _PREFLIGHT:
        if workbook is None:
            raise ConfigError(f"{path}: [{section}] requires a definition file")
        try:
            _PREFLIGHT[section](workbook)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from None
    return spec


def load_job(path) -> JobConfig:
    """Read and fully validate a job file (and its definition)."""
    path = os.path.abspath(path)
    sections = _parse_job_text(_read_text(path), path)
    top = sections.pop("")
    definition_path = None
    workbook = None
    if "definition" in top:
        definition_path = _path(top["definition"], os.path.dirname(path))
        workbook = load_definition(definition_path)

    def build(section: str, **extra):
        if section not in sections:
            return None
        return _build_section(path, section, sections[section], workbook, **extra)

    expected_headers = (build("expected-headers") or {}).get("expected_headers")
    return JobConfig(
        job_path=path,
        definition_path=definition_path,
        workbook=workbook,
        pipeline=build("pipeline", expected_headers=expected_headers),
        sort=build("sort"),
        subtotals=build("subtotals"),
        compare=build("compare"),
        expected_headers=expected_headers,
    )
