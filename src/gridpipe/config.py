"""Workbook definitions and job configuration.

Two plain-text formats, both read exactly once per run by one line reader:

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
    input = in.csv
    [pipeline]
    output = out.csv

The stages form one chain: ``[sort]`` reads ``input``, ``[pipeline]``
the sort's output (or ``input`` without a sort). A cell's role is the
name the definition gives it (see ``pipeline``). Relative paths resolve
against the job file's directory, so a job runs the same from anywhere.
Every command loads its job first, and ``load_job`` also checks the
job's header line.
"""

from __future__ import annotations

import os

from .csvio import read_records
from .errors import ConfigError, SettingError, check_choices, warn
from .formula import decode_string, parse_formula, render_formula, token_kind
from .pipeline import CompareSpec, PipelineSpec, compare_cells, run_cells, validate_headers
from .report import (REPORT_FORMATS, BadControlTable, parse_job_line, split_job_line,
                     translation_table)
from .sortio import SortKey, SortSpec, _resolve_key_columns, parse_sort_key
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
    "check_output",
    "render_definition",
]


class DefinitionError(ConfigError):
    """A definition or job file line that cannot be read, with location."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class DuplicateCell(DefinitionError):
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


def _entries(text: str, path):
    """``(line_no, section, key, value)`` per line that is not blank or a
    comment; a ``[section]`` line has ``key`` None, and a line before the
    first section has section "". A top-level ``format`` must be 1."""
    section = ""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            yield line_no, section, None, None
            continue
        if "=" not in line:
            raise DefinitionError(path, line_no, f"expected 'key = value': {line}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not section and key.lower() == "format" and value != "1":
            raise DefinitionError(path, line_no, f"unsupported format: {value}")
        yield line_no, section, key, value


def load_definition(path) -> Workbook:
    """Read a definition file into a workbook with its graph built."""
    from .engine import build_graph

    text = _read_text(path)
    wb = Workbook()
    assigned: set[tuple] = set()

    for line_no, section, key, value in _entries(text, path):
        kind = section.lower()
        sheet = section[6:].strip() if kind.startswith("sheet ") else None
        try:  # what these calls raise has no location
            if key is None:
                if sheet is not None:
                    wb.add_sheet(sheet)  # not empty: ``section`` is stripped
                elif kind != "names":
                    raise ConfigError(f"unknown section [{section}]")
            elif kind == "names":
                wb.define_name(key, _parse_range_text(value))
            elif not key.lower().startswith("cell "):
                if section or key.lower() != "format":  # _entries checks the format
                    raise ConfigError(f"expected 'cell <address> = <content>': {key} = {value}")
            elif sheet is None:
                raise ConfigError("cell assignment outside [sheet]")
            else:
                addr = parse_a1(key[5:], sheet)
                if addr.key() in assigned:
                    raise DuplicateCell(path, line_no, f"cell {addr} assigned twice")
                assigned.add(addr.key())
                wb.set_cell(addr, _decode_cell_value(value))
        except DefinitionError:
            raise
        except ConfigError as exc:
            raise DefinitionError(path, line_no, str(exc)) from None
    build_graph(wb)
    return wb


def _decode_cell_value(value: str):
    if value.startswith("="):
        return parse_formula(value)
    if value.startswith('"'):
        if token_kind(value) != "string":
            raise ConfigError(f"malformed quoted text: {value}")
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
        for entry, line in enumerate(job_lines):
            try:
                split_job_line(line)
            except BadControlTable as exc:
                raise SettingError("job_lines", str(exc), entry) from None


class JobConfig:
    __slots__ = ("job_path", "definition_path", "workbook", "pipeline", "sort", "subtotals",
                 "compare", "files")

    def __init__(self, job_path: str, definition_path: str | None, workbook: Workbook | None,
                 pipeline: PipelineSpec | None, sort: SortSpec | None,
                 subtotals: JobSubtotals | None, compare: CompareSpec | None,
                 files: dict | None = None):
        self.job_path = job_path
        self.definition_path = definition_path
        self.workbook = workbook
        self.pipeline = pipeline
        self.sort = sort
        self.subtotals = subtotals
        self.compare = compare
        self.files = {} if files is None else files  # path -> (key, line, is an output)


# Converters from a key's text (one entry's text for a repeatable key) to
# its field's value; ``base`` is the job file's directory.


def _text(value: str, base: str) -> str:
    return value


def _path(value: str, base: str) -> str:
    return os.path.normpath(os.path.join(base, value))


def _yes_no(value: str, base: str) -> bool:
    cleaned = value.lower()
    if cleaned not in ("y", "n"):
        raise ConfigError(f"must be y or n, got {value!r}")
    return cleaned == "y"


def _capped(values: list) -> list:
    if len(values) > MAX_LIST_ENTRIES:
        raise LimitExceeded(f"{len(values)} entries exceed the cap of {MAX_LIST_ENTRIES}")
    return values


def _names(value: str, base: str) -> list[str]:
    names = _capped([part.strip() for part in value.split(",") if part.strip()])
    if not names:
        raise ConfigError("list is empty")
    return names


# Per section: the spec it builds and, per job key, the spec field the
# key sets and its converter. A key the job leaves out is not passed, so
# the spec's default applies; a spec parameter without a default makes its
# key required. Each spec checks its own values when it is built. The top
# level ("") builds no spec: ``load_job`` hands its data keys to the specs.
_SCHEMA = {
    "": (None, {
        "format": ("format", _text),
        "definition": ("definition_path", _path),
        "input": ("input_path", _path),
        "headings": ("has_headings", _yes_no),
        "expected-headers": ("expected_headers", _names),
    }),
    "pipeline": (PipelineSpec, {
        "output": ("output_path", _path),
        "fields": ("field_count_policy", _text),
        "on-error": ("on_record_error", _text),
    }),
    "sort": (SortSpec, {
        "output": ("output_path", _path),
        "key": ("keys", lambda value, base: parse_sort_key(value)),
    }),
    "subtotals": (JobSubtotals, {
        "output": ("output_path", _path),
        "format": ("format", _text),
        "job": ("job_lines", _text),
    }),
    "compare": (CompareSpec, {
        "left": ("left_path", _path),
        "right": ("right_path", _path),
        "output": ("output_path", _path),
    }),
}
# The checks a command makes before it streams, run again at load on the
# definition, which such a section requires.
_PREFLIGHT = {"pipeline": run_cells, "compare": compare_cells}
# Keys that may be given more than once; their field is the list of entries.
_REPEATABLE = {("sort", "key"), ("subtotals", "job")}


def _parse_job_text(text: str, path) -> dict:
    """Sections to key -> ``[(line_no, value), ...]``; only a repeatable
    key has more than one entry."""
    sections: dict[str, dict] = {"": {}}
    for line_no, section, key, value in _entries(text, path):
        section = section.lower()
        if key is None:
            if section not in _SCHEMA:
                raise UnknownSection(f"{path}:{line_no}: unknown section [{section}]")
            if section in sections:
                raise DefinitionError(path, line_no, f"section [{section}] repeated")
            sections[section] = {}
            continue
        key = key.lower()
        where = f" in [{section}]" if section else ""
        if key not in _SCHEMA[section][1]:
            raise UnknownKey(f"{path}:{line_no}: unknown key {key!r}{where}")
        entries = sections[section]
        if key in entries and (section, key) not in _REPEATABLE:
            raise DefinitionError(path, line_no, f"key {key!r} repeated{where}")
        entries.setdefault(key, []).append((line_no, value))
    return sections


def _build_section(path: str, section: str, raw: dict, workbook, files: dict, **extra):
    """The section's spec, or for the top level its settings. ``files``
    holds each path named so far: an output shares its file with no other."""
    spec_class, table = _SCHEMA[section]

    prefix = f"[{section}] " if section else ""

    def where(key: str, entry: int) -> str:
        return f"{path}:{raw[key][entry][0]}: {prefix}{key}"

    settings = dict(extra)
    for key, (name, convert) in table.items():
        if key in raw:
            values = []
            for line_no, value in raw[key]:
                try:
                    if len(values) == MAX_LIST_ENTRIES:
                        _capped(raw[key])  # names the first entry over the cap
                    values.append(convert(value, os.path.dirname(path)))
                except ConfigError as exc:
                    raise type(exc)(f"{where(key, len(values))}: {exc}") from None
            settings[name] = values if (section, key) in _REPEATABLE else values[0]
            if convert is _path:
                _claim(files, values[0], prefix + key, raw[key][0][0], key == "output",
                       where(key, 0))
    if spec_class is None:
        return settings
    key_of = {name: key for key, (name, _) in table.items()}
    init = spec_class.__init__  # its parameters without a default are required
    for name in init.__code__.co_varnames[1:init.__code__.co_argcount - len(init.__defaults__)]:
        if name not in settings:
            raise ConfigError(f"{path}: [{section}] is missing required key {key_of[name]!r}")
    try:
        spec = spec_class(**settings)
    except SettingError as exc:
        raise ConfigError(f"{where(key_of[exc.setting], exc.entry)}: {exc.problem}") from None
    if section in _PREFLIGHT:
        if workbook is None:
            raise ConfigError(f"{path}: [{section}] requires a definition file")
        try:
            _PREFLIGHT[section](workbook)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [{section}] {exc}") from None
    return spec


def _claim(files: dict, path: str, name: str, line: int, output: bool, where: str) -> None:
    """Note in ``files`` that ``name``, on ``line``, names ``path``;
    raise a ``ConfigError`` at ``where`` if an output shares its file."""
    other, other_line, other_output = files.setdefault(path, (name, line, output))
    if other != name and (output or other_output):
        named = f"{other} on line {other_line}" if other_line else other
        raise ConfigError(f"{where}: {path} is already named by {named}")


def check_output(job: JobConfig, path: str, name: str) -> None:
    """Raise a ``ConfigError`` if ``path``, which the option ``name``
    writes, names a file of the job, as an output in the job would."""
    path = os.path.abspath(path)
    _claim(dict(job.files), path, name, 0, True, f"{job.job_path}: {name}")


def load_job(path) -> JobConfig:
    """Read and fully validate a job file (and its definition), its
    header line included."""
    path = os.path.abspath(path)
    sections = _parse_job_text(_read_text(path), path)
    files: dict = {path: ("the job file", 0, False)}  # no output may replace the job
    top = _build_section(path, "", sections.pop(""), None, files)
    definition_path = top.get("definition_path")
    workbook = None if definition_path is None else load_definition(definition_path)
    input_path = top.get("input_path")
    has_headings = top.get("has_headings", True)
    expected = top.get("expected_headers")

    def build(section: str, **extra):
        if section not in sections:
            return None
        if "input_path" in extra and extra["input_path"] is None:
            raise ConfigError(f"{path}: [{section}] reads the top-level key 'input', "
                              "which the job does not give")
        return _build_section(path, section, sections[section], workbook, files, **extra)

    # One chain: the sort reads the input, the pipeline the sort's output.
    sort = build("sort", input_path=input_path, has_headings=has_headings)
    pipeline = build("pipeline", input_path=sort.output_path if sort else input_path,
                     has_headings=has_headings, expected_headers=expected)
    subtotals = build("subtotals")
    compare = build("compare", has_headings=has_headings)

    # The header line, checked before any command writes: the first line
    # of the input, if the job has headings and the file exists. It must
    # match the expected headers, if any; then the sort keys and subtotal
    # columns resolve against the expected headers, else that line.
    if subtotals is not None and not has_headings:
        raise ConfigError(f"{path}: [subtotals] reads the header line of the output, "
                          "which headings = n does not write")
    found = None
    if (expected or sort or subtotals) and input_path is not None and has_headings:
        try:
            found = next(read_records(input_path), (None, None))[1]
        except OSError:
            pass  # an absent input has no header line; the command that reads it fails
    if found and expected:
        for position, name in enumerate(found, start=1):
            if name != name.strip():
                warn(f"superfluous spaces in header {position}: {name!r}")
        validate_headers(found, expected)
    header = expected or found
    if header and sort is not None:
        _resolve_key_columns(sort, header)
    if header and subtotals is not None:
        translation = translation_table(header)
        for line in subtotals.job_lines:
            parse_job_line(line, translation)

    return JobConfig(
        job_path=path,
        definition_path=definition_path,
        workbook=workbook,
        pipeline=pipeline,
        sort=sort,
        subtotals=subtotals,
        compare=compare,
        files=files,
    )
