"""Sheets of sparse cells, named ranges, and A1 addressing.

Storage is proportional to populated cells. A workbook instance has a
single owner at a time; independent instances can be used in parallel.
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .formula import FormulaAst, column_index, column_letters
from .values import BLANK, Blank, CellError, CellValue, NUM_ERROR

__all__ = [
    "CellAddress",
    "CellRange",
    "NamedRange",
    "Workbook",
    "BadAddress",
    "BadName",
    "DuplicateName",
    "UnknownName",
    "NameOutOfBounds",
    "ShapeMismatch",
    "FormulaOverwrite",
    "parse_a1",
    "format_a1",
    "MAX_ROWS",
    "MAX_COLS",
]

MAX_ROWS = 1_048_576
MAX_COLS = 16_384


class BadAddress(ConfigError):
    """Malformed or out-of-bounds cell address."""


class BadName(ConfigError):
    """A defined name violating the name grammar."""


class DuplicateName(ConfigError):
    """A defined name registered twice."""


class UnknownName(ConfigError):
    """Lookup of a name that was never defined."""


class NameOutOfBounds(ConfigError):
    """A named range pointing outside the workbook grid."""


class ShapeMismatch(ConfigError):
    """Matrix shape differs from the target range shape."""


class FormulaOverwrite(ConfigError):
    """A literal write would silently destroy a formula cell."""


_A1 = re.compile(r"\$?([A-Za-z]{1,7})\$?([0-9]{1,9})")
_NAME_GRAMMAR = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_CELLREF_SHAPE = re.compile(r"[A-Za-z]{1,3}[1-9][0-9]{0,6}")


class CellAddress:
    __slots__ = ("sheet", "row", "col")

    def __init__(self, sheet: str, row: int, col: int):
        self.sheet = sheet
        self.row = row
        self.col = col

    def __eq__(self, other):
        if other.__class__ is not CellAddress:
            return NotImplemented
        return (self.sheet, self.row, self.col) == (other.sheet, other.row, other.col)

    def key(self) -> tuple[str, int, int]:
        return (self.sheet.upper(), self.row, self.col)

    def a1(self) -> str:
        return format_a1(self.row, self.col)

    def __str__(self):
        return f"{self.sheet}!{self.a1()}"


class CellRange:
    __slots__ = ("start", "end")

    def __init__(self, start: CellAddress, end: CellAddress):
        if start.sheet.upper() != end.sheet.upper():
            raise BadAddress(f"range spans sheets: {start} .. {end}")
        if start.row > end.row or start.col > end.col:
            raise BadAddress(f"inverted range corners: {start} .. {end}")
        self.start = start
        self.end = end

    def __eq__(self, other):
        if other.__class__ is not CellRange:
            return NotImplemented
        return self.start == other.start and self.end == other.end

    @property
    def rows(self) -> int:
        return self.end.row - self.start.row + 1

    @property
    def cols(self) -> int:
        return self.end.col - self.start.col + 1

    def size(self) -> int:
        return self.rows * self.cols

    def addresses(self):
        """Member addresses in row-major order."""
        sheet = self.start.sheet
        for r in range(self.start.row, self.end.row + 1):
            for c in range(self.start.col, self.end.col + 1):
                yield CellAddress(sheet, r, c)

    def keys(self):
        sheet = self.start.sheet.upper()
        for r in range(self.start.row, self.end.row + 1):
            for c in range(self.start.col, self.end.col + 1):
                yield (sheet, r, c)

    def __str__(self):
        return f"{self.start.sheet}!{self.start.a1()}:{self.end.a1()}"


class NamedRange:
    __slots__ = ("name", "range")

    def __init__(self, name: str, range: CellRange):
        self.name = name
        self.range = range


def normalized_range(a: CellAddress, b: CellAddress) -> CellRange:
    """Range over two corner cells, corners sorted."""
    if a.sheet.upper() != b.sheet.upper():
        raise BadAddress(f"range spans sheets: {a} .. {b}")
    start = CellAddress(a.sheet, min(a.row, b.row), min(a.col, b.col))
    end = CellAddress(a.sheet, max(a.row, b.row), max(a.col, b.col))
    return CellRange(start, end)


def parse_a1(text: str, sheet: str = "") -> CellAddress:
    """Parse A1 notation (``$`` markers accepted and ignored)."""
    m = _A1.fullmatch(text.strip())
    if not m:
        raise BadAddress(f"not a cell address: {text!r}")
    row = int(m.group(2))
    if row < 1:
        raise BadAddress(f"row must be at least 1: {text!r}")
    return CellAddress(sheet, row, column_index(m.group(1)))


def format_a1(row: int, col: int) -> str:
    return f"{column_letters(col)}{row}"


class Workbook:
    """Named sheets of sparse cells plus a registry of named ranges.

    ``structure_version`` increments whenever formulas or names change,
    so the calc engine knows when its compiled graph is stale. Literal
    value writes do not touch it.
    """

    def __init__(self, max_rows: int = MAX_ROWS, max_cols: int = MAX_COLS):
        self.max_rows = max_rows
        self.max_cols = max_cols
        self._sheet_names: dict[str, str] = {}  # upper -> display
        self._formulas: dict[tuple, FormulaAst] = {}
        self._literals: dict[tuple, CellValue] = {}
        self.values: dict[tuple, CellValue] = {}  # runtime cache, engine-managed
        self._names: dict[str, NamedRange] = {}  # upper -> NamedRange
        self.structure_version = 0
        self.graph = None  # set by the calc engine

    # -- sheets ------------------------------------------------------------

    def add_sheet(self, name: str) -> None:
        self._sheet_names.setdefault(name.upper(), name)

    def sheet_names(self) -> list[str]:
        return list(self._sheet_names.values())

    def sheet_display_name(self, name: str) -> str:
        return self._sheet_names.get(name.upper(), name)

    def default_sheet(self) -> str:
        if not self._sheet_names:
            return "Main"
        return next(iter(self._sheet_names.values()))

    # -- cells ---------------------------------------------------------------

    def _check_bounds(self, addr: CellAddress) -> None:
        if not (1 <= addr.row <= self.max_rows and 1 <= addr.col <= self.max_cols):
            raise BadAddress(f"address out of bounds: {addr}")

    def set_cell(self, addr: CellAddress, content) -> None:
        """Assign a cell: a CellValue stores a literal, an AST a formula."""
        self._check_bounds(addr)
        self.add_sheet(addr.sheet)
        key = addr.key()
        if isinstance(content, (Blank, float, str, bool, CellError)):
            value = content
            if value.__class__ is float and value != value:  # NaN guard
                value = NUM_ERROR
            if key in self._formulas:
                del self._formulas[key]
                self.structure_version += 1
            self._literals[key] = value
            self.values[key] = value
        else:
            if key in self._literals:
                del self._literals[key]
                self.values.pop(key, None)
            self._formulas[key] = content
            self.structure_version += 1

    def get_value(self, addr: CellAddress) -> CellValue:
        self._check_bounds(addr)
        return self.values.get(addr.key(), BLANK)

    def formula_at(self, addr: CellAddress) -> FormulaAst | None:
        return self._formulas.get(addr.key())

    def literal_at(self, addr: CellAddress) -> CellValue | None:
        return self._literals.get(addr.key())

    def populated(self):
        """(key, is_formula) for every populated cell, unordered."""
        for key in self._literals:
            yield key, False
        for key in self._formulas:
            yield key, True

    def cell_count(self) -> int:
        return len(self._literals) + len(self._formulas)

    # -- named ranges --------------------------------------------------------

    def define_name(self, name: str, cells: CellRange) -> None:
        if not _NAME_GRAMMAR.fullmatch(name) or name.upper() in ("TRUE", "FALSE"):
            raise BadName(f"invalid name: {name!r}")
        if _CELLREF_SHAPE.fullmatch(name):
            raise BadName(f"name would shadow a cell reference: {name!r}")
        key = name.upper()
        if key in self._names:
            raise DuplicateName(f"name already defined: {name!r}")
        for corner in (cells.start, cells.end):
            if not (1 <= corner.row <= self.max_rows and 1 <= corner.col <= self.max_cols):
                raise NameOutOfBounds(f"named range out of bounds: {name} = {cells}")
        self.add_sheet(cells.start.sheet)
        self._names[key] = NamedRange(name, cells)
        self.structure_version += 1

    def resolve_name(self, name: str) -> CellRange:
        try:
            return self._names[name.upper()].range
        except KeyError:
            raise UnknownName(f"unknown name: {name!r}") from None

    def defined_names(self) -> list[NamedRange]:
        return list(self._names.values())

    def has_name(self, name: str) -> bool:
        return name.upper() in self._names

    # -- bulk transfer ---------------------------------------------------------

    def read_range(self, cells: CellRange) -> list[list[CellValue]]:
        get = self.values.get
        sheet = cells.start.sheet.upper()
        return [
            [get((sheet, r, c), BLANK) for c in range(cells.start.col, cells.end.col + 1)]
            for r in range(cells.start.row, cells.end.row + 1)
        ]

    def write_range(self, cells: CellRange, matrix: list[list[CellValue]]) -> None:
        """Store a matrix of literals over the range (one bulk transfer)."""
        self._check_bounds(cells.start)
        self._check_bounds(cells.end)
        if len(matrix) != cells.rows or any(len(row) != cells.cols for row in matrix):
            raise ShapeMismatch(
                f"matrix {len(matrix)}x{len(matrix[0]) if matrix else 0} "
                f"does not fit range {cells} ({cells.rows}x{cells.cols})"
            )
        self.add_sheet(cells.start.sheet)
        sheet = cells.start.sheet.upper()
        rows = range(cells.start.row, cells.end.row + 1)
        cols = range(cells.start.col, cells.end.col + 1)
        # Check the whole range first, so a rejected write changes nothing.
        formulas = self._formulas
        for r in rows:
            for c in cols:
                if (sheet, r, c) in formulas:
                    raise FormulaOverwrite(
                        f"literal write over formula cell {format_a1(r, c)}"
                    )
        literals = self._literals
        values = self.values
        for r, row in zip(rows, matrix):
            for c, value in zip(cols, row):
                key = (sheet, r, c)
                literals[key] = value
                values[key] = value
