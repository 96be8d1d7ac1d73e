"""Cell values and their arithmetic, text, and comparison semantics.

A cell value is one of five things, represented with plain Python types
so the hot recalculation path stays cheap:

* blank        -- the ``BLANK`` singleton (a never-set cell)
* number       -- ``float`` (IEEE-754 double, always finite)
* text         -- ``str``
* boolean      -- ``bool``
* error        -- a ``CellError`` such as ``#DIV/0!``

``bool`` is checked before ``float`` everywhere since Python booleans
are also integers.
"""

from __future__ import annotations

import math
import re
from typing import Union


class Blank:
    """Singleton type for the value of a never-set cell."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BLANK"


BLANK = Blank()


class CellError:
    """A spreadsheet error code flowing through a calculation."""

    __slots__ = ("code",)

    def __init__(self, code: str):
        self.code = code

    def __repr__(self):
        return f"CellError({self.code})"

    def __eq__(self, other):
        return isinstance(other, CellError) and other.code == self.code

    def __hash__(self):
        return hash(self.code)


DIV0 = CellError("#DIV/0!")
VALUE_ERROR = CellError("#VALUE!")
NAME_ERROR = CellError("#NAME?")
REF_ERROR = CellError("#REF!")
NA_ERROR = CellError("#N/A")
NUM_ERROR = CellError("#NUM!")

CellValue = Union[Blank, float, str, bool, CellError]


class RangeValue:
    """A rectangular block of cell values, produced by a range reference.

    Only functions whose signature accepts a range may consume one; a
    range in any scalar position is a ``#VALUE!`` error.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: list[list[CellValue]]):
        self.rows = rows

    def __iter__(self):
        for row in self.rows:
            yield from row

    def __repr__(self):
        return f"RangeValue({self.rows!r})"


# A number as a formula writes it; data may add a sign.
UNSIGNED_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_NUMBER_RE = re.compile(r"[+-]?" + UNSIGNED_NUMBER)


def parse_number(text: str) -> float | None:
    """Strict numeric parse: decimal point, optional exponent, no locale.

    Returns None when the text is not a (finite) number.
    """
    s = text.strip()
    # isdecimal() is \d's Unicode Nd set: plain digit runs skip the regex.
    if not (s.isdecimal() or _NUMBER_RE.fullmatch(s)):
        return None
    value = float(s)
    if not math.isfinite(value):
        return None
    return value


def render_number(value: float) -> str:
    """Canonical text for a number.

    Integer-valued doubles render without a decimal point; anything else
    uses the shortest decimal string that round-trips the double.
    """
    if value.is_integer():
        return repr(int(value))
    return repr(value)


def render_value(value: CellValue) -> str:
    """The text a value takes in concatenation and in output records."""
    cls = value.__class__
    if cls is str:
        return value
    if cls is bool:
        return "TRUE" if value else "FALSE"
    if cls is float:
        return render_number(value)
    if cls is Blank:
        return ""
    if cls is CellError:
        return value.code
    raise TypeError(f"not a cell value: {value!r}")


def to_number(value: CellValue) -> float | CellError:
    """Coerce a scalar to a number: blank -> 0, booleans -> 1/0, numeric
    text parsed; anything else is #VALUE!."""
    cls = value.__class__
    if cls is float:
        return value
    if cls is bool:
        return 1.0 if value else 0.0
    if cls is str:
        parsed = parse_number(value)
        return VALUE_ERROR if parsed is None else parsed
    if cls is Blank:
        return 0.0
    return VALUE_ERROR


def to_boolean(value: CellValue) -> bool | CellError:
    """Coerce a scalar to a boolean: blank -> FALSE, numbers -> nonzero,
    the texts TRUE/FALSE (any case) -> their value."""
    cls = value.__class__
    if cls is bool:
        return value
    if cls is float:
        return value != 0.0
    if cls is Blank:
        return False
    if cls is str:
        upper = value.strip().upper()
        if upper == "TRUE":
            return True
        if upper == "FALSE":
            return False
    return VALUE_ERROR


def _finite(value: float) -> CellValue:
    # Overflow and indeterminate forms surface as #NUM!, never as inf/NaN.
    return value if math.isfinite(value) else NUM_ERROR


def _numeric(op):
    """A binary operator on numbers: each operand goes through
    ``to_number``, the left operand's error first, then ``op(x, y)``."""

    def run(a: CellValue, b: CellValue) -> CellValue:
        x = to_number(a)
        if x.__class__ is CellError:
            return x
        y = to_number(b)
        if y.__class__ is CellError:
            return y
        return op(x, y)

    return run


def _power(x: float, y: float) -> CellValue:
    if x == 0.0 and y <= 0.0:
        return NUM_ERROR if y == 0.0 else DIV0
    if x < 0.0 and not y.is_integer():
        return NUM_ERROR
    try:
        return _finite(float(x**y))
    except OverflowError:
        return NUM_ERROR


def concat(a: CellValue, b: CellValue) -> CellValue:
    # What `&` gives for operands that are not errors. A plan renders
    # each side by its kind instead of calling this.
    return render_value(a) + render_value(b)


def negate(a: CellValue) -> CellValue:
    x = to_number(a)
    if x.__class__ is CellError:
        return x
    return -x


# Type rank for ordering comparisons across kinds: number < text < boolean.
_TYPE_RANK = {float: 0, str: 1, bool: 2}
# The value a blank takes against an operand of each kind.
_BLANK_AS = {float: 0.0, str: "", bool: False}


def compare(a: CellValue, b: CellValue) -> int:
    """Three-way comparison following spreadsheet ordering rules.

    Same-type operands compare directly (text case-insensitively, over
    uppercased code points); mixed types order number < text < boolean.
    A blank operand takes the other side's zero value (0, "", FALSE).
    Neither operand is an error or a range: a plan fails a range operand
    when it compiles and checks every operand for an error first.
    """
    ca, cb = a.__class__, b.__class__
    if ca is Blank:
        if cb is Blank:
            return 0
        a, ca = _BLANK_AS[cb], cb
    elif cb is Blank:
        b, cb = _BLANK_AS[ca], ca
    if ca is not cb:
        return _TYPE_RANK[ca] - _TYPE_RANK[cb]
    if ca is str:
        a, b = a.upper(), b.upper()
    return (a > b) - (a < b)


BINARY_OPS = {
    "+": _numeric(lambda x, y: _finite(x + y)),
    "-": _numeric(lambda x, y: _finite(x - y)),
    "*": _numeric(lambda x, y: _finite(x * y)),
    "/": _numeric(lambda x, y: DIV0 if y == 0.0 else _finite(x / y)),
    "^": _numeric(_power),
    "&": concat,
    "=": lambda a, b: compare(a, b) == 0,
    "<>": lambda a, b: compare(a, b) != 0,
    "<": lambda a, b: compare(a, b) < 0,
    "<=": lambda a, b: compare(a, b) <= 0,
    ">": lambda a, b: compare(a, b) > 0,
    ">=": lambda a, b: compare(a, b) >= 0,
}

UNARY_OPS = {"-": negate, "+": to_number}
