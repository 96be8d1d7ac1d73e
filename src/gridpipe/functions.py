"""Builtin worksheet functions.

Each implementation receives already-evaluated arguments with errors
filtered out by the engine (an error argument propagates before the
function runs), and a range only where its signature accepts one, so a
scalar argument always renders as text. It returns a CellValue.
Functions never raise: every failure is an error value.

A few functions also have a *direct form*, code the engine writes in
place of the call when it compiles a plan. ``IF`` has none: the engine
compiles it as control flow and evaluates only the branch taken.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable

from .values import (
    Blank,
    CellError,
    NA_ERROR,
    NUM_ERROR,
    RangeValue,
    REF_ERROR,
    VALUE_ERROR,
    compare,
    parse_number,
    render_value,
    to_boolean,
    to_number,
)

__all__ = ["FunctionSignature", "REGISTRY", "lookup", "arabic", "roman"]

SCALAR = "scalar"
RANGE = "range"  # scalars also accepted and treated as 1x1 blocks
RANGE_ONLY = "range-only"
# What a value that is not an error is known to be when a plan compiles.
TEXT, BOOL, NUMBER = "text", "bool", "number"


class FunctionSignature:
    __slots__ = ("name", "min_args", "max_args", "arg_kinds", "impl", "direct")

    def __init__(self, name: str, min_args: int, max_args: int | None, arg_kinds: tuple,
                 impl: Callable, direct: tuple | None = None):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args  # None = unbounded
        self.arg_kinds = arg_kinds  # per-position; last kind repeats for variadics
        self.impl = impl
        # None, or (code, kind, fails): a Python expression of the value
        # ``impl`` gives, formatted with the arguments' expressions as
        # positional fields and their texts as ``t``, the kind of that
        # value when it is not an error, and whether it can be an error.
        # Each name it uses is a global of every plan (``engine._GLOBALS``).
        self.direct = direct


REGISTRY: dict[str, FunctionSignature] = {}


def _register(name, min_args, max_args, arg_kinds, direct=None):
    def wrap(fn):
        REGISTRY[name] = FunctionSignature(name, min_args, max_args, arg_kinds, fn, direct)
        return fn

    return wrap


def lookup(name: str) -> FunctionSignature | None:
    return REGISTRY.get(name.upper())


# --- Roman numerals ---------------------------------------------------------

_SYMBOL_VALUES = {"M": 1000, "D": 500, "C": 100, "L": 50, "X": 10, "V": 5, "I": 1}
_SUBTRACTIVE_PAIRS = {"CM": 900, "CD": 400, "XC": 90, "XL": 40, "IX": 9, "IV": 4}
# Built on first use, not at import: the classic-form numeral of n at
# index n, and the value of each of those numerals.
_NUMERALS: list[str] = []
_VALUES: dict[str, float] = {}


def _place(one: str, five: str, ten: str) -> tuple:
    return ("", one, one * 2, one * 3, one + five, five, five + one, five + one * 2,
            five + one * 3, one + ten)


def _numeral_values() -> dict[str, float]:
    if not _VALUES:
        places = (("", "M", "MM", "MMM"), _place("C", "D", "M"), _place("X", "L", "C"),
                  _place("I", "V", "X"))
        _NUMERALS[:] = map("".join, product(*places))
        _VALUES.update((text, float(n)) for n, text in enumerate(_NUMERALS) if n)
    return _VALUES


def arabic_value(text: str) -> float | CellError:
    """Value of a roman numeral.

    A classic-form numeral is one table lookup. Any other text takes a
    single left-to-right pass that recognises the six standard
    subtractive pairs and sums everything else additively, so dirty
    forms like IIII are accepted. Empty or non-roman input is #VALUE!,
    a total outside [1, 3999] is #NUM!.
    """
    s = text.strip().upper()
    value = (_VALUES or _numeral_values()).get(s)
    if value is not None:
        return value
    if not s:
        return VALUE_ERROR
    total = 0
    i = 0
    n = len(s)
    while i < n:
        pair = _SUBTRACTIVE_PAIRS.get(s[i : i + 2])
        if pair is not None:
            total += pair
            i += 2
            continue
        value = _SYMBOL_VALUES.get(s[i])
        if value is None:
            return VALUE_ERROR
        total += value
        i += 1
    if not 1 <= total <= 3999:
        return NUM_ERROR
    return float(total)


def roman_text(n: int) -> str:
    """Classic-form numeral for n in [1, 3999]."""
    _numeral_values()
    return _NUMERALS[n] if n > 0 else ""  # a negative index would wrap


@_register("ARABIC", 1, 1, (SCALAR,), ("arabic_value({t[0]})", NUMBER, True))
def arabic(args):
    return arabic_value(render_value(args[0]))


@_register("ROMAN", 1, 1, (SCALAR,))
def roman(args):
    n = to_number(args[0])
    if n.__class__ is CellError:
        return n
    if not n.is_integer() or not 1 <= n <= 3999:
        return NUM_ERROR
    return roman_text(int(n))


# --- Logic ------------------------------------------------------------------


@_register("IF", 2, 3, (SCALAR, SCALAR, SCALAR))
def if_(args):
    cond = to_boolean(args[0])
    if cond.__class__ is CellError:
        return cond
    if cond:
        return args[1]
    return args[2] if len(args) == 3 else False


@_register("AND", 1, None, (SCALAR,))
def and_(args):
    for arg in args:
        b = to_boolean(arg)
        if b.__class__ is CellError:
            return b
        if not b:
            return False
    return True


@_register("OR", 1, None, (SCALAR,))
def or_(args):
    for arg in args:
        b = to_boolean(arg)
        if b.__class__ is CellError:
            return b
        if b:
            return True
    return False


@_register("NOT", 1, 1, (SCALAR,))
def not_(args):
    b = to_boolean(args[0])
    if b.__class__ is CellError:
        return b
    return not b


@_register("ISBLANK", 1, 1, (SCALAR,), ("({0}).__class__ is Blank", BOOL, False))
def isblank(args):
    return args[0].__class__ is Blank


@_register("EXACT", 2, 2, (SCALAR, SCALAR), ("{t[0]} == {t[1]}", BOOL, False))
def exact(args):
    return render_value(args[0]) == render_value(args[1])


# --- Aggregation ------------------------------------------------------------


def _numeric_stream(args):
    """Numbers contributed by mixed scalar/range arguments.

    Direct scalars coerce (text "3" counts as 3); inside ranges only
    genuine numbers participate, as a spreadsheet would have it.
    """
    for arg in args:
        if arg.__class__ is RangeValue:
            for v in arg:
                if v.__class__ is float:
                    yield v
        else:
            n = to_number(arg)
            yield n  # may be a CellError; caller handles


@_register("SUM", 1, None, (RANGE,))
def sum_(args):
    total = 0.0
    for n in _numeric_stream(args):
        if n.__class__ is CellError:
            return n
        total += n
    return total if math.isfinite(total) else NUM_ERROR


@_register("COUNT", 1, None, (RANGE,))
def count(args):
    total = 0
    for arg in args:
        if arg.__class__ is RangeValue:
            for v in arg:
                if v.__class__ is float:
                    total += 1
        elif arg.__class__ is float:
            total += 1
        elif arg.__class__ is str and parse_number(arg) is not None:
            total += 1
    return float(total)


def _extreme(args, better):
    best = None
    for n in _numeric_stream(args):
        if n.__class__ is CellError:
            return n
        if best is None or better(n, best):
            best = n
    return 0.0 if best is None else best


@_register("MIN", 1, None, (RANGE,))
def min_(args):
    return _extreme(args, lambda a, b: a < b)


@_register("MAX", 1, None, (RANGE,))
def max_(args):
    return _extreme(args, lambda a, b: a > b)


# --- Text -------------------------------------------------------------------


@_register("CONCATENATE", 1, None, (SCALAR,))
def concatenate(args):
    return "".join(render_value(arg) for arg in args)


@_register("LEN", 1, 1, (SCALAR,))
def len_(args):
    return float(len(render_value(args[0])))


def _text_and_count(args):
    """LEFT/RIGHT arguments: the text, and the count (default 1)."""
    return render_value(args[0]), to_number(args[1]) if len(args) > 1 else 1.0


@_register("LEFT", 1, 2, (SCALAR, SCALAR))
def left(args):
    t, n = _text_and_count(args)
    if n.__class__ is CellError:
        return n
    if n < 0 or not n.is_integer():
        return VALUE_ERROR
    return t[: int(n)]


@_register("RIGHT", 1, 2, (SCALAR, SCALAR))
def right(args):
    t, n = _text_and_count(args)
    if n.__class__ is CellError:
        return n
    if n < 0 or not n.is_integer():
        return VALUE_ERROR
    k = int(n)
    return t[-k:] if k else ""


@_register("MID", 3, 3, (SCALAR, SCALAR, SCALAR))
def mid(args):
    t = render_value(args[0])
    start = to_number(args[1])
    if start.__class__ is CellError:
        return start
    length = to_number(args[2])
    if length.__class__ is CellError:
        return length
    if start < 1 or length < 0 or not start.is_integer() or not length.is_integer():
        return VALUE_ERROR
    begin = int(start) - 1
    return t[begin : begin + int(length)]


@_register("SUBSTITUTE", 3, 4, (SCALAR, SCALAR, SCALAR, SCALAR))
def substitute(args):
    t = render_value(args[0])
    old = render_value(args[1])
    new = render_value(args[2])
    if len(args) == 3:
        return t.replace(old, new) if old else t
    instance = to_number(args[3])
    if instance.__class__ is CellError:
        return instance
    if instance < 1 or not instance.is_integer():
        return VALUE_ERROR
    if not old:
        return t
    index = -1
    for _ in range(int(instance)):
        index = t.find(old, index + 1)
        if index < 0:
            return t
    return t[:index] + new + t[index + len(old) :]


@_register("TRIM", 1, 1, (SCALAR,))
def trim(args):
    t = render_value(args[0])
    # Spreadsheet TRIM: strip and collapse runs of 0x20 spaces only.
    return " ".join(part for part in t.split(" ") if part)


@_register("UPPER", 1, 1, (SCALAR,))
def upper(args):
    return render_value(args[0]).upper()


@_register("LOWER", 1, 1, (SCALAR,))
def lower(args):
    return render_value(args[0]).lower()


@_register("VALUE", 1, 1, (SCALAR,))
def value(args):
    v = args[0]
    if v.__class__ is float:
        return v
    if v.__class__ is bool:
        return VALUE_ERROR
    t = render_value(v)
    parsed = parse_number(t)
    return VALUE_ERROR if parsed is None else parsed


# --- Lookup -----------------------------------------------------------------


@_register("VLOOKUP", 3, 3, (SCALAR, RANGE_ONLY, SCALAR))
def vlookup(args):
    """The first row whose first value ``compare``s equal to ``key``; a
    plan checks the key and the table for errors before the call."""
    key, table, col = args
    index = to_number(col)
    if index.__class__ is CellError:
        return index
    index = int(index)  # spreadsheet truncation
    if index < 1:
        return VALUE_ERROR
    if not table.rows or index > len(table.rows[0]):
        return REF_ERROR
    for row in table.rows:
        if compare(row[0], key) == 0:
            return row[index - 1]
    return NA_ERROR
