"""Builtin function semantics, pinned by oracle tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridpipe.engine import evaluate_source
from gridpipe.functions import (
    RANGE,
    RANGE_ONLY,
    REGISTRY,
    arabic_value,
    roman_text,
)
from gridpipe.values import (
    BLANK,
    Blank,
    CellError,
    NA_ERROR,
    NUM_ERROR,
    RangeValue,
    REF_ERROR,
    VALUE_ERROR,
    _NUMBER_RE,
    parse_number,
)
from gridpipe.workbook import Workbook, parse_a1


def ev(source: str, wb: Workbook | None = None):
    return evaluate_source(wb or Workbook(), source)


# --- number parsing -------------------------------------------------------------


def _regex_parse_number(text: str):
    s = text.strip()
    if not _NUMBER_RE.fullmatch(s):
        return None
    value = float(s)
    return value if math.isfinite(value) else None


@pytest.mark.parametrize("text", ["\u0663\u0664", "0042", "9" * 400, " 12 ", "1_0", ""])
def test_parse_number_digit_fast_path_agrees_with_the_regex(text):
    assert parse_number(text) == _regex_parse_number(text)


@given(
    st.text(
        alphabet=st.characters(whitelist_categories=("Nd", "Nl", "No")) | st.sampled_from(" _+-.e")
    )
)
def test_parse_number_agrees_with_the_regex_property(text):
    assert parse_number(text) == _regex_parse_number(text)


# --- roman numerals -----------------------------------------------------------


def test_arabic_headline_value():
    assert ev('=ARABIC("MCDLIX")') == 1459.0


@pytest.mark.parametrize(
    "text,value",
    [
        ("I", 1),
        ("III", 3),
        ("IV", 4),
        ("IIII", 4),  # lenient additive form: real data is dirty
        ("mcdlix", 1459),  # case-insensitive
        (" XIV ", 14),  # surrounding spaces tolerated
        ("MMMCMXCIX", 3999),
        ("VL", 55),  # not a standard pair: summed additively
    ],
)
def test_arabic_values(text, value):
    assert arabic_value(text) == float(value)


@pytest.mark.parametrize("bad", ["", "ABC", "X2", "M M"])
def test_arabic_value_errors(bad):
    assert arabic_value(bad) == VALUE_ERROR


def test_arabic_out_of_range_is_num_error():
    assert arabic_value("MMMM") == NUM_ERROR


def test_roman_examples():
    assert ev("=ROMAN(1459)") == "MCDLIX"
    assert ev("=ROMAN(1)") == "I"
    assert ev("=ROMAN(3999)") == "MMMCMXCIX"


@pytest.mark.parametrize("source", ["=ROMAN(0)", "=ROMAN(4000)", "=ROMAN(2.5)"])
def test_roman_domain_errors(source):
    assert ev(source) == NUM_ERROR


def test_roman_of_non_number_is_value_error():
    assert ev('=ROMAN("x")') == VALUE_ERROR


def test_roman_round_trip_exhaustive():
    for n in range(1, 4000):
        assert arabic_value(roman_text(n)) == float(n)


def test_roman_alphabet_and_monotonicity():
    previous = 0
    for n in range(1, 4000):
        text = roman_text(n)
        assert set(text) <= set("MDCLXVI")
        value = arabic_value(text)
        assert value > previous
        previous = value


def test_longest_classic_numeral():
    # Exhaustive scan: 3888 carries the longest classic spelling.
    lengths = {n: len(roman_text(n)) for n in range(1, 4000)}
    longest = max(lengths, key=lambda n: (lengths[n], -n))
    assert longest == 3888
    assert roman_text(3888) == "MMMDCCCLXXXVIII"


# The greedy encoder and the pair-loop decoder that preceded the numeral
# table, kept as the oracle: the round trip above only shows that the
# table agrees with itself.
_ORACLE_TABLE = ((1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
                 (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"))
_ORACLE_SYMBOLS = {"M": 1000, "D": 500, "C": 100, "L": 50, "X": 10, "V": 5, "I": 1}
_ORACLE_PAIRS = {"CM": 900, "CD": 400, "XC": 90, "XL": 40, "IX": 9, "IV": 4}


def _oracle_roman(n):
    out = []
    for value, symbol in _ORACLE_TABLE:
        while n >= value:
            out.append(symbol)
            n -= value
    return "".join(out)


def _oracle_arabic(text):
    s = text.strip().upper()
    if not s:
        return VALUE_ERROR
    total = 0
    i = 0
    while i < len(s):
        pair = _ORACLE_PAIRS.get(s[i : i + 2])
        if pair is not None:
            total += pair
            i += 2
            continue
        value = _ORACLE_SYMBOLS.get(s[i])
        if value is None:
            return VALUE_ERROR
        total += value
        i += 1
    if not 1 <= total <= 3999:
        return NUM_ERROR
    return float(total)


def _same(a, b):
    return (a.__class__, repr(a)) == (b.__class__, repr(b))


def test_numerals_agree_with_the_greedy_oracle_in_every_spelling():
    failures = []
    for n in range(1, 4000):
        text = _oracle_roman(n)
        if roman_text(n) != text:
            failures.append((n, roman_text(n)))
        for spelling in (text, text.lower(), f" {text}  ", f"\t{text.lower()} "):
            if not (_same(arabic_value(spelling), _oracle_arabic(spelling))
                    and arabic_value(spelling) == float(n)):
                failures.append((n, spelling))
    assert failures == []


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="MDCLXVImdclxvi Q", max_size=12))
def test_arabic_value_agrees_with_the_pair_loop_property(text):
    assert _same(arabic_value(text), _oracle_arabic(text))


@pytest.mark.parametrize("text", ["XCM", "IIII", "VL", "MMMM", "IM", "", "  ", "M M", "x2", "\u00dfi"])
def test_lenient_and_bad_forms_keep_the_pair_loop_result(text):
    assert _same(arabic_value(text), _oracle_arabic(text))


# --- expansion steps on-sheet ---------------------------------------------------


def test_substitute_expansion_first_step():
    assert ev('=SUBSTITUTE("MCDLIX","CD","CCCC")') == "MCCCCLIX"


def test_expansion_chain_reaches_additive_form():
    chain = (
        '=SUBSTITUTE(SUBSTITUTE(SUBSTITUTE(SUBSTITUTE(SUBSTITUTE(SUBSTITUTE('
        '"MCDLIX","CM","DCCCC"),"CD","CCCC"),"XC","LXXXX"),"XL","XXXX"),'
        '"IX","VIIII"),"IV","IIII")'
    )
    assert ev(chain) == "MCCCCLVIIII"


# --- logic ----------------------------------------------------------------------


def test_if_examples():
    assert ev('=IF(TRUE,"Skip",7)') == "Skip"
    assert ev('=IF(FALSE,"Skip",7)') == 7.0
    assert ev("=IF(FALSE,1)") is False  # missing else arm yields FALSE
    assert ev('=IF(1,"y","n")') == "y"  # numbers coerce to booleans


def test_and_or_not():
    assert ev("=AND(TRUE,1,TRUE)") is True
    assert ev("=AND(TRUE,0)") is False
    assert ev("=OR(FALSE,0)") is False
    assert ev("=OR(FALSE,2)") is True
    assert ev("=NOT(FALSE)") is True
    assert ev('=AND("x")') == VALUE_ERROR


def test_exact_is_case_sensitive():
    assert ev('=EXACT("Skip","Skip")') is True
    assert ev('=EXACT("Skip","skip")') is False
    assert ev('="Skip"="skip"') is True  # unlike the engine's = operator


def test_isblank():
    wb = Workbook()
    assert ev("=ISBLANK(Z9)", wb) is True
    assert ev('=ISBLANK("")', wb) is False
    assert ev("=ISBLANK(0)", wb) is False


# --- aggregation -----------------------------------------------------------------


def _filled(cells: dict) -> Workbook:
    wb = Workbook()
    for a1, value in cells.items():
        wb.set_cell(parse_a1(a1, "Main"), value)
    return wb


def test_sum_over_range_skips_non_numbers():
    wb = _filled({"A1": 1.0, "A2": "x", "A3": 2.0, "A4": True})
    assert ev("=SUM(A1:A4)", wb) == 3.0


def test_sum_coerces_direct_scalars():
    assert ev('=SUM(1,"3",TRUE)') == 5.0
    assert ev('=SUM("x")') == VALUE_ERROR


def test_count_numbers_only_in_ranges():
    wb = _filled({"A1": 1.0, "A2": "3", "A3": "x", "A4": 2.0})
    assert ev("=COUNT(A1:A4)", wb) == 2.0
    assert ev('=COUNT(1,"3","x")', wb) == 2.0  # direct numeric text counts


def test_min_max():
    wb = _filled({"A1": 5.0, "A2": 2.0, "A3": 9.0})
    assert ev("=MIN(A1:A3)", wb) == 2.0
    assert ev("=MAX(A1:A3)", wb) == 9.0
    assert ev("=MIN(B1:B3)", wb) == 0.0  # nothing numeric: zero


# --- text ------------------------------------------------------------------------


def test_text_functions():
    assert ev('=LEN("MCDLIX")') == 6.0
    assert ev('=LEFT("MCDLIX",2)') == "MC"
    assert ev('=LEFT("MCDLIX")') == "M"
    assert ev('=RIGHT("MCDLIX",3)') == "LIX"
    assert ev('=MID("MCDLIX",2,3)') == "CDL"
    assert ev('=UPPER("mcd")') == "MCD"
    assert ev('=LOWER("McD")') == "mcd"
    assert ev('=CONCATENATE("1",",","Toga")') == "1,Toga"
    assert ev("=LEN(1459)") == 4.0  # numbers render before measuring


def test_trim_collapses_interior_runs():
    assert ev('=TRIM("  Item ")') == "Item"
    assert ev('=TRIM("a   b  c")') == "a b c"


def test_value_parses_numeric_text():
    assert ev('=VALUE("1459")') == 1459.0
    assert ev('=VALUE(" 2.5 ")') == 2.5
    assert ev('=VALUE("x")') == VALUE_ERROR
    assert ev("=VALUE(TRUE)") == VALUE_ERROR


def test_substitute_instance_argument():
    assert ev('=SUBSTITUTE("aXaXa","X","-",2)') == "aXa-a"
    assert ev('=SUBSTITUTE("aXa","X","-",5)') == "aXa"
    assert ev('=SUBSTITUTE("aXa","X","-",0)') == VALUE_ERROR


@given(
    s=st.text(alphabet="abcX", max_size=20),
    a=st.text(alphabet="abcX", min_size=1, max_size=3),
    b=st.text(alphabet="abcX", max_size=4),
)
@settings(max_examples=200)
def test_substitute_length_property(s, a, b):
    wb = Workbook()
    wb.set_cell(parse_a1("A1", "Main"), s)
    wb.set_cell(parse_a1("B1", "Main"), a)
    wb.set_cell(parse_a1("C1", "Main"), b)
    result = ev("=SUBSTITUTE(A1,B1,C1)", wb)
    occurrences = s.count(a)
    assert len(result) == len(s) + occurrences * (len(b) - len(a))


# --- lookup ----------------------------------------------------------------------

_SYMBOL_TABLE = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


def _symbol_workbook() -> Workbook:
    wb = Workbook()
    for row, (symbol, value) in enumerate(_SYMBOL_TABLE.items(), start=1):
        wb.set_cell(parse_a1(f"A{row}", "Main"), symbol)
        wb.set_cell(parse_a1(f"B{row}", "Main"), float(value))
    return wb


def test_vlookup_against_symbol_table():
    wb = _symbol_workbook()
    # Brute-check every row of the table against the dict oracle.
    for symbol, value in _SYMBOL_TABLE.items():
        assert ev(f'=VLOOKUP("{symbol}",A1:B7,2)', wb) == float(value)


def test_vlookup_miss_and_bad_column():
    wb = _symbol_workbook()
    assert ev('=VLOOKUP("Q",A1:B7,2)', wb) == NA_ERROR
    assert ev('=VLOOKUP("D",A1:B7,3)', wb) == REF_ERROR
    assert ev('=VLOOKUP("D",A1:B7,0)', wb) == VALUE_ERROR
    assert ev('=VLOOKUP("D","x",2)', wb) == VALUE_ERROR


def test_vlookup_exact_match_is_case_insensitive():
    wb = _symbol_workbook()
    assert ev('=VLOOKUP("d",A1:B7,2)', wb) == 500.0


# --- totality ---------------------------------------------------------------------


def _random_scalar(rng: random.Random):
    return rng.choice(
        [
            BLANK,
            float(rng.randint(-5, 5)),
            rng.choice(["", "x", "3", "TRUE", "Skip"]),
            rng.choice([True, False]),
        ]
    )


def test_every_function_is_total_over_cell_values():
    rng = random.Random(99)
    for signature in REGISTRY.values():
        top = signature.min_args + 2 if signature.max_args is None else signature.max_args
        for _ in range(50):
            arity = rng.randint(signature.min_args, max(signature.min_args, top))
            args = []
            for position in range(arity):
                kind = signature.arg_kinds[min(position, len(signature.arg_kinds) - 1)]
                if kind in (RANGE, RANGE_ONLY) and (kind is RANGE_ONLY or rng.random() < 0.5):
                    args.append(
                        RangeValue(
                            [
                                [_random_scalar(rng) for _ in range(2)]
                                for _ in range(rng.randint(1, 3))
                            ]
                        )
                    )
                else:
                    args.append(_random_scalar(rng))
            result = signature.impl(args)
            assert isinstance(result, (Blank, float, str, bool, CellError)), (
                signature.name,
                args,
                result,
            )


def test_functions_never_return_non_finite_numbers():
    assert ev("=SUM(1E308,1E308)") == NUM_ERROR
    assert ev("=1E400") == NUM_ERROR  # an overflowing literal is itself #NUM!
    assert ev("=ROMAN(1E400)") == NUM_ERROR
