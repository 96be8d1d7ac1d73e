"""Lexer, parser, reference extraction, and canonical rendering."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from gridpipe.engine import evaluate_source
from gridpipe.formula import (
    Binary,
    Call,
    CellRef,
    LexError,
    Literal,
    NameRef,
    ParseError,
    RangeRef,
    Unary,
    column_index,
    column_letters,
    extract_references,
    parse_formula,
    render_formula,
    token_kind,
    tokenize,
)
from gridpipe.values import CellError
from gridpipe.workbook import Workbook


# --- tokenize ---------------------------------------------------------------


def test_tokenize_function_call():
    tokens = tokenize("ARABIC(D2)")
    assert [(t.kind, t.lexeme) for t in tokens] == [
        ("name", "ARABIC"),
        ("punctuation", "("),
        ("cellref", "D2"),
        ("punctuation", ")"),
    ]


def test_tokenize_doubled_quote_escape():
    tokens = tokenize('"a""b"')
    assert len(tokens) == 1
    assert tokens[0].kind == "string"
    ast = parse_formula('="a""b"')
    assert ast == Literal('a"b')


def test_tokenize_bare_comma_is_a_token_not_a_lex_error():
    tokens = tokenize("1,2")
    assert [(t.kind, t.lexeme) for t in tokens] == [
        ("number", "1"),
        ("punctuation", ","),
        ("number", "2"),
    ]
    assert tokens[1].offset == 1
    with pytest.raises(ParseError) as err:
        parse_formula("=1,2")
    assert err.value.offset == 2  # the comma, counted from the leading =


def test_tokenize_offsets_and_reconstruction():
    source = 'IF( A1>=2, "x ", B2:C3 )'
    tokens = tokenize(source)
    # Lexemes plus the skipped whitespace between them rebuild the source.
    last_end = 0
    rebuilt = []
    for token in tokens:
        assert token.offset >= last_end
        assert source[token.offset : token.offset + len(token.lexeme)] == token.lexeme
        gap = source[last_end : token.offset]
        assert gap.strip() == ""
        rebuilt.append(gap + token.lexeme)
        last_end = token.offset + len(token.lexeme)
    rebuilt.append(source[last_end:])
    assert "".join(rebuilt) == source


def test_tokenize_unterminated_string():
    with pytest.raises(LexError) as err:
        tokenize('1&"abc')
    assert err.value.offset == 2


def test_tokenize_illegal_character():
    with pytest.raises(LexError) as err:
        tokenize("1 + @2")
    assert err.value.offset == 4
    assert err.value.found == "@"
    with pytest.raises(LexError) as err:
        tokenize("AB1$")  # a $ that starts no reference
    assert (err.value.offset, err.value.found) == (3, "$")


@pytest.mark.parametrize(
    "lexeme,kind",
    [
        ("A1", "cellref"),
        ("$A$1", "cellref"),
        ("XFD1048576", "cellref"),
        ("A0", "name"),  # row 0 cannot be a cell, so the name grammar wins
        ("ABCD1", "name"),  # beyond three column letters
        ("TRUE", "boolean"),
        ("false", "boolean"),
        ("Tax.Rate", "name"),
        ("_x", "name"),
        ("A$1", "cellref"),
        ("$A1", "cellref"),
        ("A$1B", None),  # A$1 then the name B: a reference with a $ ends at its row
        ("AB1$", None),  # the cell reference AB1, then an illegal $
    ],
)
def test_token_classification(lexeme, kind):
    assert token_kind(lexeme) == kind
    if kind is not None:
        (token,) = tokenize(lexeme)
        assert token.kind == kind


def test_a_reference_with_a_dollar_ends_at_its_row():
    tokens = tokenize("A$1B")
    assert [(t.kind, t.lexeme, t.offset) for t in tokens] == [
        ("cellref", "A$1", 0),
        ("name", "B", 3),
    ]


# --- parse ------------------------------------------------------------------


def test_parse_concat_chain():
    ast = parse_formula('=A2&","&B2')
    assert ast == Binary("&", Binary("&", CellRef(2, 1), Literal(",")), CellRef(2, 2))
    assert extract_references(ast) == {CellRef(2, 1), CellRef(2, 2)}


def test_unary_minus_binds_tighter_than_power():
    # A desktop spreadsheet evaluates =-2^2 to 4: the sign binds first.
    ast = parse_formula("=-2^2")
    assert ast == Binary("^", Unary("-", Literal(2.0)), Literal(2.0))
    assert evaluate_source(Workbook(), "=-2^2") == 4.0
    # ...but inside the exponent the usual reading holds
    assert evaluate_source(Workbook(), "=2^-1") == 0.5


def test_power_is_left_associative():
    assert evaluate_source(Workbook(), "=2^3^2") == 64.0


def test_parse_if_with_name_refs():
    ast = parse_formula('=IF(Duplicate,"Skip",Data)')
    assert ast == Call(
        "IF", (NameRef("DUPLICATE"), Literal("Skip"), NameRef("DATA"))
    )


def test_function_names_case_insensitive():
    assert parse_formula("=sum(A1:A3)") == parse_formula("=SUM(A1:A3)")


def test_dollar_markers_ignored():
    assert parse_formula("=$A$1+A1") == Binary("+", CellRef(1, 1), CellRef(1, 1))


def test_range_corners_normalized():
    assert parse_formula("=SUM(B2:A1)") == parse_formula("=SUM(A1:B2)")


def test_parse_errors_carry_offset_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_formula("=1+")
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_formula("=IF(1,2")
    assert err.value.expected == "')'"
    with pytest.raises(ParseError):
        parse_formula("1+1")  # missing leading =


@pytest.mark.parametrize(
    "opener, closer",
    [("(", ")"), ("SUM(", ")"), ("-", ""), ("IF(TRUE,", ")")],
    ids=["group", "argument-list", "unary-sign", "if"],
)
def test_a_formula_nests_at_most_64_levels(opener, closer):
    assert parse_formula("=" + opener * 64 + "1" + closer * 64)
    with pytest.raises(ParseError) as err:
        parse_formula("=" + opener * 120 + "1" + closer * 120)
    token = "(" if "(" in opener else "-"  # the 65th level's
    assert err.value.expected == "at most 64 levels of nesting"
    assert (err.value.offset, err.value.found) == (
        1 + 64 * len(opener) + opener.index(token), repr(token)
    )


def test_a_chain_of_2000_operators_evaluates():
    # The chain is a left-deep tree as long as the formula: it compiles,
    # renders, compares and hashes without a frame per operator.
    source = "=" + "+".join(["1"] * 2000)
    assert evaluate_source(Workbook(), source) == 2000.0
    assert render_formula(parse_formula(source)) == source
    assert parse_formula(source) == parse_formula(source)
    assert hash(parse_formula(source)) == hash(parse_formula(source))
    assert parse_formula(source) != parse_formula(source[:-1] + "2")


# --- extract_references -----------------------------------------------------


def test_extract_references_examples():
    assert extract_references(parse_formula("=ARABIC(D2)")) == {CellRef(2, 4)}
    assert extract_references(parse_formula("=1+2")) == set()
    assert extract_references(parse_formula("=SUM(A1:A3)+A1")) == {
        RangeRef(CellRef(1, 1), CellRef(3, 1)),
        CellRef(1, 1),
    }


def test_extract_references_collapses_duplicates():
    refs = extract_references(parse_formula("=A1+A1+A1"))
    assert refs == {CellRef(1, 1)}


def test_nodes_of_different_classes_are_never_equal():
    # extract_references collects nodes in a set: a name must not
    # collapse into a literal, or a cell into a range, of the same fields.
    assert Literal("A") != NameRef("A")
    assert len({Literal("A"), NameRef("A")}) == 2
    assert hash(Literal("A")) != hash(NameRef("A"))
    assert len({CellRef(1, 1), RangeRef(CellRef(1, 1), CellRef(1, 1))}) == 2
    assert Call("A", ()) == Call("A", ()) and hash(Call("A", ())) == hash(Call("A", ()))


# --- precedence against an independent evaluator ----------------------------

# Reference table, written out separately from the implementation: each
# binary level is left-associative, unary minus binds above ^.
_REFERENCE_LEVELS = [("+", "-"), ("*", "/"), ("^",)]
_ERR = object()  # any arithmetic failure; errors absorb everything


def _reference_eval(operands, operators):
    """Precedence-climbing evaluation over plain floats."""

    def apply(op, a, b):
        if a is _ERR or b is _ERR:
            return _ERR
        if op == "+":
            result = a + b
        elif op == "-":
            result = a - b
        elif op == "*":
            result = a * b
        elif op == "/":
            if b == 0:
                return _ERR
            result = a / b
        else:
            if (a == 0 and b <= 0) or (a < 0 and b != int(b)):
                return _ERR
            try:
                result = float(a**b)
            except OverflowError:
                return _ERR
        return result if math.isfinite(result) else _ERR

    def level(index, pos):
        if index == len(_REFERENCE_LEVELS):
            return operands[pos], pos + 1
        value, pos = level(index + 1, pos)
        while pos - 1 < len(operators) and operators[pos - 1] in _REFERENCE_LEVELS[index]:
            op = operators[pos - 1]
            right, pos = level(index + 1, pos)
            value = apply(op, value, right)
        return value, pos

    value, _ = level(0, 0)
    return value


@given(
    operands=st.lists(
        st.integers(min_value=0, max_value=9), min_size=2, max_size=6
    ),
    operators=st.lists(st.sampled_from("+-*/^"), min_size=1, max_size=5),
    negate_first=st.booleans(),
)
@settings(max_examples=300)
def test_precedence_matches_reference_evaluator(operands, operators, negate_first):
    operators = operators[: len(operands) - 1]
    operands = operands[: len(operators) + 1]
    values = [float(v) for v in operands]
    if negate_first:
        values[0] = -values[0]
    source = "=" + ("-" if negate_first else "") + str(operands[0])
    for op, operand in zip(operators, operands[1:]):
        source += f"{op}{operand}"
    got = evaluate_source(Workbook(), source)
    expected = _reference_eval(values, operators)
    if expected is _ERR:
        assert isinstance(got, CellError)
    else:
        assert got == pytest.approx(expected, abs=1e-12)


# --- round trip through canonical rendering ---------------------------------

_names = (
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,6}", fullmatch=True)
    .map(str.upper)
    .filter(
        lambda s: s not in ("TRUE", "FALSE")
        and not __import__("re").fullmatch(r"[A-Z]{1,3}[1-9][0-9]{0,6}", s)
    )
)

_literals = st.one_of(
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(Literal),
    st.text(max_size=12).map(Literal),
    st.booleans().map(Literal),
)

_cellrefs = st.builds(
    CellRef,
    st.integers(min_value=1, max_value=99999),
    st.integers(min_value=1, max_value=2000),
)

_ranges = st.builds(
    lambda a, b: RangeRef(
        CellRef(min(a.row, b.row), min(a.col, b.col)),
        CellRef(max(a.row, b.row), max(a.col, b.col)),
    ),
    _cellrefs,
    _cellrefs,
)


def _ast_strategy():
    leaves = st.one_of(_literals, _cellrefs, _names.map(NameRef), _ranges)

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from("-+"), children),
            st.builds(
                Binary,
                st.sampled_from(["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]),
                children,
                children,
            ),
            st.builds(
                Call, _names, st.lists(children, max_size=3).map(tuple)
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(ast=_ast_strategy())
@settings(max_examples=300)
def test_render_parse_round_trip(ast):
    text = render_formula(ast)
    assert parse_formula(text) == ast


@given(source=st.text(max_size=30))
@settings(max_examples=300)
def test_error_offsets_stay_in_bounds(source):
    full = "=" + source
    try:
        parse_formula(full)
    except (LexError, ParseError) as err:
        assert 0 <= err.offset <= len(full)


# --- column letters ----------------------------------------------------------


def _independent_letters(index: int) -> str:
    # Bijective base-26 spelled out the long way, as a cross-check.
    digits = []
    while index:
        rem = index % 26
        if rem == 0:
            rem = 26
            index -= 26
        digits.append(chr(ord("A") + rem - 1))
        index //= 26
    return "".join(reversed(digits))


def test_column_bijection_first_thousand():
    for index in range(1, 1001):
        letters = _independent_letters(index)
        assert column_letters(index) == letters
        assert column_index(letters) == index
