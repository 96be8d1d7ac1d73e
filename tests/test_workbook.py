"""Addressing, cells, named ranges, and bulk transfer."""

from __future__ import annotations

import itertools
import string

import pytest
from hypothesis import example, given, strategies as st

from gridpipe.formula import LexError, parse_formula, tokenize
from gridpipe.values import BLANK
from gridpipe.workbook import (
    MAX_COLS,
    MAX_ROWS,
    BadAddress,
    BadName,
    CellAddress,
    CellRange,
    DuplicateName,
    FormulaOverwrite,
    ShapeMismatch,
    UnknownName,
    Workbook,
    format_a1,
    normalized_range,
    parse_a1,
)


def _addr(a1: str, sheet: str = "Main") -> CellAddress:
    return parse_a1(a1, sheet)


def _rng(a: str, b: str, sheet: str = "Main") -> CellRange:
    return CellRange(_addr(a, sheet), _addr(b, sheet))


# --- parse_a1 -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,row,col",
    [
        ("A1", 1, 1),
        ("D2", 2, 4),  # the numeral column in the shipped rules
        ("AA10", 10, 27),
        ("Z1", 1, 26),
        ("XFD1048576", 1048576, 16384),
        ("$B$3", 3, 2),
    ],
)
def test_parse_a1(text, row, col):
    addr = parse_a1(text, "Main")
    assert (addr.row, addr.col) == (row, col)
    assert parse_a1(format_a1(row, col), "Main") == addr


def test_parse_a1_against_enumerated_bijection():
    # Independent oracle: enumerate letters in spelling order and check
    # both directions for the first thousand columns.
    def spellings():
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for size in range(1, 3):
            for combo in itertools.product(letters, repeat=size):
                yield "".join(combo)

    for index, letters in enumerate(itertools.islice(spellings(), 1000), start=1):
        addr = parse_a1(f"{letters}7", "S")
        assert addr.col == index
        assert format_a1(7, index) == f"{letters}7"


@pytest.mark.parametrize("bad", ["", "1A", "A0", "A", "7", "A1B", "A 1", "!A1"])
def test_parse_a1_rejects_malformed(bad):
    with pytest.raises(BadAddress):
        parse_a1(bad, "Main")


# --- cells --------------------------------------------------------------------


def test_set_then_get_literal():
    wb = Workbook()
    wb.set_cell(_addr("B2"), "Toga")
    assert wb.get_value(_addr("B2")) == "Toga"


def test_untouched_cell_is_blank():
    wb = Workbook()
    assert wb.get_value(_addr("Z999")) is BLANK


def test_out_of_bounds_address_rejected():
    wb = Workbook()
    with pytest.raises(BadAddress):
        wb.set_cell(CellAddress("Main", MAX_ROWS + 1, 1), 1.0)
    with pytest.raises(BadAddress):
        wb.get_value(CellAddress("Main", 1, MAX_COLS + 1))


def test_grid_ceiling_is_the_spreadsheet_grid():
    wb = Workbook()
    addr = CellAddress("Main", MAX_ROWS, MAX_COLS)
    wb.set_cell(addr, 1.0)
    assert wb.get_value(addr) == 1.0
    assert format_a1(MAX_ROWS, MAX_COLS) == "XFD1048576"


def test_sparse_storage_for_far_corner():
    wb = Workbook()
    wb.set_cell(parse_a1("XFD1048576", "Main"), 42.0)
    assert wb.cell_count() == 1
    assert len(wb.values) == 1


# --- named ranges ---------------------------------------------------------------


def test_define_and_resolve_name_case_insensitive():
    wb = Workbook()
    wb.define_name("InputCells", _rng("A2", "D2"))
    for variant in ("inputcells", "INPUTCELLS", "InputCells", "iNpUtCeLlS"):
        assert wb.resolve_name(variant) == _rng("A2", "D2")


def test_duplicate_name_rejected():
    wb = Workbook()
    wb.define_name("Data", _rng("A1", "A1"))
    with pytest.raises(DuplicateName):
        wb.define_name("DATA", _rng("B1", "B1"))


def test_unknown_name():
    wb = Workbook()
    with pytest.raises(UnknownName):
        wb.resolve_name("Nope")


@pytest.mark.parametrize("bad", ["1X", "A B", "", "TRUE", "B2", "x!"])
def test_bad_names_rejected(bad):
    wb = Workbook()
    with pytest.raises(BadName):
        wb.define_name(bad, _rng("A1", "A1"))


@given(st.text(alphabet=string.ascii_letters + string.digits + "_.$", max_size=10))
@example("TRUE")
@example("A01")
@example("$A$1")
@example("XFD1048576")
@example("A12345678")
def test_names_and_addresses_are_read_as_a_formula_reads_them(word):
    try:
        kinds = [token.kind for token in tokenize(word)]
    except LexError:
        kinds = []
    kind = kinds[0] if len(kinds) == 1 else None
    try:
        Workbook().define_name(word, _rng("A1", "A1"))
        refusal = None
    except BadName as exc:
        refusal = str(exc)
    assert (refusal is None) == (kind == "name")
    assert (refusal or "").startswith("name would shadow a cell reference") == (kind == "cellref")
    try:
        parse_a1(word, "Main")
        address = True
    except BadAddress:
        address = False
    assert address == (kind == "cellref")


def test_name_out_of_bounds():
    from gridpipe.workbook import NameOutOfBounds

    wb = Workbook()
    with pytest.raises(NameOutOfBounds):
        wb.define_name("Far", _rng("A1", "A1048577"))


def test_normalized_range_sorts_corners():
    rng = normalized_range(_addr("B2"), _addr("A1"))
    assert rng == _rng("A1", "B2")


@pytest.mark.parametrize(
    "make, a, b, problem",
    [
        (CellRange, "A1", "B2", "range spans sheets: Main!A1 .. Other!B2"),
        (normalized_range, "A1", "B2", "range spans sheets: Main!A1 .. Other!B2"),
        (CellRange, "B2", "A1", "inverted range corners: Main!B2 .. Main!A1"),
    ],
)
def test_a_range_needs_one_sheet_and_ordered_corners(make, a, b, problem):
    # normalized_range orders the corners itself; CellRange takes them as given.
    sheet = "Other" if problem.startswith("range spans") else "Main"
    with pytest.raises(BadAddress, match=f"^{problem}$"):
        make(_addr(a), _addr(b, sheet))


# --- bulk transfer ---------------------------------------------------------------


def test_write_then_read_range_round_trip():
    wb = Workbook()
    rng = _rng("A2", "D2")
    matrix = [["1", "Toga", "Purple", "MCDLIX"]]
    wb.write_range(rng, matrix)
    assert wb.read_range(rng) == matrix
    assert wb.get_value(_addr("D2")) == "MCDLIX"


def test_read_blank_range():
    wb = Workbook()
    assert wb.read_range(_rng("A1", "B2")) == [[BLANK, BLANK], [BLANK, BLANK]]


def test_write_range_shape_mismatch():
    wb = Workbook()
    with pytest.raises(ShapeMismatch):
        wb.write_range(_rng("A1", "D1"), [["a", "b"], ["c", "d"]])


def test_literal_write_over_formula_is_an_error_by_default():
    wb = Workbook()
    wb.set_cell(_addr("A1"), parse_formula("=1+1"))
    with pytest.raises(FormulaOverwrite):
        wb.write_range(_rng("A1", "A1"), [["x"]])


def test_rejected_write_range_changes_no_cell():
    wb = Workbook()
    wb.set_cell(_addr("B1"), parse_formula("=1+1"))
    with pytest.raises(FormulaOverwrite):
        wb.write_range(_rng("A1", "B1"), [["x", "y"]])
    assert wb.get_value(_addr("A1")) is BLANK


def test_write_read_identity_various_shapes():
    wb = Workbook()
    for corner, rows, cols in [("A1", 1, 1), ("C5", 3, 2), ("B9", 2, 4)]:
        start = _addr(corner)
        rng = CellRange(
            start, CellAddress("Main", start.row + rows - 1, start.col + cols - 1)
        )
        matrix = [
            [float(r * 10 + c) for c in range(cols)] for r in range(rows)
        ]
        wb.write_range(rng, matrix)
        assert wb.read_range(rng) == matrix


def test_structure_version_tracks_formulas_not_literals():
    wb = Workbook()
    wb.set_cell(_addr("A1"), 1.0)
    version = wb.structure_version
    wb.set_cell(_addr("A2"), 2.0)
    assert wb.structure_version == version
    wb.set_cell(_addr("A3"), parse_formula("=A1+A2"))
    assert wb.structure_version > version


def test_a_literal_over_a_formula_replaces_it_and_its_dependents_recompute():
    from gridpipe.engine import recalculate

    wb = Workbook()
    wb.set_cell(_addr("A1"), parse_formula("=1+1"))
    wb.set_cell(_addr("B1"), parse_formula("=A1*10"))
    recalculate(wb)
    assert wb.get_value(_addr("B1")) == 20.0
    version = wb.structure_version
    wb.set_cell(_addr("A1"), 5.0)
    assert wb.formula_at(_addr("A1")) is None
    assert wb.structure_version > version
    recalculate(wb)
    assert wb.get_value(_addr("B1")) == 50.0


def test_a_formula_over_a_literal_drops_the_literal_and_its_value():
    wb = Workbook()
    wb.set_cell(_addr("A1"), "x")
    wb.set_cell(_addr("A1"), parse_formula('="y"'))
    assert wb.literal_at(_addr("A1")) is None
    assert wb.get_value(_addr("A1")) is BLANK  # until a recalculation
    assert [is_formula for _, is_formula in wb.populated()] == [True]


def test_a_nan_literal_is_stored_as_num_error():
    from gridpipe.values import NUM_ERROR

    wb = Workbook()
    wb.set_cell(_addr("A1"), float("nan"))
    assert wb.get_value(_addr("A1")) == NUM_ERROR
    assert wb.literal_at(_addr("A1")) == NUM_ERROR
