"""Dependency graph, recalculation, and evaluation semantics."""

from __future__ import annotations

import random

import pytest

import wbgen
from gridpipe.config import load_definition
from gridpipe.engine import (
    _CHUNK,
    CycleError,
    UnknownNameError,
    build_graph,
    compile_plan,
    evaluate_source,
    recalculate,
)
from gridpipe.formula import ParseError, parse_formula
from gridpipe.values import BLANK, DIV0, NA_ERROR, NAME_ERROR, NUM_ERROR, VALUE_ERROR
from gridpipe.workbook import CellAddress, CellRange, Workbook, format_a1, parse_a1

FIXTURES = "fixtures"


def _addr(a1: str, sheet: str = "Main") -> CellAddress:
    return parse_a1(a1, sheet)


def _sheet(cells: dict) -> Workbook:
    wb = Workbook()
    for a1, content in cells.items():
        if isinstance(content, str) and content.startswith("="):
            wb.set_cell(_addr(a1), parse_formula(content))
        else:
            wb.set_cell(_addr(a1), content)
    return wb


# --- build_graph -------------------------------------------------------------


def test_smallest_cycle_is_rejected():
    wb = _sheet({"A1": "=B1", "B1": "=A1"})
    with pytest.raises(CycleError) as err:
        build_graph(wb)
    assert {"Main!A1", "Main!B1"} <= set(err.value.cycle)


def test_self_reference_is_a_cycle():
    wb = _sheet({"A1": "=A1+1"})
    with pytest.raises(CycleError):
        build_graph(wb)


def test_fixture_orders_conversion_before_concatenation():
    wb = load_definition(f"{FIXTURES}/caesar.sheet")
    graph = wb.graph
    arabic_cell = _addr("F2").key()
    concat_cell = _addr("H2").key()
    assert graph.topo_index[arabic_cell] < graph.topo_index[concat_cell]


def test_zero_formulas_gives_empty_graph():
    wb = _sheet({"A1": 1.0, "B1": "text"})
    graph = build_graph(wb)
    assert graph.order == []
    assert recalculate(wb) == 0


def test_unknown_name_rejected_at_build():
    wb = _sheet({"A1": "=Nope+1"})
    with pytest.raises(UnknownNameError):
        build_graph(wb)


def test_graph_survives_literal_writes_but_not_formula_changes():
    wb = _sheet({"A1": 1.0, "B1": "=A1*2"})
    recalculate(wb)
    graph = wb.graph
    wb.set_cell(_addr("A1"), 5.0)
    recalculate(wb, [_addr("A1")])
    assert wb.graph is graph  # literal write: compiled graph reused
    wb.set_cell(_addr("C1"), parse_formula("=B1+1"))
    recalculate(wb)
    assert wb.graph is not graph  # formula change: rebuilt


# --- recalculate ---------------------------------------------------------------


def test_streamed_row_recalculates_downstream_cells():
    wb = load_definition(f"{FIXTURES}/caesar.sheet")
    wb.write_range(
        wb.resolve_name("InputCells"), [["1", "Toga", "Purple", "MCDLIX"]]
    )
    recalculate(wb, wb.resolve_name("InputCells").addresses())
    assert wb.get_value(_addr("F2")) == 1459.0
    assert wb.get_value(_addr("H2")) == "1,Toga,Purple,1459"


def test_empty_dirty_set_evaluates_nothing():
    wb = _sheet({"A1": 1.0, "B1": "=A1"})
    recalculate(wb)
    assert recalculate(wb, []) == 0


def test_each_affected_cell_evaluated_exactly_once():
    # A diamond: D1 depends on B1 and C1, both depend on A1.
    wb = _sheet({"A1": 1.0, "B1": "=A1+1", "C1": "=A1+2", "D1": "=B1+C1"})
    count = recalculate(wb, [_addr("A1")])
    assert count == 3
    assert wb.get_value(_addr("D1")) == 5.0


def test_recalculate_is_idempotent():
    rng = random.Random(4242)
    for _ in range(25):
        wb, _literals = wbgen.make_random_workbook(rng)
        recalculate(wb)
        first = wbgen.snapshot(wb)
        recalculate(wb)
        assert wbgen.snapshot(wb) == first


def test_confluence_of_dirty_set_partitions():
    # Two independent workbooks from the same seed receive the same
    # mutations; one recalculates the dirty set in two halves, the
    # other in one go. Final values must agree.
    for seed in range(25):
        wb_split, lit_a = wbgen.make_random_workbook(random.Random(seed))
        wb_whole, lit_b = wbgen.make_random_workbook(random.Random(seed))
        assert lit_a == lit_b
        recalculate(wb_split)
        recalculate(wb_whole)
        mutations = wbgen.plan_mutations(random.Random(seed + 1), lit_a, count=4)
        touched_a = wbgen.apply_mutations(wb_split, mutations)
        touched_b = wbgen.apply_mutations(wb_whole, mutations)
        if len(touched_a) < 2:
            continue
        half = len(touched_a) // 2
        recalculate(wb_split, touched_a[:half])
        recalculate(wb_split, touched_a[half:])
        recalculate(wb_whole, touched_b)
        assert wbgen.snapshot(wb_split) == wbgen.snapshot(wb_whole)


def test_incremental_equals_full_recalculation():
    rng = random.Random(20260809)
    for _ in range(100):
        wb, literals = wbgen.make_random_workbook(rng)
        recalculate(wb)
        touched = wbgen.mutate_literals(rng, wb, literals)
        recalculate(wb, touched)
        incremental = wbgen.snapshot(wb)

        # Full-recalc oracle: wipe every cached formula value, evaluate all.
        for key in list(wb.values):
            if key not in wb._literals:
                del wb.values[key]
        recalculate(wb)
        assert wbgen.snapshot(wb) == incremental


# --- demand-pruned plans --------------------------------------------------------


def _keys(wb, *names):
    return [key for name in names for key in wb.resolve_name(name).keys()]


@pytest.mark.parametrize(
    "sheet,dirty,observed,cells",
    [
        ("caesar.sheet", ["InputCells"], ["OutputCells"], ["F2", "H2"]),
        (
            "dedup.sheet",
            ["InputCells", "CarryForward"],
            ["OutputCells"],
            ["G2", "H2", "I2", "J2", "K2"],
        ),
        ("compare.sheet", ["LeftCells", "RightCells"], ["Status"], ["K2"]),
    ],
)
def test_fixture_plans_hold_only_observed_work(sheet, dirty, observed, cells):
    wb = load_definition(f"{FIXTURES}/{sheet}")
    plan = compile_plan(wb, _keys(wb, *dirty), _keys(wb, *observed))
    assert sorted(format_a1(row, col) for _, row, col in plan.cells) == cells


def test_pruned_plan_writes_back_only_observed_cells():
    wb = load_definition(f"{FIXTURES}/caesar.sheet")
    recalculate(wb)
    stale = {a1: wb.get_value(_addr(a1)) for a1 in ("F2", "F10")}
    wb.write_range(wb.resolve_name("InputCells"), [["1", "Toga", "Purple", "MCDLIX"]])
    observed = _keys(wb, "OutputCells")
    out = compile_plan(wb, _keys(wb, "InputCells"), observed).run(wb.values)
    wb.values.update(zip(observed, out))
    assert wb.get_value(_addr("H2")) == "1,Toga,Purple,1459"
    # F2 is evaluated but not observed, F10 is not evaluated: both stale
    assert {a1: wb.get_value(_addr(a1)) for a1 in stale} == stale
    recalculate(wb)
    assert [wb.get_value(_addr(a1)) for a1 in stale] == [1459.0, 1459.0]


def test_ranges_over_unobserved_plan_cells_read_fresh_values():
    wb = _sheet(
        {
            "A1": 1.0,
            "B1": "=A1*2",
            "B2": "=A1+1",
            "C1": "=SUM(B1:B1)",
            "C2": "=SUM(Pair)+Single",
            "C3": "=VLOOKUP(2,B1:B2,1)",
        }
    )
    wb.define_name("Pair", CellRange(_addr("B1"), _addr("B2")))
    wb.define_name("Single", CellRange(_addr("B2"), _addr("B2")))
    recalculate(wb)
    wb.set_cell(_addr("A1"), 5.0)
    observed = [_addr(a1).key() for a1 in ("C1", "C2", "C3")]
    out = compile_plan(wb, [_addr("A1").key()], observed).run(wb.values)
    wb.values.update(zip(observed, out))
    assert [wb.get_value(_addr(a1)) for a1 in ("C1", "C2", "C3")] == [10.0, 22.0, NA_ERROR]


def _pruned_step_matches_full_recalculation(rng, max_cells=50):
    wb, literals = wbgen.make_random_workbook(rng, max_cells)
    recalculate(wb)
    dirty = wbgen.mutate_literals(rng, wb, literals, count=rng.randint(1, 4))
    formulas = sorted(wb._formulas)
    observed = rng.sample(formulas, rng.randint(0, len(formulas)))
    out = compile_plan(wb, [addr.key() for addr in dirty], observed).run(wb.values)
    wb.values.update(zip(observed, out))
    got = wbgen.snapshot(wb)
    recalculate(wb)  # depends on the literals alone, so it can run after
    want = wbgen.snapshot(wb)
    return [key for key in observed if got[key] != want[key]]


def test_pruned_plan_agrees_with_full_recalculation():
    # The guard for demand pruning and code generation: over wbgen's
    # random workbooks, a random dirty set and a random observed subset,
    # the compiled pruned step leaves every observed cell equal, by type
    # and repr, to a full recalculation.
    for seed in range(1000):
        assert _pruned_step_matches_full_recalculation(random.Random(seed)) == [], seed


def test_plans_spanning_several_generated_functions_agree_with_full():
    for seed in range(20):
        rng = random.Random(seed)
        assert _pruned_step_matches_full_recalculation(rng, max_cells=600) == [], seed


def test_every_plan_returns_its_observed_values_and_writes_only_hand_overs():
    # One plan contract with or without fields: ``run`` returns the
    # observed values and writes a cell only where a later generated
    # function reads it; ``recalculate`` (observed=None) writes every cell.
    cells = {"A1": 3.0}
    for row in range(2, 13):
        cells[f"A{row}"] = f"=A{row - 1}+1" if row % 2 else f'=LEN(A{row - 1}&"x")'
        cells[f"B{row}"] = f'=A{row}&"-"'
        cells[f"C{row}"] = f"=1/(A{row}-A{row})"
    wb = _sheet(cells)
    observed = sorted(wb._formulas) + [_addr("A1").key(), _addr("Z9").key()]
    random.Random(0).shuffle(observed)
    plan = compile_plan(wb, [_addr("A1").key()], observed)
    assert len(plan.cells) > 2 * _CHUNK
    out = plan.run(wb.values)
    last_chunk = plan.cells[(len(plan.cells) - 1) // _CHUNK * _CHUNK :]
    assert [key for key in last_chunk if key in wb.values] == []
    full = _sheet(cells)
    assert recalculate(full) == len(full._formulas)
    assert set(full._formulas) <= set(full.values)
    want = [full.values.get(key, BLANK) for key in observed]
    assert out.__class__ is tuple
    assert [(v.__class__, repr(v)) for v in out] == [(v.__class__, repr(v)) for v in want]


def test_bare_range_formula_is_value_error():
    wb = _sheet({"A1": 1.0, "A2": 2.0})
    assert evaluate_source(wb, "=A1:A2") == VALUE_ERROR


# --- evaluate ------------------------------------------------------------------


@pytest.mark.parametrize(
    "source,expected",
    [
        ("=1+2", 3.0),
        ('="1"&","&"Toga"', "1,Toga"),
        ('="3"+1', 4.0),  # numeric text coerces, per desktop behaviour
        ("=TRUE+1", 2.0),
        ("=2*3^2", 18.0),
        ("=(1+2)*3", 9.0),
        ('="MC"&"DLIX"', "MCDLIX"),
        ("=1<2", True),
        ('="abc"="ABC"', True),  # text comparison is case-insensitive
        ('="a"<"B"', True),
        ("=1<>1", False),
        ('=IF(Z9,"y","n")', "n"),  # Z9 is blank: FALSE as a condition
        ('=IF(" false ","y","n")', "n"),  # the text FALSE in any case and spacing
        ("=1>Z9", True),  # a blank takes the other side's zero value
        ("=FALSE=Z9", True),
        ("=TRUE=Z9", False),
    ],
)
def test_evaluate_examples(source, expected):
    assert evaluate_source(Workbook(), source) == expected


@pytest.mark.parametrize(
    "source,error",
    [
        ("=1/0", DIV0),
        ('="x"+1', VALUE_ERROR),
        ("=NOPE(1)", NAME_ERROR),
        ("=0^0", NUM_ERROR),
        ("=0^-1", DIV0),
        ("=(-1)^0.5", NUM_ERROR),
        ("=1E308*10", NUM_ERROR),
        ("=IF(A1:A2,1,2)", VALUE_ERROR),  # a range is no condition
        ("=-A1:A2", VALUE_ERROR),  # nor an operand
    ],
)
def test_evaluate_error_values(source, error):
    assert evaluate_source(Workbook(), source) == error


@pytest.mark.parametrize(
    "source,error",
    [('="x"-1', VALUE_ERROR), ('=1-"x"', VALUE_ERROR), ('="x"/1', VALUE_ERROR),
     ('=1/"x"', VALUE_ERROR), ('="x"^2', VALUE_ERROR), ('=2^"x"', VALUE_ERROR),
     ('=2*"x"', VALUE_ERROR), ('=-"x"', VALUE_ERROR), ('=+"x"', VALUE_ERROR),
     ("=10^400", NUM_ERROR)],
)
def test_arithmetic_on_text_or_out_of_range_is_an_error(source, error):
    # Each operator's own error return: the operands are not errors.
    assert evaluate_source(Workbook(), source) == error


def test_blank_coercion_rules():
    wb = Workbook()  # Z9 never set
    assert evaluate_source(wb, "=Z9+1") == 1.0  # blank -> 0 in arithmetic
    assert evaluate_source(wb, '=Z9&"x"') == "x"  # blank -> "" in concat
    assert evaluate_source(wb, "=IF(Z9,1,2)") == 2.0  # blank -> FALSE
    assert evaluate_source(wb, "=NOT(Z9)") is True
    assert evaluate_source(wb, "=Z9=0") is True
    assert evaluate_source(wb, '=Z9=""') is True
    assert evaluate_source(wb, "=Z9=FALSE") is True


def test_mixed_type_ordering_number_text_boolean():
    wb = Workbook()
    assert evaluate_source(wb, '=1<"a"') is True
    assert evaluate_source(wb, '="zzz"<TRUE') is True
    assert evaluate_source(wb, "=99999<FALSE") is True
    assert evaluate_source(wb, '=1="1"') is False  # no cross-type equality


def test_error_propagates_first_in_argument_order():
    wb = _sheet({"A1": "=1/0", "B1": '="x"+0'})
    recalculate(wb)
    assert evaluate_source(wb, "=A1+B1") == DIV0
    assert evaluate_source(wb, "=B1+A1") == VALUE_ERROR
    assert evaluate_source(wb, "=SUM(A1:B1)") == DIV0
    assert evaluate_source(wb, "=IF(TRUE,1,B1)") == 1.0  # the branch not taken


def test_if_evaluates_its_condition_then_only_the_branch_taken():
    wb = _sheet({"A1": 0.0, "B1": 1.0, "B2": 2.0})
    assert evaluate_source(wb, "=IF(A1=0,0,1/A1)") == 0.0
    assert evaluate_source(wb, "=IF(TRUE,1,1/0)") == 1.0
    assert evaluate_source(wb, '=IF(FALSE,1/0,"ok")') == "ok"
    assert evaluate_source(wb, "=IF(1/0,1,2)") == DIV0  # an error in the condition wins
    assert evaluate_source(wb, '=IF("maybe",1,2)') == VALUE_ERROR
    assert evaluate_source(wb, "=IF(TRUE,1,B1:B2)") == 1.0  # a range not taken is no error
    assert evaluate_source(wb, "=IF(FALSE,1,B1:B2)") == VALUE_ERROR
    nested = "IF(FALSE,0," * 64 + "7" + ")" * 64
    assert evaluate_source(wb, "=" + nested) == 7.0
    with pytest.raises(ParseError, match="at most 64 levels of nesting at offset 707"):
        evaluate_source(wb, "=IF(FALSE,0," + nested + ")")  # 65 deep


def test_compare_status_cell_compiles_if_as_control_flow():
    from gridpipe.functions import if_

    wb = load_definition(f"{FIXTURES}/compare.sheet")
    plan = compile_plan(wb, [], _keys(wb, "Status"), _keys(wb, "LeftCells", "RightCells"))
    assert [name for name, value in plan.run.__globals__.items() if value is if_] == []
    assert plan.run(wb.values, ["9", "", "", "", "10", "", "", ""]) == ("RIGHT",)


def test_range_in_scalar_position_is_value_error():
    wb = _sheet({"A1": 1.0, "A2": 2.0})
    recalculate(wb)
    assert evaluate_source(wb, "=A1:A2+1") == VALUE_ERROR
    assert evaluate_source(wb, "=LEN(A1:A2)") == VALUE_ERROR


def test_unknown_name_outside_graph_is_name_error():
    assert evaluate_source(Workbook(), "=Missing+1") == NAME_ERROR


def test_names_resolve_through_evaluation():
    wb = _sheet({"B2": 21.0})
    wb.define_name("Answer", CellRange(_addr("B2"), _addr("B2")))
    assert evaluate_source(wb, "=Answer*2") == 42.0


def test_multi_cell_name_acts_as_range():
    wb = _sheet({"A1": 1.0, "A2": 2.0, "A3": 3.0})
    wb.define_name("Data", CellRange(_addr("A1"), _addr("A3")))
    assert evaluate_source(wb, "=SUM(Data)") == 6.0
    assert evaluate_source(wb, "=Data+1") == VALUE_ERROR


def test_formula_reading_out_of_bounds_cell_is_ref_error():
    from gridpipe.values import REF_ERROR

    wb = Workbook(max_rows=10, max_cols=10)
    assert evaluate_source(wb, "=Z99") == REF_ERROR


def test_wrong_arity_is_value_error():
    wb = Workbook()
    assert evaluate_source(wb, "=LEN()") == VALUE_ERROR
    assert evaluate_source(wb, '=LEN("a","b")') == VALUE_ERROR


# --- record steps -----------------------------------------------------------------

# Field texts that meet numbers, booleans and the wbgen texts t0..t9.
FIELD_TEXTS = ["", "t3", "T3", "12", "TRUE", "-", "b"]


def _add_text_cells(rng, wb, count):
    """Formula cells in column G that compare or join two earlier cells,
    so field texts meet every text operator."""
    keys = sorted(wb._formulas) + sorted(wb._literals)
    for row in range(1, count + 1):
        a, b, c = (format_a1(k[1], k[2]) for k in rng.choices(keys, k=3))
        op = rng.choice(["=", "<>", "<", "<=", ">", ">=", "&"])
        source = rng.choice([f"={a}{op}{b}", f"=IF({a}{op}{b},{c},{a}&{b})"])
        wb.set_cell(_addr(f"G{row}"), parse_formula(source))
        keys.append(("MAIN", row, 7))


def _record_step_matches_full_recalculation(rng, max_cells=50):
    wb, literals = wbgen.make_random_workbook(rng, max_cells)
    _add_text_cells(rng, wb, rng.randint(0, 8))
    recalculate(wb)
    fields = [addr.key() for addr in rng.sample(literals, rng.randint(1, len(literals)))]
    row = [rng.choice(FIELD_TEXTS) for _ in fields]
    cells = sorted(wb._formulas) + sorted(wb._literals)
    observed = rng.sample(cells, rng.randint(0, len(cells)))
    before = wbgen.snapshot(wb)
    out = compile_plan(wb, [], observed, fields).run(wb.values, row)
    written = {k: v for k, v in wbgen.snapshot(wb).items() if before.get(k) != v}
    wb.values.update(zip(fields, row))  # the pipeline's write-back
    wb.values.update(zip(observed, out))
    got = wbgen.snapshot(wb)
    recalculate(wb)  # the fields are in ``values`` now, so this is the oracle
    want = wbgen.snapshot(wb)
    returned = [(v.__class__.__name__, repr(v)) for v in out]
    return (
        [key for key, value in zip(observed, returned) if value != want[key]]
        + [key for key in observed if got[key] != want[key]]
        + [key for key, value in written.items() if value != want[key]]
    )


def test_record_step_agrees_with_full_recalculation():
    # The guard for the record step: random texts passed as the fields
    # of random literal cells give, for a random observed subset, the
    # values a full recalculation computes (by type and repr), and every
    # cell the step writes to ``values`` is fresh.
    for seed in range(1000):
        assert _record_step_matches_full_recalculation(random.Random(seed)) == [], seed


def test_record_steps_spanning_several_generated_functions_agree_with_full():
    for seed in range(20):
        rng = random.Random(seed)
        assert _record_step_matches_full_recalculation(rng, max_cells=600) == [], seed


def _step_values(cells: dict, fields: dict, observed: list):
    """A record step's values for ``fields`` (A1 -> text), checked
    against a full recalculation over the same texts."""
    wb = _sheet(cells)
    recalculate(wb)
    keys = [_addr(a1).key() for a1 in observed]
    row = list(fields.values())
    out = compile_plan(wb, [], keys, [_addr(a1).key() for a1 in fields]).run(wb.values, row)
    for a1, text in fields.items():
        wb.set_cell(_addr(a1), text)
    recalculate(wb)
    assert list(out) == [wb.values.get(key, BLANK) for key in keys]
    return out


@pytest.mark.parametrize(
    "formula,fields,expected",
    [
        ("=A2=B2", {"A2": "a", "B2": "A"}, True),
        ("=A2<B2", {"A2": "b", "B2": "A"}, False),
        ("=A2<>B2", {"A2": "T3", "B2": "t3"}, False),
        ('=A2&"-"&B2', {"A2": "", "B2": "12"}, "-12"),
        ("=A2&C1", {"A2": "x"}, "x5"),  # C1 holds the number 5
        ("=A2=C1", {"A2": "5"}, False),  # text is never equal to a number
        ("=SUM(A1:B3)+LEN(A1)", {"A1": "12"}, 4.0),  # the range skips the text
        ('=IF(A2="0",0,1/A2)', {"A2": "0"}, 0.0),
        ('=IF(A2="0",0,1/A2)', {"A2": "4"}, 0.25),
    ],
)
def test_record_step_examples(formula, fields, expected):
    cells = {"A1": 7.0, "B1": 2.0, "C1": 5.0, "D1": formula}
    assert _step_values(cells, fields, ["D1"]) == (expected,)


def test_record_step_returns_fields_and_errors_in_observed_order():
    cells = {"C1": "=1/0", "D1": "=A1&B1", "E1": "=D1"}
    out = _step_values(cells, {"A1": "x", "B1": ""}, ["E1", "B1", "C1", "Z9", "A1"])
    assert out == ("x", "", DIV0, BLANK, "x")


def test_text_operators_keep_their_text_kind_in_generated_code(monkeypatch):
    import builtins

    import gridpipe.engine as engine

    sources = []
    monkeypatch.setattr(
        engine, "compile", lambda source, *args: sources.append(source) or builtins.compile(source, *args),
        raising=False,
    )
    _step_values({"C1": '=A1&","&B1', "D1": "=C1=B1"}, {"A1": "a", "B1": "b"}, ["D1"])
    [source] = [text for text in sources if "= row" in text]
    assert "t0 = p0 + ','\n" in source and "t1 = t0 + p1\n" in source  # one local per &
    assert "CellError" not in source  # no value here can be an error


def test_a_long_concatenation_compiles():
    # Each & is a local of its own: as one nested expression, 202 pieces
    # passed Python's limit of 200 nested parentheses.
    wb = _sheet({"A1": "a", "B1": 2.0, "C1": "=A1&B1"})
    recalculate(wb)
    assert evaluate_source(wb, "=" + "&".join(["A1", "B1", "C1", "TRUE"] * 125)) == (
        "a2a2TRUE" * 125
    )


def test_text_of_a_cell_that_can_be_an_error_is_checked_where_it_is_read():
    cells = {"A1": "=1/0", "C1": "=A1&B1", "D1": '=C1&"x"'}
    assert _step_values(cells, {"B1": "y"}, ["D1", "C1"]) == (DIV0, DIV0)
    wb = _sheet(cells)
    recalculate(wb)
    assert wb.values[_addr("D1").key()] == DIV0


# Operands of every kind: the formula text of each, and its value.
OPERANDS = [
    ("Z9", BLANK), ("TRUE", True), ("FALSE", False), ("0.1", 0.1), ("1E21", 1e21),
    ("-0", -0.0), ('""', ""), ('"TRUE"', "TRUE"), ('"iv"', "iv"), ("1/0", DIV0),
]
# Where an operand comes from: written in the formula, a formula cell
# in the same plan, a cell holding the value, or a field of the record.
FORMS = ["inline", "formula", "value", "field"]


def _eager(name, args):
    """What the eager implementations give; an error operand, first in
    argument order, wins (IF's: the condition, then the branch taken)."""
    from gridpipe.functions import REGISTRY
    from gridpipe.values import CellError, concat, to_boolean

    if name == "IF":
        if args[0].__class__ is CellError:
            return args[0]
        taken = to_boolean(args[0])
        if taken.__class__ is CellError:
            return taken
        index = 1 if taken else 2
        if index < len(args) and args[index].__class__ is CellError:
            return args[index]
        args = [BLANK if a.__class__ is CellError else a for a in args]
    for arg in args:
        if arg.__class__ is CellError:
            return arg
    return concat(*args) if name == "&" else REGISTRY[name].impl(args)


def test_typed_code_agrees_with_the_eager_implementations():
    rng = random.Random(15)
    shapes = {"&": 2, "EXACT": 2, "ISBLANK": 1, "ARABIC": 1, "IF": 3}
    for case in range(600):
        name = rng.choice(list(shapes))
        arity = shapes[name] - (name == "IF" and rng.random() < 0.25)
        wb = Workbook()
        texts, values, fields, row = [], [], [], []
        for i in range(arity):
            text, value = rng.choice(OPERANDS)
            form = rng.choice(FORMS)
            key = ("MAIN", 1, i + 1)
            if form == "field" and value.__class__ is str:
                fields.append(key)
                row.append(value)
            elif form == "formula":
                wb.set_cell(_addr(format_a1(1, i + 1)), parse_formula("=" + text))
            elif form == "value" and value is not BLANK:
                wb.set_cell(_addr(format_a1(1, i + 1)), value)
            elif form != "value":
                key = None
            texts.append(text if key is None else format_a1(1, i + 1))
            values.append(value)
        source = f"={texts[0]}&{texts[1]}" if name == "&" else f"={name}({','.join(texts)})"
        wb.set_cell(_addr("A3"), parse_formula(source))
        plan = build_graph(wb).plan(wb, None, (("MAIN", 3, 1),), tuple(fields))
        (got,) = plan.run(wb.values, row)
        want = _eager(name, values)
        assert (got.__class__, repr(got)) == (want.__class__, repr(want)), (case, source, values)


def test_the_skip_cell_reads_its_carried_id_once_and_checks_no_boolean(monkeypatch):
    # dedup.sheet's G2 is =IF(ISBLANK(M2),FALSE,EXACT(A2,M2)). M2 lies
    # outside the plan: it is read and checked once, before the IF, and
    # that read is reused in the branch. ISBLANK and EXACT give no error,
    # so nothing checks their results.
    import builtins

    import gridpipe.engine as engine_mod
    from gridpipe.pipeline import run_cells

    sources = []

    def spy(source, *args):
        sources.append(source)
        return builtins.compile(source, *args)

    monkeypatch.setattr(engine_mod, "compile", spy, raising=False)
    wb = load_definition(f"{FIXTURES}/dedup.sheet")
    input_range, skip, _, carry = run_cells(wb)
    plan = compile_plan(wb, carry, (skip,), tuple(input_range.keys()))
    (source,) = sources
    assert source.count("get(('MAIN', 2, 13), BLANK)") == 1
    assert source.count("CellError") == 1  # the check of that read
    values = dict(wb.values)
    assert plan.run(values, ("1", "Toga", "Purple", "I")) == (False,)
    values[("MAIN", 2, 13)] = "1"
    assert plan.run(values, ("1", "Toga", "Purple", "I")) == (True,)


@pytest.mark.parametrize(
    "source, condition, expected",
    [
        # B1 is read before the IF and reused in both branches.
        ('=B1&IF(A1,B1,B1&"!")', True, "xx"),
        ('=B1&IF(A1,B1,B1&"!")', False, "xx!"),
        # A read inside one branch serves neither the other branch nor
        # what follows the IF.
        ('=IF(A1,B1,"n")&B1', True, "xx"),
        ('=IF(A1,B1,"n")&B1', False, "nx"),
        ('=IF(A1,B1,B1&"!")&IF(NOT(A1),B1,"y")', False, "x!x"),
    ],
)
def test_a_cell_read_once_serves_only_code_that_runs_after_it(source, condition, expected):
    wb = _sheet({"A1": condition, "B1": "x"})
    assert evaluate_source(wb, source) == expected
