"""The streaming loop, header handling, skip logic, carry-forward, and
the sorted-file comparison."""

from __future__ import annotations

import io
import logging
import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gridpipe.config import load_definition, load_job
from gridpipe.csvio import encode_record, parse_line, read_records
from gridpipe import errors
from gridpipe.engine import recalculate
from gridpipe.errors import ConfigError, DataError
from gridpipe.formula import parse_formula
from gridpipe.functions import roman_text
from gridpipe.values import VALUE_ERROR, Blank, CellError, render_value
from gridpipe.pipeline import (
    FIELD_COUNT_POLICIES,
    RECORD_ERROR_POLICIES,
    CompareSpec,
    FieldCountError,
    HeaderMismatch,
    PipelineSpec,
    RecordError,
    RunStats,
    StatusCellError,
    compare_files,
    report_progress,
    run_pipeline,
    validate_headers,
)
from gridpipe.workbook import CellRange, Workbook, parse_a1


def _addr(a1, sheet="Main"):
    return parse_a1(a1, sheet)


def _rng(a, b, sheet="Main"):
    return CellRange(_addr(a, sheet), _addr(b, sheet))


def _caesar(workdir):
    return load_definition(workdir / "caesar.sheet")


def _spec(workdir, **kw):
    defaults = dict(
        input_path=str(workdir / "in.csv"),
        output_path=str(workdir / "out.csv"),
    )
    defaults.update(kw)
    return PipelineSpec(**defaults)


def _write(workdir, text, name="in.csv"):
    (workdir / name).write_text(text, encoding="utf-8")


def _output(workdir, name="out.csv"):
    return (workdir / name).read_text(encoding="utf-8")


# --- the streaming loop -------------------------------------------------------


def test_single_row_through_conversion_rules(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n")
    stats = run_pipeline(_spec(workdir), _caesar(workdir))
    assert _output(workdir) == "Id,Item,Colour,Number\n1,Toga,Purple,1459\n"
    assert (stats.records_read, stats.records_written) == (1, 1)


def test_header_only_input(workdir):
    _write(workdir, "Id,Item,Colour,Number\n")
    stats = run_pipeline(_spec(workdir), _caesar(workdir))
    assert _output(workdir) == "Id,Item,Colour,Number\n"
    assert stats == RunStats(0, 0, 0, 0, stats.elapsed)


def test_empty_input_file(workdir):
    _write(workdir, "")
    stats = run_pipeline(_spec(workdir), _caesar(workdir))
    assert _output(workdir) == ""
    assert stats.records_read == 0


def test_header_policy_none_streams_first_line(workdir):
    _write(workdir, "7,Crown,Gold,XIX\n")
    run_pipeline(_spec(workdir, has_headings=False), _caesar(workdir))
    assert _output(workdir) == "7,Crown,Gold,19\n"


def test_header_validation_passes_and_mismatch_fails(workdir):
    wb = _caesar(workdir)
    _write(workdir, "Id,Item,Color,Number\n1,Toga,Purple,I\n")
    spec = _spec(
        workdir,
        has_headings=True,
        expected_headers=["Id", "Item", "Colour", "Number"],
    )
    with pytest.raises(HeaderMismatch) as err:
        run_pipeline(spec, wb)
    assert "position 3" in str(err.value)

    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,I\n")
    stats = run_pipeline(spec, wb)
    assert stats.records_written == 1


def test_fields_enter_cells_as_text_never_coerced(workdir):
    # Dates and zero-padded codes must come out exactly as they went in.
    wb = Workbook()
    wb.set_cell(_addr("B2"), parse_formula("=A2"))
    wb.define_name("InputCells", _rng("A2", "A2"))
    wb.define_name("OutputCells", _rng("B2", "B2"))
    _write(workdir, "h\n13/1/2012\n00123\n3.10\n")
    run_pipeline(_spec(workdir), wb)
    assert _output(workdir) == "h\n13/1/2012\n00123\n3.10\n"


def test_field_count_strict_fails_fast(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga\n")
    with pytest.raises(FieldCountError):
        run_pipeline(_spec(workdir, field_count_policy="strict"), _caesar(workdir))


def test_field_count_strict_lenient_counts_errors(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga\n2,Belt,Tan,V\n")
    stats = run_pipeline(
        _spec(workdir, field_count_policy="strict", on_record_error="skip-and-log"),
        _caesar(workdir),
    )
    assert (stats.records_read, stats.records_written, stats.records_errored) == (2, 1, 1)
    assert _output(workdir).splitlines()[1] == "2,Belt,Tan,5"


def test_pad_truncate_policy(workdir):
    wb = Workbook()
    wb.set_cell(_addr("C2"), parse_formula('=A2&"|"&B2'))
    wb.define_name("InputCells", _rng("A2", "B2"))
    wb.define_name("OutputCells", _rng("C2", "C2"))
    _write(workdir, "h1,h2\nonly\nx,y,extra\n")
    run_pipeline(_spec(workdir), wb)
    assert _output(workdir).splitlines()[1:] == ["only|", "x|y"]


def test_output_cell_error_fail_fast_and_lenient(workdir):
    wb = _caesar(workdir)
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,NOPE\n2,Belt,Tan,V\n")
    with pytest.raises(RecordError):
        run_pipeline(_spec(workdir), wb)
    stats = run_pipeline(_spec(workdir, on_record_error="skip-and-log"), wb)
    assert (stats.records_errored, stats.records_written) == (1, 1)
    assert stats.records_read == stats.records_written + stats.records_skipped + stats.records_errored


def test_output_cell_error_names_the_cell_in_a1(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,NOPE\n")
    with pytest.raises(RecordError) as err:
        run_pipeline(_spec(workdir), _caesar(workdir))
    assert str(err.value) == "record 1: output cell Main!H2 is #VALUE!"


def test_skip_cell_error_names_the_cell_in_a1(workdir):
    _write(workdir, "n,word\nx,bad\n")
    with pytest.raises(RecordError) as err:
        run_pipeline(_spec(workdir), _skip_workbook())
    assert str(err.value) == "record 1: skip cell Main!C2 is #VALUE!"


def test_run_stats_list_the_pruned_plan(workdir):
    _write(workdir, "Id,Item,Colour,Number\n")
    stats = run_pipeline(_spec(workdir), _caesar(workdir))
    assert stats.plan_cells == ["Main!F2", "Main!H2"]
    assert stats.as_dict()["plan_cells"] == ["Main!F2", "Main!H2"]


def _constant_workbook(output, constant_cell="Z1"):
    # A freshly built workbook: no cell has been evaluated yet.
    wb = Workbook()
    wb.set_cell(_addr(constant_cell), parse_formula("=1000"))
    wb.set_cell(_addr("C2"), parse_formula(output))
    wb.define_name("Scale", _rng(constant_cell, constant_cell))
    wb.define_name("InputCells", _rng("A2", "B2"))
    wb.define_name("OutputCells", _rng("C2", "C2"))
    return wb


@pytest.mark.parametrize("output", ["=ARABIC(B2)/Z1", "=ARABIC(B2)/Scale"])
def test_run_reads_formula_constants_outside_the_stream(workdir, output):
    # Z1 is upstream of the output but not fed by the input, so it is
    # not in the per-record plan; the run must still compute it first.
    _write(workdir, "n,roman\n1,MM\n2,D\n")
    stats = run_pipeline(_spec(workdir), _constant_workbook(output))
    assert stats.plan_cells == ["Main!C2"]
    assert _output(workdir) == "n,roman\n2\n0.5\n"


def test_run_leaves_the_workings_it_does_not_need_unevaluated(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n")
    wb = _caesar(workdir)
    run_pipeline(_spec(workdir), wb)
    workings = [key for key in wb._formulas if key[1] >= 7]  # B7 to F10
    assert len(workings) == 13
    assert [key for key in workings if key in wb.values] == []
    assert wb.get_value(_addr("F10")).__class__ is Blank


def test_run_does_not_evaluate_thousands_of_unobserved_workings(workdir):
    # Z1 is a constant the output reads; the 2,000 workings in D-E read
    # the input and Z1 but no output reads them.
    wb = _constant_workbook("=ARABIC(B2)/Z1")
    for row in range(1, 1001):
        wb.set_cell(_addr(f"D{row}"), parse_formula(f"=LEN(B2)+Z1+{row}"))
        wb.set_cell(_addr(f"E{row}"), parse_formula(f"=Z1*{row}"))
    _write(workdir, "n,roman\n1,MM\n2,D\n")
    stats = run_pipeline(_spec(workdir), wb)
    assert _output(workdir) == "n,roman\n2\n0.5\n"
    assert stats.plan_cells == ["Main!C2"]
    workings = [key for key in wb._formulas if key[2] in (4, 5)]
    assert len(workings) == 2000
    assert [key for key in workings if key in wb.values] == []


def test_input_range_over_formula_cells_is_rejected(workdir):
    wb = _joining_workbook(2)
    wb.set_cell(_addr("B2"), parse_formula("=A2"))
    with pytest.raises(ConfigError, match="input range Main!A2:B2 overlaps formula cell Main!B2"):
        run_pipeline(_spec(workdir), wb)


def test_unknown_range_name_is_config_error(workdir):
    _write(workdir, "h\n")
    for name, missing in ("InputCells", "OutputCells"), ("OutputCells", "InputCells"):
        wb = Workbook()
        wb.define_name(name, _rng("A2", "A2"))
        with pytest.raises(ConfigError, match=f"^the definition does not define '{missing}'$"):
            run_pipeline(_spec(workdir), wb)


def test_run_leaves_input_and_output_cells_holding_the_last_record(workdir):
    # The step keeps fields and outputs out of the workbook per record;
    # the run writes the last record's back once, errored or not.
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,V\n2,Belt,Tan,MCDLIX\n")
    wb = _caesar(workdir)
    run_pipeline(_spec(workdir), wb)
    assert wb.read_range(wb.resolve_name("InputCells")) == [["2", "Belt", "Tan", "MCDLIX"]]
    assert wb.read_range(wb.resolve_name("OutputCells")) == [["2,Belt,Tan,1459"]]

    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,V\n2,Belt,Tan\n")  # padded
    run_pipeline(_spec(workdir, on_record_error="skip-and-log"), wb)
    assert wb.read_range(wb.resolve_name("InputCells")) == [["2", "Belt", "Tan", ""]]
    assert wb.read_range(wb.resolve_name("OutputCells")) == [[VALUE_ERROR]]


def test_failed_run_leaves_no_output_file(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,I\n2,Belt,Tan,NOPE\n")
    before = sorted(path.name for path in workdir.iterdir())
    with pytest.raises(RecordError):
        run_pipeline(_spec(workdir), _caesar(workdir))
    assert sorted(path.name for path in workdir.iterdir()) == before  # no output, no temp file


def _echo_workbook(width, carry=None):
    """Output cells F2.. echo the input cells A2..; ``carry`` is the
    corners of a CarryForward range on row 5."""
    wb = Workbook()
    for col in range(width):
        wb.set_cell(_addr(f"{'FGHIJ'[col]}2"), parse_formula(f"={'ABCDE'[col]}2"))
    wb.define_name("InputCells", _rng("A2", f"{'ABCDE'[width - 1]}2"))
    wb.define_name("OutputCells", _rng("F2", f"{'FGHIJ'[width - 1]}2"))
    if carry:
        wb.define_name("CarryForward", _rng(*carry))
    return wb


def test_multi_cell_payload_is_quoted_and_carried_unquoted(workdir):
    _write(workdir, 'h,h\n"Toga, large","5"" wide"\nplain,text\n')
    wb = _echo_workbook(2, carry=("A5", "B5"))
    run_pipeline(_spec(workdir), wb)
    assert _output(workdir) == 'h,h\n"Toga, large","5"" wide"\nplain,text\n'
    assert wb.read_range(wb.resolve_name("CarryForward")) == [["plain", "text"]]

    _write(workdir, 'h,h\n"Toga, large",x\n')
    wb = _echo_workbook(2, carry=("A5", "A5"))
    run_pipeline(_spec(workdir), wb)
    assert wb.get_value(_addr("A5")) == '"Toga, large",x'  # the line as written


_PAYLOAD_TEXT = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",),
        # A leading BOM is dropped as the file's byte order mark, and
        # Python 3.10's csv module rejects NUL.
        blacklist_characters="\x00\ufeff",
    ),
    max_size=6,
)


@given(
    width=st.integers(min_value=2, max_value=4),
    rows=st.lists(st.lists(_PAYLOAD_TEXT, min_size=4, max_size=4), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_multi_cell_payload_reads_back_as_written(tmp_path_factory, width, rows):
    rows = [row[:width] for row in rows]
    tmp = tmp_path_factory.mktemp("payload")
    (tmp / "in.csv").write_text("".join(encode_record(row) + "\n" for row in rows), encoding="utf-8")
    spec = _spec(tmp, has_headings=False)
    run_pipeline(spec, _echo_workbook(width))
    assert [fields for _, fields in read_records(spec.output_path)] == rows


def _joining_workbook(width, output=None):
    """Output cell H2 builds the line on the sheet, caesar's way: the
    input fields A2.. joined with ``&","&``, unless ``output`` is given."""
    wb = Workbook()
    joined = '&","&'.join(f"{'ABCD'[col]}2" for col in range(width))
    wb.set_cell(_addr("H2"), parse_formula(output or f"={joined}"))
    wb.define_name("InputCells", _rng("A2", f"{'ABCD'[width - 1]}2"))
    wb.define_name("OutputCells", _rng("H2", "H2"))
    return wb


@given(
    width=st.integers(min_value=2, max_value=4),
    rows=st.lists(st.lists(_PAYLOAD_TEXT, min_size=4, max_size=4), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_single_cell_line_is_written_only_if_it_reads_back(tmp_path_factory, width, rows):
    rows = [row[:width] for row in rows]
    header = [f"h{col}" for col in range(width)]
    tmp = tmp_path_factory.mktemp("single")
    (tmp / "in.csv").write_text(
        "".join(encode_record(row) + "\n" for row in [header, *rows]), encoding="utf-8"
    )
    spec = _spec(tmp, on_record_error="skip-and-log")
    stats = run_pipeline(spec, _joining_workbook(width))
    records = [fields for _, fields in read_records(spec.output_path)]
    assert records[0] == header
    assert len(records) - 1 == stats.records_written
    assert all(len(fields) in (1, width) for fields in records[1:])
    assert stats.records_read == stats.records_written + stats.records_errored


def test_a_single_cell_line_the_sheet_quotes_is_written_verbatim(workdir):
    _write(workdir, "h1,h2\na\n")
    stats = run_pipeline(_spec(workdir), _joining_workbook(1, '=A2&",""x,y"""'))
    assert stats.records_written == 1
    assert _output(workdir) == 'h1,h2\na,"x,y"\n'
    assert [fields for _, fields in read_records(workdir / "out.csv")][1] == ["a", "x,y"]


@pytest.mark.parametrize(
    "field, output, problem",
    [
        ("a", '=A2&",""x"', "does not read back: unexpected end of data"),
        ("a", '=A2&",""x"",y"', "reads back as 3 fields, the header has 2"),
        ("\n", '="""x"""&A2', "reads back as 2 records"),
        ("a", '=A2&",b,c"', "reads back as 3 fields, the header has 2"),
        ("\r", "=A2", "holds a line break outside quotes"),
    ],
    ids=["open-quote", "too-wide-quoted", "two-records", "too-wide", "bare-cr"],
)
def test_a_single_cell_line_that_does_not_read_back_is_a_record_error(
    workdir, field, output, problem
):
    _write(workdir, "h1,h2\n" + encode_record([field]) + "\n")
    with pytest.raises(RecordError) as err:
        run_pipeline(_spec(workdir), _joining_workbook(1, output))
    assert str(err.value) == f"record 1: output cell Main!H2 {problem}"


@pytest.mark.parametrize("headers, written", [(None, 1), (["h1", "h2"], 0)])
def test_without_a_header_line_the_expected_headers_set_the_width(workdir, headers, written):
    # Without a header line the line must be one record, as wide as
    # expected-headers if there are any.
    _write(workdir, "a\n")
    spec = _spec(
        workdir, has_headings=False, expected_headers=headers, on_record_error="skip-and-log"
    )
    stats = run_pipeline(spec, _joining_workbook(1, '=A2&",b,c"'))
    assert (stats.records_written, stats.records_errored) == (written, 1 - written)


# --- skip and carry-forward -----------------------------------------------------


def _skip_workbook(flag='=IF(VALUE(A2)>5,"Skip","")'):
    """Input A2:B2, Skip cell C2 computing ``flag`` (by default Skip for
    values > 5), and D2 writing the first field."""
    wb = Workbook()
    wb.set_cell(_addr("C2"), parse_formula(flag))
    wb.set_cell(_addr("D2"), parse_formula("=A2"))
    wb.define_name("InputCells", _rng("A2", "B2"))
    wb.define_name("OutputCells", _rng("C2", "D2"))
    wb.define_name("Skip", _rng("C2", "C2"))
    return wb


def test_skip_sentinel_text(workdir):
    _write(workdir, "n,word\n3,keep\n9,drop\n4,keep\n")
    stats = run_pipeline(_spec(workdir), _skip_workbook())
    assert _output(workdir) == "n,word\n3\n4\n"
    assert stats.records_skipped == 1


def test_skip_sentinel_matching_is_case_insensitive(workdir):
    _write(workdir, "h\nrow\n")
    stats = run_pipeline(_spec(workdir), _skip_workbook('="skip"'))
    assert stats.records_skipped == 1
    assert _output(workdir) == "h\n"


def test_skip_cell_boolean_true(workdir):
    _write(workdir, "h\nx\ny\n")
    stats = run_pipeline(_spec(workdir), _skip_workbook('=A2="x"'))
    assert _output(workdir) == "h\ny\n"
    assert stats.records_skipped == 1


@pytest.mark.parametrize("flag", ["=FALSE", "=Z9", '="Skipped"', '=" Skip"', "=1"])
def test_a_skip_cell_keeps_a_record_unless_true_or_skip(workdir, flag):
    # TRUE, Skip and skip drop it: see the three tests above.
    _write(workdir, "h\nrow\n")
    stats = run_pipeline(_spec(workdir), _skip_workbook(flag))
    assert (stats.records_skipped, _output(workdir)) == (0, "h\nrow\n")


@pytest.mark.parametrize(
    "sentinel, written", [(False, "h\ny\nFALSE\nSkip\n"), ("Skip", "h\nx\ny\nFALSE\n")]
)
def test_skip_sentinel_false_skips_false_records_only(workdir, sentinel, written):
    # Skip is the one sentinel: another is written as a comparison in the
    # Skip cell's formula.
    compare = "=FALSE" if sentinel is False else ""
    _write(workdir, "h\nx\ny\nFALSE\nSkip\n")
    stats = run_pipeline(_spec(workdir), _skip_workbook(f'=IF(A2="x",FALSE,A2){compare}'))
    assert _output(workdir) == written
    assert stats.records_skipped == 1


@pytest.mark.parametrize(
    "removed, written, skipped",
    [
        ((), ["1,Toga,Purple,1", "2,Belt,Tan,5"], 1),
        (("CarryForward",), ["1,Toga,Purple,1", "1,Toga,White,2", "2,Belt,Tan,5"], 0),
        (("Skip", "CarryForward"),
         ["FALSE,1,Toga,Purple,1", "FALSE,1,Toga,White,2", "FALSE,2,Belt,Tan,5"], 0),
    ],
    ids=["both", "no-carry-forward", "neither"],
)
def test_defining_skip_and_carry_forward_turns_their_roles_on(workdir, removed, written, skipped):
    lines = (workdir / "dedup.sheet").read_text(encoding="utf-8").splitlines(True)
    _write(workdir, "".join(line for line in lines if not line.startswith(removed)), "dedup.sheet")
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,I\n1,Toga,White,II\n2,Belt,Tan,V\n")
    stats = run_pipeline(_spec(workdir), load_definition(workdir / "dedup.sheet"))
    assert _output(workdir).splitlines()[1:] == written
    assert stats.records_skipped == skipped


def test_dedup_against_first_occurrence_oracle(workdir):
    rng = random.Random(11)
    rows = []
    for _ in range(200):
        key = rng.randint(1, 40)
        rows.append(
            [str(key), rng.choice(["Toga", "Belt"]), rng.choice(["Red", "Blue"]),
             roman_text(rng.randint(1, 3999))]
        )
    rows.sort(key=lambda r: int(r[0]))  # duplicates become consecutive

    # Independent oracle: keep the first row per key, in order.
    seen, expected = set(), []
    for row in rows:
        if row[0] in seen:
            continue
        seen.add(row[0])
        from gridpipe.functions import arabic_value

        expected.append(",".join(row[:3] + [str(int(arabic_value(row[3])))]))

    _write(
        workdir,
        "Id,Item,Colour,Number\n" + "".join(",".join(r) + "\n" for r in rows),
    )
    wb = load_definition(workdir / "dedup.sheet")
    stats = run_pipeline(_spec(workdir), wb)
    assert _output(workdir).splitlines()[1:] == expected
    assert stats.records_skipped == 200 - len(expected)


def test_carry_forward_holds_last_kept_record(workdir):
    _write(workdir, "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n1,Toga,White,XC\n")
    wb = load_definition(workdir / "dedup.sheet")
    run_pipeline(_spec(workdir), wb)
    carried = wb.read_range(wb.resolve_name("CarryForward"))
    assert carried == [["1", "Toga", "Purple", "1459"]]


def test_single_cell_carry_forward_receives_joined_record(workdir):
    wb = Workbook()
    wb.set_cell(_addr("C2"), parse_formula("=A2"))
    wb.set_cell(_addr("D2"), parse_formula("=B2"))
    wb.define_name("InputCells", _rng("A2", "B2"))
    wb.define_name("OutputCells", _rng("C2", "D2"))
    wb.define_name("CarryForward", _rng("F2", "F2"))
    _write(workdir, "h1,h2\na,b\nc,d\n")
    run_pipeline(_spec(workdir), wb)
    assert wb.get_value(_addr("F2")) == "c,d"


def test_carry_forward_width_must_match_payload(workdir):
    wb = _caesar(workdir)
    wb.define_name("CarryForward", _rng("M2", "N2"))  # payload is one cell
    _write(workdir, "h\n")
    with pytest.raises(ConfigError, match="carry-forward range holds 2 cells; expected 1 or 1"):
        run_pipeline(_spec(workdir), wb)


def test_row_local_pipeline_commutes_with_permutation(workdir):
    wb_a = _caesar(workdir)
    rng = random.Random(5)
    rows = [
        f"{i},Item{i},Colour{i},{roman_text(rng.randint(1, 3999))}"
        for i in range(30)
    ]
    _write(workdir, "h,h,h,h\n" + "".join(r + "\n" for r in rows))
    run_pipeline(_spec(workdir), wb_a)
    original = _output(workdir).splitlines()[1:]

    order = list(range(30))
    rng.shuffle(order)
    _write(workdir, "h,h,h,h\n" + "".join(rows[i] + "\n" for i in order))
    run_pipeline(_spec(workdir), _caesar(workdir))
    permuted = _output(workdir).splitlines()[1:]
    assert permuted == [original[i] for i in order]


# --- the generated record loop against public calls -----------------------------

# Formulas over the input A2:C2 and the carry-forward cells from M2: a
# bad numeral in B2 makes ARABIC an error value, and a field holding a
# comma or a quote makes the joined lines need quoting.
_PAYLOAD_FORMULAS = ["=A2", "=ARABIC(B2)", '=A2&","&B2', "=A2&M2", "=LEN(A2)+1", '=B2="I"',
                     '="""q"""&A2', '=M2&"|"&N2']
# A single output cell is the line as written: these build one.
_LINE_FORMULAS = ['=A2&","&B2', '=A2&","&B2&","&C2', '="""q"""&A2&","&B2', "=A2&M2",
                  '=A2&","&ARABIC(B2)']
_SKIP_FORMULAS = ['=A2="skip"', '=IF(ARABIC(B2)>100,"Skip","")', "=EXACT(A2,M2)"]
_FIELDS = st.sampled_from(["I", "XIV", "MCDLIX", "Q", "", "skip", "a,b", 'say "hi"', "x\ny"])


def _glue_workbook(width, payload, skip, skip_in_output, carry, m2_error):
    """Input A2 to C2 (``width`` cells), payload H2 on, a Skip cell G2
    (in OutputCells if ``skip_in_output``) and ``carry`` cells from M2,
    which holds #VALUE! to begin with if ``m2_error``."""
    wb = Workbook()
    if m2_error:
        wb.set_cell(_addr("M2"), VALUE_ERROR)
    for col, formula in zip("HIJ", payload):
        wb.set_cell(_addr(f"{col}2"), parse_formula(formula))
    wb.define_name("InputCells", _rng("A2", f"{'ABC'[width - 1]}2"))
    first = "G2" if skip is not None and skip_in_output else "H2"
    wb.define_name("OutputCells", _rng(first, f"{'HIJ'[len(payload) - 1]}2"))
    if skip is not None:
        wb.set_cell(_addr("G2"), parse_formula(skip))
        wb.define_name("Skip", _rng("G2", "G2"))
    if carry:
        wb.define_name("CarryForward", _rng("M2", f"{'MNO'[carry - 1]}2"))
    return wb


def _reads_back(line, width):
    """Why a single-cell line does not read back as one record of 1 or
    ``width`` fields (any number if None), or None if it does."""
    if '"' in line:
        try:
            records = parse_line(line)
        except DataError as exc:
            return f"does not read back: {exc}"
        if len(records) != 1:
            return f"reads back as {len(records)} records"
        count = len(records[0])
    elif "\n" in line or "\r" in line:
        return "holds a line break outside quotes"
    else:
        count = line.count(",") + 1
    if width is not None and count not in (1, width):
        return f"reads back as {count} fields, the header has {width}"
    return None


def _reference_run(wb, path, spec):
    """What ``run_pipeline`` should do, record by record through public
    calls: write the fields to the input range, recalculate, read the
    output cells and encode them. Returns the output text (None if the
    run fails), the four counts, the warnings, the error raised and
    whether any record was written to the input range."""
    input_range = wb.resolve_name("InputCells")
    width = input_range.size()
    skip = wb.resolve_name("Skip").start if wb.has_name("Skip") else None
    payload = [addr for addr in wb.resolve_name("OutputCells").addresses() if addr != skip]
    carry = wb.resolve_name("CarryForward") if wb.has_name("CarryForward") else None
    records = [fields for _, fields in read_records(path)]
    lines = []
    header_width = len(spec.expected_headers) if spec.expected_headers else None
    if spec.has_headings and records:
        header = records.pop(0)
        lines.append(encode_record(header))
        header_width = len(header)
    counts, warnings, reached = [0, 0, 0, 0], [], False
    for number, fields in enumerate(records, start=1):
        counts[0] += 1
        try:
            if len(fields) != width:
                if spec.field_count_policy == "strict":
                    raise FieldCountError(
                        f"record {number}: {len(fields)} fields, input range holds {width}")
                fields = (fields + [""] * width)[:width]
            wb.write_range(input_range, [fields])
            recalculate(wb)
            reached = True
            if skip is not None:
                flag = wb.get_value(skip)
                if flag is True or isinstance(flag, str) and flag.upper() == "SKIP":
                    counts[2] += 1
                    continue
            roles = [("skip cell", skip)] if skip is not None else []
            for role, addr in roles + [("output cell", addr) for addr in payload]:
                value = wb.get_value(addr)
                if isinstance(value, CellError):
                    raise RecordError(f"record {number}: {role} {addr} is {value.code}")
            texts = [render_value(wb.get_value(addr)) for addr in payload]
            line = encode_record(texts) if len(texts) > 1 else texts[0]
            problem = None if len(texts) > 1 else _reads_back(line, header_width)
            if problem is not None:
                raise RecordError(f"record {number}: output cell {payload[0]} {problem}")
        except DataError as exc:
            counts[3] += 1
            if spec.on_record_error == "fail-fast":
                return None, counts, warnings, exc, reached
            warnings.append(f"{exc} (record skipped)")
            continue
        lines.append(line)
        counts[1] += 1
        if carry is not None:
            wb.write_range(carry, [[line] if carry.size() == 1 else texts])
    return "".join(line + "\n" for line in lines), counts, warnings, None, reached


@given(
    width=st.integers(min_value=2, max_value=3),
    payload=st.one_of(st.lists(st.sampled_from(_PAYLOAD_FORMULAS), min_size=2, max_size=3),
                      st.sampled_from(_PAYLOAD_FORMULAS + _LINE_FORMULAS).map(lambda f: [f])),
    skip=st.one_of(st.none(), st.sampled_from(_SKIP_FORMULAS)),
    skip_in_output=st.booleans(),
    carry=st.sampled_from(["none", "one", "payload"]),
    m2_error=st.booleans(),
    headings=st.booleans(),
    header=st.lists(st.sampled_from(["Id", "Name", "Number"]), min_size=1, max_size=3),
    expected=st.booleans(),
    rows=st.lists(st.lists(_FIELDS, min_size=1, max_size=4), max_size=6),
    field_count_policy=st.sampled_from(FIELD_COUNT_POLICIES),
    on_record_error=st.sampled_from(RECORD_ERROR_POLICIES),
)
# Without the explain phase: on a failure it took minutes to re-run
# examples before reporting one.
@settings(max_examples=250, deadline=None, phases=set(Phase) - {Phase.explain})
def test_the_record_loop_matches_a_reference_built_from_public_calls(
    tmp_path_factory, width, payload, skip, skip_in_output, carry, m2_error, headings, header,
    expected, rows, field_count_policy, on_record_error,
):
    carry = {"none": 0, "one": 1, "payload": len(payload)}[carry]
    tmp = tmp_path_factory.mktemp("glue")
    if headings:  # the header line's width need not be the input range's
        rows = [header, *rows]
    (tmp / "in.csv").write_text("".join(encode_record(row) + "\n" for row in rows),
                                encoding="utf-8")
    spec = _spec(tmp, has_headings=headings, expected_headers=header if expected else None,
                 field_count_policy=field_count_policy, on_record_error=on_record_error)
    shape = (width, payload, skip, skip_in_output, carry, m2_error)
    reference = _glue_workbook(*shape)
    text, counts, warnings, error, reached = _reference_run(reference, tmp / "in.csv", spec)

    def cells(wb, *names):
        return [wb.read_range(wb.resolve_name(name)) for name in names if wb.has_name(name)]

    wb = _glue_workbook(*shape)
    logged = []
    errors.printer = logged.append
    try:
        stats = run_pipeline(spec, wb)
    except DataError as exc:
        assert (type(exc), str(exc)) == (type(error), str(error))
        assert not (tmp / "out.csv").exists()
    else:
        assert error is None
        assert (tmp / "out.csv").read_bytes() == text.encode("utf-8")
        assert [stats.records_read, stats.records_written, stats.records_skipped,
                stats.records_errored] == counts
        if reached:  # the last record's fields and values, which a failed run leaves
            assert cells(wb, "InputCells", "OutputCells") == cells(reference, "InputCells",
                                                                   "OutputCells")
    finally:
        errors.printer = None
    assert logged == warnings
    assert cells(wb, "CarryForward") == cells(reference, "CarryForward")


# --- validate_headers -------------------------------------------------------------


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def test_validate_headers_ok(caplog):
    caplog.set_level(logging.WARNING)
    validate_headers(["Id", "Item", "Colour", "Number"], ["Id", "Item", "Colour", "Number"])
    assert _warnings(caplog) == []


def test_validate_headers_reports_first_difference():
    with pytest.raises(HeaderMismatch) as err:
        validate_headers(["Id", "Item", "Color", "Number"], ["Id", "Item", "Colour", "Number"])
    assert str(err.value) == "header mismatch at position 3: found 'Color', expected 'Colour'"


def test_validate_headers_trims_with_warning(workdir, caplog):
    # validate_headers trims silently: the warning comes once, from the
    # header check that loading the job makes.
    caplog.set_level(logging.WARNING)
    validate_headers([" Item "], ["Item"])
    assert _warnings(caplog) == []
    _write(workdir, "Id, Item ,Colour,Number\n", "caesar_in.csv")
    load_job(workdir / "caesar.job")
    assert _warnings(caplog) == ["superfluous spaces in header 2: ' Item '"]


def test_validate_headers_length_mismatch():
    with pytest.raises(HeaderMismatch, match="at position 2: found '<missing>', expected 'Item'"):
        validate_headers(["Id"], ["Id", "Item"])


def test_validate_headers_is_case_insensitive():
    validate_headers(["ID"], ["id"])


# --- progress ----------------------------------------------------------------------


def test_report_progress_lines():
    stream = io.StringIO()
    for n in (1, 2, 3):
        report_progress(RunStats(records_read=n), 1, stream)
    assert stream.getvalue().splitlines() == [
        "records processed: 1",
        "records processed: 2",
        "records processed: 3",
    ]
    stream = io.StringIO()
    for n in range(1, 25001):
        if n % 10000 == 0:
            report_progress(RunStats(records_read=n), 10000, stream)
    assert len(stream.getvalue().splitlines()) == 2


def test_pipeline_emits_progress_to_stream(workdir):
    _write(workdir, "h\na\nb\nc\n")
    wb = Workbook()
    wb.set_cell(_addr("B2"), parse_formula("=A2"))
    wb.define_name("InputCells", _rng("A2", "A2"))
    wb.define_name("OutputCells", _rng("B2", "B2"))
    stream = io.StringIO()
    run_pipeline(_spec(workdir), wb, progress_every=1, progress_stream=stream)
    assert len(stream.getvalue().splitlines()) == 3


# --- compare_files -------------------------------------------------------------------


def test_compare_identical_files(workdir):
    text = "1,Toga,Purple,1459\n2,Belt,Tan,5\n"
    _write(workdir, text, "left.csv")
    _write(workdir, text, "right.csv")
    wb = load_definition(workdir / "compare.sheet")
    report = compare_files(
        CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb
    )
    assert report.left_only == report.right_only == []
    assert report.matches == 2


def test_compare_reports_one_sided_records(workdir):
    _write(workdir, "1,a,b,c\n2,d,e,f\n3,g,h,i\n", "left.csv")
    _write(workdir, "2,d,e,f\n3,g,h,i\n4,j,k,l\n", "right.csv")
    wb = load_definition(workdir / "compare.sheet")
    report = compare_files(
        CompareSpec(
            str(workdir / "left.csv"),
            str(workdir / "right.csv"),
            output_path=str(workdir / "diff.txt"),
        ),
        wb,
    )
    assert report.left_only == ["1,a,b,c"]
    assert report.right_only == ["4,j,k,l"]
    assert (workdir / "diff.txt").read_text() == "< 1,a,b,c\n> 4,j,k,l\n"


def test_compare_against_set_difference_oracle(workdir):
    rng = random.Random(21)
    left_keys = sorted(rng.sample(range(1000), 120))
    right_keys = sorted(rng.sample(range(1000), 120))
    left_rows = [f"{k:04d},x,y,z" for k in left_keys]
    right_rows = [f"{k:04d},x,y,z" for k in right_keys]
    _write(workdir, "".join(r + "\n" for r in left_rows), "left.csv")
    _write(workdir, "".join(r + "\n" for r in right_rows), "right.csv")
    wb = load_definition(workdir / "compare.sheet")
    report = compare_files(
        CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb
    )
    only_left = set(left_keys) - set(right_keys)
    only_right = set(right_keys) - set(left_keys)
    assert report.left_only == [f"{k:04d},x,y,z" for k in sorted(only_left)]
    assert report.right_only == [f"{k:04d},x,y,z" for k in sorted(only_right)]
    assert report.matches == len(set(left_keys) & set(right_keys))


@pytest.mark.parametrize("verdict", ["Z1", "Verdict"])
def test_compare_reads_formula_constants_outside_the_stream(workdir, verdict):
    wb = Workbook()
    wb.set_cell(_addr("Z1"), parse_formula('="MATCH"'))
    wb.set_cell(
        _addr("K2"),
        parse_formula(f'=IF(A2<F2,"LEFT",IF(A2>F2,"RIGHT",{verdict}))'),
    )
    wb.define_name("Verdict", _rng("Z1", "Z1"))
    wb.define_name("LeftCells", _rng("A2", "A2"))
    wb.define_name("RightCells", _rng("F2", "F2"))
    wb.define_name("Status", _rng("K2", "K2"))
    _write(workdir, "1\n2\n", "left.csv")
    _write(workdir, "2\n3\n", "right.csv")
    report = compare_files(
        CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb
    )
    assert (report.left_only, report.right_only, report.matches) == (["1"], ["3"], 1)


def test_compare_status_cell_must_name_a_side(workdir):
    wb = Workbook()
    wb.set_cell(_addr("K2"), parse_formula('="MAYBE"'))
    wb.define_name("LeftCells", _rng("A2", "A2"))
    wb.define_name("RightCells", _rng("F2", "F2"))
    wb.define_name("Status", _rng("K2", "K2"))
    _write(workdir, "1\n", "left.csv")
    _write(workdir, "1\n", "right.csv")
    with pytest.raises(StatusCellError) as err:
        compare_files(
            CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb
        )
    assert "MAYBE" in str(err.value)


def test_compare_with_headings_skips_first_lines(workdir):
    _write(workdir, "Id,a,b,c\n1,a,b,c\n", "left.csv")
    _write(workdir, "Id,a,b,c\n1,a,b,c\n", "right.csv")
    wb = load_definition(workdir / "compare.sheet")
    report = compare_files(
        CompareSpec(
            str(workdir / "left.csv"), str(workdir / "right.csv"), has_headings=True
        ),
        wb,
    )
    assert report.left_only == report.right_only == []
    assert report.matches == 1


def test_compare_leaves_the_last_pair_in_its_cells(workdir):
    _write(workdir, "1,a\n3,b\n", "left.csv")
    _write(workdir, "2,c\n3\n", "right.csv")
    wb = load_definition(workdir / "compare.sheet")
    compare_files(CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb)
    assert wb.read_range(wb.resolve_name("LeftCells")) == [["3", "b", "", ""]]
    assert wb.read_range(wb.resolve_name("RightCells")) == [["3", "", "", ""]]
    assert wb.get_value(_addr("K2")) == "MATCH"
