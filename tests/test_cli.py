"""Command-line behaviour: exit codes, determinism, flag handling."""

from __future__ import annotations

import contextlib
import io
import json
import logging
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gridpipe import csvio
from gridpipe.cli import _write_subtotals, main
from gridpipe.config import load_definition, load_job, render_definition
from gridpipe.csvio import encode_record, read_records
from gridpipe.functions import roman_text
from gridpipe.report import aggregate, parse_job_line, render_report, translation_table

TOGA_FILE = "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(workdir, name, text):
    (workdir / name).write_text(text, encoding="utf-8")


def _read(workdir, name):
    return (workdir / name).read_text(encoding="utf-8")


def _job_with(workdir, job, setting):
    """The path of a copy of ``job`` whose [pipeline] section also has ``setting``."""
    text = _read(workdir, job).replace("[pipeline]\n", f"[pipeline]\n{setting}\n")
    _write(workdir, "variant.job", text)
    return str(workdir / "variant.job")


# --- run -----------------------------------------------------------------------


def test_run_produces_byte_exact_output(workdir):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
    assert _read(workdir, "caesar_out.csv") == "Id,Item,Colour,Number\n1,Toga,Purple,1459\n"


def test_run_missing_job_file_exits_1_naming_it(workdir, capsys):
    missing = workdir / "missing.job"
    assert main(["run", str(missing)]) == 1
    assert "missing.job" in capsys.readouterr().err


def test_run_is_deterministic(workdir):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    job = str(workdir / "caesar.job")
    assert main(["--quiet", "run", job]) == 0
    first = (workdir / "caesar_out.csv").read_bytes()
    assert main(["--quiet", "run", job]) == 0
    assert (workdir / "caesar_out.csv").read_bytes() == first


def test_run_stats_json(workdir):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    stats_path = workdir / "stats.json"
    assert main(
        ["--quiet", "run", str(workdir / "caesar.job"), "--stats-json", str(stats_path)]
    ) == 0
    stats = json.loads(stats_path.read_text())
    assert list(stats) == [  # the order README and perfbench/child.py show
        "records_read", "records_written", "records_skipped", "records_errored", "elapsed",
        "plan_cells",
    ]
    assert stats["records_read"] == 1
    assert stats["records_written"] == 1
    assert stats["records_read"] == (
        stats["records_written"] + stats["records_skipped"] + stats["records_errored"]
    )


def test_a_failed_stats_json_write_leaves_the_previous_file(workdir, monkeypatch, capsys):
    # Like every output, the statistics reach their path only once complete.
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    _write(workdir, "stats.json", "previous\n")

    def dump_then_fail(obj, handle, **kwargs):
        handle.write("{")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    assert main(["--quiet", "run", str(workdir / "caesar.job"), "--stats-json",
                 str(workdir / "stats.json")]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert _read(workdir, "stats.json") == "previous\n"
    assert not list(workdir.glob("*.tmp"))


@pytest.mark.parametrize(
    "job, target, named_by",
    [("caesar.job", "caesar_in.csv", "input on line 4"),
     ("caesar.job", "caesar.sheet", "definition on line 3"),
     ("caesar.job", "caesar_out.csv", "[pipeline] output on line 8"),
     ("store.job", "store_report.csv", "[subtotals] output on line 15"),
     ("caesar.job", "caesar.job", "the job file")],
    ids=["input", "definition", "output", "report", "job"],
)
def test_stats_json_may_not_name_a_file_of_the_job(workdir, capsys, job, target, named_by):
    _write(workdir, "caesar_in.csv", "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n")
    _write(workdir, "store_raw.csv", "Id,Item,Colour,Number\n1,Toga,Purple,I\n")
    _write(workdir, "store_report.csv", "previous\n")
    before = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert main(["run", str(workdir / job), "--stats-json", str(workdir / target)]) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / job}: --stats-json: {workdir / target} is already named by "
        f"{named_by}\n"
    )
    assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


def test_run_stats_json_lists_the_plan_cells(workdir):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    stats_path = workdir / "stats.json"
    assert main(
        ["--quiet", "run", str(workdir / "caesar.job"), "--stats-json", str(stats_path)]
    ) == 0
    assert json.loads(stats_path.read_text())["plan_cells"] == ["Main!F2", "Main!H2"]


def test_store_job_run_logs_no_warnings(workdir, caplog, capsys):
    # The job line "Number : Item, Colour" has ordinary spaces around
    # ":" and ","; they are syntax, not a data smell worth a warning.
    _write(
        workdir,
        "store_raw.csv",
        "Id,Item,Colour,Number\n2,Belt,Tan,V\n1,Toga,Purple,MCDLIX\n2,Belt,Tan,V\n",
    )
    caplog.set_level(logging.WARNING)
    assert main(["run", str(workdir / "store.job")]) == 0
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []
    assert not [
        line for line in capsys.readouterr().err.splitlines() if line.startswith("gridpipe:")
    ]
    assert _read(workdir, "store_report.csv") == (
        "Item,Colour,Sum of Number\nBelt,Tan,5\nToga,Purple,1459\n"
    )


def test_run_progress_lines_on_stderr(workdir, capsys):
    _write(
        workdir,
        "caesar_in.csv",
        "Id,Item,Colour,Number\n" + "1,Toga,Purple,I\n" * 3,
    )
    assert main(["run", str(workdir / "caesar.job"), "--progress", "1"]) == 0
    err = capsys.readouterr().err
    assert err.count("records processed:") == 3


def test_run_progress_counts_skipped_and_errored_records(workdir, capsys):
    # Id 1 twice (the second is a duplicate, skipped), then a bad numeral.
    _write(
        workdir,
        "store_raw.csv",
        "Id,Item,Colour,Number\n1,Toga,Purple,I\n1,Toga,Purple,I\n"
        "2,Belt,Tan,NOPE\n3,Crown,Gold,V\n",
    )
    job = _job_with(workdir, "store.job", "on-error = skip-and-log")
    assert main(["run", job, "--progress", "1"]) == 0
    err = capsys.readouterr().err
    assert "read 4, wrote 2, skipped 1, errored 1" in err
    assert [line for line in err.splitlines() if "records processed:" in line] == [
        f"records processed: {n}" for n in range(1, 5)
    ]


def test_run_missing_input_data_exits_3(workdir, capsys):
    (workdir / "caesar_in.csv").unlink()
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 3
    assert "caesar_in.csv" in capsys.readouterr().err


def test_run_bad_record_exits_2_under_fail_fast(workdir, capsys):
    _write(
        workdir,
        "caesar_in.csv",
        "Id,Item,Colour,Number\n1,Toga,Purple,NOPE\n",
    )
    job = _job_with(workdir, "caesar.job", "on-error = fail-fast")
    assert main(["--quiet", "run", job]) == 2
    assert "#VALUE!" in capsys.readouterr().err


def test_run_lenient_flag_keeps_going(workdir):
    _write(
        workdir,
        "caesar_in.csv",
        "Id,Item,Colour,Number\n1,Toga,Purple,NOPE\n2,Belt,Tan,V\n",
    )
    job = _job_with(workdir, "caesar.job", "on-error = skip-and-log")
    assert main(["--quiet", "run", job]) == 0
    assert _read(workdir, "caesar_out.csv").splitlines()[1:] == ["2,Belt,Tan,5"]


def test_run_keeps_every_record_after_a_stray_quote(workdir, capsys):
    _write(
        workdir,
        "caesar_in.csv",
        'Id,Item,Colour,Number\n1,Toga 5" wide,Purple,X\n2,Belt,Tan,V\n3,Crown,Gold,I\n',
    )
    assert main(["run", str(workdir / "caesar.job"), "--progress", "0"]) == 0
    assert "read 3, wrote 3" in capsys.readouterr().err
    assert _read(workdir, "caesar_out.csv").splitlines()[1:] == [
        '1,Toga 5" wide,Purple,10', "2,Belt,Tan,5", "3,Crown,Gold,1",
    ]


@pytest.mark.parametrize("mode", ["fail-fast", "skip-and-log"])
@pytest.mark.parametrize(
    "bad, line, start",
    [('1,"ab"c,Purple,I\n2,Belt,Tan,V\n', 2, 2), ('1,"Toga\nPurple,I\n2,Belt,Tan,V\n', 4, 2)],
)
def test_run_stops_on_a_malformed_record_naming_its_line(workdir, capsys, mode, bad, line, start):
    # Under skip-and-log the record is logged with the same text, and
    # the run goes on at the next physical line: after the one-line bad
    # record, record 2 is kept; a quote left open takes the rest of the
    # file into one errored record.
    kept = ["2,Belt,Tan,5"] if line == start else []
    _write(workdir, "caesar_in.csv", "Id,Item,Colour,Number\n" + bad)
    job = _job_with(workdir, "caesar.job", f"on-error = {mode}")
    if mode == "fail-fast":
        assert main(["--quiet", "run", job]) == 2
    else:
        assert main(["run", job, "--progress", "0", "--stats-json", str(workdir / "s.json")]) == 0
    err = capsys.readouterr().err
    assert f"caesar_in.csv line {line}:" in err
    assert f"(record from line {start})" in err
    if mode == "fail-fast":
        assert not list(workdir.glob("caesar_out*"))
    else:
        assert f"(record from line {start}) (record skipped)\n" in err
        assert _read(workdir, "caesar_out.csv").splitlines()[1:] == kept
        stats = json.loads(_read(workdir, "s.json"))
        assert [stats[key] for key in ("records_read", "records_written", "records_errored")] == [
            1 + len(kept), len(kept), 1,
        ]


def test_skip_and_log_counts_malformed_records_in_progress(workdir, capsys):
    # Four records, the 2nd and 3rd malformed: a progress line every 2
    # records read, as for records that read cleanly.
    _write(workdir, "caesar_in.csv",
           'Id,Item,Colour,Number\n1,Toga,Red,I\n2,"a"b,x,X\n3,"c"d,y,V\n4,Belt,Gold,MM\n')
    job = _job_with(workdir, "caesar.job", "on-error = skip-and-log")
    assert main(["run", job, "--progress", "2"]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("records processed")] == [
        "records processed: 2", "records processed: 4",
    ]
    assert "(record from line 4) (record skipped)" in err
    assert "read 4, wrote 2, skipped 0, errored 2 " in err


def test_run_reads_a_quoted_field_without_its_quotes(workdir):
    _write(workdir, "caesar_in.csv", 'Id,Item,Colour,Number\n1,"Toga",Purple,I\n')
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
    assert _read(workdir, "caesar_out.csv").splitlines()[1:] == ["1,Toga,Purple,1"]


@pytest.mark.parametrize("mode", ["fail-fast", "skip-and-log"])
@pytest.mark.parametrize(
    "bad, problem",
    [
        ('1,"To,ga",Purple,X\n', "reads back as 5 fields, the header has 4"),
        ('1,"To\nga",Purple,X\n', "holds a line break outside quotes"),
    ],
    ids=["comma", "line-break"],
)
def test_run_refuses_a_single_cell_line_that_does_not_read_back(
    workdir, capsys, caplog, mode, bad, problem
):
    # caesar's H2 joins the fields with ",", so a field holding a comma or
    # a line break would make a line that reads back as another record.
    _write(workdir, "caesar_in.csv", "Id,Item,Colour,Number\n" + bad + "2,Belt,Tan,V\n")
    job = _job_with(workdir, "caesar.job", f"on-error = {mode}")
    code = main(["run", job, "--progress", "0"])
    err = capsys.readouterr().err
    assert f"record 1: output cell Main!H2 {problem}" in err + caplog.text
    if mode == "fail-fast":
        assert code == 2
        assert not list(workdir.glob("caesar_out*"))
    else:
        assert code == 0
        assert "errored 1" in err
        assert _read(workdir, "caesar_out.csv").splitlines()[1:] == ["2,Belt,Tan,5"]


def test_run_writes_a_line_of_500_concatenated_pieces(workdir):
    # caesar's H2 with 500 pieces; 202 once failed to compile.
    pieces = ["A2", '"-"', "B2", "F2"] * 125
    sheet = _read(workdir, "caesar.sheet").replace(
        'cell H2 = =A2&","&B2&","&C2&","&F2', "cell H2 = =" + "&".join(pieces)
    )
    _write(workdir, "caesar.sheet", sheet)
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
    assert _read(workdir, "caesar_out.csv").splitlines()[1] == "1-Toga1459" * 125


def test_run_writes_a_line_of_2000_concatenated_pieces_and_renders_it(workdir):
    # 2,000 once overflowed the plan compiler's recursion, one frame per &.
    sheet = _read(workdir, "caesar.sheet").replace(
        'cell H2 = =A2&","&B2&","&C2&","&F2', "cell H2 = =A2&" + "&".join(['"x"'] * 2000)
    )
    _write(workdir, "caesar.sheet", sheet)
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
    assert _read(workdir, "caesar_out.csv").splitlines()[1] == "1" + "x" * 2000
    text = render_definition(load_definition(workdir / "caesar.sheet"))
    _write(workdir, "rendered.sheet", text)
    assert render_definition(load_definition(workdir / "rendered.sheet")) == text


def test_run_header_mismatch_exits_1(workdir, capsys):
    _write(workdir, "caesar_in.csv", "Id,Item,Color,Number\n1,Toga,Purple,I\n")
    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 1
    assert "position 3" in capsys.readouterr().err


def test_run_whole_chain_with_sort_and_report(workdir):
    _write(
        workdir,
        "store_raw.csv",
        "Id,Item,Colour,Number\n"
        "3,Belt,Tan,V\n"
        "1,Toga,Purple,MCDLIX\n"
        "3,Belt,Tan,V\n"
        "2,Toga,Purple,XLI\n"
        '4,"Belt, large","Red ""dark""",X\n',
    )
    job = str(workdir / "store.job")
    assert main(["--quiet", "run", job]) == 0
    assert _read(workdir, "store_sorted.csv").splitlines()[0] == "Id,Item,Colour,Number"
    out_lines = _read(workdir, "store_out.csv").splitlines()
    assert out_lines[1:] == [
        "1,Toga,Purple,1459", "2,Toga,Purple,41", "3,Belt,Tan,5",
        '4,"Belt, large","Red ""dark""",10',
    ]
    report = (workdir / "store_report.csv").read_bytes()
    assert report == (
        b'Item,Colour,Sum of Number\nBelt,Tan,5\n"Belt, large","Red ""dark""",10\n'
        b"Toga,Purple,1500\n"
    )
    # run's report reads its output back as `gridpipe report` reads any file.
    assert main(["--quiet", "report", job, str(workdir / "store_out.csv")]) == 0
    assert (workdir / "store_report.csv").read_bytes() == report


def test_a_sort_in_front_of_a_pipeline_keeps_the_header_line_first(workdir):
    # The job states headings once (default y): the sort and the pipeline
    # both read the header line as one, and the pipeline reads the sort's output.
    _write(workdir, "pass.sheet", "[sheet Main]\ncell H2 = =A2\ncell I2 = =B2\n"
           "cell J2 = =UPPER(C2)\n[names]\nInputCells = Main!A2:C2\nOutputCells = Main!H2:J2\n")
    _write(workdir, "chain.job", "format = 1\ndefinition = pass.sheet\ninput = raw.csv\n"
           "[sort]\noutput = sorted.csv\n[pipeline]\noutput = out.csv\n")
    _write(workdir, "raw.csv", "Id,Item,Colour\n2,Toga,purple\n1,Belt,tan\n")
    assert main(["check", str(workdir / "chain.job")]) == 0
    assert main(["--quiet", "run", str(workdir / "chain.job")]) == 0
    assert _read(workdir, "sorted.csv") == "Id,Item,Colour\n1,Belt,tan\n2,Toga,purple\n"
    assert _read(workdir, "out.csv") == "Id,Item,Colour\n1,Belt,TAN\n2,Toga,PURPLE\n"


_STORE_TEXT = st.text(alphabet='ab ,"', min_size=1, max_size=6)


def _csv_field(text):
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


@given(rows=st.lists(st.tuples(st.integers(1, 8), _STORE_TEXT, _STORE_TEXT,
                               st.integers(1, 3999)), min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_the_store_chain_connects_its_stages(tmp_path_factory, rows):
    # Repeated Ids, and fields with commas and doubled quotes, through
    # the shipped store job: each file of the chain starts with the header
    # line, and `report` of the run's output rewrites the run's report.
    workdir = tmp_path_factory.mktemp("store")
    shutil.copytree(REPO_ROOT / "fixtures", workdir, dirs_exist_ok=True)
    lines = [f"{id_},{_csv_field(item)},{_csv_field(colour)},{roman_text(number)}"
             for id_, item, colour, number in rows]
    _write(workdir, "store_raw.csv", "Id,Item,Colour,Number\n" + "".join(
        line + "\n" for line in lines))
    job = str(workdir / "store.job")
    assert main(["--quiet", "run", job]) == 0
    for name in ("store_sorted.csv", "store_out.csv"):
        assert _read(workdir, name).startswith("Id,Item,Colour,Number\n"), name
    ids = [line.split(",", 1)[0] for line in _read(workdir, "store_out.csv").splitlines()[1:]]
    assert ids == [str(id_) for id_ in sorted({row[0] for row in rows})]
    report = (workdir / "store_report.csv").read_bytes()
    (workdir / "store_report.csv").unlink()
    assert main(["--quiet", "report", job, str(workdir / "store_out.csv")]) == 0
    assert (workdir / "store_report.csv").read_bytes() == report


def _store_rows(*rows):
    return "Id,Item,Colour,Number\n" + "".join(f"{row}\n" for row in rows)


def test_run_reads_its_output_no_more_to_report_it(workdir, monkeypatch):
    # The run adds each record to the report as it writes it.
    _write(workdir, "store_raw.csv", _store_rows("2,Toga,Purple,XLI", "1,Toga,Purple,MCDLIX",
                                                 "3,Belt,Tan,V", "3,Belt,Tan,V"))

    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(csvio, "read_fields", no_read)
    monkeypatch.setattr("gridpipe.cli.read_fields", no_read)
    assert main(["--quiet", "run", str(workdir / "store.job")]) == 0
    assert _read(workdir, "store_report.csv") == (
        "Item,Colour,Sum of Number\nBelt,Tan,5\nToga,Purple,1500\n"
    )


def test_a_non_numeric_measure_fails_the_report_after_the_run_is_written(workdir, capsys):
    _write(workdir, "store.job", _read(workdir, "store.job").replace(
        "job = Number : Item, Colour", "job = Number : Item, Colour\njob = Id : Item"))
    _write(workdir, "store_raw.csv", _store_rows("1,Toga,Purple,I", "2b,Belt,Tan,V"))
    job, stats = str(workdir / "store.job"), str(workdir / "stats.json")
    assert main(["--quiet", "run", job, "--stats-json", stats]) == 2
    message = "error: record 2: column 'Id' is not numeric: '2b'\n"
    assert capsys.readouterr().err == message
    assert _read(workdir, "store_out.csv") == _store_rows("1,Toga,Purple,1", "2b,Belt,Tan,5")
    assert json.loads(_read(workdir, "stats.json"))["records_written"] == 2
    assert not (workdir / "store_report.csv").exists()
    assert main(["--quiet", "report", job, str(workdir / "store_out.csv")]) == 2
    assert capsys.readouterr().err == message


def test_a_run_over_an_empty_input_has_no_header_to_report_against(workdir, capsys):
    _write(workdir, "store_raw.csv", "")
    job, stats = str(workdir / "store.job"), str(workdir / "stats.json")
    assert main(["--quiet", "run", job, "--stats-json", stats]) == 2
    assert capsys.readouterr().err == (
        f"error: {workdir / 'store_out.csv'}: no header row to aggregate against\n"
    )
    assert _read(workdir, "store_out.csv") == ""
    assert (workdir / "stats.json").exists()
    assert not (workdir / "store_report.csv").exists()


# Payload formulas over the input cells A2:D2 by the kind of value they
# give: numbers (negative zero, 1e22 and more, 2**53 + 2 and more,
# fractions), texts, booleans, and either a number or a text.
_PAYLOAD = [
    "=LEN(B2)*-0.25", "=LEN(C2)*1E22", "=9007199254740994+LEN(D2)", "=LEN(B2)/3",
    "=B2", "=C2", "=D2", "=A2&D2",
    "=LEN(B2)>2", "=B2=C2",
    "=IF(LEN(B2)>1,B2,LEN(C2)/4)",
]
# A one-cell payload may also join the fields into a line of its own.
_LINE_PAYLOAD = ['=A2&","&B2&","&C2&","&D2', '=B2&","&D2']
_FIELD = st.one_of(
    st.sampled_from([" 7 ", "1e3", "-0", "", " ", "x", "1,5", 'a"b', '"q"', "l\nb", "2.5"]),
    st.text(alphabet='a1 ,"\n-.e', max_size=4),
)
_NAMES = ["Id", "Item", "Colour", "Number"]


@st.composite
def _job_line(draw):
    names = draw(st.permutations(_NAMES))
    split = draw(st.integers(1, 2))
    groups = draw(st.integers(1, 2))
    aggregate = draw(st.sampled_from(["", "sum ", "count "]))
    return f"{aggregate}{', '.join(names[:split])} : {', '.join(names[split:split + groups])}"


def _run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(
    payload=st.one_of(st.lists(st.sampled_from(_PAYLOAD), min_size=1, max_size=4),
                      st.sampled_from(_LINE_PAYLOAD).map(lambda formula: [formula])),
    rows=st.lists(st.tuples(_FIELD, _FIELD, _FIELD, _FIELD), max_size=8),
    job_lines=st.lists(_job_line(), min_size=1, max_size=3),
    mode=st.sampled_from(["fail-fast", "skip-and-log"]),
    form=st.sampled_from(["csv", "aligned-text"]),
)
# A record the run logs and skips is no record of the output: the
# non-numeric measure after it is in output record 1.
@example(payload=['=A2&","&B2&","&C2&","&D2'], rows=[("1", "1,5", "a", "2"), ("2", "b", "c", "x")],
         job_lines=["Number : Item"], mode="skip-and-log", form="csv")
@settings(max_examples=150, deadline=None)
def test_a_run_s_report_is_the_report_of_its_output(tmp_path_factory, payload, rows, job_lines,
                                                     mode, form):
    # Columns past a payload narrower than the header read as blank.
    workdir = tmp_path_factory.mktemp("fused")
    cells = [f"cell {chr(ord('H') + i)}2 = {formula}" for i, formula in enumerate(payload)]
    last = chr(ord("H") + len(payload) - 1)
    _write(workdir, "gen.sheet", "[sheet Main]\n" + "\n".join(cells) + "\n[names]\n"
           f"InputCells = Main!A2:D2\nOutputCells = Main!H2:{last}2\n")
    _write(workdir, "gen.job", "format = 1\ndefinition = gen.sheet\ninput = in.csv\n"
           f"[pipeline]\noutput = out.csv\non-error = {mode}\n"
           f"[subtotals]\noutput = report.csv\nformat = {form}\n"
           + "".join(f"job = {line}\n" for line in job_lines))
    (workdir / "in.csv").write_bytes(_store_rows(*map(encode_record, rows)).encode())
    job, report = str(workdir / "gen.job"), workdir / "report.csv"

    def written():
        return report.read_bytes() if report.exists() else None

    ran = _run_main(["--quiet", "run", job])
    if not (workdir / "out.csv").exists():  # a record stopped the run, and with it the report
        assert ran[0] == 2 and written() is None
        return
    fused = written()
    report.unlink(missing_ok=True)
    assert _run_main(["--quiet", "report", job, str(workdir / "out.csv")]) == ran
    assert written() == fused


def test_a_quoted_one_cell_line_is_parsed_once_for_its_check_and_its_report(workdir,
                                                                            monkeypatch):
    # The read-back check parses the line, and the report reads the
    # fields it parsed: no line is parsed twice.
    _write(workdir, "gen.sheet", '[sheet Main]\ncell H2 = =A2&","""&B2&""","&C2&","&D2\n'
           "[names]\nInputCells = Main!A2:D2\nOutputCells = Main!H2:H2\n")
    _write(workdir, "gen.job", "format = 1\ndefinition = gen.sheet\ninput = in.csv\n"
           "[pipeline]\noutput = out.csv\n[subtotals]\noutput = report.csv\njob = Number : Item\n")
    _write(workdir, "in.csv", _store_rows("1,Toga,Red,2", "2,Belt,Tan,3", "3,Toga,Red,4"))
    parsed = []
    reader = csvio._reader

    def counting_reader(source, *args, **kwargs):
        if isinstance(source, io.StringIO):  # a line, not a file
            parsed.append(source.getvalue())
        return reader(source, *args, **kwargs)

    monkeypatch.setattr(csvio, "_reader", counting_reader)
    assert main(["--quiet", "run", str(workdir / "gen.job")]) == 0
    lines = ['1,"Toga",Red,2', '2,"Belt",Tan,3', '3,"Toga",Red,4']
    assert parsed == [line + "\n" for line in lines]
    assert _read(workdir, "out.csv") == _store_rows(*lines)
    assert _read(workdir, "report.csv") == "Item,Sum of Number\nBelt,3\nToga,6\n"


# --- sort / report / compare ------------------------------------------------------


def test_sort_command(workdir, capsys):
    _write(
        workdir,
        "store_raw.csv",
        "Id,Item,Colour,Number\n2,b,c,II\n1,a,c,I\n",
    )
    assert main(["sort", str(workdir / "store.job")]) == 0
    assert _read(workdir, "store_sorted.csv").splitlines()[1] == "1,a,c,I"
    assert capsys.readouterr().err == f"sorted 2 rows into {workdir / 'store_sorted.csv'}\n"


@pytest.mark.parametrize("key", ["1", "Id"])
def test_a_sort_over_an_empty_input_writes_an_empty_file(workdir, capsys, key):
    # An empty input is data with no rows: a key that names a column
    # needs no header line to sort none, and check and sort agree.
    _write(workdir, "store.job", _read(workdir, "store.job").replace("key = 1 asc", f"key = {key}"))
    _write(workdir, "store_raw.csv", "")
    assert main(["check", str(workdir / "store.job")]) == 0
    assert main(["sort", str(workdir / "store.job")]) == 0
    assert _read(workdir, "store_sorted.csv") == ""
    assert capsys.readouterr().err == f"sorted 0 rows into {workdir / 'store_sorted.csv'}\n"


@pytest.mark.parametrize(
    "command,job,section",
    [("run", "compare.job", "pipeline"), ("sort", "caesar.job", "sort"),
     ("report", "caesar.job", "subtotals"), ("compare", "caesar.job", "compare")],
)
def test_a_command_needs_its_section(workdir, capsys, command, job, section):
    data = ["data.csv"] if command == "report" else []
    assert main([command, str(workdir / job), *data]) == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / job}: [{section}] section is required by '{command}'\n"
    )


def test_report_and_compare_print_to_stdout_without_an_output(workdir, capsys):
    _write(workdir, "data.csv", "Id,Item,Colour,Number\n1,Toga,Purple,10\n2,Toga,Purple,5\n")
    store_job = _read(workdir, "store.job").replace("output = store_report.csv\n", "")
    _write(workdir, "store.job", store_job)
    assert main(["report", str(workdir / "store.job"), str(workdir / "data.csv")]) == 0
    assert capsys.readouterr().out == "Item,Colour,Sum of Number\nToga,Purple,15\n"
    _write(workdir, "left.csv", "1,a,b,c\n2,d,e,f\n")
    _write(workdir, "right.csv", "2,d,e,f\n")
    _write(workdir, "compare.job", _read(workdir, "compare.job").replace("output = diff.txt\n", ""))
    assert main(["--quiet", "compare", str(workdir / "compare.job")]) == 0
    assert capsys.readouterr().out == "< 1,a,b,c\n"
    assert not (workdir / "diff.txt").exists()


def test_report_of_an_empty_data_file_exits_2(workdir, capsys):
    _write(workdir, "empty.csv", "")
    assert main(["report", str(workdir / "store.job"), str(workdir / "empty.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {workdir / 'empty.csv'}: no header row to aggregate against\n"
    )
    assert not (workdir / "store_report.csv").exists()


def test_report_command_over_data_file(workdir, capsys):
    _write(
        workdir,
        "data.csv",
        "Id,Item,Colour,Number\n1,Toga,Purple,10\n2,Toga,Purple,5\n3,Belt,Tan,1\n",
    )
    assert main(
        ["--quiet", "report", str(workdir / "store.job"), str(workdir / "data.csv")]
    ) == 0
    report = _read(workdir, "store_report.csv")
    assert "Toga,Purple,15" in report
    assert "Belt,Tan,1" in report


def test_report_with_two_job_lines_matches_the_per_job_reports(workdir):
    job_lines = ["Number : Item, Colour", "count Number, Id : Item"]
    store_job = _read(workdir, "store.job")
    _write(
        workdir,
        "two.job",
        store_job.replace(
            "job = Number : Item, Colour", "\n".join(f"job = {line}" for line in job_lines)
        ),
    )
    _write(
        workdir,
        "data.csv",
        'Id,Item,Colour,Number\n1,"Toga, large",Purple,10\n2,Belt,Tan,\n'
        '3,"Toga, large",Purple,5\n4,Belt,"Tan ""dark""",1\n',
    )
    assert main(
        ["--quiet", "report", str(workdir / "two.job"), str(workdir / "data.csv")]
    ) == 0

    rows = [fields for _, fields in read_records(workdir / "data.csv")]
    translation = translation_table(rows[0])
    expected = "\n".join(
        render_report(aggregate(rows[1:], parse_job_line(line, translation)))
        for line in job_lines
    )
    assert (workdir / "store_report.csv").read_bytes() == expected.encode("utf-8")


def test_report_memory_does_not_grow_with_the_data_file(workdir):
    rng = random.Random(7)
    items = ["Toga", "Belt", "Crown", "Sandal"]
    colours = ["Purple", "Tan", "Red"]
    with open(workdir / "big.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("Id,Item,Colour,Number\n")
        for i in range(20_000):
            item, colour = rng.choice(items), rng.choice(colours)
            handle.write(f"{i},{item},{colour},{rng.randint(1, 3999)}\n")
    job = load_job(str(workdir / "store.job"))

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _write_subtotals(job, str(workdir / "big.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1 << 20
    assert _read(workdir, "store_report.csv").count("\n") == 1 + len(items) * len(colours)


def test_compare_command(workdir, capsys):
    _write(workdir, "left.csv", "1,a,b,c\n2,d,e,f\n")
    _write(workdir, "right.csv", "2,d,e,f\n")
    assert main(["compare", str(workdir / "compare.job")]) == 0
    assert _read(workdir, "diff.txt") == "< 1,a,b,c\n"
    assert "left-only 1" in capsys.readouterr().err


def test_a_compare_whose_status_cell_errs_exits_2_and_writes_no_diff(workdir, capsys):
    sheet = _read(workdir, "compare.sheet").replace('=IF(A2=F2,"MATCH"', '=IF(A2=F2,1/0')
    _write(workdir, "compare.sheet", sheet)
    _write(workdir, "left.csv", "1,a\n")
    _write(workdir, "right.csv", "1,b\n")
    assert main(["compare", str(workdir / "compare.job")]) == 2
    assert capsys.readouterr().err == "error: record pair 1: status cell Main!K2 is #DIV/0!\n"
    assert not (workdir / "diff.txt").exists()


# --- check --------------------------------------------------------------------------


def test_check_pristine_job_prints_ok(workdir, fixtures_dir, capsys):
    # Every shipped job, in one test: each is checked by name on failure.
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    jobs = sorted(path.name for path in fixtures_dir.glob("*.job"))
    assert "caesar.job" in jobs
    for job in jobs:
        assert main(["check", str(workdir / job)]) == 0, job
        assert capsys.readouterr().out.strip() == "OK", job


def test_check_reports_header_typo_position(workdir, capsys):
    _write(workdir, "caesar_in.csv", "Id,Item,Color,Number\n1,Toga,Purple,I\n")
    assert main(["check", str(workdir / "caesar.job")]) == 1
    assert "position 3" in capsys.readouterr().err


def test_a_headerless_input_with_expected_headers_passes_check_and_run(workdir, capsys):
    # headings = n: no header line to check; the expected headers give
    # the width a single-cell line must read back as.
    _write(workdir, "caesar_in.csv", "1,Toga,Purple,MCDLIX\n")
    _write(workdir, "caesar.job", _read(workdir, "caesar.job").replace(
        "caesar_in.csv\n", "caesar_in.csv\nheadings = n\n"))
    job = str(workdir / "caesar.job")
    assert main(["check", job]) == 0
    assert capsys.readouterr().out == "OK\n"
    assert main(["--quiet", "run", job]) == 0
    assert _read(workdir, "caesar_out.csv") == "1,Toga,Purple,1459\n"


def test_a_spaced_header_warns_once_from_check_and_once_from_run(workdir, capsys):
    _write(workdir, "caesar_in.csv", "Id,Item , Colour,Number\n1,Toga,Purple,MCDLIX\n")
    warnings = [
        "gridpipe: superfluous spaces in header 2: 'Item '",
        "gridpipe: superfluous spaces in header 3: ' Colour'",
    ]
    assert main(["check", str(workdir / "caesar.job")]) == 0
    assert capsys.readouterr().err.splitlines() == warnings
    assert main(["run", str(workdir / "caesar.job")]) == 0
    assert capsys.readouterr().err.splitlines()[:-1] == warnings  # then the summary
    assert _read(workdir, "caesar_out.csv").startswith("Id,Item , Colour,Number\n")


def test_check_touches_no_files(workdir):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert main(["check", str(workdir / "caesar.job")]) == 0
    after = {p.name: p.read_bytes() for p in workdir.iterdir()}
    assert after == before


def test_check_validates_bad_definition(workdir, capsys):
    (workdir / "caesar.sheet").write_text(
        "[sheet Main]\ncell A1 = =1+\n", encoding="utf-8"
    )
    assert main(["check", str(workdir / "caesar.job")]) == 1


@pytest.mark.parametrize(
    "top_lines, sort_lines, problem",
    [
        ("", "key = 0\n", "column must be >= 1, got 0"),
        ("headings = n\n", "key = Item\n", "'Item' is a header name"),
    ],
    ids=["column-0", "name-without-headings"],
)
def test_check_rejects_a_sort_key_that_sort_rejects(workdir, capsys, top_lines, sort_lines,
                                                    problem):
    text = _read(workdir, "store.job").replace("format = 1\n", "format = 1\n" + top_lines)
    text = text.replace("key = 1 asc\n", sort_lines)
    _write(workdir, "store.job", text)
    assert main(["check", str(workdir / "store.job")]) == 1
    assert main(["sort", str(workdir / "store.job")]) == 1
    err = capsys.readouterr().err
    assert err.count(f"[sort] key: {problem}") == 2


# One edit to a shipped file per case: each makes a job that loading
# rejects, so check and every command reject it before they read data.
@pytest.mark.parametrize(
    "edited, old, new, job, problem",
    [
        ("dedup.sheet", "Skip = Main!G2\n", "Skip = Main!G2:H2\n", "store.job",
         "[pipeline] skip cell 'Skip' must be a single cell"),
        ("dedup.sheet", "CarryForward = Main!M2:P2", "CarryForward = Main!M2:N2", "dedup.job",
         "[pipeline] carry-forward range holds 2 cells; expected 1 or 4"),
        ("caesar.sheet", "cell F2 = =ARABIC(D2)", "cell F2 = =ARABIC(D2)\ncell C2 = =UPPER(B2)",
         "caesar.job", "[pipeline] input range Main!A2:D2 overlaps formula cell Main!C2"),
        ("dedup.sheet", "OutputCells = Main!G2:K2", "OutputCells = Main!G2", "dedup.job",
         "[pipeline] output range 'OutputCells' has no payload cells"),
        ("compare.sheet", "Status = Main!K2", "Status = Main!K2:L2", "compare.job",
         "[compare] status cell 'Status' must be a single cell"),
        ("compare.sheet", "[names]", "cell B2 = =A2\n[names]", "compare.job",
         "[compare] left range Main!A2:D2 overlaps formula cell Main!B2"),
        # Record ranges of one command share no cell: one record would
        # overwrite the other before any formula reads it.
        ("compare.sheet", "RightCells = Main!F2:I2", "RightCells = Main!C2:F2", "compare.job",
         "[compare] right range Main!C2:F2 overlaps left range Main!A2:D2; "
         "a record written to one would overwrite the other's"),
        ("dedup.sheet", "CarryForward = Main!M2:P2", "CarryForward = Main!A2:D2", "dedup.job",
         "[pipeline] carry-forward range Main!A2:D2 overlaps input range Main!A2:D2; "
         "a record written to one would overwrite the other's"),
        ("store.job", "job = Number : Item, Colour", "job = sum : Item", "store.job",
         "[subtotals] job: subtotal measures is empty"),
        ("store.job", "store_raw.csv\n\n[sort]\noutput = store_sorted.csv\nkey = 1 asc\n",
         "store_raw.csv\nexpected-headers = Id, Item, Colour, Number\n\n[sort]\n"
         "output = store_sorted.csv\nkey = Nope\n", "store.job",
         "sort key column 'Nope' not in header"),
        # Without expected-headers, names resolve against the input's header line.
        ("store.job", "key = 1 asc\n", "key = Nope\n", "store.job",
         "sort key column 'Nope' not in header"),
        ("store.job", "job = Number : Item, Colour", "job = Weight : Item", "store.job",
         "column 'Weight' not found in headers"),
        # The report would take the first output record for the header line.
        ("store.job", "store_raw.csv\n", "store_raw.csv\nheadings = n\n", "store.job",
         "[subtotals] reads the header line of the output"),
        # expected-headers alone turns validation on, for every command alike.
        ("caesar_in.csv", "Number", "Nummer", "caesar.job",
         "header mismatch at position 4: found 'Nummer', expected 'Number'"),
        ("caesar.job", "[pipeline]\n", "[pipeline]\nheader = validate\n", "caesar.job",
         "unknown key 'header' in [pipeline]"),
        # The header line of a job with a sort is the sort input's, checked
        # before the sort writes.
        ("store.job", "store_raw.csv\n",
         "store_raw.csv\nexpected-headers = Id, Item, Colour, Nummer\n", "store.job", "header mismatch at position 4: found 'Number', expected 'Nummer'"),
        ("store.job", "store_raw.csv\n", "store_raw.csv\nexpected-headers = Id, Item, Colour\n",
         "store.job", "header mismatch at position 4: found 'Number', expected '<extra>'"),
        # Each role name is checked once, by the preflight.
        ("caesar.sheet", "InputCells =", "Input =", "caesar.job",
         "[pipeline] the definition does not define 'InputCells'"),
        ("dedup.sheet", "OutputCells =", "Output =", "store.job",
         "[pipeline] the definition does not define 'OutputCells'"),
        ("compare.sheet", "LeftCells =", "Left =", "compare.job",
         "[compare] the definition does not define 'LeftCells'"),
        ("compare.sheet", "RightCells =", "Right =", "compare.job",
         "[compare] the definition does not define 'RightCells'"),
        ("compare.sheet", "Status =", "Verdict =", "compare.job",
         "[compare] the definition does not define 'Status'"),
        # Job lines the loader rejects, each named by its file and line.
        ("caesar.job", "output = caesar_out.csv\n", "output = caesar_out.csv\nbogus\n",
         "caesar.job", "caesar.job:9: expected 'key = value': bogus"),
        ("caesar.job", "caesar.sheet\n", "caesar.sheet\noutput = x.csv\n", "caesar.job",
         "caesar.job:4: unknown key 'output'"),
        ("caesar.job", "caesar_out.csv\n", "caesar_out.csv\n[pipeline]\n", "caesar.job",
         "caesar.job:9: section [pipeline] repeated"),
        ("caesar.job", "format = 1\n", "format = 1\nformat = 1\n", "caesar.job",
         "caesar.job:3: key 'format' repeated"),
        ("caesar.job", "format = 1\n", "format = 2\n", "caesar.job",
         "caesar.job:2: unsupported format: 2"),
        # A bad value names its line, section and key; of a repeated key,
        # the entry at fault.
        ("caesar.job", "expected-headers = Id, Item, Colour, Number", "expected-headers =",
         "caesar.job", "caesar.job:5: expected-headers: list is empty"),
        ("caesar.job", "output = caesar_out.csv\n", "output = caesar_out.csv\non-error = sometimes\n",
         "caesar.job", "caesar.job:9: [pipeline] on-error: must be one of fail-fast, "
         "skip-and-log; got 'sometimes'"),
        ("caesar.job", "caesar_in.csv\n", "caesar_in.csv\nheadings = maybe\n",
         "caesar.job", "caesar.job:5: headings: must be y or n, got 'maybe'"),
        ("store.job", "key = 1 asc\n", "key = 1 asc\nkey = 0\n", "store.job",
         "store.job:10: [sort] key: column must be >= 1, got 0"),
        ("store.job", "key = 1 asc\n", "key = 1 asc\nkey =\n", "store.job",
         "store.job:10: [sort] key: empty sort key"),
        ("store.job", "job = Number : Item, Colour", "job = Number : Item\njob = sum : Item",
         "store.job", "store.job:17: [subtotals] job: subtotal measures is empty"),
        # The job's data is stated once, at the top: a stage names no input
        # and no headings of its own, and there is no [expected-headers].
        ("caesar.job", "[pipeline]\n", "[pipeline]\ninput = caesar_in.csv\n", "caesar.job",
         "caesar.job:8: unknown key 'input' in [pipeline]"),
        ("caesar.job", "[pipeline]\n", "[pipeline]\nheadings = y\n", "caesar.job",
         "caesar.job:8: unknown key 'headings' in [pipeline]"),
        ("store.job", "[sort]\n", "[sort]\ninput = store_raw.csv\n", "store.job",
         "store.job:8: unknown key 'input' in [sort]"),
        ("store.job", "[sort]\n", "[sort]\nheadings = y\n", "store.job",
         "store.job:8: unknown key 'headings' in [sort]"),
        ("compare.job", "[compare]\n", "[compare]\nheadings = n\n", "compare.job",
         "compare.job:8: unknown key 'headings' in [compare]"),
        ("caesar.job", "[pipeline]\n",
         "[expected-headers]\nheaders = Id, Item, Colour, Number\n[pipeline]\n", "caesar.job",
         "caesar.job:7: unknown section [expected-headers]"),
        ("caesar.job", "input = caesar_in.csv\n", "", "caesar.job",
         "caesar.job: [pipeline] reads the top-level key 'input', which the job does not give"),
        ("store.job", "input = store_raw.csv\n", "", "store.job",
         "store.job: [sort] reads the top-level key 'input', which the job does not give"),
        # An output replaces no file the job reads, and no other output.
        ("caesar.job", "output = caesar_out.csv", "output = caesar_in.csv", "caesar.job",
         "caesar_in.csv is already named by input on line 4"),
        ("store.job", "output = store_report.csv", "output = store_sorted.csv", "store.job",
         "store_sorted.csv is already named by [sort] output on line 8"),
        ("dedup.job", "output = dedup_out.csv", "output = dedup.sheet", "dedup.job",
         "dedup.sheet is already named by definition on line 3"),
        ("compare.job", "output = diff.txt", "output = left.csv", "compare.job",
         "left.csv is already named by [compare] left on line 8"),
        ("caesar.job", "output = caesar_out.csv", "output = caesar.job", "caesar.job",
         "caesar.job is already named by the job file"),
    ],
    ids=["skip-2-cells", "carry-2-cells", "formula-in-input", "output-only-skip",
         "status-2-cells", "formula-in-left", "right-over-left", "carry-over-input",
         "subtotal-without-measures", "unknown-sort-key",
         "unknown-sort-key-in-input", "unknown-subtotal-column", "subtotals-without-header",
         "header-mismatch", "removed-header-key", "header-mismatch-before-run-sorts",
         "header-mismatch-before-sort", "no-input-cells", "no-output-cells", "no-left-cells",
         "no-right-cells", "no-status", "line-without-equals", "key-outside-section",
         "repeated-section", "repeated-top-key", "format-2", "empty-headers", "bad-on-error",
         "bad-headings", "sort-key-0", "empty-sort-key", "second-subtotal-job",
         "pipeline-input", "pipeline-headings", "sort-input", "sort-headings",
         "compare-headings", "expected-headers-section", "pipeline-without-input",
         "sort-without-input", "output-over-input", "output-over-output",
         "output-over-definition", "output-over-left", "output-over-job"],
)
def test_check_and_the_command_reject_a_job_alike(workdir, capsys, edited, old, new, job, problem):
    text = _read(workdir, edited)
    assert old in text
    _write(workdir, edited, text.replace(old, new))
    _write(workdir, "store_raw.csv", TOGA_FILE)
    before = sorted(path.name for path in workdir.iterdir())
    path = str(workdir / job)
    assert main(["check", path]) == 1
    check_err = capsys.readouterr().err
    assert problem in check_err
    # Every command loads the job first, so each rejects it the same way.
    for argv in (["run", path], ["sort", path], ["report", path, str(workdir / "store_raw.csv")],
                 ["compare", path]):
        assert main(["--quiet", *argv]) == 1, argv
        assert capsys.readouterr().err == check_err, argv
    assert sorted(path.name for path in workdir.iterdir()) == before  # no command wrote


@pytest.mark.parametrize(
    "section, key",
    [("pipeline", "input-range"), ("pipeline", "output-range"), ("pipeline", "skip-cell"),
     ("pipeline", "skip-sentinel"), ("pipeline", "carry-forward"), ("compare", "left-range"),
     ("compare", "right-range"), ("compare", "status-cell")],
)
def test_a_removed_wiring_key_is_unknown(workdir, capsys, section, key):
    # The definition's role names wire the cells; no job key does.
    job, command = ("caesar.job", "run") if section == "pipeline" else ("compare.job", "compare")
    _write(workdir, job, _read(workdir, job).replace(f"[{section}]\n", f"[{section}]\n{key} = X\n"))
    for argv in (["check", str(workdir / job)], [command, str(workdir / job)]):
        assert main(argv) == 1
        assert f"unknown key '{key}' in [{section}]" in capsys.readouterr().err


def test_quiet_silences_every_command(workdir, capsys):
    _write(workdir, "store_raw.csv", TOGA_FILE)
    _write(workdir, "left.csv", "1,a,b,c\n")
    _write(workdir, "right.csv", "2,d,e,f\n")
    assert main(["--quiet", "sort", str(workdir / "store.job")]) == 0
    assert main(["--quiet", "compare", str(workdir / "compare.job")]) == 0
    assert capsys.readouterr().err == ""
    # A skipped record's warning is printed, unless quiet.
    _write(workdir, "caesar_in.csv", "Id,Item,Colour,Number\n1,Toga,Purple,\n2,Belt,Tan,V\n")
    job = _job_with(workdir, "caesar.job", "on-error = skip-and-log")
    assert main(["run", job]) == 0
    assert "gridpipe: record 1: output cell Main!H2 is #VALUE! (record skipped)\n" in (
        capsys.readouterr().err
    )
    assert main(["--quiet", "run", job]) == 0
    assert capsys.readouterr().err == ""


# --- eval ----------------------------------------------------------------------------


def test_eval_formula_against_definition(workdir, capsys):
    assert main(["eval", str(workdir / "caesar.sheet"), '=ARABIC("MCDLIX")']) == 0
    assert capsys.readouterr().out.strip() == "1459"


def test_eval_uses_workbook_cells_and_names(workdir, capsys):
    assert main(["eval", str(workdir / "caesar.sheet"), "=LEN(A1)"]) == 0
    assert capsys.readouterr().out.strip() == "2"  # A1 holds "Id"


def test_eval_error_value_exits_2(workdir, capsys):
    assert main(["eval", str(workdir / "caesar.sheet"), "=1/0"]) == 2
    assert capsys.readouterr().out.strip() == "#DIV/0!"


def test_eval_parse_error_exits_1(workdir, capsys):
    assert main(["eval", str(workdir / "caesar.sheet"), "=1+"]) == 1


def test_eval_of_a_formula_nested_too_deep_exits_1(workdir, capsys):
    deep = "=" + "(" * 120 + "1" + ")" * 120
    assert main(["eval", str(workdir / "caesar.sheet"), deep]) == 1
    assert capsys.readouterr().err == (
        "error: expected at most 64 levels of nesting at offset 65, found '('\n"
    )


# --- start-up ------------------------------------------------------------------------


def _python(*args, cwd=REPO_ROOT):
    """Run a fresh interpreter on gridpipe's source; its CompletedProcess."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


def test_a_run_loads_neither_dataclasses_nor_logging(workdir):
    # Each job runs as its own short process, so every module it imports
    # is paid for at start-up. -S keeps the environment's site imports out.
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    script = (
        "import sys\n"
        "from gridpipe import cli, config, csvio, engine, pipeline, report, sortio\n"
        "code = cli.main(['run', sys.argv[1]])\n"
        "print(code, sorted({'dataclasses', 'inspect', 'logging'} & set(sys.modules)))\n"
    )
    done = _python("-S", "-c", script, str(workdir / "caesar.job"))
    assert (done.stdout, done.returncode) == ("0 []\n", 0), done.stderr
    assert _read(workdir, "caesar_out.csv").endswith("1,Toga,Purple,1459\n")


def test_python_dash_m_runs_the_cli(workdir):
    done = _python("-m", "gridpipe", "check", "fixtures/caesar.job")
    assert (done.stdout, done.returncode) == ("OK\n", 0), done.stderr
    bad_job = _job_with(workdir, "caesar.job", "on-error = bogus")
    done = _python("-m", "gridpipe.cli", "check", bad_job)
    assert done.returncode == 1
    assert "[pipeline] on-error: must be one of" in done.stderr
