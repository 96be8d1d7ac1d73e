"""Command-line behaviour: exit codes, determinism, flag handling."""

from __future__ import annotations

import json
import logging
import random
import tracemalloc

import pytest

from gridpipe.cli import _write_subtotals, main
from gridpipe.config import load_job
from gridpipe.csvio import read_records
from gridpipe.report import aggregate, parse_job_line, render_report, translation_table

TOGA_FILE = "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n"


def _write(workdir, name, text):
    (workdir / name).write_text(text, encoding="utf-8")


def _read(workdir, name):
    return (workdir / name).read_text(encoding="utf-8")


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
    assert stats["records_read"] == 1
    assert stats["records_written"] == 1
    assert stats["records_read"] == (
        stats["records_written"] + stats["records_skipped"] + stats["records_errored"]
    )


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
    assert main(["run", str(workdir / "store.job"), "--lenient", "--progress", "1"]) == 0
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
    assert main(["--quiet", "run", str(workdir / "caesar.job"), "--fail-fast"]) == 2
    assert "#VALUE!" in capsys.readouterr().err


def test_run_lenient_flag_keeps_going(workdir):
    _write(
        workdir,
        "caesar_in.csv",
        "Id,Item,Colour,Number\n1,Toga,Purple,NOPE\n2,Belt,Tan,V\n",
    )
    assert main(["--quiet", "run", str(workdir / "caesar.job"), "--lenient"]) == 0
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


@pytest.mark.parametrize("mode", ["--fail-fast", "--lenient"])
@pytest.mark.parametrize(
    "bad, line, start",
    [('1,"ab"c,Purple,I\n2,Belt,Tan,V\n', 2, 2), ('1,"Toga\nPurple,I\n2,Belt,Tan,V\n', 4, 2)],
)
def test_run_stops_on_a_malformed_record_naming_its_line(workdir, capsys, mode, bad, line, start):
    _write(workdir, "caesar_in.csv", "Id,Item,Colour,Number\n" + bad)
    assert main(["--quiet", "run", str(workdir / "caesar.job"), mode]) == 2
    err = capsys.readouterr().err
    assert f"caesar_in.csv line {line}:" in err
    assert f"(record from line {start})" in err
    assert not list(workdir.glob("caesar_out*"))


def test_run_naive_split_flag(workdir):
    # Under naive splitting the quoted field breaks apart; strict CSV keeps it.
    _write(workdir, "caesar_in.csv", 'Id,Item,Colour,Number\n1,"Toga",Purple,I\n')
    assert main(["--quiet", "run", str(workdir / "caesar.job"), "--naive-split"]) == 0
    assert '"Toga"' in _read(workdir, "caesar_out.csv")
    assert main(["--quiet", "run", str(workdir / "caesar.job"), "--strict-csv"]) == 0
    assert '"Toga"' not in _read(workdir, "caesar_out.csv")


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
        "2,Toga,Purple,XLI\n",
    )
    assert main(["--quiet", "run", str(workdir / "store.job")]) == 0
    assert _read(workdir, "store_sorted.csv").splitlines()[0] == "Id,Item,Colour,Number"
    out_lines = _read(workdir, "store_out.csv").splitlines()
    assert out_lines[1:] == ["1,Toga,Purple,1459", "2,Toga,Purple,41", "3,Belt,Tan,5"]
    report = _read(workdir, "store_report.csv")
    assert report == (
        "Item,Colour,Sum of Number\nBelt,Tan,5\nToga,Purple,1500\n"
    )


# --- sort / report / compare ------------------------------------------------------


def test_sort_command(workdir):
    _write(
        workdir,
        "store_raw.csv",
        "Id,Item,Colour,Number\n2,b,c,II\n1,a,c,I\n",
    )
    assert main(["--quiet", "sort", str(workdir / "store.job")]) == 0
    assert _read(workdir, "store_sorted.csv").splitlines()[1] == "1,a,c,I"


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
        _write_subtotals(job, str(workdir / "big.csv"), "rfc4180")
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


# --- check --------------------------------------------------------------------------


def test_check_pristine_job_prints_ok(workdir, capsys):
    _write(workdir, "caesar_in.csv", TOGA_FILE)
    assert main(["check", str(workdir / "caesar.job")]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_check_reports_header_typo_position(workdir, capsys):
    _write(workdir, "caesar_in.csv", "Id,Item,Color,Number\n1,Toga,Purple,I\n")
    assert main(["check", str(workdir / "caesar.job")]) == 1
    assert "position 3" in capsys.readouterr().err


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
