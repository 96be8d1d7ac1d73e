"""Subtotal job lines, aggregation, and rendering."""

from __future__ import annotations

import csv
import io
import random

import pytest

from gridpipe.errors import ConfigError, UnknownColumn
from gridpipe.report import (
    BadControlTable,
    NonNumericMeasure,
    aggregate,
    make_job,
    parse_job_line,
    render_report,
    subtotal,
    translation_table,
)

HEADERS = ["Id", "Item", "Colour", "Number", "Amount"]
TRANSLATION = translation_table(HEADERS)


# --- job lines ------------------------------------------------------------------


def test_unknown_measure_column():
    with pytest.raises(UnknownColumn) as err:
        parse_job_line("Weight : Item", TRANSLATION)
    assert "Weight" in str(err.value)


def test_measure_and_group_must_be_disjoint():
    with pytest.raises(BadControlTable):
        make_job(["Item"], ["Item"], TRANSLATION)


def test_make_job_takes_sum_or_count():
    with pytest.raises(BadControlTable, match="^aggregate must be sum or count, got 'mean'$"):
        make_job(["Number"], ["Item"], TRANSLATION, "mean")


def test_parse_job_line_variants():
    job = parse_job_line("Number : Item, Colour", TRANSLATION)
    assert job.measures == ("Number",) and job.aggregate == "sum"
    job = parse_job_line("count Number : Item", TRANSLATION)
    assert job.aggregate == "count"
    with pytest.raises(BadControlTable):
        parse_job_line("Number Item", TRANSLATION)


# --- aggregation -----------------------------------------------------------------


def _job(measures=("Number",), group_by=("Item", "Colour"), aggregate_kind="sum"):
    return make_job(list(measures), list(group_by), TRANSLATION, aggregate_kind)


def test_single_record_single_group():
    table = aggregate([["1", "Toga", "Purple", "1459", "9"]], _job())
    assert table.rows == [(("Toga", "Purple"), [1459.0])]


def test_empty_record_set():
    table = aggregate([], _job())
    assert table.rows == []
    assert render_report(table).splitlines() == ["Item,Colour,Sum of Number"]


def test_group_keys_sorted_lexicographically():
    records = [
        ["1", "b", "x", "1", "0"],
        ["2", "a", "y", "2", "0"],
        ["3", "a", "x", "3", "0"],
    ]
    table = aggregate(records, _job())
    assert [key for key, _ in table.rows] == [("a", "x"), ("a", "y"), ("b", "x")]


def test_sums_match_brute_force_two_pass_oracle():
    rng = random.Random(17)
    records = []
    for i in range(100):
        records.append(
            [
                str(i),
                rng.choice(["Toga", "Belt", "Crown"]),
                rng.choice(["Red", "Blue"]),
                str(rng.randint(-50, 50)),
                str(rng.randint(0, 9)),
            ]
        )
    job = _job()
    table = aggregate(records, job)

    # Independent oracle: collect per-group values first, sum second.
    collected: dict[tuple, list] = {}
    for record in records:
        collected.setdefault((record[1], record[2]), []).append(float(record[3]))
    assert dict(table.rows) == {
        key: [float(sum(values))] for key, values in sorted(collected.items())
    }


def test_sum_conservation_for_integer_data():
    rng = random.Random(23)
    records = [
        ["x", rng.choice("abc"), rng.choice("de"), str(rng.randint(0, 1000)), "0"]
        for _ in range(500)
    ]
    table = aggregate(records, _job())
    assert sum(totals[0] for _, totals in table.rows) == sum(
        float(r[3]) for r in records
    )


def test_count_aggregate_counts_non_blank_values():
    records = [
        ["1", "Toga", "Red", "5", ""],
        ["2", "Toga", "Red", "", ""],
        ["3", "Belt", "Red", "7", ""],
    ]
    table = aggregate(records, _job(aggregate_kind="count"))
    assert dict(table.rows) == {("Belt", "Red"): [1.0], ("Toga", "Red"): [1.0]}
    total = sum(t[0] for _, t in table.rows)
    assert total == sum(1 for r in records if r[3].strip())


def test_non_numeric_measure_is_reported_with_position():
    records = [["1", "Toga", "Red", "5", "0"], ["2", "Toga", "Red", "oops", "0"]]
    with pytest.raises(NonNumericMeasure) as err:
        aggregate(records, _job())
    assert err.value.record_index == 2
    assert err.value.column == "Number"


def test_blank_measures_contribute_nothing():
    records = [["1", "Toga", "Red", "", "0"], ["2", "Toga", "Red", "5", "0"]]
    table = aggregate(records, _job())
    assert table.rows == [(("Toga", "Red"), [5.0])]


def test_a_short_record_reads_its_missing_fields_as_blank():
    # Id, Item, Colour, Number, Amount: each short record lacks the
    # Colour, Number or Amount that the jobs read.
    records = [["1", "Toga", "", "5", "7"], ["2", "Toga"], ["3", "Toga", "", "2"], ["4"]]
    jobs = [_job(("Number", "Amount")), _job(("Number", "Amount"), aggregate_kind="count")]
    sums, counts = subtotal(iter(records), jobs)
    assert sums.rows == [(("", ""), [0.0, 0.0]), (("Toga", ""), [7.0, 7.0])]
    assert counts.rows == [(("", ""), [0.0, 0.0]), (("Toga", ""), [2.0, 1.0])]


def test_aggregation_is_permutation_invariant_for_integers():
    rng = random.Random(31)
    records = [
        ["x", rng.choice("ab"), rng.choice("cd"), str(rng.randint(0, 99)), "0"]
        for _ in range(200)
    ]
    table_a = aggregate(records, _job())
    shuffled = records[:]
    rng.shuffle(shuffled)
    table_b = aggregate(shuffled, _job())
    assert table_a.rows == table_b.rows


def test_subtotal_over_one_shot_generator_matches_per_job_aggregate():
    rng = random.Random(41)
    records = [
        [
            str(i),
            rng.choice(["Toga", "Belt", "Crown"]),
            rng.choice(["Red", "Blue", ""]),
            rng.choice(["", str(rng.randint(-9, 99))]),
            str(rng.randint(0, 9)),
        ]
        for i in range(300)
    ]
    jobs = [_job(), _job(("Number", "Amount"), ("Item",), "count")]
    tables = subtotal((record for record in records), jobs)
    assert tables == [aggregate(records, job) for job in jobs]


def test_subtotal_reports_first_non_numeric_measure_in_input_order():
    jobs = [_job(("Number",), ("Item",)), _job(("Amount",), ("Item",))]
    records = [["1", "Toga", "Red", "5", "oops"], ["2", "Toga", "Red", "bad", "0"]]
    with pytest.raises(NonNumericMeasure) as err:
        subtotal(iter(records), jobs)
    assert (err.value.record_index, err.value.column) == (1, "Amount")


# --- rendering ----------------------------------------------------------------------


def test_csv_render_round_trips_through_the_reader():
    records = [["1", "To,ga", "Red", "5", "0"], ["2", "To,ga", "Red", "7", "0"]]
    table = aggregate(records, _job())
    text = render_report(table, "csv")
    assert list(csv.reader(io.StringIO(text))) == [
        ["Item", "Colour", "Sum of Number"],
        ["To,ga", "Red", "12"],
    ]


def test_one_row_table_renders_header_plus_line():
    table = aggregate([["1", "Toga", "Purple", "1459", "0"]], _job())
    assert render_report(table) == "Item,Colour,Sum of Number\nToga,Purple,1459\n"


def test_aligned_text_render():
    table = aggregate(
        [["1", "Toga", "Purple", "1459", "0"], ["2", "B", "R", "2", "0"]], _job()
    )
    lines = render_report(table, "aligned-text").splitlines()
    assert lines[0].startswith("Item")
    # columns align: every Colour cell starts at the same offset
    offset = lines[0].index("Colour")
    assert lines[1][offset - 1] == " "
    assert lines[2][offset - 1] == " "


def test_an_unknown_report_format_is_rejected():
    with pytest.raises(ConfigError, match="^unknown report format: 'xml'$"):
        render_report(aggregate([["1", "Toga", "Purple", "5", "9"]], _job()), "xml")


def test_integer_sums_render_without_decimal_point():
    table = aggregate([["1", "a", "b", "2", "0"], ["2", "a", "b", "3", "0"]], _job())
    assert "5" in render_report(table) and "5.0" not in render_report(table)
