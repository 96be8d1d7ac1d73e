"""The benchmark's own tests: oracles, generators and metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import KEY_WIDTH, from_roman, make_compare, make_store, to_roman  # noqa: E402


def test_roman_parser_known_values_and_round_trip():
    assert from_roman("MCDLIX") == 1459
    assert from_roman("MCMXCIV") == 1994
    assert from_roman("mmmcmxcix") == 3999
    assert to_roman(1459) == "MCDLIX"
    assert all(from_roman(to_roman(n)) == n for n in range(1, 4000))


def test_store_oracle_keeps_first_occurrence_in_id_order(tmp_path):
    wl = make_store(str(tmp_path), seed=4, rows=500)
    raw = (tmp_path / "store_raw.csv").read_text().splitlines()[1:]
    first = {}
    for line in raw:
        first.setdefault(int(line.split(",")[0]), line)
    out = wl.expected["store_out.csv"].decode().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in out] == sorted(first)
    for line in out:
        record_id, item, colour, number = line.split(",")
        _, raw_item, raw_colour, roman = first[int(record_id)].split(",")
        assert (item, colour, int(number)) == (raw_item, raw_colour, from_roman(roman))
    report = wl.expected["store_report.csv"].decode().splitlines()
    assert sum(int(line.rsplit(",", 1)[1]) for line in report[1:]) == sum(
        int(line.split(",")[3]) for line in out
    )
    assert 0.15 < wl.properties["repeated_share"] < 0.25


def test_compare_inputs_have_the_stated_properties(tmp_path):
    wl = make_compare(str(tmp_path), seed=4, rows=1000)
    left = (tmp_path / "left_raw.csv").read_text().splitlines()
    right = (tmp_path / "right_raw.csv").read_text().splitlines()
    left_keys = {line[:KEY_WIDTH] for line in left}
    right_keys = {line[:KEY_WIDTH] for line in right}
    assert len(left_keys) == len(left) == len(right_keys) == len(right) == 1000
    assert len(left_keys & right_keys) == 900
    assert 0.28 < wl.properties["quoted_share"] < 0.39
    assert any(", size " in line and '"" wide"' in line for line in left)
    diff = wl.expected["diff.txt"].decode().splitlines()
    assert len(diff) == 200
    assert {line[2 : 2 + KEY_WIDTH] for line in diff} == left_keys ^ right_keys
    for name, raw in (("left.csv", left), ("right.csv", right)):
        lines = wl.expected[name].decode().splitlines()
        assert sorted(lines) == sorted(raw) and lines == sorted(lines)


def test_count_failed_counts_wrong_missing_and_extra_lines(tmp_path):
    wl = make_store(str(tmp_path), seed=4, rows=100)
    for name, content in wl.expected.items():
        (tmp_path / name).write_bytes(content)
    assert wl.count_failed(str(tmp_path)) == 0
    out = tmp_path / "store_out.csv"
    lines = out.read_text().splitlines(True)
    out.write_text("".join(lines[:-2] + ["999,Toga,Red,1\n"]))
    assert wl.count_failed(str(tmp_path)) == 2
    out.unlink()
    assert wl.count_failed(str(tmp_path)) == wl.records


def test_self_check_runs_every_workload_plain_and_traced():
    assert run.main(["--self-check"]) == 0
