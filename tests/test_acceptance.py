"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the throughput figure.
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter

import wbgen
from gridpipe.cli import main
from gridpipe.config import load_definition
from gridpipe.engine import recalculate
from gridpipe.functions import arabic_value, roman_text
from gridpipe.pipeline import CompareSpec, PipelineSpec, compare_files, run_pipeline
from gridpipe.report import aggregate, make_job, translation_table
from gridpipe.sortio import SortKey, SortSpec, sort_file


@contextlib.contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > limit_seconds:
        print(f"criterion {number}: FAIL - {description} ({elapsed:.2f}s over {limit_seconds}s budget)")
        raise AssertionError(
            f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number}: PASS - {description} ({elapsed:.3f}s)")


def test_criterion_1_roman_rule_exact(workdir):
    with criterion(1, "MCDLIX converts to exactly 1459, in under a millisecond", 1.0):
        assert arabic_value("MCDLIX") == 1459.0  # warm-up and exactness
        best = min(
            _timed(lambda: arabic_value("MCDLIX")) for _ in range(5)
        )
        assert best < 0.001, f"single conversion took {best * 1e6:.0f}us"

        wb = load_definition(workdir / "caesar.sheet")
        wb.write_range(
            wb.resolve_name("InputCells"), [["1", "Toga", "Purple", "MCDLIX"]]
        )
        recalculate(wb, wb.resolve_name("InputCells").addresses())
        parts = wb.read_range(wb.resolve_name("RomanParts"))
        assert parts == [[1000.0, 400.0, 50.0, 9.0]]
        answer = wb.read_range(wb.resolve_name("RomanAnswer"))
        assert answer == [[1459.0]]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_round_trip_exhaustive():
    with criterion(2, "arabic(roman(n)) = n for every n in 1..3999", 1.0):
        failures = [n for n in range(1, 4000) if arabic_value(roman_text(n)) != float(n)]
        assert failures == []


def test_criterion_3_end_to_end_single_row(workdir):
    with criterion(3, "the toga row streams to byte-exact output via the CLI", 1.0):
        (workdir / "caesar_in.csv").write_text(
            "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n", encoding="utf-8"
        )
        assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
        output = (workdir / "caesar_out.csv").read_text(encoding="utf-8")
        assert output == "Id,Item,Colour,Number\n1,Toga,Purple,1459\n"


def test_criterion_4_dedup_matches_first_occurrence_filter(workdir):
    with criterion(4, "carry-forward dedup equals the first-occurrence filter", 5.0):
        rng = random.Random(404)
        rows = []
        for _ in range(1000):
            key = rng.randint(1, 250)  # plenty of duplicate keys
            rows.append(
                [
                    f"{key:04d}",
                    rng.choice(["Toga", "Belt", "Crown", "Sandal"]),
                    rng.choice(["Red", "Blue", "White", "Purple"]),
                    roman_text(rng.randint(1, 3999)),
                ]
            )
        rows.sort(key=lambda r: r[0])  # sorted input: duplicates consecutive

        seen: set = set()
        expected = []
        for row in rows:
            if row[0] in seen:
                continue
            seen.add(row[0])
            expected.append(
                ",".join(row[:3] + [str(int(arabic_value(row[3])))])
            )

        (workdir / "dedup_in.csv").write_text(
            "Id,Item,Colour,Number\n" + "".join(",".join(r) + "\n" for r in rows),
            encoding="utf-8",
        )
        wb = load_definition(workdir / "dedup.sheet")
        spec = PipelineSpec(
            str(workdir / "dedup_in.csv"),
            str(workdir / "dedup_out.csv"),
        )
        stats = run_pipeline(spec, wb)
        produced = (workdir / "dedup_out.csv").read_text().splitlines()[1:]
        assert produced == expected
        assert stats.records_read == 1000
        assert stats.records_skipped == 1000 - len(expected)


def _sort_rows(directory, rows, keys):
    """Rows sorted by ``sort_file`` through a file in ``directory``."""
    text = "".join(",".join(row) + "\n" for row in rows)
    (directory / "rows.csv").write_text(text, "utf-8")
    sort_file(SortSpec(str(directory / "rows.csv"), str(directory / "sorted.csv"), keys=keys))
    return [line.split(",") for line in (directory / "sorted.csv").read_text("utf-8").splitlines()]


def test_criterion_5_sort_properties(tmp_path):
    with criterion(
        5, "multiset, stability, sequential equivalence, external=in-memory", 30.0
    ):
        rng = random.Random(505)

        # 200 random tables: composite sort preserves the multiset, is
        # stable, and equals folding stable single-key sorts.
        for _ in range(200):
            height = int(10 ** rng.uniform(0.5, rng.choice([2.0, 3.7])))
            height = min(height, 5000)
            width = rng.randint(1, 5)
            rows = []
            for seq in range(height):
                row = [
                    str(rng.randint(0, 30))
                    if rng.random() < 0.6
                    else rng.choice(["ant", "Bee", "cat", "DOG"])
                    for _ in range(width)
                ]
                row.append(str(seq))  # stability tag in the final column
                rows.append(row)
            key_columns = rng.sample(range(1, width + 1), rng.randint(1, width))
            keys = [
                SortKey(
                    column,
                    descending=rng.random() < 0.4,
                    collation=rng.choice(["numeric-aware", "text"]),
                )
                for column in key_columns
            ]

            composite = _sort_rows(tmp_path, rows, keys)
            assert Counter(map(tuple, composite)) == Counter(map(tuple, rows))

            sequential = list(rows)
            for key in reversed(keys):
                sequential = _sort_rows(tmp_path, sequential, [key])
            assert sequential == composite

            key_of = lambda row: tuple(row[c - 1] for c in key_columns)
            groups: dict = {}
            for row in composite:
                groups.setdefault(key_of(row), []).append(int(row[-1]))
            for tags in groups.values():
                assert tags == sorted(tags), "equal keys must keep input order"

        # External path, two-row budget, 10,000 rows: byte-identical.
        rows = [
            f"{rng.randint(0, 99)},{rng.choice('abcdef')},{seq}"
            for seq in range(10_000)
        ]
        (tmp_path / "big.csv").write_text("".join(r + "\n" for r in rows), "utf-8")
        keys = [SortKey(1), SortKey(2, descending=True)]
        sort_file(SortSpec(str(tmp_path / "big.csv"), str(tmp_path / "mem.csv"), keys=keys))
        sort_file(
            SortSpec(
                str(tmp_path / "big.csv"),
                str(tmp_path / "ext.csv"),
                keys=keys,
                memory_budget_rows=2,
                scratch_dir=str(tmp_path),
            )
        )
        assert (tmp_path / "mem.csv").read_bytes() == (tmp_path / "ext.csv").read_bytes()


def test_criterion_6_recalculation_properties():
    with criterion(
        6, "recalc idempotence and incremental=full on 1000 random workbooks", 30.0
    ):
        for seed in range(1000):
            rng = random.Random(seed)
            wb, literals = wbgen.make_random_workbook(rng)
            recalculate(wb)
            first = wbgen.snapshot(wb)
            recalculate(wb)
            assert wbgen.snapshot(wb) == first, f"idempotence broke at seed {seed}"

            touched = wbgen.mutate_literals(rng, wb, literals)
            recalculate(wb, touched)
            incremental = wbgen.snapshot(wb)
            for key in list(wb.values):
                if key not in wb._literals:
                    del wb.values[key]
            recalculate(wb)
            assert wbgen.snapshot(wb) == incremental, f"divergence at seed {seed}"


def test_criterion_7_throughput_benchmark(workdir):
    rng = random.Random(707)
    with open(workdir / "bench_in.csv", "w", encoding="utf-8") as handle:
        handle.write("Id,Item,Colour,Number\n")
        for i in range(50_000):
            handle.write(
                f"{i},Item{i % 7},Colour{i % 5},{roman_text(rng.randint(1, 3999))}\n"
            )
    wb = load_definition(workdir / "caesar.sheet")
    spec = PipelineSpec(str(workdir / "bench_in.csv"), str(workdir / "bench_out.csv"))
    started = time.perf_counter()
    stats = run_pipeline(spec, wb)
    elapsed = time.perf_counter() - started
    rate = stats.records_written / elapsed
    target = "within" if elapsed <= 10.0 else "OVER"
    print(
        f"criterion 7: {'PASS' if elapsed <= 60.0 else 'FAIL'} - benchmark: "
        f"50,000 records in {elapsed:.2f}s ({rate:,.0f} records/s), "
        f"{target} the 10s target, hard limit 60s"
    )
    assert stats.records_written == 50_000
    assert elapsed <= 60.0, f"throughput hard limit exceeded: {elapsed:.2f}s"


def test_criterion_8_subtotals_match_brute_force(tmp_path):
    with criterion(8, "subtotal jobs equal a brute-force group-by, sums conserved", 5.0):
        rng = random.Random(808)
        headers = ["Id", "Item", "Colour", "Number", "Amount"]
        records = []
        for i in range(1000):
            records.append(
                [
                    str(i),
                    rng.choice(["Toga", "Belt", "Crown"]),
                    rng.choice(["Red", "Blue", "White"]),
                    str(rng.randint(0, 5000)),
                    str(rng.randint(0, 100)),
                ]
            )
        translation = translation_table(headers)

        # control-table row 1: Number by Item, Colour
        job = make_job(["Number"], ["Item", "Colour"], translation)
        table = aggregate(records, job)
        oracle: dict = {}
        for record in records:
            oracle.setdefault((record[1], record[2]), []).append(float(record[3]))
        assert dict(table.rows) == {
            key: [float(sum(vals))] for key, vals in oracle.items()
        }
        assert sum(t[0] for _, t in table.rows) == sum(float(r[3]) for r in records)

        # control-table row 2: Number and Amount by Item
        job = make_job(["Number", "Amount"], ["Item"], translation)
        table = aggregate(records, job)
        oracle = {}
        for record in records:
            entry = oracle.setdefault((record[1],), [0.0, 0.0])
            entry[0] += float(record[3])
            entry[1] += float(record[4])
        assert dict(table.rows) == oracle
        assert sum(t[1] for _, t in table.rows) == sum(float(r[4]) for r in records)


def test_criterion_9_compare_matches_set_difference(workdir):
    with criterion(9, "sorted-file comparison equals the set-difference oracle", 5.0):
        rng = random.Random(909)
        universe = range(5000)
        left_keys = sorted(rng.sample(universe, 800))
        right_keys = sorted(rng.sample(universe, 800))
        make_row = lambda k: f"{k:05d},Item{k % 9},Colour{k % 4},{k % 100}"
        (workdir / "left.csv").write_text(
            "".join(make_row(k) + "\n" for k in left_keys), "utf-8"
        )
        (workdir / "right.csv").write_text(
            "".join(make_row(k) + "\n" for k in right_keys), "utf-8"
        )
        wb = load_definition(workdir / "compare.sheet")
        report = compare_files(
            CompareSpec(str(workdir / "left.csv"), str(workdir / "right.csv")), wb
        )
        left_set, right_set = set(left_keys), set(right_keys)
        assert report.left_only == [make_row(k) for k in sorted(left_set - right_set)]
        assert report.right_only == [make_row(k) for k in sorted(right_set - left_set)]
        assert report.matches == len(left_set & right_set)
