"""File sorting: stability, external merge equivalence."""

from __future__ import annotations

import contextlib
import errno
import os
import random
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gridpipe import sortio
from gridpipe.errors import DataError, SettingError, UnknownColumn
from gridpipe.sortio import (
    COLLATIONS,
    MERGE_FAN_IN,
    MissingColumn,
    SortKey,
    SortSpec,
    sort_file,
)
from gridpipe.values import parse_number


def _write_rows(path, rows, header=None):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if header is not None:
            handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def _sort_rows(directory, rows, keys):
    """Rows sorted by ``sort_file`` through new files in a new directory
    in ``directory``.

    On ext4 (auto_da_alloc), truncating or replacing an existing file
    flushes it to disk first, so rewriting the same two files on every
    call would time the disk, not the sort.
    """
    work = Path(tempfile.mkdtemp(dir=directory))
    _write_rows(work / "rows.csv", rows)
    spec = SortSpec(str(work / "rows.csv"), str(work / "sorted.csv"), keys=keys)
    sort_file(spec)
    return [line.split(",") for line in _read_lines(work / "sorted.csv")]


# --- sort_file --------------------------------------------------------------------


def test_sort_by_first_column_with_header(tmp_path):
    _write_rows(
        tmp_path / "in.csv",
        [["3", "c"], ["1", "a"], ["2", "b"]],
        header="Id,Item",
    )
    count = sort_file(
        SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"), has_headings=True)
    )
    assert count == 3
    assert _read_lines(tmp_path / "out.csv") == ["Id,Item", "1,a", "2,b", "3,c"]


def test_already_sorted_input_is_byte_identical(tmp_path):
    rows = [["1", "a"], ["2", "b"], ["10", "c"]]
    _write_rows(tmp_path / "in.csv", rows, header="Id,Item")
    sort_file(
        SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"), has_headings=True)
    )
    assert (tmp_path / "in.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()


def test_numeric_aware_collation_orders_numbers_before_text(tmp_path):
    _write_rows(tmp_path / "in.csv", [["abc"], ["10"], ["2"]])
    sort_file(SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv")))
    assert _read_lines(tmp_path / "out.csv") == ["2", "10", "abc"]


def test_text_collation_is_ordinal_case_insensitive(tmp_path):
    _write_rows(tmp_path / "in.csv", [["10"], ["2"], ["b"], ["A"]])
    sort_file(
        SortSpec(
            str(tmp_path / "in.csv"),
            str(tmp_path / "out.csv"),
            keys=[SortKey(1, collation="text")],
        )
    )
    assert _read_lines(tmp_path / "out.csv") == ["10", "2", "A", "b"]


def test_descending_order(tmp_path):
    _write_rows(tmp_path / "in.csv", [["1"], ["3"], ["2"]])
    sort_file(
        SortSpec(
            str(tmp_path / "in.csv"),
            str(tmp_path / "out.csv"),
            keys=[SortKey(1, descending=True)],
        )
    )
    assert _read_lines(tmp_path / "out.csv") == ["3", "2", "1"]


def test_stability_preserves_input_order_of_equal_keys(tmp_path):
    rows = [["k", str(i)] for i in range(20)]
    random.Random(3).shuffle(rows)
    tagged = [[row[0], row[1], str(seq)] for seq, row in enumerate(rows)]
    _write_rows(tmp_path / "in.csv", tagged)
    sort_file(SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv")))
    sequence_tags = [int(line.split(",")[2]) for line in _read_lines(tmp_path / "out.csv")]
    assert sequence_tags == sorted(sequence_tags)


def test_multiset_preservation(tmp_path):
    rng = random.Random(8)
    rows = [[str(rng.randint(0, 9)), str(rng.randint(0, 9))] for _ in range(500)]
    _write_rows(tmp_path / "in.csv", rows)
    sort_file(SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv")))
    assert Counter(_read_lines(tmp_path / "out.csv")) == Counter(
        ",".join(r) for r in rows
    )


def test_named_key_column(tmp_path):
    _write_rows(
        tmp_path / "in.csv",
        [["1", "z"], ["2", "a"]],
        header="Id,Item",
    )
    sort_file(
        SortSpec(
            str(tmp_path / "in.csv"),
            str(tmp_path / "out.csv"),
            has_headings=True,
            keys=[SortKey("Item")],
        )
    )
    assert _read_lines(tmp_path / "out.csv")[1:] == ["2,a", "1,z"]


def test_named_key_requires_headings(tmp_path):
    _write_rows(tmp_path / "in.csv", [["1"]])
    with pytest.raises(Exception) as err:
        sort_file(
            SortSpec(
                str(tmp_path / "in.csv"),
                str(tmp_path / "out.csv"),
                keys=[SortKey("Item")],
            )
        )
    assert "headings" in str(err.value)


def test_a_spec_needs_a_key():
    with pytest.raises(SettingError, match="^keys: none given$"):
        SortSpec("in.csv", "out.csv", keys=[])


def test_unknown_named_key(tmp_path):
    _write_rows(tmp_path / "in.csv", [["1"]], header="Id")
    with pytest.raises(UnknownColumn):
        sort_file(
            SortSpec(
                str(tmp_path / "in.csv"),
                str(tmp_path / "out.csv"),
                has_headings=True,
                keys=[SortKey("Item")],
            )
        )


def test_missing_key_column_in_row(tmp_path):
    _write_rows(tmp_path / "in.csv", [["1", "a"], ["2"]])
    with pytest.raises(MissingColumn) as err:
        sort_file(
            SortSpec(
                str(tmp_path / "in.csv"),
                str(tmp_path / "out.csv"),
                keys=[SortKey(2)],
            )
        )
    assert "row 2" in str(err.value)


def test_quoted_fields_sort_and_survive_verbatim(tmp_path):
    lines = ['"b,x",2', '"a,y",1']
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    sort_file(SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv")))
    assert _read_lines(tmp_path / "out.csv") == ['"a,y",1', '"b,x",2']


def test_external_sort_keeps_crlf_inside_quotes_byte_for_byte(tmp_path):
    rows = ['3,"c\r\nc"', '1,"a\rb"', "4,d", "2,b"]
    (tmp_path / "in.csv").write_bytes("".join(row + "\n" for row in rows).encode())
    sort_file(
        SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"), memory_budget_rows=1,
                 scratch_dir=str(tmp_path))
    )
    expected = "".join(row + "\n" for row in sorted(rows))
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


# --- external merge path -----------------------------------------------------------


def test_external_path_byte_identical_to_in_memory(tmp_path):
    rng = random.Random(13)
    rows = [
        [str(rng.randint(0, 50)), rng.choice("abcdef"), str(i)]
        for i in range(1000)
    ]
    _write_rows(tmp_path / "in.csv", rows, header="k,g,seq")
    base = SortSpec(
        str(tmp_path / "in.csv"),
        str(tmp_path / "mem.csv"),
        has_headings=True,
        keys=[SortKey(1), SortKey(2, descending=True)],
    )
    sort_file(base)
    external = SortSpec(
        str(tmp_path / "in.csv"),
        str(tmp_path / "ext.csv"),
        has_headings=True,
        keys=[SortKey(1), SortKey(2, descending=True)],
        memory_budget_rows=7,
        scratch_dir=str(tmp_path),
    )
    sort_file(external)
    assert (tmp_path / "mem.csv").read_bytes() == (tmp_path / "ext.csv").read_bytes()


def _numbered_rows(count: int, seed: int = 5) -> str:
    rng = random.Random(seed)
    return "".join(
        f"{rng.randint(0, 40)},{rng.choice('abcXYZ')},{i}\n" for i in range(count)
    )


_MULTILINE_ROWS = "".join(
    f'{k},"line {i}\nstill ""{i}"", here",{i}\n' if i % 3 == 0 else f"{k},plain,{i}\n"
    for i, k in enumerate([5, 3, 9, 3, 1, 7, 5, 2, 8, 3, 6, 4])
)


@pytest.mark.parametrize(
    "header, body, budget",
    [
        ("k,g,seq\n", _numbered_rows(16 * MERGE_FAN_IN), 16),  # exactly MERGE_FAN_IN runs
        # Full chunks only: the last one stays in memory, so 63 chunks
        # spill 62 runs, and 65 spill MERGE_FAN_IN runs, one generation.
        ("k,g,seq\n", _numbered_rows(16 * (MERGE_FAN_IN - 1)), 16),
        ("k,g,seq\n", _numbered_rows(16 * (MERGE_FAN_IN + 1)), 16),
        ("k,g,seq\n", _numbered_rows(1000), 16),  # under MERGE_FAN_IN runs
        ("k,g,seq\n", _numbered_rows(50), 100),  # a single run
        ("k,g,seq\n", "", 4),  # header only
        ("", "", 4),  # empty file
        ("k,g,seq\n", _MULTILINE_ROWS, 2),  # quoted fields spanning lines
    ],
    ids=[
        "fan-in-runs", "fan-in-less-one-chunks", "fan-in-plus-one-chunks",
        "under-fan-in", "single-run", "header-only", "empty", "multi-line",
    ],
)
def test_external_output_byte_identical_to_in_memory(tmp_path, header, body, budget):
    (tmp_path / "in.csv").write_text(header + body, encoding="utf-8")
    keys = [SortKey(1), SortKey(2, descending=True, collation="text")]
    outputs = []
    for name, rows in (("mem.csv", 0), ("ext.csv", budget)):
        spec = SortSpec(
            str(tmp_path / "in.csv"),
            str(tmp_path / name),
            has_headings=bool(header),
            keys=keys,
            memory_budget_rows=rows,
            scratch_dir=str(tmp_path),
        )
        outputs.append((sort_file(spec), (tmp_path / name).read_bytes()))
    assert outputs[0] == outputs[1]


def test_external_scratch_is_cleaned_up(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    _write_rows(tmp_path / "in.csv", [[str(i)] for i in range(50)])
    sort_file(
        SortSpec(
            str(tmp_path / "in.csv"),
            str(tmp_path / "out.csv"),
            memory_budget_rows=3,
            scratch_dir=str(scratch),
        )
    )
    assert list(scratch.iterdir()) == []


def test_failed_sort_leaves_no_files_and_unspilled_sort_no_scratch(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    rows = [[str(i), "x"] for i in range(10)] + [["short"]] + [["1", "y"]]
    _write_rows(tmp_path / "in.csv", rows)
    spec = SortSpec(
        str(tmp_path / "in.csv"),
        str(tmp_path / "out.csv"),
        keys=[SortKey(2)],
        memory_budget_rows=3,  # the short row arrives after three spills
        scratch_dir=str(scratch),
    )
    with pytest.raises(MissingColumn, match="row 11"):
        sort_file(spec)
    assert list(scratch.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "scratch"]

    del rows[10]
    _write_rows(tmp_path / "in.csv", rows)
    for budget in (0, len(rows)):
        spec.memory_budget_rows = budget
        # A sort that spilled would fail: this directory does not exist.
        spec.scratch_dir = str(tmp_path / "absent")
        assert sort_file(spec) == len(rows)


def _track_scratch_files(monkeypatch) -> list:
    """The scratch files sorts make from now on, as they make them."""
    made = []
    temporary_file = tempfile.TemporaryFile

    def tracking_temporary_file(*args, **kwargs):
        made.append(temporary_file(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", tracking_temporary_file)
    return made


def test_a_spilling_sort_makes_one_unnamed_scratch_file_per_generation(tmp_path, monkeypatch):
    # 5,000 rows at budget 16 spill 312 runs into one file, and one
    # generation merges them into a second, 5 runs, before the output.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    _write_rows(tmp_path / "in.csv", [[str(i * 7919 % 5000), str(i)] for i in range(5000)])
    spec = SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "mem.csv"))
    sort_file(spec)
    scratch_files = _track_scratch_files(monkeypatch)
    listings = []
    sections = sortio._run_section

    def listing_section(*args):
        if not listings:
            listings.append(sorted(path.name for path in scratch.iterdir()))
        yield from sections(*args)

    monkeypatch.setattr(sortio, "_run_section", listing_section)
    spec.output_path = str(tmp_path / "ext.csv")
    spec.memory_budget_rows = 16
    spec.scratch_dir = str(scratch)
    assert sort_file(spec) == 5000
    assert listings == [[]]  # no scratch file has a name, even while the sort reads it
    assert len(scratch_files) == 2
    assert all(handle.closed for handle in scratch_files)
    assert list(scratch.iterdir()) == []
    assert (tmp_path / "ext.csv").read_bytes() == (tmp_path / "mem.csv").read_bytes()


_KILLED_AFTER_ONE_RUN = """
import os, signal, sys
from gridpipe import sortio

write_run = sortio._write_run

def write_run_and_die(*args):
    write_run(*args)
    os.kill(os.getpid(), signal.SIGKILL)

sortio._write_run = write_run_and_die
source, target, scratch = sys.argv[1:]
sortio.sort_file(sortio.SortSpec(source, target, memory_budget_rows=1250, scratch_dir=scratch))
"""


def test_a_sort_killed_after_its_first_spill_leaves_nothing_behind(tmp_path):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    _write_rows(tmp_path / "in.csv", [[str(i * 7919 % 10_000), str(i)] for i in range(10_000)])
    killed = subprocess.run(
        [sys.executable, "-c", _KILLED_AFTER_ONE_RUN, str(tmp_path / "in.csv"),
         str(tmp_path / "out.csv"), str(scratch)],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert killed.returncode == -signal.SIGKILL
    assert list(scratch.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "scratch"]


class _FullAfterOneWrite:
    """An output handle whose disk fills after its first write."""

    def __init__(self, handle, error):
        self.handle, self.error, self.writes = handle, error, 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise self.error
        return self.handle.write(text)


@pytest.mark.parametrize("fault", ["run read", "output write"])
@pytest.mark.parametrize("budget", [7, 400 // 65])
def test_a_sort_failing_mid_merge_leaves_nothing_behind(tmp_path, monkeypatch, fault, budget):
    # 400 rows spill 57 runs at budget 7, merged once into the output,
    # and 66 at budget 6, more than MERGE_FAN_IN: a generation merges first.
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    _write_rows(tmp_path / "in.csv", [[str(i % 37), str(i)] for i in range(400)])
    (tmp_path / "out.csv").write_text("previous\n", encoding="utf-8")
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    scratch_files = _track_scratch_files(monkeypatch)
    opened = []
    if fault == "run read":
        sections = sortio._run_section

        def failing_section(handle, cursor):
            for block in sections(handle, cursor):
                yield block
                raise full

        monkeypatch.setattr(sortio, "_run_section", failing_section)
    else:
        output = sortio.atomic_output

        @contextlib.contextmanager
        def failing_output(path):
            with output(path) as handle:
                opened.append(handle)
                yield _FullAfterOneWrite(handle, full)

        monkeypatch.setattr(sortio, "atomic_output", failing_output)
    spec = SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"),
                    memory_budget_rows=budget, scratch_dir=str(scratch))
    with pytest.raises(OSError) as failure:
        sort_file(spec)
    assert failure.value is full
    # The spill's file, and at budget 6 the generation's.
    assert len(scratch_files) == (2 if budget < 7 else 1)
    assert all(handle.closed for handle in scratch_files + opened)
    assert list(scratch.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv", "scratch"]
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == "previous\n"


def test_importing_the_cli_does_not_load_pickle():
    # Only a spilling sort needs pickle; importing it costs peak RSS.
    code = "import sys, gridpipe.cli; print('pickle' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert out.stdout.strip() == "False"


# --- the sequential-sort equivalence -------------------------------------------------


def _random_table(rng: random.Random, rows: int, cols: int):
    cells = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.5:
                row.append(str(rng.randint(0, 20)))
            else:
                row.append(rng.choice(["ant", "Bee", "cat", "DOG", "emu"]))
        cells.append(row)
    return cells


def _random_keys(rng: random.Random, cols: int):
    count = rng.randint(1, min(4, cols))
    columns = rng.sample(range(1, cols + 1), count)
    return [
        SortKey(
            column,
            descending=rng.random() < 0.4,
            collation=rng.choice(["numeric-aware", "text"]),
        )
        for column in columns
    ]


def test_sequential_single_key_sorts_equal_composite_sort(tmp_path):
    rng = random.Random(99)
    for _ in range(60):
        rows = _random_table(rng, rng.randint(0, 80), rng.randint(1, 6))
        cols = len(rows[0]) if rows else 1
        keys = _random_keys(rng, cols)
        composite = _sort_rows(tmp_path, rows, keys)
        sequential = list(rows)
        for key in reversed(keys):
            sequential = _sort_rows(tmp_path, sequential, [key])
        assert sequential == composite


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sequential_equivalence_property(tmp_path_factory, data):
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(["1", "2", "10", "x", "Y"]),
                st.sampled_from(["a", "B", "3"]),
            ).map(list),
            max_size=40,
        )
    )
    keys = [
        SortKey(1, descending=data.draw(st.booleans())),
        SortKey(2, descending=data.draw(st.booleans())),
    ]
    directory = tmp_path_factory.mktemp("sequential")
    composite = _sort_rows(directory, rows, keys)
    sequential = _sort_rows(directory, _sort_rows(directory, rows, [keys[1]]), [keys[0]])
    assert sequential == composite


# --- the key, against the three-item key it replaced --------------------------------


def _three_item_key_element(field_text: str, collation: str):
    """The numeric-aware key element sortio used before, kept as an oracle."""
    if collation == "numeric-aware":
        number = parse_number(field_text)
        if number is not None:
            return (0, number, "")
        return (1, 0.0, field_text.upper())
    return field_text.upper()


def test_key_orders_like_the_three_item_key(tmp_path):
    rng = random.Random(61)
    values = ["", "  ", "0", "-0", "0.0", "7", " 7 ", "2.50", "-3", "1e3", "10",
              "ant", "Bee", "bee", "x1", "N/A", "-", "1e", "DOG"]
    for trial in range(150):
        cols = rng.randint(1, 4)
        rows = [
            [rng.choice(values) for _ in range(cols)] + [str(i)]
            for i in range(rng.randint(0, 40))
        ]
        keys = _random_keys(rng, cols)
        text = "".join(",".join(row) + "\n" for row in rows)
        work = tmp_path / f"t{trial}"  # new files each trial, as in ``_sort_rows``
        work.mkdir()
        (work / "in.csv").write_text(text, encoding="utf-8")
        spec = SortSpec(str(work / "in.csv"), str(work / "out.csv"), keys=keys)
        sort_file(spec)

        # Stable sorts from the last key to the first give the composite order.
        expected = list(rows)
        for key in reversed(keys):
            expected.sort(
                key=lambda row: _three_item_key_element(row[key.column - 1], key.collation),
                reverse=key.descending,
            )
        assert _read_lines(work / "out.csv") == [",".join(r) for r in expected], trial


def _oracle_lines(rows, keys):
    """Rows in the order of stable sorts by the three-item key, last key first."""
    expected = list(rows)
    for key in reversed(keys):
        expected.sort(
            key=lambda row: _three_item_key_element(row[key.column - 1], key.collation),
            reverse=key.descending,
        )
    return [",".join(row) for row in expected]


# First-key texts of every kind the block key path tells apart: digit runs
# (float() reads them in C), other numbers, padded numbers, a digit run too
# long for a float, non-ASCII digits, empty fields and texts.
_KEY_TEXTS = st.sampled_from([
    "0", "7", "07", "10", "12345678", "-3", "+4", "2.50", "1e3", "-0", " 7 ", "9" * 309,
    "٣", "١٠", "", "  ", "ant", "Bee", "bee", "N/A", "-", "1e", "x1",
])
_KEY_SPECS = st.tuples(st.booleans(), st.sampled_from(COLLATIONS))


@given(
    pairs=st.lists(st.tuples(_KEY_TEXTS, _KEY_TEXTS), min_size=MERGE_FAN_IN + 6, max_size=130),
    first=_KEY_SPECS,
    second=st.none() | _KEY_SPECS,
)
@settings(max_examples=20, deadline=None)
def test_every_budget_writes_the_three_item_key_order(tmp_path_factory, pairs, first, second):
    rows = [[a, b, str(i)] for i, (a, b) in enumerate(pairs)]
    keys = [SortKey(1, *first)] + ([] if second is None else [SortKey(2, *second)])
    directory = tmp_path_factory.mktemp("budgets")
    _write_rows(directory / "in.csv", rows)
    expected = "".join(line + "\n" for line in _oracle_lines(rows, keys)).encode()
    # The last budget spills more than MERGE_FAN_IN runs, so runs merge
    # in a generation before the final merge; so do budgets 1 and 2.
    for budget in (0, 1, 2, 7, len(rows) // (MERGE_FAN_IN + 1)):
        out = Path(tempfile.mkdtemp(dir=directory)) / "out.csv"  # as in ``_sort_rows``
        spec = SortSpec(str(directory / "in.csv"), str(out), keys=keys,
                        memory_budget_rows=budget, scratch_dir=str(directory))
        assert sort_file(spec) == len(rows)
        assert out.read_bytes() == expected, budget


@pytest.mark.parametrize("budget", [0, 7])
@pytest.mark.parametrize(
    "columns, problem",
    [([3, 2], "row 40: no column 3 for sort key"),  # both keys missing: the first one
     ([2, 3], "row 40: no column 2 for sort key"),
     ([1, 4], "row 30: no column 4 for sort key")],  # row 30 misses only the later key
)
def test_a_short_row_inside_a_block_names_its_row_and_first_missing_key(
    tmp_path, budget, columns, problem
):
    rows = [[str(i % 5), "x", "y", str(i)] for i in range(1, 101)]
    rows[29] = ["1", "x", "y"]
    rows[39] = ["1"]
    _write_rows(tmp_path / "in.csv", rows)
    spec = SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"),
                    keys=[SortKey(column) for column in columns], memory_budget_rows=budget,
                    scratch_dir=str(tmp_path))
    with pytest.raises(MissingColumn) as err:
        sort_file(spec)
    assert str(err.value) == problem
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in.csv"]


@pytest.mark.parametrize("budget", [0, 7])
@pytest.mark.parametrize("short, malformed", [(30, 35), (35, 30)])
def test_of_a_short_row_and_a_malformed_record_in_one_block_the_first_is_reported(
    tmp_path, budget, short, malformed
):
    # Rows 29-35 share a block at either budget; a row-by-row read meets
    # the earlier of the two problems first.
    lines = [f"{i % 5},x,{i}" for i in range(1, 101)]
    lines[short - 1] = "1"
    lines[malformed - 1] = '1,"x"y,z'
    (tmp_path / "in.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"),
                    keys=[SortKey(2)], memory_budget_rows=budget, scratch_dir=str(tmp_path))
    with pytest.raises(DataError) as err:
        sort_file(spec)
    if short < malformed:
        assert err.type is MissingColumn
        assert str(err.value) == f"row {short}: no column 2 for sort key"
    else:
        assert err.type is DataError
        assert str(err.value).startswith(f"{tmp_path / 'in.csv'} line {malformed}: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in.csv"]


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("key", ["5", "k"])
def test_500_rows_with_one_key_keep_their_input_order_at_budget_7(tmp_path, key, descending):
    # Ties cross block and run boundaries: the merge must take them in run order.
    text = "".join(f"{key},{i}\n" for i in range(500))
    (tmp_path / "in.csv").write_text(text, encoding="utf-8")
    spec = SortSpec(str(tmp_path / "in.csv"), str(tmp_path / "out.csv"),
                    keys=[SortKey(1, descending)], memory_budget_rows=7,
                    scratch_dir=str(tmp_path))
    assert sort_file(spec) == 500
    assert (tmp_path / "out.csv").read_text(encoding="utf-8") == text
