"""Seeded inputs and independent oracles for the benchmark's workloads.

Nothing here imports gridpipe. The roman-numeral conversion, the stable
sort, the duplicate filter, the group-by and the set difference are
written out again, so a defect in the program cannot hide in its own
oracle.

Each ``make_*`` function writes one workload's inputs into a workdir
that already holds a copy of ``fixtures/`` (job paths resolve against
the job file) and returns a :class:`Workload`: what to run, how many
records one run attempts, and the exact bytes every output must hold.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

# The shape of scripts/make_input.py: Id, Item, Colour, roman Number.
ITEMS = ["Toga", "Sandal", "Laurel", "Belt", "Crown", "Amphora", "Scroll"]
COLOURS = ["Purple", "White", "Red", "Gold", "Green"]
HEADER = "Id,Item,Colour,Number"

_ROMAN_TABLE = [
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
    (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
]
_SYMBOLS = {"I": 1, "V": 5, "X": 10, "L": 50, "C": 100, "D": 500, "M": 1000}


def to_roman(n: int) -> str:
    """Classic-form numeral for n in [1, 3999]."""
    out = []
    for value, symbol in _ROMAN_TABLE:
        count, n = divmod(n, value)
        out.append(symbol * count)
    return "".join(out)


def from_roman(text: str) -> int:
    """Value of a classic-form numeral: a symbol smaller than the one
    after it is subtracted, every other symbol is added."""
    values = [_SYMBOLS[ch] for ch in text.upper()]
    total = 0
    for i, value in enumerate(values):
        if i + 1 < len(values) and value < values[i + 1]:
            total -= value
        else:
            total += value
    return total


@dataclass
class Workload:
    """One generated workload, ready to run in its workdir."""

    name: str
    job: str  # job file, relative to the workdir
    argv: list[str]  # gridpipe command line, relative paths
    records: int  # input records one run attempts
    expected: dict[str, bytes]  # output file -> exact expected content
    # External sorts run through the library before the job, since a
    # job file cannot set a memory budget: (input, output, budget rows).
    presort: list[tuple[str, str, int]] = field(default_factory=list)
    csv_inputs: list[str] = field(default_factory=list)  # read by the csvio probe
    # (range name, file, has header row): the engine probe writes row i
    # of every file into its range, then recalculates.
    engine_inputs: list[tuple[str, str, bool]] = field(default_factory=list)
    properties: dict = field(default_factory=dict)

    def count_failed(self, workdir: str) -> int:
        """Records wrong or lost: differing, missing or extra output
        lines summed over every output file, capped at the records
        attempted."""
        failed = 0
        for name, want in self.expected.items():
            path = os.path.join(workdir, name)
            try:
                with open(path, "rb") as handle:
                    got = handle.read()
            except OSError:
                return self.records
            if got == want:
                continue
            got_lines, want_lines = got.splitlines(True), want.splitlines(True)
            failed += sum(a != b for a, b in zip(got_lines, want_lines))
            failed += abs(len(got_lines) - len(want_lines))
        return min(failed, self.records)


def _write(workdir: str, name: str, lines: list[str]) -> None:
    with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as out:
        out.write("".join(line + "\n" for line in lines))


def _text(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _store_rows(rng: random.Random, rows: int, dup_rate: float) -> list[tuple[int, str, str, str]]:
    """Rows as scripts/make_input.py draws them: with probability
    dup_rate a row reuses an earlier Id."""
    ids: list[int] = []
    out = []
    for i in range(rows):
        if ids and rng.random() < dup_rate:
            record_id = rng.choice(ids)
        else:
            record_id = i
            ids.append(i)
        out.append(
            (record_id, rng.choice(ITEMS), rng.choice(COLOURS), to_roman(rng.randint(1, 3999)))
        )
    return out


def _line(row) -> str:
    return ",".join(str(part) for part in row)


def make_caesar(workdir: str, seed: int, rows: int) -> Workload:
    data = _store_rows(random.Random(seed), rows, dup_rate=0.0)
    lines = [_line(row) for row in data]
    _write(workdir, "caesar_in.csv", [HEADER] + lines)

    expected = [HEADER]
    for line in lines:
        record_id, item, colour, number = line.split(",")
        expected.append(f"{record_id},{item},{colour},{from_roman(number)}")
    return Workload(
        name="caesar",
        job="caesar.job",
        argv=["run", "caesar.job"],
        records=rows,
        expected={"caesar_out.csv": _text(expected)},
        csv_inputs=["caesar_in.csv"],
        engine_inputs=[("InputCells", "caesar_in.csv", True)],
        properties={"rows": rows, "dup_rate": 0.0, "quoted_share": 0.0},
    )


def make_store(workdir: str, seed: int, rows: int) -> Workload:
    data = _store_rows(random.Random(seed), rows, dup_rate=0.2)
    lines = [_line(row) for row in data]
    _write(workdir, "store_raw.csv", [HEADER] + lines)

    ordered = sorted(lines, key=lambda line: int(line.split(",", 1)[0]))  # stable
    kept = []
    previous = None
    for line in ordered:
        record_id, item, colour, number = line.split(",")
        if record_id != previous:
            kept.append((record_id, item, colour, from_roman(number)))
            previous = record_id
    totals: dict[tuple[str, str], int] = {}
    for _, item, colour, value in kept:
        totals[(item, colour)] = totals.get((item, colour), 0) + value
    report = ["Item,Colour,Sum of Number"]
    report += [f"{item},{colour},{total}" for (item, colour), total in sorted(totals.items())]
    return Workload(
        name="store",
        job="store.job",
        argv=["run", "store.job"],
        records=rows,
        expected={
            "store_sorted.csv": _text([HEADER] + ordered),
            "store_out.csv": _text([HEADER] + [_line(row) for row in kept]),
            "store_report.csv": _text(report),
        },
        csv_inputs=["store_raw.csv"],
        engine_inputs=[("InputCells", "store_raw.csv", True)],
        properties={
            "rows": rows,
            "dup_rate": 0.2,
            "repeated_share": round(1 - len(kept) / rows, 4),
            "quoted_share": 0.0,
        },
    )


KEY_WIDTH = 8


def _extract_line(rng: random.Random, key: int, quoted: bool) -> str:
    """One compare record: zero-padded key, item, colour, note. A quoted
    record carries an embedded comma and a doubled quote."""
    item, colour = rng.choice(ITEMS), rng.choice(COLOURS)
    size = rng.randint(1, 99)
    if quoted:
        return f'{key:0{KEY_WIDTH}d},"{item}, size {size}",{colour},"{size}"" wide"'
    return f"{key:0{KEY_WIDTH}d},{item},{colour},size {size}"


def make_compare(workdir: str, seed: int, rows: int) -> Workload:
    rng = random.Random(seed)
    shared = rows * 9 // 10
    keys = rng.sample(range(10**KEY_WIDTH), 2 * rows - shared)
    left_keys = keys[:rows]
    right_keys = keys[:shared] + keys[rows:]
    rng.shuffle(right_keys)
    left = [_extract_line(rng, key, rng.random() < 1 / 3) for key in left_keys]
    right = [_extract_line(rng, key, rng.random() < 1 / 3) for key in right_keys]
    _write(workdir, "left_raw.csv", left)
    _write(workdir, "right_raw.csv", right)

    def key_of(line: str) -> int:
        return int(line[:KEY_WIDTH])

    left_sorted = sorted(left, key=key_of)
    right_sorted = sorted(right, key=key_of)
    left_set, right_set = set(left_keys), set(right_keys)
    diff = ["< " + line for line in left_sorted if key_of(line) not in right_set]
    diff += ["> " + line for line in right_sorted if key_of(line) not in left_set]
    budget = max(rows // 8, 1)
    quoted = sum('"' in line for line in left + right)
    return Workload(
        name="compare",
        job="compare.job",
        argv=["compare", "compare.job"],
        records=2 * rows,
        expected={
            "left.csv": _text(left_sorted),
            "right.csv": _text(right_sorted),
            "diff.txt": _text(diff),
        },
        presort=[("left_raw.csv", "left.csv", budget), ("right_raw.csv", "right.csv", budget)],
        csv_inputs=["left_raw.csv", "right_raw.csv"],
        engine_inputs=[("LeftCells", "left.csv", False), ("RightCells", "right.csv", False)],
        properties={
            "rows_per_side": rows,
            "key_overlap": round(shared / rows, 4),
            "quoted_share": round(quoted / (2 * rows), 4),
            "sort_budget_rows": budget,
        },
    )


MAKERS = {"caesar": make_caesar, "store": make_store, "compare": make_compare}
