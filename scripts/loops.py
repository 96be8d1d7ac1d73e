#!/usr/bin/env python3
"""Print the code gridpipe generates for the benchmark's workloads.

For each workload of perfbench/workloads.py (seed 7, 2,000 rows) it
copies fixtures/ into a temporary directory, writes the workload's
inputs there, runs its presorts and then its gridpipe command line, and
prints every source the engine compiles (the record loop, the compare
loop, plan functions) under the workload's name and the source's label.
It exits 1 if a command fails or an output differs from the workload's
oracle.

    PYTHONPATH=src python scripts/loops.py > loops.txt

Run it over two trees and diff the outputs to see how a change moves
the generated code.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import MAKERS  # noqa: E402

from gridpipe import cli, engine, sortio  # noqa: E402

SEED, ROWS = 7, 2_000


def run(name: str, workdir: str) -> str | None:
    """Run one workload in ``workdir``; what went wrong, or None."""
    shutil.copytree(os.path.join(ROOT, "fixtures"), workdir, dirs_exist_ok=True)
    workload = MAKERS[name](workdir, SEED, ROWS)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for source, target, budget in workload.presort:
            sortio.sort_file(sortio.SortSpec(source, target, memory_budget_rows=budget,
                                             scratch_dir="."))
        code = cli.main(["--quiet", *workload.argv])
    finally:
        os.chdir(home)
    if code:
        return f"exit {code}"
    failed = workload.count_failed(workdir)
    return f"{failed} records differ from the oracle" if failed else None


def main() -> int:
    captured: list[tuple[str, str]] = []
    define = engine._Emitter.define

    def capture(self, name, label, source, **names):
        captured.append((label, source))
        return define(self, name, label, source, **names)

    engine._Emitter.define = capture
    status = 0
    try:
        for name in MAKERS:
            workdir = tempfile.mkdtemp(prefix=f"loops-{name}-")
            try:
                problem = run(name, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for label, source in captured:
                print(f"### {name}: {label}\n{source}", end="" if source.endswith("\n") else "\n")
            captured.clear()
            if problem:
                print(f"loops.py: {name}: {problem}", file=sys.stderr)
                status = 1
    finally:
        engine._Emitter.define = define
    return status


if __name__ == "__main__":
    sys.exit(main())
