"""One run of a gridpipe job in its own process, as a user pays for it.

    python child.py '<spec as JSON>'

The process starts the interpreter, imports gridpipe, loads the job
(the end of set-up), runs any library sorts the workload needs, then
runs the job through ``gridpipe.cli.main`` exactly as the command line
would. It writes one JSON result to ``spec["result"]``: the exit code,
``time.monotonic()`` at the end of set-up and at complete outputs (the
parent compares these with its own clock at launch), and the peak
resident set size.

``spec["mode"]`` is ``plain`` (nothing added), ``spans`` (timed spans
around gridpipe's public functions, then the csvio and engine probes)
or ``memory`` (the same spans, with tracemalloc peaks).
"""

from __future__ import annotations

import json
import os
import sys
import time


def _hwm_mb() -> float:
    """This process's peak resident set size (VmHWM) in MiB.

    Not ``ru_maxrss``: Linux carries that across exec, so a child would
    report its parent's peak whenever the parent's was larger.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _install_spans(tracer, modules) -> None:
    config, cli, engine, pipeline, report, sortio = modules

    def formula_cells(args, job):
        wb = job.workbook
        return {"formula_cells": sum(is_formula for _, is_formula in wb.populated())} if wb else {}

    tracer.patch("config.load_job", "load_job", [config], formula_cells)
    tracer.patch("config.load_definition", "load_definition", [config])
    tracer.patch(
        "sortio.sort_file", "sort_file", [sortio, cli],
        lambda args, rows: {"rows": rows, "budget": args[0].memory_budget_rows},
    )
    tracer.patch(
        "engine.recalculate", "recalculate", [engine, pipeline, cli],
        lambda args, cells: {"cells": cells},
    )
    tracer.patch(
        "pipeline.run_pipeline", "run_pipeline", [pipeline, cli],
        lambda args, stats: {k: v for k, v in stats.as_dict().items() if k != "elapsed"},
    )
    tracer.patch(
        "pipeline.compare_files", "compare_files", [pipeline, cli],
        lambda args, rep: {
            "matches": rep.matches,
            "left_only": len(rep.left_only),
            "right_only": len(rep.right_only),
        },
    )
    # The subtotal step is the CLI's; aggregate and render are report's.
    tracer.patch("report.subtotals", "_write_subtotals", [cli])
    tracer.patch(
        "report.aggregate", "aggregate", [report, cli],
        lambda args, table: {"rows": len(args[0]), "groups": len(table.rows)},
    )
    tracer.patch("report.render_report", "render_report", [report, cli])


def _probes(tracer, spec, job, read_records, recalculate) -> None:
    """Time one csvio read pass over the workload's input, and the
    public ``recalculate`` over records written to the input cells."""
    workdir = spec["workdir"]
    index = tracer.start("probe.csvio")
    records = 0
    for name in spec["csv_inputs"]:
        for _ in read_records(os.path.join(workdir, name)):
            records += 1
    tracer.end(index, records=records)

    wb = job.workbook
    ranges, columns = [], []
    for range_name, name, has_header in spec["engine_inputs"]:
        rng = wb.resolve_name(range_name)
        rows = [fields for _, fields in read_records(os.path.join(workdir, name))]
        ranges.append(rng)
        columns.append(rows[1:] if has_header else rows)
    addresses = [addr for rng in ranges for addr in rng.addresses()]
    pairs = list(zip(*columns))[: spec["engine_records"]]

    index = tracer.start("probe.engine")
    busy = 0.0
    cells = 0
    clock = time.perf_counter
    for record in pairs:
        for rng, fields in zip(ranges, record):
            width = rng.size()
            wb.write_range(rng, [(fields + [""] * width)[:width]])
        started = clock()
        cells += recalculate(wb, addresses)
        busy += clock() - started
    tracer.end(index, records=len(pairs), cells=cells, busy_s=busy)


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.chdir(spec["workdir"])
    from gridpipe import cli, config, csvio, engine, pipeline, report, sortio

    # The probes call the functions themselves, not their traced wrappers.
    read_records, recalculate = csvio.read_records, engine.recalculate
    tracer = None
    if spec["mode"] != "plain":
        from spans import Tracer

        tracer = Tracer(spec["run_id"], memory=spec["mode"] == "memory")
        _install_spans(tracer, (config, cli, engine, pipeline, report, sortio))

    # Set-up ends when the job is loaded and validated. The CLI loads it
    # again by path; hand it the same object rather than pay twice.
    job = config.load_job(spec["job"])
    loaded = time.monotonic()
    real_load_job = config.load_job
    config.load_job = lambda path: job if path == spec["job"] else real_load_job(path)

    if spec["mode"] == "memory":
        import tracemalloc

        tracemalloc.start()
    for source, target, budget in spec["presort"]:
        sortio.sort_file(
            sortio.SortSpec(source, target, memory_budget_rows=budget, scratch_dir=".")
        )
    code = cli.main(spec["argv"])
    done = time.monotonic()
    result = {"exit": code, "loaded": loaded, "done": done, "hwm_mb": _hwm_mb()}

    if spec["mode"] == "spans":
        _probes(tracer, spec, job, read_records, recalculate)
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(spec["result"], "w", encoding="utf-8") as out:
        json.dump(result, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
