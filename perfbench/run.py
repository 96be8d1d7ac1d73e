#!/usr/bin/env python3
"""gridpipe's benchmark: seeded batch jobs, end to end and per layer.

    python3 perfbench/run.py --workload caesar --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-check

Each run generates the workload's inputs from ``--seed`` into a fresh
work directory under ``.perfbench/`` (seeded with a copy of
``fixtures/``), then runs the job in a closed loop, one child process
at a time, for ``--seconds`` seconds. Every child's outputs are checked
byte for byte against the independent oracle in ``workloads.py``.

With ``--trace 0`` the end-to-end metrics are printed: records per
second, set-up seconds and peak resident set size, each as the value
three children in four meet (the slow-side quartile over the children). With ``--trace 1`` the loop alternates a plain child, a child with
timed spans around gridpipe's public functions (plus csvio and engine
probes) and a child with tracemalloc spans, and prints the per-layer
metrics and the tracing overhead. The spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import MAKERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Input rows per child: each takes well under a second on a 2-CPU VM, so
# a run of 35 s holds 40 or more children, enough that the quartile has
# ten children beyond it.
ROWS = {"caesar": 10_000, "store": 20_000, "compare": 10_000}
SELF_CHECK_ROWS = 300
ENGINE_PROBE_RECORDS = 5_000
CHILD_TIMEOUT_S = 120

END_TO_END = {"records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
HIGHER_IS_BETTER = {"records_per_s"}
PER_LAYER = {
    "config.load_job_s": "s",
    "config.formula_cells": "count",
    "csvio.read_us_per_record": "us",
    "engine.recalc_us_per_record": "us",
    "engine.cells_per_record": "count",
    "pipeline.run_us_per_record": "us",
    "pipeline.self_us_per_record": "us",
    "pipeline.records_read": "count",
    "pipeline.records_written": "count",
    "pipeline.records_skipped": "count",
    "pipeline.records_errored": "count",
    "pipeline.compare_us_per_pair": "us",
    "pipeline.matches": "count",
    "pipeline.left_only": "count",
    "pipeline.right_only": "count",
    "sortio.mem_us_per_row": "us",
    "sortio.ext_us_per_row": "us",
    "report.us_per_row": "us",
    "report.groups": "count",
    "pipeline.run_peak_mb": "MiB",
    "pipeline.compare_peak_mb": "MiB",
    "sortio.mem_peak_mb": "MiB",
    "sortio.ext_peak_mb": "MiB",
    "report.peak_mb": "MiB",
    "cli.warning_lines": "count",
    "trace.overhead_pct": "%",
}


class Bench:
    """One workload generated in its own work directory."""

    def __init__(self, name: str, seed: int, rows: int):
        self.name = name
        self.seed = seed
        os.makedirs(OUT_DIR, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
        shutil.copytree(os.path.join(ROOT, "fixtures"), self.workdir, dirs_exist_ok=True)
        self.workload = MAKERS[name](self.workdir, seed, rows)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.children = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def child(self, mode: str) -> dict:
        """Run one child; return its timings, counts and failures."""
        wl = self.workload
        self.children += 1
        run_id = f"{self.name}-{self.seed}-{self.children}-{mode}"
        for name in wl.expected:  # a stale output must not pass as this run's
            path = os.path.join(self.workdir, name)
            if os.path.exists(path):
                os.remove(path)
        result_path = os.path.join(self.workdir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        spec = {
            "mode": mode,
            "run_id": run_id,
            "workdir": self.workdir,
            "job": wl.job,
            "argv": wl.argv,
            "presort": wl.presort,
            "csv_inputs": wl.csv_inputs,
            "engine_inputs": wl.engine_inputs,
            "engine_records": ENGINE_PROBE_RECORDS,
            "result": result_path,
        }
        stderr_path = os.path.join(self.workdir, "stderr.txt")
        with open(os.devnull, "wb") as devnull, open(stderr_path, "wb") as stderr:
            launched = time.monotonic()
            try:
                code = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                    env=self.env, stdout=devnull, stderr=stderr, timeout=CHILD_TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                code = None
        with open(stderr_path, encoding="utf-8", errors="replace") as stderr:
            log = stderr.read()
        sample = {"mode": mode, "run_id": run_id, "exit": code,
                  "warning_lines": sum(line.startswith("gridpipe:") for line in log.splitlines())}
        try:
            with open(result_path, encoding="utf-8") as handle:
                result = json.load(handle)
        except (OSError, ValueError):
            result = None
        if code != 0 or result is None:
            sample["failed"] = wl.records
            sys.stderr.write(f"perfbench: child {run_id} exited {code}\n{log[-2000:]}")
            return sample
        sample["failed"] = wl.count_failed(self.workdir)
        sample["setup_s"] = result["loaded"] - launched
        sample["job_s"] = result["done"] - result["loaded"]
        sample["records_per_s"] = wl.records / sample["job_s"]
        sample["peak_rss_mb"] = result["hwm_mb"]
        sample["spans"] = result.get("spans", [])
        return sample


def _spans(sample, name, pred=lambda span: True):
    return [s for s in sample["spans"] if s["name"] == name and pred(s)]


def _seconds(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _attr(spans, key) -> float:
    return sum(s["attrs"].get(key, 0) for s in spans)


def _per(value: float, count: float, scale: float = 1e6) -> float:
    return value / count * scale if count else 0.0


def _is_external(span) -> bool:
    return span["attrs"].get("budget", 0) > 0


def _is_in_memory(span) -> bool:
    return not _is_external(span)


def layer_values(timed: dict, memory: dict) -> dict:
    """Per-layer metrics of one spans child and one memory child."""
    load = _spans(timed, "config.load_job")[:1]
    csv_probe = _spans(timed, "probe.csvio")
    engine_probe = _spans(timed, "probe.engine")
    csv_us = _per(_seconds(csv_probe), _attr(csv_probe, "records"))
    engine_records = _attr(engine_probe, "records")
    engine_us = _per(_attr(engine_probe, "busy_s"), engine_records)

    run = _spans(timed, "pipeline.run_pipeline")
    read = _attr(run, "records_read")
    run_us = _per(_seconds(run), read)
    compare = _spans(timed, "pipeline.compare_files")
    outcomes = sum(_attr(compare, key) for key in ("matches", "left_only", "right_only"))
    mem_sort = _spans(timed, "sortio.sort_file", _is_in_memory)
    ext_sort = _spans(timed, "sortio.sort_file", _is_external)
    aggregate = _spans(timed, "report.aggregate")

    def peak(name, pred=lambda span: True):
        found = _spans(memory, name, pred)
        return max((s["attrs"]["peak_bytes"] for s in found), default=0) / 2**20

    return {
        "config.load_job_s": _seconds(load),
        "config.formula_cells": _attr(load, "formula_cells"),
        "csvio.read_us_per_record": csv_us,
        "engine.recalc_us_per_record": engine_us,
        "engine.cells_per_record": _per(_attr(engine_probe, "cells"), engine_records, 1),
        "pipeline.run_us_per_record": run_us,
        "pipeline.self_us_per_record": run_us - csv_us - engine_us if read else 0.0,
        "pipeline.records_read": read,
        "pipeline.records_written": _attr(run, "records_written"),
        "pipeline.records_skipped": _attr(run, "records_skipped"),
        "pipeline.records_errored": _attr(run, "records_errored"),
        "pipeline.compare_us_per_pair": _per(_seconds(compare), outcomes),
        "pipeline.matches": _attr(compare, "matches"),
        "pipeline.left_only": _attr(compare, "left_only"),
        "pipeline.right_only": _attr(compare, "right_only"),
        "sortio.mem_us_per_row": _per(_seconds(mem_sort), _attr(mem_sort, "rows")),
        "sortio.ext_us_per_row": _per(_seconds(ext_sort), _attr(ext_sort, "rows")),
        "report.us_per_row": _per(_seconds(_spans(timed, "report.subtotals")), _attr(aggregate, "rows")),
        "report.groups": _attr(aggregate, "groups"),
        "pipeline.run_peak_mb": peak("pipeline.run_pipeline"),
        "pipeline.compare_peak_mb": peak("pipeline.compare_files"),
        "sortio.mem_peak_mb": peak("sortio.sort_file", _is_in_memory),
        "sortio.ext_peak_mb": peak("sortio.sort_file", _is_external),
        "report.peak_mb": peak("report.subtotals"),
    }


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[list[dict], dict]:
    """Closed loop of children for ``seconds``; returns the samples and
    the metrics over the children that completed, each with its count."""
    bench.child("plain")  # warm-up: bytecode caches, page cache
    rounds = ["plain", "spans", "memory"] if trace else ["plain"]
    samples: list[dict] = []
    started = time.monotonic()
    while not samples or time.monotonic() - started < seconds:
        samples.extend(bench.child(mode) for mode in rounds)

    def done(mode):
        return [s for s in samples if s["mode"] == mode and "job_s" in s]

    plain = done("plain")
    if not plain:
        raise SystemExit(f"perfbench: no {bench.name} run completed")
    if not trace:
        return samples, {
            name: (slow_quartile([s[name] for s in plain], name in HIGHER_IS_BETTER), len(plain))
            for name in END_TO_END
        }

    timed, memory = done("spans"), done("memory")
    if not timed or not memory:
        raise SystemExit(f"perfbench: no traced {bench.name} run completed")
    per_round = [layer_values(t, m) for t, m in zip(timed, memory)]
    metrics = {
        name: (statistics.median(values[name] for values in per_round), len(per_round))
        for name in per_round[0]
    }
    metrics["cli.warning_lines"] = (
        statistics.median(s["warning_lines"] for s in plain), len(plain)
    )
    overhead = statistics.median(s["job_s"] for s in timed) / statistics.median(
        s["job_s"] for s in plain
    )
    metrics["trace.overhead_pct"] = ((overhead - 1) * 100, min(len(timed), len(plain)))
    return samples, metrics


def slow_quartile(values: list[float], higher_is_better: bool) -> float:
    """The value three samples in four meet or beat.

    This host's speed has a steady slow state and irregular fast bursts
    of other tenants going idle; the median moves with the share of
    bursts in a run, the slow-side quartile much less.
    """
    if len(values) < 2:
        return values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low if higher_is_better else high


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(name: str, args, rows: int) -> dict:
    bench = Bench(name, args.seed, rows)
    try:
        samples, metrics = measure(bench, args.seconds, bool(args.trace))
    finally:
        bench.close()
    units = PER_LAYER if args.trace else END_TO_END
    attempted = bench.workload.records * len(samples)
    failed = sum(s["failed"] for s in samples)
    env = environment(args)

    print(f"# {name}: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {name} inputs: " + json.dumps(bench.workload.properties, sort_keys=True))
    statistic = "median" if args.trace else "slow-side quartile"
    for metric, (value, count) in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]} ({statistic} of {count})")
    print(f"{name} fail_share {failed / attempted:.6g} 1 ({failed} of {attempted} records)")
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "environment": env,
                    "workload": name,
                    "inputs": bench.workload.properties,
                    "spans": [span for s in samples for span in s.get("spans", [])],
                },
                out,
            )
        print(f"# {name} spans written to {os.path.relpath(path, ROOT)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, (value, _) in metrics.items()
        },
    }


def self_check() -> int:
    """Small inputs through every workload, plain and traced: the oracles
    accept the program's outputs, reject a corrupted one, and every
    metric BENCHMARK.json names is produced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    names = {kind: {m["name"] for m in declared[kind]} for kind in ("end_to_end", "per_layer")}
    problems = []
    if names["end_to_end"] != set(END_TO_END):
        problems.append(f"end_to_end names differ: {sorted(names['end_to_end'] ^ set(END_TO_END))}")
    if names["per_layer"] != set(PER_LAYER):
        problems.append(f"per_layer names differ: {sorted(names['per_layer'] ^ set(PER_LAYER))}")
    for name in MAKERS:
        bench = Bench(name, seed=1, rows=SELF_CHECK_ROWS)
        try:
            samples, metrics = measure(bench, seconds=0, trace=True)
            if any(s["failed"] for s in samples):
                problems.append(f"{name}: oracle rejected the program's output")
            if set(metrics) != set(PER_LAYER):
                problems.append(f"{name}: per-layer metrics {sorted(set(metrics) ^ set(PER_LAYER))}")
            target = sorted(bench.workload.expected)[-1]
            with open(os.path.join(bench.workdir, target), "ab") as out:
                out.write(b"extra line\n")
            if bench.workload.count_failed(bench.workdir) != 1:
                problems.append(f"{name}: oracle accepted a corrupted {target}")
        finally:
            bench.close()
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*MAKERS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="small inputs, every workload, oracle and metric-name checks")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/gridpipe/cli.py", "fixtures/caesar.job") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a gridpipe checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()

    names = list(MAKERS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, ROWS[name]) for name in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
