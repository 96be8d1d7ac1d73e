"""Command-line front end.

Exit codes: 0 success, 1 configuration or validation error, 2 data or
record error under fail-fast, 3 I/O failure. Diagnostics go to stderr;
data only ever goes to the output paths a job declares.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import config as config_mod, errors
from .csvio import atomic_output, read_records
from .engine import recalculate
from .errors import ConfigError, DataError
from .pipeline import run_pipeline, compare_files
from .report import parse_job_line, render_report, subtotal, translation_table
from .sortio import sort_file
from .values import CellError, render_value

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpipe",
        description="Stream delimited records through a formula workbook.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress and warnings")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sort (if configured), stream, report (if configured)")
    run.add_argument("job", help="job file")
    run.add_argument("--progress", type=int, default=10_000, metavar="N",
                     help="progress line every N records (default 10000)")
    run.add_argument("--stats-json", metavar="PATH",
                     help="write run statistics as JSON")
    run.set_defaults(handler=_cmd_run)

    sort = sub.add_parser("sort", help="sort the job's input file")
    sort.add_argument("job")
    sort.set_defaults(handler=_cmd_sort)

    report = sub.add_parser("report", help="subtotal a data file per the job's spec")
    report.add_argument("job")
    report.add_argument("data", help="delimited data file with a header row")
    report.set_defaults(handler=_cmd_report)

    compare = sub.add_parser("compare", help="diff the job's two sorted files")
    compare.add_argument("job")
    compare.set_defaults(handler=_cmd_compare)

    check = sub.add_parser("check", help="validate the job and definition; touch no data")
    check.add_argument("job")
    check.set_defaults(handler=_cmd_check)

    evaluate = sub.add_parser("eval", help="evaluate one formula against a definition")
    evaluate.add_argument("definition")
    evaluate.add_argument("formula", help='e.g. "=ARABIC(""MCDLIX"")"')
    evaluate.set_defaults(handler=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    errors.printer = _ignore if args.quiet else _print_warning
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        errors.printer = None


def _print_warning(message: str) -> None:
    print(f"gridpipe: {message}", file=sys.stderr)


def _ignore(message: str) -> None:
    pass


def _load_job(args, section: str):
    job = config_mod.load_job(args.job)
    if getattr(job, section) is None:
        raise ConfigError(f"{args.job}: [{section}] section is required by '{args.command}'")
    return job


def _cmd_run(args) -> int:
    job = _load_job(args, "pipeline")
    spec = job.pipeline
    if job.sort is not None:
        rows = sort_file(job.sort)
        if not args.quiet:
            print(f"sorted {rows} rows into {job.sort.output_path}", file=sys.stderr)

    progress = 0 if args.quiet else max(args.progress, 0)
    stats = run_pipeline(spec, job.workbook, progress_every=progress)
    if not args.quiet:
        print(
            f"read {stats.records_read}, wrote {stats.records_written}, "
            f"skipped {stats.records_skipped}, errored {stats.records_errored} "
            f"in {stats.elapsed:.2f}s",
            file=sys.stderr,
        )
    if args.stats_json:
        with atomic_output(args.stats_json) as handle:
            json.dump(stats.as_dict(), handle, indent=2)
            handle.write("\n")

    if job.subtotals is not None:
        _write_subtotals(job, spec.output_path)
    return EXIT_OK


def _write_subtotals(job, data_path: str) -> None:
    sub = job.subtotals
    records = read_records(data_path)
    head = next(records, None)
    if head is None:
        raise DataError(f"{data_path}: no header row to aggregate against")
    translation = translation_table(head[1])
    jobs = [parse_job_line(line, translation) for line in sub.job_lines]
    tables = subtotal((fields for _, fields in records), jobs)
    text = "\n".join(render_report(table, sub.format) for table in tables)
    if sub.output_path:
        with atomic_output(sub.output_path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sort(args) -> int:
    job = _load_job(args, "sort")
    rows = sort_file(job.sort)
    if not args.quiet:
        print(f"sorted {rows} rows into {job.sort.output_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    job = _load_job(args, "subtotals")
    _write_subtotals(job, args.data)
    return EXIT_OK


def _cmd_compare(args) -> int:
    job = _load_job(args, "compare")
    report = compare_files(job.compare, job.workbook)
    if not args.quiet:
        print(
            f"matched {report.matches}, left-only {len(report.left_only)}, "
            f"right-only {len(report.right_only)}",
            file=sys.stderr,
        )
    if job.compare.output_path is None:
        for line in report.lines():
            print(line)
    return EXIT_OK


def _cmd_check(args) -> int:
    # Loading the job runs every configured command's preflight and header check.
    config_mod.load_job(args.job)
    print("OK")
    return EXIT_OK


def _cmd_eval(args) -> int:
    wb = config_mod.load_definition(args.definition)
    recalculate(wb)
    from .engine import evaluate_source

    result = evaluate_source(wb, args.formula)
    if result.__class__ is CellError:
        print(result.code)
        return EXIT_DATA
    print(render_value(result))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
