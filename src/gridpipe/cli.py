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
from .pipeline import run_pipeline, compare_files, validate_headers
from .report import parse_job_line, render_report, subtotal, translation_table
from .sortio import _resolve_key_columns, sort_file
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


def _cmd_run(args) -> int:
    job = config_mod.load_job(args.job)
    if job.pipeline is None:
        raise ConfigError(f"{args.job}: [pipeline] section is required by 'run'")
    spec = job.pipeline
    _resolve_header_names(job)  # before the sort writes anything
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
        with open(args.stats_json, "w", encoding="utf-8") as handle:
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
    job = config_mod.load_job(args.job)
    if job.sort is None:
        raise ConfigError(f"{args.job}: [sort] section is required by 'sort'")
    rows = sort_file(job.sort)
    if not args.quiet:
        print(f"sorted {rows} rows into {job.sort.output_path}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    job = config_mod.load_job(args.job)
    if job.subtotals is None:
        raise ConfigError(f"{args.job}: [subtotals] section is required by 'report'")
    _write_subtotals(job, args.data)
    return EXIT_OK


def _cmd_compare(args) -> int:
    job = config_mod.load_job(args.job)
    if job.compare is None:
        raise ConfigError(f"{args.job}: [compare] section is required by 'compare'")
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
    # Loading the job runs every configured command's preflight.
    job = config_mod.load_job(args.job)

    if job.pipeline is not None and job.expected_headers:
        head = _header_line(job.pipeline.input_path)
        if head is not None:
            validate_headers(head, job.expected_headers)

    _resolve_header_names(job)
    print("OK")
    return EXIT_OK


def _header_line(path) -> list[str] | None:
    """The fields of the first record of ``path``; None if it has none."""
    try:
        head = next(read_records(path), None)
    except OSError:
        return None  # input absent is fine for a static check
    return None if head is None else head[1]


def _resolve_header_names(job) -> None:
    """Resolve the sort keys and subtotal columns as ``sort`` and ``run``
    will: against the expected headers, else the header line of
    ``[sort] input``, or of ``[pipeline] input`` without a sort. So a
    name missing from it fails before any data is written, and so does
    a report on a ``run`` output that has no header line."""
    if job.sort is None and job.subtotals is None:
        return
    pipeline = job.pipeline
    if job.subtotals is not None and pipeline is not None and pipeline.header_policy == "none":
        raise ConfigError(f"{job.job_path}: [subtotals] reads the header line of the output, "
                          "which [pipeline] header = none does not write")
    if job.expected_headers:
        header = job.expected_headers
    elif job.sort is not None:
        header = job.sort.has_headings and _header_line(job.sort.input_path)
    else:
        header = pipeline and pipeline.header_policy != "none" and _header_line(pipeline.input_path)
    if not header:
        return
    if job.sort is not None:
        _resolve_key_columns(job.sort, header)
    if job.subtotals is not None:
        translation = translation_table(header)
        for line in job.subtotals.job_lines:
            parse_job_line(line, translation)


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
