"""gridpipe: a streaming spreadsheet-rules engine.

Business rules live as cell formulas in a plain-text workbook
definition; the engine drops each input record into designated input
cells, recalculates, and writes the output cells to a file. Sorting,
duplicate elimination, sorted-file comparison, and subtotal reports
round out the toolkit.
"""

from .config import JobConfig, load_definition, load_job, render_definition
from .engine import build_graph, evaluate_source, recalculate
from .errors import ConfigError, DataError, GridError
from .pipeline import (
    CompareSpec,
    PipelineSpec,
    RunStats,
    compare_files,
    run_pipeline,
    validate_headers,
)
from .report import SubtotalJob, aggregate, render_report
from .sortio import SortKey, SortSpec, sort_file
from .values import BLANK, CellError
from .workbook import CellAddress, CellRange, Workbook, parse_a1

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "CellAddress",
    "CellError",
    "CellRange",
    "CompareSpec",
    "ConfigError",
    "DataError",
    "GridError",
    "JobConfig",
    "PipelineSpec",
    "RunStats",
    "SortKey",
    "SortSpec",
    "SubtotalJob",
    "Workbook",
    "aggregate",
    "build_graph",
    "compare_files",
    "evaluate_source",
    "load_definition",
    "load_job",
    "parse_a1",
    "recalculate",
    "render_definition",
    "render_report",
    "run_pipeline",
    "sort_file",
    "validate_headers",
    "__version__",
]
