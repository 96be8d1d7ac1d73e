"""Definition and job file loading, rendering, and validation."""

from __future__ import annotations

from pathlib import Path

import pytest

import gridpipe.config as config_mod
from gridpipe.config import (
    DefinitionError,
    DuplicateCell,
    LimitExceeded,
    UnknownKey,
    UnknownSection,
    load_definition,
    load_job,
    render_definition,
)
from gridpipe.engine import CycleError, recalculate
from gridpipe.errors import ConfigError
from gridpipe.formula import render_formula
from gridpipe.pipeline import PipelineSpec, run_cells
from gridpipe.sortio import SortKey
from gridpipe.values import BLANK
from gridpipe.workbook import parse_a1


def _addr(a1, sheet="Main"):
    return parse_a1(a1, sheet)


def _definition(tmp_path, text, name="rules.sheet"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# --- load_definition -----------------------------------------------------------


def test_fixture_workbook_loads_with_names_and_graph(fixtures_dir):
    wb = load_definition(fixtures_dir / "caesar.sheet")
    assert wb.has_name("InputCells")
    assert wb.resolve_name("inputcells").size() == 4
    assert wb.graph is not None
    arabic_cell = _addr("F2").key()
    concat_cell = _addr("H2").key()
    assert wb.graph.topo_index[arabic_cell] < wb.graph.topo_index[concat_cell]


def test_empty_file_gives_empty_workbook(tmp_path):
    wb = load_definition(_definition(tmp_path, ""))
    assert wb.cell_count() == 0
    assert wb.defined_names() == []


def test_value_kinds(tmp_path):
    wb = load_definition(
        _definition(
            tmp_path,
            "\n".join(
                [
                    "[sheet Main]",
                    "cell A1 = Plain text",
                    "cell A2 = 42",
                    "cell A3 = -2.5",
                    'cell A4 = "  padded "',
                    'cell A5 = "say ""hi"""',
                    "cell A6 = =A2+A3",
                    "cell A7 = 007",
                ]
            ),
        )
    )
    assert wb.get_value(_addr("A1")) == "Plain text"
    assert wb.get_value(_addr("A2")) == 42.0
    assert wb.get_value(_addr("A3")) == -2.5
    assert wb.get_value(_addr("A4")) == "  padded "
    assert wb.get_value(_addr("A5")) == 'say "hi"'
    assert wb.get_value(_addr("A7")) == 7.0  # bare numbers are numbers
    recalculate(wb)
    assert wb.get_value(_addr("A6")) == 39.5


def test_comments_and_blank_lines_ignored(tmp_path):
    wb = load_definition(
        _definition(
            tmp_path,
            "# a comment\n\nformat = 1\n[sheet Main]\n# another\ncell A1 = 1\n",
        )
    )
    assert wb.get_value(_addr("A1")) == 1.0


def test_inverted_name_corners_are_normalized(tmp_path):
    wb = load_definition(
        _definition(tmp_path, "[sheet Main]\ncell A1 = 1\n[names]\nX = Main!B2:A1\n")
    )
    rng = wb.resolve_name("X")
    assert (rng.start.row, rng.start.col, rng.end.row, rng.end.col) == (1, 1, 2, 2)


def test_single_cell_name_accepted(tmp_path):
    wb = load_definition(_definition(tmp_path, "[names]\nHome = Main!C3\n"))
    assert wb.resolve_name("Home").size() == 1


def test_duplicate_cell_rejected(tmp_path):
    with pytest.raises(DuplicateCell):
        load_definition(
            _definition(tmp_path, "[sheet Main]\ncell A1 = 1\ncell A1 = 2\n")
        )


def test_cell_outside_sheet_section(tmp_path):
    with pytest.raises(DefinitionError) as err:
        load_definition(_definition(tmp_path, "cell A1 = 1\n"))
    assert ":1:" in str(err.value)


def test_formula_parse_error_carries_line_number(tmp_path):
    with pytest.raises(DefinitionError) as err:
        load_definition(
            _definition(tmp_path, "[sheet Main]\ncell A1 = 1\ncell A2 = =1+\n")
        )
    assert ":3:" in str(err.value)


def test_a_formula_nested_too_deep_fails_at_load_naming_its_line(tmp_path):
    deep = "=" + "(" * 120 + "1" + ")" * 120
    path = _definition(tmp_path, f"[sheet Main]\ncell A1 = 1\ncell A2 = {deep}\n")
    with pytest.raises(DefinitionError) as err:
        load_definition(path)
    assert str(err.value) == (
        f"{path}:3: expected at most 64 levels of nesting at offset 65, found '('"
    )


@pytest.mark.parametrize(
    "line,problem",
    [
        ("cell A01 = 1", "not a cell address: 'A01'"),  # a formula reads A01 as a name
        ('cell A1 = "a"b"', 'malformed quoted text: "a"b"'),
        ('cell A1 = "abc', 'malformed quoted text: "abc'),
        ("cell A1", "expected 'key = value': cell A1"),
        ("value A1 = 1", "expected 'cell <address> = <content>': value A1 = 1"),
    ],
)
def test_a_bad_address_or_quoted_text_fails_at_load_naming_its_line(tmp_path, line, problem):
    path = _definition(tmp_path, f"[sheet Main]\ncell B1 = 1\n{line}\n")
    with pytest.raises(DefinitionError) as err:
        load_definition(path)
    assert str(err.value) == f"{path}:3: {problem}"


def test_a_name_without_a_sheet_fails_at_load_naming_its_line(tmp_path):
    path = _definition(tmp_path, "[sheet Main]\ncell B1 = 1\n[names]\nX = A1:B2\n")
    with pytest.raises(DefinitionError) as err:
        load_definition(path)
    assert str(err.value) == (
        f"{path}:4: named range must be '<Sheet>!<A1>' or '<Sheet>!<A1>:<A1>': 'A1:B2'"
    )


def test_cycle_detected_at_load(tmp_path):
    with pytest.raises(CycleError):
        load_definition(
            _definition(tmp_path, "[sheet Main]\ncell A1 = =B1\ncell B1 = =A1\n")
        )


def test_unknown_section_in_definition(tmp_path):
    with pytest.raises(DefinitionError):
        load_definition(_definition(tmp_path, "[stuff]\nx = 1\n"))


def test_unsupported_format_rejected(tmp_path):
    with pytest.raises(DefinitionError):
        load_definition(_definition(tmp_path, "format = 2\n"))


def test_missing_definition_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_definition(tmp_path / "absent.sheet")


# --- render round trip ------------------------------------------------------------


def _workbook_state(wb):
    formulas = {
        key: render_formula(wb._formulas[key]) for key, is_f in wb.populated() if is_f
    }
    literals = {
        key: wb._literals[key]
        for key, is_f in wb.populated()
        if not is_f and wb._literals[key] is not BLANK
    }
    names = {n.name.upper(): str(n.range) for n in wb.defined_names()}
    order = wb.graph.order if wb.graph else None
    return formulas, literals, names, order


@pytest.mark.parametrize("fixture", ["caesar.sheet", "dedup.sheet", "compare.sheet"])
def test_render_load_round_trip_on_fixtures(fixtures_dir, tmp_path, fixture):
    original = load_definition(fixtures_dir / fixture)
    rendered = render_definition(original)
    reloaded = load_definition(_definition(tmp_path, rendered, "again.sheet"))
    assert _workbook_state(reloaded) == _workbook_state(original)
    # and rendering is a fixed point from the first canonical form on
    assert render_definition(reloaded) == rendered


def test_render_round_trip_preserves_tricky_literals(tmp_path):
    text = "\n".join(
        [
            "[sheet Main]",
            'cell A1 = "  spaced  "',
            'cell A2 = "=not a formula"',
            'cell A3 = "12"',
            "cell A4 = 12",
            'cell A5 = "with ""quotes"" inside"',
            "cell A6 = =A4*2",
        ]
    )
    original = load_definition(_definition(tmp_path, text))
    reloaded = load_definition(
        _definition(tmp_path, render_definition(original), "again.sheet")
    )
    assert _workbook_state(reloaded) == _workbook_state(original)
    assert reloaded.get_value(_addr("A2")) == "=not a formula"
    assert reloaded.get_value(_addr("A3")) == "12"
    assert reloaded.get_value(_addr("A4")) == 12.0


# --- load_job -----------------------------------------------------------------------


def _job(tmp_path, text, name="job.job"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


_MINIMAL_SHEET = (
    "[sheet Main]\ncell B2 = =A2\n"
    "[names]\nInputCells = Main!A2\nOutputCells = Main!B2\n"
)


def _minimal_job_text(extra=""):
    return (
        "definition = rules.sheet\n"
        "[pipeline]\ninput = in.csv\noutput = out.csv\n" + extra
    )


def test_load_job_minimal(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    job = load_job(_job(tmp_path, _minimal_job_text()))
    assert job.pipeline is not None
    assert job.pipeline.input_path == str(tmp_path / "in.csv")
    assert job.workbook.has_name("InputCells")
    assert job.sort is None and job.subtotals is None and job.compare is None


def test_relative_paths_resolve_against_job_directory(tmp_path):
    nested = tmp_path / "jobs"
    nested.mkdir()
    _definition(nested, _MINIMAL_SHEET)
    job = load_job(_job(nested, _minimal_job_text()))
    assert job.definition_path == str(nested / "rules.sheet")
    assert job.pipeline.output_path == str(nested / "out.csv")


def test_unknown_section(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    with pytest.raises(UnknownSection):
        load_job(_job(tmp_path, _minimal_job_text() + "[mystery]\nx = 1\n"))


def test_unknown_key(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    with pytest.raises(UnknownKey):
        load_job(_job(tmp_path, _minimal_job_text("tempo = fast\n")))


@pytest.mark.parametrize(
    "section, lines",
    [
        ("pipeline", ""),
        ("sort", "[sort]\ninput = a.csv\noutput = b.csv\n"),
        ("compare", "[compare]\nleft = a.csv\nright = b.csv\n"),
    ],
    ids=["pipeline", "sort", "compare"],
)
def test_the_removed_csv_key_is_unknown(tmp_path, section, lines):
    # RFC 4180 is the only dialect; a job that still picks one is rejected.
    _definition(tmp_path, _MINIMAL_SHEET)
    text = _minimal_job_text() + lines + "csv = rfc4180\n"
    with pytest.raises(UnknownKey, match=f"unknown key 'csv' in \\[{section}\\]"):
        load_job(_job(tmp_path, text))


def test_unknown_range_name(tmp_path):
    # The preflight is the one range-name check; it names the role's name.
    _definition(tmp_path, _MINIMAL_SHEET.replace("OutputCells", "OutputCellz"))
    job = _job(tmp_path, _minimal_job_text())
    with pytest.raises(ConfigError) as err:
        load_job(job)
    assert str(err.value) == f"{job}: [pipeline] the definition does not define 'OutputCells'"


def test_limit_on_control_entries(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    jobs = "".join("job = Number : Item\n" for _ in range(10_001))
    text = _minimal_job_text() + "[subtotals]\n" + jobs
    # The first entry over the cap, on line 6 + 10,000, is named.
    with pytest.raises(LimitExceeded, match=r"job\.job:10006: \[subtotals\] job: 10001 entries"):
        load_job(_job(tmp_path, text))


def test_sort_key_parsing(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    text = _minimal_job_text() + (
        "[sort]\ninput = a.csv\noutput = b.csv\nheadings = y\n"
        "key = 2 desc\nkey = Item text\nkey = 1\n"
    )
    job = load_job(_job(tmp_path, text))
    assert job.sort.keys == [
        SortKey(2, descending=True),
        SortKey("Item", collation="text"),
        SortKey(1),
    ]
    assert job.sort.has_headings is True


def test_repeated_key_rejected(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    with pytest.raises(DefinitionError):
        load_job(_job(tmp_path, _minimal_job_text("input = again.csv\n")))


def test_missing_required_key(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    text = "definition = rules.sheet\n[pipeline]\ninput = in.csv\n"
    with pytest.raises(ConfigError) as err:
        load_job(_job(tmp_path, text))
    assert "output" in str(err.value)


def test_pipeline_without_definition_rejected(tmp_path):
    text = "[pipeline]\ninput = a\noutput = b\n"
    with pytest.raises(ConfigError):
        load_job(_job(tmp_path, text))


def test_bad_choice_values(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    with pytest.raises(ConfigError):
        load_job(_job(tmp_path, _minimal_job_text("csv = tabs\n")))
    with pytest.raises(ConfigError):
        load_job(_job(tmp_path, _minimal_job_text("headings = maybe\n"), "b.job"))
    with pytest.raises(ConfigError):
        load_job(
            _job(
                tmp_path,
                _minimal_job_text()
                + "[sort]\ninput = a\noutput = b\nheadings = sure\n",
                "c.job",
            )
        )


@pytest.mark.parametrize(
    "spec_class, setting",
    [
        (PipelineSpec, "field_count_policy"),
        (PipelineSpec, "on_record_error"),
    ],
)
def test_a_bad_choice_fails_when_the_spec_is_built(spec_class, setting):
    with pytest.raises(ConfigError, match=f"^{setting}: must be one of .*; got 'bogus'$"):
        spec_class("in.csv", "out.csv", **{setting: "bogus"})


def test_a_bad_choice_in_a_job_names_its_section_and_key(tmp_path):
    _definition(tmp_path, _MINIMAL_SHEET)
    job = _job(tmp_path, _minimal_job_text("on-error = bogus\n"))
    with pytest.raises(ConfigError, match=r"job\.job:5: \[pipeline\] on-error: must be one of"):
        load_job(job)


def _readme_block(heading):
    """The first fenced block under README's ``## <heading>``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("```\n", 2)[1]


def _readme_job_schema():
    """Section -> keys of the job file block under README's "## The job file"."""
    block = _readme_block("The job file")
    schema: dict[str, set] = {"": set()}
    section = ""
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
            schema[section] = set()
        elif line:
            schema[section].add(line.split("=", 1)[0].strip())
    return schema


def test_readme_job_file_block_matches_the_key_table():
    table = {section: set(keys) for section, (_, keys) in config_mod._SCHEMA.items()}
    assert _readme_job_schema() == {"": config_mod._TOP_KEYS, **table}


def test_readme_examples_load(tmp_path):
    # Only whole lines are comments, so a value keeps a trailing "# ...".
    wb = load_definition(_definition(tmp_path, _readme_block("The definition file")))
    assert wb.get_value(_addr("B1")) == 42.0
    sections = config_mod._parse_job_text(_readme_block("The job file"), "README.md")
    values = [value for keys in sections.values() for value in keys.values()]
    assert values and not [value for value in values if "#" in str(value)]


def test_store_job_fixture_loads(workdir):
    job = load_job(workdir / "store.job")
    assert job.sort is not None and job.pipeline is not None
    assert job.subtotals.job_lines == ["Number : Item, Colour"]
    assert run_cells(job.workbook)[1] == _addr("G2").key()  # the Skip cell


# --- read-once guarantee ---------------------------------------------------------


def test_config_files_read_exactly_once_per_run(workdir, monkeypatch):
    (workdir / "caesar_in.csv").write_text(
        "Id,Item,Colour,Number\n1,Toga,Purple,MCDLIX\n", encoding="utf-8"
    )
    reads: dict[str, int] = {}
    real_read = config_mod._read_text

    def counting_read(path):
        key = str(path)
        reads[key] = reads.get(key, 0) + 1
        return real_read(path)

    monkeypatch.setattr(config_mod, "_read_text", counting_read)

    from gridpipe.cli import main

    assert main(["--quiet", "run", str(workdir / "caesar.job")]) == 0
    job_reads = {k: v for k, v in reads.items() if k.endswith((".job", ".sheet"))}
    assert job_reads == {
        str(workdir / "caesar.job"): 1,
        str(workdir / "caesar.sheet"): 1,
    }


def test_render_skips_a_blank_literal_and_rejects_an_error_literal():
    from gridpipe.values import DIV0
    from gridpipe.workbook import Workbook

    wb = Workbook()
    wb.set_cell(_addr("A1"), BLANK)
    wb.set_cell(_addr("A2"), 1.0)
    assert render_definition(wb) == "format = 1\n\n[sheet Main]\ncell A2 = 1\n"
    wb.set_cell(_addr("A3"), DIV0)
    with pytest.raises(ConfigError) as err:
        render_definition(wb)
    assert str(err.value) == (
        "cell Main!A3 holds a CellError literal, which the definition format cannot express"
    )


@pytest.mark.parametrize(
    "line, problem",
    [
        ("B2 = Main!A1", "name would shadow a cell reference: 'B2'"),
        ("InputCells = Main!A1", "name already defined: 'InputCells'"),
        ("X = Main!A1:B", "not a cell address: 'B'"),
    ],
    ids=["address-as-name", "duplicate-name", "bad-corner"],
)
def test_a_bad_name_line_is_a_definition_error_naming_its_line(tmp_path, line, problem):
    text = f"[sheet Main]\ncell B1 = 1\n[names]\nInputCells = Main!A2\n{line}\n"
    path = _definition(tmp_path, text)
    with pytest.raises(DefinitionError) as err:
        load_definition(path)
    assert err.value.line_no == 5
    assert str(err.value) == f"{path}:5: {problem}"
