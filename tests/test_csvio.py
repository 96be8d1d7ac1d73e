"""Delimited-file reading (RFC 4180), and field encoding."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from gridpipe.csvio import encode_record, parse_line, read_records
from gridpipe.errors import DataError


def _write(tmp_path, text: str, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def test_plain_records(tmp_path):
    path = _write(tmp_path, "a,b,c\n1,2,3\n")
    assert list(read_records(path)) == [
        ("a,b,c", ["a", "b", "c"]),
        ("1,2,3", ["1", "2", "3"]),
    ]


def test_quoted_fields_with_commas_and_quotes(tmp_path):
    path = _write(tmp_path, '"a,b",plain,"say ""hi"""\n')
    [(raw, fields)] = list(read_records(path))
    assert fields == ["a,b", "plain", 'say "hi"']
    assert raw == '"a,b",plain,"say ""hi"""'


def test_quoted_field_spanning_lines(tmp_path):
    path = _write(tmp_path, 'x,"line one\nline two",y\nnext,row,here\n')
    records = list(read_records(path))
    assert records[0][1] == ["x", "line one\nline two", "y"]
    assert records[1][1] == ["next", "row", "here"]


def test_crlf_and_missing_final_newline(tmp_path):
    path = _write(tmp_path, "a,b\r\nc,d")
    assert [fields for _, fields in read_records(path)] == [["a", "b"], ["c", "d"]]


def test_byte_order_mark_is_stripped(tmp_path):
    path = _write(tmp_path, "﻿Id,Item\n1,Toga\n")
    records = list(read_records(path))
    assert records[0][1] == ["Id", "Item"]


def test_empty_file(tmp_path):
    path = _write(tmp_path, "")
    assert list(read_records(path)) == []


def test_encode_record_round_trips(tmp_path):
    fields = ["plain", "with,comma", 'with"quote', "with\nnewline", ""]
    path = _write(tmp_path, encode_record(fields) + "\n")
    [(_, parsed)] = list(read_records(path))
    assert parsed == fields


@given(
    rows=st.lists(
        st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs",), blacklist_characters="\x00"
                ),
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100)
def test_encode_read_property(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("csv")
    path = tmp / "prop.csv"
    path.write_text(
        "".join(encode_record(row) + "\n" for row in rows), encoding="utf-8"
    )
    parsed = [fields for _, fields in read_records(path)]
    assert parsed == rows



def _csv_module_records(text: str):
    """Fields of every record of ``text`` by one strict ``csv.reader``,
    an empty line read as one empty field; "error" if it rejects the text."""
    try:
        return [fields or [""] for fields in csv.reader(io.StringIO(text, newline=""), strict=True)]
    except csv.Error:
        return "error"


def _read_fields(path):
    try:
        return [fields for _, fields in read_records(path)]
    except DataError:
        return "error"


@given(
    lines=st.lists(
        st.tuples(
            st.text(alphabet='ab ,"', max_size=12),
            st.sampled_from(["\n", "\r", "\r\n"]),
        ),
        max_size=10,
    ),
    final_newline=st.booleans(),
)
@example(lines=[("x" * 8191, "\r\n"), ('"a', "\r\n"), ('b"', "\n")], final_newline=True)
@settings(max_examples=300)
def test_read_records_matches_the_csv_module(tmp_path_factory, lines, final_newline):
    text = "".join(body + ending for body, ending in lines)
    if lines and not final_newline:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("oracle") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _csv_module_records(text)
    assert _read_fields(path) == expected
    if expected != "error":
        for raw, fields in read_records(path):
            assert _csv_module_records(raw + "\n") == [fields]
            assert parse_line(raw) == [fields]


def test_stray_quote_in_an_unquoted_field_is_a_character(tmp_path):
    path = _write(tmp_path, '1,Toga 5" wide,Purple,X\n2,Belt,Tan,V\n')
    assert list(read_records(path)) == [
        ('1,Toga 5" wide,Purple,X', ["1", 'Toga 5" wide', "Purple", "X"]),
        ("2,Belt,Tan,V", ["2", "Belt", "Tan", "V"]),
    ]


@pytest.mark.parametrize("inner", ["a\r\nb", "a\rb"])
def test_cr_and_crlf_inside_quotes_are_kept(tmp_path, inner):
    path = _write(tmp_path, f'3,"{inner}"\n4,x\n')
    assert list(read_records(path)) == [(f'3,"{inner}"', ["3", inner]), ("4,x", ["4", "x"])]


@pytest.mark.parametrize(
    "text, line, reason, start",
    [
        ('Id,Item\n1,"ab"c,x\n2,d\n', 2, "expected after", 2),
        ('Id,Item\n1,"open\nstill open\n', 3, "unexpected end of data", 2),
        ('Id,Item\n1,a\n2,"open\nstill\nopen\n', 5, "unexpected end of data", 3),
    ],
)
def test_malformed_record_names_file_and_physical_line(tmp_path, text, line, reason, start):
    path = _write(tmp_path, text)
    records = read_records(path)
    assert next(records) == ("Id,Item", ["Id", "Item"])
    with pytest.raises(DataError, match=reason) as caught:
        list(records)
    assert f"{path} line {line}:" in str(caught.value)
    assert str(caught.value).endswith(f"(record from line {start})")


@pytest.mark.parametrize("quoted", [False, True])
def test_field_over_the_stdlib_limit_reads_back_whole(tmp_path, quoted):
    big = "x" * (200 * 1024)
    path = _write(tmp_path, "1," + (f'"{big}"' if quoted else big) + ",z\n")
    [(_, fields)] = list(read_records(path))
    assert fields == ["1", big, "z"]
