"""Delimited-file reading in both modes, and field encoding."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from gridpipe.csvio import encode_record, read_records, split_record
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


def test_naive_split_treats_quotes_as_characters(tmp_path):
    path = _write(tmp_path, '"a,b",c\n')
    [(raw, fields)] = list(read_records(path, "naive-split"))
    assert fields == ['"a', 'b"', "c"]
    assert raw == '"a,b",c'


def test_split_record_modes():
    assert split_record("a,b") == ["a", "b"]
    assert split_record('"a,b",c') == ["a,b", "c"]
    assert split_record('"a,b",c', "naive-split") == ['"a', 'b"', "c"]
    assert split_record("") == [""]


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
                    blacklist_categories=("Cs",), blacklist_characters="\r\x00"
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



def _strip_eol(line: str) -> str:
    if line.endswith("\r\n"):
        return line[:-2]
    if line.endswith("\n") or line.endswith("\r"):
        return line[:-1]
    return line


def _parity_reader(path, mode):
    """The quote-parity reader that read_records replaced, kept as an oracle."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        if mode == "naive-split":
            for line in handle:
                raw = _strip_eol(line)
                yield raw, raw.split(",")
            return
        pending = []
        for line in handle:
            pending.append(_strip_eol(line))
            if sum(part.count('"') for part in pending) % 2 == 1:
                continue
            raw = "\n".join(pending)
            pending = []
            yield raw, split_record(raw)
        if pending:
            raw = "\n".join(pending)
            yield raw, split_record(raw)


def _outcome(records):
    try:
        return list(records)
    except DataError as exc:
        return str(exc)


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
def test_read_records_matches_the_parity_reader(tmp_path_factory, lines, final_newline):
    text = "".join(body + ending for body, ending in lines)
    if lines and not final_newline:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("parity") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    for mode in ("rfc4180", "naive-split"):
        assert _outcome(read_records(path, mode)) == _outcome(_parity_reader(path, mode))
