"""The line-oriented readers share one record reader: a table of malformed lines
over all five (corpus, split, prompts file, transcript store, predictions), and
the one rule for a CSV label or prediction."""

import csv
import json
import re

import pytest

from stressgraph.corpus import load_corpus, load_split
from stressgraph.evaluation import read_predictions
from stressgraph.manifest import RecordError
from stressgraph.prompting import load_transcript_store, read_prompt_records

KNOWN_IDS = ["a", "b", "c"]


def _json_line(**record) -> bytes:
    return json.dumps(record).encode()


# name: (file name, kind in the message, reader, header line or None, one valid line per id).
READERS = {
    "corpus": ("corpus.jsonl", "corpus", load_corpus, None,
               lambda i: _json_line(id=i, text="calm day", label=1)),
    "corpus-csv": ("corpus.csv", "corpus", load_corpus, b"id,text,label",
                   lambda i: f"{i},calm day,1".encode()),
    "split": ("split.jsonl", "split", lambda path: load_split(path).assignment, None,
              lambda i: _json_line(id=i, split="train")),
    "prompts": ("prompts.jsonl", "prompts file", lambda path: read_prompt_records(path, KNOWN_IDS),
                None, lambda i: _json_line(id=i, prompt_sha256="0" * 64)),
    "transcripts": ("transcripts.jsonl", "transcript store", load_transcript_store, None,
                    lambda i: _json_line(prompt=i, response="r", label=1, meta={})),
    "predictions": ("pred.csv", "predictions", lambda path: read_predictions(path, KNOWN_IDS),
                    b"id,pred", lambda i: f"{i},1".encode()),
}
CSV_READERS = {"corpus-csv", "predictions"}
# What each reader says of a line that is not a record of its kind.
NOT_A_RECORD = {
    "corpus": "record must be an object with id and text",
    "corpus-csv": "record must be an object with id and text",
    "split": "expected an object with id and split",
    "prompts": "expected an object with a string prompt_sha256",
    "transcripts": "not a transcript record",
    "predictions": r"malformed prediction row: \['b'\]",
}


def _bad_lines(name: str) -> dict:
    """case -> (a malformed line for the reader name, the start of its message after the
    line number). Every CSV field is a string, so a CSV id is never mistyped; a
    transcript's id is its prompt, which may repeat; only the prompts file and the
    predictions name ids of a known set."""
    valid = READERS[name][4]
    undecodable = "'utf-8' codec can't decode byte 0xff"
    if name in CSV_READERS:
        over_limit = b'"' + b"x" * (csv.field_size_limit() + 1) + b'"'
        cases = {"invalid": (over_limit, r"invalid CSV \(field larger"),
                 "undecodable": (b"b,\xff", undecodable), "not-an-object": (b"b", NOT_A_RECORD[name])}
    else:
        cases = {"invalid": (b'{"id": "b",', r"invalid JSON \("),
                 "undecodable": (b'{"id": "\xff"}', undecodable),
                 "not-an-object": (b'["b"]', NOT_A_RECORD[name]),
                 "non-string-id": (valid(7), NOT_A_RECORD[name] if name == "transcripts"
                                   else "id and text must be strings" if name == "corpus"
                                   else r"\w+ id 7 is not a string")}
    if name != "transcripts":
        cases["repeated-id"] = (valid("a"), r"repeated \w+ id 'a'$")
    if name in ("prompts", "predictions"):
        cases["unknown-id"] = (valid("zz"), r"\w+ id 'zz' is not in the corpus$")
    return cases


MALFORMED = [pytest.param(name, bad, reason, id=f"{name}-{case}")
             for name in READERS for case, (bad, reason) in _bad_lines(name).items()]


def _write(tmp_path, name: str, lines: list, end: bytes = b"\n"):
    file_name, _, _, header, _ = READERS[name]
    path = tmp_path / file_name
    path.write_bytes(b"\n".join(([header] if header else []) + lines) + end)
    return path


@pytest.mark.parametrize("name", READERS)
def test_blank_lines_are_skipped(tmp_path, name):
    # Before a CSV header too, and at the end of the file.
    file_name, _, read, header, valid = READERS[name]
    path = tmp_path / file_name
    path.write_bytes(b"\n".join([b"", *([header] if header else []), b"", valid("a"), b"", b"",
                                 valid("b"), b""]) + b"\n\n")
    assert len(read(path)) == 2


@pytest.mark.parametrize("name, bad, reason", MALFORMED)
def test_a_malformed_line_is_a_record_error_naming_it(tmp_path, name, bad, reason):
    _, kind, read, header, valid = READERS[name]
    path = _write(tmp_path, name, [valid("a"), b"", bad, valid("c")])
    line_no = 4 if header else 3
    with pytest.raises(RecordError, match=f"^{kind} line {line_no}: {reason}") as exc:
        read(path)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("name", READERS)
def test_only_the_transcript_store_skips_an_unterminated_last_line(tmp_path, name):
    _, kind, read, header, valid = READERS[name]
    torn = b"b" if name in CSV_READERS else valid("b")[:-4]
    path = _write(tmp_path, name, [valid("a"), torn], end=b"")
    if name == "transcripts":
        assert len(read(path)) == 1
        return
    line_no = 3 if header else 2
    with pytest.raises(RecordError, match=f"^{kind} line {line_no}: ") as exc:
        read(path)
    assert exc.value.line_no == line_no


def test_a_split_line_that_is_not_an_object_names_the_expected_object(tmp_path):
    path = tmp_path / "split.jsonl"
    path.write_text('["a", "train"]\n', encoding="utf-8")
    with pytest.raises(RecordError, match=r"^split line 1: expected an object with id and split$"):
        load_split(path)


@pytest.mark.parametrize("text", ["01", "+1", "１", " 1", " 0 ", "0_1", "1.0", "true"])
def test_a_csv_label_or_prediction_is_exactly_0_or_1(tmp_path, text):
    # int() reads each of these as 0 or 1.
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(f"id,text,label\na,calm,1\nb,quiet,0\nc,still,\nd,calm,{text}\n",
                      encoding="utf-8")
    shown = re.escape(repr(text))
    with pytest.raises(RecordError, match=f"^corpus line 5: label {shown} is not 0 or 1$"):
        load_corpus(corpus)
    pred = tmp_path / "pred.csv"
    pred.write_text(f"id,pred\na,1\nb,0\nc,{text}\n", encoding="utf-8")
    with pytest.raises(RecordError, match=f"^predictions line 4: prediction {shown} is not 0 or 1$"):
        read_predictions(pred, KNOWN_IDS)
    # The text 0 and 1 is read, and an empty corpus label means unlabeled.
    corpus.write_text("id,text,label\na,calm,1\nb,quiet,0\nc,still,\n", encoding="utf-8")
    assert [doc.label for doc in load_corpus(corpus)] == [1, 0, None]
    pred.write_text("id,pred\na,1\nb,0\n", encoding="utf-8")
    assert read_predictions(pred, KNOWN_IDS) == {"a": 1, "b": 0}
