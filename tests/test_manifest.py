"""Tests for the column-table JSON encoder of manifest.write_json and the bounded binary reader."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stressgraph.manifest import BinaryReader, Columns, json_text, write_json


def as_dicts(columns: dict) -> list:
    """The list of dicts a Columns table stands for."""
    values = {k: c.tolist() if isinstance(c, np.ndarray) else list(c) for k, c in columns.items()}
    n = len(next(iter(values.values()), ()))
    return [{k: v[i] for k, v in values.items()} for i in range(n)]


def dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


ints = st.integers(-(2**63), 2**63 - 1)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-05, 1e16, 1e+16, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-300, 123456789.0]
)
texts = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "é", " ", "\ud800", "%s", "}", "日本"]
)


def columns_of(n: int):
    """Strategy for one column of n values: an int or float array, or a list of str."""
    def values(elements):
        return st.lists(elements, min_size=n, max_size=n)

    return st.one_of(
        values(ints).map(lambda v: np.array(v, dtype=np.int64)),
        values(st.integers(0, 2**32 - 1)).map(lambda v: np.array(v, dtype=np.uint32)),
        values(st.integers(-(2**31), 2**31 - 1)).map(lambda v: np.array(v, dtype=np.int32)),
        values(floats).map(lambda v: np.array(v, dtype=np.float64)),
        values(texts),
    )


@st.composite
def tables(draw):
    """A dict of equal-length columns under arbitrary keys."""
    n = draw(st.integers(0, 6))
    keys = draw(st.lists(texts, max_size=4, unique=True))
    return {key: draw(columns_of(n)) for key in keys}


@settings(max_examples=400, deadline=None)
@given(tables(), st.dictionaries(texts, st.integers() | texts | st.none(), max_size=3))
@example({"w": np.array([1e-05, 1e16, -0.0, 5e-324, 0.0])}, {})
@example({"a": np.array([-3, 2**62, 0]), "kind": ['q"', "\x07", "é"]}, {"n": 1})
def test_columns_encode_like_json_dumps(columns, rest):
    table = Columns(columns)
    assert table.encode() == dumps(as_dicts(columns))
    doc = {**rest, "edges": table}
    assert json_text(doc) == dumps({**rest, "edges": as_dicts(columns)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_columns_reject_non_finite_floats(tmp_path, bad):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    with pytest.raises(ValueError, match="non-finite"):
        write_json(path, {"edges": Columns({"w": np.array([1.0, bad])})})
    assert path.read_text() == "old\n"


def test_columns_reject_mismatched_lengths_and_other_dtypes():
    with pytest.raises(ValueError, match="differ in length"):
        Columns({"a": np.arange(3), "b": ["x"]}).encode()
    with pytest.raises(TypeError):
        Columns({"flag": np.array([True, False])}).encode()
    with pytest.raises(TypeError):
        Columns({"name": [1, 2]}).encode()


def test_write_json_with_columns_matches_dumps(tmp_path):
    path = tmp_path / "graph.json"
    edges = {"a": np.array([0, 1], dtype=np.int32), "w": np.array([0.5, 2.0]), "kind": ["x", "y"]}
    data = {"n": 2, "edges": Columns(edges), "nodes": Columns({"id": ["p", "q"]}), "empty": Columns({})}
    write_json(path, data)
    want = {"n": 2, "edges": as_dicts(edges), "nodes": [{"id": "p"}, {"id": "q"}], "empty": []}
    assert path.read_text(encoding="utf-8") == dumps(want) + "\n"
    with pytest.raises(TypeError):
        write_json(path, data, indent=2)


def test_binary_reader_names_a_read_that_comes_back_short():
    # A file cut after its size was taken: 8 bytes were promised, 2 remain.
    reader = BinaryReader(io.BytesIO(b"\x01\x02"), left=8)
    with pytest.raises(ValueError, match="^truncated header$"):
        reader.unpack("<I", "header")
