"""Run manifests, the framing every artifact is written and read through, and the line readers.

A manifest records the command, the fully resolved configuration, the seeds,
SHA-256 digests of every input file, and the path + digest of every artifact
the command wrote. Wall-clock time rides along for audit; it is the only field
that varies between identical reruns.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: list
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    # The command's --out directory; not part of the written manifest.
    out_dir: str = field(default="", compare=False)

    def output(self, name: str) -> str:
        """Path of artifact name in out_dir (created on first use), recorded in
        outputs without a digest; cli.main hashes the outputs once the command returns."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        self.outputs[path] = None
        return path

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "seeds": list(self.seeds),
            "inputs": dict(self.inputs),
            "outputs": dict(self.outputs),
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def atomic_write(path, binary: bool = False):
    """File handle on path + ".tmp", renamed over path when the block succeeds.

    The handle takes bytes when binary is set, else UTF-8 text written without
    newline translation. When the block or the rename fails, the temp file is
    removed and path keeps its old content.
    """
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass(frozen=True)
class Columns:
    """A JSON list of same-keyed objects held as one column per key: a numpy
    int or float array, or a list of str, all of one length."""

    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def encode(self) -> str:
        """The bytes json.dumps(sort_keys=True, separators=(",", ":")) gives the
        list of dicts; a non-finite float raises ValueError."""
        if len({len(column) for column in self.columns.values()}) > 1:
            raise ValueError("columns differ in length")
        keys = sorted(self.columns)
        # One % template per object; a % in a key must not act as a placeholder.
        row = "{" + ",".join(encode_basestring_ascii(k).replace("%", "%%") + ":%s" for k in keys) + "}"
        return "[" + ",".join(map(row.__mod__, zip(*(_cells(self.columns[k]) for k in keys)))) + "]"


def _cells(values) -> list:
    """The JSON text of each value of a column; each distinct value is encoded once."""
    if not isinstance(values, np.ndarray):
        text = {value: encode_basestring_ascii(value) for value in set(values)}
        return [text[value] for value in values]
    if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise ValueError("JSON has no non-finite floats")
    encode = {"i": int.__repr__, "u": int.__repr__, "f": float.__repr__}.get(values.dtype.kind)
    if encode is None:
        raise TypeError(f"cannot encode a {values.dtype} column")
    # Distinct bit patterns, so -0.0 and 0.0 keep their own text.
    bits, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    text = list(map(encode, bits.view(values.dtype).tolist()))
    return np.array(text, dtype=object)[inverse].tolist()


def json_text(data, indent=None) -> str:
    """data as sorted-key JSON. indent=None gives compact separators, for the
    data documents (graph, tokenized corpus, salience graph), whose top-level
    object may hold Columns; indent=2 the layout of the reports people read."""
    if indent not in (None, 2):
        raise ValueError(f"indent must be None or 2, got {indent!r}")
    if indent is None and isinstance(data, dict) and any(isinstance(v, Columns) for v in data.values()):
        items = (f"{encode_basestring_ascii(k)}:{v.encode() if isinstance(v, Columns) else json_text(v)}"
                 for k, v in sorted(data.items()))
        return "{" + ",".join(items) + "}"
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(data, indent=indent, separators=separators, sort_keys=True)


def load_json(text: str):
    """json.loads(text); text nested too deep for the parser raises
    json.JSONDecodeError, as any other malformed JSON does."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


def read_json(path):
    """load_json of the UTF-8 file at path."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_json(fh.read())


class RecordError(ValueError):
    """A malformed record of a line-oriented input: "<kind> line N: ...", N its first line."""

    def __init__(self, kind: str, line_no: int, message: str):
        super().__init__(f"{kind} line {line_no}: {message}")
        self.line_no = line_no


def _lines(path, kind: str, torn=None):
    """(line number, text) per line of the file at path, each decoded as UTF-8 on its
    own; an unterminated last line is skipped as a torn append when torn(line) holds."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    for line_no, line in enumerate(lines, start=1):
        if torn is not None and not line.endswith(b"\n") and torn(line):
            return
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RecordError(kind, line_no, str(exc)) from None
        yield line_no, text


def jsonl_records(path, kind: str, torn=None):
    """(line number, object) per non-blank line of the JSONL file at path (see _lines)."""
    for line_no, text in _lines(path, kind, torn):
        if text.strip():
            try:
                record = load_json(text)
            except json.JSONDecodeError as exc:
                raise RecordError(kind, line_no, f"invalid JSON ({exc.msg})") from None
            yield line_no, record


def csv_rows(path, kind: str):
    """(line number, row) per non-blank row of the CSV file at path (see _lines)."""
    reader = csv.reader(text for _, text in _lines(path, kind))
    line_no = 1
    try:
        for row in reader:
            if row:
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as exc:
        # A field over csv.field_size_limit(), or a NUL byte before Python 3.11.
        raise RecordError(kind, line_no, f"invalid CSV ({exc})") from None


def record_id(kind: str, line_no: int, value, seen, known=None, what: str = "document") -> str:
    """value, if it is a string id not in seen and, when known is given, in known."""
    if type(value) is not str:
        raise RecordError(kind, line_no, f"{what} id {value!r} is not a string")
    if value in seen:
        raise RecordError(kind, line_no, f"repeated {what} id {value!r}")
    if known is not None and value not in known:
        raise RecordError(kind, line_no, f"{what} id {value!r} is not in the corpus")
    return value


def zero_or_one(kind: str, line_no: int, what: str, text: str) -> int:
    """The CSV field text as an int, if it is exactly "0" or "1"."""
    if text not in ("0", "1"):
        raise RecordError(kind, line_no, f"{what} {text!r} is not 0 or 1")
    return int(text)


def write_json(path, data, indent=None) -> None:
    """Write json_text(data, indent) plus a newline, replacing path atomically."""
    text = json_text(data, indent)
    with atomic_write(path) as fh:
        fh.write(text)
        fh.write("\n")


@contextmanager
def write_binary(path, magic: bytes, version: int):
    """atomic_write handle on path, with the magic and the u32 version already written."""
    with atomic_write(path, binary=True) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", version))
        yield fh


def pack_name(name: str) -> bytes:
    """name as a u16 byte length followed by its UTF-8 bytes."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"name of {len(encoded)} UTF-8 bytes does not fit a u16 length")
    return struct.pack("<H", len(encoded)) + encoded


class BinaryReader:
    """Reads that never ask for more bytes than the file has left, so a corrupt
    size raises ValueError before anything of that size is allocated."""

    def __init__(self, fh, left: int):
        self._fh = fh
        self.left = left

    def _read(self, n: int, what: str) -> bytes:
        if n > self.left:
            raise ValueError(f"truncated {what}: needs {n} bytes, the file has {self.left} left")
        data = self._fh.read(n)
        if len(data) != n:
            raise ValueError(f"truncated {what}")
        self.left -= n
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self._read(struct.calcsize(fmt), what))

    def name(self, what: str) -> str:
        """A name written by pack_name; undecodable bytes raise UnicodeDecodeError, a ValueError."""
        (size,) = self.unpack("<H", what)
        return self._read(size, what).decode("utf-8")

    def array(self, shape: tuple, dtype, what: str) -> np.ndarray:
        """A read-only array of shape over the next bytes, without a copy."""
        dtype = np.dtype(dtype)
        data = self._read(math.prod(shape) * dtype.itemsize, what)
        return np.frombuffer(data, dtype=dtype).reshape(shape)


@contextmanager
def read_binary(path, magic: bytes, version: int, kind: str):
    """BinaryReader over a write_binary file; a wrong magic or version raises
    ValueError on entry, and bytes left after a completed block on exit."""
    with open(path, "rb") as fh:
        head = fh.read(len(magic))
        if head != magic:
            raise ValueError(f"not a {kind} (bad magic {head!r})")
        reader = BinaryReader(fh, os.fstat(fh.fileno()).st_size - len(magic))
        (found,) = reader.unpack("<I", f"{kind} header")
        if found != version:
            raise ValueError(f"unsupported {kind} version {found}")
        yield reader
        if reader.left:
            raise ValueError(f"{kind} has {reader.left} trailing bytes after its last record")


def write_manifest(path, manifest: RunManifest) -> None:
    write_json(path, manifest.as_dict(), indent=2)
