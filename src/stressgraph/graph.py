"""Heterogeneous document-word graph: TF-IDF, sliding-window PPMI, adjacency."""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

DEFAULT_WINDOW_SIZE = 20

EMBEDDING_MAGIC = b"TGEM"
EMBEDDING_VERSION = 1

# slide_windows builds the window x token incidence over runs of documents
# whose token count times the window size stays within this bound (at least
# one document per run), so the memory of one run is bounded.
_WINDOW_CHUNK_ENTRIES = 1 << 18
# save_graph_json encodes list values this many elements at a time.
_JSON_SLICE = 4096


@dataclass
class SparseMatrix:
    """Real matrix in coordinate form; duplicate (row, col) pairs are rejected."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("rows, cols, vals must have equal length")
        if len(self.rows):
            if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.n_cols:
                raise ValueError("column index out of range")
            if not np.all(np.isfinite(self.vals)):
                raise ValueError("matrix values must be finite")
            keys = np.sort(self.rows * self.n_cols + self.cols)
            if np.any(keys[1:] == keys[:-1]):
                raise ValueError("duplicate (row, col) entries")

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries) -> "SparseMatrix":
        rows, cols, vals = [], [], []
        for r, c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        return cls(n_rows, n_cols, np.array(rows), np.array(cols), np.array(vals))

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def entries(self) -> list[tuple[int, int, float]]:
        return [(int(r), int(c), float(v)) for r, c, v in zip(self.rows, self.cols, self.vals)]

    def to_csr(self) -> sp.csr_matrix:
        m = sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self.n_rows, self.n_cols)
        )
        return m.tocsr()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.cols] = self.vals
        return out

    def dot(self, dense: np.ndarray) -> np.ndarray:
        return self.to_csr() @ dense

    def row_entries(self, row: int) -> list[tuple[int, float]]:
        mask = self.rows == row
        return [(int(c), float(v)) for c, v in zip(self.cols[mask], self.vals[mask])]


@dataclass
class WindowStats:
    """Sliding-window presence counts used by the PPMI weighting.

    A token (or unordered token pair) is counted at most once per window;
    windows never span documents. token_counts is indexed by token id;
    pair_counts holds the count of pair (i, j) at [i, j] for i < j only, with
    sorted indices and no stored zeros.
    """

    window_size: int
    total_windows: int = 0
    token_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    pair_counts: sp.csr_array = field(
        default_factory=lambda: sp.csr_array((0, 0), dtype=np.int64)
    )


@dataclass
class EmbeddingMatrix:
    """Per-document embedding rows, aligned with corpus order."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("embedding matrix must be 2-D")

    @property
    def n_docs(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class NodeFeatures:
    """Initial node feature matrix: stacked document embeddings or identity."""

    matrix: np.ndarray
    mode: str  # "external-embeddings" | "identity"
    n_docs: int
    n_words: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


def compute_tfidf(corpus, vocab=None) -> SparseMatrix:
    """Doc-word TF-IDF matrix: tf(w, d) * ln(n_docs / df(w)), zeros omitted.

    tf is the raw in-document count and idf uses the natural log, so a word
    present in every document contributes no entry at all.
    """
    vocab = vocab if vocab is not None else corpus.vocab
    n_docs = vocab.n_docs
    rows, cols, vals = [], [], []
    for d, seq in enumerate(corpus.sequences):
        for w, tf in sorted(Counter(seq).items()):
            idf = math.log(n_docs / vocab.doc_freq[w])
            if tf * idf != 0.0:
                rows.append(d)
                cols.append(w)
                vals.append(tf * idf)
    return SparseMatrix(
        n_docs, len(vocab), np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


def _document_runs(sequences, window_size: int):
    """Consecutive documents, split where the incidence entries would pass the bound."""
    run, entries = [], 0
    for seq in sequences:
        cost = len(seq) * window_size
        if run and entries + cost > _WINDOW_CHUNK_ENTRIES:
            yield run
            run, entries = [], 0
        run.append(seq)
        entries += cost
    if run:
        yield run


def _window_incidence(sequences, window_size: int, n_tokens: int) -> sp.csr_array:
    """0/1 window x token presence matrix of consecutive documents' stride-1 windows."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    n_windows = np.maximum(1, lengths - window_size + 1)
    tokens = np.fromiter(chain.from_iterable(sequences), np.int64, count=int(lengths.sum()))
    doc = np.repeat(np.arange(len(sequences)), lengths)
    pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    first = (np.cumsum(n_windows) - n_windows)[doc]
    last = n_windows[doc]
    # Position p of a document lies in its windows p - offset, offset < window_size.
    rows, cols = [], []
    for offset in range(window_size):
        start = pos - offset
        keep = (start >= 0) & (start < last)
        rows.append(first[keep] + start[keep])
        cols.append(tokens[keep])
    rows = np.concatenate(rows)
    # Building CSR from coordinates sums repeated (window, token) entries.
    incidence = sp.csr_array(
        (np.ones(len(rows), dtype=np.int64), (rows, np.concatenate(cols))),
        shape=(int(n_windows.sum()), n_tokens),
    )
    incidence.data[:] = 1
    return incidence


def slide_windows(corpus, window_size: int = DEFAULT_WINDOW_SIZE) -> WindowStats:
    """Count token and pair window presences with stride-1 windows per document.

    A document shorter than the window contributes exactly one window (the
    whole document), so every document contributes max(1, L - k + 1) windows.
    With B the 0/1 window x token incidence, token counts are the column sums
    of B and pair counts the strict upper triangle of B^T B.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    n_tokens = len(corpus.vocab)
    stats = WindowStats(
        window_size=window_size,
        token_counts=np.zeros(n_tokens, dtype=np.int64),
        pair_counts=sp.csr_array((n_tokens, n_tokens), dtype=np.int64),
    )
    for run in _document_runs(corpus.sequences, window_size):
        incidence = _window_incidence(run, window_size, n_tokens)
        stats.total_windows += incidence.shape[0]
        stats.token_counts += incidence.sum(axis=0)
        stats.pair_counts += sp.triu(incidence.T @ incidence, k=1, format="csr")
    stats.pair_counts.sort_indices()
    return stats


def ppmi(stats: WindowStats, i: int, j: int) -> float | None:
    """Positive PMI of a word pair over sliding windows, or None when not positive.

    PMI = ln(p(i,j) / (p(i) p(j))) with probabilities estimated as window
    presence fractions. Returns None for never-co-windowed pairs and for
    pairs whose PMI is zero or negative.
    """
    if i == j:
        raise ValueError("ppmi is defined for distinct tokens only")
    if stats.total_windows == 0:
        raise ValueError("window statistics are empty")
    n_ij = int(stats.pair_counts[min(i, j), max(i, j)])
    if n_ij == 0:
        return None
    n_i = int(stats.token_counts[i])
    n_j = int(stats.token_counts[j])
    value = math.log(n_ij * stats.total_windows / (n_i * n_j))
    return value if value > 0.0 else None


def ppmi_edges(stats: WindowStats) -> list[tuple[int, int, float]]:
    """All word pairs with strictly positive PMI, as (i, j, weight) with i < j.

    Equal to ppmi() pair by pair: both products of the ratio are at most T^2
    for T windows, so below 2**53 they are exact in float64 and the quotient
    is the correctly rounded one Python's integer division gives.
    """
    total = stats.total_windows
    if total * total >= 2**53:
        raise ValueError(f"{total} windows are too many for exact float64 PPMI ratios")
    pairs = stats.pair_counts.tocoo()
    counts = stats.token_counts
    ratio = (pairs.data * total) / (counts[pairs.row] * counts[pairs.col])
    # ln(r) > 0 exactly when r > 1; scalar math.log keeps ppmi()'s last ulp.
    keep = ratio > 1.0
    return [
        (i, j, math.log(r))
        for i, j, r in zip(
            pairs.row[keep].tolist(), pairs.col[keep].tolist(), ratio[keep].tolist()
        )
    ]


def assemble_adjacency(
    tfidf: SparseMatrix,
    word_edges: list[tuple[int, int, float]],
    n_docs: int,
    n_words: int,
) -> SparseMatrix:
    """Symmetric heterogeneous adjacency over documents (rows 0..n_docs-1) and words.

    Unit self-loops everywhere; TF-IDF on the doc-word blocks; PPMI on the
    word-word block; the off-diagonal doc-doc block stays empty.
    """
    if tfidf.n_rows != n_docs or tfidf.n_cols != n_words:
        raise ValueError("tfidf shape does not match n_docs x n_words")
    n = n_docs + n_words
    word = np.asarray(word_edges, dtype=np.float64).reshape(-1, 3)
    word_i = word[:, 0].astype(np.int64)
    word_j = word[:, 1].astype(np.int64)
    if np.any(word_i == word_j):
        raise ValueError("word-word self edges are not allowed")
    # Entry order is self-loops, then every doc-word and word-word edge followed
    # by its mirror: normalize_adjacency sums degrees in this order.
    src = np.concatenate([tfidf.rows, n_docs + word_i])
    dst = np.concatenate([n_docs + tfidf.cols, n_docs + word_j])
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([diag, np.column_stack([src, dst]).ravel()])
    cols = np.concatenate([diag, np.column_stack([dst, src]).ravel()])
    vals = np.concatenate([np.ones(n), np.repeat(np.concatenate([tfidf.vals, word[:, 2]]), 2)])
    # SparseMatrix rejects duplicate (row, col) entries.
    return SparseMatrix(n, n, rows, cols, vals)


def normalize_adjacency(adj: SparseMatrix) -> SparseMatrix:
    """Symmetric normalization D^(-1/2) A D^(-1/2) with D the row-sum diagonal."""
    degree = np.zeros(adj.n_rows)
    np.add.at(degree, adj.rows, adj.vals)
    if np.any(degree <= 0):
        raise AssertionError("zero row sum; adjacency must carry self-loops")
    inv_sqrt = 1.0 / np.sqrt(degree)
    vals = adj.vals * inv_sqrt[adj.rows] * inv_sqrt[adj.cols]
    return SparseMatrix(adj.n_rows, adj.n_cols, adj.rows.copy(), adj.cols.copy(), vals)


def build_node_features(
    embeddings: EmbeddingMatrix | None,
    n_docs: int,
    n_words: int,
) -> NodeFeatures:
    """Stack document embeddings over a zero word block, or fall back to identity."""
    if embeddings is None:
        return NodeFeatures(
            matrix=np.eye(n_docs + n_words),
            mode="identity",
            n_docs=n_docs,
            n_words=n_words,
        )
    if embeddings.n_docs != n_docs:
        raise ValueError(
            f"embedding rows ({embeddings.n_docs}) do not match corpus size ({n_docs})"
        )
    matrix = np.zeros((n_docs + n_words, embeddings.dim))
    matrix[:n_docs] = embeddings.values
    return NodeFeatures(matrix=matrix, mode="external-embeddings", n_docs=n_docs, n_words=n_words)


def write_embeddings(path, embeddings: EmbeddingMatrix) -> None:
    """Binary embedding file: magic, version u32, n_rows u64, dim u64, float32 rows."""
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<IQQ", EMBEDDING_VERSION, embeddings.n_docs, embeddings.dim))
        fh.write(embeddings.values.astype("<f4").tobytes(order="C"))


def read_embeddings(path) -> EmbeddingMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != EMBEDDING_MAGIC:
            raise ValueError(f"not an embedding file (bad magic {magic!r})")
        header = fh.read(20)
        if len(header) != 20:
            raise ValueError("truncated embedding header")
        version, n_rows, dim = struct.unpack("<IQQ", header)
        if version != EMBEDDING_VERSION:
            raise ValueError(f"unsupported embedding file version {version}")
        # Check the declared size against the file before allocating for it.
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_rows * dim * 4 > remaining:
            raise ValueError(
                f"truncated embedding payload: header declares {n_rows} x {dim} float32, "
                f"file holds {remaining} bytes"
            )
        payload = fh.read(n_rows * dim * 4)
    values = np.frombuffer(payload, dtype="<f4").reshape(n_rows, dim)
    return EmbeddingMatrix(values=values.astype(np.float64))


def read_embeddings_csv(path) -> EmbeddingMatrix:
    """CSV fallback: one embedding row per document, corpus order."""
    values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return EmbeddingMatrix(values=values)


def write_embeddings_csv(path, embeddings: EmbeddingMatrix) -> None:
    np.savetxt(path, embeddings.values, delimiter=",", fmt="%.17g")


def export_graph_json(
    corpus,
    tfidf: SparseMatrix,
    word_edges: list[tuple[int, int, float]],
) -> dict:
    """Serializable graph: node list (docs first, then words) and weighted edges.

    Edge endpoints are indices into the node list; self-loops are implicit and
    re-added by the loader.
    """
    n_docs = corpus.n_docs
    nodes = [{"id": doc_id, "kind": "doc"} for doc_id in corpus.doc_ids]
    nodes += [{"id": tok, "kind": "word"} for tok in corpus.vocab.tokens]
    edges = [
        {"a": int(d), "b": n_docs + int(w), "w": float(v), "kind": "doc-word"}
        for d, w, v in zip(tfidf.rows, tfidf.cols, tfidf.vals)
    ]
    edges += [
        {"a": n_docs + i, "b": n_docs + j, "w": float(v), "kind": "word-word"}
        for i, j, v in word_edges
    ]
    return {"n_docs": n_docs, "n_words": len(corpus.vocab), "nodes": nodes, "edges": edges}


def load_graph_json(data: dict) -> tuple[SparseMatrix, list[tuple[int, int, float]], dict]:
    """Rebuild the (tfidf, word_edges) pair from an exported graph document."""
    n_docs = data["n_docs"]
    n_words = data["n_words"]
    t_rows, t_cols, t_vals = [], [], []
    word_edges = []
    for e in data["edges"]:
        if e["kind"] == "doc-word":
            t_rows.append(e["a"])
            t_cols.append(e["b"] - n_docs)
            t_vals.append(e["w"])
        elif e["kind"] == "word-word":
            word_edges.append((e["a"] - n_docs, e["b"] - n_docs, e["w"]))
        else:
            raise ValueError(f"unknown edge kind {e['kind']!r}")
    tfidf = SparseMatrix(
        n_docs, n_words, np.array(t_rows, dtype=np.int64), np.array(t_cols, dtype=np.int64),
        np.array(t_vals, dtype=np.float64),
    )
    return tfidf, word_edges, data


def save_graph_json(path, data: dict) -> None:
    """Write a graph document as compact sorted-key JSON, replacing path atomically.

    The bytes equal json.dumps(data, separators=(",", ":"), sort_keys=True)
    plus a newline. Keys must be strings. List values are encoded a slice at
    a time by the C encoder, so no full copy of the text is held in memory.
    """
    encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("{")
            for n, key in enumerate(sorted(data)):
                fh.write(("," if n else "") + encode(key) + ":")
                value = data[key]
                if not isinstance(value, list):
                    fh.write(encode(value))
                    continue
                fh.write("[")
                for start in range(0, len(value), _JSON_SLICE):
                    chunk = encode(value[start:start + _JSON_SLICE])[1:-1]
                    fh.write(("," if start else "") + chunk)
                fh.write("]")
            fh.write("}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
