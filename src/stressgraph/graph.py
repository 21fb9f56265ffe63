"""Heterogeneous document-word graph: TF-IDF, sliding-window PPMI, adjacency."""

from __future__ import annotations

import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

DEFAULT_WINDOW_SIZE = 20

EMBEDDING_MAGIC = b"TGEM"
EMBEDDING_VERSION = 1


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
            keys = self.rows * self.n_cols + self.cols
            if len(np.unique(keys)) != len(keys):
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
    windows never span documents.
    """

    window_size: int
    total_windows: int = 0
    token_counts: dict[int, int] = field(default_factory=dict)
    pair_counts: dict[tuple[int, int], int] = field(default_factory=dict)


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


def slide_windows(corpus, window_size: int = DEFAULT_WINDOW_SIZE) -> WindowStats:
    """Count token and pair window presences with stride-1 windows per document.

    A document shorter than the window contributes exactly one window (the
    whole document), so every document contributes max(1, L - k + 1) windows.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    stats = WindowStats(window_size=window_size)
    for seq in corpus.sequences:
        n_windows = max(1, len(seq) - window_size + 1)
        stats.total_windows += n_windows
        for start in range(n_windows):
            present = sorted(set(seq[start : start + window_size]))
            for a_idx, a in enumerate(present):
                stats.token_counts[a] = stats.token_counts.get(a, 0) + 1
                for b in present[a_idx + 1 :]:
                    key = (a, b)
                    stats.pair_counts[key] = stats.pair_counts.get(key, 0) + 1
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
    n_ij = stats.pair_counts.get((min(i, j), max(i, j)), 0)
    if n_ij == 0:
        return None
    n_i = stats.token_counts[i]
    n_j = stats.token_counts[j]
    value = math.log(n_ij * stats.total_windows / (n_i * n_j))
    return value if value > 0.0 else None


def ppmi_edges(stats: WindowStats) -> list[tuple[int, int, float]]:
    """All word pairs with strictly positive PMI, as (i, j, weight) with i < j."""
    edges = []
    for (i, j), _ in sorted(stats.pair_counts.items()):
        value = ppmi(stats, i, j)
        if value is not None:
            edges.append((i, j, value))
    return edges


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
