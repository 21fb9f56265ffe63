"""Heterogeneous document-word graph: TF-IDF, sliding-window PPMI, adjacency."""

from __future__ import annotations

import math
import operator
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .manifest import atomic_write, write_json

DEFAULT_WINDOW_SIZE = 20

EMBEDDING_MAGIC = b"TGEM"
EMBEDDING_VERSION = 1

# slide_windows builds the window x token incidence over runs of documents
# whose token count times the window size stays within this bound (at least
# one document per run), so the memory of one run is bounded.
_WINDOW_CHUNK_ENTRIES = 1 << 18


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
    """Initial node features X over documents then words, never materialized.

    In identity mode X is the (N+V) identity and doc_embeddings is None. In
    embedding mode X stacks the N document embeddings over V zero word rows,
    and doc_embeddings holds the document rows only.
    """

    doc_embeddings: np.ndarray | None
    mode: str  # "external-embeddings" | "identity"
    n_docs: int
    n_words: int

    @property
    def dim(self) -> int:
        if self.doc_embeddings is None:
            return self.n_docs + self.n_words
        return self.doc_embeddings.shape[1]


def compute_tfidf(corpus, vocab=None) -> sp.csr_array:
    """Doc-word TF-IDF matrix: tf(w, d) * ln(n_docs / df(w)), zeros omitted.

    tf is the raw in-document count and idf uses the natural log, so a word
    present in every document contributes no entry at all. The CSR has one
    row per document with sorted word ids.
    """
    vocab = vocab if vocab is not None else corpus.vocab
    n_docs = vocab.n_docs
    indptr, cols, vals = [0], [], []
    for seq in corpus.sequences:
        for w, tf in sorted(Counter(seq).items()):
            idf = math.log(n_docs / vocab.doc_freq[w])
            if tf * idf != 0.0:
                cols.append(w)
                vals.append(tf * idf)
        indptr.append(len(cols))
    return sp.csr_array(
        (np.array(vals, dtype=np.float64), np.array(cols, dtype=np.int64), np.array(indptr)),
        shape=(n_docs, len(vocab)),
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


def ppmi_edges(stats: WindowStats) -> sp.coo_array:
    """Word pairs with strictly positive PMI, as a V x V COO block with row < col.

    One entry per unordered pair, in the row-major order of pair_counts.
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
    weights = np.fromiter(map(math.log, ratio[keep].tolist()), np.float64)
    return sp.coo_array((weights, (pairs.row[keep], pairs.col[keep])), shape=pairs.shape)


def _has_repeated_pair(a: np.ndarray, b: np.ndarray, n: int) -> bool:
    """Whether an unordered pair {a[k], b[k]} of ids below n occurs twice; n * n < 2**63."""
    # int64 keys: the ids may be int32, whose products wrap once n > 46,340.
    keys = np.sort(np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b))
    return bool(np.any(keys[1:] == keys[:-1]))


def assemble_adjacency(
    tfidf: sp.sparray,
    ppmi: sp.sparray,
    n_docs: int,
    n_words: int,
) -> sp.coo_array:
    """Symmetric heterogeneous adjacency over documents (rows 0..n_docs-1) and words.

    Unit self-loops everywhere; TF-IDF on the doc-word blocks; the PPMI block
    (each word pair stored once) on the word-word block; the off-diagonal
    doc-doc block stays empty.
    """
    if tfidf.shape != (n_docs, n_words) or ppmi.shape != (n_words, n_words):
        raise ValueError("tfidf or ppmi shape does not match n_docs and n_words")
    tfidf, ppmi = tfidf.tocoo(), ppmi.tocoo()
    n = n_docs + n_words
    if np.any(ppmi.row == ppmi.col):
        raise ValueError("word-word self edges are not allowed")
    # Entry order is self-loops, then every doc-word and word-word edge followed
    # by its mirror: normalize_adjacency sums degrees in this order.
    src = np.concatenate([tfidf.row, n_docs + ppmi.row])
    dst = np.concatenate([n_docs + tfidf.col, n_docs + ppmi.col])
    if _has_repeated_pair(src, dst, n):
        raise ValueError("duplicate (row, col) entries")
    diag = np.arange(n, dtype=np.int64)
    rows = np.concatenate([diag, np.column_stack([src, dst]).ravel()])
    cols = np.concatenate([diag, np.column_stack([dst, src]).ravel()])
    vals = np.concatenate([np.ones(n), np.repeat(np.concatenate([tfidf.data, ppmi.data]), 2)])
    return sp.coo_array((vals, (rows, cols)), shape=(n, n))


def normalize_adjacency(adj: sp.sparray) -> sp.csr_array:
    """Symmetric normalization D^(-1/2) A D^(-1/2) with D the row-sum diagonal.

    Degrees are summed in the entry order of adj's COO form, which fixes the
    rounding of every row sum. Each entry is scaled by the product of its two
    factors, which commutes, so a symmetric adj gives an exactly symmetric
    result: A_hat[i, j] == A_hat[j, i] bit for bit.
    """
    adj = adj.tocoo()
    degree = np.bincount(adj.row, weights=adj.data, minlength=adj.shape[0])
    if np.any(degree <= 0):
        raise AssertionError("zero row sum; adjacency must carry self-loops")
    inv_sqrt = 1.0 / np.sqrt(degree)
    vals = adj.data * (inv_sqrt[adj.row] * inv_sqrt[adj.col])
    return sp.coo_array((vals, (adj.row, adj.col)), shape=adj.shape).tocsr()


def build_node_features(
    embeddings: EmbeddingMatrix | None,
    n_docs: int,
    n_words: int,
) -> NodeFeatures:
    """Document embeddings over implicit zero word rows, or the implicit identity."""
    if embeddings is None:
        return NodeFeatures(None, "identity", n_docs, n_words)
    if embeddings.n_docs != n_docs:
        raise ValueError(
            f"embedding rows ({embeddings.n_docs}) do not match corpus size ({n_docs})"
        )
    return NodeFeatures(embeddings.values, "external-embeddings", n_docs, n_words)


def write_embeddings(path, embeddings: EmbeddingMatrix) -> None:
    """Binary embedding file: magic, version u32, n_rows u64, dim u64, float32 rows."""
    with atomic_write(path, binary=True) as fh:
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
        if fh.read(1):
            raise ValueError("trailing bytes after the embedding payload")
    values = np.frombuffer(payload, dtype="<f4").reshape(n_rows, dim)
    return EmbeddingMatrix(values=values.astype(np.float64))


def read_embeddings_csv(path) -> EmbeddingMatrix:
    """CSV fallback: one embedding row per document, corpus order."""
    values = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    return EmbeddingMatrix(values=values)


def write_embeddings_csv(path, embeddings: EmbeddingMatrix) -> None:
    with atomic_write(path) as fh:
        np.savetxt(fh, embeddings.values, delimiter=",", fmt="%.17g")


def export_graph_json(corpus, tfidf: sp.sparray, ppmi: sp.coo_array) -> dict:
    """Serializable graph: node list (docs first, then words) and weighted edges.

    Edge endpoints are indices into the node list; the doc-word edges come
    first, then the word-word edges, each in its block's COO order.
    Self-loops are implicit and re-added by the loader.
    """
    n_docs = corpus.n_docs
    nodes = [{"id": doc_id, "kind": "doc"} for doc_id in corpus.doc_ids]
    nodes += [{"id": tok, "kind": "word"} for tok in corpus.vocab.tokens]
    edges = []
    for kind, block, offset in (("doc-word", tfidf.tocoo(), 0), ("word-word", ppmi, n_docs)):
        edges += [
            {"a": offset + a, "b": n_docs + b, "w": w, "kind": kind}
            for a, b, w in zip(block.row.tolist(), block.col.tolist(), block.data.tolist())
        ]
    return {"n_docs": n_docs, "n_words": len(corpus.vocab), "nodes": nodes, "edges": edges}


def _graph_edges(data) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(n_docs, n_words, is_doc_word, a, b, w) of a graph document, checked.

    Raises ValueError unless n_docs and n_words are non-negative integers
    that add up to the length of the node list, and every edge is an object
    whose kind is doc-word (a document, then a word) or word-word (two
    distinct words), whose endpoints are integer node indices and whose
    weight is finite and positive, with no node pair joined twice. The
    entries of the node list are not read.
    """
    if type(data) is not dict:
        raise ValueError("graph document must be a JSON object")
    n_docs, n_words, edges = data.get("n_docs"), data.get("n_words"), data.get("edges")
    if not all(type(v) is int and v >= 0 for v in (n_docs, n_words)):
        raise ValueError("n_docs and n_words must be non-negative integers")
    nodes = data.get("nodes")
    if type(nodes) is not list or len(nodes) != n_docs + n_words:
        raise ValueError(f"nodes must be a list of n_docs + n_words = {n_docs + n_words} entries")
    if type(edges) is not list:
        raise ValueError("edges must be a list")
    try:
        kinds, a, b, w = (list(map(operator.itemgetter(key), edges)) for key in ("kind", "a", "b", "w"))
    except (KeyError, TypeError):
        raise ValueError("every edge must be an object with kind, a, b and w") from None
    if not set(map(type, a)) | set(map(type, b)) <= {int}:
        raise ValueError("edge endpoints must be integers")
    if not set(map(type, w)) <= {int, float}:
        raise ValueError("edge weights must be numbers")
    doc_word = np.array([k == "doc-word" for k in kinds], dtype=bool)
    unknown = ~doc_word & ~np.array([k == "word-word" for k in kinds], dtype=bool)
    if unknown.any():
        raise ValueError(f"unknown edge kind {kinds[int(np.argmax(unknown))]!r}")
    n = n_docs + n_words
    try:
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
    except OverflowError:
        raise ValueError("edge endpoint or weight out of range") from None
    a_doc = (a >= 0) & (a < n_docs)
    a_word, b_word = (a >= n_docs) & (a < n), (b >= n_docs) & (b < n)
    in_block = np.where(doc_word, a_doc & b_word, a_word & b_word & (a != b))
    if not in_block.all():
        raise ValueError(f"{int((~in_block).sum())} edges have endpoints outside their block")
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError("edge weights must be finite and positive")
    if _has_repeated_pair(a, b, n):
        raise ValueError("duplicate edges between the same two nodes")
    return n_docs, n_words, doc_word, a, b, w


def load_graph_json(data: dict) -> tuple[sp.csr_array, sp.coo_array, dict]:
    """Rebuild the (tfidf, ppmi) blocks from an exported graph document.

    The PPMI block keeps the word-word edges in file order, with each
    endpoint pair as written. Any malformed document raises ValueError (see
    _graph_edges).
    """
    n_docs, n_words, doc_word, a, b, w = _graph_edges(data)
    word = ~doc_word
    tfidf = sp.coo_array(
        (w[doc_word], (a[doc_word], b[doc_word] - n_docs)), shape=(n_docs, n_words)
    ).tocsr()
    ppmi = sp.coo_array((w[word], (a[word] - n_docs, b[word] - n_docs)), shape=(n_words, n_words))
    return tfidf, ppmi, data


def save_graph_json(path, data: dict) -> None:
    """Write a graph document as compact sorted-key JSON, replacing path atomically."""
    write_json(path, data)
