"""Interpretability exports: label-conditioned word frequencies and a
document-word salience graph (top-k TF-IDF words per document plus positive
PPMI links among the included words), serialized to JSON and Graphviz DOT.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import TokenizedCorpus


@dataclass(frozen=True)
class FrequencyTable:
    """Ranked (token, count) pairs for one label.

    Descending by count; ties order by vocabulary index ascending.
    """

    label: int
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple((t, int(c)) for t, c in self.entries))
        if any(c < 1 for _, c in self.entries):
            raise ValueError("frequency counts must be >= 1")


@dataclass(frozen=True)
class SalienceEdge:
    a: str
    b: str
    w: float
    kind: str


@dataclass(frozen=True)
class SalienceGraph:
    """Documents, their top-k words, and word-word links among those words."""

    doc_nodes: tuple
    word_nodes: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "doc_nodes", tuple(self.doc_nodes))
        object.__setattr__(self, "word_nodes", tuple(self.word_nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        referenced = set()
        for edge in self.edges:
            if edge.kind == "doc-word":
                referenced.add(edge.b)
            elif edge.kind == "word-word":
                referenced.update((edge.a, edge.b))
            else:
                raise ValueError(f"unknown edge kind {edge.kind!r}")
        orphans = set(self.word_nodes) - referenced
        if orphans:
            raise ValueError(f"word nodes without any edge: {sorted(orphans)}")


def label_word_frequencies(corpus: TokenizedCorpus, label: int) -> FrequencyTable:
    """Token occurrence counts over the documents carrying the label."""
    rows = [i for i, lab in enumerate(corpus.labels) if lab == label]
    if not rows:
        raise ValueError(f"no documents carry label {label!r}")
    counts = Counter()
    for row in rows:
        counts.update(corpus.sequences[row])
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return FrequencyTable(
        label=label,
        entries=tuple((corpus.vocab.tokens[wid], count) for wid, count in ranked),
    )


def top_k_words(tfidf: sp.csr_array, doc_row: int, k: int) -> list:
    """The k highest-weight (word_id, weight) pairs of one document row.

    Ties order by word index ascending; fewer than k entries returns all.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    lo, hi = tfidf.indptr[doc_row], tfidf.indptr[doc_row + 1]
    entries = zip(tfidf.indices[lo:hi].tolist(), tfidf.data[lo:hi].tolist())
    ranked = sorted(entries, key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def build_salience_graph(
    corpus: TokenizedCorpus,
    doc_ids,
    tfidf: sp.csr_array,
    ppmi: sp.coo_array,
    k: int,
) -> SalienceGraph:
    """Assemble the top-k word neighborhood of the requested documents.

    ppmi is the V x V positive-PPMI block; only pairs where both words are
    selected by some document survive, in the block's stored order.
    """
    doc_ids = list(doc_ids)
    rows = [corpus.row_of(doc_id) for doc_id in doc_ids]
    tokens = corpus.vocab.tokens
    edges = []
    included_words: dict[int, None] = {}
    for doc_id, row in zip(doc_ids, rows):
        for word_id, weight in top_k_words(tfidf, row, k):
            edges.append(SalienceEdge(doc_id, tokens[word_id], float(weight), "doc-word"))
            included_words.setdefault(word_id, None)
    word_ids = np.fromiter(included_words, np.int64, count=len(included_words))
    keep = np.isin(ppmi.row, word_ids) & np.isin(ppmi.col, word_ids)
    word_pairs = zip(ppmi.row[keep].tolist(), ppmi.col[keep].tolist(), ppmi.data[keep].tolist())
    for i, j, weight in word_pairs:
        edges.append(SalienceEdge(tokens[i], tokens[j], weight, "word-word"))
    word_nodes = tuple(tokens[wid] for wid in included_words)
    return SalienceGraph(doc_nodes=tuple(doc_ids), word_nodes=word_nodes, edges=tuple(edges))


def salience_to_json(graph: SalienceGraph) -> dict:
    nodes = [{"id": d, "kind": "doc"} for d in graph.doc_nodes]
    nodes += [{"id": w, "kind": "word"} for w in graph.word_nodes]
    return {
        "nodes": nodes,
        "edges": [
            {"a": e.a, "b": e.b, "w": e.w, "kind": e.kind} for e in graph.edges
        ],
    }


def salience_from_json(payload: dict) -> SalienceGraph:
    docs = [n["id"] for n in payload["nodes"] if n["kind"] == "doc"]
    words = [n["id"] for n in payload["nodes"] if n["kind"] == "word"]
    edges = [
        SalienceEdge(a=e["a"], b=e["b"], w=float(e["w"]), kind=e["kind"])
        for e in payload["edges"]
    ]
    return SalienceGraph(doc_nodes=tuple(docs), word_nodes=tuple(words), edges=tuple(edges))


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def salience_to_dot(graph: SalienceGraph) -> str:
    """Graphviz rendering: red boxes for documents, green ellipses for words."""
    lines = ["graph salience {"]
    for doc in graph.doc_nodes:
        lines.append(f"  {_dot_quote(doc)} [shape=box, color=red];")
    for word in graph.word_nodes:
        lines.append(f"  {_dot_quote(word)} [shape=ellipse, color=green];")
    for edge in graph.edges:
        lines.append(
            f"  {_dot_quote(edge.a)} -- {_dot_quote(edge.b)} "
            f'[weight={edge.w:.6g}, label="{edge.w:.3g}", kind="{edge.kind}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def frequency_to_json(table: FrequencyTable) -> dict:
    return {
        "label": table.label,
        "entries": [{"token": t, "count": c} for t, c in table.entries],
    }
