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


# The node kinds an edge kind joins, in (a, b) order.
_EDGE_ENDS = {"doc-word": ("doc", "word"), "word-word": ("word", "word")}


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
        names = {"doc": set(self.doc_nodes), "word": set(self.word_nodes)}
        for kind, nodes in (("doc", self.doc_nodes), ("word", self.word_nodes)):
            if len(names[kind]) != len(nodes):
                repeated = sorted(name for name, n in Counter(nodes).items() if n > 1)
                raise ValueError(f"repeated {kind} nodes {repeated}")
        referenced = set()
        for edge in self.edges:
            if edge.kind not in _EDGE_ENDS:
                raise ValueError(f"unknown edge kind {edge.kind!r}")
            kind_a, kind_b = _EDGE_ENDS[edge.kind]
            if edge.a not in names[kind_a] or edge.b not in names[kind_b]:
                raise ValueError(f"{edge.kind} edge {edge.a!r}-{edge.b!r} ends outside the graph")
            referenced.update((edge.a, edge.b) if kind_a == "word" else (edge.b,))
        orphans = names["word"] - referenced
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


def _node_ids(graph: SalienceGraph) -> dict:
    """Per node kind, name -> id. The doc: / word: prefix keeps a document
    and a word of the same name two nodes."""
    return {
        "doc": {d: f"doc:{d}" for d in graph.doc_nodes},
        "word": {w: f"word:{w}" for w in graph.word_nodes},
    }


def _edge_end_ids(graph: SalienceGraph, ids: dict) -> list:
    """(a, b) per edge, looked up in ids by the node kinds its edge kind joins."""
    ends = {kind: (ids[a], ids[b]) for kind, (a, b) in _EDGE_ENDS.items()}
    return [(ends[e.kind][0][e.a], ends[e.kind][1][e.b]) for e in graph.edges]


def salience_to_json(graph: SalienceGraph) -> dict:
    ids = _node_ids(graph)
    nodes = [{"id": ids["doc"][d], "kind": "doc", "name": d} for d in graph.doc_nodes]
    nodes += [{"id": ids["word"][w], "kind": "word", "name": w} for w in graph.word_nodes]
    edges = [
        {"a": a, "b": b, "w": e.w, "kind": e.kind}
        for e, (a, b) in zip(graph.edges, _edge_end_ids(graph, ids))
    ]
    return {"nodes": nodes, "edges": edges}


def salience_from_json(payload: dict) -> SalienceGraph:
    names = {n["id"]: n["name"] for n in payload["nodes"]}
    docs = [n["name"] for n in payload["nodes"] if n["kind"] == "doc"]
    words = [n["name"] for n in payload["nodes"] if n["kind"] == "word"]
    edges = [
        SalienceEdge(a=names[e["a"]], b=names[e["b"]], w=float(e["w"]), kind=e["kind"])
        for e in payload["edges"]
    ]
    return SalienceGraph(doc_nodes=tuple(docs), word_nodes=tuple(words), edges=tuple(edges))


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def salience_to_dot(graph: SalienceGraph) -> str:
    """Graphviz rendering: red boxes for documents, green ellipses for words.

    Nodes use the salience_to_json ids and show their names as labels.
    """
    ids = {kind: {n: _dot_quote(i) for n, i in m.items()} for kind, m in _node_ids(graph).items()}
    lines = ["graph salience {"]
    for doc in graph.doc_nodes:
        lines.append(f"  {ids['doc'][doc]} [label={_dot_quote(doc)}, shape=box, color=red];")
    for word in graph.word_nodes:
        lines.append(f"  {ids['word'][word]} [label={_dot_quote(word)}, shape=ellipse, color=green];")
    for edge, (a, b) in zip(graph.edges, _edge_end_ids(graph, ids)):
        lines.append(
            f"  {a} -- {b} "
            f'[weight={edge.w:.6g}, label="{edge.w:.3g}", kind="{edge.kind}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def frequency_to_json(table: FrequencyTable) -> dict:
    return {
        "label": table.label,
        "entries": [{"token": t, "count": c} for t, c in table.entries],
    }
