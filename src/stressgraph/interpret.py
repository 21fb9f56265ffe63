"""Interpretability exports: label-conditioned word frequencies and a
document-word salience graph (top-k TF-IDF words per document plus positive
PPMI links among the included words), serialized to JSON and Graphviz DOT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .corpus import TokenizedCorpus
from .manifest import Columns

if TYPE_CHECKING:
    import scipy.sparse as sp


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


# Edge kind names, indexed by SalienceGraph.word_word.
_EDGE_KINDS = ("doc-word", "word-word")


@dataclass(frozen=True, eq=False)
class SalienceGraph:
    """Documents, their top-k words, and word-word links among those words.

    Edge k joins nodes a[k] and b[k] (indices into doc_nodes + word_nodes) with
    finite positive weight w[k]: two words where word_word[k] is set, else a
    document and a word."""

    doc_nodes: tuple
    word_nodes: tuple
    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    word_word: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "doc_nodes", tuple(self.doc_nodes))
        object.__setattr__(self, "word_nodes", tuple(self.word_nodes))
        for name, dtype in (("a", np.int64), ("b", np.int64), ("w", np.float64), ("word_word", bool)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        for kind, nodes in (("doc", self.doc_nodes), ("word", self.word_nodes)):
            if len(set(nodes)) != len(nodes):
                repeated = sorted(name for name, n in Counter(nodes).items() if n > 1)
                raise ValueError(f"repeated {kind} nodes {repeated}")
        if not len(self.a) == len(self.b) == len(self.w) == len(self.word_word):
            raise ValueError("edge columns differ in length")
        n_docs, n = len(self.doc_nodes), len(self.doc_nodes) + len(self.word_nodes)
        a_doc, a_word = (self.a >= 0) & (self.a < n_docs), (self.a >= n_docs) & (self.a < n)
        inside = np.where(self.word_word, a_word, a_doc) & (self.b >= n_docs) & (self.b < n)
        if not inside.all():
            raise ValueError(f"edge {int(np.argmin(inside))} ends outside the graph")
        if not np.all(np.isfinite(self.w) & (self.w > 0.0)):
            raise ValueError("edge weights must be finite and positive")
        referenced = np.zeros(n, dtype=bool)
        referenced[self.b] = referenced[self.a[self.word_word]] = True
        orphans = [w for w, seen in zip(self.word_nodes, referenced[n_docs:]) if not seen]
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

    Words become nodes in the order the documents first select them. ppmi is
    the V x V positive-PPMI block; only pairs where both words are selected
    by some document survive, in the block's stored order.
    """
    doc_ids = list(doc_ids)
    top = [top_k_words(tfidf, corpus.row_of(doc_id), k) for doc_id in doc_ids]
    words = np.fromiter((wid for row in top for wid, _ in row), np.int64)
    weights = np.fromiter((x for row in top for _, x in row), np.float64)
    # The selected word ids ascending, and the rank of each among the word nodes.
    ids, first, inverse = np.unique(words, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    keep = np.isin(ppmi.row, ids) & np.isin(ppmi.col, ids)
    n_docs = len(doc_ids)
    pair_a, pair_b = (n_docs + rank[np.searchsorted(ids, ends[keep])] for ends in (ppmi.row, ppmi.col))
    doc_ends = np.repeat(np.arange(n_docs), np.fromiter(map(len, top), np.int64, n_docs))
    tokens = corpus.vocab.tokens
    return SalienceGraph(
        doc_nodes=doc_ids,
        word_nodes=[tokens[wid] for wid in words[np.sort(first)].tolist()],
        a=np.concatenate([doc_ends, pair_a]),
        b=np.concatenate([n_docs + rank[inverse], pair_b]),
        w=np.concatenate([weights, ppmi.data[keep]]),
        word_word=np.repeat([False, True], [len(words), len(pair_a)]),
    )


def _node_ids(graph: SalienceGraph) -> list:
    """Node ids over doc_nodes + word_nodes. The doc: / word: prefix keeps a
    document and a word of the same name two nodes."""
    return [f"doc:{d}" for d in graph.doc_nodes] + [f"word:{w}" for w in graph.word_nodes]


def _edge_kinds(graph: SalienceGraph) -> list:
    return np.take(_EDGE_KINDS, graph.word_word.view(np.uint8)).tolist()


def salience_to_json(graph: SalienceGraph) -> dict:
    """nodes ({id, kind, name}) and edges ({a, b, w, kind}, ends by node id) as
    manifest.Columns, which write_json encodes."""
    ids = np.array(_node_ids(graph), dtype=object)
    kinds = ["doc"] * len(graph.doc_nodes) + ["word"] * len(graph.word_nodes)
    nodes = Columns({"id": ids.tolist(), "kind": kinds, "name": [*graph.doc_nodes, *graph.word_nodes]})
    ends = {"a": ids[graph.a].tolist(), "b": ids[graph.b].tolist()}
    return {"nodes": nodes, "edges": Columns({**ends, "kind": _edge_kinds(graph), "w": graph.w})}


def _dot_quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def salience_to_dot(graph: SalienceGraph) -> str:
    """Graphviz rendering: red boxes for documents, green ellipses for words.

    Nodes use the salience_to_json ids and show their names as labels.
    """
    ids = np.array([_dot_quote(i) for i in _node_ids(graph)], dtype=object)
    names = map(_dot_quote, graph.doc_nodes + graph.word_nodes)
    shapes = ["box, color=red"] * len(graph.doc_nodes) + ["ellipse, color=green"] * len(graph.word_nodes)
    node, edge = "  %s [label=%s, shape=%s];", '  %s -- %s [weight=%.6g, label="%.3g", kind="%s"];'
    a, b, w = ids[graph.a].tolist(), ids[graph.b].tolist(), graph.w.tolist()
    lines = ["graph salience {", *map(node.__mod__, zip(ids.tolist(), names, shapes))]
    lines += map(edge.__mod__, zip(a, b, w, w, _edge_kinds(graph)))
    return "\n".join(lines) + "\n}\n"


def frequency_to_json(table: FrequencyTable) -> dict:
    return {
        "label": table.label,
        "entries": [{"token": t, "count": c} for t, c in table.entries],
    }
