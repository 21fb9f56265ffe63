"""Tests for interpretability exports: frequencies, top-k words, salience graph."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import make_corpus, word_block
from stressgraph.graph import compute_tfidf, ppmi_edges, slide_windows
from stressgraph.interpret import (
    FrequencyTable,
    SalienceEdge,
    SalienceGraph,
    build_salience_graph,
    frequency_to_json,
    label_word_frequencies,
    salience_from_json,
    salience_to_dot,
    salience_to_json,
    top_k_words,
)


def labeled_corpus():
    # Vocabulary order: w0 "feel", w1 "guy", w2 "calm".
    corpus = make_corpus([[0, 0, 1], [2], [0, 2]], labels=[1, 0, 0])
    corpus.vocab.tokens = ["feel", "guy", "calm"]
    corpus.vocab.index = {t: i for i, t in enumerate(corpus.vocab.tokens)}
    return corpus


# ------------------------------------------------------------ frequencies


def test_frequency_example():
    table = label_word_frequencies(labeled_corpus(), label=1)
    assert table.entries == (("feel", 2), ("guy", 1))
    assert table.label == 1


def test_frequency_absent_label():
    corpus = make_corpus([[0]], labels=[1])
    with pytest.raises(ValueError):
        label_word_frequencies(corpus, label=0)


def test_frequency_ties_order_by_token_index():
    corpus = make_corpus([[1, 0], [0, 1]], labels=[1, 1])
    table = label_word_frequencies(corpus, label=1)
    assert table.entries == (("w0", 2), ("w1", 2))


def test_frequency_independent_of_document_order():
    a = make_corpus([[0, 0, 1], [2, 1]], labels=[1, 1])
    b = make_corpus([[2, 1], [0, 0, 1]], labels=[1, 1])
    assert label_word_frequencies(a, 1).entries == label_word_frequencies(b, 1).entries


def test_frequency_table_validation():
    with pytest.raises(ValueError):
        FrequencyTable(label=1, entries=(("x", 0),))


def test_frequency_json():
    data = frequency_to_json(label_word_frequencies(labeled_corpus(), 1))
    assert data == {
        "label": 1,
        "entries": [{"token": "feel", "count": 2}, {"token": "guy", "count": 1}],
    }


# ----------------------------------------------------------- top-k words


def test_top_k_ranking_and_clamp():
    tfidf = sp.csr_array(
        ([1.0, 3.0, 2.0, 5.0], ([0, 0, 0, 1], [0, 1, 2, 3])), shape=(2, 4)
    )
    assert top_k_words(tfidf, 0, 2) == [(1, 3.0), (2, 2.0)]
    assert top_k_words(tfidf, 0, 0) == []
    # Fewer entries than k returns everything available.
    assert top_k_words(tfidf, 1, 10) == [(3, 5.0)]
    with pytest.raises(ValueError):
        top_k_words(tfidf, 0, -1)


def test_top_k_ties_break_by_word_index():
    tfidf = sp.csr_array(([1.5, 1.5, 7.0], ([0, 0, 0], [2, 0, 1])), shape=(1, 3))
    assert top_k_words(tfidf, 0, 3) == [(1, 7.0), (0, 1.5), (2, 1.5)]


def test_top_k_weights_match_matrix():
    corpus = labeled_corpus()
    tfidf = compute_tfidf(corpus)
    dense = tfidf.toarray()
    for row in range(corpus.n_docs):
        for word_id, weight in top_k_words(tfidf, row, 5):
            assert weight == dense[row, word_id]


# ------------------------------------------------------- salience graph


def salience_setup(n_docs: int = 10, k: int = 5):
    rng = np.random.default_rng(0)
    sequences = [
        [int(t) for t in rng.integers(0, 12, size=int(rng.integers(3, 9)))]
        for _ in range(n_docs)
    ]
    corpus = make_corpus(sequences, n_tokens=12)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=4))
    return corpus, tfidf, word_edges, k


def test_salience_degree_bound_and_coverage():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, k)
    doc_word = [e for e in graph.edges if e.kind == "doc-word"]
    assert len(doc_word) <= len(corpus.doc_ids) * k
    per_doc = {}
    for e in doc_word:
        per_doc[e.a] = per_doc.get(e.a, 0) + 1
    assert all(count <= k for count in per_doc.values())
    # Every word node is referenced by at least one edge (graph invariant).
    referenced = {e.b for e in doc_word}
    assert set(graph.word_nodes) == referenced


def test_salience_clamps_sparse_docs():
    corpus = make_corpus([[0, 0], [1]], labels=[1, 0])
    tfidf = compute_tfidf(corpus)
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_block([], 2), k=5)
    doc_word = [e for e in graph.edges if e.kind == "doc-word"]
    # Each doc has a single distinct word, so one edge apiece despite k=5.
    assert len(doc_word) == 2


def test_salience_word_word_filter():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids[:3], tfidf, word_edges, 2)
    words = set(graph.word_nodes)
    for e in graph.edges:
        if e.kind == "word-word":
            assert e.a in words and e.b in words


def test_salience_subset_of_documents():
    corpus, tfidf, word_edges, k = salience_setup()
    chosen = corpus.doc_ids[2:5]
    graph = build_salience_graph(corpus, chosen, tfidf, word_edges, k)
    assert graph.doc_nodes == tuple(chosen)
    assert {e.a for e in graph.edges if e.kind == "doc-word"} <= set(chosen)


def test_salience_unknown_doc_id():
    corpus, tfidf, word_edges, k = salience_setup()
    with pytest.raises(KeyError):
        build_salience_graph(corpus, ["nope"], tfidf, word_edges, k)


def test_salience_graph_rejects_orphan_words():
    with pytest.raises(ValueError):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("lonely",), edges=())
    with pytest.raises(ValueError):
        SalienceGraph(
            doc_nodes=("d0",),
            word_nodes=("w",),
            edges=(SalienceEdge("d0", "w", 1.0, "doc-doc"),),
        )
    # Edges whose ends are not nodes of the kinds their edge kind joins.
    for edge in (SalienceEdge("d9", "w", 1.0, "doc-word"), SalienceEdge("w", "w", 1.0, "doc-word"),
                 SalienceEdge("w", "d0", 1.0, "word-word")):
        with pytest.raises(ValueError, match="ends outside the graph"):
            SalienceGraph(doc_nodes=("d0",), word_nodes=("w",), edges=(edge,))


def test_salience_graph_rejects_repeated_nodes():
    edge = SalienceEdge("d0", "w", 1.0, "doc-word")
    with pytest.raises(ValueError, match=r"repeated doc nodes \['d0'\]"):
        SalienceGraph(doc_nodes=("d0", "d0"), word_nodes=("w",), edges=(edge,))
    with pytest.raises(ValueError, match=r"repeated word nodes \['w'\]"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("w", "w"), edges=(edge,))


def test_salience_json_roundtrip():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, k)
    payload = salience_to_json(graph)
    for node in payload["nodes"]:
        assert node["kind"] in ("doc", "word")
    back = salience_from_json(payload)
    assert back == graph


def test_salience_dot_output():
    corpus = make_corpus([[0, 0], [1]], labels=[1, 0])
    tfidf = compute_tfidf(corpus)
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_block([], 2), k=1)
    dot = salience_to_dot(graph)
    assert dot.startswith("graph salience {")
    assert dot.rstrip().endswith("}")
    assert '"doc:d0" [label="d0", shape=box, color=red];' in dot
    assert 'shape=ellipse, color=green];' in dot
    assert ' -- ' in dot
    assert 'kind="doc-word"' in dot


def test_salience_doc_and_word_of_one_name_stay_two_nodes():
    # A document "dog" next to a token "dog": doc-word and word-word edges
    # must name different nodes in both exports.
    graph = SalienceGraph(
        doc_nodes=("dog",),
        word_nodes=("cat", "dog", "fish"),
        edges=(
            SalienceEdge("dog", "cat", 1.0, "doc-word"),
            SalienceEdge("dog", "dog", 0.5, "doc-word"),
            SalienceEdge("dog", "fish", 0.25, "word-word"),
        ),
    )
    payload = salience_to_json(graph)
    ids = [n["id"] for n in payload["nodes"]]
    assert ids == ["doc:dog", "word:cat", "word:dog", "word:fish"]
    assert [n["name"] for n in payload["nodes"]] == ["dog", "cat", "dog", "fish"]
    assert [(e["a"], e["b"]) for e in payload["edges"]] == [
        ("doc:dog", "word:cat"), ("doc:dog", "word:dog"), ("word:dog", "word:fish"),
    ]
    assert salience_from_json(payload) == graph

    dot = salience_to_dot(graph)
    assert '"doc:dog" [label="dog", shape=box, color=red];' in dot
    assert '"word:dog" [label="dog", shape=ellipse, color=green];' in dot
    assert '"doc:dog" -- "word:cat"' in dot
    assert '"word:dog" -- "word:fish"' in dot
    declared = [line.split(" [", 1)[0].strip() for line in dot.splitlines() if "shape=" in line]
    assert len(declared) == len(set(declared)) == 4


def test_salience_dot_quotes_special_characters():
    graph = SalienceGraph(
        doc_nodes=('doc "quoted"',),
        word_nodes=("w",),
        edges=(SalienceEdge('doc "quoted"', "w", 1.0, "doc-word"),),
    )
    dot = salience_to_dot(graph)
    assert '"doc \\"quoted\\""' in dot
