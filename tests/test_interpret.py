"""Tests for interpretability exports: frequencies, top-k words, salience graph."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    make_corpus,
    reference_salience,
    reference_salience_dot,
    reference_salience_json,
    salience_graph_from_json,
    word_block,
)
from stressgraph.corpus import TokenizedCorpus
from stressgraph.graph import compute_tfidf, ppmi_edges, slide_windows
from stressgraph.interpret import (
    FrequencyTable,
    SalienceGraph,
    build_salience_graph,
    frequency_to_json,
    label_word_frequencies,
    salience_to_dot,
    salience_to_json,
    top_k_words,
)
from stressgraph.manifest import json_text


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


def doc_word_edges(graph):
    """(doc name, word name) of each doc-word edge, in edge order."""
    nodes = graph.doc_nodes + graph.word_nodes
    return [(nodes[a], nodes[b]) for a, b, ww in zip(graph.a, graph.b, graph.word_word) if not ww]


def word_word_edges(graph):
    nodes = graph.doc_nodes + graph.word_nodes
    return [(nodes[a], nodes[b]) for a, b, ww in zip(graph.a, graph.b, graph.word_word) if ww]


def assert_same_graph(x, y):
    assert (x.doc_nodes, x.word_nodes) == (y.doc_nodes, y.word_nodes)
    for column in ("a", "b", "w", "word_word"):
        np.testing.assert_array_equal(getattr(x, column), getattr(y, column), strict=True)


def parsed(payload) -> dict:
    """A salience_to_json payload as salience.json parses back."""
    return json.loads(json_text(payload))


def test_salience_degree_bound_and_coverage():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, k)
    doc_word = doc_word_edges(graph)
    assert len(doc_word) <= len(corpus.doc_ids) * k
    per_doc = {}
    for a, _ in doc_word:
        per_doc[a] = per_doc.get(a, 0) + 1
    assert all(count <= k for count in per_doc.values())
    # Every word node is referenced by at least one edge (graph invariant).
    referenced = {b for _, b in doc_word}
    assert set(graph.word_nodes) == referenced


def test_salience_clamps_sparse_docs():
    corpus = make_corpus([[0, 0], [1]], labels=[1, 0])
    tfidf = compute_tfidf(corpus)
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_block([], 2), k=5)
    doc_word = doc_word_edges(graph)
    # Each doc has a single distinct word, so one edge apiece despite k=5.
    assert len(doc_word) == 2


def test_salience_word_word_filter():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids[:3], tfidf, word_edges, 2)
    words = set(graph.word_nodes)
    for a, b in word_word_edges(graph):
        assert a in words and b in words


def test_salience_subset_of_documents():
    corpus, tfidf, word_edges, k = salience_setup()
    chosen = corpus.doc_ids[2:5]
    graph = build_salience_graph(corpus, chosen, tfidf, word_edges, k)
    assert graph.doc_nodes == tuple(chosen)
    assert {a for a, _ in doc_word_edges(graph)} <= set(chosen)


def test_salience_unknown_doc_id():
    corpus, tfidf, word_edges, k = salience_setup()
    with pytest.raises(ValueError, match="unknown document id: 'nope'"):
        build_salience_graph(corpus, ["nope"], tfidf, word_edges, k)


def edge_columns(*edges):
    """SalienceGraph edge keywords from (a, b, w, word_word) tuples."""
    a, b, w, word_word = zip(*edges) if edges else ((), (), (), ())
    return {"a": a, "b": b, "w": w, "word_word": word_word}


def test_salience_graph_rejects_orphan_words():
    with pytest.raises(ValueError):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("lonely",), **edge_columns())
    with pytest.raises(ValueError, match=r"word nodes without any edge: \['y'\]"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("x", "y"), **edge_columns((0, 1, 1.5, False)))
    # Edges whose ends are not nodes of the kinds their edge kind joins: an
    # index past the nodes, a word where the document goes, a document as a
    # word-word end. Nodes: d0 is 0, w is 1.
    for edge in ((5, 1, 1.0, False), (1, 1, 1.0, False), (1, 0, 1.0, False), (1, 0, 1.0, True),
                 (0, 1, 1.0, True)):
        with pytest.raises(ValueError, match="ends outside the graph"):
            SalienceGraph(doc_nodes=("d0",), word_nodes=("w",), **edge_columns(edge))


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_salience_graph_rejects_a_weight_that_is_not_finite_and_positive(weight):
    with pytest.raises(ValueError, match="^edge weights must be finite and positive$"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("w",), **edge_columns((0, 1, weight, False)))


@pytest.mark.parametrize("edge", [(-1, 1, 1.0, False), (0, -1, 1.0, False), (-1, 1, 1.0, True)],
                         ids=["doc-end", "word-end", "word-word-end"])
def test_salience_graph_rejects_a_negative_edge_end(edge):
    # Numpy would read -1 as the last node, here the word w.
    with pytest.raises(ValueError, match="^edge 0 ends outside the graph$"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("w",), **edge_columns(edge))


@pytest.mark.parametrize("short", ["a", "b", "w", "word_word"])
def test_salience_graph_rejects_edge_columns_of_different_lengths(short):
    columns = edge_columns((0, 1, 1.0, False), (0, 2, 2.0, False))
    columns[short] = columns[short][:1]
    with pytest.raises(ValueError, match="^edge columns differ in length$"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("x", "y"), **columns)


def test_salience_graph_rejects_repeated_nodes():
    with pytest.raises(ValueError, match=r"repeated doc nodes \['d0'\]"):
        SalienceGraph(doc_nodes=("d0", "d0"), word_nodes=("w",), **edge_columns((0, 2, 1.0, False)))
    with pytest.raises(ValueError, match=r"repeated word nodes \['w'\]"):
        SalienceGraph(doc_nodes=("d0",), word_nodes=("w", "w"), **edge_columns((0, 1, 1.0, False)))


def test_salience_json_roundtrip():
    corpus, tfidf, word_edges, k = salience_setup()
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, k)
    payload = parsed(salience_to_json(graph))
    for node in payload["nodes"]:
        assert node["kind"] in ("doc", "word")
    back = salience_graph_from_json(payload)
    assert_same_graph(back, graph)


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
    # must name different nodes in both exports. Nodes: doc dog 0, cat 1,
    # word dog 2, fish 3.
    graph = SalienceGraph(
        doc_nodes=("dog",),
        word_nodes=("cat", "dog", "fish"),
        **edge_columns((0, 1, 1.0, False), (0, 2, 0.5, False), (2, 3, 0.25, True)),
    )
    payload = parsed(salience_to_json(graph))
    ids = [n["id"] for n in payload["nodes"]]
    assert ids == ["doc:dog", "word:cat", "word:dog", "word:fish"]
    assert [n["name"] for n in payload["nodes"]] == ["dog", "cat", "dog", "fish"]
    assert [(e["a"], e["b"]) for e in payload["edges"]] == [
        ("doc:dog", "word:cat"), ("doc:dog", "word:dog"), ("word:dog", "word:fish"),
    ]
    assert_same_graph(salience_graph_from_json(payload), graph)

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
        **edge_columns((0, 1, 1.0, False)),
    )
    dot = salience_to_dot(graph)
    assert '"doc \\"quoted\\""' in dot


# The nodes and edges of a valid payload: doc d0 and words x, y.
GOOD_NODES = [
    {"id": "doc:d0", "kind": "doc", "name": "d0"},
    {"id": "word:x", "kind": "word", "name": "x"},
    {"id": "word:y", "kind": "word", "name": "y"},
]
GOOD_EDGES = [
    {"a": "doc:d0", "b": "word:x", "w": 1.5, "kind": "doc-word"},
    {"a": "word:x", "b": "word:y", "w": 0.25, "kind": "word-word"},
]


def test_salience_to_json_writes_the_valid_payload():
    graph = SalienceGraph(("d0",), ("x", "y"), **edge_columns((0, 1, 1.5, False), (1, 2, 0.25, True)))
    assert parsed(salience_to_json(graph)) == {"nodes": GOOD_NODES, "edges": GOOD_EDGES}
    assert_same_graph(salience_graph_from_json(parsed(salience_to_json(graph))), graph)


# --------------------------------------- salience bytes against the oracle


def salience_files(graph) -> tuple:
    return json_text(salience_to_json(graph)), salience_to_dot(graph)


def reference_files(corpus, doc_ids, tfidf, word_edges, k) -> tuple:
    ref = reference_salience(corpus, doc_ids, tfidf, word_edges, k)
    text = json.dumps(reference_salience_json(*ref), separators=(",", ":"), sort_keys=True)
    return text, reference_salience_dot(*ref)


@pytest.mark.parametrize("n_docs, k, window", [(10, 5, 4), (12, 3, 2), (25, 8, 6), (6, 20, 3)])
def test_salience_files_equal_reference_bytes(n_docs, k, window):
    corpus, tfidf, _, _ = salience_setup(n_docs=n_docs, k=k)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=window))
    for doc_ids in (corpus.doc_ids, corpus.doc_ids[::-3], corpus.doc_ids[1:2]):
        graph = build_salience_graph(corpus, doc_ids, tfidf, word_edges, k)
        assert salience_files(graph) == reference_files(corpus, doc_ids, tfidf, word_edges, k)


def test_salience_names_that_need_escaping_equal_reference_bytes():
    base = make_corpus([[0, 1, 2], [1, 2, 3], [0, 3]], labels=[1, 0, 1])
    base.vocab.tokens = ['q"uote', "back\\slash", "café", "tab\tnew\nline"]
    base.vocab.index = {t: i for i, t in enumerate(base.vocab.tokens)}
    corpus = TokenizedCorpus(['d"0', "d\\1", "dé2"], base.sequences, base.vocab, base.labels)
    tfidf = compute_tfidf(corpus)
    word_edges = word_block([(0, 1, 0.5), (1, 3, 1e-05), (2, 3, 2.0)], 4)
    graph = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, 3)
    assert salience_files(graph) == reference_files(corpus, corpus.doc_ids, tfidf, word_edges, 3)


def test_salience_edge_cases_equal_reference_bytes():
    # d0's words all occur in every document, so its TF-IDF row is empty.
    corpus = make_corpus([[0, 1], [0, 1, 2, 3, 3], [0, 1, 2, 4]], labels=[1, 0, 1])
    tfidf = compute_tfidf(corpus)
    assert tfidf.indptr[1] == tfidf.indptr[0]
    word_edges = word_block([(2, 3, 0.5), (2, 4, 0.75), (3, 4, 0.25)], 5)
    cases = [
        ([], 5),  # export --docs 0
        (corpus.doc_ids, 0),  # export --k 0
        (["d0"], 5),  # the empty row alone
        (corpus.doc_ids, 50),  # k larger than every row
        (["d2", "d0", "d1"], 1),
    ]
    for doc_ids, k in cases:
        graph = build_salience_graph(corpus, doc_ids, tfidf, word_edges, k)
        assert salience_files(graph) == reference_files(corpus, doc_ids, tfidf, word_edges, k)
        assert len(graph.doc_nodes) == len(doc_ids)
    empty = build_salience_graph(corpus, [], tfidf, word_edges, 5)
    assert json_text(salience_to_json(empty)) == '{"edges":[],"nodes":[]}'
    assert salience_to_dot(empty) == "graph salience {\n}\n"
    no_words = build_salience_graph(corpus, corpus.doc_ids, tfidf, word_edges, 0)
    assert no_words.word_nodes == () and len(no_words.w) == 0


def test_salience_repeated_doc_id_is_value_error():
    corpus, tfidf, word_edges, k = salience_setup()
    with pytest.raises(ValueError, match=r"repeated doc nodes \['d0'\]"):
        build_salience_graph(corpus, ["d0", "d0"], tfidf, word_edges, k)
