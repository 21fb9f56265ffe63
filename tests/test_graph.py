"""Tests for the heterogeneous graph: TF-IDF, window PPMI, adjacency, features."""

import json
import math
import struct
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_adjacency_dense,
    brute_normalize_dense,
    brute_ppmi_edges,
    brute_tfidf_dense,
    edge_triples,
    make_corpus,
    ppmi,
    reference_graph_json,
    window_sets,
    word_block,
    write_embeddings_csv,
)
from stressgraph import graph
from stressgraph.graph import (
    EmbeddingMatrix,
    WindowStats,
    assemble_adjacency,
    build_node_features,
    compute_tfidf,
    export_graph_json,
    load_graph_json,
    normalize_adjacency,
    ppmi_edges,
    read_embeddings,
    read_embeddings_csv,
    save_graph_json,
    slide_windows,
    write_embeddings,
)

# Shared hypothesis strategy: small random corpora plus a window size.
corpora = st.tuples(
    st.lists(st.lists(st.integers(0, 7), max_size=12), min_size=1, max_size=8),
    st.integers(2, 5),
)


# ---------------------------------------------------------------- tf-idf


def test_tfidf_repeated_word():
    # Word 0 twice in the first of two docs: 2 * ln(2/1).
    corpus = make_corpus([[0, 0], [1]])
    tfidf = compute_tfidf(corpus)
    assert tfidf.toarray()[0, 0] == pytest.approx(2 * math.log(2), abs=1e-12)


def test_tfidf_everywhere_word_has_no_entry():
    # df == n_docs makes idf zero; the zero product is omitted, not stored.
    corpus = make_corpus([[0], [0, 1]])
    tfidf = compute_tfidf(corpus)
    entries = tfidf.tocoo()
    assert (0, 0) not in set(zip(entries.row.tolist(), entries.col.tolist()))
    assert (1, 0) not in set(zip(entries.row.tolist(), entries.col.tolist()))
    assert tfidf.toarray()[1, 1] == pytest.approx(math.log(2))


def test_tfidf_empty_doc_row():
    corpus = make_corpus([[0], []], n_tokens=1)
    tfidf = compute_tfidf(corpus)
    assert tfidf[[1]].nnz == 0
    assert tfidf.shape[0] == 2


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_tfidf_matches_brute_force(case):
    sequences, _ = case
    corpus = make_corpus(sequences, n_tokens=8)
    got = compute_tfidf(corpus).toarray()
    want = brute_tfidf_dense(sequences, 8)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --------------------------------------------------------------- windows


def test_window_counts_example():
    # Three windows {a,b}, {a,b}, {c}: presence counts, not occurrences.
    corpus = make_corpus([[0, 1], [0, 1], [2]])
    stats = slide_windows(corpus, window_size=20)
    assert stats.total_windows == 3
    assert stats.token_counts[0] == 2
    assert stats.token_counts[1] == 2
    assert stats.token_counts[2] == 1
    assert stats.pair_counts[0, 1] == 2
    assert stats.pair_counts[0, 2] == 0


def test_window_count_per_document():
    # A document of length L contributes max(1, L - k + 1) windows.
    corpus = make_corpus([[0, 1, 2, 3, 4], [0], []], n_tokens=5)
    stats = slide_windows(corpus, window_size=3)
    assert stats.total_windows == 3 + 1 + 1


def test_window_presence_counted_once():
    # A token repeated inside one window counts once for that window.
    corpus = make_corpus([[0, 0, 0]], n_tokens=1)
    stats = slide_windows(corpus, window_size=3)
    assert stats.total_windows == 1
    assert stats.token_counts[0] == 1


def test_window_no_cross_document_pairs():
    corpus = make_corpus([[0], [1]])
    stats = slide_windows(corpus, window_size=4)
    assert stats.pair_counts.nnz == 0


def test_window_size_validation():
    with pytest.raises(ValueError):
        slide_windows(make_corpus([[0]]), window_size=0)


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_window_stats_match_enumeration(case):
    sequences, k = case
    stats = slide_windows(make_corpus(sequences, n_tokens=8), window_size=k)
    windows = window_sets(sequences, k)
    assert stats.total_windows == len(windows)
    for tok in range(8):
        want = sum(1 for w in windows if tok in w)
        assert stats.token_counts[tok] == want


@settings(max_examples=60, deadline=None)
@given(corpora)
@example(([[]], 2))
@example(([[], [3], [], [1, 2, 1]], 5))
def test_window_stats_per_document_runs_match_enumeration(case):
    # One incidence run per document (the chunk bound at 1) counts the same
    # windows, tokens and pairs, including empty and shorter-than-window docs.
    sequences, k = case
    windows = window_sets(sequences, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_WINDOW_CHUNK_ENTRIES", 1)
        stats = slide_windows(make_corpus(sequences, n_tokens=8), window_size=k)
    assert stats.total_windows == len(windows)
    want_tokens = [sum(1 for w in windows if tok in w) for tok in range(8)]
    assert stats.token_counts.tolist() == want_tokens
    want_pairs = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        for j in range(i + 1, 8):
            want_pairs[i, j] = sum(1 for w in windows if i in w and j in w)
    pairs = stats.pair_counts
    assert isinstance(pairs, sp.csr_array) and pairs.shape == (8, 8)
    assert pairs.has_sorted_indices and np.all(pairs.data > 0)
    np.testing.assert_array_equal(pairs.toarray(), want_pairs)


# ------------------------------------------------------------------ ppmi


def test_ppmi_example_value():
    # #W=3, #W(a)=#W(b)=2, #W(a,b)=2: ln(2*3 / (2*2)) = ln 1.5.
    corpus = make_corpus([[0, 1], [0, 1], [2]])
    stats = slide_windows(corpus, window_size=20)
    assert ppmi(stats, 0, 1) == pytest.approx(math.log(1.5), abs=1e-12)
    assert ppmi(stats, 1, 0) == pytest.approx(math.log(1.5), abs=1e-12)


def test_ppmi_absent_pair_is_none():
    corpus = make_corpus([[0, 1], [0, 1], [2]])
    stats = slide_windows(corpus, window_size=20)
    assert ppmi(stats, 0, 2) is None


def test_ppmi_nonpositive_is_none():
    # Both tokens in every window: PMI = ln 1 = 0, dropped.
    corpus = make_corpus([[0, 1], [0, 1]])
    stats = slide_windows(corpus, window_size=20)
    assert ppmi(stats, 0, 1) is None


def test_ppmi_same_token_rejected():
    stats = slide_windows(make_corpus([[0, 1]]), window_size=20)
    with pytest.raises(ValueError):
        ppmi(stats, 1, 1)


def test_ppmi_empty_stats_rejected():
    from stressgraph.graph import WindowStats

    empty = WindowStats(0, np.zeros(0, dtype=np.int64), sp.csr_array((0, 0), dtype=np.int64))
    with pytest.raises(ValueError):
        ppmi(empty, 0, 1)


def test_ppmi_edges_ordered_upper_triangle():
    corpus = make_corpus([[0, 1], [0, 1], [2], [1, 2], [0, 3], [3]])
    edges = edge_triples(ppmi_edges(slide_windows(corpus, window_size=20)))
    for i, j, v in edges:
        assert i < j
        assert v > 0.0


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_ppmi_edges_match_brute_force(case):
    sequences, k = case
    stats = slide_windows(make_corpus(sequences, n_tokens=8), window_size=k)
    got = edge_triples(ppmi_edges(stats))
    want = brute_ppmi_edges(sequences, 8, k)
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
    np.testing.assert_allclose(
        [v for _, _, v in got], [v for _, _, v in want], rtol=0, atol=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_ppmi_edges_equal_scalar_ppmi(case):
    sequences, k = case
    stats = slide_windows(make_corpus(sequences, n_tokens=8), window_size=k)
    edges = {(i, j): v for i, j, v in edge_triples(ppmi_edges(stats))}
    for i in range(8):
        for j in range(i + 1, 8):
            assert edges.get((i, j)) == ppmi(stats, i, j)


def test_ppmi_edges_reject_inexact_window_totals():
    # The float64 ratio n_ij * T / (n_i * n_j) is exact only while T^2 < 2**53.
    def stats(total):
        return WindowStats(
            total_windows=total,
            token_counts=np.array([total // 2, total // 2], dtype=np.int64),
            pair_counts=sp.csr_array(([total // 2], ([0], [1])), shape=(2, 2), dtype=np.int64),
        )

    limit = math.isqrt(2**53 - 1)
    (edge,) = edge_triples(ppmi_edges(stats(limit)))
    assert edge == (0, 1, ppmi(stats(limit), 0, 1)) and edge[2] >= math.log(2)
    with pytest.raises(ValueError, match="windows"):
        ppmi_edges(stats(limit + 1))


# ------------------------------------------------------------- adjacency


def test_adjacency_single_isolated_doc():
    # One document, zero surviving words: the graph is a single self-loop.
    tfidf = sp.csr_array((1, 0))
    adj = assemble_adjacency(tfidf, word_block([], 0), n_docs=1, n_words=0)
    assert np.array_equal(adj.toarray(), [[1.0]])


def test_adjacency_blocks_and_symmetry():
    tfidf = sp.csr_array(([3.0, 2.0], ([0, 1], [0, 1])), shape=(2, 2))
    adj = assemble_adjacency(tfidf, word_block([(0, 1, 0.5)], 2), n_docs=2, n_words=2)
    dense = adj.toarray()
    assert np.array_equal(dense, dense.T)
    # Doc-doc off-diagonal block stays empty.
    assert dense[0, 1] == 0.0 and dense[1, 0] == 0.0
    assert dense[0, 2] == 3.0 and dense[2, 0] == 3.0
    assert dense[2, 3] == 0.5
    assert np.array_equal(np.diag(dense), np.ones(4))


def test_adjacency_entry_order():
    # Self-loops first, then each doc-word and word-word edge followed by its
    # mirror: normalize_adjacency sums degrees in this order.
    tfidf = sp.csr_array(([3.0, 2.0], ([0, 1], [2, 0])), shape=(2, 3))
    ppmi_block = word_block([(0, 1, 0.5), (1, 2, 0.25)], 3)
    adj = assemble_adjacency(tfidf, ppmi_block, n_docs=2, n_words=3)
    assert list(zip(adj.row.tolist(), adj.col.tolist(), adj.data.tolist())) == [
        (0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0), (4, 4, 1.0),
        (0, 4, 3.0), (4, 0, 3.0), (1, 2, 2.0), (2, 1, 2.0),
        (2, 3, 0.5), (3, 2, 0.5), (3, 4, 0.25), (4, 3, 0.25),
    ]


def test_adjacency_rejects_word_self_edges():
    tfidf = sp.csr_array((1, 2))
    with pytest.raises(ValueError):
        assemble_adjacency(tfidf, word_block([(1, 1, 0.5)], 2), n_docs=1, n_words=2)


def test_adjacency_rejects_duplicate_word_edges():
    tfidf = sp.csr_array((1, 2))
    with pytest.raises(ValueError):
        assemble_adjacency(tfidf, word_block([(0, 1, 0.5), (0, 1, 0.6)], 2), n_docs=1, n_words=2)


def test_adjacency_pair_keys_do_not_wrap():
    # N + V = 2**17: the pairs (0, h) and (32768, h) have keys lo * n + hi that
    # differ by exactly 2**32, so int32 keys would call them the same pair.
    n_words, h = 2**17, 40_000
    tfidf = sp.csr_array((0, n_words))
    ppmi_block = word_block([(0, h, 0.5), (32_768, h, 0.25)], n_words)
    adj = assemble_adjacency(tfidf, ppmi_block, 0, n_words)
    assert adj.nnz == n_words + 4
    for bad in ([(0, h, 0.5), (h, 0, 0.25)], [(0, h, 0.5), (32_768, 32_768, 0.25)]):
        with pytest.raises(ValueError):
            assemble_adjacency(tfidf, word_block(bad, n_words), 0, n_words)


def test_adjacency_shape_mismatch():
    tfidf = sp.csr_array((1, 2))
    with pytest.raises(ValueError):
        assemble_adjacency(tfidf, word_block([], 2), n_docs=2, n_words=2)
    with pytest.raises(ValueError):
        assemble_adjacency(tfidf, word_block([], 3), n_docs=1, n_words=2)


def test_normalize_two_node_example():
    # A = [[1, 1], [1, 1]] has degree 2 everywhere, so every entry becomes 0.5.
    adj = sp.coo_array(([1.0, 1.0, 1.0, 1.0], ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(2, 2))
    norm = normalize_adjacency(adj)
    assert np.allclose(norm.toarray(), 0.5)


def test_normalize_isolated_node_keeps_unit_loop():
    adj = sp.coo_array(([1.0], ([0], [0])), shape=(1, 1))
    assert normalize_adjacency(adj).toarray()[0, 0] == 1.0


def test_normalize_requires_positive_degree():
    adj = sp.coo_array(([1.0], ([0], [0])), shape=(2, 2))
    with pytest.raises(AssertionError):
        normalize_adjacency(adj)


def test_normalize_sums_degrees_in_entry_order():
    # Degrees are summed in the COO entry order assemble_adjacency documents.
    # On this graph CSR row sums (column order) round differently in some
    # rows, and the normalized values must follow the entry order bit for bit.
    rng = np.random.default_rng(11)
    n_docs, n_words = 30, 40
    dense = rng.uniform(0.1, 10.0, size=(n_docs, n_words)) * (rng.random((n_docs, n_words)) < 0.4)
    tfidf = sp.csr_array(dense)
    word_edges = [(i, j, float(rng.uniform(0.01, 5.0)))
                  for i in range(n_words) for j in range(i + 1, n_words) if rng.random() < 0.3]
    adj = assemble_adjacency(tfidf, word_block(word_edges, n_words), n_docs, n_words)

    degree = np.zeros(adj.shape[0])
    np.add.at(degree, adj.row, adj.data)
    assert not np.array_equal(degree, adj.tocsr().sum(axis=1))
    inv_sqrt = 1.0 / np.sqrt(degree)
    want = sp.coo_array(
        (adj.data * (inv_sqrt[adj.row] * inv_sqrt[adj.col]), (adj.row, adj.col)), shape=adj.shape
    ).tocsr()
    got = normalize_adjacency(adj)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.toarray().tobytes() == got.T.toarray().tobytes()


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_pipeline_structure_properties(case):
    # End-to-end structural invariants on random corpora.
    sequences, k = case
    corpus = make_corpus(sequences, n_tokens=8)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=k))
    n_docs, n_words = corpus.n_docs, len(corpus.vocab)
    adj = assemble_adjacency(tfidf, word_edges, n_docs, n_words)
    norm = normalize_adjacency(adj)

    dense_adj = adj.toarray()
    want_adj = brute_adjacency_dense(tfidf.toarray(), edge_triples(word_edges), n_docs, n_words)
    np.testing.assert_allclose(dense_adj, want_adj, rtol=0, atol=1e-12)

    dense = norm.toarray()
    np.testing.assert_allclose(dense, brute_normalize_dense(want_adj), rtol=0, atol=1e-12)
    # Symmetry survives normalization; entries stay in (0, 1] where present.
    np.testing.assert_allclose(dense, dense.T, rtol=0, atol=1e-12)
    assert np.all(norm.data > 0.0)
    assert np.all(norm.data <= 1.0 + 1e-12)
    assert np.all(np.diag(dense) > 0.0)
    # Doc-doc off-diagonal block is empty.
    assert not np.any(dense[:n_docs, :n_docs] - np.diag(np.diag(dense))[:n_docs, :n_docs])


# ---------------------------------------------------------- node features


def test_node_features_stacks_embeddings_over_zero_words():
    emb = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    feats = build_node_features(emb, n_docs=2, n_words=1)
    assert feats.doc_embeddings is emb.values  # the document rows, not copied
    assert (feats.n_docs, feats.n_words, feats.dim) == (2, 1, 2)


def test_node_features_identity_mode():
    feats = build_node_features(None, n_docs=2, n_words=3)
    assert feats.doc_embeddings is None
    assert (feats.n_docs, feats.n_words, feats.dim) == (2, 3, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedding_matrix_rejects_non_finite_values(bad):
    values = np.ones((2, 3))
    values[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingMatrix(values)


@pytest.mark.parametrize("values", [5.0, np.ones(3), np.ones((2, 3, 1))], ids=["0-D", "1-D", "3-D"])
def test_embedding_matrix_rejects_values_that_are_not_2_d(values):
    with pytest.raises(ValueError, match="^embedding matrix must be 2-D$"):
        EmbeddingMatrix(values)


def test_node_features_row_mismatch():
    emb = EmbeddingMatrix(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        build_node_features(emb, n_docs=2, n_words=1)


# ------------------------------------------------------------------- I/O


def test_embedding_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    emb = EmbeddingMatrix(rng.normal(size=(5, 7)).astype(np.float32).astype(np.float64))
    path = tmp_path / "emb.bin"
    write_embeddings(path, emb)
    back = read_embeddings(path)
    np.testing.assert_array_equal(back.values, emb.values)
    assert back.n_docs == 5 and back.dim == 7


def test_embedding_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError):
        read_embeddings(path)


def test_embedding_binary_rejects_truncation(tmp_path):
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(rng.normal(size=(3, 4)))
    path = tmp_path / "emb.bin"
    write_embeddings(path, emb)
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(ValueError):
        read_embeddings(path)


def test_embedding_binary_rejects_oversized_header(tmp_path):
    # 24 bytes whose header declares 2^60 rows: rejected from the file size,
    # without allocating the declared payload.
    path = tmp_path / "emb.bin"
    path.write_bytes(b"TGEM" + struct.pack("<IQQ", 1, 2**60, 1))
    with pytest.raises(ValueError, match="truncated"):
        read_embeddings(path)
    path.write_bytes(b"TGEM" + struct.pack("<I", 1))
    with pytest.raises(ValueError, match="header"):
        read_embeddings(path)


def test_embedding_binary_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings(path, EmbeddingMatrix(np.ones((2, 3))))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_embeddings(path)


TGEM_HEADER = struct.pack("<I", 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=48), st.binary(max_size=48).map(TGEM_HEADER.__add__)))
@example(TGEM_HEADER + struct.pack("<QQ", 2**64 - 1, 0))
@example(TGEM_HEADER + struct.pack("<QQ", 2**62, 2**62))
@example(TGEM_HEADER + struct.pack("<QQ", 1, 2) + b"\x00" * 9)
def test_embedding_binary_fuzz_loads_or_raises_value_error(tmp_path_factory, body):
    # Any bytes after the magic either load or raise ValueError; declared
    # sizes are checked against the file, so nothing huge is allocated.
    path = tmp_path_factory.mktemp("tgem") / "emb.bin"
    path.write_bytes(b"TGEM" + body)
    try:
        emb = read_embeddings(path)
    except ValueError:
        return
    assert 4 + 20 + 4 * emb.values.size == path.stat().st_size


def test_embedding_csv_roundtrip(tmp_path):
    emb = EmbeddingMatrix(np.array([[1.5, -2.0], [0.0, 3.25]]))
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, emb)
    back = read_embeddings_csv(path)
    np.testing.assert_allclose(back.values, emb.values, rtol=0, atol=0)


@pytest.mark.parametrize("text", ["", "\n", "  \n\t\n", "# a comment\n\n"])
def test_embedding_csv_without_rows_is_value_error(tmp_path, text):
    # np.loadtxt only warns on such a file ("input contained no data"); the reader
    # refuses it before loadtxt runs.
    path = tmp_path / "emb.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^embedding file .* holds no rows$"):
            read_embeddings_csv(path)


def test_graph_json_roundtrip(tmp_path):
    corpus = make_corpus([[0, 1], [0, 1], [2]])
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=20))
    data = export_graph_json(corpus, tfidf, word_edges)
    assert data["n_docs"] == 3 and data["n_words"] == 3
    assert data["nodes"].columns["kind"] == ["doc"] * 3 + ["word"] * 3
    # Endpoints are indices into the node list, never strings.
    for end in ("a", "b"):
        assert data["edges"].columns[end].dtype.kind == "i"

    path = tmp_path / "graph.json"
    save_graph_json(path, data)
    loaded = json.loads(path.read_text())
    tfidf2, word_edges2, meta = load_graph_json(loaded)
    np.testing.assert_allclose(tfidf2.toarray(), tfidf.toarray(), rtol=0, atol=0)
    assert isinstance(word_edges2, sp.coo_array)
    assert edge_triples(word_edges2) == edge_triples(word_edges)
    assert meta["n_docs"] == 3


@settings(max_examples=60, deadline=None)
@given(corpora)
def test_graph_json_bytes_equal_reference(tmp_path_factory, case):
    sequences, window = case
    corpus = make_corpus(sequences, n_tokens=8)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=window))
    path = tmp_path_factory.mktemp("graph") / "graph.json"
    save_graph_json(path, export_graph_json(corpus, tfidf, word_edges))
    reference = reference_graph_json(corpus, tfidf, word_edges)
    want = json.dumps(reference, separators=(",", ":"), sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def graph_doc(edges, n_docs=2, n_words=3) -> dict:
    """A graph document over n_docs documents and n_words words."""
    nodes = [{"id": f"d{i}", "kind": "doc"} for i in range(n_docs)]
    nodes += [{"id": f"w{i}", "kind": "word"} for i in range(n_words)]
    return {"n_docs": n_docs, "n_words": n_words, "nodes": nodes, "edges": edges}


def edge(a, b, w=1.0, kind="doc-word") -> dict:
    return {"a": a, "b": b, "w": w, "kind": kind}


def test_graph_json_rejects_duplicate_edges():
    # One doc-word pair twice; one word pair in both orientations.
    for edges in (
        [edge(0, 2), edge(0, 2, 2.0)],
        [edge(2, 3, kind="word-word"), edge(3, 2, kind="word-word")],
    ):
        with pytest.raises(ValueError, match="duplicate"):
            load_graph_json(graph_doc(edges))


@pytest.mark.parametrize("bad", [
    edge(5, 2), edge(-1, 2), edge(0, 5), edge(0, 1), edge(2, 0),
    edge(0, 3, kind="word-word"), edge(3, 3, kind="word-word"), edge(2, 5, kind="word-word"),
])
def test_graph_json_rejects_out_of_range_endpoints(bad):
    with pytest.raises(ValueError, match="outside their block"):
        load_graph_json(graph_doc([edge(1, 4), bad]))


@pytest.mark.parametrize("data", [
    [],
    "graph",
    graph_doc([]) | {"n_docs": True},
    graph_doc([]) | {"n_words": -1},
    graph_doc([]) | {"n_docs": 2.0},
    graph_doc([]) | {"nodes": []},
    graph_doc([]) | {"nodes": None},
    graph_doc(None),
    graph_doc({"a": 0}),
    graph_doc([edge(0, 2), 5]),
    graph_doc([{"a": 0, "b": 2, "w": 1.0}]),
    graph_doc([edge(None, 2)]),
    graph_doc([edge(0.5, 2)]),
    graph_doc([edge(True, 2)]),
    graph_doc([edge("0", 2)]),
    graph_doc([edge(0, 2**70)]),
    graph_doc([edge(0, 2, None)]),
    graph_doc([edge(0, 2, "1")]),
    graph_doc([edge(0, 2, True)]),
    graph_doc([edge(0, 2, -5)]),
    graph_doc([edge(0, 2, 0.0)]),
    graph_doc([edge(0, 2, math.nan)]),
    graph_doc([edge(0, 2, math.inf)]),
    graph_doc([edge(0, 2, 10**400)]),
    graph_doc([edge(0, 2, kind=["doc-word"])]),
])
def test_graph_json_rejects_malformed_documents(data):
    with pytest.raises(ValueError):
        load_graph_json(data)


# Arbitrary JSON values, and lists of edge-shaped objects over a 2 + 3 node graph.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3)
    | st.sampled_from(["doc-word", "word-word"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "w", "kind"]) | st.text(max_size=2), inner, max_size=5),
    max_leaves=16,
)
weights = st.floats(0.01, 10.0) | st.floats() | st.integers(-1, 3)
edge_objects = st.fixed_dictionaries({
    "a": st.integers(0, 2), "b": st.integers(1, 5), "w": weights, "kind": st.just("doc-word"),
}) | st.fixed_dictionaries({
    "a": st.integers(2, 5), "b": st.integers(1, 4), "w": weights, "kind": st.just("word-word"),
})


@settings(max_examples=300, deadline=None)
@given(json_values | st.lists(edge_objects, max_size=4) | st.lists(edge_objects | json_values, max_size=6))
def test_graph_json_edges_load_or_raise_value_error(edges):
    try:
        tfidf, word_edges, _ = load_graph_json(graph_doc(edges))
    except ValueError:
        return
    # Whatever loads is a graph the rest of the pipeline accepts.
    assert tfidf.shape == (2, 3)
    assert np.all(np.isfinite(tfidf.data)) and np.all(tfidf.data > 0.0)
    assert all(
        0 <= i < 3 and 0 <= j < 3 and i != j and w > 0.0 for i, j, w in edge_triples(word_edges)
    )
    normalize_adjacency(assemble_adjacency(tfidf, word_edges, 2, 3))


def test_graph_json_rejects_unknown_edge_kind():
    with pytest.raises(ValueError):
        load_graph_json(
            {"n_docs": 1, "n_words": 1, "nodes": [], "edges": [{"a": 0, "b": 1, "w": 1.0, "kind": "doc-doc"}]}
        )


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"edges": [], "n_docs": 0, "nodes": []},
        {
            "n_docs": 2,
            "b": [{"w": i / 7, "kind": "word-word", "a": i} for i in range(10)],
            "a": list(range(7)),
            "c": {"nested": [1.5, None, "x\u00e9"]},
        },
    ],
)
def test_save_graph_json_bytes_equal_json_dumps(tmp_path, data):
    path = tmp_path / "graph.json"
    save_graph_json(path, data)
    want = json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("utf-8")


def test_save_graph_json_failure_keeps_old_file(tmp_path):
    path = tmp_path / "graph.json"
    save_graph_json(path, {"edges": [], "n_docs": 0})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_graph_json(path, {"edges": [{"a": 0, "w": object()}], "n_docs": 1})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["graph.json"]
