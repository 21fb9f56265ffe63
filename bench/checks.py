"""Output checks written independently of graph.py.

Each check returns a list of failure messages; an empty list is a pass. The
checks read the artifact formats, rebuild the adjacency from ``graph.json``
with scipy and count windows with their own interval arithmetic, so a defect
in ``graph.py`` cannot hide behind the same defect in the check. Only
``adjacency_checks`` calls graph.py, to obtain the adjacency it verifies.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

REL_TOL = 1e-9


def graph_edges(data: dict):
    """(kinds, a, b, w) arrays of the edge list of a graph document."""
    edges = data["edges"]
    kinds = np.array([e["kind"] for e in edges])
    a = np.array([e["a"] for e in edges], dtype=np.int64)
    b = np.array([e["b"] for e in edges], dtype=np.int64)
    w = np.array([e["w"] for e in edges], dtype=np.float64)
    return kinds, a, b, w


def graph_invariants(data: dict) -> dict:
    """Check name -> failures for the edge list of a graph document.

    Every edge is doc-word (one endpoint a document, one a word) or word-word
    (both words), so the document-document block stays empty; weights are
    positive and finite; no unordered pair is listed twice and no edge is a
    self edge, since self-loops are implicit.
    """
    n_docs, n = data["n_docs"], data["n_docs"] + data["n_words"]
    kinds, a, b, w = graph_edges(data)
    out = {}
    bad_kind = set(kinds.tolist()) - {"doc-word", "word-word"}
    out["edge_kinds"] = [f"unknown edge kinds {sorted(bad_kind)}"] if bad_kind else []
    in_range = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    out["endpoints_in_range"] = [] if in_range.all() else [f"{int((~in_range).sum())} edges out of range"]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    doc_word, word_word = kinds == "doc-word", kinds == "word-word"
    misplaced = int((doc_word & ~((lo < n_docs) & (hi >= n_docs))).sum()
                    + (word_word & ~(lo >= n_docs)).sum())
    out["empty_doc_block"] = [f"{misplaced} edges outside their block"] if misplaced else []
    weights_ok = np.all(np.isfinite(w)) and np.all(w > 0.0)
    out["positive_weights"] = [] if weights_ok else ["non-positive or non-finite edge weight"]
    pairs = lo * n + hi
    repeated = len(pairs) - len(np.unique(pairs)) + int((a == b).sum())
    out["distinct_pairs"] = [f"{repeated} repeated pairs or self edges"] if repeated else []
    return out


def _as_csr(matrix):
    return matrix.tocsr() if sp.issparse(matrix) else matrix.to_csr()


def adjacency_checks(data: dict) -> dict:
    """Check name -> failures for the adjacency the program assembles from a graph document.

    The program's A must equal an independent rebuild I + E + E^T, hence be
    symmetric with unit self-loops and no document-document entries; its
    normalized adjacency must be D^-1/2 A D^-1/2 with D the row sums of A.
    """
    from stressgraph import graph

    n_docs, n = data["n_docs"], data["n_docs"] + data["n_words"]
    tfidf, word_edges, _ = graph.load_graph_json(data)
    adj = graph.assemble_adjacency(tfidf, word_edges, n_docs, data["n_words"])
    program = _as_csr(adj)
    program_norm = _as_csr(graph.normalize_adjacency(adj))

    _, a, b, w = graph_edges(data)
    rows = np.concatenate([np.arange(n), a, b])
    cols = np.concatenate([np.arange(n), b, a])
    rebuilt = sp.csr_matrix((np.concatenate([np.ones(n), w, w]), (rows, cols)), shape=(n, n))
    out = {}
    diff = abs(program - rebuilt)
    out["assembled_equals_rebuild"] = [] if diff.nnz == 0 or diff.max() == 0.0 else [
        f"max difference {diff.max()}"]
    out["unit_self_loops"] = [] if np.array_equal(program.diagonal(), np.ones(n)) else [
        "diagonal is not all ones"]
    doc_block = program[:n_docs, :n_docs] - sp.identity(n_docs, format="csr")
    doc_block.eliminate_zeros()
    out["no_doc_doc_entries"] = [] if doc_block.nnz == 0 else [f"{doc_block.nnz} doc-doc entries"]
    inv_sqrt = 1.0 / np.sqrt(np.asarray(rebuilt.sum(axis=1)).ravel())
    expected = sp.diags(inv_sqrt) @ rebuilt @ sp.diags(inv_sqrt)
    scale = abs(expected).max()
    err = abs(program_norm - expected).max()
    out["normalized"] = [] if err <= 1e-12 * scale else [f"max deviation {err}"]
    asym = abs(program_norm - program_norm.T).max()
    out["symmetric"] = [] if asym <= 1e-12 * scale else [f"max asymmetry {asym}"]
    return out


def graph_counts(data: dict, tokenized: dict, window: int) -> dict:
    """Size counts of a built graph, from the artifacts alone."""
    kinds, _, _, _ = graph_edges(data)
    n_doc_word = int((kinds == "doc-word").sum())
    n_word_word = int((kinds == "word-word").sum())
    n = data["n_docs"] + data["n_words"]
    return {
        "graph.windows": sum(max(1, len(seq) - window + 1) for seq in tokenized["sequences"]),
        "graph.ppmi_edge_count": n_word_word,
        "graph.adj_nnz": n + 2 * (n_doc_word + n_word_word),
        "graph.adj_nnz_doc_cols": data["n_docs"] + n_doc_word,
    }


def _window_starts(positions, n_windows: int, window: int) -> set:
    """Window starts (stride 1) whose window contains any of the positions."""
    starts = set()
    for p in positions:
        starts.update(range(max(0, p - window + 1), min(p, n_windows - 1) + 1))
    return starts


def spot_check_weights(data: dict, tokenized: dict, window: int, rng, n_samples: int = 24) -> list:
    """Brute-force TF-IDF and PPMI values on sampled pairs against graph.json.

    TF-IDF is tf * ln(N / df) with df counted from the sequences. PPMI counts,
    per document, the stride-1 windows that contain each word (a document
    shorter than the window is one window); a pair with positive PMI must
    appear with that weight, and a sampled pair without an edge must have
    PMI <= 0 or never share a window.
    """
    failures = []
    seqs = tokenized["sequences"]
    n_docs = data["n_docs"]
    df = Counter()
    for seq in seqs:
        df.update(set(seq))
    kinds, a, b, w = graph_edges(data)
    doc_word = {(int(x), int(y) - n_docs): float(v) for k, x, y, v in zip(kinds, a, b, w) if k == "doc-word"}
    word_word = {(int(x) - n_docs, int(y) - n_docs): float(v) for k, x, y, v in zip(kinds, a, b, w) if k == "word-word"}

    docs = rng.choice(len(seqs), size=min(n_samples, len(seqs)), replace=False)
    for d in docs:
        seq = seqs[int(d)]
        if not seq:
            continue
        tf = Counter(seq)
        word = seq[int(rng.integers(len(seq)))]
        expected = tf[word] * math.log(n_docs / df[word])
        got = doc_word.get((int(d), word))
        if expected == 0.0:
            if got is not None:
                failures.append(f"tfidf({d},{word}) should be absent, got {got}")
        elif got is None or not math.isclose(got, expected, rel_tol=REL_TOL):
            failures.append(f"tfidf({d},{word}) = {got}, expected {expected}")

    positions = []
    for seq in seqs:
        where = {}
        for pos, tok in enumerate(seq):
            where.setdefault(tok, []).append(pos)
        positions.append(where)
    n_windows = [max(1, len(seq) - window + 1) for seq in seqs]
    total_windows = sum(n_windows)

    def starts(doc, word):
        return _window_starts(positions[doc].get(word, ()), n_windows[doc], window)

    edge_keys = sorted(word_word)
    sampled = [edge_keys[int(i)] for i in rng.choice(len(edge_keys), size=min(n_samples, len(edge_keys)), replace=False)] if edge_keys else []
    # Pairs drawn from one document's tokens: these share windows, and may
    # or may not carry an edge.
    for d in rng.choice(len(seqs), size=min(n_samples, len(seqs)), replace=False):
        seq = seqs[int(d)]
        if len(set(seq)) >= 2:
            i, j = rng.choice(sorted(set(seq)), size=2, replace=False)
            sampled.append((int(min(i, j)), int(max(i, j))))
    for i, j in sampled:
        n_i = n_j = n_ij = 0
        for doc in range(len(seqs)):
            if i not in positions[doc] and j not in positions[doc]:
                continue
            s_i, s_j = starts(doc, i), starts(doc, j)
            n_i += len(s_i)
            n_j += len(s_j)
            n_ij += len(s_i & s_j)
        value = math.log(n_ij * total_windows / (n_i * n_j)) if n_ij else None
        got = word_word.get((i, j))
        if value is not None and value > 0.0:
            if got is None or not math.isclose(got, value, rel_tol=REL_TOL):
                failures.append(f"ppmi({i},{j}) = {got}, expected {value}")
        elif got is not None:
            failures.append(f"ppmi({i},{j}) should be absent, got {got}")
    return failures
