"""Independent brute-force reference implementations used as test oracles.

Everything here is written the slow, obvious way (dense matrices, explicit
window enumeration) so the package code is checked against arithmetic that
shares none of its structure.
"""

import math

import numpy as np

from stressgraph.corpus import TokenizedCorpus, Vocabulary


def make_corpus(sequences, n_tokens=None, labels=None) -> TokenizedCorpus:
    """Build a TokenizedCorpus directly from integer token-id sequences."""
    if n_tokens is None:
        n_tokens = max((max(s) for s in sequences if s), default=-1) + 1
    tokens = [f"w{i}" for i in range(n_tokens)]
    doc_freq = [sum(1 for s in sequences if i in s) for i in range(n_tokens)]
    vocab = Vocabulary(
        tokens=tokens,
        index={t: i for i, t in enumerate(tokens)},
        doc_freq=doc_freq,
        n_docs=len(sequences),
    )
    return TokenizedCorpus(
        doc_ids=[f"d{i}" for i in range(len(sequences))],
        sequences=[list(s) for s in sequences],
        vocab=vocab,
        labels=list(labels) if labels is not None else [None] * len(sequences),
    )


def window_sets(sequences, window_size):
    """Every stride-1 window as a set of distinct token ids, one list overall."""
    out = []
    for seq in sequences:
        for start in range(max(1, len(seq) - window_size + 1)):
            out.append(set(seq[start : start + window_size]))
    return out


def brute_ppmi(sequences, window_size, i, j):
    """PPMI by direct window enumeration; None when the edge is absent.

    PMI > 0 iff n_ij * n > n_i * n_j, so the keep/drop decision is made on
    exact integers; dividing rounded probabilities instead can flip a pair
    whose true PMI is exactly zero.
    """
    windows = window_sets(sequences, window_size)
    n = len(windows)
    n_ij = sum(1 for w in windows if i in w and j in w)
    if n_ij == 0:
        return None
    n_i = sum(1 for w in windows if i in w)
    n_j = sum(1 for w in windows if j in w)
    if n_ij * n <= n_i * n_j:
        return None
    return math.log(n_ij * n / (n_i * n_j))


def brute_ppmi_edges(sequences, n_tokens, window_size):
    edges = []
    for i in range(n_tokens):
        for j in range(i + 1, n_tokens):
            value = brute_ppmi(sequences, window_size, i, j)
            if value is not None:
                edges.append((i, j, value))
    return edges


def brute_tfidf_dense(sequences, n_tokens) -> np.ndarray:
    n_docs = len(sequences)
    doc_freq = [sum(1 for s in sequences if w in s) for w in range(n_tokens)]
    out = np.zeros((n_docs, n_tokens))
    for d, seq in enumerate(sequences):
        for w in set(seq):
            out[d, w] = seq.count(w) * math.log(n_docs / doc_freq[w])
    return out


def brute_adjacency_dense(tfidf_dense, word_edges, n_docs, n_words) -> np.ndarray:
    n = n_docs + n_words
    a = np.eye(n)
    a[:n_docs, n_docs:] = tfidf_dense
    a[n_docs:, :n_docs] = tfidf_dense.T
    for i, j, v in word_edges:
        a[n_docs + i, n_docs + j] = v
        a[n_docs + j, n_docs + i] = v
    return a


def brute_normalize_dense(a: np.ndarray) -> np.ndarray:
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    out = np.zeros_like(logits)
    for i, row in enumerate(logits):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def _softmax_rows_backward(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Row by row through the explicit Jacobian diag(p) - p p^T."""
    out = np.zeros_like(upstream)
    for i, p in enumerate(probs):
        out[i] = (np.diag(p) - np.outer(p, p)) @ upstream[i]
    return out


def dense_fused_reference(a_hat, x, n_docs, gcn, head, embeddings, lam, labels, train_mask,
                          dropout_mask=None, eps=1e-12):
    """Fused prediction, loss and gradients with a dense A_hat and explicit X.

    Propagates every node through both layers and keeps the document rows
    only at the end; returns (z_final, loss, grads) with grads keyed like
    gcn.loss_and_gradients (no weight decay).
    """
    mask = np.ones((a_hat.shape[0], gcn.W1.shape[1])) if dropout_mask is None else dropout_mask
    h_pre = a_hat @ x @ gcn.W1 + gcn.b1
    h_drop = np.maximum(h_pre, 0.0) * mask
    propagated = a_hat @ h_drop
    z_full = _softmax_rows(propagated @ gcn.W2 + gcn.b2)
    z_g = z_full[:n_docs]
    z_b = _softmax_rows(embeddings @ head.W + head.b) if head is not None else None
    z_final = lam * z_g + (1.0 - lam) * z_b if head is not None else z_g

    rows = [i for i in range(n_docs) if train_mask[i]]
    loss = -sum(math.log(z_final[i, labels[i]] + eps) for i in rows) / len(rows)
    d_final = np.zeros_like(z_final)
    for i in rows:
        d_final[i, labels[i]] = -1.0 / (len(rows) * (z_final[i, labels[i]] + eps))

    d_full = np.zeros_like(z_full)
    d_full[:n_docs] = lam * d_final
    d_logits = _softmax_rows_backward(z_full, d_full)
    d_h_pre = (a_hat.T @ (d_logits @ gcn.W2.T)) * mask * (h_pre > 0.0)
    grads = {
        "gcn.W2": propagated.T @ d_logits,
        "gcn.b2": d_logits.sum(axis=0),
        "gcn.W1": x.T @ a_hat.T @ d_h_pre,
        "gcn.b1": d_h_pre.sum(axis=0),
    }
    if head is not None:
        d_head = _softmax_rows_backward(z_b, (1.0 - lam) * d_final)
        grads["head.W"] = embeddings.T @ d_head
        grads["head.b"] = d_head.sum(axis=0)
    return z_final, loss, grads
