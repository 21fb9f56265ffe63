"""Independent brute-force reference implementations used as test oracles.

Everything here is written the slow, obvious way (dense matrices, explicit
window enumeration) so the package code is checked against arithmetic that
shares none of its structure.
"""

import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from stressgraph.corpus import TokenizedCorpus, Vocabulary
from stressgraph.gcn import evaluate, init_parameters, loss_and_gradients, train
from stressgraph.interpret import SalienceGraph
from stressgraph.manifest import RunManifest, read_json


def make_corpus(sequences, n_tokens=None, labels=None) -> TokenizedCorpus:
    """Build a TokenizedCorpus directly from integer token-id sequences."""
    if n_tokens is None:
        n_tokens = max((max(s) for s in sequences if s), default=-1) + 1
    tokens = [f"w{i}" for i in range(n_tokens)]
    doc_freq = [sum(1 for s in sequences if i in s) for i in range(n_tokens)]
    vocab = Vocabulary(tokens=tokens, index={t: i for i, t in enumerate(tokens)}, doc_freq=doc_freq)
    return TokenizedCorpus(
        doc_ids=[f"d{i}" for i in range(len(sequences))],
        sequences=[list(s) for s in sequences],
        vocab=vocab,
        labels=list(labels) if labels is not None else [None] * len(sequences),
    )


def word_block(edges, n_words) -> sp.coo_array:
    """The n_words x n_words PPMI block holding (i, j, w) triples in the given order.

    Its indices are int32, like those of the blocks graph.ppmi_edges builds.
    """
    i, j, w = zip(*edges) if edges else ((), (), ())
    ij = (np.array(i, dtype=np.int32), np.array(j, dtype=np.int32))
    return sp.coo_array((np.array(w, dtype=np.float64), ij), shape=(n_words, n_words))


def edge_triples(block) -> list:
    """The (i, j, w) triples of a PPMI block, in stored order."""
    return list(zip(block.row.tolist(), block.col.tolist(), block.data.tolist()))


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


def ppmi(stats, i: int, j: int) -> float | None:
    """Positive PMI of a word pair from graph.WindowStats counts, or None when not positive.

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


def reference_graph_json(corpus, tfidf, ppmi) -> dict:
    """The graph document with one dict per node and per edge: docs, then words;
    the doc-word edges, then the word-word edges, each in its block's COO order."""
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


def reference_salience(corpus, doc_ids, tfidf, ppmi, k):
    """(doc_nodes, word_nodes, edges) of the salience graph, one (a, b, w, kind)
    name tuple per edge: per document its k highest-weight words (ties by word
    id), words in the order first selected, then every PPMI pair of two
    selected words in the block's stored order."""
    tokens = corpus.vocab.tokens
    edges, words = [], {}
    for doc_id in doc_ids:
        row = corpus.row_of(doc_id)
        lo, hi = tfidf.indptr[row], tfidf.indptr[row + 1]
        entries = zip(tfidf.indices[lo:hi].tolist(), tfidf.data[lo:hi].tolist())
        for word_id, weight in sorted(entries, key=lambda item: (-item[1], item[0]))[:k]:
            edges.append((doc_id, tokens[word_id], weight, "doc-word"))
            words.setdefault(word_id, None)
    for i, j, weight in zip(ppmi.row.tolist(), ppmi.col.tolist(), ppmi.data.tolist()):
        if i in words and j in words:
            edges.append((tokens[i], tokens[j], weight, "word-word"))
    return list(doc_ids), [tokens[w] for w in words], edges


def reference_salience_json(doc_nodes, word_nodes, edges) -> dict:
    """salience.json with one dict per node and per edge; ids are doc:<name> / word:<name>."""
    nodes = [{"id": f"doc:{d}", "kind": "doc", "name": d} for d in doc_nodes]
    nodes += [{"id": f"word:{w}", "kind": "word", "name": w} for w in word_nodes]
    first = {"doc-word": "doc", "word-word": "word"}
    return {"nodes": nodes, "edges": [
        {"a": f"{first[kind]}:{a}", "b": f"word:{b}", "w": w, "kind": kind} for a, b, w, kind in edges
    ]}


def salience_graph_from_json(payload) -> SalienceGraph:
    """The SalienceGraph a parsed salience.json describes, read without checks of its own."""
    docs = [node for node in payload["nodes"] if node["kind"] == "doc"]
    words = [node for node in payload["nodes"] if node["kind"] == "word"]
    index = {node["id"]: i for i, node in enumerate(docs + words)}
    edges = payload["edges"]
    return SalienceGraph(
        doc_nodes=[node["name"] for node in docs],
        word_nodes=[node["name"] for node in words],
        a=[index[e["a"]] for e in edges],
        b=[index[e["b"]] for e in edges],
        w=[e["w"] for e in edges],
        word_word=[e["kind"] == "word-word" for e in edges],
    )


def reference_salience_dot(doc_nodes, word_nodes, edges) -> str:
    """salience.dot written line by line from the salience_json ids."""
    def quote(name):
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    first = {"doc-word": "doc", "word-word": "word"}
    lines = ["graph salience {"]
    for doc in doc_nodes:
        lines.append(f"  {quote('doc:' + doc)} [label={quote(doc)}, shape=box, color=red];")
    for word in word_nodes:
        lines.append(f"  {quote('word:' + word)} [label={quote(word)}, shape=ellipse, color=green];")
    for a, b, w, kind in edges:
        lines.append(
            f"  {quote(first[kind] + ':' + a)} -- {quote('word:' + b)} "
            f'[weight={w:.6g}, label="{w:.3g}", kind="{kind}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def explicit_node_features(features) -> np.ndarray:
    """The X a NodeFeatures stands for, built in full.

    The (N+V) identity in identity mode; otherwise the document embeddings
    stacked over zero word rows.
    """
    n = features.n_docs + features.n_words
    if features.doc_embeddings is None:
        return np.eye(n)
    x = np.zeros((n, features.dim))
    x[:features.n_docs] = features.doc_embeddings
    return x


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    out = np.zeros_like(logits)
    for i, row in enumerate(logits):
        e = np.exp(row - row.max())
        out[i] = e / e.sum()
    return out


def gcn_blocks(params) -> dict:
    """A model's GCN-branch blocks, without its head."""
    return {name: arr for name, arr in params.items() if name.startswith("gcn.")}


def head_probabilities(embeddings: np.ndarray, params) -> np.ndarray:
    """The embedding head's prediction Z_B: the row softmax of E @ head.W + head.b."""
    return _softmax_rows(embeddings @ params["head.W"] + params["head.b"])


def _softmax_rows_backward(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Row by row through the explicit Jacobian diag(p) - p p^T."""
    out = np.zeros_like(upstream)
    for i, p in enumerate(probs):
        out[i] = (np.diag(p) - np.outer(p, p)) @ upstream[i]
    return out


def dense_fused_reference(a_hat, x, n_docs, params, embeddings, lam, labels, train_mask,
                          dropout_mask=None, eps=1e-12):
    """Fused prediction, loss and gradients with a dense A_hat and explicit X.

    Propagates every node through both layers and keeps the document rows
    only at the end; returns (z_final, loss, grads) with grads keyed like
    gcn.loss_and_gradients (no weight decay).
    """
    w1, w2 = params["gcn.W1"], params["gcn.W2"]
    head = "head.W" in params
    mask = np.ones((a_hat.shape[0], w1.shape[1])) if dropout_mask is None else dropout_mask
    h_pre = a_hat @ x @ w1 + params["gcn.b1"]
    h_drop = np.maximum(h_pre, 0.0) * mask
    propagated = a_hat @ h_drop
    z_full = _softmax_rows(propagated @ w2 + params["gcn.b2"])
    z_g = z_full[:n_docs]
    z_b = head_probabilities(embeddings, params) if head else None
    z_final = lam * z_g + (1.0 - lam) * z_b if head else z_g

    rows = [i for i in range(n_docs) if train_mask[i]]
    loss = -sum(math.log(z_final[i, labels[i]] + eps) for i in rows) / len(rows)
    d_final = np.zeros_like(z_final)
    for i in rows:
        d_final[i, labels[i]] = -1.0 / (len(rows) * (z_final[i, labels[i]] + eps))

    d_full = np.zeros_like(z_full)
    d_full[:n_docs] = lam * d_final
    d_logits = _softmax_rows_backward(z_full, d_full)
    d_h_pre = (a_hat.T @ (d_logits @ w2.T)) * mask * (h_pre > 0.0)
    grads = {
        "gcn.W2": propagated.T @ d_logits,
        "gcn.b2": d_logits.sum(axis=0),
        "gcn.W1": x.T @ a_hat.T @ d_h_pre,
        "gcn.b1": d_h_pre.sum(axis=0),
    }
    if head:
        d_head = _softmax_rows_backward(z_b, (1.0 - lam) * d_final)
        grads["head.W"] = embeddings.T @ d_head
        grads["head.b"] = d_head.sum(axis=0)
    return z_final, loss, grads


def _bce_with_logits(z, label):
    return max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def dense_conv_reference(sequences, labels, params, dropout_masks=None):
    """Mean BCE and mean gradients of the conv head by per-document im2col.

    Every window of the padded sequence is a row of an explicit L x k*d
    matrix; the backward pass scatters each pooled gradient into a dense
    L x F d_act and runs the full windows.T @ d_conv product. Returns
    (loss, grads) keyed like convnet.batch_loss_and_gradients.
    """
    grads = {}
    for idx, kernel in enumerate(params.kernels):
        grads[f"conv.K{idx}"] = np.zeros_like(kernel)
        grads[f"conv.b{idx}"] = np.zeros_like(params.conv_bias[idx])
    grads["dense.W"] = np.zeros_like(params.dense_W)
    grads["dense.b"] = np.zeros_like(params.dense_b)
    min_len = max(k.shape[0] for k in params.kernels)
    total = 0.0
    for pos, (seq, label) in enumerate(zip(sequences, labels)):
        mask = dropout_masks[pos] if dropout_masks is not None else None
        x = seq.matrix
        if x.shape[0] < min_len:
            x = np.vstack([x, np.zeros((min_len - x.shape[0], x.shape[1]))])
        banks, pooled = [], []
        for kernel, bias in zip(params.kernels, params.conv_bias):
            k, d, n_filters = kernel.shape
            windows = np.stack([x[i:i + k].reshape(-1) for i in range(x.shape[0] - k + 1)])
            conv = windows @ kernel.reshape(k * d, n_filters) + bias
            act = np.maximum(conv, 0.0)
            argmax = act.argmax(axis=0)
            pooled.append(act[argmax, np.arange(n_filters)])
            banks.append((windows, conv, argmax))
        concat = np.concatenate(pooled)
        dropped = concat * mask if mask is not None else concat
        logit = float(dropped @ params.dense_W + params.dense_b[0])
        total += _bce_with_logits(logit, label)

        d_logit = _sigmoid(logit) - label
        grads["dense.W"] += d_logit * dropped
        grads["dense.b"] += d_logit
        d_concat = d_logit * params.dense_W
        if mask is not None:
            d_concat = d_concat * mask
        offset = 0
        for idx, (kernel, (windows, conv, argmax)) in enumerate(zip(params.kernels, banks)):
            k, d, n_filters = kernel.shape
            d_act = np.zeros_like(conv)
            d_act[argmax, np.arange(n_filters)] = d_concat[offset:offset + n_filters]
            offset += n_filters
            d_conv = d_act * (conv > 0.0)
            grads[f"conv.K{idx}"] += (windows.T @ d_conv).reshape(k, d, n_filters)
            grads[f"conv.b{idx}"] += d_conv.sum(axis=0)
    n = len(sequences)
    for name in grads:
        grads[name] /= n
    return total / n, grads


def dense_conv_gradients(sequences, labels, params, conv_pre, dropout_masks=None):
    """dense_conv_reference's pooling, loss and im2col backward on given convs.

    conv_pre[pos][b] is document pos's bank-b conv pre-activation (windows x
    filters, bias included) as the caller computed it; everything after it
    runs the slow way: ReLU, argmax pooling, BCE, a dense L x F d_act and the
    full windows.T @ d_conv product per document. Returns (loss, grads) keyed
    like convnet.batch_loss_and_gradients.
    """
    grads = {}
    for idx, kernel in enumerate(params.kernels):
        grads[f"conv.K{idx}"] = np.zeros_like(kernel)
        grads[f"conv.b{idx}"] = np.zeros_like(params.conv_bias[idx])
    grads["dense.W"] = np.zeros_like(params.dense_W)
    grads["dense.b"] = np.zeros_like(params.dense_b)
    min_len = max(k.shape[0] for k in params.kernels)
    total = 0.0
    for pos, (seq, label) in enumerate(zip(sequences, labels)):
        mask = dropout_masks[pos] if dropout_masks is not None else None
        x = seq.matrix
        if x.shape[0] < min_len:
            x = np.vstack([x, np.zeros((min_len - x.shape[0], x.shape[1]))])
        pooled, argmaxes = [], []
        for kernel, conv in zip(params.kernels, conv_pre[pos]):
            k, d, n_filters = kernel.shape
            assert conv.shape == (x.shape[0] - k + 1, n_filters)
            act = np.maximum(conv, 0.0)
            argmax = act.argmax(axis=0)
            pooled.append(act[argmax, np.arange(n_filters)])
            argmaxes.append(argmax)
        concat = np.concatenate(pooled)
        dropped = concat * mask if mask is not None else concat
        logit = float(dropped @ params.dense_W + params.dense_b[0])
        total += _bce_with_logits(logit, label)

        d_logit = _sigmoid(logit) - label
        grads["dense.W"] += d_logit * dropped
        grads["dense.b"] += d_logit
        d_concat = d_logit * params.dense_W
        if mask is not None:
            d_concat = d_concat * mask
        offset = 0
        for idx, (kernel, conv, argmax) in enumerate(zip(params.kernels, conv_pre[pos], argmaxes)):
            k, d, n_filters = kernel.shape
            windows = np.stack([x[i:i + k].reshape(-1) for i in range(x.shape[0] - k + 1)])
            d_act = np.zeros_like(conv)
            d_act[argmax, np.arange(n_filters)] = d_concat[offset:offset + n_filters]
            offset += n_filters
            d_conv = d_act * (conv > 0.0)
            grads[f"conv.K{idx}"] += (windows.T @ d_conv).reshape(k, d, n_filters)
            grads[f"conv.b{idx}"] += d_conv.sum(axis=0)
    n = len(sequences)
    for name in grads:
        grads[name] /= n
    return total / n, grads


class ReferenceAdam:
    """Adam written as whole-array expressions, each step rebinding m and v."""

    def __init__(self, beta1, beta2, eps):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}

    def step(self, params, grads, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, grad in grads.items():
            m = self.m.get(name, np.zeros_like(params[name]))
            v = self.v.get(name, np.zeros_like(params[name]))
            self.m[name] = self.beta1 * m + (1.0 - self.beta1) * grad
            self.v[name] = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            params[name] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_train(features, adj_norm, labels, masks, config):
    """gcn.train's loop on public calls only: every epoch computes layer 1 itself.

    Returns (history, params, best_epoch), with history as
    (epoch, loss, val_acc, val_f1) tuples.
    """
    train_mask = np.asarray(masks["train"], dtype=bool)
    val_mask = np.asarray(masks.get("val", np.zeros(features.n_docs, dtype=bool)), dtype=bool)
    params = init_parameters(
        features.dim, config.hidden_dim, 2,
        features.dim if features.doc_embeddings is not None else None, config.seed,
    )
    rng = np.random.default_rng(config.seed)
    adam = ReferenceAdam(0.9, 0.999, 1e-8)
    shape = (features.n_docs + features.n_words, config.hidden_dim)
    history, best_f1, best_epoch, best, stale = [], -1.0, None, None, 0
    for epoch in range(config.epochs):
        mask = None
        if config.dropout > 0.0:
            mask = (rng.random(shape) >= config.dropout) / (1.0 - config.dropout)
        loss, grads = loss_and_gradients(
            features, adj_norm, params, labels, train_mask,
            config.lam, config.weight_decay, mask,
        )
        adam.step(params, grads, config.learning_rate)
        val_acc = val_f1 = 0.0
        if val_mask.any():
            report = evaluate(features, adj_norm, params, config.lam, labels, val_mask)
            val_acc, val_f1 = report.accuracy, report.f1
        history.append((epoch, loss, val_acc, val_f1))
        if val_mask.any() and val_f1 >= best_f1:
            stale = 0 if val_f1 > best_f1 else stale + 1
            best_f1, best_epoch = val_f1, epoch
            best = {name: arr.copy() for name, arr in params.items()}
        else:
            stale += 1
        if config.patience is not None and stale > config.patience:
            break
    return history, params if best is None else best, best_epoch


def reference_ablation(grid, base, features, adj_norm, labels, masks, seeds):
    """The lambda sweep one cell at a time: per sorted lam, (lam, accuracy, f1, acc_std,
    f1_std) over seeds, as np.mean and np.std(ddof=1) of the test reports (std 0 for one seed).
    """
    rows = []
    for lam in sorted(grid):
        accs, f1s = [], []
        for seed in seeds:
            result = train(features, adj_norm, labels, masks, replace(base, lam=lam, seed=seed))
            report = evaluate(features, adj_norm, result.params, lam, labels, masks["test"])
            accs.append(report.accuracy)
            f1s.append(report.f1)
        rows.append((lam, float(np.mean(accs)), float(np.mean(f1s)),
                     _sample_std(accs), _sample_std(f1s)))
    return rows


def _sample_std(values) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def reference_report_dict(cm, averaging: str) -> dict:
    """evaluation.report_as_dict(metrics(cm, averaging)) by the formulas of a
    report that stored its averages: a weighted average is the sum, class 0
    first, of each class's metric times its support, over tn + fp + fn + tp."""
    per_class, degenerate = {}, []
    for label, p_num, p_den, r_num, r_den in ((0, cm.tn, cm.tn + cm.fn, cm.tn, cm.tn + cm.fp),
                                              (1, cm.tp, cm.tp + cm.fp, cm.tp, cm.tp + cm.fn)):
        precision = p_num / p_den if p_den else 0.0
        recall = r_num / r_den if r_den else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        if not (p_den and r_den and precision + recall):
            degenerate.append(label)
        per_class[str(label)] = {"precision": precision, "recall": recall, "f1": f1,
                                 "support": r_den}
    total = cm.tn + cm.fp + cm.fn + cm.tp
    names = ("precision", "recall", "f1")
    weighted = {name: sum(per_class[label][name] * per_class[label]["support"]
                          for label in ("0", "1")) / total for name in names}
    macro = {name: (per_class["0"][name] + per_class["1"][name]) / 2.0 for name in names}
    return {
        "accuracy": (cm.tp + cm.tn) / total,
        "averaging": averaging,
        **(macro if averaging == "macro" else weighted),
        "weighted": weighted,
        "macro": macro,
        "per_class": per_class,
        "degenerate_classes": degenerate,
        "total": total,
    }


def read_manifest(path) -> RunManifest:
    """A written manifest.json as a RunManifest; a missing or extra key is a TypeError."""
    return RunManifest(**read_json(path))


def write_embeddings_csv(path, embeddings) -> None:
    """An EmbeddingMatrix as a CSV embedding input: one row per document, every digit kept."""
    np.savetxt(path, embeddings.values, delimiter=",", fmt="%.17g")
