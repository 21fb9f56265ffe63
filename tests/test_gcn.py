"""Tests for the fused GCN + linear-head model: forward math, gradients, training."""

import csv
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceAdam,
    dense_fused_reference,
    explicit_node_features,
    gcn_blocks,
    head_probabilities,
    make_corpus,
    reference_train,
    word_block,
)
from stressgraph import gcn as gcn_module
from stressgraph.evaluation import MetricsReport
from stressgraph.gcn import (
    AdamState,
    DivergenceError,
    TrainingConfig,
    evaluate,
    fused_probabilities,
    init_parameters,
    load_checkpoint,
    load_parameter_blocks,
    loss_and_gradients,
    predict,
    save_parameter_blocks,
    train,
    write_history_csv,
)
from stressgraph.graph import (
    EmbeddingMatrix,
    assemble_adjacency,
    build_node_features,
    compute_tfidf,
    normalize_adjacency,
    ppmi_edges,
    slide_windows,
)


def identity_adj(n: int) -> sp.csr_array:
    return sp.csr_array(np.eye(n))


def pipeline_setup(seed: int, n_docs: int = 4, n_tokens: int = 4, identity: bool = False):
    """Random small corpus run through the real graph pipeline."""
    rng = np.random.default_rng(seed)
    sequences = [
        [int(t) for t in rng.integers(0, n_tokens, size=int(rng.integers(1, 7)))]
        for _ in range(n_docs)
    ]
    corpus = make_corpus(sequences, n_tokens=n_tokens)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=3))
    n_words = len(corpus.vocab)
    adj = normalize_adjacency(assemble_adjacency(tfidf, word_edges, n_docs, n_words))
    embeddings = EmbeddingMatrix(rng.normal(size=(n_docs, 3)))
    features = build_node_features(None if identity else embeddings, n_docs, n_words)
    labels = [int(x) for x in rng.integers(0, 2, size=n_docs)]
    return features, adj, embeddings, labels, rng


def graph_branch(features, adj, params):
    """The GCN branch's prediction Z_G: the fused forward with no head at lam = 1."""
    return fused_probabilities(features, adj, gcn_blocks(params), 1.0)


def gcn_model(W1, W2):
    """GCN-only blocks with the given weights and zero biases."""
    W1, W2 = np.asarray(W1, dtype=float), np.asarray(W2, dtype=float)
    return {"gcn.W1": W1, "gcn.b1": np.zeros(W1.shape[1]),
            "gcn.W2": W2, "gcn.b2": np.zeros(W2.shape[1])}


def one_hot_model(g_logits, b_logits):
    """(features, adjacency, params) over len(g_logits) documents and no words, whose
    GCN branch predicts softmax(g_logits) and whose head predicts softmax(b_logits):
    one-hot embeddings, an identity adjacency and identity W1 keep every product exact."""
    n = len(g_logits)
    eye = np.eye(n)
    features = build_node_features(EmbeddingMatrix(eye), n, 0)
    head = {"head.W": np.array(b_logits, dtype=float), "head.b": np.zeros(2)}
    return features, identity_adj(n), {**gcn_model(eye, g_logits), **head}


# --------------------------------------------------------------- forward


def test_gcn_forward_single_node_example():
    # X = [1], W1 = [1], W2 = [[2, 0]]: logits [2, 0] after a unit self-loop.
    feats = build_node_features(EmbeddingMatrix(np.array([[1.0]])), n_docs=1, n_words=0)
    probs = graph_branch(feats, identity_adj(1), gcn_model([[1.0]], [[2.0, 0.0]]))
    want = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
    np.testing.assert_allclose(probs, [want], rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs, [[0.8808, 0.1192]], rtol=0, atol=5e-5)


def test_gcn_forward_zero_weights_uniform():
    feats = build_node_features(EmbeddingMatrix(np.ones((2, 3))), n_docs=2, n_words=1)
    probs = graph_branch(feats, identity_adj(3), gcn_model(np.zeros((3, 4)), np.zeros((4, 2))))
    np.testing.assert_allclose(probs, 0.5, rtol=0, atol=0)


def test_gcn_forward_rows_are_stochastic():
    features, adj, _, _, rng = pipeline_setup(0)
    params = init_parameters(features.dim, 5, 2, None, seed=1)
    probs = graph_branch(features, adj, params)
    assert probs.shape == (4, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_gcn_forward_identity_matches_explicit_eye():
    features, adj, _, labels, _ = pipeline_setup(3, identity=True)
    n = adj.shape[0]
    explicit = explicit_node_features(features)  # full identity over docs and words
    assert np.array_equal(explicit, np.eye(n))
    params = init_parameters(n, 4, 2, None, seed=2)
    got = graph_branch(features, adj, params)
    want, _, _ = dense_fused_reference(
        adj.toarray(), explicit, features.n_docs, params, None, 1.0, labels,
        [True] * features.n_docs,
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_linear_forward_example():
    # The head's logits are [1000, 0] and [0, 0]; at lam = 0 the fused prediction is the head's.
    features, adj, params = one_hot_model(np.zeros((2, 2)), [[1000.0, 0.0], [0.0, 0.0]])
    probs = fused_probabilities(features, adj, params, 0.0)
    # Shift-stable softmax survives huge logits.
    np.testing.assert_allclose(probs[0], [1.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs[1], [0.5, 0.5], rtol=0, atol=1e-12)


def test_interpolate_example_and_boundaries():
    # Z_G = [0.7, 0.3] and Z_B = [0.1, 0.9], up to the rounding of the softmax.
    features, adj, params = one_hot_model(np.log([[0.7, 0.3]]), np.log([[0.1, 0.9]]))
    fused = fused_probabilities(features, adj, params, 0.2)
    np.testing.assert_allclose(fused, [[0.22, 0.78]], rtol=0, atol=1e-15)
    z_g = graph_branch(features, adj, params)
    z_b = head_probabilities(features.doc_embeddings, params)
    np.testing.assert_array_equal(fused_probabilities(features, adj, params, 1.0), z_g)
    np.testing.assert_array_equal(fused_probabilities(features, adj, params, 0.0), z_b)


@pytest.mark.parametrize("lam", [-0.1, 1.5, math.nan])
def test_fused_probabilities_validates_lam(lam):
    features, adj, params = one_hot_model([[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^lam must lie in \[0, 1\]"):
        fused_probabilities(features, adj, params, lam)


@pytest.mark.parametrize("rows, classes", [(2, 2), (1, 3)], ids=["input-dim", "class-count"])
def test_fused_probabilities_rejects_a_head_of_another_shape(rows, classes):
    # The model has 1-dimensional embeddings and 2 classes.
    features, adj, params = one_hot_model([[0.0, 0.0]], [[0.0, 0.0]])
    params.update({"head.W": np.zeros((rows, classes)), "head.b": np.zeros(classes)})
    with pytest.raises(ValueError):
        fused_probabilities(features, adj, params, 0.5)


def test_a_model_without_a_head_is_gcn_only():
    features, adj, params = one_hot_model([[0.0, 0.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="GCN-only; lam must be 1$"):
        fused_probabilities(features, adj, gcn_blocks(params), 0.5)


@pytest.mark.parametrize("bias, where", [
    ("b1", "hidden pre-activation (layer 1)"), ("b2", "output logits (layer 2)"),
])
def test_non_finite_activations_are_floating_point_errors(bias, where):
    features, adj, params = one_hot_model([[0.0, 0.0]], [[0.0, 0.0]])
    params[f"gcn.{bias}"] = np.full_like(params[f"gcn.{bias}"], np.inf)
    with pytest.raises(FloatingPointError, match=rf"^non-finite values in {re.escape(where)}$"):
        fused_probabilities(features, adj, params, 0.5)


def test_nll_loss_values():
    # The head predicts [0.5, 0.5] and [0.25, 0.75], and lam = 0 makes that the fused prediction.
    features, adj, params = one_hot_model(np.zeros((2, 2)), [[0.0, 0.0], [0.0, math.log(3)]])

    def loss(mask):
        return loss_and_gradients(features, adj, params, [0, 1], mask, 0.0)[0]

    # Uniform row: -ln(1/2 + eps), which is ln 2 up to the 1e-12 stabilizer.
    assert loss([True, False]) == pytest.approx(math.log(2), abs=1e-10)
    want = -(math.log(0.5) + math.log(0.75)) / 2
    assert loss([True, True]) == pytest.approx(want, abs=1e-10)
    with pytest.raises(ValueError):
        loss([False, False])


def test_labels_outside_the_loss_mask_may_be_none():
    features, adj, _, labels, _ = pipeline_setup(46, identity=True)
    params = init_parameters(features.dim, 3, 2, None, seed=0)
    mask = [True, True, False, False]
    unlabeled = labels[:2] + [None, None]
    loss, grads = loss_and_gradients(features, adj, params, unlabeled, mask, 1.0)
    want_loss, want_grads = loss_and_gradients(features, adj, params, labels, mask, 1.0)
    assert loss == want_loss
    assert all(np.array_equal(grads[name], want_grads[name]) for name in want_grads)


def test_a_none_label_under_the_loss_mask_is_named():
    # A None label under the mask used to surface as int()'s TypeError.
    features, adj, _, labels, _ = pipeline_setup(46, identity=True)
    params = init_parameters(features.dim, 3, 2, None, seed=0)
    mask = [True, True, True, False]
    unlabeled = [labels[0], None, None, labels[3]]
    with pytest.raises(ValueError, match="^train document 1 is unlabeled$"):
        loss_and_gradients(features, adj, params, unlabeled, mask, 1.0)


def test_predict_breaks_ties_low():
    probs = np.array([[0.5, 0.5], [0.2, 0.8]])
    np.testing.assert_array_equal(predict(probs), [0, 1])


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(lam=1.2)
    with pytest.raises(ValueError):
        TrainingConfig(lam=-0.1)
    with pytest.raises(ValueError):
        TrainingConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("hidden_dim", 0), ("weight_decay", -1e-4), ("patience", -1),
])
def test_training_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{field: value})


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_training_config_rejects_non_finite_rates(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be .*finite"):
        TrainingConfig(**{field: value})


def test_init_parameters_draw_order_stable():
    # Adding a head must not disturb the GCN draws for the same seed. The
    # blocks come in checkpoint order, the head's last.
    a = init_parameters(5, 4, 2, None, seed=9)
    b = init_parameters(5, 4, 2, 3, seed=9)
    assert list(a) == ["gcn.W1", "gcn.b1", "gcn.W2", "gcn.b2"]
    assert list(b) == [*a, "head.W", "head.b"]
    np.testing.assert_array_equal(a["gcn.W1"], b["gcn.W1"])
    np.testing.assert_array_equal(a["gcn.W2"], b["gcn.W2"])
    assert np.all(a["gcn.b1"] == 0.0) and np.all(b["head.b"] == 0.0)
    # Glorot bound for W1: sqrt(6 / (5 + 4)).
    assert np.abs(b["gcn.W1"]).max() <= math.sqrt(6.0 / 9.0)


# ------------------------------------------------------------- gradients


def fd_gradients(loss_fn, arrays: dict, h: float = 1e-5) -> dict:
    """Central finite differences over every entry of every parameter block."""
    out = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        # Index arr itself: ravel() of a non-contiguous view is a copy.
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_fn()
            arr[idx] = orig - h
            down = loss_fn()
            arr[idx] = orig
            grad[idx] = (up - down) / (2.0 * h)
        out[name] = grad
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


@pytest.mark.parametrize("case", range(8))
def test_gradients_match_finite_differences(case):
    identity = case % 2 == 1
    weight_decay = 0.07 if case % 4 >= 2 else 0.0
    features, adj, embeddings, labels, rng = pipeline_setup(100 + case, identity=identity)
    # Identity features carry no document embeddings, so that model is GCN-only.
    lam = 1.0 if identity else [0.0, 0.2, 0.5, 1.0][case % 4]
    params = init_parameters(features.dim, 3, 2, None if identity else embeddings.dim, seed=case)
    train_mask = np.zeros(4, dtype=bool)
    train_mask[: 2 + case % 3] = True

    dropout_mask = None
    if case % 3 == 0:
        n = features.n_docs + features.n_words
        dropout_mask = (rng.random((n, 3)) >= 0.5) / 0.5

    _, grads = loss_and_gradients(
        features, adj, params, labels, train_mask, lam,
        weight_decay=weight_decay, dropout_mask=dropout_mask,
    )
    fd = fd_gradients(
        lambda: loss_and_gradients(
            features, adj, params, labels, train_mask, lam,
            weight_decay=weight_decay, dropout_mask=dropout_mask,
        )[0],
        params,
    )
    for name in params:
        assert relative_error(grads[name], fd[name]) < 1e-4, name


def test_lambda_zero_gives_exactly_zero_gcn_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(42)
    params = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    _, grads = loss_and_gradients(
        features, adj, params, labels, [True] * 4, lam=0.0
    )
    assert np.all(grads["gcn.W1"] == 0.0)
    assert np.all(grads["gcn.W2"] == 0.0)
    assert np.all(grads["gcn.b1"] == 0.0)
    assert np.all(grads["gcn.b2"] == 0.0)
    assert np.any(grads["head.W"] != 0.0)


def test_lambda_one_gives_exactly_zero_head_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(43)
    params = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    _, grads = loss_and_gradients(
        features, adj, params, labels, [True] * 4, lam=1.0
    )
    assert np.all(grads["head.W"] == 0.0)
    assert np.all(grads["head.b"] == 0.0)


def test_weight_decay_adds_to_loss_and_gradients():
    features, adj, embeddings, labels, _ = pipeline_setup(44)
    params = init_parameters(features.dim, 3, 2, embeddings.dim, seed=0)
    args = (features, adj, params, labels, [True] * 4, 0.2)
    loss0, grads0 = loss_and_gradients(*args, weight_decay=0.0)
    loss1, grads1 = loss_and_gradients(*args, weight_decay=0.1)
    W1, W2, head_W = params["gcn.W1"], params["gcn.W2"], params["head.W"]
    norm2 = (W1 ** 2).sum() + (W2 ** 2).sum() + (head_W ** 2).sum()
    assert loss1 == pytest.approx(loss0 + 0.05 * norm2, rel=1e-12)
    np.testing.assert_allclose(grads1["gcn.W1"], grads0["gcn.W1"] + 0.1 * W1, atol=1e-15)
    # Biases are never decayed.
    np.testing.assert_array_equal(grads1["gcn.b1"], grads0["gcn.b1"])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", ["embedding", "identity"])
def test_fused_pass_matches_dense_reference(layout, seed):
    # Embedding features take the document-row slice and its transpose;
    # identity features take the full adjacency and, carrying no document
    # embeddings, a GCN-only model.
    identity = layout == "identity"
    features, adj, embeddings, labels, rng = pipeline_setup(
        200 + seed, n_docs=6, n_tokens=5, identity=identity
    )
    params = init_parameters(features.dim, 4, 2, None if identity else embeddings.dim, seed=seed)
    train_mask = np.arange(features.n_docs) % 3 != 2
    dropout_mask = (rng.random((adj.shape[0], 4)) >= 0.5) / 0.5
    lam = 1.0 if identity else 0.3
    reference = (adj.toarray(), explicit_node_features(features), features.n_docs, params,
                 features.doc_embeddings, lam, labels, train_mask)

    want_z, _, _ = dense_fused_reference(*reference)
    got_z = fused_probabilities(features, adj, params, lam)
    np.testing.assert_allclose(got_z, want_z, rtol=0, atol=1e-12)

    _, want_loss, want_grads = dense_fused_reference(*reference, dropout_mask=dropout_mask)
    loss, grads = loss_and_gradients(
        features, adj, params, labels, train_mask, lam, dropout_mask=dropout_mask
    )
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        np.testing.assert_allclose(grads[name], want, rtol=1e-9, atol=1e-12, err_msg=name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.floats(0.05, 0.9))
def test_ppmi_reweighting_with_fixed_row_sums_leaves_prediction(seed, delta):
    # With embedding features the word-word block reaches Z only through the
    # degrees in D^-1/2. Moving PPMI weight around a 4-cycle with alternating
    # signs changes A_hat but no row sum, so Z must not move.
    rng = np.random.default_rng(seed)
    n_docs, n_words = 5, 6
    corpus = make_corpus(
        [[int(t) for t in rng.integers(0, n_words, size=6)] for _ in range(n_docs)], n_tokens=n_words
    )
    tfidf = compute_tfidf(corpus)
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    weights = rng.uniform(1.0, 2.0, size=len(cycle))

    def adjacency(shift):
        edges = [(i, j, w + sign * shift)
                 for (i, j), w, sign in zip(cycle, weights, (1, -1, 1, -1))]
        return normalize_adjacency(
            assemble_adjacency(tfidf, word_block(edges + [(4, 5, 0.7)], n_words), n_docs, n_words)
        )

    base, moved = adjacency(0.0), adjacency(delta)
    assert not np.allclose(base.toarray(), moved.toarray(), rtol=0, atol=1e-3)
    embeddings = EmbeddingMatrix(rng.normal(size=(n_docs, 3)))
    features = build_node_features(embeddings, n_docs, n_words)
    params = init_parameters(features.dim, 4, 2, None, seed=seed)
    np.testing.assert_allclose(
        graph_branch(features, moved, params), graph_branch(features, base, params),
        rtol=0, atol=1e-12,
    )


def test_adam_matches_reference_update():
    rng = np.random.default_rng(0)
    w_ref = rng.normal(size=4)
    params = {"w": w_ref.copy()}
    state = AdamState()
    m = np.zeros(4)
    v = np.zeros(4)
    for t in range(1, 6):
        grad = rng.normal(size=4)
        state.step(params, {"w": grad}, lr=0.01)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        w_ref = w_ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(params["w"], w_ref, rtol=0, atol=1e-15)


def test_adam_in_place_matches_reference_expressions():
    # 50 steps over blocks of several shapes, bit for bit; grads are never written.
    rng = np.random.default_rng(3)
    shapes = {"W": (7, 5), "b": (5,), "one": (1,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    ref_params = {name: arr.copy() for name, arr in params.items()}
    state = AdamState()
    ref = ReferenceAdam(0.9, 0.999, 1e-8)
    for _ in range(50):
        grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                 for name, shape in shapes.items()}
        before = {name: g.copy() for name, g in grads.items()}
        state.step(params, grads, lr=0.01)
        ref.step(ref_params, grads, lr=0.01)
        for name in shapes:
            assert np.array_equal(grads[name], before[name]), name
            assert np.array_equal(params[name], ref_params[name]), name
            assert np.array_equal(state.m[name], ref.m[name]), name
            assert np.array_equal(state.v[name], ref.v[name]), name


# -------------------------------------------------------------- training


def separable_setup(n_docs: int = 12):
    """Two token groups, labels follow the group, embeddings echo the label."""
    rng = np.random.default_rng(0)
    sequences = []
    labels = []
    for i in range(n_docs):
        cls = i % 2
        base = 0 if cls == 0 else 3
        sequences.append([base + int(t) for t in rng.integers(0, 3, size=5)])
        labels.append(cls)
    corpus = make_corpus(sequences, n_tokens=6)
    tfidf = compute_tfidf(corpus)
    word_edges = ppmi_edges(slide_windows(corpus, window_size=4))
    n_words = len(corpus.vocab)
    adj = normalize_adjacency(assemble_adjacency(tfidf, word_edges, n_docs, n_words))
    emb = np.zeros((n_docs, 2))
    emb[np.arange(n_docs), labels] = 1.0
    emb += rng.normal(scale=0.05, size=emb.shape)
    embeddings = EmbeddingMatrix(emb)
    features = build_node_features(embeddings, n_docs, n_words)
    base = int(0.5 * n_docs)
    masks = {
        "train": np.array([i < base for i in range(n_docs)]),
        "val": np.array([base <= i < base + n_docs // 4 for i in range(n_docs)]),
        "test": np.array([i >= base + n_docs // 4 for i in range(n_docs)]),
    }
    return features, adj, embeddings, labels, masks


def test_train_zero_epochs_returns_init():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=0, seed=3)
    result = train(features, adj, labels, masks, config)
    params0 = init_parameters(features.dim, config.hidden_dim, 2, embeddings.dim, 3)
    np.testing.assert_array_equal(result.params["gcn.W1"], params0["gcn.W1"])
    np.testing.assert_array_equal(result.params["head.W"], params0["head.W"])
    assert result.history == []
    assert result.best_epoch is None


def test_train_is_deterministic():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=12, seed=5)
    a = train(features, adj, labels, masks, config)
    b = train(features, adj, labels, masks, config)
    np.testing.assert_array_equal(a.params["gcn.W1"], b.params["gcn.W1"])
    np.testing.assert_array_equal(a.params["gcn.W2"], b.params["gcn.W2"])
    np.testing.assert_array_equal(a.params["head.W"], b.params["head.W"])
    assert [(h.epoch, h.loss, h.val_f1) for h in a.history] == [
        (h.epoch, h.loss, h.val_f1) for h in b.history
    ]


def test_train_loss_improves_without_dropout():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=60, dropout=0.0, seed=0)
    result = train(features, adj, labels, masks, config)
    assert result.history[-1].loss < result.history[0].loss


def test_train_requires_lam_one_without_embeddings():
    features, adj, _, labels, masks = separable_setup()
    identity = build_node_features(None, features.n_docs, features.n_words)
    # The rule holds before the first epoch, so a run of no epochs refuses too.
    message = "^without embeddings the model is GCN-only; lam must be 1$"
    for epochs in (0, 1):
        with pytest.raises(ValueError, match=message):
            train(identity, adj, labels, masks, TrainingConfig(lam=0.5, epochs=epochs))
    result = train(identity, adj, labels, masks, TrainingConfig(lam=1.0, epochs=2))
    assert "head.W" not in result.params


def test_identity_features_reject_a_linear_head():
    # Identity features carry no document embeddings for the head to read.
    features, adj, _, labels, _ = pipeline_setup(45, identity=True)
    params = init_parameters(features.dim, 3, 2, 3, seed=0)
    with pytest.raises(ValueError, match="a linear head requires document embeddings"):
        loss_and_gradients(features, adj, params, labels, [True] * 4, 0.5)
    with pytest.raises(ValueError, match="a linear head requires document embeddings"):
        fused_probabilities(features, adj, params, 0.5)


def test_train_best_epoch_prefers_latest_tie():
    # Once validation F1 saturates, continued training keeps the newest weights.
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=40, dropout=0.0, seed=0)
    result = train(features, adj, labels, masks, config)
    best = max(h.val_f1 for h in result.history)
    assert result.history[-1].val_f1 == best
    assert result.best_epoch == result.history[-1].epoch


def test_train_patience_stops_early():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=500, dropout=0.0, seed=0, patience=5)
    result = train(features, adj, labels, masks, config)
    assert len(result.history) < 500
    assert result.best_epoch == result.history[-1].epoch


TRAIN_REFERENCE_CASES = {
    "embedding": dict(identity=False, lam=0.3, patience=None, val=True),
    "embedding-patience": dict(identity=False, lam=0.3, patience=2, val=True),
    "identity": dict(identity=True, lam=1.0, patience=None, val=True),
    "identity-no-val": dict(identity=True, lam=1.0, patience=None, val=False),
    "embedding-no-val-patience": dict(identity=False, lam=0.5, patience=3, val=False),
}


@pytest.mark.parametrize("case", sorted(TRAIN_REFERENCE_CASES))
def test_train_matches_reference_loop(case):
    # Reusing the validation pass's layer 1 must not move a bit of training.
    spec = TRAIN_REFERENCE_CASES[case]
    features, adj, embeddings, labels, rng = pipeline_setup(
        len(case), n_docs=16, n_tokens=10, identity=spec["identity"]
    )
    split = np.arange(16) % 4
    masks = {"train": split < 2, "test": split == 3}
    if spec["val"]:
        masks["val"] = split == 2
    config = TrainingConfig(
        lam=spec["lam"], epochs=25, hidden_dim=8, learning_rate=0.05, weight_decay=1e-3,
        patience=spec["patience"], seed=len(case),
    )
    result = train(features, adj, labels, masks, config)
    history, ref_params, best_epoch = reference_train(features, adj, labels, masks, config)
    assert [(h.epoch, h.loss, h.val_acc, h.val_f1) for h in result.history] == history
    assert result.best_epoch == best_epoch
    if spec["patience"] is not None:
        assert len(history) < config.epochs
    assert list(result.params) == list(ref_params)
    for name, want in ref_params.items():
        assert np.array_equal(result.params[name], want), name


def test_train_never_reads_test_labels():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=10, seed=1)
    a = train(features, adj, labels, masks, config)
    flipped = [1 - lab if masks["test"][i] else lab for i, lab in enumerate(labels)]
    b = train(features, adj, flipped, masks, config)
    np.testing.assert_array_equal(a.params["gcn.W1"], b.params["gcn.W1"])
    np.testing.assert_array_equal(a.params["gcn.W2"], b.params["gcn.W2"])
    np.testing.assert_array_equal(a.params["head.W"], b.params["head.W"])
    assert [h.loss for h in a.history] == [h.loss for h in b.history]
    assert [h.val_f1 for h in a.history] == [h.val_f1 for h in b.history]


def test_train_refuses_an_unlabeled_train_or_val_document():
    # An unlabeled train document was once trained as class 0.
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=3, seed=1)

    def without_label(row):
        return [None if i == row else lab for i, lab in enumerate(labels)]

    for name in ("train", "val"):
        row = int(np.flatnonzero(masks[name])[1])
        with pytest.raises(ValueError, match=f"^{name} document {row} is unlabeled$"):
            train(features, adj, without_label(row), masks, config)
    # Test labels are never read, so an unlabeled test document changes nothing.
    a = train(features, adj, labels, masks, config)
    b = train(features, adj, without_label(int(np.flatnonzero(masks["test"])[0])), masks, config)
    assert [(h.loss, h.val_f1) for h in a.history] == [(h.loss, h.val_f1) for h in b.history]
    np.testing.assert_array_equal(a.params["gcn.W1"], b.params["gcn.W1"])


def test_train_val_labels_do_not_touch_loss():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=10, seed=1)
    a = train(features, adj, labels, masks, config)
    flipped = [1 - lab if masks["val"][i] else lab for i, lab in enumerate(labels)]
    b = train(features, adj, flipped, masks, config)
    assert [h.loss for h in a.history] == [h.loss for h in b.history]


def test_train_divergence_reports_epoch():
    features, adj, embeddings, labels, masks = separable_setup()
    config = TrainingConfig(epochs=5, weight_decay=1e308, seed=0)
    with pytest.raises(DivergenceError) as exc:
        train(features, adj, labels, masks, config)
    assert exc.value.epoch == 0


def test_evaluate_returns_weighted_report():
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=30, dropout=0.0))
    report = evaluate(features, adj, result.params, 0.2, labels, masks["test"])
    assert isinstance(report, MetricsReport)
    assert report.averaging == "weighted"
    assert 0.0 <= report.f1 <= 1.0
    assert sum(cls.support for cls in report.per_class.values()) == int(np.sum(masks["test"]))


# ---------------------------------------------------------------- fusion


def test_fused_boundaries_match_single_branches():
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=8))
    z_g = graph_branch(features, adj, result.params)
    z_b = head_probabilities(embeddings.values, result.params)
    only_gcn = fused_probabilities(features, adj, result.params, 1.0)
    only_head = fused_probabilities(features, adj, result.params, 0.0)
    np.testing.assert_array_equal(only_gcn, z_g)
    np.testing.assert_array_equal(only_head, z_b)


# ------------------------------------------------------------------- I/O


def test_checkpoint_roundtrip(tmp_path):
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=4))
    path = tmp_path / "model.bin"
    save_parameter_blocks(path, result.params)
    back = load_checkpoint(path)
    assert list(back) == list(result.params)
    for name, want in result.params.items():
        np.testing.assert_array_equal(back[name], want)


def test_checkpoint_roundtrip_without_head(tmp_path):
    params = init_parameters(4, 3, 2, None, seed=0)
    path = tmp_path / "model.bin"
    save_parameter_blocks(path, params)
    back = load_checkpoint(path)
    assert "head.W" not in back and "head.b" not in back
    np.testing.assert_array_equal(back["gcn.W1"], params["gcn.W1"])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"BAD!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_oversized_block_header(tmp_path):
    # 24 bytes: one block "w" whose header declares 2**60 float64 values. The
    # size is checked against the file before any read of that length.
    path = tmp_path / "model.bin"
    path.write_bytes(b"TGCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<BQ", 1, 2**60))
    assert path.stat().st_size == 24
    with pytest.raises(ValueError, match="truncated checkpoint block 'w'"):
        load_parameter_blocks(path)


@pytest.mark.parametrize("cut", [5, 11, 13, 14, 20, 30, -1])
def test_checkpoint_rejects_truncation(tmp_path, cut):
    # Cuts inside the file header, a block header, a name, a shape and the
    # payload all raise ValueError; the 5-byte file is the magic plus 1 byte.
    path = tmp_path / "model.bin"
    save_parameter_blocks(path, init_parameters(3, 2, 2, None, seed=0))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated checkpoint"):
        load_parameter_blocks(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.bin"
    save_parameter_blocks(path, init_parameters(3, 2, 2, None, seed=0))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_parameter_blocks(path)


def test_checkpoint_rejects_duplicate_block(tmp_path):
    block = struct.pack("<H", 1) + b"w" + struct.pack("<BQ", 1, 1) + struct.pack("<d", 1.0)
    path = tmp_path / "model.bin"
    path.write_bytes(b"TGCK" + struct.pack("<II", 1, 2) + block + block)
    with pytest.raises(ValueError, match="duplicate checkpoint block 'w'"):
        load_parameter_blocks(path)


GCN_BLOCKS = init_parameters(3, 2, 2, None, seed=0)


@pytest.mark.parametrize("blocks, message", [
    ({"w": np.ones(1)}, "lacks block 'gcn.W1'"),
    ({**GCN_BLOCKS, "gcn.W1": np.ones(3)}, "'gcn.W1' has shape"),
    ({**GCN_BLOCKS, "gcn.b1": np.zeros(3)}, "'gcn.b1' has shape"),
    ({**GCN_BLOCKS, "gcn.W2": np.ones((3, 2))}, "'gcn.W2' has shape"),
    ({**GCN_BLOCKS, "gcn.W2": np.ones((3, 3, 3)), "gcn.b2": np.zeros(5)}, "'gcn.W2' has shape"),
    ({**GCN_BLOCKS, "gcn.b2": np.zeros(5)}, "'gcn.b2' has shape"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 2))}, "lacks block 'head.b'"),
    ({**GCN_BLOCKS, "head.b": np.zeros(2)}, "lacks block 'head.W'"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 3)), "head.b": np.zeros(3)}, "'head.W' has shape"),
    ({**GCN_BLOCKS, "head.W": np.ones((4, 2)), "head.b": np.zeros((2, 1))}, "'head.b' has shape"),
])
def test_load_checkpoint_rejects_missing_or_misshaped_blocks(tmp_path, blocks, message):
    # Well-formed TGCK files whose blocks do not make a model.
    path = tmp_path / "model.bin"
    save_parameter_blocks(path, blocks)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


TGCK_HEADER = struct.pack("<I", 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(TGCK_HEADER.__add__)))
@example(TGCK_HEADER + struct.pack("<IH", 2**32 - 1, 1) + b"w" + struct.pack("<BQ", 1, 1)
         + b"\x00" * 8)
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<BQQ", 2, 2**62, 2**62))
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<BQQ", 2, 0, 2**64 - 1))
@example(TGCK_HEADER + struct.pack("<IH", 1, 1) + b"w" + struct.pack("<B", 255))
@example(TGCK_HEADER + struct.pack("<IH", 1, 2**16 - 1) + b"w")
@example(TGCK_HEADER + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<B", 0)
         + b"\x00" * 8)
def test_checkpoint_fuzz_loads_or_raises_value_error(tmp_path_factory, body):
    # Any bytes after the magic either load or raise ValueError; declared
    # sizes are checked against the file, so nothing huge is allocated.
    path = tmp_path_factory.mktemp("tgck") / "model.bin"
    path.write_bytes(b"TGCK" + body)
    try:
        blocks = load_parameter_blocks(path)
    except ValueError:
        return
    total = sum(8 * arr.size for arr in blocks.values())
    assert total <= len(body) and all(arr.dtype == np.float64 for arr in blocks.values())


def _failing_writes(tmp_path):
    """(path, good write, failing write) per writer; the failing one raises midway."""
    params = init_parameters(3, 2, 2, None, seed=0)
    history = [gcn_module.EpochStats(0, 0.5, 1.0, 1.0)]
    return {
        "checkpoint": (
            tmp_path / "model.bin",
            lambda p: save_parameter_blocks(p, params),
            lambda p: save_parameter_blocks(p, {"gcn.W1": params["gcn.W1"], "bad": "x"}),
        ),
        "history": (
            tmp_path / "history.csv",
            lambda p: write_history_csv(p, history),
            lambda p: write_history_csv(p, [gcn_module.EpochStats(0, 0.25, 0.5, 0.5),
                                            gcn_module.EpochStats(1, "x", 0, 0)]),
        ),
    }


@pytest.mark.parametrize("writer", ["checkpoint", "history"])
def test_failed_write_keeps_old_file(tmp_path, writer):
    path, good, bad = _failing_writes(tmp_path)[writer]
    good(path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        bad(path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_identity_features_are_never_materialized():
    # np.eye over 6000 nodes alone would be 288 MB; the implicit identity
    # keeps features plus one forward pass to a few MB.
    n_docs, n_words = 2000, 4000
    rng = np.random.default_rng(0)
    rows = np.repeat(np.arange(n_docs), 8)
    cols = rng.integers(0, n_words, size=rows.size)
    tfidf = sp.csr_array((rng.uniform(0.5, 1.5, size=rows.size), (rows, cols)),
                         shape=(n_docs, n_words))
    ppmi_block = word_block([(0, 1, 1.0)], n_words)
    adj = normalize_adjacency(assemble_adjacency(tfidf, ppmi_block, n_docs, n_words))
    params = init_parameters(n_docs + n_words, 16, 2, None, seed=0)
    tracemalloc.start()
    try:
        features = build_node_features(None, n_docs, n_words)
        probs = graph_branch(features, adj, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probs.shape == (n_docs, 2)
    assert peak < 32 * 2**20


def test_history_csv_format(tmp_path):
    features, adj, embeddings, labels, masks = separable_setup()
    result = train(features, adj, labels, masks, TrainingConfig(epochs=3))
    path = tmp_path / "history.csv"
    write_history_csv(path, result.history)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "loss", "val_acc", "val_f1"]
    assert len(rows) == 4
    assert float(rows[1][1]) == pytest.approx(result.history[0].loss)
