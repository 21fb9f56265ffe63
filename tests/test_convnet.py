"""Tests for the convolutional sequence classifier and its binary sequence file."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dense_conv_gradients, dense_conv_reference
from stressgraph.convnet import (
    ConvHeadConfig,
    ConvHeadParams,
    TokenEmbeddingSequence,
    _forward_batch,
    _stack_kernels,
    batch_loss_and_gradients,
    bce_with_logits,
    classify,
    conv_forward,
    conv_logits,
    init_conv_params,
    load_token_embeddings,
    pad_sequence,
    param_blocks,
    params_from_blocks,
    sigmoid,
    train_conv,
    write_token_embeddings,
)
from stressgraph.evaluation import confusion, metrics
from stressgraph.gcn import DivergenceError, load_parameter_blocks, save_parameter_blocks

SMALL = dict(kernel_sizes=(2, 3), n_filters=4, embedding_dim=3, max_len=16)


def seq(doc_id: str, matrix) -> TokenEmbeddingSequence:
    return TokenEmbeddingSequence(doc_id=doc_id, matrix=np.asarray(matrix, dtype=np.float64))


# ----------------------------------------------------------- data types


def test_sequence_validation():
    with pytest.raises(ValueError):
        seq("a", np.zeros((0, 3)))
    with pytest.raises(ValueError):
        seq("a", np.zeros(3))
    with pytest.raises(ValueError):
        seq("a", [[np.nan, 0.0]])
    s = seq("a", [[1.0, 2.0]])
    assert s.length == 1 and s.dim == 2
    # float32 stays float32; every other input becomes float64.
    assert TokenEmbeddingSequence("b", np.ones((2, 3), dtype=np.float32)).matrix.dtype == np.float32
    for other in ([[1, 2, 3]], np.ones((1, 3), dtype=np.float16), np.ones((1, 3), dtype=np.int32)):
        assert TokenEmbeddingSequence("c", other).matrix.dtype == np.float64
    with pytest.raises(ValueError):
        TokenEmbeddingSequence("d", np.array([[np.inf]], dtype=np.float32))


def test_config_validation():
    with pytest.raises(ValueError):
        ConvHeadConfig(kernel_sizes=())
    with pytest.raises(ValueError):
        ConvHeadConfig(kernel_sizes=(0,))
    with pytest.raises(ValueError):
        ConvHeadConfig(n_filters=0)
    with pytest.raises(ValueError):
        ConvHeadConfig(dropout=1.0)
    with pytest.raises(ValueError):
        ConvHeadConfig(batch_size=0)


def test_init_shapes_and_bounds():
    config = ConvHeadConfig(**SMALL)
    params = init_conv_params(config)
    assert params.kernel_sizes == (2, 3)
    assert params.concat_dim == 8
    assert [k.shape for k in params.kernels] == [(2, 3, 4), (3, 3, 4)]
    assert all(np.all(b == 0.0) for b in params.conv_bias)
    assert params.dense_b[0] == 0.0
    for k_size, kernel in zip((2, 3), params.kernels):
        limit = math.sqrt(6.0 / (k_size * 3 + 4))
        assert np.abs(kernel).max() <= limit
    again = init_conv_params(config)
    np.testing.assert_array_equal(params.kernels[0], again.kernels[0])
    np.testing.assert_array_equal(params.dense_W, again.dense_W)


def test_default_concat_dim_is_300():
    params = init_conv_params(ConvHeadConfig(embedding_dim=8))
    assert params.kernel_sizes == (3, 4, 5)
    assert params.concat_dim == 300


# -------------------------------------------------------------- forward


def test_pad_sequence():
    m = np.ones((2, 3))
    padded = pad_sequence(m, 5)
    assert padded.shape == (5, 3)
    np.testing.assert_array_equal(padded[2:], 0.0)
    assert pad_sequence(m, 2) is m
    assert pad_sequence(m.astype(np.float32), 5).dtype == np.float32


def test_mixed_float32_batch_matches_float64_bit_for_bit():
    # The batch is cast to float64 once; float32 -> float64 is exact, so every
    # logit and gradient equals that of the same values held as float64.
    rng = np.random.default_rng(12)
    params = init_conv_params(ConvHeadConfig(kernel_sizes=(3, 4, 5), n_filters=8, embedding_dim=6, seed=3))
    matrices = [rng.normal(size=(n, 6)).astype(np.float32) for n in (1, 7, 4, 12)]
    mixed = [TokenEmbeddingSequence(f"d{i}", m if i % 2 else m.astype(np.float64))
             for i, m in enumerate(matrices)]
    wide = [seq(f"d{i}", m) for i, m in enumerate(matrices)]
    assert [s.matrix.dtype for s in mixed] == [np.float64, np.float32] * 2
    assert conv_logits(mixed, params, 3) == conv_logits(wide, params, 3)
    labels = [1, 0, 0, 1]
    loss, grads = batch_loss_and_gradients(mixed, labels, params)
    ref_loss, ref_grads = batch_loss_and_gradients(wide, labels, params)
    assert loss == ref_loss
    for name, ref in ref_grads.items():
        assert np.array_equal(grads[name], ref), name


def test_kernels_and_their_gradients_are_views_of_one_array_each():
    params = init_conv_params(ConvHeadConfig(**SMALL, seed=5))
    w_all = _stack_kernels(params)
    assert np.shares_memory(w_all, _stack_kernels(params))
    assert all(np.shares_memory(w_all, kernel) for kernel in params.kernels)
    # An in-place update of a bank, as Adam makes, reaches the GEMM operand:
    # bank 1 (k = 3) starts after bank 0's 2 x 4 columns, offset 2 after 2 x 4 more.
    params.kernels[1][2, 0, 3] += 1.0
    assert w_all[0, 8 + 8 + 3] == params.kernels[1][2, 0, 3]
    # copy() stacks afresh.
    assert not np.shares_memory(params.copy().kernels[0], w_all)
    rng = np.random.default_rng(5)
    sequences = [seq(f"d{i}", rng.normal(size=(n, 3))) for i, n in enumerate((4, 6))]
    _, grads = batch_loss_and_gradients(sequences, [1, 0], params)
    g_all = _root(grads["conv.K0"])
    assert g_all.shape == (2 * 4 + 3 * 4, 3)
    assert np.shares_memory(g_all, grads["conv.K0"]) and np.shares_memory(g_all, grads["conv.K1"])


@pytest.mark.parametrize("rows", [20, 240, 960])
def test_stacked_gemm_operand_matches_contiguous_matrix_bits(rows):
    # The forward multiplies by a transposed view of the stacked kernels. A
    # BLAS whose result then differs from that of the contiguous d x sum(k F)
    # matrix would move every conv-head digest, so it fails here instead.
    params = init_conv_params(ConvHeadConfig(seed=rows))
    w_all = _stack_kernels(params)
    filled = np.concatenate([k.transpose(1, 0, 2).reshape(k.shape[1], -1) for k in params.kernels], axis=1)
    assert np.array_equal(w_all, filled)
    x = np.random.default_rng(rows).normal(size=(rows, 768)).astype(np.float32).astype(np.float64)
    assert np.array_equal(x @ w_all, x @ np.ascontiguousarray(w_all))


def test_forward_zero_input_zero_logit():
    # Zero biases: every window of a zero sequence pools to zero.
    params = init_conv_params(ConvHeadConfig(**SMALL))
    logit = conv_forward(seq("a", np.zeros((4, 3))), params)
    assert logit == 0.0


def test_forward_short_sequence_reaches_all_banks():
    # L = 1 is padded up to the largest kernel, so every bank produces output.
    params = init_conv_params(ConvHeadConfig(**SMALL))
    logit = conv_forward(seq("a", [[1.0, -0.5, 0.25]]), params)
    assert math.isfinite(logit)


def test_forward_padding_invariance():
    # With zero conv biases, zero rows beyond the required minimum add only
    # zero-valued windows, which max-over-time ignores.
    rng = np.random.default_rng(0)
    params = init_conv_params(ConvHeadConfig(**SMALL))
    base = rng.normal(size=(6, 3))
    reference = conv_forward(seq("a", base), params)
    for extra in (1, 3, 10):
        padded = np.vstack([base, np.zeros((extra, 3))])
        assert conv_forward(seq("a", padded), params) == pytest.approx(reference, abs=1e-12)


def test_forward_dropout_needs_rng():
    params = init_conv_params(ConvHeadConfig(**SMALL))
    s = seq("a", np.ones((3, 3)))
    with pytest.raises(ValueError):
        conv_forward(s, params, training=True)
    # Inference never applies dropout.
    assert conv_forward(s, params) == conv_forward(s, params, training=False)


def test_forward_known_tiny_instance():
    # One filter of size 1 acting as a column sum makes the logit computable by hand.
    params = ConvHeadParams(
        kernels=(np.ones((1, 2, 1)),),
        conv_bias=(np.zeros(1),),
        dense_W=np.array([2.0]),
        dense_b=np.array([0.5]),
        dropout=0.0,
    )
    # Rows sum to 3.0, -1.0; ReLU then max picks 3.0; logit = 2 * 3 + 0.5.
    logit = conv_forward(seq("a", [[1.0, 2.0], [-3.0, 2.0]]), params)
    assert logit == pytest.approx(6.5, abs=1e-12)


# ------------------------------------------------------- loss and grads


def test_bce_known_values():
    assert bce_with_logits(0.0, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert bce_with_logits(0.0, 0) == pytest.approx(math.log(2), abs=1e-12)
    assert bce_with_logits(20.0, 1) == pytest.approx(2.061e-9, rel=1e-3)
    assert bce_with_logits(20.0, 0) == pytest.approx(20.0, rel=1e-6)
    assert bce_with_logits(-20.0, 0) == pytest.approx(2.061e-9, rel=1e-3)
    with pytest.raises(ValueError):
        bce_with_logits(0.0, 2)


def test_bce_label_symmetry():
    for z in (-5.0, -0.3, 0.0, 1.7, 30.0):
        assert bce_with_logits(z, 1) == pytest.approx(bce_with_logits(-z, 0), abs=1e-12)


def test_bce_stable_at_extremes():
    assert math.isfinite(bce_with_logits(1000.0, 0))
    assert bce_with_logits(1000.0, 1) == 0.0
    assert bce_with_logits(-1000.0, 0) == 0.0


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(3.0) == pytest.approx(0.9526, abs=5e-5)
    assert sigmoid(-3.0) == pytest.approx(0.0474, abs=5e-5)
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)


def test_classify_boundary():
    assert classify(0.0) == 1
    assert classify(3.0) == 1
    assert classify(-3.0) == 0


def fd_gradients(loss_fn, arrays: dict, h: float = 1e-5) -> dict:
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


@pytest.mark.parametrize("case", range(6))
def test_conv_gradients_match_finite_differences(case):
    rng = np.random.default_rng(200 + case)
    config = ConvHeadConfig(**SMALL, seed=case)
    params = init_conv_params(config)
    # Zero biases put padded windows exactly on the ReLU/max kink, where finite
    # differences and subgradients legitimately disagree; jitter off the kink.
    for arr in param_blocks(params).values():
        arr += rng.normal(scale=0.1, size=arr.shape)
    sequences = [
        seq(f"d{i}", rng.normal(size=(int(rng.integers(1, 7)), 3))) for i in range(3)
    ]
    labels = [int(x) for x in rng.integers(0, 2, size=3)]
    dropout_masks = None
    if case % 2:
        dropout_masks = [(rng.random(params.concat_dim) >= 0.5) / 0.5 for _ in sequences]

    _, grads = batch_loss_and_gradients(sequences, labels, params, dropout_masks)
    arrays = param_blocks(params)
    fd = fd_gradients(
        lambda: batch_loss_and_gradients(sequences, labels, params, dropout_masks)[0],
        arrays,
    )
    for name in arrays:
        num = np.linalg.norm(grads[name] - fd[name])
        denom = np.linalg.norm(grads[name]) + np.linalg.norm(fd[name])
        assert num <= 1e-4 * max(denom, 1e-8), name


def test_batch_loss_is_mean():
    rng = np.random.default_rng(9)
    params = init_conv_params(ConvHeadConfig(**SMALL))
    sequences = [seq(f"d{i}", rng.normal(size=(4, 3))) for i in range(3)]
    labels = [1, 0, 1]
    loss, _ = batch_loss_and_gradients(sequences, labels, params)
    singles = [
        bce_with_logits(conv_forward(s, params), lab) for s, lab in zip(sequences, labels)
    ]
    assert loss == pytest.approx(np.mean(singles), abs=1e-12)
    with pytest.raises(ValueError):
        batch_loss_and_gradients([], [], params)


CONV_REFERENCE_CASES = {
    "no-dropout": dict(dropout=False, lengths=(6, 9, 4, 7)),
    "dropout": dict(dropout=True, lengths=(6, 9, 4, 7)),
    "shorter-than-kernels": dict(dropout=True, lengths=(1, 2, 3, 8)),
    "dead-bank": dict(dropout=True, lengths=(6, 2, 9), dead_bank=1),
    "batch-of-one": dict(dropout=False, lengths=(5,)),
    "batch-of-one-dropout": dict(dropout=True, lengths=(1,)),
}


def conv_reference_case(spec, seed):
    """(params, sequences, labels, dropout masks) of one CONV_REFERENCE_CASES entry."""
    rng = np.random.default_rng(seed)
    config = ConvHeadConfig(kernel_sizes=(3, 4, 5), n_filters=16, embedding_dim=24, seed=7)
    params = init_conv_params(config)
    if "dead_bank" in spec:
        # Every conv value of this bank is negative: argmax 0, no gradient.
        params.conv_bias[spec["dead_bank"]][:] = -1e3
    sequences = [seq(f"d{i}", rng.normal(size=(n, 24))) for i, n in enumerate(spec["lengths"])]
    labels = [int(x) for x in rng.integers(0, 2, size=len(sequences))]
    masks = None
    if spec["dropout"]:
        masks = [(rng.random(params.concat_dim) >= 0.5) / 0.5 for _ in sequences]
    return params, sequences, labels, masks


def assert_bank_liveness(spec, grads):
    if "dead_bank" in spec:
        bank = spec["dead_bank"]
        assert not grads[f"conv.K{bank}"].any() and not grads[f"conv.b{bank}"].any()
    else:
        assert all(grads[f"conv.K{i}"].any() for i in range(3))


def batch_conv_pre(cache, params):
    """Each document's per-bank conv pre-activations, summed as _forward_batch sums
    them: with Y = X @ w_all over the batch's padded rows, bank b's output at row r
    is sum_j Y[r + j, block(b, j)] left to right, plus the bias."""
    x, starts = cache["x"], cache["starts"]
    y = x @ _stack_kernels(params)
    ends = np.append(starts[1:], x.shape[0])
    out = [[] for _ in starts]
    col = 0
    for kernel, bias in zip(params.kernels, params.conv_bias):
        k, _, n_filters = kernel.shape
        rows = x.shape[0] - k + 1
        conv = y[:rows, col:col + n_filters]
        for j in range(1, k):
            conv = conv + y[j:j + rows, col + j * n_filters:col + (j + 1) * n_filters]
        conv = conv + bias
        for pos, (start, end) in enumerate(zip(starts, ends)):
            out[pos].append(conv[start:end - k + 1])
        col += k * n_filters
    return out


@pytest.mark.parametrize("case", sorted(CONV_REFERENCE_CASES))
def test_gather_backward_matches_dense_reference(case):
    # The kernel gradient gathers each pooled window through one sparse
    # product; given the batch forward's conv pre-activations, it must
    # reproduce the full im2col backward bit for bit.
    spec = CONV_REFERENCE_CASES[case]
    params, sequences, labels, masks = conv_reference_case(spec, len(case))

    loss, grads = batch_loss_and_gradients(sequences, labels, params, masks)
    _, cache = _forward_batch(sequences, params, _stack_kernels(params), masks)
    conv_pre = batch_conv_pre(cache, params)
    ref_loss, ref_grads = dense_conv_gradients(sequences, labels, params, conv_pre, masks)
    assert loss == ref_loss
    assert list(grads) == list(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert np.array_equal(grads[name], ref), name
    assert_bank_liveness(spec, grads)


@pytest.mark.parametrize("case", sorted(CONV_REFERENCE_CASES) + ["bench-size"])
def test_batch_forward_matches_im2col_reference(case):
    # The shifted-sum GEMM rounds differently from per-document im2col: the
    # loss and every gradient block must agree to 1e-12 of the block's
    # largest reference magnitude.
    if case == "bench-size":
        spec = dict(dropout=True)
        rng = np.random.default_rng(8)
        params = init_conv_params(ConvHeadConfig(seed=3))
        sequences = [
            seq(f"d{i}", rng.normal(size=(int(rng.integers(20, 121)), 768))) for i in range(8)
        ]
        labels = [int(x) for x in rng.integers(0, 2, size=8)]
        masks = [(rng.random(params.concat_dim) >= 0.5) / 0.5 for _ in sequences]
    else:
        spec = CONV_REFERENCE_CASES[case]
        params, sequences, labels, masks = conv_reference_case(spec, len(case))

    loss, grads = batch_loss_and_gradients(sequences, labels, params, masks)
    ref_loss, ref_grads = dense_conv_reference(sequences, labels, params, masks)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert list(grads) == list(ref_grads)
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape, name
        assert np.abs(grads[name] - ref).max() <= 1e-12 * np.abs(ref).max(), name
    assert_bank_liveness(spec, grads)


def test_conv_logits_matches_single_document_forward():
    # Chunked scoring and the batch-of-one forward run the same arithmetic up
    # to GEMM rounding under row slicing, so compare at a tolerance.
    rng = np.random.default_rng(12)
    params = init_conv_params(ConvHeadConfig(kernel_sizes=(3, 4, 5), n_filters=16,
                                             embedding_dim=24, seed=2))
    sequences = [seq(f"d{i}", rng.normal(size=(int(n), 24)))
                 for i, n in enumerate(rng.integers(1, 12, size=7))]
    singles = [conv_forward(s, params) for s in sequences]
    for batch_size in (1, 3, 7, 50):
        logits = conv_logits(sequences, params, batch_size)
        assert len(logits) == len(sequences)
        np.testing.assert_allclose(logits, singles, rtol=1e-12, atol=1e-12)
    assert conv_logits([], params, 4) == []


# -------------------------------------------------------------- training


def conv_toy(n_docs: int = 24, dim: int = 3):
    """Linearly separable sequences: class sign shows up in every row."""
    rng = np.random.default_rng(1)
    sequences, labels = [], []
    for i in range(n_docs):
        cls = i % 2
        center = 0.8 if cls == 1 else -0.8
        length = int(rng.integers(2, 7))
        sequences.append(seq(f"d{i}", rng.normal(loc=center, scale=0.1, size=(length, dim))))
        labels.append(cls)
    base = int(0.6 * n_docs)
    masks = {
        "train": np.array([i < base for i in range(n_docs)]),
        "val": np.array([base <= i < base + n_docs // 5 for i in range(n_docs)]),
        "test": np.array([i >= base + n_docs // 5 for i in range(n_docs)]),
    }
    return sequences, labels, masks


def test_train_conv_zero_epochs():
    sequences, labels, masks = conv_toy()
    config = ConvHeadConfig(**SMALL, epochs=0, seed=4)
    result = train_conv(sequences, labels, masks, config)
    init = init_conv_params(config)
    np.testing.assert_array_equal(result.params.kernels[0], init.kernels[0])
    np.testing.assert_array_equal(result.params.dense_W, init.dense_W)
    assert result.history == []


def test_train_conv_deterministic():
    sequences, labels, masks = conv_toy()
    config = ConvHeadConfig(**SMALL, epochs=3, batch_size=4, seed=7)
    a = train_conv(sequences, labels, masks, config)
    b = train_conv(sequences, labels, masks, config)
    np.testing.assert_array_equal(a.params.dense_W, b.params.dense_W)
    np.testing.assert_array_equal(a.params.kernels[1], b.params.kernels[1])
    assert [h.loss for h in a.history] == [h.loss for h in b.history]


def test_train_conv_learns_separable_toy():
    sequences, labels, masks = conv_toy()
    config = ConvHeadConfig(**SMALL, epochs=20, batch_size=8, learning_rate=1e-2, seed=0)
    result = train_conv(sequences, labels, masks, config)
    test_idx = np.flatnonzero(masks["test"])
    preds = [classify(conv_forward(sequences[i], result.params)) for i in test_idx]
    gold = [labels[i] for i in test_idx]
    report = metrics(confusion(preds, gold))
    assert report.f1 >= 0.95
    assert len(result.history) == 20
    assert result.history[-1].val_f1 == 1.0


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_conv_divergence():
    sequences, labels, masks = conv_toy()
    config = ConvHeadConfig(**SMALL, epochs=10, learning_rate=1e160, dropout=0.0, seed=0)
    with pytest.raises(DivergenceError):
        train_conv(sequences, labels, masks, config)


def test_train_conv_validates_inputs():
    sequences, labels, masks = conv_toy()
    empty = {**masks, "train": np.zeros(len(sequences), dtype=bool)}
    with pytest.raises(ValueError):
        train_conv(sequences, labels, empty, ConvHeadConfig(**SMALL, epochs=1))
    bad_dim = ConvHeadConfig(kernel_sizes=(2, 3), n_filters=4, embedding_dim=5, epochs=1)
    with pytest.raises(ValueError):
        train_conv(sequences, labels, masks, bad_dim)


# ------------------------------------------------------------------- I/O


def test_sequence_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    sequences = [
        seq("alpha", rng.normal(size=(4, 3)).astype(np.float32).astype(np.float64)),
        seq("beta", rng.normal(size=(1, 3)).astype(np.float32).astype(np.float64)),
    ]
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, sequences)
    back = load_token_embeddings(path, ConvHeadConfig(**SMALL))
    assert [s.doc_id for s in back] == ["alpha", "beta"]
    for got, want in zip(back, sequences):
        np.testing.assert_array_equal(got.matrix, want.matrix)


def test_sequence_file_truncates_to_max_len(tmp_path):
    long = seq("a", np.arange(40 * 3, dtype=np.float64).reshape(40, 3))
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [long])
    config = ConvHeadConfig(kernel_sizes=(2,), n_filters=2, embedding_dim=3, max_len=16)
    back = load_token_embeddings(path, config)
    assert back[0].length == 16
    np.testing.assert_array_equal(back[0].matrix, long.matrix[:16])


def _root(arr: np.ndarray) -> np.ndarray:
    """The array at the root of arr's chain of views."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _buffer_bytes(arr: np.ndarray) -> int:
    """Size of the buffer that arr's chain of views keeps alive."""
    arr = _root(arr)
    return arr.nbytes if arr.base is None else memoryview(arr.base).nbytes


def test_sequence_file_loads_float32_without_a_float64_copy(tmp_path):
    rng = np.random.default_rng(4)
    sequences = [seq(f"d{i}", rng.normal(size=(100, 64))) for i in range(40)]
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, sequences)
    payload_bytes = sum(s.length * s.dim * 4 for s in sequences)
    config = ConvHeadConfig(kernel_sizes=(2,), n_filters=2, embedding_dim=64)
    tracemalloc.start()
    try:
        back = load_token_embeddings(path, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(s.matrix.dtype == np.float32 for s in back)
    assert peak < 1.25 * payload_bytes
    for got, want in zip(back, sequences):
        np.testing.assert_array_equal(got.matrix, want.matrix.astype(np.float32))


def test_truncated_sequence_does_not_keep_its_payload_alive(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("long", np.ones((40, 3))), seq("short", np.ones((5, 3)))])
    config = ConvHeadConfig(kernel_sizes=(2,), n_filters=2, embedding_dim=3, max_len=16)
    long, short = load_token_embeddings(path, config)
    assert long.length == 16 and _buffer_bytes(long.matrix) == 16 * 3 * 4
    assert short.length == 5 and _buffer_bytes(short.matrix) == 5 * 3 * 4


def test_sequence_file_rejects_wrong_dim(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("a", np.zeros((2, 4)))])
    with pytest.raises(ValueError):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


def test_sequence_file_rejects_unknown_id(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("ghost", np.zeros((2, 3)))])
    with pytest.raises(ValueError):
        load_token_embeddings(path, ConvHeadConfig(**SMALL), known_ids={"a", "b"})
    # The same file loads when the id is known.
    got = load_token_embeddings(path, ConvHeadConfig(**SMALL), known_ids={"ghost"})
    assert got[0].doc_id == "ghost"


def test_sequence_file_empty(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [])
    assert load_token_embeddings(path, ConvHeadConfig(**SMALL)) == []


def test_sequence_file_bad_magic(tmp_path):
    path = tmp_path / "seqs.bin"
    path.write_bytes(b"WRNG" + b"\x00" * 12)
    with pytest.raises(ValueError):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


def test_sequence_file_rejects_oversized_header(tmp_path):
    # One record declaring (2**32 - 1) x (2**32 - 1) float32 values with no
    # payload: the size is checked against the file before any read of it.
    path = tmp_path / "seqs.bin"
    path.write_bytes(
        b"TGSE" + struct.pack("<IQH", 1, 1, 1) + b"a" + struct.pack("<II", 2**32 - 1, 2**32 - 1)
    )
    with pytest.raises(ValueError, match="truncated payload for sequence 'a'"):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


def test_sequence_file_rejects_overlong_id_and_keeps_old_file(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("a", np.ones((2, 3)))])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="does not fit a u16 length"):
        write_token_embeddings(path, [seq("é" * 40000, np.ones((2, 3)))])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seqs.bin"]


def test_sequence_file_rejects_duplicate_id(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("a", np.zeros((2, 3))), seq("a", np.ones((3, 3)))])
    with pytest.raises(ValueError, match="duplicate sequence id 'a'"):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


@pytest.mark.parametrize("cut", [6, 17, 18, 22, 30])
def test_sequence_file_truncation_is_value_error(tmp_path, cut):
    # Cuts inside the file header, the id length, the id, the record header
    # and the payload of a 16 + 2 + 1 + 8 + 24 byte file.
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("a", np.ones((2, 3)))])
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(ValueError, match="truncated"):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


def test_sequence_file_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "seqs.bin"
    write_token_embeddings(path, [seq("a", np.ones((2, 3)))])
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_token_embeddings(path, ConvHeadConfig(**SMALL))


TGSE_HEADER = struct.pack("<I", 1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=64), st.binary(max_size=64).map(TGSE_HEADER.__add__)))
@example(TGSE_HEADER + struct.pack("<QH", 2**64 - 1, 1) + b"a" + struct.pack("<II", 1, 3)
         + b"\x00" * 12)
@example(TGSE_HEADER + struct.pack("<QH", 1, 2**16 - 1) + b"a")
@example(TGSE_HEADER + struct.pack("<QH", 1, 1) + b"a" + struct.pack("<II", 2**32 - 1, 0))
@example(TGSE_HEADER + struct.pack("<QH", 1, 1) + b"a" + struct.pack("<II", 0, 2**32 - 1))
@example(TGSE_HEADER + struct.pack("<QH", 1, 1) + b"a" + struct.pack("<II", 1, 3)
         + struct.pack("<3f", 1.0, float("nan"), 0.0))
@example(TGSE_HEADER + struct.pack("<QH", 1, 2) + b"\xff\xfe" + struct.pack("<II", 1, 3)
         + b"\x00" * 12)
def test_sequence_file_fuzz_loads_or_raises_value_error(tmp_path_factory, body):
    # Any bytes after the magic either load or raise ValueError; declared
    # sizes are checked against the file, so nothing huge is allocated.
    path = tmp_path_factory.mktemp("tgse") / "seqs.bin"
    path.write_bytes(b"TGSE" + body)
    try:
        sequences = load_token_embeddings(path, ConvHeadConfig(**SMALL))
    except ValueError:
        return
    assert all(s.dim == 3 and 1 <= s.length <= 16 for s in sequences)
    assert len({s.doc_id for s in sequences}) == len(sequences)


@pytest.mark.parametrize("change, message", [
    ({"conv.b1": None}, "lacks block 'conv.b1'"),
    ({"conv.K0": None}, "lacks block 'conv.K0'"),
    ({"conv.b0": np.zeros(5)}, "'conv.b0' has shape"),
    ({"conv.K1": np.ones((3, 3))}, "'conv.K1' has shape"),
    ({"conv.K1": np.ones((3, 2, 4))}, "'conv.K1' has shape"),
    ({"dense.W": None}, "lacks block 'dense.W'"),
    ({"dense.W": np.ones(7)}, "'dense.W' has shape"),
    ({"dense.b": np.zeros(2)}, "'dense.b' has shape"),
])
def test_params_from_blocks_rejects_missing_or_misshaped_blocks(change, message):
    blocks = param_blocks(init_conv_params(ConvHeadConfig(**SMALL, seed=11)))
    blocks = {name: arr for name, arr in {**blocks, **change}.items() if arr is not None}
    with pytest.raises(ValueError, match=message):
        params_from_blocks(blocks)


def test_conv_checkpoint_roundtrip(tmp_path):
    params = init_conv_params(ConvHeadConfig(**SMALL, seed=11))
    path = tmp_path / "conv.bin"
    save_parameter_blocks(path, param_blocks(params))
    back = params_from_blocks(load_parameter_blocks(path), dropout=params.dropout)
    assert back.kernel_sizes == params.kernel_sizes
    for got, want in zip(back.kernels, params.kernels):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(back.dense_W, params.dense_W)
    np.testing.assert_array_equal(back.dense_b, params.dense_b)
