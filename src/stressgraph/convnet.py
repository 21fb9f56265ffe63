"""Convolutional binary classifier over per-token embedding sequences.

Three parallel 1-D filter banks (kernel sizes 3/4/5, 100 filters each) slide
over an L x d sequence; each bank applies ReLU then max-over-time, the pooled
features concatenate to one vector, dropout thins it during training, and a
dense layer emits a single logit trained with binary cross-entropy.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .corpus import gold_labels, split_masks
from .gcn import AdamState, DivergenceError, EpochStats, _dropout_mask, _glorot, check_block_shapes
from .manifest import pack_name, read_binary, write_binary
from . import evaluation

SEQUENCE_MAGIC = b"TGSE"
SEQUENCE_VERSION = 1


@dataclass(frozen=True)
class TokenEmbeddingSequence:
    """One document's per-token embedding rows (L x d), held as float32 or float64."""

    doc_id: str
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.dtype != np.float32:
            matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValueError(f"sequence {self.doc_id!r} must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"sequence {self.doc_id!r} contains non-finite values")
        object.__setattr__(self, "matrix", matrix)

    @property
    def length(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass
class ConvHeadConfig:
    kernel_sizes: tuple = (3, 4, 5)
    n_filters: int = 100
    max_len: int = 512
    dropout: float = 0.5
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if not self.kernel_sizes or any(k < 1 for k in self.kernel_sizes):
            raise ValueError("kernel sizes must be positive")
        if self.n_filters < 1:
            raise ValueError("filter count must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.epochs < 0:
            raise ValueError(f"epochs must not be negative, got {self.epochs}")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.max_len < 1:
            raise ValueError("max_len must be positive")


@dataclass
class ConvHeadParams:
    """Filter banks plus the dense output layer.

    The banks are copied into `stacked`, a sum(k * F) x d float64 matrix with bank b's
    offset-j weights of filter f in row (b, j, f); kernels[b] are (k, d, F) views of it.
    """

    kernels: tuple
    conv_bias: tuple
    dense_W: np.ndarray
    dense_b: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        banks = [k.transpose(0, 2, 1).reshape(-1, k.shape[1]) for k in self.kernels]
        self.stacked = np.concatenate(banks, dtype=np.float64)
        self.kernels = _bank_views(self.stacked, [k.shape for k in self.kernels])

    @property
    def kernel_sizes(self) -> tuple:
        return tuple(k.shape[0] for k in self.kernels)

    @property
    def concat_dim(self) -> int:
        return sum(k.shape[2] for k in self.kernels)


@dataclass
class ConvTrainResult:
    params: ConvHeadParams
    history: list


def init_conv_params(config: ConvHeadConfig, d: int) -> ConvHeadParams:
    """Glorot-uniform kernels over d-wide rows and dense weights, zero biases, fixed draw order."""
    rng = np.random.default_rng(config.seed)
    n_filters = config.n_filters
    kernels = [_glorot(rng, k * d, n_filters).reshape(k, d, n_filters) for k in config.kernel_sizes]
    concat = n_filters * len(config.kernel_sizes)
    return ConvHeadParams(
        kernels=tuple(kernels),
        conv_bias=tuple(np.zeros(n_filters) for _ in kernels),
        dense_W=_glorot(rng, concat, 1).ravel(),
        dense_b=np.zeros(1),
    )


def pad_sequence(matrix: np.ndarray, min_len: int) -> np.ndarray:
    """Right-pad with zero rows up to min_len; longer input passes through."""
    if matrix.shape[0] >= min_len:
        return matrix
    pad = np.zeros((min_len - matrix.shape[0], matrix.shape[1]), dtype=matrix.dtype)
    return np.vstack([matrix, pad])


def _bank_views(stacked: np.ndarray, shapes) -> tuple:
    """(k, d, F) views of a sum(k * F) x d matrix whose rows run bank, offset, filter."""
    views, row = [], 0
    for k, d, n_filters in shapes:
        views.append(stacked[row:row + k * n_filters].reshape(k, n_filters, d).transpose(0, 2, 1))
        row += k * n_filters
    return tuple(views)


def _forward_batch(
    sequences,
    params: ConvHeadParams,
    dropout_masks=None,
) -> tuple[np.ndarray, dict]:
    """The (n,) logits of a minibatch from one GEMM over its concatenated padded rows.

    With X the padded sequences stacked row-wise and Y = X @ stacked.T, bank b's
    conv output at row r is sum_j Y[r + j, block(b, j)] (summed left to right)
    plus the bias; a document starting at row s with padded length L owns
    rows s .. s + L - k of it. Pooling gathers each document's windows into an
    (n, T, F) array, its last window repeated up to the longest, so argmax keeps
    the first maximum. dropout_masks is (n, F); the cache's (n, F) concat,
    dropped and argmax arrays feed batch_loss_and_gradients.
    """
    min_len = max(params.kernel_sizes)
    padded = [pad_sequence(seq.matrix, min_len) for seq in sequences]
    lengths = np.array([m.shape[0] for m in padded])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    x = np.concatenate(padded, dtype=np.float64)
    y = x @ params.stacked.T
    pooled, argmaxes = [], []
    col = 0
    for kernel, bias in zip(params.kernels, params.conv_bias):
        k, _, n_filters = kernel.shape
        rows = x.shape[0] - k + 1
        conv = y[:rows, col:col + n_filters]
        for j in range(1, k):
            conv = conv + y[j:j + rows, col + j * n_filters:col + (j + 1) * n_filters]
        last = lengths - k  # each document's last window, counted from its first
        act = np.maximum(conv + bias, 0.0)
        windows = act[starts[:, None] + np.minimum(np.arange(last.max() + 1), last[:, None])]
        argmax = windows.argmax(axis=1)
        pooled.append(act[starts[:, None] + argmax, np.arange(n_filters)])
        argmaxes.append(argmax)
        col += k * n_filters
    concat = np.concatenate(pooled, axis=1)
    dropped = concat * dropout_masks if dropout_masks is not None else concat
    # One 1-D dot per document: a matrix-vector product may sum in another order.
    logits = np.array([row @ params.dense_W for row in dropped]) + params.dense_b[0]
    cache = {"x": x, "starts": starts, "argmax": np.concatenate(argmaxes, axis=1),
             "concat": concat, "dropped": dropped}
    return logits, cache


def conv_logits(sequences, params: ConvHeadParams, batch_size: int) -> np.ndarray:
    """Inference logits (n,) for many sequences, batch_size sequences per GEMM."""
    sequences = list(sequences)
    chunks = [_forward_batch(sequences[start:start + batch_size], params)[0]
              for start in range(0, len(sequences), batch_size)]
    return np.concatenate([np.empty(0), *chunks])


def bce_with_logits(logit: float, label: int) -> float:
    """Numerically stable max(z,0) - z*y + ln(1 + e^(-|z|)), in Python float arithmetic
    for any integer label type: a numpy label would warn on an infinite logit."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    label, z = int(label), float(logit)
    return max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def classify(logits) -> np.ndarray:
    """int64 labels: sigmoid(logit) >= 0.5 maps to 1; the 0.5 boundary counts as positive."""
    return (np.asarray(logits) >= 0.0).astype(np.int64)


def param_blocks(params: ConvHeadParams) -> dict:
    """Named parameter arrays (no copies), kernel banks in declaration order."""
    out = {}
    for idx in range(len(params.kernels)):
        out[f"conv.K{idx}"] = params.kernels[idx]
        out[f"conv.b{idx}"] = params.conv_bias[idx]
    out["dense.W"] = params.dense_W
    out["dense.b"] = params.dense_b
    return out


def batch_loss_and_gradients(
    sequences,
    labels,
    params: ConvHeadParams,
    dropout_masks=None,
) -> tuple[float, dict]:
    """Mean BCE loss and mean gradients over one minibatch.

    A filter's conv gradient is non-zero only at its argmax row, and only
    when the conv value there is positive (pooled > 0). So the gradient of
    the stacked kernels is one sparse product S @ X: row (b, j, f) of S holds
    each document's d_conv for bank b's filter f at column start + argmax + j,
    in document order. Per element that sums the same products in the same
    order as the im2col product windows.T @ d_conv accumulated one document
    at a time, and the loss and the other gradients are sums in document order.
    dropout_masks is None or one row per document.
    """
    # Imported here: scipy.sparse adds about 0.13 s to the package import.
    import scipy.sparse as sp

    if not sequences:
        raise ValueError("empty batch")
    logits, cache = _forward_batch(sequences, params, dropout_masks)
    n = len(sequences)
    loss = _sum_rows(np.array([bce_with_logits(z, y) for z, y in zip(logits, labels)])) / n
    # dL/dz for BCE-with-logits is sigmoid(z) - y.
    d_logits = np.array([sigmoid(z) - y for z, y in zip(logits, labels)])[:, None]
    d_concat = d_logits * params.dense_W
    if dropout_masks is not None:
        d_concat = d_concat * dropout_masks
    d_convs = d_concat * (cache["concat"] > 0.0)
    d_bias = _sum_rows(d_convs)
    bank_offsets = np.cumsum([0] + [kernel.shape[2] for kernel in params.kernels])
    x, starts, argmax = cache["x"], cache["starts"], cache["argmax"]
    rows, cols, vals = [], [], []
    row = 0
    for idx, kernel in enumerate(params.kernels):
        k, _, n_filters = kernel.shape
        filters, docs = np.nonzero(d_convs[:, bank_offsets[idx]:bank_offsets[idx + 1]].T)
        unit = bank_offsets[idx] + filters
        for j in range(k):
            rows.append(row + j * n_filters + filters)
            cols.append(starts[docs] + argmax[docs, unit] + j)
            vals.append(d_convs[docs, unit])
        row += k * n_filters
    s_all = sp.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row, x.shape[0]),
    )
    g_all = s_all @ x
    g_all /= n
    grads = {}
    for idx, grad in enumerate(_bank_views(g_all, [kernel.shape for kernel in params.kernels])):
        grads[f"conv.K{idx}"] = grad
        grads[f"conv.b{idx}"] = d_bias[bank_offsets[idx]:bank_offsets[idx + 1]] / n
    grads["dense.W"] = _sum_rows(d_logits * cache["dropped"]) / n
    grads["dense.b"] = _sum_rows(d_logits) / n
    return float(loss), grads


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """The sum over axis 0 of 0.0 and then each row in turn (np.sum may add in pairs along a
    contiguous axis); the final + 0.0 turns -0.0 into 0.0, as a sum started at 0.0 does."""
    return np.cumsum(a, axis=0)[-1] + 0.0


@np.errstate(over="ignore", invalid="ignore")
def train_conv(
    sequences,
    labels,
    masks: dict,
    config: ConvHeadConfig,
) -> ConvTrainResult:
    """Minibatch Adam with seeded shuffling; loss is mean BCE on logits.

    labels and masks align positionally with sequences, which must share one
    width, the width of the kernels. History rows carry the epoch's mean
    train loss and validation accuracy / weighted F1. numpy's overflow and
    invalid-value warnings are off: a non-finite loss raises DivergenceError.
    """
    sequences = list(sequences)
    labels = np.asarray(labels, dtype=np.int64)
    train_idx = np.flatnonzero(np.asarray(masks["train"], dtype=bool))
    val_idx = np.flatnonzero(np.asarray(masks.get("val", []), dtype=bool))
    val_seqs, val_gold = [sequences[i] for i in val_idx], labels[val_idx]
    if not len(train_idx):
        raise ValueError("training mask selects no sequences")
    dim = sequences[train_idx[0]].dim
    for seq in sequences:
        if seq.dim != dim:
            raise ValueError(f"sequence {seq.doc_id!r} has dim {seq.dim}, expected {dim}")

    params = init_conv_params(config, dim)
    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    param_refs = param_blocks(params)

    history = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            dropout_masks = None
            if config.dropout > 0.0:
                # One row per document: the draws of one mask per document, in order.
                dropout_masks = _dropout_mask(rng, (len(batch), params.concat_dim), config.dropout)
            loss, grads = batch_loss_and_gradients(
                [sequences[i] for i in batch], labels[batch], params, dropout_masks
            )
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            batch_losses.append(loss)
            adam.step(param_refs, grads, config.learning_rate)

        val_acc = val_f1 = 0.0
        if len(val_idx):
            preds = classify(conv_logits(val_seqs, params, config.batch_size))
            report = evaluation.metrics(evaluation.confusion(preds, val_gold))
            val_acc, val_f1 = report.accuracy, report.f1
        history.append(
            EpochStats(
                epoch=epoch,
                loss=float(np.mean(batch_losses)) if batch_losses else 0.0,
                val_acc=val_acc,
                val_f1=val_f1,
            )
        )
    return ConvTrainResult(params=params, history=history)


def params_from_blocks(blocks: dict) -> ConvHeadParams:
    """Conv-head parameters from checkpoint blocks; ValueError names a missing or mis-shaped one.

    Bank i has kernel conv.K<i> (k x d x F_i) and bias conv.b<i> (F_i,);
    dense.W holds one weight per filter and dense.b one bias.
    """
    n_banks = sum(1 for name in blocks if name.startswith("conv.K"))
    dims = {}
    for i in range(n_banks):
        dims.update({f"conv.K{i}": (f"k{i}", "d", f"F{i}"), f"conv.b{i}": (f"F{i}",)})
    check_block_shapes(blocks, dims)
    n_filters = sum(blocks[f"conv.b{i}"].shape[0] for i in range(n_banks))
    check_block_shapes(blocks, {"dense.W": (n_filters,), "dense.b": (1,)})
    return ConvHeadParams(
        kernels=tuple(blocks[f"conv.K{i}"] for i in range(n_banks)),
        conv_bias=tuple(blocks[f"conv.b{i}"] for i in range(n_banks)),
        dense_W=blocks["dense.W"],
        dense_b=blocks["dense.b"],
    )


def write_token_embeddings(path, sequences) -> None:
    """Binary sequence file: TGSE magic, version, count, then id/L/d/float32 rows."""
    with write_binary(path, SEQUENCE_MAGIC, SEQUENCE_VERSION) as fh:
        fh.write(struct.pack("<Q", len(sequences)))
        for seq in sequences:
            fh.write(pack_name(seq.doc_id) + struct.pack("<II", seq.length, seq.dim))
            fh.write(np.ascontiguousarray(seq.matrix, dtype="<f4").tobytes())


def load_token_embeddings(path, config: ConvHeadConfig, known_ids=None) -> list:
    """Read a TGSE file, truncating sequences to max_len.

    known_ids, when given, must cover every record id; a dimension that is 0
    or differs from the first record's and a repeated id are errors. Each
    payload stays float32, one buffer per record; a cut one is copied.
    """
    known = set(known_ids) if known_ids is not None else None
    out, width = {}, None
    with read_binary(path, SEQUENCE_MAGIC, SEQUENCE_VERSION, "sequence file") as reader:
        (count,) = reader.unpack("<Q", "sequence file header")
        for _ in range(count):
            doc_id = reader.name("sequence id")
            if doc_id in out:
                raise ValueError(f"duplicate sequence id {doc_id!r}")
            length, dim = reader.unpack("<II", f"header of sequence {doc_id!r}")
            matrix = reader.array((length, dim), "<f4", f"payload for sequence {doc_id!r}")
            if known is not None and doc_id not in known:
                raise ValueError(f"sequence id {doc_id!r} does not match any document")
            if dim < 1:
                raise ValueError(f"sequence {doc_id!r} has dim 0")
            if width is not None and dim != width:
                raise ValueError(f"sequence {doc_id!r} has dim {dim}, expected {width}")
            width = dim
            if length > config.max_len:
                matrix = matrix[:config.max_len].copy()
            out[doc_id] = TokenEmbeddingSequence(doc_id=doc_id, matrix=matrix)
    return list(out.values())


def align_sequences(sequences, corpus, split) -> tuple[list, np.ndarray, dict]:
    """The corpus documents' sequences in corpus order, their gold labels and their split_masks
    (split aligned with the corpus); ValueError when a train document has no sequence."""
    by_id = {seq.doc_id: seq for seq in sequences}
    missing = set(split.ids_in("train")) - set(by_id)
    if missing:
        raise ValueError(f"{len(missing)} train documents lack token sequences")
    ids = [doc_id for doc_id in corpus.doc_ids if doc_id in by_id]
    labels = gold_labels(corpus, ids)
    return [by_id[doc_id] for doc_id in ids], labels, split_masks(split, ids)
