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
import scipy.sparse as sp

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
    embedding_dim: int = 768
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


@dataclass
class ConvHeadParams:
    """Filter banks plus the dense output layer; dropout rate rides along.

    The banks are copied into `stacked`, a sum(k * F) x d float64 matrix with bank b's
    offset-j weights of filter f in row (b, j, f); kernels[b] are (k, d, F) views of it.
    """

    kernels: tuple
    conv_bias: tuple
    dense_W: np.ndarray
    dense_b: np.ndarray
    dropout: float = 0.5
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

    def copy(self) -> "ConvHeadParams":
        return ConvHeadParams(
            kernels=self.kernels,
            conv_bias=tuple(b.copy() for b in self.conv_bias),
            dense_W=self.dense_W.copy(),
            dense_b=self.dense_b.copy(),
            dropout=self.dropout,
        )


@dataclass
class ConvTrainResult:
    params: ConvHeadParams
    history: list


def init_conv_params(config: ConvHeadConfig) -> ConvHeadParams:
    """Glorot-uniform kernels and dense weights, zero biases, fixed draw order."""
    rng = np.random.default_rng(config.seed)
    d, n_filters = config.embedding_dim, config.n_filters
    kernels = [_glorot(rng, k * d, n_filters).reshape(k, d, n_filters) for k in config.kernel_sizes]
    concat = n_filters * len(config.kernel_sizes)
    return ConvHeadParams(
        kernels=tuple(kernels),
        conv_bias=tuple(np.zeros(n_filters) for _ in kernels),
        dense_W=_glorot(rng, concat, 1).ravel(),
        dense_b=np.zeros(1),
        dropout=config.dropout,
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


def _stack_kernels(params: ConvHeadParams) -> np.ndarray:
    """Every bank's kernel offsets side by side: a d x sum(k * F) view, no copy.

    Bank b's offset j occupies the F columns starting at
    sum(k_c * F for c < b) + j * F.
    """
    return params.stacked.T


def _forward_batch(
    sequences,
    params: ConvHeadParams,
    w_all: np.ndarray,
    dropout_masks=None,
) -> tuple[list, dict]:
    """Logits of a minibatch from one GEMM over its concatenated padded rows.

    With X the padded sequences stacked row-wise and Y = X @ w_all, bank b's
    conv output at row r is sum_j Y[r + j, block(b, j)] (summed left to right)
    plus the bias; a document starting at row s with padded length L owns
    rows s .. s + L - k of it. The cache feeds batch_loss_and_gradients.
    """
    min_len = max(params.kernel_sizes)
    padded = [pad_sequence(seq.matrix, min_len) for seq in sequences]
    lengths = np.array([m.shape[0] for m in padded])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    x = np.concatenate(padded, dtype=np.float64)
    y = x @ w_all
    bank_convs = []
    col = 0
    for kernel, bias in zip(params.kernels, params.conv_bias):
        k, _, n_filters = kernel.shape
        rows = x.shape[0] - k + 1
        conv = y[:rows, col:col + n_filters]
        for j in range(1, k):
            conv = conv + y[j:j + rows, col + j * n_filters:col + (j + 1) * n_filters]
        bank_convs.append(conv + bias)
        col += k * n_filters
    logits = []
    cache = {"x": x, "starts": starts, "argmax": [], "concat": [], "dropped": []}
    for pos, (start, length) in enumerate(zip(starts, lengths)):
        pooled_parts, argmaxes = [], []
        for kernel, conv in zip(params.kernels, bank_convs):
            act = np.maximum(conv[start:start + length - kernel.shape[0] + 1], 0.0)
            argmax = act.argmax(axis=0)
            pooled_parts.append(act[argmax, np.arange(kernel.shape[2])])
            argmaxes.append(argmax)
        concat = np.concatenate(pooled_parts)
        dropped = concat * dropout_masks[pos] if dropout_masks is not None else concat
        logits.append(float(dropped @ params.dense_W + params.dense_b[0]))
        cache["argmax"].append(np.concatenate(argmaxes))
        cache["concat"].append(concat)
        cache["dropped"].append(dropped)
    return logits, cache


def conv_forward(
    seq: TokenEmbeddingSequence,
    params: ConvHeadParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """Scalar logit for one sequence; dropout only fires when training."""
    masks = None
    if training and params.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout during training requires an rng")
        masks = [_dropout_mask(rng, params.concat_dim, params.dropout)]
    logits, _ = _forward_batch([seq], params, _stack_kernels(params), masks)
    return logits[0]


def conv_logits(sequences, params: ConvHeadParams, batch_size: int) -> list:
    """Inference logits for many sequences, batch_size sequences per GEMM."""
    sequences = list(sequences)
    w_all = _stack_kernels(params)
    logits = []
    for start in range(0, len(sequences), batch_size):
        logits.extend(_forward_batch(sequences[start:start + batch_size], params, w_all)[0])
    return logits


def bce_with_logits(logit: float, label: int) -> float:
    """Numerically stable max(z,0) - z*y + ln(1 + e^(-|z|))."""
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    z = float(logit)
    return max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def classify(logit: float) -> int:
    """sigmoid(logit) >= 0.5 maps to 1; the 0.5 boundary counts as positive."""
    return 1 if logit >= 0.0 else 0


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
    at a time.
    """
    if not sequences:
        raise ValueError("empty batch")
    logits, cache = _forward_batch(sequences, params, _stack_kernels(params), dropout_masks)
    bank_offsets = np.cumsum([0] + [kernel.shape[2] for kernel in params.kernels])
    bias_grads = [np.zeros_like(bias) for bias in params.conv_bias]
    dense_w = np.zeros_like(params.dense_W)
    dense_b = np.zeros_like(params.dense_b)
    d_convs = []
    total = 0.0
    for pos, (logit, label) in enumerate(zip(logits, labels)):
        total += bce_with_logits(logit, label)
        # dL/dz for BCE-with-logits is sigmoid(z) - y.
        d_logit = sigmoid(logit) - label
        dense_w += d_logit * cache["dropped"][pos]
        dense_b += d_logit
        d_concat = d_logit * params.dense_W
        if dropout_masks is not None:
            d_concat = d_concat * dropout_masks[pos]
        d_conv = d_concat * (cache["concat"][pos] > 0.0)
        for idx, grad in enumerate(bias_grads):
            grad += d_conv[bank_offsets[idx]:bank_offsets[idx + 1]]
        d_convs.append(d_conv)

    d_convs = np.array(d_convs)
    argmax = np.array(cache["argmax"])
    x, starts = cache["x"], cache["starts"]
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
    n = len(sequences)
    g_all = s_all @ x
    g_all /= n
    grads = {}
    for idx, grad in enumerate(_bank_views(g_all, [kernel.shape for kernel in params.kernels])):
        grads[f"conv.K{idx}"] = grad
        grads[f"conv.b{idx}"] = bias_grads[idx] / n
    grads["dense.W"] = dense_w / n
    grads["dense.b"] = dense_b / n
    return total / n, grads


def train_conv(
    sequences,
    labels,
    masks: dict,
    config: ConvHeadConfig,
) -> ConvTrainResult:
    """Minibatch Adam with seeded shuffling; loss is mean BCE on logits.

    labels and masks align positionally with sequences. History rows carry
    the epoch's mean train loss and validation accuracy / weighted F1.
    """
    sequences = list(sequences)
    labels = [int(lab) for lab in labels]
    train_idx = np.flatnonzero(np.asarray(masks["train"], dtype=bool))
    val_idx = np.flatnonzero(np.asarray(masks.get("val", []), dtype=bool))
    if not len(train_idx):
        raise ValueError("training mask selects no sequences")
    for idx in train_idx:
        if sequences[idx].dim != config.embedding_dim:
            raise ValueError(
                f"sequence {sequences[idx].doc_id!r} has dim {sequences[idx].dim}, "
                f"expected {config.embedding_dim}"
            )

    params = init_conv_params(config)
    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    param_refs = param_blocks(params)

    history = []
    for epoch in range(config.epochs):
        order = train_idx[rng.permutation(len(train_idx))]
        batch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            batch_seqs = [sequences[i] for i in batch]
            batch_labels = [labels[i] for i in batch]
            dropout_masks = None
            if config.dropout > 0.0:
                dropout_masks = [
                    _dropout_mask(rng, params.concat_dim, config.dropout) for _ in batch
                ]
            loss, grads = batch_loss_and_gradients(
                batch_seqs, batch_labels, params, dropout_masks
            )
            if not math.isfinite(loss):
                raise DivergenceError(epoch)
            batch_losses.append(loss)
            adam.step(param_refs, grads, config.learning_rate)

        val_acc = val_f1 = 0.0
        if len(val_idx):
            val_seqs = [sequences[i] for i in val_idx]
            preds = [classify(z) for z in conv_logits(val_seqs, params, config.batch_size)]
            gold = [labels[i] for i in val_idx]
            report = evaluation.metrics(evaluation.confusion(preds, gold))
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


def params_from_blocks(blocks: dict, dropout: float = 0.5) -> ConvHeadParams:
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
        dropout=dropout,
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

    known_ids, when given, must cover every record id; a payload dimension
    that disagrees with the config and a repeated id are errors. Each payload
    stays float32, one buffer per record; a cut one is copied.
    """
    known = set(known_ids) if known_ids is not None else None
    out = {}
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
            if dim != config.embedding_dim:
                raise ValueError(
                    f"sequence {doc_id!r} has dim {dim}, expected {config.embedding_dim}"
                )
            if length > config.max_len:
                matrix = matrix[:config.max_len].copy()
            out[doc_id] = TokenEmbeddingSequence(doc_id=doc_id, matrix=matrix)
    return list(out.values())
