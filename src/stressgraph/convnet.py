"""Convolutional binary classifier over per-token embedding sequences.

Three parallel 1-D filter banks (kernel sizes 3/4/5, 100 filters each) slide
over an L x d sequence; each bank applies ReLU then max-over-time, the pooled
features concatenate to one vector, dropout thins it during training, and a
dense layer emits a single logit trained with binary cross-entropy.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .gcn import AdamState, DivergenceError, EpochStats
from . import evaluation

SEQUENCE_MAGIC = b"TGSE"
SEQUENCE_VERSION = 1


@dataclass(frozen=True)
class TokenEmbeddingSequence:
    """One document's per-token embedding rows (L x d)."""

    doc_id: str
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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
    """Filter banks plus the dense output layer; dropout rate rides along."""

    kernels: tuple
    conv_bias: tuple
    dense_W: np.ndarray
    dense_b: np.ndarray
    dropout: float = 0.5

    @property
    def kernel_sizes(self) -> tuple:
        return tuple(k.shape[0] for k in self.kernels)

    @property
    def concat_dim(self) -> int:
        return sum(k.shape[2] for k in self.kernels)

    def copy(self) -> "ConvHeadParams":
        return ConvHeadParams(
            kernels=tuple(k.copy() for k in self.kernels),
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
    kernels = []
    biases = []
    for k in config.kernel_sizes:
        fan_in = k * config.embedding_dim
        fan_out = config.n_filters
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        kernels.append(
            rng.uniform(-limit, limit, size=(k, config.embedding_dim, config.n_filters))
        )
        biases.append(np.zeros(config.n_filters))
    concat = config.n_filters * len(config.kernel_sizes)
    limit = math.sqrt(6.0 / (concat + 1))
    dense_w = rng.uniform(-limit, limit, size=concat)
    return ConvHeadParams(
        kernels=tuple(kernels),
        conv_bias=tuple(biases),
        dense_W=dense_w,
        dense_b=np.zeros(1),
        dropout=config.dropout,
    )


def pad_sequence(matrix: np.ndarray, min_len: int) -> np.ndarray:
    """Right-pad with zero rows up to min_len; longer input passes through."""
    if matrix.shape[0] >= min_len:
        return matrix
    pad = np.zeros((min_len - matrix.shape[0], matrix.shape[1]))
    return np.vstack([matrix, pad])


def _windows(matrix: np.ndarray, k: int) -> np.ndarray:
    view = np.lib.stride_tricks.sliding_window_view(matrix, (k, matrix.shape[1]))
    return view.reshape(view.shape[0], -1)


def _forward_doc(
    matrix: np.ndarray,
    params: ConvHeadParams,
    dropout_mask: np.ndarray | None,
) -> tuple[float, dict]:
    """Single-document forward pass; the cache feeds _backward_doc."""
    padded = pad_sequence(matrix, max(params.kernel_sizes))
    pooled_parts = []
    argmaxes = []
    for kernel, bias in zip(params.kernels, params.conv_bias):
        k, d, n_filters = kernel.shape
        conv = _windows(padded, k) @ kernel.reshape(k * d, n_filters) + bias
        act = np.maximum(conv, 0.0)
        argmax = act.argmax(axis=0)
        pooled_parts.append(act[argmax, np.arange(n_filters)])
        argmaxes.append(argmax)
    concat = np.concatenate(pooled_parts)
    dropped = concat * dropout_mask if dropout_mask is not None else concat
    logit = float(dropped @ params.dense_W + params.dense_b[0])
    cache = {
        "padded": padded,
        "argmax": argmaxes,
        "concat": concat,
        "dropped": dropped,
        "dropout_mask": dropout_mask,
    }
    return logit, cache


def conv_forward(
    seq: TokenEmbeddingSequence,
    params: ConvHeadParams,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """Scalar logit for one sequence; dropout only fires when training."""
    mask = None
    if training and params.dropout > 0.0:
        if rng is None:
            raise ValueError("dropout during training requires an rng")
        mask = (rng.random(params.concat_dim) >= params.dropout) / (1.0 - params.dropout)
    logit, _ = _forward_doc(seq.matrix, params, mask)
    return logit


def _backward_doc(
    d_logit: float,
    params: ConvHeadParams,
    cache: dict,
    grads: dict,
) -> None:
    """Accumulate per-document gradients into the shared grads dict.

    Kernel gradients accumulate as (filters, k*d) blocks. A filter's conv
    gradient is non-zero only at its argmax row, and only when the conv value
    there is positive (pooled > 0), so the im2col product windows.T @ d_conv
    reduces to that one window scaled by the filter's gradient: the same
    single rounded product per element, without the zeros.
    """
    grads["dense.W"] += d_logit * cache["dropped"]
    grads["dense.b"] += d_logit
    d_concat = d_logit * params.dense_W
    if cache["dropout_mask"] is not None:
        d_concat = d_concat * cache["dropout_mask"]
    d_conv_all = d_concat * (cache["concat"] > 0.0)
    padded = cache["padded"]
    offset = 0
    for idx, (kernel, argmax) in enumerate(zip(params.kernels, cache["argmax"])):
        k, d, n_filters = kernel.shape
        d_conv = d_conv_all[offset:offset + n_filters]
        offset += n_filters
        nz = np.flatnonzero(d_conv)
        windows = padded[argmax[nz, None] + np.arange(k)].reshape(len(nz), k * d)
        grads[f"conv.K{idx}"][nz] += windows * d_conv[nz, None]
        grads[f"conv.b{idx}"] += d_conv


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
    """Mean BCE loss and mean gradients over one minibatch."""
    if not sequences:
        raise ValueError("empty batch")
    # Kernel gradients accumulate as (filters, k*d); transposed once below.
    grads = {
        name: np.zeros((arr.shape[2], arr.shape[0] * arr.shape[1]))
        if name.startswith("conv.K") else np.zeros_like(arr)
        for name, arr in param_blocks(params).items()
    }
    total = 0.0
    for pos, (seq, label) in enumerate(zip(sequences, labels)):
        mask = dropout_masks[pos] if dropout_masks is not None else None
        logit, cache = _forward_doc(seq.matrix, params, mask)
        total += bce_with_logits(logit, label)
        # dL/dz for BCE-with-logits is sigmoid(z) - y.
        _backward_doc(sigmoid(logit) - label, params, cache, grads)
    n = len(sequences)
    for idx, kernel in enumerate(params.kernels):
        grads[f"conv.K{idx}"] = np.ascontiguousarray(grads[f"conv.K{idx}"].T).reshape(kernel.shape)
    for name in grads:
        grads[name] /= n
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
    adam = AdamState(beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps)
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
                    (rng.random(params.concat_dim) >= config.dropout)
                    / (1.0 - config.dropout)
                    for _ in batch
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
            preds = [classify(conv_forward(sequences[i], params)) for i in val_idx]
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
    n_banks = sum(1 for name in blocks if name.startswith("conv.K"))
    return ConvHeadParams(
        kernels=tuple(blocks[f"conv.K{i}"] for i in range(n_banks)),
        conv_bias=tuple(blocks[f"conv.b{i}"] for i in range(n_banks)),
        dense_W=blocks["dense.W"],
        dense_b=blocks["dense.b"],
        dropout=dropout,
    )


def write_token_embeddings(path, sequences) -> None:
    """Binary sequence file: TGSE magic, version, count, then id/L/d/float32 rows."""
    with open(path, "wb") as fh:
        fh.write(SEQUENCE_MAGIC)
        fh.write(struct.pack("<IQ", SEQUENCE_VERSION, len(sequences)))
        for seq in sequences:
            encoded = seq.doc_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", seq.length, seq.dim))
            fh.write(np.ascontiguousarray(seq.matrix, dtype="<f4").tobytes())


def load_token_embeddings(path, config: ConvHeadConfig, known_ids=None) -> list:
    """Read a TGSE file, truncating sequences to max_len.

    known_ids, when given, must cover every record id; a payload dimension
    that disagrees with the config is an error.
    """
    known = set(known_ids) if known_ids is not None else None
    out = []
    with open(path, "rb") as fh:
        if fh.read(4) != SEQUENCE_MAGIC:
            raise ValueError("not a token-embedding file (bad magic)")
        version, count = struct.unpack("<IQ", fh.read(12))
        if version != SEQUENCE_VERSION:
            raise ValueError(f"unsupported sequence file version {version}")
        for _ in range(count):
            (id_len,) = struct.unpack("<H", fh.read(2))
            doc_id = fh.read(id_len).decode("utf-8")
            length, dim = struct.unpack("<II", fh.read(8))
            # Check the declared size against the file before reading it.
            if length * dim * 4 > os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"truncated payload for sequence {doc_id!r}")
            payload = np.frombuffer(fh.read(length * dim * 4), dtype="<f4")
            if known is not None and doc_id not in known:
                raise ValueError(f"sequence id {doc_id!r} does not match any document")
            if dim != config.embedding_dim:
                raise ValueError(
                    f"sequence {doc_id!r} has dim {dim}, expected {config.embedding_dim}"
                )
            matrix = payload.astype(np.float64).reshape(length, dim)
            if length > config.max_len:
                matrix = matrix[:config.max_len]
            out.append(TokenEmbeddingSequence(doc_id=doc_id, matrix=matrix))
    return out
