"""Two-layer GCN with a linear embedding head, fused by convex interpolation.

The forward pass is softmax(A_hat . ReLU(A_hat X W1 + b1) . W2 + b2) restricted
to document rows, the head is softmax(Z_doc W + b), and the fused prediction is
lam * Z_G + (1 - lam) * Z_B. Training minimizes the negative log likelihood of
the fused probabilities on the train mask with hand-derived reverse-mode
gradients and a full-batch Adam loop; everything runs in float64.
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import evaluation
from .graph import EmbeddingMatrix, NodeFeatures
from .manifest import atomic_write, pack_name, read_binary, write_binary

if TYPE_CHECKING:
    import scipy.sparse as sp

LOSS_EPS = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"TGCK"
CHECKPOINT_VERSION = 1


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the failing epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss at epoch {epoch}")
        self.epoch = epoch


@dataclass
class GCNParameters:
    """Weights of the two graph convolution layers."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "GCNParameters":
        return GCNParameters(self.W1.copy(), self.b1.copy(), self.W2.copy(), self.b2.copy())


@dataclass
class LinearHead:
    """Softmax classifier over the external document embeddings."""

    W: np.ndarray
    b: np.ndarray

    def copy(self) -> "LinearHead":
        return LinearHead(self.W.copy(), self.b.copy())


@dataclass
class TrainingConfig:
    """Hyperparameters for the fused model.

    lam is the GCN share of the fused prediction (0 = head only, 1 = GCN
    only). patience, when set, stops training after that many epochs without
    a validation weighted-F1 gain. weight_decay is L2 on weight matrices
    (biases excluded).
    """

    lam: float = 0.2
    learning_rate: float = 1e-3
    epochs: int = 200
    dropout: float = 0.5
    hidden_dim: int = 200
    weight_decay: float = 0.0
    seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.epochs < 0:
            raise ValueError(f"epochs must not be negative, got {self.epochs}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must not be negative, got {self.weight_decay}")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must not be negative, got {self.patience}")


@dataclass
class ProbabilityMatrix:
    """Row-stochastic class probabilities over documents."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("probability matrix must be 2-D")
        if len(self.values):
            row_sums = self.values.sum(axis=1)
            if not np.allclose(row_sums, 1.0, atol=1e-9, rtol=0.0):
                raise ValueError("probability rows must sum to 1")
            if self.values.min() < -1e-12 or self.values.max() > 1.0 + 1e-12:
                raise ValueError("probabilities must lie in [0, 1]")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_acc: float
    val_f1: float


@dataclass
class TrainResult:
    gcn: GCNParameters
    head: LinearHead | None
    history: list[EpochStats]
    best_epoch: int | None


@dataclass
class AblationRow:
    lam: float
    accuracy: float
    f1: float
    acc_std: float
    f1_std: float


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_parameters(
    feature_dim: int,
    hidden_dim: int,
    n_classes: int,
    embedding_dim: int | None,
    seed: int,
) -> tuple[GCNParameters, LinearHead | None]:
    """Glorot-uniform weights, zero biases; draw order is fixed for a seed."""
    rng = np.random.default_rng(seed)
    gcn = GCNParameters(
        W1=_glorot(rng, feature_dim, hidden_dim),
        b1=np.zeros(hidden_dim),
        W2=_glorot(rng, hidden_dim, n_classes),
        b2=np.zeros(n_classes),
    )
    head = None
    if embedding_dim is not None:
        head = LinearHead(W=_glorot(rng, embedding_dim, n_classes), b=np.zeros(n_classes))
    return gcn, head


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _check_finite(name: str, layer: int, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite values in {name} (layer {layer})")


def _forward_pass(
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    gcn: GCNParameters,
    head: LinearHead | None,
    lam: float,
    dropout_mask: np.ndarray | None,
    h_pre: np.ndarray | None = None,
) -> dict:
    """Run both branches and the fusion, keeping activations for backprop.

    Only document rows are scored, so layer 2 reads A[docs, :]. In embedding
    mode X is zero outside the document rows, so layer 1 reads only A[:, docs],
    taken as the transpose of A[docs, :] (a CSC view, no copy). This requires
    adj_norm to be exactly symmetric, as normalize_adjacency returns it.

    h_pre, when given, is the layer-1 pre-activation A X W1 + b1 of exactly
    these gcn parameters, computed by an earlier pass.
    """
    doc_rows = adj_norm[:features.n_docs]
    if h_pre is None:
        if features.doc_embeddings is None:
            propagated_x = adj_norm @ gcn.W1  # A @ X @ W1 with X = I
        else:
            propagated_x = doc_rows.T @ (features.doc_embeddings @ gcn.W1)
        h_pre = propagated_x + gcn.b1
        _check_finite("hidden pre-activation", 1, h_pre)
    hidden = np.maximum(h_pre, 0.0)
    h_drop = hidden * dropout_mask if dropout_mask is not None else hidden
    propagated = doc_rows @ h_drop
    logits = propagated @ gcn.W2 + gcn.b2
    _check_finite("output logits", 2, logits)
    z_g = _softmax(logits)

    z_b = None
    if head is not None:
        if features.doc_embeddings is None:
            raise ValueError("a linear head requires document embeddings")
        z_b = _softmax(features.doc_embeddings @ head.W + head.b)
        z_final = lam * z_g + (1.0 - lam) * z_b
    else:
        if lam != 1.0:
            raise ValueError("without embeddings the model is GCN-only; lam must be 1")
        z_final = z_g
    return {
        "doc_rows": doc_rows,
        "h_pre": h_pre,
        "propagated": propagated,
        "z_g": z_g,
        "z_b": z_b,
        "z_final": z_final,
    }


def gcn_forward(
    features: NodeFeatures, adj_norm: sp.csr_array, params: GCNParameters
) -> ProbabilityMatrix:
    """Inference-mode graph-branch prediction Z_G over document rows (no dropout)."""
    return ProbabilityMatrix(_forward_pass(features, adj_norm, params, None, 1.0, None)["z_g"])


def linear_forward(embeddings: EmbeddingMatrix, head: LinearHead) -> ProbabilityMatrix:
    """Embedding-branch prediction Z_B: row softmax of Z_doc W + b."""
    if embeddings.dim != head.W.shape[0]:
        raise ValueError(
            f"embedding dim {embeddings.dim} does not match head input {head.W.shape[0]}"
        )
    return ProbabilityMatrix(_softmax(embeddings.values @ head.W + head.b))


def interpolate(z_g: ProbabilityMatrix, z_b: ProbabilityMatrix, lam: float) -> ProbabilityMatrix:
    """Fused prediction lam * Z_G + (1 - lam) * Z_B."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if z_g.values.shape != z_b.values.shape:
        raise ValueError("prediction matrices must share a shape")
    return ProbabilityMatrix(lam * z_g.values + (1.0 - lam) * z_b.values)


def nll_loss(z_final: ProbabilityMatrix | np.ndarray, labels, mask) -> float:
    """Mean negative log likelihood -ln(p[label] + eps) over masked documents."""
    values = z_final.values if isinstance(z_final, ProbabilityMatrix) else z_final
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("loss mask selects no documents")
    labels = np.asarray([0 if lab is None else lab for lab in labels], dtype=np.int64)
    picked = values[mask, labels[mask]]
    return float(-np.log(picked + LOSS_EPS).mean())


def predict(z_final: ProbabilityMatrix) -> np.ndarray:
    """Argmax label per document; ties break toward the lower class index."""
    return np.argmax(z_final.values, axis=1)


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _softmax_backward(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    inner = (upstream * probs).sum(axis=1, keepdims=True)
    return probs * (upstream - inner)


def _l2_penalty(gcn: GCNParameters, head: LinearHead | None, weight_decay: float) -> float:
    """0.5 * weight_decay * the squared norm of the weight matrices (biases excluded)."""
    return 0.5 * weight_decay * (
        float((gcn.W1 ** 2).sum()) + float((gcn.W2 ** 2).sum())
        + (float((head.W ** 2).sum()) if head is not None else 0.0)
    )


def loss_and_gradients(
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    gcn: GCNParameters,
    head: LinearHead | None,
    labels,
    train_mask,
    lam: float,
    weight_decay: float = 0.0,
    dropout_mask: np.ndarray | None = None,
    h_pre: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward pass plus analytic reverse-mode gradients for every parameter.

    h_pre is the layer-1 pre-activation of these parameters when train()
    already has it from the validation pass.
    """
    cache = _forward_pass(features, adj_norm, gcn, head, lam, dropout_mask, h_pre)
    mask = np.asarray(train_mask, dtype=bool)
    labels_arr = np.asarray([0 if lab is None else lab for lab in labels], dtype=np.int64)
    loss = nll_loss(cache["z_final"], labels_arr, mask)

    n_classes = gcn.W2.shape[1]
    n_masked = int(mask.sum())
    d_final = np.zeros((features.n_docs, n_classes))
    picked = cache["z_final"][mask, labels_arr[mask]]
    d_final[mask, labels_arr[mask]] = -1.0 / (n_masked * (picked + LOSS_EPS))

    d_logits = _softmax_backward(cache["z_g"], lam * d_final)
    grads: dict[str, np.ndarray] = {}
    grads["gcn.b2"] = d_logits.sum(axis=0)
    grads["gcn.W2"] = cache["propagated"].T @ d_logits
    d_propagated = d_logits @ gcn.W2.T
    d_h_drop = cache["doc_rows"].T @ d_propagated
    d_hidden = d_h_drop * dropout_mask if dropout_mask is not None else d_h_drop
    d_h_pre = d_hidden * (cache["h_pre"] > 0.0)
    grads["gcn.b1"] = d_h_pre.sum(axis=0)
    if features.doc_embeddings is None:
        grads["gcn.W1"] = adj_norm.T @ d_h_pre
    else:
        grads["gcn.W1"] = features.doc_embeddings.T @ (cache["doc_rows"] @ d_h_pre)

    if head is not None:
        d_head_logits = _softmax_backward(cache["z_b"], (1.0 - lam) * d_final)
        grads["head.W"] = features.doc_embeddings.T @ d_head_logits
        grads["head.b"] = d_head_logits.sum(axis=0)

    if weight_decay:
        grads["gcn.W1"] = grads["gcn.W1"] + weight_decay * gcn.W1
        grads["gcn.W2"] = grads["gcn.W2"] + weight_decay * gcn.W2
        if head is not None:
            grads["head.W"] = grads["head.W"] + weight_decay * head.W
        loss += _l2_penalty(gcn, head, weight_decay)
    return loss, grads


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float):
        """One update of params in place; grads are read, never written.

        Works in place in two scratch buffers per block, in the operation
        order of m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g and
        p -= (lr (m / bc1)) / (sqrt(v / bc2) + eps).
        """
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, grad in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(params[name])
                self.v[name] = np.zeros_like(params[name])
            m, v = self.m[name], self.v[name]
            num = np.multiply(grad, 1.0 - ADAM_BETA1)
            np.multiply(m, ADAM_BETA1, out=m)
            np.add(m, num, out=m)
            np.multiply(grad, 1.0 - ADAM_BETA2, out=num)
            np.multiply(num, grad, out=num)
            np.multiply(v, ADAM_BETA2, out=v)
            np.add(v, num, out=v)
            np.divide(m, bc1, out=num)
            np.multiply(num, lr, out=num)
            den = np.divide(v, bc2)
            np.sqrt(den, out=den)
            np.add(den, ADAM_EPS, out=den)
            np.divide(num, den, out=num)
            params[name] -= num


def param_blocks(gcn: GCNParameters, head: LinearHead | None) -> dict[str, np.ndarray]:
    """Named parameter arrays (no copies): Adam's update targets and the checkpoint blocks."""
    params = {"gcn.W1": gcn.W1, "gcn.b1": gcn.b1, "gcn.W2": gcn.W2, "gcn.b2": gcn.b2}
    if head is not None:
        params["head.W"] = head.W
        params["head.b"] = head.b
    return params


def fused_probabilities(
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    gcn: GCNParameters,
    head: LinearHead | None,
    lam: float,
    layer1: dict | None = None,
) -> ProbabilityMatrix:
    """Inference-mode fused prediction (no dropout).

    layer1, when given, receives the layer-1 pre-activation under "h_pre".
    """
    cache = _forward_pass(features, adj_norm, gcn, head, lam, None)
    if layer1 is not None:
        layer1["h_pre"] = cache["h_pre"]
    return ProbabilityMatrix(cache["z_final"])


def evaluate(
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    gcn: GCNParameters,
    head: LinearHead | None,
    lam: float,
    labels,
    mask,
    layer1: dict | None = None,
) -> evaluation.MetricsReport:
    """Weighted metrics of the fused prediction on the masked documents."""
    probs = fused_probabilities(features, adj_norm, gcn, head, lam, layer1)
    preds = predict(probs)
    mask = np.asarray(mask, dtype=bool)
    gold = [labels[i] for i in np.flatnonzero(mask)]
    cm = evaluation.confusion(preds[mask].tolist(), gold)
    return evaluation.metrics(cm)


def train(
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    labels,
    masks: dict,
    config: TrainingConfig,
) -> TrainResult:
    """Full-batch Adam training of both branches against the fused loss.

    Only train-mask labels contribute to the loss; validation labels drive
    best-epoch selection and test labels are never read. Selection keeps the
    highest validation weighted F1, latest epoch on ties: discrete metrics
    saturate early on small validation sets, and continued training at equal
    validation quality is preferred. Patience counts epochs without a strict
    F1 gain. Deterministic for a fixed config and inputs.
    """
    train_mask = np.asarray(masks["train"], dtype=bool)
    val_mask = np.asarray(masks.get("val", np.zeros(features.n_docs, dtype=bool)), dtype=bool)
    n_classes = 2
    embedding_dim = None if features.doc_embeddings is None else features.dim
    gcn, head = init_parameters(
        features.dim, config.hidden_dim, n_classes, embedding_dim, config.seed
    )
    if head is None and config.lam != 1.0:
        raise ValueError("without embeddings the model is GCN-only; set lam to 1")

    rng = np.random.default_rng(config.seed)
    adam = AdamState()
    params = param_blocks(gcn, head)
    hidden_shape = (features.n_docs + features.n_words, config.hidden_dim)

    history: list[EpochStats] = []
    best_f1 = -1.0
    best_epoch: int | None = None
    best_gcn, best_head = None, None
    stale = 0
    # Layer 1 of the current parameters, kept from the validation pass: Adam
    # does not run between it and the next epoch's forward, and dropout acts
    # only after the ReLU, so the training forward would compute the same bits.
    h_pre = None
    for epoch in range(config.epochs):
        mask = None
        if config.dropout > 0.0:
            mask = _dropout_mask(rng, hidden_shape, config.dropout)
        loss, grads = loss_and_gradients(
            features, adj_norm, gcn, head, labels, train_mask,
            config.lam, config.weight_decay, mask, h_pre=h_pre,
        )
        if not math.isfinite(loss):
            raise DivergenceError(epoch)
        adam.step(params, grads, config.learning_rate)

        val_acc = val_f1 = 0.0
        if val_mask.any():
            layer1 = {}
            report = evaluate(
                features, adj_norm, gcn, head, config.lam, labels, val_mask,
                layer1=layer1,
            )
            h_pre = layer1["h_pre"]
            val_acc, val_f1 = report.accuracy, report.f1
        history.append(EpochStats(epoch=epoch, loss=loss, val_acc=val_acc, val_f1=val_f1))

        if val_mask.any() and val_f1 >= best_f1:
            if val_f1 > best_f1:
                stale = 0
            else:
                stale += 1
            best_f1 = val_f1
            best_epoch = epoch
            best_gcn, best_head = gcn.copy(), head.copy() if head is not None else None
        else:
            stale += 1
        if config.patience is not None and stale > config.patience:
            break

    if best_gcn is not None:
        gcn, head = best_gcn, best_head
    return TrainResult(gcn=gcn, head=head, history=history, best_epoch=best_epoch)


def ablate_lambda(
    grid,
    base_config: TrainingConfig,
    features: NodeFeatures,
    adj_norm: sp.csr_array,
    labels,
    masks: dict,
    seeds,
    jobs: int = 1,
) -> list[AblationRow]:
    """Train/evaluate once per (lam, seed); report test-set means over seeds.

    The (lam, seed) cells run on a pool of jobs threads; each cell is
    deterministic, so the rows do not depend on jobs.
    """
    grid = sorted(grid)
    if any(not 0.0 <= lam <= 1.0 for lam in grid):
        raise ValueError("every grid value must lie in [0, 1]")
    if not grid:
        raise ValueError("the grid must hold at least one value")
    if len(set(grid)) != len(grid):
        raise ValueError(f"grid values must not repeat, got {grid}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must not repeat, got {seeds}")

    def run_cell(cell):
        lam, seed = cell
        result = train(features, adj_norm, labels, masks, replace(base_config, lam=lam, seed=seed))
        report = evaluate(features, adj_norm, result.gcn, result.head, lam, labels, masks["test"])
        return report.accuracy, report.f1

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        scores = list(pool.map(run_cell, [(lam, seed) for lam in grid for seed in seeds]))
    rows = []
    for pos, lam in enumerate(grid):
        cells = scores[pos * len(seeds):(pos + 1) * len(seeds)]
        accuracy, acc_std = evaluation.mean_std([acc for acc, _ in cells])
        f1, f1_std = evaluation.mean_std([f1 for _, f1 in cells])
        rows.append(AblationRow(float(lam), accuracy, f1, acc_std, f1_std))
    return rows


def write_history_csv(path, history: list[EpochStats]) -> None:
    with atomic_write(path) as fh:
        writer = _csv.writer(fh)
        writer.writerow(["epoch", "loss", "val_acc", "val_f1"])
        for row in history:
            writer.writerow([row.epoch, f"{row.loss:.17g}", f"{row.val_acc:.17g}", f"{row.val_f1:.17g}"])


def write_ablation_csv(path, rows: list[AblationRow]) -> None:
    with atomic_write(path) as fh:
        writer = _csv.writer(fh)
        writer.writerow(["lambda", "accuracy", "f1", "acc_std", "f1_std"])
        for row in rows:
            writer.writerow(
                [f"{row.lam:g}", f"{row.accuracy:.17g}", f"{row.f1:.17g}",
                 f"{row.acc_std:.17g}", f"{row.f1_std:.17g}"]
            )


def save_parameter_blocks(path, blocks: dict) -> None:
    """Versioned binary checkpoint: named parameter blocks, little-endian float64."""
    with write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as fh:
        fh.write(struct.pack("<I", len(blocks)))
        for name, arr in blocks.items():
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(pack_name(name) + struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_parameter_blocks(path) -> dict:
    """Read a checkpoint; a short read, a size beyond the file or trailing bytes raise ValueError."""
    blocks: dict[str, np.ndarray] = {}
    with read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint") as reader:
        (n_blocks,) = reader.unpack("<I", "checkpoint header")
        for _ in range(n_blocks):
            name = reader.name("checkpoint block name")
            if name in blocks:
                raise ValueError(f"duplicate checkpoint block {name!r}")
            (ndim,) = reader.unpack("<B", f"checkpoint header of block {name!r}")
            shape = reader.unpack(f"<{ndim}Q", f"checkpoint shape of block {name!r}")
            blocks[name] = reader.array(shape, "<f8", f"checkpoint block {name!r}").astype(np.float64)
    return blocks


def save_checkpoint(path, gcn: GCNParameters, head: LinearHead | None) -> None:
    save_parameter_blocks(path, param_blocks(gcn, head))


def check_block_shapes(blocks: dict, dims: dict) -> None:
    """Raise ValueError unless every block named in dims is present with its shape.

    dims maps a block name to its dimensions, each a fixed int or a name that
    stands for the same size wherever it appears.
    """
    sizes = {}
    for name, want in dims.items():
        if name not in blocks:
            raise ValueError(f"checkpoint lacks block {name!r}")
        shape = blocks[name].shape
        if len(shape) != len(want) or any(
            (d if type(d) is int else sizes.setdefault(d, n)) != n for d, n in zip(want, shape)
        ):
            raise ValueError(
                f"checkpoint block {name!r} has shape {shape}, expected {want} with {sizes}"
            )


def load_checkpoint(path) -> tuple[GCNParameters, LinearHead | None]:
    """GCN weights and the optional head; a missing or mis-shaped block raises ValueError.

    W1 is F x H, b1 (H,), W2 H x C and b2 (C,); head.W (d x C) and head.b
    (C,) are both present or both absent.
    """
    blocks = load_parameter_blocks(path)
    dims = {"gcn.W1": ("F", "H"), "gcn.b1": ("H",), "gcn.W2": ("H", "C"), "gcn.b2": ("C",)}
    has_head = "head.W" in blocks or "head.b" in blocks
    if has_head:
        dims.update({"head.W": ("d", "C"), "head.b": ("C",)})
    check_block_shapes(blocks, dims)
    gcn = GCNParameters(
        W1=blocks["gcn.W1"], b1=blocks["gcn.b1"], W2=blocks["gcn.W2"], b2=blocks["gcn.b2"]
    )
    head = LinearHead(W=blocks["head.W"], b=blocks["head.b"]) if has_head else None
    return gcn, head
