"""Binary classification metrics, seed aggregation, and paired significance tests.

Conventions: the positive class is label 1, undefined ratios (0/0) evaluate
to 0.0 and mark the class as degenerate, weighted averages use gold-label
support, and spread over seeds is the sample standard deviation (ddof=1,
zero for a single run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifest import RecordError, csv_rows, read_json, record_id, zero_or_one

_VALID_LABELS = (0, 1)

AVERAGING_MODES = ("weighted", "macro", "per_class")

METRIC_NAMES = ("precision", "recall", "f1", "accuracy")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts with label 1 as the positive class."""

    tn: int
    fp: int
    fn: int
    tp: int

    def __post_init__(self):
        for name in ("tn", "fp", "fn", "tp"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.total == 0:
            raise ValueError("confusion matrix must count at least one sample")

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp

    def support(self, label: int) -> int:
        return self.tp + self.fn if label == 1 else self.tn + self.fp


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus per-class precision/recall/F1, the table every average comes from.

    The headline precision/recall/f1 properties follow the requested
    averaging mode; per_class keeps the full table as the primary view and
    falls back to weighted headlines. degenerate_classes lists labels where
    a 0/0 convention fired.
    """

    accuracy: float
    per_class: dict
    averaging: str
    degenerate_classes: tuple

    def average(self, kind: str, name: str) -> float:
        """The classes' "macro" (unweighted) or support-weighted mean of precision,
        recall or f1; kind is an averaging mode, and "per_class" means weighted."""
        if kind not in AVERAGING_MODES:
            raise ValueError(f"averaging must be one of {AVERAGING_MODES}, got {kind!r}")
        classes = [self.per_class[label] for label in (0, 1)]
        if kind == "macro":
            return (getattr(classes[0], name) + getattr(classes[1], name)) / 2.0
        return sum(getattr(cls, name) * cls.support for cls in classes) / sum(
            cls.support for cls in classes)

    @property
    def precision(self) -> float:
        return self.average(self.averaging, "precision")

    @property
    def recall(self) -> float:
        return self.average(self.averaging, "recall")

    @property
    def f1(self) -> float:
        return self.average(self.averaging, "f1")


@dataclass(frozen=True)
class SeedAggregate:
    """Per-metric (mean, sample std) pairs over repeated runs."""

    stats: dict
    n_runs: int


@dataclass(frozen=True)
class TTestResult:
    statistic: float
    df: int
    p_value: float
    corrected_p: float
    comparisons: int


def confusion(predicted, gold) -> ConfusionMatrix:
    """Count binary agreement between two equal-length 1-D label array-likes."""
    predicted, gold = np.asarray(predicted), np.asarray(gold)
    if len(predicted) != len(gold):
        raise ValueError(
            f"prediction/gold length mismatch: {len(predicted)} vs {len(gold)}"
        )
    if not len(predicted):
        raise ValueError("cannot build a confusion matrix from zero samples")
    valid = np.isin(predicted, _VALID_LABELS) & np.isin(gold, _VALID_LABELS)
    if not valid.all():
        pos = int(np.argmin(valid))
        raise ValueError(f"labels must be 0 or 1, got pred={predicted.tolist()[pos]!r} "
                         f"gold={gold.tolist()[pos]!r} at position {pos}")
    # Cell 2 * pred + gold: tn, fn, fp, tp.
    tn, fn, fp, tp = np.bincount(2 * predicted.astype(np.int64) + gold.astype(np.int64),
                                 minlength=4).tolist()
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


def read_counts(path) -> ConfusionMatrix:
    """The confusion matrix of a JSON object of integer tn, fp, fn and tp totalling at most 2**53."""
    payload = read_json(path)
    names = ("tn", "fp", "fn", "tp")
    if type(payload) is not dict:
        raise ValueError("counts file must hold a JSON object with tn/fp/fn/tp")
    for name in names:
        if type(payload.get(name)) is not int:
            raise ValueError(f"counts file {name} must be an integer, not {payload.get(name)!r}")
    cm = ConfusionMatrix(**{name: payload[name] for name in names})
    if cm.total > 2**53:
        raise ValueError("counts file tn + fp + fn + tp must not exceed 2**53")
    return cm


def read_predictions(path, known_ids) -> dict:
    """id -> 0/1 from a CSV file with the header id,pred, one row per id of known_ids with
    the text 0 or 1; RecordError names any other row."""
    known, preds = set(known_ids), {}
    rows = csv_rows(path, "predictions")
    line_no, header = next(rows, (1, None))
    if header != ["id", "pred"]:
        raise RecordError("predictions", line_no, f"expected prediction header id,pred, got {header}")
    for line_no, row in rows:
        if len(row) != 2:
            raise RecordError("predictions", line_no, f"malformed prediction row: {row}")
        doc_id = record_id("predictions", line_no, row[0], preds, known, what="prediction")
        preds[doc_id] = zero_or_one("predictions", line_no, "prediction", row[1])
    return preds


def _ratio(num: int, den: int) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def metrics(cm: ConfusionMatrix, averaging: str = "weighted") -> MetricsReport:
    """Accuracy and per-class precision/recall/F1, headlined per the averaging mode."""
    if averaging not in AVERAGING_MODES:
        raise ValueError(f"averaging must be one of {AVERAGING_MODES}, got {averaging!r}")
    per_class: dict[int, ClassMetrics] = {}
    degenerate = []
    for label in (0, 1):
        if label == 1:
            p_num, p_den = cm.tp, cm.tp + cm.fp
            r_num, r_den = cm.tp, cm.tp + cm.fn
        else:
            p_num, p_den = cm.tn, cm.tn + cm.fn
            r_num, r_den = cm.tn, cm.tn + cm.fp
        precision, p_deg = _ratio(p_num, p_den)
        recall, r_deg = _ratio(r_num, r_den)
        if precision + recall == 0.0:
            f1, f_deg = 0.0, True
        else:
            f1, f_deg = 2.0 * precision * recall / (precision + recall), False
        if p_deg or r_deg or f_deg:
            degenerate.append(label)
        per_class[label] = ClassMetrics(
            precision=precision, recall=recall, f1=f1, support=cm.support(label)
        )

    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / cm.total,
        per_class=per_class,
        averaging=averaging,
        degenerate_classes=tuple(degenerate),
    )


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation; a single value has std 0."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("cannot aggregate zero values")
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def aggregate(reports) -> SeedAggregate:
    """Mean/std of precision, recall, F1, and accuracy across per-seed reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("cannot aggregate zero reports")
    stats = {
        name: mean_std([getattr(report, name) for report in reports])
        for name in METRIC_NAMES
    }
    return SeedAggregate(stats=stats, n_runs=len(reports))


def bonferroni(p_value: float, n_comparisons: int) -> float:
    """min(1, p * m) correction for m simultaneous comparisons."""
    if n_comparisons < 1:
        raise ValueError("comparison count must be at least 1")
    if not 0.0 <= p_value <= 1.0:
        raise ValueError(f"p-value must lie in [0, 1], got {p_value}")
    return min(1.0, p_value * n_comparisons)


def paired_ttest(a, b, comparisons: int = 1) -> TTestResult:
    """Two-tailed paired t-test with Bonferroni correction over comparisons.

    t = mean / sqrt(var / n) with var the ddof=1 variance of the differences,
    in scipy's order of operations, computed on the differences scaled by the
    power of two that brings the largest |difference| into [0.5, 1). That
    scaling is exact, so t keeps its bits wherever the unscaled arithmetic
    neither underflows nor overflows. Finite scores whose difference would
    overflow are halved before they are subtracted. Differences that are all equal
    short-circuit: identical sequences give t=0, p=1; a constant non-zero gap
    gives t=+/-inf, p=0. A NaN or infinite score is a ValueError naming its
    sample and position.
    """
    a = [float(v) for v in a]
    b = [float(v) for v in b]
    for name, sample in (("a", a), ("b", b)):
        for pos, value in enumerate(sample):
            if not math.isfinite(value):
                raise ValueError(f"sample {name} holds {value} at position {pos}")
    if len(a) != len(b):
        raise ValueError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least two pairs")
    with np.errstate(over="ignore"):
        diffs = np.asarray(a) - np.asarray(b)
    if not np.isfinite(diffs).all():
        diffs = np.ldexp(a, -1) - np.ldexp(b, -1)
    df = n - 1
    if np.all(diffs == diffs[0]):
        if diffs[0] == 0.0:
            t, p = 0.0, 1.0
        else:
            t, p = math.copysign(math.inf, diffs[0]), 0.0
    else:
        # Imported here: scipy.special adds about 0.1 s to the package import.
        from scipy.special import stdtr

        scaled = np.ldexp(diffs, -math.frexp(float(np.abs(diffs).max()))[1])
        t = float(scaled.mean()) / math.sqrt(float(scaled.var(ddof=1)) / n)
        p = float(2.0 * stdtr(df, -abs(t)))  # scipy.stats.t.sf(|t|, df) is stdtr(df, -|t|)
    return TTestResult(
        statistic=t, df=df, p_value=p,
        corrected_p=bonferroni(p, comparisons), comparisons=comparisons,
    )


def report_as_dict(report: MetricsReport) -> dict:
    """JSON-friendly view of a metrics report."""
    return {
        "accuracy": report.accuracy,
        "averaging": report.averaging,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        **{kind: {name: report.average(kind, name) for name in ("precision", "recall", "f1")}
           for kind in ("weighted", "macro")},
        "per_class": {
            str(label): {
                "precision": cls.precision,
                "recall": cls.recall,
                "f1": cls.f1,
                "support": cls.support,
            }
            for label, cls in sorted(report.per_class.items())
        },
        "degenerate_classes": list(report.degenerate_classes),
        "total": sum(cls.support for cls in report.per_class.values()),
    }


def render_table(headers, rows) -> str:
    """Plain-text table with left-aligned, width-padded columns."""
    headers = [str(h) for h in headers]
    str_rows = [[str(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("table row width does not match the header")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths).rstrip(),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_metrics(report: MetricsReport, name: str = "run") -> str:
    """One-row text table in the column order Precision, Recall, F1, Accuracy."""
    row = [name] + [f"{getattr(report, metric):.4f}" for metric in METRIC_NAMES]
    return render_table(["", "Precision", "Recall", "F1", "Accuracy"], [row])


def render_aggregate(aggregates: dict) -> str:
    """Multi-run text table; cells are mean with a +/- sample-std suffix."""
    rows = []
    for name, agg in aggregates.items():
        cells = [name]
        for metric in METRIC_NAMES:
            mean, std = agg.stats[metric]
            cells.append(f"{mean:.4f}+/-{std:.4f}")
        rows.append(cells)
    return render_table(["", "Precision", "Recall", "F1", "Accuracy"], rows)
