"""Tests for metrics, seed aggregation, and the paired t-test machinery."""

import csv
import json
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from stressgraph.evaluation import (
    AVERAGING_MODES,
    ConfusionMatrix,
    MetricsReport,
    SeedAggregate,
    TTestResult,
    aggregate,
    bonferroni,
    confusion,
    mean_std,
    metrics,
    paired_ttest,
    read_counts,
    read_predictions,
    render_aggregate,
    render_metrics,
    render_table,
    report_as_dict,
)

# Counts from the published confusion matrix used as the reference example.
REFERENCE_CM = ConfusionMatrix(tn=665, fp=18, fn=159, tp=27)


# ------------------------------------------------------------- confusion


def test_confusion_counts():
    cm = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
    assert cm.total == 5
    assert cm.support(1) == 3
    assert cm.support(0) == 2


def test_confusion_validation():
    with pytest.raises(ValueError):
        confusion([1], [1, 0])
    with pytest.raises(ValueError):
        confusion([], [])
    with pytest.raises(ValueError):
        confusion([2], [0])
    with pytest.raises(ValueError):
        confusion([0], ["x"])


def test_confusion_counts_numpy_arrays_and_names_a_bad_label():
    cm = confusion(np.array([1, 1, 0, 0, 1]), np.array([True, False, False, True, True]))
    assert (cm.tp, cm.fp, cm.fn, cm.tn) == (2, 1, 1, 1)
    assert all(type(count) is int for count in (cm.tp, cm.fp, cm.fn, cm.tn))
    with pytest.raises(ValueError) as exc:
        confusion(np.array([0, 1]), np.array([0, -1]))
    assert str(exc.value) == "labels must be 0 or 1, got pred=1 gold=-1 at position 1"


def test_confusion_matrix_type_checks():
    with pytest.raises(ValueError):
        ConfusionMatrix(tn=-1, fp=0, fn=0, tp=1)
    with pytest.raises(ValueError):
        ConfusionMatrix(tn=0.5, fp=0, fn=0, tp=1)
    with pytest.raises(ValueError):
        ConfusionMatrix(tn=0, fp=0, fn=0, tp=0)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
def test_confusion_invariant_under_paired_permutation(pairs):
    preds = [p for p, _ in pairs]
    gold = [g for _, g in pairs]
    base = confusion(preds, gold)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(pairs))
    shuffled = confusion([preds[i] for i in order], [gold[i] for i in order])
    assert base == shuffled


# --------------------------------------------------------------- metrics


def test_reference_matrix_reproduces_published_row():
    report = metrics(REFERENCE_CM)
    assert report.accuracy == pytest.approx(0.796318, abs=5e-4)
    assert report.average("weighted", "precision") == pytest.approx(0.762724, abs=5e-4)
    assert report.average("weighted", "recall") == pytest.approx(0.796318, abs=5e-4)
    assert report.average("weighted", "f1") == pytest.approx(0.743683, abs=5e-4)


def test_metrics_per_class_values():
    report = metrics(REFERENCE_CM)
    pos = report.per_class[1]
    assert pos.precision == pytest.approx(27 / 45, abs=1e-12)
    assert pos.recall == pytest.approx(27 / 186, abs=1e-12)
    assert pos.support == 186
    neg = report.per_class[0]
    assert neg.precision == pytest.approx(665 / 824, abs=1e-12)
    assert neg.recall == pytest.approx(665 / 683, abs=1e-12)
    assert neg.support == 683


def test_metrics_degenerate_zero_over_zero():
    # No predicted positives and no gold positives: precision/recall for the
    # positive class are 0/0, reported as 0.0 with the class flagged.
    report = metrics(ConfusionMatrix(tn=5, fp=0, fn=0, tp=0))
    pos = report.per_class[1]
    assert pos.precision == 0.0 and pos.recall == 0.0 and pos.f1 == 0.0
    assert report.degenerate_classes == (1,)
    assert report.accuracy == 1.0


def test_metrics_headline_follows_averaging():
    weighted = metrics(REFERENCE_CM, averaging="weighted")
    macro = metrics(REFERENCE_CM, averaging="macro")
    per_class = metrics(REFERENCE_CM, averaging="per_class")
    assert weighted.f1 == weighted.average("weighted", "f1")
    assert macro.f1 == macro.average("macro", "f1")
    assert macro.f1 != macro.average("weighted", "f1")
    # per_class keeps the table primary but the headline falls back to weighted.
    assert per_class.f1 == per_class.average("weighted", "f1")
    assert set(AVERAGING_MODES) == {"weighted", "macro", "per_class"}
    with pytest.raises(ValueError):
        metrics(REFERENCE_CM, averaging="micro")
    with pytest.raises(ValueError, match="'micro'"):
        weighted.average("micro", "f1")


def test_metrics_macro_is_unweighted_mean():
    report = metrics(REFERENCE_CM)
    assert report.average("macro", "f1") == pytest.approx(
        (report.per_class[0].f1 + report.per_class[1].f1) / 2, abs=1e-15
    )


@given(
    st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    .filter(lambda t: sum(t) > 0)
)
def test_weighted_recall_equals_accuracy(counts):
    tn, fp, fn, tp = counts
    report = metrics(ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp))
    assert report.average("weighted", "recall") == pytest.approx(report.accuracy, abs=1e-12)
    assert 0.0 <= report.average("weighted", "f1") <= 1.0 + 1e-12
    assert 0.0 <= report.average("macro", "f1") <= 1.0 + 1e-12


# ------------------------------------------------------------- aggregate


def _report_with_accuracy(acc_tenths: int) -> MetricsReport:
    # acc_tenths correct out of 10.
    return metrics(ConfusionMatrix(tn=acc_tenths, fp=10 - acc_tenths, fn=0, tp=0))


def test_mean_std_conventions():
    mean, std = mean_std([0.8, 0.9])
    assert mean == pytest.approx(0.85, abs=1e-12)
    assert std == pytest.approx(0.070710678, abs=1e-9)
    assert mean_std([0.7]) == (0.7, 0.0)
    with pytest.raises(ValueError):
        mean_std([])


def test_aggregate_over_reports():
    reports = [_report_with_accuracy(8), _report_with_accuracy(9)]
    agg = aggregate(reports)
    assert isinstance(agg, SeedAggregate)
    assert agg.n_runs == 2
    mean, std = agg.stats["accuracy"]
    assert mean == pytest.approx(0.85, abs=1e-12)
    assert std == pytest.approx(np.std([0.8, 0.9], ddof=1), abs=1e-12)
    assert set(agg.stats) == {"precision", "recall", "f1", "accuracy"}


def test_aggregate_single_run_has_zero_std():
    agg = aggregate([_report_with_accuracy(7)])
    assert agg.n_runs == 1
    assert agg.stats["f1"][1] == 0.0


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------- t-test


def test_paired_ttest_reference_example():
    # Differences 1,0,1,0,1: t = 0.6 / (0.5477/sqrt(5)) = 2.4495 at df 4.
    result = paired_ttest([1, 0, 1, 0, 1], [0, 0, 0, 0, 0])
    assert result.statistic == pytest.approx(2.4495, abs=1e-4)
    assert result.df == 4
    assert result.p_value == pytest.approx(0.0705, abs=1e-4)
    want = scipy.stats.ttest_rel([1, 0, 1, 0, 1], [0, 0, 0, 0, 0])
    assert result.statistic == pytest.approx(want.statistic, abs=1e-10)
    assert result.p_value == pytest.approx(want.pvalue, abs=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False, width=32),
            st.floats(0, 1, allow_nan=False, width=32),
        ),
        min_size=2,
        max_size=12,
    )
)
# Equal differences (here all -0.5 + 1e-12) whose variance scipy computes at
# rounding level, giving a statistic near -1.27e16: the package takes its
# constant-gap convention instead.
@example(pairs=[(float(np.float32(1e-12)), 0.5)] * 3)
def test_paired_ttest_matches_scipy(pairs):
    a = [p for p, _ in pairs]
    b = [q for _, q in pairs]
    result = paired_ttest(a, b)
    want = scipy.stats.ttest_rel(a, b)
    gap = a[0] - b[0]
    if all(p - q == gap for p, q in pairs):
        # scipy gives NaN or a rounding artifact for equal differences; the
        # package gives the documented convention.
        if gap == 0.0:
            assert (result.statistic, result.p_value) == (0.0, 1.0)
        else:
            assert (result.statistic, result.p_value) == (math.copysign(math.inf, gap), 0.0)
    else:
        assert result.statistic == pytest.approx(want.statistic, abs=1e-8)
        assert result.p_value == pytest.approx(want.pvalue, abs=1e-8)


def test_paired_ttest_identical_sequences():
    result = paired_ttest([0.5, 0.7, 0.9], [0.5, 0.7, 0.9])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.corrected_p == 1.0


def test_paired_ttest_constant_nonzero_gap():
    result = paired_ttest([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert result.statistic == math.inf
    assert result.p_value == 0.0
    down = paired_ttest([0.0, 0.0], [1.0, 1.0])
    assert down.statistic == -math.inf


def test_paired_ttest_scale_keeps_t_where_the_variance_would_under_or_overflow():
    # Differences scaled by a power of two have the same t. Unscaled, the
    # variance of the first two underflows or overflows (t = 0, p = 1), and
    # that of 1e-310 underflows to 0 while its mean does not (t = inf).
    want = paired_ttest([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    for tiny_or_huge in (2.0**-1074, 2.0**1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = paired_ttest([tiny_or_huge, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert got == want
    assert paired_ttest([1e-310, 0.0, 0.0], [0.0, 0.0, 0.0]).statistic == pytest.approx(1.0, abs=1e-12)


def test_paired_ttest_antisymmetric():
    a = [0.9, 0.8, 0.85, 0.95]
    b = [0.7, 0.75, 0.8, 0.9]
    fwd = paired_ttest(a, b)
    rev = paired_ttest(b, a)
    assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
    # Finite scores whose differences overflow a float64 give the t and p of
    # the halved scores, whose differences do not; once raised ValueError.
    huge_a, huge_b = [1e308, -1e308, 0.0], [-1e308, 1e308, 0.0]
    skewed_a = [1e308, -1e308, 5e307]
    for x, y in ((huge_a, huge_b), (huge_b, huge_a), (skewed_a, huge_b)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = paired_ttest(x, y)
        want = paired_ttest([v / 2 for v in x], [v / 2 for v in y])
        assert (got.statistic, got.p_value) == (want.statistic, want.p_value)
    assert paired_ttest(huge_a, huge_b).statistic == 0.0


def test_paired_ttest_validation():
    with pytest.raises(ValueError):
        paired_ttest([1.0], [0.0])
    with pytest.raises(ValueError):
        paired_ttest([1.0, 2.0], [0.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("sample", ["a", "b"])
def test_paired_ttest_refuses_a_non_finite_score(sample, value):
    scores = {"a": [0.5, 0.6, 0.7], "b": [0.4, 0.4, 0.5]}
    scores[sample][1] = value
    with pytest.raises(ValueError, match=f"^sample {sample} holds {value} at position 1$"):
        paired_ttest(scores["a"], scores["b"])


def test_paired_ttest_bonferroni_correction():
    result = paired_ttest([1, 0, 1, 0, 1], [0, 0, 0, 0, 0], comparisons=4)
    assert isinstance(result, TTestResult)
    assert result.comparisons == 4
    assert result.corrected_p == pytest.approx(min(1.0, result.p_value * 4), abs=1e-15)


def test_bonferroni_function():
    assert bonferroni(0.03, 3) == pytest.approx(0.09)
    assert bonferroni(0.5, 4) == 1.0
    assert bonferroni(0.2, 1) == 0.2
    with pytest.raises(ValueError):
        bonferroni(0.5, 0)
    with pytest.raises(ValueError):
        bonferroni(1.5, 2)


# ------------------------------------------------------------- rendering


def test_report_as_dict_shape():
    data = report_as_dict(metrics(REFERENCE_CM))
    assert data["accuracy"] == pytest.approx(0.796318, abs=5e-4)
    assert data["averaging"] == "weighted"
    assert set(data["per_class"]) == {"0", "1"}
    assert data["per_class"]["1"]["support"] == 186
    assert data["weighted"]["f1"] == pytest.approx(data["f1"], abs=1e-15)
    assert data["total"] == 869


# Counts small enough to hit every 0/0 case, and large enough that float
# rounding differs between orders of summation.
oracle_counts = st.integers(0, 3) | st.integers(0, 2**51)


@given(st.tuples(*[oracle_counts] * 4).filter(lambda t: sum(t) > 0),
       st.sampled_from(AVERAGING_MODES))
@example((0, 0, 0, 1), "macro")
@example((5, 0, 0, 0), "per_class")
@example((665, 18, 159, 27), "weighted")
def test_report_as_dict_matches_the_stored_average_formulas(counts, averaging):
    tn, fp, fn, tp = counts
    cm = ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)
    # json.dumps writes each float's shortest round-trip repr: equal text is equal bits.
    assert json.dumps(report_as_dict(metrics(cm, averaging))) == \
        json.dumps(oracles.reference_report_dict(cm, averaging))


def test_render_table_alignment():
    text = render_table(["name", "x"], [["a", "1.5"], ["bbbb", "22"]])
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert lines[1].startswith("----")
    assert lines[2].startswith("a   ")
    assert lines[3].startswith("bbbb")
    with pytest.raises(ValueError):
        render_table(["a"], [["1", "2"]])


def test_render_metrics_column_order():
    text = render_metrics(metrics(REFERENCE_CM), name="fused")
    header = text.splitlines()[0]
    assert header.index("Precision") < header.index("Recall") < header.index("F1") < header.index("Accuracy")
    assert "fused" in text
    assert "0.7437" in text


def test_render_aggregate_mean_std_cells():
    agg = aggregate([_report_with_accuracy(8), _report_with_accuracy(9)])
    text = render_aggregate({"model": agg})
    assert "0.8500+/-0.0707" in text
    assert "model" in text


# ------------------------------------------------------------- file readers

# Arbitrary JSON over the counts keys, and arbitrary bytes.
count_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 10**20) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["tn", "fp", "fn", "tp"]) | st.text(max_size=2),
                      inner, max_size=5),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | count_values.map(lambda v: json.dumps(v).encode()))
@example(b'{"tn": 0, "fp": 0, "fn": 0, "tp": 0}')
@example(b'{"tn": -1, "fp": 0, "fn": 0, "tp": 1}')
@example(b"[" * 100_000)
@example(b'{"tn": 9007199254740992, "fp": 0, "fn": 0, "tp": 0}')
@example(b'{"tn": 1' + b"0" * 400 + b', "fp": 0, "fn": 0, "tp": 0}')
def test_counts_fuzz_loads_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("counts") / "counts.json"
    path.write_bytes(data)
    try:
        cm = read_counts(path)
    except ValueError:
        return
    assert all(type(getattr(cm, name)) is int for name in ("tn", "fp", "fn", "tp"))
    assert cm.total > 0
    for averaging in AVERAGING_MODES:
        assert report_as_dict(metrics(cm, averaging))["total"] == cm.total


KNOWN_IDS = ["d0", "d1", "d2"]
# id,pred rows over near-valid fields, and arbitrary bytes.
prediction_fields = (st.sampled_from(KNOWN_IDS + ["0", "1", "2", "-1", " 1", "x", '"', ""])
                     | st.text(max_size=3))
prediction_files = st.lists(st.lists(prediction_fields, max_size=3).map(",".join), max_size=5).map(
    lambda rows: "\n".join(["id,pred", *rows]).encode()
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | prediction_files)
@example(b"id,pred\nd0,1\nd0,0\n")
@example(b'id,pred\n"d1\n')
@example(b"id,pred\nd1,\x00\n")
def test_predictions_fuzz_loads_or_raises_value_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pred") / "pred.csv"
    path.write_bytes(data)
    try:
        preds = read_predictions(path, KNOWN_IDS)
    except ValueError:
        return
    assert set(preds) <= set(KNOWN_IDS)
    assert all(type(pred) is int and pred in (0, 1) for pred in preds.values())


def test_predictions_field_over_the_csv_limit_names_its_line(tmp_path):
    path = tmp_path / "pred.csv"
    path.write_text("id,pred\nd0,0\nd1," + "1" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError, match=r"^line 3: invalid CSV \(field larger than field limit"):
        read_predictions(path, KNOWN_IDS)
