"""Metric correctness against brute-force oracles.

The oracles recompute every metric from first principles: quadratic
pair counting for AUROC, per-threshold curve reconstruction for AUPRC,
and explicit bin membership for ECE.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from decaygraph import metrics as mx
from decaygraph.metrics import MetricConfigError, MetricUndefinedError


# -- oracles -----------------------------------------------------------------

def auroc_pair_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def auprc_threshold_oracle(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        predicted = scores >= th
        tp = int(((labels == 1) & predicted).sum())
        precision = tp / int(predicted.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def ece_binning_oracle(scores, labels, bins=10):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n = len(scores)
    total = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        if b == bins - 1:
            members = (scores >= lo) & (scores <= hi)
        else:
            members = (scores >= lo) & (scores < hi)
        if members.sum() == 0:
            continue
        total += (members.sum() / n) * abs(labels[members].mean() - scores[members].mean())
    return total


# -- stated examples -----------------------------------------------------------

def test_auroc_perfect_and_inverted():
    assert mx.auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert mx.auroc([0.3, 0.7], [1, 0]) == 0.0


def test_auroc_needs_both_classes():
    with pytest.raises(MetricUndefinedError):
        mx.auroc([0.5, 0.6], [1, 1])


def test_auprc_perfect():
    assert mx.auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auprc_constant_scores_equal_prevalence():
    labels = [1, 0, 0, 1, 0]
    assert mx.auprc([0.4] * 5, labels) == pytest.approx(2 / 5, abs=1e-15)


def test_auprc_needs_a_positive():
    with pytest.raises(MetricUndefinedError):
        mx.auprc([0.1, 0.2], [0, 0])


def test_ece_perfectly_calibrated_bin():
    scores = [0.8] * 5
    labels = [1, 1, 1, 1, 0]
    assert mx.ece(scores, labels) == pytest.approx(0.0, abs=1e-15)


def test_ece_single_overconfident_sample():
    assert mx.ece([1.0], [0]) == 1.0


def test_ece_score_one_falls_in_last_bin():
    # both land in bin 9, conf 0.975, acc 0.5
    assert mx.ece([1.0, 0.95], [0, 1]) == pytest.approx(0.475)


def test_brier_examples():
    assert mx.brier([1.0], [1]) == 0.0
    assert mx.brier([0.5], [0]) == 0.25
    assert mx.brier([0.5], [1]) == 0.25


def test_brier_concatenation_is_weighted_mean():
    rng = np.random.default_rng(1)
    s1, l1 = rng.uniform(size=6), rng.integers(0, 2, 6)
    s2, l2 = rng.uniform(size=4), rng.integers(0, 2, 4)
    combined = mx.brier(np.concatenate([s1, s2]), np.concatenate([l1, l2]))
    expected = (6 * mx.brier(s1, l1) + 4 * mx.brier(s2, l2)) / 10
    assert combined == pytest.approx(expected, rel=1e-12)


def test_mean_pos_prob():
    assert mx.mean_pos_prob([0.7], [1]) == 0.7
    assert mx.mean_pos_prob([0.6, 0.8], [1, 1]) == pytest.approx(0.7)
    assert mx.mean_pos_prob([0.6, 0.8, 0.99], [1, 1, 0]) == pytest.approx(0.7)


# -- oracle agreement -----------------------------------------------------------

def random_instance(rng):
    n = int(rng.integers(2, 31))
    # coarse grid scores force plenty of ties
    scores = rng.integers(0, 11, n) / 10.0
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[int(rng.integers(0, n))] = 1
    if labels.sum() == n:
        labels[int(rng.integers(0, n))] = 0
    return scores, labels


def test_all_metrics_match_oracles_on_200_instances():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        scores, labels = random_instance(rng)
        assert abs(mx.auroc(scores, labels) - auroc_pair_oracle(scores, labels)) <= 1e-12
        assert abs(mx.auprc(scores, labels) - auprc_threshold_oracle(scores, labels)) <= 1e-12
        assert abs(mx.ece(scores, labels) - ece_binning_oracle(scores, labels)) <= 1e-12
        assert abs(mx.brier(scores, labels) - np.mean((scores - labels) ** 2)) <= 1e-12


# -- invariants -------------------------------------------------------------------

def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(7)
    transforms = [np.tanh, np.exp, lambda s: s ** 3 + 2 * s, lambda s: 5 * s - 1]
    for seed in range(20):
        r = np.random.default_rng(seed)
        scores = r.normal(size=15)
        labels = r.integers(0, 2, 15)
        if labels.sum() in (0, 15):
            continue
        base = mx.auroc(scores, labels)
        f = transforms[int(rng.integers(0, len(transforms)))]
        assert mx.auroc(f(scores), labels) == pytest.approx(base, abs=1e-12)


def test_auroc_complement_sums_to_one_without_ties():
    rng = np.random.default_rng(11)
    for _ in range(20):
        scores = rng.permutation(20) / 20.0  # unique scores
        labels = rng.integers(0, 2, 20)
        if labels.sum() in (0, 20):
            continue
        total = mx.auroc(scores, labels) + mx.auroc(1.0 - scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_auprc_bounds_vs_prevalence():
    labels = np.array([1, 1, 0, 0, 0, 0])
    prevalence = labels.mean()
    perfect = mx.auprc([0.9, 0.8, 0.4, 0.3, 0.2, 0.1], labels)
    constant = mx.auprc([0.5] * 6, labels)
    assert perfect >= prevalence
    assert constant == pytest.approx(prevalence, abs=1e-15)


def test_multiclass_report_perfect_predictions():
    probs = np.eye(3)[[0, 1, 2, 1]]
    report = mx.multiclass_report(probs, [0, 1, 2, 1])
    assert report["accuracy"] == 1.0
    assert report["f1_macro"] == 1.0


def multiclass_oracle(probs, labels):
    """Accuracy and macro precision, recall and F1 by a loop over rows per class."""
    n, n_classes = len(probs), len(probs[0])
    pred = [max(range(n_classes), key=lambda c: (probs[i][c], -c)) for i in range(n)]
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for i in range(n) if pred[i] == c and labels[i] == c)
        predicted = sum(1 for i in range(n) if pred[i] == c)
        actual = sum(1 for i in range(n) if labels[i] == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    return {
        "accuracy": sum(1 for i in range(n) if pred[i] == labels[i]) / n,
        "precision_macro": sum(p for p, _, _ in per_class) / n_classes,
        "recall_macro": sum(r for _, r, _ in per_class) / n_classes,
        "f1_macro": sum(f for _, _, f in per_class) / n_classes,
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 30), n_classes=st.integers(2, 6))
def test_multiclass_report_matches_per_class_loop(data, n, n_classes):
    # probabilities from a small grid, so argmax ties occur and go to the lower class
    grid = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
    probs = data.draw(st.lists(st.lists(grid, min_size=n_classes, max_size=n_classes),
                               min_size=n, max_size=n))
    labels = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    report = mx.multiclass_report(np.array(probs), labels)
    expected = multiclass_oracle(probs, labels)
    assert report.keys() == expected.keys()
    for key, value in expected.items():
        assert report[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


@pytest.mark.parametrize("probs, labels, problem", [
    (np.eye(3)[[0, 1, 2, 1]], [1], "one entry per row"),
    (np.eye(3)[[0, 1, 2, 1]], [[0, 1, 2, 1]], "one entry per row"),
    (np.eye(3)[[0, 1, 2, 1]], [0, 1, 5, 1], r"\[0, 3\), got \[5\]"),
    (np.eye(3)[[0, 1, 2, 1]], [0, -1, 2, 1], r"\[0, 3\), got \[-1\]"),
    (np.eye(3)[[0, 1, 2, 1]], [0, 1.5, 2, 1], "integer"),
    (np.eye(3)[[0, 1, 2, 1]], [0, np.nan, 2, 1], "integer"),
    (np.array([0.2, 0.8]), [1], "2-d"),
    (np.ones((3, 1)), [0, 0, 0], "two classes"),
    (np.ones((0, 3)), [], "at least one row"),
    (np.array([[0.5, np.nan], [0.5, 0.5]]), [0, 1], "finite"),
    (np.array([[np.inf, 0.0], [0.5, 0.5]]), [0, 1], "finite"),
])
def test_multiclass_report_refuses_bad_input(probs, labels, problem):
    with pytest.raises(MetricConfigError, match=problem):
        mx.multiclass_report(probs, labels)


def test_binary_report_fields_match_components():
    rng = np.random.default_rng(5)
    scores, labels = rng.uniform(size=12), rng.integers(0, 2, 12)
    labels[0], labels[1] = 1, 0
    report = mx.binary_report(scores, labels)
    assert report.auroc == mx.auroc(scores, labels)
    assert report.auprc == mx.auprc(scores, labels)
    assert report.ece == mx.ece(scores, labels)
    assert report.brier == mx.brier(scores, labels)
    assert report.mean_pos_prob == mx.mean_pos_prob(scores, labels)
    assert report.n_pos + report.n_neg == 12


# -- midranks ---------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4).map(float) | st.floats(-1e3, 1e3), max_size=40))
def test_midranks_match_scipy(raw):
    values = np.asarray(raw, dtype=np.float64)
    ranks, sizes = mx.midranks(values)
    np.testing.assert_array_equal(ranks, rankdata(values, method="average"))
    np.testing.assert_array_equal(sizes, np.unique(values, return_counts=True)[1])


# -- auprc against the tie-group loop it replaced -----------------------------------

def auprc_loop(scores, labels):
    """Average precision summed one tie group at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores, sorted_labels = scores[order], labels[order]
    ap, tp, fp, prev_recall, i, n = 0.0, 0, 0, 0.0, 0, len(scores)
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        group_tp = int((sorted_labels[i:j + 1] == 1).sum())
        tp += group_tp
        fp += (j - i + 1) - group_tp
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j + 1
    return ap


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6).map(lambda k: k / 6.0) | st.floats(0.0, 1.0),
                          st.integers(0, 1)), min_size=1, max_size=60))
def test_auprc_equals_tie_group_loop_exactly(pairs):
    scores = np.array([p[0] for p in pairs])
    labels = np.array([p[1] for p in pairs])
    labels[0] = 1
    assert mx.auprc(scores, labels) == auprc_loop(scores, labels)


# -- single-class splits --------------------------------------------------------------

@pytest.mark.parametrize("labels, undefined", [
    ([1, 1, 1], {"auroc"}),
    ([0, 0, 0], {"auroc", "auprc", "mean_pos_prob"}),
])
def test_binary_report_single_class_gives_nulls_with_reasons(labels, undefined):
    scores = [0.2, 0.5, 0.9]
    report = mx.binary_report(scores, labels).to_dict()
    assert set(report["undefined"]) == undefined
    for name in ("auroc", "auprc", "mean_pos_prob"):
        assert (report[name] is None) == (name in undefined)
    assert "both classes" in report["undefined"]["auroc"]
    assert report["brier"] == mx.brier(scores, labels)


def test_binary_report_omits_undefined_key_when_all_defined():
    assert "undefined" not in mx.binary_report([0.2, 0.9], [0, 1]).to_dict()


# -- label validation -------------------------------------------------------------------

BINARY_METRICS = (mx.binary_report, mx.auroc, mx.auprc, mx.ece, mx.brier, mx.mean_pos_prob)


@pytest.mark.parametrize("metric", BINARY_METRICS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("labels, problem", [
    ([0.7, 1, 1.9], "integer class indices"),
    ([0, np.nan, 1], "integer class indices"),
    ([0, np.inf, 1], "integer class indices"),
    ([0, 1, 2], r"\[0, 2\), got \[2\]"),
    ([-1, 1, 0], r"\[0, 2\), got \[-1\]"),
])
def test_binary_metrics_refuse_labels_that_are_not_0_or_1(metric, labels, problem):
    with pytest.raises(MetricConfigError, match=problem):
        metric([0.2, 0.9, 0.4], labels)


def test_binary_labels_as_bool_or_float_score_as_integers():
    expected = mx.binary_report([0.2, 0.9, 0.4], [0, 1, 1]).to_dict()
    assert mx.binary_report([0.2, 0.9, 0.4], [False, True, True]).to_dict() == expected
    assert mx.binary_report([0.2, 0.9, 0.4], [0.0, 1.0, 1.0]).to_dict() == expected
