"""Classification and calibration metrics.

All metrics operate on positive-class probability scores and binary
labels. AUROC uses the Mann-Whitney formulation with half credit for
ties; AUPRC is the step-wise average-precision sum over descending
unique thresholds, with tied scores grouped at one threshold. ECE uses
ten equal-width bins over [0, 1]. Multi-class helpers (accuracy and macro
precision/recall/F1) cover tasks with more than two classes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

ECE_BINS = 10  # equal-width calibration bins on [0, 1]


class MetricUndefinedError(ValueError):
    """The metric is undefined for the given label distribution."""


class MetricConfigError(ValueError):
    """Invalid metric configuration."""


@dataclass
class MetricsReport:
    """Binary metrics; an undefined one is None, its reason in ``undefined``."""
    auroc: float | None
    auprc: float | None
    ece: float
    brier: float
    mean_pos_prob: float | None
    n_pos: int
    n_neg: int
    undefined: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.undefined:
            del out["undefined"]
        return out


def _class_labels(values: np.ndarray, n_classes: int) -> np.ndarray:
    """Float ``values`` as int64 class indices; labels that are not integers,
    or lie outside [0, n_classes), are refused rather than cast."""
    if not np.all(np.isfinite(values) & (values == np.floor(values))):
        raise MetricConfigError("labels must be integer class indices")
    outside = values[(values < 0) | (values >= n_classes)]
    if outside.size:
        raise MetricConfigError(f"labels must lie in [0, {n_classes}), got "
                                f"{sorted({int(v) for v in outside.tolist()})}")
    return values.astype(np.int64)


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    values = np.asarray(labels, dtype=np.float64)
    if scores.shape != values.shape or scores.ndim != 1:
        raise MetricConfigError(f"scores {scores.shape} and labels {values.shape} "
                                "must be matching 1-d arrays")
    if not np.all(np.isfinite(scores)):
        raise MetricConfigError("scores must be finite")
    return scores, _class_labels(values, 2)


def midranks(values) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with ties sharing their mean rank, and the size of
    every tie group (singletons included) in ascending value order."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    new_group = np.ones(len(values), dtype=bool)
    new_group[1:] = sorted_values[1:] != sorted_values[:-1]
    starts = np.flatnonzero(new_group)
    sizes = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (2 * starts + sizes - 1) + 1.0, sizes)
    return ranks, sizes


def auroc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    scores, labels = _validate(scores, labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(f"AUROC needs both classes, got {n_pos} positive "
                                   f"and {n_neg} negative")
    ranks, _ = midranks(scores)
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision: sum of (recall step) * precision at each threshold."""
    scores, labels = _validate(scores, labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise MetricUndefinedError("AUPRC needs at least one positive sample")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    ends = np.flatnonzero(np.r_[sorted_scores[1:] != sorted_scores[:-1], True])
    tp = np.cumsum(labels[order] == 1)[ends]
    precision = tp / (ends + 1)
    recall = tp / n_pos
    # cumsum adds left to right, the order of the step-wise sum
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


def ece(scores, labels) -> float:
    """Expected calibration error over ``ECE_BINS`` equal-width bins on [0, 1]."""
    scores, labels = _validate(scores, labels)
    if np.any(scores < 0.0) or np.any(scores > 1.0):
        raise MetricConfigError("ece scores must lie in [0, 1]")
    n = len(scores)
    if n == 0:
        return 0.0
    idx = np.minimum((scores * ECE_BINS).astype(np.int64), ECE_BINS - 1)
    total = 0.0
    for b in range(ECE_BINS):
        members = idx == b
        n_b = int(members.sum())
        if n_b == 0:
            continue
        acc = labels[members].mean()
        conf = scores[members].mean()
        total += (n_b / n) * abs(acc - conf)
    return float(total)


def brier(scores, labels) -> float:
    """Mean squared error between probability and binary label."""
    scores, labels = _validate(scores, labels)
    if len(scores) == 0:
        return 0.0
    return float(np.mean((scores - labels) ** 2))


def mean_pos_prob(scores, labels) -> float:
    """Mean predicted probability over positive-class samples."""
    scores, labels = _validate(scores, labels)
    pos = scores[labels == 1]
    if len(pos) == 0:
        raise MetricUndefinedError("mean_pos_prob needs at least one positive sample")
    return float(pos.mean())


def binary_report(scores, labels) -> MetricsReport:
    scores, labels = _validate(scores, labels)
    values, undefined = {}, {}
    for name, metric in (("auroc", auroc), ("auprc", auprc),
                         ("mean_pos_prob", mean_pos_prob)):
        try:
            values[name] = metric(scores, labels)
        except MetricUndefinedError as exc:
            values[name] = None
            undefined[name] = str(exc)
    return MetricsReport(
        **values,
        ece=ece(scores, labels),
        brier=brier(scores, labels),
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
        undefined=undefined,
    )


def multiclass_report(probs, labels) -> dict:
    """Accuracy plus macro precision/recall/F1 for C > 2 tasks.

    ``probs`` is (n, C) with n >= 1 and C >= 2; ``labels`` holds one class
    in [0, C) per row.
    """
    probs = np.asarray(probs, dtype=np.float64)
    values = np.asarray(labels, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
        raise MetricConfigError(f"probs must be a 2-d (rows, classes) array with at least "
                                f"one row and two classes, got shape {probs.shape}")
    if not np.all(np.isfinite(probs)):
        raise MetricConfigError("probs must be finite")
    if values.shape != probs.shape[:1]:
        raise MetricConfigError(f"labels must be 1-d with one entry per row of probs, "
                                f"got shape {values.shape} for {probs.shape[0]} rows")
    n_classes = probs.shape[1]
    labels = _class_labels(values, n_classes)
    pred = probs.argmax(axis=1)
    precisions, recalls, f1s = [], [], []
    for c in range(n_classes):
        tp = int(((pred == c) & (labels == c)).sum())
        fp = int(((pred == c) & (labels != c)).sum())
        fn = int(((pred != c) & (labels == c)).sum())
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return {
        "accuracy": float((pred == labels).mean()),
        "precision_macro": float(np.mean(precisions)),
        "recall_macro": float(np.mean(recalls)),
        "f1_macro": float(np.mean(f1s)),
    }
