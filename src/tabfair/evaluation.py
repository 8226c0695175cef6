"""Representation quality and group-fairness measurement.

A logistic probe (frozen features, trainable linear head only) gives
accuracy and ROC-AUC; disparate impact and statistical parity
difference are computed per sensitive attribute from the probe's test
predictions. Group-rate metrics use exact integer counting before the
single final division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import SplitIndices
from .errors import ConfigError, DataError, UndefinedMetricError
from .neuralnet import AdamState, _adam_update, _sigmoid, bce_loss

DI_PASS_THRESHOLD = 80.0  # DI x 100 must exceed this (strict) to pass


@dataclass(frozen=True)
class ProbeConfig:
    """Full-batch Adam settings for the logistic head; no regularization."""

    learning_rate: float = 0.01
    epochs: int = 500

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 0:
            raise ConfigError("probe needs learning_rate > 0 and epochs >= 0")


@dataclass
class LogisticModel:
    """weights (p,) and bias for sigmoid(Z @ w + b)."""

    weights: np.ndarray
    bias: float


def train_probe(Z, y, config: ProbeConfig = ProbeConfig()) -> LogisticModel:
    """Fit the linear head by full-batch Adam on mean BCE.

    Weights start at zero (all probabilities 0.5), so the fit is fully
    deterministic. Raises on a single-class label vector.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if Z.ndim != 2 or Z.shape[0] != y.size:
        raise ConfigError("Z must be 2-D with one row per label")
    if np.unique(y).size < 2:
        raise DataError("probe training labels contain a single class")
    n, p = Z.shape
    # theta is [weights, bias]; w is a view of its first p entries.
    theta = np.zeros(p + 1)
    w = theta[:p]
    state = AdamState(m=np.zeros(p + 1), v=np.zeros(p + 1), lr=config.learning_rate)
    for _ in range(config.epochs):
        pred = _sigmoid(Z @ w + theta[p])
        # Mean-BCE gradient through the sigmoid.
        delta = (pred - y) / n
        _adam_update(theta, np.append(Z.T @ delta, delta.sum()), state)
    return LogisticModel(weights=w, bias=float(theta[p]))


def predict_proba(model: LogisticModel, Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[1] != model.weights.size:
        raise ConfigError(
            f"Z width {Z.shape[1] if Z.ndim == 2 else '?'} != model width "
            f"{model.weights.size}"
        )
    return _sigmoid(Z @ model.weights + model.bias)


def predict_label(model: LogisticModel, Z, threshold: float = 0.5) -> np.ndarray:
    """Hard 0/1 predictions; probabilities >= threshold map to 1."""
    return (predict_proba(model, Z) >= threshold).astype(np.int64)


def probe_loss(model: LogisticModel, Z, y) -> float:
    y = np.asarray(y, dtype=np.float64).ravel()
    return bce_loss(predict_proba(model, Z)[:, None], y[:, None])


def _binary(v, name: str) -> np.ndarray:
    v = np.asarray(v).ravel()
    if not np.isin(v, (0, 1)).all():
        raise DataError(f"{name} must contain only 0/1")
    return v.astype(np.int64)


def accuracy(y_pred, y_true) -> float:
    """Fraction of matching predictions."""
    y_pred = _binary(y_pred, "y_pred")
    y_true = _binary(y_true, "y_true")
    if y_pred.size != y_true.size or y_pred.size == 0:
        raise ConfigError("prediction and truth lengths must match and be non-empty")
    return int((y_pred == y_true).sum()) / y_pred.size


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x, each tie run sharing the mean of its ranks.

    Every rank is a half-integer, computed exactly."""
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    starts = np.r_[True, x_sorted[1:] != x_sorted[:-1]]
    dense = np.empty(x.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    # count[j] is the number of values below the (j+1)-th distinct value.
    count = np.r_[np.flatnonzero(starts), x.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def roc_auc(scores, y_true) -> float:
    """Mann-Whitney AUC: (concordant + 0.5 * tied) / (pos * neg) pairs,
    computed via average ranks."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    y_true = _binary(y_true, "y_true")
    if scores.size != y_true.size:
        raise ConfigError("scores and labels must have equal length")
    if np.isnan(scores).any():
        raise DataError("scores contain NaN")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC-AUC needs both classes present")
    ranks = _average_ranks(scores)
    u = float(ranks[y_true == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _group_counts(y_pred, s) -> tuple[int, int, int, int]:
    """(positives | s=0, size of s=0, positives | s=1, size of s=1)."""
    y_pred = _binary(y_pred, "y_pred")
    s = _binary(s, "s")
    if y_pred.size != s.size:
        raise ConfigError("predictions and group vector must have equal length")
    n0 = int((s == 0).sum())
    n1 = int((s == 1).sum())
    if n0 == 0 or n1 == 0:
        raise UndefinedMetricError("both sensitive groups must be non-empty")
    pos0 = int(y_pred[s == 0].sum())
    pos1 = int(y_pred[s == 1].sum())
    return pos0, n0, pos1, n1


def disparate_impact(y_pred, s) -> float:
    """P(pred=1 | s=0) / P(pred=1 | s=1), s=1 being the privileged
    group. Integer cross-products keep the ratio exact up to the one
    final division; a zero privileged rate is an error, never inf."""
    pos0, n0, pos1, n1 = _group_counts(y_pred, s)
    if pos1 == 0:
        raise UndefinedMetricError(
            "disparate impact undefined: privileged positive rate is 0"
        )
    return (pos0 * n1) / (n0 * pos1)


def statistical_parity_difference(y_pred, s) -> float:
    """|P(pred=1 | s=0) - P(pred=1 | s=1)|, reported as a magnitude."""
    pos0, n0, pos1, n1 = _group_counts(y_pred, s)
    return abs(pos0 * n1 - pos1 * n0) / (n0 * n1)


def eighty_percent_rule(di: float) -> bool:
    """Pass iff DI x 100 strictly exceeds 80.

    Compared on the DI ratio itself (di > 0.8) so a rate ratio of
    exactly 4/5 fails: multiplying first by 100 would push the float
    4/5 a hair above 80 and flip the verdict.
    """
    return di > DI_PASS_THRESHOLD / 100.0


def roc_curve_points(scores, y_true) -> list[tuple[float, float, float]]:
    """(threshold, TPR, FPR) triples over descending unique score
    thresholds, starting from a sentinel above the maximum score (so the
    curve includes (0, 0)) and ending at the minimum score (1, 1)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    y_true = _binary(y_true, "y_true")
    if scores.size != y_true.size:
        raise ConfigError("scores and labels must have equal length")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC curve needs both classes present")
    # One stable descending sort; the last index of each run of tied
    # scores carries the counts at that threshold.
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    tp = np.cumsum(y_true[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    return [(np.inf, 0.0, 0.0)] + list(
        zip(ranked[last].tolist(), (tp / n_pos).tolist(), (fp / n_neg).tolist())
    )


@dataclass
class AttributeFairness:
    """DI x 100 is None when undefined (no privileged positives); an
    undefined DI does not pass the 80% rule."""

    name: str
    di_x100: float | None
    spd: float
    passes_80_rule: bool


@dataclass
class FairnessReport:
    """One probe evaluation: accuracy/ROC-AUC plus DI x 100 and SPD per
    sensitive attribute, mirroring one table row per attribute.

    test_scores holds the probe's test-row probabilities when the report
    comes from evaluate_representation; report files do not store them.
    """

    accuracy: float
    roc_auc: float
    attributes: list[AttributeFairness]
    test_scores: np.ndarray | None = field(default=None, repr=False, compare=False)


def evaluate_representation(
    Z,
    y,
    S,
    split: SplitIndices,
    sensitive_names: list[str],
    probe_config: ProbeConfig = ProbeConfig(),
) -> FairnessReport:
    """Train the probe on the train rows, score the test rows, and
    compute fairness metrics on the test predictions. A DI left
    undefined by a zero privileged positive rate is recorded as None
    rather than raised."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    S = np.asarray(S, dtype=np.float64)
    if S.shape[1] != len(sensitive_names):
        raise ConfigError("one name per sensitive column required")
    if Z.shape[0] != y.size or S.shape[0] != y.size:
        raise ConfigError("Z, y, and S row counts must match")
    model = train_probe(Z[split.train], y[split.train], probe_config)
    scores = predict_proba(model, Z[split.test])
    y_pred = (scores >= 0.5).astype(np.int64)
    y_test = y[split.test].astype(np.int64)
    attrs = []
    for j, name in enumerate(sensitive_names):
        s_test = S[split.test, j].astype(np.int64)
        spd = statistical_parity_difference(y_pred, s_test)
        try:
            di = disparate_impact(y_pred, s_test)
        except UndefinedMetricError:
            di = None
        attrs.append(
            AttributeFairness(
                name=name,
                di_x100=None if di is None else di * 100.0,
                spd=spd,
                passes_80_rule=di is not None and eighty_percent_rule(di),
            )
        )
    return FairnessReport(
        accuracy=accuracy(y_pred, y_test),
        roc_auc=roc_auc(scores, y_test),
        attributes=attrs,
        test_scores=scores,
    )


REPORT_FORMAT = "tabfair-report 1"


def format_di_x100(di_x100: float | None) -> str:
    """DI x 100 as written to reports and provenance: 17 significant
    digits, or 'undefined'."""
    return "undefined" if di_x100 is None else f"{di_x100:.17g}"


def save_report(path, report: FairnessReport, dataset: str, representation: str) -> None:
    """Plain-text report: dataset, representation tag, probe metrics,
    then one line per sensitive attribute."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(REPORT_FORMAT + "\n")
        fh.write(f"dataset {dataset}\n")
        fh.write(f"representation {representation}\n")
        fh.write(f"accuracy {report.accuracy:.17g}\n")
        fh.write(f"roc_auc {report.roc_auc:.17g}\n")
        for a in report.attributes:
            fh.write(
                f"sensitive {a.name} di_x100 {format_di_x100(a.di_x100)} spd {a.spd:.17g} "
                f"passes_80 {'true' if a.passes_80_rule else 'false'}\n"
            )


def load_report(path) -> FairnessReport:
    """Read a report written by save_report(). A truncated or malformed
    file, or one naming no sensitive attribute, is a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != REPORT_FORMAT:
        raise DataError(f"{path}: not a {REPORT_FORMAT!r} file")
    acc = auc = None
    attrs = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "accuracy":
                acc = float(parts[1])
            elif parts[0] == "roc_auc":
                auc = float(parts[1])
            elif parts[0] == "sensitive":
                attrs.append(
                    AttributeFairness(
                        name=parts[1],
                        di_x100=None if parts[3] == "undefined" else float(parts[3]),
                        spd=float(parts[5]),
                        passes_80_rule=parts[7] == "true",
                    )
                )
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{ln}: malformed {parts[0]} line") from exc
    if acc is None or auc is None or not attrs:
        raise DataError(f"{path}: missing accuracy, roc_auc or sensitive lines")
    return FairnessReport(accuracy=acc, roc_auc=auc, attributes=attrs)


def save_roc_csv(path, points: list[tuple[float, float, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,tpr,fpr\n")
        for thr, tpr, fpr in points:
            fh.write(f"{thr:.17g},{tpr:.17g},{fpr:.17g}\n")
