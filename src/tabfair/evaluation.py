"""Representation quality and group-fairness measurement.

A logistic probe (frozen features, trainable linear head only) gives
accuracy and ROC-AUC; disparate impact and statistical parity
difference are computed per sensitive attribute from the probe's test
predictions. The probe is a ridge logistic regression fit to
convergence by Newton's method, so it is the same function of the
representation under any rotation of its columns. Its loss is the BCE
the networks train on, taken from the logits (neuralnet._bce), and the
fit reports the objective and gradient norm at the weights where it
stopped. Group-rate metrics use exact integer counting before the
single final division.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import SplitIndices, spell, write_csv, write_key_values
from .errors import (ConfigError, DataError, NumericalError, UndefinedMetricError, as_matrix,
                     check_names)
from .neuralnet import _bce, _exp_neg_abs, _sigmoid

DI_PASS_THRESHOLD = 80.0  # DI x 100 must exceed this (strict) to pass

# The probe's ridge is lambda = PROBE_RIDGE / n_train on the weights,
# not the bias: the mean-loss form of the default L2 logistic
# regression (C = 1). It keeps the Hessian positive definite when Z has
# all-zero or duplicated columns, and the optimum finite on separable
# data.
PROBE_RIDGE = 1.0
# The fit stops once the Euclidean norm of the objective's gradient in
# [weights, bias] is below PROBE_TOL; not reaching it within
# PROBE_MAX_ITER Newton steps is a NumericalError.
PROBE_TOL = 1e-8
PROBE_MAX_ITER = 100
# Armijo sufficient-decrease constant of the backtracking line search,
# and the smallest step fraction it tries.
_ARMIJO = 1e-4
_MIN_STEP = 2.0**-40


@dataclass
class LogisticModel:
    """weights (p,) and bias for sigmoid(Z @ w + b). train_probe sets
    the rest at the weights where it stopped: iterations, its Newton
    step count; loss, the ridge objective on the training rows; and
    grad_norm, the Euclidean norm of that objective's gradient in
    [weights, bias], below PROBE_TOL."""

    weights: np.ndarray
    bias: float
    iterations: int = 0
    loss: float | None = None
    grad_norm: float | None = None


def _ridge_objective(theta: np.ndarray, Z: np.ndarray, y: np.ndarray):
    """(f, gradient, probabilities) at theta = [weights, bias], where f
    is the mean BCE of sigmoid(Z w + b) against y plus lambda/2 ||w||^2,
    lambda = PROBE_RIDGE / n. The BCE is the networks' _bce, taken from
    the logits u, so it is exact where the sigmoid saturates; it and the
    probabilities share e = exp(-|u|)."""
    n, p = Z.shape
    lam = PROBE_RIDGE / n
    w = theta[:p]
    u = Z @ w + theta[p]
    e = _exp_neg_abs(u)
    f = _bce(u, y, e) + 0.5 * lam * float(w @ w)
    pred = _sigmoid(u, e)
    r = (pred - y) / n
    return f, np.append(Z.T @ r + lam * w, r.sum()), pred


def _hessian(Z: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """The objective's (p + 1) x (p + 1) Hessian in [weights, bias]:
    [Z, 1]^T diag(s) [Z, 1] / n with s = pred (1 - pred), plus lambda on
    the weights' diagonal. The one n x p temporary is Z scaled by
    sqrt(s / n) per row; the bias row and column come from Z^T s."""
    n, p = Z.shape
    s = pred * (1.0 - pred)
    Zs = Z * np.sqrt(s / n)[:, None]
    H = np.empty((p + 1, p + 1))
    H[:p, :p] = Zs.T @ Zs
    del Zs
    H[:p, :p].flat[:: p + 1] += PROBE_RIDGE / n
    H[:p, p] = H[p, :p] = (Z.T @ s) / n
    H[p, p] = s.sum() / n
    return H


def train_probe(Z, y) -> LogisticModel:
    """Fit the ridge logistic head by Newton's method (IRLS) from zero
    weights, halving a step until it decreases the objective enough
    (Armijo), until the gradient norm is below PROBE_TOL. The objective
    is strictly convex, so the optimum is unique and the fit
    deterministic. The model carries the objective and gradient norm
    at its weights. Z is refused as as_matrix() refuses it, with one row
    per label, and labels not all 0/1, or of a single class, are a
    DataError; not converging within PROBE_MAX_ITER steps, or a line
    search that finds no decrease, is a NumericalError.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    Z = as_matrix(Z, "Z", rows=y.size)
    _binary(y, "y")  # as floats: a cast to int would truncate 0.5 to 0
    if y.size == 0 or y.min() == y.max():
        raise DataError("probe training labels contain a single class")
    p = Z.shape[1]
    theta = np.zeros(p + 1)
    f, g, pred = _ridge_objective(theta, Z, y)
    for it in range(PROBE_MAX_ITER + 1):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < PROBE_TOL:
            return LogisticModel(weights=theta[:p], bias=float(theta[p]), iterations=it,
                                 loss=f, grad_norm=grad_norm)
        if it == PROBE_MAX_ITER:
            break
        try:
            d = np.linalg.solve(_hessian(Z, pred), g)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"probe Hessian is singular at Newton step {it + 1}") from exc
        slope, t = float(g @ d), 1.0
        while True:
            candidate = theta - t * d
            f_new, g_new, pred_new = _ridge_objective(candidate, Z, y)
            if f_new <= f - _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP:
                raise NumericalError(
                    f"probe line search found no decrease at Newton step {it + 1} "
                    f"(gradient norm {grad_norm:.3e}, tolerance {PROBE_TOL:g})")
        theta, f, g, pred = candidate, f_new, g_new, pred_new
    raise NumericalError(f"probe did not converge in {PROBE_MAX_ITER} Newton steps: "
                         f"gradient norm {grad_norm:.3e}, tolerance {PROBE_TOL:g}")


def predict_proba(model: LogisticModel, Z) -> np.ndarray:
    """sigmoid(Z @ weights + bias) per row: as_matrix(Z, "Z"), refused also
    (a ConfigError) unless Z has the model's width."""
    Z = as_matrix(Z, "Z")
    if Z.shape[1] != model.weights.size:
        raise ConfigError(f"Z width {Z.shape[1]} != model width {model.weights.size}")
    return _sigmoid(Z @ model.weights + model.bias)


def _binary(v, name: str) -> np.ndarray:
    v = np.asarray(v).ravel()
    if not ((v == 0) | (v == 1)).all():
        raise DataError(f"{name} must contain only 0/1")
    return v.astype(np.int64)


def accuracy(y_pred, y_true) -> float:
    """Fraction of matching predictions."""
    y_pred = _binary(y_pred, "y_pred")
    y_true = _binary(y_true, "y_true")
    if y_pred.size != y_true.size or y_pred.size == 0:
        raise ConfigError("prediction and truth lengths must match and be non-empty")
    return int((y_pred == y_true).sum()) / y_pred.size


def _roc_counts(scores, y_true):
    """(thresholds, tp, fp, n_pos, n_neg): the distinct scores in
    descending order, and the true and false positives scored at or
    above each. One stable descending sort; the last index of each run
    of tied scores carries the counts at that threshold."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    y_true = _binary(y_true, "y_true")
    if scores.size != y_true.size:
        raise ConfigError("scores and labels must have equal length")
    if np.isnan(scores).any():
        raise DataError("scores contain NaN")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.append(ranked[1:] != ranked[:-1], True)
    tp = np.cumsum(y_true[order])[last]
    fp = np.flatnonzero(last) + 1 - tp
    return ranked[last], tp, fp, n_pos, n_neg


def roc_auc(scores, y_true) -> float:
    """Mann-Whitney AUC: (concordant + 0.5 * tied) / (pos * neg) pairs.
    A run of tied scores adding dtp positives and dfp negatives beats the
    n_neg - fp negatives below it and ties its own dfp; the doubled pair
    count is an exact integer, so the final division is the only rounding."""
    _, tp, fp, n_pos, n_neg = _roc_counts(scores, y_true)
    dtp = np.diff(tp, prepend=0)
    dfp = np.diff(fp, prepend=0)
    return int(dtp @ (2 * (n_neg - fp) + dfp)) / (2 * n_pos * n_neg)


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
    curve includes (0, 0)) and ending at the minimum score (1, 1). The
    counts come from the same sort as roc_auc()'s."""
    thresholds, tp, fp, n_pos, n_neg = _roc_counts(scores, y_true)
    return [(np.inf, 0.0, 0.0)] + list(
        zip(thresholds.tolist(), (tp / n_pos).tolist(), (fp / n_neg).tolist())
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

    test_scores holds the probe's test-row probabilities, roc their
    ROC curve (see roc_curve_points, save_roc_csv) and probe the fitted
    probe (see LogisticModel); report files store none of the three.
    Only save_report and report_provenance name its numbers, in the
    report file and in evaluate.provenance.txt.
    """

    accuracy: float
    roc_auc: float
    attributes: list[AttributeFairness]
    test_scores: np.ndarray | None = field(default=None, repr=False, compare=False)
    roc: list[tuple[float, float, float]] | None = field(default=None, repr=False, compare=False)
    probe: LogisticModel | None = field(default=None, repr=False, compare=False)


def evaluate_representation(
    Z,
    y,
    S,
    split: SplitIndices,
    sensitive_names: list[str],
) -> FairnessReport:
    """Train the probe on the train rows, score the test rows, draw their
    ROC curve, and compute fairness metrics on the test predictions. A
    DI left undefined by a zero privileged positive rate is recorded as
    None rather than raised. Z and S are refused as as_matrix() refuses
    them, with one row per label, and the names as check_names() refuses
    them; a split that does not hold each row once, or a y or S not all
    0/1, is a DataError."""
    y = np.asarray(y, dtype=np.float64).ravel()
    Z = as_matrix(Z, "Z", rows=y.size)
    S = as_matrix(S, "S", rows=y.size)
    check_names(S, sensitive_names)
    rows = np.sort(np.concatenate([split.train, split.test]))
    if not np.array_equal(rows, np.arange(y.size)):
        raise DataError(f"the split must hold each of the {y.size} rows once, "
                        "in train or in test")
    # Checked as floats: a cast to int would truncate 0.5 to 0.
    y_test = _binary(y, "y")[split.test]
    S = _binary(S, "S").reshape(S.shape)
    model = train_probe(Z[split.train], y[split.train])
    scores = predict_proba(model, Z[split.test])
    y_pred = (scores >= 0.5).astype(np.int64)
    attrs = []
    for j, name in enumerate(sensitive_names):
        s_test = S[split.test, j]
        spd = statistical_parity_difference(y_pred, s_test)
        try:
            di = disparate_impact(y_pred, s_test)
        except UndefinedMetricError:
            di = None
        attrs.append(AttributeFairness(name, None if di is None else di * 100.0, spd,
                                       di is not None and eighty_percent_rule(di)))
    return FairnessReport(accuracy=accuracy(y_pred, y_test), roc_auc=roc_auc(scores, y_test),
                          attributes=attrs, test_scores=scores,
                          roc=roc_curve_points(scores, y_test), probe=model)


REPORT_FORMAT = "tabfair-report 2"


def save_report(path, report: FairnessReport, dataset: str, representation: str) -> None:
    """Plain-text report, a key-value file (see write_key_values):
    dataset, representation tag, probe metrics, the attribute count,
    then one `sensitive` line per sensitive attribute."""
    write_key_values(path, REPORT_FORMAT, [
        ("dataset", dataset), ("representation", representation),
        ("accuracy", report.accuracy), ("roc_auc", report.roc_auc),
        ("attributes", len(report.attributes)),
        *(("sensitive", f"{a.name} di_x100 {spell(a.di_x100)} spd {spell(a.spd)} "
                        f"passes_80 {spell(a.passes_80_rule)}") for a in report.attributes),
    ])


def report_provenance(report: FairnessReport, representation: str) -> dict:
    """The entries of evaluate.provenance.txt for `report`, in order, each
    key prefixed `{representation}_`."""
    entries = {"accuracy": report.accuracy, "roc_auc": report.roc_auc,
               "probe_loss": report.probe.loss, "probe_grad_norm": report.probe.grad_norm,
               "probe_iterations": report.probe.iterations}
    for a in report.attributes:
        entries.update({f"di_x100_{a.name}": a.di_x100, f"spd_{a.name}": a.spd})
    return {f"{representation}_{key}": value for key, value in entries.items()}


def save_roc_csv(path, points: list[tuple[float, float, float]]) -> None:
    """FairnessReport.roc as a CSV (see write_csv); the sentinel
    threshold above every score is spelled inf."""
    write_csv(path, ("threshold", "tpr", "fpr"), points)
