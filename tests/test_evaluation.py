"""Probe and fairness metrics against exact-rational brute-force
oracles and hand-evaluated cases."""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tabfair.dataset import SplitIndices
from tabfair import evaluation
from tabfair.errors import ConfigError, DataError, NumericalError, UndefinedMetricError
from tabfair.evaluation import (
    PROBE_MAX_ITER,
    PROBE_TOL,
    FairnessReport,
    LogisticModel,
    _hessian,
    _ridge_objective,
    accuracy,
    disparate_impact,
    eighty_percent_rule,
    evaluate_representation,
    predict_proba,
    roc_auc,
    roc_curve_points,
    save_report,
    save_roc_csv,
    statistical_parity_difference,
    train_probe,
)
from tabfair.neuralnet import bce_loss


def ridge_fit(model, Z, y) -> tuple[float, float]:
    """The ridge objective and its gradient norm at the model's weights,
    computed afresh by _ridge_objective, not read from the model."""
    Z = np.asarray(Z, dtype=np.float64)
    assert Z.shape[1] == model.weights.size
    f, g, _ = _ridge_objective(np.append(model.weights, model.bias), Z,
                               np.asarray(y, dtype=np.float64).ravel())
    return f, float(np.linalg.norm(g))


# --- exact-rational oracles -------------------------------------------------


def di_oracle(y_pred, s):
    p0 = Fraction(sum(p for p, g in zip(y_pred, s) if g == 0), s.count(0))
    p1 = Fraction(sum(p for p, g in zip(y_pred, s) if g == 1), s.count(1))
    return float(p0 / p1)


def spd_oracle(y_pred, s):
    p0 = Fraction(sum(p for p, g in zip(y_pred, s) if g == 0), s.count(0))
    p1 = Fraction(sum(p for p, g in zip(y_pred, s) if g == 1), s.count(1))
    return float(abs(p0 - p1))


def accuracy_oracle(y_pred, y_true):
    return float(Fraction(sum(p == t for p, t in zip(y_pred, y_true)), len(y_true)))


def auc_oracle(scores, y_true):
    num = Fraction(0)
    pos = [sc for sc, t in zip(scores, y_true) if t == 1]
    neg = [sc for sc, t in zip(scores, y_true) if t == 0]
    for sp in pos:
        for sn in neg:
            if sp > sn:
                num += 1
            elif sp == sn:
                num += Fraction(1, 2)
    return float(num / (len(pos) * len(neg)))


def roc_oracle(scores, y_true):
    """Count true and false positives at every distinct score, highest
    first, behind the (inf, 0, 0) sentinel."""
    n_pos = sum(y_true)
    n_neg = len(y_true) - n_pos
    points = [(float("inf"), 0.0, 0.0)]
    for thr in sorted(set(scores), reverse=True):
        tp = sum(1 for sc, t in zip(scores, y_true) if sc >= thr and t == 1)
        fp = sum(1 for sc, t in zip(scores, y_true) if sc >= thr and t == 0)
        points.append((thr, tp / n_pos, fp / n_neg))
    return points


class TestMetricOracles:
    def test_di_spd_exact_on_all_small_binary_triples(self):
        # Every (y_pred, s) pair up to length 6 with both groups present.
        for n in range(2, 7):
            for y_pred in product((0, 1), repeat=n):
                for s in product((0, 1), repeat=n):
                    s_l = list(s)
                    if 0 not in s_l or 1 not in s_l:
                        continue
                    y_l = list(y_pred)
                    spd = statistical_parity_difference(y_l, s_l)
                    assert spd == spd_oracle(y_l, s_l)
                    pos1 = sum(p for p, g in zip(y_l, s_l) if g == 1)
                    if pos1 == 0:
                        with pytest.raises(UndefinedMetricError):
                            disparate_impact(y_l, s_l)
                    else:
                        assert disparate_impact(y_l, s_l) == di_oracle(y_l, s_l)

    def test_accuracy_exact_on_all_small_pairs(self):
        for n in range(1, 7):
            for y_pred in product((0, 1), repeat=n):
                for y_true in product((0, 1), repeat=n):
                    got = accuracy(list(y_pred), list(y_true))
                    assert got == accuracy_oracle(list(y_pred), list(y_true))

    def test_auc_exact_on_random_score_sets(self):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(300):
            n = int(rng.integers(2, 9))
            y = rng.integers(0, 2, size=n)
            if y.sum() in (0, n):
                continue
            # Draw from a small grid so ties actually happen.
            cases.append((rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n), y))
        for _ in range(12):
            # Probe-sized sets: saturated sigmoids tie at exactly 0 and 1,
            # next to long runs of distinct scores and grid ties.
            n = int(rng.integers(150, 400))
            logits = rng.normal(scale=rng.choice([1.0, 40.0, 800.0]), size=n)
            with np.errstate(over="ignore"):
                scores = 1.0 / (1.0 + np.exp(-logits))
            grid = rng.random(n) < 0.2
            scores[grid] = rng.choice([0.25, 0.5, 0.75], size=int(grid.sum()))
            cases.append((scores, (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)))
        saturated = 0
        for scores, y in cases:
            saturated += int(np.isin(scores, (0.0, 1.0)).sum() >= 2)
            got = roc_auc(scores, y)
            want = auc_oracle(scores.tolist(), y.tolist())
            assert got == want
        assert saturated >= 4

    def test_auc_monotone_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=40)
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        base = roc_auc(scores, y)
        assert roc_auc(3.0 * scores + 7.0, y) == pytest.approx(base, abs=1e-15)
        assert roc_auc(np.exp(scores), y) == pytest.approx(base, abs=1e-15)

    def test_metrics_ignore_y_true(self):
        # DI and SPD depend only on predictions and s.
        y_pred = [1, 0, 1, 1, 0, 1]
        s = [0, 0, 0, 1, 1, 1]
        di = disparate_impact(y_pred, s)
        spd = statistical_parity_difference(y_pred, s)
        assert di == di_oracle(y_pred, s)
        assert spd == spd_oracle(y_pred, s)


class TestMetricCases:
    def test_di_hand_case(self):
        assert disparate_impact([1, 0, 1, 1], [0, 0, 1, 1]) == 0.5

    def test_di_equal_rates(self):
        assert disparate_impact([1, 0, 1, 0], [0, 0, 1, 1]) == 1.0

    def test_di_zero_numerator(self):
        assert disparate_impact([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0

    def test_di_undefined_when_privileged_rate_zero(self):
        with pytest.raises(UndefinedMetricError, match="undefined"):
            disparate_impact([1, 1, 0, 0], [0, 0, 1, 1])

    def test_empty_group_rejected(self):
        with pytest.raises(UndefinedMetricError):
            disparate_impact([1, 0], [1, 1])
        with pytest.raises(UndefinedMetricError):
            statistical_parity_difference([1, 0], [0, 0])

    def test_spd_cases(self):
        assert statistical_parity_difference([1, 0, 1, 1], [0, 0, 1, 1]) == 0.5
        assert statistical_parity_difference([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
        assert statistical_parity_difference([1, 0, 1, 0], [0, 0, 1, 1]) == 0.0

    def test_eighty_percent_rule_strict_boundary(self):
        assert eighty_percent_rule(0.9)
        assert not eighty_percent_rule(0.8)
        assert not eighty_percent_rule(0.3317)
        # A rate ratio of exactly 4/5 must fail even though
        # float(4/5) * 100 lands a hair above 80.
        di = disparate_impact(
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0] + [1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
            [0] * 10 + [1] * 10,
        )
        assert di == 0.8
        assert not eighty_percent_rule(di)

    def test_accuracy_cases(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
        assert accuracy([1, 0], [0, 1]) == 0.0
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2.0 / 3.0)

    def test_auc_cases(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_auc_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_auc_nan_score_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, float("nan"), 0.8], [0, 1, 1])

    def test_non_binary_rejected(self):
        with pytest.raises(DataError):
            accuracy([2, 0], [1, 0])
        with pytest.raises(DataError):
            disparate_impact([1, 0], [0, 2])
        for bad in ([0.5, 1.0], [np.nan, 0.0], np.array(["1", 0], dtype=object),
                    np.array([None, 1], dtype=object)):
            with pytest.raises(DataError, match="y_pred must contain only 0/1"):
                accuracy(bad, [1, 0])
        assert accuracy(np.array([True, False]), [1, 0]) == 1.0


class TestProbe:
    def separable(self, n=60):
        rng = np.random.default_rng(5)
        y = np.repeat([0.0, 1.0], n // 2)
        Z = np.where(y[:, None] == 1.0, 1.0, -1.0) + rng.normal(scale=0.1, size=(n, 2))
        return Z, y

    @staticmethod
    def bench_shaped(n=2000, p=60, seed=11):
        """A noisy label on a few of p columns, with the degenerate
        columns a trained Z has: all-zero (dead) units and duplicates."""
        rng = np.random.default_rng(seed)
        Z = np.abs(rng.normal(size=(n, p)))
        Z[:, :6] = 0.0
        Z[:, 6:10] = Z[:, 10:14]
        y = (Z[:, 10:15].sum(axis=1) + rng.normal(size=n) > 4.0).astype(float)
        return Z, y

    def test_learns_separable_data(self):
        Z, y = self.separable()
        model = train_probe(Z, y)
        y_pred = (predict_proba(model, Z) >= 0.5).astype(int)
        assert accuracy(y_pred, y.astype(int)) == 1.0

    def test_dead_features_and_balanced_labels_give_half_probabilities(self):
        # The gradient at the all-zero start is zero: no step is taken.
        _, y = self.separable()
        model = train_probe(np.zeros((y.size, 3)), y)
        assert model.iterations == 0
        assert np.all(model.weights == 0.0) and model.bias == 0.0
        assert np.all(predict_proba(model, np.ones((4, 3))) == 0.5)

    def test_deterministic(self):
        Z, y = self.bench_shaped()
        m1 = train_probe(Z, y)
        m2 = train_probe(Z, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias and m1.iterations == m2.iterations

    def test_label_flip_negates_boundary(self):
        Z, y = self.separable()
        m_pos = train_probe(Z, y)
        m_neg = train_probe(Z, 1.0 - y)
        assert np.allclose(m_pos.weights, -m_neg.weights, atol=1e-9)
        assert m_pos.bias == pytest.approx(-m_neg.bias, abs=1e-9)

    def test_single_class_rejected(self):
        Z = np.zeros((4, 2))
        with pytest.raises(DataError):
            train_probe(Z, np.ones(4))

    @pytest.mark.parametrize("value", [np.nan, 0.5], ids=["nan", "half"])
    def test_label_not_0_or_1_is_a_data_error(self, value):
        # Bad data, refused before any Newton step: a NaN label would
        # end the line search as a numerical failure, and 0.5 be fitted.
        Z, y = self.separable()
        y[7] = value
        with pytest.raises(DataError, match="^y must contain only 0/1$"):
            train_probe(Z, y)

    def test_sigmoid_hand_value(self):
        model = LogisticModel(weights=np.array([1.0]), bias=0.0)
        got = predict_proba(model, np.array([[0.5]]))
        assert got[0] == pytest.approx(0.6224593312018546, abs=1e-16)

    def test_monotone_in_positive_weight_coordinate(self):
        model = LogisticModel(weights=np.array([2.0, -1.0]), bias=0.3)
        lo = predict_proba(model, np.array([[0.0, 0.5]]))[0]
        hi = predict_proba(model, np.array([[1.0, 0.5]]))[0]
        assert hi > lo

    def test_width_mismatch(self):
        model = LogisticModel(weights=np.array([1.0, 2.0]), bias=0.0)
        with pytest.raises(ConfigError, match="Z width 3 != model width 2"):
            predict_proba(model, np.zeros((3, 3)))
        with pytest.raises(ConfigError, match="^Z must be 2-D, got ndim=1$"):
            predict_proba(model, np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_z_is_a_data_error(self, value):
        # Bad data, not a failed fit: refused before any Newton step.
        Z, y = self.separable()
        Z[7, 1] = value
        with pytest.raises(DataError, match="^Z contains non-finite entries$"):
            train_probe(Z, y)
        model = LogisticModel(weights=np.array([1.0, 2.0]), bias=0.0)
        with pytest.raises(DataError, match="^Z contains non-finite entries$"):
            predict_proba(model, Z)

    def test_row_count_must_match_the_labels(self):
        Z, y = self.separable()
        with pytest.raises(ConfigError, match="^Z has 59 rows, expected 60$"):
            train_probe(Z[1:], y)

    def test_probe_loss_at_half_is_ln2(self):
        # At zero weights the ridge term is 0 and every probability 1/2.
        Z, y = self.separable()
        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        assert ridge_fit(model, Z, y)[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_objective_hand_value(self):
        # One row z = 2, y = 1 and one row z = 0, y = 0, at w = 1, b = -1:
        # logits 1 and -1, so the mean BCE is log(1 + e^-1), the ridge
        # term (1/2)(1/2) 1^2, and the gradient ((s(1) - 1) 2 / 2 + 1/2,
        # (s(1) - 1 + s(-1)) / 2) = (1/2 - s(-1), 0) with s the sigmoid.
        model = LogisticModel(weights=np.array([1.0]), bias=-1.0)
        loss, grad_norm = ridge_fit(model, np.array([[2.0], [0.0]]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(np.log1p(np.exp(-1.0)) + 0.25, abs=1e-15)
        assert grad_norm == pytest.approx(0.5 - 1.0 / (1.0 + np.e), abs=1e-15)

    @pytest.mark.parametrize("logits", ["ordinary", "800"])
    def test_objective_bce_is_the_networks(self, logits):
        # The objective is bce_loss on the logits plus the ridge term,
        # bit for bit; at logits of +-800 the BCE is exactly 0 or 800.
        # At the ordinary theta, mean(logaddexp(0, u) - y u) is one ulp off.
        if logits == "ordinary":
            Z, y = self.bench_shaped(n=60, p=20)
            theta = 0.25 * np.linspace(-0.7, 0.9, 21)
        else:
            Z, y = np.array([[800.0], [-800.0], [800.0], [-800.0]]), np.array([1.0, 1.0, 0.0, 0.0])
            theta = np.array([1.0, 0.0])
        w = theta[:-1]
        f, _, pred = _ridge_objective(theta, Z, y)
        u = Z @ w + theta[-1]
        assert f == bce_loss(u, y) + 0.5 * (evaluation.PROBE_RIDGE / y.size) * float(w @ w)
        assert np.array_equal(pred, evaluation._sigmoid(u))
        if logits == "800":
            assert f == 400.125

    def test_model_carries_its_fit(self):
        # loss and grad_norm are the objective and its gradient norm at
        # the returned weights, bit for bit, also when no step is taken.
        Z, y = self.separable()
        for Z, y in ((Z, y), (np.zeros_like(Z), y), self.bench_shaped()):
            model = train_probe(Z, y)
            assert (model.loss, model.grad_norm) == ridge_fit(model, Z, y)

    def newton_step_change(self, model, Z, y):
        """|f(theta - H^-1 g) - f(theta)| at the model's weights."""
        theta = np.append(model.weights, model.bias)
        f, g, pred = _ridge_objective(theta, Z, y)
        step = np.linalg.solve(_hessian(Z, pred), g)
        return abs(_ridge_objective(theta - step, Z, y)[0] - f)

    def test_converged_oracle(self):
        # At the returned weights the gradient is below the tolerance,
        # and one more full Newton step moves the objective by < 1e-12.
        for Z, y in (self.separable(), self.bench_shaped()):
            model = train_probe(Z, y)
            assert 0 < model.iterations <= PROBE_MAX_ITER
            assert ridge_fit(model, Z, y)[1] < PROBE_TOL
            assert self.newton_step_change(model, Z, y) < 1e-12

    def test_hessian_matches_gradient_differences(self):
        # Central differences of the analytic gradient give the Hessian.
        Z, y = self.bench_shaped(n=50, p=4)
        theta = np.array([0.3, -0.2, 0.1, 0.4, -0.5])
        H = _hessian(Z, _ridge_objective(theta, Z, y)[2])
        h = 1e-6
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            column = (_ridge_objective(theta + e, Z, y)[1]
                      - _ridge_objective(theta - e, Z, y)[1]) / (2 * h)
            assert np.allclose(H[:, j], column, atol=1e-7), j

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_converges_at_every_scale(self, scale):
        Z, y = self.bench_shaped()
        model = train_probe(Z * scale, y)
        assert ridge_fit(model, Z * scale, y)[1] < PROBE_TOL
        # Dead columns get no weight; duplicated columns share theirs.
        assert np.all(model.weights[:6] == 0.0)
        assert np.allclose(model.weights[6:10], model.weights[10:14], rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("flip", [False, True])
    def test_converges_on_separable_data(self, flip):
        # The ridge keeps the optimum finite where plain logistic
        # regression has none.
        Z, y = self.separable()
        y = 1.0 - y if flip else y
        model = train_probe(Z, y)
        assert ridge_fit(model, Z, y)[1] < PROBE_TOL
        assert np.all(np.isfinite(model.weights)) and np.linalg.norm(model.weights) < 100.0

    def test_rotation_invariant(self):
        # A probe on C and a probe on C N^T, N with orthonormal columns,
        # are the same function: the ridge penalizes ||w||, which the
        # rotation keeps.
        rng = np.random.default_rng(3)
        n, k, p = 1500, 8, 40
        C = rng.normal(size=(n, k))
        y = (C[:, 0] - C[:, 1] + rng.normal(size=n) > 0).astype(float)
        N = np.linalg.qr(rng.normal(size=(p, k)))[0]
        Z = C @ N.T
        train, test = slice(0, 1000), slice(1000, None)
        on_c = predict_proba(train_probe(C[train], y[train]), C[test])
        on_z = predict_proba(train_probe(Z[train], y[train]), Z[test])
        assert np.max(np.abs(on_c - on_z)) < 1e-8

    def test_not_converging_is_numerical_error(self, monkeypatch):
        Z, y = self.bench_shaped()
        monkeypatch.setattr(evaluation, "PROBE_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="did not converge in 1 Newton steps"):
            train_probe(Z, y)


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=30)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        pts = roc_curve_points(scores, y)
        assert pts[0][1:] == (0.0, 0.0)
        assert pts[-1][1:] == (1.0, 1.0)
        tprs = [p[1] for p in pts]
        fprs = [p[2] for p in pts]
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))

    def test_exact_on_tie_heavy_score_grids(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            scores = (rng.integers(0, 6, size=n) / 5.0).tolist()
            y = rng.integers(0, 2, size=n).tolist()
            y[0], y[1] = 0, 1
            pts = roc_curve_points(scores, y)
            assert pts == roc_oracle(scores, y)
            assert all(type(v) is float for pt in pts for v in pt)

    def test_nan_score_rejected(self):
        with pytest.raises(DataError):
            roc_curve_points([0.1, float("nan"), 0.8], [0, 1, 1])

    def test_counts_match_auc(self):
        # The curve and roc_auc share one sort: the trapezoid area under
        # the curve's points is the AUC, ties included.
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, 5, size=n) / 4.0
            y = rng.integers(0, 2, size=n)
            y[0], y[1] = 0, 1
            pts = roc_curve_points(scores, y)
            area = sum((f1 - f0) * (t0 + t1) / 2
                       for (_, t0, f0), (_, t1, f1) in zip(pts, pts[1:]))
            assert area == pytest.approx(roc_auc(scores, y), abs=1e-12)

    def test_csv_export(self, tmp_path):
        pts = roc_curve_points([0.2, 0.8], [0, 1])
        path = tmp_path / "roc.csv"
        save_roc_csv(path, pts)
        assert path.read_text(encoding="utf-8") == (
            "threshold,tpr,fpr\ninf,0,0\n0.80000000000000004,1,0\n0.20000000000000001,1,1\n")


class TestEvaluateRepresentation:
    def make_setup(self):
        rng = np.random.default_rng(21)
        n = 120
        y = rng.integers(0, 2, size=n).astype(float)
        s = rng.integers(0, 2, size=n).astype(float)
        # Features leak both the label and the group.
        Z = np.column_stack([
            y + rng.normal(scale=0.4, size=n),
            s + rng.normal(scale=0.4, size=n),
            rng.normal(size=n),
        ])
        S = s[:, None]
        idx = np.arange(n)
        split = SplitIndices(train=idx[: n // 2], test=idx[n // 2 :], seed=0,
                             test_fraction=0.5)
        return Z, y, S, split

    def test_report_shape_and_ranges(self):
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.roc_auc <= 1.0
        assert len(report.attributes) == 1
        a = report.attributes[0]
        assert a.name == "group"
        assert a.di_x100 >= 0.0
        assert 0.0 <= a.spd <= 1.0

    def test_train_grad_norm_falls_with_training(self):
        # The norm of the ridge objective's gradient: that of the mean
        # of [z, 1] (1/2 - y) at the all-zero start, and below the
        # tolerance at the probe's weights. Reports compare without the probe.
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        Zt, yt = Z[split.train], y[split.train]
        start = (0.5 - yt) / yt.size
        assert ridge_fit(report.probe, Zt, yt)[1] < PROBE_TOL < np.linalg.norm(
            np.append(Zt.T @ start, start.sum()))
        assert 0 < report.probe.iterations <= PROBE_MAX_ITER
        assert report == dataclasses.replace(report, probe=None)

    def test_informative_features_beat_chance(self):
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        assert report.accuracy > 0.7
        assert report.roc_auc > 0.7

    def test_constant_features_are_chance(self):
        Z, y, S, split = self.make_setup()
        # Every row gets the same score, so one class is predicted.
        report = evaluate_representation(Z * 0.0 + 1.0, y, S, split, ["group"])
        assert np.all(report.test_scores == report.test_scores[0])
        y_test = y[split.test]
        predicted = float(report.test_scores[0] >= 0.5)
        assert report.accuracy == pytest.approx(np.mean(y_test == predicted))
        assert report.roc_auc == 0.5

    def test_undefined_di_is_recorded_not_raised(self, tmp_path):
        # 10% positive labels and near-constant features: the probe
        # predicts no positives, so the privileged positive rate is 0.
        rng = np.random.default_rng(23)
        n = 200
        y = np.zeros(n)
        y[::10] = 1.0
        s = (np.arange(n) % 4 < 2).astype(float)
        Z = 1.0 + 1e-6 * rng.normal(size=(n, 3))
        idx = np.arange(n)
        split = SplitIndices(train=idx[idx % 20 < 10], test=idx[idx % 20 >= 10],
                             seed=0, test_fraction=0.5)
        report = evaluate_representation(Z, y, s[:, None], split, ["group"])
        assert np.all(report.test_scores < 0.5)
        a = report.attributes[0]
        assert a.di_x100 is None
        assert a.spd == 0.0
        assert a.passes_80_rule is False
        path = tmp_path / "report.txt"
        save_report(path, report, "synthetic", "biased")
        assert "sensitive group di_x100 undefined spd 0 passes_80 false\n" in path.read_text()

    def test_test_scores_match_refit_probe(self):
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        model = train_probe(Z[split.train], y[split.train])
        assert np.array_equal(report.test_scores, predict_proba(model, Z[split.test]))

    def test_roc_is_the_curve_of_the_test_scores(self):
        # The report draws the curve the AUC summarizes; like the scores
        # and the probe, it takes no part in comparing reports.
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        assert report.roc == roc_curve_points(report.test_scores, y[split.test])
        area = sum((f1 - f0) * (t0 + t1) / 2
                   for (_, t0, f0), (_, t1, f1) in zip(report.roc, report.roc[1:]))
        assert area == pytest.approx(report.roc_auc, abs=1e-12)
        assert report == dataclasses.replace(report, roc=None)
        assert "roc=" not in repr(report)

    def test_name_count_must_match(self):
        Z, y, S, split = self.make_setup()
        with pytest.raises(DataError, match="^S has 1 columns for 2 sensitive names$"):
            evaluate_representation(Z, y, S, split, ["a", "b"])
        # Two columns under one name would report one attribute twice.
        with pytest.raises(DataError, match="^sensitive name 'a' names more than one "
                                            "column of S$"):
            evaluate_representation(Z, y, np.hstack([S, 1.0 - S]), split, ["a", "a"])
        # A 1-D S, or Z, has no columns to name or fit.
        for args in ((Z, y, S[:, 0]), (Z[:, 0], y, S)):
            with pytest.raises(ConfigError, match="must be 2-D"):
                evaluate_representation(*args, split, ["group"])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_z_is_a_data_error(self, value):
        Z, y, S, split = self.make_setup()
        Z[split.test[0], 2] = value
        with pytest.raises(DataError, match="^Z contains non-finite entries$"):
            evaluate_representation(Z, y, S, split, ["group"])

    def test_row_counts_must_match_the_labels(self):
        # Checked before the names: each message names the matrix.
        Z, y, S, split = self.make_setup()
        for args, name in (((Z[1:], y, S), "Z"), ((Z, y, S[1:]), "S")):
            with pytest.raises(ConfigError, match=f"^{name} has 119 rows, expected 120$"):
                evaluate_representation(*args, split, ["a", "b"])

    def test_non_binary_s_or_y_is_data_error(self):
        # Cast to int, 0.5 and 0.7 would be scored as 0.
        Z, y, S, split = self.make_setup()
        S_half, y_soft = S.copy(), y.copy()
        S_half[split.test[:10], 0] = 0.5
        y_soft[split.test[:3]] = 0.7
        for args, name in (((y, S_half), "S"), ((y_soft, S), "y")):
            with pytest.raises(DataError, match=f"^{name} must contain only 0/1"):
                evaluate_representation(Z, *args, split, ["group"])

    @pytest.mark.parametrize("train, test", [
        ([0, 1, 2], [3, 4, 5]), ([0, 1, 2, 3], [3, 4, 5, 6]), ([-1, 1, 2], [3, 4, 5, 6]),
        ([0, 1, 2], [3, 4, 5, 6, 7]), ([], [0, 1, 2, 3, 4, 5, 6]),
    ])
    def test_split_must_cover_each_row_once(self, train, test):
        # A missing row, a duplicate, a negative index, one past the
        # last row, and every row in test with none to train on.
        Z, y = np.eye(7, 2), np.array([0, 1, 0, 1, 0, 1, 0], dtype=float)
        split = SplitIndices(train=np.array(train, dtype=np.int64),
                             test=np.array(test, dtype=np.int64), seed=0, test_fraction=0.5)
        with pytest.raises(DataError):
            evaluate_representation(Z, y, y[:, None], split, ["group"])

    def test_report_round_trip(self, tmp_path):
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        path = tmp_path / "report.txt"
        save_report(path, report, "synthetic", "biased")
        # Each number is written so that float() gives back its bits.
        a = report.attributes[0]
        assert path.read_text(encoding="utf-8") == (
            "tabfair-report 2\ndataset synthetic\nrepresentation biased\n"
            f"accuracy {report.accuracy:.17g}\nroc_auc {report.roc_auc:.17g}\nattributes 1\n"
            f"sensitive group di_x100 {a.di_x100:.17g} spd {a.spd:.17g} "
            f"passes_80 {str(a.passes_80_rule).lower()}\n"
        )
        lines = [line.split() for line in path.read_text(encoding="utf-8").splitlines()]
        assert float(lines[3][1]) == report.accuracy and float(lines[4][1]) == report.roc_auc
        assert float(lines[6][3]) == a.di_x100 and float(lines[6][5]) == a.spd
