"""Probe and fairness metrics against exact-rational brute-force
oracles and hand-evaluated cases."""

import dataclasses
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tabfair.dataset import SplitIndices
from tabfair.errors import ConfigError, DataError, UndefinedMetricError
from tabfair.evaluation import (
    FairnessReport,
    LogisticModel,
    ProbeConfig,
    accuracy,
    disparate_impact,
    eighty_percent_rule,
    evaluate_representation,
    predict_proba,
    probe_loss_and_grad_norm,
    roc_auc,
    roc_curve_points,
    save_report,
    save_roc_csv,
    statistical_parity_difference,
    train_probe,
)
from tabfair.neuralnet import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, _sigmoid

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


class TestProbe:
    def separable(self, n=60):
        rng = np.random.default_rng(5)
        y = np.repeat([0.0, 1.0], n // 2)
        Z = np.where(y[:, None] == 1.0, 1.0, -1.0) + rng.normal(scale=0.1, size=(n, 2))
        return Z, y

    def test_learns_separable_data(self):
        Z, y = self.separable()
        model = train_probe(Z, y, ProbeConfig(epochs=300))
        y_pred = (predict_proba(model, Z) >= 0.5).astype(int)
        assert accuracy(y_pred, y.astype(int)) == 1.0

    def test_zero_epochs_gives_half_probabilities(self):
        Z, y = self.separable()
        model = train_probe(Z, y, ProbeConfig(epochs=0))
        assert np.all(predict_proba(model, Z) == 0.5)
        assert np.all(model.weights == 0.0) and model.bias == 0.0

    def test_deterministic(self):
        Z, y = self.separable()
        m1 = train_probe(Z, y, ProbeConfig(epochs=50))
        m2 = train_probe(Z, y, ProbeConfig(epochs=50))
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_label_flip_negates_boundary(self):
        Z, y = self.separable()
        m_pos = train_probe(Z, y, ProbeConfig(epochs=400))
        m_neg = train_probe(Z, 1.0 - y, ProbeConfig(epochs=400))
        assert np.allclose(m_pos.weights, -m_neg.weights, atol=1e-3)
        assert m_pos.bias == pytest.approx(-m_neg.bias, abs=1e-3)

    def test_single_class_rejected(self):
        Z = np.zeros((4, 2))
        with pytest.raises(DataError):
            train_probe(Z, np.ones(4), ProbeConfig(epochs=1))

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
        with pytest.raises(ConfigError):
            predict_proba(model, np.zeros((3, 3)))

    def test_probe_loss_at_half_is_ln2(self):
        Z, y = self.separable()
        model = train_probe(Z, y, ProbeConfig(epochs=0))
        assert probe_loss_and_grad_norm(model, Z, y)[0] == pytest.approx(np.log(2.0), abs=1e-15)

    def test_bits_match_separate_moment_reference(self):
        # The probe shares the networks' Adam update over [w, b]; a loop
        # with separate weight and bias moments in the same operation
        # order must give the same bits.
        def reference_probe(Z, y, config):
            n, p = Z.shape
            w, b = np.zeros(p), 0.0
            m_w, v_w, m_b, v_b = np.zeros(p), np.zeros(p), 0.0, 0.0
            lr, b1, b2 = config.learning_rate, ADAM_BETA1, ADAM_BETA2
            for t in range(1, config.epochs + 1):
                delta = (_sigmoid(Z @ w + b) - y) / n
                g_w, g_b = Z.T @ delta, float(delta.sum())
                c1, c2 = 1.0 - b1**t, 1.0 - b2**t
                m_w = b1 * m_w + (1.0 - b1) * g_w
                v_w = b2 * v_w + ((1.0 - b2) * g_w) * g_w
                w = w - lr * (m_w / c1) / (np.sqrt(v_w / c2) + ADAM_EPS)
                m_b = b1 * m_b + (1.0 - b1) * g_b
                v_b = b2 * v_b + ((1.0 - b2) * g_b) * g_b
                b = b - lr * (m_b / c1) / (np.sqrt(v_b / c2) + ADAM_EPS)
            return w, b

        rng = np.random.default_rng(11)
        Z_big = rng.normal(size=(3000, 200))
        y_big = (Z_big[:, :5].sum(axis=1) + rng.normal(size=3000) > 0).astype(float)
        for Z, y, config in ((*self.separable(), ProbeConfig(epochs=300)),
                             (Z_big, y_big, ProbeConfig())):
            model = train_probe(Z, y, config)
            w, b = reference_probe(Z, y, config)
            assert np.array_equal(model.weights, w)
            assert model.bias == b

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            ProbeConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            ProbeConfig(epochs=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_learning_rate(self, value):
        # NaN fails `<= 0` as it fails every comparison.
        with pytest.raises(ConfigError, match="finite learning_rate"):
            ProbeConfig(learning_rate=value)


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
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,tpr,fpr"
        assert len(lines) == 4


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
        # The norm of the mean-BCE gradient at the final weights: that of
        # the mean of [z, 1] (1/2 - y) at the all-zero start, and under
        # 1% of it once Adam has converged. Reports compare without it.
        Z, y, S, split = self.make_setup()
        norms = []
        for epochs in (0, 100, 5000):
            report = evaluate_representation(Z, y, S, split, ["group"], ProbeConfig(epochs=epochs))
            norms.append(report.train_grad_norm)
        Zt, yt = Z[split.train], y[split.train]
        start = (0.5 - yt) / yt.size
        assert norms[0] == np.linalg.norm(np.append(Zt.T @ start, start.sum()))
        assert norms[0] > norms[1] > norms[2] and norms[2] < 0.01 * norms[0]
        assert report == dataclasses.replace(report, train_grad_norm=None)

    def test_informative_features_beat_chance(self):
        Z, y, S, split = self.make_setup()
        report = evaluate_representation(Z, y, S, split, ["group"])
        assert report.accuracy > 0.7
        assert report.roc_auc > 0.7

    def test_constant_features_are_chance(self):
        Z, y, S, split = self.make_setup()
        # Break ties toward the majority class with a zero-epoch probe:
        # all probabilities 0.5 -> all predictions 1.
        report = evaluate_representation(
            Z * 0.0 + 1.0, y, S, split, ["group"], ProbeConfig(epochs=0)
        )
        y_test = y[split.test]
        assert report.accuracy == pytest.approx(np.mean(y_test == 1.0))
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

    def test_name_count_must_match(self):
        Z, y, S, split = self.make_setup()
        with pytest.raises(ConfigError):
            evaluate_representation(Z, y, S, split, ["a", "b"])
        # A 1-D S, or Z, has no columns to name or fit.
        for args in ((Z, y, S[:, 0]), (Z[:, 0], y, S)):
            with pytest.raises(ConfigError, match="must be 2-D"):
                evaluate_representation(*args, split, ["group"])

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
