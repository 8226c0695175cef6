"""Acceptance gate: ten numbered criteria, one verdict line each.

Criteria 1 through 6 are pure-math properties and always run. Criteria
7 through 10 train on the German credit and Adult income CSVs and skip
loudly when data/german.csv or data/adult.csv is absent (this sandbox
has no route to the hosting archive; scripts/fetch_data.py downloads
both on a networked machine).

Run `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import functools
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tabfair.cli import main, read_provenance
from tabfair.errors import UndefinedMetricError
from tabfair.evaluation import (
    accuracy,
    disparate_impact,
    roc_auc,
    statistical_parity_difference,
)
from tabfair.fair_projection import FairProjectionConfig, debias
from tabfair.linalg import projector, rank_k_svd, residualize
from tabfair.neuralnet import MlpConfig, backward, forward, init_params

from test_neuralnet import fd_gradients, max_rel_error

ROOT = Path(__file__).resolve().parents[1]
GERMAN_CSV = ROOT / "data" / "german.csv"
ADULT_CSV = ROOT / "data" / "adult.csv"
CONFIGS = {"german": ROOT / "configs" / "german.json", "adult": ROOT / "configs" / "adult.json"}
RUN_BUDGET_SECONDS = {"german": 300.0, "adult": 1800.0}

_RUNS: dict[tuple[str, int], Path] = {}


def _verdict(number: int, label: str, verdict: str) -> None:
    print(f"criterion {number:02d} [{label}]: {verdict}", flush=True)


def criterion(number: int, label: str):
    """Print one pass/fail/skip line per criterion, then let pytest see
    the original outcome."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                _verdict(number, label, f"SKIP ({exc})")
                raise
            except BaseException:
                _verdict(number, label, "FAIL")
                raise
            _verdict(number, label, "PASS")
            return out

        return run

    return wrap


def require_data(*paths: Path) -> None:
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        pytest.skip(
            f"missing {', '.join(missing)}; the hosting archive is unreachable "
            "from this environment. Run scripts/fetch_data.py on a networked "
            "machine and re-run."
        )


def pipeline_run(dataset: str, seed: int) -> Path:
    """Run the full pipeline once per (dataset, seed) and cache the
    output directory; enforces the per-run wall-clock budget."""
    key = (dataset, seed)
    if key not in _RUNS:
        out = Path(tempfile.mkdtemp(prefix=f"acceptance-{dataset}-{seed}-"))
        started = time.monotonic()
        code = main(
            ["pipeline", "--config", str(CONFIGS[dataset]), "--seed", str(seed), "--out", str(out)]
        )
        elapsed = time.monotonic() - started
        assert code == 0, f"{dataset} pipeline exited with {code}"
        assert elapsed < RUN_BUDGET_SECONDS[dataset], f"run took {elapsed:.0f}s"
        _RUNS[key] = out
    return _RUNS[key]


def evaluation_numbers(run: Path) -> dict[str, float]:
    prov = read_provenance(run / "evaluate.provenance.txt")
    return {k: float(v) for k, v in prov.items() if k not in ("config_hash", "seed")}


@criterion(1, "gradient oracle")
def test_criterion_01_gradients_match_finite_differences():
    # 50 random small nets, both output heads. Configurations whose
    # hidden pre-activations sit within 1e-3 of a relu kink are redrawn:
    # there the parabolic-difference oracle itself is invalid.
    rng = np.random.default_rng(101)
    checked, attempts, worst = 0, 0, 0.0
    while checked < 50:
        attempts += 1
        assert attempts < 500, "could not sample differentiable configurations"
        depth = int(rng.integers(3, 6))
        widths = tuple(int(rng.integers(2, 6)) for _ in range(depth))
        output_activation = "sigmoid" if rng.random() < 0.5 else "linear"
        config = MlpConfig(
            layer_widths=widths,
            output_activation=output_activation,
            latent_index=int(rng.integers(1, depth - 1)),
        )
        params = init_params(config, seed=int(rng.integers(0, 10_000)))
        for b in params.biases:
            b[:] = rng.normal(scale=0.3, size=b.shape)
        X = rng.normal(size=(int(rng.integers(3, 7)), widths[0]))
        cache = forward(params, X)
        if min(float(np.min(np.abs(z))) for z in cache.pre[:-1]) <= 1e-3:
            continue
        if output_activation == "sigmoid":
            Y = rng.integers(0, 2, size=(X.shape[0], widths[-1])).astype(np.float64)
            kind = "bce"
        else:
            Y = rng.normal(size=(X.shape[0], widths[-1]))
            kind = "mse"
        grads = backward(params, cache, Y, kind)
        fd_w, fd_b = fd_gradients(params, X, Y, kind)
        worst = max(worst, max_rel_error(grads.weights, fd_w))
        worst = max(worst, max_rel_error(grads.biases, fd_b))
        checked += 1
    assert checked == 50
    assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"


@criterion(2, "SVD oracle and Eckart-Young optimality")
def test_criterion_02_svd_matches_gram_eigensolve():
    rng = np.random.default_rng(202)
    for _ in range(100):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        A = rng.normal(size=(n, m))
        r = min(n, m)
        got = rank_k_svd(A, r).D
        eigenvalues = np.linalg.eigvalsh(A.T @ A)[::-1]
        expected = np.sqrt(np.clip(eigenvalues, 0.0, None))[:r]
        assert np.max(np.abs(got - expected)) < 1e-8
    # No random rank-k matrix may reconstruct better than the truncation.
    for _ in range(25):
        n, m = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        A = rng.normal(size=(n, m))
        for k in range(1, min(n, m)):
            best = float(np.linalg.norm(A - rank_k_svd(A, k).reconstruction()))
            for _ in range(20):
                challenger = rng.normal(size=(n, k)) @ rng.normal(size=(k, m))
                assert best <= float(np.linalg.norm(A - challenger)) + 1e-12


@criterion(3, "projector laws")
def test_criterion_03_projector_laws_hold():
    rng = np.random.default_rng(303)
    for trial in range(50):
        n = int(rng.integers(6, 41))
        cols = int(rng.integers(1, 5))
        while True:
            S = np.where(rng.random(size=(n, cols)) < 0.5, 0.0, 1.0)
            if trial % 2:
                S[:, 0] = rng.normal(size=n)
            if np.linalg.matrix_rank(S) == cols:
                break
        P = projector(S)
        assert np.max(np.abs(P - P.T)) < 1e-10
        assert np.max(np.abs(P @ P - P)) < 1e-10
        assert np.max(np.abs((np.eye(n) - P) @ S)) < 1e-10
        assert abs(np.trace(P) - cols) < 1e-10


def _binary_sensitive(rng, n: int, cols: int) -> np.ndarray:
    while True:
        S = rng.integers(0, 2, size=(n, cols)).astype(np.float64)
        if all(0 < S[:, j].sum() < n for j in range(cols)) and np.linalg.matrix_rank(S) == cols:
            return S


@criterion(4, "debiasing orthogonality")
def test_criterion_04_debiased_representation_is_orthogonal_to_s():
    rng = np.random.default_rng(404)
    for trial in range(40):
        n = int(rng.integers(30, 201))
        p = int(rng.integers(4, 17))
        cols = 1 + trial % 3  # a third of the instances stack 2 or 3 attributes
        Z = rng.normal(size=(n, p)) + rng.normal(size=p)
        S = _binary_sensitive(rng, n, cols)
        config = FairProjectionConfig(k=int(rng.integers(1, p + 1)))
        result = debias(Z, S, config)
        assert result.relative_residual < 1e-8, f"instance {trial}"


def _dense_residualizer(S: np.ndarray) -> np.ndarray:
    """I - S (S^T S)^-1 S^T from the normal equations, independent of
    the QR path under test."""
    return np.eye(S.shape[0]) - S @ np.linalg.solve(S.T @ S, S.T)


@criterion(5, "debias matches dense projector oracle")
def test_criterion_05_blocked_debias_matches_dense():
    rng = np.random.default_rng(505)
    for n in (120, 400, 900):
        p = int(rng.integers(4, 13))
        Z = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0, size=p)
        S = _binary_sensitive(rng, n, int(rng.integers(1, 3)))
        config = FairProjectionConfig(k=int(rng.integers(1, p + 1)))
        Z_hat = debias(Z, S, config).Z_hat
        dense = _dense_residualizer(S) @ rank_k_svd(Z, config.k).reconstruction()
        assert np.max(np.abs(Z_hat - dense)) < 1e-10
    n = 300
    M = rng.normal(size=(n, 7))
    S = _binary_sensitive(rng, n, 2)
    dense = _dense_residualizer(S) @ M
    assert np.max(np.abs(residualize(S, M) - dense)) < 1e-10


def _rates(y_pred, s):
    n0 = sum(1 for g in s if g == 0)
    n1 = len(s) - n0
    pos0 = sum(1 for p, g in zip(y_pred, s) if g == 0 and p == 1)
    pos1 = sum(1 for p, g in zip(y_pred, s) if g == 1 and p == 1)
    return n0, n1, pos0, pos1


def _di_oracle(y_pred, s):
    n0, n1, pos0, pos1 = _rates(y_pred, s)
    if n0 == 0 or n1 == 0 or pos1 == 0:
        return None
    return Fraction(pos0, n0) / Fraction(pos1, n1)


def _spd_oracle(y_pred, s):
    n0, n1, pos0, pos1 = _rates(y_pred, s)
    if n0 == 0 or n1 == 0:
        return None
    return abs(Fraction(pos0, n0) - Fraction(pos1, n1))


def _auc_oracle(scores, y_true):
    n1 = sum(y_true)
    n0 = len(y_true) - n1
    if n0 == 0 or n1 == 0:
        return None
    ranks = {}
    for value in set(scores):
        below = sum(1 for v in scores if v < value)
        count = scores.count(value)
        # average rank of a tie group, 1-based
        ranks[value] = Fraction(2 * below + count + 1, 2)
    rank_sum = sum(ranks[v] for v, y in zip(scores, y_true) if y == 1)
    return (rank_sum - Fraction(n1 * (n1 + 1), 2)) / (n0 * n1)


@criterion(6, "fairness metrics equal exhaustive counting")
def test_criterion_06_metrics_match_counting_oracles_exactly():
    # DI and SPD read (y_pred, s), accuracy reads (y_pred, y_true), AUC
    # reads (scores, y_true): sweeping every ordered pair of binary
    # vectors therefore covers every binary triple of length <= 8.
    for n in range(1, 9):
        vectors = [[(bits >> i) & 1 for i in range(n)] for bits in range(2**n)]
        arrays = [np.array(v, dtype=np.int64) for v in vectors]
        for a, a_arr in zip(vectors, arrays):
            for b, b_arr in zip(vectors, arrays):
                want_di = _di_oracle(a, b)
                if want_di is None:
                    with pytest.raises(UndefinedMetricError):
                        disparate_impact(a_arr, b_arr)
                else:
                    assert disparate_impact(a_arr, b_arr) == float(want_di)
                want_spd = _spd_oracle(a, b)
                if want_spd is None:
                    with pytest.raises(UndefinedMetricError):
                        statistical_parity_difference(a_arr, b_arr)
                else:
                    assert statistical_parity_difference(a_arr, b_arr) == float(want_spd)
                assert accuracy(a_arr, b_arr) == sum(x == y for x, y in zip(a, b)) / n
                want_auc = _auc_oracle(a, b)
                if want_auc is None:
                    with pytest.raises(UndefinedMetricError):
                        roc_auc(a_arr.astype(np.float64), b_arr)
                else:
                    assert roc_auc(a_arr.astype(np.float64), b_arr) == float(want_auc)


@criterion(7, "trained losses beat constant baselines")
def test_criterion_07_german_networks_beat_baselines():
    require_data(GERMAN_CSV)
    run = pipeline_run("german", 0)
    prov = read_provenance(run / "train_embed.provenance.txt")
    ln2 = float(np.log(2.0))
    assert float(prov["final_val_bce"]) < ln2
    assert float(prov["final_train_bce"]) < ln2
    assert float(prov["final_val_mse"]) < 1.0
    assert float(prov["final_train_mse"]) < 1.0


@criterion(8, "German credit end-to-end bands")
def test_criterion_08_german_reproduction():
    require_data(GERMAN_CSV)
    runs = [pipeline_run("german", seed) for seed in (0, 1, 2)]
    prepared = read_provenance(runs[0] / "prepare.provenance.txt")
    assert int(prepared["rows"]) == 1000
    numbers = [evaluation_numbers(run) for run in runs]

    def mean(key: str) -> float:
        return sum(row[key] for row in numbers) / len(numbers)

    assert abs(mean("biased_accuracy") - 0.718) <= 0.05
    assert abs(mean("biased_roc_auc") - 0.74) <= 0.05
    assert mean("debiased_di_x100_age") > 80.0
    assert mean("debiased_spd_age") < 0.06
    assert abs(mean("debiased_accuracy") - 0.734) <= 0.05


@criterion(9, "Adult income end-to-end bands")
def test_criterion_09_adult_reproduction():
    require_data(ADULT_CSV)
    run = pipeline_run("adult", 0)
    prepared = read_provenance(run / "prepare.provenance.txt")
    assert int(prepared["rows"]) == 45222
    numbers = evaluation_numbers(run)
    assert abs(numbers["biased_accuracy"] - 0.85) <= 0.03
    assert abs(numbers["biased_roc_auc"] - 0.91) <= 0.03
    assert numbers["biased_di_x100_sex"] < 60.0
    assert numbers["biased_di_x100_race"] < 60.0
    # both attributes must clear the 80% rule in the same run
    assert numbers["debiased_di_x100_sex"] > 80.0
    assert numbers["debiased_di_x100_race"] > 80.0
    assert numbers["debiased_spd_sex"] < 0.05
    assert numbers["debiased_spd_race"] < 0.05
    assert numbers["debiased_accuracy"] >= numbers["biased_accuracy"] - 0.07


def _val_loss_first_and_final(path: Path) -> tuple[float, float]:
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return float(rows[0].split(",")[2]), float(rows[-1].split(",")[2])


@criterion(10, "validation loss decreases over training")
def test_criterion_10_loss_curves_descend():
    require_data(GERMAN_CSV, ADULT_CSV)
    for dataset in ("german", "adult"):
        run = pipeline_run(dataset, 0)
        for curve in ("loss_num_cat.csv", "loss_cat_num.csv"):
            first, final = _val_loss_first_and_final(run / curve)
            assert final < first, f"{dataset} {curve}"
