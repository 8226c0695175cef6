"""Closed-form debiasing: orthogonality, the dense projector oracle,
idempotence, optimality against random challengers, and k selection."""

import numpy as np
import pytest

from tabfair.errors import ConfigError, NumericalError
from tabfair.fair_projection import (
    FairProjectionConfig,
    build_sensitive_matrix,
    debias,
    select_k,
)
from tabfair.linalg import projector, rank_k_svd


def dense_residualizer(S):
    """I - S (S^T S)^-1 S^T from the normal equations, independent of
    the QR path under test."""
    return np.eye(S.shape[0]) - S @ np.linalg.solve(S.T @ S, S.T)


def random_instance(rng, n=None, p=None, s_cols=1):
    n = n or int(rng.integers(6, 16))
    p = p or int(rng.integers(3, 8))
    Z = rng.normal(size=(n, p))
    S = rng.integers(0, 2, size=(n, s_cols)).astype(float)
    # Ensure variation in every sensitive column.
    for j in range(s_cols):
        S[0, j], S[1, j] = 0.0, 1.0
    return Z, S


class TestConfig:
    def test_requires_k_or_target(self):
        with pytest.raises(ConfigError):
            FairProjectionConfig()

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            FairProjectionConfig(k=0)
        with pytest.raises(ConfigError):
            FairProjectionConfig(variance_target=0.0)
        with pytest.raises(ConfigError):
            FairProjectionConfig(variance_target=1.5)


class TestDebias:
    def test_orthogonality_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            Z, S = random_instance(rng)
            k = int(rng.integers(1, min(Z.shape) + 1))
            result = debias(Z, S, FairProjectionConfig(k=k))
            assert result.relative_residual < 1e-8
            assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)

    def test_orthogonality_multi_attribute(self):
        # Two stacked binary attributes removed simultaneously.
        rng = np.random.default_rng(4)
        for _ in range(20):
            Z, S = random_instance(rng, n=20, s_cols=2)
            if np.linalg.matrix_rank(S) < 2:
                continue
            result = debias(Z, S, FairProjectionConfig(k=3))
            assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)

    def test_matches_dense_oracle(self):
        # Brute-force path: materialize I - P_S and multiply.
        rng = np.random.default_rng(6)
        for _ in range(30):
            Z, S = random_instance(rng)
            k = int(rng.integers(1, min(Z.shape) + 1))
            result = debias(Z, S, FairProjectionConfig(k=k))
            Z_k = rank_k_svd(Z, k).reconstruction()
            explicit = dense_residualizer(S) @ Z_k
            assert np.allclose(result.Z_hat, explicit, atol=1e-10)

    def test_ones_column_centers(self):
        # S = all-ones: residualization subtracts column means.
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(9, 4))
        result = debias(Z, np.ones((9, 1)), FairProjectionConfig(k=4))
        Z_k = rank_k_svd(Z, 4).reconstruction()
        assert np.allclose(result.Z_hat, Z_k - Z_k.mean(axis=0), atol=1e-10)

    def test_fixed_point_when_already_orthogonal(self):
        rng = np.random.default_rng(12)
        Z, S = random_instance(rng, n=12, p=5)
        first = debias(Z, S, FairProjectionConfig(k=5)).Z_hat
        again = debias(first, S, FairProjectionConfig(k=np.linalg.matrix_rank(first)))
        assert np.allclose(again.Z_hat, first, atol=1e-8)

    def test_optimality_among_constrained_challengers(self):
        # No (I - P_S) R with rank-k R comes closer to Z in Frobenius
        # norm than the closed form.
        rng = np.random.default_rng(14)
        Z, S = random_instance(rng, n=10, p=6)
        for k in (1, 2, 3):
            best = np.linalg.norm(Z - debias(Z, S, FairProjectionConfig(k=k)).Z_hat)
            Q = np.eye(10) - projector(S)
            for _ in range(1000):
                R = rng.normal(size=(10, k)) @ rng.normal(size=(k, 6))
                challenger = Q @ R
                assert best <= np.linalg.norm(Z - challenger) + 1e-9

    def test_k_out_of_range(self):
        rng = np.random.default_rng(16)
        Z, S = random_instance(rng, n=6, p=4)
        with pytest.raises(ConfigError):
            debias(Z, S, FairProjectionConfig(k=5))

    def test_rank_deficient_s(self):
        rng = np.random.default_rng(18)
        Z = rng.normal(size=(8, 4))
        S = np.ones((8, 2))  # collinear columns
        with pytest.raises(NumericalError):
            debias(Z, S, FairProjectionConfig(k=2))

    def test_row_mismatch(self):
        with pytest.raises(ConfigError):
            debias(np.zeros((4, 2)), np.ones((5, 1)), FairProjectionConfig(k=1))

    def test_intercept_augmentation(self):
        rng = np.random.default_rng(20)
        Z, S = random_instance(rng, n=14, p=5)
        result = debias(Z, S, FairProjectionConfig(k=3, include_intercept=True))
        ones = np.ones((14, 1))
        assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)
        assert np.allclose(result.Z_hat.T @ ones, 0.0, atol=1e-8)

    def test_variance_target_overrides_k(self):
        Z = np.diag([4.0, 2.0, 1.0, 0.5])
        Z = np.vstack([Z, np.zeros((2, 4))])
        S = np.array([[1, 0, 1, 0, 1, 0]], dtype=float).T
        result = debias(Z, S, FairProjectionConfig(k=1, variance_target=1.0))
        assert result.k == 4


class TestSelectK:
    def test_rank_one(self):
        Z = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
        assert select_k(np.linalg.svd(Z, compute_uv=False), 0.9) == 1

    def test_hand_case_boundary(self):
        # Singular values (2, 1): cumulative fractions 0.8, 1.0.
        assert select_k([2.0, 1.0], 0.8) == 1
        assert select_k([2.0, 1.0], 0.81) == 2

    def test_target_one_needs_full_rank(self):
        rng = np.random.default_rng(22)
        D = np.linalg.svd(rng.normal(size=(6, 4)), compute_uv=False)
        assert select_k(D, 1.0) == 4
        # A zero tail adds no variance, so it is never selected.
        assert select_k([3.0, 2.0, 0.0, 0.0], 1.0) == 2

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            select_k([1.0, 1.0], 0.0)


class TestBuildSensitiveMatrix:
    def test_single_attribute(self, encoded):
        S = build_sensitive_matrix(encoded.S, encoded.sensitive_names, ["group"])
        assert S.shape == (encoded.n, 1)
        assert np.array_equal(S[:, 0], encoded.S[:, 0])

    def test_intercept_appended(self, encoded):
        # debias appends the intercept: the result has zero column means.
        S = build_sensitive_matrix(encoded.S, encoded.sensitive_names, ["group"])
        assert S.shape == (encoded.n, 1)
        Z = np.hstack([encoded.X_num, encoded.X_cat]) + 3.0
        config = FairProjectionConfig(k=3, include_intercept=True)
        Z_hat = debias(Z, S, config).Z_hat
        assert np.max(np.abs(Z_hat.mean(axis=0))) < 1e-12 * np.max(np.abs(Z_hat))
        assert np.allclose(Z_hat.T @ S, 0.0, atol=1e-10)

    def test_unknown_attribute(self, encoded):
        with pytest.raises(ConfigError, match="unknown sensitive attribute"):
            build_sensitive_matrix(encoded.S, encoded.sensitive_names, ["nope"])

    def test_duplicate_attribute_rank_deficient(self, encoded):
        # The slice keeps the duplicate; debias rejects it.
        S = build_sensitive_matrix(encoded.S, encoded.sensitive_names, ["group", "group"])
        assert S.shape == (encoded.n, 2)
        Z = np.hstack([encoded.X_num, encoded.X_cat])
        with pytest.raises(NumericalError, match="collinear"):
            debias(Z, S, FairProjectionConfig(k=3))

    def test_prefix_matching_for_multi_level(self, tmp_path):
        # A 3-level sensitive column contributes both indicator columns.
        from conftest import SCHEMA_TEXT, write_csv
        from tabfair import dataset as ds

        schema_text = SCHEMA_TEXT.replace(
            "column group sensitive privileged=B", "column group sensitive"
        )
        sfile = tmp_path / "s.schema"
        sfile.write_text(schema_text, encoding="utf-8")
        schema2 = ds.load_schema(sfile)
        rows = [
            ["1", "4", "red", "circle", "p", "yes"],
            ["2", "5", "red", "square", "q", "no"],
            ["3", "6", "red", "square", "r", "no"],
            ["4", "7", "blue", "square", "q", "yes"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema2)
        enc = ds.encode(raw, schema2)
        S = build_sensitive_matrix(enc.S, enc.sensitive_names, ["group"])
        assert S.shape == (4, 2)
        assert np.array_equal(S, enc.S)
