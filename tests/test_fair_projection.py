"""Closed-form debiasing: orthogonality, the dense projector oracle and
diagnostics, idempotence, optimality against random challengers, k
selection, and no factorization of the n x p Z."""

import numpy as np
import pytest

from tabfair.errors import ConfigError, DataError, NumericalError
from tabfair.fair_projection import (
    ORTHOGONALITY_TOL,
    FairProjectionConfig,
    _orthogonality_residual,
    debias,
    select_k,
    sensitive_design,
)
from tabfair.linalg import orthonormal_basis, projector, rank_k_svd, residualize


def dense_residualizer(S):
    """I - S (S^T S)^-1 S^T from the normal equations, independent of
    the QR path under test."""
    return np.eye(S.shape[0]) - S @ np.linalg.solve(S.T @ S, S.T)


def names(S):
    """One name per column of S: a, b, ..."""
    return [chr(ord("a") + j) for j in range(S.shape[1])]


def random_instance(rng, n=None, p=None, s_cols=1):
    n = n or int(rng.integers(6, 16))
    p = p or int(rng.integers(3, 8))
    Z = rng.normal(size=(n, p))
    S = rng.integers(0, 2, size=(n, s_cols)).astype(float)
    # Ensure variation in every sensitive column.
    for j in range(s_cols):
        S[0, j], S[1, j] = 0.0, 1.0
    return Z, S


# The sensitive columns of the shared `encoded` fixture's "group" attribute.
GROUP = FairProjectionConfig(k=1, attributes=["group"])


class TestConfig:
    def test_requires_k_or_target(self):
        with pytest.raises(ConfigError):
            FairProjectionConfig()

    @pytest.mark.parametrize("attributes, match", [
        ("group", "must be a list of str"), (["group", 1], "must be a list of str"),
        ([], "'attributes' is empty"),
    ])
    def test_bad_attributes(self, attributes, match):
        with pytest.raises(ConfigError, match=match):
            FairProjectionConfig(k=1, attributes=attributes)

    def test_no_attributes_selects_every_column(self):
        S = np.random.default_rng(3).normal(size=(6, 3))
        got, labels = sensitive_design(S, ["a", "b=x", "b=y"], FairProjectionConfig(k=1))
        assert np.array_equal(got, S) and labels == ["a", "b=x", "b=y"]

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
            result = debias(Z, S, names(S), FairProjectionConfig(k=k))
            assert result.relative_residual < 1e-8
            assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)

    def test_orthogonality_multi_attribute(self):
        # Two stacked binary attributes removed simultaneously.
        rng = np.random.default_rng(4)
        for _ in range(20):
            Z, S = random_instance(rng, n=20, s_cols=2)
            if np.linalg.matrix_rank(S) < 2:
                continue
            result = debias(Z, S, names(S), FairProjectionConfig(k=3))
            assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)

    def test_matches_dense_oracle(self):
        # Brute-force path: materialize I - P_S and multiply. Tall and
        # wide Z, a fixed k or a variance target, with and without the
        # intercept column; the diagnostics from the same dense values.
        rng = np.random.default_rng(6)
        for trial in range(60):
            if trial % 2:
                Z, S = random_instance(rng, n=int(rng.integers(3, 7)), p=int(rng.integers(7, 12)))
            else:
                Z, S = random_instance(rng)
            D = np.linalg.svd(Z, compute_uv=False)
            intercept = trial % 4 >= 2
            if trial % 3 == 0:
                target = float(rng.uniform(0.5, 1.0))
                config = FairProjectionConfig(variance_target=target, include_intercept=intercept)
                k = select_k(D, target)
            else:
                k = int(rng.integers(1, min(Z.shape) + 1))
                config = FairProjectionConfig(k=k, include_intercept=intercept)
            result = debias(Z, S, names(S), config)
            assert result.k == k
            S_full = np.hstack([S, np.ones((len(S), 1))]) if intercept else S
            Z_k = rank_k_svd(Z, k).reconstruction()
            explicit = dense_residualizer(S_full) @ Z_k
            assert np.allclose(result.Z_hat, explicit, atol=1e-10)
            assert abs(result.variance_kept - np.sum(D[:k] ** 2) / np.sum(D**2)) < 1e-10
            loss = np.linalg.norm(Z_k - explicit) / np.linalg.norm(Z_k)
            assert abs(result.information_loss - loss) < 1e-10

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_z(self, value):
        rng = np.random.default_rng(26)
        Z, S = random_instance(rng, n=8, p=3)
        Z[5, 1] = value
        with pytest.raises(DataError, match="Z contains non-finite"):
            debias(Z, S, names(S), FairProjectionConfig(k=2))

    def test_svd_never_sees_the_tall_matrix(self, monkeypatch):
        # The SVD runs on the p x p Gram matrix of Z, not on the n x p Z.
        # S's n x 1 design is factored once: one QR, then one SVD of its
        # R's leading block, so 1 + s SVDs in all.
        seen = {"svd": [], "qr": []}
        for name in seen:
            def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                seen[_name].append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        rng = np.random.default_rng(28)
        Z, S = random_instance(rng, n=500, p=8)
        debias(Z, S, names(S), FairProjectionConfig(k=3))
        assert seen["svd"] and max(rows for rows, _ in seen["svd"]) <= 8
        assert seen["qr"] == [(500, 1)]
        assert len(seen["svd"]) == 1 + 1

    def test_dead_units_are_exactly_zero(self):
        # An all-zero column of Z, a dead ReLU unit, is exactly 0 in N_k
        # and in Z_hat, not rounding noise of the Gram SVD.
        rng = np.random.default_rng(0)
        Z = np.maximum(rng.normal(size=(300, 12)) @ rng.normal(size=(12, 12)), 0.0)
        dead = [1, 5, 10]
        Z[:, dead] = 0.0
        S = rng.integers(0, 2, size=(300, 1)).astype(float)
        result = debias(Z, S, ["a"], FairProjectionConfig(k=6))
        assert np.all(result.N_k[dead] == 0.0)
        assert np.all(result.Z_hat[:, dead] == 0.0)
        assert result.Z_hat[:, np.setdiff1d(np.arange(12), dead)].any(axis=0).all()

    def test_gram_svd_matches_the_svd_of_z(self):
        # ReLU-like latents with dead units: the top k directions of
        # Z^T Z give the Z_hat of Z's own SVD to 1e-12 of its largest entry.
        rng = np.random.default_rng(40)
        X = rng.normal(size=(2000, 30))
        Z = np.maximum(X @ rng.normal(size=(30, 60)) + rng.normal(size=60), 0.0)
        Z[:, rng.choice(60, size=8, replace=False)] = 0.0
        S = rng.integers(0, 2, size=(2000, 2)).astype(float)
        for k in (5, 18, 30):
            Z_hat = debias(Z, S, names(S), FairProjectionConfig(k=k)).Z_hat
            expected, _ = residualize(S, rank_k_svd(Z, k).reconstruction())
            assert np.max(np.abs(Z_hat - expected)) <= 1e-12 * np.max(np.abs(expected)), k

    def test_variance_target_one_keeps_the_rank(self):
        # Dead units add no variance, so a target of 1 keeps rank(Z)
        # directions, not p. A running sum divided by a separately
        # summed total stopped short of 1 and selected the zero tail.
        S = np.zeros((300, 1))
        S[::2] = 1.0
        for seed in range(10):
            Z = np.maximum(np.random.default_rng(seed).normal(size=(300, 12)), 0.0)
            Z[:, -2:] = 0.0
            result = debias(Z, S, ["a"], FairProjectionConfig(variance_target=1.0))
            assert result.k == np.linalg.matrix_rank(Z) == 10, seed

    @pytest.mark.parametrize("scale", ["entries", "trace"])
    def test_overflowing_gram_matrix_is_numerical_error(self, scale):
        # Z is finite, but Z^T Z overflows: at 1e160 every entry does; at
        # 1.2e154 on a diagonal, only the sum of the squared singular values.
        rng = np.random.default_rng(42)
        Z, S = random_instance(rng, n=50, p=4)
        Z = Z * 1e160 if scale == "entries" else np.eye(50, 4) * 1.2e154
        with pytest.raises(NumericalError, match=r"^the Gram matrix Z\^T Z overflows float64"):
            debias(Z, S, names(S), FairProjectionConfig(k=2))

    def test_ones_column_centers(self):
        # S = all-ones: residualization subtracts column means.
        rng = np.random.default_rng(10)
        Z = rng.normal(size=(9, 4))
        result = debias(Z, np.ones((9, 1)), ["a"], FairProjectionConfig(k=4))
        Z_k = rank_k_svd(Z, 4).reconstruction()
        assert np.allclose(result.Z_hat, Z_k - Z_k.mean(axis=0), atol=1e-10)

    def test_fixed_point_when_already_orthogonal(self):
        rng = np.random.default_rng(12)
        Z, S = random_instance(rng, n=12, p=5)
        first = debias(Z, S, names(S), FairProjectionConfig(k=5)).Z_hat
        again = debias(first, S, names(S), FairProjectionConfig(k=np.linalg.matrix_rank(first)))
        assert np.allclose(again.Z_hat, first, atol=1e-8)

    def test_optimality_among_constrained_challengers(self):
        # No (I - P_S) R with rank-k R comes closer to Z in Frobenius
        # norm than the closed form.
        rng = np.random.default_rng(14)
        Z, S = random_instance(rng, n=10, p=6)
        for k in (1, 2, 3):
            best = np.linalg.norm(Z - debias(Z, S, names(S), FairProjectionConfig(k=k)).Z_hat)
            Q = np.eye(10) - projector(S)
            for _ in range(1000):
                R = rng.normal(size=(10, k)) @ rng.normal(size=(k, 6))
                challenger = Q @ R
                assert best <= np.linalg.norm(Z - challenger) + 1e-9

    def test_k_out_of_range(self):
        rng = np.random.default_rng(16)
        Z, S = random_instance(rng, n=6, p=4)
        with pytest.raises(ConfigError):
            debias(Z, S, names(S), FairProjectionConfig(k=5))

    def test_rank_deficient_s(self):
        rng = np.random.default_rng(18)
        Z = rng.normal(size=(8, 4))
        S = np.ones((8, 2))  # collinear columns
        with pytest.raises(DataError, match=r"^column 'b' of S is collinear with the "
                                            r"columns before it \['a'\]"):
            debias(Z, S, names(S), FairProjectionConfig(k=2))

    @pytest.mark.parametrize("include_intercept, columns", [(True, 2), (False, 3), (False, 4)])
    def test_s_spanning_every_row_is_data_error(self, include_intercept, columns):
        # n <= columns of S: (I - P_S) is 0 or S is collinear, and C
        # would be rounding noise that the relative gate divides by itself.
        rng = np.random.default_rng(22)
        Z = rng.normal(size=(3, 11))
        S = rng.integers(0, 2, size=(3, columns)).astype(float)
        config = FairProjectionConfig(k=2, include_intercept=include_intercept)
        with pytest.raises(DataError, match=f"S has {columns + include_intercept} columns"
                                            f"{' with the intercept' if include_intercept else ''}"
                                            " for 3 rows"):
            debias(Z, S, names(S), config)

    def test_row_mismatch(self):
        with pytest.raises(ConfigError, match="^S has 5 rows, expected 4$"):
            debias(np.zeros((4, 2)), np.ones((5, 1)), ["a"], FairProjectionConfig(k=1))

    @pytest.mark.parametrize("include_intercept", [False, True])
    def test_s_without_columns(self, include_intercept):
        config = FairProjectionConfig(k=1, include_intercept=include_intercept)
        with pytest.raises(ConfigError, match="no columns"):
            debias(np.eye(4, 2), np.zeros((4, 0)), [], config)

    def test_intercept_augmentation(self):
        rng = np.random.default_rng(20)
        Z, S = random_instance(rng, n=14, p=5)
        result = debias(Z, S, names(S), FairProjectionConfig(k=3, include_intercept=True))
        ones = np.ones((14, 1))
        assert np.allclose(result.Z_hat.T @ S, 0.0, atol=1e-8)
        assert np.allclose(result.Z_hat.T @ ones, 0.0, atol=1e-8)

    def test_variance_target_overrides_k(self):
        # A variance target and a k are two ranks; the config takes one.
        with pytest.raises(ConfigError, match="exactly one of k and variance_target"):
            FairProjectionConfig(k=1, variance_target=1.0)
        Z = np.diag([4.0, 2.0, 1.0, 0.5])
        Z = np.vstack([Z, np.zeros((2, 4))])
        S = np.array([[1, 0, 1, 0, 1, 0]], dtype=float).T
        assert debias(Z, S, names(S), FairProjectionConfig(variance_target=1.0)).k == 4


def relative_residual(M, S):
    """max |M^T S|, relative to ||M||_F ||S||_F (0 for an all-zero M)."""
    tiny = np.finfo(np.float64).tiny
    return np.max(np.abs(M.T @ S)) / (np.linalg.norm(M) * np.linalg.norm(S) + tiny)


class TestFactors:
    """debias returns Z_hat as its k coordinates C and basis N_k."""

    @staticmethod
    def instances(rng, count=40):
        # Tall and wide Z, a fixed k or a variance target, with and
        # without the intercept; nonnegative like the ReLU latents.
        for trial in range(count):
            wide = trial % 2
            # n exceeds the 3 columns of [S, 1]: otherwise (I - P_S) = 0
            # and C is rounding noise.
            n = int(rng.integers(5, 8)) if wide else int(rng.integers(20, 120))
            p = int(rng.integers(9, 13)) if wide else int(rng.integers(3, 15))
            Z, S = random_instance(rng, n=n, p=p, s_cols=1 + trial % 2)
            if np.linalg.matrix_rank(np.hstack([S, np.ones((n, 1))])) < S.shape[1] + 1:
                continue
            Z = np.abs(Z) * rng.uniform(0.1, 10.0, size=p)
            intercept = trial % 4 >= 2
            if trial % 3 == 0:
                config = FairProjectionConfig(variance_target=float(rng.uniform(0.5, 1.0)),
                                              include_intercept=intercept)
            else:
                config = FairProjectionConfig(k=int(rng.integers(1, min(n, p) + 1)),
                                              include_intercept=intercept)
            S_full = np.hstack([S, np.ones((n, 1))]) if intercept else S
            yield Z, S_full, debias(Z, S, names(S), config)

    def test_shapes_and_orthonormal_basis(self):
        for Z, _, result in self.instances(np.random.default_rng(30)):
            n, p = Z.shape
            assert result.C.shape == (n, result.k) and result.N_k.shape == (p, result.k)
            gram = result.N_k.T @ result.N_k
            assert np.max(np.abs(gram - np.eye(result.k))) < 1e-12

    def test_coordinates_orthogonal_to_s(self):
        for _, S, result in self.instances(np.random.default_rng(32)):
            assert relative_residual(result.C, S) < ORTHOGONALITY_TOL

    def test_z_hat_is_the_one_product(self):
        for _, _, result in self.instances(np.random.default_rng(34), count=10):
            product = result.C @ result.N_k.T
            assert np.array_equal(result.Z_hat.view(np.uint64), product.view(np.uint64))

    def test_factor_residual_matches_materialized(self):
        # The identity holds for any C, so check it where the residual
        # is not rounding noise: C not orthogonal to S.
        rng = np.random.default_rng(36)
        for _ in range(30):
            n, p = int(rng.integers(10, 60)), int(rng.integers(3, 12))
            k = int(rng.integers(1, p + 1))
            C = rng.normal(size=(n, k))
            N_k = np.linalg.qr(rng.normal(size=(p, k)))[0]
            S = rng.integers(0, 2, size=(n, 2)).astype(float)
            residual, relative = _orthogonality_residual(C, N_k, S)
            Z_hat = C @ N_k.T
            assert residual == pytest.approx(np.max(np.abs(Z_hat.T @ S)), rel=1e-12)
            assert relative == pytest.approx(relative_residual(Z_hat, S), rel=1e-12)
        # On debias's own output both are rounding noise, far below the
        # tolerance, and they differ by a negligible share of it.
        for _, S, result in self.instances(np.random.default_rng(38)):
            dense = relative_residual(result.Z_hat, S)
            assert dense < ORTHOGONALITY_TOL
            assert abs(result.relative_residual - dense) < 1e-3 * ORTHOGONALITY_TOL


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
    """sensitive_design: the S debias projects against, from the dataset's
    whole S and its names."""

    def test_single_attribute(self, encoded):
        S, labels = sensitive_design(encoded.S, encoded.sensitive_names, GROUP)
        assert S.shape == (encoded.n, 1) and labels == ["group"]
        assert np.array_equal(S[:, 0], encoded.S[:, 0])

    def test_intercept_appended(self, encoded):
        # The ones column follows the attribute's, and the debiased
        # result has zero column means.
        config = FairProjectionConfig(k=3, include_intercept=True, attributes=["group"])
        S, labels = sensitive_design(encoded.S, encoded.sensitive_names, config)
        assert S.shape == (encoded.n, 2) and labels == ["group", "intercept"]
        assert np.array_equal(S[:, 0], encoded.S[:, 0]) and np.all(S[:, 1] == 1.0)
        Z = np.hstack([encoded.X_num, encoded.X_cat]) + 3.0
        Z_hat = debias(Z, encoded.S, encoded.sensitive_names, config).Z_hat
        assert np.max(np.abs(Z_hat.mean(axis=0))) < 1e-12 * np.max(np.abs(Z_hat))
        assert np.allclose(Z_hat.T @ S, 0.0, atol=1e-10)

    def test_unknown_attribute(self, encoded):
        with pytest.raises(ConfigError, match="unknown sensitive attribute"):
            sensitive_design(encoded.S, encoded.sensitive_names,
                             FairProjectionConfig(k=1, attributes=["nope"]))

    def test_duplicate_attribute_rank_deficient(self, encoded):
        # The design keeps the duplicate, and its second copy is named.
        Z = np.hstack([encoded.X_num, encoded.X_cat])
        config = FairProjectionConfig(k=3, attributes=["group", "group"])
        with pytest.raises(DataError, match=r"'group' of S is collinear .* \['group'\]"):
            debias(Z, encoded.S, encoded.sensitive_names, config)

    def test_rank_check_names_the_collinear_column(self):
        rng = np.random.default_rng(5)
        S = rng.integers(0, 2, size=(12, 3)).astype(float)
        S[:2] = [[0, 0, 0], [1, 1, 1]]
        names = ["a", "b=x", "b=y"]
        def config(attributes, include_intercept=False):
            return FairProjectionConfig(k=1, attributes=attributes,
                                        include_intercept=include_intercept)

        # The rank test prepare runs: one QR of the design, by its labels.
        def basis(config):
            return orthonormal_basis(*sensitive_design(S, names, config))

        basis(config(["a", "b"], True))
        # b=y repeats a, in attribute order a, b=x, b=y ...
        S[:, 2] = S[:, 0]
        with pytest.raises(DataError, match=r"'b=y' of S is collinear .* \['a', 'b=x'\]"):
            basis(config(["a", "b"]))
        # ... and a repeats b=y in order b=x, b=y, a.
        with pytest.raises(DataError, match=r"'a' of S is collinear .* \['b=x', 'b=y'\]"):
            basis(config(["b", "a"]))
        # b=x + b=y = 1 on every row: the intercept is named.
        S[:, 2] = 1.0 - S[:, 1]
        basis(config(["b"]))
        centered = config(["b"], True)
        with pytest.raises(DataError, match=r"'intercept' of S is collinear"):
            basis(centered)
        # debias refuses what the design refuses, with the same named DataError.
        with pytest.raises(DataError, match=r"'intercept' of S is collinear"):
            debias(rng.normal(size=(12, 3)), S, names, centered)

    def test_names_the_column_residualize_indexes(self):
        # One rank test: a design refused by its labels, as prepare tests
        # it, is refused by residualize too, which names the same column
        # by its index.
        rng = np.random.default_rng(11)
        S = rng.integers(0, 2, size=(12, 2)).astype(float)
        names = ["a", "b"]
        ones = np.ones((12, 1))
        # a repeated; then a + b = 1 on every row, so the intercept is collinear.
        S[:, 1] = 1.0 - S[:, 0]
        cases = [(["a", "a"], False, S[:, [0, 0]], 1, "'a'", "['a']"),
                 (["a", "b"], True, np.hstack([S, ones]), 2, "'intercept'", "['a', 'b']")]
        for attributes, intercept, design, j, name, before in cases:
            config = FairProjectionConfig(k=1, attributes=attributes, include_intercept=intercept)
            with pytest.raises(DataError) as by_name:
                orthonormal_basis(*sensitive_design(S, names, config))
            with pytest.raises(DataError) as by_index:
                residualize(design, ones)
            assert str(by_name.value).startswith(f"column {name} of S is collinear with "
                                                 f"the columns before it {before};")
            assert str(by_index.value).startswith(f"column {j} of S is collinear with "
                                                  f"the columns before it {list(range(j))};")

    def test_debias_removes_only_the_configured_attributes(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(40, 6))
        S = rng.integers(0, 2, size=(40, 3)).astype(float)
        names = ["a", "b=x", "b=y"]
        got = debias(Z, S, names, FairProjectionConfig(k=3, attributes=["a"]))
        alone = debias(Z, S[:, :1], ["a"], FairProjectionConfig(k=3))
        assert np.array_equal(got.C.view(np.uint64), alone.C.view(np.uint64))
        assert np.array_equal(got.N_k.view(np.uint64), alone.N_k.view(np.uint64))
        assert relative_residual(got.C, S[:, :1]) < ORTHOGONALITY_TOL
        assert relative_residual(got.C, S[:, 1:]) > 1e-3
        # None removes every column, as naming every attribute does.
        every = debias(Z, S, names, FairProjectionConfig(k=3))
        named = debias(Z, S, names, FairProjectionConfig(k=3, attributes=["a", "b"]))
        assert np.array_equal(every.C.view(np.uint64), named.C.view(np.uint64))
        assert relative_residual(every.C, S) < ORTHOGONALITY_TOL

    def test_names_must_match_the_columns_of_s(self):
        rng = np.random.default_rng(9)
        Z, S = random_instance(rng, n=10, s_cols=2)
        with pytest.raises(DataError, match="^S has 2 columns for 3 sensitive names$"):
            debias(Z, S, ["a", "b", "c"], FairProjectionConfig(k=1))
        with pytest.raises(DataError, match="^S has 2 columns for 1 sensitive names$"):
            debias(Z, S, ["a"], FairProjectionConfig(k=1))
        # A repeated name is refused, also where attributes select by name.
        for attributes in (None, ["a"]):
            with pytest.raises(DataError, match="^sensitive name 'a' names more than one "
                                                "column of S$"):
                debias(Z, S, ["a", "a"], FairProjectionConfig(k=1, attributes=attributes))

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
        S, labels = sensitive_design(enc.S, enc.sensitive_names, GROUP)
        assert S.shape == (4, 2) and labels == enc.sensitive_names
        assert np.array_equal(S, enc.S)
