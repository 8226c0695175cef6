"""Linear-algebra layer, checked against an independent one-sided
Jacobi SVD written out below and against hand-reduced small cases; the
matrix text writer, against per-value %.17g (conftest.per_value_text)."""

import io
import os
import signal
import tracemalloc

import numpy as np
import pytest

import tabfair
from conftest import per_token_values, per_value_text, random_finite_floats, text_matrix
from tabfair import linalg
from tabfair.errors import ConfigError, DataError
from tabfair.linalg import (
    SvdResult,
    explained_variance,
    load_matrix,
    orthonormal_basis,
    projector,
    rank_k_svd,
    residualize,
    save_matrix,
)


def jacobi_svd(A, sweeps=100, tol=1e-15):
    """Oracle: one-sided Jacobi. Rotates column pairs of A until all are
    mutually orthogonal; column norms are then the singular values."""
    U = np.array(A, dtype=np.float64)
    m = U.shape[1]
    V = np.eye(m)
    for _ in range(sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = U[:, p] @ U[:, p]
                aqq = U[:, q] @ U[:, q]
                apq = U[:, p] @ U[:, q]
                if app * aqq > 0:
                    off = max(off, abs(apq) / np.sqrt(app * aqq))
                if apq == 0.0:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                if abs(zeta) > 1e150:  # zeta*zeta would overflow; use the limit
                    t = 1.0 / (2.0 * zeta)
                else:
                    t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                up, uq = U[:, p].copy(), U[:, q].copy()
                U[:, p], U[:, q] = c * up - s * uq, s * up + c * uq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p], V[:, q] = c * vp - s * vq, s * vp + c * vq
        if off < tol:
            break
    sigma = np.sqrt((U * U).sum(axis=0))
    order = np.argsort(-sigma)
    return sigma[order], V[:, order]


def rank_k_oracle(A, k):
    """Best rank-k approximation via the Jacobi factors."""
    sigma, V = jacobi_svd(A)
    Vk = V[:, :k]
    return (A @ Vk) @ Vk.T  # A V_k V_k^T = U_k S_k V_k^T


class TestRankKSvd:
    def test_identity(self):
        res = rank_k_svd(np.eye(2), 2)
        assert np.allclose(res.D, [1.0, 1.0])
        assert np.allclose(res.reconstruction(), np.eye(2))

    def test_rank_one_input_exact(self):
        Z = np.outer([1.0, 2.0], [3.0, 4.0])
        res = rank_k_svd(Z, 1)
        assert np.linalg.norm(Z - res.reconstruction()) < 1e-12

    def test_hand_two_by_two(self):
        # A^T A = [[25, 20], [20, 25]], eigenvalues 45 and 5.
        A = np.array([[3.0, 0.0], [4.0, 5.0]])
        res = rank_k_svd(A, 2)
        assert res.D == pytest.approx(
            [6.708203932499369, 2.23606797749979], abs=1e-12
        )

    def test_singular_values_match_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(2, 9))
            Z = rng.normal(size=(n, p))
            k = min(n, p)
            res = rank_k_svd(Z, k)
            sigma, _ = jacobi_svd(Z)
            assert np.allclose(res.D, sigma[:k], atol=1e-8)

    def test_singular_values_match_gram_eigensolve(self):
        # Second independent route: eigendecomposition of Z^T Z.
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            p = int(rng.integers(2, 9))
            Z = rng.normal(size=(n, p))
            evals = np.sort(np.linalg.eigvalsh(Z.T @ Z))[::-1]
            k = min(n, p)
            res = rank_k_svd(Z, k)
            assert np.allclose(res.D**2, np.clip(evals[:k], 0.0, None), atol=1e-8)

    def test_rank_k_reconstruction_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            p = int(rng.integers(3, 9))
            Z = rng.normal(size=(n, p))
            for k in range(1, min(n, p) + 1):
                got = rank_k_svd(Z, k).reconstruction()
                want = rank_k_oracle(Z, k)
                assert np.allclose(got, want, atol=1e-9)

    def test_eckart_young_beats_random_challengers(self):
        rng = np.random.default_rng(17)
        Z = rng.normal(size=(7, 5))
        for k in (1, 2, 3):
            best = np.linalg.norm(Z - rank_k_svd(Z, k).reconstruction())
            for _ in range(1000):
                R = rng.normal(size=(7, k)) @ rng.normal(size=(k, 5))
                assert best <= np.linalg.norm(Z - R) + 1e-12

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            Z = rng.normal(size=(8, 6))
            res = rank_k_svd(Z, 4)
            assert np.allclose(res.M.T @ res.M, np.eye(4), atol=1e-10)
            assert np.allclose(res.N.T @ res.N, np.eye(4), atol=1e-10)
            assert np.all(np.diff(res.D) <= 1e-12)
            assert np.all(res.D >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            Z = rng.normal(size=(6, 4))
            res = rank_k_svd(Z, 3)
            for j in range(3):
                i = np.argmax(np.abs(res.N[:, j]))
                assert res.N[i, j] > 0

    def test_k_out_of_range(self):
        Z = np.eye(3)
        with pytest.raises(ConfigError):
            rank_k_svd(Z, 0)
        with pytest.raises(ConfigError):
            rank_k_svd(Z, 4)

    def test_non_finite_rejected(self):
        Z = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(DataError):
            rank_k_svd(Z, 1)


class TestExplainedVariance:
    def test_single_nonzero(self):
        assert np.allclose(explained_variance([2.0, 0.0]), [1.0, 1.0])

    def test_hand_case(self):
        # 4/5 then 5/5.
        got = explained_variance([2.0, 1.0])
        assert got[0] == pytest.approx(0.8, abs=1e-15)
        assert got[1] == 1.0

    def test_last_entry_exactly_one(self):
        rng = np.random.default_rng(1)
        D = np.sort(rng.uniform(0.1, 5.0, size=9))[::-1]
        assert explained_variance(D)[-1] == 1.0

    def test_fractions_never_exceed_one(self):
        # The running sum reaches its total at 0.1, before the zero tail.
        # Divided by np.sum's pairwise total, it read 1 + 2**-52.
        D = [3.8, 3.2, 2.7, 2.3, 2.3, 1.8, 1.4, 0.7, 0.1, 0.0, 0.0]
        got = explained_variance(D)
        assert np.max(got) == 1.0
        assert np.array_equal(got[8:], [1.0, 1.0, 1.0])
        assert np.all(np.diff(got) >= 0)

    def test_increasing_rejected(self):
        with pytest.raises(ConfigError):
            explained_variance([3.0, 4.0])

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            explained_variance([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            explained_variance([2.0, -1.0])


class TestProjector:
    def test_ones_column_is_mean_projector(self):
        n = 5
        P = projector(np.ones((n, 1)))
        assert np.allclose(P, np.full((n, n), 1.0 / n), atol=1e-12)

    def test_coordinate_projector(self):
        S = np.eye(4)[:, :2]
        assert np.allclose(projector(S), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_projector_laws_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            s = int(rng.integers(1, min(n, 4)))
            S = rng.normal(size=(n, s))
            P = projector(S)
            assert np.allclose(P, P.T, atol=1e-10)
            assert np.allclose(P @ P, P, atol=1e-10)
            assert np.allclose(P @ S, S, atol=1e-10)
            assert np.trace(P) == pytest.approx(s, abs=1e-10)
            Q = np.eye(n) - P
            assert np.allclose(Q @ Q, Q, atol=1e-10)
            assert np.allclose(Q @ S, 0.0, atol=1e-10)

    def test_rank_deficient_rejected_with_hint(self):
        S = np.ones((6, 2))  # duplicate columns
        with pytest.raises(DataError, match=r"^column 1 of S is collinear .*; drop collinear"):
            projector(S)

    def test_s_without_columns_is_config_error(self):
        with pytest.raises(ConfigError, match="S has no columns"):
            projector(np.zeros((3, 0)))

    def test_rank_threshold_is_gram_rcond(self):
        # S^T S has reciprocal condition (s_min / s_max)^2: accepted
        # at 1e-6 * (1 + 1e-3), rejected at 1e-6 * (1 - 1e-3).
        rng = np.random.default_rng(17)
        U, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        projector(U @ np.diag([1.0, 1e-6 * (1 + 1e-3)]) @ V)
        with pytest.raises(DataError, match="^column 1 of S is collinear"):
            projector(U @ np.diag([1.0, 1e-6 * (1 - 1e-3)]) @ V)


class TestFirstCollinearColumn:
    """orthonormal_basis, under residualize and projector, names the
    first column of S collinear with the columns before it."""

    @staticmethod
    def refusal(S):
        # The message both public callers refuse S with.
        messages = set()
        for call in (lambda: residualize(S, np.ones((len(S), 1))), lambda: projector(S)):
            with pytest.raises(DataError) as info:
                call()
            messages.add(str(info.value))
        (message,) = messages
        return message

    def test_full_rank_is_none(self):
        S = np.random.default_rng(3).normal(size=(9, 4))
        Q, condition = orthonormal_basis(S)
        assert np.allclose(Q @ (Q.T @ S), S, atol=1e-12)
        assert condition == pytest.approx(np.linalg.cond(S), rel=1e-10)
        residualize(S, np.ones((9, 1)))
        projector(S)

    def test_names_first_dependent_column(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.normal(size=(3, 9, 1))
        # Column 2 is a + b; column 4 repeats a but comes later.
        S = np.hstack([a, b, a + b, c, a])
        assert self.refusal(S) == ("column 2 of S is collinear with the columns before it "
                                   "[0, 1]; drop collinear sensitive columns")
        with pytest.raises(DataError, match=r"^column 'a\+b' of S .* before it \['a', 'b'\]"):
            orthonormal_basis(S, ["a", "b", "a+b", "c", "a"])
        assert self.refusal(np.hstack([np.zeros((9, 1)), a])).startswith(
            "column 0 of S is collinear with the columns before it [];")
        # More columns than rows: the third of two-row columns.
        assert self.refusal(rng.normal(size=(2, 3))).startswith(
            "column 2 of S is collinear with the columns before it [0, 1];")

    def test_same_threshold_as_projector(self):
        # The matrices of test_rank_threshold_is_gram_rcond, either side
        # of the limit: residualize draws the line where projector does.
        rng = np.random.default_rng(17)
        U, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        S = U @ np.diag([1.0, 1e-6 * (1 + 1e-3)]) @ V
        orthonormal_basis(S)
        residualize(S, np.ones((8, 1)))
        projector(S)
        assert self.refusal(U @ np.diag([1.0, 1e-6 * (1 - 1e-3)]) @ V).startswith(
            "column 1 of S is collinear with the columns before it [0];")


class TestResidualize:
    def test_matches_dense_path(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            S = rng.normal(size=(n, 2))
            M = rng.normal(size=(n, int(rng.integers(1, 9))))
            # Oracle from the normal equations, not the QR path.
            dense = (np.eye(n) - S @ np.linalg.solve(S.T @ S, S.T)) @ M
            assert np.allclose(residualize(S, M)[0], dense, atol=1e-10)

    def test_condition_number_is_that_of_s(self):
        # Columns scaled over up to 4 decades, and 0/1 indicator columns
        # with and without a ones column, as debias passes them.
        rng = np.random.default_rng(14)
        checked = 0
        for trial in range(30):
            n, s = int(rng.integers(8, 60)), int(rng.integers(1, 5))
            if trial % 2:
                S = (rng.random((n, s)) < 0.4).astype(np.float64)
                if trial % 4 == 1:
                    S = np.hstack([S, np.ones((n, 1))])
            else:
                S = rng.normal(size=(n, s)) * 10.0 ** rng.uniform(-2, 2, size=s)
            try:
                _, condition = residualize(S, rng.normal(size=(n, 3)))
            except DataError:
                assert trial % 2, trial  # only indicator draws are collinear
                continue
            checked += 1
            assert condition == pytest.approx(np.linalg.cond(S), rel=1e-10)
        assert checked >= 20

    def test_rank_deficient_rejected(self):
        with pytest.raises(DataError, match=r"^column 1 of S is collinear .* \[0\]"):
            residualize(np.ones((5, 2)), np.ones((5, 3)))

    def test_row_mismatch(self):
        with pytest.raises(ConfigError, match="^M has 5 rows, expected 4$"):
            residualize(np.ones((4, 1)), np.ones((5, 2)))

    def test_s_without_columns_is_config_error(self):
        with pytest.raises(ConfigError, match="S has no columns"):
            residualize(np.zeros((3, 0)), np.ones((3, 2)))


class TestMatrixPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-200, 200, size=(7, 4))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        back = text_matrix(path)
        assert back.shape == M.shape
        assert np.array_equal(back, M)

    def test_round_trip_edge_values(self, tmp_path):
        M = np.array([[0.0, -0.0, 1e-308], [1e308, -1.5, 2.0 / 3.0]])
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        assert np.array_equal(text_matrix(path), M)

    def test_zero_column_matrix(self, tmp_path):
        M = np.zeros((3, 0))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        assert path.read_text(encoding="utf-8") == "3 0\n\n\n\n"
        assert text_matrix(path).shape == (3, 0)

    def test_non_finite_rejected_on_save(self, tmp_path):
        with pytest.raises(DataError):
            save_matrix(tmp_path / "m.txt", np.array([[np.inf]]))

    @pytest.mark.parametrize("rows, cols", [
        (1, 50), (2, 50), (3, 50), (63, 50), (64, 50), (65, 50), (2000, 50), (65, 0), (0, 3),
    ])
    def test_matches_per_value_oracles(self, tmp_path, monkeypatch, rows, cols):
        M = random_finite_floats(np.random.default_rng(rows + cols), (rows, cols))
        path = tmp_path / "m.txt"
        for pinned in (True, False):  # the two halves in two processes, then in one
            monkeypatch.setattr(tabfair, "BLAS_PINNED", pinned)
            save_matrix(path, M)
            text = path.read_text(encoding="utf-8")
            assert text == f"{rows} {cols}\n" + per_value_text(M)
            oracle = np.array(per_token_values(text.splitlines()[1:])).reshape(rows, cols)
            assert np.array_equal(oracle.view(np.uint64), M.view(np.uint64))
            if rows and cols:
                # np.loadtxt skips blank lines, so it reads only matrices with values.
                back = np.loadtxt(path, skiprows=1, ndmin=2)
                assert np.array_equal(back.view(np.uint64), M.view(np.uint64))

    def test_split_far_from_row_midpoint(self, tmp_path, monkeypatch):
        # Rows of "0" and rows of 17-digit values: the second half starts
        # at the row midpoint, far from the byte midpoint of the rows, on
        # either side; written in two processes, then in one.
        rng = np.random.default_rng(5)
        full = random_finite_floats(rng, (150, 20))
        path = tmp_path / "m.txt"
        for pinned in (True, False):
            monkeypatch.setattr(tabfair, "BLAS_PINNED", pinned)
            for M in (np.vstack([np.zeros((150, 20)), full]),
                      np.vstack([full, np.zeros((150, 20))])):
                save_matrix(path, M)
                assert path.read_text(encoding="utf-8") == "300 20\n" + per_value_text(M)
                assert np.array_equal(text_matrix(path).view(np.uint64), M.view(np.uint64))

    def test_forks_only_when_pinned(self, tmp_path, monkeypatch, mode):
        forks, fork = [], os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        save_matrix(tmp_path / "m.txt", np.ones((4, 2)))
        assert len(forks) == (mode == "two-processes")

    @pytest.mark.parametrize("shape", [(7, 5), (0, 3), (3, 0), (0, 0)])
    def test_npy_round_trip_bitwise(self, tmp_path, shape):
        M = random_finite_floats(np.random.default_rng(sum(shape)), shape)
        path = tmp_path / "m.npy"
        for layout in (M, np.asfortranarray(M)):
            save_matrix(path, layout)
            with open(path, "rb") as fh:
                assert np.lib.format.read_magic(fh) == (1, 0)
                assert np.lib.format.read_array_header_1_0(fh) == (shape, False, np.dtype("<f8"))
            back = load_matrix(path)
            assert back.dtype == np.float64 and back.shape == shape
            assert back.flags.writeable and back.flags.c_contiguous
            assert np.array_equal(back.view(np.uint64), M.view(np.uint64))

    def test_npy_every_prefix_is_data_error(self, tmp_path):
        path = tmp_path / "m.npy"
        save_matrix(path, random_finite_floats(np.random.default_rng(2), (4, 3)))
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(DataError, match="m.npy"):
                load_matrix(path)
        path.write_bytes(data + bytes(8))  # one value more than the header declares
        with pytest.raises(DataError, match="4 x 3 values do not fill the 104 bytes"):
            load_matrix(path)

    @staticmethod
    def write_npy_header(path, shape, data=b"", descr="<f8"):
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": descr, "fortran_order": False, "shape": shape})
            fh.write(data)

    def test_npy_forged_size_is_refused_before_allocating(self, tmp_path):
        path = tmp_path / "m.npy"
        self.write_npy_header(path, (2_000_000_000, 2), bytes(64))
        tracemalloc.start()  # numpy reports its array allocations here
        try:
            with pytest.raises(DataError, match="2000000000 x 2 values do not fill"):
                load_matrix(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        # Negative dimensions whose product fits the data.
        self.write_npy_header(path, (-2, -4), bytes(64))
        with pytest.raises(DataError, match="-2 x -4 values"):
            load_matrix(path)

    @pytest.mark.parametrize("array", [
        np.ones((2, 3), dtype=np.float32), np.ones((2, 3), dtype=np.int64),
        np.ones((2, 3), dtype=">f8"), np.ones(3), np.ones((2, 3, 1)),
        np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    ], ids=["float32", "int64", "big-endian", "ndim1", "ndim3", "fortran"])
    def test_npy_other_arrays_are_refused(self, tmp_path, array):
        path = tmp_path / "m.npy"
        np.save(path, array)
        with pytest.raises(DataError, match="not a C-order <f8 matrix"):
            load_matrix(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_npy_non_finite_is_refused(self, tmp_path, value):
        M = np.zeros((3, 2))
        M[1, 1] = value
        path = tmp_path / "m.npy"
        np.save(path, M)
        with pytest.raises(DataError, match="non-finite"):
            load_matrix(path)

    def test_npy_bad_magic_or_header(self, tmp_path):
        path = tmp_path / "m.npy"
        save_matrix(path, np.ones((2, 2)))
        data = path.read_bytes()
        header = data[10:data.index(b"\n") + 1]
        # A text matrix, another format version, and header dicts that
        # do not parse or hold an unhashable key.
        for bad in (b"2 2\n1 1\n1 1\n", data[:6] + b"\x03" + data[7:],
                    data.replace(b"(2, 2)", b"(2, x)"),
                    data.replace(b"'descr'", b"[1, 2 ]"),
                    data[:10] + b"[" + header[1:]):
            path.write_bytes(bad)
            with pytest.raises(DataError, match="not a readable .npy matrix"):
                load_matrix(path)

    def test_only_npy_paths_are_read(self, tmp_path):
        # Text matrices are an export; reading one, or any other suffix,
        # is a ConfigError naming the path, also for a file not there.
        save_matrix(tmp_path / "m.txt", np.ones((2, 2)))
        save_matrix(tmp_path / "m.npy", np.ones((2, 2)))
        (tmp_path / "m.npz").write_bytes((tmp_path / "m.npy").read_bytes())
        for name in ("m.txt", "m.npz", "absent.txt", "m"):
            with pytest.raises(ConfigError, match=f"{name}: load_matrix reads only .npy"):
                load_matrix(tmp_path / name)

    @staticmethod
    def save_with_rows_writer(path, M, monkeypatch, writer) -> str:
        """save_matrix(path, M) with write_rows wrapped by writer(fh, M,
        write_rows, child), child whether it runs in a forked process;
        the text written."""
        parent, write_rows = os.getpid(), linalg.write_rows
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "write_rows", lambda fh, M: writer(
                fh, M, write_rows, os.getpid() != parent))
            save_matrix(path, M)
        return path.read_text(encoding="utf-8")

    def test_child_write_failure_leaves_no_part_file(self, tmp_path, monkeypatch):
        # The parent writes the failed child's half itself: the bytes of
        # one process, in either mode, and no part file (conftest).
        def fail_in_child(fh, M, write_rows, child):
            if child:
                raise OSError("no space left on device")
            write_rows(fh, M)

        M = random_finite_floats(np.random.default_rng(6), (5, 3))
        for pinned in (True, False):
            monkeypatch.setattr(tabfair, "BLAS_PINNED", pinned)
            text = self.save_with_rows_writer(tmp_path / "m.txt", M, monkeypatch, fail_in_child)
            assert text == "5 3\n" + per_value_text(M)

    def test_killed_child_gives_one_process_bytes(self, tmp_path, monkeypatch, mode):
        def killed_in_child(fh, M, write_rows, child):
            if child:
                os.kill(os.getpid(), signal.SIGKILL)
            write_rows(fh, M)

        M = random_finite_floats(np.random.default_rng(7), (5, 3))
        text = self.save_with_rows_writer(tmp_path / "m.txt", M, monkeypatch, killed_in_child)
        assert text == "5 3\n" + per_value_text(M)

    def test_write_failure_everywhere_is_raised(self, tmp_path, monkeypatch, mode):
        def full_disk(fh, M, write_rows, child):
            raise OSError("no space left on device")

        with pytest.raises(OSError, match="^no space left on device$"):
            self.save_with_rows_writer(tmp_path / "m.txt", np.ones((4, 2)), monkeypatch,
                                       full_disk)


def written_rows(M) -> str:
    fh = io.BytesIO()
    linalg.write_rows(fh, M)
    return fh.getvalue().decode("ascii")


def differing_values(got: str, want: str) -> list[tuple[str, str]]:
    """Up to three (got, want) pairs of values that differ, or the two
    texts' ends when only separators do; [] when the texts are equal.
    Keeps a failure's report short where pytest would diff megabytes."""
    if got == want:
        return []
    pairs = [(g, w) for g, w in zip(got.split(), want.split()) if g != w]
    return pairs[:3] or [(got[-40:], want[-40:])]


def steps_from(v, steps: int) -> list[float]:
    """v and the `steps` float64 values on either side of it."""
    out, down, up = [v], v, v
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return out


def text_corpus(name: str) -> np.ndarray:
    """Values that exercise the vectorized path of write_rows at its
    edges, as one row, both signs."""
    rng = np.random.default_rng(len(name))
    if name == "powers-of-ten":  # where log10 can miss E by one
        values = [x for s in range(-199, 200) for x in steps_from(10.0 ** s, 2)]
    elif name == "notation-switch":  # E = -5, -4, 16, 17 and their edges
        values = [x for e in (-5, -4, 16, 17) for x in
                  [*rng.uniform(1, 10, 50) * 10.0**e, *steps_from(10.0**e, 2),
                   *steps_from(9.999999999999999e-6 * 10.0 ** (e + 5), 2)]]
    elif name == "short-decimals":  # 17 digits with trailing zeros
        values = [round(float(x), int(d)) for x, d in
                  zip(rng.normal(size=2000) * 10.0 ** rng.integers(-3, 12, 2000),
                      rng.integers(0, 8, 2000))]
        values += [0.5, 0.25, 1.5, 100.0, 1e15, 123456789.0, 0.001, 1e-4, 1e-5]
    elif name == "integers":  # up to 2**63, where D has trailing zeros
        values = [float(int(x)) for x in rng.integers(0, 2**63, 1000, dtype=np.uint64)]
        values += [float(2**e + d) for e in range(64) for d in (-1, 0, 1)]
    elif name == "ties":  # 17th digit at or near a rounding tie, and 1e-28
        values = [float(f"{m}5e{e}") for m, e in
                  zip(rng.integers(10**15, 10**16, 500), rng.integers(-40, 40, 500))]
        values += [float(k) + f for k in rng.integers(2**43, 2**53, 200, dtype=np.int64)
                   for f in (0.25, 0.5, 0.75, 0.125, 0.375)]
        values += [1e-28, 5e-324, 1e-200, 1e200, 1.7976931348623157e308]
    else:
        raise ValueError(name)
    values = np.array(values + [0.0])
    return np.concatenate([values, -values])[None, :]


class TestTextKernel:
    """write_rows formats blocks of values with numpy; its bytes must be
    those of per-value %.17g, on the values its fast path takes."""

    @pytest.mark.parametrize("name", ["powers-of-ten", "notation-switch", "short-decimals",
                                      "integers", "ties"])
    def test_corpus_matches_per_value_oracle(self, name):
        M = text_corpus(name)
        assert differing_values(written_rows(M), per_value_text(M)) == []

    @pytest.mark.parametrize("cols", [1, 7, 200])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_edges_match_per_value_oracle(self, tmp_path, cols, extra):
        # Value counts just below, at and just above one and two blocks;
        # rows cross the block boundaries.
        rng = np.random.default_rng(cols)
        for size in (linalg._BLOCK + extra, 2 * linalg._BLOCK + extra):
            values = rng.normal(size=size) * 10.0 ** rng.integers(-8, 20, size)
            values[::13] = 0.0
            M = np.resize(values, (-(-size // cols), cols))
            assert differing_values(written_rows(M), per_value_text(M)) == []
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        text = path.read_text(encoding="ascii")
        assert differing_values(text, f"{M.shape[0]} {cols}\n" + per_value_text(M)) == []

    def test_fast_path_formats_nearly_every_value(self, monkeypatch):
        # A fast path silently turned off would still write the right
        # bytes, through the per-value fallback; count its calls.
        rng = np.random.default_rng(17)
        M = rng.normal(size=(2000, 200)) * 10.0 ** rng.uniform(-30, 30, (2000, 200))
        calls = []

        def counted(v):
            calls.append(v)
            return b"%.17g" % v

        monkeypatch.setattr(linalg, "_format_one", counted)
        assert differing_values(written_rows(M), per_value_text(M)) == []
        assert len(calls) < M.size / 10**4, len(calls)

    def test_save_matrix_formats_in_blocks(self, tmp_path):
        # numpy reports its allocations to tracemalloc. Formatting half
        # of this matrix at once would take tens of MB.
        M = np.random.default_rng(3).normal(size=(5555, 200))
        tracemalloc.start()
        try:
            save_matrix(tmp_path / "m.txt", M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
