"""Linear-algebra layer, checked against an independent one-sided
Jacobi SVD written out below and against hand-reduced small cases."""

import os
import signal

import numpy as np
import pytest

from conftest import per_token_values, per_value_text, random_finite_floats
from tabfair import linalg
from tabfair.errors import ConfigError, DataError, NumericalError
from tabfair.linalg import (
    READ_CHUNK_ROWS,
    SvdResult,
    explained_variance,
    first_collinear_column,
    load_matrix,
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
        with pytest.raises(NumericalError, match="collinear"):
            projector(S)

    def test_rank_threshold_is_gram_rcond(self):
        # S^T S has reciprocal condition (s_min / s_max)^2: accepted
        # at 1e-6 * (1 + 1e-3), rejected at 1e-6 * (1 - 1e-3).
        rng = np.random.default_rng(17)
        U, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        projector(U @ np.diag([1.0, 1e-6 * (1 + 1e-3)]) @ V)
        with pytest.raises(NumericalError):
            projector(U @ np.diag([1.0, 1e-6 * (1 - 1e-3)]) @ V)


class TestFirstCollinearColumn:
    @staticmethod
    def first(S):
        return first_collinear_column(np.linalg.qr(S, mode="r"))

    def test_full_rank_is_none(self):
        assert self.first(np.random.default_rng(3).normal(size=(9, 4))) is None

    def test_names_first_dependent_column(self):
        rng = np.random.default_rng(4)
        a, b, c = rng.normal(size=(3, 9, 1))
        # Column 2 is a + b; column 4 repeats a but comes later.
        assert self.first(np.hstack([a, b, a + b, c, a])) == 2
        assert self.first(np.hstack([np.zeros((9, 1)), a])) == 0
        # More columns than rows: the third of two-row columns.
        assert self.first(rng.normal(size=(2, 3))) == 2
        with pytest.raises(NumericalError, match="collinear"):
            projector(rng.normal(size=(2, 3)))

    def test_same_threshold_as_projector(self):
        # The matrices of test_rank_threshold_is_gram_rcond, either side
        # of the limit.
        rng = np.random.default_rng(17)
        U, _ = np.linalg.qr(rng.normal(size=(8, 2)))
        V, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        assert self.first(U @ np.diag([1.0, 1e-6 * (1 + 1e-3)]) @ V) is None
        assert self.first(U @ np.diag([1.0, 1e-6 * (1 - 1e-3)]) @ V) == 1


class TestResidualize:
    def test_matches_dense_path(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            S = rng.normal(size=(n, 2))
            M = rng.normal(size=(n, int(rng.integers(1, 9))))
            # Oracle from the normal equations, not the QR path.
            dense = (np.eye(n) - S @ np.linalg.solve(S.T @ S, S.T)) @ M
            assert np.allclose(residualize(S, M), dense, atol=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(NumericalError, match="collinear"):
            residualize(np.ones((5, 2)), np.ones((5, 3)))

    def test_row_mismatch(self):
        with pytest.raises(ConfigError):
            residualize(np.ones((4, 1)), np.ones((5, 2)))


@pytest.fixture
def split_every_matrix(monkeypatch):
    """Two processes write and parse even the small matrices of a test
    of the split itself."""
    monkeypatch.setattr(linalg, "SPLIT_MIN_VALUES", 0)


class TestMatrixPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(31)
        M = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-200, 200, size=(7, 4))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        back = load_matrix(path)
        assert back.shape == M.shape
        assert np.array_equal(back, M)

    def test_round_trip_edge_values(self, tmp_path):
        M = np.array([[0.0, -0.0, 1e-308], [1e308, -1.5, 2.0 / 3.0]])
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        assert np.array_equal(load_matrix(path), M)

    def test_zero_column_matrix(self, tmp_path):
        M = np.zeros((3, 0))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        back = load_matrix(path)
        assert back.shape == (3, 0)

    def test_non_finite_rejected_on_save(self, tmp_path):
        with pytest.raises(DataError):
            save_matrix(tmp_path / "m.txt", np.array([[np.inf]]))

    @pytest.mark.parametrize("rows, cols", [
        (1, 50), (2, 50), (3, 50),
        (READ_CHUNK_ROWS - 1, 50), (READ_CHUNK_ROWS, 50), (READ_CHUNK_ROWS + 1, 50),
        (2000, 50), (READ_CHUNK_ROWS + 1, 0), (0, 3),
    ])
    def test_matches_per_value_oracles(self, tmp_path, rows, cols):
        M = random_finite_floats(np.random.default_rng(rows + cols), (rows, cols))
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        text = path.read_text(encoding="utf-8")
        assert text == f"{rows} {cols}\n" + per_value_text(M)
        back = load_matrix(path)
        oracle = np.array(per_token_values(text.splitlines()[1:])).reshape(rows, cols)
        assert back.shape == (rows, cols) and back.dtype == np.float64
        assert back.flags.writeable and back.flags.c_contiguous
        assert np.array_equal(back.view(np.uint64), oracle.view(np.uint64))
        assert np.array_equal(back.view(np.uint64), M.view(np.uint64))

    def test_small_matrix_is_one_process(self, tmp_path, monkeypatch):
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        path = tmp_path / "m.txt"
        rng = np.random.default_rng(8)
        for M, split in ((rng.normal(size=(1000, 1)), False),
                         (rng.normal(size=(linalg.SPLIT_MIN_VALUES, 1)), True)):
            forks.clear()
            save_matrix(path, M)
            assert np.array_equal(load_matrix(path), M)
            assert len(forks) == (2 if split else 0)

    def test_split_far_from_row_midpoint(self, tmp_path, split_every_matrix):
        # Rows of "0" and rows of 17-digit values: the byte midpoint of
        # the rows lies far from their row midpoint, on either side.
        rng = np.random.default_rng(5)
        full = random_finite_floats(rng, (150, 20))
        path = tmp_path / "m.txt"
        for M in (np.vstack([np.zeros((150, 20)), full]), np.vstack([full, np.zeros((150, 20))])):
            save_matrix(path, M)
            assert path.read_text(encoding="utf-8") == "300 20\n" + per_value_text(M)
            assert np.array_equal(load_matrix(path).view(np.uint64), M.view(np.uint64))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "m.txt"
        # too few fields, not a number, negative, more rows than the
        # file could hold, and a header cut before its line end
        for text in ("3\n1 2 3\n", "3 x\n", "-1 3\n", "2 -3\n", "9999999999999 1\n1\n",
                     "0 3"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError):
                load_matrix(path)

    def test_short_row(self, tmp_path, split_every_matrix):
        path = tmp_path / "m.txt"
        path.write_text("2 3\n1 2 3\n4 5\n", encoding="utf-8")
        with pytest.raises(DataError, match="row 1"):
            load_matrix(path)
        # In either half of a taller file the message names the row of
        # the whole matrix; with a fault in each half, the earlier one.
        rows = ["1 2 3\n"] * 200
        for short, match in (((20,), "row 20 has 2"), ((150,), "row 150 has 2"),
                             ((20, 150), "row 20 has 2")):
            text = "".join("4 5\n" if i in short else row for i, row in enumerate(rows))
            path.write_text("200 3\n" + text, encoding="utf-8")
            with pytest.raises(DataError, match=match):
                load_matrix(path)
        # A file cut inside its last row (also one that holds the byte
        # midpoint), or after it.
        for text, match in (("200 3\n" + "".join(rows)[:-3], "row 199 is cut short"),
                            ("2 3\n1 2 3\n" + "4 " * 20, "row 1 is cut short"),
                            ("201 3\n" + "".join(rows), "expected 201 rows, file ends after 200")):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match=match):
                load_matrix(path)

    def test_not_utf8_is_data_error(self, tmp_path, split_every_matrix):
        path = tmp_path / "m.txt"
        # 24 kB, so the first half's 8 kB read-ahead stops short of the
        # second half's faults. 0xff in the header, in rows 10 and 3900
        # (one in each half), and after the last row.
        data = b"4000 3\n" + b"1 2 3\n" * 4000
        for bad in [data[:i] + b"\xff" + data[i + 1:] for i in (1, 7 + 6 * 10, 7 + 6 * 3900)] + [
                data + b"\xff"]:
            path.write_bytes(bad)
            with pytest.raises(DataError):
                load_matrix(path)

    def test_fault_in_first_half_reaps_the_child(self, tmp_path):
        # This process fails on row 5 while the child parses 400 kB of
        # values: the child must still end and be reaped.
        M = np.arange(2000 * 50, dtype=np.float64).reshape(2000, 50)
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[6] = "x" + lines[6]
        path.write_text("".join(lines), encoding="utf-8")

        def hung(signum, frame):
            raise TimeoutError("load_matrix waits on a child that waits on it")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(DataError, match="row 5"):
                load_matrix(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_child_failure_outside_parsing_names_its_rows(self, tmp_path, split_every_matrix, monkeypatch):
        path = tmp_path / "m.txt"
        save_matrix(path, np.ones((100, 3)))
        parent, read_into = os.getpid(), linalg._read_into

        def fail_in_child(fh, out, lo, hi, where):
            if os.getpid() != parent:
                raise OSError("input/output error")
            read_into(fh, out, lo, hi, where)

        monkeypatch.setattr(linalg, "_read_into", fail_in_child)
        # The child's rows parse cleanly here, so the fault is the child's.
        with pytest.raises(OSError, match=r"parsing rows \d+ to 99 failed \(exit code 1\)"):
            load_matrix(path)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_write_failure_leaves_no_part_file(self, tmp_path, split_every_matrix, monkeypatch):
        parent, write_rows = os.getpid(), linalg.write_rows

        def fail_in_child(fh, M):
            if os.getpid() != parent:
                raise OSError("no space left on device")
            write_rows(fh, M)

        monkeypatch.setattr(linalg, "write_rows", fail_in_child)
        with pytest.raises(OSError, match="rows 2 to 3"):
            save_matrix(tmp_path / "m.txt", np.ones((4, 2)))
        assert not list(tmp_path.glob("*.part"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
