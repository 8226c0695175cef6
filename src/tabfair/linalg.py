"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, and a text matrix
format with exact float64 round-trips.

All operations are pure and work on float64 ``numpy`` arrays. Matrices
are required to be finite; violations raise early rather than letting
NaNs propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError

# S^T S with a reciprocal condition number below this is treated as
# rank-deficient; callers are told to drop collinear sensitive columns.
RCOND_LIMIT = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"{name} must be a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Truncated singular value decomposition Z ~ M @ diag(D) @ N.T.

    M is n x k (left singular vectors), D the k singular values in
    non-increasing order, N is p x k (right singular vectors). The sign
    of each singular-vector pair is fixed so that the largest-magnitude
    entry of each column of N is positive, making serialized results
    reproducible across runs.
    """

    M: np.ndarray
    D: np.ndarray
    N: np.ndarray

    def reconstruction(self) -> np.ndarray:
        """The rank-k matrix M @ diag(D) @ N.T."""
        return (self.M * self.D) @ self.N.T


def rank_k_svd(Z, k: int) -> SvdResult:
    """Best rank-k approximation factors of Z (Eckart-Young optimal).

    Backed by LAPACK's dense SVD; non-convergence past LAPACK's internal
    iteration cap surfaces as NumericalError. Deterministic including
    signs (see SvdResult).
    """
    Z = _as_matrix(Z, "Z")
    n, p = Z.shape
    if not 1 <= k <= min(n, p):
        raise ConfigError(f"k={k} out of range [1, {min(n, p)}] for a {n}x{p} matrix")
    try:
        U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    M, D, N = U[:, :k].copy(), s[:k].copy(), Vt[:k].T.copy()
    # Sign convention: largest-magnitude entry of each right singular
    # vector is positive.
    for j in range(k):
        i = int(np.argmax(np.abs(N[:, j])))
        if N[i, j] < 0:
            N[:, j] = -N[:, j]
            M[:, j] = -M[:, j]
    return SvdResult(M=M, D=D, N=N)


def explained_variance(D) -> np.ndarray:
    """Cumulative fraction of squared singular values.

    Entry j is sum(D[:j+1]**2) / sum(D**2); the last entry is exactly 1.
    D must be non-increasing, non-negative, and not all zero.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 1 or D.size == 0:
        raise ConfigError("D must be a non-empty 1-D array of singular values")
    if not np.isfinite(D).all() or np.any(D < 0):
        raise DataError("singular values must be finite and non-negative")
    if np.any(np.diff(D) > 0):
        raise ConfigError("singular values must be non-increasing")
    total = float(np.sum(D**2))
    if total == 0.0:
        raise DataError("all singular values are zero")
    cum = np.cumsum(D**2) / total
    cum[-1] = 1.0
    return cum


def _orthonormal_basis(S: np.ndarray) -> np.ndarray:
    """Thin-QR basis Q of col(S), refusing rank-deficient S.

    R shares the singular values of S, so testing R's reciprocal
    condition number squared against RCOND_LIMIT is the same condition
    as testing that of S^T S.
    """
    Q, R = np.linalg.qr(S)
    sv = np.linalg.svd(R, compute_uv=False)
    smax = sv[0]
    if smax == 0.0 or (sv[-1] / smax) ** 2 < RCOND_LIMIT:
        raise NumericalError(
            "S^T S is rank-deficient (reciprocal condition number below "
            f"{RCOND_LIMIT:g}); drop collinear sensitive columns"
        )
    return Q


def projector(S) -> np.ndarray:
    """The orthogonal projector P = S (S^T S)^-1 S^T = Q Q^T onto col(S).

    P is symmetric and idempotent with trace equal to the number of
    columns of S. Materializes an n x n matrix: intended for modest n;
    use residualize() for tall inputs.
    """
    Q = _orthonormal_basis(_as_matrix(S, "S"))
    return Q @ Q.T


def residualize(S, M) -> np.ndarray:
    """(I - P_S) @ M = M - Q (Q^T M) without materializing any n x n
    matrix; Q is the thin-QR basis of S."""
    S = _as_matrix(S, "S")
    M = _as_matrix(M, "M")
    if S.shape[0] != M.shape[0]:
        raise ConfigError(
            f"row mismatch: S has {S.shape[0]} rows, M has {M.shape[0]}"
        )
    Q = _orthonormal_basis(S)
    return M - Q @ (Q.T @ M)


def save_matrix(path, M) -> None:
    """Write a matrix as text: a 'rows cols' header line, then one line
    per row with 17-significant-digit values (exact float64 round-trip).
    """
    M = _as_matrix(M, "matrix")
    rows, cols = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(f"{v:.17g}" for v in M[r]))
            fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix()."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DataError(f"{path}: expected 'rows cols' header line")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: malformed header {header!r}") from exc
        out = np.empty((rows, cols), dtype=np.float64)
        for r in range(rows):
            parts = fh.readline().split()
            if len(parts) != cols:
                raise DataError(
                    f"{path}: row {r} has {len(parts)} values, expected {cols}"
                )
            out[r] = [float(p) for p in parts]
    if not np.isfinite(out).all():
        raise DataError(f"{path}: matrix contains non-finite entries")
    return out
