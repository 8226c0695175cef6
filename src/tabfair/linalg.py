"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, and the text row
format that matrix and model files share.

A row is one line of space-separated 17-significant-digit values, so
float64 round-trips exactly. write_rows() formats each row with one
`%` call; read_rows() parses READ_CHUNK_ROWS lines at a time with
np.loadtxt, whose values are bit-identical to float(), so the text held
in memory stays bounded however tall the matrix is.

All operations are pure and work on float64 ``numpy`` arrays. Matrices
are required to be finite; violations raise early rather than letting
NaNs propagate.
"""

from __future__ import annotations

import itertools
import os
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


# Rows per np.loadtxt call in read_rows(). Larger chunks parse no faster
# but hold more text at once: on Adult-shaped artifacts (200 columns),
# 128-row chunks raised the peak RSS of `evaluate` by 0.5 MB, 64-row
# chunks by 0.1 MB.
READ_CHUNK_ROWS = 64


def write_rows(fh, M: np.ndarray) -> None:
    """Write each row of the 2-D M as one line of space-separated
    17-significant-digit values, which round-trip float64 exactly."""
    line = " ".join(["%.17g"] * M.shape[1]) + "\n"
    for row in M:
        fh.write(line % tuple(row.tolist()))


def read_rows(fh, rows: int, cols: int, where: str) -> np.ndarray:
    """The next `rows` lines of fh, as written by write_rows(), as a
    rows x cols float64 matrix. A size the file cannot hold, a missing,
    blank, short, long or unparseable row, or a last row cut before its
    line end is a DataError naming `where` and the row."""
    # A row takes at least one byte and a value two, so a corrupt header
    # is refused here rather than sized into an allocation.
    if min(rows, cols) < 0 or rows * (2 * cols or 1) > os.fstat(fh.fileno()).st_size:
        raise DataError(f"{where}: {rows} x {cols} values do not fit the file")
    out = np.empty((rows, cols), dtype=np.float64)
    for lo in range(0, rows, READ_CHUNK_ROWS):
        n = min(READ_CHUNK_ROWS, rows - lo)
        lines = list(itertools.islice(fh, n))
        end = lo + len(lines)
        if len(lines) < n:
            raise DataError(f"{where}: expected {rows} rows, file ends after {end}")
        # Every row line ends in a newline; only a cut file's last does not.
        if not lines[-1].endswith("\n"):
            raise DataError(f"{where}: row {end - 1} is cut short (no line end)")
        out[lo:end] = _parse_rows(lines, cols, where, lo)
    return out


def _parse_rows(lines: list[str], cols: int, where: str, first: int) -> np.ndarray:
    # np.loadtxt parses with PyOS_string_to_double, so each value is
    # bit-identical to float(token). It skips blank lines (and warns
    # when it sees nothing else), so a blank row shows as a short block.
    if cols and lines[0].strip():
        try:
            block = np.loadtxt(lines, comments=None, ndmin=2)
        except ValueError:
            block = None
        if block is not None and block.shape == (len(lines), cols):
            return block
    # Line by line, to name the first malformed row.
    for i, line in enumerate(lines):
        n = len(line.split())
        if n != cols:
            raise DataError(f"{where}: row {first + i} has {n} values, expected {cols}")
        if cols:
            try:
                np.loadtxt([line], comments=None, ndmin=2)
            except ValueError as exc:
                raise DataError(f"{where}: row {first + i}: {exc}") from exc
    # Only a block of zero-column rows (blank lines) gets here.
    return np.empty((len(lines), 0))


def save_matrix(path, M) -> None:
    """Write a matrix as text: a 'rows cols' header line, then one line
    per row (see write_rows)."""
    M = _as_matrix(M, "matrix")
    rows, cols = M.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows} {cols}\n")
        write_rows(fh, M)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix(). A truncated or malformed
    file, or a non-finite value, is a DataError."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        header = line.split()
        if len(header) != 2 or not line.endswith("\n"):
            raise DataError(f"{path}: expected 'rows cols' header line")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: malformed header {header!r}") from exc
        out = read_rows(fh, rows, cols, str(path))
    if not np.isfinite(out).all():
        raise DataError(f"{path}: matrix contains non-finite entries")
    return out
