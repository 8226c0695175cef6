"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, and matrix files.

load_matrix() reads numpy's `.npy` format only: a C-order float64 array
of two dimensions. save_matrix() also writes text, for a path not ending
in `.npy`: a 'rows cols' line, then one line of space-separated
17-significant-digit values per row (write_rows()), so float64
round-trips exactly. Two processes write it at once, split at a row
boundary, with the bytes one process writes. No tabfair code reads text
back; `np.loadtxt(path, skiprows=1, ndmin=2)` does, bit for bit.

_in_two() is the one fork primitive. run_both() builds on it to run two
independent jobs, the two networks' training, in two processes when
BLAS is pinned to one thread per process (see tabfair.BLAS_PINNED), so
that each job's BLAS calls are the ones a single process makes.

All operations are pure and work on float64 ``numpy`` arrays. Matrices
are required to be finite; violations raise early rather than letting
NaNs propagate.
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tabfair

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
    """Thin-QR basis Q of col(S), refusing rank-deficient S."""
    Q, R = np.linalg.qr(S)
    if first_collinear_column(R) is not None:
        raise NumericalError(
            "S^T S is rank-deficient (reciprocal condition number below "
            f"{RCOND_LIMIT:g}); drop collinear sensitive columns"
        )
    return Q


def first_collinear_column(R: np.ndarray) -> int | None:
    """Given the QR factor R of S, the index of the first column of S
    collinear with the columns before it, or None when there is none.

    R[:j, :j] is the R factor of S's first j columns and shares their
    singular values, so testing its reciprocal condition number squared
    against RCOND_LIMIT is the same condition as testing that of their
    Gram matrix. Past the row count of S there are fewer singular values
    than columns: the first such column is collinear.
    """
    for j in range(1, R.shape[1] + 1):
        sv = np.linalg.svd(R[:j, :j], compute_uv=False)
        if sv.size < j or sv[0] == 0.0 or (sv[-1] / sv[0]) ** 2 < RCOND_LIMIT:
            return j - 1
    return None


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


def write_rows(fh, M: np.ndarray) -> None:
    """Write each row of the 2-D M as one line of space-separated
    17-significant-digit values, which round-trip float64 exactly."""
    line = " ".join(["%.17g"] * M.shape[1]) + "\n"
    for row in M:
        fh.write(line % tuple(row.tolist()))


def save_matrix(path, M) -> None:
    """Write a matrix in the format its file name asks for. A `.npy`
    path gets numpy's format, C-order float64. Any other path gets text:
    a 'rows cols' header line, then one line per row (see write_rows).
    A forked process writes the second half of the rows to a part file
    beside `path` while this one writes the header and the first half;
    the part is then appended and removed. The text is an export:
    load_matrix() does not read it."""
    M = _as_matrix(M, "matrix")
    path = Path(path)
    if path.suffix == ".npy":
        np.save(path, np.ascontiguousarray(M), allow_pickle=False)
        return
    rows, cols = M.shape
    h = rows // 2
    part = path.with_name(path.name + ".part")
    try:
        code = _in_two(lambda: _write_text(path, M[:h], f"{rows} {cols}\n"),
                       lambda: _write_text(part, M[h:]))
        if code:
            raise OSError(f"{part}: the process writing rows {h} to {rows - 1} failed "
                          f"(exit code {code})")
        with open(part, "rb") as src, open(path, "ab") as dst:
            shutil.copyfileobj(src, dst)
    finally:
        part.unlink(missing_ok=True)


def _write_text(path: Path, M: np.ndarray, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        write_rows(fh, M)


def load_matrix(path) -> np.ndarray:
    """Read a `.npy` matrix written by save_matrix() as a writable
    C-contiguous float64 array. Any other path is a ConfigError. A
    truncated file, a non-finite value, or a file that does not hold a
    2-D C-order little-endian float64 array is a DataError."""
    path = Path(path)
    if path.suffix != ".npy":
        raise ConfigError(f"{path}: load_matrix reads only .npy files")
    with open(path, "rb") as fh:
        try:
            version = np.lib.format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"format version {version}, expected (1, 0)")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
        except (ValueError, SyntaxError, TypeError) as exc:
            raise DataError(f"{path}: not a readable .npy matrix: {exc}") from exc
        if dtype != np.dtype("<f8") or fortran_order or len(shape) != 2:
            raise DataError(f"{path}: holds a {dtype} array of shape {shape}"
                            f"{' in Fortran order' if fortran_order else ''}, "
                            "not a C-order <f8 matrix")
        # Checked before the allocation, so a forged shape is refused here.
        data_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        if min(shape) < 0 or shape[0] * shape[1] * 8 != data_bytes:
            raise DataError(f"{path}: {shape[0]} x {shape[1]} values do not fill the "
                            f"{data_bytes} bytes after the header")
        out = np.empty(shape)
        if fh.readinto(out) != out.nbytes:
            raise DataError(f"{path}: file ends before its {out.nbytes} bytes of values")
    if not np.isfinite(out).all():
        raise DataError(f"{path}: matrix contains non-finite entries")
    return out


def _in_two(first, second) -> int:
    """Run second() in a forked child while this process runs first(),
    and return the child's exit code (0 if second() returned) once it is
    reaped, also when first() raises. The child ends in os._exit: it
    never returns into the rest of the caller's program or flushes the
    buffers it inherited."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            second()
            code = 0
        finally:
            os._exit(code)
    try:
        first()
    finally:
        status = os.waitpid(pid, 0)[1]
    return os.waitstatus_to_exitcode(status)


def run_both(first, second):
    """(first(), second()). When tabfair.BLAS_PINNED holds, second() runs
    in a forked child, which sends its result back pickled, while this
    process runs first(); otherwise both run here, in order. If the
    child fails, this process runs second() itself, so its error is the
    one a single process meets.

    This process drains the pipe, or closes it when first() raises,
    before it reaps the child: a result larger than the pipe buffer
    blocks the child until then."""
    if not tabfair.BLAS_PINNED:
        return first(), second()
    results = []
    r, w = os.pipe()
    with open(r, "rb") as receive, open(w, "wb") as send:

        def here():
            send.close()
            with receive:
                results.append(first())
                results.append(receive.read())

        def child():
            receive.close()
            with send:
                pickle.dump(second(), send, pickle.HIGHEST_PROTOCOL)

        code = _in_two(here, child)
    return results[0], pickle.loads(results[1]) if code == 0 else second()
