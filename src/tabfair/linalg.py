"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, and the text matrix
file format.

A row is one line of space-separated 17-significant-digit values, so
float64 round-trips exactly. write_rows() formats each row with one
`%` call; _read_into() parses READ_CHUNK_ROWS lines at a time with
np.loadtxt, whose values are bit-identical to float(), so the text held
in memory stays bounded however tall the matrix is.

Matrix files of at least SPLIT_MIN_VALUES values are written and
parsed by two processes at once, split at a row boundary: save_matrix()
and load_matrix() fork a child that formats the second half of the rows
into a part file, or parses it straight into the result, which
load_matrix() allocates in shared memory. The bytes are the same as one
process writes.

_in_two() is the one fork primitive. run_both() builds on it to run two
independent jobs, such as the two networks' training, in two processes
when BLAS is pinned to one thread per process (see tabfair.BLAS_PINNED),
so that each job's BLAS calls are the ones a single process makes.

All operations are pure and work on float64 ``numpy`` arrays. Matrices
are required to be finite; violations raise early rather than letting
NaNs propagate.
"""

from __future__ import annotations

import io
import itertools
import mmap
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tabfair

from .errors import ConfigError, DataError, NumericalError, undecodable_is_data_error

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


# Matrices of fewer values are written and parsed by one process. The
# fork and the part file cost 3-5 ms; measured on a 2-core VM over 1-100
# columns, two processes start to write faster near 20,000 values, and
# to parse faster between 20,000 and 40,000 (1,000 values: 2 ms to
# write and 1 ms to parse in one process, 5-6 ms and 4-5 ms in two).
SPLIT_MIN_VALUES = 20_000

# Rows per np.loadtxt call in _read_into(). Larger chunks parse no faster
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


def _read_into(fh, out: np.ndarray, lo: int, hi: int, where: str) -> None:
    """Parse the next hi - lo lines of fh into out[lo:hi]. Messages name
    rows of out, which the file holds len(out) of."""
    rows, cols = out.shape
    for first in range(lo, hi, READ_CHUNK_ROWS):
        n = min(READ_CHUNK_ROWS, hi - first)
        with undecodable_is_data_error(where):
            lines = list(itertools.islice(fh, n))
        end = first + len(lines)
        if len(lines) < n:
            raise DataError(f"{where}: expected {rows} rows, file ends after {end}")
        # Every row line ends in a newline; only a cut file's last does not.
        if not lines[-1].endswith("\n"):
            raise DataError(f"{where}: row {end - 1} is cut short (no line end)")
        out[first:end] = _parse_rows(lines, cols, where, first)


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
    per row (see write_rows). From SPLIT_MIN_VALUES values up, a forked
    process writes the second half of the rows to a part file beside
    `path` while this one writes the header and the first half; the part
    is then appended and removed."""
    M = _as_matrix(M, "matrix")
    rows, cols = M.shape
    if M.size < SPLIT_MIN_VALUES:
        _write_text(path, M, f"{rows} {cols}\n")
        return
    h = rows // 2
    path = Path(path)
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
    """Read a matrix written by save_matrix(), as a writable C-contiguous
    float64 array. A truncated or malformed file, text that is not
    UTF-8, or a non-finite value is a DataError.

    From SPLIT_MIN_VALUES values up, the rows are split at the first
    line end after their byte midpoint. The result then lives in an
    anonymous shared mapping, and a forked process parses the rows
    after the split straight into it while this one parses the rows
    before it. If the child fails, this process
    parses the child's rows again itself: a fault there is the DataError
    the child met, and without one the failure is an OSError naming the
    rows. Messages name rows of the whole matrix; of two faults, the one
    in the earlier row is raised."""
    path = Path(path)
    with open(path, "rb") as fh:
        # Undecodable bytes become U+FFFD, which no header number holds.
        line = fh.readline().decode("utf-8", "replace")
        header = line.split()
        if len(header) != 2 or not line.endswith("\n"):
            raise DataError(f"{path}: expected 'rows cols' header line")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError as exc:
            raise DataError(f"{path}: malformed header {header!r}") from exc
        # A row takes at least one byte and a value two, so a corrupt
        # header is refused here rather than sized into an allocation.
        if min(rows, cols) < 0 or rows * (2 * cols or 1) > os.fstat(fh.fileno()).st_size:
            raise DataError(f"{path}: {rows} x {cols} values do not fit the file")
        start = fh.tell()
        split = rows * cols >= SPLIT_MIN_VALUES
        if split:
            h, offset = _split_rows(fh, start, rows)
    if not split:
        out = np.empty((rows, cols))
        _parse_text(path, start, out, 0, rows)
    else:
        # mmap refuses a length of 0; np.frombuffer keeps the mapping alive.
        shared = mmap.mmap(-1, max(rows * cols * 8, 1))
        out = np.frombuffer(shared, dtype=np.float64, count=rows * cols).reshape(rows, cols)
        code = _in_two(lambda: _parse_text(path, start, out, 0, h),
                       lambda: _parse_text(path, offset, out, h, rows))
        if code:
            _parse_text(path, offset, out, h, rows)
            raise OSError(f"{path}: the process parsing rows {h} to {rows - 1} failed "
                          f"(exit code {code})")
    if not np.isfinite(out).all():
        raise DataError(f"{path}: matrix contains non-finite entries")
    return out


# Bytes per read when load_matrix() counts the rows before its split, so
# the first half of a large file is never held in memory at once.
COUNT_CHUNK_BYTES = 1 << 20


def _split_rows(fh, start: int, rows: int) -> tuple[int, int]:
    """Where load_matrix() splits the rows that begin at byte `start`:
    h, the lines (at most `rows`) before the offset just past the first
    line end after their byte midpoint, and that offset (`start` when no
    line end follows the midpoint)."""
    fh.seek((start + os.fstat(fh.fileno()).st_size) // 2)
    cut = fh.tell() if fh.readline().endswith(b"\n") else start
    fh.seek(start)
    h = sum(fh.read(min(cut - pos, COUNT_CHUNK_BYTES)).count(b"\n")
            for pos in range(start, cut, COUNT_CHUNK_BYTES))
    return min(h, rows), cut


def _parse_text(path: Path, offset: int, out: np.ndarray, lo: int, hi: int) -> None:
    """Parse rows lo:hi of out from path's UTF-8 text at byte `offset`.
    Lines end at '\\n' only, as _split_rows() counts them."""
    with open(path, "rb") as raw:
        raw.seek(offset)
        with io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fh:
            _read_into(fh, out, lo, hi, str(path))


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
