"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, and the text row
format that matrix and model files share.

A row is one line of space-separated 17-significant-digit values, so
float64 round-trips exactly. write_rows() formats each row with one
`%` call; read_rows() parses READ_CHUNK_ROWS lines at a time with
np.loadtxt, whose values are bit-identical to float(), so the text held
in memory stays bounded however tall the matrix is.

Matrix files are written and parsed by two processes at once, split at
a row boundary: save_matrix() and load_matrix() fork a child that
formats or parses the second half of the rows while the caller does the
first. The bytes are the same as one process writes, and the child
never calls BLAS. Model files (neuralnet.save_mlp/load_mlp) are small
and use write_rows()/read_rows() in one process.

All operations are pure and work on float64 ``numpy`` arrays. Matrices
are required to be finite; violations raise early rather than letting
NaNs propagate.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
import shutil
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    blank, short, long or unparseable row, a last row cut before its
    line end, or text that is not UTF-8 is a DataError naming `where`
    and the row."""
    _check_fits(fh, rows, cols, where)
    out = np.empty((rows, cols), dtype=np.float64)
    _read_into(fh, out, 0, rows, where)
    return out


def _check_fits(fh, rows: int, cols: int, where: str) -> None:
    # A row takes at least one byte and a value two, so a corrupt header
    # is refused here rather than sized into an allocation.
    if min(rows, cols) < 0 or rows * (2 * cols or 1) > os.fstat(fh.fileno()).st_size:
        raise DataError(f"{where}: {rows} x {cols} values do not fit the file")


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
    per row (see write_rows). A forked process writes the second half of
    the rows to a part file beside `path` while this one writes the
    header and the first half; the part is then appended and removed."""
    M = _as_matrix(M, "matrix")
    rows, cols = M.shape
    h = rows // 2
    path = Path(path)
    part = path.with_name(path.name + ".part")
    pid = os.fork()
    if pid == 0:
        _run_child(lambda: _write_text(part, M[h:]))
    try:
        try:
            _write_text(path, M[:h], f"{rows} {cols}\n")
        finally:
            status = os.waitpid(pid, 0)[1]
        if status:
            raise OSError(f"{part}: the process writing rows {h} to {rows - 1} failed "
                          f"(exit code {os.waitstatus_to_exitcode(status)})")
        with open(part, "rb") as src, open(path, "ab") as dst:
            shutil.copyfileobj(src, dst)
    finally:
        part.unlink(missing_ok=True)


def _write_text(path: Path, M: np.ndarray, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        write_rows(fh, M)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix(). A truncated or malformed
    file, text that is not UTF-8, or a non-finite value is a DataError.

    The rows are split at the first line end after their byte midpoint.
    A forked process parses the rows after it and sends the values, or
    its fault, down a pipe while this one parses the rows before it.
    Messages name rows of the whole matrix; of two faults, the one in
    the earlier row is raised."""
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
        _check_fits(fh, rows, cols, str(path))
        start = fh.tell()
        h, offset = _split_rows(fh, start, rows)
    out = np.empty((rows, cols), dtype=np.float64)
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _run_child(lambda: _parse_and_send(path, offset, out, h, w))
    os.close(w)
    try:
        with _open_text(path, start) as fh:
            _read_into(fh, out, 0, h, str(path))
        fault = _receive(r, out[h:])
    finally:
        # Closed first, so a child blocked on a full pipe gets EPIPE and ends.
        os.close(r)
        status = os.waitpid(pid, 0)[1]
    if fault is not None:
        raise fault
    if status:
        raise OSError(f"{path}: the process parsing rows {h} to {rows - 1} failed "
                      f"(exit code {os.waitstatus_to_exitcode(status)})")
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


def _open_text(path: Path, offset: int):
    """path as UTF-8 text from byte `offset`. Lines end at '\\n' only, as
    _split_rows() counts them."""
    fh = open(path, "rb")
    fh.seek(offset)
    return io.TextIOWrapper(fh, encoding="utf-8", newline="\n")


def _run_child(work) -> typing.NoReturn:
    """End a forked child after work(), with exit code 0 if it returned.
    os._exit skips the parent's cleanup: returning instead would run the
    rest of the parent's program again and flush its inherited buffers."""
    code = 1
    try:
        work()
        code = 0
    finally:
        os._exit(code)


def _parse_and_send(path: Path, offset: int, out: np.ndarray, h: int, fd: int) -> None:
    """The child's half of load_matrix(): parse rows h: of out from
    `offset`, then write a tag byte and the values straight from out's
    buffer, or the tag and the pickled fault."""
    try:
        with _open_text(path, offset) as fh:
            _read_into(fh, out, h, len(out), str(path))
        reply = (b"\0", out[h:].reshape(-1).view(np.uint8))
    except Exception as exc:
        reply = (b"\1", pickle.dumps(exc))
    for data in reply:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]


def _receive(fd: int, block: np.ndarray) -> Exception | None:
    """Fill block with the values _parse_and_send() wrote to fd, or
    return the fault it sent. None if the child sent neither in full;
    its exit status then tells."""
    tag = os.read(fd, 1)
    if tag == b"\1":
        return pickle.loads(b"".join(iter(lambda: os.read(fd, 1 << 16), b"")))
    view = memoryview(block.reshape(-1).view(np.uint8))
    while tag and view and (n := os.readv(fd, [view])):
        view = view[n:]
    return None
