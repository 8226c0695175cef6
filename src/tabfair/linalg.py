"""Dense real-matrix utilities: truncated SVD, explained variance,
projectors onto sensitive-attribute column spaces, whose one thin QR of
S (orthonormal_basis(), run once per debias(), in residualize()) gives
the basis, the first collinear column and the condition number, and
matrix files. rank_k_svd() factors the matrix it is given; debias()
gives it the p x p Gram matrix Z^T Z, never the n x p Z.

load_matrix() reads numpy's `.npy` format only: a C-order float64 array
of two dimensions. save_matrix() also writes text, for a path not ending
in `.npy`: a 'rows cols' line, then one line of space-separated
17-significant-digit values per row (write_rows()), so float64
round-trips exactly. Each value's bytes are those of `"%.17g" % v`;
write_rows() forms them with numpy, a block of values at a time
(_format_block()), and hands to `%.17g` only the few values whose
digits it cannot round with certainty. It is written in two halves,
split at a row boundary, through run_both(), with the bytes one process
writes. No tabfair code reads text back; `np.loadtxt(path, skiprows=1,
ndmin=2)` does, bit for bit.

run_both() is the one fork primitive. It runs two independent jobs, the
two networks' training or the two halves of a text matrix, in two
processes when BLAS is pinned to one thread per process (see
tabfair.BLAS_PINNED), so that each job's BLAS calls are the ones a
single process makes; otherwise in one process, in order.
"""

from __future__ import annotations

import functools
import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tabfair

from .errors import ConfigError, DataError, NumericalError, as_matrix

# S^T S with a reciprocal condition number below this is treated as
# rank-deficient; callers are told to drop collinear sensitive columns.
RCOND_LIMIT = 1e-12


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
    Z = as_matrix(Z, "Z")
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

    Entry j is sum(D[:j+1]**2) / sum(D**2), both sums from one running
    sum, so the entries never decrease, never exceed 1, and are exactly
    1 from the last nonzero value on. D must be non-increasing,
    non-negative, and not all zero.
    """
    D = np.asarray(D, dtype=np.float64)
    if D.ndim != 1 or D.size == 0:
        raise ConfigError("D must be a non-empty 1-D array of singular values")
    if not np.isfinite(D).all() or np.any(D < 0):
        raise DataError("singular values must be finite and non-negative")
    if np.any(np.diff(D) > 0):
        raise ConfigError("singular values must be non-increasing")
    cum = np.cumsum(D**2)
    if cum[-1] == 0.0:
        raise DataError("all singular values are zero")
    return cum / cum[-1]


def orthonormal_basis(S, labels=None) -> tuple[np.ndarray, float]:
    """Thin-QR basis Q of col(S) and the 2-norm condition number of S.

    S = QR with Q orthonormal, so R[:j, :j], the R factor of S's first j
    columns, shares their singular values. The first block with fewer
    singular values than columns (fewer rows than columns), all of them
    zero, or (sv[-1] / sv[0])**2, its Gram matrix's rcond, below
    RCOND_LIMIT, is a DataError naming its last column as collinear with
    those before it, by `labels` (column indices when None). The last
    block is R, whose singular values give the condition number. An S
    with no columns is a ConfigError. tabfair takes no other QR.
    """
    S = as_matrix(S, "S")
    cols = S.shape[1]
    if cols == 0:
        raise ConfigError("S has no columns: there is no sensitive attribute to remove")
    labels = list(range(cols)) if labels is None else labels
    Q, R = np.linalg.qr(S)
    for j in range(1, cols + 1):
        sv = np.linalg.svd(R[:j, :j], compute_uv=False)
        if sv.size < j or sv[0] == 0.0 or (sv[-1] / sv[0]) ** 2 < RCOND_LIMIT:
            raise DataError(f"column {labels[j - 1]!r} of S is collinear with the columns "
                            f"before it {labels[:j - 1]}; drop collinear sensitive columns")
    return Q, float(sv[0] / sv[-1])


def projector(S) -> np.ndarray:
    """The orthogonal projector P = S (S^T S)^-1 S^T = Q Q^T onto col(S).

    P is symmetric and idempotent with trace equal to the number of
    columns of S. Materializes an n x n matrix: intended for modest n;
    use residualize() for tall inputs. orthonormal_basis() lists the
    refusals of S.
    """
    Q, _ = orthonormal_basis(S)
    return Q @ Q.T


def residualize(S, M, labels=None) -> tuple[np.ndarray, float]:
    """(I - P_S) @ M = M - Q (Q^T M) without materializing any n x n
    matrix, and the 2-norm condition number of S: both from one
    orthonormal_basis(S, labels), which lists the refusals of S; M must
    have S's rows."""
    S = as_matrix(S, "S")
    M = as_matrix(M, "M", rows=S.shape[0])
    Q, condition = orthonormal_basis(S, labels)
    return M - Q @ (Q.T @ M), condition


def write_rows(fh, M: np.ndarray) -> None:
    """Write each row of the 2-D M to the binary file fh as one line of
    space-separated 17-significant-digit values, which round-trip
    float64 exactly. The bytes are those of per-value `"%.17g" % v`;
    they are formatted _BLOCK values at a time (_format_block)."""
    rows, cols = M.shape
    if cols == 0:
        fh.write(b"\n" * rows)
        return
    ends = np.full(cols, 32, dtype=np.uint8)  # ' '
    ends[-1] = 10  # '\n'
    ends = np.tile(ends, _BLOCK // cols + 2)
    for start in range(0, rows * cols, _BLOCK):
        x = M.flat[start:start + _BLOCK]
        fh.write(_format_block(x, ends[start % cols:][:x.size]))


# Values per formatting block; a block's arrays are freed before the
# next block's. On the German pipeline (1,000 x 100 Z_hat; Linux,
# numpy 2.4, 2-core VM) peak RSS rose 0.55 MB over the per-row writer
# with this size, 0.8 MB with 4,096 values, and 1.1 MB with 4,096 when
# _significands' temporaries stayed alive beside the slots. 4,096
# formats about 5% faster.
_BLOCK = 2048
# 10**16 and 10**17: the 17-digit integers D of the vectorized path.
_D_MIN, _D_END = 10**16, 10**17
# The 47-byte slot in which _format_block lays out one value: the sign,
# '0.000', the 17 digits, '.', the 17 digits again, 'e', the exponent's
# sign and digits, and the separator. The integer digits are kept from
# the first copy and the fraction digits from the second, so that every
# kept run of a slot is contiguous, which keeps the compaction fast.
_SLOT = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000 ", dtype=np.uint8)
_INT, _FRAC, _EXP = 6, 24, 41  # where the two digit copies and 'e' start


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """(hi, hi_big, hi_small, lo) at index E + 201, for E in [-201, 200]:
    hi is the float64 nearest 10**(16 - E), hi_big + hi_small its Dekker
    split, and hi + lo equals 10**(16 - E) to about 106 bits. Built from
    ints, whose true division rounds correctly."""
    hi, lo = [], []
    for t in range(217, -185, -1):  # t = 16 - E
        num, den = (10**t, 1) if t >= 0 else (1, 10**-t)
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


@functools.cache
def _exponent_layouts() -> tuple[np.ndarray, np.ndarray]:
    """(form, text) at index E + 201, for E in [-201, 200]: the layout
    form of E (see _slot_masks), and the 4 bytes written after 'e', as
    '+050' (of which '+05' is kept) or '-123'."""
    E = np.arange(-201, 201)
    form = np.where((E >= -4) & (E <= 16), E + 4, 21 + (np.abs(E) >= 100))
    text = b"".join(b"%+04d" % e if abs(e) >= 100 else b"%+03d0" % e for e in E)
    return form, np.frombuffer(text, dtype=np.uint8).reshape(-1, 4)


@functools.cache
def _slot_masks() -> np.ndarray:
    """Which bytes of _SLOT to keep, but the sign, by layout form * 17 +
    last: forms 0-20 are fixed notation with exponent E = form - 4, 21
    and 22 scientific notation with two and three exponent digits; last
    is the index of the last nonzero digit (0 for zero).

    Fixed notation writes '0.' and -E - 1 zeros before the digits when
    E < 0, and at least the E + 1 integer digits otherwise; scientific
    notation writes one integer digit. Both keep the digits up to the
    last nonzero one, and the point only when digits follow it."""
    form, last = (g.ravel()[:, None] for g in np.indices((23, 17)))
    E = form - 4
    fixed = form <= 20
    n_int = np.where(fixed, np.maximum(E + 1, 0), 1)
    col = np.arange(_SLOT.size)
    return ((col >= 1) & (col < 1 + np.where(fixed & (E < 0), 1 - E, 0))
            | (col >= _INT) & (col < _INT + n_int)
            | (col == _FRAC - 1) & (last >= n_int) & (n_int > 0)
            | (col >= _FRAC + n_int) & (col <= _FRAC + last)
            | (col >= _EXP) & (col < _EXP + np.where(fixed, 0, 3 + form - 20))
            | (col == _SLOT.size - 1))


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of float64 v into big + small, 26 bits each."""
    c = 134217729.0 * v  # 2**27 + 1
    big = c - (c - v)
    return big, v - big


def _format_one(v: float) -> bytes:
    """The fallback of _format_block: one value, as `%.17g` writes it."""
    return b"%.17g" % v


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E + 201, formatted) for the 1-D x: the 17 significant digits D
    and decimal exponent E of each value, as `%.17g` rounds them, and
    whether they stand; 0 for a zero, which stands.

    A value v with 1e-200 < |v| < 1e200 gets D from V = |v| * 10**(16 - E),
    E = floor(log10 |v|): the product with the double-double hi + lo of
    10**(16 - E) is exact in |v| * hi (Dekker) and off by about 1e-15 in
    all; it is exact for -6 <= E <= 16, where lo is 0. D = floor(V), plus
    one when the fraction is above 1/2, or is 1/2 exactly and floor(V) is
    odd. It stands when floor(V) >= 10**16 (log10 did not overshoot E),
    D < 10**17 (no carry into an 18th digit), and V is exact or its
    fraction is not within 1e-6 of 1/2."""
    a = np.abs(x)
    fast = (a > 1e-200) & (a < 1e200)
    a[~fast] = 1.0
    at = np.floor(np.log10(a)).astype(np.int64) + 201
    hi, hi_big, hi_small, lo = (np.take(t, at) for t in _powers_of_ten())
    p = a * hi
    a_big, a_small = _split(a)
    q = ((a_big * hi_big - p) + a_big * hi_small + a_small * hi_big) + a_small * hi_small
    q += a * lo
    floor_q = np.floor(q)
    frac = q - floor_q
    F = p.astype(np.int64) + floor_q.astype(np.int64)
    # Where lo is 0, V is exact and a fraction of 1/2 is a tie, which
    # %.17g rounds to even.
    D = F + ((frac > 0.5) | (frac == 0.5) & (F & 1 == 1))
    formatted = fast & (F >= _D_MIN) & (D < _D_END) & ((lo == 0) | (np.abs(frac - 0.5) > 1e-6))
    zero = x == 0
    D[zero] = 0
    return D, at, formatted | zero


def _format_block(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The bytes of the 1-D x: each value as `"%.17g" % v`, followed by
    its byte of `ends`. Each value is laid out in a copy of _SLOT, with
    the digits and exponent _significands() gives; _slot_masks() says,
    by layout, which of its bytes are the text. Every value whose digits
    do not stand goes to _format_one and is spliced into place."""
    n = x.size
    D, at, formatted = _significands(x)
    # The digits of D: the first, then four groups of four in int16.
    digits = np.empty((17, n), dtype=np.uint8)
    groups = np.empty((4, n), dtype=np.int16)
    for k in range(3, -1, -1):
        quot = D // 10000
        groups[k] = D - quot * 10000
        D = quot
    digits[0] = D
    by_group = digits[1:].reshape(4, 4, n)
    for m in range(3, -1, -1):
        quot = groups // 10
        by_group[:, m] = groups - quot * 10
        groups = quot
    last = ((digits[1:] != 0) * np.arange(1, 17, dtype=np.uint8)[:, None]).max(axis=0)
    digits += 48

    form, exp_text = _exponent_layouts()
    slot = np.empty((n, _SLOT.size), dtype=np.uint8)
    slot[:] = _SLOT
    slot[:, _INT:_INT + 17] = digits.T
    slot[:, _FRAC:_FRAC + 17] = digits.T
    slot[:, _EXP + 1:_EXP + 5] = np.take(exp_text, at, axis=0)
    slot[:, -1] = ends
    keep = np.take(_slot_masks(), np.take(form, at) * 17 + last, axis=0)
    keep[:, 0] = np.signbit(x)

    for i in np.flatnonzero(~formatted):
        text = _format_one(float(x[i]))
        slot[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i] = np.arange(_SLOT.size) < len(text)
        keep[i, -1] = True
    return slot[keep].tobytes()


def save_matrix(path, M) -> None:
    """Write a matrix in the format its file name asks for. A `.npy`
    path gets numpy's format, C-order float64. Any other path gets text:
    a 'rows cols' header line, then one line per row (see write_rows).
    run_both() writes the header and the first half of the rows to
    `path`, and the second half to a part file beside it, which is then
    appended and removed. The text is an export: load_matrix() does not
    read it."""
    M = as_matrix(M, "matrix")
    path = Path(path)
    if path.suffix == ".npy":
        np.save(path, np.ascontiguousarray(M), allow_pickle=False)
        return
    rows, cols = M.shape
    h = rows // 2
    part = path.with_name(path.name + ".part")
    try:
        run_both(lambda: _write_text(path, M[:h], b"%d %d\n" % (rows, cols)),
                 lambda: _write_text(part, M[h:]))
        with open(part, "rb") as src, open(path, "ab") as dst:
            shutil.copyfileobj(src, dst)
    finally:
        part.unlink(missing_ok=True)


def _write_text(path: Path, M: np.ndarray, header: bytes = b"") -> None:
    with open(path, "wb") as fh:
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


def run_both(first, second):
    """(first(), second()). When tabfair.BLAS_PINNED holds, second() runs
    in a forked child, which sends its result back pickled, while this
    process runs first(); otherwise both run here, in order. If the
    child fails or is killed, this process runs second() itself, so its
    error is the one a single process meets. The child ends in
    os._exit: it never returns into the rest of the caller's program or
    flushes the buffers it inherited.

    This process drains the pipe, or closes it when first() raises,
    before it reaps the child: a result larger than the pipe buffer
    blocks the child until then."""
    if not tabfair.BLAS_PINNED:
        return first(), second()
    r, w = os.pipe()
    with open(r, "rb") as receive, open(w, "wb") as send:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                receive.close()
                with send:
                    pickle.dump(second(), send, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        send.close()
        try:
            with receive:
                here = first()
                sent = receive.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return here, pickle.loads(sent) if code == 0 else second()
