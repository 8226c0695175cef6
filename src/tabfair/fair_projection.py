"""Closed-form removal of sensitive-attribute influence.

The mixed representation Z is truncated to its best rank-k
approximation and then residualized against the sensitive matrix S:

    Z_hat = (I - P_S) @ (M_k diag(D_k) N_k^T),   P_S = S (S^T S)^-1 S^T

Every column of Z_hat is orthogonal to every column of S, and the
truncation keeps the dominant variation of Z. The order is fixed:
truncate first, then residualize. The SVD is taken of the p x p Gram
matrix G = Z^T Z, whose singular values are those of Z squared and
whose right singular vectors are Z's, so no n x p copy or factor of Z
is formed. Squaring halves the accurate digits: a direction whose
singular value is below about 1e-7 sigma_1 is numerically undetermined.
Only the top k directions and sums of squared singular values are used.
Z_hat = C N_k^T has rank k, so the result is kept as its k coordinates
C = (I - P_S) Z N_k and the orthonormal basis N_k; a linear probe on C
is a linear probe on Z_hat.

debias() takes the dataset's whole S and its column names. Only
sensitive_design() turns them into the S above and a label per column,
for `prepare` as for debias(); linalg.orthonormal_basis(), the one QR of
S per stage, refuses a collinear column by its label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericalError, as_matrix, check_names
from .linalg import explained_variance, rank_k_svd, residualize

# Acceptable relative orthogonality residual of Z_hat^T S.
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class FairProjectionConfig:
    """Rank to keep, as exactly one of k and an explained-variance
    target; an optional intercept column for S; and the sensitive
    attributes S holds, a non-empty list of names or None for all."""

    k: int | None = None
    include_intercept: bool = False
    variance_target: float | None = None
    attributes: list[str] | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.variance_target is not None and not 0.0 < self.variance_target <= 1.0:
            raise ConfigError(
                f"variance_target must be in (0, 1], got {self.variance_target}"
            )
        if (self.k is None) == (self.variance_target is None):
            raise ConfigError("exactly one of k and variance_target is required")
        names = self.attributes
        if names is not None and not (isinstance(names, list)
                                      and all(isinstance(a, str) for a in names)):
            raise ConfigError(f"projection 'attributes' must be a list of str, got {names!r}")
        if names == []:
            raise ConfigError("projection 'attributes' is empty; name at least one, "
                              "or give null for all")


@dataclass
class DebiasedRepresentation:
    """The debiased representation as its n x k coordinates C in the
    orthonormal basis N_k (p x k), the rank k, and the achieved
    orthogonality residual (max |Z_hat^T S| entry, absolute and
    relative to ||Z_hat||_F ||S||_F), and the 2-norm condition number of
    the S residualized against (with the intercept column, when
    configured). variance_kept is the fraction of the squared singular
    values of Z within rank k, and information_loss is
    ||Z_k - Z_hat||_F / ||Z_k||_F; both are None (undefined) for an
    all-zero Z."""

    C: np.ndarray
    N_k: np.ndarray
    k: int
    residual: float
    relative_residual: float
    sensitive_condition: float
    variance_kept: float | None
    information_loss: float | None

    @property
    def Z_hat(self) -> np.ndarray:
        """The n x p debiased matrix C N_k^T, formed anew on each access
        as one product, so its bits do not depend on the caller."""
        return self.C @ self.N_k.T


def select_k(D, variance_target: float) -> int:
    """Smallest rank whose cumulative explained variance reaches the
    target fraction, given the non-increasing singular values D."""
    if not 0.0 < variance_target <= 1.0:
        raise ConfigError(f"variance_target must be in (0, 1], got {variance_target}")
    cum = explained_variance(D)
    return int(np.searchsorted(cum, variance_target) + 1)


def sensitive_design(S: np.ndarray, names: list[str],
                     config: FairProjectionConfig) -> tuple[np.ndarray, list[str]]:
    """The S that debias() residualizes against, and a label per column,
    from the dataset's S and its column names: the columns of config's
    attributes, in attribute order (all columns for None), then a ones
    column `intercept` when include_intercept is set. An attribute matches
    the column of that name and every reference-dropped indicator column
    "<attribute>=<level>". Names that check_names() refuses, or a design
    with as many columns as rows, are a DataError; an empty design a
    ConfigError. orthonormal_basis(design, labels) tests its rank."""
    check_names(S, names)
    columns = list(range(len(names)))
    if config.attributes is not None:
        columns = []
        for attr in config.attributes:
            hits = [j for j, n in enumerate(names) if n == attr or n.startswith(f"{attr}=")]
            if not hits:
                raise ConfigError(f"unknown sensitive attribute {attr!r}; dataset has {names}")
            columns.extend(hits)
    if not columns:
        raise ConfigError("S has no columns: there is no sensitive attribute to remove")
    design, labels = S[:, columns], [names[c] for c in columns]
    if config.include_intercept:
        design = np.hstack([design, np.ones((len(S), 1))])
        labels.append("intercept")
    n, cols = design.shape
    if cols >= n:
        # Columns that span every row leave C = 0, and the relative
        # orthogonality gate would divide rounding noise by noise.
        raise DataError(f"S has {cols} columns"
                        f"{' with the intercept' if config.include_intercept else ''} for {n} "
                        "rows; debias needs more rows than S has columns")
    return design, labels


def _orthogonality_residual(C, N_k, S) -> tuple[float, float]:
    """max |Z_hat^T S| for Z_hat = C N_k^T, absolute and relative to
    ||Z_hat||_F ||S||_F, from the factors: N_k has orthonormal columns,
    so Z_hat^T S = N_k (C^T S) and ||Z_hat||_F = ||C||_F."""
    residual = float(np.max(np.abs(N_k @ (C.T @ S))))
    denom = np.linalg.norm(C) * np.linalg.norm(S) + np.finfo(np.float64).tiny
    return residual, residual / denom


def debias(Z, S, names: list[str], config: FairProjectionConfig) -> DebiasedRepresentation:
    """Compute Z_hat = (I - P_S) @ rank_k(Z), as its factors C and N_k,
    with S the sensitive_design() of the dataset's S and `names`.

    One SVD of the p x p Gram matrix G = Z^T Z, formed by one SYRK, gives
    the squared singular values D^2 of Z, for the k selection, and its
    right singular vectors N, signed as rank_k_svd() signs them. Values
    of D^2 at or below p * eps * max(D^2) are rounding noise of the
    product and are set to 0, as are the rows of N_k for the all-zero
    columns of Z (dead units), so those columns of Z_hat are 0. A Z
    whose Gram matrix overflows float64 is a NumericalError. The rank-k
    truncation is Z_k = (Z N_k) N_k^T. The n x k product Z N_k is
    residualized, Z N_k - Q_S (Q_S^T Z N_k) with Q_S the thin-QR basis
    of S, into C; neither an n x n nor an n x p matrix is materialized.
    The sign of a column of N_k flips that column of C and cancels in
    Z_hat. S must have Z's rows; sensitive_design() lists its other
    refusals but its rank, which residualize()'s QR, the one
    factorization of S, tests by label.
    """
    Z = as_matrix(Z, "Z")
    S = as_matrix(S, "S", rows=Z.shape[0])
    S, labels = sensitive_design(S, names, config)
    n, p = Z.shape
    if config.k is not None and not 1 <= config.k <= min(n, p):
        raise ConfigError(f"k={config.k} out of range [1, {min(n, p)}] for a {n}x{p} matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        G = Z.T @ Z
        # trace(G) = ||Z||_F^2 bounds every |G_ij| and the sum of D^2.
        overflow = not np.isfinite(np.trace(G))
    if overflow:
        raise NumericalError("the Gram matrix Z^T Z overflows float64; scale Z down")
    svd = rank_k_svd(G, min(n, p))
    D = np.sqrt(np.where(svd.D > p * np.finfo(np.float64).eps * svd.D[0], svd.D, 0.0))
    k = config.k if config.k is not None else select_k(D, config.variance_target)
    N_k = svd.N[:, :k]
    N_k[~Z.any(axis=0)] = 0.0
    ZN = Z @ N_k
    C, sensitive_condition = residualize(S, ZN, labels)
    residual, relative = _orthogonality_residual(C, N_k, S)
    if relative >= ORTHOGONALITY_TOL:
        raise NumericalError(
            f"debiasing failed orthogonality: relative residual {relative:.3e}"
        )
    # N_k has orthonormal columns, so ||Z_k - Z_hat||_F = ||ZN - C||_F.
    norm_k = float(np.linalg.norm(ZN))
    variance_kept = information_loss = None
    if norm_k > 0.0:
        variance_kept = float(explained_variance(D)[k - 1])
        information_loss = float(np.linalg.norm(ZN - C)) / norm_k
    return DebiasedRepresentation(
        C=C, N_k=N_k, k=k, residual=residual, relative_residual=relative,
        sensitive_condition=sensitive_condition, variance_kept=variance_kept,
        information_loss=information_loss,
    )
