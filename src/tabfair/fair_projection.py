"""Closed-form removal of sensitive-attribute influence.

The mixed representation Z is truncated to its best rank-k
approximation and then residualized against the sensitive matrix S:

    Z_hat = (I - P_S) @ (M_k diag(D_k) N_k^T),   P_S = S (S^T S)^-1 S^T

Every column of Z_hat is orthogonal to every column of S, and the
truncation keeps the dominant variation of Z. The order is fixed:
truncate first, then residualize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .linalg import explained_variance, rank_k_svd, residualize

# Acceptable relative orthogonality residual of Z_hat^T S.
ORTHOGONALITY_TOL = 1e-8


@dataclass(frozen=True)
class FairProjectionConfig:
    """Rank to keep, optional intercept column for S, and an optional
    explained-variance target that overrides k when present."""

    k: int | None = None
    include_intercept: bool = False
    variance_target: float | None = None

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.variance_target is not None and not 0.0 < self.variance_target <= 1.0:
            raise ConfigError(
                f"variance_target must be in (0, 1], got {self.variance_target}"
            )
        if self.k is None and self.variance_target is None:
            raise ConfigError("either k or variance_target is required")


@dataclass
class DebiasedRepresentation:
    """The debiased matrix, the rank used, and the achieved
    orthogonality residual (max |Z_hat^T S| entry, absolute and
    relative to ||Z_hat||_F ||S||_F)."""

    Z_hat: np.ndarray
    k: int
    residual: float
    relative_residual: float


def select_k(D, variance_target: float) -> int:
    """Smallest rank whose cumulative explained variance reaches the
    target fraction, given the non-increasing singular values D."""
    if not 0.0 < variance_target <= 1.0:
        raise ConfigError(f"variance_target must be in (0, 1], got {variance_target}")
    cum = explained_variance(D)
    return int(np.searchsorted(cum, variance_target) + 1)


def build_sensitive_matrix(S, names: list[str], attributes: list[str]) -> np.ndarray:
    """The columns of S belonging to the named sensitive attributes, in
    attribute order (multiple attributes are removed simultaneously).

    An attribute matches the column of that name and every
    reference-dropped indicator column "<attribute>=<level>".
    """
    columns = []
    for attr in attributes:
        hits = [j for j, n in enumerate(names) if n == attr or n.startswith(f"{attr}=")]
        if not hits:
            raise ConfigError(f"unknown sensitive attribute {attr!r}; dataset has {names}")
        columns.extend(hits)
    return np.asarray(S, dtype=np.float64)[:, columns]


def debias(Z, S, config: FairProjectionConfig) -> DebiasedRepresentation:
    """Compute Z_hat = (I - P_S) @ rank_k(Z).

    One SVD of Z serves both the k selection and the truncation. The
    residualization is applied to the n x k left factor, M_res =
    M_k - Q (Q^T M_k) with Q the thin-QR basis of S, before the rank-k
    product is formed, so no n x n matrix is ever materialized. S (with
    the intercept column, when configured) whose Gram matrix S^T S has a
    reciprocal condition number below linalg.RCOND_LIMIT raises
    NumericalError; the test runs on the singular values of the QR
    factor R, which equal those of S.
    """
    Z = np.asarray(Z, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or Z.ndim != 2:
        raise ConfigError("Z and S must be 2-D matrices")
    if Z.shape[0] != S.shape[0]:
        raise ConfigError(f"row mismatch: Z has {Z.shape[0]} rows, S has {S.shape[0]}")
    if config.include_intercept:
        S = np.hstack([S, np.ones((S.shape[0], 1))])
    n, p = Z.shape
    if config.variance_target is None and not 1 <= config.k <= min(n, p):
        raise ConfigError(f"k={config.k} out of range [1, {min(n, p)}] for a {n}x{p} matrix")
    svd = rank_k_svd(Z, min(n, p))
    if config.variance_target is not None:
        k = select_k(svd.D, config.variance_target)
    else:
        k = config.k
    M_res = residualize(S, svd.M[:, :k])
    Z_hat = (M_res * svd.D[:k]) @ svd.N[:, :k].T

    residual = float(np.max(np.abs(Z_hat.T @ S)))
    denom = np.linalg.norm(Z_hat) * np.linalg.norm(S) + np.finfo(np.float64).tiny
    relative = residual / denom
    if relative >= ORTHOGONALITY_TOL:
        raise NumericalError(
            f"debiasing failed orthogonality: relative residual {relative:.3e}"
        )
    return DebiasedRepresentation(
        Z_hat=Z_hat, k=k, residual=residual, relative_residual=relative
    )
