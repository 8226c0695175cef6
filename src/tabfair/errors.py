"""Exception taxonomy shared by the library and the CLI, which maps it
onto exit codes: ConfigError -> 1, DataError -> 2, NumericalError -> 3.
as_matrix() is the package's one check of a matrix argument, and
check_names() its one check of the names of S's columns.
"""

import contextlib

import numpy as np


class TabfairError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TabfairError):
    """Invalid configuration, schema file problems, missing referenced
    paths, or parameters outside their documented ranges."""


class DataError(TabfairError):
    """Malformed or unusable input data: ragged CSV rows, unparseable
    cells, constant numerical columns, degenerate label distributions,
    or a sensitive-attribute matrix with a collinear column."""


class UndefinedMetricError(DataError):
    """A fairness metric has no defined value for the given predictions,
    e.g. disparate impact with a zero privileged positive rate."""


class NumericalError(TabfairError):
    """Numerical failure: non-convergence, divergence during training,
    a Gram matrix that overflows, or a projection that fails its
    orthogonality check."""


@contextlib.contextmanager
def undecodable_is_data_error(where):
    """Re-raise a UnicodeDecodeError from the block as a DataError
    naming `where`: an artifact that is not UTF-8 text is bad data."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text: {exc}") from exc


def as_matrix(a, name: str, rows: int | None = None) -> np.ndarray:
    """`a` as float64, refused by `name` unless it is 2-D and has `rows`
    rows when given (a ConfigError), and is finite (a DataError)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ConfigError(f"{name} must be 2-D, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise ConfigError(f"{name} has {a.shape[0]} rows, expected {rows}")
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains non-finite entries")
    return a


def check_names(S: np.ndarray, names) -> None:
    """Refuse (a DataError) `names` unless it names each column of S once."""
    if S.shape[1] != len(names):
        raise DataError(f"S has {S.shape[1]} columns for {len(names)} sensitive names")
    for j, name in enumerate(names):
        if name in names[:j]:
            raise DataError(f"sensitive name {name!r} names more than one column of S")
