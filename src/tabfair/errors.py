"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.
"""

import contextlib


class TabfairError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TabfairError):
    """Invalid configuration, schema file problems, missing referenced
    paths, or parameters outside their documented ranges."""


class DataError(TabfairError):
    """Malformed or unusable input data: ragged CSV rows, unparseable
    cells, constant numerical columns, degenerate label distributions."""


class UndefinedMetricError(DataError):
    """A fairness metric has no defined value for the given predictions,
    e.g. disparate impact with a zero privileged positive rate."""


class NumericalError(TabfairError):
    """Numerical failure: non-convergence, divergence during training,
    or an ill-conditioned sensitive-attribute matrix."""


@contextlib.contextmanager
def undecodable_is_data_error(where):
    """Re-raise a UnicodeDecodeError from the block as a DataError
    naming `where`: an artifact that is not UTF-8 text is bad data."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{where}: not UTF-8 text: {exc}") from exc
