"""Shared fixtures: a small synthetic mixed-type dataset with a known
group skew, available raw (CSV + schema) and encoded.

The generator plants a strong dependence between the sensitive group
and both the label and the features, so fairness metrics start out
clearly outside the 80% band and debiasing has something to remove.

Also the oracles for the text row format of matrix files: a
per-value writer and a per-token reader, as the format was first
written, a whole-file reader built on the latter (the package itself
reads only `.npy` matrices), and random float64 bit patterns with the
values that format and parse at the edges.

Every test is checked for what run_both()'s forked child could leave
behind: a child not reaped, or a part file of a text matrix in its
tmp_path. The `mode` fixture runs a test with run_both() in each of its
two modes; the test process imports numpy before tabfair, so BLAS is
not pinned there unless a test says so.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import tabfair
from tabfair import dataset as ds

SCHEMA_TEXT = """tabfair-schema 1
column x1 numerical
column x2 numerical
column color categorical
column shape categorical
column group sensitive privileged=B
column outcome label positive=yes
"""

COLUMNS = ["x1", "x2", "color", "shape", "group", "outcome"]


def synthetic_rows(n: int = 240, seed: int = 7) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    rows = []
    colors = ("red", "green", "blue")
    for _ in range(n):
        g = int(rng.random() < 0.5)
        base = 0.8 if g else -0.8
        x1 = rng.normal(base, 1.0)
        x2 = rng.normal(-base, 1.5)
        color = colors[int(rng.integers(0, 3))] if g else colors[int(rng.integers(0, 2))]
        shape = "circle" if rng.random() < (0.7 if g else 0.3) else "square"
        label = "yes" if rng.random() < (0.75 if g else 0.30) else "no"
        rows.append([f"{x1:.6f}", f"{x2:.6f}", color, shape, "B" if g else "A", label])
    return rows


def write_csv(path: Path, rows: list[list[str]], header=COLUMNS) -> Path:
    lines = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# +-0, subnormals, the largest double, 2**53 + 1 (which rounds to 2**53),
# and the powers of ten where %.17g switches notation or stops being exact.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.0**53 + 1, 1e16, 1e17, 1e21, 1e22, -1e22, 0.1]


def random_finite_floats(rng, shape) -> np.ndarray:
    """Finite float64 values from uniform random bit patterns, with
    EDGE_FLOATS placed first."""
    size = int(np.prod(shape))
    bits = rng.integers(0, 2**64, size=2 * size + 64, dtype=np.uint64).view(np.float64)
    values = np.concatenate([EDGE_FLOATS, bits[np.isfinite(bits)]])[:size]
    return values.reshape(shape)


def per_value_text(M) -> str:
    """Oracle writer: row lines formatted one value at a time."""
    return "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in np.asarray(M))


def per_token_values(lines) -> list[list[float]]:
    """Oracle reader: float() on each token of each row line."""
    return [[float(t) for t in line.split()] for line in lines]


def text_matrix(path) -> np.ndarray:
    """Oracle reader of a text matrix file: its 'rows cols' line, then
    per_token_values() of the row lines."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows, cols = (int(v) for v in header.split())
    return np.array(per_token_values(lines), dtype=np.float64).reshape(rows, cols)


@pytest.fixture(params=["two-processes", "one-process"])
def mode(request, monkeypatch):
    """Run the test with run_both() in each of its two modes."""
    monkeypatch.setattr(tabfair, "BLAS_PINNED", request.param == "two-processes")
    return request.param


@pytest.fixture(autouse=True)
def no_stray_children_or_part_files(request):
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # raises only when no child is left
    assert tmp is None or not list(tmp.rglob("*.part"))


@pytest.fixture(scope="session")
def schema_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("schema") / "synthetic.schema"
    path.write_text(SCHEMA_TEXT, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def schema(schema_file):
    return ds.load_schema(schema_file)


@pytest.fixture(scope="session")
def csv_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    return write_csv(path, synthetic_rows())


@pytest.fixture(scope="session")
def encoded(csv_file, schema) -> ds.EncodedDataset:
    return ds.encode(ds.load_csv(csv_file, schema), schema)
