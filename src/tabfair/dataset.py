"""Typed ingestion of mixed numerical/categorical CSV data.

A plain-text schema declares each column's role (numerical,
categorical, sensitive, label, ignored). Encoding z-scores numerical
columns with full-dataset population statistics, expands categorical
columns into one indicator per observed level, builds a binary
sensitive matrix S that never overlaps the feature columns, and maps
the label to {0, 1}. The full encoding recipe (the "level map") is
persisted beside the matrices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, undecodable_is_data_error

# The options a column of each kind (and transform) takes: those its
# encoding reads. An age_band column is read as ages, not levels.
_OPTIONS = {
    ("numerical", None): (),
    ("categorical", None): ("levels",),
    ("sensitive", None): ("levels", "privileged"),
    ("sensitive", "age_band"): (),
    ("label", None): ("positive",),
    ("ignored", None): (),
}
KINDS = tuple(dict.fromkeys(kind for kind, _ in _OPTIONS))

# Cells equal to one of these (after stripping) count as missing; rows
# with a missing value in any schema-used column are dropped.
MISSING_TOKENS = ("", "?")

SCHEMA_FORMAT = "tabfair-schema 1"
LEVELMAP_FORMAT = "tabfair-levelmap 1"
SPLIT_FORMAT = "tabfair-split 1"

# Privileged band for the age attribute: ages 25..60 inclusive map to 1.
AGE_BAND_LOW = 25
AGE_BAND_HIGH = 60


@dataclass(frozen=True)
class ColumnSchema:
    """One column's role plus encoding options.

    levels: declared level set for categorical/sensitive columns
        (inferred from the data, sorted, when absent).
    privileged: for a sensitive column, the level mapped to 1; the
        column becomes a single 0/1 indicator.
    transform: 'age_band' marks a numeric sensitive column to be
        discretized by discretize_german_age().
    positive: for the label column, the raw value mapped to 1.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    privileged: str | None = None
    transform: str | None = None
    positive: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        takes = _OPTIONS.get((self.kind, self.transform))
        if takes is None:
            raise ConfigError(f"column {self.name!r}: transform={self.transform} does not "
                              f"apply to kind {self.kind}")
        role = self.kind + ("" if self.transform is None else f" with transform={self.transform}")
        for option in ("levels", "privileged", "positive"):
            if getattr(self, option) is not None and option not in takes:
                raise ConfigError(f"column {self.name!r}: {option}= does not apply to kind {role}")


def validate_schema(columns: list[ColumnSchema]) -> None:
    """Whole-schema invariants: unique names, exactly one label, at
    least one numerical, one categorical and one sensitive column, and
    no sensitive name holding '=', which S's column names reserve."""
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise ConfigError("schema column names must be unique")
    kinds = [c.kind for c in columns]
    if kinds.count("label") != 1:
        raise ConfigError("schema must declare exactly one label column")
    if kinds.count("numerical") < 1 or kinds.count("categorical") < 1:
        raise ConfigError(
            "schema needs at least one numerical and one categorical column"
        )
    if "sensitive" not in kinds:
        raise ConfigError("schema needs at least one sensitive column to debias against")
    for c in columns:
        if c.kind == "sensitive" and "=" in c.name:
            raise ConfigError(f"sensitive column {c.name!r}: a name may not contain '=', "
                              "which separates attribute and level in S's column names")


def load_schema(path) -> list[ColumnSchema]:
    """Parse the plain-text schema format.

    Line 1 is the format version; then one 'column <name> <kind>
    [key=value ...]' per line. '#' starts a comment. Level lists use
    '|' as separator.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"schema file not found: {path}")
    try:
        # utf-8-sig drops a leading byte-order mark, as load_csv does.
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != SCHEMA_FORMAT:
        raise ConfigError(f"{path}: first line must be {SCHEMA_FORMAT!r}")
    columns: list[ColumnSchema] = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] != "column" or len(parts) < 3:
            raise ConfigError(f"{path}:{ln}: expected 'column <name> <kind> [opts]'")
        opts: dict[str, object] = {}
        for opt in parts[3:]:
            if "=" not in opt:
                raise ConfigError(f"{path}:{ln}: malformed option {opt!r}")
            key, value = opt.split("=", 1)
            if key in opts:
                raise ConfigError(f"{path}:{ln}: option {key}= given twice")
            opts[key] = tuple(value.split("|")) if key == "levels" else value
        try:
            columns.append(ColumnSchema(parts[1], parts[2], **opts))
        except TypeError:  # a key that is not a ColumnSchema option
            raise ConfigError(f"{path}:{ln}: unknown option among {sorted(opts)}") from None
    validate_schema(columns)
    return columns


@dataclass
class RawTable:
    """A CSV file's kept rows as {header name: stripped cells}, in header order."""

    columns: dict[str, list[str]]
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _csv_records(fh, path):
    """csv.reader(fh)'s records, each with the file line it ends on (a
    quoted cell can hold line breaks); a csv.Error is a DataError naming
    the line."""
    reader = csv.reader(fh)
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv(path, schema: list[ColumnSchema]) -> RawTable:
    """Read a comma-separated UTF-8 file with a header row; a leading
    byte-order mark, as spreadsheet programs write, is dropped.

    The header must contain exactly the schema's column names (any
    order). Cells are whitespace-stripped. Rows with a missing value
    (see MISSING_TOKENS) in a non-ignored column are dropped and
    counted in dropped_rows. Ragged rows, and text the csv module
    cannot parse, are errors naming the line.
    """
    validate_schema(schema)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data file not found: {path}")
    with undecodable_is_data_error(path), open(path, "r", encoding="utf-8-sig", newline="") as fh:
        records = _csv_records(fh, path)
        try:
            header = [h.strip() for h in next(records)[1]]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate header names")
        if set(header) != {c.name for c in schema}:
            missing = {c.name for c in schema} - set(header)
            extra = set(header) - {c.name for c in schema}
            raise DataError(
                f"{path}: header does not match schema"
                + (f"; missing {sorted(missing)}" if missing else "")
                + (f"; not in schema {sorted(extra)}" if extra else "")
            )
        ignored = {c.name for c in schema if c.kind == "ignored"}
        used = [i for i, h in enumerate(header) if h not in ignored]
        columns: dict[str, list[str]] = {h: [] for h in header}
        dropped = 0
        for ln, raw in records:
            if not raw:
                continue  # blank line
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: line {ln} has {len(raw)} cells, expected {len(header)}"
                )
            cells = [c.strip() for c in raw]
            if any(cells[i] in MISSING_TOKENS for i in used):
                dropped += 1
                continue
            for column, cell in zip(columns.values(), cells):
                column.append(cell)
    return RawTable(columns=columns, dropped_rows=dropped)


def discretize_german_age(age: float) -> int:
    """Binary age grouping: 1 (privileged) for 25 <= age <= 60, else 0."""
    if not np.isfinite(age) or age <= 0:
        raise DataError(f"age must be positive, got {age}")
    return int(AGE_BAND_LOW <= age <= AGE_BAND_HIGH)


@dataclass(frozen=True)
class NumericalEncoding:
    name: str
    mean: float
    std: float


@dataclass(frozen=True)
class CategoricalEncoding:
    name: str
    levels: tuple[str, ...]  # one indicator column per level, in order


@dataclass(frozen=True)
class SensitiveEncoding:
    """How one sensitive column becomes 0/1 columns of S.

    mode 'privileged': one column, 1 iff cell == detail[0].
    mode 'age_band':  one column via discretize_german_age.
    mode 'reference': indicators for detail[1:], detail[0] is the
        dropped reference level (keeps S full rank).
    """

    name: str
    mode: str
    detail: tuple[str, ...]

    def column_names(self) -> list[str]:
        if self.mode in ("privileged", "age_band"):
            return [self.name]
        return [f"{self.name}={lv}" for lv in self.detail[1:]]


@dataclass(frozen=True)
class LevelMap:
    """The complete, persisted encoding recipe for one dataset."""

    numerical: tuple[NumericalEncoding, ...]
    categorical: tuple[CategoricalEncoding, ...]
    sensitive: tuple[SensitiveEncoding, ...]
    label_name: str
    label_positive: str | None


@dataclass
class EncodedDataset:
    """Model-ready matrices: standardized X_num, indicator X_cat, binary
    sensitive matrix S, binary labels y, and the level map that
    produced them."""

    X_num: np.ndarray
    X_cat: np.ndarray
    S: np.ndarray
    y: np.ndarray
    level_map: LevelMap

    @property
    def sensitive_names(self) -> list[str]:
        """One name per S column, in order."""
        return [n for e in self.level_map.sensitive for n in e.column_names()]

    @property
    def n(self) -> int:
        return self.X_num.shape[0]

    @property
    def d1(self) -> int:
        return self.X_num.shape[1]

    @property
    def d2(self) -> int:
        return self.X_cat.shape[1]

    @property
    def s(self) -> int:
        return self.S.shape[1]


def _parse_numeric(values: list[str], name: str) -> np.ndarray:
    """The cells as float64. A cell float() refuses, one float() accepts
    only as Python number syntax ('_' digit groups, non-ASCII digits),
    and one that parses to inf or NaN ('inf', 'nan', or a value past the
    float64 range such as '1e400') are DataErrors naming the column and
    the kept row."""
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            if "_" in v or not v.isascii():
                raise ValueError
            out[i] = float(v)
        except ValueError:
            raise DataError(
                f"column {name!r}: cell {v!r} (row {i + 1} of the kept rows) "
                "is not a number"
            ) from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise DataError(f"column {name!r}: cell {values[i]!r} (row {i + 1} of the kept rows) "
                        "is not a finite number")
    return out


def _standardize(x: np.ndarray, name: str) -> tuple[float, float, np.ndarray]:
    """(mean, population (1/n) std, (x - mean) / std) of a numerical
    column of finite values. A constant column, or one whose mean or std
    overflows float64, is a DataError. A finite std bounds every
    |x - mean|, so the standardized values are finite too."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        std = float(np.std(x))
    if not (np.isfinite(mean) and np.isfinite(std)):
        i = int(np.argmax(np.abs(x)))
        raise DataError(f"numerical column {name!r}: its mean or standard deviation "
                        f"overflows float64 (largest magnitude {x[i]:g}, row {i + 1} "
                        "of the kept rows)")
    if std == 0.0:
        raise DataError(f"numerical column {name!r} is constant")
    return mean, std, (x - mean) / std


def _observed_levels(values: list[str], declared: tuple[str, ...] | None, name: str):
    if declared is not None:
        unseen = set(values) - set(declared)
        if unseen:
            raise DataError(
                f"column {name!r}: values {sorted(unseen)} not in declared levels"
            )
        return declared
    return tuple(sorted(set(values)))


def _indicator_block(values: list[str], levels: tuple[str, ...]) -> np.ndarray:
    index = {lv: j for j, lv in enumerate(levels)}
    block = np.zeros((len(values), len(levels)))
    for i, v in enumerate(values):
        block[i, index[v]] = 1.0
    return block


def encode(raw: RawTable, schema: list[ColumnSchema]) -> EncodedDataset:
    """Encode a raw table per its schema; see the module docstring for
    the conventions. Requires n >= 2 rows."""
    validate_schema(schema)
    if raw.n < 2:
        raise DataError(f"need at least 2 rows to encode, got {raw.n}")

    num_encs, num_cols = [], []
    cat_encs, cat_cols = [], []
    sens_encs, sens_cols = [], []
    label_name, label_positive, y = None, None, None

    for col in schema:
        values = raw.columns[col.name]
        if col.kind == "numerical":
            mean, std, z = _standardize(_parse_numeric(values, col.name), col.name)
            num_encs.append(NumericalEncoding(col.name, mean, std))
            num_cols.append(z)
        elif col.kind == "categorical":
            levels = _observed_levels(values, col.levels, col.name)
            cat_encs.append(CategoricalEncoding(col.name, levels))
            cat_cols.append(_indicator_block(values, levels))
        elif col.kind == "sensitive":
            enc, block = _encode_sensitive(col, values)
            sens_encs.append(enc)
            sens_cols.append(block)
        elif col.kind == "label":
            label_name, label_positive = col.name, col.positive
            y = _encode_label(values, col)

    return EncodedDataset(
        X_num=np.column_stack(num_cols),
        X_cat=np.hstack(cat_cols),
        S=np.hstack(sens_cols),
        y=y,
        level_map=LevelMap(
            numerical=tuple(num_encs),
            categorical=tuple(cat_encs),
            sensitive=tuple(sens_encs),
            label_name=label_name,
            label_positive=label_positive,
        ),
    )


def _encode_sensitive(col: ColumnSchema, values: list[str]):
    if col.transform == "age_band":
        ages = _parse_numeric(values, col.name)
        enc = SensitiveEncoding(col.name, "age_band", ())
        block = np.array([[discretize_german_age(a)] for a in ages], dtype=np.float64)
        return enc, block
    levels = _observed_levels(values, col.levels, col.name)
    if col.privileged is None:
        if len(levels) < 2:
            raise DataError(f"sensitive column {col.name!r} has a single level")
        if len(levels) > 2:
            # Multi-level: indicators for all levels but the first
            # (reference), keeping S^T S invertible.
            _require_observed(col.name, levels[1:], values)
            enc = SensitiveEncoding(col.name, "reference", levels)
            return enc, _indicator_block(values, levels)[:, 1:]
    # One 0/1 column. Binary without a declared privileged level: the
    # lexicographically larger level maps to 1.
    privileged = levels[1] if col.privileged is None else col.privileged
    _require_observed(col.name, (privileged,), values)
    enc = SensitiveEncoding(col.name, "privileged", (privileged,))
    block = np.array([[1.0 if v == privileged else 0.0] for v in values])
    return enc, block


def _require_observed(name: str, levels: tuple[str, ...], values: list[str]) -> None:
    """Each of `levels` gets its own S column; one that no row has,
    though declared, would be an all-zero column and leave S^T S
    singular. `prepare`'s test-split check would also stop it, but it
    would blame the split, and library callers of `encode` (README
    "Library use") never run `prepare`: they would meet it only in
    debias, as a collinear column, not as a level never observed."""
    seen = set(values)
    for level in levels:
        if level not in seen:
            raise DataError(
                f"sensitive column {name!r}: level {level!r} never observed, "
                f"so its S column would be all zero"
            )


def _encode_label(values: list[str], col: ColumnSchema) -> np.ndarray:
    if col.positive is not None:
        observed = set(values)
        if col.positive not in observed:
            raise DataError(
                f"label column {col.name!r}: positive value {col.positive!r} "
                "never observed"
            )
        if len(observed) > 2:
            raise DataError(
                f"label column {col.name!r} has {len(observed)} distinct values; "
                "binary labels required"
            )
        return np.array([1.0 if v == col.positive else 0.0 for v in values])
    if not set(values) <= {"0", "1"}:
        raise DataError(
            f"label column {col.name!r} must be 0/1 or declare positive=<value>"
        )
    return np.array([float(v) for v in values])


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint train/test row indices covering every row."""

    train: np.ndarray
    test: np.ndarray
    seed: int
    test_fraction: float


def stratified_split(y, test_fraction: float, seed: int) -> SplitIndices:
    """Per-class shuffle-then-allocate split, deterministic given seed.

    Each class contributes round(test_fraction * class_size) rows to the
    test set, so per-class fractions match the request within one row.
    A class that this leaves with no row in train or in test is a
    DataError: the probe trains and scores on both classes.
    """
    y = np.asarray(y)
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    # Sorted distinct labels, by hand: np.unique imports numpy.ma.
    y_sorted = np.sort(y, axis=None)
    classes = np.concatenate([y_sorted[:1], y_sorted[1:][y_sorted[1:] != y_sorted[:-1]]])
    if classes.size != 2:
        raise DataError(f"need exactly 2 classes, got {classes.size}")
    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for c in classes:
        idx = np.flatnonzero(y == c)
        n_test = int(round(test_fraction * idx.size))
        if not 0 < n_test < idx.size:
            raise DataError(f"class {c} has {idx.size} rows, of which test_fraction "
                            f"{test_fraction} puts {n_test} in the test split: "
                            "train and test each need one")
        idx = idx[rng.permutation(idx.size)]
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    return SplitIndices(
        train=np.sort(np.concatenate(train_parts)),
        test=np.sort(np.concatenate(test_parts)),
        seed=seed,
        test_fraction=test_fraction,
    )


def save_split(path, split: SplitIndices) -> None:
    """The key-value file (see write_key_values) load_split() reads."""
    write_key_values(path, SPLIT_FORMAT, [
        ("seed", split.seed), ("test_fraction", split.test_fraction),
        ("train", " ".join(str(i) for i in split.train)),
        ("test", " ".join(str(i) for i in split.test)),
    ])


def spell(value) -> str:
    """A value as every text artifact writes it: None as 'undefined', a
    bool as 'true' or 'false', a float (numpy's float64 included) at 17
    significant digits, which float() reads back to the same bits, and
    anything else as str()."""
    if value is None:
        return "undefined"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def write_key_values(path, header: str, pairs) -> None:
    """The format line `header`, then a 'key value' line per pair of
    `pairs` in order, the value spelled by spell(). A key may repeat."""
    lines = [header] + [f"{key} {spell(value)}" for key, value in pairs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    """A CSV of the names `header`, then a line per row, each value spelled by spell()."""
    lines = [",".join(header)] + [",".join(map(spell, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_text_artifact(path, header: str | None = None) -> str:
    """The text of an artifact after its format line `header` (None: the
    format has none). A file that does not start with that line, or does
    not end in a line end, as one cut inside its last line does not, is
    a DataError, as is text that is not UTF-8."""
    with undecodable_is_data_error(path):
        text = Path(path).read_text(encoding="utf-8")
    if header is not None and not text.startswith(header + "\n"):
        raise DataError(f"{path}: not a {header!r} file")
    if not text.endswith("\n"):
        raise DataError(f"{path}: truncated: the last line has no line end")
    return text if header is None else text[len(header) + 1 :]


def read_key_values(path, header: str, required: tuple[str, ...] = ()) -> dict[str, str]:
    """Parse a file of a header line then 'key value' lines. A line with
    no value, a key given twice, or a missing required key is a
    DataError: no file this reads has a key that may repeat."""
    body = {}
    for ln, line in enumerate(read_text_artifact(path, header).splitlines(), start=2):
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise DataError(f"{path}:{ln}: {key!r} has no value")
        if key in body:
            raise DataError(f"{path}:{ln}: {key!r} is given a second time")
        body[key] = value
    missing = [k for k in required if k not in body]
    if missing:
        raise DataError(f"{path}: missing {missing}")
    return body


def load_split(path) -> SplitIndices:
    body = read_key_values(path, SPLIT_FORMAT, ("seed", "test_fraction", "train", "test"))
    try:
        return SplitIndices(
            train=np.array([int(v) for v in body["train"].split()]),
            test=np.array([int(v) for v in body["test"].split()]),
            seed=int(body["seed"]),
            test_fraction=float(body["test_fraction"]),
        )
    except ValueError as exc:
        raise DataError(f"{path}: malformed split entry: {exc}") from exc


def check_level_tokens(lm: LevelMap) -> None:
    """DataError unless every categorical and sensitive level can be
    written to a level map, whose lines separate fields with spaces and
    levels with '|': a level containing either, or none, is refused."""
    levels = [(e.name, lv) for e in lm.categorical for lv in e.levels]
    levels += [(e.name, lv) for e in lm.sensitive for lv in e.detail]
    for name, level in levels:
        if "|" in level or any(ch.isspace() for ch in level) or not level:
            raise DataError(
                f"column {name!r}: level {level!r} cannot be persisted "
                "(empty, or contains whitespace or '|')"
            )


def save_level_map(path, lm: LevelMap) -> None:
    """Persist the encoding recipe (see write_key_values): a line per
    column, keyed by its kind, then the label line. A level that
    check_level_tokens() refuses is a DataError; no file is written."""
    check_level_tokens(lm)
    pos = "" if lm.label_positive is None else f" positive={lm.label_positive}"
    write_key_values(path, LEVELMAP_FORMAT, [
        *(("numerical", f"{e.name} {spell(e.mean)} {spell(e.std)}") for e in lm.numerical),
        *(("categorical", f"{e.name} {'|'.join(e.levels)}") for e in lm.categorical),
        *(("sensitive", f"{e.name} {e.mode} {'|'.join(e.detail)}") for e in lm.sensitive),
        ("label", lm.label_name + pos),
    ])
