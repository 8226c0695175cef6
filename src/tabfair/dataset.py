"""Typed ingestion of mixed numerical/categorical CSV data.

A plain-text schema declares each column's role (numerical,
categorical, sensitive, label, ignored). Encoding z-scores numerical
columns with full-dataset population statistics, expands categorical
columns into one indicator per observed level, builds a binary
sensitive matrix S that never overlaps the feature columns, and maps
the label to {0, 1}. The full encoding recipe (the "level map") is
persisted so any raw column can be re-encoded bit-identically later.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, undecodable_is_data_error

KINDS = ("numerical", "categorical", "sensitive", "label", "ignored")

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
        if self.transform not in (None, "age_band"):
            raise ConfigError(
                f"column {self.name!r}: unknown transform {self.transform!r}"
            )
        if self.transform and self.kind != "sensitive":
            raise ConfigError(f"column {self.name!r}: transform= requires kind sensitive")
        if self.privileged and self.kind != "sensitive":
            raise ConfigError(f"column {self.name!r}: privileged= requires kind sensitive")
        if self.positive and self.kind != "label":
            raise ConfigError(f"column {self.name!r}: positive= requires kind label")


def validate_schema(columns: list[ColumnSchema]) -> None:
    """Whole-schema invariants: unique names, exactly one label, at
    least one numerical and one categorical feature column."""
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


def load_schema(path) -> list[ColumnSchema]:
    """Parse the plain-text schema format.

    Line 1 is the format version; then one 'column <name> <kind>
    [key=value ...]' per line. '#' starts a comment. Level lists use
    '|' as separator.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"schema file not found: {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
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
        name, kind = parts[1], parts[2]
        opts: dict[str, str] = {}
        for opt in parts[3:]:
            if "=" not in opt:
                raise ConfigError(f"{path}:{ln}: malformed option {opt!r}")
            key, value = opt.split("=", 1)
            opts[key] = value
        levels = tuple(opts.pop("levels").split("|")) if "levels" in opts else None
        col = ColumnSchema(
            name=name,
            kind=kind,
            levels=levels,
            privileged=opts.pop("privileged", None),
            transform=opts.pop("transform", None),
            positive=opts.pop("positive", None),
        )
        if opts:
            raise ConfigError(f"{path}:{ln}: unknown options {sorted(opts)}")
        columns.append(col)
    validate_schema(columns)
    return columns


@dataclass
class RawTable:
    """A rectangular block of string cells with a header row."""

    header: list[str]
    rows: list[list[str]]
    dropped_rows: int = 0

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def load_csv(path, schema: list[ColumnSchema]) -> RawTable:
    """Read a comma-separated UTF-8 file with a header row.

    The header must contain exactly the schema's column names (any
    order). Cells are whitespace-stripped. Rows with a missing value
    (see MISSING_TOKENS) in a non-ignored column are dropped and
    counted in dropped_rows. Ragged rows are an error naming the line.
    """
    validate_schema(schema)
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"data file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
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
        used = [i for i, h in enumerate(header) if _kind_of(h, schema) != "ignored"]
        rows: list[list[str]] = []
        dropped = 0
        for ln, raw in enumerate(reader, start=2):
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
            rows.append(cells)
    return RawTable(header=header, rows=rows, dropped_rows=dropped)


def _kind_of(name: str, schema: list[ColumnSchema]) -> str:
    for c in schema:
        if c.name == name:
            return c.kind
    raise ConfigError(f"column {name!r} absent from schema")


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
    num_names: list[str]
    cat_names: list[str]  # "column=level" per indicator column
    sensitive_names: list[str]  # one per S column
    level_map: LevelMap

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
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError:
            raise DataError(
                f"column {name!r}: cell {v!r} (row {i + 1} of the kept rows) "
                "is not a number"
            ) from None
    return out


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

    num_encs, num_cols, num_names = [], [], []
    cat_encs, cat_cols, cat_names = [], [], []
    sens_encs, sens_cols, sens_names = [], [], []
    label_name, label_positive, y = None, None, None

    for col in schema:
        if col.kind == "ignored":
            continue
        values = raw.column(col.name)
        if col.kind == "numerical":
            x = _parse_numeric(values, col.name)
            mean = float(np.mean(x))
            std = float(np.std(x))  # population (1/n) standard deviation
            if std == 0.0:
                raise DataError(f"numerical column {col.name!r} is constant")
            num_encs.append(NumericalEncoding(col.name, mean, std))
            num_cols.append((x - mean) / std)
            num_names.append(col.name)
        elif col.kind == "categorical":
            levels = _observed_levels(values, col.levels, col.name)
            cat_encs.append(CategoricalEncoding(col.name, levels))
            cat_cols.append(_indicator_block(values, levels))
            cat_names.extend(f"{col.name}={lv}" for lv in levels)
        elif col.kind == "sensitive":
            enc, block = _encode_sensitive(col, values)
            sens_encs.append(enc)
            sens_cols.append(block)
            sens_names.extend(enc.column_names())
        elif col.kind == "label":
            label_name, label_positive = col.name, col.positive
            y = _encode_label(values, col)

    dataset = EncodedDataset(
        X_num=np.column_stack(num_cols),
        X_cat=np.hstack(cat_cols),
        S=np.hstack(sens_cols) if sens_cols else np.zeros((raw.n, 0)),
        y=y,
        num_names=num_names,
        cat_names=cat_names,
        sensitive_names=sens_names,
        level_map=LevelMap(
            numerical=tuple(num_encs),
            categorical=tuple(cat_encs),
            sensitive=tuple(sens_encs),
            label_name=label_name,
            label_positive=label_positive,
        ),
    )
    return dataset


def _encode_sensitive(col: ColumnSchema, values: list[str]):
    if col.transform == "age_band":
        ages = _parse_numeric(values, col.name)
        enc = SensitiveEncoding(col.name, "age_band", ())
        block = np.array([[discretize_german_age(a)] for a in ages], dtype=np.float64)
        return enc, block
    if col.privileged is not None:
        levels = _observed_levels(values, col.levels, col.name)
        if col.privileged not in levels:
            raise DataError(
                f"sensitive column {col.name!r}: privileged level "
                f"{col.privileged!r} never observed"
            )
        enc = SensitiveEncoding(col.name, "privileged", (col.privileged,))
        block = np.array([[1.0 if v == col.privileged else 0.0] for v in values])
        return enc, block
    levels = _observed_levels(values, col.levels, col.name)
    if len(levels) < 2:
        raise DataError(f"sensitive column {col.name!r} has a single level")
    if len(levels) == 2:
        # Binary without a declared privileged level: the
        # lexicographically larger level maps to 1.
        enc = SensitiveEncoding(col.name, "privileged", (levels[1],))
        block = np.array([[1.0 if v == levels[1] else 0.0] for v in values])
        return enc, block
    # Multi-level: indicators for all levels but the first (reference),
    # keeping S^T S invertible.
    enc = SensitiveEncoding(col.name, "reference", levels)
    block = _indicator_block(values, levels)[:, 1:]
    return enc, block


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


def reencode_categorical(values: list[str], enc: CategoricalEncoding) -> np.ndarray:
    """Apply a persisted categorical mapping to a raw column; reproduces
    the original indicator block exactly."""
    unseen = set(values) - set(enc.levels)
    if unseen:
        raise DataError(f"column {enc.name!r}: values {sorted(unseen)} not in level map")
    return _indicator_block(values, enc.levels)


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
    """
    y = np.asarray(y)
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    classes = np.unique(y)
    if classes.size != 2:
        raise DataError(f"need exactly 2 classes, got {classes.size}")
    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for c in classes:
        idx = np.flatnonzero(y == c)
        if idx.size < 2:
            raise DataError(f"class {c} has fewer than 2 rows")
        idx = idx[rng.permutation(idx.size)]
        n_test = int(round(test_fraction * idx.size))
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    return SplitIndices(
        train=np.sort(np.concatenate(train_parts)),
        test=np.sort(np.concatenate(test_parts)),
        seed=seed,
        test_fraction=test_fraction,
    )


def save_split(path, split: SplitIndices) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPLIT_FORMAT + "\n")
        fh.write(f"seed {split.seed}\n")
        fh.write(f"test_fraction {split.test_fraction:.17g}\n")
        fh.write("train " + " ".join(str(i) for i in split.train) + "\n")
        fh.write("test " + " ".join(str(i) for i in split.test) + "\n")


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
    no value or a missing required key is a DataError."""
    body = {}
    for ln, line in enumerate(read_text_artifact(path, header).splitlines(), start=2):
        if not line:
            continue
        key, _, value = line.partition(" ")
        if not value.strip():
            raise DataError(f"{path}:{ln}: {key!r} has no value")
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


def _check_level_token(name: str, level: str) -> None:
    # The level-map format separates fields with spaces and levels with
    # '|'; levels containing either cannot round-trip.
    if "|" in level or any(ch.isspace() for ch in level) or not level:
        raise DataError(
            f"column {name!r}: level {level!r} cannot be persisted "
            "(empty, or contains whitespace or '|')"
        )


def save_level_map(path, lm: LevelMap) -> None:
    """Persist the encoding recipe; means/stds at 17 significant digits."""
    for e in lm.categorical:
        for lv in e.levels:
            _check_level_token(e.name, lv)
    for e in lm.sensitive:
        for lv in e.detail:
            _check_level_token(e.name, lv)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LEVELMAP_FORMAT + "\n")
        for e in lm.numerical:
            fh.write(f"numerical {e.name} {e.mean:.17g} {e.std:.17g}\n")
        for e in lm.categorical:
            fh.write(f"categorical {e.name} {'|'.join(e.levels)}\n")
        for e in lm.sensitive:
            fh.write(f"sensitive {e.name} {e.mode} {'|'.join(e.detail)}\n")
        pos = "" if lm.label_positive is None else f" positive={lm.label_positive}"
        fh.write(f"label {lm.label_name}{pos}\n")


def load_level_map(path) -> LevelMap:
    """Read a level map written by save_level_map(). A truncated or
    malformed file is a DataError; the label line is always last."""
    numerical, categorical, sensitive = [], [], []
    label_name, label_positive = None, None
    for ln, line in enumerate(read_text_artifact(path, LEVELMAP_FORMAT).splitlines(), start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "numerical":
                numerical.append(
                    NumericalEncoding(parts[1], float(parts[2]), float(parts[3]))
                )
            elif kind == "categorical":
                categorical.append(CategoricalEncoding(parts[1], tuple(parts[2].split("|"))))
            elif kind == "sensitive":
                detail = tuple(parts[3].split("|")) if len(parts) > 3 else ()
                sensitive.append(SensitiveEncoding(parts[1], parts[2], detail))
            elif kind == "label":
                label_name = parts[1]
                if len(parts) > 2 and parts[2].startswith("positive="):
                    label_positive = parts[2].split("=", 1)[1]
            else:
                raise DataError(f"{path}: unknown level-map entry {kind!r}")
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{ln}: malformed {kind} entry") from exc
    if label_name is None:
        raise DataError(f"{path}: no label line (truncated file?)")
    return LevelMap(
        numerical=tuple(numerical),
        categorical=tuple(categorical),
        sensitive=tuple(sensitive),
        label_name=label_name,
        label_positive=label_positive,
    )
