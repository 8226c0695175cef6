"""Schema parsing, CSV ingestion, mixed encoding, and splits."""

import numpy as np
import pytest

from conftest import COLUMNS, EDGE_FLOATS, SCHEMA_TEXT, synthetic_rows, write_csv
from tabfair import dataset as ds
from tabfair.errors import ConfigError, DataError


def sensitive_schema(tmp_path, line: str) -> list[ds.ColumnSchema]:
    """The synthetic schema with its sensitive column declared as `line`."""
    path = tmp_path / "s.schema"
    path.write_text(SCHEMA_TEXT.replace("column group sensitive privileged=B", line),
                    encoding="utf-8")
    return ds.load_schema(path)


class TestSchema:
    def test_shipped_style_schema_parses(self, schema):
        kinds = {c.name: c.kind for c in schema}
        assert kinds == {
            "x1": "numerical",
            "x2": "numerical",
            "color": "categorical",
            "shape": "categorical",
            "group": "sensitive",
            "outcome": "label",
        }

    def test_comments_and_levels(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_text(
            "tabfair-schema 1\n"
            "# a comment\n"
            "column a numerical  # trailing comment\n"
            "column b categorical levels=x|y|z\n"
            "column s sensitive\n"
            "column y label\n",
            encoding="utf-8",
        )
        cols = ds.load_schema(path)
        assert cols[1].levels == ("x", "y", "z")

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ds.load_schema(tmp_path / "nope.schema")

    def test_bad_version_line(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_text("whatever\ncolumn a numerical\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ds.load_schema(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "s.schema"
        path.write_text(
            "tabfair-schema 1\ncolumn a numerical\ncolumn a categorical\n"
            "column y label\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="unique"):
            ds.load_schema(path)

    def test_exactly_one_label(self):
        cols = [
            ds.ColumnSchema("a", "numerical"),
            ds.ColumnSchema("b", "categorical"),
        ]
        with pytest.raises(ConfigError, match="label"):
            ds.validate_schema(cols)

    def test_needs_both_feature_kinds(self):
        cols = [
            ds.ColumnSchema("a", "numerical"),
            ds.ColumnSchema("y", "label"),
        ]
        with pytest.raises(ConfigError):
            ds.validate_schema(cols)

    def test_needs_a_sensitive_column(self):
        cols = [
            ds.ColumnSchema("a", "numerical"),
            ds.ColumnSchema("b", "categorical"),
            ds.ColumnSchema("y", "label"),
        ]
        with pytest.raises(ConfigError, match="at least one sensitive column"):
            ds.validate_schema(cols)
        ds.validate_schema(cols + [ds.ColumnSchema("s", "sensitive")])

    def test_sensitive_name_without_equals_sign(self):
        # "g=B" would read as level B of an attribute g: with a
        # multi-level g beside it, attributes ["g"] would select it too.
        cols = [
            ds.ColumnSchema("a", "numerical"),
            ds.ColumnSchema("b", "categorical"),
            ds.ColumnSchema("g", "sensitive"),
            ds.ColumnSchema("y", "label"),
        ]
        ds.validate_schema(cols + [ds.ColumnSchema("x=1", "numerical")])
        with pytest.raises(ConfigError, match="^sensitive column 'g=B': a name may not "
                                              "contain '='"):
            ds.validate_schema(cols + [ds.ColumnSchema("g=B", "sensitive", privileged="1")])

    def test_option_kind_pairing_enforced(self):
        with pytest.raises(ConfigError):
            ds.ColumnSchema("a", "numerical", privileged="x")
        with pytest.raises(ConfigError):
            ds.ColumnSchema("a", "categorical", transform="age_band")
        with pytest.raises(ConfigError):
            ds.ColumnSchema("a", "sensitive", positive="1")

    # The (kind, option) pairs a column takes; any other would be ignored.
    TAKES = {("categorical", "levels"), ("sensitive", "levels"), ("sensitive", "privileged"),
             ("sensitive", "transform"), ("label", "positive")}
    VALUES = {"levels": ("a", "b"), "privileged": "a", "transform": "age_band", "positive": "a"}

    @pytest.mark.parametrize("option", list(VALUES))
    @pytest.mark.parametrize("kind", ds.KINDS)
    def test_each_kind_takes_only_its_options(self, kind, option):
        def make():
            return ds.ColumnSchema("c", kind, **{option: self.VALUES[option]})

        if (kind, option) in self.TAKES:
            assert getattr(make(), option) == self.VALUES[option]
        else:
            with pytest.raises(ConfigError, match=f"column 'c': {option}="):
                make()

    @pytest.mark.parametrize("option", ["levels", "privileged"])
    def test_age_band_takes_no_level_option(self, option):
        # An age_band column is read as ages; a level option would be ignored.
        with pytest.raises(ConfigError, match=f"{option}= does not apply to kind sensitive "
                                              "with transform=age_band"):
            ds.ColumnSchema("age", "sensitive", transform="age_band",
                            **{option: self.VALUES[option]})

    @pytest.mark.parametrize("ln, line, option", [
        (4, "column color categorical levels=red|green|blue levels=red", "levels"),
        (6, "column group sensitive privileged=B privileged=A", "privileged"),
        (6, "column group sensitive transform=age_band transform=age_band", "transform"),
        (7, "column outcome label positive=yes positive=no", "positive"),
    ])
    def test_repeated_option_is_refused(self, tmp_path, ln, line, option):
        lines = SCHEMA_TEXT.splitlines()
        lines[ln - 1] = line
        path = tmp_path / "s.schema"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"s\.schema:{ln}: option {option}= given twice"):
            ds.load_schema(path)

    @pytest.mark.parametrize("option", ["colour=red", "name=y", "kind=label"])
    def test_unknown_option_is_refused(self, tmp_path, option):
        path = tmp_path / "s.schema"
        line = f"column x2 numerical {option}"
        path.write_text(SCHEMA_TEXT.replace("column x2 numerical", line), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"s\.schema:3: unknown option"):
            ds.load_schema(path)


class TestLoadCsv:
    def test_loads_and_strips(self, tmp_path, schema):
        rows = [["1.0", " 2.0 ", " red", "circle", "B ", "yes"]] * 3
        path = write_csv(tmp_path / "d.csv", rows)
        raw = ds.load_csv(path, schema)
        assert raw.n == 3
        assert list(raw.columns) == ["x1", "x2", "color", "shape", "group", "outcome"]
        assert [cells[0] for cells in raw.columns.values()] == ["1.0", "2.0", "red", "circle",
                                                                 "B", "yes"]

    def test_missing_rows_dropped_and_counted(self, tmp_path, schema):
        rows = synthetic_rows(20)
        rows[3][2] = "?"
        rows[7][0] = ""
        path = write_csv(tmp_path / "d.csv", rows)
        raw = ds.load_csv(path, schema)
        assert raw.n == 18
        assert raw.dropped_rows == 2

    def test_ragged_row_names_line(self, tmp_path, schema):
        rows = [r[:] for r in synthetic_rows(5)]
        rows[2] = rows[2][:-1]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(DataError, match="line 4"):
            ds.load_csv(path, schema)

    def test_ragged_row_after_a_line_break_in_a_cell_names_its_file_line(self, tmp_path,
                                                                          schema):
        # Record 2 spans lines 2-3; line 5, record 4, has 4 of 6 cells.
        path = tmp_path / "d.csv"
        path.write_text("x1,x2,color,shape,group,outcome\n"
                        '1.0,2.0,"red\nish",circle,B,yes\n'
                        "1.0,2.0,red,circle,B,yes\n"
                        "1.0,2.0,red,circle\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"d\.csv: line 5 has 4 cells, expected 6$"):
            ds.load_csv(path, schema)

    def test_header_mismatch(self, tmp_path, schema):
        path = write_csv(
            tmp_path / "d.csv", [["1", "2", "r", "c", "B", "yes"]],
            header=["x1", "x2", "color", "SHAPE", "group", "outcome"],
        )
        with pytest.raises(DataError, match="shape"):
            ds.load_csv(path, schema)

    def test_header_order_insensitive(self, tmp_path, schema):
        header = ["outcome", "x1", "group", "color", "x2", "shape"]
        rows = [["yes", "1.0", "B", "red", "2.0", "circle"],
                ["no", "2.0", "A", "blue", "1.0", "square"]]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows, header=header), schema)
        assert list(raw.columns) == header
        assert raw.columns["x1"] == ["1.0", "2.0"]

    def test_empty_file(self, tmp_path, schema):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            ds.load_csv(path, schema)

    def test_header_only_gives_zero_rows(self, tmp_path, schema):
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", []), schema)
        assert raw.n == 0

    def test_byte_order_mark_is_dropped(self, tmp_path, schema):
        # Spreadsheet programs start a UTF-8 CSV with U+FEFF.
        plain = write_csv(tmp_path / "plain.csv", synthetic_rows(8))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert ds.load_csv(marked, schema) == ds.load_csv(plain, schema)

    def test_missing_file_is_config_error(self, tmp_path, schema):
        with pytest.raises(ConfigError, match="not found"):
            ds.load_csv(tmp_path / "nope.csv", schema)


class TestAgeBand:
    def test_band_edges(self):
        assert ds.discretize_german_age(24) == 0
        assert ds.discretize_german_age(25) == 1
        assert ds.discretize_german_age(30) == 1
        assert ds.discretize_german_age(60) == 1
        assert ds.discretize_german_age(61) == 0

    def test_non_positive_rejected(self):
        for bad in (0, -3):
            with pytest.raises(DataError):
                ds.discretize_german_age(bad)


class TestEncode:
    def test_zscore_hand_case(self, tmp_path, schema):
        # Pure-python oracle: (x - 2) / sqrt(2/3).
        rows = [
            ["1", "5", "red", "circle", "A", "no"],
            ["2", "5.5", "red", "square", "B", "yes"],
            ["3", "6", "blue", "circle", "B", "no"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        enc = ds.encode(raw, schema)
        assert np.allclose(
            enc.X_num[:, 0],
            [-1.224744871391589, 0.0, 1.224744871391589],
            atol=1e-15,
        )

    def test_standardization_invariants(self, encoded):
        means = encoded.X_num.mean(axis=0)
        stds = encoded.X_num.std(axis=0)  # population, matching encode
        assert np.all(np.abs(means) < 1e-9)
        assert np.all(np.abs(stds - 1.0) < 1e-9)

    def test_one_hot_block_structure(self, tmp_path, schema):
        rows = [
            ["1", "4", "a", "circle", "A", "no"],
            ["2", "5", "b", "circle", "B", "yes"],
            ["3", "6", "a", "square", "A", "no"],
            ["4", "7", "c", "square", "B", "yes"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        enc = ds.encode(raw, schema)
        # color block: levels a, b, c in sorted order.
        assert np.array_equal(
            enc.X_cat[:, :3],
            [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]],
        )
        assert enc.level_map.categorical[0].levels == ("a", "b", "c")
        assert np.all(enc.X_cat.sum(axis=1) == 2)  # one 1 per source column

    def test_every_row_one_indicator_per_block(self, encoded):
        lo = 0
        for e in encoded.level_map.categorical:
            hi = lo + len(e.levels)
            assert np.all(encoded.X_cat[:, lo:hi].sum(axis=1) == 1)
            lo = hi

    def test_sensitive_privileged_mapping(self, tmp_path, schema):
        rows = [
            ["1", "4", "red", "circle", "B", "yes"],
            ["2", "5", "red", "square", "A", "no"],
            ["3", "6", "blue", "circle", "A", "no"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        enc = ds.encode(raw, schema)
        assert enc.S[:, 0].tolist() == [1.0, 0.0, 0.0]
        assert enc.sensitive_names == ["group"]

    def test_binary_sensitive_without_privileged(self, tmp_path):
        schema2 = sensitive_schema(tmp_path, "column group sensitive")
        rows = [
            ["1", "4", "red", "circle", "B", "yes"],
            ["2", "5", "red", "square", "A", "no"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema2)
        enc = ds.encode(raw, schema2)
        # Lexicographically larger level (B) maps to 1.
        assert enc.S[:, 0].tolist() == [1.0, 0.0]

    def test_declared_and_inferred_privileged_agree(self, tmp_path, csv_file, encoded):
        # privileged=B and an undeclared column with levels A and B take
        # the same path and give the same encoding.
        inferred = sensitive_schema(tmp_path, "column group sensitive")
        raw = ds.load_csv(csv_file, inferred)
        enc = ds.encode(raw, inferred)
        assert enc.level_map.sensitive == encoded.level_map.sensitive
        assert enc.level_map.sensitive[0] == ds.SensitiveEncoding("group", "privileged", ("B",))
        assert np.array_equal(enc.S, encoded.S)

    def test_privileged_level_never_observed(self, tmp_path, csv_file):
        schema2 = sensitive_schema(tmp_path, "column group sensitive privileged=C")
        with pytest.raises(DataError, match="never observed"):
            ds.encode(ds.load_csv(csv_file, schema2), schema2)

    def test_single_level_sensitive_rejected(self, tmp_path):
        schema2 = sensitive_schema(tmp_path, "column group sensitive")
        rows = [
            ["1", "4", "red", "circle", "A", "yes"],
            ["2", "5", "red", "square", "A", "no"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema2)
        with pytest.raises(DataError, match="single level"):
            ds.encode(raw, schema2)

    def test_multi_level_sensitive_drops_reference(self, tmp_path):
        schema2 = sensitive_schema(tmp_path, "column group sensitive")
        rows = [
            ["1", "4", "red", "circle", "p", "yes"],
            ["2", "5", "red", "square", "q", "no"],
            ["3", "6", "red", "square", "r", "no"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema2)
        enc = ds.encode(raw, schema2)
        # p is the reference level; S holds indicators for q and r only.
        assert enc.sensitive_names == ["group=q", "group=r"]
        assert np.array_equal(enc.S, [[0, 0], [1, 0], [0, 1]])

    def test_age_band_sensitive(self, tmp_path):
        schema2 = sensitive_schema(tmp_path, "column group sensitive transform=age_band")
        rows = [
            ["1", "4", "red", "circle", "24", "yes"],
            ["2", "5", "red", "square", "25", "no"],
            ["3", "6", "blue", "square", "60", "no"],
            ["4", "7", "blue", "square", "61", "yes"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema2)
        enc = ds.encode(raw, schema2)
        assert enc.S[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_constant_numerical_column_rejected(self, tmp_path, schema):
        rows = [
            ["1", "4", "red", "circle", "A", "no"],
            ["1", "5", "red", "square", "B", "yes"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        with pytest.raises(DataError, match="x1"):
            ds.encode(raw, schema)

    def test_unparseable_numeric_cell(self, tmp_path, schema):
        rows = [
            ["1", "4", "red", "circle", "A", "no"],
            ["oops", "5", "red", "square", "B", "yes"],
        ]
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        with pytest.raises(DataError, match="oops"):
            ds.encode(raw, schema)

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "1e400", "-1e400"])
    def test_non_finite_numeric_cell_rejected(self, tmp_path, schema, cell):
        rows = synthetic_rows(6)
        rows[4][0] = cell
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        with pytest.raises(DataError, match=rf"column 'x1': cell '{cell}' \(row 5 of the kept "
                                            r"rows\) is not a finite number"):
            ds.encode(raw, schema)

    @pytest.mark.parametrize("cell", ["1_000", "0.000_5", "1e1_0", "\u0663", "\uff11.5"])
    def test_python_number_syntax_rejected(self, tmp_path, schema, cell):
        # float() accepts '_' digit groups and non-ASCII decimal digits
        # (Arabic-Indic three, full-width one); a CSV cell is not Python source.
        assert np.isfinite(float(cell))
        rows = synthetic_rows(6)
        rows[2][1] = cell
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        with pytest.raises(DataError, match=rf"column 'x2': cell '{cell}' \(row 3 of the kept "
                                            r"rows\) is not a number"):
            ds.encode(raw, schema)

    def test_overflowing_standard_deviation_rejected(self, tmp_path, schema):
        # Every cell is finite, but the variance of +-1e300 is not; the
        # column would be written as all -0.0 with an infinite std.
        rows = synthetic_rows(6)
        for i, row in enumerate(rows):
            row[0] = "-1e300" if i % 2 else "1e300"
        rows[3][0] = "1.5e300"
        raw = ds.load_csv(write_csv(tmp_path / "d.csv", rows), schema)
        with pytest.raises(DataError, match=r"numerical column 'x1': its mean or standard "
                                            r"deviation overflows float64 \(largest magnitude "
                                            r"1\.5e\+300, row 4 of the kept rows\)"):
            ds.encode(raw, schema)

    def test_single_row_rejected(self, tmp_path, schema):
        raw = ds.load_csv(
            write_csv(tmp_path / "d.csv", [["1", "2", "r", "c", "B", "yes"]]), schema
        )
        with pytest.raises(DataError):
            ds.encode(raw, schema)

    def test_label_mapping(self, encoded, csv_file, schema):
        raw = ds.load_csv(csv_file, schema)
        outcomes = raw.columns["outcome"]
        assert np.array_equal(
            encoded.y, [1.0 if v == "yes" else 0.0 for v in outcomes]
        )

    def test_binary_invariants(self, encoded):
        assert set(np.unique(encoded.y)) <= {0.0, 1.0}
        assert set(np.unique(encoded.S)) <= {0.0, 1.0}
        assert set(np.unique(encoded.X_cat)) <= {0.0, 1.0}


class TestLevelMapRoundTrip:
    def test_reencode_is_lossless(self, encoded, tmp_path):
        # The recipe of the synthetic set, line for line; float() gives
        # back each mean and std bit for bit.
        path = tmp_path / "levels.txt"
        ds.save_level_map(path, encoded.level_map)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[0] == "tabfair-levelmap 1\n"
        assert lines[3:] == ["categorical color blue|green|red\n",
                             "categorical shape circle|square\n",
                             "sensitive group privileged B\n",
                             "label outcome positive=yes\n"]
        for line, enc in zip(lines[1:3], encoded.level_map.numerical):
            kind, name, mean, std = line.split()
            assert (kind, name) == ("numerical", enc.name)
            assert float(mean) == enc.mean and float(std) == enc.std

    def test_exact_text(self, tmp_path):
        # 17 significant digits, an age band's empty level list, a
        # reference coding's levels in order, and a 0/1 label.
        lm = ds.LevelMap(
            numerical=(ds.NumericalEncoding("x", 0.1, 2 / 3),),
            categorical=(ds.CategoricalEncoding("c", ("a", "b")),),
            sensitive=(ds.SensitiveEncoding("age", "age_band", ()),
                       ds.SensitiveEncoding("race", "reference", ("w", "b", "o"))),
            label_name="y",
            label_positive=None,
        )
        path = tmp_path / "levels.txt"
        ds.save_level_map(path, lm)
        assert path.read_text(encoding="utf-8") == (
            "tabfair-levelmap 1\n"
            "numerical x 0.10000000000000001 0.66666666666666663\n"
            "categorical c a|b\n"
            "sensitive age age_band \n"
            "sensitive race reference w|b|o\n"
            "label y\n"
        )

    def test_level_with_space_cannot_persist(self, tmp_path):
        lm = ds.LevelMap(
            numerical=(),
            categorical=(ds.CategoricalEncoding("c", ("ok", "not ok")),),
            sensitive=(),
            label_name="y",
            label_positive=None,
        )
        with pytest.raises(DataError):
            ds.save_level_map(tmp_path / "levels.txt", lm)


class TestKeyValues:
    def test_written_values_read_back(self, tmp_path):
        # Every edge float comes back bit for bit through float(), -0.0
        # and the subnormals included; None and bools are one word each.
        floats = [(f"f{i}", v) for i, v in enumerate(EDGE_FLOATS)]
        path = tmp_path / "kv.txt"
        ds.write_key_values(path, "tabfair-test 1", [
            *floats, ("none", None), ("yes", True), ("no", False), ("count", 7)])
        back = ds.read_key_values(path, "tabfair-test 1")
        for key, value in floats:
            assert np.float64(float(back[key])).tobytes() == np.float64(value).tobytes(), key
            assert ds.spell(np.float64(value)) == ds.spell(value)
        assert (back["none"], back["yes"], back["no"], back["count"]) == (
            "undefined", "true", "false", "7")
        assert ds.spell(np.True_) == "true" and ds.spell(np.False_) == "false"

    def test_a_key_may_repeat(self, tmp_path):
        path = tmp_path / "kv.txt"
        ds.write_key_values(path, "tabfair-test 1", [("a", 1), ("s", "x 0.5"), ("s", "y")])
        assert path.read_text(encoding="utf-8") == "tabfair-test 1\na 1\ns x 0.5\ns y\n"

    def test_reader_refuses_a_repeated_key(self, tmp_path):
        # Only reports and the level map repeat a key, and no reader reads
        # either: in a file read back, a second value is a damaged file.
        path = tmp_path / "kv.txt"
        ds.write_key_values(path, "tabfair-test 1", [("a", 1), ("b", 2), ("a", 3)])
        with pytest.raises(DataError, match=r"kv.txt:4: 'a' is given a second time$"):
            ds.read_key_values(path, "tabfair-test 1")

    def test_csv_spells_each_value(self, tmp_path):
        # The ROC's sentinel threshold is inf; an empty string is an
        # empty cell; floats read back bit for bit; no rows, no lines
        # after the header.
        path = tmp_path / "t.csv"
        ds.write_csv(path, ("a", "b", "c"), [(np.inf, 0.0, 1), (0.1, None, ""),
                                             (np.float64(-0.0), True, 5e-324)])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines == ["a,b,c", "inf,0,1", "0.10000000000000001,undefined,",
                         "-0,true,4.9406564584124654e-324", ""]
        for value in EDGE_FLOATS:
            ds.write_csv(path, ("v",), [(value,)])
            back = float(path.read_text(encoding="utf-8").splitlines()[1])
            assert np.float64(back).tobytes() == np.float64(value).tobytes(), value
        ds.write_csv(path, ("epoch", "train_loss", "val_loss"), iter(()))
        assert path.read_bytes() == b"epoch,train_loss,val_loss\n"


class TestStratifiedSplit:
    def test_tiny_forced_case(self):
        split = ds.stratified_split(np.array([0, 0, 1, 1]), 0.5, seed=0)
        y = np.array([0, 0, 1, 1])
        assert y[split.test].sum() == 1
        assert split.test.size == 2

    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            y = rng.integers(0, 2, size=101)
            split = ds.stratified_split(y, 0.3, seed=seed)
            together = np.concatenate([split.train, split.test])
            assert np.array_equal(np.sort(together), np.arange(101))
            for c in (0, 1):
                total = int((y == c).sum())
                in_test = int((y[split.test] == c).sum())
                assert abs(in_test - 0.3 * total) <= 0.5 + 1e-9

    def test_deterministic(self):
        y = np.random.default_rng(3).integers(0, 2, size=60)
        a = ds.stratified_split(y, 0.5, seed=11)
        b = ds.stratified_split(y, 0.5, seed=11)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.test, b.test)
        c = ds.stratified_split(y, 0.5, seed=12)
        assert not np.array_equal(a.test, c.test)

    def test_sorted_indices(self):
        y = np.random.default_rng(5).integers(0, 2, size=40)
        split = ds.stratified_split(y, 0.5, seed=2)
        assert np.all(np.diff(split.train) > 0)
        assert np.all(np.diff(split.test) > 0)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            ds.stratified_split(np.array([0, 1, 0, 1]), 0.0, seed=0)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            ds.stratified_split(np.zeros(10), 0.5, seed=0)

    def test_tiny_class_rejected(self):
        with pytest.raises(DataError):
            ds.stratified_split(np.array([0, 0, 0, 1]), 0.5, seed=0)

    @pytest.mark.parametrize("n_pos, fraction, n_test", [(2, 0.75, 2), (3, 0.1, 0)])
    def test_class_left_out_of_a_split_rejected(self, n_pos, fraction, n_test):
        y = np.array([1] * n_pos + [0] * 50)
        with pytest.raises(DataError, match=f"class 1 has {n_pos} rows, of which test_fraction "
                                            f"{fraction} puts {n_test} in the test split"):
            ds.stratified_split(y, fraction, seed=0)

    def test_round_trip(self, tmp_path):
        y = np.random.default_rng(8).integers(0, 2, size=30)
        split = ds.stratified_split(y, 0.25, seed=4)
        path = tmp_path / "split.txt"
        ds.save_split(path, split)
        back = ds.load_split(path)
        assert np.array_equal(back.train, split.train)
        assert np.array_equal(back.test, split.test)
        assert back.seed == 4
        assert back.test_fraction == 0.25
