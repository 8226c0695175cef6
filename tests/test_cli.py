"""End-to-end command-line pipeline on synthetic data: artifacts,
determinism, manifest integrity, and the exit-code taxonomy."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabfair.cli
from conftest import SCHEMA_TEXT, synthetic_rows, write_csv
from tabfair.cli import Run, config_hash, load_config, main, read_provenance
from tabfair.dataset import load_level_map, save_level_map
from tabfair.errors import DataError
from tabfair.evaluation import AttributeFairness, FairnessReport, load_report, save_report
from tabfair.linalg import load_matrix, save_matrix
from tabfair.neuralnet import MlpConfig, init_params, load_mlp, save_mlp

BASE_CONFIG = {
    "dataset": "synthetic",
    "csv": "synthetic.csv",
    "schema": "synthetic.schema",
    "out_dir": "out",
    "seed": 0,
    "test_fraction": 0.5,
    "encoder": {
        "latent_num": 6,
        "latent_cat": 6,
        "hidden_num_cat": 3,
        "hidden_cat_num": 3,
        "epochs": 6,
        "batch_size": 32,
        "val_fraction": 0.1,
    },
    "projection": {"k": 4, "include_intercept": False, "attributes": ["group"]},
    "probe": {"learning_rate": 0.01, "epochs": 200},
}

PIPELINE_ARTIFACTS = [
    "X_num.txt", "X_cat.txt", "S.txt", "y.txt", "levelmap.txt", "split.txt",
    "sensitive_names.txt", "prepare.provenance.txt",
    "Z.txt", "model_num_cat.txt", "model_cat_num.txt",
    "loss_num_cat.csv", "loss_cat_num.csv", "train_embed.provenance.txt",
    "Z_hat.txt", "debias.provenance.txt",
    "report_biased.txt", "roc_biased.csv", "report_debiased.txt",
    "roc_debiased.csv", "evaluate.provenance.txt",
]


def make_workspace(tmp_path: Path, **config_overrides) -> Path:
    write_csv(tmp_path / "synthetic.csv", synthetic_rows())
    (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT, encoding="utf-8")
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in config_overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def manifest_without_clock(path: Path) -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("timestamp")
    data.pop("timings_seconds")
    return data


class TestStages:
    def test_full_pipeline_writes_everything(self, tmp_path):
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in PIPELINE_ARTIFACTS + ["manifest.json"]:
            assert (out / name).exists(), name
        Z = load_matrix(out / "Z.txt")
        assert Z.shape == (240, 12)
        Z_hat = load_matrix(out / "Z_hat.txt")
        S = load_matrix(out / "S.txt")
        assert np.max(np.abs(Z_hat.T @ S)) < 1e-8 * np.linalg.norm(Z_hat) * np.linalg.norm(S) + 1e-12

    def test_stages_runnable_individually(self, tmp_path):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias", "evaluate"):
            assert main([verb, "--config", str(config)]) == 0, verb
        assert (tmp_path / "out" / "report_debiased.txt").exists()

    def test_loss_csv_one_row_per_epoch(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["prepare", "--config", str(config)])
        main(["train-embed", "--config", str(config)])
        lines = (tmp_path / "out" / "loss_num_cat.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + BASE_CONFIG["encoder"]["epochs"]

    def test_train_embed_never_touches_sensitive_artifacts(self, tmp_path):
        # Structural firewall: representation learning runs even with
        # the sensitive matrix and labels deleted.
        config = make_workspace(tmp_path)
        main(["prepare", "--config", str(config)])
        (tmp_path / "out" / "S.txt").unlink()
        (tmp_path / "out" / "y.txt").unlink()
        assert main(["train-embed", "--config", str(config)]) == 0

    def test_pipeline_equals_stage_by_stage(self, tmp_path):
        # pipeline hands artifacts on in memory; single stages read them
        # from disk. Both paths must write the same bytes.
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        for verb in ("prepare", "train-embed", "debias", "evaluate"):
            assert main([verb, "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in PIPELINE_ARTIFACTS:
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name

    def test_pipeline_reads_back_no_matrix(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"pipeline read back {path}")

        monkeypatch.setattr(tabfair.cli, "load_matrix", refuse)
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0

    def test_debias_provenance_records_rank_and_residual(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config)])
        prov = read_provenance(tmp_path / "out" / "debias.provenance.txt")
        assert prov["k"] == "4"
        assert float(prov["orthogonality_residual"]) >= 0.0
        assert float(prov["relative_residual"]) < 1e-8
        assert prov["attributes"] == "group"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        first = {n: (out / n).read_bytes() for n in PIPELINE_ARTIFACTS}
        assert main(["pipeline", "--config", str(config)]) == 0
        for name in PIPELINE_ARTIFACTS:
            assert (out / name).read_bytes() == first[name], name

    def test_manifests_identical_except_clock(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["pipeline", "--config", str(config), "--out", str(tmp_path / "b")])
        ma = manifest_without_clock(tmp_path / "a" / "manifest.json")
        mb = manifest_without_clock(tmp_path / "b" / "manifest.json")
        assert ma == mb

    def test_seed_override_changes_representation(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["pipeline", "--config", str(config), "--seed", "1",
              "--out", str(tmp_path / "b")])
        Za = load_matrix(tmp_path / "a" / "Z.txt")
        Zb = load_matrix(tmp_path / "b" / "Z.txt")
        assert not np.array_equal(Za, Zb)

    def test_config_hash_excludes_out_dir_only(self, tmp_path):
        config = make_workspace(tmp_path)
        cfg = load_config(config)
        assert config_hash({**cfg, "out_dir": "elsewhere"}) == config_hash(cfg)
        assert config_hash({**cfg, "seed": 5}) != config_hash(cfg)


class TestManifest:
    def test_hashes_match_files_and_config(self, tmp_path):
        import hashlib

        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config)])
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(load_config(config))
        listed = {a["name"]: a["sha256"] for a in manifest["artifacts"]}
        assert set(listed) == set(PIPELINE_ARTIFACTS)
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        # Every stage's provenance carries the manifest's config hash.
        for stage in ("prepare", "train_embed", "debias", "evaluate"):
            prov = read_provenance(out / f"{stage}.provenance.txt")
            assert prov["config_hash"] == manifest["config_hash"]

    def test_summaries_present(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["timings_seconds"]) == {
            "prepare", "train-embed", "debias", "evaluate"
        }
        assert "final_val_bce" in manifest["loss_summary"]
        assert "biased_accuracy" in manifest["report_summary"]
        assert "debiased_di_x100_group" in manifest["report_summary"]


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["prepare"]) == 1  # --config missing
        assert main(["not-a-command", "--config", "x"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["prepare", "--config", str(tmp_path / "none.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for text in ("{not json", "null", "5"):  # the last two: valid JSON, not an object
            path.write_text(text, encoding="utf-8")
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["prepare", "--config", str(path)]) == 1, text

    def test_missing_config_key(self, tmp_path):
        path = tmp_path / "c.json"
        cfg = dict(BASE_CONFIG)
        cfg.pop("probe")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["prepare", "--config", str(path)]) == 1

    def test_unknown_section_key_is_config_error(self, tmp_path, capsys):
        typos = {"encoder": "epoch", "projection": "include_intercep", "probe": "learning_rte"}
        for section, key in typos.items():
            config = make_workspace(tmp_path, **{section: {key: 1}})
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["pipeline", "--config", str(config)]) == 1, section
            err = capsys.readouterr().err
            assert "config error" in err and repr(key) in err and section in err, err
            assert not (tmp_path / "out").exists()

    def test_wrong_typed_value_is_config_error(self, tmp_path, capsys):
        wrong = {"encoder": ("epochs", "2"), "projection": ("k", True),
                 "probe": ("learning_rate", None)}
        for section, (key, value) in wrong.items():
            config = make_workspace(tmp_path, **{section: {key: value}})
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["pipeline", "--config", str(config)]) == 1, section
            err = capsys.readouterr().err
            assert "config error" in err and repr(key) in err and section in err, err
            assert not (tmp_path / "out").exists()
        # An int fits a float field, and None a field typed `X | None`.
        config = make_workspace(tmp_path, probe={"learning_rate": 1},
                                projection={"k": None, "variance_target": 1})
        run = Run(load_config(config, out_dir=str(tmp_path / "o")))
        assert run.probe.learning_rate == 1 and run.projection.k is None
        assert run.projection.variance_target == 1

    @pytest.mark.parametrize("key, value", [
        ("dataset", 7), ("csv", 5), ("schema", None), ("out_dir", ["out"]),
        ("seed", True), ("seed", 1.0), ("seed", "0"), ("test_fraction", "0.5"),
        ("test_fraction", False), ("encoder", 5), ("probe", None),
        ("attributes", 5), ("attributes", "group"), ("attributes", ["group", 1]),
    ])
    def test_wrong_typed_top_level_value_is_config_error(self, tmp_path, capsys, key, value):
        override = {"projection": {key: value}} if key == "attributes" else {key: value}
        config = make_workspace(tmp_path, **override)
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err, err
        assert not (tmp_path / "out").exists()

    def test_top_level_value_types_accepted(self, tmp_path):
        # An int fits test_fraction; attributes may be null or absent.
        assert load_config(make_workspace(tmp_path, test_fraction=1))["test_fraction"] == 1
        config = make_workspace(tmp_path, projection={"attributes": None})
        assert load_config(config)["projection"]["attributes"] is None
        cfg = json.loads(config.read_text(encoding="utf-8"))
        del cfg["projection"]["attributes"]
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert "attributes" not in load_config(config)["projection"]

    def test_missing_csv_is_config_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        (tmp_path / "synthetic.csv").unlink()
        assert main(["prepare", "--config", str(config)]) == 1

    def test_malformed_csv_is_data_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        rows = synthetic_rows(6)
        rows[3] = rows[3][:-2]
        write_csv(tmp_path / "synthetic.csv", rows)
        assert main(["prepare", "--config", str(config)]) == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_matrix_token_is_data_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        path = tmp_path / "out" / "Z.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "x" + lines[4][lines[4].index(" "):]  # header, then rows 0-2
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["debias", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "Z.txt" in err and "row 3" in err, err

    def test_evaluate_without_debias_names_missing_stage(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        main(["prepare", "--config", str(config)])
        main(["train-embed", "--config", str(config)])
        assert main(["evaluate", "--config", str(config)]) == 1
        assert "run debias first" in capsys.readouterr().err

    def test_train_embed_without_prepare(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert main(["train-embed", "--config", str(config)]) == 1
        assert "run prepare first" in capsys.readouterr().err

    # Every upstream file each stage reads, with the stage that writes it.
    STAGE_INPUTS = {
        "train-embed": {"X_num.txt": "prepare", "X_cat.txt": "prepare"},
        "debias": {"Z.txt": "train-embed", "S.txt": "prepare",
                   "sensitive_names.txt": "prepare"},
        "evaluate": {"S.txt": "prepare", "y.txt": "prepare", "split.txt": "prepare",
                     "sensitive_names.txt": "prepare", "Z.txt": "train-embed",
                     "Z_hat.txt": "debias"},
    }

    def test_each_missing_input_names_its_producer(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        capsys.readouterr()
        for stage, inputs in self.STAGE_INPUTS.items():
            for name, producer in inputs.items():
                saved = (out / name).read_bytes()
                (out / name).unlink()
                # An uncaught exception (a traceback) would fail the test here.
                assert main([stage, "--config", str(config)]) == 1, (stage, name)
                err = capsys.readouterr().err
                assert f"run {producer} first" in err and name in err, (stage, name, err)
                (out / name).write_bytes(saved)

    def test_evaluate_reads_no_feature_blocks(self, tmp_path):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        for name in ("X_num.txt", "X_cat.txt", "levelmap.txt"):
            (tmp_path / "out" / name).unlink()
        assert main(["evaluate", "--config", str(config)]) == 0

    def test_collinear_sensitive_is_numerical_error(self, tmp_path, capsys):
        schema = SCHEMA_TEXT.replace(
            "column group sensitive privileged=B",
            "column group sensitive privileged=B\n"
            "column group2 sensitive privileged=B",
        )
        rows = [r[:4] + [r[4], r[4]] + r[5:] for r in synthetic_rows()]
        header = ["x1", "x2", "color", "shape", "group", "group2", "outcome"]
        write_csv(tmp_path / "synthetic.csv", rows, header=header)
        (tmp_path / "synthetic.schema").write_text(schema, encoding="utf-8")
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["projection"]["attributes"] = ["group", "group2"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        main(["prepare", "--config", str(config)])
        main(["train-embed", "--config", str(config)])
        assert main(["debias", "--config", str(config)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unknown_projection_attribute(self, tmp_path, capsys):
        config = make_workspace(tmp_path, projection={"attributes": ["nope"]})
        main(["prepare", "--config", str(config)])
        main(["train-embed", "--config", str(config)])
        assert main(["debias", "--config", str(config)]) == 1

    def test_truncated_split_is_data_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        split = tmp_path / "out" / "split.txt"
        lines = split.read_text(encoding="utf-8").splitlines(keepends=True)
        cuts = ["".join(lines[:i]) for i in range(1, len(lines))]
        cuts.append("".join(lines[:-1]) + "test\n")  # a key with no value
        full = "".join(lines)
        cuts += [full[:-k] for k in range(1, 5)]  # cut inside the last test index
        capsys.readouterr()
        for text in cuts:
            split.write_text(text, encoding="utf-8")
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["evaluate", "--config", str(config)]) == 2, text
            assert "data error" in capsys.readouterr().err

    def test_provenance_line_without_value_is_data_error(self, tmp_path):
        path = tmp_path / "x.provenance.txt"
        path.write_text("tabfair-provenance 1\nconfig_hash abc\nseed\n", encoding="utf-8")
        with pytest.raises(DataError, match="no value"):
            read_provenance(path)
        path.write_text("tabfair-provenance 1\nconfig_hash abc\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing"):
            read_provenance(path)

    def test_truncated_artifacts_are_data_errors(self, tmp_path, encoded):
        model = init_params(MlpConfig((3, 4, 2, 3), "sigmoid", 2), seed=0)
        model.biases[-1][-1] = 1234.5678
        formats = {
            "levelmap": (save_level_map, load_level_map, encoded.level_map),
            "matrix": (save_matrix, load_matrix, np.array([[1e-300, -0.5], [3.25, 1234.5678]])),
            "model": (save_mlp, load_mlp, model),
            "report": (lambda p, r: save_report(p, r, "synthetic", "biased"), load_report,
                       FairnessReport(0.75, 0.8, [AttributeFairness("group", 90.0, 0.05, True)])),
            "provenance": (tabfair.cli._save_provenance, read_provenance,
                           {"config_hash": "ab12", "seed": "1234"}),
        }
        for fmt, (save, load, value) in formats.items():
            path = tmp_path / fmt
            save(path, value)
            load(path)
            full = path.read_text(encoding="utf-8")
            lines = full.splitlines(keepends=True)
            cuts = ["".join(lines[:i]) for i in range(len(lines))]
            # each line cut after its first word (a key with no value)
            cuts += ["".join(lines[:i]) + line.split()[0] + "\n"
                     for i, line in enumerate(lines) if len(line.split()) > 1]
            # the file cut inside its last value (1234.5678 in a matrix or model)
            cuts += [full[:-k] for k in range(1, len("1234.5678") + 2)]
            # a byte that is not UTF-8 after the last line
            for data in [text.encode("utf-8") for text in cuts] + [full.encode("utf-8") + b"\xff"]:
                path.write_bytes(data)
                with pytest.raises(DataError):
                    load(path)
        # Any count of names is valid, so only a cut inside the last, or
        # a byte that is not UTF-8, is seen.
        path, names = tmp_path / "names", b"group\nrace\n"
        for data in [names[:-k] for k in range(1, len("race\n"))] + [names + b"\xff"]:
            path.write_bytes(data)
            with pytest.raises(DataError):
                tabfair.cli._load_names(path)

    def test_name_count_must_match_s_columns(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        # Two sensitive columns, so one name can go and one remain.
        (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT.replace(
            "column shape categorical", "column shape sensitive privileged=circle"),
            encoding="utf-8")
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        path = tmp_path / "out" / "sensitive_names.txt"
        names = path.read_text(encoding="utf-8").split()
        path.write_text("".join(f"{name}\n" for name in names[:-1]), encoding="utf-8")
        capsys.readouterr()
        for verb in ("debias", "evaluate"):
            # An uncaught exception (a traceback) would fail the test here.
            assert main([verb, "--config", str(config)]) == 2, verb
            err = capsys.readouterr().err
            assert f"{len(names) - 1} names for the {len(names)} columns of S.txt" in err, err

    def test_k_out_of_range_fails_before_compute(self, tmp_path, capsys):
        config = make_workspace(tmp_path, projection={"k": 999})
        main(["prepare", "--config", str(config)])
        main(["train-embed", "--config", str(config)])
        assert main(["debias", "--config", str(config)]) == 1
        assert "out of range" in capsys.readouterr().err


class TestTooling:
    ROOT = Path(__file__).resolve().parents[1]

    def test_traced_targets_resolve(self):
        # perfbench/traced_cli.py wraps functions by name; a renamed one
        # makes every traced benchmark invocation fail in install().
        import importlib
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "traced_cli", self.ROOT / "perfbench" / "traced_cli.py"
        )
        traced_cli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(traced_cli)
        for module_name, functions in traced_cli.TARGETS.values():
            module = importlib.import_module(module_name)
            for fn_name in functions:
                assert callable(getattr(module, fn_name, None)), (module_name, fn_name)

    def test_cli_import_loads_no_scipy(self):
        # Every stage is a fresh process, so what `import tabfair.cli`
        # pulls in is paid on each one; scipy alone cost about 1 s.
        src = Path(tabfair.cli.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import tabfair.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.strip() == "[]"


class TestShippedConfigs:
    """The in-repo configs must stay loadable and consistent with the
    schemas and with the column headers the fetch script writes, even
    when the data files themselves are absent."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize(
        "name, latent, k, attributes",
        [("german", 50, 20, ["age"]), ("adult", 100, 18, ["sex", "race"])],
    )
    def test_config_loads_with_documented_grid(self, tmp_path, name, latent, k, attributes):
        cfg = load_config(self.ROOT / "configs" / f"{name}.json", out_dir=str(tmp_path / "o"))
        # Building the run builds every section: a misspelled key fails here.
        run = Run(cfg)
        assert run.encoder.latent_num == latent
        assert run.encoder.latent_cat == latent
        assert run.projection.k == k
        assert cfg["projection"]["attributes"] == attributes
        assert cfg["test_fraction"] == 0.5

    def test_schema_columns_match_fetch_script_headers(self):
        import importlib.util

        from tabfair.dataset import load_schema

        spec = importlib.util.spec_from_file_location(
            "fetch_data", self.ROOT / "scripts" / "fetch_data.py"
        )
        fetch_data = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fetch_data)
        for name, header in (
            ("german", fetch_data.GERMAN_HEADER),
            ("adult", fetch_data.ADULT_HEADER),
        ):
            cfg = load_config(self.ROOT / "configs" / f"{name}.json")
            schema = load_schema(cfg["schema"])
            assert {c.name for c in schema} == set(header), name
            # the projection attributes must name sensitive columns
            sensitive = {c.name for c in schema if c.kind == "sensitive"}
            assert set(cfg["projection"]["attributes"]) <= sensitive


class TestReports:
    def test_provenance_reproducible_from_artifacts(self, tmp_path):
        # Every number in evaluate.provenance.txt must be recomputable
        # from the persisted matrices alone, and exactly so: the text
        # format round-trips float64.
        from tabfair.dataset import load_split
        from tabfair.evaluation import ProbeConfig, evaluate_representation

        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        S = load_matrix(out / "S.txt")
        y = load_matrix(out / "y.txt").ravel()
        split = load_split(out / "split.txt")
        names = (out / "sensitive_names.txt").read_text().split()
        prov = read_provenance(out / "evaluate.provenance.txt")
        probe = ProbeConfig(learning_rate=0.01, epochs=200)
        for tag, source in (("biased", "Z.txt"), ("debiased", "Z_hat.txt")):
            Z = load_matrix(out / source)
            report = evaluate_representation(Z, y, S, split, names, probe)
            assert float(prov[f"{tag}_accuracy"]) == report.accuracy
            assert float(prov[f"{tag}_roc_auc"]) == report.roc_auc
            assert float(prov[f"{tag}_di_x100_group"]) == report.attributes[0].di_x100
            assert float(prov[f"{tag}_spd_group"]) == report.attributes[0].spd

    def test_undefined_di_keeps_reports(self, tmp_path):
        # 10% positive labels: the probe predicts no positives, so DI is
        # undefined in both representations; evaluate still succeeds.
        config = make_workspace(tmp_path)
        rows = synthetic_rows()
        for i, row in enumerate(rows):
            row[5] = "yes" if i % 10 == 0 else "no"
        write_csv(tmp_path / "synthetic.csv", rows)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        prov = read_provenance(out / "evaluate.provenance.txt")
        for tag in ("biased", "debiased"):
            text = (out / f"report_{tag}.txt").read_text(encoding="utf-8")
            assert "sensitive group di_x100 undefined spd 0 passes_80 false\n" in text
            assert load_report(out / f"report_{tag}.txt").attributes[0].di_x100 is None
            assert prov[f"{tag}_di_x100_group"] == "undefined"
