"""End-to-end command-line pipeline on synthetic data: artifacts,
determinism, manifest integrity, and the exit-code taxonomy."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabfair.cli
from conftest import SCHEMA_TEXT, synthetic_rows, text_matrix, write_csv
from tabfair.cli import (PROVENANCE_FORMAT, PRODUCERS, Run, config_hash, load_config, main,
                         read_provenance)
from tabfair.dataset import load_split, stratified_split, write_key_values
from tabfair.errors import ConfigError, DataError
from tabfair.fair_projection import (ORTHOGONALITY_TOL, FairProjectionConfig, debias,
                                     sensitive_design)
from tabfair.linalg import load_matrix, save_matrix
from tabfair.mixed_encoder import train_mixed
from tabfair.neuralnet import PATIENCE, MlpConfig, init_params, load_mlp, save_mlp

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
}

PIPELINE_ARTIFACTS = [
    "X_num.npy", "X_cat.npy", "S.npy", "y.npy", "levelmap.txt", "split.txt",
    "sensitive_names.txt", "prepare.provenance.txt",
    "Z.npy", "model_num_cat.npz", "model_cat_num.npz",
    "loss_num_cat.csv", "loss_cat_num.csv", "train_embed.provenance.txt",
    "Z_hat.txt", "C.npy", "debias.provenance.txt",
    "report_biased.txt", "roc_biased.csv", "report_debiased.txt",
    "roc_debiased.csv", "evaluate.provenance.txt",
]


def make_workspace(tmp_path: Path, **config_overrides) -> Path:
    write_csv(tmp_path / "synthetic.csv", synthetic_rows())
    (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT, encoding="utf-8")
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, value in config_overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def library_debias(out: Path, projection):
    """The projection of the Z.npy in `out`, made by the library from
    the S.npy and sensitive_names.txt there."""
    S = load_matrix(out / "S.npy")
    names = (out / "sensitive_names.txt").read_text(encoding="utf-8").split()
    return debias(load_matrix(out / "Z.npy"), S, names, projection)


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
        Z = load_matrix(out / "Z.npy")
        assert Z.shape == (240, 12)
        Z_hat = text_matrix(out / "Z_hat.txt")
        S = load_matrix(out / "S.npy")
        assert np.max(np.abs(Z_hat.T @ S)) < 1e-8 * np.linalg.norm(Z_hat) * np.linalg.norm(S) + 1e-12

    def test_stages_runnable_individually(self, tmp_path):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias", "evaluate"):
            assert main([verb, "--config", str(config)]) == 0, verb
        assert (tmp_path / "out" / "report_debiased.txt").exists()

    @pytest.mark.parametrize("epochs, val_fraction", [
        (300, 0.1), (12, 0.0),
        (BASE_CONFIG["encoder"]["epochs"], BASE_CONFIG["encoder"]["val_fraction"]),
    ])
    def test_loss_csvs_hold_the_train_histories(self, tmp_path, epochs, val_fraction):
        # Each loss CSV is its network's TrainHistory: a row per epoch
        # that ran (300 is a cap both networks stop short of; no network
        # stops within PATIENCE epochs or without held-out rows), values
        # float() reads back to the same bits, and an empty val_loss
        # cell when no rows are held out.
        config = make_workspace(tmp_path, encoder={"epochs": epochs,
                                                   "val_fraction": val_fraction})
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        result = train_mixed(load_matrix(out / "X_num.npy"), load_matrix(out / "X_cat.npy"),
                             Run(load_config(config)).encoder)

        def bits(values):
            return np.array(values, dtype=np.float64).view(np.uint64).tolist()

        for net, hist in (("num_cat", result.history_num_cat),
                          ("cat_num", result.history_cat_num)):
            header, *rows = (out / f"loss_{net}.csv").read_text(encoding="utf-8").splitlines()
            assert header == "epoch,train_loss,val_loss"
            cells = [row.split(",") for row in rows]
            assert [int(c[0]) for c in cells] == list(range(1, len(hist.train_loss) + 1))
            stops_early = val_fraction and epochs > PATIENCE
            assert len(cells) < epochs if stops_early else len(cells) == epochs
            assert bits([float(c[1]) for c in cells]) == bits(hist.train_loss)
            if val_fraction:
                assert bits([float(c[2]) for c in cells]) == bits(hist.val_loss)
            else:
                assert hist.val_loss == [] and {c[2] for c in cells} == {""}

    def test_train_embed_never_touches_sensitive_artifacts(self, tmp_path):
        # Structural firewall: representation learning runs even with
        # the sensitive matrix and labels deleted.
        config = make_workspace(tmp_path)
        main(["prepare", "--config", str(config)])
        (tmp_path / "out" / "S.npy").unlink()
        (tmp_path / "out" / "y.npy").unlink()
        assert main(["train-embed", "--config", str(config)]) == 0

    def test_pipeline_equals_stage_by_stage(self, tmp_path):
        # pipeline runs the four stages in one process; run alone, each
        # is its own process. Both must write the same bytes.
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        for verb in ("prepare", "train-embed", "debias", "evaluate"):
            assert main([verb, "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in PIPELINE_ARTIFACTS:
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), name

    def test_relative_out_is_relative_to_working_directory(self, tmp_path, monkeypatch):
        # A command-line --out is taken from where the command runs; the
        # config's own out_dir stays relative to the config file.
        config = make_workspace(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["prepare", "--config", str(config), "--out", "myout"]) == 0
        assert (work / "myout" / "S.npy").exists()
        assert not (tmp_path / "myout").exists()
        assert main(["prepare", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "S.npy").exists() and not (work / "out").exists()

    def test_stage_alone_evaluate_reads_no_z_hat(self, tmp_path, monkeypatch):
        # evaluate run on its own scores the C.npy debias wrote: it
        # neither projects nor reads Z_hat.txt, and writes what pipeline
        # writes.
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config), "--out", str(b)]) == 0, verb
        (b / "Z_hat.txt").unlink()

        def no_projection(*args):
            raise AssertionError("evaluate projected")

        monkeypatch.setattr(tabfair.cli, "debias", no_projection)
        assert main(["evaluate", "--config", str(config), "--out", str(b)]) == 0
        for name in ["report_biased.txt", "roc_biased.csv", "report_debiased.txt",
                     "roc_debiased.csv", "evaluate.provenance.txt"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_evaluate_projection_equals_debias_export(self, tmp_path):
        # The three Adult-shaped settings the benchmark sweeps: the C.npy
        # that debias writes, and evaluate scores, is bit for bit the
        # library's projection of Z.npy and S.npy, Z_hat.txt is
        # C @ N_k.T, and the recorded sensitive_condition is that of S.
        import importlib.util

        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("synth", root / "perfbench" / "synth.py")
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        synth.write_adult_csv(tmp_path / "adult.csv", seed=1, rows=600)
        cfg = json.loads((root / "configs" / "adult.json").read_text(encoding="utf-8"))
        cfg.update(csv=str(tmp_path / "adult.csv"), schema=str(root / "configs" / "adult.schema"),
                   out_dir=str(tmp_path / "out"))
        cfg["encoder"]["epochs"] = 1
        config = tmp_path / "config.json"
        settings = [
            {"k": 18, "include_intercept": False, "attributes": ["sex", "race"]},
            {"variance_target": 0.9, "include_intercept": True, "attributes": ["sex", "race"]},
            {"k": 18, "include_intercept": False, "attributes": ["sex"]},
        ]
        for i, projection in enumerate(settings):
            config.write_text(json.dumps({**cfg, "projection": projection}), encoding="utf-8")
            for verb in ("prepare", "train-embed", "debias")[0 if i == 0 else 2:]:
                assert main([verb, "--config", str(config)]) == 0, (verb, projection)
            names = (tmp_path / "out" / "sensitive_names.txt").read_text().split()
            attributes = projection["attributes"]
            library = FairProjectionConfig(**projection)
            result = library_debias(tmp_path / "out", library)
            C = load_matrix(tmp_path / "out" / "C.npy")
            assert np.array_equal(result.C.view(np.uint64), C.view(np.uint64)), projection
            Z_hat = text_matrix(tmp_path / "out" / "Z_hat.txt")
            assert np.array_equal((C @ result.N_k.T).view(np.uint64),
                                  Z_hat.view(np.uint64)), projection
            prov = read_provenance(tmp_path / "out" / "debias.provenance.txt")
            assert (str(result.k), ",".join(attributes)) == (prov["k"], prov["attributes"])
            # The factors evaluate probes: an orthonormal basis, and
            # coordinates orthogonal to S (with the intercept, when set).
            S, _ = sensitive_design(load_matrix(tmp_path / "out" / "S.npy"), names, library)
            gram = result.N_k.T @ result.N_k
            assert np.max(np.abs(gram - np.eye(result.k))) < 1e-12, projection
            tol = ORTHOGONALITY_TOL * np.linalg.norm(S)
            assert np.max(np.abs(C.T @ S)) < tol * np.linalg.norm(C), projection
            # The residual from the factors and from the written Z_hat are
            # both rounding noise; they differ by a negligible share of the gate.
            dense = np.max(np.abs(Z_hat.T @ S)) / (np.linalg.norm(Z_hat) * np.linalg.norm(S))
            assert dense < ORTHOGONALITY_TOL
            assert abs(float(prov["relative_residual"]) - dense) < 1e-3 * ORTHOGONALITY_TOL
            # The condition number of the S just built, intercept included.
            assert float(prov["sensitive_condition"]) == pytest.approx(np.linalg.cond(S),
                                                                       rel=1e-10), projection

    def test_evaluate_provenance_records_projection_and_probe_losses(self, tmp_path):
        from tabfair.evaluation import PROBE_TOL, train_probe
        from test_evaluation import ridge_fit

        config = make_workspace(tmp_path, projection={"k": None, "variance_target": 0.9,
                                                      "attributes": None})
        for verb in ("prepare", "train-embed", "debias", "evaluate"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        prov = read_provenance(out / "evaluate.provenance.txt")
        assert prov["debiased_k"] == read_provenance(out / "debias.provenance.txt")["k"]
        assert prov["attributes"] == "group"
        y = load_matrix(out / "y.npy").ravel()
        train = load_split(out / "split.txt").train
        C = library_debias(out, FairProjectionConfig(variance_target=0.9)).C
        for tag, Z in (("biased", load_matrix(out / "Z.npy")), ("debiased", C)):
            Z = Z[train]
            model = train_probe(Z, y[train])
            loss, grad_norm = ridge_fit(model, Z, y[train])
            assert float(prov[f"{tag}_probe_loss"]) == loss
            assert 0.0 < loss < np.log(2.0)  # below the loss of the all-zero start
            assert float(prov[f"{tag}_probe_grad_norm"]) == grad_norm < PROBE_TOL
            assert prov[f"{tag}_probe_iterations"] == str(model.iterations) != "0"

    def test_evaluate_provenance_keys_in_order(self, tmp_path):
        # evaluation.report_provenance names each representation's keys,
        # tag first, after the projection evaluate scored.
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        prov = read_provenance(tmp_path / "out" / "evaluate.provenance.txt")
        per_tag = ("accuracy", "roc_auc", "probe_loss", "probe_grad_norm", "probe_iterations",
                   "di_x100_group", "spd_group")
        assert list(prov) == ["config_hash", "seed", "debiased_k", "attributes",
                              *(f"{tag}_{key}" for tag in ("biased", "debiased")
                                for key in per_tag)]

    def test_train_embed_provenance_counts_dead_units(self, tmp_path):
        # A latent unit is dead when it is 0 on every row. 16 units per
        # side on 240 rows leave some of them dead.
        config = make_workspace(tmp_path, encoder={"latent_num": 16, "latent_cat": 16})
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        dead = ~load_matrix(out / "Z.npy").any(axis=0)
        prov = read_provenance(out / "train_embed.provenance.txt",
                               "dead_units_num", "dead_units_cat")
        assert int(prov["dead_units_num"]) == np.count_nonzero(dead[:16])
        assert int(prov["dead_units_cat"]) == np.count_nonzero(dead[16:])
        assert np.count_nonzero(dead) > 0

    def test_train_embed_records_the_epoch_each_network_stopped_at(self, tmp_path):
        # 300 epochs is a cap both networks stop well short of: each
        # runs PATIENCE epochs past its first validation minimum, and
        # the final_* keys are the last epoch that ran.
        config = make_workspace(tmp_path, encoder={"epochs": 300})
        out = tmp_path / "out"
        assert main(["prepare", "--config", str(config)]) == 0
        names = ["Z.npy", "model_num_cat.npz", "model_cat_num.npz", "loss_num_cat.csv",
                 "loss_cat_num.csv", "train_embed.provenance.txt"]
        runs = []
        for _ in range(2):
            assert main(["train-embed", "--config", str(config)]) == 0
            runs.append({name: (out / name).read_bytes() for name in names})
        assert runs[0] == runs[1]
        prov = read_provenance(out / "train_embed.provenance.txt")
        for side, net, loss in (("num", "num_cat", "bce"), ("cat", "cat_num", "mse")):
            rows = (out / f"loss_{net}.csv").read_text(encoding="utf-8").splitlines()[1:]
            val = [float(row.split(",")[2]) for row in rows]
            best = int(prov[f"best_epoch_{side}"])
            assert best == int(np.argmin(val)) + 1
            assert len(val) == best + PATIENCE < 300
            assert float(prov[f"final_val_{loss}"]) == val[-1] >= val[best - 1]

    def test_debias_provenance_records_rank_and_residual(self, tmp_path):
        config = make_workspace(tmp_path)
        main(["pipeline", "--config", str(config)])
        prov = read_provenance(tmp_path / "out" / "debias.provenance.txt")
        assert prov["k"] == "4"
        assert float(prov["orthogonality_residual"]) >= 0.0
        assert float(prov["relative_residual"]) < 1e-8
        assert prov["attributes"] == "group"
        assert 0.0 < float(prov["variance_kept"]) <= 1.0
        assert 0.0 <= float(prov["information_loss"]) <= 1.0

    def test_debias_of_all_zero_z_writes_undefined_diagnostics(self, tmp_path):
        config = make_workspace(tmp_path)
        for stage in ("prepare", "train-embed"):
            assert main([stage, "--config", str(config)]) == 0
        Z_path = tmp_path / "out" / "Z.npy"
        save_matrix(Z_path, np.zeros_like(load_matrix(Z_path)))
        assert main(["debias", "--config", str(config)]) == 0
        prov = read_provenance(tmp_path / "out" / "debias.provenance.txt")
        assert prov["relative_residual"] == "0"
        assert prov["variance_kept"] == prov["information_loss"] == "undefined"


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
        Za = load_matrix(tmp_path / "a" / "Z.npy")
        Zb = load_matrix(tmp_path / "b" / "Z.npy")
        assert not np.array_equal(Za, Zb)

    def test_same_inputs_elsewhere_give_same_artifacts(self, tmp_path):
        # Provenance records the CSV and schema bytes, not their paths.
        for where in ("a", "b"):
            (tmp_path / where).mkdir()
            assert main(["pipeline", "--config", str(make_workspace(tmp_path / where))]) == 0
        a, b = tmp_path / "a" / "out", tmp_path / "b" / "out"
        for name in PIPELINE_ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert manifest_without_clock(a / "manifest.json") == manifest_without_clock(
            b / "manifest.json")
        prov = read_provenance(a / "prepare.provenance.txt")
        for key, name in (("csv_sha256", "synthetic.csv"), ("schema_sha256", "synthetic.schema")):
            assert prov[key] == hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()

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
        # The numbers stay in the provenance files the manifest lists.
        assert set(manifest) == {"format", "config_hash", "dataset", "seed", "artifacts",
                                 "timings_seconds", "timestamp"}

    def test_stage_times_have_a_fixed_width(self, tmp_path):
        # Seconds as strings with three decimals, so the manifest's size
        # moves with the clock only when a stage's whole seconds gain a digit.
        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for name, seconds in manifest["timings_seconds"].items():
            assert re.fullmatch(r"\d+\.\d{3}", seconds), (name, seconds)

    def test_untrained_losses_read_undefined(self, tmp_path):
        # Zero epochs leave no loss to report, spelled as every other
        # missing diagnostic is.
        config = make_workspace(tmp_path, encoder={"epochs": 0})
        assert main(["pipeline", "--config", str(config)]) == 0
        prov = read_provenance(tmp_path / "out" / "train_embed.provenance.txt")
        assert {k: v for k, v in prov.items() if k.startswith("final_")} == dict.fromkeys(
            ("final_train_bce", "final_val_bce", "final_train_mse", "final_val_mse"), "undefined")
        assert prov["best_epoch_num"] == prov["best_epoch_cat"] == "undefined"

    def test_without_validation_rows_every_epoch_runs_and_none_is_best(self, tmp_path):
        config = make_workspace(tmp_path, encoder={"epochs": 30, "val_fraction": 0.0})
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        prov = read_provenance(out / "train_embed.provenance.txt")
        assert prov["best_epoch_num"] == prov["best_epoch_cat"] == "undefined"
        assert prov["final_val_bce"] == prov["final_val_mse"] == "undefined"
        for net in ("num_cat", "cat_num"):
            rows = (out / f"loss_{net}.csv").read_text(encoding="utf-8").splitlines()
            assert len(rows) == 1 + 30 and rows[-1].startswith("30,") and rows[-1][-1] == ","


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
        cfg.pop("encoder")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["prepare", "--config", str(path)]) == 1

    def test_missing_section_key_is_config_error(self, tmp_path, capsys):
        # Worded as at the top level, before the output directory is made.
        config = make_workspace(tmp_path)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["encoder"] = {"latent_cat": 5}
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "config error: config section 'encoder': missing config key 'latent_num'\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_section_key_is_config_error(self, tmp_path, capsys):
        # The seed is the top level's; the encoder section may not set it.
        typos = [("encoder", "epoch"), ("projection", "include_intercep"), ("encoder", "seed")]
        for section, key in typos:
            config = make_workspace(tmp_path, **{section: {key: 1}})
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["pipeline", "--config", str(config)]) == 1, section
            err = capsys.readouterr().err
            assert err.startswith(f"config error: config section {section!r}: unknown config "
                                  f"key {key!r}; the keys are "), err
            assert len(err.splitlines()) == 1
            assert not (tmp_path / "out").exists()

    def test_k_and_variance_target_together_is_config_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path, projection={"k": 4, "variance_target": 0.5})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: exactly one of k and variance_target"), err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_wrong_typed_value_is_config_error(self, tmp_path, capsys):
        wrong = {"encoder": ("epochs", "2"), "projection": ("k", True)}
        for section, (key, value) in wrong.items():
            config = make_workspace(tmp_path, **{section: {key: value}})
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["pipeline", "--config", str(config)]) == 1, section
            err = capsys.readouterr().err
            assert "config error" in err and repr(key) in err and section in err, err
            assert not (tmp_path / "out").exists()
        # An int fits a float field, and None a field typed `X | None`.
        config = make_workspace(tmp_path, projection={"k": None, "variance_target": 1})
        run = Run(load_config(config, out_dir=str(tmp_path / "o")))
        assert run.projection.k is None
        assert run.projection.variance_target == 1

    @pytest.mark.parametrize("key, value", [
        ("dataset", 7), ("csv", 5), ("schema", None), ("out_dir", ["out"]),
        ("seed", True), ("seed", 1.0), ("seed", "0"), ("test_fraction", "0.5"),
        ("test_fraction", False), ("encoder", 5), ("probe", None),  # probe: no longer a key
        ("attributes", 5), ("attributes", "group"), ("attributes", ["group", 1]), ("seed", -1),
        # Out of range: test_fraction must leave rows on both sides, and
        # the dataset name is one word of each report.
        ("test_fraction", 1.5), ("test_fraction", 0), ("test_fraction", float("nan")),
        ("dataset", ""), ("dataset", "syn\naccuracy 7"), ("dataset", "adult census"),
    ])
    def test_wrong_typed_top_level_value_is_config_error(self, tmp_path, capsys, key, value):
        override = {"projection": {key: value}} if key == "attributes" else {key: value}
        config = make_workspace(tmp_path, **override)
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err, err
        assert not (tmp_path / "out").exists()

    def test_empty_attributes_is_config_error(self, tmp_path, capsys):
        # null or no key means every attribute; an empty list names none.
        config = make_workspace(tmp_path, projection={"attributes": []})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'attributes' is empty" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("seed", None), ("seed", "0"), ("out_dir", 5)])
    def test_config_file_is_checked_before_flags_apply(self, tmp_path, capsys, key, value):
        # A flag does not mend the file: a key it lacks, or one of the
        # wrong type, is refused though the flag would replace it.
        flag = ["--seed", "0"] if key == "seed" else ["--out", str(tmp_path / "o")]
        config = make_workspace(tmp_path)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        if value is None:
            del cfg[key]
        else:
            cfg[key] = value
        config.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["prepare", "--config", str(config), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: ") and repr(key) in err, err
        assert not (tmp_path / "out").exists() and not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert main(["prepare", "--config", str(config), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'seed'" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("epochs", -1), ("batch_size", 0), ("val_fraction", 1.5),
    ])
    def test_encoder_value_out_of_range_stops_before_prepare(self, tmp_path, capsys,
                                                              key, value):
        config = make_workspace(tmp_path, encoder={key: value})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("probe", {"learning_rate": float("nan"), "epochs": 500}), ("test_fracton", 0.5),
    ], ids=["leftover-probe-section", "misspelled"])
    def test_unknown_top_level_key_is_config_error(self, tmp_path, capsys, key, value):
        # A key no stage reads must not look as if it applied: an old
        # config's probe section, or a misspelling beside the real key.
        config = make_workspace(tmp_path, **{key: value})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: unknown config key {key!r}"), err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_batch_size_above_training_rows_stops_prepare_writing_nothing(self, tmp_path,
                                                                          capsys):
        # 240 rows less round(0.1 * 240) validation rows leave 216.
        config = make_workspace(tmp_path, encoder={"batch_size": 217})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: stage 'prepare' failed: encoder 'batch_size' "
                              "217 exceeds the 216 training rows"), err
        assert not (tmp_path / "out").exists()
        config = make_workspace(tmp_path, encoder={"batch_size": 216})
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb

    def test_k_above_p_stops_before_prepare(self, tmp_path, capsys):
        # p = latent_num + latent_cat = 12 is known from the config.
        config = make_workspace(tmp_path, projection={"k": 13})
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: k=13 out of range [1, 12]"), err
        assert not (tmp_path / "out").exists()
        # k = p runs; debias still checks k against the Z it reads.
        config = make_workspace(tmp_path, projection={"k": 12})
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        Z_path = tmp_path / "out" / "Z.npy"
        save_matrix(Z_path, load_matrix(Z_path)[:, :11])
        capsys.readouterr()
        assert main(["debias", "--config", str(config)]) == 1
        assert "k=12 out of range [1, 11]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "Z_hat.txt").exists()

    @pytest.mark.parametrize("cell", ["inf", "nan", "1e400", "1_000"])
    def test_numeric_cell_that_is_not_a_finite_number_writes_nothing(self, tmp_path, capsys,
                                                                     cell):
        config = make_workspace(tmp_path)
        rows = synthetic_rows()
        rows[5][1] = cell
        write_csv(tmp_path / "synthetic.csv", rows)
        assert main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"column 'x2': cell {cell!r} (row 6 of the kept rows)" in err, err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def assert_byte_order_mark_changes_only_its_hash(tmp_path, name, hash_key):
        """prepare writes the same files after `name` gains a UTF-8
        byte-order mark, but for that file's sha256 in provenance."""
        config = make_workspace(tmp_path)
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["prepare", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for path in sorted((tmp_path / "a").iterdir()):
            a, b = path.read_bytes(), (tmp_path / "b" / path.name).read_bytes()
            if path.name == "prepare.provenance.txt":
                assert a != b
                a, b = (re.sub(hash_key.encode() + rb" \w+", b"", v) for v in (a, b))
            assert a == b, path.name

    def test_csv_with_byte_order_mark_prepares_the_same_files(self, tmp_path):
        self.assert_byte_order_mark_changes_only_its_hash(tmp_path, "synthetic.csv",
                                                          "csv_sha256")

    def test_schema_with_byte_order_mark_prepares_the_same_files(self, tmp_path):
        self.assert_byte_order_mark_changes_only_its_hash(tmp_path, "synthetic.schema",
                                                          "schema_sha256")

    def test_top_level_value_types_accepted(self, tmp_path):
        # An int fits test_fraction's type (1 then fails its range, not
        # its type); attributes may be null or absent.
        with pytest.raises(ConfigError, match=r"'test_fraction' must be in \(0, 1\), got 1$"):
            load_config(make_workspace(tmp_path, test_fraction=1))
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

    def test_cell_over_the_csv_field_limit_is_a_data_error(self, tmp_path, capsys):
        # The csv module refuses a field over 131,072 characters.
        config = make_workspace(tmp_path)
        rows = synthetic_rows(6)
        rows[2][2] = '"' + "r" * 200_000 + '"'
        write_csv(tmp_path / "synthetic.csv", rows)
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'synthetic.csv'}: line 4: field larger "
                              "than field limit"), err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("column x1 numerical levels=1|2", "levels= does not apply to kind numerical"),
        ("column group sensitive transform=age_band privileged=B",
         "privileged= does not apply to kind sensitive with transform=age_band"),
        ("column group sensitive privileged=B privileged=B", ":6: option privileged= given twice"),
        ("column x1 numerical colour=red", ":2: unknown option among ['colour']"),
    ])
    def test_refused_schema_option_is_a_config_error_line(self, tmp_path, capsys, line, message):
        config = make_workspace(tmp_path)
        name = line.split()[1]
        schema = "".join(line + "\n" if old.split()[1:2] == [name] else old + "\n"
                         for old in SCHEMA_TEXT.splitlines())
        (tmp_path / "synthetic.schema").write_text(schema, encoding="utf-8")
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, word, code, kind", [
        ("synthetic.csv", b"red", 2, "data error"),  # in a row, not the header
        ("synthetic.schema", b"numerical", 1, "config error"),
        ("config.json", b"synthetic", 1, "config error"),
    ])
    def test_not_utf8_input_is_an_error_line(self, tmp_path, capsys, name, word, code, kind):
        config = make_workspace(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes().replace(word, word[:1] + b"\xff" + word[2:]))
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert kind in err and name in err, err

    def test_unreadable_csv_path_is_an_error_line(self, tmp_path, capsys):
        config = make_workspace(tmp_path, csv="a_directory")
        (tmp_path / "a_directory").mkdir()
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a_directory" in err, err

    def test_out_dir_that_cannot_be_made_is_an_error_line(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        (tmp_path / "a_file").write_text("", encoding="utf-8")
        out = tmp_path / "a_file" / "out"
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a_file" in err, err

    def test_pipeline_names_the_stage_of_an_os_error(self, tmp_path, capsys):
        # A directory where debias writes Z_hat.txt: the OSError keeps
        # its exit code and gains the stage name, as a TabfairError does.
        config = make_workspace(tmp_path)
        (tmp_path / "out" / "Z_hat.txt").mkdir(parents=True)
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: stage 'debias' failed: ") and "Z_hat.txt" in err, err

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_an_error_line(self, tmp_path, unbuffered):
        # Listing the written files into a pipe whose reader has gone
        # (as `tabfair prepare ... | head -1` can) ends in one line and
        # exit 1, whether stdout is buffered or not; the files
        # themselves are written.
        config = make_workspace(tmp_path)
        src = Path(tabfair.cli.__file__).resolve().parents[1]
        r, w = os.pipe()
        os.close(r)
        try:
            done = subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); "
                 "from tabfair.cli import main; sys.exit(main(sys.argv[1:]))",
                 "prepare", "--config", str(config)],
                stdout=w, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(w)
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 32] Broken pipe\n", done.stderr
        assert (tmp_path / "out" / "prepare.provenance.txt").exists()

    def test_evaluate_without_train_embed_names_missing_stage(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        main(["prepare", "--config", str(config)])
        assert main(["evaluate", "--config", str(config)]) == 1
        assert "run train-embed first" in capsys.readouterr().err

    def test_train_embed_without_prepare(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert main(["train-embed", "--config", str(config)]) == 1
        assert "run prepare first" in capsys.readouterr().err

    # Every upstream file each stage reads, with the stage that writes it.
    STAGE_INPUTS = {
        "train-embed": {"X_num.npy": "prepare", "X_cat.npy": "prepare"},
        "debias": {"Z.npy": "train-embed", "S.npy": "prepare",
                   "sensitive_names.txt": "prepare"},
        "evaluate": {"S.npy": "prepare", "y.npy": "prepare", "split.txt": "prepare",
                     "sensitive_names.txt": "prepare", "Z.npy": "train-embed",
                     "debias.provenance.txt": "debias", "C.npy": "debias"},
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
        for name in ("X_num.npy", "X_cat.npy", "levelmap.txt"):
            (tmp_path / "out" / name).unlink()
        assert main(["evaluate", "--config", str(config)]) == 0

    @staticmethod
    def collinear_workspace(tmp_path, attributes) -> Path:
        """A workspace whose sensitive column group2 repeats group."""
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
        cfg["projection"]["attributes"] = attributes
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        return config

    def test_collinear_sensitive_in_debias_alone_is_data_error(self, tmp_path, capsys):
        # prepare checks only the attributes configured when it ran;
        # debias, run alone with more, refuses the collinear column as
        # prepare would have, with the same line.
        config = self.collinear_workspace(tmp_path, ["group"])
        assert main(["prepare", "--config", str(config)]) == 0
        assert main(["train-embed", "--config", str(config)]) == 0
        self.collinear_workspace(tmp_path, ["group", "group2"])
        capsys.readouterr()
        line = ("data error: column 'group2' of S is collinear with the columns before it "
                "['group']; drop collinear sensitive columns\n")
        assert main(["debias", "--config", str(config)]) == 2
        assert capsys.readouterr().err == line
        assert main(["prepare", "--config", str(config)]) == 2
        assert capsys.readouterr().err == line

    def test_sensitive_columns_spanning_every_row_is_data_error(self, tmp_path, capsys):
        # Three rows, two S columns and the intercept: the projection
        # has nothing left to keep.
        config = make_workspace(tmp_path, projection={"include_intercept": True,
                                                      "attributes": None, "k": 3})
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(4)
        save_matrix(out / "Z.npy", rng.normal(size=(3, 11)))
        save_matrix(out / "S.npy", np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        (out / "sensitive_names.txt").write_text("a\nb\n", encoding="utf-8")
        assert main(["debias", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "data error: S has 3 columns with the intercept for 3 rows; debias needs more "
            "rows than S has columns\n")
        assert sorted(p.name for p in out.iterdir()) == ["S.npy", "Z.npy",
                                                         "sensitive_names.txt"]

    def test_overflowing_z_is_numerical_failure(self, tmp_path, capsys):
        # Every entry of a finite Z near 1e160 squares past float64.
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        Z_path = tmp_path / "out" / "Z.npy"
        save_matrix(Z_path, load_matrix(Z_path) + 1e160)
        capsys.readouterr()
        assert main(["debias", "--config", str(config)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: the Gram matrix Z^T Z overflows float64; scale Z down\n")
        assert not (tmp_path / "out" / "C.npy").exists()

    def test_probe_that_does_not_converge_writes_no_report(self, tmp_path, capsys,
                                                           monkeypatch):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        monkeypatch.setattr(tabfair.evaluation, "PROBE_MAX_ITER", 1)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: probe did not converge in 1 Newton "
                              "steps: gradient norm ") and len(err.splitlines()) == 1, err
        assert not [p for p in (tmp_path / "out").iterdir()
                    if p.name.startswith(("report_", "roc_", "evaluate."))]

    def test_collinear_sensitive_stops_at_prepare(self, tmp_path, capsys):
        config = self.collinear_workspace(tmp_path, ["group", "group2"])
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "stage 'prepare' failed" in err
        assert "column 'group2' of S is collinear with the columns before it ['group']" in err
        assert not (tmp_path / "out" / "Z.npy").exists()

    def test_unobserved_reference_level_collides_with_intercept(self, tmp_path, capsys):
        # Reference level C never occurs, so group=A + group=B is 1 on
        # every row: the intercept is the collinear column.
        config = make_workspace(tmp_path, projection={"include_intercept": True})
        (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT.replace(
            "column group sensitive privileged=B", "column group sensitive levels=C|A|B"),
            encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "column 'intercept' of S is collinear with the columns before it " \
               "['group=A', 'group=B']" in err, err
        assert not (tmp_path / "out" / "Z.npy").exists()

    def test_schema_without_sensitive_column_writes_nothing(self, tmp_path, capsys):
        config = make_workspace(tmp_path, projection={"attributes": None})
        (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT.replace(
            "column group sensitive privileged=B", "column group ignored"), encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 1
        assert "at least one sensitive column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_equals_sign_in_a_sensitive_name_writes_nothing(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT.replace(
            "column group sensitive privileged=B",
            "column group sensitive\ncolumn group=B sensitive privileged=1"), encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "sensitive column 'group=B'" in err, err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["column group sensitive levels=A|B|C",
                                      "column group sensitive levels=A|B|C privileged=C"])
    def test_unobserved_sensitive_level_stops_at_prepare(self, tmp_path, capsys, line):
        # Level C gets its own S column (reference coding, or as the
        # privileged level) but no row has it: an all-zero column that
        # only debias would find, after training.
        config = make_workspace(tmp_path)
        (tmp_path / "synthetic.schema").write_text(
            SCHEMA_TEXT.replace("column group sensitive privileged=B", line), encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "stage 'prepare' failed" in err and "'group'" in err and "'C'" in err
        assert not (tmp_path / "out" / "Z.npy").exists()

    def test_sensitive_group_absent_from_test_split_stops_at_prepare(self, tmp_path, capsys):
        # One training row has group C: the S column group=C is 0 on
        # every test row, which evaluate cannot score.
        rows = synthetic_rows()
        y = np.array([r[-1] == "yes" for r in rows], dtype=np.float64)
        split = stratified_split(y, BASE_CONFIG["test_fraction"], BASE_CONFIG["seed"])
        rows[split.train[0]][4] = "C"
        config = make_workspace(tmp_path)
        write_csv(tmp_path / "synthetic.csv", rows)
        (tmp_path / "synthetic.schema").write_text(SCHEMA_TEXT.replace(
            "column group sensitive privileged=B", "column group sensitive levels=A|B|C"),
            encoding="utf-8")
        assert main(["pipeline", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "stage 'prepare' failed" in err and "'group=C'" in err
        assert not (tmp_path / "out" / "Z.npy").exists()

    def test_class_missing_from_a_split_stops_at_prepare(self, tmp_path, capsys):
        # Two positive rows at test_fraction 0.75: both would be test
        # rows, and the probe would meet a single class in training only
        # at evaluate, after both networks trained.
        rows = synthetic_rows()
        positives = [i for i, r in enumerate(rows) if r[-1] == "yes"]
        rows = [r for i, r in enumerate(rows) if r[-1] == "no" or i in positives[:2]]
        config = make_workspace(tmp_path, test_fraction=0.75)
        write_csv(tmp_path / "synthetic.csv", rows)
        assert main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "class 1.0 has 2 rows" in err and "puts 2 in the test split" in err
        assert not (tmp_path / "out").exists()

    def test_level_that_cannot_be_written_leaves_no_file(self, tmp_path, capsys):
        # A level with a space is refused before prepare writes anything:
        # a fresh output directory stays empty, and an earlier run's
        # files keep their bytes.
        config = make_workspace(tmp_path)
        assert main(["prepare", "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        rows = synthetic_rows()
        rows[5][2] = "dark red"
        write_csv(tmp_path / "synthetic.csv", rows)
        capsys.readouterr()
        for where in (out, tmp_path / "fresh"):
            assert main(["prepare", "--config", str(config), "--out", str(where)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "'dark red'" in err, err
        assert not (tmp_path / "fresh").exists()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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

    def test_split_that_misses_or_repeats_rows_is_data_error(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        split = tmp_path / "out" / "split.txt"
        lines = split.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[-1].startswith("test ")
        test = lines[-1].split()[1:]
        edits = [test + ["99999"], test + ["-1"], test + [test[0]], test[1:]]
        capsys.readouterr()
        for indices in edits:
            split.write_text("".join(lines[:-1]) + " ".join(["test"] + indices) + "\n",
                             encoding="utf-8")
            # An uncaught exception (a traceback) would fail the test here.
            assert main(["evaluate", "--config", str(config)]) == 2, indices[-1]
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "each of the 240 rows once" in err, err

    @pytest.mark.parametrize("name, rows, value", [("S.npy", 10, 0.5), ("y.npy", 3, 0.7)])
    def test_non_binary_s_or_y_is_data_error(self, tmp_path, capsys, name, rows, value):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        out = tmp_path / "out"
        M = load_matrix(out / name)
        M[load_split(out / "split.txt").test[:rows], 0] = value
        save_matrix(out / name, M)
        capsys.readouterr()
        # An uncaught exception (a traceback) would fail the test here.
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{name[0]} must contain only 0/1" in err, err
        assert not (out / "report_biased.txt").exists()

    @pytest.mark.parametrize("name, key", [("split.txt", "seed"),
                                           ("debias.provenance.txt", "config_hash")])
    def test_artifact_written_twice_is_data_error(self, tmp_path, capsys, name, key):
        # A file holding its own text twice gives each key a second value,
        # which no reader may choose between.
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        path = tmp_path / "out" / name
        path.write_text(path.read_text(encoding="utf-8") * 2, encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}:") and f"{key!r} is given a second time" in err
        assert len(err.splitlines()) == 1, err

    def test_provenance_line_without_value_is_data_error(self, tmp_path):
        path = tmp_path / "x.provenance.txt"
        path.write_text("tabfair-provenance 1\nconfig_hash abc\nseed\n", encoding="utf-8")
        with pytest.raises(DataError, match="no value"):
            read_provenance(path)
        path.write_text("tabfair-provenance 1\nconfig_hash abc\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing"):
            read_provenance(path)

    def test_truncated_artifacts_are_data_errors(self, tmp_path):
        formats = {
            "provenance": (lambda path, body: write_key_values(path, PROVENANCE_FORMAT,
                                                               body.items()),
                           read_provenance, {"config_hash": "ab12", "seed": "1234"}),
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
            # the file cut at each of its last ten bytes, into its last value and before it
            cuts += [full[:-k] for k in range(1, 11)]
            # a byte that is not UTF-8 after the last line
            for data in [text.encode("utf-8") for text in cuts] + [full.encode("utf-8") + b"\xff"]:
                path.write_bytes(data)
                with pytest.raises(DataError):
                    load(path)
        # A model is a binary archive: every byte prefix is cut.
        path = tmp_path / "model"
        save_mlp(path, init_params(MlpConfig((3, 4, 2, 3), "sigmoid", 2), seed=0))
        load_mlp(path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(DataError):
                load_mlp(path)
        # The five .npy matrices of a run, cut at every byte of the
        # 128-byte header and the first values, then every 61st byte.
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed"):
            assert main([verb, "--config", str(config)]) == 0, verb
        for name in ("X_num.npy", "X_cat.npy", "S.npy", "y.npy", "Z.npy"):
            path = tmp_path / "out" / name
            data = path.read_bytes()
            for n in [*range(160), *range(160, len(data), 61)]:
                path.write_bytes(data[:n])
                with pytest.raises(DataError):
                    load_matrix(path)
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
        cases = {
            f"S has {len(names)} columns for {len(names) - 1} sensitive names": names[:-1],
            # One name for two columns: debias would remove both under
            # it, and evaluate report one attribute twice.
            f"sensitive name {names[0]!r} names more than one column of S": [names[0]] * 2,
        }
        for message, given in cases.items():
            path.write_text("".join(f"{name}\n" for name in given), encoding="utf-8")
            capsys.readouterr()
            for verb in ("debias", "evaluate"):
                # An uncaught exception (a traceback) would fail the test here.
                assert main([verb, "--config", str(config)]) == 2, verb
                # The library's message, from check_names in sensitive_design
                # and in evaluate_representation.
                assert capsys.readouterr().err == f"data error: {message}\n", verb

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

    def test_traced_prepare_counts_the_kept_rows(self, tmp_path):
        # The benchmark's dataset.rows counter reads load_csv's result;
        # a change to RawTable's shape could zero it silently.
        config = make_workspace(tmp_path)
        rows = synthetic_rows()
        rows[5][0] = "?"
        write_csv(tmp_path / "synthetic.csv", rows)
        spans = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "traced_cli.py"), str(spans),
             "prepare", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")},
            capture_output=True, text=True, check=True, timeout=120)
        kept = read_provenance(tmp_path / "out" / "prepare.provenance.txt", "rows")["rows"]
        assert kept == str(len(rows) - 1)
        counters = json.loads(spans.read_text(encoding="utf-8"))["counters"]
        assert counters["dataset.rows"] == int(kept)

    def test_module_boundaries_and_traced_spans_hold(self, tmp_path):
        # The engine imports nothing from the package but its errors, the
        # encoder no private name of another module; and a traced pipeline
        # still times latent extraction and the ROC curve once per network
        # and per representation, under the names the benchmark reads.
        import ast

        def imports(name):
            tree = ast.parse((self.ROOT / "src" / "tabfair" / name).read_text(encoding="utf-8"))
            kinds = (ast.Import, ast.ImportFrom)
            return [node for node in ast.walk(tree) if isinstance(node, kinds)]

        engine = []
        for node in imports("neuralnet.py"):
            if isinstance(node, ast.ImportFrom):
                engine.append("." * node.level + (node.module or ""))
            else:
                engine += [alias.name for alias in node.names]
        assert [m for m in engine if m.startswith((".", "tabfair"))] == [".errors"], engine
        private = [alias.name for node in imports("mixed_encoder.py") for alias in node.names
                   if alias.name.startswith("_")]
        assert private == []
        config = make_workspace(tmp_path)
        spans = tmp_path / "spans.json"
        subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "traced_cli.py"), str(spans),
             "pipeline", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")},
            capture_output=True, text=True, check=True, timeout=120)
        calls = {name: span["calls"]
                 for name, span in json.loads(spans.read_text(encoding="utf-8"))["spans"].items()}
        assert calls["mixed_encoder.extract_latent"] == calls["evaluation.roc_curve_points"] == 2
        # debias's one SVD goes through rank_k_svd and its projection
        # through residualize, which the benchmark's linalg.rank_k_svd and
        # linalg.residualize spans time.
        assert calls["linalg.rank_k_svd"] == calls["linalg.residualize"] == 1

    def test_one_qr_in_the_package(self):
        # linalg.orthonormal_basis is the one factorization of S; any
        # other reference to a qr in src/tabfair/ would factor S again.
        import ast

        found = []
        for path in sorted((self.ROOT / "src" / "tabfair").glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                found += [(path.name, getattr(top, "name", None), ast.unparse(node))
                          for node in ast.walk(top)
                          if isinstance(node, ast.Attribute) and node.attr == "qr"
                          or isinstance(node, ast.Name) and node.id == "qr"
                          or isinstance(node, ast.alias) and node.name == "qr"]
        assert found == [("linalg.py", "orthonormal_basis", "np.linalg.qr")], found

    def test_cli_names_no_report_number(self):
        # evaluation.save_report and report_provenance name every number a
        # report holds; a string in cli.py that spells one is a second owner.
        import ast

        words = ("accuracy", "roc_auc", "probe_", "di_x100", "spd", "passes_80")
        tree = ast.parse((self.ROOT / "src" / "tabfair" / "cli.py").read_text(encoding="utf-8"))
        found = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and any(word in node.value for word in words)]
        assert found == [], found

    def test_one_matrix_check_in_the_package(self):
        # errors.as_matrix is the one check that an argument is a 2-D
        # matrix; explained_variance takes a 1-D D. A .ndim anywhere else
        # in src/tabfair/ would be a second owner of the rule.
        import ast

        found = set()
        for path in sorted((self.ROOT / "src" / "tabfair").glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                found |= {(path.name, getattr(top, "name", None)) for node in ast.walk(top)
                          if isinstance(node, ast.Attribute) and node.attr == "ndim"}
        assert found == {("errors.py", "as_matrix"), ("linalg.py", "explained_variance")}, found

    def test_readme_library_example_runs(self, tmp_path, capsys):
        # The README's "Library use" block, run on a German-shaped CSV
        # with only its two file paths changed.
        import importlib.util

        spec = importlib.util.spec_from_file_location("synth", self.ROOT / "perfbench" / "synth.py")
        synth = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
        synth.write_german_csv(tmp_path / "german.csv", seed=1, rows=1000)
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        paths = {"configs/german.schema": self.ROOT / "configs" / "german.schema",
                 "data/german.csv": tmp_path / "german.csv"}
        for old, new in paths.items():
            assert f'"{old}"' in code, old
            code = code.replace(f'"{old}"', repr(str(new)))
        exec(compile(code, "README.md", "exec"), {})
        accuracy, di_x100 = capsys.readouterr().out.split()
        assert 0.0 <= float(accuracy) <= 1.0
        assert di_x100 == "None" or float(di_x100) >= 0.0

    def test_readme_config_example_loads(self, tmp_path):
        # The README's JSON config example is a config the CLI accepts:
        # a key it no longer reads would be refused here.
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        text = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        run = Run(load_config(config, out_dir=str(tmp_path / "o")))
        shipped = json.loads((self.ROOT / "configs" / "german.json").read_text(encoding="utf-8"))
        assert json.loads(text) == shipped
        assert run.projection.k == shipped["projection"]["k"]

    def test_stage_inputs_are_the_producers(self):
        # A stage input cli.PRODUCERS names, and so run.read() accepts,
        # is one the missing-input test deletes.
        listed = {name: producer for inputs in TestExitCodes.STAGE_INPUTS.values()
                  for name, producer in inputs.items()}
        assert listed == PRODUCERS

    def test_every_loader_has_a_caller(self):
        # A top-level load_*/read_* function is public (in
        # tabfair.__all__) or used by another function in the package,
        # called or handed on as run.read() gets read_provenance. A
        # parser that no program runs only has to be kept in step with
        # its writer.
        import ast

        import tabfair

        defined, used = {}, set()
        for path in sorted((self.ROOT / "src" / "tabfair").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name.startswith(("load_", "read_")):
                    defined[node.name] = path.name
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    refs = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
                    refs |= {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
                    used |= refs - {fn.name}
        assert {"load_mlp", "read_provenance"} <= defined.keys()
        orphans = {name: module for name, module in defined.items()
                   if name not in tabfair.__all__ and name not in used}
        assert orphans == {}

    def test_one_spelling_for_text_artifacts(self):
        # dataset.spell alone decides how a value is written to a text
        # artifact. linalg.py is exempt: its matrix text kernel reproduces
        # `%.17g` for whole matrices, and ROADMAP item 4 deletes it.
        import ast

        for path in sorted((self.ROOT / "src" / "tabfair").glob("*.py")):
            if path.name == "linalg.py":
                continue
            text = path.read_text(encoding="utf-8")
            for node in ast.parse(text).body:
                if isinstance(node, ast.FunctionDef) and node.name == "spell":
                    text = text.replace(ast.get_source_segment(text, node), "")
            assert ".17g" not in text, path.name
            assert re.search(r"""["']undefined["']""", text) is None, path.name

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

    def test_pipeline_loads_no_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma on first use (numpy 2.4), about
        # 2 MB more peak memory in each stage that calls it.
        config = make_workspace(tmp_path)
        src = Path(tabfair.cli.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import tabfair.cli; "
            f"code = tabfair.cli.main(['pipeline', '--config', {str(config)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.split()[-2:] == ["0", "False"]

    def test_cli_import_loads_no_fractions_or_decimal(self):
        # The text writer's powers of ten are built from ints: fractions
        # would pull in decimal, about 0.4 MB more in every process.
        src = Path(tabfair.cli.__file__).resolve().parents[1]
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import tabfair.cli, io, numpy; "
            "tabfair.linalg.write_rows(io.BytesIO(), numpy.ones((2, 2))); "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.strip() == "[]"

    def test_a_program_run_freezes_the_imported_heap(self):
        # main() with no argv is a process's own entry point: what the
        # imports left tracked goes out of the cyclic GC's reach.
        src = Path(tabfair.cli.__file__).resolve().parents[1]
        code = (
            f"import gc, sys; sys.path.insert(0, {str(src)!r}); import tabfair.cli; "
            "sys.argv = ['tabfair', '--help']; before = gc.get_freeze_count(); "
            "code = tabfair.cli.main(); print(code, before, gc.get_freeze_count() > 0)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        assert out.stdout.split()[-3:] == ["0", "0", "True"]

    def test_an_in_process_run_leaves_the_heap_unfrozen(self, tmp_path):
        import gc

        config = make_workspace(tmp_path)
        before = gc.get_freeze_count()
        assert main(["pipeline", "--config", str(config)]) == 0
        assert gc.get_freeze_count() == before

    def test_one_owner_of_the_gc_policy(self):
        # cli.main freezes the heap of a program run; a gc call anywhere
        # else in src/tabfair/ would change the GC of every host process.
        import ast

        found = []
        for path in sorted((self.ROOT / "src" / "tabfair").glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                found += [(path.name, getattr(top, "name", None), ast.unparse(node))
                          for node in ast.walk(top)
                          if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "gc"
                          or isinstance(node, ast.alias) and node.name == "gc"
                          or isinstance(node, ast.ImportFrom) and node.module == "gc"]
        assert found == [("cli.py", None, "gc"), ("cli.py", "main", "gc.freeze")], found


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
        # from the persisted matrices alone, and exactly so: .npy
        # round-trips float64 and the projection is deterministic.
        from tabfair.evaluation import evaluate_representation

        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        S = load_matrix(out / "S.npy")
        y = load_matrix(out / "y.npy").ravel()
        split = load_split(out / "split.txt")
        names = (out / "sensitive_names.txt").read_text().split()
        prov = read_provenance(out / "evaluate.provenance.txt")
        for tag, Z in (("biased", load_matrix(out / "Z.npy")),
                       ("debiased", library_debias(out, FairProjectionConfig(k=4)).C)):
            report = evaluate_representation(Z, y, S, split, names)
            assert float(prov[f"{tag}_accuracy"]) == report.accuracy
            assert float(prov[f"{tag}_roc_auc"]) == report.roc_auc
            assert float(prov[f"{tag}_di_x100_group"]) == report.attributes[0].di_x100
            assert float(prov[f"{tag}_spd_group"]) == report.attributes[0].spd

    def test_probe_grad_norms_reproducible_from_artifacts(self, tmp_path):
        # Each probe's final gradient norm on its train rows, from the
        # persisted matrices and the library's projection: the gradient
        # of the ridge objective, lambda = 1 / n_train on the weights,
        # that train_probe's stopping test reads, at the final weights.
        from tabfair.evaluation import PROBE_TOL, predict_proba, train_probe

        config = make_workspace(tmp_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        y = load_matrix(out / "y.npy").ravel()
        train = load_split(out / "split.txt").train
        prov = read_provenance(out / "evaluate.provenance.txt")
        for tag, Z in (("biased", load_matrix(out / "Z.npy")),
                       ("debiased", library_debias(out, FairProjectionConfig(k=4)).C)):
            Z, y_train = Z[train], y[train]
            model = train_probe(Z, y_train)
            delta = (predict_proba(model, Z) - y_train) / y_train.size
            grad = np.append(Z.T @ delta + model.weights / y_train.size, delta.sum())
            assert float(prov[f"{tag}_probe_grad_norm"]) == pytest.approx(
                np.linalg.norm(grad), rel=0.0, abs=1e-12)
            assert np.linalg.norm(grad) < PROBE_TOL
        # Reports store neither loss nor gradient.
        assert "grad" not in (out / "report_debiased.txt").read_text(encoding="utf-8")

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
            assert text.startswith("tabfair-report 2\n")
            assert "\nattributes 1\nsensitive group di_x100 undefined spd 0 passes_80 false\n" in text
            assert prov[f"{tag}_di_x100_group"] == "undefined"
