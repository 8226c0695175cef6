"""Pipeline orchestration: prepare -> train-embed -> debias -> evaluate.

Every stage reads and writes files under the configured output
directory, so stages can be rerun or swapped independently. A JSON
config fixes the dataset paths, network shapes, projection rank, probe
settings, and the seed; given the same config, every stage is
idempotent and byte-identical (the pipeline manifest's timestamp and
timings aside).

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from .errors import ConfigError, DataError, NumericalError, TabfairError
from .fair_projection import FairProjectionConfig, build_sensitive_matrix, debias
from .linalg import load_matrix, save_matrix
from .mixed_encoder import MixedEncoderConfig, encode_dataset
from .neuralnet import save_mlp

PROVENANCE_FORMAT = "tabfair-provenance 1"


def load_config(path, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Read a pipeline config, resolve paths relative to the config
    file, and apply command-line overrides."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    for key in ("dataset", "csv", "schema", "out_dir", "seed", "test_fraction",
                "encoder", "projection", "probe"):
        if key not in cfg:
            raise ConfigError(f"{path}: missing config key {key!r}")
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    base = path.parent
    for key in ("csv", "schema", "out_dir"):
        cfg[key] = str((base / cfg[key]).resolve()) if not Path(cfg[key]).is_absolute() else cfg[key]
    if not isinstance(cfg["seed"], int):
        raise ConfigError("config seed must be an explicit integer")
    return cfg


def config_hash(cfg: dict) -> str:
    """sha256 over the canonical JSON of the config, excluding the
    output directory (placement does not change results)."""
    hashable = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _encoder_config(cfg: dict) -> MixedEncoderConfig:
    e = cfg["encoder"]
    return MixedEncoderConfig(
        latent_num=e["latent_num"],
        latent_cat=e["latent_cat"],
        hidden_num_cat=e.get("hidden_num_cat", 3),
        hidden_cat_num=e.get("hidden_cat_num", 3),
        epochs=e.get("epochs", 100),
        batch_size=e.get("batch_size", 64),
        val_fraction=e.get("val_fraction", 0.1),
        seed=cfg["seed"],
    )


def _projection_config(cfg: dict) -> FairProjectionConfig:
    p = cfg["projection"]
    return FairProjectionConfig(
        k=p.get("k"),
        include_intercept=p.get("include_intercept", False),
        variance_target=p.get("variance_target"),
    )


def _probe_config(cfg: dict) -> ev.ProbeConfig:
    p = cfg["probe"]
    return ev.ProbeConfig(
        learning_rate=p.get("learning_rate", 0.01),
        epochs=p.get("epochs", 500),
    )


def _out(cfg: dict) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(path: Path, cfg: dict, entries: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(PROVENANCE_FORMAT + "\n")
        fh.write(f"config_hash {config_hash(cfg)}\n")
        fh.write(f"seed {cfg['seed']}\n")
        for key, value in entries.items():
            fh.write(f"{key} {value}\n")


def read_provenance(path) -> dict:
    return ds.read_key_values(path, PROVENANCE_FORMAT, ("config_hash", "seed"))


def _require(out: Path, names: list[str], hint: str) -> None:
    missing = [n for n in names if not (out / n).exists()]
    if missing:
        raise ConfigError(f"missing artifacts {missing} in {out}; run {hint} first")


def cmd_prepare(cfg: dict) -> list[Path]:
    """Load, encode, and split the dataset; persist every encoded block
    plus the level map and split indices."""
    schema = ds.load_schema(cfg["schema"])
    raw = ds.load_csv(cfg["csv"], schema)
    encoded = ds.encode(raw, schema)
    split = ds.stratified_split(encoded.y, cfg["test_fraction"], cfg["seed"])
    out = _out(cfg)
    save_matrix(out / "X_num.txt", encoded.X_num)
    save_matrix(out / "X_cat.txt", encoded.X_cat)
    save_matrix(out / "S.txt", encoded.S)
    save_matrix(out / "y.txt", encoded.y[:, None])
    ds.save_level_map(out / "levelmap.txt", encoded.level_map)
    ds.save_split(out / "split.txt", split)
    (out / "sensitive_names.txt").write_text(
        "\n".join(encoded.sensitive_names) + "\n", encoding="utf-8"
    )
    _write_provenance(
        out / "prepare.provenance.txt",
        cfg,
        {
            "rows": encoded.n,
            "rows_dropped_missing": raw.dropped_rows,
            "d1": encoded.d1,
            "d2": encoded.d2,
            "sensitive_columns": encoded.s,
        },
    )
    return [
        out / n
        for n in (
            "X_num.txt", "X_cat.txt", "S.txt", "y.txt", "levelmap.txt",
            "split.txt", "sensitive_names.txt", "prepare.provenance.txt",
        )
    ]


def cmd_train_embed(cfg: dict) -> list[Path]:
    """Train both reconstruction networks and persist the mixed
    representation, the models, and the per-epoch loss histories."""
    out = _out(cfg)
    _require(out, ["X_num.txt", "X_cat.txt"], "prepare")
    X_num = load_matrix(out / "X_num.txt")
    X_cat = load_matrix(out / "X_cat.txt")
    rep, result = encode_dataset(X_num, X_cat, _encoder_config(cfg))
    save_matrix(out / "Z.txt", rep.Z)
    save_mlp(out / "model_num_cat.txt", result.params_num_cat)
    save_mlp(out / "model_cat_num.txt", result.params_cat_num)
    result.history_num_cat.to_csv(out / "loss_num_cat.csv")
    result.history_cat_num.to_csv(out / "loss_cat_num.csv")
    hist_nc, hist_cn = result.history_num_cat, result.history_cat_num
    _write_provenance(
        out / "train_embed.provenance.txt",
        cfg,
        {
            "p": rep.p,
            "final_train_bce": _fmt_last(hist_nc.train_loss),
            "final_val_bce": _fmt_last(hist_nc.val_loss),
            "final_train_mse": _fmt_last(hist_cn.train_loss),
            "final_val_mse": _fmt_last(hist_cn.val_loss),
        },
    )
    return [
        out / n
        for n in (
            "Z.txt", "model_num_cat.txt", "model_cat_num.txt",
            "loss_num_cat.csv", "loss_cat_num.csv", "train_embed.provenance.txt",
        )
    ]


def _fmt_last(values: list[float]) -> str:
    return f"{values[-1]:.17g}" if values else "none"


def cmd_debias(cfg: dict) -> list[Path]:
    """Project the representation orthogonal to the configured
    sensitive attributes and persist it with the residual report."""
    out = _out(cfg)
    _require(out, ["Z.txt"], "train-embed")
    _require(out, ["S.txt", "sensitive_names.txt"], "prepare")
    Z = load_matrix(out / "Z.txt")
    S_full = load_matrix(out / "S.txt")
    names = (out / "sensitive_names.txt").read_text(encoding="utf-8").split()
    attributes = cfg["projection"].get("attributes") or names
    proj_cfg = _projection_config(cfg)
    S = build_sensitive_matrix(S_full, names, attributes)
    result = debias(Z, S, proj_cfg)
    save_matrix(out / "Z_hat.txt", result.Z_hat)
    _write_provenance(
        out / "debias.provenance.txt",
        cfg,
        {
            "k": result.k,
            "include_intercept": str(proj_cfg.include_intercept).lower(),
            "attributes": ",".join(attributes),
            "orthogonality_residual": f"{result.residual:.17g}",
            "relative_residual": f"{result.relative_residual:.17g}",
        },
    )
    return [out / "Z_hat.txt", out / "debias.provenance.txt"]


def cmd_evaluate(cfg: dict) -> list[Path]:
    """Probe and fairness-score both the biased and debiased
    representations on the persisted split."""
    out = _out(cfg)
    _require(out, ["X_num.txt", "S.txt", "y.txt", "split.txt"], "prepare")
    _require(out, ["Z.txt"], "train-embed")
    _require(out, ["Z_hat.txt"], "debias")
    S = load_matrix(out / "S.txt")
    y = load_matrix(out / "y.txt").ravel()
    names = (out / "sensitive_names.txt").read_text(encoding="utf-8").split()
    split = ds.load_split(out / "split.txt")
    probe_cfg = _probe_config(cfg)
    artifacts = []
    summary = {}
    for tag, matrix in (("biased", "Z.txt"), ("debiased", "Z_hat.txt")):
        Z = load_matrix(out / matrix)
        report = ev.evaluate_representation(Z, y, S, split, names, probe_cfg)
        ev.save_report(out / f"report_{tag}.txt", report, cfg["dataset"], tag)
        ev.save_roc_csv(
            out / f"roc_{tag}.csv",
            ev.roc_curve_points(report.test_scores, y[split.test].astype(np.int64)),
        )
        artifacts += [out / f"report_{tag}.txt", out / f"roc_{tag}.csv"]
        summary[f"{tag}_accuracy"] = f"{report.accuracy:.17g}"
        summary[f"{tag}_roc_auc"] = f"{report.roc_auc:.17g}"
        for a in report.attributes:
            summary[f"{tag}_di_x100_{a.name}"] = ev.format_di_x100(a.di_x100)
            summary[f"{tag}_spd_{a.name}"] = f"{a.spd:.17g}"
    _write_provenance(out / "evaluate.provenance.txt", cfg, summary)
    return artifacts + [out / "evaluate.provenance.txt"]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_pipeline(cfg: dict) -> Path:
    """Run all stages in order and write a manifest tying every artifact
    to the config hash. A stage failure halts with the stage name."""
    stages = [
        ("prepare", cmd_prepare),
        ("train-embed", cmd_train_embed),
        ("debias", cmd_debias),
        ("evaluate", cmd_evaluate),
    ]
    out = _out(cfg)
    artifacts: list[Path] = []
    timings = {}
    for name, fn in stages:
        start = time.perf_counter()
        try:
            artifacts.extend(fn(cfg))
        except TabfairError as exc:
            raise type(exc)(f"stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - start
    manifest = {
        "format": "tabfair-manifest 1",
        "config_hash": config_hash(cfg),
        "dataset": cfg["dataset"],
        "seed": cfg["seed"],
        "artifacts": [
            {"name": p.name, "sha256": _sha256_file(p)} for p in artifacts
        ],
        "loss_summary": {
            k: v
            for k, v in read_provenance(out / "train_embed.provenance.txt").items()
            if k.startswith("final_")
        },
        "report_summary": {
            k: v
            for k, v in read_provenance(out / "evaluate.provenance.txt").items()
            if k not in ("config_hash", "seed")
        },
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; our taxonomy reserves 2 for data
    # errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tabfair",
        description="Mixed-space tabular embeddings with sensitive-attribute "
        "debiasing and fairness evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for verb, help_text in (
        ("prepare", "encode the CSV and write the split"),
        ("train-embed", "train both networks and write the representation"),
        ("debias", "project the representation orthogonal to S"),
        ("evaluate", "probe and fairness-score both representations"),
        ("pipeline", "run all stages and write a manifest"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    commands = {
        "prepare": cmd_prepare,
        "train-embed": cmd_train_embed,
        "debias": cmd_debias,
        "evaluate": cmd_evaluate,
        "pipeline": cmd_pipeline,
    }
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        result = commands[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if isinstance(result, Path):
        print(result)
    else:
        for path in result:
            print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
