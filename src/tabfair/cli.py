"""Pipeline orchestration: prepare -> train-embed -> debias -> evaluate.

Every stage writes files under the configured output directory, so
stages can be rerun or swapped independently. A stage run on its own
reads its inputs from disk; `pipeline` hands each matrix on in memory
and parses back no file it wrote. A JSON config fixes the dataset paths,
network shapes, projection rank, probe settings, and the seed; given
the same config, every stage is idempotent and byte-identical either
way (the pipeline manifest's timestamp and timings aside).

Exit codes: 0 success, 1 usage/config error or a file the system cannot
read or make, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from .errors import ConfigError, DataError, NumericalError, TabfairError
from .fair_projection import (FairProjectionConfig, build_sensitive_matrix,
                              check_sensitive_rank, debias)
from .linalg import load_matrix, run_both, save_matrix
from .mixed_encoder import MixedEncoderConfig, encode_dataset
from .neuralnet import save_mlp

PROVENANCE_FORMAT = "tabfair-provenance 1"

# The stage that writes each artifact a later stage reads.
PRODUCERS = {
    **dict.fromkeys(("X_num.txt", "X_cat.txt", "S.txt", "y.txt", "split.txt",
                     "sensitive_names.txt"), "prepare"),
    "Z.txt": "train-embed",
    "Z_hat.txt": "debias",
}

# The top-level config keys, all required, and the type each must fit.
CONFIG_KEYS = {
    **dict.fromkeys(("dataset", "csv", "schema", "out_dir"), str),
    "seed": int,
    "test_fraction": float,
    **dict.fromkeys(("encoder", "projection", "probe"), dict),
}


def load_config(path, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Read a pipeline config, resolve paths relative to the config
    file, and apply command-line overrides. Only the top-level keys are
    checked here; the encoder, projection and probe sections are checked
    when a Run is built from the result."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: a config must be a JSON object")
    for key in CONFIG_KEYS:
        if key not in cfg:
            raise ConfigError(f"{path}: missing config key {key!r}")
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    for key, hint in CONFIG_KEYS.items():
        if not _fits(cfg[key], hint):
            raise ConfigError(
                f"{path}: config key {key!r} must be {hint.__name__}, got {cfg[key]!r}"
            )
    if cfg["seed"] < 0:
        raise ConfigError(f"{path}: config key 'seed' must be >= 0, got {cfg['seed']}")
    attributes = cfg["projection"].get("attributes")
    if not _fits(attributes, list | None) or not all(_fits(a, str) for a in attributes or ()):
        raise ConfigError(f"{path}: projection 'attributes' must be a list of str, "
                          f"got {attributes!r}")
    base = path.parent
    for key in ("csv", "schema", "out_dir"):
        cfg[key] = str((base / cfg[key]).resolve()) if not Path(cfg[key]).is_absolute() else cfg[key]
    return cfg


def config_hash(cfg: dict) -> str:
    """sha256 over the canonical JSON of the config, excluding the
    output directory (placement does not change results)."""
    hashable = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _section(cfg: dict, name: str, cls, cli_keys=(), **given):
    """cfg[name] as a cls: omitted keys take the library defaults, and a
    key cls does not declare, or a value that does not fit its field's
    type, is a ConfigError. cli_keys are read by the CLI itself; `given`
    fills fields the section may not set."""
    section = {k: v for k, v in cfg[name].items() if k not in cli_keys}
    declared = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in declared:
            raise ConfigError(f"config section {name!r}: unknown key {key!r}")
        if not _fits(value, declared[key]):
            raise ConfigError(
                f"config section {name!r}: {key!r} must be "
                f"{getattr(declared[key], '__name__', declared[key])}, got {value!r}"
            )
    try:
        return cls(**section, **given)
    except TypeError as exc:  # a required key is missing, or a `given` one set
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def _fits(value, hint) -> bool:
    """Whether a JSON value suits a field annotated `hint`: bool is not
    an int, an int is a float, and None only fits `X | None`."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (isinstance(value, int) and float in allowed)


class Run:
    """One CLI invocation: its config sections and output directory;
    every stage reads and writes its artifacts through it. Writes are
    recorded in order. A value written earlier in the same process is
    handed on from memory, which is exact: the text formats round-trip
    float64 and save_matrix has checked the values are finite."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        # Built before the output directory exists: a bad section leaves none.
        self.encoder = _section(cfg, "encoder", MixedEncoderConfig, seed=cfg["seed"])
        self.projection = _section(cfg, "projection", FairProjectionConfig,
                                   cli_keys=("attributes",))
        self.probe = _section(cfg, "probe", ev.ProbeConfig)
        self.out = Path(cfg["out_dir"])
        self.out.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []
        self._kept: dict[str, object] = {}

    def write(self, name: str, save, value, *args) -> None:
        """save(path, value, *args), then keep value for later reads."""
        path = self.out / name
        save(path, value, *args)
        self.written.append(path)
        self._kept[name] = value

    def write_matrix(self, name: str, M) -> None:
        # Hand on what load_matrix would return: C-contiguous float64.
        self.write(name, save_matrix, np.ascontiguousarray(M, dtype=np.float64))

    def write_provenance(self, name: str, entries: dict) -> None:
        body = {"config_hash": config_hash(self.cfg), "seed": self.cfg["seed"], **entries}
        self.write(name, _save_provenance, {k: str(v) for k, v in body.items()})

    def read(self, name: str, load):
        """The value written as `name` in this process, else load(path)."""
        if name in self._kept:
            return self._kept[name]
        path = self.out / name
        if not path.exists():
            raise ConfigError(f"missing {path}; run {PRODUCERS[name]} first")
        return load(path)


def _save_provenance(path: Path, body: dict) -> None:
    lines = [PROVENANCE_FORMAT] + [f"{key} {value}" for key, value in body.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_provenance(path) -> dict:
    return ds.read_key_values(path, PROVENANCE_FORMAT, ("config_hash", "seed"))


def _save_names(path: Path, names: list[str]) -> None:
    path.write_text("\n".join(names) + "\n", encoding="utf-8")


def _load_names(path: Path) -> list[str]:
    return ds.read_text_artifact(path).split()


def _read_names(run: Run, S: np.ndarray) -> list[str]:
    """sensitive_names.txt, which must name each column of S.txt."""
    names = run.read("sensitive_names.txt", _load_names)
    if len(names) != S.shape[1]:
        raise DataError(f"{run.out / 'sensitive_names.txt'}: {len(names)} names for "
                        f"the {S.shape[1]} columns of S.txt")
    return names


def cmd_prepare(run: Run) -> None:
    """Load, encode, and split the dataset; persist every encoded block
    plus the level map and split indices."""
    schema = ds.load_schema(run.cfg["schema"])
    raw = ds.load_csv(run.cfg["csv"], schema)
    encoded = ds.encode(raw, schema)
    split = ds.stratified_split(encoded.y, run.cfg["test_fraction"], run.cfg["seed"])
    # evaluate scores every S column on the test rows and needs both of
    # its groups there; refuse now rather than after training.
    for name, s in zip(encoded.sensitive_names, encoded.S[split.test].T):
        if np.unique(s).size < 2:
            raise DataError(f"sensitive column {name!r}: one of its two groups has "
                            f"none of the {s.size} test rows")
    # debias repeats this rank test; here it names the column, before training.
    attributes = run.cfg["projection"].get("attributes") or encoded.sensitive_names
    check_sensitive_rank(encoded.S, encoded.sensitive_names, attributes, run.projection)
    run.write_matrix("X_num.txt", encoded.X_num)
    run.write_matrix("X_cat.txt", encoded.X_cat)
    run.write_matrix("S.txt", encoded.S)
    run.write_matrix("y.txt", encoded.y[:, None])
    run.write("levelmap.txt", ds.save_level_map, encoded.level_map)
    run.write("split.txt", ds.save_split, split)
    run.write("sensitive_names.txt", _save_names, list(encoded.sensitive_names))
    run.write_provenance(
        "prepare.provenance.txt",
        {
            "rows": encoded.n,
            "rows_dropped_missing": raw.dropped_rows,
            "d1": encoded.d1,
            "d2": encoded.d2,
            "sensitive_columns": encoded.s,
        },
    )


def cmd_train_embed(run: Run) -> None:
    """Train both reconstruction networks and persist the mixed
    representation, the models, and the per-epoch loss histories."""
    X_num = run.read("X_num.txt", load_matrix)
    X_cat = run.read("X_cat.txt", load_matrix)
    Z, result = encode_dataset(X_num, X_cat, run.encoder)
    hist_nc, hist_cn = result.history_num_cat, result.history_cat_num
    run.write_matrix("Z.txt", Z)
    run.write("model_num_cat.npz", save_mlp, result.params_num_cat)
    run.write("model_cat_num.npz", save_mlp, result.params_cat_num)
    run.write("loss_num_cat.csv", lambda path, h: h.to_csv(path), hist_nc)
    run.write("loss_cat_num.csv", lambda path, h: h.to_csv(path), hist_cn)
    run.write_provenance(
        "train_embed.provenance.txt",
        {
            "p": Z.shape[1],
            "final_train_bce": _fmt_last(hist_nc.train_loss),
            "final_val_bce": _fmt_last(hist_nc.val_loss),
            "final_train_mse": _fmt_last(hist_cn.train_loss),
            "final_val_mse": _fmt_last(hist_cn.val_loss),
        },
    )


def _fmt_last(values: list[float]) -> str:
    return f"{values[-1]:.17g}" if values else "none"


def cmd_debias(run: Run) -> None:
    """Project the representation orthogonal to the configured
    sensitive attributes and persist it with the residual report."""
    Z = run.read("Z.txt", load_matrix)
    S_full = run.read("S.txt", load_matrix)
    names = _read_names(run, S_full)
    attributes = run.cfg["projection"].get("attributes") or names
    S = build_sensitive_matrix(S_full, names, attributes)
    result = debias(Z, S, run.projection)
    run.write_matrix("Z_hat.txt", result.Z_hat)
    run.write_provenance(
        "debias.provenance.txt",
        {
            "k": result.k,
            "include_intercept": str(run.projection.include_intercept).lower(),
            "attributes": ",".join(attributes),
            "orthogonality_residual": f"{result.residual:.17g}",
            "relative_residual": f"{result.relative_residual:.17g}",
            "variance_kept": ev.format_or_undefined(result.variance_kept),
            "information_loss": ev.format_or_undefined(result.information_loss),
        },
    )


def cmd_evaluate(run: Run) -> None:
    """Probe and fairness-score both the biased and debiased
    representations on the persisted split, each in its own process
    when run_both() allows."""
    S = run.read("S.txt", load_matrix)
    y = run.read("y.txt", load_matrix).ravel()
    names = _read_names(run, S)
    split = run.read("split.txt", ds.load_split)

    def score(name: str):
        report = ev.evaluate_representation(run.read(name, load_matrix), y, S, split,
                                            names, run.probe)
        return report, ev.roc_curve_points(report.test_scores,
                                           y[split.test].astype(np.int64))

    # Both scored before anything is written: a missing or corrupt
    # Z_hat.txt leaves no report.
    scored = run_both(lambda: score("Z.txt"), lambda: score("Z_hat.txt"))
    summary = {}
    for tag, (report, points) in zip(("biased", "debiased"), scored):
        run.write(f"report_{tag}.txt", ev.save_report, report, run.cfg["dataset"], tag)
        run.write(f"roc_{tag}.csv", ev.save_roc_csv, points)
        summary[f"{tag}_accuracy"] = f"{report.accuracy:.17g}"
        summary[f"{tag}_roc_auc"] = f"{report.roc_auc:.17g}"
        for a in report.attributes:
            summary[f"{tag}_di_x100_{a.name}"] = ev.format_or_undefined(a.di_x100)
            summary[f"{tag}_spd_{a.name}"] = f"{a.spd:.17g}"
    run.write_provenance("evaluate.provenance.txt", summary)


def _sha256_file(path: Path) -> str:
    # Streamed, so hashing Z.txt does not hold the whole file in memory.
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _save_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_pipeline(run: Run) -> None:
    """Run all stages in order and write a manifest tying every artifact
    to the config hash. A stage failure halts with the stage name."""
    stages = [
        ("prepare", cmd_prepare),
        ("train-embed", cmd_train_embed),
        ("debias", cmd_debias),
        ("evaluate", cmd_evaluate),
    ]
    timings = {}
    for name, fn in stages:
        start = time.perf_counter()
        try:
            fn(run)
        except TabfairError as exc:
            raise type(exc)(f"stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - start
    losses = run.read("train_embed.provenance.txt", read_provenance)
    scores = run.read("evaluate.provenance.txt", read_provenance)
    manifest = {
        "format": "tabfair-manifest 1",
        "config_hash": config_hash(run.cfg),
        "dataset": run.cfg["dataset"],
        "seed": run.cfg["seed"],
        "artifacts": [
            {"name": p.name, "sha256": _sha256_file(p)} for p in run.written
        ],
        "loss_summary": {k: v for k, v in losses.items() if k.startswith("final_")},
        "report_summary": {
            k: v for k, v in scores.items() if k not in ("config_hash", "seed")
        },
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    run.write("manifest.json", _save_json, manifest)


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
    for verb, help_text, command in (
        ("prepare", "encode the CSV and write the split", cmd_prepare),
        ("train-embed", "train both networks and write the representation", cmd_train_embed),
        ("debias", "project the representation orthogonal to S", cmd_debias),
        ("evaluate", "probe and fairness-score both representations", cmd_evaluate),
        ("pipeline", "run all stages and write a manifest", cmd_pipeline),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(func=command)
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
    try:
        run = Run(load_config(args.config, seed=args.seed, out_dir=args.out))
        args.func(run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # pipeline prints only its manifest, the last file it wrote.
    for path in run.written[-1:] if args.func is cmd_pipeline else run.written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
