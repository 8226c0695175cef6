"""Pipeline orchestration: prepare -> train-embed -> debias -> evaluate.

Every stage writes files under the configured output directory and
reads its inputs from there, so stages can be rerun or swapped
independently; `pipeline` is the four stages run in order, then a
manifest of the files they wrote. Only `debias` projects. It writes the
projection's k coordinates `C.npy`; `evaluate` scores Z and them as one
table, and refuses a `C.npy` that `debias` made under another config.
evaluation.py names each number `evaluate` writes. No stage reads `Z_hat.txt`.
A JSON config fixes the dataset paths, network shapes, projection rank,
and the seed; given the same config, every stage is idempotent and
byte-identical either way (the pipeline manifest's timestamp and
timings aside).

Exit codes: 0 success, 1 usage/config error or a file the system cannot
read or make, 2 data error, 3 numerical failure. A k above the width
of Z that the encoder config gives is refused before any stage runs;
`debias` can still exit 1 for a k out of range for the Z.npy it reads,
and 3 for a failed projection. A collinear S exits 2 from `prepare` or
`debias` with the same line: both build S with one function and test it
with one QR. Names that do not fit S.npy exit 2 from `debias` or `evaluate`.
The output directory is made at a stage's first write, so a stage refused
before it writes anything leaves no directory behind.

A process that runs the CLI as a program (`python -m tabfair.cli`, the
`tabfair` script) calls gc.freeze() in main() once every module is
imported: the 22,000 or so objects the imports leave tracked move to the
permanent generation, so neither the collections during the stage nor
the interpreter's teardown scans them again. On a 2-core VM (median of
16 runs) that took a bench-size Adult `debias` process from 368 to 312
ms, an `evaluate` from 233 to 221 ms and a German `pipeline` from 413 to
403 ms. Every object made after the freeze is collected as before, and
the artifacts keep their bytes. A caller that passes main() its
arguments (a test, a library, a tracer) keeps its heap as it was.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from .errors import ConfigError, DataError, NumericalError, TabfairError
from .fair_projection import FairProjectionConfig, debias, sensitive_design
from .linalg import load_matrix, orthonormal_basis, save_matrix
from .mixed_encoder import MixedEncoderConfig, encode_dataset
from .neuralnet import save_mlp, train_rows

PROVENANCE_FORMAT = "tabfair-provenance 1"

# The stage that writes each artifact a later stage reads.
PRODUCERS = {
    **dict.fromkeys(("X_num.npy", "X_cat.npy", "S.npy", "y.npy", "split.txt",
                     "sensitive_names.txt"), "prepare"),
    "Z.npy": "train-embed",
    **dict.fromkeys(("C.npy", "debias.provenance.txt"), "debias"),
}

# The top-level config keys, all required and no other allowed, and the
# type each must fit.
CONFIG_KEYS = {
    **dict.fromkeys(("dataset", "csv", "schema", "out_dir"), str),
    "seed": int,
    "test_fraction": float,
    **dict.fromkeys(("encoder", "projection"), dict),
}


def load_config(path, seed: int | None = None, out_dir: str | None = None) -> dict:
    """Read a pipeline config, apply command-line overrides, and make
    every path absolute: a path from the config file is relative to that
    file, an `out_dir` override to the working directory. Only the
    top-level keys are checked here: all of CONFIG_KEYS and no other,
    each of its type (checked before the overrides apply) and in range.
    The sections are checked when a Run is built from the result."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: a config must be a JSON object")
    _check_keys(f"{path}: ", cfg, CONFIG_KEYS, CONFIG_KEYS)
    if seed is not None:
        cfg["seed"] = seed
    if out_dir is not None:
        cfg["out_dir"] = out_dir
    if cfg["seed"] < 0:
        raise ConfigError(f"{path}: config key 'seed' must be >= 0, got {cfg['seed']}")
    # The name is written as the `dataset <name>` line of each report.
    if cfg["dataset"].split() != [cfg["dataset"]]:
        raise ConfigError(f"{path}: config key 'dataset' must be a non-empty name "
                          f"without whitespace, got {cfg['dataset']!r}")
    if not 0.0 < cfg["test_fraction"] < 1.0:
        raise ConfigError(f"{path}: config key 'test_fraction' must be in (0, 1), "
                          f"got {cfg['test_fraction']!r}")
    for key in ("csv", "schema", "out_dir"):
        base = Path.cwd() if key == "out_dir" and out_dir is not None else path.parent
        if not Path(cfg[key]).is_absolute():
            cfg[key] = str((base / cfg[key]).resolve())
    return cfg


def config_hash(cfg: dict) -> str:
    """sha256 over the canonical JSON of the config, excluding the
    paths of the CSV, the schema and the output directory: placement
    does not change results, and prepare records the sha256 of the two
    inputs it read."""
    hashable = {k: v for k, v in cfg.items() if k not in ("csv", "schema", "out_dir")}
    blob = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _section(cfg: dict, name: str, cls, **given):
    """cfg[name] as a cls: omitted keys take the library defaults; a
    missing field that has none, a key cls does not declare, a value that
    does not fit its field's type, or one cls refuses, is a ConfigError.
    `given` fills fields the section may not set: naming one is unknown."""
    hints = {k: v for k, v in typing.get_type_hints(cls).items() if k not in given}
    required = [f.name for f in dataclasses.fields(cls) if f.name in hints and
                f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    _check_keys(f"config section {name!r}: ", cfg[name], hints, required)
    return cls(**cfg[name], **given)


def _check_keys(where: str, values: dict, hints: dict, required) -> None:
    """Refuse a key of `required` that `values` lacks, then a key of
    `values` that `hints` does not name, and a value that does not fit
    its key's type hint; `where` starts each message."""
    for key in required:
        if key not in values:
            raise ConfigError(f"{where}missing config key {key!r}")
    for key, value in values.items():
        if key not in hints:
            raise ConfigError(f"{where}unknown config key {key!r}; the keys are "
                              f"{', '.join(hints)}")
        if not _fits(value, hints[key]):
            raise ConfigError(f"{where}config key {key!r} must be "
                              f"{getattr(hints[key], '__name__', hints[key])}, got {value!r}")


def _fits(value, hint) -> bool:
    """Whether a JSON value suits a field annotated `hint`: bool is not
    an int, an int is a float, None only fits `X | None`, and a generic
    such as `list[str]` is matched by its origin, `list`."""
    allowed = tuple(typing.get_origin(t) or t for t in typing.get_args(hint) or (hint,))
    if isinstance(value, bool):
        return bool in allowed
    return isinstance(value, allowed) or (isinstance(value, int) and float in allowed)


class Run:
    """One CLI invocation: its config sections and output directory.
    Every stage reads its inputs from files there and writes its
    artifacts there through it; writes are recorded in order, and that
    record is all the stages of a pipeline share."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        # Checked before any stage runs: a bad section leaves no file.
        self.encoder = _section(cfg, "encoder", MixedEncoderConfig, seed=cfg["seed"])
        self.projection = _section(cfg, "projection", FairProjectionConfig)
        if self.projection.k is not None and self.projection.k > self.encoder.p:
            # debias checks k again against the Z it is given, for a stage run alone.
            raise ConfigError(f"k={self.projection.k} out of range [1, {self.encoder.p}]: Z "
                              f"will have latent_num + latent_cat = {self.encoder.p} columns")
        self.out = Path(cfg["out_dir"])
        self.written: list[Path] = []

    def write(self, name: str, save, value, *args) -> None:
        """save(path, value, *args), recorded in `written`; the first
        write makes the output directory."""
        if not self.written:
            self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / name
        save(path, value, *args)
        self.written.append(path)

    def write_provenance(self, name: str, entries: dict) -> None:
        """The key-value file `name` (see ds.write_key_values): config_hash,
        seed, then `entries` in order, each value as it is: the writer spells it."""
        body = {"config_hash": config_hash(self.cfg), "seed": self.cfg["seed"], **entries}
        self.write(name, ds.write_key_values, PROVENANCE_FORMAT, body.items())

    def read(self, name: str, load):
        """load(path) of the artifact `name`; a missing one is a
        ConfigError naming the stage that writes it."""
        path = self.out / name
        if not path.exists():
            raise ConfigError(f"missing {path}; run {PRODUCERS[name]} first")
        return load(path)


def read_provenance(path, *keys: str) -> dict:
    """The entries of a provenance file, which must hold config_hash,
    seed and each of `keys`."""
    return ds.read_key_values(path, PROVENANCE_FORMAT, ("config_hash", "seed", *keys))


def _save_names(path: Path, names: list[str]) -> None:
    path.write_text("\n".join(names) + "\n", encoding="utf-8")


def _load_names(path: Path) -> list[str]:
    return ds.read_text_artifact(path).split()


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
        if s.min() == s.max():
            raise DataError(f"sensitive column {name!r}: one of its two groups has "
                            f"none of the {s.size} test rows")
    # debias builds, factors and refuses the same S; here, before training.
    orthonormal_basis(*sensitive_design(encoded.S, encoded.sensitive_names, run.projection))
    # train-embed repeats this test; here it comes before any file is written.
    rows = train_rows(encoded.n, run.encoder.val_fraction)
    if run.encoder.batch_size > rows:
        raise ConfigError(f"encoder 'batch_size' {run.encoder.batch_size} exceeds the {rows} "
                          f"training rows: {encoded.n} rows less the validation share "
                          f"{run.encoder.val_fraction}")
    # Checked now, not when the level map is written: a refused level
    # leaves no file behind.
    ds.check_level_tokens(encoded.level_map)
    run.write("X_num.npy", save_matrix, encoded.X_num)
    run.write("X_cat.npy", save_matrix, encoded.X_cat)
    run.write("S.npy", save_matrix, encoded.S)
    run.write("y.npy", save_matrix, encoded.y[:, None])
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
            "csv_sha256": _sha256_file(run.cfg["csv"]),
            "schema_sha256": _sha256_file(run.cfg["schema"]),
        },
    )


def cmd_train_embed(run: Run) -> None:
    """Train both reconstruction networks and persist the mixed
    representation, the models, and the per-epoch loss histories."""
    X_num = run.read("X_num.npy", load_matrix)
    X_cat = run.read("X_cat.npy", load_matrix)
    Z, result = encode_dataset(X_num, X_cat, run.encoder)
    hist_nc, hist_cn = result.history_num_cat, result.history_cat_num
    run.write("Z.npy", save_matrix, Z)
    run.write("model_num_cat.npz", save_mlp, result.params_num_cat)
    run.write("model_cat_num.npz", save_mlp, result.params_cat_num)
    for net, hist in (("num_cat", hist_nc), ("cat_num", hist_cn)):
        val = hist.val_loss or [""] * len(hist.train_loss)  # empty: no rows held out
        rows = zip(range(1, len(hist.train_loss) + 1), hist.train_loss, val)
        run.write(f"loss_{net}.csv", ds.write_csv, ("epoch", "train_loss", "val_loss"), rows)
    run.write_provenance(
        "train_embed.provenance.txt",
        {
            "p": Z.shape[1],
            # The last epoch's losses; None (undefined) after zero epochs.
            "final_train_bce": (hist_nc.train_loss or [None])[-1],
            "final_val_bce": (hist_nc.val_loss or [None])[-1],
            "final_train_mse": (hist_cn.train_loss or [None])[-1],
            "final_val_mse": (hist_cn.val_loss or [None])[-1],
            # The 1-based epoch each model was saved at; None (undefined)
            # when no epoch was scored.
            "best_epoch_num": hist_nc.best_epoch,
            "best_epoch_cat": hist_cn.best_epoch,
            # Latent units that are zero on every row, on each side of Z.
            "dead_units_num": np.count_nonzero(~Z[:, :run.encoder.latent_num].any(axis=0)),
            "dead_units_cat": np.count_nonzero(~Z[:, run.encoder.latent_num:].any(axis=0)),
        },
    )


def cmd_debias(run: Run) -> None:
    """Project Z.npy orthogonal to the configured sensitive attributes
    (all of them when none are named) and persist the projection's k
    coordinates C.npy, which evaluate scores, with the residual report.
    Z_hat.txt is an export: no stage reads it back."""
    Z = run.read("Z.npy", load_matrix)
    S_full = run.read("S.npy", load_matrix)
    names = run.read("sensitive_names.txt", _load_names)
    result = debias(Z, S_full, names, run.projection)
    run.write("Z_hat.txt", save_matrix, result.Z_hat)
    run.write("C.npy", save_matrix, result.C)
    run.write_provenance(
        "debias.provenance.txt",
        {
            "k": result.k,
            "include_intercept": run.projection.include_intercept,
            "attributes": ",".join(run.projection.attributes or names),
            "orthogonality_residual": result.residual,
            "relative_residual": result.relative_residual,
            "sensitive_condition": result.sensitive_condition,
            "variance_kept": result.variance_kept,
            "information_loss": result.information_loss,
        },
    )


def cmd_evaluate(run: Run) -> None:
    """Score the table of representations, Z.npy and the projection's k
    coordinates C.npy, on the persisted split; evaluation names every
    number written. Z_hat = C N_k^T with N_k orthonormal, and the probe
    is rotation-invariant, so the probe on C is the probe on Z_hat. A
    C.npy that debias made under another config is refused."""
    S = run.read("S.npy", load_matrix)
    y = run.read("y.npy", load_matrix).ravel()
    names = run.read("sensitive_names.txt", _load_names)
    split = run.read("split.txt", ds.load_split)
    Z = run.read("Z.npy", load_matrix)
    made = run.read("debias.provenance.txt", lambda path: read_provenance(path, "k", "attributes"))
    if made["config_hash"] != config_hash(run.cfg):
        raise ConfigError(f"{run.out / 'C.npy'} was made under another config "
                          f"(config_hash {made['config_hash']}); run debias first")
    C = run.read("C.npy", load_matrix)
    # All scored before anything is written: a missing, stale or
    # corrupt input, or a failed probe, leaves no report.
    reports = {tag: ev.evaluate_representation(M, y, S, split, names)
               for tag, M in (("biased", Z), ("debiased", C))}
    entries = {"debiased_k": made["k"], "attributes": made["attributes"]}
    for tag, report in reports.items():
        run.write(f"report_{tag}.txt", ev.save_report, report, run.cfg["dataset"], tag)
        run.write(f"roc_{tag}.csv", ev.save_roc_csv, report.roc)
        entries.update(ev.report_provenance(report, tag))
    run.write_provenance("evaluate.provenance.txt", entries)


def _sha256_file(path) -> str:
    # Streamed, so hashing Z_hat.txt or a CSV does not hold the whole file in memory.
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _save_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# The stages in the order pipeline runs them, with each one's help line.
STAGES = {
    "prepare": "encode the CSV and write the split",
    "train-embed": "train both networks and write the representation",
    "debias": "project the representation orthogonal to S",
    "evaluate": "probe and fairness-score both representations",
}


def _command(verb: str):
    """cmd_<verb>, looked up when asked for: a wrapper bound to the name runs."""
    return globals()[f"cmd_{verb.replace('-', '_')}"]


def cmd_pipeline(run: Run) -> None:
    """Run all stages in order and write a manifest tying every artifact
    they wrote, by its sha256, to the config hash; it reads none back. A
    stage failure, a TabfairError or an OSError, halts with the stage
    name, keeping the error's class."""
    timings = {}
    for name in STAGES:
        start = time.perf_counter()
        try:
            _command(name)(run)
        except (TabfairError, OSError) as exc:
            raise type(exc)(f"stage {name!r} failed: {exc}") from exc
        timings[name] = time.perf_counter() - start
    manifest = {
        "format": "tabfair-manifest 1",
        "config_hash": config_hash(run.cfg),
        "dataset": run.cfg["dataset"],
        "seed": run.cfg["seed"],
        "artifacts": [{"name": p.name, "sha256": _sha256_file(p)} for p in run.written],
        # Always three decimals, so the file's size barely moves with the clock.
        "timings_seconds": {k: f"{v:.3f}" for k, v in timings.items()},
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
    for verb, help_text in {**STAGES, "pipeline": "run all stages and write a manifest"}.items():
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(func=_command(verb))
        p.add_argument("--config", required=True, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # Only a process that runs the CLI as a program gets here with no
        # argv (the __main__ block, the `tabfair` script), so the heap the
        # imports made is this process's own: frozen, the cyclic GC never
        # scans it again. A caller's heap is not ours to freeze.
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        run = Run(load_config(args.config, seed=args.seed, out_dir=args.out))
        args.func(run)
        # pipeline prints only its manifest, the last file it wrote.
        for path in run.written[-1:] if args.func is cmd_pipeline else run.written:
            print(path)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
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
        if isinstance(exc, BrokenPipeError):
            # What stdout still buffers goes to /dev/null, so the flush
            # at exit does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
