"""tabfair benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload adult-pipeline --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed (perfbench/synth.py),
then the workload's pass -- a fixed list of CLI invocations, each a
fresh `python -m tabfair.cli` process -- is repeated while time is
left. Every invocation's outputs are checked; the last stdout line is
the result JSON. With --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced pass (perfbench/traced_cli.py)
next to one untraced pass. See perfbench/README.md for the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import synth
import traced_cli

BENCH_DIR = Path(__file__).resolve().parent
# Orthogonality limit the debias stage promises (fair_projection.ORTHOGONALITY_TOL).
RESIDUAL_LIMIT = 1e-8
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
MB = 1e6


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or configs) or its
    set-up failed; no result is printed."""


class CheckError(Exception):
    """An invocation's outputs failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    """One workload: its input, how often set-up is repeated, the CLI
    invocations of one pass, and the fewest passes a run makes."""

    name: str
    dataset: str  # "adult" or "german": picks the generator and shipped config
    rows: int
    epochs: int | None  # override of encoder.epochs; None keeps the shipped value
    setup_reps: int
    min_passes: int
    seeds: tuple[int, ...] = ()  # german-seeds: one pipeline per seed
    # adult-redebias: projection settings, each run as debias + evaluate
    sweep: tuple[dict, ...] = ()
    upstream: tuple[str, ...] = ()  # stages run during set-up


# Adult-shaped input at about 1/8 of the real 48,842 rows: a run of any
# workload then takes at most about 40 s on 2 cores, so 70 runs fit in
# under an hour. Matrix text I/O, the probe and the SVD still outweigh
# one training epoch.
ADULT_ROWS = 6000
# The shipped setting, a variance target with an intercept column, and
# a single attribute.
REDEBIAS_SWEEP = (
    {"k": 18, "include_intercept": False, "attributes": ["sex", "race"]},
    {"variance_target": 0.9, "include_intercept": True, "attributes": ["sex", "race"]},
    {"k": 18, "include_intercept": False, "attributes": ["sex"]},
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("adult-pipeline", "adult", ADULT_ROWS, epochs=1, setup_reps=31, min_passes=4),
        Workload("german-seeds", "german", 1000, epochs=None, setup_reps=31, min_passes=2,
                 seeds=(0, 1, 2)),
        Workload("adult-redebias", "adult", ADULT_ROWS, epochs=1, setup_reps=2, min_passes=2,
                 sweep=REDEBIAS_SWEEP, upstream=("prepare", "train-embed")),
    )
}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "artifact_mb": "MB", "auc_biased": "auc", "auc_debiased": "auc",
}


@dataclass
class Invocation:
    """One CLI command of a pass; `check` verifies its outputs and
    returns (digest of its deterministic artifacts, quality numbers)."""

    args: list[str]
    out_dir: Path
    check: Callable[[Path, str], tuple[str, dict]]


@dataclass
class Proc:
    """A finished process: exit code, wall and user+sys CPU seconds,
    max RSS in KiB, and what it wrote to stdout and stderr."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Outcome:
    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_kb: int = 0
    digest: str = ""
    quality: dict = field(default_factory=dict)
    error: str = ""


class Runner:
    """Starts CLI processes, one at a time, under a run-wide deadline."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH"))))
        self._log = 0

    def spawn(self, cmd: list[str]) -> Proc:
        """Run cmd to completion. CPU and RSS come from wait4, so they
        cover the process and the descendants it waited for."""
        self._log += 1
        out_log = self.work / f"invocation-{self._log}.out"
        err_log = self.work / f"invocation-{self._log}.err"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Proc(-1, 0.0, 0.0, 0, "", "run deadline reached")
        with open(out_log, "wb") as out, open(err_log, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                    out_log.read_text(encoding="utf-8", errors="replace"),
                    err_log.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args: list[str], spans: Path | None = None) -> Proc:
        if spans is None:
            cmd = [sys.executable, "-m", "tabfair.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans), *args]
        return self.spawn(cmd)

    def invoke(self, inv: Invocation, spans: Path | None = None) -> Outcome:
        proc = self.cli(inv.args, spans)
        if proc.code != 0:
            return Outcome(False, error=f"{inv.args[0]} exited {proc.code}: {proc.stderr[-400:]}")
        try:
            digest, quality = inv.check(inv.out_dir, proc.stdout)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            return Outcome(False, error=f"{inv.args[0]} check failed: {exc}")
        return Outcome(True, proc.wall_s, proc.cpu_s, proc.maxrss_kb, digest, quality)


# ---------------------------------------------------------------- checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _provenance(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines[1:] if line)


def check_residual(out: Path) -> None:
    rel = float(_provenance(out / "debias.provenance.txt")["relative_residual"])
    if not 0.0 <= rel < RESIDUAL_LIMIT:
        raise CheckError(f"debias relative_residual {rel:g} is not below {RESIDUAL_LIMIT:g}")


def read_report(path: Path) -> dict:
    """accuracy, roc_auc and the largest SPD of a report_*.txt, each
    checked to lie in [0, 1]."""
    fields = {}
    spds = []
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        parts = line.split()
        if parts and parts[0] in ("accuracy", "roc_auc"):
            fields[parts[0]] = float(parts[1])
        elif parts and parts[0] == "sensitive":
            spds.append(float(parts[parts.index("spd") + 1]))
    if set(fields) != {"accuracy", "roc_auc"} or not spds:
        raise CheckError(f"{path.name}: missing accuracy, roc_auc or sensitive lines")
    for value in (*fields.values(), *spds):
        if not 0.0 <= value <= 1.0:
            raise CheckError(f"{path.name}: value {value} outside [0, 1]")
    return {**fields, "spd": max(spds)}


def quality(out: Path) -> dict:
    biased = read_report(out / "report_biased.txt")
    debiased = read_report(out / "report_debiased.txt")
    return {"auc_biased": biased["roc_auc"], "auc_debiased": debiased["roc_auc"],
            "spd_debiased": debiased["spd"]}


def check_pipeline(out: Path, _stdout: str):
    """Every manifest artifact exists with its recorded sha256, the
    debias residual is below the limit and both reports parse."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    h = hashlib.sha256()
    for art in manifest["artifacts"]:
        path = out / art["name"]
        if not path.is_file():
            raise CheckError(f"manifest artifact {art['name']} is missing")
        if sha256(path) != art["sha256"]:
            raise CheckError(f"manifest artifact {art['name']} does not match its sha256")
        h.update(f"{art['name']} {art['sha256']}\n".encode())
    check_residual(out)
    return h.hexdigest(), quality(out)


def _listed_outputs(out: Path, stdout: str, expected: set[str]) -> str:
    """Digest of the artifacts a stage printed; each must exist in out."""
    printed = {Path(line).name for line in stdout.splitlines() if line.strip()}
    if not expected <= printed:
        raise CheckError(f"stage did not report {sorted(expected - printed)}")
    h = hashlib.sha256()
    for name in sorted(printed):
        path = out / name
        if not path.is_file():
            raise CheckError(f"reported artifact {name} is missing")
        h.update(f"{name} {sha256(path)}\n".encode())
    return h.hexdigest()


def check_debias(out: Path, stdout: str):
    digest = _listed_outputs(out, stdout, {"Z_hat.txt", "debias.provenance.txt"})
    check_residual(out)
    return digest, {}


def check_evaluate(out: Path, stdout: str):
    digest = _listed_outputs(out, stdout, {"report_biased.txt", "report_debiased.txt"})
    return digest, quality(out)


# ------------------------------------------------------------- workloads


def write_config(root: Path, w: Workload, csv: Path, out: Path, path: Path,
                 projection: dict | None = None) -> None:
    cfg = json.loads((root / "configs" / f"{w.dataset}.json").read_text(encoding="utf-8"))
    cfg["csv"] = str(csv)
    cfg["schema"] = str(root / "configs" / f"{w.dataset}.schema")
    cfg["out_dir"] = str(out)
    if w.epochs is not None:
        cfg["encoder"]["epochs"] = w.epochs
    if projection is not None:
        cfg["projection"] = projection
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def set_up(runner: Runner, w: Workload, seed: int, where: Path) -> tuple[Path, list[Invocation]]:
    """Generate the inputs and configs under `where` (and, for
    adult-redebias, run the upstream stages); return the output
    directory and the invocations of one pass."""
    where.mkdir(parents=True)
    csv = where / f"{w.dataset}.csv"
    if w.dataset == "adult":
        synth.write_adult_csv(csv, seed, w.rows)
    else:
        synth.write_german_csv(csv, seed, w.rows)
    out = where / "out"
    config = where / "config.json"
    write_config(runner.root, w, csv, out, config)
    for stage in w.upstream:
        proc = runner.cli([stage, "--config", str(config)])
        if proc.code != 0:
            raise BenchError(f"set-up stage {stage} exited {proc.code}: {proc.stderr[-400:]}")
    if w.seeds:
        return out, [Invocation(["pipeline", "--config", str(config), "--seed", str(s),
                                 "--out", str(out / f"seed-{s}")], out / f"seed-{s}",
                                check_pipeline)
                     for s in w.seeds]
    if w.sweep:
        invocations = []
        for i, projection in enumerate(w.sweep):
            cfg_i = where / f"config-{i}.json"
            write_config(runner.root, w, csv, out, cfg_i, projection)
            invocations.append(Invocation(["debias", "--config", str(cfg_i)], out, check_debias))
            invocations.append(Invocation(["evaluate", "--config", str(cfg_i)], out, check_evaluate))
        return out, invocations
    return out, [Invocation(["pipeline", "--config", str(config)], out, check_pipeline)]


@dataclass
class Pass:
    outcomes: list[Outcome]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(o.digest for o in self.outcomes).encode()).hexdigest()


def run_pass(runner: Runner, invocations: list[Invocation], spans_dir: Path | None = None) -> Pass:
    outcomes = []
    for i, inv in enumerate(invocations):
        spans = None if spans_dir is None else spans_dir / f"spans-{i}.json"
        outcomes.append(runner.invoke(inv, spans))
    return Pass(outcomes)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --------------------------------------------------------------- metrics


def end_to_end(passes: list[Pass], setup_times: list[float], out: Path) -> dict:
    good = [p for p in passes if p.ok]
    if not good:
        return {}
    reports = [o.quality for o in good[0].outcomes if o.quality]
    values = {
        "wall_s": statistics.median(p.wall_s for p in good),
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(p.cpu_s for p in good),
        "peak_rss_mb": max(o.maxrss_kb for p in good for o in p.outcomes) * 1024 / MB,
        "artifact_mb": dir_bytes(out) / MB,
    }
    # Quality is deterministic per seed; average over the pass's reports
    # (one per seed or per projection setting).
    for key in ("auc_biased", "auc_debiased"):
        values[key] = statistics.fmean(r[key] for r in reports)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# Spans whose total time is reported as <span>_s (cli.pipeline only
# encloses the stages), and those whose self time is reported as
# <span>_self_s (spans that enclose wrapped calls).
TOTAL_SPANS = tuple(name for name in traced_cli.TARGETS if name != "cli.pipeline")
SELF_SPANS = (
    "cli.pipeline", "cli.prepare", "cli.train_embed", "cli.debias", "cli.evaluate",
    "neuralnet.train", "fair_projection.debias", "evaluation.evaluate_representation",
)
CALL_COUNTS = {
    "neuralnet.steps": "neuralnet.adam_step",
    "linalg.svd_calls": "linalg.svd",
    "linalg.save_matrix_calls": "linalg.save_matrix",
    "linalg.load_matrix_calls": "linalg.load_matrix",
    "evaluation.train_probe_calls": "evaluation.train_probe",
}


def per_layer_names() -> dict:
    """Every per-layer metric name with its unit."""
    names = {"cli.import_s": "s"}
    names.update({f"{s}_s": "s" for s in TOTAL_SPANS})
    names.update({f"{s}_self_s": "s" for s in SELF_SPANS})
    names.update({k: "count" for k in CALL_COUNTS})
    names.update({"dataset.rows": "count", "neuralnet.epoch_s": "s",
                  "linalg.save_matrix_mb": "MB", "linalg.load_matrix_mb": "MB",
                  "trace.overhead_s": "s"})
    return names


def per_layer(spans_dir: Path, import_times: list[float], traced: Pass, untraced: list[Pass]) -> dict:
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for path in sorted(spans_dir.glob("spans-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        for name, agg in data["spans"].items():
            acc = spans.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in acc:
                acc[key] += agg[key]
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    values = {"cli.import_s": statistics.median(import_times)}
    values.update({f"{s}_s": span(s, "total_s") for s in TOTAL_SPANS})
    values.update({f"{s}_self_s": span(s, "self_s") for s in SELF_SPANS})
    values.update({k: span(s, "calls") for k, s in CALL_COUNTS.items()})
    epochs = counters.get("neuralnet.epochs", 0)
    values["neuralnet.epoch_s"] = span("neuralnet.train", "total_s") / epochs if epochs else 0.0
    values["dataset.rows"] = counters.get("dataset.rows", 0)
    values["linalg.save_matrix_mb"] = counters.get("linalg.save_matrix_bytes", 0) / MB
    values["linalg.load_matrix_mb"] = counters.get("linalg.load_matrix_bytes", 0) / MB
    values["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
    units = per_layer_names()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ------------------------------------------------------------------ main


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", ""),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    if not (root / "src" / "tabfair" / "cli.py").is_file():
        raise BenchError(f"no tabfair sources under {root / 'src'}; run from the repository root")
    for ds in ("adult", "german"):
        if not (root / "configs" / f"{ds}.json").is_file():
            raise BenchError(f"missing configs/{ds}.json under {root}")
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)

    setup_times = []
    for rep in range(1 if trace else w.setup_reps):
        where = work / f"setup-{rep}"
        start = time.perf_counter()
        out, invocations = set_up(runner, w, seed, where)
        setup_times.append(time.perf_counter() - start)
        if rep:
            shutil.rmtree(work / f"setup-{rep - 1}")

    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, invocations))
        if trace or not passes[-1].ok:
            break
        elapsed = time.monotonic() - start
        if len(passes) >= w.min_passes and elapsed + elapsed / len(passes) > seconds:
            break

    metrics = {}
    traced = None
    if trace and passes[-1].ok:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        traced = run_pass(runner, invocations, spans_dir)
        passes.append(traced)
        imports = [runner.spawn([sys.executable, "-c", "import tabfair.cli"]) for _ in range(3)]
        if all(proc.code == 0 for proc in imports) and traced.ok:
            metrics = per_layer(spans_dir, [proc.wall_s for proc in imports], traced, passes[:-1])
    elif not trace:
        metrics = end_to_end(passes, setup_times, out)

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o.error for o in outcomes if not o.ok]
    digests = {p.digest for p in passes if p.ok}
    if len(digests) > 1:
        failures.append("artifact digests differ between passes of one run")
    for error in failures:
        print(f"failure: {error}", file=sys.stderr)
    print(f"digest {w.name} seed={seed} {next(iter(digests), 'none')}")
    reports = [o.quality for o in passes[0].outcomes if o.quality]
    if reports:
        # Not an end-to-end metric: at these input sizes its spread over
        # seeds is wider than any bound could hold (see README.md).
        print(f"spd_debiased {statistics.fmean(r['spd_debiased'] for r in reports):.6g} share")
    print(f"passes {len(passes)} (traced {int(traced is not None)}), "
          f"invocations {len(outcomes)}, failed {sum(not o.ok for o in outcomes)}, "
          f"pass wall s {' '.join(f'{p.wall_s:.3f}' for p in passes)}")
    return {
        "correct": not failures and bool(metrics),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tabfair benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report(result)
    return 0


def report(result: dict) -> None:
    """Print the environment, one `name value unit` line per metric and,
    last, the result JSON."""
    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_share {result['failed'] / result['attempted']:.6g} share")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
