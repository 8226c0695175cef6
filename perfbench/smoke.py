"""Smoke test of the benchmark on tiny inputs.

Usage (from the repository root): python3 perfbench/smoke.py

Runs every workload at a few hundred rows and a few epochs, untraced
and traced, and asserts that every metric named in BENCHMARK.json
prints with its unit and that the run is correct. Then corrupts
artifacts of a finished pass and asserts that the checks reject them.
Exits 0 when every assertion holds; takes about 90 s on 2 cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run
import synth

ROOT = Path.cwd()


def tiny(w: run.Workload) -> run.Workload:
    if w.dataset == "adult":
        return dataclasses.replace(w, rows=2000, setup_reps=2, min_passes=1)
    return dataclasses.replace(w, rows=300, epochs=5, setup_reps=2, min_passes=1,
                               seeds=w.seeds[:2])


def check_generator(work: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tabfair import dataset as ds

    for dataset, write, widths in (("adult", synth.write_adult_csv, (6, 91)),
                                   ("german", synth.write_german_csv, (6, 54))):
        a, b = work / f"{dataset}-a.csv", work / f"{dataset}-b.csv"
        write(a, 5, 400)
        write(b, 5, 400)
        assert a.read_bytes() == b.read_bytes(), f"{dataset}: same seed, different bytes"
        write(b, 6, 400)
        assert a.read_bytes() != b.read_bytes(), f"{dataset}: seed has no effect"
        schema = ds.load_schema(ROOT / "configs" / f"{dataset}.schema")
        encoded = ds.encode(ds.load_csv(a, schema), schema)
        assert (encoded.d1, encoded.d2) == widths, (dataset, encoded.d1, encoded.d2)


def check_metrics(w: run.Workload, trace: bool, work: Path, spec: dict) -> None:
    result = run.run(w, 1, 0.0, trace, ROOT, work)
    assert result["correct"] and result["failed"] == 0, (w.name, trace, result)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(result)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) == 3}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        assert printed.get(metric["name"]) == metric["unit"], (w.name, metric, printed)
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "artifact_mb"):
            assert result["metrics"][name]["value"] > 0, (w.name, name)
    print(f"ok  {w.name} trace={int(trace)}: {len(result['metrics'])} metrics")


def expect_rejected(inv: run.Invocation, output: str, what: str) -> None:
    try:
        inv.check(inv.out_dir, output)
    except run.CheckError as exc:
        print(f"ok  {what} rejected: {exc}")
        return
    raise AssertionError(f"{what} passed the checks")


def check_corruption(work: Path) -> None:
    work.mkdir()
    runner = run.Runner(ROOT, work, run.time.monotonic() + 120)
    w = tiny(run.WORKLOADS["adult-pipeline"])
    _, (inv,) = run.set_up(runner, w, 2, work / "setup")
    done = run.run_pass(runner, [inv])
    assert done.ok, done.outcomes[0].error
    z_hat = inv.out_dir / "Z_hat.txt"
    original = z_hat.read_bytes()
    last = original[-2:-1]
    z_hat.write_bytes(original[:-2] + (b"1" if last == b"0" else b"0") + b"\n")
    expect_rejected(inv, "", "edited Z_hat.txt")
    z_hat.write_bytes(original)
    inv.check(inv.out_dir, "")

    prov = inv.out_dir / "debias.provenance.txt"
    text = prov.read_text(encoding="utf-8")
    lines = [("relative_residual 0.5" if line.startswith("relative_residual") else line)
             for line in text.splitlines()]
    prov.write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest_path = inv.out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for art in manifest["artifacts"]:
        if art["name"] == prov.name:
            art["sha256"] = hashlib.sha256(prov.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    expect_rejected(inv, "", "a debias residual above the limit")

    report = inv.out_dir / "report_debiased.txt"
    report.write_text(report.read_text(encoding="utf-8").replace("roc_auc 0.", "roc_auc 1."),
                      encoding="utf-8")
    evaluate = run.Invocation(["evaluate"], inv.out_dir, run.check_evaluate)
    listing = "\n".join(str(inv.out_dir / n) for n in ("report_biased.txt", "report_debiased.txt"))
    expect_rejected(evaluate, listing, "an AUC above 1")

    missing = run.Invocation(["pipeline", "--config", str(work / "missing.json")],
                             inv.out_dir, run.check_pipeline)
    failed = run.run_pass(runner, [missing])
    assert not failed.ok and "exited 1" in failed.outcomes[0].error, failed.outcomes
    print("ok  a failing invocation is counted as failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    work = ROOT / ".perfbench_work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_generator(work)
        for w in run.WORKLOADS.values():
            for trace in (False, True):
                where = work / f"{w.name}-{int(trace)}"
                where.mkdir()
                check_metrics(tiny(w), trace, where, spec)
        check_corruption(work / "corrupt")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
