"""Run one tabfair CLI command with spans around each module's public
functions, then write the aggregated spans as JSON.

Usage: python traced_cli.py <spans.json> <tabfair cli args...>

The package is imported from the first entry of PYTHONPATH, as the
untraced invocations do. Every target is wrapped on the module that
defines it and on every tabfair module that imported it by name, so a
call is timed whichever binding the caller uses. Spans stay in memory
until the command returns. A span's self time is its duration minus
the time of the wrapped spans it directly encloses.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Span name -> (defining module, function names). numpy.linalg.svd is
# wrapped on numpy.linalg, where every tabfair module looks it up.
TARGETS = {
    "cli.prepare": ("tabfair.cli", ("cmd_prepare",)),
    "cli.train_embed": ("tabfair.cli", ("cmd_train_embed",)),
    "cli.debias": ("tabfair.cli", ("cmd_debias",)),
    "cli.evaluate": ("tabfair.cli", ("cmd_evaluate",)),
    "cli.pipeline": ("tabfair.cli", ("cmd_pipeline",)),
    "dataset.load_csv": ("tabfair.dataset", ("load_csv",)),
    "dataset.encode": ("tabfair.dataset", ("encode",)),
    "dataset.save_split": ("tabfair.dataset", ("save_split",)),
    "dataset.load_split": ("tabfair.dataset", ("load_split",)),
    "neuralnet.train": ("tabfair.neuralnet", ("train",)),
    "neuralnet.forward": ("tabfair.neuralnet", ("forward",)),
    "neuralnet.backward": ("tabfair.neuralnet", ("backward",)),
    "neuralnet.adam_step": ("tabfair.neuralnet", ("adam_step",)),
    "neuralnet.loss": ("tabfair.neuralnet", ("bce_loss", "mse_loss")),
    "neuralnet.save_mlp": ("tabfair.neuralnet", ("save_mlp",)),
    "mixed_encoder.train_mixed": ("tabfair.mixed_encoder", ("train_mixed",)),
    "mixed_encoder.extract_latent": ("tabfair.mixed_encoder", ("extract_latent",)),
    "linalg.save_matrix": ("tabfair.linalg", ("save_matrix",)),
    "linalg.load_matrix": ("tabfair.linalg", ("load_matrix",)),
    "linalg.rank_k_svd": ("tabfair.linalg", ("rank_k_svd",)),
    "linalg.residualize": ("tabfair.linalg", ("residualize",)),
    "linalg.svd": ("numpy.linalg", ("svd",)),
    "fair_projection.debias": ("tabfair.fair_projection", ("debias",)),
    "fair_projection.select_k": ("tabfair.fair_projection", ("select_k",)),
    "evaluation.evaluate_representation": ("tabfair.evaluation", ("evaluate_representation",)),
    "evaluation.train_probe": ("tabfair.evaluation", ("train_probe",)),
    "evaluation.roc_curve_points": ("tabfair.evaluation", ("roc_curve_points",)),
    "evaluation.roc_auc": ("tabfair.evaluation", ("roc_auc",)),
    "evaluation.report_io": ("tabfair.evaluation", ("save_report", "save_roc_csv")),
}


class Tracer:
    """In-memory spans plus per-span counters."""

    def __init__(self):
        self.spans: list[tuple[str, str, float, float, float]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, time covered by child spans]

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else ""
            self._stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, covered = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((name, parent, start, end, end - start - covered))
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def aggregate(self) -> dict:
        """Per span name: total seconds, self seconds and call count."""
        out = {}
        for name, _, start, end, self_s in self.spans:
            agg = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            agg["total_s"] += end - start
            agg["self_s"] += self_s
            agg["calls"] += 1
        return out


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _count_rows(counters, args, kwargs, result):
    _add(counters, "dataset.rows", result.n)


def _count_epochs(counters, args, kwargs, result):
    _add(counters, "neuralnet.epochs", kwargs.get("epochs", 0))


def _count_saved_bytes(counters, args, kwargs, result):
    _add(counters, "linalg.save_matrix_bytes", os.path.getsize(args[0]))


def _count_loaded_bytes(counters, args, kwargs, result):
    _add(counters, "linalg.load_matrix_bytes", os.path.getsize(args[0]))


COUNTERS = {
    "dataset.load_csv": _count_rows,
    "neuralnet.train": _count_epochs,
    "linalg.save_matrix": _count_saved_bytes,
    "linalg.load_matrix": _count_loaded_bytes,
}


def install(tracer: Tracer) -> None:
    """Wrap every target on its defining module and rebind each tabfair
    module attribute that still points at the original function."""
    import importlib

    import tabfair.cli  # noqa: F401  (loads every tabfair module)

    for name, (module_name, functions) in TARGETS.items():
        module = importlib.import_module(module_name)
        for fn_name in functions:
            original = getattr(module, fn_name)
            wrapped = tracer.wrap(name, original, COUNTERS.get(name))
            setattr(module, fn_name, wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tabfair" or mod_name.startswith("tabfair."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from tabfair.cli import main as cli_main

    code = cli_main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.aggregate(), "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
