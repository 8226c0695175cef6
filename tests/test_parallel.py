"""The BLAS thread pin and run_both(): a fresh import pins one BLAS
thread, and the two networks and the two probes give the same bits and
the same errors whether run_both() runs them in two processes or in
one."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabfair
from test_cli import PIPELINE_ARTIFACTS, make_workspace, manifest_without_clock
from tabfair.cli import main
from tabfair.errors import NumericalError
from tabfair.linalg import load_matrix, run_both, save_matrix
from tabfair.mixed_encoder import MixedEncoderConfig, train_mixed

SRC = Path(tabfair.__file__).resolve().parents[1]


def fresh_interpreter(code: str, **env_vars) -> list[str]:
    """stdout words of `code` run by a new interpreter that imports the
    package from SRC, with no BLAS thread variable but env_vars set."""
    env = {k: v for k, v in os.environ.items() if k not in tabfair.BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


@pytest.fixture(params=["two-processes", "one-process"])
def mode(request, monkeypatch):
    """Run the test with run_both() in each of its two modes."""
    monkeypatch.setattr(tabfair, "BLAS_PINNED", request.param == "two-processes")
    return request.param


class TestPin:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts /proc/self/task")
    def test_cli_import_pins_one_blas_thread(self):
        code = ("import os, tabfair.cli, tabfair; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], tabfair.BLAS_PINNED, "
                "len(os.listdir('/proc/self/task')))")
        assert fresh_interpreter(code) == ["1", "True", "1"]

    def test_caller_thread_count_is_kept_and_runs_in_order(self):
        code = ("import os, tabfair.cli, tabfair; from tabfair.linalg import run_both; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], tabfair.BLAS_PINNED, "
                "len(set(run_both(os.getpid, os.getpid))))")
        assert fresh_interpreter(code, OPENBLAS_NUM_THREADS="2") == ["2", "False", "1"]

    def test_numpy_imported_first_runs_in_order(self):
        code = ("import numpy, os, tabfair; from tabfair.linalg import run_both; "
                "print(tabfair.BLAS_PINNED, len(set(run_both(os.getpid, os.getpid))))")
        assert fresh_interpreter(code) == ["False", "1"]


class TestRunBoth:
    def test_second_runs_in_a_child_only_when_pinned(self, mode):
        here, there = run_both(os.getpid, os.getpid)
        assert here == os.getpid()
        assert (there != here) == (mode == "two-processes")

    def test_child_failure_reruns_second_here(self, mode):
        parent = os.getpid()

        def second():
            if os.getpid() != parent:
                raise OSError("fails only in the child")
            return "second"

        assert run_both(lambda: "first", second) == ("first", "second")

    def test_second_error_is_raised_here(self, mode):
        def second():
            raise NumericalError("second failed")

        with pytest.raises(NumericalError, match="second failed"):
            run_both(lambda: None, second)

    def test_first_error_with_large_result_pending(self, monkeypatch):
        # The child's 2 MiB result fills the pipe long before it is
        # written; first() raising must not leave either process waiting.
        monkeypatch.setattr(tabfair, "BLAS_PINNED", True)

        def first():
            raise ValueError("first failed")

        def hung(signum, frame):
            raise TimeoutError("run_both waits on a child that waits on it")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(ValueError, match="first failed"):
                run_both(first, lambda: np.ones(1 << 18))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


ENCODER = MixedEncoderConfig(latent_num=8, latent_cat=8, epochs=8, batch_size=32)


class TestSameBits:
    def test_train_mixed(self, encoded, monkeypatch):
        runs = []
        for pinned in (True, False):
            monkeypatch.setattr(tabfair, "BLAS_PINNED", pinned)
            runs.append(train_mixed(encoded.X_num, encoded.X_cat, ENCODER))
        a, b = runs
        for net in ("num_cat", "cat_num"):
            pa, pb = getattr(a, f"params_{net}"), getattr(b, f"params_{net}")
            assert np.array_equal(pa.flat.view(np.uint64), pb.flat.view(np.uint64)), net
            assert getattr(a, f"history_{net}") == getattr(b, f"history_{net}"), net
        # The rebuilt parameters are views into their flat buffer.
        params = a.params_cat_num
        assert all(np.shares_memory(W, params.flat) for W in params.weights + params.biases)

    def test_pipeline_and_stages(self, tmp_path, monkeypatch):
        config = make_workspace(tmp_path)
        for pinned in (True, False):
            monkeypatch.setattr(tabfair, "BLAS_PINNED", pinned)
            assert main(["pipeline", "--config", str(config), "--out",
                         str(tmp_path / f"pipeline-{pinned}")]) == 0
            for verb in ("prepare", "train-embed", "debias", "evaluate"):
                assert main([verb, "--config", str(config), "--out",
                             str(tmp_path / f"stages-{pinned}")]) == 0, verb
        reference = tmp_path / "pipeline-False"
        for run in ("pipeline-True", "stages-True", "stages-False"):
            for name in PIPELINE_ARTIFACTS:
                assert ((tmp_path / run / name).read_bytes()
                        == (reference / name).read_bytes()), (run, name)
        assert (manifest_without_clock(tmp_path / "pipeline-True" / "manifest.json")
                == manifest_without_clock(reference / "manifest.json"))


class TestSameErrors:
    def test_second_network_diverges(self, encoded, mode):
        # Numerical targets near 1e160 overflow the cat->num network's
        # MSE on its first batch; the num->cat network trains on.
        X_num = encoded.X_num * 1e160
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="non-finite loss at epoch 1"):
            train_mixed(X_num, encoded.X_cat, ENCODER)

    def test_second_network_diverges_in_train_embed(self, tmp_path, capsys, mode):
        config = make_workspace(tmp_path)
        assert main(["prepare", "--config", str(config)]) == 0
        X_num = tmp_path / "out" / "X_num.txt"
        save_matrix(X_num, load_matrix(X_num) * 1e160)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert main(["train-embed", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: training diverged") and "Traceback" not in err
        assert not (tmp_path / "out" / "Z.txt").exists()

    @pytest.mark.parametrize("fault, code", [("corrupt", 2), ("missing", 1)])
    def test_bad_z_hat_in_evaluate_writes_no_report(self, tmp_path, capsys, mode, fault, code):
        config = make_workspace(tmp_path)
        for verb in ("prepare", "train-embed", "debias"):
            assert main([verb, "--config", str(config)]) == 0, verb
        Z_hat = tmp_path / "out" / "Z_hat.txt"
        if fault == "corrupt":
            lines = Z_hat.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[3] = "x" + lines[3]
            Z_hat.write_text("".join(lines), encoding="utf-8")
        else:
            Z_hat.unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Z_hat.txt" in err, err
        written = {p.name for p in (tmp_path / "out").iterdir()}
        assert not written & {"report_biased.txt", "roc_biased.csv", "report_debiased.txt",
                              "roc_debiased.csv", "evaluate.provenance.txt"}
