"""Smoke test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402
import tracing  # noqa: E402

TINY = harness.Spec(grid=12, kick_steps=1, epochs=3, patience=2, reps=5, rep_size=10,
                    sweep_sizes="6,12", sweep_epochs=3, sweep_patience=2, replicas=2,
                    queries_per_round=3, min_queries=3, setups=2,
                    max_val_nrmse=1.0, min_test_cosine=-1.0)

# Metrics named for each workload beside the gated end-to-end ones.
WORKLOAD_METRICS = {
    "pipeline_default": ["train_s", "train_steps_per_s", "evaluate_s", "epochs_run",
                         "best_epoch"],
    "sweep_jobs": ["sweep_trainings_per_s"],
    "deploy_io": ["dataset_io_s", "evaluate_s", "predict_ms_p50", "predict_ms_p90"],
}


def bench(capsys, tmp_path, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)], spec=TINY, work_root=tmp_path)
    out = capsys.readouterr().out
    return rc, out, json.loads(out.strip().splitlines()[-1])


def printed(out, name):
    match = re.search(rf"^metric {re.escape(name)} = (\S+) (\S+)", out, re.M)
    assert match, f"metric {name} not printed"
    return float(match.group(1)), match.group(2)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace):
    rc, out, result = bench(capsys, tmp_path, workload, trace)
    assert rc == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed(out, m["name"])[1] == m["unit"]
    for name in ["error_rate", "artifact_drift", *WORKLOAD_METRICS[workload]]:
        printed(out, name)
    assert printed(out, "error_rate")[0] == 0.0
    # the tracer put every original function back
    import tricalib.net
    assert not hasattr(tricalib.net.adam_step, "__wrapped__")


def test_corrupt_checkpoint_is_counted_not_fatal(capsys, tmp_path, monkeypatch):
    original = harness.DeployIO.prepare

    def corrupting_prepare(self):
        original(self)
        text = self.model.read_text(encoding="utf-8")
        self.model.write_text(text.replace("tensor W0", "tensor W9", 1), encoding="utf-8")

    monkeypatch.setattr(harness.DeployIO, "prepare", corrupting_prepare)
    rc, out, result = bench(capsys, tmp_path, "deploy_io", 0)
    assert rc == 0
    assert not result["correct"]
    assert result["failed"] >= TINY.queries_per_round
    assert printed(out, "error_rate")[0] > 0
    assert "failure: predict exited 7" in out


def test_flop_and_byte_counts_of_the_default_network():
    sizes = [12, 200, 200, 200, 4]
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    assert n_params == 83_804
    assert tracing.adam_bytes_per_step(n_params) == 4_693_024
    assert 32 * tracing.train_flops_per_example(sizes) == 15_820_800


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "deploy_io",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_memory_compares_only_runs_of_the_same_code(tmp_path):
    memory = tmp_path / "digests.json"
    ledger = harness.Ledger()
    tiny, real = harness.code_identity(TINY), harness.code_identity(harness.Spec())
    assert tiny != real
    harness.check_against_earlier_runs(memory, f"{tiny}/w/seed1", {"f": "a"}, ledger)
    harness.check_against_earlier_runs(memory, f"{real}/w/seed1", {"f": "b"}, ledger)
    assert ledger.failed == 0
    harness.check_against_earlier_runs(memory, f"{tiny}/w/seed1", {"f": "b"}, ledger)
    assert ledger.failed == 1
