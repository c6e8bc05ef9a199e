"""Benchmark of tricalib: time to a calibrated model, sweep throughput and
deploy-time latency, with per-layer traces.

    python3 perfbench/run.py --workload pipeline_default --seed 0 --seconds 25 --trace 0

Workloads (see harness.py for what each stage runs):

    pipeline_default  gen-dataset -> train -> evaluate at the README defaults
    sweep_jobs        sweep-grid --sizes 10,20,53 --epochs 30 --trainings 2
                      --jobs <nproc>
    deploy_io         replicated dataset write + read, evaluate (grid and
                      uniform), surface -m, and sequential predict queries

With `--trace 0` the run is untraced and reports the end-to-end metrics;
with `--trace 1` it runs one untraced and one traced iteration and
reports the per-layer metrics, the tracing overhead and a single-thread
BLAS diagnostic.  Every metric is printed as `metric <name> = <value>
<unit>`, and the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The environment, all
metrics, failures and artifact digests of the run are also written to
`.perfbench_work/results/`, with the spans of a traced run beside them.

The sources are taken from `src/` next to this directory; without them
the benchmark exits 2 and prints no result.
"""

import argparse
import json
import math
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("pipeline_default", "sweep_jobs", "deploy_io")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the README defaults")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }
    for var in BLAS_THREAD_VARS:
        env[var] = os.environ.get(var, "unset")
    return env


def fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None, spec=None, work_root=None):
    args = parse_args(argv)
    if not (SRC / "tricalib" / "__init__.py").is_file():
        print(f"perfbench: no tricalib sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import tracing

    if not harness.SRC.samefile(SRC):
        print(f"perfbench: tricalib was imported from {harness.SRC}, not {SRC}", file=sys.stderr)
        return 2
    spec = spec or harness.Spec()
    work_root = Path(work_root or ROOT / ".perfbench_work")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = work_root / tag
    results = work_root / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)

    env = environment()
    out = harness.run(args.workload, spec, args.seed, args.seconds, bool(args.trace), work)
    ledger, report, layers = out["ledger"], out["report"], out["layers"]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, (value, unit, n) in report.items():
        print(f"metric {name} = {fmt(value)} {unit} (n={n})")
    if args.trace:
        for name, unit, _ in tracing.PER_LAYER:
            print(f"metric {name} = {fmt(layers[name])} {unit}")
        print("note: *_computed counts follow from the layer sizes, not from counters; "
              "each parameter array of the default network (0.67 MB) fits in L2, so "
              "adam_step GB/s is not DRAM bandwidth")
        shutil.move(work / "spans.jsonl", results / f"{tag}.spans.jsonl")
    for failure in ledger.failures:
        print(f"failure: {failure}")

    if args.trace:
        chosen = [(name, unit, layers[name]) for name, unit, _ in tracing.PER_LAYER]
    else:
        chosen = [(name, unit, report[name][0]) for name, unit, _ in harness.END_TO_END]
    metrics = {}
    for name, unit, value in chosen:
        if not ledger.check(math.isfinite(value), f"metric {name} is not finite"):
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    line = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}

    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": line,
                   "report": {k: {"value": v, "unit": u, "n": n}
                              for k, (v, u, n) in report.items()},
                   "layers": layers, "failures": ledger.failures,
                   "digests": out["digests"], "setup_runs_s": out["setup_runs_s"],
                   "walls_s": out["walls_s"]}, fh, indent=1, default=str)
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
