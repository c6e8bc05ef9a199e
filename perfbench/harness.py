"""The benchmark's workloads, driven through `tricalib.cli.main`.

Every timed stage is a command line a user would type, called in the
benchmark's own process (one process; the sweep's pool adds at most
`nproc` worker threads).  Set-up runs in fresh interpreters, because a
user pays interpreter start-up and import on every command.

Workload seed `s` offsets the README reference seeds (data 7, train 3,
split 20, eval 11), so seed 0 reproduces the README defaults.  The one
exception is the training of `pipeline_default`: early stopping makes its
length depend on the seed (44 to 158 epochs over seeds 0-7 at the
defaults, 5 s to 28 s), so its dataset, split and initialisation stay at
the reference seeds and the workload seed drives only its evaluation.
Likewise `deploy_io` always deploys the model of the reference seeds (a
1-epoch model's accuracy swings by a third across seeds); its seed drives
the traffic: the replicated dataset, the evaluation draws and the queries.

Correctness is checked in every run and never skipped: each stage must
exit 0, repeated iterations of a run and runs of the same code and seed in
one checkout must produce identical artifact digests, `pipeline_default`
must meet the ROADMAP gates, and at seed 0 the digests are compared with
`reference_digests.json` (mismatches are reported as `artifact_drift`, a
count of files, not as failures).
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from tricalib import cli
from tricalib import data as datamod

SRC = Path(cli.__file__).resolve().parents[1]
REFERENCE_DIGESTS = Path(__file__).resolve().with_name("reference_digests.json")
README_SEEDS = {"data": 7, "train": 3, "split": 20, "eval": 11}

# (name, unit, better) of the metrics every workload reports untraced.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("val_nrmse", "1", "lower"),
    ("test_cosine", "1", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Runs the given command lines in a fresh interpreter, stopping at the
# first non-zero exit code.
SETUP_CODE = """
import json, sys
from tricalib import cli
for argv in json.loads(sys.argv[1]):
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(rc)
"""

# Times one command line in a fresh interpreter; prints {"rc", "s"} last.
DIAG_CODE = """
import json, sys, time
from tricalib import cli
t0 = time.perf_counter()
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "s": time.perf_counter() - t0}))
"""


@dataclass(frozen=True)
class Spec:
    """Sizes of one benchmark configuration; `Spec()` is the real one."""

    grid: int = 53
    kick_steps: int = 5
    epochs: int = 250
    patience: int = 25
    reps: int = 500
    rep_size: int = 100
    sweep_sizes: str = "10,20,53"
    sweep_epochs: int = 30
    sweep_patience: int = 25
    replicas: int = 20
    queries_per_round: int = 25
    min_queries: int = 150
    setups: int = 6
    max_val_nrmse: float = 0.03
    min_test_cosine: float = 0.995


class Ledger:
    """Counts the operations and checks of one run, and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_report(path):
    """`key = value` report as a dict of strings; empty if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)
    except OSError:
        return {}


def num(mapping, key):
    try:
        return float(mapping[key])
    except (KeyError, ValueError):
        return math.nan


def interpreter_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


class Workload:
    """One named workload: set-up, one timed iteration, and its checks.

    `iteration(out)` runs the timed stages into the directory `out` and
    returns {"values": {...}, "digests": {...}}; every iteration of a run
    must produce the same digests.
    """

    name = ""
    min_iterations = 1

    def __init__(self, spec, seed, work, ledger):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.seeds = {k: v + seed for k, v in README_SEEDS.items()}

    def cli(self, argv):
        """Runs one stage in-process; returns (seconds, stdout)."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a crashing stage is a failed operation, not a failed run
            rc = "crash"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        self.ledger.check(rc == 0, f"{argv[0]} exited {rc}: {err.getvalue().strip()[-400:]}")
        return seconds, out.getvalue()

    def setup_commands(self, out):
        return []

    @property
    def setup_dir(self):
        """Files of the first set-up, the ones the timed part uses."""
        return self.work / "setup0"

    def setup(self, indices):
        """Runs one set-up per index in a fresh interpreter; returns the seconds of each."""
        times = []
        for i in indices:
            out = self.work / f"setup{i}"
            out.mkdir(parents=True, exist_ok=True)
            argv = [[str(a) for a in cmd] for cmd in self.setup_commands(out)]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(argv)],
                                  cwd=self.work, env=interpreter_env(), capture_output=True,
                                  text=True, timeout=150)
            times.append(time.perf_counter() - t0)
            self.ledger.check(proc.returncode == 0,
                              f"set-up exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return times

    def prepare(self):
        """Reads what the timed part needs from the set-up's files."""

    def single_thread(self, argv):
        """Times one command in a fresh interpreter with one BLAS thread."""
        proc = subprocess.run([sys.executable, "-c", DIAG_CODE, *map(str, argv)],
                              cwd=self.work, env=interpreter_env(OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=150)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = {"rc": proc.returncode, "s": math.nan}
        self.ledger.check(res["rc"] == 0, f"single-thread {argv[0]} exited {res['rc']}")
        return res["s"]

    def enough(self, outcomes):
        """Whether the timed part has done the workload's minimum of work."""
        return len(outcomes) >= self.min_iterations

    def verify(self, out, outcomes):
        """Checks beyond exit codes and repeat digests."""

    def diag(self, out, untraced):
        return {}


class PipelineDefault(Workload):
    """gen-dataset -> train -> evaluate at the README defaults."""

    name = "pipeline_default"

    def _train_argv(self, out, tag):
        sp = self.spec
        return ["train", "-i", out / "train.csv", "-o", out / f"{tag}.ckpt",
                "--report-dir", out / tag, "--epochs", sp.epochs, "--patience", sp.patience,
                "--seed", README_SEEDS["train"], "--split-seed", README_SEEDS["split"]]

    def _eval_argv(self, out, eval_dir):
        sp = self.spec
        return ["evaluate", "-m", out / "model.ckpt", "-i", out / "train.csv",
                "-o", eval_dir, "--reps", sp.reps, "--rep-size", sp.rep_size,
                "--seed", self.seeds["eval"]]

    def _steps(self, report_dir):
        rep = read_report(report_dir / "report.txt")
        n_train = num(rep, "examples") - num(rep, "validation_examples")
        return num(rep, "epochs_run") * math.ceil(n_train / num(rep, "batch_size"))

    def iteration(self, out):
        sp = self.spec
        out.mkdir(parents=True, exist_ok=True)
        gen_s, _ = self.cli(["gen-dataset", "--grid", sp.grid, "--kick-steps", sp.kick_steps,
                             "--seed", README_SEEDS["data"], "-o", out / "train.csv"])
        train_s, _ = self.cli(self._train_argv(out, "model"))
        evaluate_s, _ = self.cli(self._eval_argv(out, out / "eval"))
        train_rep = read_report(out / "model" / "report.txt")
        eval_rep = read_report(out / "eval" / "report.txt")
        steps = self._steps(out / "model")
        return {
            "values": {
                "gen_s": gen_s,
                "train_s": train_s,
                "evaluate_s": evaluate_s,
                "train_steps_per_s": steps / train_s,
                "val_nrmse": num(train_rep, "val_nrmse"),
                "test_cosine": num(eval_rep, "cosine_mean"),
                "epochs_run": num(train_rep, "epochs_run"),
                "best_epoch": num(train_rep, "best_epoch"),
            },
            "digests": self._digests(out, out / "eval"),
        }

    def _digests(self, out, eval_dir):
        files = {"train.csv": out / "train.csv", "model.ckpt": out / "model.ckpt",
                 "curves.csv": out / "model" / "curves.csv",
                 "train_report.txt": out / "model" / "report.txt",
                 "reps.csv": eval_dir / "reps.csv",
                 "eval_report.txt": eval_dir / "report.txt"}
        return {k: sha256(p) for k, p in files.items() if p.exists()}

    def verify(self, out, outcomes):
        values = outcomes[-1]["values"]
        self.ledger.check(values["val_nrmse"] <= self.spec.max_val_nrmse,
                          f"gate: val NRMSE {values['val_nrmse']} > {self.spec.max_val_nrmse}")
        self.ledger.check(values["test_cosine"] >= self.spec.min_test_cosine,
                          f"gate: cosine {values['test_cosine']} < {self.spec.min_test_cosine}")
        # the run trains once, so repeat the evaluation to check its determinism
        self.cli(self._eval_argv(out, out / "eval_repeat"))
        again = self._digests(out, out / "eval_repeat")
        first = outcomes[-1]["digests"]
        for key in ("reps.csv", "eval_report.txt"):
            self.ledger.check(again.get(key) == first.get(key), f"repeat evaluate: {key} differs")

    def diag(self, out, untraced):
        train_s = self.single_thread(self._train_argv(out, "threads1"))
        steps = self._steps(out / "threads1")
        return {
            "diag.threaded.train_s": untraced["values"]["train_s"],
            "diag.threaded.train_steps_per_s": untraced["values"]["train_steps_per_s"],
            "diag.threads1.train_s": train_s,
            "diag.threads1.train_steps_per_s": steps / train_s,
        }

    def summary(self, outcomes):
        last = outcomes[-1]["values"]
        return {
            "train_s": (median_of(outcomes, "train_s"), "s"),
            "train_steps_per_s": (median_of(outcomes, "train_steps_per_s"), "1/s"),
            "evaluate_s": (median_of(outcomes, "evaluate_s"), "s"),
            "gen_dataset_s": (median_of(outcomes, "gen_s"), "s"),
            "val_nrmse": (last["val_nrmse"], "1"),
            "test_cosine": (last["test_cosine"], "1"),
            "epochs_run": (last["epochs_run"], "count"),
            "best_epoch": (last["best_epoch"], "count"),
            "ops_per_s": (median_of(outcomes, "train_steps_per_s"), "1/s"),
        }


class SweepJobs(Workload):
    """sweep-grid through the experiments thread pool, `--jobs nproc`."""

    name = "sweep_jobs"
    min_iterations = 2

    jobs = len(os.sched_getaffinity(0))
    # Two trainings per size, so that trainings of the largest grid overlap
    # in the pool instead of one of them running alone.
    trainings_per_size = 2

    def _argv(self, out):
        sp, s = self.spec, self.seeds
        return ["sweep-grid", "--sizes", sp.sweep_sizes, "--epochs", sp.sweep_epochs,
                "--patience", sp.sweep_patience, "--trainings", self.trainings_per_size,
                "--kick-steps", sp.kick_steps, "--jobs", self.jobs,
                "--data-seed", s["data"], "--train-seed", s["train"],
                "--eval-seed", s["eval"], "--split-seed", s["split"], "-o", out]

    @property
    def trainings(self):
        return len(self.spec.sweep_sizes.split(",")) * self.trainings_per_size

    def iteration(self, out):
        sweep_s, _ = self.cli(self._argv(out))
        largest = {}
        try:
            with open(out / "results.csv", encoding="utf-8") as fh:
                rows = [line.strip().split(",") for line in fh]
            largest = dict(zip(rows[0], rows[-1]))
        except (OSError, IndexError):
            pass
        files = ("runs.csv", "results.csv", "report.txt", "config.echo")
        return {
            "values": {
                "sweep_s": sweep_s,
                "sweep_trainings_per_s": self.trainings / sweep_s,
                "val_nrmse": num(largest, "val_nrmse_mean"),
                "test_cosine": num(largest, "test_cosine_mean"),
            },
            "digests": {f: sha256(out / f) for f in files if (out / f).exists()},
        }

    def diag(self, out, untraced):
        sweep_s = self.single_thread(self._argv(out.parent / "threads1"))
        return {
            "diag.threaded.sweep_trainings_per_s": untraced["values"]["sweep_trainings_per_s"],
            "diag.threads1.sweep_trainings_per_s": self.trainings / sweep_s,
        }

    def summary(self, outcomes):
        last = outcomes[-1]["values"]
        rate = median_of(outcomes, "sweep_trainings_per_s")
        return {
            "sweep_s": (median_of(outcomes, "sweep_s"), "s"),
            "sweep_trainings_per_s": (rate, "1/s"),
            "trainings_per_sweep": (self.trainings, "count"),
            "jobs": (self.jobs, "count"),
            "val_nrmse": (last["val_nrmse"], "1"),
            "test_cosine": (last["test_cosine"], "1"),
            "ops_per_s": (rate, "1/s"),
        }


class DeployIO(Workload):
    """Reads after training: replicated dataset I/O, evaluations, queries."""

    name = "deploy_io"
    min_iterations = 2

    def setup_commands(self, out):
        sp, s = self.spec, README_SEEDS
        return [
            ["gen-dataset", "--grid", sp.grid, "--kick-steps", sp.kick_steps,
             "--seed", s["data"], "-o", out / "data.csv"],
            ["train", "-i", out / "data.csv", "-o", out / "model.ckpt", "--epochs", 1,
             "--patience", 1, "--seed", s["train"], "--split-seed", s["split"],
             "--report-dir", out / "report"],
        ]

    def prepare(self):
        self.data_csv = self.setup_dir / "data.csv"
        self.model = self.setup_dir / "model.ckpt"
        self.setup_report = read_report(self.setup_dir / "report" / "report.txt")
        self.queries = []
        try:
            features = datamod.read_csv(self.data_csv).features
        except Exception as exc:  # a broken set-up fails the checks below, not the run
            self.ledger.check(False, f"set-up dataset unreadable: {exc}")
            return
        pick = np.random.default_rng(self.seed).choice(
            len(features), size=self.spec.queries_per_round, replace=False)
        self.queries = [",".join(repr(float(x)) for x in features[i]) for i in pick]

    def iteration(self, out):
        sp, s = self.spec, self.seeds
        out.mkdir(parents=True, exist_ok=True)
        replicated = out / "replicated.csv"
        gen_s, _ = self.cli(["gen-dataset", "--grid", sp.grid, "--kick-steps", sp.kick_steps,
                             "--replicas", sp.replicas, "--seed", s["data"],
                             "-o", replicated])
        t0 = time.perf_counter()
        try:
            rows = len(datamod.read_csv(replicated))
        except Exception as exc:
            rows = -1
            self.ledger.check(False, f"read_csv of the replicated dataset: {exc}")
        read_s = time.perf_counter() - t0
        self.ledger.check(rows == sp.grid**2 * sp.replicas, f"replicated dataset has {rows} rows")

        common = ["-m", self.model, "-i", self.data_csv, "--seed", s["eval"]]
        evaluate_s, _ = self.cli(["evaluate", *common, "-o", out / "eval_grid",
                                  "--reps", sp.reps, "--rep-size", sp.rep_size])
        uniform_s, _ = self.cli(["evaluate", *common, "-o", out / "eval_uniform",
                                 "--reps", sp.reps, "--rep-size", sp.rep_size,
                                 "--sampling", "uniform"])
        surface_s, _ = self.cli(["surface", *common, "-o", out / "surface"])

        query_s, answers = [], []
        for probs in self.queries:
            seconds, stdout = self.cli(["predict", "-m", self.model, "--probs", probs])
            query_s.append(seconds)
            answers.append(stdout)
            answer = read_answer(stdout)
            self.ledger.check(len(answer) == 3 and all(map(math.isfinite, answer.values())),
                              f"predict answer unreadable: {stdout!r}")

        files = {"replicated.csv": replicated,
                 "eval_grid_reps.csv": out / "eval_grid" / "reps.csv",
                 "eval_uniform_reps.csv": out / "eval_uniform" / "reps.csv",
                 "surface_results.csv": out / "surface" / "results.csv"}
        digests = {k: sha256(p) for k, p in files.items() if p.exists()}
        digests["predict_answers"] = hashlib.sha256("".join(answers).encode()).hexdigest()
        for name in ("data.csv", "model.ckpt"):
            if (self.setup_dir / name).exists():
                digests[name] = sha256(self.setup_dir / name)
        return {
            "values": {"dataset_io_s": gen_s + read_s, "evaluate_s": evaluate_s,
                       "evaluate_uniform_s": uniform_s, "surface_s": surface_s,
                       "query_s": query_s,
                       "test_cosine": num(read_report(out / "eval_grid" / "report.txt"),
                                          "cosine_mean")},
            "digests": digests,
        }

    def summary(self, outcomes):
        query_ms = [1e3 * q for o in outcomes for q in o["values"]["query_s"]]
        p50, p90 = (np.percentile(query_ms, (50, 90)) if query_ms else (math.nan,) * 2)
        return {
            "dataset_io_s": (median_of(outcomes, "dataset_io_s"), "s"),
            "evaluate_s": (median_of(outcomes, "evaluate_s"), "s"),
            "evaluate_uniform_s": (median_of(outcomes, "evaluate_uniform_s"), "s"),
            "surface_s": (median_of(outcomes, "surface_s"), "s"),
            "predict_ms_p50": (float(p50), "ms"),
            "predict_ms_p90": (float(p90), "ms"),
            "predict_queries": (len(query_ms), "count"),
            "val_nrmse": (num(self.setup_report, "val_nrmse"), "1"),
            "test_cosine": (outcomes[-1]["values"]["test_cosine"], "1"),
            "ops_per_s": (1e3 * len(query_ms) / sum(query_ms) if query_ms else math.nan, "1/s"),
        }

    def enough(self, outcomes):
        return (super().enough(outcomes)
                and len(outcomes) * len(self.queries) >= self.spec.min_queries)


WORKLOADS = {w.name: w for w in (PipelineDefault, SweepJobs, DeployIO)}


def read_answer(stdout):
    answer = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            try:
                answer[key] = float(value)
            except ValueError:
                pass
    return answer


def median_of(outcomes, key):
    return statistics.median(o["values"][key] for o in outcomes)


def reference_drift(name, digests):
    """(files whose digest differs from the seed-0 reference, files compared)."""
    with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
        reference = json.load(fh).get(name, {})
    return sum(digests.get(k) != v for k, v in reference.items()), len(reference)


def code_identity(spec):
    """SHA-256 over the tricalib and benchmark sources and the sizes of `spec`.

    Only runs of identical code and sizes must reproduce each other's
    digests; a changed source starts a new entry in the memory.
    """
    h = hashlib.sha256(repr(spec).encode())
    here = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "tricalib").rglob("*.py"), *here.glob("*.py")]):
        h.update(str(path.relative_to(SRC.parent)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_against_earlier_runs(memory_path, key, digests, ledger):
    """Compares digests with earlier runs of this checkout at the same key.

    `key` must name the code identity as well as the workload and seed.
    """
    try:
        with open(memory_path, encoding="utf-8") as fh:
            memory = json.load(fh)
    except (OSError, ValueError):
        memory = {}
    seen = memory.setdefault(key, {})
    for name, digest in sorted(digests.items()):
        if name in seen:
            ledger.check(seen[name] == digest, f"{name} differs from an earlier run of {key}")
        else:
            seen[name] = digest
    with open(memory_path, "w", encoding="utf-8") as fh:
        json.dump(memory, fh, indent=1)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, spec, seed, seconds, trace, work):
    """Runs one workload; returns a dict ready for reporting."""
    ledger = Ledger()
    wl = WORKLOADS[name](spec, seed, work, ledger)
    # Half the set-ups run before the timed part and half after it, so that
    # their median samples two moments of a machine whose speed drifts.
    before = spec.setups - spec.setups // 2
    setup_s = wl.setup(range(before))
    wl.prepare()

    outcomes, walls = [], []
    layers = None
    if not trace:
        start = time.perf_counter()
        while True:
            out = work / f"iter{len(outcomes)}"
            t0 = time.perf_counter()
            outcomes.append(wl.iteration(out))
            walls.append(time.perf_counter() - t0)
            if len(outcomes) > 1:
                shutil.rmtree(work / f"iter{len(outcomes) - 2}", ignore_errors=True)
            elapsed = time.perf_counter() - start
            if wl.enough(outcomes) and elapsed + statistics.median(walls) > seconds:
                break
    else:
        t0 = time.perf_counter()
        untraced = wl.iteration(work / "untraced")
        walls.append(time.perf_counter() - t0)
        with tracing.Tracer(run_id=f"{name}-seed{seed}") as tracer:
            t0 = time.perf_counter()
            traced = wl.iteration(work / "traced")
            traced_wall = time.perf_counter() - t0
        outcomes = [untraced, traced]
        tracer.write(work / "spans.jsonl")
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.untraced_wall_s"] = walls[0]
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - walls[0]
        layers.update(wl.diag(work / "traced", untraced))
        for metric, _, _ in tracing.PER_LAYER:
            layers.setdefault(metric, 0.0)

    last_out = work / ("traced" if trace else f"iter{len(outcomes) - 1}")
    first = outcomes[0]["digests"]
    for i, o in enumerate(outcomes[1:], start=1):
        for key in sorted(set(first) | set(o["digests"])):
            ledger.check(o["digests"].get(key) == first.get(key),
                         f"iteration {i}: {key} differs from iteration 0")
    wl.verify(last_out, outcomes)
    check_against_earlier_runs(work.parent / "digests.json",
                               f"{code_identity(spec)[:16]}/{name}/seed{seed}", first, ledger)
    setup_s += wl.setup(range(before, spec.setups))

    drift, compared = (0, 0)
    if seed == 0 and spec == Spec():
        drift, compared = reference_drift(name, first)
    report = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    measured = outcomes[:1] if trace else outcomes
    for key, (value, unit) in wl.summary(measured).items():
        report[key] = (value, unit, len(measured))
    report["error_rate"] = (ledger.failed / ledger.attempted, "failed/attempted", ledger.attempted)
    report["artifact_drift"] = (drift, "files", compared)
    return {
        "ledger": ledger,
        "report": report,
        "layers": layers,
        "digests": first,
        "setup_runs_s": setup_s,
        "walls_s": walls,
    }
