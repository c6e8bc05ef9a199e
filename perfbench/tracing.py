"""Span tracing of tricalib's layers, applied from outside the program.

`Tracer` replaces every public function of the traced modules with a
timing wrapper, in every tricalib namespace that holds a reference to it
(`cli.forward`, `experiments.forward` and `net.forward` all record into
the span `net.forward`), and puts the originals back on exit.  Spans are
kept in memory, one record per call: name, start, end, span id, parent
span id, run id and thread.  Each thread keeps its own parent stack, so
the spans of concurrent sweep trainings nest correctly within their own
worker thread (where the outermost span has no parent).

`layer_metrics` turns the spans into the benchmark's per-layer metrics.
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

# The modules that do the work; `config` and `errors` do negligible work.
LAYERS = ("device", "data", "net", "metrics", "experiments", "cli")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("net.adam_step.calls", "count", "lower"),
    ("net.adam_step.s", "s", "lower"),
    ("net.adam_step.us_per_call", "us", "lower"),
    ("net.adam_step.bytes_computed", "B", "lower"),
    ("net.adam_step.gbps_computed", "GB/s", "higher"),
    ("net.train.s", "s", "lower"),
    ("net.train.self_s", "s", "lower"),
    ("net.train.flops_computed", "flop", "lower"),
    ("net.train.gflops_computed", "GFLOP/s", "higher"),
    ("net.epochs_run", "count", "lower"),
    ("net.best_epoch", "count", "lower"),
    ("net.forward.calls", "count", "lower"),
    ("net.forward.s", "s", "lower"),
    ("net.save_checkpoint.s", "s", "lower"),
    ("net.save_checkpoint.bytes", "B", "lower"),
    ("net.load_checkpoint.calls", "count", "lower"),
    ("net.load_checkpoint.s", "s", "lower"),
    ("net.load_checkpoint.bytes", "B", "lower"),
    ("data.write_csv.s", "s", "lower"),
    ("data.write_csv.bytes", "B", "lower"),
    ("data.read_csv.s", "s", "lower"),
    ("data.read_csv.rows_per_s", "1/s", "higher"),
    ("data.generate_simulated.s", "s", "lower"),
    ("device.voltage_probabilities.calls", "count", "lower"),
    ("device.voltage_probabilities.s", "s", "lower"),
    ("device.sample_counts.calls", "count", "lower"),
    ("device.sample_counts.s", "s", "lower"),
    ("device.sample_counts.draws", "count", "lower"),
    ("device.estimate_probabilities.s", "s", "lower"),
    ("metrics.repeated_test_evaluation.s", "s", "lower"),
    ("metrics.rep_ms", "ms", "lower"),
    ("metrics.fresh_noise.s", "s", "lower"),
    ("experiments.train_on_dataset.calls", "count", "lower"),
    ("experiments.train_on_dataset.s_p50", "s", "lower"),
    ("experiments.train_on_dataset.s_max", "s", "lower"),
    ("experiments.sweep.busy_ratio", "1", "higher"),
    ("experiments.sweep.parallel_speedup", "1", "higher"),
    ("cli.gen-dataset.s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.evaluate.s", "s", "lower"),
    ("cli.sweep-grid.s", "s", "lower"),
    ("cli.surface.s", "s", "lower"),
    ("cli.predict.s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("diag.threaded.train_s", "s", "lower"),
    ("diag.threaded.train_steps_per_s", "1/s", "higher"),
    ("diag.threads1.train_s", "s", "lower"),
    ("diag.threads1.train_steps_per_s", "1/s", "higher"),
    ("diag.threaded.sweep_trainings_per_s", "1/s", "higher"),
    ("diag.threads1.sweep_trainings_per_s", "1/s", "higher"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    run_id: str
    thread: int
    counts: dict | None


def _train_counts(bound, result):
    train_ds, config = bound["train_ds"], bound["config"]
    report = result[2]
    sizes = [train_ds.features.shape[1], *config.hidden, train_ds.targets.shape[1]]
    return {
        "epochs_run": report.epochs_run,
        "best_epoch": report.best_epoch,
        "examples": report.epochs_run * len(train_ds),
        "flops_per_example": train_flops_per_example(sizes),
    }


# Counts recorded at a layer boundary, from the call's arguments and result.
COUNTERS = {
    "net.adam_step": lambda b, r: {"params": sum(W.size + v.size for W, v in b["params"])},
    "net.train": _train_counts,
    "net.save_checkpoint": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    "net.load_checkpoint": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    "data.write_csv": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    "data.read_csv": lambda b, r: {"rows": len(r)},
    "device.sample_counts": lambda b, r: {"draws": int(np.size(b["p"]))},
    "metrics.repeated_test_evaluation": lambda b, r: {"reps": b["rep_count"]},
    "experiments.run_grid_sweep": lambda b, r: {"jobs": b["jobs"]},
}


def train_flops_per_example(sizes):
    """Matmul flops of one example's forward and backward pass.

    Forward and the weight gradients cost 2*n_in*n_out each per layer;
    the gradient with respect to the layer input costs the same for
    every layer but the first.
    """
    pairs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return 2 * (3 * sum(pairs) - pairs[0])


def adam_bytes_per_step(n_params):
    """Minimum traffic of one Adam step: read p, g, m, v; write p, m, v."""
    return 7 * n_params * 8


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    if short == "cli":
        names = [n for n in vars(module) if n.startswith("cmd_")]
        span_name = lambda n: "cli." + n[4:].replace("_", "-")
    else:
        names = list(module.__all__)
        span_name = lambda n: f"{short}.{n}"
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield span_name(name), fn


class Tracer:
    """Context manager that records a span for every call into a layer."""

    def __init__(self, run_id="run"):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, returned = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if returned and counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound.arguments, result)
                self.spans.append(Span(name, start, end, span_id, parent, self.run_id,
                                       threading.get_ident(), counts))

        return traced

    def __enter__(self):
        modules = [importlib.import_module(f"tricalib.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in sys.modules.items()
                      if n == "tricalib" or n.startswith("tricalib.")]
        for module in modules:
            for name, fn in _public_functions(module):
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()
        return False

    def write(self, path):
        """Writes the spans as JSON lines, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                rec = asdict(span)
                rec["start"] -= t0
                rec["end"] -= t0
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans):
    """Per-layer metrics (the `trace.*` and `diag.*` ones excepted)."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(s.end - s.start for s in by_name[name])

    def count(name, key):
        return sum(s.counts[key] for s in by_name[name] if s.counts)

    m = {}
    adam_calls, adam_s = calls("net.adam_step"), secs("net.adam_step")
    adam_bytes = sum(adam_bytes_per_step(s.counts["params"])
                     for s in by_name["net.adam_step"] if s.counts)
    m["net.adam_step.calls"] = adam_calls
    m["net.adam_step.s"] = adam_s
    m["net.adam_step.us_per_call"] = 1e6 * adam_s / adam_calls if adam_calls else 0.0
    m["net.adam_step.bytes_computed"] = adam_bytes
    m["net.adam_step.gbps_computed"] = adam_bytes / adam_s / 1e9 if adam_s else 0.0

    train = by_name["net.train"]
    train_s = secs("net.train")
    flops = sum(s.counts["examples"] * s.counts["flops_per_example"] for s in train if s.counts)
    m["net.train.s"] = train_s
    m["net.train.self_s"] = sum(s.end - s.start - child_time[s.span_id] for s in train)
    m["net.train.flops_computed"] = flops
    m["net.train.gflops_computed"] = flops / train_s / 1e9 if train_s else 0.0
    m["net.epochs_run"] = count("net.train", "epochs_run")
    m["net.best_epoch"] = count("net.train", "best_epoch")

    m["net.forward.calls"] = calls("net.forward")
    m["net.forward.s"] = secs("net.forward")
    m["net.save_checkpoint.s"] = secs("net.save_checkpoint")
    m["net.save_checkpoint.bytes"] = count("net.save_checkpoint", "bytes")
    m["net.load_checkpoint.calls"] = calls("net.load_checkpoint")
    m["net.load_checkpoint.s"] = secs("net.load_checkpoint")
    m["net.load_checkpoint.bytes"] = count("net.load_checkpoint", "bytes")

    m["data.write_csv.s"] = secs("data.write_csv")
    m["data.write_csv.bytes"] = count("data.write_csv", "bytes")
    read_s = secs("data.read_csv")
    m["data.read_csv.s"] = read_s
    m["data.read_csv.rows_per_s"] = count("data.read_csv", "rows") / read_s if read_s else 0.0
    m["data.generate_simulated.s"] = secs("data.generate_simulated")

    m["device.voltage_probabilities.calls"] = calls("device.voltage_probabilities")
    m["device.voltage_probabilities.s"] = secs("device.voltage_probabilities")
    m["device.sample_counts.calls"] = calls("device.sample_counts")
    m["device.sample_counts.s"] = secs("device.sample_counts")
    m["device.sample_counts.draws"] = count("device.sample_counts", "draws")
    m["device.estimate_probabilities.s"] = secs("device.estimate_probabilities")

    rte_s = secs("metrics.repeated_test_evaluation")
    reps = count("metrics.repeated_test_evaluation", "reps")
    m["metrics.repeated_test_evaluation.s"] = rte_s
    m["metrics.rep_ms"] = 1e3 * rte_s / reps if reps else 0.0
    m["metrics.fresh_noise.s"] = secs("metrics.fresh_noise")

    trainings = [s.end - s.start for s in by_name["experiments.train_on_dataset"]]
    m["experiments.train_on_dataset.calls"] = len(trainings)
    m["experiments.train_on_dataset.s_p50"] = statistics.median(trainings) if trainings else 0.0
    m["experiments.train_on_dataset.s_max"] = max(trainings, default=0.0)
    busy, speedup = 0.0, 0.0
    sweeps = by_name["experiments.run_grid_sweep"]
    if sweeps:
        sweep_wall = sum(s.end - s.start for s in sweeps)
        jobs = max(1, max(s.counts["jobs"] for s in sweeps if s.counts))
        speedup = sum(trainings) / sweep_wall
        busy = speedup / jobs
    m["experiments.sweep.busy_ratio"] = busy
    m["experiments.sweep.parallel_speedup"] = speedup

    for name, _, _ in PER_LAYER:
        if name.startswith("cli."):
            m[name] = secs(name[:-2])
    return m
