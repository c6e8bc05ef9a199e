"""Shared fixtures.

The default end-to-end pipeline (dataset generation, training,
evaluation at reference seeds) is expensive enough that several tests
want to share one run of it.  `default_pipeline` executes it once per
session through the command line front end and hands out the artifact
paths; the determinism test re-runs the same commands into a second
directory and compares bytes.
"""

import time

import numpy as np
import pytest
from hypothesis import strategies as st

from tricalib import cli, net


def run_cli(argv):
    """Invoke the CLI in-process and return its exit code."""
    return cli.main(argv)


def same_bits(a, b):
    """Shape, dtype and every bit equal: tells -0.0 from 0.0."""
    bits = np.dtype(f"u{a.itemsize}")
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(bits), b.view(bits)))


@pytest.fixture
def blas_count():
    """Reads the OpenBLAS thread count, or None where numpy has no OpenBLAS.

    The count is set to 2 for the test, so a pinned block is told apart
    from the default on any machine, and restored afterwards.
    """
    calls = net._openblas_threads()
    if calls is None:
        yield lambda: None
        return
    get, set_ = calls
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


def flatten(grads):
    """Gradient pairs as one vector: each layer's weights, then its biases."""
    return np.concatenate([np.concatenate([gW.ravel(), gb.ravel()]) for gW, gb in grads])


def numeric_gradient(params, X, Y, h=1e-5):
    """Central-difference gradient of `net.loss`, ordered as `flatten`."""
    out = []
    for W, b in params:
        for arr in (W, b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = net.loss(params, X, Y)
                arr[idx] = old - h
                lm = net.loss(params, X, Y)
                arr[idx] = old
                g[idx] = (lp - lm) / (2.0 * h)
            out.append(g.ravel())
    return np.concatenate(out)


def kink_mask(params, X, tol=1e-6):
    """Whether every hidden pre-activation of `X` lies at least `tol`
    from zero, so a central difference of a smaller step crosses no ReLU
    kink: whole instances near a kink are skipped."""
    A = np.atleast_2d(X)
    for W, b in params[:-1]:
        Z = A @ W.T + b
        if np.abs(Z).min() < tol:
            return False
        A = np.maximum(Z, 0.0)
    return True


def mutate_bytes(data, kind, line, offset, byte):
    """Flip bits of, insert before or delete the byte at `offset` of line
    `line` (both taken modulo what exists) of `data`."""
    lines = data.splitlines(keepends=True)
    target = lines[line % len(lines)]
    at = offset % (len(target) + (kind == "insert"))
    if kind == "flip":
        target = target[:at] + bytes([target[at] ^ byte]) + target[at + 1:]
    elif kind == "insert":
        target = target[:at] + bytes([byte]) + target[at:]
    else:
        target = target[:at] + target[at + 1:]
    lines[line % len(lines)] = target
    return b"".join(lines)


# (kind, line, offset, byte) arguments of `mutate_bytes`
BYTE_MUTATION = st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                          st.integers(0, 40), st.integers(0, 4095), st.integers(1, 255))


def _coerce(val):
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    if val in ("True", "False"):
        return val == "True"
    return val


def read_report(path):
    """Parse a `key = value` report file; values typed where possible."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition("=")
            out[key.strip()] = _coerce(val.strip())
    return out


class PipelineArtifacts:
    def __init__(self, root):
        self.root = root
        self.dataset = root / "train.csv"
        self.checkpoint = root / "model.ckpt"
        self.report_dir = root / "train_report"
        self.eval_dir = root / "eval"
        self.wall_clock = None

    def run(self):
        t0 = time.perf_counter()
        assert run_cli(["gen-dataset", "-o", str(self.dataset)]) == 0
        assert run_cli(["train", "-i", str(self.dataset), "-o", str(self.checkpoint),
                        "--report-dir", str(self.report_dir)]) == 0
        assert run_cli(["evaluate", "-m", str(self.checkpoint), "-i", str(self.dataset),
                        "-o", str(self.eval_dir)]) == 0
        self.wall_clock = time.perf_counter() - t0
        return self

    @property
    def train_report(self):
        return read_report(self.report_dir / "report.txt")

    @property
    def eval_report(self):
        return read_report(self.eval_dir / "report.txt")


@pytest.fixture(scope="session")
def default_pipeline(tmp_path_factory):
    """One full default-seed pipeline run, shared across the session."""
    root = tmp_path_factory.mktemp("default_pipeline")
    return PipelineArtifacts(root).run()
