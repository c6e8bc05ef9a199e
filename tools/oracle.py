"""Byte-identity oracle: run the seed-0 command list in a parent commit's
tree and in the working tree, and compare every artifact.

    python tools/oracle.py --parent REV [--expect-moved NAME ...]

The parent's `src/` is exported with `git archive REV src` into a
temporary directory.  Each command of `COMMANDS` runs in a fresh
`python -c` process, with `PYTHONPATH` set to one tree's `src/` and an
output directory of its own as working directory, and under a timeout.
That directory starts with one file, the device file `dev.cfg`.
Then one row per file the commands wrote, and one per command's stdout,
gives the name, both SHA-256 digests and whether they are equal.  The
exit status is 1 if any row differs and is not named by
`--expect-moved`, else 0.  Nothing is written outside the temporary
directory, which is removed at exit.
"""

import argparse
import hashlib
import io
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Seconds one command may run; the slowest of the list, sweep-grid,
# takes well under a minute on a 2-core machine.
TIMEOUT_S = 600

# A device file with a non-ideal tritter: the ideal one plus 0.05 times a
# complex normal matrix (numpy seed 4), made unitary again by QR.  It is
# written into each run directory before the commands run, and is an
# input, so it gets no row.
DEVICE = "dev.cfg"
DEVICE_TEXT = """\
# tricalib device configuration
resistances = 100.0, 100.0
alpha = 6.0, 3.0, 3.0, 6.0
alpha_nl = 2.7, 1.35, 1.35, 2.7
v_min = 0.0
v_max = 8.0
mean_total = 1000.0
tritter = 0.5501138284213418, 0.012207382982218158, 0.5964897382595007, \
-0.004331622563933292, 0.5831325322908035, 0.03692471477927877, 0.6163048736956988, \
0.01598782718410283, -0.2701336525728163, 0.47253210099003784, -0.2702099780079539, \
-0.5006400734134362, 0.5515441170349205, 0.1137432836934572, -0.1916494666774746, \
-0.557846694353319, -0.35951746800330786, 0.4535265042978241
"""

# An argv item ("probs", k) stands for the 12 feature fields of data row k
# of that tree's d.csv, so `predict` reads the dataset the same tree wrote.
MODEL, DATA = "m/model.ckpt", "d.csv"
COMMANDS = [
    ("gen-dataset", ["gen-dataset", "-o", DATA]),
    ("train", ["train", "-i", DATA, "-o", MODEL]),
    ("evaluate-grid", ["evaluate", "-m", MODEL, "-i", DATA, "-o", "eg"]),
    ("evaluate-uniform", ["evaluate", "-m", MODEL, "-i", DATA, "-o", "eu",
                          "--sampling", "uniform"]),
    ("evaluate-reps1", ["evaluate", "-m", MODEL, "-i", DATA, "-o", "e1", "--reps", "1"]),
    ("surface", ["surface", "-m", MODEL, "-i", DATA, "-o", "s0"]),
    ("surface-n8", ["surface", "-m", MODEL, "-i", DATA, "-o", "s8",
                    "--n-new", "8", "--seed", "3"]),
    *((f"predict-{k}", ["predict", "-m", MODEL, "--probs", ("probs", k)])
      for k in (6, 100, 400)),
    ("simulate", ["simulate", "--volts", "3,4"]),
    ("simulate-counts", ["simulate", "--volts", "3,4", "--counts", "2000"]),
    ("sweep-grid", ["sweep-grid", "--sizes", "10,20,53", "--epochs", "30",
                    "--trainings", "2", "--jobs", "2", "-o", "sw"]),
    ("ablate-kicks", ["ablate-kicks", "--grid", "40", "--epochs", "30", "-o", "ab"]),
    ("gen-dataset-replicas", ["gen-dataset", "--replicas", "2", "-o", "d2.csv"]),
    ("simulate-tritter", ["simulate", "--volts", "3,4", "--device-config", DEVICE]),
    ("simulate-tritter-counts", ["simulate", "--volts", "3,4", "--counts", "2000",
                                 "--device-config", DEVICE]),
    ("gen-dataset-tritter", ["gen-dataset", "--grid", "40", "--device-config", DEVICE,
                             "-o", "dt.csv"]),
]

_MAIN = "import sys; from tricalib.cli import main; sys.exit(main(sys.argv[1:]))"


def _row_probs(path, k):
    """The feature fields of data row `k` (0-based) of a dataset CSV, as
    written; the first line that is not a comment is the header."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    return ",".join(rows[k].strip().split(",")[4:])


def _run(src, argv, cwd):
    """SHA-256 of one command's stdout, or a note of how it failed; its
    process group is killed afterwards, so no worker it forked outlives it."""
    try:
        argv = [_row_probs(cwd / DATA, a[1]) if isinstance(a, tuple) else a for a in argv]
    except (OSError, IndexError):
        return f"no input: {DATA} is missing or short"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-c", _MAIN, *argv], cwd=cwd, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    if out is None:
        return f"timeout after {TIMEOUT_S} s"
    return hashlib.sha256(out).hexdigest() if proc.returncode == 0 else f"exit {proc.returncode}"


def run_tree(src, commands, out_dir):
    """Run `commands` against the package under `src` in `out_dir`; return
    {row name: digest} for every command's stdout and every file written."""
    out_dir.mkdir(parents=True)
    (out_dir / DEVICE).write_text(DEVICE_TEXT, encoding="utf-8")
    rows = {f"{name}.stdout": _run(src, argv, out_dir) for name, argv in commands}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        if name != DEVICE:
            rows[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return rows


def compare(parent, change, expect_moved=()):
    """(report lines, exit status) for two `run_tree` results."""
    lines, status = [], 0
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name, "absent"), change.get(name, "absent")
        if a == b:
            verdict = "equal"
        elif name in expect_moved:
            verdict = "moved (expected)"
        else:
            verdict, status = "MOVED", 1
        lines.append(f"{name}  {a}  {b}  {verdict}")
    return lines, status


def export_src(rev, dest):
    """`src/` of commit `rev`, extracted under `dest`; returns its path."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(prog="oracle", description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="commit to compare the working tree with")
    ap.add_argument("--expect-moved", nargs="*", default=[], metavar="NAME",
                    help="row names allowed to differ")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="oracle-") as tmp:
        tmp = Path(tmp)
        parent = run_tree(export_src(args.parent, tmp / "parent"), COMMANDS, tmp / "parent-run")
        change = run_tree(REPO / "src", COMMANDS, tmp / "change-run")
    unknown = sorted(set(args.expect_moved) - parent.keys() - change.keys())
    if unknown:
        ap.error(f"--expect-moved names no row: {', '.join(unknown)}")
    lines, status = compare(parent, change, set(args.expect_moved))
    print(f"name  parent ({args.parent})  change (working tree)  verdict")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
