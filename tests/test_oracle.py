"""tools/oracle.py: the byte-identity check between two source trees."""

import importlib.util
import shutil
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("oracle", REPO / "tools" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

# both at the default data seed: simulate's counts and the dataset's noise
COMMANDS = [
    ("gen-dataset", ["gen-dataset", "--grid", "6", "--grid-min", "2", "--grid-max", "5",
                     "--kick-steps", "1", "-o", "d.csv"]),
    ("simulate", ["simulate", "--volts", "3,4", "--counts", "2000"]),
]


def test_a_tree_against_itself_is_all_equal(tmp_path, capsys):
    src = REPO / "src"
    parent = oracle.run_tree(src, COMMANDS, tmp_path / "a")
    change = oracle.run_tree(src, COMMANDS, tmp_path / "b")
    assert sorted(parent) == ["d.csv", "gen-dataset.stdout", "simulate.stdout"]
    assert all(len(digest) == 64 for digest in parent.values()), parent
    lines, status = oracle.compare(parent, change)
    assert status == 0
    assert all(line.endswith("  equal") for line in lines), lines


def test_a_changed_seed_is_reported(tmp_path):
    """A copy whose default data seed is 8 moves the dataset and simulate's
    counts: exit status 1, unless the moved rows are expected."""
    moved = tmp_path / "src"
    shutil.copytree(REPO / "src", moved, ignore=shutil.ignore_patterns("__pycache__"))
    cli = moved / "tricalib" / "cli.py"
    text = cli.read_text()
    assert text.count("DEFAULT_DATA_SEED = 7\n") == 1
    cli.write_text(text.replace("DEFAULT_DATA_SEED = 7\n", "DEFAULT_DATA_SEED = 8\n"))
    parent = oracle.run_tree(REPO / "src", COMMANDS, tmp_path / "a")
    change = oracle.run_tree(moved, COMMANDS, tmp_path / "b")
    lines, status = oracle.compare(parent, change)
    assert status == 1
    verdicts = {line.split()[0]: line.split()[-1] for line in lines}
    assert verdicts == {"d.csv": "MOVED", "gen-dataset.stdout": "equal",
                        "simulate.stdout": "MOVED"}
    _, status = oracle.compare(parent, change, {"d.csv", "simulate.stdout"})
    assert status == 0
