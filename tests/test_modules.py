"""Module boundaries, read from the source: IHCA is pure NumPy, sets no
pixel flag and reads no scale-weight default, the pool knows nothing of
depth, the pipeline leaves processes to the pool, and the command line
runs each job through one path."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "evdepth"


def imported(module: str) -> set[str]:
    """The top-level packages that ``evdepth.<module>`` imports; a
    relative import counts as ``evdepth``."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("evdepth" if node.level else node.module.split(".")[0])
    return names


def test_aggregate_imports_only_numpy():
    assert imported("aggregate") <= {"__future__", "numpy"}


def test_only_the_parent_sets_flags():
    # IHCA writes depth with its sentinel, and costvol derives every flag
    source = (SRC / "aggregate.py").read_text()
    assert "DepthMap" not in source and "FLAG_" not in source


def test_ihca_takes_its_scale_weights_resolved():
    # SweepConfig owns them, and the sweep task resolves None to equal
    assert "scale_weights" not in (SRC / "aggregate.py").read_text()


def test_pool_imports_nothing_from_evdepth():
    assert "evdepth" not in imported("pool")


def test_costvol_leaves_processes_to_the_pool():
    assert not imported("costvol") & {"multiprocessing", "mmap", "threading"}


def test_cli_runs_each_job_through_one_call():
    # one sweep loop, one grading call, one directory maker
    calls = [node.func for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
             if isinstance(node, ast.Call)]
    names = [f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
             for f in calls]
    assert [names.count(n) for n in ("estimate_depth", "evaluate", "mkdir")] == [1, 1, 1]
