"""Fast self-test of the benchmark on a tiny workload.

    PYTHONPATH=src python -m pytest -q perfbench

It lives outside the tier-1 ``testpaths``, so the tier-1 suite never runs it.
"""
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from evdepth.synth import SceneSpec
from spans import MODULES, layer_metrics

TINY = workloads.Workload(
    name="tiny", width=32, height=24,
    scene=SceneSpec(kind="plane", depths=(5.0,), edge_spacing=6),
    duration=0.1, events_per_edge=8, binary=True, num_hypotheses=4,
    scales=1, max_count=400, max_interval=0.2, speed=1.0)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_tiny(monkeypatch, capsys, trace):
    monkeypatch.setattr(workloads, "WORKLOADS", {"tiny": TINY})
    rc = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                   "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, trace, key):
    lines, result = _run_tiny(monkeypatch, capsys, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    row = next(line for line in lines if line.startswith("tiny "))
    for name, unit in want.items():
        assert f"{name}=" in row and f" {unit} (n=" in row
    assert "failed_frac=0 " in row


def _nan_depth(out_dir):
    path = out_dir / "depth_0000.pfm"
    data = bytearray(path.read_bytes())
    data[-4:] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(data))


def _nudge_confidence(out_dir):
    path = out_dir / "confidence_0001.pfm"
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("corrupt, reason", [
    (_nan_depth, "neither a positive finite depth nor the -1.0 sentinel"),
    (_nudge_confidence, "differs bitwise from the single-worker traced run"),
])
def test_corrupted_output_counts_as_failed(monkeypatch, capsys, corrupt,
                                           reason):
    real = run.check_outputs

    def corrupting(out_dir, n_windows, shape, ref_dir=None):
        if ref_dir is not None:           # every run but the reference
            corrupt(out_dir)
        return real(out_dir, n_windows, shape, ref_dir)

    monkeypatch.setattr(run, "check_outputs", corrupting)
    lines, result = _run_tiny(monkeypatch, capsys, 0)
    assert not result["correct"]
    assert result["failed"] == run.MIN_RUNS       # one window in each run
    assert any(line.startswith("FAIL tiny") and reason in line
               for line in lines)
    row = next(line for line in lines if line.startswith("tiny "))
    assert f"({result['failed']}/{result['attempted']} windows)" in row


def test_self_times_account_for_the_traced_wall_time():
    spans = [["cli.main", 0.0, 10.0, -1],
             ["costvol.sweep", 1.0, 6.0, 0],
             ["iwe.accumulate", 2.0, 4.0, 1],
             ["focus.box_sum", 4.5, 5.0, 1]]
    m = layer_metrics(spans, {"iwe.events_in": 8, "iwe.events_kept": 6}, 10.5)
    assert m["costvol.sweep_s"] == 5.0
    assert m["costvol.sweep_self_s"] == 2.5
    assert m["cli.self_s"] == 5.0
    assert m["iwe.kept_ratio"] == 0.75
    assert m["trace.remainder_s"] == 0.5
    total = sum(m[f"{module}.self_s"] for module in MODULES)
    assert total + m["trace.remainder_s"] == m["trace.wall_s"]


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
