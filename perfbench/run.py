"""Benchmark of `evdepth depth`: end-to-end metrics, or per-layer metrics
from a traced single-worker run.

    python3 perfbench/run.py --workload dense_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from a checkout of the repository; the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` outside every
timed region.  Each `evdepth depth` invocation is a fresh process writing to
a fresh directory, and invocations run one after another.

``--trace 0``: one traced ``--threads 1`` run makes the reference outputs,
then untraced ``--threads 2`` runs repeat for ``--seconds``.
Every run's outputs are checked, bit for bit against the reference too, and
the reference is graded against the synthetic ground truth.

``--trace 1``: untraced and traced ``--threads 1`` runs alternate for
``--seconds``.  The per-layer metrics are medians over the traced runs, and
the traced against the untraced wall time is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (counted in output windows, so their
ratio is failed_frac) and ``metrics``.  The lines before it say which
machine the numbers come from, which checks failed, and give one row per
workload with every metric, its unit and its sample count.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
if not (SRC / "evdepth").is_dir():
    sys.exit(f"error: {SRC / 'evdepth'} not found; run from a checkout "
             f"of the repository")
sys.path.insert(0, str(SRC))

from evdepth.events import form_windows  # noqa: E402
from evdepth.motion import interpolate_velocity  # noqa: E402
from evdepth.synth import event_pixel_mask  # noqa: E402

import workloads  # noqa: E402
from spans import MODULES, layer_metrics  # noqa: E402

CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 5
MIN_RUNS = 3
SHOWN_FAILURES = 10
# Printed in a workload's row but not in BENCHMARK.json: only a workload
# whose single run has ten windows beyond the 90th percentile reports it.
EXTRA_UNITS = {"window_s.p90": "s"}

CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


# ---------------------------------------------------------------------------
# Child processes

def _spawn(argv):
    """Run a child in its own process group; returns (rc, stdout, stderr)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        return proc.returncode, out, err
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        try:
            # Also stops pool workers a crashed or killed child left behind.
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if proc.returncode is None:
            proc.communicate()


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _tail(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else "(no output)"


def setup_sample(workload, inputs) -> float:
    """Seconds from launching a process until evdepth.cli is imported and
    the inputs are loaded and windowed."""
    # CLOCK_MONOTONIC is system-wide on Linux, so the two processes'
    # readings compare directly.
    start = time.monotonic()
    rc, out, err = _spawn(
        [sys.executable, str(HERE / "child.py"), "setup", str(inputs.events),
         str(inputs.camera), str(inputs.track), str(workload.max_count),
         str(workload.max_interval)])
    if rc != 0:
        raise BenchError(f"set-up process failed ({rc}): {_tail(err)}")
    return _last_json(out)["ready"] - start


def invoke(workload, inputs, out_dir, threads, spans_path=None):
    """One `evdepth depth` process: (result dict, None), or (None, why it
    failed)."""
    argv = [sys.executable, str(HERE / "child.py")]
    argv += ["trace", str(spans_path)] if spans_path else ["depth"]
    argv += ["--", *workload.depth_args(inputs, out_dir, threads)]
    rc, out, err = _spawn(argv)
    if rc != 0:
        return None, f"exit code {rc}: {_tail(err)}"
    return _last_json(out), None


# ---------------------------------------------------------------------------
# Output checks.  The readers are local so that a fault in evdepth.imgio
# cannot hide a fault in what it wrote.

def _read_image(path: Path) -> np.ndarray:
    magic, dims, third, rest = path.read_bytes().split(b"\n", 3)
    w, h = (int(x) for x in dims.split())
    if magic == b"Pf":
        dtype = "<f4" if float(third) < 0 else ">f4"
        return np.frombuffer(rest, dtype=dtype, count=w * h).reshape(h, w)
    if magic == b"P5":
        return np.frombuffer(rest, dtype=np.uint8, count=w * h).reshape(h, w)
    raise ValueError(f"unknown image format {magic!r}")


def check_window(out_dir: Path, i: int, shape, ref_dir: Path | None):
    """Why window ``i`` of a run failed, or None if it passed."""
    names = (f"depth_{i:04d}.pfm", f"confidence_{i:04d}.pfm",
             f"mask_{i:04d}.pgm")
    images = []
    for name in names:
        path = out_dir / name
        if not path.is_file():
            return f"{name} is missing"
        try:
            image = _read_image(path)
        except ValueError as exc:
            return f"{name} is unreadable: {exc}"
        if image.shape != shape:
            return f"{name} has shape {image.shape}, expected {shape}"
        images.append(image)
    depth = images[0]
    bad = ~(np.isfinite(depth) & ((depth > 0) | (depth == -1.0)))
    if bad.any():
        return (f"{names[0]} has {int(bad.sum())} values that are neither a "
                f"positive finite depth nor the -1.0 sentinel")
    if ref_dir is not None:
        for name in names:
            ref = ref_dir / name
            if (not ref.is_file()
                    or ref.read_bytes() != (out_dir / name).read_bytes()):
                return f"{name} differs bitwise from the single-worker traced run"
    return None


def check_outputs(out_dir, n_windows, shape, ref_dir=None) -> list[str]:
    failures = []
    for i in range(n_windows):
        reason = check_window(out_dir, i, shape, ref_dir)
        if reason is not None:
            failures.append(f"window {i}: {reason}")
    return failures


def window_latencies(out_dir: Path, n_windows: int) -> list[float]:
    times = []
    for i in range(n_windows):
        diag = out_dir / f"diag_{i:04d}.json"
        if diag.is_file():
            times.append(float(json.loads(diag.read_text())["timing_s"]))
    return times


# ---------------------------------------------------------------------------
# Grading against the synthetic ground truth (outside every timed region)

def grade(workload, inputs, windows, ref_dir: Path):
    """Bin accuracy and median relative error over graded pixels: those
    inside ``synth.event_pixel_mask`` of each window.  A graded pixel with no
    reported depth counts as a miss; the relative error covers the graded
    pixels that report a depth."""
    intr = workload.intrinsics()
    track = workload.rig().track
    hyp = workload.hypotheses()
    truth = inputs.truth.depth
    true_bin = hyp.bin_of(truth)
    hits = graded = 0
    rel = []
    for i, window in enumerate(windows):
        vel = interpolate_velocity(track, float(window.events["t"][0]),
                                   window.t_ref)
        mask = event_pixel_mask(window, intr, vel, inputs.truth,
                                workloads.WINDOW_RADIUS, workloads.MIN_SUPPORT)
        depth = _read_image(ref_dir / f"depth_{i:04d}.pfm")[mask]
        depth = depth.astype(np.float64)
        want = truth[mask]
        has = depth > 0
        hits += int((hyp.bin_of(depth[has]) == true_bin[mask][has]).sum())
        graded += int(mask.sum())
        rel.append(np.abs(depth[has] - want[has]) / want[has])
    rel = np.concatenate(rel)
    if rel.size == 0:
        raise BenchError(f"{workload.name}: no graded pixel reports a depth")
    return hits / graded, float(np.median(rel))


# ---------------------------------------------------------------------------
# One workload

class WorkloadRun:
    """One workload's inputs, the runs made on them, and what failed."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.inputs = workloads.make_inputs(workload, seed, work / "inputs")
        self.windows = form_windows(self.inputs.stream, workload.max_count,
                                    workload.max_interval)
        self.ref = work / "ref"
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.untraced_boundaries: list[str] = []
        self._count = 0

    def _fail(self, label, failures, windows=None):
        self.failed += len(failures) if windows is None else windows
        self.messages += [f"FAIL {self.workload.name} {label} {f}"
                          for f in failures]

    def run(self, threads: int, traced: bool = False):
        """One checked `evdepth depth` process: (result, spans file), or None
        if the process failed.  The first run is the reference: its outputs
        are kept for the bitwise checks of every later run."""
        reference = self._count == 0
        label = "reference" if reference else f"run {self._count}"
        out = self.ref if reference else self.work / f"run{self._count:03d}"
        spans_path = out.with_name(out.name + "-spans.json") if traced else None
        self._count += 1
        n = len(self.windows)
        self.attempted += n
        result, error = invoke(self.workload, self.inputs, out, threads,
                               spans_path)
        if error is not None:
            self._fail(label, [f"all {n} windows: {error}"], windows=n)
            if reference:
                raise BenchError(f"{self.workload.name}: reference run "
                                 f"failed with {error}")
            return None
        shape = (self.workload.height, self.workload.width)
        self._fail(label, check_outputs(out, n, shape,
                                        None if reference else self.ref))
        result["latencies"] = window_latencies(out, n)
        if not reference:
            shutil.rmtree(out, ignore_errors=True)
        return result, spans_path

    def _repeat(self, seconds, step, enough):
        """Call ``step`` until ``seconds`` have passed and ``enough()``."""
        deadline = time.perf_counter() + seconds
        for attempt in itertools.count():
            step(attempt)
            if enough() and time.perf_counter() >= deadline:
                return
            if not enough() and attempt >= 2 * MIN_RUNS:
                raise BenchError(f"{self.workload.name}: runs keep failing; "
                                 f"{self.messages[-1]}")

    def end_to_end(self, seconds):
        workload = self.workload
        setup = [setup_sample(workload, self.inputs)
                 for _ in range(SETUP_SAMPLES)]
        self.run(threads=1, traced=True)
        runs = []

        def step(_):
            done = self.run(workloads.THREADS)
            if done is not None:
                runs.append(done[0])

        self._repeat(seconds, step, lambda: len(runs) >= MIN_RUNS)
        wall = statistics.median(r["wall_s"] for r in runs)
        latencies = [t for r in runs for t in r["latencies"]]
        bin_accuracy, abs_rel = grade(workload, self.inputs, self.windows,
                                      self.ref)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "event_hyp_per_s":
                len(self.inputs.stream) * workload.num_hypotheses / wall,
            "window_s.p50": statistics.median(latencies),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "worker_rss_mb": statistics.median(r["worker_rss_mb"] for r in runs),
            "bin_accuracy": bin_accuracy,
            "median_abs_rel": abs_rel,
        }
        if len(self.windows) >= 100:
            metrics["window_s.p90"] = float(np.quantile(latencies, 0.9))
        counts = {key: len(runs) for key in metrics}
        counts.update({"setup_s": len(setup), "window_s.p50": len(latencies),
                       "window_s.p90": len(latencies),
                       "bin_accuracy": len(self.windows),
                       "median_abs_rel": len(self.windows)})
        return metrics, counts

    def per_layer(self, seconds):
        traced, untraced = [self.run(threads=1, traced=True)], []

        def step(attempt):
            done = self.run(threads=1, traced=bool(attempt % 2))
            if done is not None:
                (traced if done[1] else untraced).append(done)

        self._repeat(seconds, step, lambda: len(traced) > 1 and untraced)
        per_run = []
        for result, spans_path in traced:
            data = json.loads(spans_path.read_text())
            per_run.append(layer_metrics(data["spans"], data["counts"],
                                         result["wall_s"]))
            self.untraced_boundaries = data["missing"]
        metrics = {key: statistics.median(m[key] for m in per_run)
                   for key in per_run[0]}
        untraced_wall = statistics.median(r["wall_s"] for r, _ in untraced)
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced_wall
        counts = {key: len(per_run) for key in metrics}
        counts["trace.untraced_wall_s"] = len(untraced)
        return metrics, counts


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Returns (metrics by name, sample counts by name, WorkloadRun)."""
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}-{time.time_ns()}"
    try:
        bench = WorkloadRun(workload, seed, work)
        measure = bench.per_layer if trace else bench.end_to_end
        metrics, counts = measure(seconds)
        return metrics, counts, bench
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Reporting

def machine_info(seed):
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "src_lines": src_lines}


def format_row(name, metrics, counts, specs, bench):
    units = {s["name"]: s["unit"] for s in specs}
    units.update((key, EXTRA_UNITS[key]) for key in metrics if key not in units)
    cells = [f"{key}={metrics[key]:.6g} {unit} (n={counts[key]})"
             for key, unit in units.items()]
    frac = bench.failed / bench.attempted
    cells.append(f"failed_frac={frac:.6g} "
                 f"({bench.failed}/{bench.attempted} windows)")
    return f"{name:<13} " + "  ".join(cells)


def format_split(name, metrics, bench):
    """Where the traced wall time went: each module's self time, and what
    no span covers, as shares of ``trace.wall_s``."""
    wall = metrics["trace.wall_s"]
    parts = sorted(((metrics[f"{m}.self_s"], m) for m in MODULES), reverse=True)
    parts.append((metrics["trace.remainder_s"], "untraced"))
    line = (f"{name:<13} self time of trace.wall_s={wall:.4f} s: "
            + "  ".join(f"{m} {100 * t / wall:.1f}%" for t, m in parts))
    if bench.untraced_boundaries:
        line += ("  (absent from the program, so not traced: "
                 + ", ".join(bench.untraced_boundaries) + ")")
    return line


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])

    # Turn a termination request into an exit, so that the clean-up in
    # _spawn stops the running child and its pool.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    print("meta " + json.dumps(machine_info(args.seed)))
    rows, results = [], {}
    attempted = failed = 0
    try:
        for name in names:
            metrics, counts, bench = run_workload(
                workloads.WORKLOADS[name], args.seed, args.seconds,
                bool(args.trace))
            for message in bench.messages[:SHOWN_FAILURES]:
                print(message)
            if len(bench.messages) > SHOWN_FAILURES:
                print(f"FAIL {name}: {len(bench.messages) - SHOWN_FAILURES} "
                      f"more failures not shown")
            rows.append(format_row(name, metrics, counts, specs, bench))
            if args.trace:
                rows.append(format_split(name, metrics, bench))
            attempted += bench.attempted
            failed += bench.failed
            prefix = f"{name}." if len(names) > 1 else ""
            results.update({prefix + s["name"]: {"value": metrics[s["name"]],
                                                 "unit": s["unit"]}
                            for s in specs})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(row)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
