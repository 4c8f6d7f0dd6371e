"""demest benchmark: replay workloads through ``demest run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a demest checkout; it imports demest from ``src``.
The load model is closed-loop: one client in one process runs one
experiment at a time, each ``demest run`` in a fresh interpreter so that
program caches start cold, as in a real invocation. BLAS is pinned to one
thread: every matrix in the replay is at most 21 x 21, below the size where
OpenBLAS splits work, so one thread is what the replay uses anyway and the
second core stays free for this parent process.

With ``--trace 0`` it repeats the run for at most ``--seconds`` seconds
(at least once) and reports the end-to-end metrics. ``run_s`` and
``setup_s`` are medians of times corrected for contention on the host (see
``child.SpeedProbe``): seconds on a core where the speed probe takes
``child.PROBE_REF_S``. They compare commits on one host; the plain wall
times are printed beside them as ``run_wall_s`` and ``setup_wall_s``.

With ``--trace 1`` it makes one untimed ``-X importtime`` import and two
untraced runs alternating with two traced runs, and reports the per-layer
metrics (plain wall times, no speed probe in the traced runs); the traced
runs must repeat every count exactly and their self times must add up to
the traced run time.

Every run's tables are checked: against the committed reference tables at
the default seed (``config_hash`` exactly, numbers within RTOL/ATOL), and
otherwise for row counts, finite values and no divergence. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a replay is one (record, estimator, grid point).
All scratch files live under ``perfbench/.work`` and are removed at exit.
"""

import argparse
import csv
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"

DEFAULT_SEED = 1
N_SEEDS = 20
FLIGHT_LOG_STEPS = 24080  # 20 records x 1204 steps, as one flight

# Cross-machine tolerance of the table check. DEM rows move with BLAS
# rounding (worst relative deviation seen: 6e-10); everything else is exact.
RTOL = 1e-8
ATOL = 1e-12

# A whole invocation must end within 180 s; a child that runs longer than
# this is killed and its replays count as failed.
CHILD_TIMEOUT_S = 150.0
WALL_BUDGET_S = 165.0

LAYER_MODULES = ("config", "systems", "noise", "gencoord", "dem",
                 "benchmarks", "harness", "cli")
FILTERS = ("kalman_filter", "state_augmentation_filter", "smikf")


@dataclass(frozen=True)
class Workload:
    config: str                 # shipped config the workload starts from
    reference: str              # reference tables for the default seed
    tables: dict                # table name -> expected row count
    replays: int                # (record, estimator, grid point) per run
    estimator_steps: int        # record steps x estimator replays per run
    flight_log: bool = False


WORKLOADS = {
    # The shipped windy shoot-out: 20 synthetic records through DEM (known
    # inputs), KF, SA-AR6 and SMIKF-AR1. The filters take most of the time
    # and share one design across seeds, so batching them shows here.
    "state_shootout": Workload(
        config="configs/benchmark_state_windy.json",
        reference="out/benchmark_state_windy",
        tables={"per_seed_sse": 80, "aggregate_sse": 4},
        replays=80, estimator_steps=96320),
    # The shipped prior sweep: DEM alone, estimating inputs, 20 records x 9
    # pv values and no Kalman-family filter, so dem and gencoord changes
    # show and filter changes must not. It assembles 9 designs 180 times,
    # embeds 20 series 180 times and writes the largest tables.
    "prior_grid": Workload(
        config="configs/prior_sweep.json",
        reference="out/prior_sweep",
        tables={"per_seed_sse": 180, "sse_vs_pv": 9, "input_traces": 10836},
        replays=180, estimator_steps=216720),
    # The shoot-out on one 24,080-step flight-log CSV: the same estimator
    # steps as one long record, nothing to batch across records, and the
    # only workload that reads a log (the real-data path).
    "flight_log": Workload(
        config="configs/benchmark_state_windy.json",
        reference="perfbench/reference/flight_log",
        tables={"per_seed_sse": 4, "aggregate_sse": 4},
        replays=4, estimator_steps=96320, flight_log=True),
}


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, or a child failed)."""


class Workspace:
    """A scratch directory for one invocation and the children run in it."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        work_root = BENCH_DIR / ".work"
        work_root.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")
        self.deadline = time.monotonic() + WALL_BUDGET_S

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another invocation's directory is still there

    def write_config(self):
        with open(self.root / self.workload.config) as fh:
            raw = json.load(fh)
        raw["output_dir"] = "out"
        if self.workload.flight_log:
            raw["seeds"] = [self.seed]
            raw["run"]["log_path"] = "flight_log.csv"
        else:
            raw["seeds"] = list(range(self.seed, self.seed + N_SEEDS))
        with open(self.dir / "config.json", "w") as fh:
            json.dump(raw, fh, indent=2)

    def child(self, *args):
        """Run child.py in the scratch directory; returns its result."""
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError("out of time before the next run")
        cmd = [sys.executable, str(CHILD), *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=self.dir, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} run exceeded {timeout:.0f} s") \
                from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{args[0]} run failed (exit {proc.returncode}):"
                             f"\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def prepare(self):
        self.write_config()
        flight = (self.seed, FLIGHT_LOG_STEPS) if self.workload.flight_log \
            else ()
        return self.child("prepare", "config.json", *flight)


# ---------------------------------------------------------------------------
# Correctness


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def check_tables(out_dir, workload, chash, reference_dir):
    """Problems with one run's tables, and its count of diverged replays."""
    problems = []
    diverged = 0
    for name, n_rows in workload.tables.items():
        path = out_dir / f"{name}.csv"
        if not path.is_file():
            problems.append(f"{name}.csv not written")
            continue
        header, *rows = _read_csv(path)
        if len(rows) != n_rows:
            problems.append(f"{name}.csv: {len(rows)} rows, expected {n_rows}")
        bad = []
        for i, row in enumerate(rows, start=1):
            cells = dict(zip(header, row))
            if cells.get("config_hash") != chash:
                bad.append(f"row {i}: config_hash {cells.get('config_hash')!r}"
                           f" != {chash!r}")
            elif cells.get("diverged", "0") != "0":
                diverged += 1
            elif any(c == "" or not math.isfinite(_as_float(c) or 0.0)
                     for c in row):
                bad.append(f"row {i}: empty or non-finite value")
        if bad:
            problems.append(f"{name}.csv: {len(bad)} bad rows, first {bad[0]}")
        if reference_dir is not None:
            problems += _compare(name, [header, *rows],
                                 _read_csv(reference_dir / f"{name}.csv"))
    return problems, diverged


def _compare(name, got, want):
    if got[0] != want[0] or len(got) != len(want):
        return [f"{name}.csv: header or row count differs from the reference"]
    for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, a, b in zip(got[0], row, ref):
            if a == b:
                continue
            x, y = _as_float(a), _as_float(b)
            if col == "config_hash" or x is None or y is None \
                    or not abs(x - y) <= ATOL + RTOL * abs(y):
                return [f"{name}.csv row {i} column {col}: {a} != "
                        f"reference {b}"]
    return []


class Tally:
    """Replays attempted and failed, and whether every run checked out."""

    def __init__(self, workspace, chash):
        self.workspace = workspace
        self.chash = chash
        ref = workspace.root / workspace.workload.reference
        self.reference = ref if workspace.seed == DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, *args):
        """One checked `demest run` in a child; None if the child failed."""
        workload = self.workspace.workload
        shutil.rmtree(self.workspace.dir / "out", ignore_errors=True)
        self.attempted += workload.replays
        try:
            result = self.workspace.child(*args)
        except BenchError as exc:
            self.failed += workload.replays
            self.problems.append(str(exc))
            return None
        problems, diverged = [f"demest run exited {result['rc']}"], 0
        if result["rc"] == 0:
            problems, diverged = check_tables(self.workspace.dir / "out",
                                              workload, self.chash,
                                              self.reference)
        # Tables that fail the check fail every replay they hold.
        self.failed += workload.replays if problems else diverged
        if diverged:
            problems.append(f"{diverged} replays diverged")
        self.problems += problems
        return result

    @property
    def correct(self):
        return not self.problems


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def span_stats(meta, spans_file):
    """Calls, total and self seconds per span name, and the root span."""
    n = meta["n_spans"]
    name_id, parent, start, end = array("i"), array("i"), array("d"), \
        array("d")
    with open(spans_file, "rb") as fh:
        for arr in (name_id, parent, start, end):
            arr.fromfile(fh, n)
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    roots = []
    for j, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[j]
        else:
            roots.append(j)
    if len(roots) != 1 or meta["names"][name_id[roots[0]]] != "run":
        raise BenchError("spans do not nest under one run span")
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
             for name in meta["names"]}
    for j in range(n):
        entry = stats[meta["names"][name_id[j]]]
        entry["calls"] += 1
        entry["total_s"] += dur[j]
        entry["self_s"] += dur[j] - covered[j]
    return stats, dur[roots[0]]


def layer_counts(meta, stats):
    """Every exact count of one traced run, by name."""
    counts = {f"{name}.calls": s["calls"] for name, s in stats.items()}
    counts.update(meta["counts"])
    counts.update({f"{k}.distinct": v for k, v in meta["distinct"].items()})
    return counts


def layer_metrics(stats, counts, imports, overhead_s):
    def total(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for fn in FILTERS:
        name = f"benchmarks.{fn}"
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.steps"] = (count(f"{name}.steps"), "count")
        m[f"{name}.us_per_step"] = (
            1e6 * ratio(self_s(name), count(f"{name}.steps")), "us")
    m["benchmarks.linalg_calls"] = (
        count("benchmarks.cho_factor.calls")
        + count("benchmarks.cho_solve.calls"), "count")
    m["benchmarks.linalg.s"] = (
        total("benchmarks.cho_factor") + total("benchmarks.cho_solve"), "s")
    m["benchmarks.fit_ar.s"] = (total("benchmarks.fit_ar"), "s")
    m["benchmarks.sse.s"] = (total("benchmarks.sse"), "s")
    m["dem.run_observer.self_s"] = (self_s("dem.run_observer"), "s")
    m["dem.run_observer.steps"] = (count("dem.run_observer.steps"), "count")
    m["dem.run_observer.us_per_step"] = (1e6 * ratio(
        self_s("dem.run_observer"), count("dem.run_observer.steps")), "us")
    m["dem.assemble_observer.s"] = (total("dem.assemble_observer"), "s")
    m["dem.assemble_observer.calls"] = (
        count("dem.assemble_observer.calls"), "count")
    m["dem.design_reuse_ratio"] = (ratio(
        count("dem.assemble_observer.distinct"),
        count("dem.assemble_observer.calls")), "ratio")
    m["gencoord.embed_series.s"] = (total("gencoord.embed_series"), "s")
    m["gencoord.embed_series.rows"] = (
        count("gencoord.embed_series.rows"), "count")
    m["gencoord.embed_series.unique_ratio"] = (ratio(
        count("gencoord.embed_series.distinct"),
        count("gencoord.embed_series.calls")), "ratio")
    m["noise.generate_colored_noise.s"] = (
        total("noise.generate_colored_noise"), "s")
    m["systems.simulate.s"] = (total("systems.simulate"), "s")
    m["systems.load_flight_log.s"] = (total("systems.load_flight_log"), "s")
    m["systems.load_flight_log.rows"] = (
        count("systems.load_flight_log.rows"), "count")
    m["harness.write_report.s"] = (total("harness.write_report"), "s")
    m["harness.write_report.bytes"] = (
        count("harness.write_report.bytes"), "bytes")
    m["harness.self_s"] = (self_s("run"), "s")
    # The harness's own time is the run span's self time above; cli makes
    # no call of its own worth a span.
    for module in ("config", "systems", "noise", "gencoord", "dem",
                   "benchmarks"):
        m[f"{module}.self_s"] = (sum(
            s["self_s"] for name, s in stats.items()
            if name.startswith(module + ".")), "s")
    for module in LAYER_MODULES:
        m[f"{module}.import_s"] = (imports.get(f"demest.{module}", 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def import_times(workspace):
    """Cumulative import seconds per demest module, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import demest.cli"],
        cwd=workspace.dir, env=workspace.env, capture_output=True, text=True,
        timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
    times = {}
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)",
                         line)
        if match and match.group(3).startswith("demest"):
            times[match.group(3)] = int(match.group(2)) / 1e6
    return times


def trace_workload(workspace, tally):
    imports = import_times(workspace)
    untraced, traced = [], []
    # Alternate untraced and traced runs so that drift in the machine's
    # speed falls on both sides of the overhead estimate.
    for i in range(2):
        untraced.append(tally.run("timed", "config.json"))
        spans_file = workspace.dir / f"spans{i}.bin"
        result = tally.run("traced", "config.json", spans_file)
        if result is None:
            continue
        stats, run_span_s = span_stats(result, spans_file)
        self_total = sum(s["self_s"] for s in stats.values())
        if abs(self_total - run_span_s) > 1e-6:
            tally.problems.append(f"self times add up to {self_total:.6f} s, "
                                  f"traced run took {run_span_s:.6f} s")
        traced.append((result, stats, layer_counts(result, stats)))
    if None in untraced or len(traced) != 2:
        raise BenchError("; ".join(tally.problems))
    if traced[0][2] != traced[1][2]:
        diff = sorted(k for k in traced[0][2].keys() | traced[1][2].keys()
                      if traced[0][2].get(k) != traced[1][2].get(k))
        tally.problems.append(f"counts differ between traced runs: {diff}")
    overhead_s = statistics.median(r["run_s"] for r, _, _ in traced) - \
        statistics.median(r["run_wall_s"] for r in untraced)
    runs = [layer_metrics(stats, counts, imports, overhead_s)
            for _, stats, counts in traced]
    return {name: {"value": statistics.median(r[name][0] for r in runs),
                   "unit": unit}
            for name, (_, unit) in runs[0].items()}


# ---------------------------------------------------------------------------
# End-to-end metrics


def time_workload(workspace, tally, seconds):
    samples = []
    longest = 0.0
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        result = tally.run("timed", "config.json")
        if result is None:
            raise BenchError("; ".join(tally.problems))
        samples.append(result)
        longest = max(longest, time.monotonic() - t)
        # Start another run only if even the longest one so far would end
        # inside the window, so that an invocation's length stays bounded.
        if time.monotonic() + longest > min(t0 + seconds, workspace.deadline):
            break
    for key in ("run_s", "run_wall_s", "setup_s", "setup_wall_s"):
        values = [s[key] for s in samples]
        print(f"{key}: median {statistics.median(values):.4f} s, max "
              f"{max(values):.4f} s (n={len(values)} runs; too few for a tail "
              f"percentile below the max)")
    median_run_s = statistics.median(s["run_s"] for s in samples)
    metrics = {
        "run_s": (median_run_s, "s"),
        "steps_per_s": (workspace.workload.estimator_steps / median_run_s,
                        "steps/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples),
                        "MiB"),
        "replay_ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    missing = [p for p in ("src/demest/__init__.py", workload.config,
                           workload.reference) if not (root / p).exists()]
    if missing:
        print(f"not a demest checkout (missing {', '.join(missing)}); run "
              f"from the repository root", file=sys.stderr)
        return 2

    workspace = Workspace(root, workload, args.seed)
    try:
        prepared = workspace.prepare()
        env = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
               **prepared["environment"], "workload": args.workload,
               "seed": args.seed,
               "seeds": [args.seed] if workload.flight_log
               else [args.seed, args.seed + N_SEEDS - 1],
               "load": "closed loop, 1 client, 1 process"}
        print("environment: " + json.dumps(env, sort_keys=True))
        tally = Tally(workspace, prepared["config_hash"])
        if args.trace:
            metrics = trace_workload(workspace, tally)
        else:
            metrics = time_workload(workspace, tally, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workspace.close()

    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(f"fail_frac: {tally.failed / tally.attempted:g} "
          f"({tally.failed} of {tally.attempted} replays)")
    for problem in tally.problems:
        print(f"check: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
