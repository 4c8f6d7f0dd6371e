import json
import os
import subprocess
import sys
from pathlib import Path

from demest.systems import load_flight_log

ROOT = Path(__file__).resolve().parent.parent

# After the tracer is installed, call every entry whose wrapper counts
# steps once on a tiny record, and print the counts.
STEP_COUNTED_CALLS = """
import json

import numpy as np

import child
from demest import benchmarks, dem, systems
from demest.noise import NoiseSpec

tracer = child.Tracer()
child.install(tracer)
model = systems.quadrotor_roll_model(3.4e-3, 1.274e-3)
n, dt = 20, 0.01
data = systems.simulate(model, dt, n, np.zeros((n, 4)), np.zeros((n, 2)),
                        np.zeros((n, 1)))
spec = NoiseSpec(sigma=0.01, proc_precision=np.eye(2),
                 meas_precision=np.eye(1), input_prior_precision=np.eye(4))
observer = dem.assemble_observer(model, dem.DemConfig(
    p=2, d=1, noise=spec, eta_v=np.zeros(4), learning_rate=1.0))
dem.run_observer(observer, data, known_inputs=True)
ad, bd = systems.discretize(model, dt)
q, r = 1e-4 * np.eye(2), 1e-6 * np.eye(1)
benchmarks.kalman_filter(ad, bd, model.c, q, r, data)
benchmarks.state_augmentation_filter(
    model, [benchmarks.ArModel(1, [0.5], 1.0)] * 2, data, q, r)
benchmarks.smikf(model, [0.5, 0.5], data, q, r)
print(json.dumps(tracer.counts))
"""


def _run_child(code):
    """Run ``code`` in a fresh interpreter that imports perfbench's
    ``child`` and demest from this checkout; returns the process."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_tracer_finds_every_layer_function():
    # perfbench/child.py wraps each layer's functions by module attribute
    # (e.g. ``benchmarks.cho_factor``); a deleted or renamed name would only
    # surface as a failed `perfbench/run.py --trace 1`.
    proc = _run_child(
        "import child; child.install(child.Tracer()); print('installed')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"


def test_benchmark_tracer_counts_the_steps_of_every_wrapped_entry():
    # The step counters bind each call's arguments and read ``data``; a
    # renamed parameter or a changed signature would otherwise only surface
    # in `perfbench/run.py --trace 1`.
    proc = _run_child(STEP_COUNTED_CALLS)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    steps = {k: v for k, v in counts.items() if k.endswith(".steps")}
    assert steps == {f"{name}.steps": 20 for name in (
        "dem.run_observer", "benchmarks.kalman_filter",
        "benchmarks.state_augmentation_filter", "benchmarks.smikf")}


def test_benchmark_writes_its_flight_log(tmp_path):
    # perfbench's flight-log workload synthesizes its CSV in ``prepare``
    # through ``harness.synthesize_record``; a change to that entry would
    # otherwise only surface as a failed benchmark run.
    raw = json.loads((ROOT / "configs/benchmark_state_windy.json").read_text())
    raw["seeds"] = [1]
    raw["run"]["log_path"] = str(tmp_path / "flight_log.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    proc = _run_child(f"import child; child.prepare({str(config)!r}, '1', "
                      "'50')")
    assert proc.returncode == 0, proc.stderr
    prepared = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(prepared) == {"config_hash", "environment"}
    log = load_flight_log(tmp_path / "flight_log.csv")
    assert log.n_steps == 50
    assert log.measurements.shape == (50, 2)
    assert log.inputs.shape == (50, 4)
    assert log.truth_states.shape == (50, 2)
    assert abs(log.dt - raw["run"]["dt"]) < 1e-12


def test_benchmark_counts_the_bytes_write_report_writes(tmp_path):
    # perfbench's write_report wrapper binds the call's ``report`` argument
    # and sums the sizes of the CSVs named in ``report.tables`` under
    # ``report.output_dir``; a renamed parameter or another shape of
    # ``tables`` would otherwise only surface in `perfbench/run.py --trace 1`.
    raw = json.loads((ROOT / "configs/prior_sweep.json").read_text())
    raw["seeds"] = [1, 2]
    raw["run"]["n_steps"] = 200
    raw["prior_sweep"]["pv_grid"] = [1.0, 10.0]
    raw["output_dir"] = str(tmp_path / "out")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    proc = _run_child(
        "import json\n"
        "import child\n"
        "from demest import harness\n"
        "from demest.config import load_config_file\n"
        "tracer = child.Tracer()\n"
        "child.install(tracer)\n"
        f"harness.run_experiment(load_config_file({str(config)!r}))\n"
        "print(json.dumps(tracer.counts))\n")
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    assert [path.name for path in csvs] == [
        "input_traces.csv", "per_seed_sse.csv", "sse_vs_pv.csv"]
    assert counts["harness.write_report.bytes"] == sum(
        path.stat().st_size for path in csvs)
