import json
import os
import subprocess
import sys
from pathlib import Path

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
