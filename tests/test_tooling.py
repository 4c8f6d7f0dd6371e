import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_finds_every_layer_function():
    # perfbench/child.py wraps each layer's functions by module attribute
    # (e.g. ``benchmarks.cho_factor``); a deleted or renamed name would only
    # surface as a failed `perfbench/run.py --trace 1`.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import child; child.install(child.Tracer()); print('installed')"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
