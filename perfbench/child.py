"""One demest invocation in a fresh interpreter, driven by ``run.py``.

    python3 child.py prepare CONFIG [FLIGHT_LOG_SEED FLIGHT_LOG_STEPS]
    python3 child.py timed CONFIG
    python3 child.py traced CONFIG SPANS_FILE

The working directory is the run's scratch directory; demest is imported
from the checkout's ``src`` through ``PYTHONPATH``. The last line of standard
output is a JSON object for the parent.

- ``prepare`` (untimed) imports demest, which also compiles its bytecode,
  writes the flight log the config names when asked to, and reports the
  config hash and the numeric environment.
- ``timed`` measures what a CLI user pays: ``import demest.cli`` plus
  ``load_config_file`` (setup), then ``demest run`` (run), then peak RSS.
  A ``SpeedProbe`` samples the core's speed throughout, and each phase is
  reported both as wall time and corrected for contention on the host.
- ``traced`` is ``timed`` with a span recorded around every call into the
  layers' public functions, taken at the module attribute the caller
  resolves, and with exact counts taken at the same boundaries. Spans are
  kept in memory and written to SPANS_FILE when the run ends.
"""

import json
import resource
import signal
import sys
import time

# A fixed probe task takes PROBE_REF_S on an uncontended core of a 2.0 GHz
# Xeon (Sapphire Rapids); corrected times are in seconds at that speed.
PROBE_REF_S = 1e-3
PROBE_INTERVAL_S = 0.05


def _probe_task():
    """Fixed pure-Python work, so the probe imports nothing demest does."""
    ys = [0.5 * (i % 7) - 1.0 for i in range(32)]
    p, x, sums = 1.0, 0.0, {}
    for _ in range(100):
        for y in ys:
            gain = p / (p + 0.1)
            x += gain * (y - x)
            p = (1.0 - gain) * p + 0.01
            sums[int(y)] = sums.get(int(y), 0.0) + x
    return sums


class SpeedProbe:
    """Samples the speed of the core the program runs on, while it runs.

    The machine's cores are shared with other tenants of the host, and a
    core runs up to ~1.5x slower while they are busy; the slow spells last
    from a fraction of a second to minutes, so run times drift by more than
    a regression bound between runs of the same code. A SIGALRM every
    PROBE_INTERVAL_S times ``_probe_task`` in the main thread, on the same
    core and between the program's own bytecodes. A phase's corrected time
    is its wall time without the probes, times the mean of PROBE_REF_S /
    probe time over the probes taken from its start to its end: the time
    the phase would take on a core where the probe takes PROBE_REF_S.
    """

    def __init__(self):
        self.starts = []
        self.durations = []
        self.busy = False

    def sample(self, *_):
        if self.busy:
            return  # the timer fired inside a probe
        self.busy = True
        t0 = time.perf_counter()
        _probe_task()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self.busy = False

    def __enter__(self):
        self.sample()  # warm-up, so the first timed probe is not a cold one
        self.starts.clear()
        self.durations.clear()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """``fn(*args)``, its wall time without probes, and corrected time."""
        first = len(self.durations)
        self.sample()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        self.sample()
        wall = t1 - t0 - sum(d for s, d in zip(self.starts, self.durations)
                             if t0 <= s < t1)
        taken = self.durations[first:]
        return result, wall, wall * sum(PROBE_REF_S / d for d in taken) \
            / len(taken)


def _import_and_load(config):
    import demest.cli
    from demest.config import load_config_file
    load_config_file(config)


def _setup(config):
    t0 = time.perf_counter()
    _import_and_load(config)
    return time.perf_counter() - t0


def _main_run(config):
    import demest.cli
    return demest.cli.main(["run", config])


def _run(config):
    t0 = time.perf_counter()
    rc = _main_run(config)
    return rc, time.perf_counter() - t0


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Threads each loaded OpenBLAS reports, read through its C API."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads[path.rsplit("/", 1)[-1]] = getter()
                break
    return threads


def _environment():
    import platform

    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": _blas_threads(),
    }


def prepare(config, flight_log_seed=None, flight_log_steps=None):
    from dataclasses import replace

    from demest import harness, systems
    from demest.config import config_hash, load_config_file

    cfg = load_config_file(config)
    if flight_log_seed is not None:
        # A full-state synthetic record (C = I, so the log holds phi and
        # phidot) from the workload's own noise settings, as one long flight.
        long_cfg = replace(
            cfg, model=replace(cfg.model, full_state_output=True),
            run=replace(cfg.run, n_steps=int(flight_log_steps), log_path=None))
        model = harness.build_model(long_cfg)
        data, _ = harness.synthesize_record(long_cfg, int(flight_log_seed),
                                            model)
        systems.save_flight_log(cfg.run.log_path, data)
    print(json.dumps({"config_hash": config_hash(cfg),
                      "environment": _environment()}))


def timed(config):
    with SpeedProbe() as probe:
        _, setup_wall_s, setup_s = probe.measure(_import_and_load, config)
        rc, run_wall_s, run_s = probe.measure(_main_run, config)
    print(json.dumps({"rc": rc, "setup_s": setup_s, "run_s": run_s,
                      "setup_wall_s": setup_wall_s, "run_wall_s": run_wall_s,
                      "probes": len(probe.durations),
                      "peak_rss_mb": _peak_rss_mb()}))


class Tracer:
    """Spans as parallel arrays: name id, parent span id, start, end.

    A wrapper appends its span before the clock starts and fills in the
    times when the call returns or raises, so the bookkeeping lands in the
    caller's self time and shows up in the overhead, not in the layer.
    """

    def __init__(self):
        from array import array
        from collections import Counter, defaultdict
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.keys = defaultdict(set)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def wrap(self, holder, attr, name, after=None):
        """Replace ``holder.attr`` by a traced wrapper named ``name``.

        ``after(arguments, result)`` runs outside the span on success, with
        the call's bound arguments, to take the counts.
        """
        import functools
        import inspect
        fn = getattr(holder, attr)
        name_id = self._name_id(name)
        signature = inspect.signature(fn) if after is not None else None
        start, end, stack, clock = self.start, self.end, self.stack, \
            time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(holder, attr, traced)

    def dump(self, path):
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        return {"names": self.names, "n_spans": len(self.start),
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.keys.items()}}


def _digest(*parts):
    import hashlib
    import pickle
    return hashlib.sha1(pickle.dumps(parts)).hexdigest()


def install(tracer):
    """Wrap each layer's public functions where the callers resolve them.

    The harness, dem and benchmarks modules import several names directly
    (``from .gencoord import embed_series``), so the same function is
    wrapped at every module that calls it, under one span name.
    """
    import os

    import numpy as np
    from demest import benchmarks, cli, dem, harness

    counts, keys = tracer.counts, tracer.keys

    def steps(name):
        def after(arguments, result):
            counts[f"{name}.steps"] += arguments["data"].n_steps
        return after

    def embedded(arguments, result):
        series = np.ascontiguousarray(arguments["series"], dtype=float)
        counts["gencoord.embed_series.rows"] += series.shape[0]
        keys["gencoord.embed_series"].add(_digest(
            series.tobytes(), series.shape, arguments["dt"],
            arguments["order"]))

    def assembled(arguments, result):
        keys["dem.assemble_observer"].add(_digest(
            arguments["model"], arguments["cfg"], arguments.get("rate")))

    def loaded(arguments, result):
        counts["systems.load_flight_log.rows"] += result.n_steps

    def written(arguments, result):
        report = arguments["report"]
        # CSV bytes only: the manifest carries wall-clock runtimes.
        counts["harness.write_report.bytes"] += sum(
            os.path.getsize(os.path.join(report.output_dir, f"{name}.csv"))
            for name in report.tables)

    layer_functions = [
        # The root span: the whole `demest run`, resolved by _run.
        (cli, "main", "run", None),
        (cli, "load_config_file", "config.load_config_file", None),
        (harness, "config_hash", "config.config_hash", None),
        (harness, "quadrotor_roll_model", "systems.quadrotor_roll_model",
         None),
        (harness, "simulate", "systems.simulate", None),
        (harness, "load_flight_log", "systems.load_flight_log", loaded),
        (harness, "residual_process_noise", "systems.residual_process_noise",
         None),
        (harness, "discretize", "systems.discretize", None),
        (benchmarks, "discretize", "systems.discretize", None),
        (dem, "is_observable", "systems.is_observable", None),
        (harness, "generate_colored_noise", "noise.generate_colored_noise",
         None),
        (dem, "generalized_precision", "noise.generalized_precision", None),
        (harness, "embed_series", "gencoord.embed_series", embedded),
        (dem, "embed_series", "gencoord.embed_series", embedded),
        (dem, "run_observer", "dem.run_observer", steps("dem.run_observer")),
        (dem, "assemble_observer", "dem.assemble_observer", assembled),
        (benchmarks, "default_noise_matrices",
         "benchmarks.default_noise_matrices", None),
        (benchmarks, "fit_ar", "benchmarks.fit_ar", None),
        (benchmarks, "kalman_filter", "benchmarks.kalman_filter",
         steps("benchmarks.kalman_filter")),
        (benchmarks, "state_augmentation_filter",
         "benchmarks.state_augmentation_filter",
         steps("benchmarks.state_augmentation_filter")),
        (benchmarks, "smikf", "benchmarks.smikf", steps("benchmarks.smikf")),
        (benchmarks, "build_augmented_system",
         "benchmarks.build_augmented_system", None),
        (benchmarks, "cho_factor", "benchmarks.cho_factor", None),
        (benchmarks, "cho_solve", "benchmarks.cho_solve", None),
        (benchmarks, "sse", "benchmarks.sse", None),
        (harness, "write_report", "harness.write_report", written),
    ]
    for holder, attr, name, after in layer_functions:
        tracer.wrap(holder, attr, name, after)


def traced(config, spans_file):
    setup_s = _setup(config)
    tracer = Tracer()
    install(tracer)
    rc, run_s = _run(config)
    meta = tracer.dump(spans_file)
    print(json.dumps({"rc": rc, "setup_s": setup_s, "run_s": run_s,
                      "peak_rss_mb": _peak_rss_mb(), **meta}))


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    {"prepare": prepare, "timed": timed, "traced": traced}[mode](*rest)
