"""Experiment orchestration: config-driven data synthesis, estimator runs,
and tidy CSV report emission for each experiment family."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import benchmarks, dem
from .config import ExperimentConfig, NoiseVariant, config_hash
from .errors import DataFormatError, DivergenceError
from .gencoord import embed_series
from .noise import (NoiseSpec, autocorrelation, gaussian_fit,
                    gaussian_kernel_density, generate_colored_noise,
                    kernel_autocorrelation)
from .systems import (DT_JITTER, ExperimentData, LtiModel, _one, discretize,
                      load_flight_log, quadrotor_roll_model,
                      rescale_input_matrix, residual_process_noise, simulate)

# The state-augmentation benchmark mirrors the observer's default embedding
# depth with a sixth-order AR noise model.
SA_AR_ORDER = 6

# Keep fitted AR(1) coefficients strictly inside the stationarity region.
AR1_CLAMP = 0.999

# Order of the embedding of phi that stands in for the unmeasured roll rate
# when the roll-rate estimates are scored.
RATE_REFERENCE_ORDER = 2


@dataclass
class ExperimentReport:
    """Tables, aggregates, and the emitted-file manifest of one experiment."""

    kind: str
    config_hash: str
    output_dir: Path
    tables: dict = field(default_factory=dict)
    descriptions: dict = field(default_factory=dict)
    runtimes_s: dict = field(default_factory=dict)
    diverged: list = field(default_factory=list)
    gain_cycles: dict = field(default_factory=dict)
    passed: bool | None = None

    def files(self) -> list[str]:
        return [f"{name}.csv" for name in self.tables] + ["manifest.json"]

    def add(self, name: str, rows: list, description: str) -> None:
        self.tables[name] = rows
        self.descriptions[name] = description


def _new_report(cfg: ExperimentConfig) -> ExperimentReport:
    return ExperimentReport(kind=cfg.kind, config_hash=config_hash(cfg),
                            output_dir=Path(cfg.output_dir))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _environment() -> dict:
    """The numeric stack whose rounding the CSV bytes depend on: numpy's
    BLAS runs the matrix products, scipy's LAPACK the Cholesky solves."""
    import platform

    import scipy

    def blas(show_config) -> str:
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except TypeError:  # numpy < 1.25 and scipy < 1.11 print it only
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config)}


def write_report(report: ExperimentReport) -> None:
    """Write every table as CSV plus a manifest. Only the manifest carries
    non-reproducible content (wall-clock runtimes); the CSVs are
    byte-deterministic for a fixed config."""
    outdir = Path(report.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, rows in report.tables.items():
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            if not rows:
                fh.write("\n")
                continue
            columns = list(rows[0].keys())
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    manifest = {
        "schema_version": 1,
        "kind": report.kind,
        "config_hash": report.config_hash,
        "files": {f"{name}.csv": report.descriptions.get(name, "")
                  for name in report.tables},
        "passed": report.passed,
        "diverged": report.diverged,
        "gain_cycles": report.gain_cycles,
        "runtimes_s": {k: round(v, 3) for k, v in report.runtimes_s.items()},
        "environment": _environment(),
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Builders


def build_model(cfg: ExperimentConfig) -> LtiModel:
    model = quadrotor_roll_model(cfg.model.i_xx, cfg.model.c_b_phi,
                                 full_state_output=cfg.model.full_state_output)
    if cfg.model.single_input:
        model = LtiModel(a=model.a, b=model.b[:, :1], c=model.c)
    return model


def injected_covariances(cfg: ExperimentConfig, model: LtiModel,
                         variant: NoiseVariant | None = None):
    """(process, measurement) covariance of the injected noise; None = none."""
    stds = np.asarray(variant.process_noise_std if variant
                      else cfg.noise.process_noise_std, dtype=float)
    if stds.size != model.n:
        raise ValueError("need one process-noise std per state")
    proc = None if np.all(stds == 0) else np.diag(stds ** 2)
    value = cfg.noise.measurement_noise_value
    if value == 0:
        meas = None
    else:
        var = 1.0 / value if cfg.noise.measurement_noise_is_precision else value
        meas = var * np.eye(model.m)
    return proc, meas


def observer_noise_spec(cfg: ExperimentConfig, model: LtiModel,
                        input_prior_precision: float | None = None,
                        variant: NoiseVariant | None = None) -> NoiseSpec:
    proc_cov, meas_cov = injected_covariances(cfg, model, variant)
    if cfg.noise.observer_process_precision is not None:
        values = np.asarray(cfg.noise.observer_process_precision, dtype=float)
        proc_prec = np.diag(np.broadcast_to(values, (model.n,)).copy())
    else:
        proc_prec = np.linalg.inv(proc_cov)
    if cfg.noise.observer_measurement_precision is not None:
        meas_prec = cfg.noise.observer_measurement_precision * np.eye(model.m)
    else:
        meas_prec = np.linalg.inv(meas_cov)
    pv = cfg.noise.input_prior_precision if input_prior_precision is None \
        else input_prior_precision
    sigma = cfg.noise.observer_sigma or (variant.sigma if variant
                                         else cfg.noise.sigma)
    return NoiseSpec(
        sigma=sigma,
        proc_precision=proc_prec,
        meas_precision=meas_prec,
        input_prior_precision=pv * np.eye(model.r),
    )


_DEFAULT_FREQS = (0.3, 0.45, 0.6, 0.75)


def input_signal(cfg: ExperimentConfig, seed: int, n_inputs: int) -> np.ndarray:
    """Smooth per-seed pseudo-PWM drive: offset sinusoids with seeded phases."""
    run = cfg.run
    freqs = run.input_frequencies or _DEFAULT_FREQS[:n_inputs]
    if len(freqs) != n_inputs:
        raise ValueError("need one input frequency per channel")
    rng = np.random.default_rng([seed, 3])
    phases = rng.uniform(0.0, 2.0 * np.pi, n_inputs)
    t = np.arange(run.n_steps) * run.dt
    v = np.empty((run.n_steps, n_inputs))
    for c in range(n_inputs):
        v[:, c] = run.input_offset + run.input_amplitude * \
            np.sin(2.0 * np.pi * freqs[c] * t + phases[c])
    return v


def synthesize_record(cfg: ExperimentConfig, seed: int, model: LtiModel,
                      variant: NoiseVariant | None = None):
    """Simulate one record; returns (data, injected process-noise series)."""
    run = cfg.run
    proc_cov, meas_cov = injected_covariances(cfg, model, variant)
    sigma = variant.sigma if variant else cfg.noise.sigma
    if proc_cov is None:
        w = np.zeros((run.n_steps, model.n))
    else:
        w = generate_colored_noise([seed, 1], sigma, proc_cov,
                                   run.n_steps, run.dt)
    if meas_cov is None:
        z = np.zeros((run.n_steps, model.m))
    else:
        z = generate_colored_noise([seed, 2], sigma, meas_cov,
                                   run.n_steps, run.dt)
    v = input_signal(cfg, seed, model.r)
    data = simulate(model, run.dt, run.n_steps, v, w, z)
    return data, w


class Record(NamedTuple):
    """A seed's record and the process-noise series AR models are fit to."""

    seed: int
    data: ExperimentData
    w_fit: np.ndarray


def _plant_for(model: LtiModel, data: ExperimentData) -> LtiModel:
    """The plant a record replays against: for normalized inputs, B is
    rescaled by the record's factors so that ``B @ v`` is unchanged."""
    if data.input_scales is None:
        return model
    return rescale_input_matrix(model, data.input_scales)


def _largest_order(cfg: ExperimentConfig) -> int:
    """The largest embedding order a run of ``cfg`` applies to a record."""
    orders = [cfg.dem.p]
    if cfg.kind == "sweep_p":
        orders += cfg.sweep.p_values
    if cfg.kind in ("benchmark_state", "sweep_p"):
        orders.append(RATE_REFERENCE_ORDER)
    return max(orders)


def get_record(cfg: ExperimentConfig, seed: int, model: LtiModel) -> Record:
    """Synthetic or log-backed record."""
    if cfg.run.log_path is None:
        return Record(seed, *synthesize_record(cfg, seed, model))
    log = load_flight_log(cfg.run.log_path,
                          normalize=cfg.run.normalize_log_inputs)
    # The estimators replay at the log's dt, while Q, the embedded
    # reference and the transient skip are set from run.dt.
    if abs(log.dt - cfg.run.dt) > DT_JITTER * cfg.run.dt:
        raise DataFormatError(
            f"{cfg.run.log_path}: log dt={log.dt:g} differs from "
            f"run.dt={cfg.run.dt:g} by more than {DT_JITTER:.0%}")
    order = _largest_order(cfg)
    if log.n_steps <= order:
        raise DataFormatError(
            f"{cfg.run.log_path}: {log.n_steps} rows; embedding order "
            f"{order} needs at least {order + 1}")
    if cfg.run.skip_steps >= log.n_steps:
        raise DataFormatError(
            f"{cfg.run.log_path}: run.transient_skip_s="
            f"{cfg.run.transient_skip_s:g} skips all {log.n_steps} steps")
    inputs = log.inputs[:, :model.r]
    scales = None if log.input_scales is None else log.input_scales[:model.r]
    data = ExperimentData(dt=log.dt, measurements=log.measurements[:, :model.m],
                          inputs=inputs, truth_states=log.truth_states,
                          input_scales=scales)
    full_state = ExperimentData(dt=log.dt, measurements=log.measurements,
                                inputs=inputs, truth_states=log.truth_states)
    return Record(seed, data,
                  residual_process_noise(_plant_for(model, data), full_state))


def _dem_config(cfg: ExperimentConfig, spec: NoiseSpec, model: LtiModel,
                p: int | None = None, d: int | None = None,
                eta_v: float | None = None) -> dem.DemConfig:
    p = cfg.dem.p if p is None else p
    d = cfg.dem.d if d is None else d
    eta = cfg.dem.eta_v if eta_v is None else eta_v
    return dem.DemConfig(
        p=p, d=min(d, p), noise=spec,
        eta_v=np.full(model.r, eta),
        learning_rate=cfg.dem.learning_rate,
    )


def _aggregate(values) -> dict:
    """Summary statistics of the values that are not None."""
    arr = np.asarray([v for v in values if v is not None], dtype=float)
    if arr.size == 0:
        return {"n_runs": 0, "median": None, "iqr": None,
                "mean": None, "std": None}
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    return {
        "n_runs": int(arr.size),
        "median": float(np.median(arr)),
        "iqr": float(q3 - q1),
        "mean": float(arr.mean()),
        "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
    }


# ---------------------------------------------------------------------------
# The replay grid: four families replay every record at each point of an
# axis (estimators, embedding orders or prior precisions) and only differ in
# their axis and in how a replay is scored.


def _grid(cfg: ExperimentConfig):
    """Report, plant and records (one per seed) of a grid family."""
    model = build_model(cfg)
    records = [get_record(cfg, seed, model) for seed in cfg.seeds]
    # A log-backed config has one seed, so one record sets the plant.
    return _new_report(cfg), _plant_for(model, records[0].data), records


def _replay(report: ExperimentReport, records: list[Record], axis) -> list:
    """Replay every record at each ``(label, estimate)`` axis point in turn.

    ``estimate(records)`` returns one cell per record: copies of the vectors
    that get scored, so a cell does not keep a whole trajectory alive, or
    the ``DivergenceError`` of a replay that diverged. Returns the cells axis
    point by axis point, each a list in record order. A diverged replay
    leaves a None cell and a ``report.diverged`` entry. Each axis point's
    replays are timed together under its label.
    """
    cells = []
    for label, estimate in axis:
        t0 = time.perf_counter()
        row = estimate(records)
        report.runtimes_s[label] = time.perf_counter() - t0
        for i, (rec, cell) in enumerate(zip(records, row)):
            if isinstance(cell, DivergenceError):
                row[i] = None
                report.diverged.append(
                    {"seed": rec.seed, "estimator": label, "error": str(cell)})
        cells.append(row)
    return cells


def _sse(estimate, reference, column: int, skip: int) -> float | None:
    """SSE of one replay against ``reference[:, column]``; None if the
    replay diverged or there is no reference."""
    if estimate is None or reference is None:
        return None
    return benchmarks.sse(estimate, reference[:, column], skip=skip)


def _cells(results: list, pick) -> list:
    """``pick(result)`` of each result; a ``DivergenceError`` passes
    through."""
    return [res if isinstance(res, DivergenceError) else pick(res)
            for res in results]


def _observer(matrices: dem.ObserverMatrices, columns, pick,
              known_inputs: bool = False, embeddings: dict | None = None):
    """Grid estimate: ``pick`` of the observer's estimate ``columns`` (a
    slice, which each step stores without a fancy-index copy) of each
    record; all records replay in one batch."""
    def estimate(records: list[Record]) -> list:
        return _cells(dem.run_observer_batch(
            matrices, [rec.data for rec in records], known_inputs,
            keep=columns, embeddings=embeddings), pick)
    return estimate


def _observer_rate(model: LtiModel, dem_cfg: dem.DemConfig,
                   embeddings: dict | None = None):
    """Grid estimate: the observer's roll rate, inputs known."""
    return _observer(dem.assemble_observer(model, dem_cfg), slice(1, 2),
                     lambda cols: cols[:, 0].copy(), known_inputs=True,
                     embeddings=embeddings)


def _gain_cycles(results: list) -> dict | None:
    """Manifest entry of a filter's replay: per record, the step from which
    only the means were replayed and the period of its gains, or the step
    its gain froze at and period 0 (None for a record that diverged or did
    neither); None if no record did either."""
    cycles = [None if isinstance(res, DivergenceError) else res.cycle
              for res in results]
    if not any(cycles):
        return None
    return {"switch_step": [None if c is None else c[0] for c in cycles],
            "period": [None if c is None else c[1] for c in cycles]}


def _state_estimators(cfg: ExperimentConfig, model: LtiModel,
                      report: ExperimentReport) -> list:
    """The shoot-out axis: each estimator's roll rate, inputs known. The
    three filters replay all records of the axis point in one batch, and
    note their gain cycles in ``report``."""
    spec = observer_noise_spec(cfg, model)
    q, r = benchmarks.default_noise_matrices(spec, cfg.run.dt)

    def roll_rates(label, results):
        report.gain_cycles[label] = _gain_cycles(results)
        return _cells(results, lambda res: res.means[:, 1].copy())

    def kalman(records):
        ad, bd = discretize(model, records[0].data.dt)
        return roll_rates("kalman", benchmarks.kalman_filter_batch(
            ad, bd, model.c, q, r, [rec.data for rec in records]))

    def state_augmentation(records):
        ars = [[benchmarks.fit_ar(rec.w_fit[:, i], SA_AR_ORDER)
                for i in range(model.n)] for rec in records]
        return roll_rates(
            "state_augmentation", benchmarks.state_augmentation_filter_batch(
                model, ars, [rec.data for rec in records], q, r))

    def smikf(records):
        coeffs = [[float(np.clip(benchmarks.fit_ar(rec.w_fit[:, i], 1)
                                 .coefficients[0], -AR1_CLAMP, AR1_CLAMP))
                   for i in range(model.n)] for rec in records]
        return roll_rates("smikf", benchmarks.smikf_batch(
            model, coeffs, [rec.data for rec in records], q, r))

    return [("dem", _observer_rate(model, _dem_config(cfg, spec, model))),
            ("kalman", kalman), ("state_augmentation", state_augmentation),
            ("smikf", smikf)]


def _rate_scores(cfg: ExperimentConfig, records: list[Record],
                 cells: list) -> list:
    """``(sse_truth, sse_embedded, diverged)`` of every roll-rate cell.

    ``sse_truth`` is None for a record without ground truth, and both are
    None for a diverged replay. The references are computed once per
    record, for every axis point.
    """
    skip = cfg.run.skip_steps
    # phidot is not directly measured; a low-order embedding of phi acts as
    # the derivative pseudo-measurement reference.
    refs = [(rec.data.truth_states,
             embed_series(rec.data.measurements[:, 0], cfg.run.dt,
                          RATE_REFERENCE_ORDER))
            for rec in records]
    return [[(_sse(est, truth, 1, skip), _sse(est, embedded, 1, skip),
              est is None) for est, (truth, embedded) in zip(row, refs)]
            for row in cells]


# ---------------------------------------------------------------------------
# Experiment families


def run_benchmark_state(cfg: ExperimentConfig) -> ExperimentReport:
    """Roll-rate estimation shoot-out: observer vs KF, SA(AR-6), SMIKF(AR-1)."""
    report, model, records = _grid(cfg)
    axis = _state_estimators(cfg, model, report)
    scores = _rate_scores(cfg, records, _replay(report, records, axis))
    chash = report.config_hash
    per_seed = []
    for i, rec in enumerate(records):
        for (name, _), row in zip(axis, scores):
            sse_truth, sse_embedded, diverged = row[i]
            per_seed.append({"config_hash": chash, "seed": rec.seed,
                             "estimator": name, "sse_phidot_truth": sse_truth,
                             "sse_phidot_embedded": sse_embedded,
                             "diverged": diverged})
    aggregate_rows = []
    for (name, _), row in zip(axis, scores):
        truth, embedded, diverged = zip(*row)
        agg_t, agg_e = _aggregate(truth), _aggregate(embedded)
        aggregate_rows.append({
            "config_hash": chash, "estimator": name,
            "n_runs": agg_e["n_runs"], "n_diverged": sum(diverged),
            "median_sse_truth": agg_t["median"], "iqr_sse_truth": agg_t["iqr"],
            "mean_sse_truth": agg_t["mean"], "std_sse_truth": agg_t["std"],
            "median_sse_embedded": agg_e["median"],
            "iqr_sse_embedded": agg_e["iqr"],
        })
    report.add("per_seed_sse", per_seed, "roll-rate SSE per (seed, estimator)")
    report.add("aggregate_sse", aggregate_rows,
               "per-estimator SSE aggregates (bar-chart data)")
    return report


def run_sweep_p(cfg: ExperimentConfig) -> ExperimentReport:
    """Observer accuracy as a function of the state embedding order."""
    report, model, records = _grid(cfg)
    spec = observer_noise_spec(cfg, model)
    p_values = cfg.sweep.p_values
    # Every order replays the inputs at order min(d, p), embedded once.
    inputs = dem.InputMemo()
    cells = _replay(report, records, [
        (f"dem_p{p}", _observer_rate(
            model, _dem_config(cfg, spec, model, p=p), inputs))
        for p in p_values])
    chash = report.config_hash
    per_seed, summary = [], []
    for p, row in zip(p_values, _rate_scores(cfg, records, cells)):
        for rec, (sse_truth, sse_embedded, diverged) in zip(records, row):
            per_seed.append({"config_hash": chash, "seed": rec.seed, "p": p,
                             "sse_truth": sse_truth,
                             "sse_embedded": sse_embedded,
                             "diverged": diverged})
        truth, embedded, _ = zip(*row)
        agg = _aggregate(truth if any(v is not None for v in truth)
                         else embedded)
        summary.append({"config_hash": chash, "p": p, "n_runs": agg["n_runs"],
                        "mean_sse": agg["mean"], "std_sse": agg["std"],
                        "median_sse": agg["median"]})
    report.add("per_seed_sse", per_seed,
               "roll-rate SSE per (seed, embedding order)")
    report.add("sweep_summary", summary, "SSE statistics per embedding order")
    return report


def run_landscape(cfg: ExperimentConfig) -> ExperimentReport:
    """Probe the free-energy surface around the converged estimate."""
    report = _new_report(cfg)
    chash = report.config_hash
    seed = cfg.seeds[0]
    model = build_model(cfg)
    data = get_record(cfg, seed, model).data
    model = _plant_for(model, data)
    spec = observer_noise_spec(cfg, model)
    ls = cfg.landscape
    skip = cfg.run.skip_steps
    dem_cfg = _dem_config(cfg, spec, model)
    t0 = time.perf_counter()
    matrices = dem.assemble_observer(model, dem_cfg)
    # The replay and the probes share the record's one embedding.
    embeddings = {}
    estimates = _one(dem.run_observer_batch(matrices, [data],
                                            embeddings=embeddings))
    y_gen_series = dem.embed_records([data], "measurements", dem_cfg.p,
                                     embeddings)[:, 0]

    rng = np.random.default_rng([seed, 4])
    directions = rng.standard_normal((ls.n_perturbations, matrices.total_dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = directions / np.where(norms == 0, 1.0, norms)

    probe_steps = np.unique(np.linspace(skip, data.n_steps - 1,
                                        ls.n_probe_times).astype(int))
    surface_rows, summary_rows = [], []
    all_passed = True
    for step in probe_steps:
        result = dem.free_energy_landscape(
            matrices, estimates[step], y_gen_series[step],
            matrices.eta_gen, directions, [ls.magnitude], slack=ls.slack)
        all_passed &= result.passed
        for i in range(directions.shape[0]):
            surface_rows.append({
                "config_hash": chash, "probe_step": int(step),
                "time_s": step * cfg.run.dt, "probe_index": i,
                "magnitude": ls.magnitude,
                "v_estimate": result.v_at_estimate,
                "v_probe": float(result.probe_values[i, 0]),
                "delta": float(result.probe_values[i, 0] - result.v_at_estimate),
            })
        summary_rows.append({
            "config_hash": chash, "probe_step": int(step),
            "time_s": step * cfg.run.dt,
            "n_probes": int(directions.shape[0]),
            "v_estimate": result.v_at_estimate,
            "max_probe": result.max_probe,
            "max_delta": result.max_probe - result.v_at_estimate,
            "passed": result.passed,
        })
    report.runtimes_s["landscape"] = time.perf_counter() - t0
    report.add("surface", surface_rows,
               "free energy at perturbed probes around the estimate")
    report.add("summary", summary_rows, "per-probe-time maximality check")
    report.passed = bool(all_passed)
    return report


def run_input_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Input reconstruction: observer (wrong weak prior) vs the UIO."""
    report, model, records = _grid(cfg)
    dem_cfg = _dem_config(cfg, observer_noise_spec(cfg, model), model)
    poles = cfg.uio.poles if cfg.uio is not None else None
    # Designing up front surfaces existence failures before any run.
    benchmarks.design_uio(model, poles=poles)
    matrices = dem.assemble_observer(model, dem_cfg)
    sd = matrices.state_dim
    axis = [("dem", _observer(matrices, slice(sd, sd + 1),
                              lambda cols: cols[:, 0].copy())),
            ("uio", lambda recs: _cells(benchmarks.uio_batch(
                model, [rec.data for rec in recs], poles=poles),
                lambda res: res.inputs[:, 0].copy()))]
    cells = _replay(report, records, axis)
    skip = cfg.run.skip_steps
    chash = report.config_hash
    per_seed = []
    for i, rec in enumerate(records):
        for (name, _), row in zip(axis, cells):
            per_seed.append({
                "config_hash": chash, "seed": rec.seed, "estimator": name,
                "sse_input_measured": _sse(row[i], rec.data.inputs, 0, skip),
                "sse_input_truth": _sse(row[i], rec.data.truth_inputs, 0, skip),
                "diverged": row[i] is None})
    agg_rows = []
    for name, _ in axis:
        agg = _aggregate(row["sse_input_measured"] for row in per_seed
                         if row["estimator"] == name)
        agg_rows.append({"config_hash": chash, "estimator": name,
                         "n_runs": agg["n_runs"],
                         "median_sse_input": agg["median"],
                         "iqr_sse_input": agg["iqr"],
                         "mean_sse_input": agg["mean"]})
    traces = []
    v_dem, v_uio = (row[0] for row in cells)
    if v_dem is not None and v_uio is not None:
        measured = records[0].data.inputs[:, 0]
        traces = [{"config_hash": chash, "seed": records[0].seed, "step": k,
                   "time_s": k * cfg.run.dt, "v_measured": measured[k],
                   "v_dem": v_dem[k], "v_uio": v_uio[k]}
                  for k in range(measured.size)]
    report.add("per_seed_input_sse", per_seed,
               "input-estimate SSE per (seed, estimator)")
    report.add("aggregate_input_sse", agg_rows,
               "per-estimator input SSE aggregates")
    report.add("input_traces", traces,
               "input-estimate traces for the first seed")
    return report


def run_prior_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Accuracy/complexity trade-off as the input-prior precision varies."""
    report, model, records = _grid(cfg)
    ps = cfg.prior_sweep
    # Every prior precision replays the same records at the same order.
    embeddings = {}

    def observer(pv):
        spec = observer_noise_spec(cfg, model, input_prior_precision=pv)
        matrices = dem.assemble_observer(
            model, _dem_config(cfg, spec, model, eta_v=ps.eta_v))
        # The roll rate (column 1) and the input (column state_dim).
        sd = matrices.state_dim
        return _observer(matrices, slice(1, sd + 1, sd - 1),
                         lambda cols: (cols[:, 1].copy(), cols[:, 0].copy()),
                         embeddings=embeddings)

    cells = _replay(report, records,
                    [(f"pv{pv:g}", observer(pv)) for pv in ps.pv_grid])
    skip = cfg.run.skip_steps
    chash = report.config_hash
    per_seed, traces, summary = [], [], []
    for pv, row in zip(ps.pv_grid, cells):
        rows = []
        for rec, cell in zip(records, row):
            v_hat, rate = (None, None) if cell is None else cell
            data = rec.data
            rows.append({
                "config_hash": chash, "seed": rec.seed, "pv": pv,
                "sse_input_measured": _sse(v_hat, data.inputs, 0, skip),
                "sse_input_truth": _sse(v_hat, data.truth_inputs, 0, skip),
                "sse_state_truth": _sse(rate, data.truth_states, 1, skip),
                "mean_abs_dev_from_prior": None if v_hat is None else float(
                    np.mean(np.abs(v_hat[skip:] - ps.eta_v)))})
        per_seed += rows
        if row[0] is not None:
            v_hat, measured = row[0][0], records[0].data.inputs[:, 0]
            traces += [{"config_hash": chash, "pv": pv, "step": k,
                        "time_s": k * cfg.run.dt, "v_measured": measured[k],
                        "v_hat": v_hat[k], "prior": ps.eta_v}
                       for k in range(measured.size)]

        def median(column):
            return _aggregate(r[column] for r in rows)["median"]
        summary.append({
            "config_hash": chash, "pv": pv,
            "median_sse_input_truth": median("sse_input_truth"),
            "median_sse_input_measured": median("sse_input_measured"),
            "median_sse_state_truth": median("sse_state_truth"),
            "median_abs_dev_from_prior": median("mean_abs_dev_from_prior"),
        })
    report.add("per_seed_sse", per_seed,
               "input/state SSE per (seed, prior precision)")
    report.add("sse_vs_pv", summary, "median SSE versus prior precision")
    report.add("input_traces", traces,
               "input-estimate traces for the first seed")
    return report


def run_noise_characterization(cfg: ExperimentConfig) -> ExperimentReport:
    """Residual-noise statistics, Gaussianity, and autocorrelation per regime."""
    model = build_model(cfg)
    report = _new_report(cfg)
    chash = report.config_hash
    channel_names = ("w_phi", "w_phidot")
    std_rows, per_seed_rows, fit_rows = [], [], []
    for variant in cfg.noise_variants:
        t0 = time.perf_counter()
        stds = {"phi": [], "phidot": [], "w_phi": [], "w_phidot": []}
        first_residuals = None
        for seed in cfg.seeds:
            data, _ = synthesize_record(cfg, seed, model, variant=variant)
            residuals = residual_process_noise(model, data)
            if first_residuals is None:
                first_residuals = residuals
            states = data.truth_states
            row = {"config_hash": chash, "variant": variant.label, "seed": seed,
                   "std_phi": float(states[:, 0].std(ddof=1)),
                   "std_phidot": float(states[:, 1].std(ddof=1)),
                   "std_w_phi": float(residuals[:, 0].std(ddof=1)),
                   "std_w_phidot": float(residuals[:, 1].std(ddof=1))}
            for key in stds:
                stds[key].append(row[f"std_{key}"])
            per_seed_rows.append(row)
        report.runtimes_s[variant.label] = time.perf_counter() - t0
        std_rows.append({"config_hash": chash, "variant": variant.label,
                         **{f"std_{k}": float(np.median(v))
                            for k, v in stds.items()}})

        max_lag = min(60, first_residuals.shape[0] - 2)
        for ch, ch_name in enumerate(channel_names):
            series = first_residuals[:, ch]
            fit = gaussian_fit(series)
            fit_rows.append({"config_hash": chash, "variant": variant.label,
                             "channel": ch_name, "mean": fit.mean,
                             "std": fit.std, "ks_stat": fit.ks_stat,
                             "n": int(series.size)})
            counts, edges = np.histogram(series, bins=30)
            pdf = gaussian_kernel_density(
                0.5 * (edges[:-1] + edges[1:]) - fit.mean, fit.std)
            hist_rows = [{"config_hash": chash, "bin_left": edges[b],
                          "bin_right": edges[b + 1], "count": int(counts[b]),
                          "fitted_pdf_at_center": float(pdf[b])}
                         for b in range(counts.size)]
            report.add(f"histogram_{variant.label}_{ch_name}", hist_rows,
                       f"{ch_name} histogram with Gaussian fit ({variant.label})")

            corr = autocorrelation(series, max_lag)
            expected = kernel_autocorrelation(
                np.arange(max_lag + 1) * cfg.run.dt, variant.sigma)
            corr_rows = [{"config_hash": chash, "lag": h,
                          "lag_s": h * cfg.run.dt, "r": float(corr[h]),
                          "expected_r": float(expected[h])}
                         for h in range(max_lag + 1)]
            report.add(f"autocorr_{variant.label}_{ch_name}", corr_rows,
                       f"{ch_name} sample autocorrelation ({variant.label})")

    report.add("std_table", std_rows,
               "median state and residual-noise stds per regime")
    report.add("std_per_seed", per_seed_rows,
               "state and residual-noise stds per seed")
    report.add("gaussian_fit", fit_rows,
               "Gaussian fit and KS statistic per regime/channel")
    return report


RUNNERS = {
    "benchmark_state": run_benchmark_state,
    "sweep_p": run_sweep_p,
    "landscape": run_landscape,
    "input_benchmark": run_input_benchmark,
    "prior_sweep": run_prior_sweep,
    "noise_characterization": run_noise_characterization,
}


def run_experiment(cfg: ExperimentConfig, write: bool = True) -> ExperimentReport:
    report = RUNNERS[cfg.kind](cfg)
    if write:
        write_report(report)
    return report
