"""Experiment orchestration: config-driven data synthesis, estimator runs,
and tidy CSV report emission for each experiment family."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import benchmarks, dem
from .config import ExperimentConfig, NoiseVariant, config_hash
from .errors import ConfigError, DataFormatError, DivergenceError
from .gencoord import embed_series
from .noise import (NoiseSpec, autocorrelation, gaussian_fit,
                    gaussian_kernel_density, generate_colored_noise,
                    kernel_autocorrelation)
from .systems import (DT_JITTER, ExperimentData, LtiModel, _one, discretize,
                      load_flight_log, normalized_pwm, quadrotor_roll_model,
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
    """Tables, aggregates, and the emitted-file manifest of one experiment.
    A table maps each column name, in order, to a 1-D array or sequence."""

    kind: str
    config_hash: str
    output_dir: Path
    tables: dict = field(default_factory=dict)
    descriptions: dict = field(default_factory=dict)
    runtimes_s: dict = field(default_factory=dict)
    diverged: list = field(default_factory=list)
    gain_freeze: dict = field(default_factory=dict)
    observer_growth: dict = field(default_factory=dict)
    passed: bool | None = None

    def files(self) -> list[str]:
        return [f"{name}.csv" for name in self.tables] + ["manifest.json"]

    def add(self, name: str, columns: dict, description: str) -> None:
        self.tables[name] = columns
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


def _formatted(column):
    """A column's CSV cells, by one formatter chosen by its dtype: ``repr``
    of each float, the digits of each int (0 or 1 for a bool). Each
    distinct value is formatted once, keyed on its bits, so ``-0.0`` and
    ``0.0`` keep their own cells and a NaN shares one only with the same
    NaN bits. A list of values of one type is formatted as their array; one
    that holds None or mixes ints and floats keeps ``_fmt``'s rules."""
    if not isinstance(column, np.ndarray) and len(set(map(type, column))) == 1:
        column = np.asarray(column)
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "fbiu":
        return map(_fmt, column)
    bits, where = np.unique(column.view(f"u{column.itemsize}"),
                            return_inverse=True)
    values = bits.view(column.dtype).tolist()
    cells = map(repr, values) if column.dtype.kind == "f" else \
        map(str, map(int, values))
    return np.array(list(cells), dtype=object)[where].tolist()


def _environment() -> dict:
    """The numeric stack whose rounding the CSV bytes depend on: numpy's
    BLAS runs the products and the small solves. scipy's version and BLAS
    are listed only when the run loaded scipy (a filter with two or more
    outputs or the Gaussian fit of the noise study), whose LAPACK then ran
    those steps. ``OPENBLAS_NUM_THREADS`` and ``OPENBLAS_CORETYPE`` choose
    OpenBLAS's kernels and thread split, which also decide bits: their
    values in the environment, null when unset."""
    import os
    import platform
    import sys

    def blas(show_config) -> str:
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "numpy_blas": blas(np.show_config),
           **{name: os.environ.get(name) for name in (
               "OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}}
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        env.update(scipy=scipy.__version__, scipy_blas=blas(scipy.show_config))
    return env


def write_report(report: ExperimentReport) -> None:
    """Write every table as CSV plus a manifest. Each CSV starts with the
    ``config_hash`` column, and a table without rows keeps its header line.
    Only the manifest carries non-reproducible content (wall-clock
    runtimes); the CSVs are byte-deterministic for a fixed config."""
    outdir = Path(report.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in report.tables.items():
        n_rows = len(next(iter(table.values())))
        # Each line break leads its row's config_hash cell, so one join
        # forms a row.
        columns = [repeat("\n" + report.config_hash, n_rows),
                   *map(_formatted, table.values())]
        with open(outdir / f"{name}.csv", "w", newline="") as fh:
            fh.write(",".join(["config_hash", *table]))
            fh.writelines(map(",".join, zip(*columns, strict=True)))
            fh.write("\n")
    manifest = {
        "schema_version": 1,
        "kind": report.kind,
        "config_hash": report.config_hash,
        "files": {f"{name}.csv": report.descriptions.get(name, "")
                  for name in report.tables},
        "passed": report.passed,
        "diverged": report.diverged,
        "gain_freeze": report.gain_freeze,
        "observer_growth": report.observer_growth,
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
    proc = None if np.all(stds == 0) else np.diag(stds ** 2)
    value = cfg.noise.measurement_noise_value
    if value == 0:
        meas = None
    else:
        var = 1.0 / value if cfg.noise.measurement_noise_is_precision else value
        meas = var * np.eye(model.m)
    return proc, meas


def observer_noise_spec(
        cfg: ExperimentConfig, model: LtiModel,
        input_prior_precision: float | None = None) -> NoiseSpec:
    proc_cov, meas_cov = injected_covariances(cfg, model)
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
    return NoiseSpec(
        sigma=cfg.noise.observer_sigma or cfg.noise.sigma,
        proc_precision=proc_prec,
        meas_precision=meas_prec,
        input_prior_precision=pv * np.eye(model.r),
    )


_DEFAULT_FREQS = (0.3, 0.45, 0.6, 0.75)


def input_signal(cfg: ExperimentConfig, seed: int, n_inputs: int) -> np.ndarray:
    """Smooth per-seed pseudo-PWM drive: offset sinusoids with seeded phases."""
    run = cfg.run
    freqs = run.input_frequencies or _DEFAULT_FREQS[:n_inputs]
    rng = np.random.default_rng([seed, 3])
    phases = rng.uniform(0.0, 2.0 * np.pi, n_inputs)
    t = np.arange(run.n_steps) * run.dt
    omega = 2.0 * np.pi * np.asarray(freqs)
    return run.input_offset + run.input_amplitude * np.sin(
        omega * t[:, None] + phases)


class Record(NamedTuple):
    """A seed's record and the process-noise series AR models are fit to."""

    seed: int
    data: ExperimentData
    w_fit: np.ndarray


def synthesize_records(cfg: ExperimentConfig, seeds, model: LtiModel,
                       variant: NoiseVariant | None = None) -> list[Record]:
    """Simulate one record per seed, all in one stacked recursion."""
    run = cfg.run
    proc_cov, meas_cov = injected_covariances(cfg, model, variant)
    sigma = variant.sigma if variant else cfg.noise.sigma

    def noise(stream, cov, dim):
        """Every seed's series of one noise stream, in one call."""
        if cov is None:
            return np.zeros((len(seeds), run.n_steps, dim))
        return generate_colored_noise([[seed, stream] for seed in seeds],
                                      sigma, cov, run.n_steps, run.dt)

    w = noise(1, proc_cov, model.n)
    z = noise(2, meas_cov, model.m)
    v = np.stack([input_signal(cfg, seed, model.r) for seed in seeds])
    datas = simulate(model, run.dt, run.n_steps, v, w, z)
    return [Record(*rec) for rec in zip(seeds, datas, w)]


def synthesize_record(cfg: ExperimentConfig, seed: int, model: LtiModel):
    """Simulate one record; returns (data, injected process-noise series)."""
    _, data, w = synthesize_records(cfg, [seed], model)[0]
    return data, w


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


def log_record(cfg: ExperimentConfig, model: LtiModel) -> Record:
    """The record of a log-backed run, under its one seed."""
    log = load_flight_log(cfg.run.log_path)
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
    # The AR fits take the log's n_steps - 1 process-noise residuals.
    if cfg.kind == "benchmark_state" and log.n_steps - 1 <= 2 * SA_AR_ORDER:
        raise DataFormatError(
            f"{cfg.run.log_path}: {log.n_steps} rows give {log.n_steps - 1} "
            f"process-noise residuals; the AR({SA_AR_ORDER}) fit of "
            f"state augmentation needs more than {2 * SA_AR_ORDER}")
    if cfg.run.skip_steps >= log.n_steps:
        raise DataFormatError(
            f"{cfg.run.log_path}: run.transient_skip_s="
            f"{cfg.run.transient_skip_s:g} skips all {log.n_steps} steps")
    # Only the plant's channels are normalized: an unused one may be flat.
    inputs, scales = log.inputs[:, :model.r], None
    if cfg.run.normalize_log_inputs:
        inputs, scales = normalized_pwm(cfg.run.log_path, inputs)
    data = ExperimentData(dt=log.dt, measurements=log.measurements[:, :model.m],
                          inputs=inputs, truth_states=log.truth_states,
                          input_scales=scales)
    full_state = ExperimentData(dt=log.dt, measurements=log.measurements,
                                inputs=inputs, truth_states=log.truth_states)
    return Record(cfg.seeds[0], data,
                  residual_process_noise(_plant_for(model, data), full_state))


def _dem_config(cfg: ExperimentConfig, spec: NoiseSpec, model: LtiModel,
                p: int | None = None,
                eta_v: float | None = None) -> dem.DemConfig:
    p = cfg.dem.p if p is None else p
    eta = cfg.dem.eta_v if eta_v is None else eta_v
    return dem.DemConfig(
        p=p, d=min(cfg.dem.d, p), noise=spec,
        eta_v=np.full(model.r, eta),
        learning_rate=cfg.dem.learning_rate,
    )


def _aggregate(grid) -> dict:
    """Summary statistics of each row of an (axis x record) grid, over its
    cells that are not None: a column per statistic, a cell per row."""
    stats = {"n_runs": [], "median": [], "iqr": [], "mean": [], "std": []}
    for row in grid:
        arr = np.asarray([v for v in row if v is not None], dtype=float)
        if arr.size == 0:
            values = (0, None, None, None, None)
        else:
            q1, q3 = np.percentile(arr, [25.0, 75.0])
            values = (int(arr.size), float(np.median(arr)), float(q3 - q1),
                      float(arr.mean()),
                      float(arr.std(ddof=1)) if arr.size > 1 else 0.0)
        for column, value in zip(stats.values(), values):
            column.append(value)
    return stats


# ---------------------------------------------------------------------------
# The replay grid: four families replay every record at each point of an
# axis (estimators, embedding orders or prior precisions) and only differ in
# their axis and in how a replay is scored.


def _grid(cfg: ExperimentConfig):
    """Report, plant and records (one per seed) of a grid family or the
    landscape."""
    model = build_model(cfg)
    if cfg.run.log_path is None:
        records = synthesize_records(cfg, cfg.seeds, model)
    else:
        records = [log_record(cfg, model)]
    # A log-backed config has one seed, so one record sets the plant.
    return _new_report(cfg), _plant_for(model, records[0].data), records


def _sweep_labels(cfg: ExperimentConfig) -> list[str]:
    """Label of each axis point of a ``sweep_p`` (``dem_p2``) or
    ``prior_sweep`` (``pv10000``) run: its key in ``runtimes_s`` and
    ``observer_growth``."""
    if cfg.kind == "sweep_p":
        return [f"dem_p{p}" for p in cfg.sweep.p_values]
    return [f"pv{pv:g}" for pv in cfg.prior_sweep.pv_grid]


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


def _score(cells: list, references: list, column: int, skip: int) -> list:
    """Grid of the SSE of each cell against ``reference[:, column]`` of its
    record; None where the replay diverged or there is no reference."""
    return [[None if est is None or ref is None else
             benchmarks.sse(est, ref[:, column], skip=skip)
             for est, ref in zip(row, references)] for row in cells]


def _per_seed(records: list[Record], axis_name: str, axis_values,
              scores: dict, by_record: bool = False) -> dict:
    """Table of an (axis x record) grid family: ``seed`` and ``axis_name``
    columns, then one per grid of ``scores``. The rows run axis point by
    axis point, or with ``by_record`` record by record."""
    grids = {"seed": [[rec.seed for rec in records]] * len(axis_values),
             axis_name: [[value] * len(records) for value in axis_values],
             **scores}
    if by_record:
        grids = {name: list(zip(*grid)) for name, grid in grids.items()}
    return {name: [cell for row in grid for cell in row]
            for name, grid in grids.items()}


def _cells(results: list, pick) -> list:
    """``pick(result)`` of each result; a ``DivergenceError`` passes
    through."""
    return [res if isinstance(res, DivergenceError) else pick(res)
            for res in results]


def _observer(report: ExperimentReport, label: str,
              matrices: dem.ObserverMatrices, columns, pick,
              known_inputs: bool = False, embeddings: dict | None = None):
    """Grid estimate: ``pick`` of the observer's estimate ``columns`` of
    each record; all records replay in one batch. Notes the growth of the
    replayed transition under ``label`` in ``report``."""
    def estimate(records: list[Record]) -> list:
        data = records[0].data
        report.observer_growth[label] = dem.replay_growth(
            matrices, data.dt, data.n_steps, known_inputs)
        return _cells(dem.run_observer_batch(
            matrices, [rec.data for rec in records], known_inputs,
            keep=columns, embeddings=embeddings), pick)
    return estimate


def _observer_rate(report: ExperimentReport, label: str, model: LtiModel,
                   dem_cfg: dem.DemConfig, embeddings: dict | None = None):
    """Axis point ``(label, estimate)``: the observer's roll rate, inputs
    known."""
    return label, _observer(report, label,
                            dem.assemble_observer(model, dem_cfg),
                            slice(1, 2), lambda cols: cols[:, 0].copy(),
                            known_inputs=True, embeddings=embeddings)


def _gain_freeze(results: list) -> list | None:
    """Manifest entry of a filter's replay: per record, the step its gain
    froze at, from which only the means were replayed (None for a record
    that diverged or did not freeze); None if no record froze."""
    steps = [None if isinstance(res, DivergenceError) else res.freeze
             for res in results]
    return None if steps.count(None) == len(steps) else steps


def _state_estimators(cfg: ExperimentConfig, model: LtiModel,
                      report: ExperimentReport) -> list:
    """The shoot-out axis: each estimator's roll rate, inputs known. The
    three filters replay all records of the axis point in one batch, and
    note their gain freeze steps in ``report``."""
    spec = observer_noise_spec(cfg, model)
    q, r = benchmarks.default_noise_matrices(spec, cfg.run.dt)

    def roll_rates(label, results):
        report.gain_freeze[label] = _gain_freeze(results)
        return _cells(results, lambda res: res.means[:, 1].copy())

    def kalman(records):
        ad, bd = discretize(model, records[0].data.dt)
        return roll_rates("kalman", benchmarks.kalman_filter_batch(
            ad, bd, model.c, q, r, [rec.data for rec in records]))

    def fits(records, order):
        """Each record's per-channel AR fits, from one stacked fit_ar."""
        flat = benchmarks.fit_ar(
            np.concatenate([rec.w_fit.T for rec in records]), order)
        return [flat[i:i + model.n] for i in range(0, len(flat), model.n)]

    def state_augmentation(records):
        return roll_rates(
            "state_augmentation", benchmarks.state_augmentation_filter_batch(
                model, fits(records, SA_AR_ORDER),
                [rec.data for rec in records], q, r))

    def smikf(records):
        coeffs = [[float(np.clip(ar.coefficients[0], -AR1_CLAMP, AR1_CLAMP))
                   for ar in ars] for ars in fits(records, 1)]
        return roll_rates("smikf", benchmarks.smikf_batch(
            model, coeffs, [rec.data for rec in records], q, r))

    return [_observer_rate(report, "dem", model,
                           _dem_config(cfg, spec, model)),
            ("kalman", kalman), ("state_augmentation", state_augmentation),
            ("smikf", smikf)]


def _rate_scores(cfg: ExperimentConfig, records: list[Record],
                 cells: list) -> tuple[list, list]:
    """SSE grids of the roll-rate cells against the ground truth and
    against the embedded reference.

    A truth cell is None for a record without ground truth, and both are
    None for a diverged replay. The references are computed once per
    record, for every axis point.
    """
    skip = cfg.run.skip_steps
    # phidot is not directly measured; a low-order embedding of phi acts as
    # the derivative pseudo-measurement reference.
    embedded = [embed_series(rec.data.measurements[:, 0], cfg.run.dt,
                             RATE_REFERENCE_ORDER) for rec in records]
    return (_score(cells, [rec.data.truth_states for rec in records], 1,
                   skip),
            _score(cells, embedded, 1, skip))


# ---------------------------------------------------------------------------
# Experiment families


def run_benchmark_state(cfg: ExperimentConfig) -> ExperimentReport:
    """Roll-rate estimation shoot-out: observer vs KF, SA(AR-6), SMIKF(AR-1)."""
    report, model, records = _grid(cfg)
    axis = _state_estimators(cfg, model, report)
    names = [name for name, _ in axis]
    cells = _replay(report, records, axis)
    truth, embedded = _rate_scores(cfg, records, cells)
    diverged = [[cell is None for cell in row] for row in cells]
    report.add("per_seed_sse", _per_seed(records, "estimator", names, {
        "sse_phidot_truth": truth, "sse_phidot_embedded": embedded,
        "diverged": diverged}, by_record=True),
        "roll-rate SSE per (seed, estimator)")
    agg_t, agg_e = _aggregate(truth), _aggregate(embedded)
    report.add("aggregate_sse", {
        "estimator": names, "n_runs": agg_e["n_runs"],
        "n_diverged": [sum(row) for row in diverged],
        "median_sse_truth": agg_t["median"], "iqr_sse_truth": agg_t["iqr"],
        "mean_sse_truth": agg_t["mean"], "std_sse_truth": agg_t["std"],
        "median_sse_embedded": agg_e["median"],
        "iqr_sse_embedded": agg_e["iqr"]},
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
        _observer_rate(report, label, model,
                       _dem_config(cfg, spec, model, p=p), inputs)
        for label, p in zip(_sweep_labels(cfg), p_values)])
    truth, embedded = _rate_scores(cfg, records, cells)
    report.add("per_seed_sse", _per_seed(records, "p", p_values, {
        "sse_truth": truth, "sse_embedded": embedded,
        "diverged": [[cell is None for cell in row] for row in cells]}),
        "roll-rate SSE per (seed, embedding order)")
    agg = _aggregate([t if any(v is not None for v in t) else e
                      for t, e in zip(truth, embedded)])
    report.add("sweep_summary", {
        "p": p_values, "n_runs": agg["n_runs"], "mean_sse": agg["mean"],
        "std_sse": agg["std"], "median_sse": agg["median"]},
        "SSE statistics per embedding order")
    return report


def run_landscape(cfg: ExperimentConfig) -> ExperimentReport:
    """Probe the free-energy surface around the converged estimate."""
    report, model, (record,) = _grid(cfg)
    data = record.data
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
    report.observer_growth["landscape"] = dem.replay_growth(
        matrices, data.dt, data.n_steps)
    y_gen_series = dem.embed_records([data], "measurements", dem_cfg.p,
                                     embeddings)[0]

    rng = np.random.default_rng([record.seed, 4])
    directions = rng.standard_normal((ls.n_perturbations, matrices.total_dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    directions = directions / np.where(norms == 0, 1.0, norms)

    probe_steps = np.unique(np.linspace(skip, data.n_steps - 1,
                                        ls.n_probe_times).astype(int))
    results = [dem.free_energy_landscape(
        matrices, estimates[step], y_gen_series[step], matrices.eta_gen,
        directions, [ls.magnitude], slack=ls.slack) for step in probe_steps]
    report.runtimes_s["landscape"] = time.perf_counter() - t0
    # (probe time x probe) grid of free energies.
    probes = np.array([res.probe_values[:, 0] for res in results])
    n_probes = directions.shape[0]
    v_estimate = np.array([res.v_at_estimate for res in results])
    max_probe = np.array([res.max_probe for res in results])
    time_s = probe_steps * cfg.run.dt
    report.add("surface", {
        "probe_step": np.repeat(probe_steps, n_probes),
        "time_s": np.repeat(time_s, n_probes),
        "probe_index": np.tile(np.arange(n_probes), probe_steps.size),
        "magnitude": np.full(probes.size, ls.magnitude),
        "v_estimate": np.repeat(v_estimate, n_probes),
        "v_probe": probes.ravel(),
        "delta": (probes - v_estimate[:, None]).ravel()},
        "free energy at perturbed probes around the estimate")
    report.add("summary", {
        "probe_step": probe_steps, "time_s": time_s,
        "n_probes": np.full(probe_steps.size, n_probes),
        "v_estimate": v_estimate, "max_probe": max_probe,
        "max_delta": max_probe - v_estimate,
        "passed": np.array([res.passed for res in results])},
        "per-probe-time maximality check")
    report.passed = all(res.passed for res in results)
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
    axis = [("dem", _observer(report, "dem", matrices, slice(sd, sd + 1),
                              lambda cols: cols[:, 0].copy())),
            ("uio", lambda recs: _cells(benchmarks.uio_batch(
                model, [rec.data for rec in recs], poles=poles),
                lambda res: res.inputs[:, 0].copy()))]
    names = [name for name, _ in axis]
    cells = _replay(report, records, axis)
    skip = cfg.run.skip_steps
    measured = _score(cells, [rec.data.inputs for rec in records], 0, skip)
    report.add("per_seed_input_sse", _per_seed(records, "estimator", names, {
        "sse_input_measured": measured,
        "sse_input_truth": _score(
            cells, [rec.data.truth_inputs for rec in records], 0, skip),
        "diverged": [[cell is None for cell in row] for row in cells]},
        by_record=True),
        "input-estimate SSE per (seed, estimator)")
    agg = _aggregate(measured)
    report.add("aggregate_input_sse", {
        "estimator": names, "n_runs": agg["n_runs"],
        "median_sse_input": agg["median"], "iqr_sse_input": agg["iqr"],
        "mean_sse_input": agg["mean"]}, "per-estimator input SSE aggregates")
    # The first record's traces, none if either of its replays diverged.
    v_dem, v_uio = (row[0] for row in cells)
    if v_dem is None or v_uio is None:
        v_dem = v_uio = np.empty(0)
    step = np.arange(v_dem.size)
    report.add("input_traces", {
        "seed": np.full(step.size, records[0].seed), "step": step,
        "time_s": step * cfg.run.dt,
        "v_measured": records[0].data.inputs[:step.size, 0],
        "v_dem": v_dem, "v_uio": v_uio},
        "input-estimate traces for the first seed")
    return report


def run_prior_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Accuracy/complexity trade-off as the input-prior precision varies."""
    report, model, records = _grid(cfg)
    ps = cfg.prior_sweep
    # Every prior precision replays the same records at the same order.
    embeddings = {}

    def observer(label, pv):
        spec = observer_noise_spec(cfg, model, input_prior_precision=pv)
        matrices = dem.assemble_observer(
            model, _dem_config(cfg, spec, model, eta_v=ps.eta_v))
        # The roll rate (column 1) and the input (column state_dim).
        sd = matrices.state_dim
        return label, _observer(
            report, label, matrices, slice(1, sd + 1, sd - 1),
            lambda cols: (cols[:, 1].copy(), cols[:, 0].copy()),
            embeddings=embeddings)

    cells = _replay(report, records, list(
        map(observer, _sweep_labels(cfg), ps.pv_grid)))
    skip = cfg.run.skip_steps
    v_hat, rate = ([[None if cell is None else cell[j] for cell in row]
                    for row in cells] for j in (0, 1))
    scores = {
        "sse_input_measured": _score(
            v_hat, [rec.data.inputs for rec in records], 0, skip),
        "sse_input_truth": _score(
            v_hat, [rec.data.truth_inputs for rec in records], 0, skip),
        "sse_state_truth": _score(
            rate, [rec.data.truth_states for rec in records], 1, skip),
        "mean_abs_dev_from_prior": [
            [None if v is None else float(np.mean(np.abs(v[skip:] - ps.eta_v)))
             for v in row] for row in v_hat]}
    report.add("per_seed_sse", _per_seed(records, "pv", ps.pv_grid, scores),
               "input/state SSE per (seed, prior precision)")
    median = {name: _aggregate(grid)["median"]
              for name, grid in scores.items()}
    report.add("sse_vs_pv", {
        "pv": ps.pv_grid,
        "median_sse_input_truth": median["sse_input_truth"],
        "median_sse_input_measured": median["sse_input_measured"],
        "median_sse_state_truth": median["sse_state_truth"],
        "median_abs_dev_from_prior": median["mean_abs_dev_from_prior"]},
        "median SSE versus prior precision")
    # The first record's input traces at every precision where it ran.
    traced = [(pv, row[0]) for pv, row in zip(ps.pv_grid, v_hat)
              if row[0] is not None]
    measured = records[0].data.inputs[:, 0]
    step = np.tile(np.arange(measured.size), len(traced))
    report.add("input_traces", {
        "pv": [pv for pv, _ in traced for _ in range(measured.size)],
        "step": step, "time_s": step * cfg.run.dt,
        "v_measured": np.tile(measured, len(traced)),
        "v_hat": np.array([v for _, v in traced]).ravel(),
        "prior": np.full(step.size, ps.eta_v)},
        "input-estimate traces for the first seed")
    return report


def run_noise_characterization(cfg: ExperimentConfig) -> ExperimentReport:
    """Residual-noise statistics, Gaussianity, and autocorrelation per regime."""
    model = build_model(cfg)
    report = _new_report(cfg)
    channel_names = ("w_phi", "w_phidot")
    labels = [variant.label for variant in cfg.noise_variants]
    # (variant x record) grids of the std of each state and residual.
    stds = {f"std_{name}": [] for name in ("phi", "phidot", *channel_names)}
    fits = []  # (mean, std, ks_stat, n) per (variant, channel)
    for variant in cfg.noise_variants:
        t0 = time.perf_counter()
        records = synthesize_records(cfg, cfg.seeds, model, variant)
        residuals = [residual_process_noise(model, rec.data)
                     for rec in records]
        states = [rec.data.truth_states for rec in records]
        for grid, series, ch in zip(stds.values(), (states, states, residuals,
                                                    residuals), (0, 1, 0, 1)):
            grid.append([float(x[:, ch].std(ddof=1)) for x in series])
        report.runtimes_s[variant.label] = time.perf_counter() - t0

        first = residuals[0]
        max_lag = min(60, first.shape[0] - 2)
        lag = np.arange(max_lag + 1)
        for ch, ch_name in enumerate(channel_names):
            series = first[:, ch]
            fit = gaussian_fit(series)
            fits.append((*fit, series.size))
            counts, edges = np.histogram(series, bins=30)
            pdf = gaussian_kernel_density(
                0.5 * (edges[:-1] + edges[1:]) - fit.mean, fit.std)
            report.add(f"histogram_{variant.label}_{ch_name}", {
                "bin_left": edges[:-1], "bin_right": edges[1:],
                "count": counts, "fitted_pdf_at_center": pdf},
                f"{ch_name} histogram with Gaussian fit ({variant.label})")
            report.add(f"autocorr_{variant.label}_{ch_name}", {
                "lag": lag, "lag_s": lag * cfg.run.dt,
                "r": autocorrelation(series, max_lag),
                "expected_r": kernel_autocorrelation(lag * cfg.run.dt,
                                                     variant.sigma)},
                f"{ch_name} sample autocorrelation ({variant.label})")

    report.add("std_table", {"variant": labels, **{
        name: _aggregate(grid)["median"] for name, grid in stds.items()}},
        "median state and residual-noise stds per regime")
    report.add("std_per_seed", {
        "variant": [label for label in labels for _ in cfg.seeds],
        "seed": list(cfg.seeds) * len(labels),
        **{name: sum(grid, []) for name, grid in stds.items()}},
        "state and residual-noise stds per seed")
    report.add("gaussian_fit", {
        "variant": [label for label in labels for _ in channel_names],
        "channel": list(channel_names) * len(labels),
        **{name: [fit[i] for fit in fits]
           for i, name in enumerate(("mean", "std", "ks_stat", "n"))}},
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
    """Run ``cfg``'s experiment and, with ``write``, write its report. The
    output directory is made first, so that one that cannot be made is a
    ConfigError before any replay (it then stays made if the run fails)."""
    if write:
        try:
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"output_dir: cannot create it: {exc}") from None
    report = RUNNERS[cfg.kind](cfg)
    # Every design of a run takes dem.learning_rate, set or left to default.
    for growth in report.observer_growth.values():
        growth["learning_rate_defaulted"] = cfg.dem.learning_rate is None
    if write:
        write_report(report)
    return report
