"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with -s to see them). Criteria 5-8 execute the shipped
experiment configs end to end."""

import csv
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from demest.benchmarks import (ArModel, kalman_filter, smikf,
                               state_augmentation_filter)
from demest.config import load_config_file, parse_config, serialize_config
from demest.dem import (assemble_observer, error_jacobian, free_energy,
                        prediction_error)
from demest.gencoord import centered_offsets, embed_series
from demest.harness import (_dem_config, build_model, observer_noise_spec,
                            run_experiment, synthesize_record)
from demest.noise import (autocorrelation, generate_colored_noise,
                          kernel_autocorrelation, temporal_precision)
from demest.systems import (ExperimentData, discretize, quadrotor_roll_model,
                            save_flight_log)
from test_dem import free_energy_gradient

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
OUT_DIR = CONFIG_DIR.parent / "out"
FLIGHT_LOG_REFERENCE = CONFIG_DIR.parent / "perfbench" / "reference" / \
    "flight_log"

# Golden bound on regenerated tables, the one perfbench's table check uses.
GOLDEN_RTOL, GOLDEN_ATOL = 1e-8, 1e-12
# landscape's free energies are computed with precisions up to 1e8 and
# temporal weights growing like sigma^-2j, so v_estimate (~ -0.01) moves
# ~5e-8 relative under a ~1e-16 change of the embedding. These columns are
# bounded against the table's scale, 1e-8 * max |max_probe|, instead.
LANDSCAPE_FREE_ENERGY = ("v_estimate", "v_probe", "delta", "max_probe",
                         "max_delta")


def _report(criterion: int, elapsed: float, limit: float, detail: str):
    assert elapsed < limit, f"criterion {criterion} took {elapsed:.1f}s " \
                            f"(limit {limit}s)"
    print(f"ACCEPTANCE {criterion:2d}: PASS [{elapsed:5.1f}s < {limit:g}s] "
          f"{detail}")


def _load(name):
    return load_config_file(CONFIG_DIR / f"{name}.json")


def _run_into(cfg, outdir, **overrides):
    raw = serialize_config(cfg)
    raw["output_dir"] = str(outdir)
    raw.update(overrides)
    return run_experiment(parse_config(raw), write=True)


def test_criterion_01_temporal_precision_golden():
    import mpmath

    start = time.perf_counter()
    for sigma in (0.006, 0.05, 0.5):
        with mpmath.workdps(50):
            s2 = mpmath.mpf(sigma) ** 2
            printed = mpmath.matrix([
                [1, 0, -1 / (2 * s2)],
                [0, 1 / (2 * s2), 0],
                [-1 / (2 * s2), 0, 3 / (4 * s2 ** 2)],
            ])
            inv = printed ** -1
            reference = np.array([[float(inv[i, j]) for j in range(3)]
                                  for i in range(3)])
        result = temporal_precision(sigma, 2)
        assert np.abs(result - reference).max() <= 1e-10, f"sigma={sigma}"
    _report(1, time.perf_counter() - start, 1.0,
            "temporal precision matches the 3x3 golden inverse at 1e-10")


def test_criterion_02_embedding_exactness():
    start = time.perf_counter()
    dt = 0.1
    worst = 0.0
    for p in range(1, 7):
        t = np.array(centered_offsets(p)) * dt
        samples = sum(t ** i for i in range(p + 1))
        # The window's nominal time is its centre row.
        vec = embed_series(samples, dt, p)[math.ceil(p / 2)]
        for j in range(p + 1):
            truth = math.factorial(j)
            worst = max(worst, abs(vec[j] - truth) / truth)
    assert worst <= 1e-8
    _report(2, time.perf_counter() - start, 1.0,
            f"polynomial derivative recovery, worst rel err {worst:.1e}")


def test_criterion_03_observer_assembly_oracle():
    start = time.perf_counter()
    cfg = _load("benchmark_state_windy")
    model = build_model(cfg)
    assert cfg.dem.p == 6 and cfg.dem.d == 2
    m = assemble_observer(model, _dem_config(cfg, observer_noise_spec(cfg, model),
                                             model))
    jac = error_jacobian(m)
    quad = jac.T @ m.precision.matrix @ jac
    assert np.abs(m.curvature - quad).max() <= 1e-10

    rng = np.random.default_rng(2024)
    eta = np.zeros(m.input_dim)
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(m.total_dim)
        y = rng.standard_normal(m.m * (m.p + 1))
        grad = free_energy_gradient(m, x, y, eta)
        delta = 1e-5
        fd = np.empty_like(grad)
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = delta
            v_plus = free_energy(prediction_error(m, x + step, y, eta),
                                 m.precision)
            v_minus = free_energy(prediction_error(m, x - step, y, eta),
                                  m.precision)
            fd[i] = (v_plus - v_minus) / (2.0 * delta)
        scale = max(1.0, np.abs(grad).max())
        worst = max(worst, np.abs(fd - grad).max() / scale)
    assert worst <= 1e-6
    _report(3, time.perf_counter() - start, 5.0,
            f"curvature oracle exact; gradient FD worst rel err {worst:.1e}")


def test_criterion_04_concavity_and_landscape(tmp_path):
    start = time.perf_counter()
    cfg = _load("landscape")
    model = build_model(cfg)
    m = assemble_observer(model, _dem_config(cfg, observer_noise_spec(cfg, model),
                                             model))
    eig_max = float(np.linalg.eigvalsh(-m.curvature)[-1])
    assert eig_max <= 1e-10

    report = _run_into(cfg, tmp_path)
    assert report.passed
    summary = report.tables["summary"]
    assert len(summary["passed"]) == 10
    assert all(n == 100 for n in summary["n_probes"])
    assert all(summary["passed"])
    _report(4, time.perf_counter() - start, 10.0,
            f"max eig(-curvature) = {eig_max:.1e}; estimate tops all probes "
            f"at {len(summary['passed'])} times")


def test_criterion_05_colored_noise_benchmark_ordering(tmp_path):
    start = time.perf_counter()
    windy = _run_into(_load("benchmark_state_windy"), tmp_path / "windy")
    agg = windy.tables["aggregate_sse"]
    med = dict(zip(agg["estimator"], agg["median_sse_truth"]))
    assert med["dem"] < med["state_augmentation"], med
    assert med["state_augmentation"] < med["smikf"], med
    assert med["state_augmentation"] < med["kalman"], med
    assert med["dem"] == min(med.values()), med
    assert not windy.diverged

    calm = _run_into(_load("benchmark_state_calm"), tmp_path / "calm")
    agg = calm.tables["aggregate_sse"]
    med_calm = dict(zip(agg["estimator"], agg["median_sse_truth"]))
    assert med_calm["kalman"] <= med_calm["dem"], med_calm
    _report(5, time.perf_counter() - start, 180.0,
            f"windy medians dem={med['dem']:.3g} < sa="
            f"{med['state_augmentation']:.3g} < smikf/kf; "
            f"calm kf={med_calm['kalman']:.3g} <= dem={med_calm['dem']:.3g}")


def test_criterion_06_embedding_order_trend(tmp_path):
    from scipy.stats import spearmanr

    start = time.perf_counter()
    report = _run_into(_load("sweep_p"), tmp_path)
    summary = report.tables["sweep_summary"]
    p_values, medians = zip(*sorted(zip(summary["p"],
                                        summary["median_sse"])))
    assert list(p_values) == list(range(7))
    rho = spearmanr(range(7), medians).statistic
    assert rho < 0.0
    assert medians[6] < medians[0] / 2.0
    _report(6, time.perf_counter() - start, 180.0,
            f"median SSE falls {medians[0]:.3g} -> {medians[6]:.3g} "
            f"(spearman {rho:.2f})")


def test_criterion_07_input_estimation_parity(tmp_path):
    start = time.perf_counter()
    colored = _run_into(_load("input_benchmark_colored"), tmp_path / "colored")
    agg = colored.tables["aggregate_input_sse"]
    med = dict(zip(agg["estimator"], agg["median_sse_input"]))
    ratio = med["dem"] / med["uio"]
    assert 0.5 <= ratio <= 2.0, med

    clean = _run_into(_load("input_benchmark_noiseless"), tmp_path / "clean")
    per_seed = clean.tables["per_seed_input_sse"]
    for diverged, sse in zip(per_seed["diverged"],
                             per_seed["sse_input_measured"], strict=True):
        assert not diverged
        assert sse < 1e-3, sse
    _report(7, time.perf_counter() - start, 120.0,
            f"colored dem/uio median ratio {ratio:.2f}; noiseless input SSE "
            f"< 1e-3 for every seed and estimator")


def test_criterion_08_accuracy_complexity_sweep(tmp_path):
    from scipy.stats import spearmanr

    start = time.perf_counter()
    cfg = _load("prior_sweep")
    assert len(cfg.prior_sweep.pv_grid) == 9
    assert cfg.prior_sweep.eta_v == 1.0
    report = _run_into(cfg, tmp_path)
    summary = report.tables["sse_vs_pv"]
    grid, sse_truth, deviation = zip(*sorted(zip(
        summary["pv"], summary["median_sse_input_truth"],
        summary["median_abs_dev_from_prior"])))
    rho = spearmanr(grid, sse_truth).statistic
    assert rho > 0.0
    pinned = deviation[-1]
    assert grid[-1] == 1e6
    assert pinned <= 1e-2
    _report(8, time.perf_counter() - start, 120.0,
            f"input SSE rises with prior precision (spearman {rho:.2f}); "
            f"estimate pinned to prior within {pinned:.1e} at 1e6")


def test_criterion_09_noise_model_fidelity():
    start = time.perf_counter()
    sigma, dt, n = 0.05, 0.0083, 100000
    series = generate_colored_noise(77, sigma, np.eye(1), n, dt).ravel()
    max_lag = int(3.0 * sigma / dt)
    sample = autocorrelation(series, max_lag)
    expected = kernel_autocorrelation(np.arange(max_lag + 1) * dt, sigma)
    worst = np.abs(sample - expected).max()
    assert worst <= 0.05

    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    draws = generate_colored_noise(78, sigma, cov, n, dt)
    rel = np.linalg.norm(np.cov(draws.T) - cov) / np.linalg.norm(cov)
    assert rel <= 0.05

    # reduction identities, bitwise
    rng = np.random.default_rng(79)
    model = quadrotor_roll_model(3.4e-3, 1.274e-3)
    steps = 400
    data = ExperimentData(
        dt=dt,
        measurements=rng.standard_normal((steps, 1)) * 0.01,
        inputs=rng.standard_normal((steps, 4)) * 0.1,
    )
    q = np.diag([1e-4, 0.25]) * dt
    r = np.array([[1e-6]])
    ad, bd = discretize(model, dt)
    kf = kalman_filter(ad, bd, model.c, q, r, data)
    sa = state_augmentation_filter(
        model, [ArModel(order=6, coefficients=np.zeros(6),
                        innovation_variance=float(q[i, i]))
                for i in range(2)], data, q, r)
    sm = smikf(model, [0.0, 0.0], data, q, r)
    assert np.array_equal(kf.means, sa.means)
    assert np.array_equal(kf.means, sm.means)
    assert np.array_equal(kf.covariances, sa.covariances)
    assert np.array_equal(kf.covariances, sm.covariances)
    _report(9, time.perf_counter() - start, 30.0,
            f"autocorrelation within {worst:.3f} of the kernel curve; "
            f"covariance within {rel:.1%}; reductions bitwise")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _golden_mismatches(committed, outdir):
    """Where the tables in ``outdir`` leave the committed ones in
    ``committed`` (``out/<name>/``, or a perfbench reference).

    The header, row count, ``config_hash`` and non-numeric cells must match
    exactly; numbers within the golden bound.
    """
    name = committed.name
    tables = sorted(p.name for p in committed.glob("*.csv"))
    produced = sorted(p.name for p in outdir.glob("*.csv"))
    if produced != tables:
        return [f"{name}: tables {produced} != committed {tables}"]
    atol = {}
    if name == "landscape":
        summary = _read_csv(committed / "summary.csv")
        col = summary[0].index("max_probe")
        scale = max(abs(float(row[col])) for row in summary[1:])
        atol = dict.fromkeys(LANDSCAPE_FREE_ENERGY, 1e-8 * scale)
    problems = []
    for table in tables:
        got, want = _read_csv(outdir / table), _read_csv(committed / table)
        if got[:1] != want[:1] or len(got) != len(want):
            problems.append(f"{name}/{table}: header or row count differs")
            continue
        for i, (row, ref) in enumerate(zip(got[1:], want[1:]), start=1):
            if len(row) != len(ref):
                problems.append(f"{name}/{table} row {i}: cell count differs")
                continue
            for col, a, b in zip(want[0], row, ref):
                if a == b:
                    continue
                try:
                    x, y = float(a), float(b)
                except ValueError:
                    x = y = None
                if col == "config_hash" or x is None or not abs(x - y) <= \
                        atol.get(col, GOLDEN_ATOL) + GOLDEN_RTOL * abs(y):
                    problems.append(f"{name}/{table} row {i} column {col}: "
                                    f"{a} != committed {b}")
    return problems


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    names = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))
    for name in names:
        cfg = _load(name)
        a = tmp_path / name / "a"
        b = tmp_path / name / "b"
        _run_into(cfg, a)
        _run_into(cfg, b)
        csvs = sorted(p.name for p in a.glob("*.csv"))
        assert csvs, name
        for csv_name in csvs:
            if (a / csv_name).read_bytes() != (b / csv_name).read_bytes():
                pytest.fail(f"{name}/{csv_name} differs between reruns")
        # Every shipped config is golden-checked, not only those that
        # happen to have tables committed.
        assert (OUT_DIR / name).is_dir(), f"{name}: no committed out/ tables"
        problems = _golden_mismatches(OUT_DIR / name, a)
        if problems:
            pytest.fail("\n".join(problems[:10]))
    _report(10, time.perf_counter() - start, 600.0,
            f"all {len(names)} shipped configs reproduce their CSVs "
            f"byte-identically and match the committed out/ tables")


def test_flight_log_shoot_out_matches_its_reference(tmp_path, monkeypatch):
    # The windy shoot-out on the seed-1, 24,080-step flight log, built as
    # perfbench's flight_log workload builds it. Its 2006 chunks take the
    # scan through three levels of chunk ends, which the shipped configs'
    # 100 chunks never reach. The log path is part of the config hash.
    monkeypatch.chdir(tmp_path)
    raw = serialize_config(_load("benchmark_state_windy"))
    raw.update(output_dir="out", seeds=[1])
    raw["run"]["log_path"] = "flight_log.csv"
    cfg = parse_config(raw)
    long_cfg = replace(
        cfg, model=replace(cfg.model, full_state_output=True),
        run=replace(cfg.run, n_steps=24080, log_path=None))
    data, _ = synthesize_record(long_cfg, 1, build_model(long_cfg))
    save_flight_log("flight_log.csv", data)
    run_experiment(cfg, write=True)
    problems = _golden_mismatches(FLIGHT_LOG_REFERENCE, tmp_path / "out")
    assert not problems, "\n".join(problems[:10])
