import csv
import json
from pathlib import Path

import numpy as np
import pytest

from demest.cli import main as cli_main
from demest.config import (ExperimentConfig, config_hash, load_config_file,
                           parse_config, serialize_config)
from demest import dem
from demest.errors import ConfigError, DataFormatError, DivergenceError
from demest.harness import run_experiment
from demest.systems import ExperimentData, save_flight_log

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_NOISE = {
    "sigma": 0.0498,
    "process_noise_std": [0.005, 2.0],
    "measurement_noise_value": 1e-06,
    "observer_sigma": 0.0166,
}


def small_config(kind="benchmark_state", **overrides) -> dict:
    raw = {
        "schema_version": 1,
        "kind": kind,
        "output_dir": "unused",
        "seeds": [1, 2, 3],
        "noise": dict(SMALL_NOISE),
        "dem": {"p": 4, "d": 2, "learning_rate": 1.0, "eta_v": 0.0},
        "run": {"dt": 0.0083, "n_steps": 400, "transient_skip_s": 0.5},
    }
    raw.update(overrides)
    return raw


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_missing_seeds_named(self):
        raw = small_config()
        del raw["seeds"]
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(raw)

    def test_bad_kind_named(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(small_config(kind="nonsense"))

    def test_unknown_field_rejected(self):
        raw = small_config()
        raw["extra_field"] = 1
        with pytest.raises(ConfigError, match="extra_field"):
            parse_config(raw)

    def test_unknown_nested_field_rejected(self):
        raw = small_config()
        raw["dem"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="dem.momentum"):
            parse_config(raw)

    def test_log_backed_config_takes_one_seed(self):
        raw = small_config()
        raw["run"]["log_path"] = "flight.csv"
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(raw)
        raw["seeds"] = [1]
        assert parse_config(raw).seeds == (1,)

    def test_sweep_kind_requires_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(small_config(kind="sweep_p"))

    def test_zero_noise_requires_observer_override(self):
        raw = small_config()
        raw["noise"]["process_noise_std"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="observer_process_precision"):
            parse_config(raw)

    def test_shipped_configs_round_trip(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 8
        for path in paths:
            cfg = load_config_file(path)
            assert isinstance(cfg, ExperimentConfig)
            rebuilt = parse_config(serialize_config(cfg))
            assert rebuilt == cfg
            assert config_hash(rebuilt) == config_hash(cfg)

    def test_hash_ignores_output_dir(self):
        a = parse_config(small_config())
        b = parse_config(small_config(output_dir="elsewhere"))
        assert config_hash(a) == config_hash(b)
        c = parse_config(small_config(seeds=[4]))
        assert config_hash(a) != config_hash(c)


@pytest.fixture(scope="module")
def bench_report(tmp_path_factory):
    raw = small_config(output_dir=str(tmp_path_factory.mktemp("bench")))
    return run_experiment(parse_config(raw))


@pytest.fixture(scope="module")
def noisechar_report(tmp_path_factory):
    cfg = load_config_file(CONFIG_DIR / "noise_characterization.json")
    raw = serialize_config(cfg)
    raw["output_dir"] = str(tmp_path_factory.mktemp("noisechar"))
    raw["seeds"] = [1, 2, 3]
    return run_experiment(parse_config(raw))


class TestBenchmarkStateExperiment:
    @pytest.fixture
    def report(self, bench_report):
        return bench_report

    def test_row_keys(self, report):
        rows = report.tables["per_seed_sse"]
        assert len(rows) == 3 * 4
        for row in rows:
            assert row["config_hash"] == report.config_hash
            assert row["estimator"] in ("dem", "kalman",
                                        "state_augmentation", "smikf")
            assert row["seed"] in (1, 2, 3)

    def test_aggregates_match_recomputation(self, report):
        per_seed = report.tables["per_seed_sse"]
        for agg in report.tables["aggregate_sse"]:
            values = [row["sse_phidot_truth"] for row in per_seed
                      if row["estimator"] == agg["estimator"]
                      and not row["diverged"]]
            assert agg["median_sse_truth"] == pytest.approx(
                float(np.median(values)), abs=1e-12)
            assert agg["n_runs"] == len(values)

    def test_files_written(self, report):
        outdir = Path(report.output_dir)
        assert (outdir / "per_seed_sse.csv").exists()
        assert (outdir / "aggregate_sse.csv").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config_hash"] == report.config_hash
        assert set(manifest["files"]) == {"per_seed_sse.csv",
                                          "aggregate_sse.csv"}


class TestLogBackedExperiment:
    def _log_config(self, tmp_path, dt):
        rng = np.random.default_rng(3)
        n = 400
        t = np.arange(n) * dt
        phi = 0.02 * np.sin(2 * np.pi * 0.5 * t)
        phidot = 0.02 * 2 * np.pi * 0.5 * np.cos(2 * np.pi * 0.5 * t)
        data = ExperimentData(
            dt=dt,
            measurements=np.column_stack([phi, phidot]) +
            1e-4 * rng.standard_normal((n, 2)),
            inputs=0.1 * rng.standard_normal((n, 4)),
        )
        log_path = tmp_path / "flight.csv"
        save_flight_log(log_path, data)
        raw = small_config(output_dir=str(tmp_path / "out"))
        raw["seeds"] = [1]
        raw["run"]["log_path"] = str(log_path)
        return parse_config(raw)

    def test_benchmark_on_flight_log(self, tmp_path):
        report = run_experiment(self._log_config(tmp_path, 0.0083))
        rows = report.tables["per_seed_sse"]
        # no ground truth in the log: only the embedded-derivative reference
        assert all(row["sse_phidot_truth"] is None for row in rows)
        assert all(row["sse_phidot_embedded"] is not None for row in rows
                   if not row["diverged"])

    def test_log_dt_must_match_run_dt(self, tmp_path):
        # A 100 Hz log under run.dt 0.0083: the filters would replay at the
        # log's dt against references built at run.dt.
        with pytest.raises(DataFormatError, match=r"dt=0\.01.*dt=0\.0083"):
            run_experiment(self._log_config(tmp_path, 0.01))


class TestLandscapeExperiment:
    def test_zero_magnitude_deltas_vanish(self, tmp_path):
        raw = small_config(kind="landscape", output_dir=str(tmp_path))
        raw["seeds"] = [1]
        raw["noise"] = {
            "sigma": 0.0498,
            "process_noise_std": [0.0, 0.0],
            "measurement_noise_value": 0.0,
            "observer_sigma": 0.0166,
            "observer_process_precision": [1e6, 1e6],
            "observer_measurement_precision": 1e8,
        }
        raw["landscape"] = {"n_probe_times": 3, "n_perturbations": 5,
                            "magnitude": 0.0, "slack": 1e-8}
        report = run_experiment(parse_config(raw))
        assert report.passed
        for row in report.tables["surface"]:
            assert row["delta"] == 0.0

    def test_noiseless_run_passes(self, tmp_path):
        cfg = load_config_file(CONFIG_DIR / "landscape.json")
        raw = serialize_config(cfg)
        raw["output_dir"] = str(tmp_path)
        raw["landscape"]["n_probe_times"] = 4
        raw["run"]["n_steps"] = 500
        report = run_experiment(parse_config(raw))
        assert report.passed
        assert all(row["passed"] for row in report.tables["summary"])


class TestPriorSweepExperiment:
    def test_pinned_at_high_precision(self, tmp_path):
        cfg = load_config_file(CONFIG_DIR / "prior_sweep.json")
        raw = serialize_config(cfg)
        raw["output_dir"] = str(tmp_path)
        raw["seeds"] = [1, 2]
        raw["run"]["n_steps"] = 400
        raw["prior_sweep"]["pv_grid"] = [1.0, 1e6]
        report = run_experiment(parse_config(raw))
        summary = {row["pv"]: row for row in report.tables["sse_vs_pv"]}
        assert summary[1e6]["median_abs_dev_from_prior"] < 1e-2
        assert summary[1.0]["median_abs_dev_from_prior"] > 0.1

    def test_divergence_leaves_empty_cells(self, tmp_path, monkeypatch):
        assemble_observer = dem.assemble_observer
        run_observer = dem.run_observer
        diverging = []

        def note_pv_10(model, cfg, rate=None):
            m = assemble_observer(model, cfg, rate)
            if cfg.noise.input_prior_precision[0, 0] == 10.0:
                diverging.append(m)
            return m

        def diverge_at_pv_10(m, data, **kwargs):
            if any(m is design for design in diverging):
                raise DivergenceError(5, "non-finite estimate")
            return run_observer(m, data, **kwargs)

        monkeypatch.setattr(dem, "assemble_observer", note_pv_10)
        monkeypatch.setattr(dem, "run_observer", diverge_at_pv_10)
        raw = small_config(kind="prior_sweep", output_dir=str(tmp_path))
        raw["seeds"] = [1, 2]
        raw["prior_sweep"] = {"pv_grid": [1.0, 10.0], "eta_v": 1.0}
        report = run_experiment(parse_config(raw))
        rows = report.tables["per_seed_sse"]
        assert [row["pv"] for row in rows] == [1.0, 1.0, 10.0, 10.0]
        for row in rows:
            cells = [row[c] for c in ("sse_input_measured", "sse_input_truth",
                                      "sse_state_truth",
                                      "mean_abs_dev_from_prior")]
            if row["pv"] == 10.0:
                assert cells == [None] * 4
            else:
                assert None not in cells
        assert [(d["seed"], d["estimator"]) for d in report.diverged] == \
            [(1, "pv10"), (2, "pv10")]
        summary = {row["pv"]: row for row in report.tables["sse_vs_pv"]}
        assert summary[10.0]["median_sse_input_measured"] is None
        assert summary[1.0]["median_sse_input_measured"] is not None
        traces = report.tables["input_traces"]
        assert {row["pv"] for row in traces} == {1.0}
        lines = (tmp_path / "per_seed_sse.csv").read_text().splitlines()
        assert lines[3].endswith(",10.0,,,,")


class TestNoiseCharacterizationExperiment:
    @pytest.fixture
    def report(self, noisechar_report):
        return noisechar_report

    def test_std_table_shape(self, report):
        rows = report.tables["std_table"]
        assert [row["variant"] for row in rows] == ["without_wind",
                                                    "with_wind"]
        for row in rows:
            for col in ("std_phi", "std_phidot", "std_w_phi", "std_w_phidot"):
                assert row[col] > 0

    def test_wind_increases_stds(self, report):
        calm, windy = report.tables["std_table"]
        assert windy["std_w_phi"] > calm["std_w_phi"]
        assert windy["std_w_phidot"] > calm["std_w_phidot"]

    def test_white_variant_autocorrelation_drops(self, report):
        rows = report.tables["autocorr_without_wind_w_phidot"]
        assert rows[0]["r"] == pytest.approx(1.0)
        floor = 3.0 / np.sqrt(1203)
        assert all(abs(row["r"]) < floor for row in rows[1:])

    def test_colored_variant_matches_kernel_curve(self, report):
        rows = report.tables["autocorr_with_wind_w_phidot"]
        for row in rows:
            if row["lag_s"] <= 3 * 0.0498:
                assert row["r"] == pytest.approx(row["expected_r"], abs=0.1)

    def test_gaussian_fits_accepted(self, report):
        for row in report.tables["gaussian_fit"]:
            assert row["ks_stat"] < 1.63 / np.sqrt(row["n"])


class TestCli:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_list_experiments(self, capsys):
        assert cli_main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "benchmark_state" in out and "prior_sweep" in out

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_no_subcommand_exits_one(self):
        assert cli_main([]) == 1

    def test_validate_good_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(small_config()))
        assert cli_main(["validate", str(path)]) == 0

    def test_validate_missing_seeds_exits_one(self, tmp_path, capsys):
        raw = small_config()
        del raw["seeds"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert cli_main(["run", "/nonexistent/cfg.json"]) == 1

    def test_run_small_config(self, tmp_path, capsys):
        raw = small_config(kind="landscape", output_dir=str(tmp_path / "out"))
        raw["seeds"] = [1]
        raw["noise"] = {
            "sigma": 0.0498,
            "process_noise_std": [0.0, 0.0],
            "measurement_noise_value": 0.0,
            "observer_sigma": 0.0166,
            "observer_process_precision": [1e6, 1e6],
            "observer_measurement_precision": 1e8,
        }
        raw["landscape"] = {"n_probe_times": 2, "n_perturbations": 5,
                            "magnitude": 0.1, "slack": 1e-8}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["files"]) == {"surface.csv", "summary.csv"}

    def test_uio_design_failure_exits_two(self, tmp_path, capsys):
        # C = [1, 0] makes rank(C B) < rank(B): the UIO cannot exist
        raw = small_config(kind="input_benchmark",
                           output_dir=str(tmp_path / "out"))
        raw["model"] = {"full_state_output": False, "single_input": True}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert "existence" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_reproduces_csvs_byte_identically(self, tmp_path):
        raw = small_config(output_dir=str(tmp_path / "a"))
        raw["seeds"] = [1, 2]
        raw["run"]["n_steps"] = 300
        run_experiment(parse_config(raw))
        raw["output_dir"] = str(tmp_path / "b")
        run_experiment(parse_config(raw))
        for name in ("per_seed_sse.csv", "aggregate_sse.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_single_seed_rows_reproduce(self, tmp_path):
        raw = small_config(output_dir=str(tmp_path / "full"))
        raw["run"]["n_steps"] = 300
        full = run_experiment(parse_config(raw))
        raw["output_dir"] = str(tmp_path / "one")
        raw["seeds"] = [2]
        single = run_experiment(parse_config(raw))
        full_rows = {(r["seed"], r["estimator"]): r["sse_phidot_truth"]
                     for r in full.tables["per_seed_sse"]}
        for row in single.tables["per_seed_sse"]:
            assert full_rows[(2, row["estimator"])] == row["sse_phidot_truth"]
