import csv
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import types
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demest.cli import main as cli_main
from demest.config import (ExperimentConfig, config_hash, load_config_file,
                           parse_config, serialize_config)
from demest import benchmarks, dem, harness
from demest.errors import ConfigError, DataFormatError, DivergenceError
from demest.harness import run_experiment, write_report
from demest.systems import (ExperimentData, LtiModel, load_flight_log,
                            quadrotor_roll_model, save_flight_log, simulate)

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


def windy_at_rate(rate, output_dir) -> dict:
    """The windy shoot-out, two 300-step records, at the observer learning
    rate ``rate``."""
    raw = serialize_config(
        load_config_file(CONFIG_DIR / "benchmark_state_windy.json"))
    raw.update(output_dir=str(output_dir), seeds=[1, 2])
    raw["run"]["n_steps"] = 300
    raw["dem"]["learning_rate"] = rate
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(small_config(seeds=[1, -1]))

    def test_log_backed_config_takes_one_seed(self):
        raw = small_config()
        raw["run"]["log_path"] = "flight.csv"
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(raw)
        raw["seeds"] = [1]
        assert parse_config(raw).seeds == (1,)

    def test_landscape_config_takes_one_seed(self):
        # The landscape probes one record; further seeds would go unread.
        raw = small_config(kind="landscape", landscape={
            "n_probe_times": 2, "n_perturbations": 3, "magnitude": 0.1,
            "slack": 1e-8})
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(raw)
        raw["seeds"] = [2]
        assert parse_config(raw).seeds == (2,)

    def test_order_above_cap_rejected(self, tmp_path, capsys):
        # Caught at config time, not as a ValueError deep inside a run.
        raw = small_config()
        raw["dem"]["p"] = 13
        with pytest.raises(ConfigError, match="dem.p"):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "dem.p" in capsys.readouterr().err

    def test_sweep_needs_steps_past_every_order(self):
        raw = small_config(kind="sweep_p", sweep={"p_values": [2, 6]})
        raw["run"].update(n_steps=6, transient_skip_s=0.0)
        with pytest.raises(ConfigError, match="run.n_steps"):
            parse_config(raw)
        raw["run"]["n_steps"] = 7
        assert parse_config(raw).sweep.p_values == (2, 6)

    @pytest.mark.parametrize("kind, extra, shortest", [
        ("benchmark_state", {}, 13),
        ("sweep_p", {"sweep": {"p_values": [0, 1]}}, 3)])
    def test_record_too_short_for_its_run_rejected(self, tmp_path, capsys,
                                                   kind, extra, shortest):
        # Caught by validate, not as a ValueError inside the run: state
        # augmentation fits an AR(6) model to more than 12 process-noise
        # samples, and the order-2 rate reference embeds 3.
        raw = small_config(kind=kind, output_dir=str(tmp_path), **extra)
        raw["dem"].update(p=1, d=1)
        raw["run"].update(n_steps=shortest - 1, transient_skip_s=0.0)
        with pytest.raises(ConfigError, match="run.n_steps"):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "run.n_steps" in capsys.readouterr().err
        raw["run"]["n_steps"] = shortest
        report = run_experiment(parse_config(raw), write=False)
        assert not report.diverged

    def test_skip_past_the_record_rejected(self):
        # 0.83 s of 100 steps at 0.0083 s: no step would be scored.
        raw = small_config()
        raw["run"].update(n_steps=100, transient_skip_s=0.83)
        with pytest.raises(ConfigError, match="run.transient_skip_s"):
            parse_config(raw)
        raw["run"]["transient_skip_s"] = 0.82
        assert parse_config(raw).run.skip_steps == 99

    def test_sweep_kind_requires_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(small_config(kind="sweep_p"))

    @pytest.mark.parametrize("kind, field, repeated, distinct, extra", [
        ("prior_sweep", "prior_sweep.pv_grid", [1.0, 1.0000001],
         [1.0, 1.00001], {"eta_v": 1.0}),
        ("sweep_p", "sweep.p_values", [2, 2], [2, 3], {})],
        ids=["pv_grid", "p_values"])
    def test_sweep_values_sharing_a_label_rejected(
            self, tmp_path, capsys, kind, field, repeated, distinct, extra):
        # runtimes_s and observer_growth key each axis point by its label,
        # pv{pv:g} or dem_p{p}: values that share one would keep one entry.
        section, name = field.split(".")
        raw = small_config(kind=kind, output_dir=str(tmp_path),
                           **{section: {name: repeated, **extra}})
        with pytest.raises(ConfigError, match=f"^{field}: "):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert field in capsys.readouterr().err
        raw[section][name] = distinct
        assert len(set(harness._sweep_labels(parse_config(raw)))) == 2

    def test_zero_noise_requires_observer_override(self):
        raw = small_config()
        raw["noise"]["process_noise_std"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="observer_process_precision"):
            parse_config(raw)

    def test_zero_process_noise_rejected_in_a_synthetic_shoot_out(
            self, tmp_path, capsys):
        # State augmentation and SMIKF fit AR models to the injected process
        # noise: caught by validate, not as fit_ar's zero-variance
        # ValueError inside the run. A log-backed run fits its log's
        # residuals instead.
        raw = small_config()
        raw["noise"].update(process_noise_std=[0.0, 0.0],
                            observer_process_precision=1.0)
        with pytest.raises(ConfigError, match="^noise.process_noise_std: "):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "noise.process_noise_std" in capsys.readouterr().err
        raw.update(seeds=[1])
        raw["run"]["log_path"] = "flight.csv"
        assert parse_config(raw).noise.process_noise_std == (0.0, 0.0)

    def test_log_backed_run_takes_any_n_steps(self):
        # Its record is the log's rows, which log_record checks.
        raw = small_config(kind="sweep_p", sweep={"p_values": [2, 6]},
                           seeds=[1])
        raw["run"].update(n_steps=1, log_path="flight.csv")
        assert parse_config(raw).run.n_steps == 1

    # Lists whose length the plant fixes (2 states; 4 inputs, or 1 with
    # model.single_input) are checked at config time, not as a ValueError
    # deep inside a run.
    def test_process_noise_std_per_state(self):
        raw = small_config()
        raw["noise"]["process_noise_std"] = [0.1]
        with pytest.raises(ConfigError, match="noise.process_noise_std"):
            parse_config(raw)

    def test_variant_process_noise_std_per_state(self):
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "noise_characterization.json"))
        raw["noise_variants"][1]["process_noise_std"] = [0.1]
        with pytest.raises(ConfigError,
                           match=r"noise_variants\[1\]\.process_noise_std"):
            parse_config(raw)

    def test_observer_process_precision_per_state(self):
        raw = small_config()
        for ok in ([1e6], [1e6, 2e6], 1e6):
            raw["noise"]["observer_process_precision"] = ok
            parse_config(raw)
        raw["noise"]["observer_process_precision"] = [1, 2, 3]
        with pytest.raises(ConfigError,
                           match="noise.observer_process_precision"):
            parse_config(raw)

    # Values the observer or the noise generator would reject mid-run.
    def test_observer_process_precision_positive(self):
        raw = small_config()
        for bad in ([-1.0, 1.0], 0.0):
            raw["noise"]["observer_process_precision"] = bad
            with pytest.raises(ConfigError,
                               match="noise.observer_process_precision"):
                parse_config(raw)

    def test_observer_measurement_precision_positive(self):
        raw = small_config()
        raw["noise"]["observer_measurement_precision"] = 0.0
        with pytest.raises(ConfigError,
                           match="noise.observer_measurement_precision"):
            parse_config(raw)

    def test_observer_sigma_positive(self):
        raw = small_config()
        raw["noise"]["observer_sigma"] = -0.1
        with pytest.raises(ConfigError, match="noise.observer_sigma"):
            parse_config(raw)

    def test_process_noise_std_all_zero_or_all_positive(self):
        raw = small_config()
        raw["noise"]["process_noise_std"] = [0.0, 7.3]
        with pytest.raises(ConfigError, match="noise.process_noise_std"):
            parse_config(raw)

    def test_variant_process_noise_std_all_zero_or_all_positive(self):
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "noise_characterization.json"))
        raw["noise_variants"][1]["process_noise_std"] = [0.0, 7.3]
        with pytest.raises(ConfigError,
                           match=r"noise_variants\[1\]\.process_noise_std"):
            parse_config(raw)
        raw["noise_variants"][1]["process_noise_std"] = [0.0, 0.0]
        parse_config(raw)

    def test_input_frequencies_per_channel(self):
        raw = small_config()
        raw["run"]["input_frequencies"] = [0.3, 0.45]
        with pytest.raises(ConfigError, match="run.input_frequencies"):
            parse_config(raw)
        raw["model"] = {"single_input": True}
        with pytest.raises(ConfigError, match="run.input_frequencies"):
            parse_config(raw)
        raw["run"]["input_frequencies"] = [0.3]
        assert parse_config(raw).run.input_frequencies == (0.3,)

    def test_noise_characterization_needs_a_fit_of_residuals(self):
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "noise_characterization.json"))
        raw["run"].update(n_steps=30, transient_skip_s=0.0)
        with pytest.raises(ConfigError, match="run.n_steps"):
            parse_config(raw)
        raw["run"]["n_steps"] = 31
        assert parse_config(raw).run.n_steps == 31

    def test_noise_characterization_with_a_log_rejected(self, tmp_path,
                                                        capsys):
        # It synthesizes its records per noise variant: a log would go
        # unread while the run reports on synthetic records.
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "noise_characterization.json"))
        raw.update(seeds=[1], output_dir=str(tmp_path / "out"))
        raw["run"]["log_path"] = "/nonexistent/flight.csv"
        with pytest.raises(ConfigError, match="^run.log_path: "):
            parse_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "run.log_path" in capsys.readouterr().err
        raw["run"]["log_path"] = None
        assert parse_config(raw).run.log_path is None

    def test_uio_poles_per_state(self, tmp_path, capsys):
        raw = small_config(kind="input_benchmark", uio={"poles": [-10.0]})
        with pytest.raises(ConfigError, match="uio.poles"):
            parse_config(raw)
        # A config error, not a failed run.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 1
        assert "uio.poles" in capsys.readouterr().err

    def test_validate_rejects_a_list_of_the_wrong_length(self, tmp_path,
                                                         capsys):
        raw = small_config()
        raw["noise"]["process_noise_std"] = [0.1]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["validate", str(path)]) == 1
        assert "noise.process_noise_std" in capsys.readouterr().err

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


# A config that holds every section, each with valid values, so that every
# field of the schema has a path to put a wrong value at.
def full_config() -> dict:
    variant = {"label": "a", "sigma": 0.05, "process_noise_std": [0.1, 0.2]}
    return small_config(
        model={"i_xx": 3.4e-3, "c_b_phi": 1.274e-3,
               "full_state_output": False, "single_input": False},
        sweep={"p_values": [2]}, prior_sweep={"pv_grid": [1.0], "eta_v": 1.0},
        landscape={"n_probe_times": 2, "n_perturbations": 3,
                   "magnitude": 0.1, "slack": 1e-8},
        uio={"poles": [-10.0, -12.5]},
        noise_variants=[variant, dict(variant, label="b")])


def schema_fields(cls=ExperimentConfig, path=()):
    """(path, options) of every field, where options are its non-None types;
    the fields of a section (also of a list of sections) follow it."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        options = [a for a in typing.get_args(hint) if a is not type(None)] \
            if typing.get_origin(hint) is types.UnionType else [hint]
        yield path + (f.name,), options
        for option in options:
            item = (typing.get_args(option) or (None,))[0]
            if dataclasses.is_dataclass(option):
                yield from schema_fields(option, path + (f.name,))
            elif dataclasses.is_dataclass(item):
                yield from schema_fields(item, path + (f.name, 0))


def dotted(path) -> str:
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}"
    return text.lstrip(".")


def edited(path, *value):
    """full_config() with the field at ``path`` set to ``value``, or removed
    when no value is given."""
    raw = full_config()
    target = raw
    for key in path[:-1]:
        target = target[key]
    if value:
        target[path[-1]] = value[0]
    else:
        target.pop(path[-1], None)
    return raw


# A JSON value of each form, with the field types that take it.
SAMPLES = [(True, {bool}), (2, {int, float}), (1.5, {float}), ("6", {str}),
           ({}, {"object"}), ([], {"list"}), (math.nan, set()),
           (math.inf, set()), (-math.inf, set())]


def forms_taken(hint) -> set:
    if typing.get_origin(hint) is tuple:
        return {"list"}
    return {"object"} if dataclasses.is_dataclass(hint) else {hint}


def assert_rejected(path, value, named):
    with pytest.raises(ConfigError) as exc:
        parse_config(edited(path, value))
    assert str(exc.value).startswith(f"{named}: "), (value, str(exc.value))


class TestConfigTypes:
    """Every field of the schema takes only values of its type."""

    def test_full_config_parses(self):
        cfg = parse_config(full_config())
        assert cfg.noise_variants[1].label == "b"
        assert len(list(schema_fields())) == 48

    @pytest.mark.parametrize("path,options", list(schema_fields()),
                             ids=[dotted(p) for p, _ in schema_fields()])
    def test_wrong_type_names_the_field(self, path, options):
        taken = set().union(*map(forms_taken, options))
        for value, forms in SAMPLES:
            if not forms & taken:
                assert_rejected(path, value, dotted(path))
        for option in options:
            if typing.get_origin(option) is tuple:
                # A list of the wrong items names the first item.
                item = forms_taken(typing.get_args(option)[0])
                for value, forms in SAMPLES:
                    if not forms & item:
                        assert_rejected(path, [value], f"{dotted(path)}[0]")

    @pytest.mark.parametrize("path", [p for p, _ in schema_fields()],
                             ids=dotted)
    def test_null_means_absent(self, path):
        def outcome(raw):
            try:
                return parse_config(raw)
            except ConfigError as exc:
                return str(exc)

        assert outcome(edited(path, None)) == outcome(edited(path))

    def test_missing_required_field_named(self):
        raw = full_config()
        del raw["noise_variants"][1]["label"]
        with pytest.raises(ConfigError, match=r"noise_variants\[1\]\.label"):
            parse_config(raw)

    # One field of the shipped windy config changed: each was an uncaught
    # TypeError, was accepted, or failed only once the run started.
    @pytest.mark.parametrize("section,key,value", [
        ("noise", "process_noise_std", 0.1), ("dem", "p", "6"),
        ("run", "dt", "0.01"), ("noise", "sigma", [1]),
        ("dem", "learning_rate", "fast"), ("run", "n_steps", 1204.5),
        ("model", "single_input", "yes"), ("model", "full_state_output", 1),
        ("run", "transient_skip_s", True), ("run", "dt", math.inf),
        ("dem", "learning_rate", math.inf), ("model", "i_xx", math.inf),
        ("run", "dt", math.nan)])
    def test_windy_field_of_the_wrong_type(self, section, key, value):
        raw = json.loads((CONFIG_DIR / "benchmark_state_windy.json")
                         .read_text())
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            parse_config(raw)

    def test_null_order_and_inertia_take_their_defaults(self):
        raw = json.loads((CONFIG_DIR / "benchmark_state_windy.json")
                         .read_text())
        raw["dem"]["p"] = None
        raw["model"] = {"i_xx": None}
        cfg = parse_config(raw)
        assert cfg.dem.p == 6 and cfg.model.i_xx == 3.4e-3

    def test_scalar_input_frequencies_rejected(self):
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "input_benchmark_colored.json"))
        raw["model"]["single_input"] = True
        raw["run"]["input_frequencies"] = 0.7
        with pytest.raises(ConfigError, match="^run.input_frequencies: "):
            parse_config(raw)

    def test_ints_keep_their_form(self):
        raw = small_config(kind="prior_sweep",
                           prior_sweep={"pv_grid": [1, 10.5]})
        grid = parse_config(raw).prior_sweep.pv_grid
        assert grid == (1, 10.5) and type(grid[0]) is int

    def test_validate_rejects_infinity(self, tmp_path, capsys):
        raw = small_config()
        raw["run"]["dt"] = math.inf
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert "Infinity" in path.read_text()
        assert cli_main(["validate", str(path)]) == 1
        assert "run.dt: must be a finite number" in capsys.readouterr().err


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
        table = report.tables["per_seed_sse"]
        assert len(table["seed"]) == 3 * 4
        assert set(table["estimator"]) <= {"dem", "kalman",
                                           "state_augmentation", "smikf"}
        assert set(table["seed"]) <= {1, 2, 3}
        # write_report adds the config_hash column to every table.
        rows = read_csv(Path(report.output_dir) / "per_seed_sse.csv")
        assert [row["config_hash"] for row in rows] == \
            [report.config_hash] * 12

    def test_aggregates_match_recomputation(self, report):
        per_seed = report.tables["per_seed_sse"]
        agg = report.tables["aggregate_sse"]
        for name, median, n_runs in zip(agg["estimator"],
                                        agg["median_sse_truth"],
                                        agg["n_runs"], strict=True):
            values = [sse for estimator, sse, diverged in zip(
                per_seed["estimator"], per_seed["sse_phidot_truth"],
                per_seed["diverged"]) if estimator == name and not diverged]
            assert median == pytest.approx(float(np.median(values)),
                                           abs=1e-12)
            assert n_runs == len(values)

    def test_files_written(self, report):
        outdir = Path(report.output_dir)
        assert (outdir / "per_seed_sse.csv").exists()
        assert (outdir / "aggregate_sse.csv").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["config_hash"] == report.config_hash
        assert set(manifest["files"]) == {"per_seed_sse.csv",
                                          "aggregate_sse.csv"}


    def test_manifest_records_the_numeric_environment(self, report):
        manifest = json.loads(
            (Path(report.output_dir) / "manifest.json").read_text())
        env = manifest["environment"]
        assert (env["python"], env["numpy"], env["scipy"]) == (
            platform.python_version(), np.__version__, scipy.__version__)
        assert env["numpy_blas"] and env["scipy_blas"]

    def test_manifest_records_the_gain_freeze(self, tmp_path):
        # On the shipped windy config each filter's gain freezes early in
        # the record, and only the means replay from then on: KF's one
        # shared design at one step, SA-AR6 and SMIKF per record.
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "benchmark_state_windy.json"))
        raw["output_dir"] = str(tmp_path)
        report = run_experiment(parse_config(raw))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        freeze = manifest["gain_freeze"]
        assert freeze == report.gain_freeze
        assert set(freeze) == {"kalman", "state_augmentation", "smikf"}
        for steps in freeze.values():
            assert len(steps) == len(raw["seeds"])
            assert all(0 < step < raw["run"]["n_steps"] // 4
                       for step in steps)
        assert len(set(freeze["kalman"])) == 1

    def test_manifest_records_the_observer_growth(self, tmp_path):
        # The shipped roll observer's state block is marginally unstable:
        # spectral radius 1.0000213 a step, a growth of 1.67 over the
        # 24,080-step flight log. The tables do not change.
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "benchmark_state_windy.json"))
        raw["output_dir"] = str(tmp_path)
        report = run_experiment(parse_config(raw))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["observer_growth"] == report.observer_growth
        dem_growth = manifest["observer_growth"]["dem"]
        radius = dem_growth["spectral_radius"]
        assert radius == pytest.approx(1.0000213, abs=1e-7)
        assert dem_growth["growth"] == pytest.approx(
            radius ** raw["run"]["n_steps"], rel=1e-12)
        assert radius ** 24080 == pytest.approx(1.67, abs=0.005)
        # The windy design sets its learning rate; the landscape's defaults.
        assert dem_growth["learning_rate_defaulted"] is False
        raw = serialize_config(load_config_file(CONFIG_DIR / "landscape.json"))
        raw["output_dir"] = str(tmp_path / "landscape")
        raw["run"]["n_steps"] = 200
        raw["landscape"]["n_perturbations"] = 2
        run_experiment(parse_config(raw))
        growth = json.loads((tmp_path / "landscape" / "manifest.json")
                            .read_text())["observer_growth"]["landscape"]
        assert raw["dem"]["learning_rate"] is None
        assert growth["learning_rate_defaulted"] is True

    @pytest.mark.parametrize("kind", ["benchmark_state", "prior_sweep"])
    def test_manifest_records_each_designs_learning_rate(self, tmp_path,
                                                         kind):
        # Defaulted rates, one per design: each observer axis point's growth
        # entry names the rate its design replayed with.
        raw = small_config(kind=kind, output_dir=str(tmp_path), seeds=[1])
        raw["dem"]["learning_rate"] = None
        raw["run"]["n_steps"] = 100
        raw["prior_sweep"] = {"pv_grid": [1.0, 1e4], "eta_v": 1.0} \
            if kind == "prior_sweep" else None
        cfg = parse_config(raw)
        run_experiment(cfg)
        growth = json.loads(
            (tmp_path / "manifest.json").read_text())["observer_growth"]
        model = harness.build_model(cfg)
        designs = {f"pv{pv:g}": harness._dem_config(
            cfg, harness.observer_noise_spec(
                cfg, model, input_prior_precision=pv), model, eta_v=1.0)
            for pv in (1.0, 1e4)} if kind == "prior_sweep" else {
            "dem": harness._dem_config(
                cfg, harness.observer_noise_spec(cfg, model), model)}
        rates = {label: dem.assemble_observer(model, design).rate
                 for label, design in designs.items()}
        assert {label: entry["learning_rate"]
                for label, entry in growth.items()} == rates
        assert len(set(rates.values())) == len(rates)

    def test_one_diverging_record_leaves_one_empty_cell(self, report,
                                                        monkeypatch):
        # Seed 2 gets an inf measurement inside the Kalman batch only: its
        # kalman cell is empty, and every other cell keeps its bits.
        kalman_filter_batch = benchmarks.kalman_filter_batch

        def poisoned(ad, bd, c, q, r, datas):
            ys = datas[1].measurements.copy()
            ys[150, 0] = np.inf
            datas = [datas[0], replace(datas[1], measurements=ys), *datas[2:]]
            return kalman_filter_batch(ad, bd, c, q, r, datas)

        monkeypatch.setattr(benchmarks, "kalman_filter_batch", poisoned)
        raw = small_config(output_dir="unused")
        with np.errstate(invalid="ignore"):
            result = run_experiment(parse_config(raw), write=False)
        assert result.diverged == [{
            "seed": 2, "estimator": "kalman",
            "error": str(DivergenceError(150, "non-finite filter state"))}]
        clean, table = report.tables["per_seed_sse"], \
            result.tables["per_seed_sse"]
        hit = [key == (2, "kalman")
               for key in zip(table["seed"], table["estimator"])]
        i = hit.index(True)
        assert table["diverged"][i]
        assert table["sse_phidot_truth"][i] is None
        assert table["sse_phidot_embedded"][i] is None
        for name, column in table.items():
            assert [c for c, h in zip(column, hit, strict=True) if not h] == \
                [c for c, h in zip(clean[name], hit, strict=True) if not h]
        agg = result.tables["aggregate_sse"]
        k = agg["estimator"].index("kalman")
        assert (agg["n_runs"][k], agg["n_diverged"][k]) == (2, 1)

    def test_non_stationary_ar_fit_leaves_one_empty_cell(self, report,
                                                         monkeypatch):
        # Seed 2's AR models have a unit root: it has no stationary noise
        # covariance, so its state-augmentation cell is empty and the run,
        # every other record included, carries on with its bits.
        sa_batch = benchmarks.state_augmentation_filter_batch

        def unit_root(model, ar_models, datas, q, r):
            with pytest.warns(RuntimeWarning, match="stationarity"):
                ars = [benchmarks.ArModel(1, [1.0], 1.0)] * model.n
            return sa_batch(model, [ar_models[0], ars, *ar_models[2:]],
                            datas, q, r)

        monkeypatch.setattr(benchmarks, "state_augmentation_filter_batch",
                            unit_root)
        result = run_experiment(parse_config(small_config(
            output_dir="unused")), write=False)
        [entry] = result.diverged
        assert (entry["seed"], entry["estimator"]) == (2, "state_augmentation")
        assert entry["error"].startswith(
            "estimator diverged at step 0: no stationary covariance")
        clean, table = report.tables["per_seed_sse"], \
            result.tables["per_seed_sse"]
        hit = [key == (2, "state_augmentation")
               for key in zip(table["seed"], table["estimator"])]
        assert table["sse_phidot_truth"][hit.index(True)] is None
        for name, column in table.items():
            assert [c for c, h in zip(column, hit, strict=True) if not h] == \
                [c for c, h in zip(clean[name], hit, strict=True) if not h]


    def test_one_diverging_observer_record_leaves_one_empty_cell(self):
        # Seed 2 gets an inf measurement: only its observer cell is empty,
        # with the error of its one-record run, and the others keep their
        # bits.
        cfg = parse_config(small_config(output_dir="unused"))
        report, model, records = harness._grid(cfg)
        data = records[1].data
        ys = data.measurements.copy()
        ys[150, 0] = np.inf
        poisoned = list(records)
        poisoned[1] = records[1]._replace(
            data=replace(data, measurements=ys))
        spec = harness.observer_noise_spec(cfg, model)
        dem_cfg = harness._dem_config(cfg, spec, model)
        axis = [harness._observer_rate(report, "dem", model, dem_cfg)]
        with np.errstate(invalid="ignore"):
            cells = harness._replay(report, poisoned, axis)
            with pytest.raises(DivergenceError) as solo:
                dem.run_observer(dem.assemble_observer(model, dem_cfg),
                                 poisoned[1].data, known_inputs=True)
        assert report.diverged == [{"seed": 2, "estimator": "dem",
                                    "error": str(solo.value)}]
        clean = harness._replay(harness._new_report(cfg), records, axis)
        assert cells[0][1] is None
        for i in (0, 2):
            assert np.array_equal(cells[0][i], clean[0][i])


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
        table = report.tables["per_seed_sse"]
        # no ground truth in the log: only the embedded-derivative reference
        assert all(sse is None for sse in table["sse_phidot_truth"])
        assert all(sse is not None for sse, diverged in zip(
            table["sse_phidot_embedded"], table["diverged"]) if not diverged)

    def test_log_dt_must_match_run_dt(self, tmp_path):
        # A 100 Hz log under run.dt 0.0083: the filters would replay at the
        # log's dt against references built at run.dt.
        with pytest.raises(DataFormatError, match=r"dt=0\.01.*dt=0\.0083"):
            run_experiment(self._log_config(tmp_path, 0.01))

    def test_skip_past_the_log_rejected(self, tmp_path):
        # The 400-step log lasts 3.3 s; the config cannot know that.
        cfg = self._log_config(tmp_path, 0.0083)
        cfg = replace(cfg, run=replace(cfg.run, transient_skip_s=100.0))
        with pytest.raises(DataFormatError, match="transient_skip_s"):
            run_experiment(cfg)

    def test_log_shorter_than_the_embedding_rejected(self, tmp_path):
        # Five rows cannot fill the order-6 embedding window of the windy
        # benchmark; the log is the problem, not the observer.
        model = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        rng = np.random.default_rng(4)
        flight = simulate(model, 0.0083, 5, 0.1 * rng.standard_normal((5, 4)),
                          rng.standard_normal((5, 2)),
                          1e-3 * rng.standard_normal((5, 2)))
        log_path = tmp_path / "short.csv"
        save_flight_log(log_path, flight)
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "benchmark_state_windy.json"))
        raw.update(output_dir=str(tmp_path / "out"), seeds=[1])
        raw["run"].update(log_path=str(log_path), transient_skip_s=0.0)
        with pytest.raises(DataFormatError,
                           match=r"short\.csv: 5 rows; embedding order 6"):
            run_experiment(parse_config(raw))

    @pytest.mark.parametrize("n_rows", [13, 14])
    def test_log_too_short_for_the_ar_fit_rejected(self, tmp_path, n_rows):
        # A log of n rows gives n - 1 process-noise residuals, and state
        # augmentation's AR(6) fit needs more than 12 of them.
        model = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        rng = np.random.default_rng(4)
        flight = simulate(model, 0.0083, n_rows,
                          0.1 * rng.standard_normal((n_rows, 4)),
                          rng.standard_normal((n_rows, 2)),
                          1e-3 * rng.standard_normal((n_rows, 2)))
        log_path = tmp_path / "short.csv"
        save_flight_log(log_path, flight)
        raw = serialize_config(
            load_config_file(CONFIG_DIR / "benchmark_state_windy.json"))
        raw.update(output_dir=str(tmp_path / "out"), seeds=[1])
        raw["run"].update(log_path=str(log_path), transient_skip_s=0.0)
        cfg = parse_config(raw)
        if n_rows == 13:
            with pytest.raises(DataFormatError, match=(
                    r"short\.csv: 13 rows give 12 process-noise residuals; "
                    r"the AR\(6\) fit")):
                run_experiment(cfg, write=False)
        else:
            assert run_experiment(cfg, write=False).tables["per_seed_sse"]

    def test_constant_pwm_column_is_a_data_error(self, tmp_path, capsys):
        # Normalizing divides each PWM channel by its range.
        cfg = self._log_config(tmp_path, 0.0083)
        log_path = Path(cfg.run.log_path)
        data = load_flight_log(log_path)
        inputs = data.inputs.copy()
        inputs[:, 0] = 1500.0
        save_flight_log(log_path, replace(data, inputs=inputs))
        raw = serialize_config(cfg)
        raw["run"]["normalize_log_inputs"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {log_path}: column 'pwm1'")

    @pytest.mark.parametrize("flat, refused", [(0, True), (1, False)])
    def test_single_input_normalizes_only_its_channel(self, tmp_path, capsys,
                                                      flat, refused):
        # A single-input plant replays pwm1 alone: a constant pwm1 is a data
        # error, a constant pwm2 is not read, and leaves every table as it
        # is with the pwm2 the log had.
        cfg = self._log_config(tmp_path, 0.0083)
        raw = serialize_config(cfg)
        raw["run"]["normalize_log_inputs"] = True
        raw["model"]["single_input"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 0
        before = (tmp_path / "out" / "per_seed_sse.csv").read_bytes()
        log_path = Path(cfg.run.log_path)
        data = load_flight_log(log_path)
        inputs = data.inputs.copy()
        inputs[:, flat] = 1500.0
        save_flight_log(log_path, replace(data, inputs=inputs))
        capsys.readouterr()
        assert cli_main(["run", str(path)]) == (1 if refused else 0)
        if refused:
            assert capsys.readouterr().err.startswith(
                f"config error: {log_path}: column 'pwm1' is constant")
        else:
            assert (tmp_path / "out" / "per_seed_sse.csv").read_bytes() == \
                before

    def test_normalized_inputs_rescale_the_plant(self, tmp_path):
        # One flight, logged once with raw PWM and normalize_log_inputs on,
        # once with the PWM centred beforehand and the flag off. B is
        # rescaled by the channel spans, so B @ v is the same in both.
        dt, n = 0.0083, 400
        rng = np.random.default_rng(5)
        t = np.arange(n) * dt
        pwm = 1500.0 + 0.01 * rng.standard_normal((n, 4)) + 0.1 * np.sin(
            2 * np.pi * np.outer(t, [0.3, 0.45, 0.6, 0.75])
            + rng.uniform(0.0, 2 * np.pi, 4))
        centred = pwm - pwm.mean(axis=0)
        model = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        flight = simulate(model, dt, n, centred,
                          0.05 * rng.standard_normal((n, 2)),
                          1e-4 * rng.standard_normal((n, 2)))
        sse = {}
        for name, inputs, normalize in (("raw", pwm, True),
                                        ("centred", centred, False)):
            path = tmp_path / f"{name}.csv"
            save_flight_log(path, replace(flight, inputs=inputs))
            raw = small_config(output_dir=str(tmp_path / name), seeds=[1])
            raw["run"].update(log_path=str(path),
                              normalize_log_inputs=normalize)
            report = run_experiment(parse_config(raw), write=False)
            table = report.tables["per_seed_sse"]
            sse[name] = dict(zip(table["estimator"], zip(
                table["sse_phidot_truth"], table["sse_phidot_embedded"])))
        # The observer's clamped input block still moves inside each step,
        # at rates set by the input prior and the curvature in normalized
        # units, so DEM agrees to ~4e-8 (1e-5 without the rescaled B).
        for name, rtol in (("kalman", 1e-9), ("state_augmentation", 1e-9),
                           ("smikf", 1e-9), ("dem", 1e-6)):
            np.testing.assert_allclose(sse["raw"][name], sse["centred"][name],
                                       rtol=rtol, err_msg=name)


class TestSweepPExperiment:
    def test_inputs_are_embedded_once_per_order(self, tmp_path, monkeypatch):
        # Every embedding order p replays the inputs at order min(d, p); the
        # orders share one embedding of each record's inputs per input order.
        embed_series = dem.embed_series
        inputs = []

        def counted(series, dt, order):
            if np.ndim(series) == 2 and np.shape(series)[1] == 4:
                inputs.append(order)
            return embed_series(series, dt, order)

        monkeypatch.setattr(dem, "embed_series", counted)
        raw = small_config(kind="sweep_p", output_dir=str(tmp_path),
                           sweep={"p_values": [0, 1, 2, 3, 4]})
        report = run_experiment(parse_config(raw), write=False)
        assert sorted(inputs) == [0] * 3 + [1] * 3 + [2] * 3
        monkeypatch.setattr(dem, "embed_series", embed_series)
        again = run_experiment(parse_config(raw), write=False).tables
        assert list(report.tables) == list(again)
        for name, table in report.tables.items():
            assert list(table) == list(again[name])
            for column, cells in table.items():
                assert np.array_equal(cells, again[name][column]), column


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
        assert all(delta == 0.0 for delta in report.tables["surface"]["delta"])

    def test_record_is_embedded_once(self, tmp_path, monkeypatch):
        embed_series = dem.embed_series
        calls = []

        def counted(series, dt, order):
            calls.append(order)
            return embed_series(series, dt, order)

        monkeypatch.setattr(dem, "embed_series", counted)
        monkeypatch.setattr(harness, "embed_series", counted)
        raw = small_config(kind="landscape", output_dir=str(tmp_path))
        raw["seeds"] = [1]
        raw["landscape"] = {"n_probe_times": 3, "n_perturbations": 5,
                            "magnitude": 1e-3, "slack": 1e-8}
        run_experiment(parse_config(raw), write=False)
        assert calls == [4]

    def test_noiseless_run_passes(self, tmp_path):
        cfg = load_config_file(CONFIG_DIR / "landscape.json")
        raw = serialize_config(cfg)
        raw["output_dir"] = str(tmp_path)
        raw["landscape"]["n_probe_times"] = 4
        raw["run"]["n_steps"] = 500
        report = run_experiment(parse_config(raw))
        assert report.passed
        assert all(report.tables["summary"]["passed"])


class TestPriorSweepExperiment:
    def test_each_design_is_discretized_once(self, tmp_path, monkeypatch):
        # The replay and the manifest's growth of an axis point share one
        # zero-order hold of its design.
        zero_order_hold = dem.zero_order_hold
        calls = []

        def counted(a, b, dt):
            calls.append(dt)
            return zero_order_hold(a, b, dt)

        monkeypatch.setattr(dem, "zero_order_hold", counted)
        raw = small_config(kind="prior_sweep", output_dir=str(tmp_path))
        raw["prior_sweep"] = {"pv_grid": [1.0, 10.0, 100.0], "eta_v": 1.0}
        report = run_experiment(parse_config(raw), write=False)
        assert len(calls) == 3
        assert len(report.observer_growth) == 3

    def test_pinned_at_high_precision(self, tmp_path):
        cfg = load_config_file(CONFIG_DIR / "prior_sweep.json")
        raw = serialize_config(cfg)
        raw["output_dir"] = str(tmp_path)
        raw["seeds"] = [1, 2]
        raw["run"]["n_steps"] = 400
        raw["prior_sweep"]["pv_grid"] = [1.0, 1e6]
        report = run_experiment(parse_config(raw))
        summary = report.tables["sse_vs_pv"]
        deviation = dict(zip(summary["pv"],
                             summary["median_abs_dev_from_prior"]))
        assert deviation[1e6] < 1e-2
        assert deviation[1.0] > 0.1

    def test_divergence_leaves_empty_cells(self, tmp_path, monkeypatch):
        assemble_observer = dem.assemble_observer
        run_observer_batch = dem.run_observer_batch
        diverging = []

        def note_pv_10(model, cfg, rate=None):
            m = assemble_observer(model, cfg, rate)
            if cfg.noise.input_prior_precision[0, 0] == 10.0:
                diverging.append(m)
            return m

        def diverge_at_pv_10(m, datas, *args, **kwargs):
            if any(m is design for design in diverging):
                return [DivergenceError(5, "non-finite estimate")
                        for _ in datas]
            return run_observer_batch(m, datas, *args, **kwargs)

        monkeypatch.setattr(dem, "assemble_observer", note_pv_10)
        monkeypatch.setattr(dem, "run_observer_batch", diverge_at_pv_10)
        raw = small_config(kind="prior_sweep", output_dir=str(tmp_path))
        raw["seeds"] = [1, 2]
        raw["prior_sweep"] = {"pv_grid": [1.0, 10.0], "eta_v": 1.0}
        report = run_experiment(parse_config(raw))
        table = report.tables["per_seed_sse"]
        assert list(table["pv"]) == [1.0, 1.0, 10.0, 10.0]
        for column in ("sse_input_measured", "sse_input_truth",
                       "sse_state_truth", "mean_abs_dev_from_prior"):
            assert [cell is None for cell in table[column]] == \
                [pv == 10.0 for pv in table["pv"]], column
        assert [(d["seed"], d["estimator"]) for d in report.diverged] == \
            [(1, "pv10"), (2, "pv10")]
        summary = report.tables["sse_vs_pv"]
        medians = dict(zip(summary["pv"],
                           summary["median_sse_input_measured"]))
        assert medians[10.0] is None
        assert medians[1.0] is not None
        assert set(report.tables["input_traces"]["pv"]) == {1.0}
        lines = (tmp_path / "per_seed_sse.csv").read_text().splitlines()
        assert lines[3].endswith(",10.0,,,,")


class TestNoiseCharacterizationExperiment:
    @pytest.fixture
    def report(self, noisechar_report):
        return noisechar_report

    def test_std_table_shape(self, report):
        table = report.tables["std_table"]
        assert table["variant"] == ["without_wind", "with_wind"]
        for col in ("std_phi", "std_phidot", "std_w_phi", "std_w_phidot"):
            assert len(table[col]) == 2
            assert all(std > 0 for std in table[col])

    def test_wind_increases_stds(self, report):
        table = report.tables["std_table"]
        for col in ("std_w_phi", "std_w_phidot"):
            calm, windy = table[col]
            assert windy > calm

    def test_white_variant_autocorrelation_drops(self, report):
        r = report.tables["autocorr_without_wind_w_phidot"]["r"]
        assert r[0] == pytest.approx(1.0)
        floor = 3.0 / np.sqrt(1203)
        assert all(abs(value) < floor for value in r[1:])

    def test_colored_variant_matches_kernel_curve(self, report):
        table = report.tables["autocorr_with_wind_w_phidot"]
        for lag_s, r, expected in zip(table["lag_s"], table["r"],
                                      table["expected_r"], strict=True):
            if lag_s <= 3 * 0.0498:
                assert r == pytest.approx(expected, abs=0.1)

    def test_gaussian_fits_accepted(self, report):
        table = report.tables["gaussian_fit"]
        assert len(table["n"]) == 4
        for ks_stat, n in zip(table["ks_stat"], table["n"], strict=True):
            assert ks_stat < 1.63 / np.sqrt(n)


class TestWriteReport:
    """write_report owns the config_hash column and formats each column by
    one rule, chosen by its type, or value by value where types mix."""

    def test_formatting_rules(self, tmp_path):
        report = harness.ExperimentReport(kind="prior_sweep",
                                          config_hash="0123abcd",
                                          output_dir=tmp_path)
        report.add("table", {
            "pv": [1, 10.5], "diverged": [False, True], "sse": [0.25, None],
            "step": np.arange(2), "passed": np.array([True, False]),
            "time_s": np.arange(2) * 0.5, "estimator": ["dem", "uio"]}, "")
        write_report(report)
        assert (tmp_path / "table.csv").read_text() == (
            "config_hash,pv,diverged,sse,step,passed,time_s,estimator\n"
            "0123abcd,1,0,0.25,0,1,0.0,dem\n"
            "0123abcd,10.5,1,,1,0,0.5,uio\n")

    # Each distinct value of a column is formatted once: values that compare
    # equal but print apart (-0.0 and 0.0), NaN, which equals nothing, and
    # subnormals, each repeated.
    SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 0.1)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from(SPECIAL) | st.floats(),
        st.sampled_from(SPECIAL) | st.floats(width=32),
        st.sampled_from([0, -1, 2 ** 63 - 1]) | st.integers(-2 ** 63,
                                                           2 ** 63 - 1),
        st.booleans()), max_size=30))
    @example(rows=[(0.0, -0.0, 0, True), (-0.0, 0.0, 0, False),
                   (0.0, -0.0, 1, True)])
    @example(rows=[])
    def test_each_cell_is_its_value_formatted(self, rows, tmp_path_factory):
        f64, f32, ints, flags = zip(*rows) if rows else ([],) * 4
        table = {"f64": np.array(f64, dtype=np.float64),
                 "f32": np.array(f32, dtype=np.float32),
                 "listed": list(f64),
                 "ints": np.array(ints, dtype=np.int64),
                 "flags": np.array(flags, dtype=bool)}
        report = harness.ExperimentReport(
            kind="prior_sweep", config_hash="0123abcd",
            output_dir=tmp_path_factory.mktemp("cells"))
        report.add("table", table, "")
        write_report(report)
        lines = [",".join(["config_hash", *table])] + [
            ",".join(["0123abcd", *map(harness._fmt, row)])
            for row in zip(*table.values())]
        assert (report.output_dir / "table.csv").read_text() == \
            "\n".join(lines) + "\n"

    def test_prior_sweep_precisions_keep_their_type(self, tmp_path,
                                                   monkeypatch):
        # pv_grid values are not coerced to float, so the int 1 reads 1
        # beside 10.5 in every table. Seed 2's replay at 10.5 diverges and
        # leaves its cells empty; seed 1 still traces at both precisions.
        assemble_observer = dem.assemble_observer
        run_observer_batch = dem.run_observer_batch
        diverging = []

        def note_pv(model, cfg, rate=None):
            m = assemble_observer(model, cfg, rate)
            if cfg.noise.input_prior_precision[0, 0] == 10.5:
                diverging.append(m)
            return m

        def diverge_seed_2(m, datas, *args, **kwargs):
            cells = run_observer_batch(m, datas, *args, **kwargs)
            if any(m is design for design in diverging):
                cells[1] = DivergenceError(5, "non-finite estimate")
            return cells

        monkeypatch.setattr(dem, "assemble_observer", note_pv)
        monkeypatch.setattr(dem, "run_observer_batch", diverge_seed_2)
        raw = small_config(kind="prior_sweep", output_dir=str(tmp_path),
                           seeds=[1, 2])
        raw["prior_sweep"] = {"pv_grid": [1, 10.5], "eta_v": 1.0}
        run_experiment(parse_config(raw))
        per_seed = read_csv(tmp_path / "per_seed_sse.csv")
        assert [(row["seed"], row["pv"]) for row in per_seed] == [
            ("1", "1"), ("2", "1"), ("1", "10.5"), ("2", "10.5")]
        scores = ("sse_input_measured", "sse_input_truth", "sse_state_truth",
                  "mean_abs_dev_from_prior")
        for i, row in enumerate(per_seed):
            assert [row[c] == "" for c in scores] == [i == 3] * 4, row
        summary = read_csv(tmp_path / "sse_vs_pv.csv")
        assert [row["pv"] for row in summary] == ["1", "10.5"]
        traces = read_csv(tmp_path / "input_traces.csv")
        assert [row["pv"] for row in traces] == ["1"] * 400 + ["10.5"] * 400

    def test_empty_table_keeps_its_header(self, tmp_path, monkeypatch):
        # An inf measurement in the first record makes its replays diverge,
        # so it has no input traces to write.
        synthesize_records = harness.synthesize_records

        def poisoned(*args, **kwargs):
            records = synthesize_records(*args, **kwargs)
            data = records[0].data
            ys = data.measurements.copy()
            ys[150, 0] = np.inf
            records[0] = records[0]._replace(
                data=replace(data, measurements=ys))
            return records

        monkeypatch.setattr(harness, "synthesize_records", poisoned)
        raw = small_config(kind="input_benchmark", output_dir=str(tmp_path),
                           model={"full_state_output": True,
                                  "single_input": True})
        raw["run"]["input_frequencies"] = [0.7]
        with np.errstate(invalid="ignore"):
            report = run_experiment(parse_config(raw))
        assert {entry["seed"] for entry in report.diverged} == {1}
        assert (tmp_path / "input_traces.csv").read_text() == \
            "config_hash,seed,step,time_s,v_measured,v_dem,v_uio\n"
        assert len(read_csv(tmp_path / "per_seed_input_sse.csv")) == 6


class TestSynthesis:
    """A run's records come from one stacked recursion, with the bits of
    each seed's record synthesized alone."""

    def _count_simulations(self, monkeypatch):
        simulate = harness.simulate
        calls = []

        def counted(model, dt, n_steps, inputs, *args, **kwargs):
            calls.append(np.shape(inputs))
            return simulate(model, dt, n_steps, inputs, *args, **kwargs)

        monkeypatch.setattr(harness, "simulate", counted)
        return calls

    @pytest.mark.parametrize("kind", ["benchmark_state", "prior_sweep"])
    def test_grid_records_equal_each_seed_alone(self, kind, monkeypatch):
        raw = small_config(kind=kind, seeds=[1, 2, 3, 4])
        raw["run"]["n_steps"] = 300
        if kind == "prior_sweep":
            raw["prior_sweep"] = {"pv_grid": [1.0], "eta_v": 1.0}
        cfg = parse_config(raw)
        calls = self._count_simulations(monkeypatch)
        _, _, records = harness._grid(cfg)
        assert calls == [(4, 300, 4)]
        model = harness.build_model(cfg)
        for rec, seed in zip(records, cfg.seeds, strict=True):
            data, w = harness.synthesize_record(cfg, seed, model)
            assert rec.seed == seed
            assert np.array_equal(rec.w_fit, w)
            for name in ("measurements", "inputs", "truth_states",
                         "truth_inputs"):
                assert np.array_equal(getattr(rec.data, name),
                                      getattr(data, name)), name

    def test_one_synthesis_per_noise_variant(self, monkeypatch):
        cfg = load_config_file(CONFIG_DIR / "noise_characterization.json")
        raw = serialize_config(cfg)
        raw["seeds"] = [1, 2, 3]
        raw["run"]["n_steps"] = 300
        calls = self._count_simulations(monkeypatch)
        run_experiment(parse_config(raw), write=False)
        r = harness.build_model(cfg).r
        assert calls == [(3, 300, r)] * len(cfg.noise_variants)


def _assert_run_loads_no_scipy(raw, tmp_path):
    """``demest run`` of the config ``raw`` in a fresh process: neither
    ``import demest.cli`` nor the run loads a scipy module, and the manifest
    then lists no scipy, and the OpenBLAS settings as the environment gives
    them."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH", "")]))
    code = "\n".join([
        "import sys",
        "def scipy(): return sorted(m for m in sys.modules",
        "                           if m.partition('.')[0] == 'scipy')",
        "import demest.cli",
        "print(scipy())",
        f"assert demest.cli.main(['run', {str(path)!r}]) == 0",
        "print(scipy())"])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]")
    environment = json.loads((Path(raw["output_dir"]) / "manifest.json")
                             .read_text())["environment"]
    assert "scipy" not in environment and "scipy_blas" not in environment
    assert environment["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["OPENBLAS_CORETYPE"] is None


def test_state_runs_load_no_scipy(tmp_path):
    # Importing scipy.linalg was most of every run's start-up time; a state
    # shoot-out needs none of it.
    _assert_run_loads_no_scipy(windy_at_rate(1.0, tmp_path / "out"),
                               tmp_path)


def test_input_runs_load_no_scipy(tmp_path):
    # The UIO's gain is closed-form: the input benchmark loads no
    # scipy.signal (about 1 s of a run) either.
    raw = serialize_config(
        load_config_file(CONFIG_DIR / "input_benchmark_colored.json"))
    raw.update(output_dir=str(tmp_path / "out"), seeds=[1, 2, 3])
    raw["run"]["n_steps"] = 300
    _assert_run_loads_no_scipy(raw, tmp_path)


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

    def test_validate_non_utf8_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(small_config()).encode("utf-16"))
        assert cli_main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {path}")

    def test_validate_directory_exits_one(self, tmp_path, capsys):
        assert cli_main(["validate", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: {tmp_path}")

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

    def _large_rate_config(self, tmp_path, rate):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(windy_at_rate(rate, tmp_path / "out")))
        return path

    def test_growth_past_the_float_range_is_null(self, tmp_path):
        # The replayed transition's spectral radius is ~7.6e37, and its
        # 300th power is no float: the manifest says null, and the replays
        # report their own divergence.
        path = self._large_rate_config(tmp_path, 1e15)
        assert cli_main(["validate", str(path)]) == 0
        assert cli_main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "manifest.json").read_text()

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        manifest = json.loads(text, parse_constant=reject)
        assert manifest["observer_growth"]["dem"]["growth"] is None
        assert [(d["seed"], d["estimator"], d["error"])
                for d in manifest["diverged"]] == [
            (seed, "dem", "estimator diverged at step 8: non-finite "
             "estimate") for seed in (1, 2)]

    def test_non_finite_observer_hold_exits_two(self, tmp_path, capsys):
        path = self._large_rate_config(tmp_path, 1e300)
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: zero-order hold")
        assert "dem.learning_rate" in err

    def test_uio_design_failure_exits_two(self, tmp_path, capsys):
        # C = [1, 0] makes rank(C B) < rank(B): the UIO cannot exist
        raw = small_config(kind="input_benchmark",
                           output_dir=str(tmp_path / "out"))
        raw["model"] = {"full_state_output": False, "single_input": True}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", str(path)]) == 2
        assert "existence" in capsys.readouterr().err


def _diverging_observer_batch():
    # The observer at learning rate 1e15 fails both records at step 8.
    cfg = parse_config(windy_at_rate(1e15, "unused"))
    _, model, records = harness._grid(cfg)
    spec = harness.observer_noise_spec(cfg, model)
    m = dem.assemble_observer(model, harness._dem_config(cfg, spec, model))
    return dem.run_observer_batch(m, [rec.data for rec in records], True)


def _flat_records(n=5):
    return [ExperimentData(dt=1.0, measurements=np.ones((n, 1)),
                           inputs=np.zeros((n, 1)))] * 2


# exp(500) squared overflows the first predicted covariance.
_HOT = LtiModel(a=[[500.0]], b=[[0.0]], c=[[1.0]])
_EYE = np.eye(1)


@pytest.mark.parametrize("replay", [
    _diverging_observer_batch,
    lambda: benchmarks.kalman_filter_batch(1e200 * _EYE, 0.0, _EYE, _EYE,
                                           _EYE, _flat_records()),
    lambda: benchmarks.state_augmentation_filter_batch(
        _HOT, [[benchmarks.ArModel(1, [a], 1.0)] for a in (0.5, 0.3)],
        _flat_records(), _EYE, _EYE),
    lambda: benchmarks.smikf_batch(_HOT, [[0.5], [0.3]], _flat_records(),
                                   _EYE, _EYE),
    # An unstable observer pole overflows the observer state at step 2.
    lambda: benchmarks.uio_batch(
        LtiModel(a=[[0.0]], b=[[1.0]], c=[[1.0]]),
        [replace(d, dt=0.01) for d in _flat_records(6)], poles=(46000.0,)),
    # A measurement of 1e308 overflows the output derivative.
    lambda: benchmarks.uio_batch(
        LtiModel(a=[[0.0]], b=[[1.0]], c=[[1.0]]),
        [replace(d, dt=0.01, measurements=np.r_[1.0, 1.0, 1.0, 1e308, 1.0,
                                                1.0][:, None])
         for d in _flat_records(6)])],
    ids=["dem", "kalman", "state_augmentation", "smikf", "uio_state",
         "uio_derivative"])
def test_diverging_batches_report_without_numpy_warnings(replay):
    # The replay engine finds non-finite states and reports them as
    # DivergenceErrors; numpy's overflow warnings would only repeat that.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = replay()
    assert len(results) == 2
    assert all(isinstance(res, DivergenceError) for res in results)


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
        table = full.tables["per_seed_sse"]
        full_rows = dict(zip(zip(table["seed"], table["estimator"]),
                             table["sse_phidot_truth"]))
        table = single.tables["per_seed_sse"]
        for name, sse in zip(table["estimator"], table["sse_phidot_truth"],
                             strict=True):
            assert full_rows[(2, name)] == sse
