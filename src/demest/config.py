"""Experiment configuration: JSON schema, validation, and hashing.

Configs are plain JSON. The frozen dataclasses below are the schema:
``parse_config`` walks a config against their type hints, so an object
becomes its dataclass and a list a tuple. ``bool`` takes only true/false,
``int`` an integer, ``float`` a finite number (an int stays an int, so the
config hash keeps the JSON form) and ``str`` a string; a null field counts
as absent. Value rules (ranges, cross-field and kind-specific rules, the
list lengths the plant fixes) follow the walk. Every failure is a
ConfigError that names the offending field by its dotted path, so the CLI
can report it directly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .gencoord import ORDER_CAP
from .noise import MIN_FIT_SAMPLES

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "benchmark_state",
    "sweep_p",
    "landscape",
    "input_benchmark",
    "prior_sweep",
    "noise_characterization",
)


@dataclass(frozen=True)
class ModelConfig:
    i_xx: float = 3.4e-3
    c_b_phi: float = 1.274e-3
    full_state_output: bool = False
    single_input: bool = False


@dataclass(frozen=True)
class NoiseConfig:
    """Injected noise plus what the observer is told about it.

    ``measurement_noise_value`` may be stated either as a covariance or as a
    precision (``measurement_noise_is_precision``); both interpretations are
    selectable per experiment. Observer-side overrides default to the inverse
    of the injected covariances and are mandatory for noiseless runs.
    """

    sigma: float = 0.0498
    process_noise_std: tuple[float, ...] = (0.1, 7.3)
    measurement_noise_value: float = 8.1e-9
    measurement_noise_is_precision: bool = False
    input_prior_precision: float = 1.0
    observer_process_precision: tuple[float, ...] | float | None = None
    observer_measurement_precision: float | None = None
    observer_sigma: float | None = None


@dataclass(frozen=True)
class DemSettings:
    p: int = 6
    d: int = 2
    learning_rate: float | None = None
    eta_v: float = 0.0


@dataclass(frozen=True)
class RunSettings:
    dt: float = 0.0083
    n_steps: int = 1204
    transient_skip_s: float = 0.5
    log_path: str | None = None
    normalize_log_inputs: bool = False
    input_amplitude: float = 0.1
    input_offset: float = 0.0
    input_frequencies: tuple[float, ...] | None = None

    @property
    def skip_steps(self) -> int:
        """Leading steps that the SSE scores leave out."""
        return int(round(self.transient_skip_s / self.dt))


@dataclass(frozen=True)
class SweepSettings:
    p_values: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class PriorSweepSettings:
    pv_grid: tuple[float, ...] = (1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    eta_v: float = 1.0


@dataclass(frozen=True)
class LandscapeSettings:
    n_probe_times: int = 10
    n_perturbations: int = 100
    magnitude: float = 0.1
    slack: float = 1e-8


@dataclass(frozen=True)
class UioSettings:
    poles: tuple[float, ...] | None = None


@dataclass(frozen=True)
class NoiseVariant:
    """One labelled noise regime for the characterization experiment."""

    label: str
    sigma: float
    process_noise_std: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    output_dir: str
    seeds: tuple[int, ...]
    model: ModelConfig = field(default_factory=ModelConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    dem: DemSettings = field(default_factory=DemSettings)
    run: RunSettings = field(default_factory=RunSettings)
    sweep: SweepSettings | None = None
    prior_sweep: PriorSweepSettings | None = None
    landscape: LandscapeSettings | None = None
    uio: UioSettings | None = None
    noise_variants: tuple[NoiseVariant, ...] | None = None
    schema_version: int = SCHEMA_VERSION


def _require(condition: bool, fieldname: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{fieldname}: {message}")


# Once per class: under postponed annotations every call evaluates each hint.
_type_hints = functools.cache(typing.get_type_hints)

_LEAVES = {bool: "true or false", int: "an integer", float: "a finite number",
           str: "a string"}


def _describe(hint) -> str:
    if isinstance(hint, types.UnionType):
        return " or ".join(_describe(a) for a in typing.get_args(hint)
                           if a is not types.NoneType)
    if hint in _LEAVES:
        return _LEAVES[hint]
    return "an object" if is_dataclass(hint) else "a list"


def _fits(value, hint) -> bool:
    """Whether a JSON value has the outer form of the type ``hint``."""
    if hint is float:  # an int stays an int; finite also as a float
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if hint in _LEAVES:
        return type(value) is hint
    if is_dataclass(hint):
        return isinstance(value, dict)
    return typing.get_origin(hint) is tuple and isinstance(value, list)


def _parse(value, hint, path: str):
    """The JSON ``value`` at ``path`` checked against ``hint``, typed: an
    object becomes its dataclass and a list a tuple. A null field counts as
    absent."""
    if isinstance(hint, types.UnionType):
        hint = next((a for a in typing.get_args(hint) if _fits(value, a)),
                    hint)
    if not _fits(value, hint):
        raise ConfigError(f"{path}: must be {_describe(hint)}")
    if hint in _LEAVES:
        return value
    if not is_dataclass(hint):  # tuple[item, ...]
        item = typing.get_args(hint)[0]
        return tuple(_parse(v, item, f"{path}[{i}]")
                     for i, v in enumerate(value))
    prefix = f"{path}." if path else ""
    schema = _type_hints(hint)
    for key in value:
        _require(key in schema, prefix + key, "unknown field")
    given = {key: _parse(v, schema[key], prefix + key)
             for key, v in value.items() if v is not None}
    for f in fields(hint):
        _require(f.name in given or f.default is not MISSING
                 or f.default_factory is not MISSING, prefix + f.name,
                 "required")
    return hint(**given)


def parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config dict; raises ConfigError naming fields."""
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    version = raw.get("schema_version")
    _require(version in (None, SCHEMA_VERSION), "schema_version",
             f"unsupported version {version!r}; expected {SCHEMA_VERSION}")
    cfg = _parse(raw, ExperimentConfig, "")
    model, noise, dem, run = cfg.model, cfg.noise, cfg.dem, cfg.run
    kind, sweep, prior_sweep = cfg.kind, cfg.sweep, cfg.prior_sweep
    landscape, noise_variants = cfg.landscape, cfg.noise_variants
    _require(kind in EXPERIMENT_KINDS, "kind",
             f"must be one of {', '.join(EXPERIMENT_KINDS)}")
    _require(cfg.output_dir != "", "output_dir", "must be a non-empty string")
    # Seeds start numpy generators, which take no negative seed.
    _require(len(cfg.seeds) > 0 and min(cfg.seeds) >= 0, "seeds",
             "must be a non-empty list of non-negative integers")

    _require(model.i_xx > 0, "model.i_xx", "must be positive")
    _require(model.c_b_phi > 0, "model.c_b_phi", "must be positive")

    _require(noise.sigma > 0, "noise.sigma", "must be positive")
    _require(len(noise.process_noise_std) >= 1, "noise.process_noise_std",
             "must list one std per state")
    _require(all(s >= 0 for s in noise.process_noise_std),
             "noise.process_noise_std", "stds must be non-negative")
    # A covariance with some stds zero is singular: no noise can be drawn.
    _require(all(s > 0 for s in noise.process_noise_std)
             or not any(noise.process_noise_std), "noise.process_noise_std",
             "stds must be all zero or all positive")
    _require(noise.measurement_noise_value >= 0, "noise.measurement_noise_value",
             "must be non-negative")
    _require(noise.input_prior_precision >= 0, "noise.input_prior_precision",
             "must be non-negative")
    if all(s == 0 for s in noise.process_noise_std):
        _require(noise.observer_process_precision is not None,
                 "noise.observer_process_precision",
                 "required when injected process noise is zero")
    if noise.measurement_noise_value == 0:
        _require(noise.observer_measurement_precision is not None,
                 "noise.observer_measurement_precision",
                 "required when injected measurement noise is zero")
    for name in ("observer_process_precision",
                 "observer_measurement_precision", "observer_sigma"):
        value = getattr(noise, name)
        _require(value is None or np.all(np.asarray(value) > 0),
                 f"noise.{name}", "must be positive")

    _require(dem.p >= dem.d >= 0, "dem.p", "need p >= d >= 0")
    _require(dem.p <= ORDER_CAP, "dem.p",
             f"embedding order exceeds cap {ORDER_CAP}")
    if dem.learning_rate is not None:
        _require(dem.learning_rate > 0, "dem.learning_rate", "must be positive")

    _require(run.dt > 0, "run.dt", "must be positive")
    _require(run.transient_skip_s >= 0, "run.transient_skip_s",
             "must be non-negative")
    _require(run.log_path is not None or run.skip_steps < run.n_steps,
             "run.transient_skip_s", "skips every step of the record")
    _require(run.log_path is None or len(cfg.seeds) == 1, "seeds",
             "a log-backed run (run.log_path) replays one record; "
             "list exactly one seed")

    _require(noise_variants != (), "noise_variants",
             "must be a non-empty list")
    for i, variant in enumerate(noise_variants or ()):
        _require(variant.sigma > 0, f"noise_variants[{i}].sigma",
                 "must be positive")
        _require(all(s > 0 for s in variant.process_noise_std)
                 or not any(variant.process_noise_std),
                 f"noise_variants[{i}].process_noise_std",
                 "stds must be all zero or all positive")

    # Kind-specific requirements.
    if kind == "sweep_p":
        _require(sweep is not None, "sweep", "required for sweep_p")
        _require(len(sweep.p_values) > 0, "sweep.p_values", "must be non-empty")
        _require(all(0 <= p <= ORDER_CAP for p in sweep.p_values),
                 "sweep.p_values", f"orders must lie in 0..{ORDER_CAP}")
    if kind == "prior_sweep":
        _require(prior_sweep is not None, "prior_sweep",
                 "required for prior_sweep")
        _require(len(prior_sweep.pv_grid) > 0, "prior_sweep.pv_grid",
                 "must be non-empty")
        _require(all(pv > 0 for pv in prior_sweep.pv_grid),
                 "prior_sweep.pv_grid", "precisions must be positive")
    # Imported here: the harness imports this module.
    from .harness import (SA_AR_ORDER, _largest_order, _sweep_labels,
                          build_model)
    if kind in ("sweep_p", "prior_sweep"):
        # An axis point's runtime and growth are kept under its label.
        labels = _sweep_labels(cfg)
        repeated = sorted({label for label in labels
                           if labels.count(label) > 1})
        _require(not repeated, "sweep.p_values" if kind == "sweep_p"
                 else "prior_sweep.pv_grid",
                 f"{', '.join(repeated)} would label more than one value; "
                 f"each value needs a label of its own")
    if kind == "landscape":
        _require(landscape is not None, "landscape", "required for landscape")
        _require(len(cfg.seeds) == 1, "seeds",
                 "a landscape run probes one record; list exactly one seed")
        _require(landscape.n_probe_times > 0, "landscape.n_probe_times",
                 "must be positive")
        _require(landscape.n_perturbations >= 0, "landscape.n_perturbations",
                 "must be non-negative")
    if kind == "noise_characterization":
        _require(run.log_path is None, "run.log_path",
                 "noise_characterization synthesizes one record set per "
                 "noise variant and reads no log")
        _require(noise_variants is not None and len(noise_variants) >= 2,
                 "noise_variants",
                 "noise_characterization needs at least two variants")
        # Its Gaussian fit takes the n_steps - 1 residuals of a record.
        _require(run.n_steps > MIN_FIT_SAMPLES, "run.n_steps",
                 f"noise_characterization needs more than {MIN_FIT_SAMPLES} "
                 f"steps, for {MIN_FIT_SAMPLES} residuals to fit")

    if kind == "benchmark_state" and run.log_path is None:
        # SA and SMIKF fit their AR models to the injected process noise (a
        # log-backed run fits them to the log's residuals).
        _require(any(noise.process_noise_std), "noise.process_noise_std",
                 "must not be all zero in a synthetic benchmark_state run: "
                 "state augmentation and SMIKF fit their AR models to it")

    if run.log_path is None:
        # A synthetic record has n_steps samples: one more than the largest
        # embedding window, and for the shoot-out more than twice the AR
        # order that state augmentation fits to its process noise.
        needed = _largest_order(cfg) + 1
        if kind == "benchmark_state":
            needed = max(needed, 2 * SA_AR_ORDER + 1)
        _require(run.n_steps >= needed, "run.n_steps",
                 f"a {kind} run needs at least {needed} steps")

    # Lists whose length the plant a run builds fixes; None picks a default.
    plant = build_model(cfg)
    n, r = plant.n, plant.r
    for name, value, counts in [
            ("noise.process_noise_std", noise.process_noise_std, [n]),
            *((f"noise_variants[{i}].process_noise_std", v.process_noise_std,
               [n]) for i, v in enumerate(noise_variants or ())),
            ("noise.observer_process_precision",
             noise.observer_process_precision, [1, n]),
            ("run.input_frequencies", run.input_frequencies or None, [r]),
            ("uio.poles", cfg.uio and cfg.uio.poles, [n])]:
        size = len(value) if isinstance(value, tuple) else 1
        _require(value is None or size in counts, name,
                 f"must list {' or '.join(map(str, counts))} values "
                 f"(states: {n}, input channels: {r})")
    return cfg


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Dict form that parse_config accepts back (round-trippable)."""
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, tuple):
            return [clean(v) for v in obj]
        return obj

    return clean(asdict(cfg))


def load_config_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable short hash identifying the configuration (output dir excluded,
    so re-running into a different directory reproduces the same keys)."""
    raw = serialize_config(cfg)
    raw.pop("output_dir", None)
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
