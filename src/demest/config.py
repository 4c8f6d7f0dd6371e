"""Experiment configuration: JSON schema, validation, and hashing.

Configs are plain JSON with a fixed schema; every validation failure names
the offending field so the CLI can report it directly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

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
    observer_process_precision: tuple[float, ...] | None = None
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


def _get(raw: dict, fieldname: str, default=None):
    value = raw.get(fieldname, default)
    return default if value is None else value


def _parse_section(raw, fieldname: str, cls, defaults=None):
    if raw is None:
        return cls(**(defaults or {}))
    _require(isinstance(raw, dict), fieldname, "must be an object")
    known = {f for f in cls.__dataclass_fields__}
    for key in raw:
        _require(key in known, f"{fieldname}.{key}", "unknown field")
    merged = dict(defaults or {})
    merged.update(raw)
    for key, value in list(merged.items()):
        if isinstance(value, list):
            merged[key] = tuple(value)
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{fieldname}: {exc}") from None


def parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config dict; raises ConfigError naming fields."""
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    version = _get(raw, "schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version",
             f"unsupported version {version!r}; expected {SCHEMA_VERSION}")

    kind = raw.get("kind")
    _require(isinstance(kind, str) and kind in EXPERIMENT_KINDS, "kind",
             f"must be one of {', '.join(EXPERIMENT_KINDS)}")

    output_dir = raw.get("output_dir")
    _require(isinstance(output_dir, str) and output_dir, "output_dir",
             "must be a non-empty string")

    seeds = raw.get("seeds")
    _require(isinstance(seeds, list) and len(seeds) > 0, "seeds",
             "must be a non-empty list of integers")
    _require(all(isinstance(s, int) and not isinstance(s, bool) for s in seeds),
             "seeds", "must be a non-empty list of integers")

    model = _parse_section(raw.get("model"), "model", ModelConfig)
    _require(model.i_xx > 0, "model.i_xx", "must be positive")
    _require(model.c_b_phi > 0, "model.c_b_phi", "must be positive")

    noise = _parse_section(raw.get("noise"), "noise", NoiseConfig)
    _require(noise.sigma > 0, "noise.sigma", "must be positive")
    _require(len(noise.process_noise_std) >= 1, "noise.process_noise_std",
             "must list one std per state")
    _require(all(s >= 0 for s in noise.process_noise_std),
             "noise.process_noise_std", "stds must be non-negative")
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

    dem = _parse_section(raw.get("dem"), "dem", DemSettings)
    _require(dem.p >= dem.d >= 0, "dem.p", "need p >= d >= 0")
    _require(dem.p <= ORDER_CAP, "dem.p",
             f"embedding order exceeds cap {ORDER_CAP}")
    if dem.learning_rate is not None:
        _require(dem.learning_rate > 0, "dem.learning_rate", "must be positive")

    run = _parse_section(raw.get("run"), "run", RunSettings)
    _require(run.dt > 0, "run.dt", "must be positive")
    _require(run.n_steps > dem.p, "run.n_steps",
             "must exceed the embedding order")
    _require(run.transient_skip_s >= 0, "run.transient_skip_s",
             "must be non-negative")
    _require(run.log_path is not None or run.skip_steps < run.n_steps,
             "run.transient_skip_s", "skips every step of the record")
    _require(run.log_path is None or len(seeds) == 1, "seeds",
             "a log-backed run (run.log_path) replays one record; "
             "list exactly one seed")

    sweep = _parse_section(raw["sweep"], "sweep", SweepSettings) \
        if raw.get("sweep") is not None else None
    prior_sweep = _parse_section(raw["prior_sweep"], "prior_sweep",
                                 PriorSweepSettings) \
        if raw.get("prior_sweep") is not None else None
    landscape = _parse_section(raw["landscape"], "landscape",
                               LandscapeSettings) \
        if raw.get("landscape") is not None else None
    uio_settings = _parse_section(raw["uio"], "uio", UioSettings) \
        if raw.get("uio") is not None else None

    noise_variants = None
    if raw.get("noise_variants") is not None:
        variants_raw = raw["noise_variants"]
        _require(isinstance(variants_raw, list) and variants_raw,
                 "noise_variants", "must be a non-empty list")
        variants = []
        for i, entry in enumerate(variants_raw):
            variant = _parse_section(entry, f"noise_variants[{i}]", NoiseVariant)
            _require(variant.sigma > 0, f"noise_variants[{i}].sigma",
                     "must be positive")
            variants.append(variant)
        noise_variants = tuple(variants)

    # Kind-specific requirements.
    if kind == "sweep_p":
        _require(sweep is not None, "sweep", "required for sweep_p")
        _require(len(sweep.p_values) > 0, "sweep.p_values", "must be non-empty")
        _require(all(0 <= p <= ORDER_CAP for p in sweep.p_values),
                 "sweep.p_values", f"orders must lie in 0..{ORDER_CAP}")
        _require(run.n_steps > max(sweep.p_values), "run.n_steps",
                 "must exceed every swept embedding order")
    if kind == "prior_sweep":
        _require(prior_sweep is not None, "prior_sweep",
                 "required for prior_sweep")
        _require(len(prior_sweep.pv_grid) > 0, "prior_sweep.pv_grid",
                 "must be non-empty")
        _require(all(pv > 0 for pv in prior_sweep.pv_grid),
                 "prior_sweep.pv_grid", "precisions must be positive")
    if kind == "landscape":
        _require(landscape is not None, "landscape", "required for landscape")
        _require(landscape.n_probe_times > 0, "landscape.n_probe_times",
                 "must be positive")
        _require(landscape.n_perturbations >= 0, "landscape.n_perturbations",
                 "must be non-negative")
    if kind == "noise_characterization":
        _require(noise_variants is not None and len(noise_variants) >= 2,
                 "noise_variants",
                 "noise_characterization needs at least two variants")
        # Its Gaussian fit takes the n_steps - 1 residuals of a record.
        _require(run.n_steps > MIN_FIT_SAMPLES, "run.n_steps",
                 f"noise_characterization needs more than {MIN_FIT_SAMPLES} "
                 f"steps, for {MIN_FIT_SAMPLES} residuals to fit")

    known_top = {"schema_version", "kind", "output_dir", "seeds", "model",
                 "noise", "dem", "run", "sweep", "prior_sweep", "landscape",
                 "uio", "noise_variants"}
    for key in raw:
        _require(key in known_top, key, "unknown field")

    cfg = ExperimentConfig(
        kind=kind, output_dir=output_dir, seeds=tuple(seeds), model=model,
        noise=noise, dem=dem, run=run, sweep=sweep, prior_sweep=prior_sweep,
        landscape=landscape, uio=uio_settings, noise_variants=noise_variants,
        schema_version=version,
    )
    # Lists whose length the plant a run builds fixes; None picks a default.
    # Imported here: the harness imports this module.
    from .harness import build_model
    plant = build_model(cfg)
    n, r = plant.n, plant.r
    for name, value, counts in [
            ("noise.process_noise_std", noise.process_noise_std, [n]),
            *((f"noise_variants[{i}].process_noise_std", v.process_noise_std,
               [n]) for i, v in enumerate(noise_variants or ())),
            ("noise.observer_process_precision",
             noise.observer_process_precision, [1, n]),
            ("run.input_frequencies", run.input_frequencies or None, [r]),
            ("uio.poles", uio_settings and uio_settings.poles, [n])]:
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

    raw = clean(asdict(cfg))
    raw["seeds"] = list(cfg.seeds)
    return raw


def load_config_file(path) -> ExperimentConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
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
