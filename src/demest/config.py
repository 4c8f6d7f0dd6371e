"""Experiment configuration: JSON schema, validation, and hashing.

Configs are plain JSON. The frozen dataclasses below are the schema:
``parse_config`` walks a config against their type hints, so an object
becomes its dataclass and a list a tuple. ``bool`` takes only true/false,
``int`` an integer, ``float`` a finite number (an int stays an int, so the
config hash keeps the JSON form) and ``str`` a string; a null field counts
as absent. A rule about one value (a range, non-empty, a known kind) is
stated on its field as ``Annotated[type, RULE, ...]``, or on the items of a
list field as ``tuple[Annotated[item, RULE], ...]``, and the walk checks it
right after the value's type. The rules that relate fields or need the plant
(sections per kind, record lengths, the list lengths the plant fixes)
follow the walk. Every failure is a ConfigError that names the offending
field, or list item, by its dotted path (``seeds[1]``), so the CLI can
report it directly.
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
from typing import Annotated

import numpy as np

from .errors import ConfigError
from .gencoord import ORDER_CAP
from .noise import MIN_FIT_SAMPLES, kernel_half_width

SCHEMA_VERSION = 1

EXPERIMENT_KINDS = (
    "benchmark_state",
    "sweep_p",
    "landscape",
    "input_benchmark",
    "prior_sweep",
    "noise_characterization",
)

# Rules on one value, (holds, message), checked by the walk under the path of
# the value. They live here and not inside the annotations, which
# get_type_hints evaluates with the class namespace as their globals. An
# optional field is Annotated[X | None, ...]: Annotated[X, ...] | None would be
# a typing.Union, which the walk does not take. POSITIVE and NON_NEGATIVE take
# a number, or each number of a list.
POSITIVE = (lambda v: np.all(np.greater(v, 0)), "must be positive")
NON_NEGATIVE = (lambda v: np.all(np.greater_equal(v, 0)),
                "must be non-negative")
NON_EMPTY = (lambda v: len(v) > 0, "must be non-empty")
ORDER = (lambda p: 0 <= p <= ORDER_CAP, f"must lie in 0..{ORDER_CAP}")
# A covariance with some stds zero is singular: no noise can be drawn.
STDS = (lambda v: all(s > 0 for s in v) or not any(v),
        "stds must be all zero or all positive")
KIND = (lambda v: v in EXPERIMENT_KINDS,
        f"must be one of {', '.join(EXPERIMENT_KINDS)}")
# A noise variant's label is part of its tables' file names.
FILE_NAME = (lambda v: not {"/", "\\", "\0"} & set(v),
             "must hold no /, \\ or NUL, since it names files")


@dataclass(frozen=True)
class ModelConfig:
    i_xx: Annotated[float, POSITIVE] = 3.4e-3
    c_b_phi: Annotated[float, POSITIVE] = 1.274e-3
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

    sigma: Annotated[float, POSITIVE] = 0.0498
    process_noise_std: Annotated[tuple[float, ...], NON_EMPTY, STDS] = (
        0.1, 7.3)
    measurement_noise_value: Annotated[float, NON_NEGATIVE] = 8.1e-9
    measurement_noise_is_precision: bool = False
    input_prior_precision: Annotated[float, NON_NEGATIVE] = 1.0
    observer_process_precision: Annotated[tuple[float, ...] | float | None,
                                          POSITIVE] = None
    observer_measurement_precision: Annotated[float | None, POSITIVE] = None
    observer_sigma: Annotated[float | None, POSITIVE] = None


@dataclass(frozen=True)
class DemSettings:
    p: Annotated[int, ORDER] = 6
    d: Annotated[int, ORDER] = 2
    learning_rate: Annotated[float | None, POSITIVE] = None
    eta_v: float = 0.0


@dataclass(frozen=True)
class RunSettings:
    dt: Annotated[float, POSITIVE] = 0.0083
    n_steps: int = 1204
    transient_skip_s: Annotated[float, NON_NEGATIVE] = 0.5
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
    p_values: Annotated[tuple[Annotated[int, ORDER], ...], NON_EMPTY] = (
        0, 1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class PriorSweepSettings:
    pv_grid: Annotated[tuple[Annotated[float, POSITIVE], ...], NON_EMPTY] = (
        1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    eta_v: float = 1.0


@dataclass(frozen=True)
class LandscapeSettings:
    n_probe_times: Annotated[int, POSITIVE] = 10
    n_perturbations: Annotated[int, NON_NEGATIVE] = 100
    magnitude: float = 0.1
    slack: float = 1e-8


@dataclass(frozen=True)
class UioSettings:
    poles: tuple[float, ...] | None = None


@dataclass(frozen=True)
class NoiseVariant:
    """One labelled noise regime for the characterization experiment."""

    label: Annotated[str, NON_EMPTY, FILE_NAME]
    sigma: Annotated[float, POSITIVE]
    process_noise_std: Annotated[tuple[float, ...], NON_EMPTY, STDS]


@dataclass(frozen=True)
class ExperimentConfig:
    kind: Annotated[str, KIND]
    output_dir: Annotated[str, NON_EMPTY]
    # Seeds start numpy generators, which take no negative seed.
    seeds: Annotated[tuple[Annotated[int, NON_NEGATIVE], ...], NON_EMPTY]
    model: ModelConfig = field(default_factory=ModelConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    dem: DemSettings = field(default_factory=DemSettings)
    run: RunSettings = field(default_factory=RunSettings)
    sweep: SweepSettings | None = None
    prior_sweep: PriorSweepSettings | None = None
    landscape: LandscapeSettings | None = None
    uio: UioSettings | None = None
    noise_variants: Annotated[tuple[NoiseVariant, ...] | None,
                              NON_EMPTY] = None
    schema_version: int = SCHEMA_VERSION


def _require(condition: bool, fieldname: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{fieldname}: {message}")


# Once per class: under postponed annotations every call evaluates each hint.
_type_hints = functools.cache(
    functools.partial(typing.get_type_hints, include_extras=True))

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
    """The JSON ``value`` at ``path`` checked against ``hint`` and the rules
    it carries, typed: an object becomes its dataclass and a list a tuple. A
    null field counts as absent."""
    rules = ()
    if typing.get_origin(hint) is Annotated:
        hint, *rules = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        hint = next((a for a in typing.get_args(hint) if _fits(value, a)),
                    hint)
    if not _fits(value, hint):
        raise ConfigError(f"{path}: must be {_describe(hint)}")
    if is_dataclass(hint):
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
        value = hint(**given)
    elif hint not in _LEAVES:  # tuple[item, ...]
        item = typing.get_args(hint)[0]
        value = tuple(_parse(v, item, f"{path}[{i}]")
                      for i, v in enumerate(value))
    for holds, message in rules:
        _require(holds(value), path, message)
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config dict; raises ConfigError naming fields."""
    _require(isinstance(raw, dict), "config", "must be a JSON object")
    version = raw.get("schema_version")
    _require(version in (None, SCHEMA_VERSION), "schema_version",
             f"unsupported version {version!r}; expected {SCHEMA_VERSION}")
    cfg = _parse(raw, ExperimentConfig, "")
    kind, noise, run = cfg.kind, cfg.noise, cfg.run
    variants = cfg.noise_variants or ()
    _require(cfg.dem.p >= cfg.dem.d, "dem.p", "need p >= d")
    if not any(noise.process_noise_std):
        _require(noise.observer_process_precision is not None,
                 "noise.observer_process_precision",
                 "required when injected process noise is zero")
    if noise.measurement_noise_value == 0:
        _require(noise.observer_measurement_precision is not None,
                 "noise.observer_measurement_precision",
                 "required when injected measurement noise is zero")
    _require(run.log_path is not None or run.skip_steps < run.n_steps,
             "run.transient_skip_s", "skips every step of the record")
    _require(run.log_path is None or len(cfg.seeds) == 1, "seeds",
             "a log-backed run (run.log_path) replays one record; "
             "list exactly one seed")
    # Each seed replays one record: a repeat would score a record twice.
    for i, seed in enumerate(cfg.seeds):
        _require(seed not in cfg.seeds[:i], f"seeds[{i}]",
                 f"{seed} is listed earlier too; each seed replays one record")
    # A variant's tables and runtime are kept under its label.
    labels = [variant.label for variant in variants]
    for i, label in enumerate(labels):
        _require(label not in labels[:i], f"noise_variants[{i}].label",
                 f"{label!r} labels an earlier variant too; each variant "
                 f"needs a label of its own")

    # Kind-specific requirements.
    section = {"sweep_p": "sweep", "prior_sweep": "prior_sweep",
               "landscape": "landscape"}.get(kind)
    _require(section is None or getattr(cfg, section) is not None, section,
             f"required for {kind}")
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
        _require(len(cfg.seeds) == 1, "seeds",
                 "a landscape run probes one record; list exactly one seed")
    if kind == "noise_characterization":
        _require(run.log_path is None, "run.log_path",
                 "noise_characterization synthesizes one record set per "
                 "noise variant and reads no log")
        _require(len(variants) >= 2, "noise_variants",
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
        # embedding window, for the shoot-out more than twice the AR order
        # that state augmentation fits to its process noise, and for the
        # UIO two, to difference the output once.
        needed = _largest_order(cfg) + 1
        if kind == "benchmark_state":
            needed = max(needed, 2 * SA_AR_ORDER + 1)
        if kind == "input_benchmark":
            needed = max(needed, 2)
        _require(run.n_steps >= needed, "run.n_steps",
                 f"a {kind} run needs at least {needed} steps")
        # Its noise draws n_steps plus both sides of the smoothing kernel.
        # A kernel as wide as the record, or as a default-length one (short
        # records keep the shipped kernels), bounds the draw to three times
        # the longer of the two.
        widest = max(run.n_steps, RunSettings.n_steps)
        for name, sigma in [("noise.sigma", noise.sigma), *(
                (f"noise_variants[{i}].sigma", v.sigma)
                for i, v in enumerate(variants))]:
            width = kernel_half_width(sigma, run.dt)
            _require(width <= widest, name,
                     f"its noise kernel spans {width:g} samples each side "
                     f"(4 sigma / run.dt), more than {widest}, the longer "
                     f"of run.n_steps and a default record")

    # Lists whose length the plant a run builds fixes; None picks a default.
    plant = build_model(cfg)
    n, r = plant.n, plant.r
    for name, value, counts in [
            ("noise.process_noise_std", noise.process_noise_std, [n]),
            *((f"noise_variants[{i}].process_noise_std", v.process_noise_std,
               [n]) for i, v in enumerate(variants)),
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
