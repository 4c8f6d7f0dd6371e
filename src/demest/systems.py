"""LTI plant definition, the quadrotor roll model, discrete simulation under
injected colored noise, input normalization, and flight-log CSV ingestion."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .errors import DataFormatError

FLIGHT_LOG_COLUMNS = ("t", "phi", "phidot", "pwm1", "pwm2", "pwm3", "pwm4")
FLIGHT_LOG_TRUTH_COLUMNS = ("phi_true", "phidot_true")

# Relative timestamp jitter tolerated before a log is rejected.
DT_JITTER = 0.01


@dataclass(frozen=True)
class LtiModel:
    """Continuous-time plant x' = A x + B v + w, y = C x + z."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.atleast_2d(np.asarray(self.c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if b.shape[0] != a.shape[0]:
            raise ValueError("B row count must match A")
        if c.shape[1] != a.shape[0]:
            raise ValueError("C column count must match A")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def r(self) -> int:
        return self.b.shape[1]

    @property
    def m(self) -> int:
        return self.c.shape[0]


def observability_matrix(model: LtiModel) -> np.ndarray:
    blocks = [model.c]
    for _ in range(model.n - 1):
        blocks.append(blocks[-1] @ model.a)
    return np.vstack(blocks)


def is_observable(model: LtiModel) -> bool:
    return np.linalg.matrix_rank(observability_matrix(model)) == model.n


@dataclass(frozen=True)
class ExperimentData:
    """Time-stamped measurement/input record, with ground truth when known."""

    dt: float
    measurements: np.ndarray            # (T, m)
    inputs: np.ndarray                  # (T, r)
    truth_states: np.ndarray | None = None
    truth_inputs: np.ndarray | None = None
    input_scales: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        meas = np.atleast_2d(np.asarray(self.measurements, dtype=float))
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if inputs.shape[0] != meas.shape[0]:
            raise ValueError("measurements and inputs must share length")
        object.__setattr__(self, "measurements", meas)
        object.__setattr__(self, "inputs", inputs)
        for name in ("truth_states", "truth_inputs"):
            val = getattr(self, name)
            if val is not None:
                val = np.atleast_2d(np.asarray(val, dtype=float))
                if val.shape[0] != meas.shape[0]:
                    raise ValueError(f"{name} must share length with measurements")
                object.__setattr__(self, name, val)

    @property
    def n_steps(self) -> int:
        return self.measurements.shape[0]


def quadrotor_roll_model(i_xx: float, c_b_phi: float,
                         full_state_output: bool = False) -> LtiModel:
    """Small-angle roll dynamics of a quadrotor driven by four PWM channels.

    States are roll angle and roll rate; the thrust coefficient over the roll
    inertia maps PWM differences onto roll acceleration. By default only the
    angle is measured; ``full_state_output`` switches to C = I for observer
    designs that need full-state measurements.
    """
    if i_xx <= 0 or c_b_phi <= 0:
        raise ValueError("inertia and thrust coefficient must be positive")
    g = c_b_phi / i_xx
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0, 0.0, 0.0], [g, -g, -g, g]])
    c = np.eye(2) if full_state_output else np.array([[1.0, 0.0]])
    return LtiModel(a=a, b=b, c=c)


def normalize_inputs(series) -> tuple[np.ndarray, np.ndarray]:
    """Channel-wise (v - mean) / (max - min) normalization.

    Returns the normalized series and the per-channel factors
    ``1 / (max - min)``; dividing the corresponding B columns by these
    factors keeps the plant dynamics unaltered.
    """
    series = np.atleast_2d(np.asarray(series, dtype=float))
    if series.shape[0] == 1 and series.size > 1:
        series = series.T
    spans = series.max(axis=0) - series.min(axis=0)
    bad = np.flatnonzero(spans == 0.0)
    if bad.size:
        raise ValueError(f"input channel {bad[0]} has zero range")
    normalized = (series - series.mean(axis=0)) / spans
    return normalized, 1.0 / spans


def rescale_input_matrix(model: LtiModel, factors) -> LtiModel:
    """Compensate B for normalized inputs (divide columns by the factors)."""
    factors = np.asarray(factors, dtype=float).reshape(-1)
    if factors.size != model.r:
        raise ValueError("one factor per input channel required")
    return replace(model, b=model.b / factors)


def zero_order_hold(a: np.ndarray, b: np.ndarray,
                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Ad, Bd) of x' = a x + b u with u held over dt, from the matrix
    exponential of the augmented block ``[[a, b], [0, 0]]``."""
    n, r = a.shape[0], b.shape[1]
    block = np.zeros((n + r, n + r))
    block[:n, :n] = a
    block[:n, n:] = b
    phi = expm(block * dt)
    return phi[:n, :n], phi[:n, n:]


def discretize(model: LtiModel, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold discretization of the plant."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return zero_order_hold(model.a, model.b, dt)


def simulate(model: LtiModel, dt: float, n_steps: int, inputs,
             proc_noise, meas_noise, x0=None) -> ExperimentData:
    """Propagate the plant under injected noise and return full ground truth.

    The process noise series is a continuous-time density sampled at the
    steps; it enters the recurrence scaled by dt so its precision keeps
    continuous-time units.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    proc_noise = np.atleast_2d(np.asarray(proc_noise, dtype=float))
    meas_noise = np.atleast_2d(np.asarray(meas_noise, dtype=float))
    if inputs.shape[0] < n_steps or proc_noise.shape[0] < n_steps \
            or meas_noise.shape[0] < n_steps:
        raise ValueError("series must provide at least n_steps samples")
    if inputs.shape[1] != model.r:
        raise ValueError("input dimension mismatch")
    if proc_noise.shape[1] != model.n:
        raise ValueError("process-noise dimension mismatch")
    if meas_noise.shape[1] != model.m:
        raise ValueError("measurement-noise dimension mismatch")
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)

    ad, bd = discretize(model, dt)
    # Each step's drive and noise, hoisted: the same products and sums, in
    # the same order, as written inside the loop.
    drive = np.matmul(bd, inputs[:n_steps - 1, :, None])[:, :, 0]
    noise = proc_noise[:n_steps - 1] * dt
    states = np.empty((n_steps, model.n))
    states[0] = x0
    for k in range(n_steps - 1):
        states[k + 1] = ad @ states[k] + drive[k] + noise[k]
    measurements = states @ model.c.T + meas_noise[:n_steps]
    return ExperimentData(
        dt=dt,
        measurements=measurements,
        inputs=inputs[:n_steps].copy(),
        truth_states=states,
        truth_inputs=inputs[:n_steps].copy(),
    )


def residual_process_noise(model: LtiModel, data: ExperimentData) -> np.ndarray:
    """Empirical process noise backed out of the state transitions.

    Divides by dt to return the continuous-time-rate quantity injected by
    :func:`simulate`. Uses ground-truth states when present, otherwise
    full-state measurements.
    """
    if data.truth_states is not None:
        states = data.truth_states
    elif data.measurements.shape[1] == model.n:
        states = data.measurements
    else:
        raise ValueError("need truth_states or full-state measurements")
    if states.shape[0] < 2:
        raise ValueError("need at least two samples to form a transition")
    ad, bd = discretize(model, data.dt)
    pred = states[:-1] @ ad.T + data.inputs[:-1] @ bd.T
    return (states[1:] - pred) / data.dt


def _format_float(x: float) -> str:
    return repr(float(x))


def save_flight_log(path, data: ExperimentData) -> None:
    """Write the CSV flight-log format; floats round-trip exactly."""
    path = Path(path)
    has_truth = data.truth_states is not None
    header = list(FLIGHT_LOG_COLUMNS)
    if has_truth:
        header += list(FLIGHT_LOG_TRUTH_COLUMNS)
    if data.measurements.shape[1] != 2:
        raise ValueError("flight logs store (phi, phidot) measurements")
    if data.inputs.shape[1] != 4:
        raise ValueError("flight logs store four pwm channels")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(data.n_steps):
            row = [k * data.dt, *data.measurements[k], *data.inputs[k]]
            if has_truth:
                row += list(data.truth_states[k])
            writer.writerow(_format_float(v) for v in row)


def _checked_rows(path, reader, header, index) -> np.ndarray:
    """The data rows parsed one by one, raising a ``DataFormatError`` that
    names the first malformed row (and column)."""
    rows = []
    for lineno, raw in enumerate(reader, start=1):
        if not raw:
            continue
        if len(raw) != len(header):
            raise DataFormatError(
                f"{path}: row {lineno}: {len(raw)} cells, header has "
                f"{len(header)}")
        try:
            values = [float(v) for v in raw]
        except ValueError:
            raise DataFormatError(
                f"{path}: row {lineno}: non-numeric cell") from None
        for name in header:
            if not math.isfinite(values[index[name]]):
                raise DataFormatError(
                    f"{path}: row {lineno}: non-finite value in column "
                    f"'{name}'")
        rows.append(values)
    if len(rows) < 2:
        raise DataFormatError(f"{path}: need at least two data rows")
    return np.asarray(rows)


def _loadtxt_rows(fh, width: int):
    """The data rows as one array, parsed by ``np.loadtxt`` (the same bits
    as ``float`` of each cell); None when the rows need the per-row parse,
    which names the offending row and column."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except (ValueError, Warning):
        return None
    if table.shape[1] != width or table.shape[0] < 2 \
            or not np.isfinite(table).all():
        return None
    return table


def load_flight_log(path, normalize: bool = False) -> ExperimentData:
    """Parse a flight-log CSV, validating schema, monotonicity, and jitter."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in FLIGHT_LOG_COLUMNS:
            if col not in header:
                raise DataFormatError(f"{path}: missing column '{col}'")
        has_truth = all(c in header for c in FLIGHT_LOG_TRUTH_COLUMNS)
        index = {name: header.index(name) for name in header}
        table = _loadtxt_rows(fh, len(header))
        if table is None:
            fh.seek(0)
            next(reader)
            table = _checked_rows(path, reader, header, index)
    t = table[:, index["t"]]
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        row = int(np.flatnonzero(diffs <= 0)[0]) + 2
        raise DataFormatError(f"{path}: row {row}: non-monotone timestamp")
    dt_ref = float(np.median(diffs))
    jitter = np.abs(diffs - dt_ref)
    if np.any(jitter > DT_JITTER * dt_ref):
        row = int(np.argmax(jitter > DT_JITTER * dt_ref)) + 2
        raise DataFormatError(
            f"{path}: row {row}: timestamp jitter exceeds "
            f"{DT_JITTER:.0%} of dt={dt_ref:g}")
    # First difference is exact for logs written by save_flight_log.
    dt = float(t[1] - t[0])

    measurements = table[:, [index["phi"], index["phidot"]]]
    inputs = table[:, [index[f"pwm{i}"] for i in range(1, 5)]]
    truth = None
    if has_truth:
        truth = table[:, [index[c] for c in FLIGHT_LOG_TRUTH_COLUMNS]]
    scales = None
    if normalize:
        inputs, scales = normalize_inputs(inputs)
    return ExperimentData(
        dt=dt,
        measurements=measurements,
        inputs=inputs,
        truth_states=truth,
        input_scales=scales,
    )
