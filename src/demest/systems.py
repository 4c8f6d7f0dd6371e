"""LTI plant definition, the quadrotor roll model, discrete simulation under
injected colored noise, input normalization, flight-log CSV ingestion, and
the replay driver of the simulation and every stacked estimator: the linear
recurrence ``x_k = M_k x_{k-1} + w_k``, scanned in chunks where each
record's ``M`` is constant."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import numpy.ma  # noqa: F401  np.median loads it; load it with the import

from .errors import DataFormatError, DivergenceError

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


def _stack(datas, *fields, designs=None) -> tuple:
    """The (S, T, ·) stacks of ``fields`` of a batch of records, once the
    batch passes the checks every batch entry makes."""
    if not datas:
        raise ValueError("a batch needs at least one record")
    if len({(d.dt, d.n_steps) for d in datas}) != 1:
        raise ValueError("a batch replays records of one dt and length")
    if designs is not None and len(designs) != len(datas):
        raise ValueError(f"{len(designs)} designs for {len(datas)} records")
    return tuple(np.stack([getattr(d, f) for d in datas]) for f in fields)


def _one(outcomes: list):
    """The result of a batch of one record; raises its DivergenceError."""
    if isinstance(outcomes[0], DivergenceError):
        raise outcomes[0]
    return outcomes[0]


# Steps per chunk of the scan in ``_replay``. Shorter chunks lengthen the
# stepped chunk ends, longer ones grow the block matrix quadratically. Median
# replay times in ms per run (OpenBLAS on 1 thread, 2.1 GHz Xeon, two sets of
# 15) for chunks of 6/12/18/24/36 steps: 12/12/12/14/20 on the 24,080-step
# flight log, 43/14/17/21/35 on the windy shoot-out and 29/25/28/30/42 on
# the prior sweep (20 records of 1204 steps; two levels at 6 steps).
SCAN_CHUNK = 12

# A chunk whose bound on its states reaches this replays step by step.
SCAN_MARGIN = 1e300

# OpenBLAS forms a GEMM of at most this many multiply-adds on one thread.
SERIAL_GEMM = 4 * 65536


def _steps(x, w, steps, keep, rows, failed, ids=slice(None)):
    """Step the records ``ids`` of a replay, whose states are the stack
    ``x``, through ``x = M_k x + w_k`` for each ``(k, M_k)`` of ``steps``,
    storing ``x[:, keep, 0]`` in ``rows[ids, k]``. A record fails at its
    first non-finite step; its state restarts from zero, and the loop stops
    once all of these records have failed. Returns the last state."""
    labels = np.arange(w.shape[0])[ids]
    for k, m in steps:
        x = np.matmul(m, x)
        x += w[ids, k, :, None]
        if not math.isfinite(np.vdot(x, x)):
            bad = ~np.isfinite(x).all(axis=(1, 2))
            for i in labels[bad].tolist():
                failed.setdefault(i, k)
            if all(i in failed for i in labels.tolist()):
                break
            x[bad] = 0.0
        rows[ids, k] = x[:, keep, 0]
    return x


def _segments(x, w, lo, hi, transition, keep, rows, failed):
    """Step record i of the stack ``x`` in place through ``_steps``, from
    step ``lo[i]`` to step ``hi[i]`` (one of them may be a scalar): in
    disjoint segments between consecutive distinct bounds, each of the
    records whose span covers it, so ``transition(k)`` is formed once; none
    once every record of ``x`` has failed."""
    edges = np.unique(np.append(lo, hi)).tolist()
    for a, b in zip(edges, edges[1:]):
        ids = np.flatnonzero((lo <= a) & (hi >= b))
        if ids.size and len(failed) < len(x):
            ids = ids if ids.size < len(x) else slice(None)
            x[ids] = _steps(x[ids], w, (
                (k, m if (m := transition(k)).ndim == 2 else m[ids])
                for k in range(a, b)), keep, rows, failed, ids)


def _blocks(m, keep):
    """The chunk operators of ``SCAN_CHUNK`` steps of the transition ``m``.

    Step j's state is ``Phi_j x_in + sum_{i <= j} Psi_ji w_i``, where
    ``Psi_ji = M^(j-i)`` and ``Phi_j = M^(j+1)``: every block is one of the
    powers ``P_t = M P_{t-1}`` from ``P_0 = I``, one stacked product each,
    placed by indexing. Returns, each with ``m``'s leading (record) axis if
    any:

    - ``psi`` (L·n, L·k + n): the chunk's drive, as one row, times ``psi``
      is the k kept states of each step from a zero entering state, then
      the full state at the chunk's end;
    - ``phi`` (n, L·k): the entering state's part of the kept states;
    - ``phi_end`` (n, n): ``Phi`` of the chunk's last step;
    - ``psi_norm`` and ``phi_norm``: the largest absolute row sums, over
      every step and state, of the ``Psi_j·`` block rows and of ``Phi_j``,
      with a trailing axis of one.
    """
    lead, n, chunk = m.shape[:-2], m.shape[-1], SCAN_CHUNK
    idx = np.arange(n)[keep]
    k = len(idx)
    power = np.empty(lead + (chunk + 1, n, n))
    power[..., 0, :, :] = np.eye(n)
    for t in range(chunk):
        np.matmul(m, power[..., t, :, :], out=power[..., t + 1, :, :])
    kept = power[..., idx, :].swapaxes(-1, -2)
    sums = np.abs(power).sum(axis=-1)
    psi = np.zeros(lead + (chunk * n, chunk * k + n))
    phi = np.empty(lead + (n, chunk * k))
    psi_norm = np.zeros(lead + (1,))
    for j in range(chunk):
        # Block column j: [Psi_j0, ..., Psi_jj] = [P_j, ..., P_0].
        psi[..., :(j + 1) * n, j * k:(j + 1) * k] = kept[
            ..., j::-1, :, :].reshape(lead + ((j + 1) * n, k))
        phi[..., j * k:(j + 1) * k] = kept[..., j + 1, :, :]
        psi_norm = np.maximum(psi_norm, sums[..., j::-1, :].sum(
            axis=-2, keepdims=True).max(axis=-1))
    psi[..., chunk * k:] = power[..., chunk - 1::-1, :, :].swapaxes(
        -1, -2).reshape(lead + (chunk * n, n))
    phi_norm = sums[..., 1:, :].max(axis=-1).max(axis=-1, keepdims=True)
    return psi, phi, power[..., chunk, :, :], psi_norm, phi_norm


def _gemm(a, b):
    """``a @ b`` of the (S, C, ·) chunk rows ``a`` and a ``b`` shared (·,
    ·) or one per record (S, ·, ·), every record's rows from chunk 0: one
    stacked product per row block of at most ``SERIAL_GEMM`` multiply-adds
    a record, which OpenBLAS forms on one thread. Every product's shape, and
    with it the BLAS kernel and its rounding, depends on the batch's length
    alone."""
    out = np.empty(a.shape[:2] + b.shape[-1:])
    step = max(1, SERIAL_GEMM // max(1, b.shape[-2] * b.shape[-1]))
    for j in range(0, a.shape[1], step):
        np.matmul(a[:, j:j + step], b, out=out[:, j:j + step])
    return out


def _scan(x, w, transition, first, keep, rows, failed):
    """Replay the whole chunks of ``_replay``, record i from its chunk
    ``first[i]``, which it enters with the state ``x[i]``; a record with a
    first chunk of ``n_chunks`` is not scanned. Returns each record's state
    and step from which it goes one by one: the end of the chunks, or the
    start of its first failing chunk.

    Every level of the scan lays its chunks on one grid from step 0, so a
    record's chunks, and the chunks of its chunk ends, depend on its own
    start alone. One stacked GEMM gives every chunk's kept states from a
    zero entering state, and its end state ``ends_c``, for every record
    from chunk 0. The states between chunks, ``e_c = phi_end e_{c-1} +
    ends_c``, are one nested ``_replay`` of every record's chunk ends from
    chunk 0: scanned over ``SCAN_CHUNK**2`` chunks or more, else stepped. A
    record with a later first chunk is late: its ends before that chunk are
    zero, and it enters the recurrence as the end of the chunk before its
    first. A second GEMM adds each chunk's entering state to its kept
    states, and one copy stores each record's rows from its first chunk
    on, masked only when a record is late; the rows before its first chunk
    are formed but not stored.

    A record's chunk is accepted when its bound ``psi_norm·max|w| +
    phi_norm·max|x_in|`` on every state of every step, kept or not, stays
    below ``SCAN_MARGIN``, so that no state or partial sum can overflow; a
    non-finite drive or entering state fails the check, as NaN compares
    false. The chunks before a record's first are not checked. From its
    first failing chunk, a record that has not failed goes one by one,
    which finds its exact first non-finite step.
    """
    n_records, n_steps, n = w.shape
    chunk = SCAN_CHUNK
    n_chunks = n_steps // chunk
    # A scanned record's M is constant from its first chunk on, so the
    # transition of the last step is every scanned record's M.
    psi, phi, phi_end, psi_norm, phi_norm = _blocks(
        transition(n_steps - 1), keep)
    drive = w[:, :n_chunks * chunk].reshape(n_records, n_chunks, chunk * n)
    zero_in = _gemm(drive, psi)
    before = first[:, None] > np.arange(n_chunks)
    late = first > 0
    zero_in[before, -n:] = 0.0
    zero_in[late, first[late] - 1, -n:] = x[late, :, 0]
    entering = np.zeros((n_records, n_chunks + 1, n))
    entering[:, 1:] = _replay(
        np.where(late[:, None, None], 0.0, x), zero_in[..., -n:],
        slice(None), lambda k: phi_end,
        0 if n_chunks >= chunk ** 2 else n_chunks)[0]
    # Exact: a late record's e_c adds phi_end @ 0, NaN where it overflowed.
    entering[np.arange(n_records), first] = x[..., 0]
    # The 2-norms, from two batched dots, bound the max-norms (to rounding:
    # half the margin); the max-norms decide unless they clear every chunk.
    size = [np.sqrt(np.vecdot(a, a)) for a in (drive, entering[:, :-1])]
    ok = (psi_norm * size[0] + phi_norm * size[1] < SCAN_MARGIN / 2) | before
    if not ok.all():
        size = [np.abs(a).max(axis=2) for a in (drive, entering[:, :-1])]
        ok = (psi_norm * size[0] + phi_norm * size[1] < SCAN_MARGIN) | before
    fail = np.where(ok.all(axis=1), n_chunks, ok.argmin(axis=1))
    # Each record's rows from its first chunk on, in one copy.
    kept = zero_in[..., :-n].reshape(n_records, n_chunks, chunk, -1)
    kept += _gemm(entering[:, :-1], phi).reshape(kept.shape)
    grid = rows[:, :n_chunks * chunk].reshape(kept.shape)
    if before.any():
        np.copyto(grid, kept, where=~before[..., None, None])
    else:
        grid[...] = kept
    fail[list(failed)] = n_chunks  # a failed record's rows are not used
    return entering[np.arange(n_records), fail, :, None], fail * chunk


@np.errstate(over="ignore", invalid="ignore")
def _replay(x, w, keep, transition, starts=0) -> tuple:
    """The replay driver of the plant simulation and every stacked
    estimator: the recurrence ``x_k = M_k x_{k-1} + w_k`` of S records'
    states, from the (S, n, 1) stack ``x`` before step 0, over the (S, T, n)
    drive ``w``, storing ``x_k[:, keep, 0]`` at each step.

    ``transition(k)`` is ``M_k``: (n, n), shared by the stack, or (S, n,
    n), one per record. Record i's own ``M_k`` is constant from step
    ``starts[i]`` on; a scalar holds for every record, and a start of ``T``
    or more scans none of its steps.

    The steps fall into chunks of ``SCAN_CHUNK`` on a grid from step 0, and
    so do the chunk ends at every level of the scan. From its first chunk
    that starts at or after its ``start``, every chunk of a record gets the
    same operators, from powers of its M; if it has at least two such
    chunks, ``_scan`` replays them, and the rest of its steps go one by
    one. Any mix of starts replays as one stack: the steps up to each
    record's first chunk, one scan, then the steps after it. Every product
    is a stacked ``np.matmul`` whose slices are one record's BLAS calls,
    from chunk 0 in one-thread row blocks in the scan (see ``_gemm``), and
    which steps of a record are scanned, and how, depends on that record's
    start alone, so a record gets the same bits alone or in any batch, with
    a shared or a per-record transition and any mix of starts.

    A step checks the whole stack with one ``np.vdot``: a non-finite entry
    makes the sum of squares non-finite, and finite squares whose sum
    overflows only send the step to the exact per-record check. A record
    fails at its first non-finite step, also inside a scanned chunk: from
    the first chunk that fails its bound, it steps. Its state then restarts
    from zero, so the others run on unchanged, and the replay stops once
    every record has failed. It finds these steps itself, so numpy's
    overflow and invalid-value warnings are off for the call; each caller
    names its own failure.

    Returns the stored rows as an (S, T, ·) stack, the layout of the drive,
    and ``{record: first non-finite step}`` of the failed records.
    """
    n_records, n_steps = w.shape[:2]
    n_chunks = n_steps // SCAN_CHUNK
    first = -(-np.broadcast_to(starts, n_records) // SCAN_CHUNK)
    first = np.where(n_chunks - first < 2, n_chunks, first)
    rows = np.zeros((n_records, n_steps) + x[0, keep, 0].shape)
    failed = {}
    x, start = x.copy(), np.full(n_records, n_chunks * SCAN_CHUNK)
    _segments(x, w, 0, first * SCAN_CHUNK, transition, keep, rows, failed)
    if first.min() < n_chunks and len(failed) < n_records:
        x, start = _scan(x, w, transition, first, keep, rows, failed)
    _segments(x, w, start, n_steps, transition, keep, rows, failed)
    return rows, failed


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


# Higham (2005), "The scaling and squaring method for the matrix exponential
# revisited", Table 2.3: the largest 1-norm for which the [m/m] Padé
# approximant of exp is accurate to double precision, and the approximant's
# coefficients b_0..b_m. Larger norms are scaled below _THETA_13 and squared.
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
)
_THETA_13 = 5.371920351148152
_PADE_13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
            960960.0, 16380.0, 182.0, 1.0)


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of a square matrix by Padé scaling and
    squaring (Higham, 2005, Algorithm 2.3). A non-finite matrix, or one
    whose 1-norm overflows, gives a matrix of NaN, as ``scipy.linalg.expm``
    does. Squarings that overflow give inf or NaN entries without a
    warning: the callers check the result."""
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan)
    squarings = 0
    for m, theta, b in _PADE:
        if norm <= theta:
            powers = [np.eye(a.shape[0]), a @ a]
            for _ in range(m // 2 - 1):
                powers.append(powers[-1] @ powers[1])
            u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
            v = sum(b[2 * j] * p for j, p in enumerate(powers))
            break
    else:
        squarings = max(0, math.ceil(math.log2(norm / _THETA_13)))
        a = np.ldexp(a, -squarings)
        b, eye = _PADE_13, np.eye(a.shape[0])
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
            + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    # The approximant (V - U)^-1 (V + U), as I + 2 (V - U)^-1 U: on the
    # shipped observer blocks 2-5 times closer to a 40-digit exponential.
    r = np.linalg.solve(v - u, u)
    r += r
    r[np.diag_indices_from(r)] += 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            r = r @ r
    return r


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
             proc_noise, meas_noise):
    """Propagate the plant under injected noise and return full ground truth.

    Series of shape (T, ·) give one record and return its ExperimentData.
    Stacks of shape (S, T, ·) give S records from one discretization and
    return a list of S ExperimentData, each with the bits of its own
    one-record call. Every record starts from the zero state and replays
    through ``_replay`` with the transition ``Ad`` from step 0; an overflow
    raises the ``DivergenceError`` of the lowest-index record that fails
    (``plant simulation diverged at step k: non-finite simulated state``).

    The process noise series is a continuous-time density sampled at the
    steps; it enters the recurrence scaled by dt so its precision keeps
    continuous-time units.
    """
    series = [np.asarray(s, dtype=float)
              for s in (inputs, proc_noise, meas_noise)]
    stacked = series[0].ndim == 3
    if any((s.ndim == 3) != stacked for s in series):
        raise ValueError("stack every series (S, T, ·) or none")
    if not stacked:
        series = [np.atleast_2d(s)[None] for s in series]
    inputs, proc_noise, meas_noise = series
    if len({s.shape[0] for s in series}) != 1:
        raise ValueError("stacked series must hold the same number of "
                         f"records, got {[s.shape[0] for s in series]}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    if min(s.shape[1] for s in series) < n_steps:
        raise ValueError("series must provide at least n_steps samples")
    if inputs.shape[2] != model.r:
        raise ValueError("input dimension mismatch")
    if proc_noise.shape[2] != model.n:
        raise ValueError("process-noise dimension mismatch")
    if meas_noise.shape[2] != model.m:
        raise ValueError("measurement-noise dimension mismatch")

    ad, bd = discretize(model, dt)
    w = np.zeros((inputs.shape[0], n_steps, model.n))
    w[:, 1:] = np.matmul(bd, inputs[:, :n_steps - 1, :, None])[..., 0] \
        + proc_noise[:, :n_steps - 1] * dt
    states, failed = _replay(np.zeros((len(w), model.n, 1)), w, slice(None),
                             lambda k: ad)
    if failed:
        raise DivergenceError(failed[min(failed)],
                              "non-finite simulated state",
                              subject="plant simulation")
    measurements = states @ model.c.T + meas_noise[:, :n_steps]
    records = [ExperimentData(dt=dt, measurements=measurements[i],
                              inputs=inputs[i, :n_steps].copy(),
                              truth_states=states[i],
                              truth_inputs=inputs[i, :n_steps].copy())
               for i in range(inputs.shape[0])]
    return records if stacked else records[0]


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


def normalized_pwm(path, pwm) -> tuple[np.ndarray, np.ndarray]:
    """``normalize_inputs`` of the first PWM columns of the log at
    ``path``; a constant column is a ``DataFormatError`` that names it."""
    flat = np.flatnonzero(pwm.max(axis=0) == pwm.min(axis=0))
    if flat.size:
        raise DataFormatError(
            f"{path}: column 'pwm{flat[0] + 1}' is constant; normalized "
            "inputs need a range")
    return normalize_inputs(pwm)


def load_flight_log(path) -> ExperimentData:
    """Parse a flight-log CSV, validating schema, monotonicity, and jitter.
    A log that cannot be opened or decoded is a ``DataFormatError`` that
    names it."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from None
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
    return ExperimentData(
        dt=dt,
        measurements=measurements,
        inputs=inputs,
        truth_states=truth,
    )
