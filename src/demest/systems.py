"""LTI plant definition, the quadrotor roll model, discrete simulation under
injected colored noise, input normalization, flight-log CSV ingestion, and
the replay driver of every stacked estimator: the linear recurrence
``x_k = M_k x_{k-1} + w_k``, scanned in chunks where each record's ``M`` is
constant."""

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
# carry loop, longer ones grow the block matrix quadratically. Median replay
# times in ms per run (OpenBLAS on 1 thread, 2.1 GHz Xeon, two sets of 15)
# for chunks of 6/12/18/24/36 steps: 15/14/13/15/21 on the 24,080-step
# flight log, 49/21/20/29/44 on the windy shoot-out and 36/27/35/36/41 on
# the prior sweep (20 records of 1204 steps; two levels at 6 steps).
SCAN_CHUNK = 12

# A chunk whose bound on its states reaches this replays step by step.
SCAN_MARGIN = 1e300

# OpenBLAS forms a GEMM of at most this many multiply-adds on one thread.
SERIAL_GEMM = 4 * 65536


def _steps(x, w, steps, keep, rows, failed, message, ids=slice(None),
           first=0):
    """Step the records ``ids`` of a replay, whose states are the stack
    ``x``, through ``x = M_k x + w_k`` for each ``(k, M_k)`` of ``steps``,
    storing ``x[:, keep, 0]`` in ``rows[k - first]``. A record fails at its
    first non-finite step; its state restarts from zero, and the loop stops
    once all of these records have failed. Returns the last state."""
    labels = np.arange(w.shape[0])[ids]
    for k, m in steps:
        x = np.matmul(m, x)
        x += w[ids, k, :, None]
        if not math.isfinite(np.vdot(x, x)):
            bad = ~np.isfinite(x).all(axis=(1, 2))
            for i in labels[bad].tolist():
                failed.setdefault(i, DivergenceError(k, message(i, k)))
            if all(i in failed for i in labels.tolist()):
                break
            x[bad] = 0.0
        rows[k - first] = x[:, keep, 0]
    return x


def _blocks(m, keep):
    """The chunk operators of ``SCAN_CHUNK`` steps of the transition ``m``.

    Step j's state is ``Phi_j x_in + sum_{i <= j} Psi_ji w_i``, where
    ``Psi_jj = I``, ``Psi_ji = M Psi_{j-1,i}``, ``Phi_j = M Phi_{j-1}`` and
    ``Phi_{-1} = I``: block row j is block row j - 1 times ``M``, in one
    stacked product. Returns, each with ``m``'s leading (record) axis if
    any:

    - ``psi`` (L·n, L·k + n): the chunk's drive, as one row, times ``psi``
      is the k kept states of each step from a zero entering state, then
      the full state at the chunk's end;
    - ``phi`` (n, L·k): the entering state's part of the kept states;
    - ``phi_end`` (n, n): ``Phi`` of the chunk's last step;
    - ``psi_norm`` and ``phi_norm``: the largest absolute row sums, over
      every step and state, of the ``Psi_j·`` block rows and of ``Phi_j``.
    """
    lead, n, chunk = m.shape[:-2], m.shape[-1], SCAN_CHUNK
    idx = np.arange(n)[keep]
    k = len(idx)
    psi = np.zeros(lead + (chunk * n, chunk * k + n))
    phi = np.empty(lead + (n, chunk * k))
    psi_norm = phi_norm = np.zeros(lead)
    row = np.broadcast_to(np.eye(n), lead + (1, n, n))  # [Phi_{-1}]
    for j in range(chunk):
        # [Phi_j, Psi_j0, ..., Psi_jj]
        row = np.concatenate([np.matmul(m[..., None, :, :], row),
                              row[..., -1:, :, :]], -3)
        phi[..., j * k:(j + 1) * k] = row[..., 0, idx, :].swapaxes(-1, -2)
        psi[..., :(j + 1) * n, j * k:(j + 1) * k] = row[
            ..., 1:, idx, :].swapaxes(-1, -2).reshape(lead + ((j + 1) * n, k))
        sums = np.abs(row).sum(axis=-1)
        phi_norm = np.maximum(phi_norm, sums[..., 0, :].max(axis=-1))
        psi_norm = np.maximum(psi_norm,
                              sums[..., 1:, :].sum(axis=-2).max(axis=-1))
    psi[..., chunk * k:] = row[..., 1:, :, :].swapaxes(-1, -2).reshape(
        lead + (chunk * n, n))
    return psi, phi, row[..., 0, :, :], psi_norm, phi_norm


def _gemm(a, b, first):
    """``a @ b`` of the (S, C, ·) chunk rows ``a``: one stacked product for
    a shared ``b``, else record i's own product from its chunk ``first[i]``
    on (and zeros before), so that every product's shape, and with it the
    BLAS kernel and its rounding, depends on its own record alone; in row
    blocks of at most ``SERIAL_GEMM`` multiply-adds, which OpenBLAS forms
    on one thread."""
    shared, out = b.ndim == 2, np.zeros(a.shape[:2] + b.shape[-1:])
    step = max(1, SERIAL_GEMM // max(1, b.shape[-2] * b.shape[-1]))
    for i, f in [(slice(None), 0)] if shared else enumerate(first.tolist()):
        for j in range(f, a.shape[1], step):
            np.matmul(a[i, j:j + step], b if shared else b[i],
                      out=out[i, j:j + step])
    return out


def _scan(x, w, transition, first, keep, rows, failed, message):
    """Replay the whole chunks of ``_replay`` from chunk ``first.min()`` on;
    record i is scanned from its chunk ``first[i]``, and steps through the
    chunks before. Returns the state after the last chunk replayed.

    One stacked GEMM gives every chunk's kept states from a zero entering
    state, and its end state. Over ``SCAN_CHUNK**2`` chunks or more,
    ``_replay`` scans the states between chunks, ``e_c = phi_end e_{c-1} +
    ends_c``; else a loop carries each into the next. A second GEMM adds
    each chunk's entering state to its kept states.

    A record's chunk is accepted when its bound ``psi_norm·max|w| +
    phi_norm·max|x_in|`` on every state of every step, kept or not, stays
    below ``SCAN_MARGIN``, so that no state or partial sum can overflow; a
    non-finite drive or entering state fails the check, as NaN compares
    false. Otherwise the record replays the chunk through ``_steps``, which
    gives its exact ``DivergenceError``, unless it has failed before: then
    its state only restarts from zero. A record takes the scanned ``e_c`` up
    to its first chunk of chunks that holds a failing chunk or a non-finite
    ``e_c``; the loop carries it from there.
    """
    n_records, n_steps, n = w.shape
    chunk = SCAN_CHUNK
    c0, n_chunks = int(first.min()), n_steps // chunk
    # A record's M is constant from its first scanned chunk on, so the
    # transition at the last of those chunks is every record's M.
    m = transition(int(first.max()) * chunk)
    psi, phi, phi_end, psi_norm, phi_norm = _blocks(m, keep)
    drive = w[:, c0 * chunk:n_chunks * chunk].reshape(
        n_records, n_chunks - c0, chunk * n)
    wbound = np.asarray(psi_norm)[..., None] * np.maximum(
        drive.max(axis=2), -drive.min(axis=2))
    zero_in = _gemm(drive, psi, first - c0)
    ends = zero_in[..., -n:, None]
    # A record's chunks before its first scanned one fail the check.
    wbound[first[:, None] > np.arange(c0, n_chunks)] = np.inf
    # Most chunks pass on one sum of squares: when every record's drive
    # term is below half the margin and |x| <= sqrt(x'x) is below half the
    # margin over the largest phi_norm, every record's bound holds. A zero
    # phi_norm (M = 0) puts no bound on the entering state.
    calm = (wbound < SCAN_MARGIN / 2).all(axis=0).tolist()
    phi_max = float(np.max(phi_norm))
    limit = SCAN_MARGIN / 2 / phi_max if phi_max else math.inf
    entering = np.zeros((n_records, n_chunks - c0 + 1, n))
    held = np.zeros(n_records, dtype=int)  # chunks entered from a scanned e_c
    if n_chunks - c0 >= chunk ** 2:  # then first == c0 (_replay splits)
        entering[:, 0], entering[:, 1:] = x[..., 0], _replay(
            x, ends[..., 0], slice(None), lambda i, k: "",
            lambda k: phi_end)[0].swapaxes(0, 1)
        ok = wbound + np.asarray(phi_norm)[..., None] * np.abs(
            entering[:, :-1]).max(axis=2) < SCAN_MARGIN
        ok[:, -1] &= np.isfinite(entering[:, -1]).all(axis=1)
        held = np.append(ok, ok[:, :1] & False, 1).argmin(1) // chunk * chunk
        x = entering[:, held.min(), :, None]
    patches, top, c = [], int(held.max()), int(held.min()) - 1
    for c in range(c + 1, n_chunks - c0):
        entering[:, c] = x[..., 0]
        out = np.matmul(phi_end, x)
        out += ends[:, c]
        if not (calm[c] and math.sqrt(np.vdot(x, x)) < limit):
            ok = wbound[:, c] + phi_norm * np.abs(x).max(axis=(1, 2)) \
                < SCAN_MARGIN
            dead = np.array([i in failed for i in range(n_records)])
            out[~ok & dead] = 0.0
            ids = np.flatnonzero(~ok & ~dead)
            if ids.size:
                start = (c0 + c) * chunk
                steps = [(k, m if m.ndim == 2 else m[ids]) for k, m in (
                    (k, transition(k)) for k in range(start, start + chunk))]
                patch = np.zeros((chunk, len(ids)) + rows.shape[2:])
                out[ids] = _steps(x[ids], w, steps, keep, patch, failed,
                                  message, ids, start)
                patches.append((start, ids, patch))
        if c < top:
            out[c < held] = entering[c < held, c + 1, :, None]
        x = out
        if len(failed) == n_records:
            break
    done = c + 1
    kept = zero_in[..., :-n]
    kept += _gemm(entering[:, :-1], phi, first - c0)
    start, stop = c0 * chunk, (c0 + done) * chunk
    rows[start:stop] = kept[:, :done].reshape(
        n_records, stop - start, -1).swapaxes(0, 1)
    for start, ids, patch in patches:
        rows[start:start + chunk, ids] = patch
    return x


@np.errstate(over="ignore", invalid="ignore")
def _replay(x, w, keep, message, transition, starts=0) -> tuple:
    """The replay driver of every stacked estimator: the recurrence
    ``x_k = M_k x_{k-1} + w_k`` of S records' states, from the (S, n, 1)
    stack ``x`` before step 0, over the (S, T, n) drive ``w``, storing
    ``x_k[:, keep, 0]`` at each step.

    ``transition(k)`` is ``M_k``: (n, n), shared by the stack, or (S, n,
    n), one per record. Record i's own ``M_k`` is constant from step
    ``starts[i]`` on; a scalar holds for every record, and a start of ``T``
    or more scans none of its steps.

    The steps fall into chunks of ``SCAN_CHUNK`` on a grid from step 0.
    From its first chunk that starts at or after its ``start``, every chunk
    of a record gets the same operators, from powers of its M; if it has at
    least two such chunks, ``_scan`` replays them, and the rest of its steps
    go one by one. Records that are never scanned replay apart, and so does
    each first chunk of a batch with a record of ``SCAN_CHUNK**2`` chunks.
    Every product is a stacked ``np.matmul`` whose slices are one record's
    BLAS calls, in one-thread row blocks in the scan (see ``_gemm``), and
    which steps of a record are scanned, and how, depends on that record
    alone, so a record gets the same bits alone or in any batch.

    A step checks the whole stack with one ``np.vdot``: a non-finite entry
    makes the sum of squares non-finite, and finite squares whose sum
    overflows only send the step to the exact per-record check. A record
    fails at its first non-finite step ``k`` with ``DivergenceError(k,
    message(record, k))``, also inside a scanned chunk, which then replays
    step by step. Its state then restarts from zero, so the others run on
    unchanged, and the replay stops once every record has failed. It finds
    and reports these steps itself, so numpy's overflow and invalid-value
    warnings are off for the call.

    Returns the (T, S, ·) stored rows and the ``{record: DivergenceError}``
    map of the failed records.
    """
    n_records, n_steps = w.shape[:2]
    n_chunks = n_steps // SCAN_CHUNK
    first = -(-np.broadcast_to(starts, n_records) // SCAN_CHUNK)
    first = np.where(n_chunks - first < 2, n_chunks, first)
    rows = np.zeros((n_steps,) + x[:, keep, 0].shape)
    failed = {}
    key = first if (n_chunks - first >= SCAN_CHUNK ** 2).any() \
        else first == n_chunks
    if (key != key[0]).any():
        for group in np.unique(key):
            ids = np.flatnonzero(key == group)
            rows[:, ids], part = _replay(
                x[ids], w[ids], keep, lambda i, k: message(int(ids[i]), k),
                lambda k: m if (m := transition(k)).ndim == 2 else m[ids],
                np.broadcast_to(starts, n_records)[ids])
            failed.update((int(ids[i]), e) for i, e in part.items())
        return rows, failed
    stop = int(first.min()) * SCAN_CHUNK
    x = _steps(x, w, ((k, transition(k)) for k in range(stop)), keep, rows,
               failed, message)
    if stop < n_chunks * SCAN_CHUNK and len(failed) < n_records:
        x = _scan(x, w, transition, first, keep, rows, failed, message)
        stop = n_chunks * SCAN_CHUNK
    if len(failed) < n_records:
        _steps(x, w, ((k, transition(k)) for k in range(stop, n_steps)),
               keep, rows, failed, message)
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
    Stacks of shape (S, T, ·) give S records, stepped together through one
    recurrence from one discretization, and return a list of S
    ExperimentData, each with the bits of its own one-record call. Every
    record starts from the zero state.

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
    # Each step's drive and noise, hoisted: the same products and sums, in
    # the same order, as written inside the loop.
    drive = np.matmul(bd, inputs[:, :n_steps - 1, :, None])[..., 0]
    noise = proc_noise[:, :n_steps - 1] * dt
    states = np.zeros((inputs.shape[0], n_steps, model.n))
    for k in range(n_steps - 1):
        # One product per record, as ``ad @ x`` makes for a lone record.
        states[:, k + 1] = (ad @ states[:, k, :, None])[..., 0] \
            + drive[:, k] + noise[:, k]
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
    return ExperimentData(
        dt=dt,
        measurements=measurements,
        inputs=inputs,
        truth_states=truth,
    )
