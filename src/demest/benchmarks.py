"""Classical estimators used as benchmarks: the discrete Kalman filter,
state augmentation with AR process noise, SMIKF (an AR(1)-aware Kalman
variant), the unknown input observer, plus AR fitting and the SSE metric.

The Kalman filter, the state-augmentation filter (a Kalman filter on the
augmented system) and SMIKF share one predict/update recursion; SMIKF only
adds the AR(1) cross term to its prediction. It runs in two passes: a gain
schedule per design, which never reads the data, then one pass of the means
of a stack of records over it. The means, like the UIO's observer states,
step through the replay driver ``systems._replay``. Each filter and the UIO
have a ``*_batch`` entry that replays a list of records as one stack, and a
one-record entry that replays a batch of one and raises its
``DivergenceError``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import cycle, islice
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, solve_discrete_lyapunov, solve_toeplitz
# Unused here, but kept importable: profilers count calls at these names.
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DivergenceError, ObserverDesignError
from .noise import NoiseSpec, sum_of_products
from .systems import (ExperimentData, LtiModel, _one, _replay, _stack,
                      discretize, zero_order_hold)

# Hard cap on augmented filter size (n + n*order states).
MAX_AUGMENTED_DIM = 128

NOT_INVERTIBLE = "innovation covariance not invertible"
NON_FINITE = "non-finite filter state"

# Steps within which a filter looks for an exact cycle of its covariance
# recursion. From then on, a design that has not cycled (SA-AR6 does not)
# freezes its gain at the first step that moves it by at most
# CONVERGED_RTOL of its largest entry.
CYCLE_WINDOW = 512
CONVERGED_RTOL = 1e-12


@dataclass(frozen=True)
class ArModel:
    """Auto-regressive noise model x_k = sum_j a_j x_{k-j} + eps_k."""

    order: int
    coefficients: np.ndarray
    innovation_variance: float

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("AR order must be at least 1")
        coeffs = np.asarray(self.coefficients, dtype=float).reshape(-1)
        if coeffs.size != self.order:
            raise ValueError("coefficient count must equal the order")
        object.__setattr__(self, "coefficients", coeffs)
        if self.innovation_variance < 0:
            raise ValueError("innovation variance must be non-negative")
        # 1 - a1 z - ... - aq z^q must have all roots outside the unit circle;
        # fitted models can sit near the boundary, so only warn.
        poly = np.concatenate([-coeffs[::-1], [1.0]])
        roots = np.roots(poly)
        if roots.size and np.min(np.abs(roots)) <= 1.0:
            warnings.warn("AR model is at or beyond the stationarity boundary",
                          RuntimeWarning)


def fit_ar(series, order: int) -> ArModel:
    """Yule-Walker fit from biased sample autocovariances."""
    x = np.asarray(series, dtype=float).reshape(-1)
    if x.size <= 2 * order:
        raise ValueError("series too short for the requested order")
    x = x - x.mean()
    n = x.size
    acov = np.array([sum_of_products(x[:n - h], x[h:]) / n
                     for h in range(order + 1)])
    if acov[0] == 0.0:
        raise ValueError("series has zero variance")
    coeffs = solve_toeplitz((acov[:order], acov[:order]), acov[1:order + 1])
    innovation = float(acov[0] - coeffs @ acov[1:order + 1])
    return ArModel(order=order, coefficients=coeffs,
                   innovation_variance=max(innovation, 0.0))


class KalmanResult(NamedTuple):
    means: np.ndarray        # (T, n) filtered means
    covariances: np.ndarray  # (T, n, n) filtered covariances
    # (step, period): from ``step`` on, the covariance recursion repeated
    # with ``period`` and only the means were replayed; period 0 marks a gain
    # frozen at ``step``, once it had stopped moving. None if neither.
    cycle: tuple[int, int] | None = None


def default_noise_matrices(noise: NoiseSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark (Q, R) convention: Q = inv(proc_precision) * dt, matching
    the simulator's dt-scaled injection of continuous-density noise."""
    q = np.linalg.inv(noise.proc_precision) * dt
    r = np.linalg.inv(noise.meas_precision)
    return 0.5 * (q + q.T), 0.5 * (r + r.T)


def _bits(a: np.ndarray) -> np.ndarray:
    """``a``'s float64 entries as integers, so that ``==`` compares bits."""
    return a.view(np.uint64)


def _schedule(ad, c, q, r, p, ar, n_steps, kept):
    """Gain schedule of ``_filter``: the covariance recursion, which never
    reads the data, over the (D, n, n) stack ``p`` of design slices.

    In floating point the recursion often enters an exact cycle: a slice's
    state ``(P, cross)`` returns bit for bit to an earlier one. Within the
    first ``CYCLE_WINDOW`` steps each slice's state is compared with one
    saved state, re-saved at steps 0, 1, 2, 4, 8, ... (Brent, BIT 20, 1980);
    a slice whose state matches repeats, from the saved step on, the gains
    and covariances of the steps since. A slice that has not cycled within
    the window freezes its gain at the first step ``f`` where ``max|G_f -
    G_{f-1}| <= CONVERGED_RTOL * max|G_f|``: from then on it restarts every
    step from step ``f``'s state, a cycle of period 1. Once every slice has
    cycled, the pass stops, and the rest of the schedule refers to the
    cycles' gains: the same bits as the full recursion, from one array of at
    most the least common multiple of the periods (one gain for a frozen
    stack).

    A slice fails at its first step with a singular innovation covariance or
    a non-finite posterior covariance, and leaves the stack; its gain at that
    step is NaN, so every mean replayed on it turns non-finite there. The
    innovation covariance is factored by LAPACK ``potrf``/``potrs``, the
    routines behind ``cho_factor``/``cho_solve``, without their wrappers'
    per-step checks.

    Returns a (D, n, m) gain per step, the (T, D, keep, keep) kept
    covariance blocks, each slice's ``KalmanResult.cycle`` and the set of
    singular ``(slice, step)`` pairs.
    """
    n_designs, n = p.shape[:2]
    m = c.shape[0]
    eye = np.eye(n)
    cross = np.zeros(p.shape)  # cov(prior error, current noise sample)
    ad_t = ad.swapaxes(-1, -2)
    covs = np.empty((n_steps, n_designs, kept, kept))
    live, rows, singular = np.arange(n_designs), slice(None), set()
    # Cycle search: the saved state (after the window, a frozen slice's
    # state) and the step it was saved at, and the start and period of each
    # slice's cycle (period 0 until it is found; start >= CYCLE_WINDOW marks
    # a frozen gain).
    gains, gain, saved, saved_at = [], None, None, None
    start = period = np.zeros(n_designs, dtype=int)
    switch = n_steps
    for k in range(n_steps):
        if k < CYCLE_WINDOW:
            if saved is not None:
                same = (_bits(p) == _bits(saved[0])).all(axis=(-2, -1))
                if ar is not None:
                    same &= (_bits(cross) == _bits(saved[1])).all(
                        axis=(-2, -1))
                found = same & (period == 0)
                start = np.where(found, saved_at, start)
                period = np.where(found, k - saved_at, period)
            if k & (k - 1) == 0:
                saved, saved_at = (p.copy(), cross.copy()), k
        if period.all():
            switch = k
            break
        frozen = (start >= CYCLE_WINDOW)[:, None, None]
        if frozen.any():
            p, cross = (np.where(frozen, a, b)
                        for a, b in zip(saved, (p, cross)))
        cp = c @ p
        s = cp @ c.T + r
        prev, gain, stuck = gain, np.empty((len(live), n, m)), []
        for i in range(len(live)):
            chol, info = dpotrf(s[i], lower=0, clean=0)
            if info == 0:
                gain[i] = dpotrs(chol, cp[i], lower=0)[0].T
            else:
                gain[i] = np.nan
                stuck.append(i)
        if k >= CYCLE_WINDOW:
            moved = np.abs(gain - prev).max(axis=(-2, -1))
            settled = (period == 0) & (
                moved <= CONVERGED_RTOL * np.abs(gain).max(axis=(-2, -1)))
            if settled.any():
                start = np.where(settled, k, start)
                period = np.where(settled, 1, period)
                saved = tuple(np.where(settled[:, None, None], a, b)
                              for a, b in zip((p, cross), saved))
        ikc = eye - gain @ c
        p = ikc @ p @ ikc.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
        # A non-finite entry makes the sum of squares non-finite; finite
        # squares whose sum overflows only send the step to the exact check.
        fail = None
        if stuck or not math.isfinite(np.vdot(p, p)):
            fail = ~np.isfinite(p).all(axis=(-2, -1))
            fail[stuck] = True
            gain[fail] = np.nan
            singular.update((d, k) for d in live[stuck].tolist())
        gains.append(gain if len(live) == n_designs else
                     np.zeros((n_designs, n, m)))
        gains[-1][rows] = gain
        covs[k, rows] = p[:, :kept, :kept]
        if fail is not None and fail.any():
            if fail.all():
                break
            ok = ~fail
            live = rows = live[ok]
            p, cross, ikc, gain, start, period = (
                a[ok] for a in (p, cross, ikc, gain, start, period))
            saved = tuple(a[ok] for a in saved)
            ad, ad_t, q, ar = (a[ok] if a is not None and a.ndim == 3 else a
                               for a in (ad, ad_t, q, ar))
        if ar is None:
            p = ad @ p @ ad_t + q
        else:
            # ikc @ cross: cov(posterior error, current noise sample)
            ad_psi = ad @ (ikc @ cross)
            p = ad @ p @ ad_t + q + ad_psi + ad_psi.swapaxes(-1, -2)
            cross = (ad_psi + q) @ ar.swapaxes(-1, -2)
    cycles = [None] * n_designs
    for d, step, length in zip(live.tolist(), start.tolist(), period.tolist()):
        if step >= CYCLE_WINDOW:
            cycles[d] = (step, 0)
        elif switch < n_steps:
            cycles[d] = (switch, length)
    if switch < n_steps:
        # Step k of slice i repeats step start_i + (k - start_i) % period_i,
        # and the gains repeat with the least common multiple of the periods.
        phase = start + (np.arange(switch, n_steps)[:, None] - start) % period
        covs[switch:, live] = covs[phase, live]
        phase, first = phase[:math.lcm(*period.tolist())], int(phase.min())
        repeat = np.zeros((len(phase), n_designs, n, m))
        repeat[:, live] = np.stack(gains[first:])[phase - first, live]
        gains.extend(islice(cycle(list(repeat)), n_steps - switch))
    return gains, covs, cycles, singular


def _filter(ad, bd, c, q, r, ys, vs, x0=None, p0=None, ar=None,
            keep=None) -> list:
    """Predict/update recursion shared by the Kalman-family filters.

    ``ys`` (S, T, m) and ``vs`` (S, T, r) are a stack of S records. ``ad``,
    ``q``, ``p0`` and ``ar`` are either (n, n), shared by every record, or
    (S, n, n), one per record; ``bd``, ``c`` and ``r`` are shared. The
    covariance recursion runs in ``_schedule``, once for a shared design and
    once per record for a stacked one. The replay driver ``_replay`` then
    steps the (S, n, 1) stack of means over that gain schedule: a step
    predicts from the last step's mean (from step 1 on) and updates.

    With ``ar`` (the diagonal matrix of AR(1) noise coefficients) the
    prediction also carries the covariance between the posterior error and
    the upcoming noise sample, as SMIKF does. With ``keep`` only the first
    ``keep`` states and their covariance block are stored.

    Returns each record's ``KalmanResult`` or ``DivergenceError``. A record
    fails at the earlier of its design's first bad step, where its gain is
    NaN, and its own first non-finite mean.
    """
    ad, bd, c, q, r = (np.atleast_2d(np.asarray(a, dtype=float))
                       for a in (ad, bd, c, q, r))
    n, m = ad.shape[-1], c.shape[0]
    if ys.shape[-1] != m:
        raise ValueError("measurement dimension does not match C")
    n_records, n_steps = ys.shape[:2]
    p = np.eye(n) if p0 is None else np.asarray(p0, dtype=float)
    stacked = any(a is not None and a.ndim == 3 for a in (ad, q, p, ar))
    n_designs = n_records if stacked else 1
    design = list(range(n_records)) if stacked else [0] * n_records
    kept = n if keep is None else keep
    gains, covs, cycles, singular = _schedule(
        ad, c, q, r, np.broadcast_to(p, (n_designs, n, n)), ar, n_steps, kept)
    x = np.zeros((n_records, n, 1)) if x0 is None else np.broadcast_to(
        np.asarray(x0, dtype=float)[..., None], (n_records, n, 1))
    # Step-major, so that step k of every record is one index.
    ys = np.moveaxis(ys, 1, 0)[..., None]
    bv = np.matmul(bd, np.moveaxis(vs, 1, 0)[..., None])

    def advance(k, x):
        if k:
            x = ad @ x + bv[k - 1]
        return x + gains[k] @ (ys[k] - c @ x)

    means, failed = _replay(
        x, n_steps, advance, slice(kept), lambda i, k: NOT_INVERTIBLE if (
            design[i], k) in singular else NON_FINITE)
    return [failed[i] if i in failed else KalmanResult(
                means[:, i], covs[:, design[i]], cycles[design[i]])
            for i in range(n_records)]


def kalman_filter(ad, bd, c, q, r, data: ExperimentData,
                  x0=None, p0=None) -> KalmanResult:
    """Standard discrete predict/update recursion (Joseph-form update)."""
    return _one(_filter(ad, bd, c, q, r, data.measurements[None],
                        data.inputs[None], x0, p0))


def kalman_filter_batch(ad, bd, c, q, r, datas) -> list:
    """``kalman_filter`` over records of one dt and length, with one
    covariance recursion shared by every record. Returns each record's
    ``KalmanResult``, or the ``DivergenceError`` of a record that diverged.
    """
    return _filter(ad, bd, c, q, r, *_stack(datas, "measurements", "inputs"))


def _unit_innovation_variance(coeffs: np.ndarray) -> float:
    """Stationary variance of an AR chain driven by unit-variance innovations."""
    order = coeffs.size
    comp = np.zeros((order, order))
    comp[0, :] = coeffs
    if order > 1:
        comp[1:, :-1] = np.eye(order - 1)
    qmat = np.zeros((order, order))
    qmat[0, 0] = 1.0
    return float(solve_discrete_lyapunov(comp, qmat)[0, 0])


def build_augmented_system(ad, bd, c, q, ar_models):
    """Discrete system augmented with the AR process-noise states.

    The noise states stack the current and past noise samples per lag; the
    transition carries the AR coefficients in companion form, and the noise
    block's stationary covariance is scaled so each channel's marginal
    matches the corresponding diagonal of ``q`` (the white-noise Q), which
    makes the zero-coefficient case coincide with the plain filter.
    """
    ad = np.atleast_2d(np.asarray(ad, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    n = ad.shape[0]
    if len(ar_models) != n:
        raise ValueError("one AR model per noise channel required")
    order = max(model.order for model in ar_models)
    aug_dim = n + n * order
    if aug_dim > MAX_AUGMENTED_DIM:
        raise ValueError(f"augmented dimension {aug_dim} exceeds "
                         f"{MAX_AUGMENTED_DIM}")
    coeff = np.zeros((n, order))
    for i, model in enumerate(ar_models):
        coeff[i, :model.order] = model.coefficients

    a_aug = np.zeros((aug_dim, aug_dim))
    a_aug[:n, :n] = ad
    a_aug[:n, n:2 * n] = np.eye(n)
    for j in range(order):
        a_aug[n:2 * n, n + j * n:n + (j + 1) * n] = np.diag(coeff[:, j])
    if order > 1:
        a_aug[2 * n:, n:-n] = np.eye(n * (order - 1))

    b_aug = np.zeros((aug_dim, np.atleast_2d(bd).shape[1]))
    b_aug[:n, :] = bd
    c_aug = np.zeros((np.atleast_2d(c).shape[0], aug_dim))
    c_aug[:, :n] = np.atleast_2d(c)

    # Innovations scaled so the stationary per-channel variance equals Q's
    # diagonal; cross terms inherit Q's correlation structure.
    gains = np.array([_unit_innovation_variance(coeff[i]) for i in range(n)])
    innovation = q / np.sqrt(np.outer(gains, gains))
    q_aug = np.zeros((aug_dim, aug_dim))
    q_aug[n:2 * n, n:2 * n] = innovation

    noise_tr = a_aug[n:, n:]
    noise_q = q_aug[n:, n:]
    stationary = solve_discrete_lyapunov(noise_tr, noise_q)
    return a_aug, b_aug, c_aug, q_aug, stationary


def _augmented(model: LtiModel, ad, bd, q, ar_models, x0=None, p0=None):
    """``(A, B, C, Q, x0, P0)`` of the filter on the AR-augmented system, or
    on the plain system when every AR coefficient is zero: then the
    augmentation carries no information."""
    p0 = np.eye(model.n) if p0 is None else np.asarray(p0, dtype=float)
    if all(np.all(m.coefficients == 0.0) for m in ar_models):
        return ad, bd, model.c, q, x0, p0
    a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
        ad, bd, model.c, q, ar_models)
    x0_aug = np.zeros(a_aug.shape[0])
    if x0 is not None:
        x0_aug[:model.n] = np.asarray(x0, dtype=float)
    return a_aug, b_aug, c_aug, q_aug, x0_aug, block_diag(p0, noise_cov)


def state_augmentation_filter(model: LtiModel, ar_models, data: ExperimentData,
                              q, r, x0=None, p0=None) -> KalmanResult:
    """Kalman filter on the AR-augmented system; returns the plant-state block.

    With all-zero AR coefficients the augmentation carries no information, so
    the call reduces to the plain Kalman filter on the original system.
    """
    ad, bd = discretize(model, data.dt)
    a, b, c, q, x0, p0 = _augmented(model, ad, bd, q, ar_models, x0, p0)
    return _one(_filter(a, b, c, q, r, data.measurements[None],
                        data.inputs[None], x0, p0, keep=model.n))


def state_augmentation_filter_batch(model: LtiModel, ar_models, datas,
                                    q, r) -> list:
    """``state_augmentation_filter`` over records of one dt and length, with
    one list of AR models per record. The designs of one size replay as one
    stack: the plain design of the records whose AR coefficients are all
    zero, as in the one-record call, and the augmented designs of the
    others. Returns each record's ``KalmanResult``, or its
    ``DivergenceError``.
    """
    ys, vs = _stack(datas, "measurements", "inputs", designs=ar_models)
    ad, bd = discretize(model, datas[0].dt)
    designs = [_augmented(model, ad, bd, q, ars) for ars in ar_models]
    out = {}
    for size in {d[0].shape[0] for d in designs}:
        idx = [i for i, d in enumerate(designs) if d[0].shape[0] == size]
        a, q_s, p0 = (np.stack([designs[i][j] for i in idx])
                      for j in (0, 3, 5))
        # A view, not a copy of the records, when one stack holds them all.
        rows = idx if len(idx) < len(datas) else slice(None)
        out.update(zip(idx, _filter(
            a, *designs[idx[0]][1:3], q_s, r, ys[rows], vs[rows], p0=p0,
            keep=model.n)))
    return [out[i] for i in range(len(datas))]


def _ar1_matrix(model: LtiModel, ar1_coefficients) -> np.ndarray:
    coeffs = np.asarray(ar1_coefficients, dtype=float).reshape(-1)
    if coeffs.size != model.n:
        raise ValueError("one AR(1) coefficient per noise channel required")
    if np.any(np.abs(coeffs) >= 1.0):
        raise ValueError("AR(1) coefficients must satisfy |a1| < 1")
    return np.diag(coeffs)


def smikf(model: LtiModel, ar1_coefficients, data: ExperimentData,
          q, r, x0=None, p0=None) -> KalmanResult:
    """Kalman recursion with the AR(1) process-noise cross term.

    The prediction covariance carries the correlation between the posterior
    error and the upcoming noise sample induced by first-order AR noise;
    zero coefficients give the plain Kalman filter's bits.
    """
    ar = _ar1_matrix(model, ar1_coefficients)
    ad, bd = discretize(model, data.dt)
    return _one(_filter(ad, bd, model.c, q, r, data.measurements[None],
                        data.inputs[None], x0, p0, ar=ar))


def smikf_batch(model: LtiModel, ar1_coefficients, datas, q, r) -> list:
    """``smikf`` over records of one dt and length, with one set of AR(1)
    coefficients per record: one recursion over stacked per-record
    covariances. Returns each record's ``KalmanResult``, or its
    ``DivergenceError``.
    """
    ys, vs = _stack(datas, "measurements", "inputs", designs=ar1_coefficients)
    ar = np.stack([_ar1_matrix(model, coeffs) for coeffs in ar1_coefficients])
    ad, bd = discretize(model, datas[0].dt)
    return _filter(ad, bd, model.c, q, r, ys, vs, ar=ar)


@dataclass(frozen=True)
class UioDesign:
    """Unknown-input-observer gains: z' = F z + K y, xhat = z + H y."""

    f: np.ndarray
    k: np.ndarray
    h: np.ndarray
    t: np.ndarray
    poles: tuple[float, ...]


class UioResult(NamedTuple):
    states: np.ndarray   # (T, n)
    inputs: np.ndarray   # (T, r)
    design: UioDesign


def default_uio_poles(model: LtiModel) -> tuple[float, ...]:
    """Observer poles at five times the plant's dominant rate (floor 2/s so
    plants with poles at the origin still converge within a standard
    transient)."""
    rate = float(np.max(np.abs(np.linalg.eigvals(model.a).real)))
    base = 5.0 * max(rate, 2.0)
    return tuple(-base * (1.0 + 0.25 * i) for i in range(model.n))


def design_uio(model: LtiModel, poles=None) -> UioDesign:
    """Design the classical UIO decoupling the unknown input.

    Existence requires rank(C B) == rank(B); H solves the decoupling via the
    pseudoinverse and the remaining dynamics are stabilized by pole
    placement.
    """
    b, c = model.b, model.c
    cb = c @ b
    if np.linalg.matrix_rank(cb) != np.linalg.matrix_rank(b):
        raise ObserverDesignError(
            "UIO existence condition failed: rank(C B) != rank(B)")
    h = b @ np.linalg.pinv(cb)
    t = np.eye(model.n) - h @ c
    ta = t @ model.a
    if poles is None:
        poles = default_uio_poles(model)
    poles = tuple(float(pole) for pole in poles)
    if len(poles) != model.n:
        raise ObserverDesignError("need one observer pole per state")
    # Imported here: scipy.signal loads scipy.stats, ~1 s no other path needs.
    from scipy.signal import place_poles
    placed = place_poles(ta.T, c.T, poles)
    k1 = placed.gain_matrix.T
    f = ta - k1 @ c
    k = k1 + f @ h
    return UioDesign(f=f, k=k, h=h, t=t, poles=poles)


def uio_batch(model: LtiModel, datas, poles=None) -> list:
    """Run the unknown input observer over records of one dt and length and
    reconstruct their inputs.

    The input estimate inverts the plant relation B v = dx/dt - A x at the
    observer state. The derivative combines the observer's own continuous
    dynamics with the measured-output increment entering through H; the
    latter is the only path that carries input information, because the
    decoupling makes T B vanish.

    The replay driver ``_replay`` steps the (S, n, 1) stack of observer
    states z. The estimates are linear maps of z and the measurements at
    one step, formed afterwards for all steps as stacked products. Returns
    each record's ``UioResult``, or the ``DivergenceError`` of its first
    step with a non-finite z, state estimate or input estimate.
    """
    ys, = _stack(datas, "measurements")
    design = design_uio(model, poles=poles)
    if ys.shape[1] < 2:
        raise ValueError("need at least two samples")
    if ys.shape[2] != model.m:
        raise ValueError("measurement dimension does not match plant output")
    dt = datas[0].dt
    fd, kd = zero_order_hold(design.f, design.k, dt)
    if np.linalg.matrix_rank(model.b) < model.r:
        warnings.warn("B is column-rank deficient: the input estimate is the "
                      "least-norm solution, not per-channel values",
                      RuntimeWarning)
    b_pinv = np.linalg.pinv(model.b)
    # Step-major, so that step k of every record is one index.
    y = np.moveaxis(ys, 1, 0)[..., None]
    kdy = kd @ y

    def advance(k, z):
        return fd @ z + kdy[k - 1] if k else z

    message = "non-finite observer state"
    # z starts where the state estimate is zero.
    z, failed = _replay(-design.h @ y[0], len(y), advance, slice(None),
                        lambda i, k: message)
    z = z[..., None]
    xhat = z + design.h @ y
    # The output derivative at step k is the increment to step k + 1; the
    # last step keeps its predecessor's.
    ydot = np.empty_like(y)
    ydot[:-1] = (y[1:] - y[:-1]) / dt
    ydot[-1] = ydot[-2]
    zdot = design.f @ z + design.k @ y
    vhat = b_pinv @ (zdot + design.h @ ydot - model.a @ xhat)
    bad = ~(np.isfinite(xhat).all(axis=(2, 3))
            & np.isfinite(vhat).all(axis=(2, 3)))
    for i in np.flatnonzero(bad.any(axis=0)).tolist():
        k = int(bad[:, i].argmax())
        if i not in failed or k < failed[i].step:
            failed[i] = DivergenceError(k, message)
    return [failed[i] if i in failed else UioResult(
                xhat[:, i, :, 0], vhat[:, i, :, 0], design)
            for i in range(len(datas))]


def uio(model: LtiModel, data: ExperimentData, poles=None) -> UioResult:
    """``uio_batch`` of one record; raises its ``DivergenceError``."""
    return _one(uio_batch(model, [data], poles=poles))


def sse(estimate, reference, skip: int = 0) -> float:
    """Sum of squared errors over the evaluated window."""
    est = np.asarray(estimate, dtype=float).reshape(-1)
    ref = np.asarray(reference, dtype=float).reshape(-1)
    if est.size != ref.size:
        raise ValueError(f"length mismatch: {est.size} vs {ref.size}")
    diff = est[skip:] - ref[skip:]
    return sum_of_products(diff, diff)
