"""Classical estimators used as benchmarks: the discrete Kalman filter,
state augmentation with AR process noise, SMIKF (an AR(1)-aware Kalman
variant), the unknown input observer, plus AR fitting and the SSE metric.

The Kalman filter, the state-augmentation filter (a Kalman filter on the
augmented system) and SMIKF share one predict/update recursion; SMIKF only
adds the AR(1) cross term to its prediction. Each has a one-record entry and
a ``*_batch`` entry that replays a list of records through the same
recursion, stacked along a leading record axis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, solve_discrete_lyapunov, solve_toeplitz
# Unused here, but kept importable: profilers count calls at these names.
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DivergenceError, ObserverDesignError
from .noise import NoiseSpec, sum_of_products
from .systems import ExperimentData, LtiModel, discretize, zero_order_hold

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


def _filter(ad, bd, c, q, r, ys, vs, x0=None, p0=None, ar=None, keep=None):
    """Predict/update recursion shared by the Kalman-family filters.

    ``ys`` (T, m) and ``vs`` (T, r) replay one record. With a leading record
    axis, (S, T, m) and (S, T, r), the S records replay in one stacked
    recursion, with the means as an (S, n, 1) stack. ``ad``, ``q``, ``p0``
    and ``ar`` are either (n, n), shared by every record, or (S, n, n), one
    per record; the covariance recursion is stacked only when one of them
    is, so a shared design runs it once for all records. ``bd``, ``c`` and
    ``r`` are shared. Each slice of a stacked ``np.matmul`` is the same BLAS
    call as the one-record product, so a record gets the same bits alone or
    in any batch.

    With ``ar`` (the diagonal matrix of AR(1) noise coefficients) the
    prediction also carries the covariance between the posterior error and
    the upcoming noise sample, as SMIKF does. With ``keep`` only the first
    ``keep`` states and their covariance block are stored. The innovation
    covariance is factored by LAPACK ``potrf``/``potrs`` directly, one call
    per design slice: the routines behind ``cho_factor``/``cho_solve``, so
    the same bits without the per-step wrapper and its finiteness checks. An
    overflowed prediction is caught by the finite check on ``x`` and ``P``
    at the step that uses it.

    The covariance recursion does not see the data, and in floating point
    it often enters an exact cycle: a design slice's state ``(P, cross)``
    returns bit for bit to an earlier one. Within the first
    ``CYCLE_WINDOW`` steps each slice's state is compared with one saved
    state, re-saved at steps 0, 1, 2, 4, 8, ... (Brent, BIT 20, 1980); a
    slice whose state matches repeats, from the saved step on, the gains
    and covariances of the steps since, with their count as its period.
    Once every slice has cycled, the rest of the record replays only the
    means over that periodic gain schedule, and the covariances are copied
    from the cycle: the same bits as the full recursion. A slice that has
    not cycled within the window freezes its gain at the first step ``f``
    where ``max|G_f - G_{f-1}| <= CONVERGED_RTOL * max|G_f|``: from then on
    it restarts every step from step ``f``'s state, a cycle of period 1, so
    it keeps ``G_f`` and step ``f``'s covariance whether or not the rest of
    the stack has switched.

    Returns ``(means, covariances, failed, cycle)``, time-major: means (T,
    [S,] keep) and covariances (T, [S,] keep, keep), with the record axis
    only where the covariance recursion is stacked. A one-record replay
    raises its ``DivergenceError``; a stacked one maps the index of each
    record that diverged to its error in ``failed``, drops the record from
    the stack and leaves its rows unset, so the other records run on
    unchanged. ``cycle`` is ``(steps, periods)``, int arrays shaped like the
    record axis: each record's switch step and gain period, or its freeze
    step and period 0; step -1 where the record did neither.
    """
    ad, bd, c, q, r = (np.atleast_2d(np.asarray(a, dtype=float))
                       for a in (ad, bd, c, q, r))
    n, m = ad.shape[-1], c.shape[0]
    if ys.shape[-1] != m:
        raise ValueError("measurement dimension does not match C")
    lead = ys.shape[:-2]
    p = np.eye(n) if p0 is None else np.asarray(p0, dtype=float)
    if any(a is not None and a.ndim == 3 for a in (ad, q, p, ar)):
        p = np.broadcast_to(p, lead + (n, n))
    x = np.zeros(lead + (n, 1)) if x0 is None else np.broadcast_to(
        np.asarray(x0, dtype=float)[..., None], lead + (n, 1))
    # Step-major views, so that step k of every record is one index.
    ys = np.moveaxis(ys, -2, 0)[..., None]
    vs = np.moveaxis(vs, -2, 0)[..., None]
    per_record = p.ndim == 3
    add = np.add.reduce
    cross = np.zeros(p.shape)  # cov(prior error, current noise sample)
    eye = np.eye(n)
    kept = n if keep is None else keep
    n_steps = ys.shape[0]
    means = np.empty(ys.shape[:-2] + (kept,))
    covs = np.empty((n_steps,) + p.shape[:-2] + (kept, kept))
    mean_block, cov_block = np.s_[..., :kept, 0], np.s_[..., :kept, :kept]
    live = np.arange(lead[0]) if lead else None
    rows = design_rows = slice(None)
    failed = {}
    ad_t = ad.swapaxes(-1, -2)
    slices = list(np.ndindex(p.shape[:-2]))
    # Cycle search: each design slice's gains until the switch, the saved
    # state (after the window, a frozen slice's state) and the step it was
    # saved at, and the start and period of each slice's cycle (period 0
    # until it is found; start >= CYCLE_WINDOW marks a frozen gain).
    seen_gains = np.empty((n_steps,) + p.shape[:-2] + (n, m))
    saved = saved_at = None
    start = period = np.zeros(p.shape[:-2], dtype=int)
    switch = None
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
        frozen = (start >= CYCLE_WINDOW)[..., None, None]
        if frozen.any():
            p, cross = (np.where(frozen, a, b)
                        for a, b in zip(saved, (p, cross)))
        cp = c @ p
        s = cp @ c.T + r
        gains, singular = [], []
        for idx in slices:
            chol, info = dpotrf(s[idx], lower=0, clean=0)
            if info == 0:
                gains.append(dpotrs(chol, cp[idx], lower=0)[0].T)
            elif lead:
                singular.append(idx)
                gains.append(np.zeros((n, m)))
            else:
                raise DivergenceError(k, NOT_INVERTIBLE)
        gain = np.array(gains) if per_record else gains[0]
        seen_gains[k, design_rows] = gain
        if k >= CYCLE_WINDOW:
            moved = np.abs(gain - seen_gains[k - 1, design_rows])
            settled = (period == 0) & (moved.max(axis=(-2, -1)) <= (
                CONVERGED_RTOL * np.abs(gain).max(axis=(-2, -1))))
            if settled.any():
                start = np.where(settled, k, start)
                period = np.where(settled, 1, period)
                saved = tuple(np.where(settled[..., None, None], a, b)
                              for a, b in zip((p, cross), saved))
        x = x + gain @ (ys[k] - c @ x)
        ikc = eye - gain @ c
        p = ikc @ p @ ikc.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
        # A non-finite entry makes the sum non-finite; a sum of finite
        # entries that overflows only sends the step to the exact check.
        if singular or not math.isfinite(add(x, None) + add(p, None)):
            stuck = np.zeros(p.shape[:-2], dtype=bool)
            for idx in singular:
                stuck[idx] = True
            stuck = np.broadcast_to(stuck, x.shape[:-2])
            bad = stuck | ~np.isfinite(x).all(axis=(-2, -1)) \
                | ~np.isfinite(p).all(axis=(-2, -1))
            if bad.any():
                if not lead:
                    raise DivergenceError(k, NON_FINITE)
                for i in np.flatnonzero(bad):
                    failed[int(live[i])] = DivergenceError(
                        k, NOT_INVERTIBLE if stuck[i] else NON_FINITE)
                if bad.all():
                    break
                ok = ~bad
                live, x, ys, vs = live[ok], x[ok], ys[:, ok], vs[:, ok]
                rows = live
                if per_record:
                    ad, ad_t, q, p, cross, ikc = (
                        a[ok] if a.ndim == 3 else a
                        for a in (ad, ad_t, q, p, cross, ikc))
                    ar = None if ar is None or ar.ndim < 3 else ar[ok]
                    saved = tuple(a[ok] for a in saved)
                    start, period = start[ok], period[ok]
                    design_rows = live
                    slices = list(np.ndindex(p.shape[:-2]))
        means[k, rows] = x[mean_block]
        covs[k, design_rows] = p[cov_block]
        x = ad @ x + bd @ vs[k]
        if ar is None:
            p = ad @ p @ ad_t + q
        else:
            # ikc @ cross: cov(posterior error, current noise sample)
            ad_psi = ad @ (ikc @ cross)
            p = ad @ p @ ad_t + q + ad_psi + ad_psi.swapaxes(-1, -2)
            cross = (ad_psi + q) @ ar.swapaxes(-1, -2)
    frozen = start >= CYCLE_WINDOW
    steps, periods = np.full(lead, -1), np.zeros(lead, dtype=int)
    designs = (live,) if per_record else ()
    steps[designs] = np.where(frozen, start, -1 if switch is None else switch)
    periods[designs] = np.where(frozen, 0, period)
    if switch is None:
        return means, covs, failed, (steps, periods)
    # Step k of slice i repeats step start_i + (k - start_i) % period_i.
    tail = np.arange(switch, n_steps).reshape((-1,) + (1,) * period.ndim)
    phase = (start + (tail - start) % period,) + designs
    schedule = seen_gains[phase]
    covs[(np.s_[switch:],) + designs] = covs[phase]
    bv = np.matmul(bd, vs[switch:])
    for k in range(switch, n_steps):
        x = x + schedule[k - switch] @ (ys[k] - c @ x)
        if not math.isfinite(add(x, None)):
            bad = ~np.isfinite(x).all(axis=(-2, -1))
            if bad.any():
                if not lead:
                    raise DivergenceError(k, NON_FINITE)
                for i in np.flatnonzero(bad):
                    failed[int(live[i])] = DivergenceError(k, NON_FINITE)
                if bad.all():
                    break
                ok = ~bad
                live, x, ys, bv = live[ok], x[ok], ys[:, ok], bv[:, ok]
                rows = live
                if per_record:
                    schedule = schedule[:, ok]
                    ad = ad[ok] if ad.ndim == 3 else ad
        means[k, rows] = x[mean_block]
        x = ad @ x + bv[k - switch]
    return means, covs, failed, (steps, periods)


def _stack(datas) -> tuple[np.ndarray, np.ndarray]:
    """(S, T, m) measurements and (S, T, r) inputs of a batch of records."""
    if len({(d.dt, d.n_steps) for d in datas}) != 1:
        raise ValueError("a batch replays records of one dt and length")
    return (np.stack([d.measurements for d in datas]),
            np.stack([d.inputs for d in datas]))


def _result(means, covs, cycle, record=()) -> KalmanResult:
    """The ``KalmanResult`` of one record, given ``_filter``'s output for
    it (``record`` indexes the record axis of ``cycle``'s arrays)."""
    step, period = (int(a[record]) for a in cycle)
    return KalmanResult(means, covs, None if step < 0 else (step, period))


def _unstack(means, covs, failed, cycle) -> list:
    """Each record's ``KalmanResult``, or its ``DivergenceError``."""
    shared = covs.ndim == 3
    return [failed[i] if i in failed else
            _result(means[:, i], covs if shared else covs[:, i], cycle, i)
            for i in range(means.shape[1])]


def _solo(fn, *args):
    """``fn(*args)`` for one record of a batch, or the error it diverged
    with."""
    try:
        return fn(*args)
    except DivergenceError as exc:
        return exc


def kalman_filter(ad, bd, c, q, r, data: ExperimentData,
                  x0=None, p0=None) -> KalmanResult:
    """Standard discrete predict/update recursion (Joseph-form update)."""
    means, covs, _, cycle = _filter(ad, bd, c, q, r, data.measurements,
                                    data.inputs, x0, p0)
    return _result(means, covs, cycle)


def kalman_filter_batch(ad, bd, c, q, r, datas) -> list:
    """``kalman_filter`` over records of one dt and length, with one
    covariance recursion shared by every record. Returns each record's
    ``KalmanResult``, or the ``DivergenceError`` of a record that diverged.
    """
    if len(datas) == 1:
        return [_solo(kalman_filter, ad, bd, c, q, r, datas[0])]
    return _unstack(*_filter(ad, bd, c, q, r, *_stack(datas)))


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
    """``(A, B, C, Q, x0, P0)`` of the filter on the AR-augmented system."""
    a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
        ad, bd, model.c, q, ar_models)
    x0_aug = np.zeros(a_aug.shape[0])
    if x0 is not None:
        x0_aug[:model.n] = np.asarray(x0, dtype=float)
    p0_plant = np.eye(model.n) if p0 is None else np.asarray(p0, dtype=float)
    return a_aug, b_aug, c_aug, q_aug, x0_aug, block_diag(p0_plant, noise_cov)


def _white(ar_models) -> bool:
    return all(np.all(m.coefficients == 0.0) for m in ar_models)


def state_augmentation_filter(model: LtiModel, ar_models, data: ExperimentData,
                              q, r, x0=None, p0=None) -> KalmanResult:
    """Kalman filter on the AR-augmented system; returns the plant-state block.

    With all-zero AR coefficients the augmentation carries no information, so
    the call reduces to the plain Kalman filter on the original system.
    """
    ad, bd = discretize(model, data.dt)
    a, b, c, q, x0, p0 = ((ad, bd, model.c, q, x0, p0) if _white(ar_models)
                          else _augmented(model, ad, bd, q, ar_models, x0, p0))
    means, covs, _, cycle = _filter(a, b, c, q, r, data.measurements,
                                    data.inputs, x0, p0, keep=model.n)
    return _result(means, covs, cycle)


def state_augmentation_filter_batch(model: LtiModel, ar_models, datas,
                                    q, r) -> list:
    """``state_augmentation_filter`` over records of one dt and length, with
    one list of AR models per record: one recursion over the stacked
    per-record augmented designs. A record whose AR coefficients are all
    zero replays alone as the plain Kalman filter, as in the one-record call.
    Returns each record's ``KalmanResult``, or its ``DivergenceError``.
    """
    stacked = [i for i, ars in enumerate(ar_models) if not _white(ars)]
    out = {}
    if len(stacked) > 1:
        ad, bd = discretize(model, datas[stacked[0]].dt)
        designs = [_augmented(model, ad, bd, q, ar_models[i]) for i in stacked]
        a_aug, q_aug, p0_aug = (np.stack([d[j] for d in designs])
                                for j in (0, 3, 5))
        b_aug, c_aug = designs[0][1:3]
        out = dict(zip(stacked, _unstack(*_filter(
            a_aug, b_aug, c_aug, q_aug, r,
            *_stack([datas[i] for i in stacked]), p0=p0_aug, keep=model.n))))
    return [out[i] if i in out else _solo(
                state_augmentation_filter, model, ar_models[i], datas[i], q, r)
            for i in range(len(datas))]


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
    means, covs, _, cycle = _filter(ad, bd, model.c, q, r, data.measurements,
                                    data.inputs, x0, p0, ar=ar)
    return _result(means, covs, cycle)


def smikf_batch(model: LtiModel, ar1_coefficients, datas, q, r) -> list:
    """``smikf`` over records of one dt and length, with one set of AR(1)
    coefficients per record: one recursion over stacked per-record
    covariances. Returns each record's ``KalmanResult``, or its
    ``DivergenceError``.
    """
    if len(datas) == 1:
        return [_solo(smikf, model, ar1_coefficients[0], datas[0], q, r)]
    ar = np.stack([_ar1_matrix(model, coeffs) for coeffs in ar1_coefficients])
    ad, bd = discretize(model, datas[0].dt)
    return _unstack(*_filter(ad, bd, model.c, q, r, *_stack(datas), ar=ar))


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


def uio(model: LtiModel, data: ExperimentData, poles=None) -> UioResult:
    """Run the unknown input observer and reconstruct the inputs.

    The input estimate inverts the plant relation B v = dx/dt - A x at the
    observer state. The derivative combines the observer's own continuous
    dynamics with the measured-output increment entering through H; the
    latter is the only path that carries input information, because the
    decoupling makes T B vanish.
    """
    design = design_uio(model, poles=poles)
    ys = data.measurements
    if ys.shape[0] < 2:
        raise ValueError("need at least two samples")
    if ys.shape[1] != model.m:
        raise ValueError("measurement dimension does not match plant output")
    n = model.n
    dt = data.dt
    fd, kd = zero_order_hold(design.f, design.k, dt)

    if np.linalg.matrix_rank(model.b) < model.r:
        warnings.warn("B is column-rank deficient: the input estimate is the "
                      "least-norm solution, not per-channel values",
                      RuntimeWarning)
    b_pinv = np.linalg.pinv(model.b)
    z = -design.h @ ys[0]  # xhat starts at zero
    states = np.empty((ys.shape[0], n))
    inputs = np.empty((ys.shape[0], model.r))
    ydot = (ys[1] - ys[0]) / dt
    for k in range(ys.shape[0]):
        if k < ys.shape[0] - 1:
            ydot = (ys[k + 1] - ys[k]) / dt
        xhat = z + design.h @ ys[k]
        zdot = design.f @ z + design.k @ ys[k]
        vhat = b_pinv @ (zdot + design.h @ ydot - model.a @ xhat)
        if not (np.all(np.isfinite(xhat)) and np.all(np.isfinite(vhat))):
            raise DivergenceError(k, "non-finite observer state")
        states[k] = xhat
        inputs[k] = vhat
        z = fd @ z + kd @ ys[k]
    return UioResult(states=states, inputs=inputs, design=design)


def sse(estimate, reference, skip: int = 0) -> float:
    """Sum of squared errors over the evaluated window."""
    est = np.asarray(estimate, dtype=float).reshape(-1)
    ref = np.asarray(reference, dtype=float).reshape(-1)
    if est.size != ref.size:
        raise ValueError(f"length mismatch: {est.size} vs {ref.size}")
    diff = est[skip:] - ref[skip:]
    return sum_of_products(diff, diff)
