"""Classical estimators used as benchmarks: the discrete Kalman filter,
state augmentation with AR process noise, SMIKF (an AR(1)-aware Kalman
variant), the unknown input observer, plus AR fitting and the SSE metric.

The Kalman filter, the state-augmentation filter (a Kalman filter on the
augmented system) and SMIKF share one predict/update recursion; SMIKF only
adds the AR(1) cross term to its prediction. It runs in two passes: a gain
schedule per design, which never reads the data and stops each design at
one step, where its gain froze or failed, then one pass of the means of a
stack of records over it. The means, like the UIO's observer states, are
a linear recurrence ``x_k = M_k x_{k-1} + w_k``, handed to the replay
driver ``systems._replay`` as its transitions, constant from each record's
freeze step, and a drive built up front; the driver scans the constant
stretches in chunks. Each filter and the UIO have a ``*_batch`` entry
that replays a list of records as one stack; each filter also has a
one-record entry that calls it with a batch of one and raises its
``DivergenceError``.

Only one path here loads scipy, on first use: the gain schedule of a filter
with two or more outputs (LAPACK ``potrf``/``potrs``). The AR fit
(Levinson's recursion), the stationary covariance (Smith's iteration), the
one-output gain and the UIO gain (closed form) are numpy and Python.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, ObserverDesignError
from .noise import NoiseSpec, block_diag, sum_of_products
from .systems import (ExperimentData, LtiModel, _one, _replay, _stack,
                      discretize, zero_order_hold)


def __getattr__(name):
    """``cho_factor`` and ``cho_solve``, imported from scipy on first use:
    unused here, but perfbench's tracer wraps them by these names until it
    traces the batch entries (ROADMAP item 4)."""
    if name in ("cho_factor", "cho_solve"):
        import scipy.linalg
        return getattr(scipy.linalg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Hard cap on augmented filter size (n + n*order states).
MAX_AUGMENTED_DIM = 128

NOT_INVERTIBLE = "innovation covariance not invertible"
NON_FINITE = "non-finite filter state"

# A filter's design freezes its gain at the first step that moves its gain
# and its covariance state by at most CONVERGED_RTOL of their largest entry.
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


def _levinson(acov: list, order: int) -> list:
    """The Yule-Walker coefficients: the solution of the symmetric Toeplitz
    system ``toeplitz(acov[:order]) @ a = acov[1:order + 1]``, by Levinson's
    (1947) recursion in scipy's ``levinson`` operation order, on Python
    floats, so that the bits are ``solve_toeplitz``'s."""
    # scipy reads one array ``t`` of the row reversed, then the column:
    # t[order - 1 + i] = t[order - 1 - i] = acov[i].
    def t(i):
        return acov[abs(i - order + 1)]

    n, b = order, acov[1:order + 1]
    x, g, h = [0.0] * n, [0.0] * n, [0.0] * n
    x[0] = b[0] / t(n - 1)
    if n == 1:
        return x
    g[0] = t(n - 2) / t(n - 1)
    h[0] = t(n) / t(n - 1)
    for m in range(1, n):
        x_num, x_den = -b[m], -t(n - 1)
        for j in range(m):
            x_num = x_num + t(n + m - j - 1) * x[j]
            x_den = x_den + t(n + m - j - 1) * g[m - j - 1]
        x[m] = x_num / x_den
        for j in range(m):
            x[j] = x[j] - x[m] * g[m - j - 1]
        if m == n - 1:
            return x
        g_num, h_num, g_den = -t(n - m - 2), -t(n + m), -t(n - 1)
        for j in range(m):
            g_num = g_num + t(n + j - m - 1) * g[j]
            h_num = h_num + t(n + m - j - 1) * h[j]
            g_den = g_den + t(n + j - m - 1) * h[m - j - 1]
        g[m] = g_num / g_den
        h[m] = h_num / x_den
        c1, c2, k = g[m], h[m], m - 1
        for j in range((m + 1) >> 1):
            gj, gk, hj, hk = g[j], g[k], h[j], h[k]
            g[j], g[k] = gj - c1 * hk, gk - c1 * hj
            h[j], h[k] = hj - c2 * gk, hk - c2 * gj
            k -= 1


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
    coeffs = np.array(_levinson(acov.tolist(), order))
    innovation = float(acov[0] - coeffs @ acov[1:order + 1])
    return ArModel(order=order, coefficients=coeffs,
                   innovation_variance=max(innovation, 0.0))


class KalmanResult(NamedTuple):
    means: np.ndarray        # (T, n) filtered means
    covariances: np.ndarray  # (T, n, n) filtered covariances
    # The step at which the gain froze: from then on the gain and the
    # covariance repeat that step's, and only the means are replayed. None
    # if it did not freeze.
    freeze: int | None = None


def default_noise_matrices(noise: NoiseSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark (Q, R) convention: Q = inv(proc_precision) * dt, matching
    the simulator's dt-scaled injection of continuous-density noise."""
    q = np.linalg.inv(noise.proc_precision) * dt
    r = np.linalg.inv(noise.meas_precision)
    return 0.5 * (q + q.T), 0.5 * (r + r.T)


def _still(new, old) -> np.ndarray:
    """Per slice of the (D, ·, ·) stacks: whether ``new`` moved from ``old``
    by at most ``CONVERGED_RTOL`` of its largest entry (False if either is
    not finite)."""
    return np.abs(new - old).max(axis=(-2, -1)) <= \
        CONVERGED_RTOL * np.abs(new).max(axis=(-2, -1))


def _scalar_gain(cp, s):
    """The gains ``cp' / s`` of (D, 1, n) ``cp`` and (D, 1, 1) innovation
    variances ``s`` of one output, in the bits of LAPACK ``potrf``/``potrs``:
    the factor ``sqrt(s)``, and each of the two triangular solves a product
    with its reciprocal. Returns the (D, n, 1) gains and which slices are
    singular: ``s <= 0``, where ``potrf`` fails (it factors NaN and +inf)."""
    inv = 1.0 / np.sqrt(s)
    return (cp * inv * inv).swapaxes(-1, -2), (s <= 0.0)[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _schedule(ad, c, q, r, p, ar, n_steps, kept):
    """Gain schedule of ``_filter``: the covariance recursion, which never
    reads the data, over the (D, n, n) stack ``p`` of design slices.

    Each slice has one stop step. The recursion converges to a fixed point
    (Anderson & Moore, *Optimal Filtering*, 1979, ch. 4), and a slice
    freezes at the first step ``f >= 1`` where its gain and its state ``(P,
    cross)`` each moved by at most ``CONVERGED_RTOL`` of their largest
    entry since step ``f - 1``. The gain alone is not enough: it can settle
    while P grows without bound. A slice fails at its first step with a
    singular innovation covariance or a non-finite posterior covariance;
    its gain there is NaN, so every mean replayed on it turns non-finite
    there. A stopped slice stays in the stack: a frozen one runs on, and
    one whose step fails restarts from zero, as a failed record does in
    ``systems._replay``. The pass ends once every slice has stopped; then
    each slice's gain and covariance after its stop step repeat that
    step's, and every step after the pass repeats its last gains. The pass
    finds its failed steps itself, so numpy's overflow, invalid-value and
    division warnings are off for the call.

    With one output (m = 1) the gains of all slices are one stacked
    ``_scalar_gain``, with LAPACK's bits. With two or more outputs, the
    innovation covariance of each slice is factored by LAPACK
    ``potrf``/``potrs``, the routines behind ``cho_factor``/``cho_solve``,
    without their wrappers' per-step checks; that path imports scipy.

    Returns the (K, D, n, m) gains of the K steps of the pass, the (T, D,
    keep, keep) kept covariance blocks, each slice's stop step (``T`` if it
    did not stop) and whether its innovation covariance was singular there.
    """
    n_designs, n = p.shape[:2]
    m = c.shape[0]
    eye = np.eye(n)
    cross = np.zeros(p.shape)  # cov(prior error, current noise sample)
    ad_t = ad.swapaxes(-1, -2)
    gains = np.empty((n_steps, n_designs, n, m))
    covs = np.empty((n_steps, n_designs, kept, kept))
    stop = np.full(n_designs, n_steps)
    singular = np.zeros(n_designs, dtype=bool)
    if m > 1:
        # Imported here: scipy.linalg takes ~0.25 s to load, and only a
        # filter with two or more outputs needs it.
        from scipy.linalg.lapack import dpotrf, dpotrs
    for k in range(n_steps):
        cp = c @ p
        s = cp @ c.T + r
        gain = gains[k]
        if m == 1:
            scalar, bad = _scalar_gain(cp, s)
            gain[:] = scalar
            gain[bad] = np.nan
            singular |= bad & (stop == n_steps)
        else:
            for i in range(n_designs):
                chol, info = dpotrf(s[i], lower=0, clean=0)
                if info == 0:
                    gain[i] = dpotrs(chol, cp[i], lower=0)[0].T
                else:
                    gain[i] = np.nan
                    singular[i] |= stop[i] == n_steps
        if k:
            settled = _still(gain, gains[k - 1]) & _still(p, last[0]) & \
                _still(cross, last[1])
            stop[settled & (stop == n_steps)] = k
        last = p, cross
        ikc = eye - gain @ c
        p = ikc @ p @ ikc.swapaxes(-1, -2) + gain @ r @ gain.swapaxes(-1, -2)
        covs[k] = p[:, :kept, :kept]
        # A NaN gain makes the posterior NaN. A non-finite entry makes the
        # sum of squares non-finite; finite squares whose sum overflows only
        # send the step to the exact check.
        if not math.isfinite(np.vdot(p, p)):
            bad = ~np.isfinite(p).all(axis=(-2, -1))
            stop[bad & (stop >= k)] = k
            gain[bad] = np.nan
            p[bad] = cross[bad] = ikc[bad] = 0.0
        if (stop < n_steps).all():
            break
        if ar is None:
            p = ad @ p @ ad_t + q
        else:
            # ikc @ cross: cov(posterior error, current noise sample)
            ad_psi = ad @ (ikc @ cross)
            p = ad @ p @ ad_t + q + ad_psi + ad_psi.swapaxes(-1, -2)
            cross = (ad_psi + q) @ ar.swapaxes(-1, -2)
    steps = np.minimum(np.arange(n_steps)[:, None], stop)
    slices = np.arange(n_designs)
    return gains[steps[:k + 1], slices], covs[steps, slices], stop, singular


def _filter(ad, bd, c, q, r, ys, vs, p0=None, ar=None, keep=None) -> list:
    """Predict/update recursion shared by the Kalman-family filters.

    ``ys`` (S, T, m) and ``vs`` (S, T, r) are a stack of S records, each
    filtered from the prior mean 0 and covariance ``p0`` (I if None). ``ad``,
    ``q``, ``p0`` and ``ar`` are either (n, n), shared by every record, or
    (S, n, n), one per record; ``bd``, ``c`` and ``r`` are shared. The
    covariance recursion runs in ``_schedule``, once for a shared design and
    once per record for a stacked one. The replay driver ``_replay`` then
    replays the (S, n, 1) stack of means over that gain schedule as the
    recurrence ``x_k = M_k x_{k-1} + w_k``: a step predicts from the last
    step's mean (from step 1 on) and updates, so ``M_k = (I - G_k C) Ad``
    (``I - G_0 C`` at step 0) and ``w_k = (I - G_k C) Bd v_{k-1} + G_k y_k``.

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
    gains, covs, stop, singular = _schedule(
        ad, c, q, r, np.broadcast_to(p, (n_designs, n, n)), ar, n_steps, kept)
    # w_k = Bd v_{k-1} + G_k (y_k - C Bd v_{k-1}), with v_{-1} = 0, record
    # by record: one product up to its design's stop step and one after it,
    # which repeats that step's gain, so that its rounding does not depend
    # on the batch, and no temporary is as large as w.
    w = np.zeros((n_records, n_steps, n))
    for i, d in enumerate(design):
        f = stop[d] + 1
        np.matmul(vs[i, :-1], bd.T, out=w[i, 1:])
        innovation = ys[i] - w[i] @ c.T
        w[i, :f] += np.matmul(gains[:f, d], innovation[:f, :, None])[..., 0]
        w[i, f:] += innovation[f:] @ gains[-1, d].T
    eye, c_ad = np.eye(n), c @ ad

    def transition(k):
        """M_k = (I - G_k C) Ad; step 0 updates the zero prior mean
        without a prediction."""
        gain = gains[min(k, len(gains) - 1)]
        m = eye - gain @ c if k == 0 else ad - gain @ c_ad
        return m if stacked else m[0]

    # A record's M is constant from its design's freeze step (>= 1) on. A
    # failed design's gains are NaN from then on: its records go unscanned.
    means, failed = _replay(
        np.zeros((n_records, n, 1)), w, slice(kept),
        lambda i, k: NOT_INVERTIBLE if singular[
            design[i]] and k == stop[design[i]] else NON_FINITE, transition,
        np.where(np.isnan(gains[-1]).any(axis=(1, 2)), n_steps, stop)[design])
    steps = [None if f == n_steps else f for f in stop.tolist()]
    return [failed[i] if i in failed else KalmanResult(
                means[:, i], covs[:, d], steps[d])
            for i, d in enumerate(design)]


def kalman_filter(ad, bd, c, q, r, data: ExperimentData) -> KalmanResult:
    """Standard discrete predict/update recursion (Joseph-form update), from
    the prior mean 0 and covariance I."""
    return _one(_filter(ad, bd, c, q, r, data.measurements[None],
                        data.inputs[None]))


def kalman_filter_batch(ad, bd, c, q, r, datas) -> list:
    """``kalman_filter`` over records of one dt and length, with one
    covariance recursion shared by every record. Returns each record's
    ``KalmanResult``, or the ``DivergenceError`` of a record that diverged.
    """
    return _filter(ad, bd, c, q, r, *_stack(datas, "measurements", "inputs"))


# Squarings after which Smith's iteration gives up: A^(2^64) of any float
# matrix with spectral radius below 1 has decayed to zero.
MAX_SQUARINGS = 64


class NotStationaryError(ValueError):
    """A chain with spectral radius 1 or more: no stationary covariance."""


def stationary_covariance(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The solution X of the discrete Lyapunov equation ``X = A X A' + Q``:
    the stationary covariance of ``x_k = A x_{k-1} + e_k`` with ``cov(e) =
    Q``. Smith's (1968) squaring iteration ``X <- X + A X A'``, ``A <- A^2``
    sums the series ``sum_j A^j Q A'^j`` in doubling blocks, by products
    too small for BLAS to thread. It stops at the first pass that leaves X
    unchanged bit for bit; a chain with spectral radius 1 or more has no
    stationary covariance, and gives a ``NotStationaryError`` (a
    ``ValueError``) when X is not finite or has not settled within
    ``MAX_SQUARINGS`` squarings."""
    x = np.asarray(q, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(MAX_SQUARINGS):
            new = x + a @ x @ a.T
            if not np.isfinite(new).all():
                break
            if np.array_equal(new, x):
                return x
            x, a = new, a @ a
    raise NotStationaryError("no stationary covariance: the AR chain is "
                             "not stationary (spectral radius at least 1)")


def _unit_innovation_variance(coeffs: np.ndarray) -> float:
    """Stationary variance of an AR chain driven by unit-variance innovations."""
    order = coeffs.size
    comp = np.zeros((order, order))
    comp[0, :] = coeffs
    if order > 1:
        comp[1:, :-1] = np.eye(order - 1)
    qmat = np.zeros((order, order))
    qmat[0, 0] = 1.0
    return float(stationary_covariance(comp, qmat)[0, 0])


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
    stationary = stationary_covariance(noise_tr, noise_q)
    return a_aug, b_aug, c_aug, q_aug, stationary


def _augmented(model: LtiModel, ad, bd, q, ar_models):
    """``(A, B, C, Q, P0)`` of the filter on the AR-augmented system, or on
    the plain system when every AR coefficient is zero: then the
    augmentation carries no information."""
    if all(np.all(m.coefficients == 0.0) for m in ar_models):
        return ad, bd, model.c, q, np.eye(model.n)
    a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
        ad, bd, model.c, q, ar_models)
    return a_aug, b_aug, c_aug, q_aug, block_diag(np.eye(model.n), noise_cov)


def state_augmentation_filter(model: LtiModel, ar_models, data: ExperimentData,
                              q, r) -> KalmanResult:
    """``state_augmentation_filter_batch`` of one record; raises its
    ``DivergenceError``."""
    return _one(state_augmentation_filter_batch(model, [ar_models], [data],
                                                q, r))


def state_augmentation_filter_batch(model: LtiModel, ar_models, datas,
                                    q, r) -> list:
    """Kalman filter on the AR-augmented system, over records of one dt and
    length, with one list of AR models per record; keeps the plant-state
    block. A record whose AR coefficients are all zero replays the plain
    Kalman filter on the original system, with its bits: the augmentation
    carries no information. The designs of one size replay as one stack.
    Returns each record's ``KalmanResult``, or its ``DivergenceError``; a
    record whose AR chain is not stationary fails at step 0.
    """
    ys, vs = _stack(datas, "measurements", "inputs", designs=ar_models)
    ad, bd = discretize(model, datas[0].dt)
    designs, out = {}, {}
    for i, ars in enumerate(ar_models):
        try:
            designs[i] = _augmented(model, ad, bd, q, ars)
        except NotStationaryError as exc:
            out[i] = DivergenceError(0, str(exc))
    for size in {d[0].shape[0] for d in designs.values()}:
        idx = [i for i, d in designs.items() if d[0].shape[0] == size]
        a, q_s, p0 = (np.stack([designs[i][j] for i in idx])
                      for j in (0, 3, 4))
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
          q, r) -> KalmanResult:
    """``smikf_batch`` of one record; raises its ``DivergenceError``."""
    return _one(smikf_batch(model, [ar1_coefficients], [data], q, r))


def smikf_batch(model: LtiModel, ar1_coefficients, datas, q, r) -> list:
    """The Kalman recursion with the AR(1) process-noise cross term (the
    ``ar`` of ``_filter``) over records of one dt and length, with one set
    of AR(1) coefficients per record: one recursion over stacked per-record
    covariances. Zero coefficients give the plain Kalman filter's bits.
    Returns each record's ``KalmanResult``, or its ``DivergenceError``.
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
    pseudoinverse. The gain ``K1 = (T A - diag(poles)) C^-1`` places the
    poles of ``F = T A - K1 C``; it needs a square, invertible C (a
    full-state output), where it is the one answer of Kautsky, Nichols &
    Van Dooren (1985), with the poles in that method's ascending order.
    """
    b, c = model.b, model.c
    cb = c @ b
    if np.linalg.matrix_rank(cb) != np.linalg.matrix_rank(b):
        raise ObserverDesignError(
            "UIO existence condition failed: rank(C B) != rank(B)")
    if c.shape != (model.n, model.n) or np.linalg.matrix_rank(c) < model.n:
        raise ObserverDesignError(
            "UIO gain needs a square, invertible C (a full-state output)")
    h = b @ np.linalg.pinv(cb)
    t = np.eye(model.n) - h @ c
    ta = t @ model.a
    if poles is None:
        poles = default_uio_poles(model)
    poles = tuple(float(pole) for pole in poles)
    if len(poles) != model.n:
        raise ObserverDesignError("need one observer pole per state")
    k1 = (ta - np.diag(np.sort(poles))) @ np.linalg.inv(c)
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

    The replay driver ``_replay`` replays the (S, n, 1) stack of observer
    states ``z_k = Fd z_{k-1} + Kd y_{k-1}``. The estimates are linear maps
    of z and the measurements at one step, formed afterwards for all steps
    as stacked products. Returns
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
    # z_0 = -H y_0, where the state estimate is zero, then z_k = Fd z_{k-1}
    # + Kd y_{k-1}.
    w = np.zeros(ys.shape[:2] + (model.n,))
    np.matmul(ys[:, :-1], kd.T, out=w[:, 1:])
    message = "non-finite observer state"
    eye = np.eye(model.n)
    z, failed = _replay(-design.h @ ys[:, 0, :, None], w, slice(None),
                        lambda i, k: message, lambda k: fd if k else eye, 1)
    # Step-major, so that step k of every record is one index.
    y = np.moveaxis(ys, 1, 0)[..., None]
    z = z[..., None]
    # A non-finite estimate is a failure found below, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        xhat = z + design.h @ y
        # The output derivative at step k is the increment to step k + 1;
        # the last step keeps its predecessor's.
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


def sse(estimate, reference, skip: int = 0) -> float:
    """Sum of squared errors over the evaluated window."""
    est = np.asarray(estimate, dtype=float).reshape(-1)
    ref = np.asarray(reference, dtype=float).reshape(-1)
    if est.size != ref.size:
        raise ValueError(f"length mismatch: {est.size} vs {ref.size}")
    diff = est[skip:] - ref[skip:]
    return sum_of_products(diff, diff)
