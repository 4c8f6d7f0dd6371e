"""Classical estimators used as benchmarks: the discrete Kalman filter,
state augmentation with AR process noise, SMIKF (an AR(1)-aware Kalman
variant), the unknown input observer, plus AR fitting and the SSE metric.

The Kalman filter, the state-augmentation filter (a Kalman filter on the
augmented system) and SMIKF share one predict/update recursion; SMIKF only
adds the AR(1) cross term to its prediction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import block_diag, solve_discrete_lyapunov, solve_toeplitz
# Unused here, but kept importable: profilers count calls at these names.
from scipy.linalg import cho_factor, cho_solve  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DivergenceError, ObserverDesignError
from .noise import NoiseSpec
from .systems import ExperimentData, LtiModel, discretize, zero_order_hold

# Hard cap on augmented filter size (n + n*order states).
MAX_AUGMENTED_DIM = 128


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
    acov = np.array([float(x[:n - h] @ x[h:]) / n for h in range(order + 1)])
    if acov[0] == 0.0:
        raise ValueError("series has zero variance")
    coeffs = solve_toeplitz((acov[:order], acov[:order]), acov[1:order + 1])
    innovation = float(acov[0] - coeffs @ acov[1:order + 1])
    return ArModel(order=order, coefficients=coeffs,
                   innovation_variance=max(innovation, 0.0))


class KalmanResult(NamedTuple):
    means: np.ndarray        # (T, n) filtered means
    covariances: np.ndarray  # (T, n, n) filtered covariances


def default_noise_matrices(noise: NoiseSpec, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Benchmark (Q, R) convention: Q = inv(proc_precision) * dt, matching
    the simulator's dt-scaled injection of continuous-density noise."""
    q = np.linalg.inv(noise.proc_precision) * dt
    r = np.linalg.inv(noise.meas_precision)
    return 0.5 * (q + q.T), 0.5 * (r + r.T)


def _filter(ad, bd, c, q, r, data: ExperimentData, x0, p0,
            ar=None, keep=None) -> KalmanResult:
    """Predict/update recursion shared by the Kalman-family filters.

    With ``ar`` (the diagonal matrix of AR(1) noise coefficients) the
    prediction also carries the covariance between the posterior error and
    the upcoming noise sample, as SMIKF does. With ``keep`` only the first
    ``keep`` states are returned, and only their covariance block is
    stored. The innovation covariance is
    factored by LAPACK ``potrf``/``potrs`` directly: the routines behind
    ``cho_factor``/``cho_solve``, so the same bits without the per-step
    wrapper and its finiteness checks. An overflowed prediction is caught
    by the finite check on ``x`` and ``P`` at the step that uses it.
    """
    ad = np.atleast_2d(np.asarray(ad, dtype=float))
    bd = np.atleast_2d(np.asarray(bd, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n = ad.shape[0]
    ys = data.measurements
    vs = data.inputs
    if ys.shape[1] != c.shape[0]:
        raise ValueError("measurement dimension does not match C")
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    p = np.eye(n) if p0 is None else np.asarray(p0, dtype=float).copy()
    cross = np.zeros((n, n))  # cov(prior error, current noise sample)
    eye = np.eye(n)
    whole = keep is None
    means = np.empty((ys.shape[0], n))
    covs = np.empty((ys.shape[0],) + p[:keep, :keep].shape)
    for k in range(ys.shape[0]):
        cp = c @ p
        chol, info = dpotrf(cp @ c.T + r, lower=0, clean=0)
        if info != 0:
            raise DivergenceError(k, "innovation covariance not invertible")
        gain = dpotrs(chol, cp, lower=0)[0].T
        x = x + gain @ (ys[k] - c @ x)
        ikc = eye - gain @ c
        p = ikc @ p @ ikc.T + gain @ r @ gain.T
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise DivergenceError(k, "non-finite filter state")
        means[k] = x
        covs[k] = p if whole else p[:keep, :keep]
        x = ad @ x + bd @ vs[k]
        if ar is None:
            p = ad @ p @ ad.T + q
        else:
            # ikc @ cross: cov(posterior error, current noise sample)
            ad_psi = ad @ (ikc @ cross)
            p = ad @ p @ ad.T + q + ad_psi + ad_psi.T
            cross = (ad_psi + q) @ ar.T
    return KalmanResult(means=means[:, :keep], covariances=covs)


def kalman_filter(ad, bd, c, q, r, data: ExperimentData,
                  x0=None, p0=None) -> KalmanResult:
    """Standard discrete predict/update recursion (Joseph-form update)."""
    return _filter(ad, bd, c, q, r, data, x0, p0)


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


def state_augmentation_filter(model: LtiModel, ar_models, data: ExperimentData,
                              q, r, x0=None, p0=None) -> KalmanResult:
    """Kalman filter on the AR-augmented system; returns the plant-state block.

    With all-zero AR coefficients the augmentation carries no information, so
    the call reduces to the plain Kalman filter on the original system.
    """
    ad, bd = discretize(model, data.dt)
    if all(np.all(m.coefficients == 0.0) for m in ar_models):
        return _filter(ad, bd, model.c, q, r, data, x0, p0)
    a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
        ad, bd, model.c, q, ar_models)
    n = model.n
    x0_aug = np.zeros(a_aug.shape[0])
    if x0 is not None:
        x0_aug[:n] = np.asarray(x0, dtype=float)
    p0_plant = np.eye(n) if p0 is None else np.asarray(p0, dtype=float)
    p0_aug = block_diag(p0_plant, noise_cov)
    return _filter(a_aug, b_aug, c_aug, q_aug, r, data, x0_aug, p0_aug,
                   keep=n)


def smikf(model: LtiModel, ar1_coefficients, data: ExperimentData,
          q, r, x0=None, p0=None) -> KalmanResult:
    """Kalman recursion with the AR(1) process-noise cross term.

    The prediction covariance carries the correlation between the posterior
    error and the upcoming noise sample induced by first-order AR noise;
    zero coefficients give the plain Kalman filter's bits.
    """
    coeffs = np.asarray(ar1_coefficients, dtype=float).reshape(-1)
    if coeffs.size != model.n:
        raise ValueError("one AR(1) coefficient per noise channel required")
    if np.any(np.abs(coeffs) >= 1.0):
        raise ValueError("AR(1) coefficients must satisfy |a1| < 1")
    ad, bd = discretize(model, data.dt)
    return _filter(ad, bd, model.c, q, r, data, x0, p0, ar=np.diag(coeffs))


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
    return float(diff @ diff)
