"""Colored-noise synthesis and characterization.

Colored noise is modeled as white Gaussian noise convolved with a Gaussian
kernel of width ``sigma``. That kernel induces the normalized autocorrelation
``rho(h) = exp(-h^2 / (4 sigma^2))`` whose derivatives at zero determine the
covariance among the noise's time derivatives; the temporal precision matrix
is its inverse and weights derivative blocks in generalized coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  loaded lazily; load it with the import

# The embedding's cap also bounds the noise order: double factorials and the
# derivative covariance blow up combinatorially beyond it.
from .gencoord import ORDER_CAP

# A kernel width this small encodes white noise; NoiseSpec's error cites it.
WHITE_SIGMA = 1e-6
# The fewest samples ``gaussian_fit`` fits.
MIN_FIT_SAMPLES = 30


def _check_spd(m: np.ndarray, name: str, semidefinite: bool = False) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    floor = -1e-10 * max(1.0, abs(eigs[-1])) if semidefinite else 0.0
    if eigs[0] <= floor:
        kind = "positive semidefinite" if semidefinite else "positive definite"
        raise ValueError(f"{name} must be {kind}")
    return m


@dataclass(frozen=True)
class NoiseSpec:
    """Noise smoothness and precisions of a plant/observer pair.

    sigma: Gaussian kernel width in seconds (near zero means white noise).
    proc_precision: inverse covariance of the process noise (n x n, SPD).
    meas_precision: inverse covariance of the measurement noise (m x m, SPD).
    input_prior_precision: confidence on the input prior (r x r, PSD).
    """

    sigma: float
    proc_precision: np.ndarray
    meas_precision: np.ndarray
    input_prior_precision: np.ndarray

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive; encode white noise as "
                             f"sigma ~ {WHITE_SIGMA}")
        object.__setattr__(self, "proc_precision",
                           _check_spd(self.proc_precision, "proc_precision"))
        object.__setattr__(self, "meas_precision",
                           _check_spd(self.meas_precision, "meas_precision"))
        object.__setattr__(
            self, "input_prior_precision",
            _check_spd(self.input_prior_precision, "input_prior_precision",
                       semidefinite=True))

    @property
    def n(self) -> int:
        return self.proc_precision.shape[0]

    @property
    def m(self) -> int:
        return self.meas_precision.shape[0]

    @property
    def r(self) -> int:
        return self.input_prior_precision.shape[0]


@dataclass(frozen=True)
class GeneralizedPrecision:
    """Block-diagonal precision over (output, input-prior, state-dynamics)
    prediction errors in generalized coordinates."""

    output_block: np.ndarray       # m(p+1) square
    input_block: np.ndarray        # r(d+1) square
    state_block: np.ndarray        # n(p+1) square
    matrix: np.ndarray = field(init=False)

    def __post_init__(self):
        full = block_diag(self.output_block, self.input_block,
                          self.state_block)
        full.flags.writeable = False
        object.__setattr__(self, "matrix", full)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def gaussian_kernel_density(t, sigma: float):
    """The smoothing kernel ``exp(-t^2 / (2 sigma^2)) / (sqrt(2 pi) sigma)``."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * (t / sigma) ** 2) / (math.sqrt(2.0 * math.pi) * sigma)


def gaussian_kernel(sigma: float, dt: float, half_width: int) -> np.ndarray:
    """Discrete smoothing taps at ``k * dt`` for k in -half_width..half_width.

    Taps are renormalized to unit sum so that truncation does not bias the
    variance of smoothed signals. Raises if the requested support would cut
    the kernel before three sigma.
    """
    if sigma <= 0 or dt <= 0:
        raise ValueError("sigma and dt must be positive")
    if half_width < 1:
        raise ValueError("half_width must be at least 1")
    if half_width * dt < 3.0 * sigma:
        raise ValueError(
            f"kernel truncated too early: half_width*dt = {half_width * dt:g}"
            f" < 3*sigma = {3.0 * sigma:g}"
        )
    t = np.arange(-half_width, half_width + 1) * dt
    taps = gaussian_kernel_density(t, sigma)
    return taps / taps.sum()


def kernel_half_width(sigma: float, dt: float) -> float:
    """Samples on each side of the taps ``generate_colored_noise`` smooths
    with: ``ceil(4 sigma / dt)``, at least 1; inf where the ratio
    overflows."""
    return max(1.0, np.ceil(4.0 * sigma / dt))


def kernel_autocorrelation(lags, sigma: float):
    """Normalized autocorrelation induced by Gaussian-kernel smoothing."""
    lags = np.asarray(lags, dtype=float)
    return np.exp(-(lags ** 2) / (4.0 * sigma ** 2))


def generate_colored_noise(seed, sigma: float, covariance, n_steps: int,
                           dt: float) -> np.ndarray:
    """Stationary Gaussian series with the requested marginal covariance.

    White Gaussian noise is convolved with the Gaussian kernel (the literal
    generative model of colored noise used throughout), then rescaled so the
    per-step marginal covariance equals ``covariance`` regardless of the
    smoothing. Deterministic for a fixed seed.

    ``seed`` is one seed as ``np.random.default_rng`` takes it (an int or a
    1-D sequence of ints), giving a (T, dim) series, or a 2-D (S, ·) stack
    of such sequences, giving an (S, T, dim) stack: the covariance check,
    the taps and the factor are formed once for the stack, and each seed's
    series has the bits of its own call.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    cov = _check_spd(covariance, "covariance")
    dim = cov.shape[0]
    half_width = int(kernel_half_width(sigma, dt))
    taps = gaussian_kernel(sigma, dt, half_width)
    stacked = np.ndim(seed) == 2
    seeds = seed if stacked else [seed]
    smooth = np.empty((len(seeds), n_steps, dim))
    for one, out in zip(seeds, smooth):
        white = np.random.default_rng(one).standard_normal(
            (n_steps + 2 * half_width, dim))
        for j in range(dim):
            out[:, j] = np.convolve(white[:, j], taps, mode="valid")
    # Unit-sum taps shrink the variance; undo that, then color across dims.
    smooth /= np.linalg.norm(taps)
    colored = smooth @ np.linalg.cholesky(cov).T
    return colored if stacked else colored[0]


def _double_factorial_odd(k: int) -> float:
    """(2k - 1)!! as a float, with the empty product at k = 0 equal to 1."""
    return float(math.factorial(2 * k) // (2 ** k * math.factorial(k)))


def generalized_noise_covariance(sigma: float, order: int) -> np.ndarray:
    """Covariance among a smoothed noise signal and its derivatives at a
    common time, normalized to unit signal variance.

    Entry (i, j) is ``(-1)^i rho^(i+j)(0)``; entries with odd ``i + j``
    vanish because the autocorrelation is even.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > ORDER_CAP:
        raise ValueError(f"order {order} exceeds cap {ORDER_CAP}")
    a = 1.0 / (2.0 * sigma ** 2)
    cov = np.zeros((order + 1, order + 1))
    for i in range(order + 1):
        for j in range(order + 1):
            if (i + j) % 2:
                continue
            k = (i + j) // 2
            cov[i, j] = (-1.0) ** i * (-1.0) ** k * \
                _double_factorial_odd(k) * a ** k
    return cov


def temporal_precision(sigma: float, order: int) -> np.ndarray:
    """Precision among noise derivatives induced by Gaussian smoothing.

    Inverse of :func:`generalized_noise_covariance`. The inversion runs on
    the correlation-scaled matrix so the result stays accurate even when the
    raw derivative variances span many orders of magnitude (small sigma,
    high order).
    """
    cov = generalized_noise_covariance(sigma, order)
    scale = np.sqrt(np.diag(cov))
    corr = cov / np.outer(scale, scale)
    corr_inv = np.linalg.inv(corr)
    corr_inv = 0.5 * (corr_inv + corr_inv.T)
    prec = corr_inv / np.outer(scale, scale)
    return 0.5 * (prec + prec.T)


def generalized_precision(spec: NoiseSpec, p: int, d: int) -> GeneralizedPrecision:
    """Assemble the full precision over generalized prediction errors."""
    if p < 0 or d < 0:
        raise ValueError("embedding orders must be non-negative")
    s_p = temporal_precision(spec.sigma, p)
    s_d = temporal_precision(spec.sigma, d)
    return GeneralizedPrecision(
        output_block=np.kron(s_p, spec.meas_precision),
        input_block=np.kron(s_d, spec.input_prior_precision),
        state_block=np.kron(s_p, spec.proc_precision),
    )


def block_diag(*blocks) -> np.ndarray:
    """The 2-D float ``blocks`` along the diagonal of one zero matrix."""
    rows, cols = zip(*(np.shape(b) for b in blocks))
    out = np.zeros((sum(rows), sum(cols)))
    i = j = 0
    for block, n_rows, n_cols in zip(blocks, rows, cols):
        out[i:i + n_rows, j:j + n_cols] = block
        i, j = i + n_rows, j + n_cols
    return out


def sum_of_products(a: np.ndarray, b: np.ndarray) -> float:
    """``sum(a * b)`` of two 1-D arrays in numpy's pairwise order. A BLAS
    dot product splits a long sum across its threads, so its bits would
    depend on the thread count; this order does not."""
    return float(np.add.reduce(a * b))


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Biased sample autocorrelation r(0..max_lag); r(0) = 1."""
    x = np.asarray(series, dtype=float).reshape(-1)
    if x.size <= max_lag + 1:
        raise ValueError("series must be longer than max_lag + 1")
    x = x - x.mean()
    denom = sum_of_products(x, x)
    if denom == 0.0:
        raise ValueError("series has zero variance")
    out = np.empty(max_lag + 1)
    for h in range(max_lag + 1):
        out[h] = sum_of_products(x[:x.size - h], x[h:]) / denom
    return out


class GaussianFit(NamedTuple):
    mean: float
    std: float
    ks_stat: float


def gaussian_fit(series) -> GaussianFit:
    """Sample mean, unbiased std, and the Kolmogorov-Smirnov distance of the
    series against the fitted normal (a quantitative Gaussianity score)."""
    x = np.asarray(series, dtype=float).reshape(-1)
    if x.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples for a "
                         f"meaningful fit")
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise ValueError("series has zero variance")
    # Imported here: scipy.stats costs ~1 s to load and only this fit uses it.
    from scipy import stats
    ks = stats.kstest(x, stats.norm(loc=mean, scale=std).cdf).statistic
    return GaussianFit(mean=mean, std=std, ks_stat=float(ks))
