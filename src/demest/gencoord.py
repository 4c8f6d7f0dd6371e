"""Generalized coordinates: block shift operators, Kronecker lifts, and
Taylor-polynomial embedding of sampled signals into derivative stacks.

A generalized vector stacks a quantity and its first ``order`` time
derivatives, ``[x; x'; x''; ...]``, with each derivative occupying a
contiguous block of ``base_dim`` entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Factorials and Vandermonde conditioning degrade quickly past this order.
ORDER_CAP = 12

# Condition number above which the embedding matrix is considered suspect.
CONDITION_WARN = 1e12


@dataclass(frozen=True)
class GeneralizedVector:
    """A quantity and its first ``order`` derivatives, stacked block-wise."""

    base_dim: int
    order: int
    data: np.ndarray

    def __post_init__(self):
        if self.base_dim < 1:
            raise ValueError("base_dim must be positive")
        if self.order < 0:
            raise ValueError("order must be non-negative")
        data = np.asarray(self.data, dtype=float).reshape(-1)
        if data.size != self.base_dim * (self.order + 1):
            raise ValueError(
                f"data length {data.size} != base_dim*(order+1) = "
                f"{self.base_dim * (self.order + 1)}"
            )
        object.__setattr__(self, "data", data)

    def block(self, j: int) -> np.ndarray:
        """The j-th derivative block."""
        if not 0 <= j <= self.order:
            raise IndexError(f"derivative index {j} out of range 0..{self.order}")
        return self.data[j * self.base_dim:(j + 1) * self.base_dim]

    @classmethod
    def from_blocks(cls, blocks) -> "GeneralizedVector":
        blocks = [np.atleast_1d(np.asarray(b, dtype=float)) for b in blocks]
        base_dim = blocks[0].size
        return cls(base_dim=base_dim, order=len(blocks) - 1,
                   data=np.concatenate(blocks))


def centered_offsets(order: int) -> tuple[int, ...]:
    """Sample offsets of the default embedding window around its nominal time.

    The window spans ``order + 1`` samples; for odd orders it sits half a
    sample toward the past so that the nominal time is never extrapolated.
    """
    lead = -math.ceil(order / 2)
    return tuple(range(lead, lead + order + 1))


@dataclass(frozen=True)
class EmbeddingWindow:
    """A window of ``order + 1`` uniformly spaced measurement samples."""

    samples: np.ndarray  # (order+1, m)
    dt: float
    order: int
    offsets: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] != self.order + 1:
            raise ValueError(
                f"window needs exactly {self.order + 1} samples, "
                f"got {samples.shape[0]}"
            )
        object.__setattr__(self, "samples", samples)
        offsets = self.offsets
        if offsets is None:
            offsets = centered_offsets(self.order)
        offsets = tuple(int(k) for k in offsets)
        if len(offsets) != self.order + 1 or len(set(offsets)) != len(offsets):
            raise ValueError("offsets must be order+1 distinct integers")
        object.__setattr__(self, "offsets", offsets)


def shift_matrix(order: int, base_dim: int) -> np.ndarray:
    """Block derivative operator on generalized vectors.

    Returns the superdiagonal-ones matrix of size ``order + 1`` Kronecker the
    identity of size ``base_dim``: each derivative block moves up one slot and
    the last block is zeroed.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if base_dim < 1:
        raise ValueError("base_dim must be positive")
    return np.kron(np.eye(order + 1, k=1), np.eye(base_dim))


def lift_matrix(m: np.ndarray, order: int, col_order: int | None = None) -> np.ndarray:
    """Lift a system matrix to generalized coordinates.

    With only ``order`` given this is ``I_{order+1} kron m`` (block diagonal
    copies of ``m``). A smaller ``col_order`` produces the rectangular lift
    used when the column quantity carries fewer derivatives than the row
    quantity: copies of ``m`` sit on the main block diagonal and the extra
    row blocks are zero.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if col_order is None:
        col_order = order
    if col_order > order:
        raise ValueError("col_order must not exceed order")
    return np.kron(np.eye(order + 1, col_order + 1), m)


def taylor_embedding_matrix(order: int, dt: float,
                            offsets: tuple[int, ...] | None = None) -> np.ndarray:
    """Matrix mapping a generalized scalar to the window samples.

    Entry (i, j) is ``(offsets[i] * dt) ** j / j!``; row i evaluates the
    degree-``order`` Taylor polynomial at the i-th sample time, so the matrix
    sends ``[y; y'; ...; y^(order)]`` at the window's nominal time to the
    ``order + 1`` samples.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > ORDER_CAP:
        raise ValueError(f"embedding order {order} exceeds cap {ORDER_CAP}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if offsets is None:
        offsets = centered_offsets(order)
    times = np.asarray(offsets, dtype=float) * dt
    cols = [times ** j / math.factorial(j) for j in range(order + 1)]
    return np.stack(cols, axis=1)


def _integer_inverse(offsets: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Exact inverse of the integer-node Vandermonde ``V[i, j] = offsets[i]**j``.

    Returns ``(numer, den)`` with ``inv(V) == numer / den``. Column i of the
    inverse holds the monomial coefficients of the Lagrange basis polynomial
    ``prod_{k != i} (x - x_k) / prod_{k != i} (x_i - x_k)``, built in integer
    arithmetic. ``den`` is a multiple of ``order!``; for consecutive offsets it
    equals ``order!`` and every ``|numer|`` entry stays below 2.7e11 up to
    :data:`ORDER_CAP`, so the float64 ``numer`` is exact.
    """
    polys, node_dens = [], []
    for i, xi in enumerate(offsets):
        coeffs, node_den = [1], 1  # ascending powers
        for k, xk in enumerate(offsets):
            if k != i:
                coeffs = [a - xk * b for a, b in zip([0] + coeffs, coeffs + [0])]
                node_den *= xi - xk
        polys.append(coeffs)
        node_dens.append(node_den)
    den = math.lcm(math.factorial(len(offsets) - 1), *map(abs, node_dens))
    numer = np.array([[c * (den // d) for c, d in zip(row, node_dens)]
                      for row in zip(*polys)], dtype=float)
    return numer, den


class _FactoredInverse(NamedTuple):
    numer: np.ndarray    # integer-valued, rows j >= 1 sum to exactly 0
    scale: np.ndarray    # j! / (den * dt^j) per derivative j
    inverse: np.ndarray  # numer scaled row-wise, i.e. inv(taylor matrix)


@lru_cache(maxsize=None)
def _embedding_inverse(order: int, dt: float,
                       offsets: tuple[int, ...]) -> _FactoredInverse:
    # Cached per (order, dt, offsets); safe under concurrent use because
    # lru_cache insertion is idempotent and the arrays are frozen read-only.
    #
    # The Taylor matrix factors as V @ D with V the integer-node Vandermonde
    # and D = diag(dt^j / j!), so its inverse is diag(j! / dt^j) @ inv(V).
    # A floating-point inverse of V misses the zero row sums of rows j >= 1
    # by ~1e-17, and the j!/dt^j factor amplifies that miss into spurious
    # derivatives of constants (0.06 at order 6, dt 0.0083; 4e13 at order
    # 12). inv(V) is therefore formed exactly as an integer matrix over one
    # common denominator, and all rounding is left to the final row scale.
    t = taylor_embedding_matrix(order, dt, offsets)
    cond = np.linalg.cond(t)
    if cond > CONDITION_WARN:
        warnings.warn(
            f"embedding matrix badly conditioned (cond={cond:.2e}) for "
            f"order={order}, dt={dt}",
            RuntimeWarning,
        )
    numer, den = _integer_inverse(offsets)
    scale = np.array([math.factorial(j) / (den * dt ** j)
                      for j in range(order + 1)])
    factored = _FactoredInverse(numer, scale, numer * scale[:, None])
    for arr in factored:
        arr.flags.writeable = False
    return factored


def embedding_inverse(order: int, dt: float,
                      offsets: tuple[int, ...] | None = None) -> np.ndarray:
    """Inverse of :func:`taylor_embedding_matrix`, cached per configuration."""
    if offsets is None:
        offsets = centered_offsets(order)
    return _embedding_inverse(order, float(dt),
                              tuple(int(k) for k in offsets)).inverse


def embed_measurements(window: EmbeddingWindow) -> GeneralizedVector:
    """Estimate the derivative stack at the window's nominal time.

    Solves the Taylor system for the window samples. A constant signal gets
    derivatives of exactly 0.0; polynomials of degree <= order over the
    window are exact up to rounding.
    """
    factored = _embedding_inverse(window.order, float(window.dt),
                                  window.offsets)
    # Integer rows that sum to zero cancel a constant exactly only if the
    # products with it are exact, so the first sample is taken out first and
    # added back to the value block (row 0 of the inverse sums to 1).
    ref = window.samples[0]
    stacked = (factored.numer @ (window.samples - ref)) \
        * factored.scale[:, None]
    stacked[0] += ref
    return GeneralizedVector(base_dim=window.samples.shape[1],
                             order=window.order,
                             data=stacked.reshape(-1))


def embed_series(series: np.ndarray, dt: float, order: int) -> np.ndarray:
    """Embed every sample of a uniformly sampled series.

    Returns a (T, m*(order+1)) array whose row t holds the generalized vector
    at sample t. Interior rows use the centered window; near the series
    boundaries the window is shifted to stay inside the data and an
    off-center Taylor matrix keeps the estimate anchored at sample t. A
    constant series gets derivatives of exactly 0.0 on every row; polynomials
    of degree <= order are exact up to rounding.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    if series.ndim != 2:
        raise ValueError("series must be 1-D or 2-D")
    n_samples, m = series.shape
    if n_samples < order + 1:
        raise ValueError(
            f"series length {n_samples} shorter than window size {order + 1}"
        )
    dt = float(dt)
    lead = -math.ceil(order / 2)
    # As in embed_measurements, a reference sample is taken out so that a
    # constant reaches the integer numerators as exact zeros.
    ref = series[0]
    shifted = series - ref
    # Interior rows (lo = t + lead) share the centered window's numerators
    # and take one stacked product over every window of the series; only
    # the ``order`` boundary rows use off-center windows.
    center = _embedding_inverse(order, dt, centered_offsets(order))
    windows = sliding_window_view(shifted, (order + 1, m))[:, 0]
    out = np.empty((n_samples, m * (order + 1)))
    out[-lead:n_samples - order - lead] = \
        (center.numer @ windows).reshape(n_samples - order, -1)
    for t in (*range(-lead), *range(n_samples - order - lead, n_samples)):
        lo = min(max(t + lead, 0), n_samples - order - 1)
        offsets = tuple(range(lo - t, lo - t + order + 1))
        factored = _embedding_inverse(order, dt, offsets)
        out[t] = (factored.numer @ shifted[lo:lo + order + 1]).reshape(-1)
    # Every window is consecutive, so all rows share the denominator order!
    # and with it one row scale.
    out *= np.repeat(center.scale, m)
    out[:, :m] += ref
    return out
