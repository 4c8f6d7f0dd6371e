"""Dynamic-expectation-maximization observer for LTI systems.

The observer tracks generalized states and inputs X = [x_tilde; v_tilde] by
gradient ascent on the variational free energy V(t), the negative
precision-weighted squared prediction error. Because V is quadratic in X the
ascent collapses to a constant-coefficient linear ODE

    dX/dt = drift @ X + drive @ [y_tilde; -eta_tilde]

whose drift is the generalized shift minus the learning rate times the
(constant) negative free-energy curvature. ``run_observer_batch`` replays a
stack of records through one assembled observer: the discretized ODE is the
recurrence ``X_t = Ad X_{t-1} + Bd u_t``, which the replay driver
``systems._replay`` scans in chunks into (S, T, ·) rows, the layout of the
(S, T, k) embeddings; a record fails with ``NON_FINITE`` at its first
non-finite step. ``run_observer`` is a batch of one plus the free-energy
trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, ObserverDesignError
from .gencoord import embed_series, lift_matrix, shift_matrix
from .noise import (GeneralizedPrecision, NoiseSpec, block_diag,
                    generalized_precision)
from .systems import (ExperimentData, LtiModel, _one, _replay, _stack,
                      is_observable, zero_order_hold)

# Relative tolerance of the assembly self-check (two independent
# constructions of the curvature must agree).
_SELF_CHECK_RTOL = 1e-10

NON_FINITE = "non-finite estimate"


@dataclass(frozen=True)
class DemConfig:
    """Observer settings.

    p, d: embedding orders for states and inputs (p >= d >= 0).
    learning_rate: gradient-ascent gain in 1/s; None picks a default from
        the curvature spectrum at assembly time.
    noise: smoothness and precisions assumed by the observer.
    eta_v: prior input mean; its generalized lift has zero derivative blocks
        (a constant prior does not move).
    """

    p: int
    d: int
    noise: NoiseSpec
    eta_v: np.ndarray
    learning_rate: float | None = None

    def __post_init__(self):
        if self.d < 0 or self.p < self.d:
            raise ValueError("need p >= d >= 0")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        eta = np.asarray(self.eta_v, dtype=float).reshape(-1)
        object.__setattr__(self, "eta_v", eta)


def generalized_prior(eta_v, d: int) -> np.ndarray:
    """Lift a constant prior mean: value block eta_v, derivative blocks zero."""
    eta_v = np.asarray(eta_v, dtype=float).reshape(-1)
    out = np.zeros(eta_v.size * (d + 1))
    out[:eta_v.size] = eta_v
    return out


@dataclass(frozen=True)
class ObserverMatrices:
    """Assembled constant matrices defining one observer instance.

    Nothing here depends on a record, so one assembly serves every replay
    through ``run_observer`` or ``run_observer_batch``.
    """

    drift: np.ndarray            # shift - rate * curvature
    drive: np.ndarray            # maps [y_tilde; -eta_tilde] into dX/dt
    curvature: np.ndarray        # negative Hessian of V; estimate precision
    shift: np.ndarray            # block-diag generalized derivative operator
    precision: GeneralizedPrecision
    lifted_a: np.ndarray
    lifted_b: np.ndarray
    lifted_c: np.ndarray
    shift_x: np.ndarray
    eta_gen: np.ndarray          # generalized prior input mean
    rate: float
    n: int
    r: int
    m: int
    p: int
    d: int
    # Zero-order holds of (drift, drive) by dt, so that the replays and the
    # growth of one design at one dt share one matrix exponential.
    _holds: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def replayed(self, dt: float, known_inputs: bool):
        """``(Ad, Bd)`` rows of the states a replay at ``dt`` steps: the
        zero-order hold of the drift and drive, all rows, or with known
        inputs the state rows alone (the clamped inputs enter through
        ``Ad``'s input columns)."""
        if dt not in self._holds:
            hold = zero_order_hold(self.drift, self.drive, dt)
            if not all(np.isfinite(h).all() for h in hold):
                raise ObserverDesignError(
                    f"zero-order hold at dt={dt:g} is not finite: learning "
                    f"rate {self.rate:g} too large (dem.learning_rate)")
            self._holds[dt] = hold
        ad, bd = self._holds[dt]
        n = self.state_dim if known_inputs else self.total_dim
        return ad[:n], bd[:n]

    @property
    def state_dim(self) -> int:
        return self.n * (self.p + 1)

    @property
    def input_dim(self) -> int:
        return self.r * (self.d + 1)

    @property
    def total_dim(self) -> int:
        return self.state_dim + self.input_dim


def prediction_error(m: ObserverMatrices, x_full: np.ndarray,
                     y_gen: np.ndarray, eta_gen: np.ndarray) -> np.ndarray:
    """Stacked prediction error of one estimate (D,) or of each row of a
    stack (..., D): output, input-prior, and state-dynamics blocks, in that
    order, along the last axis. ``y_gen`` (..., k) broadcasts against the
    estimates' leading axes."""
    x_full = np.atleast_1d(np.asarray(x_full, dtype=float))
    if x_full.shape[-1] != m.total_dim:
        raise ValueError("estimate dimension mismatch")
    y_gen = np.atleast_1d(np.asarray(y_gen, dtype=float))
    eta_gen = np.asarray(eta_gen, dtype=float).reshape(-1)
    if y_gen.shape[-1] != m.m * (m.p + 1):
        raise ValueError("generalized output dimension mismatch")
    if eta_gen.size != m.input_dim:
        raise ValueError("generalized prior dimension mismatch")
    x_t = x_full[..., :m.state_dim]
    v_t = x_full[..., m.state_dim:]
    eps_y = y_gen - x_t @ m.lifted_c.T
    eps_v = v_t - eta_gen
    eps_x = x_t @ m.shift_x.T - x_t @ m.lifted_a.T - v_t @ m.lifted_b.T
    lead = eps_y.shape[:-1]
    return np.concatenate([np.broadcast_to(e, lead + e.shape[-1:])
                           for e in (eps_y, eps_v, eps_x)], axis=-1)


def error_jacobian(m: ObserverMatrices) -> np.ndarray:
    """Constant Jacobian of the prediction error with respect to X."""
    i_v = np.eye(m.input_dim)
    zero_top = np.zeros((m.m * (m.p + 1), m.input_dim))
    zero_mid = np.zeros((m.input_dim, m.state_dim))
    top = np.hstack([-m.lifted_c, zero_top])
    mid = np.hstack([zero_mid, i_v])
    bot = np.hstack([m.shift_x - m.lifted_a, -m.lifted_b])
    return np.vstack([top, mid, bot])


def free_energy(eps: np.ndarray, pi) -> float | np.ndarray:
    """V = -1/2 eps' Pi eps of one error (a float) or of each row of a
    stack (..., k); non-positive for any PSD precision."""
    eps = np.asarray(eps, dtype=float)
    matrix = pi.matrix if isinstance(pi, GeneralizedPrecision) else np.asarray(pi, dtype=float)
    # rounding guard; the quadratic form is PSD
    v = -0.5 * np.maximum(np.vecdot(eps, eps @ matrix.T), 0.0)
    return float(v) if eps.ndim == 1 else v


def assemble_observer(model: LtiModel, cfg: DemConfig,
                      rate: float | None = None) -> ObserverMatrices:
    """Build the observer matrices for a plant/configuration pair.

    The curvature is assembled from its closed-form blocks and cross-checked
    against the quadratic form J' Pi J built from the error Jacobian; any
    disagreement indicates a construction bug and aborts.
    """
    if not is_observable(model):
        raise ObserverDesignError("plant (A, C) is not observable")
    if cfg.noise.n != model.n or cfg.noise.m != model.m or cfg.noise.r != model.r:
        raise ObserverDesignError("noise precision dimensions do not match plant")
    if cfg.eta_v.size != model.r:
        raise ObserverDesignError("prior mean dimension does not match inputs")
    p, d = cfg.p, cfg.d
    n, r, m_dim = model.n, model.r, model.m

    shift_x = shift_matrix(p, n)
    shift_v = shift_matrix(d, r)
    shift_full = block_diag(shift_x, shift_v)
    lifted_a = lift_matrix(model.a, p)
    lifted_b = lift_matrix(model.b, p, col_order=d)
    lifted_c = lift_matrix(model.c, p)
    pi = generalized_precision(cfg.noise, p, d)

    d_a = shift_x - lifted_a
    wt_da = pi.state_block @ d_a
    top_left = lifted_c.T @ pi.output_block @ lifted_c + d_a.T @ wt_da
    top_right = -d_a.T @ (pi.state_block @ lifted_b)
    bottom_right = pi.input_block + lifted_b.T @ (pi.state_block @ lifted_b)
    curvature = np.block([[top_left, top_right],
                          [top_right.T, bottom_right]])
    curvature = 0.5 * (curvature + curvature.T)

    if rate is None:
        rate = cfg.learning_rate
    if rate is None:
        rate = default_learning_rate(curvature, shift_full)

    # The drive must carry the learning rate for the ODE equilibrium to sit
    # at the free-energy maximum.
    drive = np.zeros((n * (p + 1) + r * (d + 1),
                      m_dim * (p + 1) + r * (d + 1)))
    drive[:n * (p + 1), :m_dim * (p + 1)] = rate * (lifted_c.T @ pi.output_block)
    drive[n * (p + 1):, m_dim * (p + 1):] = -rate * pi.input_block
    drift = shift_full - rate * curvature

    matrices = ObserverMatrices(
        drift=drift, drive=drive, curvature=curvature, shift=shift_full,
        precision=pi, lifted_a=lifted_a, lifted_b=lifted_b, lifted_c=lifted_c,
        shift_x=shift_x, eta_gen=generalized_prior(cfg.eta_v, d),
        rate=float(rate),
        n=n, r=r, m=m_dim, p=p, d=d,
    )

    jac = error_jacobian(matrices)
    quad_form = jac.T @ pi.matrix @ jac
    scale = max(1.0, float(np.abs(curvature).max()))
    if np.abs(curvature - quad_form).max() > _SELF_CHECK_RTOL * scale:
        raise ObserverDesignError(
            "curvature self-check failed: block assembly disagrees with the "
            "error-Jacobian quadratic form")
    return matrices


# The default learning rate makes the slowest informative direction decay
# at TARGET_RATE, 5 / (10 s): several convergence times within a standard
# experiment horizon. A direction is informative where its curvature is
# above RANK_CUTOFF times the largest.
TARGET_RATE = 0.5
RANK_CUTOFF = 1e-9


def default_learning_rate(curvature: np.ndarray,
                          shift_full: np.ndarray) -> float:
    """Rate at which the slowest informative direction decays at
    ``TARGET_RATE``. The other directions carry essentially no information;
    chasing them would demand rates so large that the discrete step loses
    accuracy, so they are excluded and only checked for stability.
    """
    eigs = np.linalg.eigvalsh(curvature)
    lam_max = float(eigs[-1])
    if lam_max <= 0:
        raise ObserverDesignError("curvature is not positive semidefinite")
    informative = eigs[eigs > RANK_CUTOFF * lam_max]
    k = TARGET_RATE / float(informative[0])
    for _ in range(60):
        drift_eigs = np.linalg.eigvals(shift_full - k * curvature)
        if drift_eigs.real.max() <= 1e-9 * max(1.0, k * lam_max):
            return k
        k *= 2.0
    raise ObserverDesignError("no stable learning rate found")


@dataclass(frozen=True)
class ObserverRun:
    """Trajectory of estimates with the free-energy trace."""

    estimates: np.ndarray        # (T, state_dim + input_dim)
    vfe: np.ndarray              # (T,)
    states: np.ndarray           # (T, n) value block of x_tilde
    inputs: np.ndarray           # (T, r) value block of v_tilde


def run_observer(m: ObserverMatrices, data: ExperimentData,
                 known_inputs: bool = False) -> ObserverRun:
    """Replay a record through an assembled observer, starting from zero.

    A batch of one through ``run_observer_batch`` that raises its
    ``DivergenceError``. With ``known_inputs`` the input block is clamped
    to the embedded measured inputs after every step (the state
    benchmarking mode); otherwise inputs are estimated against the prior.
    The free-energy trace ``vfe`` is one stacked
    ``free_energy(prediction_error(...))`` of the estimates, one V per step.
    """
    embeddings = {}
    estimates = _one(run_observer_batch(m, [data], known_inputs,
                                        embeddings=embeddings))
    y_gen = embed_records([data], "measurements", m.p, embeddings)[0]
    sd = m.state_dim
    return ObserverRun(
        estimates=estimates,
        vfe=free_energy(prediction_error(m, estimates, y_gen, m.eta_gen),
                        m.precision),
        states=estimates[:, :m.n],
        inputs=estimates[:, sd:sd + m.r],
    )


def embed_records(datas, field: str, order: int,
                  memo: dict | None = None) -> np.ndarray:
    """The (S, T, k) embedding of ``field`` ("measurements" or "inputs") of
    every record, each written into one preallocated array.

    ``memo`` keeps the embeddings by field, order and records, so calls
    that pass the same dict and the same (live) records embed each record
    once per order.
    """
    key = (field, order, tuple(map(id, datas)))
    if memo is not None and key in memo:
        return memo[key]
    first = getattr(datas[0], field)
    out = np.empty((len(datas), first.shape[0], first.shape[1] * (order + 1)))
    for s, data in enumerate(datas):
        out[s] = embed_series(getattr(data, field), data.dt, order)
    if memo is not None:
        memo[key] = out
    return out


class InputMemo(dict):
    """An ``embed_records`` memo that keeps only the input embeddings: replays
    at several measurement orders share them, and each order's measurement
    embedding is dropped with its replay."""

    def __setitem__(self, key, value):
        if key[0] == "inputs":
            super().__setitem__(key, value)


def run_observer_batch(m: ObserverMatrices, datas, known_inputs: bool = False,
                       keep=None, embeddings: dict | None = None) -> list:
    """Replay records of one dt and length through an assembled observer,
    starting from zero, in one stacked recursion.

    Each record is embedded into generalized outputs up front (through the
    ``embed_records`` memo ``embeddings``), and the replay driver
    ``_replay`` replays the (S, D, 1) stack of estimates as ``X_t = Ad
    X_{t-1} + w_t``, with (Ad, Bd) discretized once at the records' ``dt``
    and every ``w_t = Bd [y_tilde_t; -eta_tilde]`` formed in one product.
    Only the estimate columns ``keep`` (all by default; an index list or a
    slice) are stored, and no free-energy trace is computed.

    Returns each record's kept (T, len(keep)) estimates, or the
    ``DivergenceError`` of its first non-finite step.
    """
    _stack(datas)
    if any(d.measurements.shape[1] != m.m for d in datas):
        raise ValueError("measurement dimension does not match plant output")
    n_records, n_steps = len(datas), datas[0].n_steps
    if n_steps < m.p + 1:
        raise ValueError("record shorter than the embedding window")
    y_gen = embed_records(datas, "measurements", m.p, embeddings)
    # With known inputs only the state block replays, and the clamped inputs
    # of the last step drive it as Ad's input columns: the same
    # zero-order-hold step as replaying every column and clamping after it.
    ad, bd = m.replayed(datas[0].dt, known_inputs)
    n = ad.shape[0]
    ny = y_gen.shape[2]
    w = np.matmul(y_gen, bd[:, :ny].T)
    w -= bd[:, ny:] @ m.eta_gen
    cols = np.arange(m.total_dim)[slice(None) if keep is None else keep]
    replayed = cols < n
    if known_inputs:
        v_gen = embed_records(datas, "inputs", m.d, embeddings)
        for s in range(n_records):  # no temporary as large as w
            w[s, 1:] += v_gen[s, :-1] @ ad[:, n:].T
    ad = ad[:, :n]
    kept, failed = _replay(np.zeros((n_records, n, 1)), w, cols[replayed],
                           lambda t: ad)
    if not replayed.all():
        out = np.empty(kept.shape[:2] + cols.shape)
        out[..., replayed] = kept
        out[..., ~replayed] = v_gen[..., cols[~replayed] - n]
        kept = out
    return [DivergenceError(failed[i], NON_FINITE) if i in failed else kept[i]
            for i in range(n_records)]


def replay_growth(m: ObserverMatrices, dt: float, n_steps: int,
                  known_inputs: bool = False) -> dict:
    """Spectral radius of the transition ``run_observer_batch`` replays at
    ``dt`` (the state block's, with known inputs), and its growth, the
    radius to the power ``n_steps``: how far the replay can amplify a
    state over a record of that length. A growth too large for a float is
    None. With them, the learning rate the design replays with, configured
    or defaulted."""
    ad, _ = m.replayed(dt, known_inputs)
    radius = float(np.abs(np.linalg.eigvals(ad[:, :len(ad)])).max())
    with np.errstate(over="ignore"):
        growth = float(np.float64(radius) ** n_steps)
    return {"spectral_radius": radius,
            "growth": growth if np.isfinite(growth) else None,
            "learning_rate": m.rate}


def estimate_precision(m: ObserverMatrices) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal blocks of the curvature: precisions of the generalized state
    and input estimates. Constant over a run by construction."""
    sd = m.state_dim
    return m.curvature[:sd, :sd].copy(), m.curvature[sd:, sd:].copy()


@dataclass(frozen=True)
class LandscapeResult:
    """Free energy at an estimate versus perturbed probes around it."""

    v_at_estimate: float
    probe_values: np.ndarray     # (n_directions, n_magnitudes)
    max_probe: float
    passed: bool


def free_energy_landscape(m: ObserverMatrices, x_hat: np.ndarray,
                          y_gen: np.ndarray, eta_gen: np.ndarray,
                          directions: np.ndarray, magnitudes,
                          slack: float = 1e-8) -> LandscapeResult:
    """Probe V around an estimate and check it sits at the top.

    The estimate and every probe ``x_hat + magnitudes[j] * directions[i]``
    are one stack of estimates, the estimate its row 0, evaluated in one
    ``free_energy(prediction_error(...))`` call; a zero-magnitude probe is
    the estimate's row. Directions are used as given (normalize beforehand
    if unit steps are wanted); the slack absorbs embedding truncation at
    the probed time.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    magnitudes = np.asarray(magnitudes, dtype=float).reshape(-1)
    probes = x_hat + magnitudes[:, None] * directions[:, None, :]
    stack = np.concatenate([x_hat[None], probes.reshape(-1, x_hat.size)])
    v = free_energy(prediction_error(m, stack, y_gen, eta_gen), m.precision)
    v_hat, values = float(v[0]), v[1:].reshape(probes.shape[:2])
    max_probe = float(values.max()) if values.size else v_hat
    return LandscapeResult(
        v_at_estimate=v_hat,
        probe_values=values,
        max_probe=max_probe,
        passed=bool(v_hat >= max_probe - slack),
    )
