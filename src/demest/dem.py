"""Dynamic-expectation-maximization observer for LTI systems.

The observer tracks generalized states and inputs X = [x_tilde; v_tilde] by
gradient ascent on the variational free energy V(t), the negative
precision-weighted squared prediction error. Because V is quadratic in X the
ascent collapses to a constant-coefficient linear ODE

    dX/dt = drift @ X + drive @ [y_tilde; -eta_tilde]

whose drift is the generalized shift minus the learning rate times the
(constant) negative free-energy curvature. ``run_observer_batch`` replays a
stack of records through one assembled observer, stepping the discretized
ODE with the replay driver ``systems._replay``; ``run_observer`` is a batch
of one plus the free-energy trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .errors import ObserverDesignError
from .gencoord import embed_series, lift_matrix, shift_matrix
from .noise import GeneralizedPrecision, NoiseSpec, generalized_precision
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
    """Stacked prediction error: output, input-prior, and state-dynamics
    blocks, in that order."""
    x_full = np.asarray(x_full, dtype=float).reshape(-1)
    if x_full.size != m.total_dim:
        raise ValueError("estimate dimension mismatch")
    y_gen = np.asarray(y_gen, dtype=float).reshape(-1)
    eta_gen = np.asarray(eta_gen, dtype=float).reshape(-1)
    if y_gen.size != m.m * (m.p + 1):
        raise ValueError("generalized output dimension mismatch")
    if eta_gen.size != m.input_dim:
        raise ValueError("generalized prior dimension mismatch")
    x_t = x_full[:m.state_dim]
    v_t = x_full[m.state_dim:]
    eps_y = y_gen - m.lifted_c @ x_t
    eps_v = v_t - eta_gen
    eps_x = m.shift_x @ x_t - m.lifted_a @ x_t - m.lifted_b @ v_t
    return np.concatenate([eps_y, eps_v, eps_x])


def error_jacobian(m: ObserverMatrices) -> np.ndarray:
    """Constant Jacobian of the prediction error with respect to X."""
    i_v = np.eye(m.input_dim)
    zero_top = np.zeros((m.m * (m.p + 1), m.input_dim))
    zero_mid = np.zeros((m.input_dim, m.state_dim))
    top = np.hstack([-m.lifted_c, zero_top])
    mid = np.hstack([zero_mid, i_v])
    bot = np.hstack([m.shift_x - m.lifted_a, -m.lifted_b])
    return np.vstack([top, mid, bot])


def free_energy(eps: np.ndarray, pi) -> float:
    """V = -1/2 eps' Pi eps; non-positive for any PSD precision."""
    eps = np.asarray(eps, dtype=float).reshape(-1)
    matrix = pi.matrix if isinstance(pi, GeneralizedPrecision) else np.asarray(pi, dtype=float)
    quad = float(eps @ (matrix @ eps))
    if quad < 0.0:
        quad = 0.0  # rounding guard; the quadratic form is PSD
    return -0.5 * quad


def free_energy_gradient(m: ObserverMatrices, x_full: np.ndarray,
                         y_gen: np.ndarray, eta_gen: np.ndarray) -> np.ndarray:
    """Analytic gradient of V with respect to X."""
    eps = prediction_error(m, x_full, y_gen, eta_gen)
    return -(error_jacobian(m).T @ (m.precision.matrix @ eps))


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


def default_learning_rate(curvature: np.ndarray, shift_full: np.ndarray,
                          target_rate: float = 0.5,
                          rank_cutoff: float = 1e-9) -> float:
    """Rate at which the slowest informative direction decays at target_rate.

    target_rate defaults to 5 / (10 s), i.e. several convergence times within
    a standard experiment horizon. Directions whose curvature falls below
    rank_cutoff relative to the largest carry essentially no information;
    chasing them would demand rates so large that the discrete step loses
    accuracy, so they are excluded and only checked for stability.
    """
    eigs = np.linalg.eigvalsh(curvature)
    lam_max = float(eigs[-1])
    if lam_max <= 0:
        raise ObserverDesignError("curvature is not positive semidefinite")
    informative = eigs[eigs > rank_cutoff * lam_max]
    k = target_rate / float(informative[0])
    for _ in range(60):
        drift_eigs = np.linalg.eigvals(shift_full - k * curvature)
        if drift_eigs.real.max() <= 1e-9 * max(1.0, k * lam_max):
            return k
        k *= 2.0
    raise ObserverDesignError("no stable learning rate found")


def observer_step(m: ObserverMatrices, x_full: np.ndarray, y_gen: np.ndarray,
                  eta_gen: np.ndarray, dt: float) -> np.ndarray:
    """Advance the estimate ODE by ``dt`` with the input held constant."""
    u = np.concatenate([np.asarray(y_gen, dtype=float).reshape(-1),
                        -np.asarray(eta_gen, dtype=float).reshape(-1)])
    x_full = np.asarray(x_full, dtype=float).reshape(-1)
    ad, bd = zero_order_hold(m.drift, m.drive, dt)
    return ad @ x_full + bd @ u


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
    The free-energy trace is computed from the estimates; it matches
    ``free_energy(prediction_error(...))`` per step up to rounding.
    """
    embeddings = {}
    estimates = _one(run_observer_batch(m, [data], known_inputs,
                                        embeddings=embeddings))
    y_gen = embed_records([data], "measurements", m.p, embeddings)[:, 0]
    sd = m.state_dim
    return ObserverRun(
        estimates=estimates,
        vfe=_free_energy_trace(m, estimates, y_gen),
        states=estimates[:, :m.n],
        inputs=estimates[:, sd:sd + m.r],
    )


def embed_records(datas, field: str, order: int,
                  memo: dict | None = None) -> np.ndarray:
    """Time-major (T, S, k) embedding of ``field`` ("measurements" or
    "inputs") of every record, each written into one preallocated array.

    ``memo`` keeps the embeddings by field, order and records, so calls
    that pass the same dict and the same (live) records embed each record
    once per order.
    """
    key = (field, order, tuple(map(id, datas)))
    if memo is not None and key in memo:
        return memo[key]
    first = getattr(datas[0], field)
    out = np.empty((first.shape[0], len(datas),
                    first.shape[1] * (order + 1)))
    for s, data in enumerate(datas):
        out[:, s] = embed_series(getattr(data, field), data.dt, order)
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
    ``_replay`` advances the (S, D, 1) stack of estimates by the estimate
    ODE, with (Ad, Bd) discretized once at the records' ``dt``. Only the
    estimate columns ``keep`` (all by default; an index list or a slice,
    which is cheaper to store) are stored, and no free-energy trace is
    computed.

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
    if known_inputs:
        v_gen = embed_records(datas, "inputs", m.d, embeddings)
    # Step t refills u with the (S, nu, 1) stack of the vectors
    # [y_tilde; -eta_tilde] that observer_step concatenates at step t.
    ny = y_gen.shape[2]
    u = np.empty((n_records, m.drive.shape[1], 1))
    u[:, ny:, 0] = -m.eta_gen
    ad, bd = zero_order_hold(m.drift, m.drive, datas[0].dt)
    sd = m.state_dim
    x = np.zeros((n_records, m.total_dim, 1))
    ax, bu = np.empty_like(x), np.empty_like(x)

    def advance(t, x):
        u[:, :ny, 0] = y_gen[t]
        np.add(np.matmul(ad, x, out=ax), np.matmul(bd, u, out=bu), out=x)
        if known_inputs:
            x[:, sd:, 0] = v_gen[t]
        return x

    kept, failed = _replay(x, n_steps, advance,
                           slice(None) if keep is None else keep,
                           lambda i, t: NON_FINITE)
    return [failed[i] if i in failed else kept[:, i]
            for i in range(n_records)]


def _free_energy_trace(m: ObserverMatrices, estimates: np.ndarray,
                       y_gen_series: np.ndarray) -> np.ndarray:
    """``free_energy(prediction_error(...))`` for every row of a replay.

    The precision is block-diagonal, so the quadratic form is summed one
    error block at a time and no (T, total_dim) error matrix is formed.
    """
    def weighted(err, block):
        return np.einsum("ti,ti->t", err @ block, err)

    x_t = estimates[:, :m.state_dim]
    v_t = estimates[:, m.state_dim:]
    pi = m.precision
    quad = weighted(y_gen_series - x_t @ m.lifted_c.T, pi.output_block)
    quad += weighted(v_t - m.eta_gen, pi.input_block)
    quad += weighted(x_t @ m.shift_x.T - x_t @ m.lifted_a.T
                     - v_t @ m.lifted_b.T, pi.state_block)
    np.maximum(quad, 0.0, out=quad)  # rounding guard; the form is PSD
    return -0.5 * quad


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

    Directions are used as given (normalize beforehand if unit steps are
    wanted); the slack absorbs embedding truncation at the probed time.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    magnitudes = np.asarray(magnitudes, dtype=float).reshape(-1)
    v_hat = free_energy(prediction_error(m, x_hat, y_gen, eta_gen), m.precision)
    values = np.empty((directions.shape[0], magnitudes.size))
    for i, direction in enumerate(directions):
        for j, mag in enumerate(magnitudes):
            eps = prediction_error(m, x_hat + mag * direction, y_gen, eta_gen)
            values[i, j] = free_energy(eps, m.precision)
    max_probe = float(values.max()) if values.size else v_hat
    return LandscapeResult(
        v_at_estimate=v_hat,
        probe_values=values,
        max_probe=max_probe,
        passed=bool(v_hat >= max_probe - slack),
    )
