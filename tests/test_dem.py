from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demest import dem, harness
from demest.config import load_config_file
from demest.dem import (DemConfig, assemble_observer, default_learning_rate,
                        error_jacobian, estimate_precision, free_energy,
                        free_energy_landscape, generalized_prior,
                        prediction_error, run_observer, run_observer_batch)
from demest.errors import DivergenceError, ObserverDesignError
from demest.gencoord import embed_series
from demest.noise import NoiseSpec, generalized_precision
from demest.systems import (SCAN_CHUNK, ExperimentData, LtiModel, expm,
                            quadrotor_roll_model, simulate, zero_order_hold)

DT = 0.0083


def free_energy_gradient(m, x_full, y_gen, eta_gen):
    """Reference: the analytic gradient of V with respect to X."""
    eps = prediction_error(m, x_full, y_gen, eta_gen)
    return -(error_jacobian(m).T @ (m.precision.matrix @ eps))


def scalar_model():
    return LtiModel(a=[[0.0]], b=[[1.0]], c=[[1.0]])


def scalar_cfg(p=0, d=0, rate=1.0, sigma=0.05):
    spec = NoiseSpec(sigma=sigma, proc_precision=[[1.0]],
                     meas_precision=[[1.0]], input_prior_precision=[[1.0]])
    return DemConfig(p=p, d=d, noise=spec, eta_v=[0.0], learning_rate=rate)


def roll_setup(p=6, d=2, rate=1.0, pv=1.0):
    model = quadrotor_roll_model(3.4e-3, 1.274e-3)
    spec = NoiseSpec(sigma=0.0166,
                     proc_precision=np.diag([1.0 / 0.005 ** 2, 1.0 / 2.0 ** 2]),
                     meas_precision=[[1e6]],
                     input_prior_precision=pv * np.eye(4))
    cfg = DemConfig(p=p, d=d, noise=spec, eta_v=np.zeros(4),
                    learning_rate=rate)
    return model, cfg


class TestPredictionError:
    def test_scalar_example(self):
        m = assemble_observer(scalar_model(), scalar_cfg())
        eps = prediction_error(m, [1.0, 2.0], [3.0], [0.0])
        np.testing.assert_allclose(eps, [2.0, 2.0, -2.0])

    def test_linearity_in_output(self):
        m = assemble_observer(scalar_model(), scalar_cfg(p=2, d=1))
        y = np.array([1.0, 0.0, 0.0])
        eps = prediction_error(m, np.zeros(m.total_dim), y, np.zeros(2))
        np.testing.assert_allclose(eps[:3], y)
        np.testing.assert_allclose(eps[3:], 0.0)

    def test_zero_at_consistent_trajectory(self):
        # Constant input c with x = (g c t^2 / 2, g c t) satisfies the
        # dynamics exactly; at t = 0 the generalized stack is polynomial and
        # every error block vanishes.
        model = quadrotor_roll_model(3.4e-3, 1.274e-3)
        g = 1.274e-3 / 3.4e-3
        spec = NoiseSpec(sigma=0.05, proc_precision=np.eye(2),
                         meas_precision=[[1.0]],
                         input_prior_precision=np.eye(4))
        eta = np.array([0.5, 0.0, 0.0, 0.0])
        cfg = DemConfig(p=3, d=1, noise=spec, eta_v=eta, learning_rate=1.0)
        m = assemble_observer(model, cfg)
        accel = g * 0.5  # B @ eta
        x_gen = np.array([0.0, 0.0,      # x(0)
                          0.0, accel,    # x'(0)
                          accel, 0.0,    # x''(0)
                          0.0, 0.0])     # x'''(0)
        v_gen = generalized_prior(eta, 1)
        y_gen = m.lifted_c @ x_gen
        eps = prediction_error(m, np.concatenate([x_gen, v_gen]), y_gen, v_gen)
        np.testing.assert_allclose(eps, np.zeros(eps.size), atol=1e-14)

    def test_dimension_mismatch(self):
        m = assemble_observer(scalar_model(), scalar_cfg())
        with pytest.raises(ValueError, match="dimension"):
            prediction_error(m, [1.0, 2.0, 3.0], [0.0], [0.0])

    def test_stack_gives_each_rows_error_and_free_energy(self):
        # A (k, D) stack with one output per row or one shared output, and
        # one estimate against a (k, ny) stack of outputs: each row is the
        # one-estimate error and V, to rounding.
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((4, m.total_dim))
        ys = rng.standard_normal((4, m.m * (m.p + 1)))
        eta = rng.standard_normal(m.input_dim)
        for x, y, rows in [(xs, ys, zip(xs, ys)),
                           (xs, ys[0], ((x, ys[0]) for x in xs)),
                           (xs[0], ys, ((xs[0], y) for y in ys))]:
            eps = prediction_error(m, x, y, eta)
            v = free_energy(eps, m.precision)
            assert eps.shape == (4, m.total_dim + m.m * (m.p + 1))
            assert v.shape == (4,)
            for e, v_row, (x_row, y_row) in zip(eps, v, rows, strict=True):
                one = prediction_error(m, x_row, y_row, eta)
                np.testing.assert_allclose(e, one, rtol=1e-12,
                                           atol=1e-12 * np.abs(one).max())
                assert v_row == pytest.approx(
                    free_energy(one, m.precision), rel=1e-12)


class TestErrorJacobian:
    def test_scalar_block_layout(self):
        m = assemble_observer(scalar_model(), scalar_cfg())
        np.testing.assert_allclose(error_jacobian(m),
                                   [[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])

    def test_shape_contract(self):
        model, cfg = roll_setup(p=4, d=2)
        m = assemble_observer(model, cfg)
        jac = error_jacobian(m)
        rows = 1 * 5 + 4 * 3 + 2 * 5
        cols = 2 * 5 + 4 * 3
        assert jac.shape == (rows, cols)

    def test_matches_finite_differences(self):
        # The error is affine in X, so columns match to rounding.
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(m.total_dim)
        y = rng.standard_normal(m.m * (m.p + 1))
        eta = rng.standard_normal(m.input_dim)
        jac = error_jacobian(m)
        delta = 1e-6
        for i in range(m.total_dim):
            step = np.zeros(m.total_dim)
            step[i] = delta
            col = (prediction_error(m, x + step, y, eta) -
                   prediction_error(m, x, y, eta)) / delta
            np.testing.assert_allclose(col, jac[:, i], rtol=1e-6, atol=1e-9)


class TestFreeEnergy:
    def test_zero_error(self):
        assert free_energy(np.zeros(3), np.diag([2.0, 3.0, 4.0])) == 0.0

    def test_weighted_example(self):
        assert free_energy(np.ones(3), np.diag([2.0, 3.0, 4.0])) == \
            pytest.approx(-4.5)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        eps = rng.standard_normal(5)
        w = rng.standard_normal((5, 5))
        pi = w @ w.T
        assert free_energy(2.0 * eps, pi) == \
            pytest.approx(4.0 * free_energy(eps, pi))

    def test_never_positive(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 4))
        pi = w @ w.T
        for _ in range(100):
            assert free_energy(rng.standard_normal(4) * 1e-9, pi) <= 0.0

    def test_one_value_per_row(self):
        pi = np.diag([2.0, 3.0, 4.0])
        v = free_energy([[1.0, 1.0, 1.0], [0.0, 2.0, 0.0]], pi)
        np.testing.assert_array_equal(v, [-4.5, -6.0])
        assert isinstance(free_energy(np.ones(3), pi), float)


class TestAssembleObserver:
    def test_zero_rate_drift_is_shift(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg, rate=0.0)
        np.testing.assert_array_equal(m.drift, m.shift)

    def test_curvature_blocks_match_closed_form(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        d_a = m.shift_x - m.lifted_a
        top_left = m.lifted_c.T @ m.precision.output_block @ m.lifted_c + \
            d_a.T @ m.precision.state_block @ d_a
        sd = m.state_dim
        np.testing.assert_allclose(m.curvature[:sd, :sd], top_left,
                                   rtol=1e-12)
        np.testing.assert_array_equal(m.curvature, m.curvature.T)

    def test_curvature_equals_jacobian_quadratic_form(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        jac = error_jacobian(m)
        quad = jac.T @ m.precision.matrix @ jac
        scale = np.abs(m.curvature).max()
        assert np.abs(m.curvature - quad).max() <= 1e-10 * scale

    def test_unobservable_model_rejected(self):
        model = LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                         c=[[0.0, 1.0]])  # only rate measured: unobservable
        spec = NoiseSpec(sigma=0.05, proc_precision=np.eye(2),
                         meas_precision=[[1.0]], input_prior_precision=[[1.0]])
        cfg = DemConfig(p=1, d=0, noise=spec, eta_v=[0.0], learning_rate=1.0)
        with pytest.raises(ObserverDesignError, match="observable"):
            assemble_observer(model, cfg)

    def test_gradient_matches_finite_differences(self):
        model, cfg = roll_setup(p=6, d=2)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(3)
        eta = generalized_prior(cfg.eta_v, cfg.d)
        for _ in range(20):
            x = rng.standard_normal(m.total_dim)
            y = rng.standard_normal(m.m * (m.p + 1))
            grad = free_energy_gradient(m, x, y, eta)
            delta = 1e-5
            fd = np.empty_like(grad)
            for i in range(x.size):
                step = np.zeros_like(x)
                step[i] = delta
                fd[i] = (free_energy(prediction_error(m, x + step, y, eta),
                                     m.precision) -
                         free_energy(prediction_error(m, x - step, y, eta),
                                     m.precision)) / (2.0 * delta)
            scale = np.abs(grad).max()
            np.testing.assert_allclose(fd, grad, rtol=1e-6,
                                       atol=1e-6 * max(scale, 1.0))

    def test_hessian_is_negative_curvature(self):
        # The gradient is affine in X: differencing it recovers -curvature.
        model, cfg = roll_setup(p=3, d=1)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(m.total_dim)
        y = rng.standard_normal(m.m * (m.p + 1))
        eta = generalized_prior(cfg.eta_v, cfg.d)
        delta = 1e-4
        hess = np.empty((x.size, x.size))
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = delta
            hess[:, i] = (free_energy_gradient(m, x + step, y, eta) -
                          free_energy_gradient(m, x - step, y, eta)) / (2 * delta)
        np.testing.assert_allclose(-hess, m.curvature, rtol=1e-5,
                                   atol=1e-5 * np.abs(m.curvature).max())

    def test_concavity(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        eigs = np.linalg.eigvalsh(-m.curvature)
        assert eigs.max() <= 1e-10


def observer_step(m, x_full, y_gen, eta_gen, dt):
    """Reference: advance the estimate ODE by ``dt`` with the input held
    constant, one record and one step at a time."""
    u = np.concatenate([np.asarray(y_gen, dtype=float).reshape(-1),
                        -np.asarray(eta_gen, dtype=float).reshape(-1)])
    x_full = np.asarray(x_full, dtype=float).reshape(-1)
    ad, bd = zero_order_hold(m.drift, m.drive, dt)
    return ad @ x_full + bd @ u


class TestObserverStep:
    def test_stationary_point_is_fixed(self):
        model, cfg = roll_setup(p=2, d=1, rate=0.5)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(5)
        y = rng.standard_normal(m.m * (m.p + 1))
        eta = generalized_prior(cfg.eta_v, cfg.d)
        u = np.concatenate([y, -eta])
        x_star = np.linalg.solve(m.drift, -m.drive @ u)
        stepped = observer_step(m, x_star, y, eta, DT)
        np.testing.assert_allclose(stepped, x_star, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(x_star).max()))

    def test_equilibrium_is_gradient_ascent_fixed_point(self):
        # drift X* + drive u = 0 implies k * V_X(X*) + shift X* = 0.
        model, cfg = roll_setup(p=3, d=2, rate=2.0)
        m = assemble_observer(model, cfg)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(m.m * (m.p + 1))
        eta = generalized_prior(cfg.eta_v, cfg.d)
        u = np.concatenate([y, -eta])
        x_star = np.linalg.solve(m.drift, -m.drive @ u)
        residual = m.rate * free_energy_gradient(m, x_star, y, eta) + \
            m.shift @ x_star
        scale = max(1.0, np.abs(m.drive @ u).max())
        assert np.abs(residual).max() <= 1e-10 * scale

    def test_zero_rate_zero_order_is_frozen(self):
        m = assemble_observer(scalar_model(), scalar_cfg(p=0, d=0), rate=0.0)
        x = np.array([1.5, -2.5])
        stepped = observer_step(m, x, [7.0], [3.0], DT)
        np.testing.assert_allclose(stepped, x, atol=1e-15)

    def test_euler_matches_expm_to_second_order(self):
        # gentle precisions keep dt * ||drift|| small so the comparison sits
        # in the asymptotic regime
        m = assemble_observer(scalar_model(), scalar_cfg(p=1, d=0, rate=1.0))
        rng = np.random.default_rng(7)
        x = rng.standard_normal(m.total_dim)
        y = rng.standard_normal(m.m * (m.p + 1))
        u = np.concatenate([y, -generalized_prior([0.0], 0)])
        errors = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            ad, bd = zero_order_hold(m.drift, m.drive, dt)
            e = x + dt * (m.drift @ x + m.drive @ u)
            errors.append(np.linalg.norm(e - (ad @ x + bd @ u)))
        # halving dt should quarter the defect (order dt^2)
        assert errors[1] <= 0.3 * errors[0]
        assert errors[2] <= 0.3 * errors[1]
        c = errors[0] / (1e-3) ** 2
        for err, dt in zip(errors, (1e-3, 5e-4, 2.5e-4)):
            assert err <= 2.0 * c * dt ** 2


class TestRunObserver:
    def _noiseless_data(self, model, n=1204):
        t = np.arange(n) * DT
        rng = np.random.default_rng(11)
        phases = rng.uniform(0, 2 * np.pi, model.r)
        freqs = [0.3, 0.45, 0.6, 0.75][:model.r]
        v = np.stack([0.1 * np.sin(2 * np.pi * f * t + ph)
                      for f, ph in zip(freqs, phases)], axis=1)
        return simulate(model, DT, n, v, np.zeros((n, model.n)),
                        np.zeros((n, model.m)))

    def test_noiseless_known_inputs_converges(self):
        model, _ = roll_setup()
        spec = NoiseSpec(sigma=0.0166, proc_precision=1e6 * np.eye(2),
                         meas_precision=[[1e8]],
                         input_prior_precision=np.eye(4))
        cfg = DemConfig(p=6, d=2, noise=spec, eta_v=np.zeros(4),
                        learning_rate=None)
        data = self._noiseless_data(model)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data, known_inputs=True)
        skip = int(round(0.5 / DT))
        err = run.states[skip:] - data.truth_states[skip:]
        assert float(np.sum(err ** 2)) < 1e-4

    def test_free_energy_never_positive(self):
        model, cfg = roll_setup()
        data = self._noiseless_data(model, n=300)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data, known_inputs=True)
        assert np.all(run.vfe <= 0.0)

    def test_deterministic(self):
        model, cfg = roll_setup()
        data = self._noiseless_data(model, n=200)
        m = assemble_observer(model, cfg)
        a = run_observer(m, data, known_inputs=True)
        b = run_observer(m, data, known_inputs=True)
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.vfe, b.vfe)

    def test_clamped_zero_order_white_noise_bounded(self):
        model = quadrotor_roll_model(3.4e-3, 1.274e-3)
        spec = NoiseSpec(sigma=1e-6, proc_precision=np.eye(2),
                         meas_precision=[[1e4]],
                         input_prior_precision=np.eye(4))
        cfg = DemConfig(p=0, d=0, noise=spec, eta_v=np.zeros(4),
                        learning_rate=5.0)
        n = 500
        rng = np.random.default_rng(12)
        data = simulate(model, DT, n, np.zeros((n, 4)),
                        rng.standard_normal((n, 2)) * 0.1,
                        rng.standard_normal((n, 1)) * 0.01)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data, known_inputs=True)
        assert np.all(np.isfinite(run.estimates))
        assert np.abs(run.states).max() < 1e3

    def test_divergence_reports_step(self):
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        data = self._noiseless_data(model, n=100)
        # Sample 40 first enters the centred 3-sample window at step 39.
        data.measurements[40] = np.inf
        for known_inputs in (True, False):
            with np.errstate(invalid="ignore"), \
                    pytest.raises(DivergenceError, match="step") as exc:
                run_observer(m, data, known_inputs=known_inputs)
            assert exc.value.step == 39

    def _observer_case(self, case):
        """The shipped roll design ("roll"), or a scalar one ("expm")."""
        if case == "roll":
            model, cfg = roll_setup()
            return model, cfg, self._noiseless_data(model, n=200)
        model, n = scalar_model(), 200
        rng = np.random.default_rng(3)
        data = simulate(model, DT, n, np.sin(np.arange(n) * DT)[:, None],
                        0.1 * rng.standard_normal((n, 1)),
                        0.01 * rng.standard_normal((n, 1)))
        return model, scalar_cfg(p=2, d=1), data

    @pytest.mark.parametrize("case", ["roll", "expm"])
    @pytest.mark.parametrize("known_inputs", [True, False])
    def test_estimates_equal_hand_stepped_observer(self, known_inputs, case):
        model, cfg, data = self._observer_case(case)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data, known_inputs=known_inputs)
        y_gen = embed_series(data.measurements, DT, cfg.p)
        v_gen = embed_series(data.inputs, DT, cfg.d)
        eta = generalized_prior(cfg.eta_v, cfg.d)
        x = np.zeros(m.total_dim)
        stepped = []
        for t in range(data.n_steps):
            x = observer_step(m, x, y_gen[t], eta, DT)
            if known_inputs:
                x[m.state_dim:] = v_gen[t]
            stepped.append(x)
        assert _move(run.estimates, stepped) <= ESTIMATE_RTOL

    @pytest.mark.parametrize("case", ["roll", "expm"])
    @pytest.mark.parametrize("known_inputs", [True, False])
    def test_free_energy_trace_matches_per_step(self, known_inputs, case):
        model, cfg, data = self._observer_case(case)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data, known_inputs=known_inputs)
        y_gen = embed_series(data.measurements, DT, cfg.p)
        eta = generalized_prior(cfg.eta_v, cfg.d)
        expected = [free_energy(prediction_error(m, x, y, eta), m.precision)
                    for x, y in zip(run.estimates, y_gen)]
        np.testing.assert_allclose(run.vfe, expected, rtol=1e-12)


# The replay forms each step's drive up front, with known inputs steps only
# the state block, and scans long records in chunks, each summing its drive
# in one GEMM, so the estimates move from the per-step observer by rounding
# alone.
# ESTIMATE_RTOL is about 10 times the worst relative move measured over these
# tests (2.1e-13, in five runs of their hypothesis properties).
ESTIMATE_RTOL = 2e-12


def _move(got, want):
    """Largest deviation of ``got`` from ``want``, per column, relative to
    the column's largest magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.abs(want).max(axis=0)
    return float((np.abs(got - want).max(axis=0) / np.where(
        scale > 0, scale, 1.0)).max())


def roll_records(seeds, n_steps):
    """Noisy roll records, one per seed, with random inputs."""
    model, _ = roll_setup()
    datas = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 9])
        datas.append(simulate(
            model, DT, n_steps, 0.1 * rng.standard_normal((n_steps, model.r)),
            0.1 * rng.standard_normal((n_steps, model.n)),
            1e-3 * rng.standard_normal((n_steps, model.m))))
    return datas


def _solo(m, data, known_inputs):
    """``run_observer``'s estimates, or the error it diverged with."""
    try:
        return run_observer(m, data, known_inputs=known_inputs).estimates
    except DivergenceError as exc:
        return exc


class TestRunObserverBatch:
    """The batch replays a stack of records with the same bits per record
    as ``run_observer``."""

    @settings(max_examples=30, deadline=None)
    @given(orders=st.sampled_from([(0, 0), (2, 1), (6, 2)]),
           n_records=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
           known_inputs=st.booleans(), draw=st.data())
    def test_batch_equals_one_record_runs(self, orders, n_records, seed,
                                          known_inputs, draw):
        model, cfg = roll_setup(*orders)
        m = assemble_observer(model, cfg)
        n_steps = draw.draw(st.integers(orders[0] + 1, 80))
        keep = draw.draw(st.none() | st.lists(
            st.integers(0, m.total_dim - 1), min_size=1, max_size=4))
        datas = roll_records(range(seed, seed + n_records), n_steps)
        batch = run_observer_batch(m, datas, known_inputs, keep=keep)
        assert len(batch) == n_records
        for data, kept in zip(datas, batch):
            alone, = run_observer_batch(m, [data], known_inputs, keep=keep)
            assert np.array_equal(kept, alone)
            # A scanned chunk forms only the kept columns, in a product
            # whose rounding depends on how many there are.
            solo = _solo(m, data, known_inputs)
            assert _move(kept, solo if keep is None else solo[:, keep]) \
                <= ESTIMATE_RTOL

    def test_only_input_columns_kept(self):
        # With known inputs no replayed column is kept: the scan forms
        # products of width 0, and the kept column is the embedded input.
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        data, = roll_records([3], 3 * SCAN_CHUNK)
        kept, = run_observer_batch(m, [data], True, keep=[m.state_dim])
        assert np.array_equal(
            kept[:, 0], embed_series(data.inputs, data.dt, m.d)[:, 0])

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    @pytest.mark.parametrize("known_inputs", [True, False])
    def test_diverging_record_leaves_the_stack(self, value, known_inputs):
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        datas = roll_records([1, 2, 3, 4], 100)
        ys = datas[1].measurements.copy()
        ys[40] = value
        datas[1] = replace(datas[1], measurements=ys)
        with np.errstate(invalid="ignore", over="ignore"):
            batch = run_observer_batch(m, datas, known_inputs)
            solo = [_solo(m, data, known_inputs) for data in datas]
        assert isinstance(solo[1], DivergenceError)
        assert isinstance(batch[1], DivergenceError)
        assert (batch[1].step, str(batch[1])) == (solo[1].step, str(solo[1]))
        for i in (0, 2, 3):
            assert np.array_equal(batch[i], solo[i])

    @pytest.mark.parametrize("case, message", [
        ("empty", "at least one record"),
        ("mixed_dt", "one dt and length"),
        ("mixed_length", "one dt and length"),
        ("wide", "measurement dimension does not match plant output"),
        ("short", "record shorter than the embedding window"),
    ])
    def test_rejects_bad_batches(self, case, message):
        model, cfg = roll_setup(p=2, d=1)
        m = assemble_observer(model, cfg)
        a, b = roll_records([1, 2], 30)
        datas = {
            "empty": [],
            "mixed_dt": [a, replace(b, dt=2 * DT)],
            "mixed_length": [a, ExperimentData(
                dt=DT, measurements=b.measurements[:20],
                inputs=b.inputs[:20])],
            "wide": [ExperimentData(
                dt=DT, measurements=np.hstack([d.measurements] * 2),
                inputs=d.inputs) for d in (a, b)],
            "short": [ExperimentData(dt=DT, measurements=d.measurements[:2],
                                     inputs=d.inputs[:2]) for d in (a, b)],
        }[case]
        with pytest.raises(ValueError, match=message):
            run_observer_batch(m, datas)

    def test_memo_embeds_each_record_once_per_order(self, monkeypatch):
        embed_series_ = dem.embed_series
        calls = []

        def counted(series, dt, order):
            calls.append(order)
            return embed_series_(series, dt, order)

        monkeypatch.setattr(dem, "embed_series", counted)
        datas = roll_records([1, 2, 3], 50)
        memo = {}
        runs = []
        for pv in (1.0, 10.0):
            model, cfg = roll_setup(p=4, d=2, pv=pv)
            runs.append(run_observer_batch(assemble_observer(model, cfg),
                                           datas, True, embeddings=memo))
        # The states at order 4 and the inputs at order 2, once per record.
        assert sorted(calls) == [2, 2, 2, 4, 4, 4]
        monkeypatch.setattr(dem, "embed_series", embed_series_)
        model, cfg = roll_setup(p=4, d=2, pv=10.0)
        fresh = run_observer_batch(assemble_observer(model, cfg), datas, True)
        for kept, again in zip(runs[1], fresh):
            assert np.array_equal(kept, again)


class TestEstimatePrecision:
    def test_blocks_match_curvature(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        state_prec, input_prec = estimate_precision(m)
        sd = m.state_dim
        np.testing.assert_array_equal(state_prec, m.curvature[:sd, :sd])
        np.testing.assert_array_equal(input_prec, m.curvature[sd:, sd:])

    def test_input_precision_dominates_prior(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        _, input_prec = estimate_precision(m)
        gap = input_prec - m.precision.input_block
        assert np.linalg.eigvalsh(gap).min() >= -1e-10

    def test_prior_scaling_is_exact(self):
        model, cfg1 = roll_setup(pv=1.0)
        _, cfg10 = roll_setup(pv=10.0)
        m1 = assemble_observer(model, cfg1)
        m10 = assemble_observer(model, cfg10)
        _, p1 = estimate_precision(m1)
        _, p10 = estimate_precision(m10)
        prior_block = generalized_precision(cfg1.noise, cfg1.p,
                                            cfg1.d).input_block
        np.testing.assert_allclose(p10 - p1, 9.0 * prior_block, rtol=1e-12,
                                   atol=1e-12)

    def test_independent_of_data(self):
        model, cfg = roll_setup()
        a = assemble_observer(model, cfg)
        b = assemble_observer(model, cfg)
        np.testing.assert_array_equal(estimate_precision(a)[0],
                                      estimate_precision(b)[0])
        np.testing.assert_array_equal(estimate_precision(a)[1],
                                      estimate_precision(b)[1])


class TestFreeEnergyLandscape:
    def _converged_setup(self):
        base = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        model = LtiModel(a=base.a, b=base.b[:, :1], c=base.c)
        n = 700
        t = np.arange(n) * DT
        v = (0.2 * np.sin(2 * np.pi * 0.4 * t + 0.7))[:, None]
        data = simulate(model, DT, n, v, np.zeros((n, 2)), np.zeros((n, 2)))
        spec = NoiseSpec(sigma=0.0166, proc_precision=1e6 * np.eye(2),
                         meas_precision=1e8 * np.eye(2),
                         input_prior_precision=[[1.0]])
        cfg = DemConfig(p=6, d=2, noise=spec, eta_v=[0.0], learning_rate=None)
        m = assemble_observer(model, cfg)
        run = run_observer(m, data)
        y_gen = embed_series(data.measurements, DT, cfg.p)
        eta_gen = generalized_prior(cfg.eta_v, cfg.d)
        return m, run, y_gen, eta_gen

    def test_estimate_tops_random_probes(self):
        m, run, y_gen, eta_gen = self._converged_setup()
        rng = np.random.default_rng(13)
        dirs = rng.standard_normal((100, m.total_dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        step = 400
        result = free_energy_landscape(m, run.estimates[step], y_gen[step],
                                       eta_gen, dirs, [0.1])
        assert result.passed
        assert result.max_probe <= result.v_at_estimate

    def test_zero_magnitude_probes_equal_estimate(self):
        m, run, y_gen, eta_gen = self._converged_setup()
        dirs = np.eye(m.total_dim)[:5]
        result = free_energy_landscape(m, run.estimates[300], y_gen[300],
                                       eta_gen, dirs, [0.0])
        np.testing.assert_array_equal(result.probe_values,
                                      np.full((5, 1), result.v_at_estimate))

    def test_probe_values_run_direction_by_magnitude(self):
        # Three directions by four magnitudes: entry (i, j) is the probe
        # x_hat + mags[j] * dirs[i], so a transposed grid fails.
        m, run, y_gen, eta_gen = self._converged_setup()
        rng = np.random.default_rng(15)
        dirs = rng.standard_normal((3, m.total_dim))
        mags = np.array([-0.2, 0.05, 0.1, 0.3])
        x_hat, y = run.estimates[300], y_gen[300]
        result = free_energy_landscape(m, x_hat, y, eta_gen, dirs, mags)
        expected = [[free_energy(prediction_error(m, x_hat + mag * d, y,
                                                  eta_gen), m.precision)
                     for mag in mags] for d in dirs]
        np.testing.assert_allclose(result.probe_values, expected, rtol=1e-12)
        assert result.v_at_estimate == pytest.approx(free_energy(
            prediction_error(m, x_hat, y, eta_gen), m.precision), rel=1e-12)

    def test_concave_parabola_along_any_direction(self):
        m, run, y_gen, eta_gen = self._converged_setup()
        rng = np.random.default_rng(14)
        direction = rng.standard_normal(m.total_dim)
        direction /= np.linalg.norm(direction)
        mags = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        result = free_energy_landscape(m, run.estimates[300], y_gen[300],
                                       eta_gen, direction[None, :], mags)
        vals = result.probe_values[0]
        second = vals[:-3] - 3 * vals[1:-2] + 3 * vals[2:-1] - vals[3:]
        # second differences of a parabola are constant and negative
        curv = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(curv < 0)
        np.testing.assert_allclose(second, 0.0,
                                   atol=1e-8 * np.abs(vals).max())


class TestDemConfig:
    def test_rejects_d_above_p(self):
        spec = NoiseSpec(sigma=0.1, proc_precision=[[1.0]],
                         meas_precision=[[1.0]], input_prior_precision=[[1.0]])
        with pytest.raises(ValueError, match="p >= d"):
            DemConfig(p=1, d=2, noise=spec, eta_v=[0.0])

    def test_default_learning_rate_stabilizes(self):
        model, cfg = roll_setup()
        m = assemble_observer(model, cfg)
        rate = default_learning_rate(m.curvature, m.shift)
        assert rate > 0
        # drift must be stable and the informative directions must decay at
        # least at the target rate
        curv_eigs = np.linalg.eigvalsh(m.curvature)
        informative = curv_eigs[curv_eigs > 1e-9 * curv_eigs[-1]]
        assert rate * informative[0] >= 0.5 * (1.0 - 1e-9)
        drift_eigs = np.linalg.eigvals(m.shift - rate * m.curvature)
        assert drift_eigs.real.max() <= 1e-9 * max(1.0, rate * curv_eigs[-1])


class TestMatrixExponential:
    @pytest.mark.parametrize("config, pv, bound", [
        ("benchmark_state_windy", None, 2e-12),
        ("prior_sweep", 0.01, 2e-12),
        ("prior_sweep", 1.0, 2e-12),
        ("prior_sweep", 1e6, 2e-12),
        # The defaulted learning rate gives a 1-norm of 8.4e5, 46 times the
        # windy block's, and 18 squarings; scipy's expm is off by 2.3e-11.
        ("landscape", None, 5e-11)])
    def test_shipped_holds_match_40_digits(self, config, pv, bound):
        # The zero-order hold of a shipped observer, the exponential of the
        # block [[F, G], [0, 0]] = [[drift, drive], [0, 0]] * dt: within
        # ``bound`` of the largest entry of the 40-digit [[e^F, F^-1 (e^F -
        # I) G], [0, I]] (F is invertible; the same floats as mpmath's
        # exponential of the whole block, in a quarter of the time).
        cfg = load_config_file(
            Path(__file__).resolve().parent.parent / "configs"
            / f"{config}.json")
        model = harness.build_model(cfg)
        spec = harness.observer_noise_spec(cfg, model, pv)
        m = assemble_observer(model, harness._dem_config(cfg, spec, model))
        n = m.total_dim
        f, g = m.drift * cfg.run.dt, m.drive * cfg.run.dt
        exact = np.eye(n + g.shape[1])
        with mpmath.workdps(40):
            f_mp = mpmath.matrix(f.tolist())
            e_mp = mpmath.expm(f_mp)
            exact[:n, :n] = np.array(e_mp.tolist(), dtype=float)
            exact[:n, n:] = np.array((mpmath.inverse(f_mp) * (
                (e_mp - mpmath.eye(n)) * mpmath.matrix(g.tolist()))).tolist(),
                dtype=float)
        block = np.zeros_like(exact)
        block[:n, :n], block[:n, n:] = f, g
        assert np.abs(expm(block) - exact).max() <= \
            bound * np.abs(exact).max()
