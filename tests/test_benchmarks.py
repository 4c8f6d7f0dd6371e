import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import (block_diag, cho_factor, cho_solve,
                          solve_discrete_lyapunov, solve_toeplitz)
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.signal import place_poles

from demest import noise
from demest.benchmarks import (ArModel, KalmanResult, _filter, _levinson,
                               _scalar_gain, build_augmented_system,
                               default_noise_matrices, default_uio_poles,
                               design_uio, fit_ar, kalman_filter,
                               kalman_filter_batch, smikf, smikf_batch, sse,
                               state_augmentation_filter,
                               state_augmentation_filter_batch,
                               stationary_covariance, uio_batch)
from demest.errors import DivergenceError, ObserverDesignError
from demest.noise import NoiseSpec, generate_colored_noise
from demest.systems import (ExperimentData, LtiModel, _one, discretize,
                            quadrotor_roll_model, simulate, zero_order_hold)


def random_walk_setup(seed, a1=0.0, n=1000, q_var=0.04, r_var=0.25):
    """Scalar plant x_{k+1} = x_k + q_k with AR(1) discrete process noise."""
    rng = np.random.default_rng(seed)
    innovation_var = q_var * (1.0 - a1 ** 2)
    q = np.empty(n)
    q[0] = rng.normal(0.0, np.sqrt(q_var))
    eps = rng.normal(0.0, np.sqrt(innovation_var), n)
    for k in range(1, n):
        q[k] = a1 * q[k - 1] + eps[k]
    x = np.empty(n)
    x[0] = 0.0
    for k in range(n - 1):
        x[k + 1] = x[k] + q[k]
    y = x + rng.normal(0.0, np.sqrt(r_var), n)
    data = ExperimentData(dt=1.0, measurements=y[:, None],
                          inputs=np.zeros((n, 1)), truth_states=x[:, None])
    return data, q


SCALAR_MODEL = LtiModel(a=[[0.0]], b=[[0.0]], c=[[1.0]])


class TestKalmanFilter:
    def test_tracks_noiseless_consistent_data(self):
        model = LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                         c=[[1.0, 0.0]])
        dt, n = 0.01, 800
        v = 0.3 * np.ones((n, 1))
        data = simulate(model, dt, n, v, np.zeros((n, 2)), np.zeros((n, 1)))
        ad, bd = discretize(model, dt)
        result = kalman_filter(ad, bd, model.c, 1e-12 * np.eye(2),
                               [[1e-12]], data)
        skip = 200
        err = result.means[skip:] - data.truth_states[skip:]
        assert float(np.sum(err ** 2)) < 1e-6

    def test_unit_gain_returns_the_measurements(self):
        # C = I and R = 1e-300 I: the gain rounds to exactly I, so the
        # means' transition (I - G C) Ad is exactly 0 from step 1, where
        # the gain freezes, and each mean is its measurement.
        model, datas, _, _ = _roll_records([1], 200, full_state=True)
        ad, bd = discretize(model, datas[0].dt)
        result = kalman_filter(ad, bd, model.c, np.eye(2),
                               1e-300 * np.eye(2), datas[0])
        assert result.freeze == 1
        assert _near(result.means, datas[0].measurements)

    def test_static_system_recursive_averaging(self):
        c_value = 2.5
        n = 1000
        data = ExperimentData(dt=1.0,
                              measurements=np.full((n, 1), c_value),
                              inputs=np.zeros((n, 1)))
        result, = _filter(np.eye(1), np.zeros((1, 1)), np.eye(1),
                          np.zeros((1, 1)), np.eye(1), data.measurements[None],
                          data.inputs[None], p0=np.eye(1) * 1e12)
        assert result.means[-1, 0] == pytest.approx(c_value, rel=1e-9)
        # with an uninformative prior the covariance decays like 1/k
        assert result.covariances[-1, 0, 0] == pytest.approx(1.0 / n,
                                                             rel=1e-2)

    def test_zero_gain_with_zero_prior_covariance(self):
        # P0 = 0 and Q = 0 keep the gain at zero, so the measurements are
        # ignored and the means follow x_k = 1.1 x_{k-1} + 0.3 from x_0 = 0:
        # x_k = 3 (1.1^k - 1).
        n = 50
        rng = np.random.default_rng(0)
        data = ExperimentData(dt=1.0,
                              measurements=rng.standard_normal((n, 1)),
                              inputs=np.ones((n, 1)))
        result, = _filter(np.eye(1) * 1.1, np.full((1, 1), 0.3), np.eye(1),
                          np.zeros((1, 1)), np.eye(1), data.measurements[None],
                          data.inputs[None], p0=np.zeros((1, 1)))
        expected = 3.0 * (1.1 ** np.arange(n) - 1.0)
        np.testing.assert_allclose(result.means[:, 0], expected, rtol=1e-12)


class TestFitAr:
    def test_white_noise_coefficient_near_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(20000)
        model = fit_ar(x, 1)
        assert abs(model.coefficients[0]) < 3.0 / np.sqrt(x.size)

    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(2)
        n = 100000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for k in range(1, n):
            x[k] = 0.8 * x[k - 1] + eps[k]
        model = fit_ar(x, 1)
        assert model.coefficients[0] == pytest.approx(0.8, abs=0.01)
        assert model.innovation_variance == pytest.approx(1.0, rel=0.05)

    def test_overfit_order_gives_small_extra_coefficient(self):
        rng = np.random.default_rng(3)
        n = 100000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for k in range(1, n):
            x[k] = 0.8 * x[k - 1] + eps[k]
        model = fit_ar(x, 2)
        assert model.coefficients[0] == pytest.approx(0.8, abs=0.02)
        assert abs(model.coefficients[1]) < 0.02

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            fit_ar(np.ones(100), 1)

    def test_nonstationary_model_warns(self):
        with pytest.warns(RuntimeWarning, match="stationarity"):
            ArModel(order=1, coefficients=[1.01], innovation_variance=1.0)


def _companion(coefficients):
    order = len(coefficients)
    comp = np.zeros((order, order))
    comp[0] = coefficients
    comp[1:, :-1] = np.eye(order - 1)
    return comp


class TestScipyStandIns:
    """The numpy stand-ins of the run path against the scipy calls they
    replace."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), order=st.integers(1, 6),
           length=st.integers(60, 400), width=st.integers(1, 40))
    def test_levinson_is_solve_toeplitz_bit_for_bit(self, seed, order,
                                                    length, width):
        # Yule-Walker systems of noise smoothed over ``width`` samples.
        x = np.convolve(np.random.default_rng(seed).standard_normal(length),
                        np.ones(width), "valid")
        x = x - x.mean()
        acov = np.array([noise.sum_of_products(x[:x.size - h], x[h:])
                         / x.size for h in range(order + 1)])
        expected = solve_toeplitz((acov[:order], acov[:order]), acov[1:])
        assert np.array_equal(_levinson(acov.tolist(), order), expected)

    def test_scalar_gain_is_potrf_potrs_bit_for_bit(self):
        rng = np.random.default_rng(11)
        pivots = [0.0, -0.0, -1.0, -np.inf, np.inf, np.nan, 1e-320, 1e-300,
                  1e300, *10.0 ** rng.uniform(-12, 12, 2000)]
        s = np.array(pivots)[:, None, None]
        cp = rng.standard_normal((len(pivots), 1, 3)) * 10.0 ** \
            rng.uniform(-8, 8, (len(pivots), 1, 1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gains, singular = _scalar_gain(cp, s)
        for i in range(len(pivots)):
            chol, info = dpotrf(s[i], lower=0, clean=0)
            assert singular[i] == (info != 0), pivots[i]
            if info == 0:
                expected = dpotrs(chol, cp[i], lower=0)[0].T
                assert np.array_equal(gains[i], expected, equal_nan=True), \
                    pivots[i]

    @pytest.mark.parametrize("shapes", [
        [(2, 2)], [(2, 2), (3, 3)], [(1, 3), (2, 1), (4, 4)],
        [(12, 12), (4, 4), (14, 14)]])
    def test_block_diag_is_scipys(self, shapes):
        rng = np.random.default_rng(len(shapes))
        blocks = [rng.standard_normal(shape) for shape in shapes]
        ours = noise.block_diag(*blocks)
        assert ours.dtype == np.float64
        assert np.array_equal(ours, block_diag(*blocks))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(1, 12),
           radius=st.floats(0.0, 0.99))
    def test_lyapunov_matches_scipy(self, seed, n, radius):
        # Random stable A: within 1e-9 of the largest entry of scipy's
        # (observed 7.9e-12 over 20,000 draws, half of them at radius 0.99).
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a *= radius / max(np.abs(np.linalg.eigvals(a)).max(), 1e-300)
        g = rng.standard_normal((n, n))
        q = g @ g.T
        expected = solve_discrete_lyapunov(a, q)
        np.testing.assert_allclose(stationary_covariance(a, q), expected,
                                   rtol=0, atol=1e-9 * np.abs(expected).max())

    @staticmethod
    def _ar_chain(seed, sigma, order):
        """The companion matrix and unit innovation covariance of the AR
        fit of ``order`` to colored noise of smoothness ``sigma``, as the
        state-augmentation filter builds them."""
        series = generate_colored_noise(seed, sigma, np.eye(1), 1204,
                                        0.0083)[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            comp = _companion(fit_ar(series, order).coefficients)
        q = np.zeros((order, order))
        q[0, 0] = 1.0
        return comp, q

    def test_ar_chain_variance_matches_scipy(self):
        # 240 AR(1-6) fits (spectral radius 0.92-0.9997): within 2e-10 of
        # the largest entry of scipy's, observed 5.1e-11. That is scipy's
        # own error: there a 50-digit solve puts scipy's at 5.1e-11 and
        # this one at 8.5e-13 (next test).
        for seed in range(10):
            for sigma in (0.05, 0.1, 0.2, 0.4):
                for order in range(1, 7):
                    comp, q = self._ar_chain(seed, sigma, order)
                    expected = solve_discrete_lyapunov(comp, q)
                    np.testing.assert_allclose(
                        stationary_covariance(comp, q), expected, rtol=0,
                        atol=2e-10 * np.abs(expected).max(),
                        err_msg=f"{seed}, {sigma}, {order}")

    @pytest.mark.parametrize("seed, sigma, order", [
        (0, 0.05, 6), (44, 0.17881455119982365, 4)])
    def test_ar_chain_variance_matches_50_digits(self, seed, sigma, order):
        # Fits where scipy is off by 5.1e-11 and 9.7e-11 of the largest
        # entry (spectral radius 0.958 and 0.997): within 2e-11, observed
        # 8.5e-13 and 9.4e-12.
        comp, q = self._ar_chain(seed, sigma, order)
        # vec(X) solves (I - A kron A) vec(X) = vec(Q), formed in 50 digits.
        n = order
        with mpmath.workdps(50):
            a = mpmath.matrix(comp.tolist())
            system = mpmath.eye(n * n)
            for i, j, k, l in np.ndindex(n, n, n, n):
                system[i * n + j, k * n + l] -= a[i, k] * a[j, l]
            exact = np.array(mpmath.lu_solve(system, mpmath.matrix(
                q.reshape(-1).tolist())).tolist(), dtype=float)
        exact = exact.reshape(n, n)
        np.testing.assert_allclose(stationary_covariance(comp, q), exact,
                                   rtol=0, atol=2e-11 * np.abs(exact).max())

    @pytest.mark.parametrize("coefficients", [[1.0], [1.01], [0.5, 0.5],
                                              [-1.2, 0.1]])
    def test_non_stationary_chain_is_a_value_error(self, coefficients):
        # Spectral radius 1 or more: no stationary covariance exists, and
        # the filter on that chain fails at step 0.
        with pytest.raises(ValueError, match="not stationary"):
            stationary_covariance(_companion(coefficients),
                                  np.eye(len(coefficients)))
        with pytest.warns(RuntimeWarning, match="stationarity"):
            ars = [ArModel(len(coefficients), coefficients, 1.0)]
        data, _ = random_walk_setup(3, n=50)
        with pytest.raises(DivergenceError, match="not stationary") as exc:
            state_augmentation_filter(SCALAR_MODEL, ars, data,
                                      np.eye(1), np.eye(1))
        assert exc.value.step == 0


class TestStateAugmentation:
    def test_zero_coefficients_reduce_to_kalman_bitwise(self):
        data, _ = random_walk_setup(4)
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        ars = [ArModel(order=3, coefficients=np.zeros(3),
                       innovation_variance=0.04)]
        sa = state_augmentation_filter(SCALAR_MODEL, ars, data, q, r)
        ad, bd = discretize(SCALAR_MODEL, data.dt)
        kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
        assert np.array_equal(sa.means, kf.means)
        assert np.array_equal(sa.covariances, kf.covariances)

    def test_tiny_coefficients_match_kalman_structurally(self):
        # exercises the full augmented path rather than the delegation
        data, _ = random_walk_setup(5)
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        ars = [ArModel(order=2, coefficients=[1e-14, 0.0],
                       innovation_variance=0.04)]
        sa = state_augmentation_filter(SCALAR_MODEL, ars, data, q, r)
        ad, bd = discretize(SCALAR_MODEL, data.dt)
        kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
        np.testing.assert_allclose(sa.means, kf.means, rtol=1e-8, atol=1e-10)

    def test_companion_form_block(self):
        ad = np.eye(2) * 0.9
        bd = np.zeros((2, 1))
        c = np.array([[1.0, 0.0]])
        q = np.diag([0.5, 0.8])
        ars = [ArModel(order=3, coefficients=[0.5, 0.2, 0.1],
                       innovation_variance=1.0),
               ArModel(order=3, coefficients=[0.4, 0.0, 0.0],
                       innovation_variance=1.0)]
        a_aug, b_aug, c_aug, q_aug, _ = build_augmented_system(
            ad, bd, c, q, ars)
        assert a_aug.shape == (8, 8)
        np.testing.assert_array_equal(a_aug[:2, :2], ad)
        np.testing.assert_array_equal(a_aug[:2, 2:4], np.eye(2))
        # per-channel companion structure in the noise block
        noise_block = a_aug[2:, 2:]
        np.testing.assert_array_equal(noise_block[0, [0, 2, 4]],
                                      [0.5, 0.2, 0.1])
        np.testing.assert_array_equal(noise_block[1, [1, 3, 5]],
                                      [0.4, 0.0, 0.0])
        np.testing.assert_array_equal(noise_block[2:, :4], np.eye(4))
        np.testing.assert_array_equal(c_aug[:, :2], c)
        np.testing.assert_array_equal(c_aug[:, 2:], np.zeros((1, 6)))

    def test_beats_kalman_on_ar1_noise(self):
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        ad, bd = discretize(SCALAR_MODEL, 1.0)
        gains = []
        for seed in range(20):
            data, _ = random_walk_setup(seed, a1=0.8)
            ars = [ArModel(order=1, coefficients=[0.8],
                           innovation_variance=0.04 * (1 - 0.64))]
            sa = state_augmentation_filter(SCALAR_MODEL, ars, data, q, r)
            kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
            truth = data.truth_states[:, 0]
            gains.append(sse(sa.means[:, 0], truth) - sse(kf.means[:, 0],
                                                          truth))
        assert np.median(gains) < 0.0

    def test_dimension_guard(self):
        ars = [ArModel(order=70, coefficients=np.zeros(70) + 1e-3,
                       innovation_variance=1.0) for _ in range(2)]
        ad = np.eye(2)
        with pytest.raises(ValueError, match="exceeds"):
            build_augmented_system(ad, np.zeros((2, 1)),
                                   np.array([[1.0, 0.0]]), np.eye(2), ars)


class TestSmikf:
    def test_zero_coefficient_reduces_to_kalman_bitwise(self):
        data, _ = random_walk_setup(6)
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        result = smikf(SCALAR_MODEL, [0.0], data, q, r)
        ad, bd = discretize(SCALAR_MODEL, data.dt)
        kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
        assert np.array_equal(result.means, kf.means)
        assert np.array_equal(result.covariances, kf.covariances)

    def test_tiny_coefficient_matches_kalman_structurally(self):
        data, _ = random_walk_setup(7)
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        result = smikf(SCALAR_MODEL, [1e-15], data, q, r)
        ad, bd = discretize(SCALAR_MODEL, data.dt)
        kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
        np.testing.assert_allclose(result.means, kf.means, rtol=1e-10)

    def test_beats_kalman_on_ar1_noise(self):
        q = np.array([[0.04]])
        r = np.array([[0.25]])
        ad, bd = discretize(SCALAR_MODEL, 1.0)
        gains = []
        for seed in range(20):
            data, _ = random_walk_setup(seed + 100, a1=0.8)
            sm = smikf(SCALAR_MODEL, [0.8], data, q, r)
            kf = kalman_filter(ad, bd, SCALAR_MODEL.c, q, r, data)
            truth = data.truth_states[:, 0]
            gains.append(sse(sm.means[:, 0], truth) - sse(kf.means[:, 0],
                                                          truth))
        assert np.median(gains) < 0.0

    def test_near_unit_coefficient_stays_finite(self):
        data, _ = random_walk_setup(8, a1=0.99, n=1204)
        result = smikf(SCALAR_MODEL, [0.99], data, np.array([[0.04]]),
                       np.array([[0.25]]))
        assert np.all(np.isfinite(result.means))
        assert np.all(np.isfinite(result.covariances))

    def test_rejects_nonstationary_coefficient(self):
        data, _ = random_walk_setup(9)
        with pytest.raises(ValueError, match="a1"):
            smikf(SCALAR_MODEL, [1.0], data, np.eye(1), np.eye(1))


class TestUio:
    def _single_input_model(self):
        base = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        return LtiModel(a=base.a, b=base.b[:, :1], c=base.c)

    def test_existence_condition_error(self):
        model = LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                         c=[[1.0, 0.0]])  # C B = 0 but B != 0
        with pytest.raises(ObserverDesignError, match="rank"):
            design_uio(model)

    def test_noiseless_input_reconstruction(self):
        model = self._single_input_model()
        dt, n = 0.0083, 1204
        t = np.arange(n) * dt
        v = (0.15 * np.sin(2 * np.pi * 0.2 * t + 0.4))[:, None]
        data = simulate(model, dt, n, v, np.zeros((n, 2)), np.zeros((n, 2)))
        result = _one(uio_batch(model, [data]))
        skip = int(round(0.5 / dt))
        assert sse(result.inputs[:, 0], v[:, 0], skip=skip) < 1e-3
        assert sse(result.states[:, 1], data.truth_states[:, 1],
                   skip=skip) < 1e-6

    def test_constant_input_steady_state(self):
        model = self._single_input_model()
        dt, n = 0.0083, 1204
        v = np.full((n, 1), 0.3)
        data = simulate(model, dt, n, v, np.zeros((n, 2)), np.zeros((n, 2)))
        result = _one(uio_batch(model, [data]))
        np.testing.assert_allclose(result.inputs[-100:, 0], 0.3, atol=1e-6)

    def test_rank_deficient_b_warns(self):
        model = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        dt, n = 0.01, 100
        data = simulate(model, dt, n, np.zeros((n, 4)), np.zeros((n, 2)),
                        np.zeros((n, 2)))
        with pytest.warns(RuntimeWarning, match="rank"):
            _one(uio_batch(model, [data]))

    @pytest.mark.parametrize("poles", [None, (-20.0, -30.0), (-30.0, -20.0)])
    @pytest.mark.parametrize("n_inputs", [1, 4])
    def test_gain_is_place_poles_on_full_state_plants(self, n_inputs, poles):
        base = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        model = LtiModel(a=base.a, b=base.b[:, :n_inputs], c=base.c)
        _assert_place_poles_design(model, poles)

    @pytest.mark.parametrize("poles", [None, (-7.0,), (46000.0,)])
    def test_gain_is_place_poles_on_the_scalar_plant(self, poles):
        _assert_place_poles_design(LtiModel(a=[[0.0]], b=[[1.0]], c=[[1.0]]),
                                   poles)

    def test_non_square_output_matrix_rejected(self):
        # rank(C B) == rank(B) holds, but one output cannot place two poles.
        roll = self._single_input_model()
        for model in (LtiModel(a=roll.a, b=roll.b, c=[[0.0, 1.0]]),
                      LtiModel(a=[[0.0, 1.0], [-2.0, -3.0]], b=[[1.0], [1.0]],
                               c=[[1.0, 1.0]])):
            with pytest.raises(ObserverDesignError,
                               match="square, invertible C"):
                design_uio(model)

    def test_default_poles_negative_distinct(self):
        model = self._single_input_model()
        poles = default_uio_poles(model)
        assert len(poles) == 2
        assert all(p < 0 for p in poles)
        assert len(set(poles)) == 2


def _assert_place_poles_design(model, poles):
    """``design_uio``'s F and K have the bits of the design whose gain is
    ``scipy.signal.place_poles``' (Kautsky, Nichols & Van Dooren, 1985)."""
    design = design_uio(model, poles=poles)
    c, h = model.c, design.h
    ta = design.t @ model.a
    k1 = place_poles(ta.T, c.T, design.poles).gain_matrix.T
    f = ta - k1 @ c
    assert np.array_equal(design.f, f)
    assert np.array_equal(design.k, k1 + f @ h)


# The replays step x_k = M_k x_{k-1} + w_k, with M_k and w_k formed up
# front, and scan long periodic stretches in chunks, summing each chunk's
# drive in one GEMM, so their means and estimates move from the per-step
# references by rounding alone, and the filters' means by their frozen
# gains. MEAN_RTOL is about 3 times the worst relative move measured over
# these tests (3.1e-13, in five runs of their hypothesis properties).
MEAN_RTOL = 1e-12

# A filter keeps its freeze step's covariance from then on, where the full
# recursion still moves in its last digits. COV_RTOL bounds the distance
# relative to the full recursion's largest entry at each step: about 5
# times the worst over these tests (2.05e-12, a full-state record).
COV_RTOL = 1e-11


def _move(got, want):
    """Largest deviation of ``got`` from ``want``, per column, relative to
    the column's largest magnitude."""
    got, want = (np.asarray(a).reshape(len(a), -1) for a in (got, want))
    scale = np.abs(want).max(axis=0)
    return float((np.abs(got - want).max(axis=0) / np.where(
        scale > 0, scale, 1.0)).max())


def _near(got, want):
    return _move(got, want) <= MEAN_RTOL


def _cov_move(got, want):
    """Largest deviation of the (T, k, k) covariances ``got`` from
    ``want``, relative to the largest entry of ``want`` at each step."""
    return float((np.abs(got - want).max(axis=(1, 2))
                  / np.abs(want).max(axis=(1, 2))).max())


def reference_uio(model, data, poles=None):
    """The UIO written out one step of one record at a time: ``(states,
    inputs)``; raises the ``DivergenceError`` of the first step whose state
    or input estimate is not finite."""
    design = design_uio(model, poles=poles)
    ys, dt = data.measurements, data.dt
    fd, kd = zero_order_hold(design.f, design.k, dt)
    b_pinv = np.linalg.pinv(model.b)
    z = -design.h @ ys[0]  # xhat starts at zero
    states = np.empty((ys.shape[0], model.n))
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
    return states, inputs


def _uio_records(seeds, n, n_inputs=1):
    """Full-state roll plant with ``n_inputs`` PWM channels, and one noisy
    record per seed."""
    base = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
    model = LtiModel(a=base.a, b=base.b[:, :n_inputs], c=base.c)
    datas = []
    for seed in seeds:
        rng = np.random.default_rng([seed, 5])
        datas.append(simulate(
            model, 0.0083, n, 0.1 * rng.standard_normal((n, n_inputs)),
            rng.standard_normal((n, 2)) * [0.005, 2.0],
            1e-3 * rng.standard_normal((n, 2))))
    return model, datas


class TestUioBatch:
    """``uio_batch`` replays a stack of records with, for every record, the
    bits of a batch of one and of the per-step loop ``reference_uio``, or
    their divergence step and message."""

    @pytest.mark.filterwarnings("ignore:B is column-rank deficient")
    @pytest.mark.parametrize("n_inputs", [1, 4])
    @pytest.mark.parametrize("n_records", [1, 2, 3, 4, 5])
    def test_batch_equals_one_record_and_reference(self, n_records,
                                                   n_inputs):
        model, datas = _uio_records(range(n_records), 1204, n_inputs)
        batch = uio_batch(model, datas)
        assert len(batch) == n_records
        for data, res in zip(datas, batch):
            solo = _one(uio_batch(model, [data]))
            states, inputs = reference_uio(model, data)
            assert np.array_equal(res.states, solo.states)
            assert np.array_equal(res.inputs, solo.inputs)
            assert _near(res.states, states) and _near(res.inputs, inputs)

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e308])
    def test_diverging_record_fails_alone(self, value):
        model, datas = _uio_records([1, 2, 3, 4], 100)
        ys = datas[1].measurements.copy()
        ys[40] = value
        datas[1] = replace(datas[1], measurements=ys)
        with np.errstate(invalid="ignore", over="ignore"):
            batch = uio_batch(model, datas)
            with pytest.raises(DivergenceError) as solo:
                _one(uio_batch(model, [datas[1]]))
            with pytest.raises(DivergenceError) as reference:
                reference_uio(model, datas[1])
        # Sample 40 first enters the output derivative at step 39.
        assert isinstance(batch[1], DivergenceError)
        for err in (batch[1], solo.value, reference.value):
            assert (err.step, str(err)) == (
                39, "estimator diverged at step 39: non-finite observer "
                "state")
        for i in (0, 2, 3):
            alone = _one(uio_batch(model, [datas[i]]))
            assert np.array_equal(batch[i].states, alone.states)
            assert np.array_equal(batch[i].inputs, alone.inputs)

    def test_overflowing_observer_state_fails_at_its_step(self):
        # An unstable pole: z multiplies by exp(460) ~ 1e200 per step and
        # overflows at step 2, while every measurement stays finite. The
        # replay resets the record's z there, so the state estimate formed
        # afterwards would be finite; the failure is the replay's.
        model = LtiModel(a=[[0.0]], b=[[1.0]], c=[[1.0]])
        poles = (46000.0,)
        datas = [ExperimentData(dt=0.01, measurements=np.full((6, 1), y0),
                                inputs=np.zeros((6, 1))) for y0 in (1.0, 0.0)]
        with np.errstate(invalid="ignore", over="ignore"):
            batch = uio_batch(model, datas, poles=poles)
            with pytest.raises(DivergenceError) as reference:
                reference_uio(model, datas[0], poles=poles)
        assert reference.value.step == 2
        assert isinstance(batch[0], DivergenceError)
        assert (batch[0].step, str(batch[0])) == (
            2, str(reference.value))
        states, inputs = reference_uio(model, datas[1], poles=poles)
        assert _near(batch[1].states, states)
        assert _near(batch[1].inputs, inputs)


class TestSse:
    def test_identical_series(self):
        assert sse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_offset(self):
        est = np.arange(10.0) + 1.0
        ref = np.arange(10.0)
        assert sse(est, ref) == pytest.approx(10.0)

    def test_small_example(self):
        assert sse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(10)
        est = rng.standard_normal(50)
        ref = rng.standard_normal(50)
        perm = rng.permutation(50)
        assert sse(est, ref) == pytest.approx(sse(est[perm], ref[perm]))

    def test_skip_prefix(self):
        est = np.array([100.0, 1.0])
        ref = np.array([0.0, 0.0])
        assert sse(est, ref, skip=1) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            sse([1.0], [1.0, 2.0])


class TestDefaultNoiseMatrices:
    def test_convention(self):
        spec = NoiseSpec(sigma=0.05, proc_precision=np.diag([4.0, 0.25]),
                         meas_precision=[[2.0]],
                         input_prior_precision=np.eye(4))
        q, r = default_noise_matrices(spec, 0.01)
        np.testing.assert_allclose(q, np.diag([0.25, 4.0]) * 0.01)
        np.testing.assert_allclose(r, [[0.5]])


def reference_recursion(ad, bd, c, q, r, data, x0, p0, ar=None):
    """The Kalman/SMIKF recursion written out with cho_factor/cho_solve."""
    n = ad.shape[0]
    ys, vs = data.measurements, data.inputs
    x, p = x0.copy(), p0.copy()
    cross = np.zeros((n, n))
    eye = np.eye(n)
    means = np.empty((ys.shape[0], n))
    covs = np.empty((ys.shape[0], n, n))
    for k in range(ys.shape[0]):
        s = c @ p @ c.T + r
        gain = cho_solve(cho_factor(s), c @ p).T
        x = x + gain @ (ys[k] - c @ x)
        ikc = eye - gain @ c
        p = ikc @ p @ ikc.T + gain @ r @ gain.T
        psi = ikc @ cross
        means[k] = x
        covs[k] = p
        x = ad @ x + bd @ vs[k]
        if ar is None:
            p = ad @ p @ ad.T + q
        else:
            ad_psi = ad @ psi
            p = ad @ p @ ad.T + q + ad_psi + ad_psi.T
            cross = (ad_psi + q) @ ar.T
    return means, covs


class TestSharedRecursionBitwise:
    """The shared filter loop reproduces the covariances of the
    wrapper-based recursion bit for bit up to its freeze step, and keeps
    that step's covariance after it; see ``_follows``."""

    def _roll_setup(self, n=400):
        model = quadrotor_roll_model(3.4e-3, 1.274e-3)
        dt = 0.0083
        rng = np.random.default_rng(21)
        v = 0.1 * rng.standard_normal((n, 4))
        data = simulate(model, dt, n, v,
                        rng.standard_normal((n, 2)) * [0.005, 2.0],
                        1e-3 * rng.standard_normal((n, 1)))
        ad, bd = discretize(model, dt)
        q = np.diag([0.005 ** 2, 2.0 ** 2]) * dt
        r = np.array([[1e-6]])
        return model, data, ad, bd, q, r

    def test_kalman_filter(self):
        model, data, ad, bd, q, r = self._roll_setup()
        result = kalman_filter(ad, bd, model.c, q, r, data)
        means, covs = reference_recursion(ad, bd, model.c, q, r, data,
                                          np.zeros(2), np.eye(2))
        assert result.freeze is not None
        assert _follows(result, KalmanResult(means, covs))

    def test_state_augmentation_ar6(self):
        model, data, ad, bd, q, r = self._roll_setup()
        ar_models = [ArModel(6, [0.5, 0.1, 0.05, 0.02, 0.01, 0.005], 1.0),
                     ArModel(6, [0.3, -0.1, 0.05, 0.0, 0.01, 0.0], 1.0)]
        result = state_augmentation_filter(model, ar_models, data, q, r)
        a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
            ad, bd, model.c, q, ar_models)
        means, covs = reference_recursion(
            a_aug, b_aug, c_aug, q_aug, r, data, np.zeros(a_aug.shape[0]),
            block_diag(np.eye(2), noise_cov))
        assert result.freeze is not None
        assert _follows(result, KalmanResult(means[:, :2], covs[:, :2, :2]))

    def test_smikf(self):
        model, data, ad, bd, q, r = self._roll_setup()
        coeffs = np.array([0.6, -0.4])
        result = smikf(model, coeffs, data, q, r)
        means, covs = reference_recursion(ad, bd, model.c, q, r, data,
                                          np.zeros(2), np.eye(2),
                                          ar=np.diag(coeffs))
        assert result.freeze is not None
        assert _follows(result, KalmanResult(means, covs))


class TestFilterDivergence:
    """An overflowing covariance is a DivergenceError at the step where the
    non-finite prediction is first used, not a wrapper ValueError."""

    def _data(self, n=5):
        return ExperimentData(dt=1.0, measurements=np.ones((n, 1)),
                              inputs=np.zeros((n, 1)))

    def test_kalman_filter(self):
        eye = np.eye(1)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as info:
            kalman_filter(1e200 * eye, 0.0, eye, eye, eye, self._data())
        assert info.value.step == 1

    def test_smikf(self):
        # exp(500) squared overflows the first predicted covariance.
        model = LtiModel(a=[[500.0]], b=[[0.0]], c=[[1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as info:
            smikf(model, [0.5], self._data(), np.eye(1), np.eye(1))
        assert info.value.step == 1

    def test_not_positive_definite_innovation(self):
        eye, data = np.eye(1), self._data()
        with pytest.raises(DivergenceError, match="not invertible") as info:
            _one(_filter(eye, 0.0, eye, 0.0 * eye, 0.0 * eye,
                         data.measurements[None], data.inputs[None], p0=-eye))
        assert info.value.step == 0


def _roll_records(seeds, n, full_state=False):
    """Simulated roll records, one per seed, and the filters' (Q, R)."""
    model = quadrotor_roll_model(3.4e-3, 1.274e-3,
                                 full_state_output=full_state)
    dt = 0.0083
    datas = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        datas.append(simulate(
            model, dt, n, 0.1 * rng.standard_normal((n, 4)),
            rng.standard_normal((n, 2)) * [0.005, 2.0],
            1e-3 * rng.standard_normal((n, model.m))))
    q = np.diag([0.005 ** 2, 2.0 ** 2]) * dt
    return model, datas, q, 1e-6 * np.eye(model.m)


def _ar_models(seed, white=False):
    """Per-channel AR(6) models well inside the stationarity region."""
    rng = np.random.default_rng([seed, 7])
    scale = 0.0 if white else 1.0
    return [ArModel(6, scale * rng.uniform(-0.3, 0.3, 6)
                    * [1.0, 0.5, 0.3, 0.2, 0.1, 0.05], 1.0) for _ in range(2)]


def _same(batch, solo):
    """A batch cell equals the one-record call: the same bits, or the same
    divergence step and message."""
    if isinstance(solo, DivergenceError):
        return isinstance(batch, DivergenceError) and \
            (batch.step, str(batch)) == (solo.step, str(solo))
    return not isinstance(batch, DivergenceError) and \
        np.array_equal(batch.means, solo.means) and \
        np.array_equal(batch.covariances, solo.covariances)


def _close(result, reference, means=True):
    """A replay's outcome against a per-step reference: the same divergence
    step and message, or the same covariance bits and, with ``means``,
    means within MEAN_RTOL."""
    if isinstance(reference, DivergenceError):
        return isinstance(result, DivergenceError) and \
            (result.step, str(result)) == (reference.step, str(reference))
    return not isinstance(result, DivergenceError) and \
        np.array_equal(result.covariances, reference.covariances) and \
        (not means or _near(result.means, reference.means))


def _follows(result, reference, cov_rtol=COV_RTOL, mean_rtol=MEAN_RTOL):
    """A filter's outcome against the full recursion's: the same divergence
    step and message, or the full recursion's covariance bits up to its
    freeze step, that step's covariance after it, within ``cov_rtol`` of the
    full recursion's, and means within ``mean_rtol``."""
    if isinstance(result, DivergenceError) or \
            isinstance(reference, DivergenceError):
        return _close(result, reference)
    covs, freeze = reference.covariances, result.freeze
    end = len(covs) if freeze is None else freeze + 1
    return np.array_equal(result.covariances[:end], covs[:end]) and \
        np.all(result.covariances[end:] == covs[end - 1]) and \
        _cov_move(result.covariances, covs) <= cov_rtol and \
        _move(result.means, reference.means) <= mean_rtol


def _solo(fn, *args):
    try:
        return fn(*args)
    except DivergenceError as exc:
        return exc


class TestStackedFilters:
    """The batch entries replay a stack of records through the same core as
    the one-record calls, with the same bits per record."""

    @settings(max_examples=30, deadline=None)
    @given(n_records=st.integers(1, 5), n_steps=st.integers(3, 60),
           seed=st.integers(0, 2 ** 16), poison=st.data())
    def test_batch_equals_one_record_calls(self, n_records, n_steps, seed,
                                           poison):
        seeds = [seed + i for i in range(n_records)]
        model, datas, q, r = _roll_records(seeds, n_steps)
        # One record may get an inf measurement, and one may have white AR
        # models (the state-augmentation filter's plain-Kalman shortcut).
        bad = poison.draw(st.none() | st.integers(0, n_records - 1))
        if bad is not None:
            step = poison.draw(st.integers(0, n_steps - 1))
            ys = datas[bad].measurements.copy()
            ys[step, 0] = np.inf
            datas[bad] = ExperimentData(dt=datas[bad].dt, measurements=ys,
                                        inputs=datas[bad].inputs)
        white = poison.draw(st.none() | st.integers(0, n_records - 1))
        ars = [_ar_models(s, white=i == white) for i, s in enumerate(seeds)]
        coeffs = [np.random.default_rng([s, 8]).uniform(-0.9, 0.9, 2)
                  for s in seeds]
        ad, bd = discretize(model, datas[0].dt)
        with np.errstate(invalid="ignore", over="ignore"):
            cases = [
                (kalman_filter_batch(ad, bd, model.c, q, r, datas),
                 [_solo(kalman_filter, ad, bd, model.c, q, r, d)
                  for d in datas]),
                (state_augmentation_filter_batch(model, ars, datas, q, r),
                 [_solo(state_augmentation_filter, model, a, d, q, r)
                  for a, d in zip(ars, datas)]),
                (smikf_batch(model, coeffs, datas, q, r),
                 [_solo(smikf, model, c, d, q, r)
                  for c, d in zip(coeffs, datas)]),
            ]
        for batch, solo in cases:
            assert len(batch) == n_records
            for i, (b, o) in enumerate(zip(batch, solo)):
                assert _same(b, o), i
                if bad is not None:
                    assert isinstance(o, DivergenceError) == (i == bad)
                    if i == bad:
                        assert o.step == step

    def test_full_state_batch_matches_reference(self):
        # m = 2 (C = I): the innovation solve and the gain products have a
        # two-term inner dimension.
        model, datas, q, r = _roll_records([1, 2, 3], 200, full_state=True)
        ad, bd = discretize(model, datas[0].dt)
        coeffs = [np.array([0.6, -0.4]), np.array([0.2, 0.5]),
                  np.array([-0.7, 0.1])]
        kf = kalman_filter_batch(ad, bd, model.c, q, r, datas)
        sm = smikf_batch(model, coeffs, datas, q, r)
        ars = [_ar_models(s) for s in (1, 2, 3)]
        sa = state_augmentation_filter_batch(model, ars, datas, q, r)
        for i, data in enumerate(datas):
            reference = reference_recursion(ad, bd, model.c, q, r, data,
                                            np.zeros(2), np.eye(2))
            assert _follows(kf[i], KalmanResult(*reference))
            reference = reference_recursion(ad, bd, model.c, q, r, data,
                                            np.zeros(2), np.eye(2),
                                            ar=np.diag(coeffs[i]))
            assert _follows(sm[i], KalmanResult(*reference))
            a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
                ad, bd, model.c, q, ars[i])
            means, covs = reference_recursion(
                a_aug, b_aug, c_aug, q_aug, r, data, np.zeros(a_aug.shape[0]),
                block_diag(np.eye(2), noise_cov))
            assert _follows(sa[i], KalmanResult(means[:, :2],
                                                covs[:, :2, :2]))
            assert None not in {res.freeze for res in (kf[i], sm[i], sa[i])}

    def test_full_state_batch_equals_one_record_calls(self):
        # m = 2: a gain product is a sum of two terms, whose rounding depends
        # on how the steps' products are grouped. Per-record designs freeze
        # at different steps, and each record keeps its own grouping.
        model, datas, q, r = _roll_records([1, 2, 3], 200, full_state=True)
        coeffs = [np.array([0.6, -0.4]), np.array([0.2, 0.5]),
                  np.array([-0.7, 0.1])]
        ars = [_ar_models(s) for s in (1, 2, 3)]
        sm = smikf_batch(model, coeffs, datas, q, r)
        sa = state_augmentation_filter_batch(model, ars, datas, q, r)
        assert len({res.freeze for res in sm}) > 1
        assert len({res.freeze for res in sa}) > 1
        for i, data in enumerate(datas):
            assert _same(sm[i], smikf(model, coeffs[i], data, q, r)), i
            assert _same(sa[i], state_augmentation_filter(
                model, ars[i], data, q, r)), i

    def test_singular_design_fails_only_its_record(self):
        # Per-record priors stack the covariance recursion; the middle
        # record's prior makes its innovation covariance negative at step 0.
        model, datas, q, r = _roll_records([1, 2, 3], 20)
        ad, bd = discretize(model, datas[0].dt)
        p0 = np.stack([np.eye(2), -np.eye(2), 2.0 * np.eye(2)])
        out = _filter(
            ad, bd, model.c, q, r, np.stack([d.measurements for d in datas]),
            np.stack([d.inputs for d in datas]), p0=p0)
        failed = {i: o for i, o in enumerate(out)
                  if isinstance(o, DivergenceError)}
        solo = [_filter(ad, bd, model.c, q, r, d.measurements[None],
                        d.inputs[None], p0=p)[0] for d, p in zip(datas, p0)]
        assert list(failed) == [1]
        assert isinstance(solo[1], DivergenceError)
        assert (failed[1].step, str(failed[1])) == (solo[1].step, str(solo[1]))
        assert failed[1].step == 0 and "not invertible" in str(failed[1])
        for i in (0, 2):
            assert np.array_equal(out[i].means, solo[i].means)
            assert np.array_equal(out[i].covariances, solo[i].covariances)

    def test_records_must_share_dt_and_length(self):
        model, datas, q, r = _roll_records([1, 2], 30)
        ad, bd = discretize(model, datas[0].dt)
        short = ExperimentData(dt=datas[1].dt,
                               measurements=datas[1].measurements[:20],
                               inputs=datas[1].inputs[:20])
        with pytest.raises(ValueError, match="one dt and length"):
            kalman_filter_batch(ad, bd, model.c, q, r, [datas[0], short])


def _reference_outcome(ad, bd, c, q, r, data, ar=None):
    """``reference_recursion`` from x0 = 0 and P0 = I, as the outcome a
    replay reports: a ``KalmanResult``, or the ``DivergenceError`` of the
    first step whose mean is not finite."""
    n = ad.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        means, covs = reference_recursion(ad, bd, c, q, r, data, np.zeros(n),
                                          np.eye(n), ar=ar)
    bad = np.flatnonzero(~np.isfinite(means).all(axis=1))
    if bad.size:
        return DivergenceError(int(bad[0]), "non-finite filter state")
    return KalmanResult(means, covs)


def _poisoned(data, step):
    ys = data.measurements.copy()
    ys[step, 0] = np.inf
    return ExperimentData(dt=data.dt, measurements=ys, inputs=data.inputs)


class TestPeriodicReplay:
    """Once its design's gain has frozen, a record replays only the means
    over that one gain, a period of one step: every record still follows
    the reference recursion (``_follows``), or gets its divergence step and
    message, and the same bits alone or in any batch."""

    def _replays(self, model, datas, q, r, coeffs):
        """``(batch, solo, reference)`` outcomes of KF and SMIKF."""
        ad, bd = discretize(model, datas[0].dt)
        with np.errstate(invalid="ignore", over="ignore"):
            return [
                (kalman_filter_batch(ad, bd, model.c, q, r, datas),
                 [_solo(kalman_filter, ad, bd, model.c, q, r, d)
                  for d in datas],
                 [_reference_outcome(ad, bd, model.c, q, r, d)
                  for d in datas]),
                (smikf_batch(model, coeffs, datas, q, r),
                 [_solo(smikf, model, c, d, q, r)
                  for c, d in zip(coeffs, datas)],
                 [_reference_outcome(ad, bd, model.c, q, r, d,
                                     ar=np.diag(c))
                  for c, d in zip(coeffs, datas)]),
            ]

    def test_divergence_before_and_after_the_switch(self):
        seeds = [1, 2, 3, 4]
        model, datas, q, r = _roll_records(seeds, 400)
        coeffs = [np.random.default_rng([s, 8]).uniform(-0.9, 0.9, 2)
                  for s in seeds]
        (kf, _, _), (sm, sm_solo, _) = self._replays(model, datas, q, r,
                                                     coeffs)
        # KF shares one design; each SMIKF record freezes at its own step,
        # alone as in the stack.
        assert len({res.freeze for res in kf}) == 1
        assert len({res.freeze for res in sm}) > 1
        assert [res.freeze for res in sm] == \
            [res.freeze for res in sm_solo]
        # Record 1 diverges before either filter freezes, record 2 after.
        early, late = 10, 200
        assert all(early < res.freeze < late for res in kf + sm)
        datas[1] = _poisoned(datas[1], early)
        datas[2] = _poisoned(datas[2], late)
        for batch, solo, reference in self._replays(model, datas, q, r,
                                                    coeffs):
            for i in range(len(seeds)):
                assert _same(batch[i], solo[i]), i
                assert _follows(solo[i], reference[i]), i
            assert (batch[1].step, batch[2].step) == (early, late)
            assert None not in (batch[0].freeze, batch[3].freeze)

    @settings(max_examples=10, deadline=None)
    @given(n_records=st.integers(1, 4), n_steps=st.integers(300, 400),
           seed=st.integers(0, 2 ** 16), poison=st.data())
    def test_long_records_match_reference(self, n_records, n_steps, seed,
                                          poison):
        seeds = [seed + i for i in range(n_records)]
        model, datas, q, r = _roll_records(seeds, n_steps)
        coeffs = [np.random.default_rng([s, 8]).uniform(-0.9, 0.9, 2)
                  for s in seeds]
        # One record may diverge early, before any design has frozen (none
        # does before step 16), and another late, after every design that
        # freezes has.
        early = poison.draw(st.none() | st.integers(0, n_records - 1))
        late = poison.draw(st.none() | st.integers(0, n_records - 1))
        if early is not None:
            datas[early] = _poisoned(datas[early],
                                     poison.draw(st.integers(0, 15)))
        if late is not None and late != early:
            datas[late] = _poisoned(datas[late], poison.draw(
                st.integers(290, n_steps - 1)))
        for batch, solo, reference in self._replays(model, datas, q, r,
                                                    coeffs):
            assert len(batch) == n_records
            for i in range(n_records):
                assert _same(batch[i], solo[i]), i
                assert _follows(solo[i], reference[i]), i


def _reference_failure(ad, bd, c, q, r, data, p0, ar=None, keep=None):
    """``reference_recursion``'s outcome on ``data`` from x0 = 0: the
    ``KalmanResult`` of the first ``keep`` states, or a ``DivergenceError``
    at the first step whose Cholesky factor fails (not invertible) or that
    leaves a non-finite mean or covariance. The factors skip scipy's
    finiteness check, as LAPACK's ``potrf``/``potrs`` do in the filters: an
    infinite innovation variance gives a NaN gain, and a NaN one is not
    positive definite. Each prefix of the record is replayed anew, so the
    failing step is the length of the longest prefix that replays."""
    n = ad.shape[0]
    with mock.patch(f"{__name__}.cho_factor",
                    partial(cho_factor, check_finite=False)), \
            mock.patch(f"{__name__}.cho_solve",
                       partial(cho_solve, check_finite=False)), \
            np.errstate(invalid="ignore", over="ignore"):
        for k in range(data.n_steps):
            prefix = ExperimentData(dt=data.dt,
                                    measurements=data.measurements[:k + 1],
                                    inputs=data.inputs[:k + 1])
            try:
                means, covs = reference_recursion(ad, bd, c, q, r, prefix,
                                                  np.zeros(n), p0, ar=ar)
            except np.linalg.LinAlgError:
                return DivergenceError(k, "innovation covariance not "
                                          "invertible")
            if not (np.isfinite(means[k]).all() and
                    np.isfinite(covs[k]).all()):
                return DivergenceError(k, "non-finite filter state")
    return KalmanResult(means[:, :keep], covs[:, :keep, :keep])


class TestFailureRule:
    """A record fails at the earlier of its design's first bad step and its
    own first non-finite mean, with the step and message of its one-record
    call and of ``reference_recursion``; the other records run on, with
    their one-record bits."""

    @staticmethod
    def _designs(family, model, q, seeds, faults, growths):
        """Per-record ``(A, B, C, Q, P0, ar)`` of a family, each with its
        fault: a negated prior (singular at step 0), a prior whose
        cross-covariance overflows the first posterior while its gain stays
        finite, or a transition scaled by ``10 ** growth``, whose
        covariance grows until a factor fails or it overflows (if the
        record is long enough)."""
        ad, bd = discretize(model, 0.0083)
        designs = []
        for seed, fault, growth in zip(seeds, faults, growths):
            a, b, c, qq, p0, ar = ad, bd, model.c, q, np.eye(2), None
            if family == "augmented":
                a, b, c, qq, noise = build_augmented_system(
                    ad, bd, model.c, q, _ar_models(seed))
                p0 = block_diag(p0, noise)
            elif family == "smikf":
                ar = np.diag(np.random.default_rng([seed, 8]).uniform(
                    -0.9, 0.9, 2))
            if fault == "singular":
                p0 = -p0
            elif fault == "cross":
                p0 = p0.copy()
                p0[0, 1] = p0[1, 0] = 1e200
            elif fault == "growth":
                a = a * 10.0 ** growth
            designs.append((a, b, c, qq, p0, ar))
        return designs

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["kalman", "smikf", "augmented"]),
           n_steps=st.integers(4, 16), seed=st.integers(0, 2 ** 16),
           faults=st.lists(st.sampled_from(
               [None, "singular", "cross", "growth"]), min_size=4,
               max_size=4),
           growths=st.lists(st.integers(20, 100), min_size=4, max_size=4),
           poison=st.lists(st.none() | st.tuples(st.integers(-2, 2),
                                                 st.integers(0, 15)),
                           min_size=4, max_size=4))
    # On its noisy record, the growth record's mean under the 1e43
    # transition is rounding noise: the reference's hits exactly 0.0 at
    # step 2 and ends finite, while the one in M_k form overflows at step 9.
    @example(family="kalman", n_steps=10, seed=0,
             faults=[None, "growth", None, None], growths=[20, 43, 20, 20],
             poison=[None] * 4)
    def test_per_record_stacks(self, family, n_steps, seed, faults, growths,
                               poison):
        seeds = [seed + i for i in range(4)]
        model, datas, q, r = _roll_records(seeds, n_steps)
        designs = self._designs(family, model, q, seeds, faults, growths)
        # A grown transition makes a mean a difference of huge terms, whose
        # rounding depends on the summation order, so a growth record
        # replays zero inputs and measurements: its mean stays exactly zero,
        # and it fails through its covariance, which is compared bit for
        # bit, or through the inf measurement below.
        for i, fault in enumerate(faults):
            if fault == "growth":
                datas[i] = ExperimentData(
                    dt=datas[i].dt,
                    measurements=np.zeros_like(datas[i].measurements),
                    inputs=np.zeros_like(datas[i].inputs))
        # An inf measurement before, at or after the step at which the
        # record's design alone would fail (anywhere if it would not).
        for i, (design, hit) in enumerate(zip(designs, poison)):
            if hit is not None:
                clean = _reference_failure(*design[:4], r, datas[i],
                                           *design[4:])
                offset, anywhere = hit
                step = (clean.step + offset if isinstance(
                    clean, DivergenceError) else anywhere % n_steps)
                datas[i] = _poisoned(datas[i], min(max(step, 0), n_steps - 1))
        a, b, c, qq, p0, ar = designs[0]
        a, qq, p0 = (np.stack([d[j] for d in designs]) for j in (0, 3, 4))
        ar = None if ar is None else np.stack([d[5] for d in designs])
        ys = np.stack([d.measurements for d in datas])
        vs = np.stack([d.inputs for d in datas])
        with np.errstate(invalid="ignore", over="ignore"):
            batch = _filter(a, b, c, qq, r, ys, vs, p0=p0, ar=ar, keep=2)
            alone = [_filter(d[0], d[1], d[2], d[3], r, ys[i:i + 1],
                             vs[i:i + 1], p0=d[4], ar=d[5], keep=2)[0]
                     for i, d in enumerate(designs)]
        for i, design in enumerate(designs):
            reference = _reference_failure(*design[:4], r, datas[i],
                                           *design[4:], keep=2)
            assert _same(batch[i], alone[i]), (i, batch[i], alone[i])
            assert _close(alone[i], reference), (i, alone[i], reference)

    def test_failures_after_other_designs_froze(self):
        # SMIKF designs of 300 steps: records 0 and 2 freeze at step 18.
        # Record 1's unobservable second state grows tenfold a step, on zero
        # data, until its covariance overflows at step 155, long after they
        # froze; record 3's negative Q makes its innovation variance
        # negative at step 1.
        model, datas, q, r = _roll_records([1, 2, 3, 4], 300)
        ad, bd = discretize(model, datas[0].dt)
        datas[1] = ExperimentData(
            dt=datas[1].dt, measurements=np.zeros_like(datas[1].measurements),
            inputs=np.zeros_like(datas[1].inputs))
        a = np.stack([ad, np.diag([1.0, 10.0]), ad, ad])
        qq = np.stack([q, q, q, -10.0 * np.eye(2)])
        ar = np.diag([0.5, 0.3])
        ys = np.stack([d.measurements for d in datas])
        vs = np.stack([d.inputs for d in datas])
        with np.errstate(invalid="ignore", over="ignore"):
            batch = _filter(a, bd, model.c, qq, r, ys, vs, ar=ar)
            alone = [_filter(a[i], bd, model.c, qq[i], r, ys[i:i + 1],
                             vs[i:i + 1], ar=ar)[0] for i in range(4)]
        assert [batch[i].freeze for i in (0, 2)] == [18, 18]
        assert [str(batch[i]) for i in (1, 3)] == [
            "estimator diverged at step 155: non-finite filter state",
            "estimator diverged at step 1: innovation covariance not "
            "invertible"]
        for i in range(4):
            assert _same(batch[i], alone[i]), (i, batch[i], alone[i])
            if i in (1, 3):
                assert _close(batch[i], _reference_failure(
                    a[i], bd, model.c, qq[i], r, datas[i], np.eye(2),
                    ar=ar)), i
            else:
                assert batch[i].freeze == alone[i].freeze, i

    def test_singular_shared_design_fails_every_record(self):
        # A negative Q makes the shared design's predicted innovation
        # variance negative at step 1; record 1's own inf measurement comes
        # at that step too, and record 2's at step 0, before it.
        model, datas, q, r = _roll_records([1, 2, 3], 10)
        ad, bd = discretize(model, datas[0].dt)
        datas[1] = _poisoned(datas[1], 1)
        datas[2] = _poisoned(datas[2], 0)
        with np.errstate(invalid="ignore", over="ignore"):
            batch = kalman_filter_batch(ad, bd, model.c, -np.eye(2), r,
                                        datas)
        for i, data in enumerate(datas):
            reference = _reference_failure(ad, bd, model.c, -np.eye(2), r,
                                           data, np.eye(2))
            assert _close(batch[i], reference), i
        assert [str(e) for e in batch] == [
            "estimator diverged at step 1: innovation covariance not "
            "invertible"] * 2 + [
            "estimator diverged at step 0: non-finite filter state"]


def _batch_entry(entry, model, datas, n_designs):
    """Call a ``*_batch`` entry on ``datas`` with ``n_designs`` per-record
    designs (the Kalman filter shares one)."""
    ad, bd = discretize(model, 0.0083)
    q, r = 1e-4 * np.eye(2), 1e-6 * np.eye(1)
    if entry == "kalman":
        return kalman_filter_batch(ad, bd, model.c, q, r, datas)
    if entry == "state_augmentation":
        return state_augmentation_filter_batch(
            model, [_ar_models(s) for s in range(n_designs)], datas, q, r)
    if entry == "uio":
        return uio_batch(model, datas)
    return smikf_batch(model, [[0.5, 0.5]] * n_designs, datas, q, r)


class TestBatchArguments:
    @pytest.mark.parametrize("entry", ["kalman", "state_augmentation",
                                       "smikf", "uio"])
    def test_empty_batch(self, entry):
        model = quadrotor_roll_model(3.4e-3, 1.274e-3)
        with pytest.raises(ValueError, match="at least one record"):
            _batch_entry(entry, model, [], 0)

    @pytest.mark.parametrize("entry", ["kalman", "state_augmentation",
                                       "smikf", "uio"])
    @pytest.mark.parametrize("mix", ["dt", "length"])
    def test_records_of_one_dt_and_length(self, entry, mix):
        model, datas, _, _ = _roll_records([1, 2], 30)
        last = datas[1]
        datas[1] = replace(last, dt=2 * last.dt) if mix == "dt" else \
            ExperimentData(dt=last.dt, measurements=last.measurements[:20],
                           inputs=last.inputs[:20])
        with pytest.raises(ValueError, match="one dt and length"):
            _batch_entry(entry, model, datas, 2)

    @pytest.mark.parametrize("entry", ["state_augmentation", "smikf"])
    def test_one_design_per_record(self, entry):
        model, datas, _, _ = _roll_records([1, 2], 20)
        assert len(_batch_entry(entry, model, datas, 2)) == 2
        for n_designs in (1, 3):
            with pytest.raises(ValueError, match="designs for 2 records"):
                _batch_entry(entry, model, datas, n_designs)


def _colored_ar_models(seed, smoothness):
    """Per-channel AR(6) fits to Gaussian-kernel colored noise of the given
    smoothness (in sample periods), as the shoot-out fits them."""
    dt = 0.0083
    w = generate_colored_noise(seed, smoothness * dt, np.eye(2), 2000, dt)
    return [fit_ar(w[:, i], 6) for i in range(2)]


class TestConvergedReplay:
    """SA-AR6's records freeze their gains at their own steps and replay
    only the means from then on: a record gets the same bits alone or in any
    batch, the full recursion's bits up to its freeze step, and then that
    step's covariance, near the full recursion's (``_follows``)."""

    def _setup(self, n_steps=300):
        # At smoothness 5 the three AR fits freeze at three different steps
        # (197, 102 and 168); record 3 shares record 0's design, so the
        # stack still runs the full recursion after record 1 has frozen.
        model, datas, q, r = _roll_records([1, 2, 3, 4], n_steps)
        ars = [_colored_ar_models(s, 5) for s in (1, 2, 3)]
        return model, datas, q, r, ars + ars[:1]

    @staticmethod
    def _replays(model, datas, q, r, ars):
        with np.errstate(invalid="ignore", over="ignore"):
            return (state_augmentation_filter_batch(model, ars, datas, q, r),
                    [_solo(state_augmentation_filter, model, a, d, q, r)
                     for a, d in zip(ars, datas)])

    def test_batch_equals_solo_across_the_freeze(self):
        model, datas, q, r, ars = self._setup()
        batch, solo = self._replays(model, datas, q, r, ars)
        freeze = [res.freeze for res in solo]
        assert [res.freeze for res in batch] == freeze
        assert len(set(freeze)) == 3 and max(freeze) + 20 < len(
            datas[0].measurements)
        for b, o in zip(batch, solo):
            assert _same(b, o)
        # inf measurements: record 0 before any freeze, the first record to
        # freeze after its freeze but while the stack still runs the full
        # recursion for record 3, and the remaining one after the stack has
        # switched to the means.
        first = int(np.argmin(freeze))
        other = ({1, 2} - {first}).pop()
        poison = {0: min(freeze) // 2,
                  first: (freeze[first] + freeze[3]) // 2,
                  other: max(freeze) + 20}
        assert freeze[first] < poison[first] < freeze[3]
        for i, step in poison.items():
            datas[i] = _poisoned(datas[i], step)
        batch, solo = self._replays(model, datas, q, r, ars)
        for i, (b, o) in enumerate(zip(batch, solo)):
            assert _same(b, o), i
            if i in poison:
                assert o.step == poison[i]
        assert batch[3].freeze == freeze[3]

    def test_means_stay_near_the_full_recursion(self):
        # These designs converge slowly: the full recursion's covariance
        # leaves the frozen one by up to 5.2e-11 of its largest entry, and
        # the means by up to 3.4e-12 (2000 steps); over smoothness 3-45 the
        # worst covariance distance measured was 2.4e-10.
        model, datas, q, r, ars = self._setup(2000)
        batch, _ = self._replays(model, datas, q, r, ars)
        ad, bd = discretize(model, datas[0].dt)
        for res, data, ar_models in zip(batch, datas, ars):
            a_aug, b_aug, c_aug, q_aug, noise_cov = build_augmented_system(
                ad, bd, model.c, q, ar_models)
            means, covs = reference_recursion(
                a_aug, b_aug, c_aug, q_aug, r, data, np.zeros(a_aug.shape[0]),
                block_diag(np.eye(2), noise_cov))
            assert res.freeze is not None
            assert _follows(res, KalmanResult(means[:, :2], covs[:, :2, :2]),
                            cov_rtol=1e-9, mean_rtol=1e-10)
