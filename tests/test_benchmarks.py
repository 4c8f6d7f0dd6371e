import numpy as np
import pytest
from scipy.linalg import block_diag, cho_factor, cho_solve

from demest.benchmarks import (ArModel, build_augmented_system,
                               default_noise_matrices, default_uio_poles,
                               design_uio, fit_ar, kalman_filter, smikf, sse,
                               state_augmentation_filter, uio)
from demest.errors import DivergenceError, ObserverDesignError
from demest.noise import NoiseSpec
from demest.systems import (ExperimentData, LtiModel, discretize,
                            quadrotor_roll_model, simulate)


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

    def test_static_system_recursive_averaging(self):
        c_value = 2.5
        n = 1000
        data = ExperimentData(dt=1.0,
                              measurements=np.full((n, 1), c_value),
                              inputs=np.zeros((n, 1)))
        result = kalman_filter(np.eye(1), np.zeros((1, 1)), np.eye(1),
                               np.zeros((1, 1)), np.eye(1), data,
                               x0=np.zeros(1), p0=np.eye(1) * 1e12)
        assert result.means[-1, 0] == pytest.approx(c_value, rel=1e-9)
        # with an uninformative prior the covariance decays like 1/k
        assert result.covariances[-1, 0, 0] == pytest.approx(1.0 / n,
                                                             rel=1e-2)

    def test_zero_gain_with_zero_prior_covariance(self):
        n = 50
        rng = np.random.default_rng(0)
        data = ExperimentData(dt=1.0,
                              measurements=rng.standard_normal((n, 1)),
                              inputs=np.zeros((n, 1)))
        result = kalman_filter(np.eye(1) * 1.1, np.zeros((1, 1)), np.eye(1),
                               np.zeros((1, 1)), np.eye(1), data,
                               x0=np.array([3.0]), p0=np.zeros((1, 1)))
        expected = 3.0 * 1.1 ** np.arange(n)
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
        result = uio(model, data)
        skip = int(round(0.5 / dt))
        assert sse(result.inputs[:, 0], v[:, 0], skip=skip) < 1e-3
        assert sse(result.states[:, 1], data.truth_states[:, 1],
                   skip=skip) < 1e-6

    def test_constant_input_steady_state(self):
        model = self._single_input_model()
        dt, n = 0.0083, 1204
        v = np.full((n, 1), 0.3)
        data = simulate(model, dt, n, v, np.zeros((n, 2)), np.zeros((n, 2)))
        result = uio(model, data)
        np.testing.assert_allclose(result.inputs[-100:, 0], 0.3, atol=1e-6)

    def test_rank_deficient_b_warns(self):
        model = quadrotor_roll_model(3.4e-3, 1.274e-3, full_state_output=True)
        dt, n = 0.01, 100
        data = simulate(model, dt, n, np.zeros((n, 4)), np.zeros((n, 2)),
                        np.zeros((n, 2)))
        with pytest.warns(RuntimeWarning, match="rank"):
            uio(model, data)

    def test_default_poles_negative_distinct(self):
        model = self._single_input_model()
        poles = default_uio_poles(model)
        assert len(poles) == 2
        assert all(p < 0 for p in poles)
        assert len(set(poles)) == 2


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
    """The shared filter loop reproduces the wrapper-based recursion bit for
    bit, so the benchmark tables do not move."""

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
        assert np.array_equal(result.means, means)
        assert np.array_equal(result.covariances, covs)

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
        assert np.array_equal(result.means, means[:, :2])
        assert np.array_equal(result.covariances, covs[:, :2, :2])

    def test_smikf(self):
        model, data, ad, bd, q, r = self._roll_setup()
        coeffs = np.array([0.6, -0.4])
        result = smikf(model, coeffs, data, q, r)
        means, covs = reference_recursion(ad, bd, model.c, q, r, data,
                                          np.zeros(2), np.eye(2),
                                          ar=np.diag(coeffs))
        assert np.array_equal(result.means, means)
        assert np.array_equal(result.covariances, covs)


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
        eye = np.eye(1)
        with pytest.raises(DivergenceError, match="not invertible") as info:
            kalman_filter(eye, 0.0, eye, 0.0 * eye, 0.0 * eye, self._data(),
                          p0=-eye)
        assert info.value.step == 0
