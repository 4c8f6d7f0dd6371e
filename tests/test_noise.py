import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from demest.noise import (GaussianFit, NoiseSpec, autocorrelation,
                          gaussian_fit, gaussian_kernel,
                          gaussian_kernel_density, generalized_noise_covariance,
                          generalized_precision, generate_colored_noise,
                          kernel_autocorrelation, temporal_precision)


def eq_smatrix_inverse_reference(sigma: float) -> np.ndarray:
    """Inverse of the printed 3x3 derivative-covariance matrix
    [[1, 0, -1/2s^2], [0, 1/2s^2, 0], [-1/2s^2, 0, 3/4s^4]], computed at
    50-digit precision so the float64 comparison tolerance is meaningful."""
    with mpmath.workdps(50):
        s2 = mpmath.mpf(sigma) ** 2
        m = mpmath.matrix([
            [1, 0, -1 / (2 * s2)],
            [0, 1 / (2 * s2), 0],
            [-1 / (2 * s2), 0, 3 / (4 * s2 ** 2)],
        ])
        inv = m ** -1
        return np.array([[float(inv[i, j]) for j in range(3)]
                         for i in range(3)])


class TestGaussianKernel:
    def test_peak_value_before_normalization(self):
        sigma = 0.03
        assert gaussian_kernel_density(0.0, sigma) == pytest.approx(
            1.0 / (math.sqrt(2.0 * math.pi) * sigma))

    def test_symmetry(self):
        taps = gaussian_kernel(0.02, 0.005, 20)
        np.testing.assert_allclose(taps, taps[::-1], rtol=0, atol=0)

    def test_normalized_sum(self):
        taps = gaussian_kernel(0.01, 0.001, 50)
        assert abs(taps.sum() - 1.0) < 1e-9

    def test_truncation_error(self):
        with pytest.raises(ValueError, match="truncated"):
            gaussian_kernel(sigma=0.1, dt=0.01, half_width=20)


class TestTemporalPrecision:
    @pytest.mark.parametrize("sigma", [0.006, 0.05, 0.5])
    def test_golden_order2(self, sigma):
        reference = eq_smatrix_inverse_reference(sigma)
        np.testing.assert_allclose(temporal_precision(sigma, 2), reference,
                                   rtol=0, atol=1e-10)

    def test_order0(self):
        np.testing.assert_allclose(temporal_precision(0.12, 0), [[1.0]])

    @pytest.mark.parametrize("sigma", [0.006, 0.1, 1.0])
    def test_order1_closed_form(self, sigma):
        # Derivative covariance diag(1, 1/(2 s^2)) inverted by hand.
        np.testing.assert_allclose(temporal_precision(sigma, 1),
                                   np.diag([1.0, 2.0 * sigma ** 2]),
                                   rtol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-4, 1e-3, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("order", [1, 2, 4, 6, 8])
    def test_symmetric_positive_definite(self, sigma, order):
        s = temporal_precision(sigma, order)
        np.testing.assert_array_equal(s, s.T)
        np.linalg.cholesky(s)  # raises if not PD

    def test_odd_entries_of_covariance_are_zero(self):
        cov = generalized_noise_covariance(0.05, 6)
        for i in range(7):
            for j in range(7):
                if (i + j) % 2:
                    assert cov[i, j] == 0.0

    def test_inverse_consistency(self):
        sigma, order = 0.05, 4
        cov = generalized_noise_covariance(sigma, order)
        s = temporal_precision(sigma, order)
        np.testing.assert_allclose(s @ cov, np.eye(order + 1), atol=1e-9)

    def test_white_noise_limit(self):
        # Shrinking sigma blows up the derivative variances (white noise has
        # no usable derivatives) so the derivative-block precisions vanish;
        # the value-block precision is sigma-independent.
        sigmas = [0.5, 0.1, 0.02, 0.004, 1e-4]
        cov_var = [generalized_noise_covariance(s, 2)[1, 1] for s in sigmas]
        assert all(a < b for a, b in zip(cov_var, cov_var[1:]))
        prec_deriv = [temporal_precision(s, 2)[1, 1] for s in sigmas]
        assert all(a > b for a, b in zip(prec_deriv, prec_deriv[1:]))
        value_prec = [temporal_precision(s, 2)[0, 0] for s in sigmas]
        np.testing.assert_allclose(value_prec, value_prec[0], rtol=1e-9)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            temporal_precision(0.1, 13)


class TestGeneralizedPrecision:
    def _spec(self, sigma=0.05):
        return NoiseSpec(sigma=sigma,
                         proc_precision=np.diag([2.0, 3.0]),
                         meas_precision=np.array([[4.0]]),
                         input_prior_precision=np.eye(2))

    def test_no_lift_at_order_zero(self):
        spec = self._spec()
        pi = generalized_precision(spec, 0, 0)
        np.testing.assert_allclose(pi.output_block, [[4.0]])
        np.testing.assert_allclose(pi.input_block, np.eye(2))
        np.testing.assert_allclose(pi.state_block, np.diag([2.0, 3.0]))

    def test_scalar_assembly_matches_temporal_precision(self):
        sigma = 0.07
        spec = NoiseSpec(sigma=sigma, proc_precision=[[1.0]],
                         meas_precision=[[1.0]], input_prior_precision=[[1.0]])
        pi = generalized_precision(spec, 2, 0)
        s2 = temporal_precision(sigma, 2)
        np.testing.assert_allclose(pi.output_block, s2)
        np.testing.assert_allclose(pi.input_block, [[1.0]])
        np.testing.assert_allclose(pi.state_block, s2)

    def test_symmetry_and_dimension(self):
        spec = self._spec()
        pi = generalized_precision(spec, 3, 1)
        np.testing.assert_array_equal(pi.matrix, pi.matrix.T)
        assert pi.dim == 1 * 4 + 2 * 2 + 2 * 4


class TestGenerateColoredNoise:
    def test_deterministic(self):
        a = generate_colored_noise(42, 0.05, np.eye(2), 500, 0.01)
        b = generate_colored_noise(42, 0.05, np.eye(2), 500, 0.01)
        np.testing.assert_array_equal(a, b)

    def test_white_limit_uncorrelated(self):
        n = 20000
        x = generate_colored_noise(7, 1e-6, np.eye(1), n, 0.0083).ravel()
        r = autocorrelation(x, 5)
        assert np.all(np.abs(r[1:]) < 3.0 / math.sqrt(n))

    def test_autocorrelation_matches_kernel(self):
        sigma, dt, n = 0.05, 0.0083, 100000
        x = generate_colored_noise(3, sigma, np.eye(1), n, dt).ravel()
        max_lag = int(3 * sigma / dt)
        r = autocorrelation(x, max_lag)
        expected = kernel_autocorrelation(np.arange(max_lag + 1) * dt, sigma)
        np.testing.assert_allclose(r, expected, atol=0.05)

    def test_marginal_covariance(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.5]])
        x = generate_colored_noise(11, 0.05, cov, 100000, 0.0083)
        sample_cov = np.cov(x.T)
        rel = np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov)
        assert rel < 0.05

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError, match="positive definite"):
            generate_colored_noise(0, 0.05, [[0.0]], 10, 0.01)


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        x = np.random.default_rng(0).standard_normal(100)
        assert autocorrelation(x, 10)[0] == pytest.approx(1.0)

    def test_alternating_series(self):
        x = np.array([1.0, -1.0] * 500)
        r = autocorrelation(x, 1)
        assert r[1] == pytest.approx(-1.0, abs=2e-3)

    def test_iid_noise_floor(self):
        x = np.random.default_rng(5).standard_normal(100000)
        r = autocorrelation(x, 20)
        assert np.all(np.abs(r[1:]) < 0.02)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            autocorrelation(np.ones(100), 5)


# Prints the bits of the long reductions that reach the tables: an AR(6)
# fit, an SSE and an autocorrelation of one 24,080-sample series.
_REDUCTIONS = """
import numpy as np
from demest.benchmarks import fit_ar, sse
from demest.noise import autocorrelation, generate_colored_noise
x, y = generate_colored_noise(3, 0.05, np.eye(2), 24080, 0.0083).T
ar = fit_ar(x, 6)
out = [*ar.coefficients, ar.innovation_variance, sse(x, y),
       *autocorrelation(y, 40)]
print(np.array(out).view(np.uint64).tolist())
"""


def _outputs_by_blas_threads(script):
    """``script``'s standard output with OpenBLAS on 1 and on 2 threads."""
    # OpenBLAS splits a long product across its threads, which can change
    # the summation order, so the bits could depend on the thread count.
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if cores < 2:
        pytest.skip("one core: two BLAS threads cannot run here, so this "
                    "host cannot show a thread-count dependence")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_table_reductions_do_not_depend_on_blas_threads():
    outputs = _outputs_by_blas_threads(_REDUCTIONS)
    assert outputs[0] == outputs[1]


# Prints the bits of the DEM observer's and SA-AR6's scans of one record of
# the flight log's length (24,080 steps) from the shipped windy config: GEMMs
# with an inner dimension of a chunk times the state dimension.
_SCANS = """
import dataclasses, hashlib
import numpy as np
from demest import benchmarks, dem, harness
from demest.config import load_config_file
cfg = load_config_file(%r)
cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, n_steps=24080))
model = harness.build_model(cfg)
rec = harness.synthesize_records(cfg, [1], model)[0]
spec = harness.observer_noise_spec(cfg, model)
m = dem.assemble_observer(model, harness._dem_config(cfg, spec, model))
est, = dem.run_observer_batch(m, [rec.data], True, keep=slice(1, 2))
q, r = benchmarks.default_noise_matrices(spec, cfg.run.dt)
ars = [benchmarks.fit_ar(rec.w_fit[:, i], 6) for i in range(model.n)]
sa, = benchmarks.state_augmentation_filter_batch(model, [ars], [rec.data],
                                                 q, r)
print(sa.freeze, hashlib.sha256(est.tobytes() + sa.means.tobytes()).hexdigest())
"""


def test_scans_do_not_depend_on_blas_threads():
    config = Path(__file__).resolve().parent.parent / "configs" / \
        "benchmark_state_windy.json"
    outputs = _outputs_by_blas_threads(_SCANS % str(config))
    # SA-AR6 freezes its gain early in the record, so both replays scan
    # almost all their steps.
    assert int(outputs[0].split()[0]) < 1000
    assert outputs[0] == outputs[1]


class TestGaussianFit:
    def test_normal_sample_accepted(self):
        x = np.random.default_rng(1).standard_normal(10000)
        fit = gaussian_fit(x)
        assert isinstance(fit, GaussianFit)
        assert fit.ks_stat < 0.02  # 1.63 / sqrt(N) at alpha = 0.01

    def test_location_recovered(self):
        rng = np.random.default_rng(2)
        x = 3.7 + 0.5 * rng.standard_normal(5000)
        fit = gaussian_fit(x)
        assert fit.mean == pytest.approx(3.7, abs=0.05)
        assert fit.std == pytest.approx(0.5, abs=0.05)

    def test_uniform_sample_rejected(self):
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 10000)
        assert gaussian_fit(x).ks_stat > 0.05

    def test_degenerate_series(self):
        with pytest.raises(ValueError, match="variance"):
            gaussian_fit(np.full(100, 2.0))


class TestNoiseSpec:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            NoiseSpec(sigma=0.1, proc_precision=[[1.0, 0.5], [0.0, 1.0]],
                      meas_precision=[[1.0]], input_prior_precision=[[1.0]])

    def test_rejects_zero_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            NoiseSpec(sigma=0.0, proc_precision=[[1.0]],
                      meas_precision=[[1.0]], input_prior_precision=[[1.0]])

    def test_input_prior_may_be_semidefinite(self):
        spec = NoiseSpec(sigma=0.1, proc_precision=[[1.0]],
                         meas_precision=[[1.0]],
                         input_prior_precision=[[0.0]])
        assert spec.r == 1
