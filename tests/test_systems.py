import warnings

import numpy as np
import pytest

from demest import systems
from demest.errors import DataFormatError, DivergenceError
from demest.systems import (ExperimentData, LtiModel, discretize,
                            is_observable, load_flight_log, normalize_inputs,
                            observability_matrix, quadrotor_roll_model,
                            rescale_input_matrix, residual_process_noise,
                            save_flight_log, simulate)

I_XX = 3.4e-3
C_B_PHI = 1.274e-3


class TestReplayDriver:
    """``systems._replay``, the step loop behind every stacked estimator."""

    def _replay(self, w):
        """Replay x = 2 x + w[k] over the (T, S, 1, 1) drive ``w``; returns
        the stored rows, the failure map, and the (record, step) pairs the
        message was asked for."""
        asked = []

        def message(i, k):
            asked.append((i, k))
            return f"record {i}"

        with np.errstate(invalid="ignore", over="ignore"):
            rows, failed = systems._replay(
                np.zeros(w.shape[1:]), len(w), lambda k, x: 2.0 * x + w[k],
                slice(None), message)
        return rows[..., 0], failed, asked

    def test_first_failure_wins_and_the_record_restarts_from_zero(self):
        w = np.ones((6, 3, 1, 1))
        w[2, 1] = np.inf
        w[4, 1] = np.nan
        w[:, 2] = 1e200  # finite squares that overflow the stack's sum
        rows, failed, asked = self._replay(w)
        assert list(failed) == [1]
        assert isinstance(failed[1], DivergenceError)
        assert (failed[1].step, str(failed[1])) == (
            2, "estimator diverged at step 2: record 1")
        assert asked[0] == (1, 2)
        x = 0.0
        for k in range(6):
            x = 2.0 * x + 1.0
            assert rows[k, 0] == x
        assert rows[:, 1].tolist() == [1.0, 3.0, 0.0, 1.0, 0.0, 1.0]
        assert np.isfinite(rows[:, 2]).all()

    def test_stops_once_every_record_has_failed(self):
        w = np.ones((6, 2, 1, 1))
        w[1, 0] = np.inf
        w[3, 1] = -np.inf
        rows, failed, _ = self._replay(w)
        assert [(i, e.step) for i, e in sorted(failed.items())] == [
            (0, 1), (1, 3)]
        assert not rows[3:].any()


class TestQuadrotorRollModel:
    def test_a_matrix_fixed(self):
        model = quadrotor_roll_model(1.0, 1.0)
        np.testing.assert_array_equal(model.a, [[0.0, 1.0], [0.0, 0.0]])
        model = quadrotor_roll_model(I_XX, C_B_PHI)
        np.testing.assert_array_equal(model.a, [[0.0, 1.0], [0.0, 0.0]])

    def test_b_entries_from_identified_constants(self):
        model = quadrotor_roll_model(I_XX, C_B_PHI)
        g = C_B_PHI / I_XX
        assert g == pytest.approx(0.37470588235294117)
        np.testing.assert_allclose(model.b[1], [g, -g, -g, g])
        np.testing.assert_array_equal(model.b[0], np.zeros(4))

    def test_observable_and_controllable(self):
        model = quadrotor_roll_model(I_XX, C_B_PHI)
        assert np.linalg.matrix_rank(observability_matrix(model)) == 2
        assert is_observable(model)
        controllability = np.hstack([model.b, model.a @ model.b])
        assert controllability.shape == (2, 8)
        assert np.linalg.matrix_rank(controllability) == 2

    def test_full_state_variant(self):
        model = quadrotor_roll_model(I_XX, C_B_PHI, full_state_output=True)
        np.testing.assert_array_equal(model.c, np.eye(2))
        assert model.m == 2

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            quadrotor_roll_model(0.0, C_B_PHI)


class TestNormalizeInputs:
    def test_simple_channel(self):
        normalized, factors = normalize_inputs([[1.0], [2.0], [3.0]])
        np.testing.assert_allclose(normalized.ravel(), [-0.5, 0.0, 0.5])
        np.testing.assert_allclose(factors, [0.5])

    def test_already_normalized(self):
        normalized, factors = normalize_inputs([[-0.5], [0.5]])
        np.testing.assert_allclose(normalized.ravel(), [-0.5, 0.5])
        np.testing.assert_allclose(factors, [1.0])

    def test_constant_channel_rejected(self):
        with pytest.raises(ValueError, match="zero range"):
            normalize_inputs([[5.0], [5.0], [5.0]])

    def test_rescaled_model_preserves_dynamics(self):
        model = quadrotor_roll_model(I_XX, C_B_PHI)
        rng = np.random.default_rng(0)
        raw = 1500.0 + 200.0 * rng.random((100, 4))
        normalized, factors = normalize_inputs(raw)
        rescaled = rescale_input_matrix(model, factors)
        centered = raw - raw.mean(axis=0)
        np.testing.assert_allclose(normalized @ rescaled.b.T,
                                   centered @ model.b.T, atol=1e-12)


class TestDiscretize:
    def test_zero_dynamics(self):
        model = LtiModel(a=np.zeros((3, 3)), b=np.ones((3, 2)), c=np.eye(3))
        ad, bd = discretize(model, 0.25)
        np.testing.assert_allclose(ad, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(bd, 0.25 * np.ones((3, 2)), atol=1e-15)

    def test_double_integrator_closed_form(self):
        model = LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                         c=[[1.0, 0.0]])
        ad, bd = discretize(model, 0.1)
        np.testing.assert_allclose(ad, [[1.0, 0.1], [0.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(bd, [[0.005], [0.1]], atol=1e-15)

    def test_small_dt_expansion(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        model = LtiModel(a=a, b=rng.standard_normal((3, 1)), c=np.eye(3))
        for dt in (1e-3, 1e-4):
            ad, _ = discretize(model, dt)
            assert np.linalg.norm(ad - np.eye(3) - a * dt) < 2.0 * dt ** 2 * \
                np.linalg.norm(a @ a)

    def test_two_half_steps_match_one_for_nilpotent_a(self):
        model = LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                         c=[[1.0, 0.0]])
        dt = 0.0083
        ad, bd = discretize(model, dt)
        ad2, bd2 = discretize(model, 2.0 * dt)
        np.testing.assert_allclose(ad @ ad, ad2, rtol=0, atol=1e-15)
        # constant input over both sub-steps
        np.testing.assert_allclose(ad @ bd + bd, bd2, rtol=0, atol=1e-15)


class TestSimulate:
    def _model(self):
        return LtiModel(a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]],
                        c=[[1.0, 0.0]])

    def test_zero_everything(self):
        model = self._model()
        data = simulate(model, 0.01, 50, np.zeros((50, 1)),
                        np.zeros((50, 2)), np.zeros((50, 1)))
        np.testing.assert_array_equal(data.truth_states, np.zeros((50, 2)))
        np.testing.assert_array_equal(data.measurements, np.zeros((50, 1)))

    def test_constant_input_quadratic_position(self):
        model = self._model()
        dt, n = 0.001, 2001
        data = simulate(model, dt, n, np.ones((n, 1)),
                        np.zeros((n, 2)), np.zeros((n, 1)))
        t = np.arange(n) * dt
        np.testing.assert_allclose(data.truth_states[:, 0], 0.5 * t ** 2,
                                   atol=1e-9)
        np.testing.assert_allclose(data.truth_states[:, 1], t, atol=1e-12)

    def test_reproducible_with_seeded_noise(self):
        from demest.noise import generate_colored_noise
        model = self._model()
        w = generate_colored_noise(9, 0.05, np.eye(2), 100, 0.01)
        z = generate_colored_noise(10, 0.05, np.eye(1), 100, 0.01)
        v = np.zeros((100, 1))
        a = simulate(model, 0.01, 100, v, w, z)
        b = simulate(model, 0.01, 100, v, w, z)
        np.testing.assert_array_equal(a.truth_states, b.truth_states)
        np.testing.assert_array_equal(a.measurements, b.measurements)

    def test_matches_the_step_by_step_recurrence(self):
        # The drive and noise terms are computed before the loop; the
        # states keep the bits of adding them inside it.
        model = LtiModel(a=[[0.0, 1.0], [-4.0, -0.3]],
                         b=[[0.0, 0.5, 0.1], [1.0, -2.0, 0.7]],
                         c=[[1.0, 0.0]])
        rng = np.random.default_rng(12)
        dt, n = 0.0083, 300
        v = rng.standard_normal((n, 3))
        w = rng.standard_normal((n, 2))
        data = simulate(model, dt, n, v, w, np.zeros((n, 1)))
        ad, bd = discretize(model, dt)
        states = np.zeros((n, 2))
        for k in range(n - 1):
            states[k + 1] = ad @ states[k] + bd @ v[k] + w[k] * dt
        assert np.array_equal(data.truth_states, states)

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ValueError, match="process-noise"):
            simulate(model, 0.01, 10, np.zeros((10, 1)),
                     np.zeros((10, 3)), np.zeros((10, 1)))


class TestResidualProcessNoise:
    def _model(self):
        return quadrotor_roll_model(I_XX, C_B_PHI)

    def test_recovers_injected_noise(self):
        from demest.noise import generate_colored_noise
        model = self._model()
        n, dt = 400, 0.0083
        w = generate_colored_noise(4, 0.05, np.diag([0.01, 4.0]), n, dt)
        v = np.random.default_rng(5).standard_normal((n, 4)) * 0.1
        data = simulate(model, dt, n, v, w, np.zeros((n, 1)))
        residuals = residual_process_noise(model, data)
        np.testing.assert_allclose(residuals, w[:n - 1], rtol=1e-8, atol=1e-10)

    def test_noiseless_residuals_are_zero(self):
        model = self._model()
        n = 100
        data = simulate(model, 0.01, n, np.ones((n, 4)) * 0.2,
                        np.zeros((n, 2)), np.zeros((n, 1)))
        residuals = residual_process_noise(model, data)
        np.testing.assert_allclose(residuals, np.zeros((n - 1, 2)), atol=1e-10)

    def test_single_sample_rejected(self):
        model = self._model()
        data = ExperimentData(dt=0.01, measurements=np.zeros((1, 1)),
                              inputs=np.zeros((1, 4)),
                              truth_states=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="two samples"):
            residual_process_noise(model, data)

    def test_noise_level_monotonicity(self):
        from demest.noise import generate_colored_noise
        model = self._model()
        n, dt = 10000, 0.0083
        cov = np.diag([0.01, 4.0])
        variances = []
        for scale in (1.0, 2.0):
            w = generate_colored_noise(21, 0.05, scale * cov, n, dt)
            data = simulate(model, dt, n, np.zeros((n, 4)), w,
                            np.zeros((n, 1)))
            res = residual_process_noise(model, data)
            variances.append(res.var(axis=0))
        ratio = variances[1] / variances[0]
        assert np.all(ratio > 1.6) and np.all(ratio < 2.4)


class TestFlightLogIo:
    def _data(self, n=120, dt=0.0083, with_truth=True):
        rng = np.random.default_rng(8)
        return ExperimentData(
            dt=dt,
            measurements=rng.standard_normal((n, 2)),
            inputs=rng.standard_normal((n, 4)),
            truth_states=rng.standard_normal((n, 2)) if with_truth else None,
        )

    def test_round_trip_bit_identical(self, tmp_path):
        data = self._data()
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        loaded = load_flight_log(path)
        assert loaded.dt == data.dt
        np.testing.assert_array_equal(loaded.measurements, data.measurements)
        np.testing.assert_array_equal(loaded.inputs, data.inputs)
        np.testing.assert_array_equal(loaded.truth_states, data.truth_states)

    def test_120hz_log_shape(self, tmp_path):
        data = self._data(n=1200)
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        loaded = load_flight_log(path)
        assert loaded.n_steps == 1200
        assert loaded.dt == pytest.approx(0.0083)

    def test_truth_optional(self, tmp_path):
        data = self._data(with_truth=False)
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        assert load_flight_log(path).truth_states is None

    def test_missing_pwm_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,phi,phidot,pwm1,pwm2,pwm3\n0,0,0,0,0,0\n1,0,0,0,0,0\n")
        with pytest.raises(DataFormatError, match="pwm4"):
            load_flight_log(path)

    def test_timestamp_gap_cites_row(self, tmp_path):
        data = self._data(n=20, dt=0.01)
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        lines = path.read_text().splitlines()
        cells = lines[10].split(",")
        cells[0] = repr(float(cells[0]) + 0.02)  # 3x dt gap at data row 10
        lines[10] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="row 1[01]"):
            load_flight_log(path)

    def test_nan_cell_cites_row_and_column(self, tmp_path):
        data = self._data(n=10, dt=0.01)
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        lines = path.read_text().splitlines()
        for cell in ("nan", "inf", "-inf"):
            cells = lines[4].split(",")
            cells[2] = cell
            path.write_text("\n".join(lines[:4] + [",".join(cells)]
                                      + lines[5:]) + "\n")
            with pytest.raises(DataFormatError, match="row 4.*phidot"):
                load_flight_log(path)

    def test_ragged_row_cites_row(self, tmp_path):
        data = self._data(n=10, dt=0.01)
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        lines = path.read_text().splitlines()
        for row in (lines[4].rsplit(",", 1)[0], lines[4] + ",0.5"):
            path.write_text("\n".join(lines[:4] + [row] + lines[5:]) + "\n")
            with pytest.raises(DataFormatError, match="row 4: (8|10) cells"):
                load_flight_log(path)

    def test_both_parses_give_the_same_bits(self, tmp_path, monkeypatch):
        # Cells that are easy to misparse: signed zeros, subnormals, the
        # ends of the float range and 17-digit reprs.
        awkward = [-0.0, 0.0, 5e-324, -2.225073858507201e-308,
                   2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                   0.1 + 0.2, 1 / 3, -2.718281828459045, 9007199254740993.0]
        data = self._data(n=len(awkward), dt=0.01)
        data = ExperimentData(dt=data.dt, truth_states=data.truth_states,
                              measurements=np.roll(np.c_[awkward, awkward],
                                                   3, axis=0),
                              inputs=np.c_[awkward, awkward[::-1],
                                           np.roll(awkward, 5), awkward])
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        parsed = []
        loadtxt_rows = systems._loadtxt_rows

        def spy(*args):
            parsed.append(loadtxt_rows(*args))
            return parsed[-1]

        monkeypatch.setattr(systems, "_loadtxt_rows", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = load_flight_log(path)
        assert parsed[0] is not None
        monkeypatch.setattr(systems, "_loadtxt_rows", lambda *args: None)
        slow = load_flight_log(path)
        for name in ("measurements", "inputs", "truth_states"):
            bits = [getattr(d, name).view(np.uint64) for d in (fast, slow)]
            assert np.array_equal(*bits), name
            assert np.array_equal(bits[0], getattr(data, name).view(np.uint64))

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_too_few_rows(self, tmp_path, n_rows):
        path = tmp_path / "short.csv"
        path.write_text("t,phi,phidot,pwm1,pwm2,pwm3,pwm4\n"
                        + "0,0,0,0,0,0,0\n" * n_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="two data rows"):
                load_flight_log(path)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,phi,phidot,pwm1,pwm2,pwm3,pwm4"]
        for k, t in enumerate([0.0, 0.01, 0.005, 0.03]):
            rows.append(f"{t},0,0,0,0,0,{k}")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="monotone"):
            load_flight_log(path)

    def test_normalization_on_load(self, tmp_path):
        n = 50
        rng = np.random.default_rng(9)
        data = ExperimentData(
            dt=0.01,
            measurements=rng.standard_normal((n, 2)),
            inputs=1500.0 + 100.0 * rng.random((n, 4)),
        )
        path = tmp_path / "log.csv"
        save_flight_log(path, data)
        loaded = load_flight_log(path, normalize=True)
        assert loaded.input_scales is not None
        np.testing.assert_allclose(loaded.inputs.mean(axis=0), np.zeros(4),
                                   atol=1e-12)
        spans = loaded.inputs.max(axis=0) - loaded.inputs.min(axis=0)
        np.testing.assert_allclose(spans, np.ones(4), atol=1e-12)
