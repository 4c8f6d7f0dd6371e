import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from demest.gencoord import (EmbeddingWindow, GeneralizedVector,
                             _embedding_inverse, centered_offsets,
                             embed_measurements, embed_series,
                             embedding_inverse, lift_matrix, shift_matrix,
                             taylor_embedding_matrix)


class TestShiftMatrix:
    def test_order1_scalar(self):
        np.testing.assert_array_equal(shift_matrix(1, 1),
                                      [[0.0, 1.0], [0.0, 0.0]])

    def test_order2_scalar(self):
        np.testing.assert_array_equal(
            shift_matrix(2, 1),
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_order1_dim2_kron_expansion(self):
        # Expanded by hand: identity block in the upper-right 2x2 corner.
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1.0
        np.testing.assert_array_equal(shift_matrix(1, 2), expected)

    def test_shifts_blocks_up(self):
        vec = GeneralizedVector.from_blocks([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        shifted = shift_matrix(2, 2) @ vec.data
        np.testing.assert_array_equal(shifted, [3, 4, 5, 6, 0, 0])

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("base_dim", [1, 2, 3])
    def test_nilpotency(self, order, base_dim):
        d = shift_matrix(order, base_dim)
        np.testing.assert_array_equal(np.linalg.matrix_power(d, order + 1),
                                      np.zeros_like(d))

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("base_dim", [1, 2, 3])
    def test_commutes_with_lift(self, order, base_dim):
        rng = np.random.default_rng(base_dim * 10 + order)
        m = rng.standard_normal((base_dim, base_dim))
        d = shift_matrix(order, base_dim)
        lifted = lift_matrix(m, order)
        np.testing.assert_allclose(d @ lifted, lifted @ d, atol=1e-12)


class TestLiftMatrix:
    def test_order0_identity(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(lift_matrix(m, 0), m)

    def test_scalar_kron(self):
        np.testing.assert_array_equal(lift_matrix([[2.0]], 2),
                                      np.diag([2.0, 2.0, 2.0]))

    def test_rectangular_block_shape(self):
        m = np.arange(8.0).reshape(2, 4)
        lifted = lift_matrix(m, 6)
        assert lifted.shape == (14, 28)
        for j in range(7):
            np.testing.assert_array_equal(lifted[2 * j:2 * j + 2,
                                                 4 * j:4 * j + 4], m)
        off = lifted.copy()
        for j in range(7):
            off[2 * j:2 * j + 2, 4 * j:4 * j + 4] = 0.0
        np.testing.assert_array_equal(off, np.zeros_like(off))

    def test_mixed_orders(self):
        m = np.array([[1.0], [2.0]])
        lifted = lift_matrix(m, 2, col_order=1)
        assert lifted.shape == (6, 2)
        np.testing.assert_array_equal(lifted[:2, :1], m)
        np.testing.assert_array_equal(lifted[2:4, 1:], m)
        np.testing.assert_array_equal(lifted[4:], np.zeros((2, 2)))


class TestTaylorMatrix:
    def test_order0(self):
        np.testing.assert_array_equal(taylor_embedding_matrix(0, 0.123),
                                      [[1.0]])

    def test_order1_forward_offsets(self):
        t = taylor_embedding_matrix(1, 0.1, offsets=(0, 1))
        np.testing.assert_allclose(t, [[1.0, 0.0], [1.0, 0.1]])

    def test_order2_centered(self):
        t = taylor_embedding_matrix(2, 1.0)
        np.testing.assert_allclose(
            t, [[1.0, -1.0, 0.5], [1.0, 0.0, 0.0], [1.0, 1.0, 0.5]])

    def test_default_offsets_past_shifted_for_odd_order(self):
        assert centered_offsets(1) == (-1, 0)
        assert centered_offsets(2) == (-1, 0, 1)
        assert centered_offsets(6) == (-3, -2, -1, 0, 1, 2, 3)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="cap"):
            taylor_embedding_matrix(13, 0.01)

    def test_inverse_cached_and_readonly(self):
        inv1 = embedding_inverse(3, 0.01)
        inv2 = embedding_inverse(3, 0.01)
        assert inv1 is inv2
        with pytest.raises(ValueError):
            inv1[0, 0] = 99.0


class TestEmbedMeasurements:
    def test_constant_signal(self):
        for p in (0, 1, 2, 4, 6):
            samples = np.full((p + 1, 1), 7.5)
            vec = embed_measurements(EmbeddingWindow(samples, dt=0.1, order=p))
            np.testing.assert_allclose(vec.block(0), [7.5], atol=1e-12)
            for j in range(1, p + 1):
                np.testing.assert_allclose(vec.block(j), [0.0], atol=1e-9)

    def test_ramp(self):
        dt = 0.5
        offsets = np.array(centered_offsets(2))
        center = 4.0
        samples = 3.0 * (center + offsets * dt)
        vec = embed_measurements(EmbeddingWindow(samples, dt=dt, order=2))
        np.testing.assert_allclose(vec.data, [3.0 * center, 3.0, 0.0],
                                   atol=1e-12)

    def test_quadratic(self):
        # y = t^2 sampled around t = 0: 3x3 Taylor system solved by hand
        # gives value 0, slope 0, curvature 2.
        dt = 0.1
        offsets = np.array(centered_offsets(2))
        samples = (offsets * dt) ** 2
        vec = embed_measurements(EmbeddingWindow(samples, dt=dt, order=2))
        np.testing.assert_allclose(vec.data, [0.0, 0.0, 2.0], atol=1e-12)

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            EmbeddingWindow(np.zeros((3, 1)), dt=0.1, order=3)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_polynomial_exactness(self, p):
        # Polynomial with all coefficients 1: derivative j at 0 equals j!.
        dt = 0.1
        offsets = np.array(centered_offsets(p))
        t = offsets * dt
        samples = sum(t ** i for i in range(p + 1))
        vec = embed_measurements(EmbeddingWindow(samples, dt=dt, order=p))
        for j in range(p + 1):
            truth = math.factorial(j)
            rel = abs(vec.block(j)[0] - truth) / truth
            assert rel <= 1e-8, f"derivative {j}: rel err {rel:.2e}"

    def test_conditioning_warning_at_fast_sampling_high_order(self):
        # 1/dt^p amplification makes the p=6, dt=0.0083 system suspect; the
        # inverse must flag it rather than fail silently. The factorization
        # is cached, so force a cold computation.
        from demest.gencoord import _embedding_inverse
        _embedding_inverse.cache_clear()
        with pytest.warns(RuntimeWarning, match="conditioned"):
            embedding_inverse(6, 0.0083, offsets=tuple(range(-3, 4)))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_round_trip(self, p):
        rng = np.random.default_rng(p)
        samples = rng.standard_normal((p + 1, 2))
        window = EmbeddingWindow(samples, dt=0.05, order=p)
        vec = embed_measurements(window)
        t = taylor_embedding_matrix(p, 0.05)
        rebuilt = t @ vec.data.reshape(p + 1, 2)
        np.testing.assert_allclose(rebuilt, samples, atol=1e-10)


class TestEmbedSeries:
    def test_polynomial_exact_including_boundaries(self):
        p, dt = 3, 0.1
        t = np.arange(20) * dt
        series = 1.0 + 2.0 * t - 0.5 * t ** 2 + 0.25 * t ** 3
        gen = embed_series(series, dt, p)
        truth = np.column_stack([
            1.0 + 2.0 * t - 0.5 * t ** 2 + 0.25 * t ** 3,
            2.0 - 1.0 * t + 0.75 * t ** 2,
            -1.0 + 1.5 * t,
            np.full_like(t, 1.5),
        ])
        np.testing.assert_allclose(gen, truth, atol=1e-9)

    @pytest.mark.filterwarnings("ignore:embedding matrix badly conditioned")
    @pytest.mark.parametrize("dt", [0.1, 0.0083])
    @pytest.mark.parametrize("p", range(13))
    def test_constant_series_has_exactly_zero_derivatives(self, p, dt):
        # The shipped configs embed at p=6, dt=0.0083, where the 6!/dt^6
        # row scale (~3e12) amplifies any rounding left in a derivative row.
        # 0.1 is not a binary fraction, so its products with the integer
        # numerators round.
        series = np.tile([7.5, 0.1], (40, 1))
        gen = embed_series(series, dt, p)
        np.testing.assert_array_equal(gen[:, :2], series)
        np.testing.assert_array_equal(gen[:, 2:], 0.0)

    def test_multichannel_shape(self):
        series = np.random.default_rng(0).standard_normal((50, 3))
        gen = embed_series(series, 0.01, 2)
        assert gen.shape == (50, 9)

    def test_order0_is_identity(self):
        series = np.arange(10.0)
        np.testing.assert_array_equal(embed_series(series, 0.1, 0).ravel(),
                                      series)

    def test_too_short_series(self):
        with pytest.raises(ValueError, match="shorter"):
            embed_series(np.zeros(3), 0.1, 4)


def per_row_embed(series, dt, order):
    """embed_series written as one window product per row."""
    n_samples, m = series.shape
    lead = -math.ceil(order / 2)
    ref = series[0]
    shifted = series - ref
    out = np.empty((n_samples, m * (order + 1)))
    for t in range(n_samples):
        lo = min(max(t + lead, 0), n_samples - order - 1)
        factored = _embedding_inverse(
            order, dt, tuple(range(lo - t, lo - t + order + 1)))
        out[t] = (factored.numer @ shifted[lo:lo + order + 1]).reshape(-1)
        out[t] *= np.repeat(factored.scale, m)
    out[:, :m] += ref
    return out


@st.composite
def series_cases(draw):
    order = draw(st.integers(0, 8))
    width = draw(st.integers(1, 4))
    length = draw(st.integers(order + 1, order + 40))
    series = draw(hnp.arrays(np.float64, (length, width),
                             elements=st.floats(-1e3, 1e3)))
    dt = draw(st.sampled_from([0.0083, 0.1, 1.0]))
    return series, dt, order


@pytest.mark.filterwarnings("ignore:embedding matrix badly conditioned")
@settings(max_examples=200, deadline=None)
@given(series_cases())
def test_embed_series_matches_per_row_loop_bitwise(case):
    series, dt, order = case
    assert np.array_equal(embed_series(series, dt, order),
                          per_row_embed(series, dt, order))


class TestGeneralizedVector:
    def test_block_layout(self):
        vec = GeneralizedVector(base_dim=2, order=1, data=[1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(vec.block(0), [1.0, 2.0])
        np.testing.assert_array_equal(vec.block(1), [3.0, 4.0])

    def test_length_validation(self):
        with pytest.raises(ValueError, match="length"):
            GeneralizedVector(base_dim=2, order=1, data=[1.0, 2.0, 3.0])
