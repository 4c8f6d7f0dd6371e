import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demest import systems
from demest.errors import DataFormatError, DivergenceError
from demest.systems import (ExperimentData, LtiModel, discretize,
                            is_observable, load_flight_log, normalize_inputs,
                            normalized_pwm, observability_matrix,
                            quadrotor_roll_model, rescale_input_matrix,
                            residual_process_noise, save_flight_log,
                            simulate)

I_XX = 3.4e-3
C_B_PHI = 1.274e-3


class TestReplayDriver:
    """``systems._replay``, the recurrence behind every stacked estimator."""

    def _replay(self, w):
        """Replay x = 2 x + w[k] over the (S, T, 1) drive ``w``; returns the
        stored rows, the failure map, and the (record, step) pairs the
        message was asked for."""
        asked = []

        def message(i, k):
            asked.append((i, k))
            return f"record {i}"

        with np.errstate(invalid="ignore", over="ignore"):
            rows, failed = systems._replay(
                np.zeros(w.shape[:1] + (1, 1)), w, slice(None), message,
                lambda k: np.array([[2.0]]))
        return rows[..., 0], failed, asked

    def test_first_failure_wins_and_the_record_restarts_from_zero(self):
        w = np.ones((3, 6, 1))
        w[1, 2] = np.inf
        w[1, 4] = np.nan
        w[2] = 1e200  # finite squares that overflow the stack's sum
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
        w = np.ones((2, 6, 1))
        w[0, 1] = np.inf
        w[1, 3] = -np.inf
        rows, failed, _ = self._replay(w)
        assert [(i, e.step) for i, e in sorted(failed.items())] == [
            (0, 1), (1, 3)]
        assert not rows[3:].any()


def _random_transition(rng, n, radius, of_abs=False):
    """A non-normal n x n matrix of spectral radius ``radius``: scaled 2 x 2
    rotations (and a real eigenvalue for odd n) in a random basis. With
    ``of_abs``, the matrix of its absolute values has that radius instead."""
    blocks = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        angle = rng.uniform(0.0, np.pi)
        blocks[i:i + 2, i:i + 2] = rng.uniform(0.5, 1.0) * np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    if n % 2:
        blocks[-1, -1] = rng.uniform(-1.0, 1.0)
    blocks *= radius / np.abs(np.linalg.eigvals(blocks)).max()
    basis = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    m = basis @ blocks @ np.linalg.inv(basis)
    return m * radius / np.abs(np.linalg.eigvals(abs(m))).max() if of_abs \
        else m


class _Recurrence:
    """A random recurrence in ``_replay``'s terms: ``prefix`` steps of their
    own transitions, then one constant transition; the transitions are
    shared, or one per record, and then ``prefix`` may be one per record
    too. With ``of_abs``, the radii bound the transitions' absolute values,
    so the reference's size recurrence stays finite on long records.
    ``_replay`` is told the transitions are constant from ``start``: the
    prefix, or a later step (T or more: the record is never scanned)."""

    def __init__(self, seed, n_records, n, prefix, per_record, of_abs=False,
                 start=None):
        rng = np.random.default_rng(seed)
        lead = (n_records,) if per_record else ()
        top = int(np.max(prefix))
        radii = rng.uniform(0.5, 1.00003, top + 1)
        radii[rng.integers(top + 1)] = 1.00003  # one marginal
        self.ms = np.stack([np.stack([
            _random_transition(rng, n, rho, of_abs) for _ in range(
                n_records if per_record else 1)]).reshape(lead + (n, n))
            for rho in radii])
        self.prefix = prefix
        self.start = prefix if start is None else start

    def transition(self, k):
        if np.ndim(self.prefix) == 0:
            return self.ms[min(k, self.prefix)]
        return self.ms[np.minimum(k, self.prefix), np.arange(self.ms.shape[1])]

    def one(self, i):
        """Record i's recurrence alone, as a batch of one."""
        one = object.__new__(_Recurrence)
        one.ms = self.ms[:, i:i + 1] if self.ms.ndim == 4 else self.ms
        one.prefix, one.start = (a if np.ndim(a) == 0 else a[i:i + 1]
                                 for a in (self.prefix, self.start))
        return one

    def replay(self, x, w, keep, scan=True):
        """``_replay``; without ``scan`` the transition is never said to be
        constant, so every step goes one by one."""
        with np.errstate(invalid="ignore", over="ignore"):
            return systems._replay(
                x, w, keep, lambda i, k: f"record {i} at {k}",
                self.transition, self.start if scan else w.shape[1])

    def reference(self, x, w, keep):
        """The recurrence stepped in ``np.longdouble``, and the same
        recurrence on absolute values, which scales the rounding error of
        any order of its sums."""
        x, w = x.astype(np.longdouble), w.astype(np.longdouble)
        size = abs(x)
        rows, sizes = [], []
        for k in range(w.shape[1]):
            m = self.transition(k).astype(np.longdouble)
            x = np.matmul(m, x) + w[:, k, :, None]
            size = np.matmul(abs(m), size) + abs(w[:, k, :, None])
            rows.append(x[:, keep, 0])
            sizes.append(size[:, keep, 0])
        return np.stack(rows), np.stack(sizes)


class TestScan:
    """``_replay``'s chunked scan against its own step-by-step path (a
    start at the record's end turns the scan off) and a long-double
    reference."""

    @staticmethod
    def _lengths(draw, prefix):
        chunk = systems.SCAN_CHUNK
        chunks = draw.draw(st.integers(0, 5))
        rest = draw.draw(st.integers(1, chunk - 1))
        return max(prefix + draw.draw(st.sampled_from(
            [chunks * chunk, chunks * chunk + rest, rest])), 1)

    @staticmethod
    def _start(draw, prefix, n_records, n_steps):
        """One start per record, for a shared prefix too: its prefix or a
        later step, maybe with one record's start moved to ``n_steps``, so
        that record shares the stack unscanned."""
        start = np.broadcast_to(prefix, n_records) + np.array(draw.draw(
            st.lists(st.integers(0, 2 * systems.SCAN_CHUNK),
                     min_size=n_records, max_size=n_records)))
        if draw.draw(st.booleans()):
            start[draw.draw(st.integers(0, n_records - 1))] = n_steps
        return start

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_records=st.sampled_from([1, 3]),
           n=st.integers(1, 6), prefix=st.integers(0, 40),
           per_record=st.booleans(), all_kept=st.booleans(), draw=st.data())
    def test_rows_match_the_reference_and_one_record_batches(
            self, seed, n_records, n, prefix, per_record, all_kept, draw):
        n_steps = self._lengths(draw, prefix)
        rec = _Recurrence(seed, n_records, n, prefix, per_record)
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal((n_records, n, 1))
        w = rng.standard_normal((n_records, n_steps, n))
        keep = slice(None) if all_kept else slice(n // 2, n)
        rows, failed = rec.replay(x, w, keep)
        steps, _ = rec.replay(x, w, keep, scan=False)
        reference, size = rec.reference(x, w, keep)
        assert not failed
        # The scan sums a chunk's drive in another order than the steps,
        # and is held to the same bound as the float64 step-by-step path:
        # 8 eps times the sums of absolute values (the worst of 1500 random
        # cases of this property was 1.44 eps, for both).
        bound = 8.0 * np.finfo(float).eps * size
        assert np.all(abs(rows - reference) <= bound)
        assert np.all(abs(steps - reference) <= bound)
        for i in range(n_records):
            alone, _ = rec.one(i).replay(x[i:i + 1], w[i:i + 1], keep)
            assert np.array_equal(alone[:, 0], rows[:, i])

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_records=st.sampled_from([1, 3]),
           n=st.integers(1, 4), per_record=st.booleans(),
           value=st.sampled_from([np.inf, -np.inf, np.nan, 1e308, 1e299]),
           draw=st.data())
    def test_divergence_matches_the_step_by_step_path(
            self, seed, n_records, n, per_record, value, draw):
        # Shared and per-record transitions get a start each, so records
        # that step to their first chunk share the stack with records
        # scanned from theirs, and maybe with one never scanned. A finite
        # 1e299 puts a chunk's bound over SCAN_MARGIN without a divergence:
        # the record steps to its end and keeps its bits alone.
        prefix = draw.draw(st.lists(st.integers(0, 40), min_size=n_records,
                                    max_size=n_records).map(np.array)
                           if per_record else st.integers(0, 40))
        n_steps = int(np.max(prefix)) + 5 * systems.SCAN_CHUNK
        rec = _Recurrence(seed, n_records, n, prefix, per_record,
                          start=self._start(draw, prefix, n_records, n_steps))
        rng = np.random.default_rng([seed, 2])
        x = np.zeros((n_records, n, 1))
        w = rng.standard_normal((n_records, n_steps, n))
        for _ in range(draw.draw(st.integers(1, 3))):
            i = draw.draw(st.integers(0, n_records - 1))
            k = draw.draw(st.integers(0, n_steps - 1))
            w[i, k, draw.draw(st.integers(0, n - 1)) if draw.draw(
                st.booleans()) else slice(None)] = value
        keep = slice(0, 1)
        rows, failed = rec.replay(x, w, keep)
        steps, expected = rec.replay(x, w, keep, scan=False)
        assert {i: (e.step, str(e)) for i, e in failed.items()} == {
            i: (e.step, str(e)) for i, e in expected.items()}
        for i in range(n_records):
            alone, one = rec.one(i).replay(x[i:i + 1], w[i:i + 1], keep)
            if i in failed:
                assert one[0].step == failed[i].step
            else:
                assert not one and np.array_equal(alone[:, 0], rows[:, i])

    # Records of more than SCAN_CHUNK**3 steps: at least SCAN_CHUNK**2
    # chunks after any start up to 40, so their chunk ends are scanned too.
    LONG = systems.SCAN_CHUNK ** 3 + 4 * systems.SCAN_CHUNK

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_records=st.sampled_from([1, 3]),
           n=st.integers(1, 4), per_record=st.booleans(),
           all_kept=st.booleans(), extra=st.integers(0, 400), draw=st.data())
    def test_long_records_match_the_reference_and_one_record_batches(
            self, seed, n_records, n, per_record, all_kept, extra, draw):
        # Shared and per-record transitions get a start each, on several
        # first chunks, and maybe one record is never scanned.
        prefix = draw.draw(st.lists(st.integers(0, 40), min_size=n_records,
                                    max_size=n_records).map(np.array)
                           if per_record else st.integers(0, 40))
        n_steps = self.LONG + extra
        rec = _Recurrence(seed, n_records, n, prefix, per_record, of_abs=True,
                          start=self._start(draw, prefix, n_records, n_steps))
        rng = np.random.default_rng([seed, 4])
        x = rng.standard_normal((n_records, n, 1))
        w = rng.standard_normal((n_records, n_steps, n))
        keep = slice(None) if all_kept else slice(n // 2, n)
        rows, failed = rec.replay(x, w, keep)
        reference, size = rec.reference(x, w, keep)
        assert not failed
        # The bound of test_rows_match_the_reference_and_one_record_batches,
        # finite on every draw.
        bound = 8.0 * np.finfo(float).eps * size
        assert np.isfinite(bound).all()
        assert np.all(abs(rows - reference) <= bound)
        for i in range(n_records):
            alone, _ = rec.one(i).replay(x[i:i + 1], w[i:i + 1], keep)
            assert np.array_equal(alone[:, 0], rows[:, i])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_shared_transition_with_mixed_starts_matches_one_record_batches(
            self, n):
        # First chunks 1, 2 and 4, and one record never scanned, on a short
        # record and on one whose chunk ends are scanned: each record's
        # products keep their shapes in the batch.
        chunk = systems.SCAN_CHUNK
        rng = np.random.default_rng(n)
        for n_steps in (10 * chunk + 5, self.LONG):
            start = np.array([7, 7 + chunk, 7 + 3 * chunk, n_steps])
            rec = _Recurrence(n, 4, n, 7, False, of_abs=True, start=start)
            x = rng.standard_normal((4, n, 1))
            w = rng.standard_normal((4, n_steps, n))
            for keep in (slice(None), slice(n // 2, n)):
                rows, failed = rec.replay(x, w, keep)
                assert not failed
                for i in range(4):
                    alone, _ = rec.one(i).replay(x[i:i + 1], w[i:i + 1],
                                                 keep)
                    assert np.array_equal(alone[:, 0], rows[:, i])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_records=st.sampled_from([1, 3]),
           n=st.integers(1, 3), per_record=st.booleans(),
           value=st.sampled_from([np.inf, -np.inf, np.nan, 1e308, 1e299]),
           draw=st.data())
    def test_divergence_in_a_long_record_matches_the_step_by_step_path(
            self, seed, n_records, n, per_record, value, draw):
        # Most steps of a long record lie in a chunk of chunks, so most bad
        # samples do; the record then steps from that chunk of chunks on.
        prefix = draw.draw(st.integers(0, 40))
        rec = _Recurrence(seed, n_records, n, prefix, per_record)
        rng = np.random.default_rng([seed, 5])
        x = np.zeros((n_records, n, 1))
        w = rng.standard_normal((n_records, self.LONG, n))
        for _ in range(draw.draw(st.integers(1, 3))):
            i = draw.draw(st.integers(0, n_records - 1))
            k = draw.draw(st.integers(0, self.LONG - 1))
            w[i, k, draw.draw(st.integers(0, n - 1))] = value
        keep = slice(0, 1)
        rows, failed = rec.replay(x, w, keep)
        steps, expected = rec.replay(x, w, keep, scan=False)
        assert {i: (e.step, str(e)) for i, e in failed.items()} == {
            i: (e.step, str(e)) for i, e in expected.items()}
        for i in range(n_records):
            alone, one = rec.one(i).replay(x[i:i + 1], w[i:i + 1], keep)
            if i in failed:
                assert one[0].step == failed[i].step
            else:
                assert not one and np.array_equal(alone[:, 0], rows[:, i])

    def test_chunk_ends_are_scanned_on_long_records_only(self, monkeypatch):
        # A structural check: each level of the scan builds its operators
        # once, and hands its chunk ends to one nested _replay, which scans
        # or steps them. 24,080 steps are 2006 chunks, 167 chunks of chunks
        # and 13 of those: three levels. 1204 steps are 100 chunks: one.
        # Three records of their own transitions and of starts on chunks 2
        # and 9 and at T (never scanned) share one stack: still one scan,
        # and one nested _replay, per level.
        levels, nested, active = [], [], []
        blocks, scan, replay = systems._blocks, systems._scan, systems._replay

        def scanned(*args):
            active.append(len(nested))
            nested.append(0)
            try:
                return scan(*args)
            finally:
                active.pop()

        def replayed(*args):
            if active:
                nested[active[-1]] += 1
            return replay(*args)

        monkeypatch.setattr(systems, "_blocks", lambda m, keep: (
            levels.append(m.shape), blocks(m, keep))[1])
        monkeypatch.setattr(systems, "_scan", scanned)
        monkeypatch.setattr(systems, "_replay", replayed)
        m = 0.999 * np.array([[np.cos(0.1), -np.sin(0.1)],
                              [np.sin(0.1), np.cos(0.1)]])
        ms = np.stack([m, m.T, 0.5 * m])
        for n_steps, n_levels, m, starts in (
                (24080, 3, m, 0), (1204, 1, m, 0),
                (24080, 3, ms, np.array([13, 100, 24080]))):
            levels.clear()
            nested.clear()
            w = np.random.default_rng(13).standard_normal(
                (len(m) if m.ndim == 3 else 1, n_steps, 2))
            rows, failed = replay(np.zeros(w.shape[:1] + (2, 1)), w,
                                  slice(0, 1), str, lambda k: m, starts)
            assert not failed and len(levels) == n_levels
            assert nested == [1] * n_levels

    def test_every_scan_product_runs_on_one_blas_thread(self, monkeypatch):
        # A structural check, on any host: every slice of every product
        # _gemm forms, at every level, has at most SERIAL_GEMM multiply-adds,
        # which OpenBLAS forms on one thread, so its bits do not depend on
        # the thread count. A shared b: a 20-record, 1204-step stack; a
        # per-record b: a 24,080-step record of three levels.
        sizes, shared = [], set()
        matmul, gemm = np.matmul, systems._gemm

        def counted(a, b, **kw):
            sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return matmul(a, b, **kw)

        def wrapped(a, b, *args):
            shared.add(b.ndim == 2)
            with monkeypatch.context() as inner:
                inner.setattr(np, "matmul", counted)
                return gemm(a, b, *args)

        monkeypatch.setattr(systems, "_gemm", wrapped)
        rng = np.random.default_rng(15)
        for n_records, n_steps, m in (
                (20, 1204, _random_transition(rng, 6, 0.99)),
                (1, 24080, _random_transition(rng, 4, 0.99)[None])):
            shared.clear()
            sizes.clear()
            w = rng.standard_normal((n_records, n_steps, m.shape[-1]))
            rows, failed = systems._replay(
                np.zeros((n_records, m.shape[-1], 1)), w, slice(None), str,
                lambda k: m)
            assert not failed and shared == {m.ndim == 2}
            assert sizes and max(sizes) <= systems.SERIAL_GEMM

    def test_a_record_never_scanned_steps_apart(self, monkeypatch):
        # A record with start T (every record of a failed filter design)
        # steps through its record in one call, not one per chunk, and
        # leaves the others' scan alone.
        calls = []
        steps = systems._steps
        monkeypatch.setattr(systems, "_steps", lambda *args, **kw: (
            calls.append(args[1].shape), steps(*args, **kw))[1])
        rng = np.random.default_rng(14)
        m = _random_transition(rng, 2, 0.99)
        for n_steps in (600, 1200):
            calls.clear()
            w = rng.standard_normal((4, n_steps, 2))
            starts = np.array([0, 0, 0, n_steps])
            rows, failed = systems._replay(np.zeros((4, 2, 1)), w,
                                           slice(0, 1), str, lambda k: m,
                                           starts)
            # One stack: one call for the unscanned record, from step 0 to
            # T, before the scan, which masks its chunks. The scanned
            # records have no prefix and, T being whole chunks, no tail; the
            # nested _replay steps every record's chunk ends in two calls,
            # up to its last whole chunk of chunk ends and after it.
            assert not failed and len(calls) == 3
            for i in range(4):
                alone, _ = systems._replay(np.zeros((1, 2, 1)), w[i:i + 1],
                                           slice(0, 1), str, lambda k: m,
                                           starts[i:i + 1])
                assert np.array_equal(alone[:, 0], rows[:, i])

    def test_records_of_other_starts_share_one_stack(self):
        # Constant from steps 0, 13, 40 and never: first scanned chunks 0,
        # 2 and 4, and no scan; each record gets its own bits in the stack.
        starts = np.array([0, 13, 40, 100])
        rng = np.random.default_rng(11)
        ms = np.stack([[_random_transition(rng, 3, 1.00003) for _ in range(4)]
                       for _ in range(100)])

        def transition(k, ids=slice(None)):
            return np.stack([ms[min(k, s), i] for i, s in enumerate(
                starts)])[ids]

        x = rng.standard_normal((4, 3, 1))
        w = rng.standard_normal((4, 100, 3))
        rows, failed = systems._replay(x, w, slice(0, 2), str, transition,
                                       starts)
        steps, _ = systems._replay(x, w, slice(0, 2), str, transition, 100)
        assert not failed
        assert np.abs(rows - steps).max() <= 1e-12 * np.abs(steps).max()
        for i in range(4):
            alone, _ = systems._replay(
                x[i:i + 1], w[i:i + 1], slice(0, 2), str,
                lambda k: transition(k, [i]), starts[i:i + 1])
            assert np.array_equal(alone[:, 0], rows[:, i])

    def test_zero_transition(self):
        # M = 0 bounds no entering state: x_k = w_k exactly.
        w = np.random.default_rng(12).standard_normal((1, 100, 2))
        rows, failed = systems._replay(np.zeros((1, 2, 1)), w, slice(None),
                                       str, lambda k: np.zeros((2, 2)))
        assert not failed and np.array_equal(rows[:, 0], w[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_records=st.sampled_from([1, 3]),
           digits=st.floats(4.5, 40.0))
    def test_overflow_of_a_state_not_kept(self, seed, n_records, digits):
        # State 1 grows by 10**digits a step from finite drives and
        # overflows within the replay, mostly inside a chunk; only state 0
        # is kept, so a chunk that formed only the kept states would miss
        # the step.
        rng = np.random.default_rng([seed, 3])
        m = np.array([[0.5, 0.0], [0.0, 10.0 ** digits]])
        x = np.zeros((n_records, 2, 1))
        w = rng.uniform(0.5, 1.0, (n_records, 6 * systems.SCAN_CHUNK, 2))
        with np.errstate(invalid="ignore", over="ignore"):
            (_, failed), (_, expected) = (
                systems._replay(x, w, slice(0, 1), lambda i, k: "overflow",
                                lambda k: m, start) for start in (
                                    0, w.shape[1]))
        assert len(failed) == n_records
        assert {i: e.step for i, e in failed.items()} == {
            i: e.step for i, e in expected.items()}


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
        # simulate replays the recurrence through _replay, which adds the
        # drive and the noise as one term and scans in chunks: the states
        # move from this loop's by rounding alone, per column within 1e-12
        # of its largest magnitude (the replay tests' MEAN_RTOL).
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
        move = np.abs(data.truth_states - states).max(axis=0)
        assert np.all(move <= 1e-12 * np.abs(states).max(axis=0))

    def test_overflow_raises_at_its_step(self):
        # x_k = e^5 x_{k-1} + Bd overflows at step 143. A stack raises the
        # error of its lowest-index failed record, here record 0, though
        # record 1's 1e300 input overflows it first.
        model = LtiModel(a=[[50.0]], b=[[1.0]], c=[[1.0]])
        n = 2000
        v = np.ones((n, 1))
        with pytest.raises(DivergenceError,
                           match="non-finite simulated state") as exc:
            simulate(model, 0.1, n, v, np.zeros((n, 1)), np.zeros((n, 1)))
        assert exc.value.step == 143
        with pytest.raises(DivergenceError) as exc:
            simulate(model, 0.1, n, np.stack([v, 1e300 * v]),
                     np.zeros((2, n, 1)), np.zeros((2, n, 1)))
        assert exc.value.step == 143

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ValueError, match="process-noise"):
            simulate(model, 0.01, 10, np.zeros((10, 1)),
                     np.zeros((10, 3)), np.zeros((10, 1)))

    # 1800 steps are 150 chunks, which the scan's chunk ends scan in turn.
    @pytest.mark.parametrize("n_steps", [1, 2, 40, 1800])
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           full_state=st.booleans(), n_records=st.integers(1, 5))
    def test_stack_equals_each_record_alone(self, seed, n, full_state,
                                            n_records, n_steps):
        # A random stable plant with m = n or m < n.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        a -= (np.abs(np.linalg.eigvals(a).real).max() + 0.5) * np.eye(n)
        m = n if full_state or n == 1 else int(rng.integers(1, n))
        model = LtiModel(a=a, b=rng.standard_normal((n, 2)),
                         c=rng.standard_normal((m, n)))
        dt, length = 0.0083, n_steps + 2
        v = rng.standard_normal((n_records, length, 2))
        w = rng.standard_normal((n_records, length, n))
        z = rng.standard_normal((n_records, length, m))
        stacked = simulate(model, dt, n_steps, v, w, z)
        assert len(stacked) == n_records
        for i, data in enumerate(stacked):
            alone = simulate(model, dt, n_steps, v[i], w[i], z[i])
            for name in ("measurements", "inputs", "truth_states",
                         "truth_inputs"):
                assert np.array_equal(getattr(data, name),
                                      getattr(alone, name)), name
            assert data.truth_states.shape == (n_steps, n)
            assert not data.truth_states[0].any()

    def test_zero_steps_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="n_steps must be at least 1"):
            simulate(model, 0.01, 0, np.zeros((10, 1)), np.zeros((10, 2)),
                     np.zeros((10, 1)))

    def test_stacks_of_unequal_record_counts_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="same number of records"):
            simulate(model, 0.01, 10, np.zeros((3, 10, 1)),
                     np.zeros((3, 10, 2)), np.zeros((2, 10, 1)))

    def test_stack_shorter_than_the_run_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="at least n_steps"):
            simulate(model, 0.01, 10, np.zeros((3, 10, 1)),
                     np.zeros((3, 9, 2)), np.zeros((3, 10, 1)))

    def test_stacked_and_single_series_not_mixed(self):
        model = self._model()
        with pytest.raises(ValueError, match="stack every series"):
            simulate(model, 0.01, 10, np.zeros((3, 10, 1)),
                     np.zeros((10, 2)), np.zeros((3, 10, 1)))


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
        inputs, scales = normalized_pwm(path, load_flight_log(path).inputs)
        assert scales is not None
        np.testing.assert_allclose(inputs.mean(axis=0), np.zeros(4),
                                   atol=1e-12)
        spans = inputs.max(axis=0) - inputs.min(axis=0)
        np.testing.assert_allclose(spans, np.ones(4), atol=1e-12)
