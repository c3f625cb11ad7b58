import math

import numpy as np
import pytest

from citytrails.series import generate_archetype
from citytrails.srf import (
    PARAM_KEYS,
    SrfParams,
    SrfState,
    activate,
    clump,
    default_warmup,
    indexed_similarity,
    pair_similarity,
    similarity_series,
    step,
)


def run_object_path(xa, xb, p):
    """Reference stepwise run; returns the raw similarity stream."""
    state = SrfState.fresh(p)
    raws = []
    for a, b in zip(xa, xb):
        state, raw = step(state, float(a), float(b))
        raws.append(raw)
    return np.array(raws)


def reference_streams(xa, xb, p, warmup):
    """Activated stepwise-reference streams past warmup."""
    return activate(run_object_path(xa, xb, p)[warmup:], p)


class TestClump:
    def test_saturates_low(self):
        p = SrfParams.defaults()
        assert clump(0.0, p) < 0.01

    def test_saturates_high(self):
        p = SrfParams.defaults()
        assert clump(1.0, p) > 0.99

    def test_midpoint_exact_half(self):
        p = SrfParams(30, 0.5, 30, 0.5, 0.2, 0.1, 20, 0.5)
        assert clump(0.5, p) == 0.5

    def test_non_decreasing(self):
        p = SrfParams.defaults()
        xs = np.linspace(0, 1, 200)
        assert np.all(np.diff(clump(xs, p)) >= 0)

    def test_three_plateaus(self):
        p = SrfParams.defaults()
        assert abs(float(clump(0.5, p)) - 0.5) < 0.01
        assert float(clump(0.1, p)) < 0.01
        assert float(clump(0.9, p)) > 0.99


class TestActivate:
    def test_midpoint(self):
        p = SrfParams.defaults()
        assert activate(p.beta_a, p) == 0.5

    def test_low_similarity_suppressed(self):
        # sigma(-5) computed independently
        p = SrfParams(30, 1 / 3, 30, 2 / 3, 0.2, 0.1, alpha_a=10, beta_a=0.5)
        expected = 1.0 / (1.0 + math.exp(5.0))
        assert float(activate(0.0, p)) == pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing(self):
        p = SrfParams.defaults()
        xs = np.linspace(0, 1, 100)
        assert np.all(np.diff(activate(xs, p)) > 0)


class TestStep:
    def test_identical_streams_give_raw_one(self):
        p = SrfParams.defaults()
        xs = np.random.default_rng(0).uniform(0, 1, 30)
        raws = run_object_path(xs, xs, p)
        assert np.all(raws == 1.0)

    def test_constant_extremes_give_raw_zero(self):
        p = SrfParams.defaults()
        raws = run_object_path(np.zeros(20), np.ones(20), p)
        assert np.all(raws == 0.0)

    def test_delay_lowers_similarity(self):
        p = SrfParams(30, 1 / 3, 30, 2 / 3, epsilon=0.1, delta=0.6,
                      alpha_a=20, beta_a=0.5)
        xs = generate_archetype("Rise", 60).samples
        aligned = similarity_series(xs, xs, p).mean
        delayed = similarity_series(xs, np.roll(xs, 6), p).mean
        assert delayed < aligned

    def test_counts_steps(self):
        p = SrfParams.defaults()
        state = SrfState.fresh(p)
        state, _ = step(state, 0.5, 0.5)
        state, _ = step(state, 0.2, 0.8)
        assert state.steps_processed == 2


class TestSimilaritySeries:
    def test_self_comparison_mean_is_activate_one(self):
        p = SrfParams.defaults()
        xs = np.random.default_rng(1).uniform(0, 1, 50)
        result = similarity_series(xs, xs, p)
        assert result.mean == pytest.approx(float(activate(1.0, p)), rel=1e-12)

    def test_symmetric_in_arguments(self):
        p = SrfParams.defaults()
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        assert similarity_series(a, b, p).mean == similarity_series(b, a, p).mean

    def test_length_mismatch_rejected(self):
        p = SrfParams.defaults()
        with pytest.raises(ValueError):
            similarity_series(np.zeros(5), np.zeros(6), p)

    def test_stream_length_honors_warmup(self):
        p = SrfParams.defaults()
        xs = np.linspace(0, 1, 40)
        result = similarity_series(xs, xs, p, warmup=7)
        assert result.activated.size == 33
        assert default_warmup(40) == 4

    def test_outputs_in_open_unit_interval(self):
        p = SrfParams.defaults()
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = similarity_series(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), p)
            assert np.all((r.activated > 0) & (r.activated < 1))


class TestEngineEquivalence:
    def test_batch_matches_stepwise_reference(self):
        p = SrfParams(12, 0.3, 45, 0.7, epsilon=0.17, delta=0.23,
                      alpha_a=33, beta_a=0.61)
        rng = np.random.default_rng(4)
        xa = rng.uniform(0, 1, (5, 36))
        xb = rng.uniform(0, 1, (5, 36))
        means, streams = pair_similarity(xa, xb, p, warmup=4, return_streams=True)
        for i in range(5):
            raws = run_object_path(xa[i], xb[i], p)
            assert np.allclose(streams[i], activate(raws[4:], p), atol=1e-12)
            assert means[i] == pytest.approx(float(activate(raws[4:], p).mean()))

    def test_per_row_parameter_matrix(self):
        rng = np.random.default_rng(5)
        xa = rng.uniform(0, 1, (3, 24))
        xb = rng.uniform(0, 1, (3, 24))
        rows = [SrfParams.defaults(),
                SrfParams(10, 0.2, 10, 0.8, 0.1, 0.4, 15, 0.4),
                SrfParams(60, 0.4, 60, 0.6, 0.3, 0.05, 80, 0.7)]
        pmat = np.stack([r.to_vector() for r in rows])
        batched = pair_similarity(xa, xb, pmat, warmup=3)
        for i, p in enumerate(rows):
            single = pair_similarity(xa[i], xb[i], p, warmup=3)
            assert batched[i] == pytest.approx(single[0], rel=1e-12)

    def test_repeated_stream_indices(self):
        p = SrfParams(20, 0.35, 50, 0.65, epsilon=0.12, delta=0.3,
                      alpha_a=25, beta_a=0.55)
        streams = np.random.default_rng(7).uniform(0, 1, (4, 30))
        ia = np.array([0, 0, 2, 3, 1, 0])
        ib = np.array([1, 1, 2, 0, 3, 0])
        means, acts = indexed_similarity(streams, ia, ib, p, warmup=3,
                                         return_streams=True)
        assert means.shape == (6,)
        for k, (a, b) in enumerate(zip(ia, ib)):
            expected = reference_streams(streams[a], streams[b], p, 3)
            assert np.allclose(acts[k], expected, atol=1e-12)
            assert means[k] == pytest.approx(float(expected.mean()))

    def test_parameter_rows_share_pairs(self):
        rows = [SrfParams.defaults(),
                SrfParams(10, 0.2, 10, 0.8, 0.1, 0.4, 15, 0.4),
                SrfParams(60, 0.4, 60, 0.6, 0.3, 0.05, 80, 0.7)]
        pmat = np.stack([r.to_vector() for r in rows])
        streams = np.random.default_rng(8).uniform(0, 1, (3, 26))
        ia, ib = np.array([0, 1, 2, 2]), np.array([1, 2, 0, 2])
        means, acts = indexed_similarity(streams, ia, ib, pmat, warmup=2,
                                         return_streams=True)
        assert means.shape == (3, 4)
        for k, p in enumerate(rows):
            for j, (a, b) in enumerate(zip(ia, ib)):
                expected = reference_streams(streams[a], streams[b], p, 2)
                assert np.allclose(acts[k, j], expected, atol=1e-12)
                assert means[k, j] == pytest.approx(float(expected.mean()))

    def test_pair_rows_per_parameter_row(self):
        rows = [SrfParams(15, 0.3, 35, 0.7, 0.2, 0.2, 30, 0.5),
                SrfParams(45, 0.25, 20, 0.75, 0.08, 0.6, 12, 0.45)]
        pmat = np.stack([r.to_vector() for r in rows])
        streams = np.random.default_rng(9).uniform(0, 1, (5, 28))
        ia = np.array([[0, 1, 4], [3, 3, 2]])
        ib = np.array([[4, 1, 2], [0, 1, 2]])
        means = indexed_similarity(streams, ia, ib, pmat, warmup=4)
        assert means.shape == (2, 3)
        for k, p in enumerate(rows):
            for j in range(3):
                expected = reference_streams(streams[ia[k, j]], streams[ib[k, j]], p, 4)
                assert means[k, j] == pytest.approx(float(expected.mean()))
        # a broadcast column matches every pair of its row against one stream
        column = indexed_similarity(streams, ia, np.array([[2], [0]]), pmat, warmup=4)
        full = indexed_similarity(streams, ia, np.array([[2] * 3, [0] * 3]), pmat,
                                  warmup=4)
        assert np.array_equal(column, full)

    def test_invalid_pair_indices_rejected(self):
        streams = np.zeros((3, 10))
        p = SrfParams.defaults()
        pmat = np.stack([p.to_vector()] * 2)
        for ia, ib in ((np.array([0, 3]), np.array([1, 1])),
                       (np.array([-1]), np.array([0])),
                       (np.array([0.0]), np.array([1]))):
            with pytest.raises(ValueError):
                indexed_similarity(streams, ia, ib, p)
        with pytest.raises(ValueError):
            indexed_similarity(streams, np.zeros((3, 2), int), np.ones(2, int), pmat)

    def test_zero_delta_permutation_invariance(self):
        # with no evaporation, trails are order-independent mark sums
        p = SrfParams(30, 1 / 3, 30, 2 / 3, 0.2, delta=0.0, alpha_a=20, beta_a=0.5)
        rng = np.random.default_rng(6)
        xs = rng.uniform(0, 1, 40)
        raws = run_object_path(xs, rng.permutation(xs), p)
        assert raws[-1] == pytest.approx(1.0, abs=1e-9)


class TestParams:
    def test_vector_round_trip(self):
        p = SrfParams(11, 0.25, 17, 0.75, 0.12, 0.34, 56, 0.78)
        assert SrfParams.from_vector(p.to_vector()) == p

    def test_block_keys_exact(self):
        assert tuple(SrfParams.defaults().to_block()) == PARAM_KEYS

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SrfParams(30, 0.3, 30, 0.7, epsilon=0.0, delta=0.1, alpha_a=20, beta_a=0.5)
        with pytest.raises(ValueError):
            SrfParams(30, 0.3, 30, 0.7, 0.2, delta=-0.1, alpha_a=20, beta_a=0.5)
        with pytest.raises(ValueError):
            SrfParams(-1, 0.3, 30, 0.7, 0.2, 0.1, 20, 0.5)
        with pytest.raises(ValueError):
            SrfParams(30, 1.3, 30, 0.7, 0.2, 0.1, 20, 0.5)
