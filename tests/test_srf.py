import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from citytrails import srf
from citytrails.perceptron import StigmergicPerceptron, transform_many
from citytrails.series import ActivityTimeSeries, generate_archetype
from citytrails.srf import (
    PARAM_KEYS,
    SrfParams,
    activate,
    clump,
    default_warmup,
    final_trail,
    indexed_similarity,
    pair_similarity,
)
from citytrails.stigspace import jaccard

# Brute-force reference for the SRF mechanics. It spells out each step cell
# by cell and shares no code with the package but the warmup length
# (``default_warmup``, pinned on its own): the double-sigmoid clumping,
# 100 cells on [0, 1], a unit trapezoid with a plateau of half its width,
# evaporation clamped at zero, the Jaccard coefficient as sum of minima over
# sum of maxima, and the activation sigmoid.
ORACLE_CELLS = 100


def oracle_sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def oracle_clump(x, p):
    return 0.5 * (oracle_sigmoid(p.alpha_c1 * (x - p.beta_c1))
                  + oracle_sigmoid(p.alpha_c2 * (x - p.beta_c2)))


def oracle_activate(raws, p):
    return np.array([oracle_sigmoid(p.alpha_a * (r - p.beta_a)) for r in raws])


def oracle_mark(center, width):
    half = width / 2.0
    plateau = 0.5 * half
    cells = []
    for i in range(ORACLE_CELLS):
        r = abs((i + 0.5) / ORACLE_CELLS - center)
        if r <= plateau:
            cells.append(1.0)
        elif r < half:
            cells.append((half - r) / (half - plateau))
        else:
            cells.append(0.0)
    return cells


def oracle_trails(xs, p):
    """The trail after each sample of one stream."""
    trail = [0.0] * ORACLE_CELLS
    trails = []
    for x in xs:
        mark = oracle_mark(oracle_clump(float(x), p), p.epsilon)
        trail = [max(v + m - p.delta, 0.0) for v, m in zip(trail, mark)]
        trails.append(trail)
    return trails


def oracle_final_trail(xs, p):
    return oracle_trails(xs, p)[-1]


def oracle_jaccard(t1, t2):
    union = sum(max(a, b) for a, b in zip(t1, t2))
    if union == 0.0:
        return 1.0
    return sum(min(a, b) for a, b in zip(t1, t2)) / union


def oracle_raws(xa, xb, p):
    """The raw similarity stream of one pair."""
    return np.array([oracle_jaccard(ta, tb)
                     for ta, tb in zip(oracle_trails(xa, p), oracle_trails(xb, p))])


def oracle_streams(xa, xb, p):
    """The activated similarity stream of one pair past the warmup."""
    return oracle_activate(oracle_raws(xa, xb, p)[default_warmup(len(xa)):], p)


def engine_streams(xa, xb, p):
    """The engine's activated similarity stream of one pair past the warmup."""
    return indexed_similarity(np.stack([xa, xb]), [0], [1], p,
                              return_streams=True)[1][0]


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
    # With beta_a at the expected raw similarity the activation sits at its
    # steep midpoint, where a raw value off by a rounding step moves the
    # engine's stream off 0.5.
    def test_identical_streams_give_raw_one(self):
        p = dataclasses.replace(SrfParams.defaults(), beta_a=1.0)
        xs = np.random.default_rng(0).uniform(0, 1, 30)
        assert np.all(oracle_raws(xs, xs, p) == 1.0)
        assert np.all(engine_streams(xs, xs, p) == 0.5)

    def test_constant_extremes_give_raw_zero(self):
        p = dataclasses.replace(SrfParams.defaults(), beta_a=0.0)
        assert np.all(oracle_raws(np.zeros(20), np.ones(20), p) == 0.0)
        assert np.all(engine_streams(np.zeros(20), np.ones(20), p) == 0.5)

    def test_delay_lowers_similarity(self):
        p = SrfParams(30, 1 / 3, 30, 2 / 3, epsilon=0.1, delta=0.6,
                      alpha_a=20, beta_a=0.5)
        xs = generate_archetype("Rise", 60).samples
        aligned = pair_similarity(xs, xs, p)[0]
        delayed = pair_similarity(xs, np.roll(xs, 6), p)[0]
        assert delayed < aligned


class TestSimilaritySeries:
    """The activated similarity series of one pair, through pair_similarity."""

    def test_self_comparison_mean_is_activate_one(self):
        p = SrfParams.defaults()
        xs = np.random.default_rng(1).uniform(0, 1, 50)
        assert pair_similarity(xs, xs, p)[0] == pytest.approx(float(activate(1.0, p)),
                                                              rel=1e-12)

    def test_symmetric_in_arguments(self):
        p = SrfParams.defaults()
        rng = np.random.default_rng(2)
        a, b = rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)
        assert pair_similarity(a, b, p)[0] == pair_similarity(b, a, p)[0]

    def test_length_mismatch_rejected(self):
        p = SrfParams.defaults()
        with pytest.raises(ValueError):
            pair_similarity(np.zeros(5), np.zeros(6), p)

    def test_stream_length_honors_warmup(self):
        assert default_warmup(40) == 4
        assert default_warmup(144) == 14
        p = SrfParams.defaults()
        xs = np.linspace(0, 1, 40)
        assert engine_streams(xs, xs, p).shape == (36,)
        day = ActivityTimeSeries(np.linspace(0, 1, 144))
        levels = transform_many(StigmergicPerceptron.untrained(144), [day])
        assert len(levels[0]) == 130
        with pytest.raises(ValueError):
            indexed_similarity(np.zeros((2, 1)), [0], [1], p)

    def test_outputs_in_open_unit_interval(self):
        p = SrfParams.defaults()
        rng = np.random.default_rng(3)
        for _ in range(10):
            streams = engine_streams(rng.uniform(0, 1, 30), rng.uniform(0, 1, 30), p)
            assert np.all((streams > 0) & (streams < 1))


class TestEngineEquivalence:
    def test_batch_matches_stepwise_reference(self):
        p = SrfParams(12, 0.3, 45, 0.7, epsilon=0.17, delta=0.23,
                      alpha_a=33, beta_a=0.61)
        rng = np.random.default_rng(4)
        xa = rng.uniform(0, 1, (5, 36))
        xb = rng.uniform(0, 1, (5, 36))
        means = pair_similarity(xa, xb, p)
        _, streams = indexed_similarity(np.concatenate([xa, xb]), np.arange(5),
                                        5 + np.arange(5), p, return_streams=True)
        for i in range(5):
            expected = oracle_streams(xa[i], xb[i], p)
            assert np.allclose(streams[i], expected, atol=1e-12)
            assert means[i] == pytest.approx(float(expected.mean()))

    def test_repeated_stream_indices(self):
        p = SrfParams(20, 0.35, 50, 0.65, epsilon=0.12, delta=0.3,
                      alpha_a=25, beta_a=0.55)
        streams = np.random.default_rng(7).uniform(0, 1, (4, 30))
        ia = np.array([0, 0, 2, 3, 1, 0])
        ib = np.array([1, 1, 2, 0, 3, 0])
        means, acts = indexed_similarity(streams, ia, ib, p, return_streams=True)
        assert means.shape == (6,)
        for k, (a, b) in enumerate(zip(ia, ib)):
            expected = oracle_streams(streams[a], streams[b], p)
            assert np.allclose(acts[k], expected, atol=1e-12)
            assert means[k] == pytest.approx(float(expected.mean()))

    def test_parameter_rows_share_pairs(self):
        rows = [SrfParams.defaults(),
                SrfParams(10, 0.2, 10, 0.8, 0.1, 0.4, 15, 0.4),
                SrfParams(60, 0.4, 60, 0.6, 0.3, 0.05, 80, 0.7)]
        pmat = np.stack([r.to_vector() for r in rows])
        streams = np.random.default_rng(8).uniform(0, 1, (3, 26))
        ia, ib = np.array([0, 1, 2, 2]), np.array([1, 2, 0, 2])
        means, acts = indexed_similarity(streams, ia, ib, pmat, return_streams=True)
        assert means.shape == (3, 4)
        for k, p in enumerate(rows):
            for j, (a, b) in enumerate(zip(ia, ib)):
                expected = oracle_streams(streams[a], streams[b], p)
                assert np.allclose(acts[k, j], expected, atol=1e-12)
                assert means[k, j] == pytest.approx(float(expected.mean()))

    def test_pair_rows_per_parameter_row(self):
        rows = [SrfParams(15, 0.3, 35, 0.7, 0.2, 0.2, 30, 0.5),
                SrfParams(45, 0.25, 20, 0.75, 0.08, 0.6, 12, 0.45)]
        pmat = np.stack([r.to_vector() for r in rows])
        streams = np.random.default_rng(9).uniform(0, 1, (5, 28))
        ia = np.array([[0, 1, 4], [3, 3, 2]])
        ib = np.array([[4, 1, 2], [0, 1, 2]])
        means = indexed_similarity(streams, ia, ib, pmat)
        assert means.shape == (2, 3)
        for k, p in enumerate(rows):
            for j in range(3):
                expected = oracle_streams(streams[ia[k, j]], streams[ib[k, j]], p)
                assert means[k, j] == pytest.approx(float(expected.mean()))
        # a broadcast column matches every pair of its row against one stream
        column = indexed_similarity(streams, ia, np.array([[2], [0]]), pmat)
        full = indexed_similarity(streams, ia, np.array([[2] * 3, [0] * 3]), pmat)
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
        shuffled = rng.permutation(xs)
        raws = oracle_raws(xs, shuffled, p)
        assert raws[-1] == pytest.approx(1.0, abs=1e-9)
        last = jaccard(final_trail(xs, p), final_trail(shuffled, p))
        assert float(last) == pytest.approx(1.0, abs=1e-9)

    def test_final_trail_matches_reference(self):
        rng = np.random.default_rng(10)
        for p in (SrfParams.defaults(),
                  SrfParams(45, 0.25, 20, 0.75, 0.08, 0.6, 12, 0.45),
                  SrfParams(15, 0.3, 35, 0.7, 0.37, 0.02, 30, 0.5)):
            xs = rng.uniform(0, 1, 33)
            assert np.allclose(final_trail(xs, p), oracle_final_trail(xs, p),
                               atol=1e-12)


class TestPairBlocks:
    """Each engine step compares PAIR_BLOCK pairs at a time; the blocks cut
    the flattened (K * P) pairs and must not change a bit."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("extra", [0, 1], ids=["whole-blocks", "one-more"])
    def test_blocks_match_default(self, monkeypatch, block, extra):
        # P is the block, or one more, which leaves a partial last block; the
        # default block takes every case here in one.
        n_pairs = block + extra
        rng = np.random.default_rng(12)
        streams = rng.uniform(0, 1, (12, 24))
        rows = np.stack([SrfParams.defaults().to_vector(),
                         SrfParams(10, 0.2, 10, 0.8, 0.1, 0.4, 15, 0.4).to_vector(),
                         SrfParams(60, 0.4, 60, 0.6, 0.3, 0.05, 80, 0.7).to_vector()])
        cases = [  # (P,), (K, P), and transform_many's (K, 1) against (P,)
            (SrfParams.defaults(), rng.integers(0, 12, n_pairs),
             rng.integers(0, 12, n_pairs)),
            (rows, rng.integers(0, 12, (3, n_pairs)), rng.integers(0, 12, (3, n_pairs))),
            (rows, rng.integers(0, 12, n_pairs), rng.integers(0, 12, (3, 1))),
        ]
        expected = [indexed_similarity(streams, ia, ib, p, return_streams=True)
                    for p, ia, ib in cases]
        monkeypatch.setattr(srf, "PAIR_BLOCK", block)
        for (p, ia, ib), (means, acts) in zip(cases, expected):
            got_means, got_acts = indexed_similarity(streams, ia, ib, p,
                                                     return_streams=True)
            assert np.array_equal(got_means, means)
            assert np.array_equal(got_acts, acts)

    def test_call_traces_at_most_twice_its_result(self):
        # every upper-triangle pair of 64 days, as in a similarity matrix
        streams = np.random.default_rng(13).uniform(0, 1, (64, 130))
        ia, ib = np.triu_indices(64)
        p = SrfParams.defaults()
        tracemalloc.start()
        try:
            indexed_similarity(streams, ia, ib, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result_bytes = ia.size * streams.shape[1] * 8  # the (P, L) raw similarities
        assert peak <= 2 * result_bytes


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
