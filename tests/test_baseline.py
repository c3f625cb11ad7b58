import numpy as np
import pytest

from citytrails.anomaly import classification_run
from citytrails.baseline import (
    baseline_matrix,
    dtw,
    frechet_discrete,
    normalized_similarity,
)
from citytrails.calibrate import DeConfig
from citytrails.perceptron import ActivityLevelSeries


def brute_force_dtw(a, b):
    """Plain path enumeration: no memoization, every monotone warping path."""
    def walk(i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = np.inf
        if i > 0:
            best = min(best, walk(i - 1, j))
        if j > 0:
            best = min(best, walk(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, walk(i - 1, j - 1))
        return cost + best
    return walk(len(a) - 1, len(b) - 1)


def brute_force_frechet(a, b):
    """Exhaustive coupling enumeration via the max-of-min recursion, no memo."""
    def walk(i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = np.inf
        if i > 0:
            best = min(best, walk(i - 1, j))
        if j > 0:
            best = min(best, walk(i, j - 1))
        if i > 0 and j > 0:
            best = min(best, walk(i - 1, j - 1))
        return max(cost, best)
    return walk(len(a) - 1, len(b) - 1)


class TestDtw:
    def test_identical_inputs_zero(self):
        xs = [0.1, 0.5, 0.9, 0.2]
        assert dtw(xs, xs) == 0.0

    def test_warping_absorbs_repetition(self):
        assert dtw([0, 0, 1], [0, 1]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b = rng.integers(0, 10, 5), rng.integers(0, 10, 7)
            assert dtw(a, b) == dtw(b, a)

    def test_never_worse_than_lockstep(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = rng.uniform(0, 1, 12), rng.uniform(0, 1, 12)
            assert dtw(a, b) <= np.abs(a - b).sum() + 1e-12

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = rng.integers(0, 10, rng.integers(1, 7)).astype(float)
            b = rng.integers(0, 10, rng.integers(1, 7)).astype(float)
            assert dtw(a, b) == brute_force_dtw(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dtw([], [1.0])


class TestFrechet:
    def test_identical_inputs_zero(self):
        xs = [0.3, 0.7, 0.1]
        assert frechet_discrete(xs, xs) == 0.0

    def test_single_points(self):
        assert frechet_discrete([0.0], [3.0]) == 3.0

    def test_endpoint_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = rng.uniform(0, 5, 8), rng.uniform(0, 5, 6)
            lower = max(abs(a[0] - b[0]), abs(a[-1] - b[-1]))
            assert frechet_discrete(a, b) >= lower - 1e-12

    def test_matches_exhaustive_coupling(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.integers(0, 10, rng.integers(1, 7)).astype(float)
            b = rng.integers(0, 10, rng.integers(1, 7)).astype(float)
            assert frechet_discrete(a, b) == brute_force_frechet(a, b)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a, b = rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)
            assert frechet_discrete(a, b) == frechet_discrete(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            frechet_discrete([1.0], [])


class TestMeasure:
    def test_normalization_formula(self):
        assert normalized_similarity(0.0, 10) == 1.0
        assert normalized_similarity(5.0, 10) == pytest.approx(1 / 1.5)

    def test_unknown_method_rejected(self):
        pool, _ = make_level_pool(0, per_class=1, length=4)
        with pytest.raises(ValueError):
            baseline_matrix(pool, "euclid")


def make_level_pool(seed, per_class=4, length=40):
    rng = np.random.default_rng(seed)
    pool, classes = [], []
    offsets = {"W": 1.5, "E": 4.0, "L": 6.2}
    for letter, base in offsets.items():
        for k in range(per_class):
            levels = np.clip(base + rng.normal(0, 0.1, length), 0, 7)
            pool.append(ActivityLevelSeries(levels, day_id=f"{letter}{k}"))
            classes.append(letter)
    return pool, classes


class TestBaselineMatrix:
    def test_matches_scalar_measure(self):
        pool, _ = make_level_pool(0, per_class=2, length=12)
        matrix = baseline_matrix(pool, "dtw")
        for i in range(len(pool)):
            for j in range(len(pool)):
                a, b = pool[i].levels / 7, pool[j].levels / 7
                expected = normalized_similarity(dtw(a, b), a.size)
                assert matrix.values[i, j] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_with_unit_diagonal(self):
        pool, _ = make_level_pool(1, per_class=2, length=10)
        matrix = baseline_matrix(pool, "frechet")
        assert np.array_equal(matrix.values, matrix.values.T)
        assert np.allclose(np.diag(matrix.values), 1.0)


class TestBaselineClassify:
    def test_separable_pool_classified_perfectly(self):
        pool, classes = make_level_pool(2, per_class=8)
        flags = [False] * len(pool)
        # inject two obvious anomalies per class by scrambling levels
        rng = np.random.default_rng(3)
        for k in (0, 8, 16):
            scrambled = np.clip(pool[k].levels + rng.uniform(2, 3, len(pool[k])), 0, 7)
            pool[k] = ActivityLevelSeries(scrambled, day_id=pool[k].day_id)
            flags[k] = True
        for method in ("dtw", "frechet"):
            report = classification_run(
                pool, classes, flags,
                matrix_fn=lambda pats: baseline_matrix(pats, method),
                de_cfg=DeConfig(population_size=12, generations=40, seed=4))
            assert report.accuracy == 1.0

    def test_deterministic_given_seeds(self):
        pool, classes = make_level_pool(5, per_class=6)
        flags = [i % 9 == 0 for i in range(len(pool))]
        cfg = DeConfig(population_size=10, generations=15, seed=8)
        r1, r2 = (classification_run(pool, classes, flags,
                                     matrix_fn=lambda pats: baseline_matrix(pats, "dtw"),
                                     de_cfg=cfg, cluster_seed=2)
                  for _ in range(2))
        assert r1.accuracy == r2.accuracy
        assert np.array_equal(r1.indices, r2.indices)
