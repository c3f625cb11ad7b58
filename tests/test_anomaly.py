from datetime import date

import numpy as np
import pytest

import citytrails.anomaly as anomaly
from citytrails.anomaly import (
    AnomalyRecord,
    SimilarityMatrix,
    affinity_triple,
    classification_run,
    expected_class_for,
    fcm_objective,
    fuzzy_cmeans,
    index_from_similarities,
    map_clusters_to_classes,
    point_biserial,
    representatives,
    scale_levels,
    similarity_matrix,
)
from citytrails.calibrate import DeConfig
from citytrails.perceptron import ActivityLevelSeries
from citytrails.srf import SrfParams, activate


def fcm_from(points, init, tol=1e-6, max_iter=300):
    """One fuzzy c-means alternation started from the given centroids;
    returns its (centroids, memberships)."""
    return anomaly._fcm_single(np.asarray(points, dtype=float),
                               np.array(init, dtype=float), tol, max_iter)


def reference_fcm(points, centroids, m, iterations):
    """Independent plain-loop alternation for cross-checking fuzzy c-means."""
    points = np.asarray(points, dtype=float)
    c = centroids.shape[0]
    for _ in range(iterations):
        u = np.zeros((points.shape[0], c))
        for i, x in enumerate(points):
            d = np.array([np.linalg.norm(x - centroids[k]) for k in range(c)])
            if np.any(d == 0):
                u[i] = (d == 0) / (d == 0).sum()
                continue
            for k in range(c):
                u[i, k] = 1.0 / np.sum((d[k] / d) ** (2.0 / (m - 1.0)))
        w = u ** m
        centroids = np.array([(w[:, k:k + 1] * points).sum(axis=0) / w[:, k].sum()
                              for k in range(c)])
    return centroids, u


def blob_points(seed=0, n=15, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 5.0], [-4.0, 6.0]])
    pts = np.concatenate([c + rng.normal(0, spread, (n, 2)) for c in centers])
    return pts, np.repeat(np.arange(3), n)


def level_series(values, day_id=None):
    return ActivityLevelSeries(np.asarray(values, dtype=float), day_id=day_id)


class TestExpectedClass:
    def test_weekday_mapping(self):
        # 2015-01-05 is a Monday
        week = [expected_class_for(date(2015, 1, 5 + k)) for k in range(7)]
        assert week == ["W", "W", "W", "W", "E", "E", "L"]


class TestSimilarityMatrix:
    def make_patterns(self, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for k, base in enumerate((1.5, 4.0, 6.0)):
            for i in range(3):
                out.append(level_series(np.clip(base + rng.normal(0, 0.1, 30), 0, 7),
                                        day_id=f"d{k}{i}"))
        return out

    def test_diagonal_is_self_activation(self):
        p = SrfParams.defaults()
        matrix = similarity_matrix(self.make_patterns(), p)
        # self-similarity is activate(1); the per-step mean costs one ulp
        assert np.allclose(np.diag(matrix.values), float(activate(1.0, p)),
                           rtol=0, atol=1e-14)

    def test_exactly_symmetric(self):
        matrix = similarity_matrix(self.make_patterns(1), SrfParams.defaults())
        assert np.array_equal(matrix.values, matrix.values.T)

    def test_permutation_consistency(self):
        p = SrfParams.defaults()
        patterns = self.make_patterns(2)
        base = similarity_matrix(patterns, p)
        order = [4, 2, 7, 0, 1, 8, 3, 6, 5]
        permuted = similarity_matrix([patterns[i] for i in order], p)
        assert np.allclose(permuted.values,
                           base.values[np.ix_(order, order)], atol=1e-12)

    def test_block_structure_on_separated_classes(self):
        p = SrfParams.defaults()
        matrix = similarity_matrix(self.make_patterns(3), p)
        labels = np.repeat(np.arange(3), 3)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(9, dtype=bool)
        within = matrix.values[same & off_diag].mean()
        between = matrix.values[~same].mean()
        assert within > between

    def test_chunking_matches_single_pass(self, monkeypatch):
        p = SrfParams.defaults()
        patterns = self.make_patterns(4)
        b = similarity_matrix(patterns, p)
        monkeypatch.setattr(anomaly, "MATRIX_CHUNK_PAIRS", 7)
        a = similarity_matrix(patterns, p)
        assert np.array_equal(a.values, b.values)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            similarity_matrix([level_series(np.ones(10)),
                               level_series(np.ones(12))], SrfParams.defaults())

    def test_csv_round_trip(self):
        matrix = similarity_matrix(self.make_patterns(5), SrfParams.defaults())
        header = matrix.to_csv().split("\n")[0].split(",")
        assert header[0] == "day_id"
        assert tuple(header[1:]) == matrix.day_ids

    def test_scale_levels(self):
        assert np.allclose(scale_levels(level_series([0, 3.5, 7.0])), [0, 0.5, 1])


class TestFuzzyCMeans:
    def test_blobs_get_crisp_memberships(self):
        pts, labels = blob_points()
        _, memberships = fuzzy_cmeans(pts, seed=1)
        assert np.all(memberships.max(axis=1) >= 0.95)
        assigned = memberships.argmax(axis=1)
        for cluster in range(3):
            assert len(set(labels[assigned == cluster])) == 1

    def test_matches_independent_reference(self):
        pts, _ = blob_points(seed=2)
        init = pts[[0, 20, 40]]
        centroids, memberships = fcm_from(pts, init, tol=0.0, max_iter=12)
        ref_centroids, ref_u = reference_fcm(pts, init.copy(), 2.0, 12)
        order = [int(np.argmin(np.linalg.norm(ref_centroids - c, axis=1)))
                 for c in centroids]
        assert np.allclose(centroids, ref_centroids[order], atol=1e-8)
        assert np.allclose(memberships, ref_u[:, order], atol=1e-8)

    def test_memberships_sum_to_one(self):
        pts, _ = blob_points(seed=3, spread=1.5)
        _, memberships = fuzzy_cmeans(pts, seed=4)
        assert np.all(memberships >= 0)
        assert np.allclose(memberships.sum(axis=1), 1.0, atol=1e-9)

    def test_objective_non_increasing(self):
        pts, _ = blob_points(seed=5, spread=2.0)
        init = pts[[1, 11, 31]]
        values = [fcm_objective(pts, *fcm_from(pts, init, tol=0.0, max_iter=steps))
                  for steps in range(1, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_duplicated_points_keep_centroids(self):
        pts, _ = blob_points(seed=6)
        init = pts[[0, 20, 40]]
        single, _ = fcm_from(pts, init)
        doubled, _ = fcm_from(np.vstack([pts, pts]), init)
        assert np.allclose(single, doubled, atol=1e-9)

    def test_point_on_centroid_gets_hard_membership(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [6.0, 5.0]])
        _, memberships = fcm_from(pts, pts[[0, 2]], max_iter=0)
        assert memberships[0, 0] == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 3 days.*got 2"):
            fuzzy_cmeans(np.zeros((2, 3)))


class TestRepresentatives:
    def test_k1_matches_brute_force(self):
        pts, _ = blob_points(seed=7)
        centroids, memberships = fuzzy_cmeans(pts, seed=8)
        assigned = memberships.argmax(axis=1)
        reps = representatives(centroids, assigned, pts, k=1)
        for cluster in range(3):
            members = np.flatnonzero(assigned == cluster)
            d = [np.linalg.norm(pts[i] - centroids[cluster]) for i in members]
            assert reps[cluster] == [int(members[int(np.argmin(d))])]

    def test_k_equal_class_size_returns_all_sorted(self):
        pts, _ = blob_points(seed=9, n=6)
        centroids, memberships = fuzzy_cmeans(pts, seed=10)
        assigned = memberships.argmax(axis=1)
        reps = representatives(centroids, assigned, pts, k=6)
        for cluster in range(3):
            assert sorted(reps[cluster]) == sorted(
                np.flatnonzero(assigned == cluster).tolist())
            d = [np.linalg.norm(pts[i] - centroids[cluster])
                 for i in reps[cluster]]
            assert d == sorted(d)

    def test_far_outlier_does_not_shift_top_representative(self):
        # with the centroids held fixed, adding a distant member cannot
        # reorder the existing distance ranking
        pts, _ = blob_points(seed=11)
        centroids, memberships = fuzzy_cmeans(pts, seed=12)
        assigned = memberships.argmax(axis=1)
        top = representatives(centroids, assigned, pts, k=1)
        pts2 = np.vstack([pts, pts[0] + np.array([1.5, 1.5])])
        centroids2, memberships2 = fcm_from(pts2, centroids, max_iter=0)
        top2 = representatives(centroids2, memberships2.argmax(axis=1), pts2, k=1)
        cluster_of_first = int(assigned[top[0][0]])
        assert top2[cluster_of_first][0] == top[cluster_of_first][0]

    def test_small_cluster_returns_all(self):
        pts, _ = blob_points(seed=13, n=3)
        centroids, memberships = fuzzy_cmeans(pts, seed=14)
        reps = representatives(centroids, memberships.argmax(axis=1), pts, k=5)
        assert all(len(r) == 3 for r in reps)

    def test_ids_and_tie_break(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [9.0, 9.0]])
        centroids, memberships = fcm_from(pts, [[0.0, 0.0], [9.0, 9.0]], max_iter=0)
        reps = representatives(centroids, memberships.argmax(axis=1), pts, k=3)
        assert reps[0][0] == 0
        assert reps[0][1:] == [1, 2]  # equal distance, index order
        assert reps[1] == [3]  # the second cluster has one member


class TestClusterClassMapping:
    def test_majority_bijection(self):
        assigned = np.array([2, 2, 2, 0, 0, 0, 1, 1, 1])
        class_idx = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])  # W, E, L
        assert map_clusters_to_classes(assigned, class_idx) == (1, 2, 0)

    def test_every_day_counts(self):
        # clusters 0 and 1 each hold W and E days, cluster 0 mostly E and
        # cluster 1 mostly W: only the day counts, not which classes occur,
        # tell the two apart
        assigned = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2])
        class_idx = np.array([1, 1, 1, 0, 0, 0, 0, 1, 2])
        assert map_clusters_to_classes(assigned, class_idx) == (1, 0, 2)


class TestAnomalyIndex:
    def test_perfect_similarities_give_zero(self):
        assert index_from_similarities([1.0] * 5) == 0.0

    def test_mean_distance_from_one(self):
        assert index_from_similarities([0.4] * 5) == pytest.approx(0.6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            index_from_similarities([])

    def test_representative_scores_below_perturbed_copy(self):
        rng = np.random.default_rng(15)
        base = np.clip(3.0 + rng.normal(0, 0.1, 40), 0, 7)
        reps = [level_series(np.clip(base + rng.normal(0, 0.05, 40), 0, 7))
                for _ in range(5)]
        day = level_series(base)
        shifted = level_series(np.clip(np.roll(base, 12) + 2.5, 0, 7))
        matrix = similarity_matrix([day, shifted] + reps, SrfParams.defaults())
        reps_at = list(range(2, 7))
        assert (index_from_similarities(matrix.values[0, reps_at])
                < index_from_similarities(matrix.values[1, reps_at]))


class TestClassifyDay:
    """The per-day record ``classification_run`` builds for every day."""

    def test_zero_index_typical(self):
        record = AnomalyRecord("2015-01-05", "W", anomaly_index=0.0, threshold_used=0.2)
        assert record.verdict == "typical"

    def test_above_threshold_anomalous(self):
        record = AnomalyRecord("2015-01-05", "E", anomaly_index=0.5, threshold_used=0.2)
        assert record.verdict == "anomalous"
        assert record.class_name == "Entertainment"

    def test_verdict_tracks_invariant(self):
        r = AnomalyRecord("d", "W", anomaly_index=0.3, threshold_used=0.3)
        assert r.verdict == "typical"  # strictly greater means anomalous


class TestAffinityTriple:
    def make_reps(self):
        # E days share their first half with W days, L days share nothing,
        # so a clean W day orders the classes strictly
        w = np.full(30, 1.5)
        e = np.concatenate([np.full(15, 1.5), np.full(15, 4.0)])
        l = np.full(30, 6.0)
        return {letter: [level_series(v)] * 3
                for letter, v in (("W", w), ("E", e), ("L", l))}

    def day_row(self, day, reps):
        """The day's similarity-matrix row and each class's representative
        indices into it: the day is row 0, the representatives follow."""
        pool, indices = [day], {}
        for letter, days in reps.items():
            indices[letter] = list(range(len(pool), len(pool) + len(days)))
            pool.extend(days)
        return similarity_matrix(pool, SrfParams.defaults()).values[0], indices

    def test_clean_working_day_leads_with_w(self):
        reps = self.make_reps()
        row, indices = self.day_row(level_series(np.full(30, 1.5)), reps)
        assert affinity_triple(row, indices).classes == ("W", "E", "L")

    def test_identical_reps_keep_class_order(self):
        shared = [level_series(np.full(30, 3.0))]
        reps = {"W": shared, "E": shared, "L": shared}
        triple = affinity_triple(*self.day_row(level_series(np.full(30, 3.0)), reps))
        assert triple.classes == ("W", "E", "L")

    def test_missing_class_rejected(self):
        reps = self.make_reps()
        del reps["L"]
        with pytest.raises(ValueError):
            affinity_triple(*self.day_row(level_series(np.full(30, 1.5)), reps))


class TestClassificationRun:
    def test_class_whose_cluster_is_empty_is_named(self):
        # identical rows put every day in one cluster, the Working one, so
        # the Entertainment and Leisure clusters have no member
        days = [level_series(np.zeros(8), day_id=f"d{k}") for k in range(7)]
        with pytest.raises(ValueError, match="class Entertainment has days, but its "
                                             "cluster has no member"):
            classification_run(days, "WWWWEEL", [False] * 7,
                               lambda pats: SimilarityMatrix(np.full((7, 7), 0.5),
                                                             [p.day_id for p in pats]),
                               DeConfig(population_size=4, generations=1))


class TestPointBiserial:
    def test_matches_corrcoef(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0, 1, 50)
        flags = rng.random(50) > 0.8
        expected = np.corrcoef(values, flags.astype(float))[0, 1]
        assert point_biserial(values, flags) == pytest.approx(expected)

    def test_degenerate_inputs_return_zero(self):
        assert point_biserial([0.5, 0.5], [True, False]) == 0.0
        assert point_biserial([0.1, 0.9], [True, True]) == 0.0
