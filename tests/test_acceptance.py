"""Acceptance suite: one timed pass/fail line per criterion.

Criteria 4..9 share the session pipeline cache, so run this file as a whole
(the later criteria assume the earlier ones already paid for training). Use
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from citytrails.baseline import dtw, frechet_discrete
from citytrails.calibrate import DeConfig, de_minimize
from citytrails.hotspot import (
    TimeSlot,
    build_slot_trail,
    extract_hotspots,
    point_in_polygon,
)
from citytrails.ingest import GeoBox, bucketize, parse_trips
from citytrails.anomaly import affinity_triple, similarity_matrix
from citytrails.perceptron import transform_many
from citytrails.series import (
    ActivityTimeSeries,
    AffinityTriple,
    CLASS_LETTERS,
    assessment_error,
)
from citytrails.srf import pair_similarity
from citytrails.stigspace import (
    CELL_COUNT,
    Trail2D,
    evaporate,
    jaccard,
    trapezoid_profile,
)
from citytrails.synth import class_profile, planted_cluster_batches, planted_trips_csv

BUDGET_SECONDS = {1: 5, 2: 10, 3: 30, 4: 300, 5: 1200, 6: 1200, 7: 120,
                  8: 180, 9: 1200, 10: 5}


@contextmanager
def criterion(number, label):
    budget = BUDGET_SECONDS[number]
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d} FAIL ({elapsed:6.1f}s / {budget}s) {label}")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"criterion {number:2d} {verdict} ({elapsed:6.1f}s / {budget}s) {label}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_01_trail_algebra():
    with criterion(1, "trail algebra: additivity, clamp, jaccard properties"):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = np.zeros(CELL_COUNT)
            # a mark is its intensity times the unit profile, deposited by adding
            a_center, a_intensity = rng.uniform(0.1, 0.9), rng.uniform(0.2, 2.0)
            b_center, b_intensity = rng.uniform(0.1, 0.9), rng.uniform(0.2, 2.0)
            a = float(a_intensity) * trapezoid_profile(float(a_center), 0.2)
            b = float(b_intensity) * trapezoid_profile(float(b_center), 0.15)
            ab = (t + a) + b
            ba = (t + b) + a
            assert np.array_equal(ab, ba)  # commutative
            single = t + a
            assert np.allclose(single + a, 2 * single)
            delta = float(rng.uniform(0.1, 1.5))
            ev = evaporate(Trail2D(ab[None, :]), delta).cells[0]
            assert np.all(ev >= 0.0)  # clamp
            assert np.all(ev >= np.maximum(ab - delta, 0.0) - 1e-15)
            t1 = rng.uniform(0, 2, 100)
            t2 = rng.uniform(0, 2, 100)
            s = jaccard(t1, t2)
            assert 0.0 <= s <= 1.0
            assert s == jaccard(t2, t1)
            assert jaccard(t1, t1) == 1.0


def test_criterion_02_distance_oracles():
    def brute_dtw(a, b, i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = math.inf
        if i > 0:
            best = min(best, brute_dtw(a, b, i - 1, j))
        if j > 0:
            best = min(best, brute_dtw(a, b, i, j - 1))
        if i > 0 and j > 0:
            best = min(best, brute_dtw(a, b, i - 1, j - 1))
        return cost + best

    def brute_frechet(a, b, i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        best = math.inf
        if i > 0:
            best = min(best, brute_frechet(a, b, i - 1, j))
        if j > 0:
            best = min(best, brute_frechet(a, b, i, j - 1))
        if i > 0 and j > 0:
            best = min(best, brute_frechet(a, b, i - 1, j - 1))
        return max(cost, best)

    with criterion(2, "DTW and discrete Frechet match brute-force enumeration"):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.integers(0, 10, int(rng.integers(1, 7))).astype(float)
            b = rng.integers(0, 10, int(rng.integers(1, 7))).astype(float)
            assert dtw(a, b) == brute_dtw(a, b, a.size - 1, b.size - 1)
            assert frechet_discrete(a, b) == brute_frechet(a, b, a.size - 1,
                                                           b.size - 1)


def test_criterion_03_de_sanity():
    with criterion(3, "DE reaches the sphere optimum with monotone history"):
        for seed in (0, 1, 2):
            cfg = DeConfig(population_size=50, generations=100, seed=seed)
            result = de_minimize(lambda m: np.sum(m ** 2, axis=1),
                                 [(-5.0, 5.0)] * 4, cfg)
            assert result.fitness <= 1e-3
            history = np.array(result.history)
            assert np.all(np.diff(history) <= 0)


def test_criterion_04_perceptron_archetype_fidelity(pipeline):
    with criterion(4, "trained perceptron reproduces archetype levels"):
        trained = pipeline.trained()
        days = [ActivityTimeSeries(a.samples) for a in trained.archetypes]
        levels = transform_many(trained.sp, days)
        means = {a.enumeration: float(lv.levels.mean())
                 for a, lv in zip(trained.archetypes, levels)}
        assert abs(means[1] - 1.0) <= 0.5
        assert abs(means[7] - 7.0) <= 0.5
        for archetype in trained.archetypes:
            sims = [float(pair_similarity(archetype.samples, other.samples, p)[0])
                    for other, p in trained.sp.fields]
            assert int(np.argmax(sims)) + 1 == archetype.enumeration


def test_criterion_05_synthetic_year_classification(pipeline):
    with criterion(5, "synthetic-year accuracy >= 0.90 and SRF >= DTW"):
        run = pipeline.year_run()
        assert run.srf.accuracy >= 0.90
        assert run.srf.accuracy >= run.dtw.accuracy


def test_criterion_06_correlation_analogue(pipeline):
    with criterion(6, "point-biserial correlation of index vs injection >= 0.8"):
        run = pipeline.year_run()
        assert run.srf.correlation >= 0.8


def test_criterion_07_hotspot_recovery():
    with criterion(7, "seven planted clusters recovered as disjoint polygons"):
        batches, centers = planted_cluster_batches(n_clusters=7, seed=0)
        template = Trail2D.for_box(6000, 6000, 50)
        trails = {slot: build_slot_trail(batches[slot], 0.5, template)
                  for slot in TimeSlot}
        found = extract_hotspots(trails)
        assert len(found) == 7
        for cx, cy in centers:
            hits = [h.id for h in found if point_in_polygon(h.polygon, cx, cy)]
            assert len(hits) == 1
        for i, a in enumerate(found):
            for b in found[i + 1:]:
                assert not any(point_in_polygon(b.polygon, x, y)
                               for x, y in a.polygon)


def test_criterion_08_similarity_block_structure(pipeline):
    with criterion(8, "pattern-set similarity matrix separates the classes"):
        run = pipeline.year_run()
        pool = [s for letter in CLASS_LETTERS for s in run.pattern_sets[letter]]
        labels = np.repeat(np.arange(3), [len(run.pattern_sets[c])
                                          for c in CLASS_LETTERS])
        matrix = similarity_matrix(pool, run.pattern_params)
        same = labels[:, None] == labels[None, :]
        off_diagonal = ~np.eye(len(pool), dtype=bool)
        within = matrix.values[same & off_diagonal].mean()
        between = matrix.values[~same].mean()
        assert within - between >= 0.15


def test_criterion_09_triple_assessment(pipeline):
    with criterion(9, "mean assessment error of affinity triples <= 1.5"):
        run = pipeline.year_run()
        profiles = {letter: class_profile(letter, len(run.year.days[0]))
                    for letter in CLASS_LETTERS}
        errors = []
        for i, flagged in enumerate(run.year.anomaly_flags):
            if not flagged:
                continue
            predicted = affinity_triple(run.srf.matrix.values[i],
                                        run.srf.representatives_by_class)
            distances = {letter: float(np.linalg.norm(
                run.year.days[i].samples - profiles[letter]))
                for letter in CLASS_LETTERS}
            annotated = AffinityTriple(tuple(sorted(CLASS_LETTERS,
                                                    key=distances.get)))
            errors.append(assessment_error(predicted, annotated))
        assert len(errors) == sum(run.year.anomaly_flags)
        assert float(np.mean(errors)) <= 1.5


def test_criterion_10_ingest_conservation_and_determinism(tmp_path):
    with criterion(10, "10k-row ingest conserves rows and reruns bit-identically"):
        box = GeoBox(lon_min=-74.02, lon_max=-73.96, lat_min=40.70, lat_max=40.76)
        text = planted_trips_csv(box, n_valid=9500, n_invalid=500, seed=2)
        path = tmp_path / "trips.csv"
        path.write_text(text, encoding="utf-8")
        total_rows = len(text.strip().split("\n")) - 1
        assert total_rows == 10000

        records, rejections = parse_trips(path, box)
        assert len(records) + len(rejections) == total_rows
        assert len(rejections) == 500
        first = bucketize(records, box).to_csv()

        records2, rejections2 = parse_trips(path, box)
        assert [(r.line_number, r.reason) for r in rejections2] == \
            [(r.line_number, r.reason) for r in rejections]
        assert bucketize(records2, box).to_csv() == first
