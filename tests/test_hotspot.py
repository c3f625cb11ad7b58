import math

import numpy as np
import pytest

from citytrails.hotspot import (
    Hotspot,
    SpatialEventBatch,
    TimeSlot,
    _trace_rings,
    build_slot_trail,
    extract_hotspots,
    hotspots_from_geojson,
    hotspots_to_geojson,
    point_in_polygon,
    polygon_area,
    relevance_mask,
    slot_for_hour,
    smooth_sample,
)
from citytrails.stigspace import ConeMark, Trail2D, deposit_2d, evaporate
from citytrails.synth import planted_cluster_batches


def grid(width=3000, height=3000, cell=50):
    return Trail2D.for_box(width, height, cell)


def batches_for(points_per_step, slot=TimeSlot.MORNING):
    return [SpatialEventBatch(np.asarray(step, dtype=float), slot)
            for step in points_per_step]


def blob_trails(center=(1500.0, 1500.0), steps=30, count=9.0, skip=()):
    """One persistent blob in every slot except the skipped ones."""
    trails = {}
    for slot in TimeSlot:
        if slot in skip:
            events = [[(200.0, 200.0, 0.5)]] * steps  # noise only
        else:
            events = [[(*center, count)]] * steps
        trails[slot] = build_slot_trail(batches_for(events, slot), 0.4, grid(),
                                        count_cap=10.0)
    return trails


class TestSlots:
    def test_hour_assignment(self):
        assert slot_for_hour(3) is TimeSlot.EARLY_MORNING
        assert slot_for_hour(8) is TimeSlot.EARLY_MORNING
        assert slot_for_hour(9) is TimeSlot.MORNING
        assert slot_for_hour(14) is TimeSlot.MORNING
        assert slot_for_hour(15) is TimeSlot.AFTERNOON_EVENING
        assert slot_for_hour(20) is TimeSlot.AFTERNOON_EVENING
        assert slot_for_hour(21) is TimeSlot.NIGHT
        assert slot_for_hour(0) is TimeSlot.NIGHT
        assert slot_for_hour(2) is TimeSlot.NIGHT


class TestSmoothing:
    def test_midpoint(self):
        assert smooth_sample(0.5, 12.0, 0.5) == 0.5

    def test_zero_sample_suppressed(self):
        expected = 1.0 / (1.0 + math.exp(6.0))
        assert float(smooth_sample(0.0, 12.0, 0.5)) == pytest.approx(expected)

    def test_monotone(self):
        xs = np.linspace(0, 1, 50)
        assert np.all(np.diff(smooth_sample(xs)) > 0)


class TestSlotTrail:
    def test_reinforced_location_persists(self):
        steps = [[(1000.0, 1000.0, 9.0)]] * 20
        trail = build_slot_trail(batches_for(steps), 0.5, grid())
        row, col = 19, 19  # cell containing (1000, 1000) at 50 m cells
        assert trail.cells[row, col] > 1.0

    def test_single_hit_fully_evaporates(self):
        hit = [[(1000.0, 1000.0, 9.0)]]
        idle = [[]] * 5
        steps = hit + idle
        trail = build_slot_trail(batches_for(steps), 0.5, grid())
        assert np.all(trail.cells == 0.0)

    def test_single_hit_visible_without_followup_evaporation(self):
        trail = build_slot_trail(batches_for([[(1000.0, 1000.0, 9.0)]]), 0.2, grid())
        assert trail.cells.max() > 0.5

    def test_mixed_slots_rejected(self):
        steps = [SpatialEventBatch(np.array([[500.0, 500.0, 1.0]]), TimeSlot.MORNING),
                 SpatialEventBatch(np.array([[500.0, 500.0, 1.0]]), TimeSlot.NIGHT)]
        with pytest.raises(ValueError):
            build_slot_trail(steps, 0.2, grid())

    def test_event_outside_grid_rejected(self):
        steps = batches_for([[(9000.0, 100.0, 1.0)]])
        with pytest.raises(ValueError):
            build_slot_trail(steps, 0.2, grid())

    def test_matches_deposit_and_evaporate_fold(self):
        # the in-place batch loop equals the immutable trail algebra, step by
        # step: one deposit_2d per smoothed event, then one evaporate
        rng = np.random.default_rng(9)
        cone = ConeMark((0.0, 0.0), 1.0, base_radius=130.0, top_radius=35.0)
        steps = []
        for k in range(12):
            n = int(rng.integers(0, 5))
            xy = rng.uniform(0.0, 1000.0, (n, 2))
            if k % 3 == 0 and n:
                xy[0] = (1000.0, 0.0)  # a grid corner clips the cone
            counts = rng.integers(1, 14, (n, 1)).astype(float)
            steps.append(np.hstack([xy, counts]))
        template = grid(1000, 1000, 40)
        trail = build_slot_trail(batches_for(steps), 0.3, template, cone=cone,
                                 smooth_alpha=9.0, smooth_beta=0.4, count_cap=8.0)

        expected = template
        for events in steps:
            for x, y, count in events:
                intensity = float(smooth_sample(min(count / 8.0, 1.0), 9.0, 0.4))
                expected = deposit_2d(expected, ConeMark((x, y), intensity,
                                                         130.0, 35.0))
            expected = evaporate(expected, 0.3)
        assert trail.cells.any()
        assert np.array_equal(trail.cells, expected.cells)
        assert (trail.origin, trail.cell_size) == (template.origin, template.cell_size)

    def test_two_clusters_one_scatter(self):
        # two locations reinforced every step, scatter hit once each: the
        # final trail keeps exactly 2 components above 10% of its peak
        rng = np.random.default_rng(0)
        steps = []
        for k in range(30):
            events = [(800.0, 800.0, 9.0), (2200.0, 2200.0, 9.0)]
            events.append((float(rng.uniform(100, 2900)),
                           float(rng.uniform(100, 2900)), 2.0))
            steps.append(events)
        trail = build_slot_trail(batches_for(steps), 0.5, grid())
        mask = trail.cells > 0.1 * trail.cells.max()
        from citytrails.hotspot import _connected_components
        components = _connected_components(mask)
        assert len(components) == 2


class TestExtraction:
    def test_single_blob_everywhere_yields_one_hotspot(self):
        trails = blob_trails()
        found = extract_hotspots(trails, min_area_km2=0.01)
        assert len(found) == 1
        assert found[0].id == "A"
        assert point_in_polygon(found[0].polygon, 1500.0, 1500.0)
        assert set(found[0].slot_coverage) == {s.value for s in TimeSlot}

    def test_blob_missing_in_one_slot_yields_nothing(self):
        trails = blob_trails(skip=(TimeSlot.NIGHT,))
        assert extract_hotspots(trails, min_area_km2=0.01) == []

    def test_empty_intersection_is_empty_list(self):
        trails = {slot: grid() for slot in TimeSlot}
        assert extract_hotspots(trails) == []

    def test_uniform_scaling_invariance(self):
        trails = blob_trails()
        scaled = {slot: Trail2D(t.cells * 7.3, t.origin, t.cell_size)
                  for slot, t in trails.items()}
        a = extract_hotspots(trails, min_area_km2=0.01)
        b = extract_hotspots(scaled, min_area_km2=0.01)
        assert len(a) == len(b) == 1
        assert np.allclose(a[0].polygon, b[0].polygon)

    def test_missing_slot_rejected(self):
        trails = blob_trails()
        del trails[TimeSlot.NIGHT]
        with pytest.raises(ValueError):
            extract_hotspots(trails)

    def test_mismatched_grids_rejected(self):
        trails = blob_trails()
        trails[TimeSlot.NIGHT] = Trail2D.for_box(1000, 1000, 50)
        with pytest.raises(ValueError):
            extract_hotspots(trails)

    def test_min_area_filter(self):
        trails = blob_trails()
        assert extract_hotspots(trails, min_area_km2=5.0) == []

    def test_planted_clusters_recovered(self):
        batches, centers = planted_cluster_batches(
            n_clusters=4, width=4000, height=4000, steps_per_slot=25, seed=1)
        template = Trail2D.for_box(4000, 4000, 50)
        trails = {slot: build_slot_trail(batches[slot], 0.5, template)
                  for slot in TimeSlot}
        found = extract_hotspots(trails)
        assert len(found) == 4
        for cx, cy in centers:
            assert sum(point_in_polygon(h.polygon, cx, cy) for h in found) == 1

    def test_polygon_cells_pass_threshold_in_all_slots(self):
        trails = blob_trails()
        found = extract_hotspots(trails, min_area_km2=0.01)
        poly = found[0].polygon
        first = next(iter(trails.values()))
        masks = [relevance_mask(t, 0.3) for t in trails.values()]
        for row in range(first.rows):
            for col in range(first.cols):
                x, y = first.cell_center(row, col)
                if point_in_polygon(poly, x, y):
                    assert all(m[row, col] for m in masks)


class TestPolygons:
    def test_single_cell_traces_a_diamond(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        rings = _trace_rings(mask)
        assert len(rings) == 1
        ring = rings[0]
        assert ring.shape == (4, 2)
        assert polygon_area(ring) == pytest.approx(0.5)
        assert np.allclose(ring.mean(axis=0), [2.0, 2.0])

    def test_rectangle_ring_area(self):
        mask = np.zeros((6, 8), dtype=bool)
        mask[2:4, 2:6] = True  # 2 x 4 block of cells
        rings = _trace_rings(mask)
        assert len(rings) == 1
        # contour box spans 4 x 2 around the centers, minus four 1/8 corner cuts
        assert polygon_area(rings[0]) == pytest.approx(4 * 2 - 4 * 0.125)

    def test_rings_are_counterclockwise(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        assert polygon_area(_trace_rings(mask)[0]) > 0

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            Hotspot("A", np.array([[0.0, 0.0], [1.0, 1.0]]), ())
        with pytest.raises(ValueError):  # clockwise ring has negative area
            Hotspot("A", np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), ())


class TestPointInPolygon:
    SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])

    def test_interior_and_exterior(self):
        assert point_in_polygon(self.SQUARE, 2.0, 2.0)
        assert not point_in_polygon(self.SQUARE, 5.0, 2.0)

    def test_on_edge_counts_inside(self):
        assert point_in_polygon(self.SQUARE, 4.0, 2.0)
        assert point_in_polygon(self.SQUARE, 0.0, 0.0)

    def test_concave_polygon(self):
        poly = np.array([[0, 0], [6, 0], [6, 6], [3, 3], [0, 6]], dtype=float)
        assert point_in_polygon(poly, 1.0, 1.0)
        assert not point_in_polygon(poly, 3.0, 5.0)


class TestGeojson:
    def test_round_trip(self):
        trails = blob_trails()
        found = extract_hotspots(trails, min_area_km2=0.01)
        back = hotspots_from_geojson(hotspots_to_geojson(found))
        assert len(back) == len(found)
        assert back[0].id == found[0].id
        assert np.allclose(back[0].polygon, found[0].polygon)
        assert back[0].slot_coverage == found[0].slot_coverage

    def test_ring_is_closed_in_export(self):
        trails = blob_trails()
        found = extract_hotspots(trails, min_area_km2=0.01)
        import json
        data = json.loads(hotspots_to_geojson(found))
        ring = data["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
