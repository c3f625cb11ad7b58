import math
import tracemalloc

import numpy as np
import pytest

from citytrails import hotspot
from citytrails.hotspot import (
    Hotspot,
    SpatialEventBatch,
    TimeSlot,
    _trace_rings,
    build_slot_trail,
    check_hotspot_id,
    extract_hotspots,
    hotspots_from_geojson,
    hotspots_to_geojson,
    point_in_polygon,
    polygon_area,
    relevance_mask,
    slot_for_hour,
    smooth_sample,
)
from citytrails.stigspace import ConeMark, Trail2D, cone_geometry, deposit_2d, evaporate
from citytrails.synth import planted_cluster_batches


def grid(width=3000, height=3000, cell=50):
    return Trail2D.for_box(width, height, cell)


def batches_for(points_per_step):
    return [SpatialEventBatch(np.asarray(step, dtype=float)) for step in points_per_step]


def random_cone_steps():
    """12 steps of 0-4 random events on a 1000 m box, every third step with a
    cone centered on the box's southeast corner, which clips it."""
    rng = np.random.default_rng(9)
    steps = []
    for k in range(12):
        n = int(rng.integers(0, 5))
        xy = rng.uniform(0.0, 1000.0, (n, 2))
        if k % 3 == 0 and n:
            xy[0] = (1000.0, 0.0)  # a grid corner clips the cone
        counts = rng.integers(1, 14, (n, 1)).astype(float)
        steps.append(np.hstack([xy, counts]))
    return steps


def oracle_slot_trail(steps, delta, template, cone, smooth_alpha=12.0,
                      smooth_beta=0.5, count_cap=10.0):
    """Slot trail by plain NumPy: each event's cone is evaluated at every cell
    centre of the grid, in event order, then the step evaporates. Outside a
    cone's reach the cone is exactly 0.0, so no window is needed."""
    x0, y0 = template.origin
    xs = x0 + (np.arange(template.cols) + 0.5) * template.cell_size
    ys = y0 + (np.arange(template.rows) + 0.5) * template.cell_size
    cells = np.array(template.cells, dtype=float)
    for events in steps:
        intensities = smooth_sample(np.minimum(events[:, 2] / count_cap, 1.0),
                                    smooth_alpha, smooth_beta)
        for (x, y, _), intensity in zip(events, intensities):
            rr = np.hypot(xs[None, :] - x, ys[:, None] - y)
            slope = (cone.base_radius - rr) / (cone.base_radius - cone.top_radius)
            cells = cells + intensity * np.clip(
                np.where(rr <= cone.top_radius, 1.0, slope), 0.0, 1.0)
        cells = np.maximum(cells - delta, 0.0)
    return cells


def blob_trails(center=(1500.0, 1500.0), steps=30, count=9.0, skip=()):
    """One persistent blob in every slot except the skipped ones."""
    trails = {}
    for slot in TimeSlot:
        if slot in skip:
            events = [[(200.0, 200.0, 0.5)]] * steps  # noise only
        else:
            events = [[(*center, count)]] * steps
        trails[slot] = build_slot_trail(batches_for(events), 0.4, grid(),
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

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            build_slot_trail(batches_for([[(500.0, 500.0, 1.0)]]), -0.1, grid())

    def test_event_outside_grid_rejected(self):
        steps = batches_for([[(9000.0, 100.0, 1.0)]])
        with pytest.raises(ValueError):
            build_slot_trail(steps, 0.2, grid())

    def test_matches_deposit_and_evaporate_fold(self):
        # the in-place batch loop equals the immutable trail algebra, step by
        # step: one deposit_2d per smoothed event, then one evaporate
        cone = ConeMark((0.0, 0.0), 1.0, base_radius=130.0, top_radius=35.0)
        steps = random_cone_steps()
        template = grid(1000, 1000, 40)
        trail = build_slot_trail(batches_for(steps), 0.3, template, cone=cone,
                                 smooth_alpha=9.0, smooth_beta=0.4, count_cap=8.0)

        expected = template
        for events in steps:
            for x, y, count in events:
                intensity = float(smooth_sample(min(count / 8.0, 1.0), 9.0, 0.4))
                expected = deposit_2d(expected, ConeMark((x, y), intensity,
                                                         130.0, 35.0))
            cells = np.array(expected.cells)
            evaporate(cells, 0.3)
            expected = Trail2D(cells, expected.origin, expected.cell_size)
        assert trail.cells.any()
        assert np.array_equal(trail.cells, expected.cells)
        assert (trail.origin, trail.cell_size) == (template.origin, template.cell_size)

    # base_radius / cell_size: an integer, a half-integer and neither
    @pytest.mark.parametrize("base, top, cell", [(150.0, 50.0, 50), (125.0, 40.0, 50),
                                                 (130.0, 35.0, 40)],
                             ids=["150-50", "125-50", "130-40"])
    def test_random_fixture_matches_full_grid_oracle(self, base, top, cell):
        cone = ConeMark((0.0, 0.0), 1.0, base_radius=base, top_radius=top)
        template = grid(1000, 1000, cell)
        # a last step puts one cone on each corner of the grid's extent
        w, h = template.cols * cell, template.rows * cell
        steps = random_cone_steps() + [np.array([(0.0, 0.0, 9.0), (w, 0.0, 9.0),
                                                 (0.0, h, 9.0), (w, h, 9.0)])]
        # a delta below a quarter of the peak height keeps the cones' outer
        # rings of cells, so a window one cell too narrow shows
        trail = build_slot_trail(batches_for(steps), 0.1, template, cone=cone,
                                 smooth_alpha=9.0, smooth_beta=0.4, count_cap=8.0)
        expected = oracle_slot_trail(steps, 0.1, template, cone, 9.0, 0.4, 8.0)
        assert trail.cells.any()
        assert np.array_equal(trail.cells, expected)

    def test_planted_clusters_match_full_grid_oracle(self):
        batches, _ = planted_cluster_batches(
            n_clusters=4, width=4000, height=4000, steps_per_slot=25, seed=1)
        template = Trail2D.for_box(4000, 4000, 50)
        cone = ConeMark((0.0, 0.0), 1.0)
        for slot in TimeSlot:
            trail = build_slot_trail(batches[slot], 0.5, template)
            expected = oracle_slot_trail([b.events for b in batches[slot]], 0.5,
                                         template, cone)
            assert trail.cells.any()
            assert np.array_equal(trail.cells, expected)

    # One geometry run per block; batches of 0, 3 + 4, 7, 32 + 18, 70, 1 + 0 + 5
    # and the corner step, so runs end exactly on blocks of 7 and of 64, and
    # a batch of 70 exceeds every block but the default.
    BLOCK_STEP_SIZES = [0, 3, 4, 7, 32, 18, 0, 70, 1, 0, 5]
    BLOCK_RUNS = {1: [3, 4, 7, 32, 18, 70, 1, 5, 4], 7: [7, 7, 32, 18, 70, 6, 4],
                  64: [64, 70, 10], hotspot.CONE_BLOCK: [144]}

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_cone_blocks_match_default_and_oracle(self, monkeypatch, block):
        cone = ConeMark((0.0, 0.0), 1.0, base_radius=130.0, top_radius=35.0)
        template = grid(1000, 1000, 40)
        rng = np.random.default_rng(13)
        steps = [np.column_stack([rng.uniform(0.0, 1000.0, (n, 2)),
                                  rng.integers(1, 14, n)]).astype(float)
                 for n in self.BLOCK_STEP_SIZES]
        w, h = template.cols * 40, template.rows * 40
        steps.append(np.array([(0.0, 0.0, 9.0), (w, 0.0, 9.0), (0.0, h, 9.0),
                               (w, h, 9.0)]))
        kwargs = dict(cone=cone, smooth_alpha=9.0, smooth_beta=0.4, count_cap=8.0)

        runs = []

        def recorded(padded_cols, origin, cell_size, cx, *args):
            runs.append(len(cx))
            return cone_geometry(padded_cols, origin, cell_size, cx, *args)

        monkeypatch.setattr(hotspot, "cone_geometry", recorded)
        default = build_slot_trail(batches_for(steps), 0.1, template, **kwargs)
        assert runs == self.BLOCK_RUNS[hotspot.CONE_BLOCK]
        runs.clear()
        monkeypatch.setattr(hotspot, "CONE_BLOCK", block)
        blocked = build_slot_trail(batches_for(steps), 0.1, template, **kwargs)
        assert runs == self.BLOCK_RUNS[block]
        expected = oracle_slot_trail(steps, 0.1, template, cone, 9.0, 0.4, 8.0)
        assert blocked.cells.any()
        assert np.array_equal(blocked.cells, default.cells)
        assert np.array_equal(blocked.cells, expected)

    def test_traced_peak_grows_with_event_columns_not_cone_cells(self):
        # Growth from 2 000 to 20 000 events must stay within 16 float64
        # columns per event; geometry for the whole slot would add 16 B for
        # each of a cone's 49 cells per event.
        def traced_peak(n):
            rng = np.random.default_rng(4)
            events = np.column_stack([rng.uniform(0.0, 1000.0, (n, 2)),
                                      rng.integers(1, 14, n)]).astype(float)
            batches = [SpatialEventBatch(events[k:k + 5]) for k in range(0, n, 5)]
            template = grid(1000, 1000, 50)
            tracemalloc.start()
            try:
                build_slot_trail(batches, 0.2, template)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        assert traced_peak(20_000) - traced_peak(2_000) <= 16 * 8 * 18_000

    def test_nonpositive_count_cap_rejected(self):
        steps = batches_for([[(500.0, 500.0, 0.0)]])
        for cap in (0.0, -2.0):
            with pytest.raises(ValueError, match="count_cap"):
                build_slot_trail(steps, 0.2, grid(), count_cap=cap)

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
        assert len(_connected_components(mask)) == 2


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

    @pytest.mark.parametrize("fraction", [0.0, -1.0, 1.5, float("nan")])
    def test_relevance_fraction_outside_unit_interval_rejected(self, fraction):
        trails = blob_trails()
        with pytest.raises(ValueError, match="relevance_fraction"):
            relevance_mask(trails[TimeSlot.NIGHT], fraction)
        with pytest.raises(ValueError, match="relevance_fraction"):
            extract_hotspots(trails, fraction)

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
                x, y = (col + 0.5) * first.cell_size, (row + 0.5) * first.cell_size
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


def reference_point_in_polygon(poly, x, y):
    """Scalar ray casting, one point and one edge at a time, points on an
    edge counted inside."""
    inside = False
    n = poly.shape[0]
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        if (abs(cross) < 1e-9 and min(x1, x2) - 1e-9 <= x <= max(x1, x2) + 1e-9
                and min(y1, y2) - 1e-9 <= y <= max(y1, y2) + 1e-9):
            return True
        if (y1 > y) != (y2 > y):
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < x_int:
                inside = not inside
    return inside


def probe_points(poly, rng):
    """Random points around the polygon, its vertices, its edge midpoints,
    and points 1e-10 to either side of each edge midpoint."""
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    span = hi - lo
    random = rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(500, 2))
    nxt = np.roll(poly, -1, axis=0)
    mids = 0.5 * (poly + nxt)
    edge = nxt - poly
    normal = np.column_stack([-edge[:, 1], edge[:, 0]])
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    return np.vstack([random, poly, mids, mids + 1e-10 * normal,
                      mids - 1e-10 * normal])


class TestPointInPolygon:
    SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    CONCAVE = np.array([[0, 0], [6, 0], [6, 6], [3, 3], [0, 6]], dtype=float)

    @pytest.mark.parametrize("shape", ["convex", "concave", "traced"])
    def test_array_matches_scalar_reference(self, shape):
        poly = {"convex": lambda: np.array([[0.5, 0.0], [4.0, 1.0], [3.0, 4.5],
                                            [-1.0, 2.0]]),
                "concave": lambda: self.CONCAVE,
                "traced": lambda: extract_hotspots(blob_trails(),
                                                   min_area_km2=0.01)[0].polygon}[shape]()
        points = probe_points(poly, np.random.default_rng(len(poly)))
        expected = np.array([reference_point_in_polygon(poly, x, y)
                             for x, y in points])
        assert np.array_equal(point_in_polygon(poly, points[:, 0], points[:, 1]),
                              expected)
        assert [point_in_polygon(poly, x, y) for x, y in points] == expected.tolist()
        assert expected.any() and not expected.all()

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


class TestHotspotIds:
    @pytest.mark.parametrize("bad", ["", ".", "..", "../escape", "a/b", "a\\b", 5, None],
                             ids=["empty", "dot", "dotdot", "parent", "slash",
                                  "backslash", "number", "none"])
    def test_non_plain_ids_rejected(self, bad):
        with pytest.raises(ValueError, match="plain name"):
            check_hotspot_id(bad)
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        with pytest.raises(ValueError, match="plain name"):
            Hotspot(bad, square, ())

    @pytest.mark.parametrize("good", ["D", "A", "AB", "ZZ", "..A", "x.y"])
    def test_plain_ids_pass(self, good):
        check_hotspot_id(good)
