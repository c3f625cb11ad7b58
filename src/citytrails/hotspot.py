"""Hotspot discovery: slot trails over event positions, overlap, polygons.

Events (position, passenger count) from one time slot are smoothed by a
sigmoid, deposited as truncated cones, and evaporated each 5-minute step, so
only persistently dense locations keep a relevant trail. Hotspots are the
connected regions whose trail stays relevant in all four daily slots; each
region's outer contour is traced into a polygon by marching squares.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .srf import logistic
from .stigspace import ConeMark, Trail2D, add_cone

DEFAULT_RELEVANCE_FRACTION = 0.3
DEFAULT_MIN_AREA_KM2 = 0.05
DEFAULT_SMOOTH_ALPHA = 12.0
DEFAULT_SMOOTH_BETA = 0.5


class TimeSlot(Enum):
    EARLY_MORNING = "EarlyMorning"      # 3am-8am
    MORNING = "Morning"                 # 9am-2pm
    AFTERNOON_EVENING = "AfternoonEvening"  # 3pm-8pm
    NIGHT = "Night"                     # 9pm-2am


def slot_for_hour(hour: int) -> TimeSlot:
    """Slot of an event by the hour its bucket starts in."""
    if 3 <= hour <= 8:
        return TimeSlot.EARLY_MORNING
    if 9 <= hour <= 14:
        return TimeSlot.MORNING
    if 15 <= hour <= 20:
        return TimeSlot.AFTERNOON_EVENING
    return TimeSlot.NIGHT


@dataclass(frozen=True)
class SpatialEventBatch:
    """Events of one 5-minute step: rows of (x meters, y meters, count)."""

    events: np.ndarray
    slot: TimeSlot

    def __post_init__(self) -> None:
        events = np.asarray(self.events, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "events", events)


@dataclass(frozen=True)
class Hotspot:
    """A lettered city area bounded by a simple polygon (projected meters)."""

    id: str
    polygon: np.ndarray
    slot_coverage: tuple[str, ...]

    def __post_init__(self) -> None:
        poly = np.asarray(self.polygon, dtype=float)
        if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
            raise ValueError("polygon needs at least 3 (x, y) vertices")
        if polygon_area(poly) <= 0:
            raise ValueError("polygon must have positive area")
        object.__setattr__(self, "polygon", poly)


def smooth_sample(value: float, alpha_s: float = DEFAULT_SMOOTH_ALPHA,
                  beta_s: float = DEFAULT_SMOOTH_BETA):
    """Sigmoid smoothing of a [0, 1]-scaled count: suppresses irrelevant
    samples and keeps significant ones near full weight."""
    return logistic(alpha_s * (np.asarray(value, dtype=float) - beta_s))


def build_slot_trail(batches, delta: float, grid: Trail2D, *,
                     cone: ConeMark | None = None,
                     smooth_alpha: float = DEFAULT_SMOOTH_ALPHA,
                     smooth_beta: float = DEFAULT_SMOOTH_BETA,
                     count_cap: float = 10.0) -> Trail2D:
    """Accumulate one slot's event stream into a trail.

    Per step: every event deposits a cone whose intensity is its smoothed
    [0, 1]-scaled count, then the whole trail evaporates by delta. Sparse
    marks die out; repeatedly reinforced locations persist.
    """
    if delta < 0:
        raise ValueError("evaporation delta must be non-negative")
    geometry = cone if cone is not None else ConeMark((0.0, 0.0), 1.0)
    cells = np.array(grid.cells, dtype=float, copy=True)
    slot = None
    for batch in batches:
        if slot is None:
            slot = batch.slot
        elif batch.slot is not slot:
            raise ValueError("all batches of one trail must share the time slot")
        for x, y, count in batch.events:
            if not grid.contains(x, y):
                raise ValueError(f"event ({x}, {y}) outside grid bounding box")
            intensity = float(smooth_sample(min(count / count_cap, 1.0),
                                            smooth_alpha, smooth_beta))
            add_cone(cells, grid.origin, grid.cell_size, x, y, intensity,
                     geometry.base_radius, geometry.top_radius)
        np.maximum(cells - delta, 0.0, out=cells)
    return Trail2D(cells, grid.origin, grid.cell_size)


def relevance_mask(trail: Trail2D, fraction: float) -> np.ndarray:
    peak = trail.cells.max()
    if peak <= 0:
        return np.zeros_like(trail.cells, dtype=bool)
    return trail.cells >= fraction * peak


def _connected_components(mask: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean grid, as boolean masks."""
    labels = np.zeros(mask.shape, dtype=int)
    current = 0
    rows, cols = mask.shape
    for r0 in range(rows):
        for c0 in range(cols):
            if not mask[r0, c0] or labels[r0, c0]:
                continue
            current += 1
            queue = deque([(r0, c0)])
            labels[r0, c0] = current
            while queue:
                r, c = queue.popleft()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if (0 <= rr < rows and 0 <= cc < cols
                                and mask[rr, cc] and not labels[rr, cc]):
                            labels[rr, cc] = current
                            queue.append((rr, cc))
    return [labels == k for k in range(1, current + 1)]


# Marching-squares segments per square configuration, oriented with the
# inside on the left so outer rings come out counterclockwise. Corners are
# indexed f00 + 2*f10 + 4*f11 + 8*f01; B/R/T/L are the edge midpoints. The
# two saddle cases connect the positive diagonal, matching 8-connectivity.
_SEGMENTS = {
    1: (("B", "L"),), 2: (("R", "B"),), 3: (("R", "L"),), 4: (("T", "R"),),
    5: (("T", "L"), ("B", "R")), 6: (("T", "B"),), 7: (("T", "L"),),
    8: (("L", "T"),), 9: (("B", "T"),), 10: (("L", "B"), ("R", "T")),
    11: (("R", "T"),), 12: (("L", "R"),), 13: (("B", "R"),), 14: (("L", "B"),),
}


def _trace_rings(mask: np.ndarray) -> list[np.ndarray]:
    """Closed 0.5-level contours of a boolean grid, in cell-index coordinates.

    Vertices sit on cell edges (midway between neighboring cell centers);
    coordinates are (col, row) with integers at cell centers. Stored doubled
    so they hash exactly while chaining.
    """
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    segments: dict[tuple[int, int], tuple[int, int]] = {}
    for r in range(padded.shape[0] - 1):
        for c in range(padded.shape[1] - 1):
            idx = (int(padded[r, c]) + 2 * int(padded[r, c + 1])
                   + 4 * int(padded[r + 1, c + 1]) + 8 * int(padded[r + 1, c]))
            if idx in (0, 15):
                continue
            points = {"B": (2 * c + 1, 2 * r), "R": (2 * c + 2, 2 * r + 1),
                      "T": (2 * c + 1, 2 * r + 2), "L": (2 * c, 2 * r + 1)}
            for start, end in _SEGMENTS[idx]:
                segments[points[start]] = points[end]

    rings = []
    while segments:
        start = next(iter(segments))
        ring = [start]
        node = segments.pop(start)
        while node != start:
            ring.append(node)
            node = segments.pop(node)
        # halve the doubled coordinates and undo the one-cell padding
        rings.append(np.asarray(ring, dtype=float) / 2.0 - 1.0)
    return rings


def polygon_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def point_in_polygon(poly: np.ndarray, x: float, y: float) -> bool:
    """Ray casting with points on an edge counted inside."""
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


def _hotspot_letter(index: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    name = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        name = letters[rem] + name
    return name


def extract_hotspots(slot_trails: dict[TimeSlot, Trail2D],
                     relevance_fraction: float = DEFAULT_RELEVANCE_FRACTION,
                     min_area_km2: float = DEFAULT_MIN_AREA_KM2) -> list[Hotspot]:
    """Areas relevant in all four slots, as lettered polygons.

    Each slot trail is binarized at ``relevance_fraction`` of its own peak
    (so uniform rescaling of the trails cannot change the result), the four
    masks are intersected, and each surviving 8-connected component above the
    minimum area is traced into its outer contour. An empty intersection
    yields an empty list.
    """
    if set(slot_trails) != set(TimeSlot):
        raise ValueError("need one trail per time slot")
    trails = list(slot_trails.values())
    first = trails[0]
    for t in trails[1:]:
        if (t.cells.shape != first.cells.shape or t.origin != first.origin
                or t.cell_size != first.cell_size):
            raise ValueError("slot trails must share the grid")

    combined = np.ones(first.cells.shape, dtype=bool)
    for t in trails:
        combined &= relevance_mask(t, relevance_fraction)
    if not combined.any():
        return []

    min_cells = min_area_km2 * 1e6 / first.cell_size ** 2
    components = [m for m in _connected_components(combined)
                  if m.sum() >= min_cells]
    components.sort(key=lambda m: (np.flatnonzero(m.any(axis=1))[0],
                                   np.flatnonzero(m.any(axis=0))[0]))

    x0, y0 = first.origin
    s = first.cell_size
    hotspots = []
    for k, component in enumerate(components):
        rings = _trace_rings(component)
        outer = max(rings, key=lambda r: abs(polygon_area(r)))
        polygon = np.column_stack([x0 + (outer[:, 0] + 0.5) * s,
                                   y0 + (outer[:, 1] + 0.5) * s])
        coverage = tuple(sorted(
            slot.value for slot, trail in slot_trails.items()
            if bool(relevance_mask(trail, relevance_fraction)[component].all())))
        hotspots.append(Hotspot(_hotspot_letter(k), polygon, coverage))
    return hotspots


def hotspots_to_geojson(hotspots) -> str:
    """GeoJSON-style FeatureCollection of polygon records (ring closed)."""
    features = []
    for h in hotspots:
        ring = [[float(x), float(y)] for x, y in h.polygon]
        ring.append(ring[0])
        features.append({
            "type": "Feature",
            "properties": {"id": h.id, "slot_coverage": list(h.slot_coverage)},
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    return json.dumps({"type": "FeatureCollection", "features": features},
                      sort_keys=True, indent=2) + "\n"


def hotspots_from_geojson(text: str) -> list[Hotspot]:
    data = json.loads(text)
    hotspots = []
    for feature in data["features"]:
        ring = np.asarray(feature["geometry"]["coordinates"][0], dtype=float)
        if np.array_equal(ring[0], ring[-1]):
            ring = ring[:-1]
        hotspots.append(Hotspot(feature["properties"]["id"], ring,
                                tuple(feature["properties"]["slot_coverage"])))
    return hotspots
