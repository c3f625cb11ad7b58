"""Hotspot discovery: slot trails over event positions, overlap, polygons.

Events (position, passenger count) from one time slot are smoothed by a
sigmoid, deposited as truncated cones, and evaporated each 5-minute step, so
only persistently dense locations keep a relevant trail; the cones' geometry
is built a block of events at a time, and each step is one array deposit.
Hotspots are the connected regions, labelled in one pass, whose trail stays
relevant in all four daily slots; each region's outer contour is traced into
a polygon by marching squares on the region's bounding box.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .srf import logistic
from .stigspace import ConeMark, Trail2D, cone_geometry, cone_margin, evaporate

DEFAULT_RELEVANCE_FRACTION = 0.3
DEFAULT_MIN_AREA_KM2 = 0.05
DEFAULT_SMOOTH_ALPHA = 12.0
DEFAULT_SMOOTH_BETA = 0.5
DEFAULT_COUNT_CAP = 10.0  # the passenger count that maps to 1 before smoothing
# Events whose cone geometry build_slot_trail builds at a time: runs of whole
# batches up to this many events, or one larger batch alone.
CONE_BLOCK = 512


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

    def __post_init__(self) -> None:
        events = np.asarray(self.events, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "events", events)


def check_hotspot_id(hotspot_id) -> None:
    """Reject an id that cannot name a hotspot. A hotspot's series live in the
    directory named by its id, so the id must be a non-empty string that is
    one path component on any system (no "/" or "\\"), not "." or ".."."""
    if (not isinstance(hotspot_id, str) or hotspot_id in ("", ".", "..")
            or "/" in hotspot_id or "\\" in hotspot_id):
        raise ValueError(f"hotspot id {hotspot_id!r} must be a plain name: one "
                         "path component, not '.' or '..'")


@dataclass(frozen=True)
class Hotspot:
    """A lettered city area bounded by a simple polygon (projected meters)."""

    id: str
    polygon: np.ndarray
    slot_coverage: tuple[str, ...]

    def __post_init__(self) -> None:
        check_hotspot_id(self.id)
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
                     cone: ConeMark = ConeMark((0.0, 0.0), 1.0),
                     smooth_alpha: float = DEFAULT_SMOOTH_ALPHA,
                     smooth_beta: float = DEFAULT_SMOOTH_BETA,
                     count_cap: float = DEFAULT_COUNT_CAP) -> Trail2D:
    """Accumulate one slot's event stream into a trail.

    Per step: every event deposits a cone whose intensity is its smoothed
    [0, 1]-scaled count, then the whole trail evaporates by delta. Sparse
    marks die out; repeatedly reinforced locations persist. The cone geometry
    is built for CONE_BLOCK events at a time; each step only deposits its
    slice of it and evaporates.
    """
    if delta < 0:
        raise ValueError("evaporation delta must be non-negative")
    if not count_cap > 0:
        raise ValueError(f"count_cap must be positive, got {count_cap}")
    batches = list(batches)
    x, y, count = np.concatenate([np.empty((0, 3)), *(b.events for b in batches)]).T
    outside = np.flatnonzero(~grid.contains(x, y))
    if outside.size:
        k = outside[0]
        raise ValueError(f"event ({x[k]}, {y[k]}) outside grid bounding box")
    intensity = smooth_sample(np.minimum(count / count_cap, 1.0),
                              smooth_alpha, smooth_beta)
    m = cone_margin(cone.base_radius, grid.cell_size)
    padded = np.pad(grid.cells, m)
    flat = padded.reshape(-1)
    bounds = np.cumsum([0] + [len(b.events) for b in batches])
    block_start = block_stop = 0
    for start, stop in zip(bounds.tolist(), bounds[1:].tolist()):
        if stop > block_stop:  # the next run of whole batches, or this batch alone
            block_start = start
            block_stop = max(stop, int(bounds[np.searchsorted(
                bounds, start + CONE_BLOCK, side="right") - 1]))
            idx, heights = cone_geometry(
                padded.shape[1], grid.origin, grid.cell_size, x[start:block_stop],
                y[start:block_stop], intensity[start:block_stop],
                cone.base_radius, cone.top_radius)
        if stop > start:
            np.add.at(flat, idx[start - block_start:stop - block_start],
                      heights[start - block_start:stop - block_start])
        evaporate(padded, delta)
    return Trail2D(padded[m:-m, m:-m], grid.origin, grid.cell_size)


def relevance_mask(trail: Trail2D, fraction: float) -> np.ndarray:
    """Cells at or above ``fraction`` of the trail's peak, a fraction in (0, 1];
    an all-zero trail has no relevant cell."""
    if not 0 < fraction <= 1:
        raise ValueError(f"relevance_fraction = {fraction} is outside (0, 1]")
    peak = trail.cells.max()
    if peak <= 0:
        return np.zeros_like(trail.cells, dtype=bool)
    return trail.cells >= fraction * peak


def _connected_components(mask: np.ndarray) -> np.ndarray:
    """8-connected components of a boolean grid as one label grid: 0 off the
    mask, 1..n on it in row-major order of each component's first cell."""
    labels = np.zeros(mask.shape, dtype=int)
    current = 0
    rows, cols = mask.shape
    for r0, c0 in np.argwhere(mask).tolist():
        if labels[r0, c0]:
            continue
        current += 1
        stack = [(r0, c0)]
        labels[r0, c0] = current
        while stack:
            r, c = stack.pop()
            for rr in range(max(r - 1, 0), min(r + 2, rows)):
                for cc in range(max(c - 1, 0), min(c + 2, cols)):
                    if mask[rr, cc] and not labels[rr, cc]:
                        labels[rr, cc] = current
                        stack.append((rr, cc))
    return labels


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
    padded = np.pad(mask, 1)
    config = (padded[:-1, :-1] + 2 * padded[:-1, 1:] + 4 * padded[1:, 1:]
              + 8 * padded[1:, :-1])
    segments: dict[tuple[int, int], tuple[int, int]] = {}
    for r, c in np.argwhere((config > 0) & (config < 15)).tolist():
        points = {"B": (2 * c + 1, 2 * r), "R": (2 * c + 2, 2 * r + 1),
                  "T": (2 * c + 1, 2 * r + 2), "L": (2 * c, 2 * r + 1)}
        for start, end in _SEGMENTS[config[r, c]]:
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


def point_in_polygon(poly: np.ndarray, x, y):
    """Ray casting with points on an edge counted inside. ``x`` and ``y`` may
    be arrays of points, tested edge by edge; scalars give one bool."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    on_edge = np.zeros_like(inside)
    n = poly.shape[0]
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        on_edge |= ((np.abs(cross) < 1e-9)
                    & (min(x1, x2) - 1e-9 <= x) & (x <= max(x1, x2) + 1e-9)
                    & (min(y1, y2) - 1e-9 <= y) & (y <= max(y1, y2) + 1e-9))
        if y1 == y2:  # a horizontal edge never straddles the ray
            continue
        x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= ((y1 > y) != (y2 > y)) & (x < x_int)
    hit = inside | on_edge
    return bool(hit) if hit.ndim == 0 else hit


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
    minimum area is traced into its outer contour and lettered by its topmost
    row, then leftmost column. An empty intersection yields an empty list.
    """
    if set(slot_trails) != set(TimeSlot):
        raise ValueError("need one trail per time slot")
    trails = list(slot_trails.values())
    first = trails[0]
    for t in trails[1:]:
        if (t.cells.shape != first.cells.shape or t.origin != first.origin
                or t.cell_size != first.cell_size):
            raise ValueError("slot trails must share the grid")

    combined = np.logical_and.reduce([relevance_mask(t, relevance_fraction)
                                      for t in trails])
    if not combined.any():
        return []

    labels = _connected_components(combined)
    cells = np.argwhere(labels)
    owner = labels[tuple(cells.T)]
    size = np.bincount(owner)
    # bounding box [lo, hi) of each label, as (row, col) pairs
    lo = np.full((size.size, 2), max(labels.shape))
    hi = np.zeros((size.size, 2), dtype=int)
    np.minimum.at(lo, owner, cells)
    np.maximum.at(hi, owner, cells + 1)
    min_cells = min_area_km2 * 1e6 / first.cell_size ** 2
    kept = sorted((k for k in range(1, size.size) if size[k] >= min_cells),
                  key=lambda k: tuple(lo[k]))

    x0, y0 = first.origin
    s = first.cell_size
    # every component lies inside all four slot masks
    coverage = tuple(sorted(slot.value for slot in TimeSlot))
    hotspots = []
    for n, k in enumerate(kept):
        component = labels[lo[k, 0]:hi[k, 0], lo[k, 1]:hi[k, 1]] == k
        rings = [ring + lo[k, ::-1] for ring in _trace_rings(component)]
        outer = max(rings, key=lambda r: abs(polygon_area(r)))
        polygon = np.column_stack([x0 + (outer[:, 0] + 0.5) * s,
                                   y0 + (outer[:, 1] + 0.5) * s])
        hotspots.append(Hotspot(_hotspot_letter(n), polygon, coverage))
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
        hotspot_id = feature["properties"]["id"]
        rings = feature["geometry"]["coordinates"]
        if not rings or np.ndim(rings[0]) != 2:
            raise ValueError(f"hotspot {hotspot_id} has no polygon ring")
        ring = np.asarray(rings[0], dtype=float)
        if np.array_equal(ring[0], ring[-1]):
            ring = ring[:-1]
        hotspots.append(Hotspot(hotspot_id, ring,
                                tuple(feature["properties"]["slot_coverage"])))
    return hotspots
