"""Trip-record ingestion: CSV parsing, cleaning, space-time bucketization.

Trips carry pick-up and drop-off endpoints; both endpoints contribute their
passenger count to a (10-foot cell, 5-minute bucket) grid under a local
equirectangular projection. Per-hotspot activity series are read back out of
the grid by summing the cells whose centers fall inside the polygon.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .hotspot import Hotspot, SpatialEventBatch, TimeSlot, point_in_polygon, slot_for_hour
from .series import ActivityTimeSeries, normalize_min_max

EARTH_RADIUS_M = 6371000.0
FOOT_M = 0.3048
DEFAULT_CELL_M = 10 * FOOT_M
DEFAULT_BUCKET_MINUTES = 5
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"

TAXI_ID_COLUMNS = ("medallion", "taxi_id")
REQUIRED_COLUMNS = ("passenger_count", "pickup_datetime", "dropoff_datetime",
                    "pickup_longitude", "pickup_latitude",
                    "dropoff_longitude", "dropoff_latitude")

REASON_MISSING = "missing_field"
REASON_BAD_VALUE = "bad_value"
REASON_OUT_OF_BOX = "out_of_box"
REASON_TIME_ORDER = "dropoff_before_pickup"


@dataclass(frozen=True)
class GeoBox:
    """Geographic study area with an equirectangular projection about its center."""

    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float

    def __post_init__(self) -> None:
        if not (self.lon_min < self.lon_max and self.lat_min < self.lat_max):
            raise ValueError("box bounds must satisfy min < max")

    def contains(self, lon: float, lat: float) -> bool:
        return (self.lon_min <= lon <= self.lon_max
                and self.lat_min <= lat <= self.lat_max)

    def to_meters(self, lon: float, lat: float) -> tuple[float, float]:
        """Meters east/north of the box's southwest corner."""
        lat_c = math.radians(0.5 * (self.lat_min + self.lat_max))
        mx = math.radians(lon - self.lon_min) * EARTH_RADIUS_M * math.cos(lat_c)
        my = math.radians(lat - self.lat_min) * EARTH_RADIUS_M
        return mx, my

    @property
    def width_m(self) -> float:
        return self.to_meters(self.lon_max, self.lat_min)[0]

    @property
    def height_m(self) -> float:
        return self.to_meters(self.lon_min, self.lat_max)[1]


@dataclass(frozen=True)
class TripRecord:
    taxi_id: str
    passenger_count: int
    pickup: tuple[datetime, float, float]    # (timestamp, lon, lat)
    dropoff: tuple[datetime, float, float]


@dataclass(frozen=True)
class Rejection:
    line_number: int
    reason: str


def _header_map(fieldnames) -> dict[str, str]:
    lowered = {name.strip().lower(): name for name in fieldnames}
    mapping = {}
    taxi = next((c for c in TAXI_ID_COLUMNS if c in lowered), None)
    if taxi is None:
        raise ValueError(f"missing mandatory column: one of {TAXI_ID_COLUMNS}")
    mapping["taxi_id"] = lowered[taxi]
    for column in REQUIRED_COLUMNS:
        if column not in lowered:
            raise ValueError(f"missing mandatory column: {column}")
        mapping[column] = lowered[column]
    return mapping


def parse_trips(path, box: GeoBox) -> tuple[list[TripRecord], list[Rejection]]:
    """Stream a TLC-style trip CSV into records plus a rejection log.

    Every input row is accounted for: it becomes exactly one record or one
    rejection carrying the first reason that disqualified it.
    """
    records: list[TripRecord] = []
    rejections: list[Rejection] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("unreadable CSV: no header row")
        columns = _header_map(reader.fieldnames)
        for line_number, row in enumerate(reader, start=2):
            parsed = _parse_row(row, columns, box)
            if isinstance(parsed, str):
                rejections.append(Rejection(line_number, parsed))
            else:
                records.append(parsed)
    return records, rejections


def _parse_row(row: dict, columns: dict[str, str], box: GeoBox):
    values = {key: (row.get(col) or "").strip() for key, col in columns.items()}
    if any(v == "" for v in values.values()):
        return REASON_MISSING
    try:
        passengers = int(values["passenger_count"])
        pickup_ts = datetime.strptime(values["pickup_datetime"], TIMESTAMP_FORMAT)
        dropoff_ts = datetime.strptime(values["dropoff_datetime"], TIMESTAMP_FORMAT)
        coords = [float(values[k]) for k in ("pickup_longitude", "pickup_latitude",
                                             "dropoff_longitude", "dropoff_latitude")]
    except ValueError:
        return REASON_BAD_VALUE
    if passengers < 0:
        return REASON_BAD_VALUE
    if dropoff_ts < pickup_ts:
        return REASON_TIME_ORDER
    if not (box.contains(coords[0], coords[1]) and box.contains(coords[2], coords[3])):
        return REASON_OUT_OF_BOX
    return TripRecord(values["taxi_id"], passengers,
                      (pickup_ts, coords[0], coords[1]),
                      (dropoff_ts, coords[2], coords[3]))


def rejections_to_csv(rejections) -> str:
    lines = ["line_number,reason"]
    lines.extend(f"{r.line_number},{r.reason}" for r in rejections)
    return "\n".join(lines) + "\n"


@dataclass
class BucketGrid:
    """Passenger counts per (spatial cell, 5-minute bucket), per day.

    Keys are (day ISO date, intraday bucket index, cell ix, cell iy); buckets
    are aligned to midnight local time.
    """

    box: GeoBox
    cell_m: float = DEFAULT_CELL_M
    bucket_minutes: int = DEFAULT_BUCKET_MINUTES
    counts: dict[tuple[str, int, int, int], int] = field(default_factory=dict)

    @property
    def buckets_per_day(self) -> int:
        return 1440 // self.bucket_minutes

    def add(self, day: str, bucket: int, ix: int, iy: int, count: int) -> None:
        key = (day, bucket, ix, iy)
        self.counts[key] = self.counts.get(key, 0) + count

    def total_mass(self) -> int:
        return sum(self.counts.values())

    def days(self) -> list[str]:
        return sorted({key[0] for key in self.counts})

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        return ((ix + 0.5) * self.cell_m, (iy + 0.5) * self.cell_m)

    def to_csv(self) -> str:
        header = (f"# lon_min={self.box.lon_min!r},lon_max={self.box.lon_max!r},"
                  f"lat_min={self.box.lat_min!r},lat_max={self.box.lat_max!r},"
                  f"cell_m={self.cell_m!r},bucket_minutes={self.bucket_minutes}")
        lines = [header, "day,bucket,ix,iy,count"]
        for key in sorted(self.counts):
            lines.append(f"{key[0]},{key[1]},{key[2]},{key[3]},{self.counts[key]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "BucketGrid":
        lines = [ln for ln in text.split("\n") if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("bucket archive must start with a metadata comment line")
        meta = {}
        for item in lines[0].lstrip("#").strip().split(","):
            key, _, value = item.partition("=")
            meta[key.strip()] = float(value)
        grid = cls(GeoBox(meta["lon_min"], meta["lon_max"],
                          meta["lat_min"], meta["lat_max"]),
                   cell_m=meta["cell_m"], bucket_minutes=int(meta["bucket_minutes"]))
        for line in lines[2:]:
            day, bucket, ix, iy, count = line.split(",")
            grid.add(day, int(bucket), int(ix), int(iy), int(count))
        return grid


def bucketize(records, box: GeoBox, cell_m: float = DEFAULT_CELL_M,
              bucket_minutes: int = DEFAULT_BUCKET_MINUTES) -> BucketGrid:
    """Accumulate both trip endpoints into the space-time grid.

    Order independent: cells sum passenger counts, so any permutation of the
    record stream produces the same grid.
    """
    grid = BucketGrid(box, cell_m, bucket_minutes)
    for record in records:
        for timestamp, lon, lat in (record.pickup, record.dropoff):
            mx, my = box.to_meters(lon, lat)
            bucket = (timestamp.hour * 60 + timestamp.minute) // bucket_minutes
            grid.add(timestamp.date().isoformat(), bucket,
                     int(mx // cell_m), int(my // cell_m), record.passenger_count)
    return grid


def slot_event_batches(grid: BucketGrid) -> dict[TimeSlot, list[SpatialEventBatch]]:
    """Bucket counts regrouped into per-slot streams of 5-minute event batches.

    Events carry the center of their spatial cell; batches are ordered by
    (day, bucket) so trail building is deterministic.
    """
    grouped: dict[tuple[str, int], list] = {}
    for (day, bucket, ix, iy), count in grid.counts.items():
        grouped.setdefault((day, bucket), []).append((ix, iy, count))
    batches: dict[TimeSlot, list[SpatialEventBatch]] = {slot: [] for slot in TimeSlot}
    for day, bucket in sorted(grouped):
        hour = bucket * grid.bucket_minutes // 60
        slot = slot_for_hour(hour)
        events = [(*grid.cell_center(ix, iy), count)
                  for ix, iy, count in sorted(grouped[(day, bucket)])]
        batches[slot].append(SpatialEventBatch(np.asarray(events, dtype=float), slot))
    return batches


def hotspot_raw_activity(grid: BucketGrid, h: Hotspot, day: str) -> np.ndarray:
    """Per-bucket passenger counts of the cells whose centers fall inside both
    the hotspot polygon and the box, for one day.

    The trail grid rounds the box up to whole cells, so a hotspot on the east
    or north edge may reach past the box; the part outside counts nothing. A
    polygon west or south of the box origin, or wholly past it, is rejected.
    """
    poly = h.polygon
    x_lo, y_lo = poly.min(axis=0)
    x_hi, y_hi = poly.max(axis=0)
    if (x_lo < 0 or y_lo < 0
            or x_lo >= grid.box.width_m or y_lo >= grid.box.height_m):
        raise ValueError("hotspot polygon extends outside the grid box")
    x_hi = min(x_hi, grid.box.width_m)
    y_hi = min(y_hi, grid.box.height_m)
    raw = np.zeros(grid.buckets_per_day)
    inside_cache: dict[tuple[int, int], bool] = {}
    for (key_day, bucket, ix, iy), count in grid.counts.items():
        if key_day != day:
            continue
        cx, cy = grid.cell_center(ix, iy)
        if not (x_lo <= cx <= x_hi and y_lo <= cy <= y_hi):
            continue
        cell = (ix, iy)
        hit = inside_cache.get(cell)
        if hit is None:
            hit = point_in_polygon(poly, cx, cy)
            inside_cache[cell] = hit
        if hit:
            raw[bucket] += count
    return raw


def hotspot_activity(grid: BucketGrid, h: Hotspot, day: str,
                     resolution_minutes: int = 10) -> ActivityTimeSeries:
    """Min-max-normalized activity series for one hotspot and day."""
    if resolution_minutes % grid.bucket_minutes != 0:
        raise ValueError("target resolution must be a multiple of the bucket length")
    raw = hotspot_raw_activity(grid, h, day)
    factor = resolution_minutes // grid.bucket_minutes
    aggregated = raw.reshape(-1, factor).sum(axis=1)
    return normalize_min_max(aggregated, resolution_minutes=resolution_minutes,
                             day_id=day, hotspot_id=h.id)
