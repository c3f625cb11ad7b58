"""Trip-record ingestion: CSV parsing, cleaning, space-time bucketization.

Trips carry pick-up and drop-off endpoints; both endpoints contribute their
passenger count to a (10-foot cell, 5-minute bucket) grid under a local
equirectangular projection, held as NumPy columns sorted by (day, bucket,
ix, iy). Slot event batches are contiguous slices of them; a hotspot's series
for a day is one polygon test of that day's cell centers and one bincount.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
        cos_c = math.cos(math.radians(0.5 * (self.lat_min + self.lat_max)))
        object.__setattr__(self, "_cos_center_lat", cos_c)

    def contains(self, lon: float, lat: float) -> bool:
        return (self.lon_min <= lon <= self.lon_max
                and self.lat_min <= lat <= self.lat_max)

    def to_meters(self, lon: float, lat: float) -> tuple[float, float]:
        """Meters east/north of the box's southwest corner."""
        mx = math.radians(lon - self.lon_min) * EARTH_RADIUS_M * self._cos_center_lat
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
        for row in reader:
            parsed = _parse_row(row, columns, box)
            if isinstance(parsed, str):
                # the physical line: DictReader skips blank lines
                rejections.append(Rejection(reader.line_num, parsed))
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


class BucketGrid:
    """Passenger counts per (spatial cell, 5-minute bucket), per day.

    One row per occupied key, held as columns sorted by (day ISO date,
    intraday bucket index, cell ix, cell iy); ``counts`` is the count column.
    Buckets are aligned to midnight local time.
    """

    def __init__(self, box: GeoBox, cell_m: float, bucket_minutes: int, entries) -> None:
        """Sum the counts of repeated keys among the ((day, bucket, ix, iy),
        count) ``entries`` and sort the keys into columns."""
        if bucket_minutes <= 0 or 1440 % bucket_minutes:
            raise ValueError(f"bucket_minutes = {bucket_minutes} does not divide "
                             "the 1440 minutes of a day")
        if not cell_m > 0:
            raise ValueError(f"bucket_cell_m = {cell_m} must be positive")
        self.box = box
        self.cell_m = cell_m
        self.bucket_minutes = bucket_minutes
        summed: dict[tuple[str, int, int, int], int] = {}
        for key, count in entries:
            summed[key] = summed.get(key, 0) + count
        days, *cells = zip(*summed) if summed else ((),) * 4
        day = np.array(days, dtype=str)
        bucket, ix, iy = (np.array(c, dtype=np.int64) for c in cells)
        if summed and not 0 <= bucket.min() <= bucket.max() < self.buckets_per_day:
            raise ValueError(f"bucket index outside 0..{self.buckets_per_day - 1}")
        counts = np.fromiter(summed.values(), dtype=np.int64, count=len(summed))
        order = np.lexsort((iy, ix, bucket, day))
        self.day, self.bucket, self.ix, self.iy, self.counts = (
            column[order] for column in (day, bucket, ix, iy, counts))

    @property
    def buckets_per_day(self) -> int:
        return 1440 // self.bucket_minutes

    def total_mass(self) -> int:
        return int(self.counts.sum())

    def days(self) -> list[str]:
        return np.unique(self.day).tolist()

    def to_csv(self) -> str:
        header = (f"# lon_min={self.box.lon_min!r},lon_max={self.box.lon_max!r},"
                  f"lat_min={self.box.lat_min!r},lat_max={self.box.lat_max!r},"
                  f"cell_m={self.cell_m!r},bucket_minutes={self.bucket_minutes}")
        lines = [header, "day,bucket,ix,iy,count"]
        lines.extend(f"{d},{b},{x},{y},{c}" for d, b, x, y, c in zip(
            self.day.tolist(), self.bucket.tolist(), self.ix.tolist(),
            self.iy.tolist(), self.counts.tolist()))
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
        rows = (line.split(",") for line in lines[2:])
        return cls(GeoBox(meta["lon_min"], meta["lon_max"],
                          meta["lat_min"], meta["lat_max"]),
                   meta["cell_m"], int(meta["bucket_minutes"]),
                   (((day, int(bucket), int(ix), int(iy)), int(count))
                    for day, bucket, ix, iy, count in rows))


def bucketize(records, box: GeoBox, cell_m: float = DEFAULT_CELL_M,
              bucket_minutes: int = DEFAULT_BUCKET_MINUTES) -> BucketGrid:
    """Accumulate both trip endpoints into the space-time grid.

    Order independent: cells sum passenger counts, so any permutation of the
    record stream produces the same grid.
    """
    def entries():
        for record in records:
            for timestamp, lon, lat in (record.pickup, record.dropoff):
                mx, my = box.to_meters(lon, lat)
                bucket = (timestamp.hour * 60 + timestamp.minute) // bucket_minutes
                yield ((timestamp.date().isoformat(), bucket,
                        int(mx // cell_m), int(my // cell_m)), record.passenger_count)

    return BucketGrid(box, cell_m, bucket_minutes, entries())


def slot_event_batches(grid: BucketGrid) -> dict[TimeSlot, list[SpatialEventBatch]]:
    """Bucket counts cut into per-slot streams of 5-minute event batches.

    Each batch is one contiguous (day, bucket) run of the sorted archive, so
    batches come in (day, bucket) order and events in (ix, iy) order; events
    carry the center of their spatial cell.
    """
    events = np.column_stack([(grid.ix + 0.5) * grid.cell_m,
                              (grid.iy + 0.5) * grid.cell_m,
                              grid.counts.astype(float)])
    starts = np.ones(grid.counts.size, dtype=bool)
    starts[1:] = (grid.day[1:] != grid.day[:-1]) | (grid.bucket[1:] != grid.bucket[:-1])
    starts = np.flatnonzero(starts).tolist()
    batches: dict[TimeSlot, list[SpatialEventBatch]] = {slot: [] for slot in TimeSlot}
    for start, stop in zip(starts, starts[1:] + [grid.counts.size]):
        slot = slot_for_hour(int(grid.bucket[start]) * grid.bucket_minutes // 60)
        batches[slot].append(SpatialEventBatch(events[start:stop], slot))
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
    rows = slice(np.searchsorted(grid.day, day, "left"),
                 np.searchsorted(grid.day, day, "right"))
    cx = (grid.ix[rows] + 0.5) * grid.cell_m
    cy = (grid.iy[rows] + 0.5) * grid.cell_m
    hit = (x_lo <= cx) & (cx <= x_hi) & (y_lo <= cy) & (cy <= y_hi)
    hit[hit] = point_in_polygon(poly, cx[hit], cy[hit])
    # an empty selection would come back as integers
    return np.bincount(grid.bucket[rows][hit], weights=grid.counts[rows][hit],
                       minlength=grid.buckets_per_day).astype(float)


def hotspot_activity(grid: BucketGrid, h: Hotspot, day: str,
                     resolution_minutes: int = 10) -> ActivityTimeSeries:
    """Min-max-normalized activity series for one hotspot and day."""
    if resolution_minutes <= 0:
        raise ValueError(f"resolution_minutes = {resolution_minutes} must be positive")
    if resolution_minutes % grid.bucket_minutes != 0:
        raise ValueError("target resolution must be a multiple of the bucket length")
    raw = hotspot_raw_activity(grid, h, day)
    factor = resolution_minutes // grid.bucket_minutes
    aggregated = raw.reshape(-1, factor).sum(axis=1)
    return normalize_min_max(aggregated, resolution_minutes=resolution_minutes,
                             day_id=day, hotspot_id=h.id)
