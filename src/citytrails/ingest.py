"""Trip-record ingestion: CSV parsing, cleaning, space-time bucketization.

Trips carry pick-up and drop-off endpoints; both endpoints contribute their
passenger count to a (10-foot cell, 5-minute bucket) grid under a local
equirectangular projection, held as NumPy columns sorted by (day, bucket,
ix, iy). Rows are read with ``csv.reader``; timestamps in the exact
zero-padded format skip ``strptime``. ``bucketize`` projects all endpoints
in one ``GeoBox.to_meters`` call, and the grid's one constructor sorts key
columns and sums repeated keys, so the archive reader parses straight into
columns. Slot event batches are contiguous slices of the grid; a hotspot's
series for a day is one polygon test of its cell centers and one bincount.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .hotspot import Hotspot, SpatialEventBatch, TimeSlot, point_in_polygon, slot_for_hour
from .series import DEFAULT_RESOLUTION_MINUTES, MINUTES_PER_DAY, ActivityTimeSeries, \
    framed_csv, iso_date, normalize_min_max, read_framed_csv, samples_per_day

EARTH_RADIUS_M = 6371000.0
FOOT_M = 0.3048
DEFAULT_CELL_M = 10 * FOOT_M
DEFAULT_BUCKET_MINUTES = 5
TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
# TIMESTAMP_FORMAT with ASCII digits, zero padding and in-range fields, which
# datetime.fromisoformat reads as strptime does; an invalid day of the month
# or year 0 fails in both
_TIMESTAMP_SHAPE = re.compile(r"[0-9]{4}-(?:0[1-9]|1[0-2])-(?:0[1-9]|[12][0-9]|3[01]) "
                              r"(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]")
# largest accepted passenger count: 2 endpoints x 10^9 rows of it still sum
# inside int64
MAX_PASSENGER_COUNT = 2**31 - 1

TAXI_ID_COLUMNS = ("medallion", "taxi_id")
REQUIRED_COLUMNS = ("passenger_count", "pickup_datetime", "dropoff_datetime",
                    "pickup_longitude", "pickup_latitude",
                    "dropoff_longitude", "dropoff_latitude")

REASON_MISSING = "missing_field"
REASON_BAD_VALUE = "bad_value"
REASON_OUT_OF_BOX = "out_of_box"
REASON_TIME_ORDER = "dropoff_before_pickup"

# The bucket archive's metadata keys, in the order of its first line, each
# read as a number, and the column header on its second.
ARCHIVE_META = dict.fromkeys(("lon_min", "lon_max", "lat_min", "lat_max", "cell_m",
                              "bucket_minutes"), float)
ARCHIVE_HEADER = "day,bucket,ix,iy,count"


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

    def to_meters(self, lon, lat):
        """Meters east/north of the box's southwest corner, of scalars or arrays."""
        cos_c = math.cos(math.radians(0.5 * (self.lat_min + self.lat_max)))
        mx = np.radians(lon - self.lon_min) * EARTH_RADIUS_M * cos_c
        my = np.radians(lat - self.lat_min) * EARTH_RADIUS_M
        return mx, my

    @property
    def width_m(self) -> float:
        return float(self.to_meters(self.lon_max, self.lat_min)[0])

    @property
    def height_m(self) -> float:
        return float(self.to_meters(self.lon_min, self.lat_max)[1])


@dataclass(frozen=True)
class TripRecord:
    passenger_count: int
    pickup: tuple[datetime, float, float]    # (timestamp, lon, lat)
    dropoff: tuple[datetime, float, float]


@dataclass(frozen=True)
class Rejection:
    line_number: int
    reason: str


def _header_map(fieldnames) -> tuple[int, ...]:
    """Column index of the taxi id, then of each ``REQUIRED_COLUMNS`` entry.

    Names match case-insensitively and ignoring surrounding spaces; of
    repeated names the last column wins.
    """
    lowered = {name.strip().lower(): i for i, name in enumerate(fieldnames)}
    taxi = next((c for c in TAXI_ID_COLUMNS if c in lowered), None)
    if taxi is None:
        raise ValueError(f"missing mandatory column: one of {TAXI_ID_COLUMNS}")
    for column in REQUIRED_COLUMNS:
        if column not in lowered:
            raise ValueError(f"missing mandatory column: {column}")
    return (lowered[taxi],) + tuple(lowered[c] for c in REQUIRED_COLUMNS)


def parse_trips(path, box: GeoBox) -> tuple[list[TripRecord], list[Rejection]]:
    """Stream a TLC-style trip CSV into records plus a rejection log.

    Every input row is accounted for: it becomes exactly one record or one
    rejection carrying the first reason that disqualified it. Blank rows are
    skipped; a rejection names the physical line its row ends on.
    """
    records: list[TripRecord] = []
    rejections: list[Rejection] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("unreadable CSV: no header row")
        columns = _header_map(header)
        width = max(columns) + 1
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                row += [""] * (width - len(row))
            parsed = _parse_row([row[i].strip() for i in columns], box)
            if isinstance(parsed, str):
                rejections.append(Rejection(reader.line_num, parsed))
            else:
                records.append(parsed)
    return records, rejections


def _parse_row(values: list[str], box: GeoBox):
    if "" in values:
        return REASON_MISSING
    _, passengers, pickup, dropoff, *coords = values  # the taxi id need only be present
    try:
        passengers = int(passengers)
        pickup_ts = _parse_timestamp(pickup)
        dropoff_ts = _parse_timestamp(dropoff)
        plon, plat, dlon, dlat = map(float, coords)
    except ValueError:
        return REASON_BAD_VALUE
    if not 0 <= passengers <= MAX_PASSENGER_COUNT:
        return REASON_BAD_VALUE
    if dropoff_ts < pickup_ts:
        return REASON_TIME_ORDER
    if not (box.contains(plon, plat) and box.contains(dlon, dlat)):
        return REASON_OUT_OF_BOX
    return TripRecord(passengers, (pickup_ts, plon, plat), (dropoff_ts, dlon, dlat))


def _parse_timestamp(text: str) -> datetime:
    """``strptime(text, TIMESTAMP_FORMAT)``, with a fast path for the exact
    zero-padded shape; any other string, valid or not, goes to ``strptime``."""
    if _TIMESTAMP_SHAPE.fullmatch(text):
        return datetime.fromisoformat(text)
    return datetime.strptime(text, TIMESTAMP_FORMAT)


def rejections_to_csv(rejections) -> str:
    return framed_csv("line_number,reason", (f"{r.line_number},{r.reason}"
                                             for r in rejections))


def _check_grid(cell_m: float, bucket_minutes: int) -> None:
    if bucket_minutes <= 0 or MINUTES_PER_DAY % bucket_minutes:
        raise ValueError(f"bucket_minutes = {bucket_minutes} does not divide "
                         f"the {MINUTES_PER_DAY} minutes of a day")
    if not cell_m > 0:
        raise ValueError(f"bucket_cell_m = {cell_m} must be positive")


class BucketGrid:
    """Passenger counts per (spatial cell, 5-minute bucket), per day.

    One row per occupied key, held as columns sorted by (day ISO date,
    intraday bucket index, cell ix, cell iy); ``counts`` is the count column.
    Buckets are aligned to midnight local time. The constructor takes key and
    count columns in any order, with keys that may repeat.
    """

    def __init__(self, box: GeoBox, cell_m: float, bucket_minutes: int,
                 day, bucket, ix, iy, counts) -> None:
        """Sort the (``day``, ``bucket``, ``ix``, ``iy``) key columns and sum
        ``counts`` over each run of repeated keys."""
        _check_grid(cell_m, bucket_minutes)
        self.box = box
        self.cell_m = cell_m
        self.bucket_minutes = bucket_minutes
        # days sort as the indices of their sorted distinct names: a string
        # sort key would cost more time and memory
        day_names, day = np.unique(np.asarray(day, dtype=str), return_inverse=True)
        bucket, ix, iy, counts = (np.asarray(c, dtype=np.int64)
                                  for c in (bucket, ix, iy, counts))
        if bucket.size and not 0 <= bucket.min() <= bucket.max() < self.buckets_per_day:
            raise ValueError(f"bucket index outside 0..{self.buckets_per_day - 1}")
        if counts.size and counts.max() > np.iinfo(np.int64).max // counts.size:
            raise ValueError("counts too large to sum in int64")
        order = np.lexsort((iy, ix, bucket, day))
        keys = [column[order] for column in (day, bucket, ix, iy)]
        starts = np.ones(order.size, dtype=bool)
        starts[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
        starts = np.flatnonzero(starts)
        day, self.bucket, self.ix, self.iy = (k[starts] for k in keys)
        self.day = day_names[day]
        self.counts = (np.add.reduceat(counts[order], starts) if order.size
                       else counts)

    @property
    def buckets_per_day(self) -> int:
        return MINUTES_PER_DAY // self.bucket_minutes

    def total_mass(self) -> int:
        return int(self.counts.sum())

    def days(self) -> list[str]:
        return np.unique(self.day).tolist()

    def to_csv(self) -> str:
        meta = {**vars(self.box), "cell_m": self.cell_m,
                "bucket_minutes": self.bucket_minutes}
        rows = (f"{d},{b},{x},{y},{c}" for d, b, x, y, c in zip(
            self.day.tolist(), self.bucket.tolist(), self.ix.tolist(),
            self.iy.tolist(), self.counts.tolist()))
        return framed_csv(ARCHIVE_HEADER, rows, meta)

    @classmethod
    def from_csv(cls, text: str) -> "BucketGrid":
        """Read a ``to_csv`` archive with ``read_framed_csv``, so an error names
        its line. A day names a series file, so it must be an ISO date."""
        meta, meta_line, numbers, rows, values = read_framed_csv(
            text, "bucket archive", ARCHIVE_HEADER, ARCHIVE_META, (1, 2, 3, 4), np.int64)
        if not meta["bucket_minutes"].is_integer():
            raise ValueError(f"bucket archive line {meta_line}: metadata key "
                             f"'bucket_minutes' = {meta['bucket_minutes']!r} is not whole")
        days = [row.partition(",")[0] for row in rows]
        bad = next((day for day in dict.fromkeys(days) if iso_date(day) is None), None)
        if bad is not None:
            raise ValueError(f"bucket archive line {numbers[days.index(bad)]}: "
                             f"day {bad!r} is not an ISO date")
        negative = np.flatnonzero(values[:, 3] < 0)
        if negative.size:
            raise ValueError(f"bucket archive line {numbers[negative[0]]}: "
                             "negative count")
        return cls(GeoBox(meta["lon_min"], meta["lon_max"],
                          meta["lat_min"], meta["lat_max"]),
                   meta["cell_m"], int(meta["bucket_minutes"]), days, *values.T)


def bucketize(records: list[TripRecord], box: GeoBox, cell_m: float = DEFAULT_CELL_M,
              bucket_minutes: int = DEFAULT_BUCKET_MINUTES) -> BucketGrid:
    """Accumulate both trip endpoints into the space-time grid.

    Order independent: cells sum passenger counts, so any permutation of the
    records produces the same grid.
    """
    _check_grid(cell_m, bucket_minutes)
    ends = [end for record in records for end in (record.pickup, record.dropoff)]
    counts = np.array([record.passenger_count for record in records],
                      dtype=np.int64).repeat(2)
    mx, my = box.to_meters(np.array([end[1] for end in ends], dtype=float),
                           np.array([end[2] for end in ends], dtype=float))
    # a nan, an inf or a cell index past int64 would cast to a wrong cell
    limit = cell_m * 2.0**62
    if not (np.all(np.abs(mx) < limit) and np.all(np.abs(my) < limit)):
        raise ValueError("a trip endpoint does not project to a finite cell")
    ordinals, day_index = np.unique(
        np.array([end[0].toordinal() for end in ends], dtype=np.int64),
        return_inverse=True)
    day_names = np.array([date.fromordinal(o).isoformat() for o in ordinals.tolist()],
                         dtype=str)
    minute = np.array([end[0].hour * 60 + end[0].minute for end in ends], dtype=np.int64)
    return BucketGrid(box, cell_m, bucket_minutes, day_names[day_index],
                      minute // bucket_minutes,
                      np.floor_divide(mx, cell_m).astype(np.int64),
                      np.floor_divide(my, cell_m).astype(np.int64), counts)


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
        batches[slot].append(SpatialEventBatch(events[start:stop]))
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
                     resolution_minutes: int = DEFAULT_RESOLUTION_MINUTES) -> ActivityTimeSeries:
    """Min-max-normalized activity series for one hotspot and day."""
    length = samples_per_day(resolution_minutes)
    if resolution_minutes % grid.bucket_minutes != 0:
        raise ValueError("target resolution must be a multiple of the bucket length")
    aggregated = hotspot_raw_activity(grid, h, day).reshape(length, -1).sum(axis=1)
    return normalize_min_max(aggregated, resolution_minutes=resolution_minutes,
                             day_id=day, hotspot_id=h.id)
