import csv
import math
import re
from datetime import datetime

import numpy as np
import pytest

from citytrails.hotspot import Hotspot, TimeSlot
from citytrails.ingest import (
    ARCHIVE_HEADER,
    DEFAULT_CELL_M,
    EARTH_RADIUS_M,
    MAX_PASSENGER_COUNT,
    REQUIRED_COLUMNS,
    TAXI_ID_COLUMNS,
    TIMESTAMP_FORMAT,
    BucketGrid,
    GeoBox,
    REASON_BAD_VALUE,
    REASON_MISSING,
    REASON_OUT_OF_BOX,
    REASON_TIME_ORDER,
    Rejection,
    TripRecord,
    bucketize,
    hotspot_activity,
    hotspot_raw_activity,
    parse_trips,
    rejections_to_csv,
    slot_event_batches,
)
from citytrails.synth import planted_trips_csv
from test_hotspot import reference_point_in_polygon

BOX = GeoBox(lon_min=-74.02, lon_max=-73.96, lat_min=40.70, lat_max=40.76)

HEADER = ("medallion,passenger_count,pickup_datetime,dropoff_datetime,"
          "pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude")

GOOD_ROW = ("T1,2,2015-02-02 08:00:00,2015-02-02 08:10:00,"
            "-74.000000,40.730000,-73.990000,40.740000")


def write_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "trips.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def from_datetime(text):
    return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")


def record(pickup="2015-02-02 08:00:00", dropoff="2015-02-02 08:10:00",
           plon=-74.0, plat=40.73, dlon=-73.99, dlat=40.74, passengers=2):
    return TripRecord(passengers,
                      (from_datetime(pickup), plon, plat),
                      (from_datetime(dropoff), dlon, dlat))


class TestParse:
    def test_valid_row_accepted(self, tmp_path):
        records, rejections = parse_trips(write_csv(tmp_path, [GOOD_ROW]), BOX)
        assert len(records) == 1 and not rejections
        r = records[0]
        assert r.passenger_count == 2
        assert r.pickup[1] == pytest.approx(-74.0)

    def test_taxi_id_column_alias_and_case(self, tmp_path):
        header = HEADER.replace("medallion", "Taxi_ID").upper()
        records, rejections = parse_trips(write_csv(tmp_path, [GOOD_ROW], header), BOX)
        assert len(records) == 1 and not rejections

    def test_missing_column_is_named(self, tmp_path):
        header = HEADER.replace("pickup_longitude,", "")
        row = GOOD_ROW.replace("-74.000000,", "")
        with pytest.raises(ValueError, match="pickup_longitude"):
            parse_trips(write_csv(tmp_path, [row], header), BOX)

    def test_empty_longitude_rejected_as_missing(self, tmp_path):
        row = GOOD_ROW.replace("-74.000000", "")
        _, rejections = parse_trips(write_csv(tmp_path, [row]), BOX)
        assert [r.reason for r in rejections] == [REASON_MISSING]
        assert rejections[0].line_number == 2

    def test_bad_timestamp_rejected(self, tmp_path):
        row = GOOD_ROW.replace("2015-02-02 08:00:00", "yesterday")
        _, rejections = parse_trips(write_csv(tmp_path, [row]), BOX)
        assert [r.reason for r in rejections] == [REASON_BAD_VALUE]

    def test_out_of_box_rejected(self, tmp_path):
        row = GOOD_ROW.replace("-73.990000", "-73.000000")
        _, rejections = parse_trips(write_csv(tmp_path, [row]), BOX)
        assert [r.reason for r in rejections] == [REASON_OUT_OF_BOX]

    def test_time_order_rejected(self, tmp_path):
        row = GOOD_ROW.replace("2015-02-02 08:10:00", "2015-02-02 07:00:00")
        _, rejections = parse_trips(write_csv(tmp_path, [row]), BOX)
        assert [r.reason for r in rejections] == [REASON_TIME_ORDER]

    def test_negative_passengers_rejected(self, tmp_path):
        row = GOOD_ROW.replace("T1,2,", "T1,-2,")
        _, rejections = parse_trips(write_csv(tmp_path, [row]), BOX)
        assert [r.reason for r in rejections] == [REASON_BAD_VALUE]

    def test_passenger_count_above_the_cap_rejected(self, tmp_path):
        rows = [GOOD_ROW.replace("T1,2,", f"T1,{count},")
                for count in (MAX_PASSENGER_COUNT, MAX_PASSENGER_COUNT + 1,
                              "99999999999999999999")]
        records, rejections = parse_trips(write_csv(tmp_path, rows), BOX)
        assert [r.passenger_count for r in records] == [MAX_PASSENGER_COUNT]
        assert rejections == [Rejection(3, REASON_BAD_VALUE),
                              Rejection(4, REASON_BAD_VALUE)]

    def test_rejection_after_blank_line_names_its_physical_line(self, tmp_path):
        # header, good row, blank line, then the bad row on line 4
        bad = GOOD_ROW.replace("-74.000000", "")
        _, rejections = parse_trips(write_csv(tmp_path, [GOOD_ROW, "", bad]), BOX)
        assert [r.line_number for r in rejections] == [4]

    def test_conservation_on_mixed_fixture(self, tmp_path):
        text = planted_trips_csv(BOX, n_valid=180, n_invalid=20, seed=4)
        path = tmp_path / "trips.csv"
        path.write_text(text, encoding="utf-8")
        records, rejections = parse_trips(path, BOX)
        total_rows = len(text.strip().split("\n")) - 1
        assert len(records) + len(rejections) == total_rows == 200
        assert len(rejections) == 20

    def test_rejection_log_format(self):
        text = rejections_to_csv([Rejection(7, REASON_MISSING)])
        assert text == "line_number,reason\n7,missing_field\n"


class TestBucketize:
    def test_both_endpoints_counted(self):
        grid = bucketize([record()], BOX)
        assert len(grid.counts) == 2
        assert all(v == 2 for v in grid.counts)
        assert grid.total_mass() == 4

    def test_bucket_boundaries(self):
        r = record(pickup="2015-02-02 08:04:59", dropoff="2015-02-02 08:05:00",
                   plon=-74.0, plat=40.73, dlon=-74.0, dlat=40.73)
        grid = bucketize([r], BOX)
        buckets = set(grid.bucket.tolist())
        assert buckets == {96, 97}  # 8:04 and 8:05 straddle a 5-minute edge

    def test_mass_conservation(self):
        rng = np.random.default_rng(0)
        records = [record(passengers=int(rng.integers(1, 5))) for _ in range(20)]
        grid = bucketize(records, BOX)
        assert grid.total_mass() == 2 * sum(r.passenger_count for r in records)

    def test_order_independent(self):
        rng = np.random.default_rng(1)
        records = [record(plon=float(rng.uniform(-74.01, -73.97)),
                          plat=float(rng.uniform(40.71, 40.75)))
                   for _ in range(15)]
        a = bucketize(records, BOX)
        b = bucketize(list(reversed(records)), BOX)
        assert a.to_csv() == b.to_csv()

    def test_archive_round_trip_and_determinism(self):
        records = [record(), record(passengers=1, plon=-73.999)]
        grid = bucketize(records, BOX)
        text = grid.to_csv()
        assert text == BucketGrid.from_csv(text).to_csv()

    def test_empty_archive_round_trip(self):
        grid = BucketGrid.from_csv(bucketize([], BOX).to_csv())
        assert grid.days() == []
        assert all(batches == [] for batches in slot_event_batches(grid).values())
        assert grid.total_mass() == 0

    def test_archive_bucket_outside_the_day_rejected(self):
        text = bucketize([record()], BOX).to_csv()
        with pytest.raises(ValueError, match="bucket index"):
            BucketGrid.from_csv(text.replace(",96,", ",288,", 1))

    @pytest.mark.parametrize("row", ["2015-02-02,96,1", "2015-02-02,96,1,2,3,4"],
                             ids=["short", "long"])
    def test_archive_row_without_five_fields_names_its_line(self, row):
        lines = bucketize([record()], BOX).to_csv().split("\n")
        # a blank line before the row still counts toward its line number
        lines[3:3] = ["", row]
        with pytest.raises(ValueError, match="bucket archive line 5: "):
            BucketGrid.from_csv("\n".join(lines))

    def test_archive_negative_count_names_its_line(self):
        lines = bucketize([record()], BOX).to_csv().split("\n")
        lines[3] = lines[3].rpartition(",")[0] + ",-2"
        with pytest.raises(ValueError, match="bucket archive line 4: negative count"):
            BucketGrid.from_csv("\n".join(lines))

    @pytest.mark.parametrize("day", ["../../escaped", "2015-02-30", "20150202",
                                     " 2015-02-02", ""],
                             ids=["path", "no-such-date", "basic-format", "padded",
                                  "empty"])
    def test_archive_day_that_is_no_iso_date_names_its_line(self, day):
        # the day names a series file, so anything but an ISO date could
        # place it outside series/
        lines = bucketize([record()], BOX).to_csv().split("\n")
        lines[3] = day + "," + lines[3].partition(",")[2]
        with pytest.raises(ValueError, match=re.escape(
                f"bucket archive line 4: day {day!r} is not an ISO date")):
            BucketGrid.from_csv("\n".join(lines))

    @pytest.mark.parametrize("header, named", [
        (None, "line 2: expected the header 'day,bucket,ix,iy,count'"),
        ("day,bucket,ix,iy", "line 2: expected the header"),
        ("count,iy,ix,bucket,day", "line 2: expected the header"),
    ], ids=["missing", "short", "reordered"])
    def test_archive_header_line_checked(self, header, named):
        lines = bucketize([record()], BOX).to_csv().split("\n")
        assert lines[1] == ARCHIVE_HEADER
        if header is None:
            del lines[1]  # the first data row would be taken for the header
        else:
            lines[1] = header
        with pytest.raises(ValueError, match=re.escape(f"bucket archive {named}")):
            BucketGrid.from_csv("\n".join(lines))

    def test_archive_without_header_or_rows_rejected(self):
        meta = bucketize([], BOX).to_csv().split("\n")[0]
        with pytest.raises(ValueError, match="bucket archive end of file: expected"):
            BucketGrid.from_csv(meta + "\n\n")

    @pytest.mark.parametrize("old, new, named", [
        (",bucket_minutes=5", "", "line 1: missing metadata key 'bucket_minutes'"),
        ("lat_min=40.7,", "lat_min=,", "line 1: metadata key 'lat_min' needs a "
                                       "number, got ''"),
        ("cell_m=3.048", "cell_m=ten", "line 1: metadata key 'cell_m' needs a "
                                       "number, got 'ten'"),
        (",bucket_minutes=5", ",bucket_minutes=5,zone=est",
         "line 1: unknown metadata key 'zone'"),
        (",bucket_minutes=5", ",bucket_minutes=5.5",
         "line 1: metadata key 'bucket_minutes' = 5.5 is not whole"),
    ], ids=["missing-key", "empty-value", "non-number", "unknown-key",
            "fractional-minutes"])
    def test_archive_metadata_error_names_line_and_key(self, old, new, named):
        text = bucketize([record()], BOX).to_csv()
        assert old in text
        with pytest.raises(ValueError, match=re.escape(f"bucket archive {named}")):
            BucketGrid.from_csv(text.replace(old, new))

    def test_archive_metadata_key_given_twice_names_it(self):
        text = bucketize([record()], BOX).to_csv().replace(
            ",bucket_minutes=5", ",bucket_minutes=5,cell_m=9", 1)
        with pytest.raises(ValueError, match=re.escape(
                "bucket archive line 1: repeated metadata key 'cell_m'")):
            BucketGrid.from_csv(text)

    def test_archive_counts_that_would_overflow_rejected(self):
        lines = bucketize([record()], BOX).to_csv().split("\n")
        lines[3] = lines[2].rpartition(",")[0] + f",{2**62}"
        lines[2] = lines[3]
        with pytest.raises(ValueError, match="too large"):
            BucketGrid.from_csv("\n".join(lines))

    @pytest.mark.parametrize("cell_m, bucket_minutes, setting", [
        (0.0, 5, "bucket_cell_m"), (-3.0, 5, "bucket_cell_m"),
        (float("nan"), 5, "bucket_cell_m"), (3.0, 7, "bucket_minutes"),
        (3.0, 0, "bucket_minutes")])
    def test_grid_settings_checked_before_projecting(self, cell_m, bucket_minutes,
                                                     setting):
        with pytest.raises(ValueError, match=setting):
            bucketize([record()], BOX, cell_m, bucket_minutes)

    @pytest.mark.parametrize("lon", [float("nan"), float("inf"), 1e300])
    def test_endpoint_off_the_cell_range_rejected(self, lon):
        with pytest.raises(ValueError, match="finite cell"):
            bucketize([record(dlon=lon)], BOX)

    def test_cell_size_is_ten_feet(self):
        assert DEFAULT_CELL_M == pytest.approx(3.048)


class TestSlotBatches:
    def test_grouping_by_bucket_and_slot(self):
        records = [record(pickup="2015-02-02 09:00:00", dropoff="2015-02-02 09:02:00"),
                   record(pickup="2015-02-02 22:00:00", dropoff="2015-02-02 22:01:00")]
        batches = slot_event_batches(bucketize(records, BOX))
        assert len(batches[TimeSlot.MORNING]) == 1
        assert len(batches[TimeSlot.NIGHT]) == 1
        assert batches[TimeSlot.MORNING][0].events.shape[1] == 3


def square_hotspot(x0, y0, size, hid="A"):
    ring = np.array([[x0, y0], [x0 + size, y0], [x0 + size, y0 + size],
                     [x0, y0 + size]])
    return Hotspot(hid, ring, ("Morning",))


def reference_raw_activity(grid, h, day):
    """Per-bucket counts by one scalar polygon test per archive row."""
    raw = np.zeros(grid.buckets_per_day)
    for d, bucket, ix, iy, count in zip(grid.day, grid.bucket, grid.ix, grid.iy,
                                        grid.counts):
        cx, cy = (ix + 0.5) * grid.cell_m, (iy + 0.5) * grid.cell_m
        if (d == day and cx <= grid.box.width_m and cy <= grid.box.height_m
                and reference_point_in_polygon(h.polygon, cx, cy)):
            raw[bucket] += count
    return raw


class TestHotspotActivity:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        records = [record(pickup=f"2015-02-0{d} {h:02d}:{m:02d}:00",
                          dropoff=f"2015-02-0{d} {h:02d}:{m:02d}:30",
                          plon=float(rng.uniform(-74.0, -73.99)),
                          plat=float(rng.uniform(40.72, 40.73)),
                          dlon=float(rng.uniform(-74.0, -73.99)),
                          dlat=float(rng.uniform(40.72, 40.73)),
                          passengers=int(rng.integers(1, 5)))
                   for d, h, m in zip(rng.integers(2, 4, 400), rng.integers(0, 24, 400),
                                      rng.integers(0, 60, 400))]
        grid = BucketGrid.from_csv(bucketize(records, BOX).to_csv())
        x0, y0 = BOX.to_meters(-74.0, 40.72)
        concave = Hotspot("A", np.array([[x0, y0], [x0 + 800, y0], [x0 + 800, y0 + 1100],
                                         [x0 + 400, y0 + 300], [x0, y0 + 1100]]), ())
        for day in grid.days():
            raw = hotspot_raw_activity(grid, concave, day)
            assert np.array_equal(raw, reference_raw_activity(grid, concave, day))
            assert 0 < raw.sum() < grid.total_mass()

    def test_inactive_polygon_gives_flagged_zeros(self):
        grid = bucketize([record()], BOX)
        far = square_hotspot(3000.0, 3000.0, 200.0)
        series = hotspot_activity(grid, far, "2015-02-02")
        assert series.constant
        assert np.all(series.samples == 0.0)

    def test_disjoint_polygons_sum_to_region(self):
        rng = np.random.default_rng(2)
        records = [record(plon=float(rng.uniform(-74.019, -73.961)),
                          plat=float(rng.uniform(40.701, 40.759)),
                          passengers=int(rng.integers(1, 4)))
                   for _ in range(40)]
        grid = bucketize(records, BOX)
        left = square_hotspot(0.0, 0.0, 2500.0)
        right = square_hotspot(2500.1, 0.0, 2400.0, "B")
        both = Hotspot("C", np.array([[0.0, 0.0], [4900.1, 0.0],
                                      [4900.1, 2500.0], [0.0, 2500.0]]), ())
        raw_left = hotspot_raw_activity(grid, left, "2015-02-02")
        raw_right = hotspot_raw_activity(grid, right, "2015-02-02")
        raw_both = hotspot_raw_activity(grid, both, "2015-02-02")
        assert np.array_equal(raw_left + raw_right, raw_both)

    def test_raw_counts_are_nonnegative_integers(self):
        grid = bucketize([record()], BOX)
        raw = hotspot_raw_activity(grid, square_hotspot(0.0, 0.0, 5000.0),
                                   "2015-02-02")
        assert np.all(raw >= 0)
        assert np.all(raw == raw.astype(int))

    def test_sinusoidal_demand_recovered(self):
        # plant a deterministic sinusoidal rate inside a polygon and check the
        # extracted raw series tracks it
        counts = (10 + 8 * np.sin(np.linspace(0, 4 * np.pi, 288))).round()
        records = []
        for bucket, c in enumerate(counts):
            t = f"2015-02-02 {bucket * 5 // 60:02d}:{bucket * 5 % 60:02d}:00"
            records.append(record(pickup=t, dropoff=t, plon=-74.0, plat=40.73,
                                  dlon=-74.0, dlat=40.73, passengers=int(c)))
        grid = bucketize(records, BOX)
        spot = square_hotspot(1500.0, 3000.0, 500.0)
        px, py = BOX.to_meters(-74.0, 40.73)
        assert spot.polygon[:, 0].min() <= px <= spot.polygon[:, 0].max()
        raw = hotspot_raw_activity(grid, spot, "2015-02-02")
        assert np.corrcoef(raw, 2 * counts)[0, 1] > 0.99

    def test_aggregation_to_target_resolution(self):
        grid = bucketize([record()], BOX)
        series = hotspot_activity(grid, square_hotspot(0.0, 0.0, 5000.0),
                                  "2015-02-02", resolution_minutes=10)
        assert len(series) == 144
        with pytest.raises(ValueError):
            hotspot_activity(grid, square_hotspot(0.0, 0.0, 5000.0),
                             "2015-02-02", resolution_minutes=7)
        # a multiple of the 5-minute buckets that does not divide a day
        with pytest.raises(ValueError, match="resolution_minutes = 35"):
            hotspot_activity(grid, square_hotspot(0.0, 0.0, 5000.0),
                             "2015-02-02", resolution_minutes=35)

    def test_polygon_outside_box_rejected(self):
        grid = bucketize([record()], BOX)
        outside = square_hotspot(-500.0, 0.0, 400.0)
        with pytest.raises(ValueError):
            hotspot_activity(grid, outside, "2015-02-02")


    def test_polygon_across_east_edge_counts_inside_part(self):
        edge = record(plon=BOX.lon_max, plat=40.73, dlon=BOX.lon_max - 0.0001,
                      dlat=40.73)
        grid = bucketize([edge], BOX)
        width = BOX.width_m
        across = square_hotspot(width - 100.0, 2000.0, 3000.0)
        inside = Hotspot("B", np.array([[width - 100.0, 2000.0], [width, 2000.0],
                                        [width, 5000.0], [width - 100.0, 5000.0]]), ())
        raw = hotspot_raw_activity(grid, across, "2015-02-02")
        assert raw.sum() == 4  # both endpoints of the two-passenger trip
        assert np.array_equal(raw, hotspot_raw_activity(grid, inside, "2015-02-02"))
        with pytest.raises(ValueError):
            hotspot_raw_activity(grid, square_hotspot(width, 0.0, 100.0), "2015-02-02")


class TestGeoBox:
    def test_projection_scale(self):
        x, _ = BOX.to_meters(BOX.lon_max, BOX.lat_min)
        _, y = BOX.to_meters(BOX.lon_min, BOX.lat_max)
        # 0.06 deg of longitude at ~40.7N and 0.06 deg of latitude
        assert x == pytest.approx(0.06 * 111195 * np.cos(np.radians(40.73)), rel=0.01)
        assert y == pytest.approx(0.06 * 111195, rel=0.01)

    def test_contains(self):
        assert BOX.contains(-74.0, 40.73)
        assert not BOX.contains(-75.0, 40.73)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GeoBox(1.0, 0.0, 0.0, 1.0)


# --- reference oracles ---------------------------------------------------------
# The row-at-a-time parser (csv.DictReader, strptime on every timestamp) and the
# dict-summing grid construction, kept as the columnar ingest replaced them.

def reference_header_map(fieldnames) -> dict[str, str]:
    lowered = {name.strip().lower(): name for name in fieldnames}
    mapping = {}
    taxi = next((c for c in TAXI_ID_COLUMNS if c in lowered), None)
    if taxi is None:
        raise ValueError(f"missing mandatory column: one of {TAXI_ID_COLUMNS}")
    mapping["taxi_id"] = lowered[taxi]  # only checked for presence
    for column in REQUIRED_COLUMNS:
        if column not in lowered:
            raise ValueError(f"missing mandatory column: {column}")
        mapping[column] = lowered[column]
    return mapping


def reference_parse_trips(path, box: GeoBox) -> tuple[list[TripRecord], list[Rejection]]:
    records: list[TripRecord] = []
    rejections: list[Rejection] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError("unreadable CSV: no header row")
        columns = reference_header_map(reader.fieldnames)
        for row in reader:
            parsed = reference_parse_row(row, columns, box)
            if isinstance(parsed, str):
                # the physical line: DictReader skips blank lines
                rejections.append(Rejection(reader.line_num, parsed))
            else:
                records.append(parsed)
    return records, rejections


def reference_parse_row(row: dict, columns: dict[str, str], box: GeoBox):
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
    return TripRecord(passengers,
                      (pickup_ts, coords[0], coords[1]),
                      (dropoff_ts, coords[2], coords[3]))


def reference_grid(box: GeoBox, cell_m: float, bucket_minutes: int, entries) -> BucketGrid:
    """Sum the counts of repeated keys among the ((day, bucket, ix, iy), count)
    ``entries`` in a dict and sort the keys into columns."""
    self = BucketGrid.__new__(BucketGrid)
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
    return self


def reference_bucketize(records, box: GeoBox, cell_m: float = DEFAULT_CELL_M,
                        bucket_minutes: int = 5) -> BucketGrid:
    # the equirectangular projection in scalar math, not GeoBox.to_meters
    cos_c = math.cos(math.radians(0.5 * (box.lat_min + box.lat_max)))

    def entries():
        for record in records:
            for timestamp, lon, lat in (record.pickup, record.dropoff):
                mx = math.radians(lon - box.lon_min) * EARTH_RADIUS_M * cos_c
                my = math.radians(lat - box.lat_min) * EARTH_RADIUS_M
                bucket = (timestamp.hour * 60 + timestamp.minute) // bucket_minutes
                yield ((timestamp.date().isoformat(), bucket,
                        int(mx // cell_m), int(my // cell_m)), record.passenger_count)

    return reference_grid(box, cell_m, bucket_minutes, entries())


def reference_from_csv(text: str) -> BucketGrid:
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("bucket archive must start with a metadata comment line")
    meta = {}
    for item in lines[0].lstrip("#").strip().split(","):
        key, _, value = item.partition("=")
        meta[key.strip()] = float(value)
    rows = (line.split(",") for line in lines[2:])
    return reference_grid(GeoBox(meta["lon_min"], meta["lon_max"],
                                 meta["lat_min"], meta["lat_max"]),
                          meta["cell_m"], int(meta["bucket_minutes"]),
                          (((day, int(bucket), int(ix), int(iy)), int(count))
                           for day, bucket, ix, iy, count in rows))


def assert_same_grid(grid: BucketGrid, reference: BucketGrid) -> None:
    for name in ("day", "bucket", "ix", "iy", "counts"):
        assert np.array_equal(getattr(grid, name), getattr(reference, name)), name
    assert grid.to_csv() == reference.to_csv()


def trip_row(taxi="T1", passengers="2", pickup="2015-02-02 08:00:00",
             dropoff="2015-02-02 08:10:00", plon="-74.000000", plat="40.730000",
             dlon="-73.990000", dlat="40.740000"):
    return ",".join((taxi, passengers, pickup, dropoff, plon, plat, dlon, dlat))


TIMESTAMP_CORPUS = [
    "2015-02-02 08:00:00", "2016-02-29 23:59:59", "0001-01-01 00:00:00",
    "2015-02-02 24:00:00", "2015-02-02 08:60:00", "2015-02-02 08:00:60",
    "2015-02-02 08:00:61", "2015-02-29 08:00:00", "2015-04-31 08:00:00",
    "2015-00-10 08:00:00", "2015-13-10 08:00:00", "2015-02-00 08:00:00",
    "0000-02-02 08:00:00", "2015-02-02T08:00:00", "2015-02-02 08:00:00.250",
    "2015-02-02 08:00", "2015-02-02", "２０１５-02-02 08:00:00",
    "٢٠١٥-٠٢-٠٢ ٠٨:٠٠:٠٠", "2015-1-5 3:04:05", "2015-01-05 03:04:5",
    "2015-02-02  08:00:00", "2015-02-02\t08:00:00", "2015/02/02 08:00:00",
    "2015-02-02 08:00:00Z", "2015-02-02 08:00:00+00:00", "x015-02-02 08:00:00",
]

ROW_CORPUS = [
    trip_row(), "", "   ", ",,,,,,,", trip_row(taxi='"T\n2"'),
    trip_row(taxi='"T,3"', passengers='"3"'), "T4,2,2015-02-02 08:00:00",
    trip_row() + ",extra,fields", trip_row(passengers=" +3 "),
    trip_row(passengers="-1"), trip_row(passengers="1.5"),
    trip_row(passengers="2_0"), trip_row(passengers="٣"),
    trip_row(passengers=str(MAX_PASSENGER_COUNT)), trip_row(passengers="0"),
    trip_row(plon="nan"), trip_row(dlat="inf"), trip_row(plon="-74.02"),
    trip_row(plon="-74.0200001"), trip_row(dlat="4.074e1"), trip_row(dlon="x"),
    trip_row(pickup="2015-02-02 08:10:01"), trip_row(pickup=" 2015-02-02 08:10:00 "),
    "", "", trip_row(pickup="2015-02-03 08:00:00", dropoff="2015-02-03 08:10:00"),
    trip_row(pickup="2015-02-03 08:04:59", dropoff="2015-02-04 08:00:00"),
] + [trip_row(pickup=t) for t in TIMESTAMP_CORPUS] \
  + [trip_row(dropoff=t, pickup="0001-01-01 00:00:00") for t in TIMESTAMP_CORPUS]


def both_parsers(path):
    """The parser's and the reference's outcome: records and rejections, or
    the error message."""
    outcomes = []
    for parse in (parse_trips, reference_parse_trips):
        try:
            outcomes.append(parse(path, BOX))
        except ValueError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestAgainstReference:
    @pytest.mark.parametrize("header, prefix, suffix", [
        (HEADER, "", ""), (HEADER.upper(), "", ""),
        (HEADER.replace("medallion", " Taxi_ID "), "", ""),
        ("taxi_id," + HEADER, "X9,", ""),
        (HEADER + ",MEDALLION", "", ",T7"),
        (HEADER + ", Pickup_Datetime ", "", ",2015-02-02 08:05:00"),
        (HEADER + ",passenger_count", "", ",3"),
        (HEADER.replace("pickup_longitude,", ""), "", ""),
        ("", "", ""), ("\n" + HEADER, "", ""),
    ], ids=["plain", "upper", "taxi_id", "both-ids", "case-variant-id",
            "case-variant-time", "duplicate", "missing-column", "empty",
            "blank-first-line"])
    def test_parse_matches_reference(self, tmp_path, header, prefix, suffix):
        rows = [prefix + row + suffix if row.strip() else row for row in ROW_CORPUS]
        path = tmp_path / "trips.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        ours, reference = both_parsers(path)
        assert ours == reference
        if isinstance(ours, tuple):
            records, rejections = ours
            assert len(records) > 10 and len(rejections) > 10
            assert_same_grid(bucketize(records, BOX), reference_bucketize(records, BOX))

    @pytest.mark.parametrize("text", ["", HEADER, HEADER + "\n", HEADER + "\n\n  \n"],
                             ids=["empty-file", "header", "header-newline",
                                  "blank-tail"])
    def test_empty_input_matches_reference(self, tmp_path, text):
        path = tmp_path / "trips.csv"
        path.write_text(text, encoding="utf-8")
        ours, reference = both_parsers(path)
        assert ours == reference

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_planted_trips_match_reference(self, tmp_path, seed):
        path = tmp_path / "trips.csv"
        path.write_text(planted_trips_csv(BOX, n_valid=1500, n_invalid=150, days=3,
                                          seed=seed), encoding="utf-8")
        records, rejections = parse_trips(path, BOX)
        assert (records, rejections) == reference_parse_trips(path, BOX)
        grid = bucketize(records, BOX)
        assert_same_grid(grid, reference_bucketize(records, BOX))
        assert_same_grid(BucketGrid.from_csv(grid.to_csv()),
                         reference_from_csv(grid.to_csv()))

    @pytest.mark.parametrize("cell_m, bucket_minutes",
                             [(DEFAULT_CELL_M, 5), (0.7, 1), (25.0, 15), (150.0, 1440)])
    def test_repeated_keys_across_days_match_reference(self, cell_m, bucket_minutes):
        # few distinct cells, minutes and days, so most keys repeat
        rng = np.random.default_rng(7)
        lon = rng.choice(np.linspace(BOX.lon_min, BOX.lon_max, 9), 600)
        lat = rng.choice(np.linspace(BOX.lat_min, BOX.lat_max, 9), 600)
        stamps = [f"2015-02-0{d} {h:02d}:{m:02d}:{s:02d}" for d, h, m, s in zip(
            rng.integers(1, 4, 600), rng.choice([0, 7, 23], 600),
            rng.choice([0, 4, 5, 59], 600), rng.integers(0, 60, 600))]
        records = [record(pickup=t, dropoff=t, plon=float(x), plat=float(y),
                          dlon=float(x), dlat=float(y),
                          passengers=int(c))
                   for t, x, y, c in zip(stamps, lon, lat, rng.integers(0, 7, 600))]
        grid = bucketize(records, BOX, cell_m, bucket_minutes)
        reference = reference_bucketize(records, BOX, cell_m, bucket_minutes)
        assert len(reference.counts) < 2 * len(records)
        assert_same_grid(grid, reference)

    def test_cells_at_cell_edges_match_reference(self):
        # with cell_m = offset / n, offset / cell_m rounds to n while
        # offset // cell_m is often n - 1: cells must floor-divide as // does
        for lon, lat in ((-74.013, 40.7301), (-73.991, 40.759), (-73.9612, 40.7013)):
            r = record(plon=lon, plat=lat, dlon=lon, dlat=lat)
            for offset in BOX.to_meters(lon, lat):
                for n in (3, 7, 10, 49, 113):
                    assert_same_grid(bucketize([r], BOX, offset / n),
                                     reference_bucketize([r], BOX, offset / n))

    def test_archive_with_repeated_keys_and_blank_lines_matches_reference(self):
        text = ("# lon_min=-74.02,lon_max=-73.96,lat_min=40.7,lat_max=40.76,"
                "cell_m=3.048,bucket_minutes=5\n\nday,bucket,ix,iy,count\n"
                "2015-02-03,5,1,2,3\n  \n2015-02-02,5,1,2,4\n2015-02-03,5,1,2,1\n"
                "2015-02-02,4,7,-1, 0 \n2015-02-02,4,7,-2,+9\r\n\n")
        assert_same_grid(BucketGrid.from_csv(text), reference_from_csv(text))
