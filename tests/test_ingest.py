import numpy as np
import pytest

from citytrails.hotspot import Hotspot, TimeSlot
from citytrails.ingest import (
    DEFAULT_CELL_M,
    BucketGrid,
    GeoBox,
    REASON_BAD_VALUE,
    REASON_MISSING,
    REASON_OUT_OF_BOX,
    REASON_TIME_ORDER,
    TripRecord,
    bucketize,
    hotspot_activity,
    hotspot_raw_activity,
    parse_trips,
    rejections_to_csv,
    slot_event_batches,
)
from citytrails.synth import planted_trips_csv

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
    from datetime import datetime
    return datetime.strptime(text, "%Y-%m-%d %H:%M:%S")


def record(pickup="2015-02-02 08:00:00", dropoff="2015-02-02 08:10:00",
           plon=-74.0, plat=40.73, dlon=-73.99, dlat=40.74, passengers=2):
    return TripRecord("T1", passengers,
                      (from_datetime(pickup), plon, plat),
                      (from_datetime(dropoff), dlon, dlat))


class TestParse:
    def test_valid_row_accepted(self, tmp_path):
        records, rejections = parse_trips(write_csv(tmp_path, [GOOD_ROW]), BOX)
        assert len(records) == 1 and not rejections
        r = records[0]
        assert r.taxi_id == "T1"
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

    def test_conservation_on_mixed_fixture(self, tmp_path):
        text = planted_trips_csv(BOX, n_valid=180, n_invalid=20, seed=4)
        path = tmp_path / "trips.csv"
        path.write_text(text, encoding="utf-8")
        records, rejections = parse_trips(path, BOX)
        total_rows = len(text.strip().split("\n")) - 1
        assert len(records) + len(rejections) == total_rows == 200
        assert len(rejections) == 20

    def test_rejection_log_format(self):
        from citytrails.ingest import Rejection
        text = rejections_to_csv([Rejection(7, REASON_MISSING)])
        assert text == "line_number,reason\n7,missing_field\n"


class TestBucketize:
    def test_both_endpoints_counted(self):
        grid = bucketize([record()], BOX)
        assert len(grid.counts) == 2
        assert all(v == 2 for v in grid.counts.values())
        assert grid.total_mass() == 4

    def test_bucket_boundaries(self):
        r = record(pickup="2015-02-02 08:04:59", dropoff="2015-02-02 08:05:00",
                   plon=-74.0, plat=40.73, dlon=-74.0, dlat=40.73)
        grid = bucketize([r], BOX)
        buckets = {key[1] for key in grid.counts}
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
        assert a.counts == b.counts

    def test_archive_round_trip_and_determinism(self):
        records = [record(), record(passengers=1, plon=-73.999)]
        grid = bucketize(records, BOX)
        text = grid.to_csv()
        assert text == BucketGrid.from_csv(text).to_csv()

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


class TestHotspotActivity:
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
