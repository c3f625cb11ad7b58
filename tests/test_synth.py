"""The synthetic trip CSV generator (pinned bytes and argument checks) and the
labels CSV reader."""

import hashlib
import re

import pytest

from citytrails.ingest import GeoBox
from citytrails.synth import TRIPS_HEADER, parse_labels_csv, planted_trips_csv, \
    synthetic_year

# The study box of the CLI tests' config.
BOX = GeoBox(lon_min=-74.02, lon_max=-73.98, lat_min=40.70, lat_max=40.74)

# sha256 of planted_trips_csv's text per (seed, n_valid, n_invalid,
# n_clusters, days): the bench's trips shape, the CLI default, seven clusters
# on one day, every breaker kind without valid rows, and no rows at all.
TRIPS_DIGESTS = {
    (0, 3000, 250, 1, 4):
        "0cbcab1d54618a1372a0bd17de7fd4efab61bdc626a1fcddc275af4802b27fa1",
    (3, 3000, 250, 4, 2):
        "d423e3494d8420ca032b1926a07880e4de037ffb1753c227c6e14f96140f0a3b",
    (21, 500, 37, 7, 1):
        "3a6d0e4bf9140c87aa9d62fb363f5e3c9cc49b3d60b2649ba2ae212bf75e9a1b",
    (5, 0, 9, 4, 2):
        "66c76ece4bcf1cfb0363153c0fde3a9185de233e9bd80e7b33f5d566fe82d003",
    (2, 0, 0, 4, 2):
        "e285fdc54bedf75788d0a33cc67f77be17c971ec88a56b29eb773d9943bb52ee",
}


class TestPlantedTripsCsv:
    @pytest.mark.parametrize("shape", sorted(TRIPS_DIGESTS))
    def test_bytes_match_recorded_digest(self, shape):
        seed, n_valid, n_invalid, n_clusters, days = shape
        text = planted_trips_csv(BOX, n_valid=n_valid, n_invalid=n_invalid,
                                 n_clusters=n_clusters, days=days, seed=seed)
        assert text.startswith(TRIPS_HEADER + "\n")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == TRIPS_DIGESTS[shape]

    @pytest.mark.parametrize("name", ["n_valid", "n_invalid"])
    def test_negative_row_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} = -1"):
            planted_trips_csv(BOX, **{name: -1})

    @pytest.mark.parametrize("name", ["n_clusters", "days"])
    @pytest.mark.parametrize("n_valid", [0, 10])
    def test_shape_below_one_rejected(self, name, n_valid):
        with pytest.raises(ValueError, match=f"{name} = 0 must be at least 1"):
            planted_trips_csv(BOX, n_valid=n_valid, n_invalid=0, **{name: 0})


class TestParseLabelsCsv:
    def test_reads_back_the_flagged_days(self):
        year = synthetic_year(n_days=21, anomaly_count=9, length=96, seed=4)
        flagged = {d.day_id for d, f in zip(year.days, year.anomaly_flags) if f}
        assert len(flagged) == 9
        flags = parse_labels_csv(year.labels_csv())
        assert list(flags) == [d.day_id for d in year.days]
        assert {day for day, flag in flags.items() if flag} == flagged
        # blank lines are skipped, as in every comment-headed CSV
        assert parse_labels_csv(year.labels_csv().replace("\n", "\n\n")) == flags

    @pytest.mark.parametrize("text, named", [
        ("", "end of file: expected the header"),
        ("day_id,class,is_anomaly\n", "line 1: expected the header"),
        ("day_id,class,is_anomaly,kind\n2015-01-05,W,0,\n2015-01-06,W,1\n",
         "line 3: expected the 4 fields"),
        ("day_id,class,is_anomaly,kind\n2015-01-05,W,0,,\n",
         "line 2: expected the 4 fields"),
        # a blank line is skipped but still counted
        ("day_id,class,is_anomaly,kind\n\n2015-01-05,W,2,\n",
         "line 3: is_anomaly = '2' is not 0 or 1"),
        ("day_id,class,is_anomaly,kind\n2015-01-05,W,True,shift\n",
         "line 2: is_anomaly = 'True' is not 0 or 1"),
        ("day_id,class,is_anomaly,kind\n2015-01-05,W,0,\n2015-01-05,W,1,shift\n",
         "line 3: day 2015-01-05 is listed again"),
        ("day_id,class,is_anomaly,kind\n2015-01-10,W,0,\n",
         "line 2: day 2015-01-10 has class 'W', but its weekday class is 'E'"),
        ("day_id,class,is_anomaly,kind\n2015-01-11,L,0,\n2015-02-30,W,0,\n",
         "line 3: day_id '2015-02-30' is not an ISO date"),
        # read as 2015-02-02 by date.fromisoformat on Python 3.11, not on 3.10
        ("day_id,class,is_anomaly,kind\n20150202,W,0,\n",
         "line 2: day_id '20150202' is not an ISO date"),
    ], ids=["empty", "header", "short-row", "long-row", "blank-row", "flag",
            "duplicate-day", "wrong-class", "non-date", "basic-format"])
    def test_malformed_rejected_naming_the_line(self, text, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            parse_labels_csv(text)
