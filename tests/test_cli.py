import hashlib
import re
import shutil

import numpy as np
import pytest

import citytrails.cli as cli
from citytrails.cli import main
from citytrails.hotspot import hotspots_from_geojson, hotspots_to_geojson
from citytrails.ingest import BucketGrid
from citytrails.perceptron import load_sp, params_from_config, params_to_config, sp_ini
from citytrails.series import ActivityTimeSeries, framed_csv, read_artifact, read_framed_csv, \
    series_from_csv, series_to_csv
from citytrails.synth import LABELS_HEADER
from test_srf import oracle_final_trail

TINY_CONFIG = """\
[paths]
out = {out}

[box]
lon_min = -74.02
lon_max = -73.98
lat_min = 40.70
lat_max = 40.74

[grid]
resolution_minutes = 15

[hotspots]
trail_delta = 0.2
min_area_km2 = 0.01
count_cap = 2
smooth_beta = 0.25

[training]
per_class = 4
noise = 0.05
max_shift = 3
pattern_per_class = 4
representatives = 3

[de]
population_size = 8
generations = 6

[seeds]
master = 21
"""


@pytest.fixture()
def workspace(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "pipeline.ini"
    config.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
    return config, out


def run(config, *args):
    return main(["--config", str(config), *args])


class TestSynth:
    def test_year_and_labels(self, workspace):
        config, out = workspace
        assert run(config, "synth", "--kind", "year", "--days", "42",
                   "--anomalies", "9") == 0
        days = sorted((out / "series" / "D").glob("*.csv"))
        assert len(days) == 42
        labels = (out / "labels.csv").read_text().strip().split("\n")
        assert labels[0] == "day_id,class,is_anomaly,kind"
        assert sum(ln.split(",")[2] == "1" for ln in labels[1:]) == 9
        # 15-minute days: the header states the grid the 96 samples lie on
        for path in days:
            lines = path.read_text().strip().split("\n")
            assert lines[0].endswith(",resolution_minutes=15")
            assert len(lines) == 2 + 96

    def test_deterministic_across_runs(self, workspace, tmp_path):
        config, out = workspace
        run(config, "synth", "--kind", "trips", "--valid-rows", "200",
            "--invalid-rows", "20")
        first = (out / "trips.csv").read_bytes()
        run(config, "synth", "--kind", "trips", "--valid-rows", "200",
            "--invalid-rows", "20")
        assert (out / "trips.csv").read_bytes() == first

    @pytest.mark.parametrize("args, name", [
        (("--kind", "year", "--days", "0"), "n_days"),
        (("--kind", "year", "--days", "-3"), "n_days"),
        (("--kind", "year", "--anomalies", "-2"), "anomaly_count"),
        (("--kind", "trips", "--valid-rows", "-5"), "n_valid"),
        (("--kind", "trips", "--invalid-rows", "-1"), "n_invalid"),
    ], ids=["days=0", "days=-3", "anomalies=-2", "valid-rows=-5", "invalid-rows=-1"])
    def test_bad_count_exits_2_naming_it(self, workspace, capsys, args, name):
        config, out = workspace
        capsys.readouterr()
        assert run(config, "synth", *args) == 2
        assert name in capsys.readouterr().err
        assert not (out / "series").exists() and not (out / "trips.csv").exists()

    def test_anomalies_beyond_the_days_exit_2_naming_the_fit(self, workspace, capsys):
        config, out = workspace
        capsys.readouterr()
        assert run(config, "synth", "--kind", "year", "--days", "10",
                   "--anomalies", "50") == 2
        assert "at most 10 anomalies fit" in capsys.readouterr().err
        assert not (out / "series").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "classify", "compare"])
    @pytest.mark.parametrize("hotspot", ["../escape", "..", ".", "", "a/b"],
                             ids=["parent", "dotdot", "dot", "empty", "slash"])
    def test_non_plain_hotspot_exits_2_writing_nothing(self, workspace, capsys,
                                                       command, hotspot):
        config, out = workspace
        extra = ("--kind", "year", "--days", "14", "--anomalies", "0") \
            if command == "synth" else ()
        capsys.readouterr()
        assert run(config, command, *extra, "--hotspot", hotspot) == 2
        assert "plain name" in capsys.readouterr().err
        assert not out.exists()

    def test_lettered_hotspot_writes_its_directory(self, workspace):
        config, out = workspace
        assert run(config, "synth", "--kind", "year", "--days", "14",
                   "--anomalies", "0", "--hotspot", "AB") == 0
        assert len(list((out / "series" / "AB").glob("*.csv"))) == 14

    # a day of 1440 / resolution_minutes samples, named by its sample count
    @pytest.mark.parametrize("resolution", [360, 180, 120, 96],
                             ids=["4", "8", "12", "15"])
    def test_day_length_below_archetype_floor_exits_2_writing_nothing(
            self, workspace, capsys, resolution):
        self.assert_resolution_rejected(workspace, capsys, resolution)

    @pytest.mark.parametrize("resolution", [7, 35, 0, -15])
    def test_resolution_not_dividing_a_day_exits_2_writing_nothing(
            self, workspace, capsys, resolution):
        self.assert_resolution_rejected(workspace, capsys, resolution)

    @staticmethod
    def assert_resolution_rejected(workspace, capsys, resolution):
        config, out = workspace
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("resolution_minutes = 15",
                                       f"resolution_minutes = {resolution}"),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "synth", "--kind", "year", "--days", "14",
                   "--anomalies", "0") == 2
        assert f"resolution_minutes = {resolution}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_changes_output(self, workspace):
        config, out = workspace
        run(config, "synth", "--kind", "trips", "--valid-rows", "50",
            "--invalid-rows", "5")
        first = (out / "trips.csv").read_bytes()
        main(["--config", str(config), "--seed", "99", "synth", "--kind",
              "trips", "--valid-rows", "50", "--invalid-rows", "5"])
        assert (out / "trips.csv").read_bytes() != first


class TestIngest:
    def test_missing_trips_exits_3(self, workspace):
        config, _ = workspace
        assert run(config, "ingest") == 3

    def test_ingest_writes_archive_and_log(self, workspace):
        config, out = workspace
        run(config, "synth", "--kind", "trips", "--valid-rows", "300",
            "--invalid-rows", "30")
        assert run(config, "ingest") == 0
        archive = (out / "buckets.csv").read_text()
        assert archive.startswith("#")
        rejections = (out / "rejections.csv").read_text().strip().split("\n")
        assert rejections[0] == "line_number,reason"
        assert len(rejections) == 31

    def test_rerun_byte_identical(self, workspace):
        config, out = workspace
        run(config, "synth", "--kind", "trips", "--valid-rows", "100",
            "--invalid-rows", "10")
        run(config, "ingest")
        first = (out / "buckets.csv").read_bytes()
        run(config, "ingest")
        assert (out / "buckets.csv").read_bytes() == first

    def test_missing_column_exits_2_naming_it(self, workspace, capsys):
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        bad = out / "bad.csv"
        bad.write_text("medallion,passenger_count\nT1,2\n", encoding="utf-8")
        assert run(config, "ingest", "--trips", str(bad)) == 2
        assert "pickup_datetime" in capsys.readouterr().err

    def test_oversized_passenger_count_rejected_as_bad_value(self, workspace):
        config, out = workspace
        out.mkdir(parents=True, exist_ok=True)
        trips = out / "trips.csv"
        row = ("T1,{},2015-02-02 08:00:00,2015-02-02 08:10:00,"
               "-74.000000,40.730000,-73.990000,40.735000")
        trips.write_text("medallion,passenger_count,pickup_datetime,dropoff_datetime,"
                         "pickup_longitude,pickup_latitude,dropoff_longitude,"
                         f"dropoff_latitude\n{row.format(2)}\n"
                         f"{row.format(99999999999999999999)}\n", encoding="utf-8")
        assert run(config, "ingest", "--trips", str(trips)) == 0
        assert (out / "rejections.csv").read_text() == "line_number,reason\n3,bad_value\n"
        assert (out / "buckets.csv").read_text().endswith(",2\n")

    def test_bucket_minutes_not_dividing_a_day_exits_2(self, workspace, capsys):
        config, out = workspace
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("resolution_minutes = 15",
                                       "bucket_minutes = 7\nresolution_minutes = 15"),
                          encoding="utf-8")
        run(config, "synth", "--kind", "trips", "--valid-rows", "300",
            "--invalid-rows", "0")
        capsys.readouterr()
        assert run(config, "ingest") == 2
        assert "bucket_minutes" in capsys.readouterr().err
        (out / "buckets.csv").write_text(
            "# lon_min=-74.02,lon_max=-73.98,lat_min=40.7,lat_max=40.74,"
            "cell_m=3.048,bucket_minutes=7\nday,bucket,ix,iy,count\n",
            encoding="utf-8")
        assert run(config, "hotspots") == 2
        assert "bucket_minutes" in capsys.readouterr().err


class TestSpatialPipeline:
    @pytest.fixture()
    def ingested(self, workspace):
        config, out = workspace
        run(config, "synth", "--kind", "trips", "--valid-rows", "2500",
            "--invalid-rows", "0")
        run(config, "ingest")
        return config, out

    def test_hotspots_then_extract(self, ingested):
        config, out = ingested
        assert run(config, "hotspots") == 0
        assert (out / "hotspots.geojson").exists()
        for slot in ("EarlyMorning", "Morning", "AfternoonEvening", "Night"):
            assert (out / "trails" / f"{slot}.asc").exists()
            assert (out / "masks" / f"{slot}.asc").exists()
        from citytrails.hotspot import hotspots_from_geojson
        found = hotspots_from_geojson((out / "hotspots.geojson").read_text())
        assert found  # the planted clusters leave at least one hotspot
        assert run(config, "extract") == 0
        series = list((out / "series").glob("*/*.csv"))
        assert series
        text = series[0].read_text()
        assert text.startswith("#")
        assert "index,value" in text

    @pytest.mark.parametrize("coordinates", ["[]", "[[]]", "[5]"],
                             ids=["no-ring", "empty-ring", "number-ring"])
    def test_hotspot_without_ring_exits_2_naming_it(self, ingested, capsys,
                                                    coordinates):
        config, out = ingested
        (out / "hotspots.geojson").write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            '"properties": {"id": "Q", "slot_coverage": []}, '
            f'"geometry": {{"type": "Polygon", "coordinates": {coordinates}}}}}]}}\n',
            encoding="utf-8")
        capsys.readouterr()
        assert run(config, "extract") == 2
        assert "hotspot Q" in capsys.readouterr().err

    @pytest.mark.parametrize("hotspot_id", ['"../../pwn"', '"."', "5"],
                             ids=["parent", "dot", "number"])
    def test_non_plain_hotspot_id_exits_2_writing_nothing(self, ingested, capsys,
                                                          hotspot_id):
        config, out = ingested
        assert run(config, "hotspots") == 0
        (out / "hotspots.geojson").write_text(
            '{"type": "FeatureCollection", "features": [{"type": "Feature", '
            f'"properties": {{"id": {hotspot_id}, "slot_coverage": []}}, '
            '"geometry": {"type": "Polygon", "coordinates": '
            '[[[0, 0], [900, 0], [900, 900], [0, 900], [0, 0]]]}}]}\n',
            encoding="utf-8")
        before = sorted(out.parent.rglob("*"))
        capsys.readouterr()
        assert run(config, "extract") == 2
        assert "plain name" in capsys.readouterr().err
        assert sorted(out.parent.rglob("*")) == before

    @pytest.mark.parametrize("stage", ["hotspots", "extract"])
    @pytest.mark.parametrize("count", [None, "-1", "x", "99999999999999999999"],
                             ids=["ragged", "negative-count", "non-integer", "overflow"])
    def test_bad_archive_row_exits_2_naming_its_line(self, ingested, capsys, stage,
                                                     count):
        config, out = ingested
        if stage == "extract":
            assert run(config, "hotspots") == 0
        lines = (out / "buckets.csv").read_text().split("\n")
        fields = lines[6].split(",")
        lines[6] = ",".join(fields[:3] if count is None else fields[:4] + [count])
        (out / "buckets.csv").write_text("\n".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run(config, stage) == 2
        assert "bucket archive line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["hotspots", "extract"])
    @pytest.mark.parametrize("line, text, named", [
        (1, "# lon_min=-74.02", "line 1: missing metadata key 'bucket_minutes'"),
        (1, None, "line 1: metadata key 'cell_m' needs a number, got ''"),
        (2, None, "line 2: expected the header 'day,bucket,ix,iy,count'"),
        (2, "day,bucket,ix,iy", "line 2: expected the header"),
    ], ids=["metadata-key", "metadata-value", "no-header", "bad-header"])
    def test_bad_archive_head_exits_2_writing_nothing(self, ingested, capsys, stage,
                                                      line, text, named):
        config, out = ingested
        if stage == "extract":
            assert run(config, "hotspots") == 0
        lines = (out / "buckets.csv").read_text().split("\n")
        if text is not None:
            lines[line - 1] = text
        elif line == 1:
            lines[0] = re.sub(r"cell_m=[^,]*", "cell_m=", lines[0])
        else:
            del lines[1]
        (out / "buckets.csv").write_text("\n".join(lines), encoding="utf-8")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run(config, stage) == 2
        assert f"bucket archive {named}" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_trip_series_train_on_the_config_day_grid(self, ingested, capsys):
        # extract samples each day on the [grid] resolution that train reads
        config, out = ingested
        assert run(config, "hotspots") == 0
        assert run(config, "extract") == 0
        days = sorted(p.stem for p in (out / "series" / "A").glob("*.csv"))
        (out / "labels.csv").write_text("day_id,class,is_anomaly,kind\n" + "".join(
            f"{day},W,0,\n" for day in days), encoding="utf-8")
        assert run(config, "train", "--hotspot", "A") == 0
        assert (out / "pattern.ini").exists()
        # the fixture's two days are too few for three clusters
        capsys.readouterr()
        assert run(config, "classify", "--hotspot", "A") == 2
        err = capsys.readouterr().err
        assert "at least 3 days" in err and "got 2" in err

    def test_extract_without_hotspots_exits_3(self, ingested):
        config, out = ingested
        assert run(config, "extract") == 3

    def test_negative_count_cap_exits_2(self, ingested, capsys):
        config, out = ingested
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("count_cap = 2", "count_cap = -2"),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "hotspots") == 2
        assert "count_cap" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, value", [
        ("relevance_fraction", "1.5"), ("relevance_fraction", "0"),
        ("relevance_fraction", "-1"), ("relevance_fraction", "nan"),
        ("min_area_km2", "-1"),
    ], ids=["fraction=1.5", "fraction=0", "fraction=-1", "fraction=nan", "area=-1"])
    def test_bad_hotspot_setting_exits_2_writing_nothing(self, ingested, capsys,
                                                         setting, value):
        config, out = ingested
        text = config.read_text(encoding="utf-8").replace("min_area_km2 = 0.01\n", "")
        config.write_text(text.replace("[hotspots]\n", f"[hotspots]\n{setting} = {value}\n"),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "hotspots") == 2
        assert setting in capsys.readouterr().err
        assert not (out / "trails").exists() and not (out / "masks").exists()
        assert not (out / "hotspots.geojson").exists()

    # sha256 of every artifact of synth (2 500 valid, 40 invalid rows) ->
    # ingest -> hotspots under TINY_CONFIG at master seed 21
    ARTIFACT_DIGESTS = {
        "buckets.csv": "ba5ad33cbd525cf3e3946a04e6599411d88f42a47a45602381d827c5dac3df8e",
        "rejections.csv": "c2e106b8cdc3e6512b6948e3907daa16208b42ac594fd8d39c6049ac3c45e53c",
        "trails/EarlyMorning.asc":
            "b71a43838e20587bbf2e581c3fc99e41d334f1b446d7ed708d8271d0d5691d6e",
        "trails/Morning.asc":
            "297bb12c931746bcccb9c50aa8b9803ca33276b3e62747478cc8d91f2eb0b58f",
        "trails/AfternoonEvening.asc":
            "62e375f8a662e9bb0f8230201ae0966cefc7b79b1715d45b2030d40944611987",
        "trails/Night.asc":
            "5eb2bee89ed2c5f92de8793932dce41d20c69405f415b54d460f95949ec35bda",
        "masks/EarlyMorning.asc":
            "1d34534905887d8098671b029d1dc76846020a155ed3f1534d235120bbfaca24",
        "masks/Morning.asc":
            "2820dae76649960d9e49ebc5f2c99258e5211b005a6123f1088295f0bf872a4b",
        "masks/AfternoonEvening.asc":
            "20465970177f87a42243ca26a942dfba36c006248cb3262bae445a4dba9a84be",
        "masks/Night.asc":
            "78e502f5a2f6d5b427e5c489a1b5991a641d7b3c79f79c63423b91892115f663",
        "hotspots.geojson":
            "7656072b4ed5550112dc9637f978a1718bca4d41f9808eeedcb236ef6663f744",
    }

    def test_artifacts_match_recorded_digests(self, workspace):
        config, out = workspace
        for args in (["synth", "--kind", "trips", "--valid-rows", "2500",
                      "--invalid-rows", "40"], ["ingest"], ["hotspots"]):
            assert run(config, *args) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in self.ARTIFACT_DIGESTS}
        assert digests == self.ARTIFACT_DIGESTS

    @pytest.mark.parametrize("line, replacement, stage, setting", [
        ("resolution_minutes = 15", "resolution_minutes = 15\nbucket_cell_m = 0",
         "ingest", "bucket_cell_m"),
        ("resolution_minutes = 15", "resolution_minutes = 15\nbucket_cell_m = -3",
         "ingest", "bucket_cell_m"),
        ("trail_delta = 0.2", "trail_delta = 0.2\ntrail_cell_m = 0",
         "hotspots", "trail_cell_m"),
        ("resolution_minutes = 15", "resolution_minutes = 0",
         "extract", "resolution_minutes"),
    ], ids=["bucket_cell_m=0", "bucket_cell_m=-3", "trail_cell_m=0",
            "resolution_minutes=0"])
    def test_non_positive_grid_setting_exits_2(self, ingested, capsys, line,
                                               replacement, stage, setting):
        config, _ = ingested
        if stage == "extract":
            assert run(config, "hotspots") == 0
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace(line, replacement), encoding="utf-8")
        capsys.readouterr()
        assert run(config, stage) == 2
        assert setting in capsys.readouterr().err

    @pytest.fixture()
    def year_and_trips(self, workspace):
        # At master seed 5, hotspots finds 4 polygons, so trip hotspot D
        # shares series/D with the synthetic year.
        config, out = workspace
        for args in (["synth", "--kind", "all", "--days", "42", "--anomalies", "9"],
                     ["ingest"], ["hotspots"]):
            assert run(config, "--seed", "5", *args) == 0
        return config, out

    def test_extract_refuses_to_overwrite_another_series(self, year_and_trips,
                                                         capsys):
        config, out = year_and_trips
        year = {p: p.read_bytes() for p in (out / "series").rglob("*.csv")}
        capsys.readouterr()
        assert run(config, "--seed", "5", "extract") == 2
        assert str(out / "series" / "D" / "2015-02-02.csv") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in (out / "series").rglob("*.csv")} == year

    def test_extract_refuses_to_write_over_a_directory(self, ingested, capsys):
        config, out = ingested
        assert run(config, "hotspots") == 0
        target = out / "series" / "A" / "2015-02-02.csv"
        target.mkdir(parents=True)
        before = sorted(out.rglob("*"))
        capsys.readouterr()
        assert run(config, "extract") == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and str(target) in err
        assert sorted(out.rglob("*")) == before

    def test_extract_rerun_is_byte_identical(self, ingested):
        config, out = ingested
        assert run(config, "hotspots") == 0
        assert run(config, "extract") == 0
        first = {p: p.read_bytes() for p in (out / "series").rglob("*.csv")}
        assert first
        assert run(config, "extract") == 0
        assert {p: p.read_bytes() for p in (out / "series").rglob("*.csv")} == first

    def test_hotspot_on_east_edge_extracts(self, workspace):
        # The 0.04-degree box is about 3371 m wide, and the 50 m trail grid
        # rounds it up to 3400 m, so a hotspot at the east edge traces a
        # polygon past the box. Extraction counts the part inside the box.
        from citytrails.config import load_config
        from citytrails.hotspot import hotspots_from_geojson
        config, out = workspace
        config.write_text(config.read_text(encoding="utf-8").replace(
            "resolution_minutes = 15", "resolution_minutes = 10"), encoding="utf-8")
        rows = ["medallion,passenger_count,pickup_datetime,dropoff_datetime,"
                "pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude"]
        for minute in range(0, 1440, 5):
            ts = f"2015-02-02 {minute // 60:02d}:{minute % 60:02d}:00"
            passengers = 1 + minute // 120  # rises by one every two hours
            for lon in ("-73.980200", "-73.980600"):
                rows.append(f"T1,{passengers},{ts},{ts},"
                            f"{lon},40.720000,{lon},40.720100")
        trips = out.parent / "edge_trips.csv"
        trips.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert run(config, "ingest", "--trips", str(trips)) == 0
        assert run(config, "hotspots") == 0
        found = hotspots_from_geojson((out / "hotspots.geojson").read_text())
        width = load_config(config).box.width_m
        assert len(found) == 1 and found[0].polygon[:, 0].max() > width
        assert run(config, "extract") == 0
        text = (out / "series" / "A" / "2015-02-02.csv").read_text()
        values = [float(ln.split(",")[1]) for ln in text.split("\n")[2:] if ln]
        # every trip lies inside the hotspot: 12 equal steps from 0 to 1
        expected = [(k // 12) / 11 for k in range(144)]
        assert values == pytest.approx(expected, abs=1e-11)


class TestTrainClassifyCompare:
    @pytest.fixture()
    def trained(self, workspace):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        assert run(config, "train") == 0
        return config, out

    def test_train_outputs(self, trained):
        config, out = trained
        assert (out / "sp.ini").exists()
        assert (out / "pattern.ini").exists()
        history = (out / "history" / "Asleep.csv").read_text().strip().split("\n")
        assert history[0] == "generation,best_fitness"
        assert len(history) == 8  # 6 generations + initial population + header
        values = [float(ln.split(",")[1]) for ln in history[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert (out / "history" / "pattern.csv").exists()

    def test_negative_generations_exits_2_writing_nothing(self, workspace, capsys):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("generations = 6", "generations = -3"),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "train") == 2
        assert "generations" in capsys.readouterr().err
        assert not (out / "sp.ini").exists() and not (out / "history").exists()

    @pytest.mark.parametrize("line, replacement, setting", [
        ("noise = 0.05", "noise = -0.05", "noise"),
        ("max_shift = 3", "max_shift = -3", "max_shift"),
        ("max_shift = 3", "max_shift = 30", "max_shift"),  # a quarter of 96 is 24
    ], ids=["negative-noise", "negative-shift", "shift-past-a-quarter"])
    def test_bad_perturbation_exits_2_naming_it(self, workspace, capsys, line,
                                                replacement, setting):
        config, out = workspace
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace(line, replacement), encoding="utf-8")
        capsys.readouterr()
        assert run(config, "train") == 2
        assert setting in capsys.readouterr().err
        assert not (out / "sp.ini").exists()

    @pytest.mark.parametrize("key", ["per_class", "pattern_per_class",
                                     "representatives"])
    def test_training_count_below_one_exits_2_writing_nothing(self, workspace,
                                                             capsys, key):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        text = config.read_text(encoding="utf-8")
        config.write_text(re.sub(rf"^{key} = .*$", f"{key} = 0", text, flags=re.M),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "train") == 2
        assert f"[training] {key} = 0" in capsys.readouterr().err
        assert not (out / "sp.ini").exists() and not (out / "history").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda t: t.replace(",1,", ",yes,"), "line 8: is_anomaly = 'yes'"),
        (lambda t: "garbage\n", "line 1"),
        (lambda t: "", "end of file: expected the header"),
        (lambda t: t.replace("day_id,class,is_anomaly,kind", "day,class,flag,kind"),
         "line 1"),
        (lambda t: t.replace(",0,\n", ",0\n", 1), "line 2: expected the 4 fields"),
        (lambda t: re.sub(r"^2015-01-1.*\n", "", t, flags=re.M),
         "has no row for series day 2015-01-10"),
        (lambda t: t + t.split("\n")[1] + "\n", "line 44: day 2015-01-05 is listed again"),
        (lambda t: t.replace("2015-01-05,W,", "2015-01-05,L,"),
         "line 2: day 2015-01-05 has class 'L', but its weekday class is 'W'"),
        (lambda t: t.replace("2015-01-05,", "Jan 5,"), "line 2: day_id 'Jan 5' is not"),
    ], ids=["flag-yes", "garbage", "empty", "header", "short-row", "missing-days",
            "duplicate-day", "wrong-class", "non-date"])
    def test_malformed_labels_exit_2_naming_the_line(self, workspace, capsys, edit,
                                                    named):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        labels = out / "labels.csv"
        original = labels.read_text(encoding="utf-8")
        labels.write_text(edit(original), encoding="utf-8")
        capsys.readouterr()
        assert run(config, "train") == 2
        assert named in capsys.readouterr().err
        assert not (out / "sp.ini").exists() and not (out / "history").exists()
        labels.write_text(original, encoding="utf-8")
        assert run(config, "train") == 0
        labels.write_text(edit(original), encoding="utf-8")
        capsys.readouterr()
        assert run(config, "classify") == 2
        assert named in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_all_flagged_labels_exit_2_naming_the_cause(self, workspace, capsys):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        labels = out / "labels.csv"
        labels.write_text(labels.read_text(encoding="utf-8").replace(",0,", ",1,"),
                          encoding="utf-8")
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        capsys.readouterr()
        assert run(config, "train") == 2
        assert "error: no day is unflagged" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before

    @pytest.mark.parametrize("name, old, new, named", [
        ("sp.ini", "epsilon", "epsilonn", "[Asleep] has no epsilon"),
        ("sp.ini", "delta = ", "delta = x", "[Asleep] delta = 'x"),
        ("pattern.ini", "alpha_a = ", "alpha_a = ~", "[pattern] alpha_a = '~"),
        ("pattern.ini", "beta_a", "betta_a", "[pattern] has no beta_a"),
    ], ids=["sp-missing-key", "sp-non-number", "pattern-non-number",
            "pattern-missing-key"])
    def test_bad_parameter_file_exits_2_naming_file_block_and_key(
            self, trained, capsys, name, old, new, named):
        config, out = trained
        path = out / name
        path.write_text(path.read_text().replace(old, new, 1), encoding="utf-8")
        capsys.readouterr()
        assert run(config, "classify") == 2
        assert f"error: {path}: parameter block {named}" in capsys.readouterr().err
        assert not (out / "report.csv").exists() and not (out / "matrix.csv").exists()

    def test_train_without_labels_names_what_is_missing(self, workspace, capsys):
        config, out = workspace
        run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
        (out / "labels.csv").unlink()
        capsys.readouterr()
        assert run(config, "train") == 0
        assert capsys.readouterr().out.endswith(
            f"train: no {out / 'labels.csv'}, skipping pattern-field training\n")
        assert not (out / "pattern.ini").exists()

    def test_train_without_labels_refuses_to_leave_a_stale_pattern_field(self, trained,
                                                                         capsys):
        config, out = trained
        (out / "labels.csv").rename(out.parent / "labels.csv")
        before = {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        capsys.readouterr()
        assert run(config, "--seed", "22", "train") == 2
        err = capsys.readouterr().err
        assert "internal error" not in err and str(out / "pattern.ini") in err, err
        assert {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()} == before

    def test_train_without_labels_keeps_the_pattern_field_of_the_same_sp(self, trained):
        config, out = trained
        pattern = (out / "pattern.ini").read_bytes()
        (out / "labels.csv").unlink()
        assert run(config, "train") == 0
        assert (out / "pattern.ini").read_bytes() == pattern

    def test_labels_for_days_without_series_are_allowed(self, trained):
        config, out = trained
        assert run(config, "classify") == 0
        report = (out / "report.csv").read_bytes()
        with open(out / "labels.csv", "a", encoding="utf-8") as fh:
            fh.write("2016-01-04,W,1,suppression\n")
        assert run(config, "classify") == 0
        assert (out / "report.csv").read_bytes() == report

    def test_classify_report_format_and_idempotence(self, trained):
        config, out = trained
        assert run(config, "classify") == 0
        report = (out / "report.csv").read_text()
        lines = report.strip().split("\n")
        assert lines[0] == "day_id,class,anomaly_index,threshold,verdict"
        assert len(lines) == 43
        fields = lines[1].split(",")
        assert fields[1] in ("Working", "Entertainment", "Leisure")
        assert fields[4] in ("typical", "anomalous")
        matrix = (out / "matrix.csv").read_text().strip().split("\n")
        assert len(matrix) == 43
        assert len(matrix[0].split(",")) == 43
        assert run(config, "classify") == 0
        assert (out / "report.csv").read_text() == report

    def test_classify_names_each_class_short_of_representatives(self, trained, capsys):
        # 42 days cannot give any class 40 representatives
        config, out = trained
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("representatives = 3", "representatives = 40"),
                          encoding="utf-8")
        capsys.readouterr()
        assert run(config, "classify") == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert captured.err == "" and lines[0].startswith("classify: accuracy")
        assert [re.sub(r"has \d+ ", "has n ", ln) for ln in lines[1:]] == [
            f"classify: SRF class {name} has n representatives, "
            "fewer than [training] representatives = 40"
            for name in ("Working", "Entertainment", "Leisure")]

    def test_classify_without_pattern_exits_3(self, trained, capsys):
        config, out = trained
        (out / "pattern.ini").unlink()
        capsys.readouterr()
        assert run(config, "classify") == 3
        assert capsys.readouterr().err == f"error: missing artifact: {out / 'pattern.ini'}\n"

    def test_compare_emits_three_methods(self, trained):
        config, out = trained
        assert run(config, "compare") == 0
        lines = (out / "accuracy.csv").read_text().strip().split("\n")
        assert lines[0] == "method,accuracy,correlation"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["SRF", "DTW", "Frechet"]
        for ln in lines[1:]:
            assert 0.0 <= float(ln.split(",")[1]) <= 1.0

    def test_plotdata_bundles(self, trained):
        config, out = trained
        run(config, "classify")
        assert run(config, "plotdata") == 0
        scatter = (out / "plotdata" / "scatter.csv").read_text().strip().split("\n")
        assert scatter[0] == "day_index,day_id,anomaly_index,verdict,threshold"
        assert len(scatter) == 43
        matrix = (out / "plotdata" / "matrix.csv").read_text().strip().split("\n")
        assert len(matrix) == len(matrix[0].split(","))
        snapshots = (out / "plotdata" / "trail_snapshots.csv").read_text()
        assert snapshots.startswith("archetype,cell_index,cell_center,intensity")
        assert "RushHour" in snapshots
        # every intensity is the final trail the reference leaves for the
        # archetype under its trained field
        rows = [ln.split(",") for ln in snapshots.strip().split("\n")[1:]]
        expected = []
        for archetype, params in load_sp(out / "sp.ini", 96).fields:
            trail = oracle_final_trail(archetype.samples, params)
            expected.extend([archetype.name, str(i), f"{(i + 0.5) / 100:.6g}",
                             f"{value:.6g}"] for i, value in enumerate(trail))
        assert rows == expected

    def test_plotdata_without_report_exits_3(self, trained):
        config, _ = trained
        assert run(config, "plotdata") == 3


def test_series_row_without_value_exits_2_naming_it(workspace, capsys):
    config, out = workspace
    day = out / "series" / "D" / "2015-02-02.csv"
    day.parent.mkdir(parents=True)
    day.write_text("# day_id=2015-02-02,hotspot_id=D,resolution_minutes=10\n"
                   "index,value\n0\n", encoding="utf-8")
    capsys.readouterr()
    assert run(config, "classify", "--hotspot", "D") == 2
    assert "series line 3: expected the 2 fields" in capsys.readouterr().err


def test_mixed_day_lengths_exit_2_naming_the_day(workspace, capsys):
    # a trip series of 144 samples among the synthetic year's 96-sample days
    config, out = workspace
    run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
    day = ActivityTimeSeries(np.linspace(0.0, 1.0, 144), day_id="2015-02-16",
                             hotspot_id="D")
    (out / "series" / "D" / "2015-02-16.csv").write_text(series_to_csv(day),
                                                          encoding="utf-8")
    capsys.readouterr()
    assert run(config, "train", "--hotspot", "D") == 2
    err = capsys.readouterr().err
    assert "2015-02-16" in err and "144" in err and "96" in err


@pytest.mark.parametrize("command", ["train", "classify", "compare"])
@pytest.mark.parametrize("edit, values", [
    (lambda text: text.replace("resolution_minutes=15", "resolution_minutes=10"),
     ("resolution_minutes=10", "resolution_minutes = 15")),
    (lambda text: text[:text.rstrip("\n").rindex("\n") + 1], ("95", "96")),
], ids=["header", "sample-count"])
def test_series_off_the_day_grid_exits_2_naming_the_file(workspace, capsys, command,
                                                         edit, values):
    config, out = workspace
    run(config, "synth", "--kind", "year", "--days", "42", "--anomalies", "9")
    day = out / "series" / "D" / "2015-01-20.csv"
    day.write_text(edit(day.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert run(config, command) == 2
    err = capsys.readouterr().err
    assert str(day) in err and all(value in err for value in values)
    assert not (out / "sp.ini").exists() and not (out / "history").exists()


def test_train_over_several_hotspots_exits_2_before_training(workspace, capsys):
    # synth's year under series/D and the trip hotspots extract writes beside it
    config, out = workspace
    for args in (["synth", "--kind", "all", "--days", "42", "--anomalies", "9"],
                 ["ingest"], ["hotspots"], ["extract"]):
        assert run(config, *args) == 0
    assert len(list((out / "series").iterdir())) > 1
    capsys.readouterr()
    assert run(config, "train") == 2
    assert "pass --hotspot" in capsys.readouterr().err
    assert not (out / "sp.ini").exists() and not (out / "history").exists()


class TestExitCodes:
    def test_internal_error_exits_1(self, workspace, monkeypatch):
        config, _ = workspace

        def boom(cfg, args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_synth", boom)
        assert run(config, "synth") == 1

    def test_key_error_is_internal_not_malformed_input(self, workspace, monkeypatch,
                                                       capsys):
        # readers' KeyErrors reach main as ValueErrors naming the file, so a
        # bare KeyError there is the program's fault
        config, out = workspace

        def lookup_fails(cfg, args):
            raise KeyError("day")

        monkeypatch.setattr(cli, "cmd_synth", lookup_fails)
        capsys.readouterr()
        assert run(config, "synth") == 1
        assert "internal error" in capsys.readouterr().err
        assert not (out / "series").exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.ini"), "synth"]) == 3

    def test_env_var_config(self, workspace, monkeypatch):
        config, out = workspace
        monkeypatch.setenv("PIPELINE_CONFIG", str(config))
        assert main(["synth", "--kind", "trips", "--valid-rows", "20",
                     "--invalid-rows", "2"]) == 0
        assert (out / "trips.csv").exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """Every artifact of one tiny run: the synthetic year under series/D and
    the trip hotspots beside it, trained, classified and plotted."""
    root = tmp_path_factory.mktemp("finished")
    config = root / "pipeline.ini"
    config.write_text(TINY_CONFIG.format(out=root / "out"), encoding="utf-8")
    for args in (["synth", "--kind", "all", "--days", "42", "--anomalies", "9"],
                 ["ingest"], ["hotspots"], ["extract"], ["train", "--hotspot", "D"],
                 ["classify", "--hotspot", "D"], ["plotdata"]):
        assert run(config, *args) == 0, args
    return root / "out"


def _replace(old, new):
    def edit(path):
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return edit


def _as_directory(path):
    path.unlink()
    path.mkdir()


def _non_utf8(path):
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 1))


def _truncate(path):
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])


def _set_text(text):
    def edit(path):
        path.write_text(text, encoding="utf-8")
    return edit


def _sub(pattern, new):
    def edit(path):
        text = path.read_text(encoding="utf-8")
        assert re.search(pattern, text)
        path.write_text(re.sub(pattern, new, text, count=1), encoding="utf-8")
    return edit


def _drop_field(path):
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].rpartition(",")[0]
    path.write_text("\n".join(lines), encoding="utf-8")


TRAIN_D, CLASSIFY_D = ["train", "--hotspot", "D"], ["classify", "--hotspot", "D"]
# (artifact, mutation, command, exit code, what the message must name
# besides the artifact's path)
READ_PROBES = {
    "sp-directory": ("sp.ini", _as_directory, CLASSIFY_D, 3, ()),
    "labels-directory": ("labels.csv", _as_directory, TRAIN_D, 3, ()),
    "buckets-directory": ("buckets.csv", _as_directory, ["hotspots"], 3, ()),
    "config-directory": ("pipeline.ini", _as_directory, ["synth", "--kind", "trips"], 3,
                         ()),
    "series-non-utf8": ("series/D/2015-01-20.csv", _non_utf8, TRAIN_D, 2, ("utf-8",)),
    "labels-non-utf8": ("labels.csv", _non_utf8, TRAIN_D, 2, ()),
    "config-non-utf8": ("pipeline.ini", _non_utf8, ["hotspots"], 2, ()),
    "buckets-non-utf8": ("buckets.csv", _non_utf8, ["hotspots"], 2, ()),
    "trips-non-utf8": ("trips.csv", _non_utf8, ["ingest"], 2, ()),
    "report-non-utf8": ("report.csv", _non_utf8, ["plotdata"], 2, ()),
    "series-value": ("series/D/2015-01-20.csv", _replace("\n5,", "\n5,x"), TRAIN_D, 2,
                     ()),
    "series-header": ("series/D/2015-01-20.csv",
                      _replace("resolution_minutes=15", "resolution_minutes=x"),
                      TRAIN_D, 2, ()),
    "geojson-truncated": ("hotspots.geojson", _truncate, ["extract"], 2, ()),
    "config-cast": ("pipeline.ini", _replace("generations = 6", "generations = ten"),
                    TRAIN_D, 2, ("[de]", "generations", "'ten'")),
    "sp-extra-key": ("sp.ini", _replace("[Asleep]\n", "[Asleep]\nepsilonn = 3\n"),
                     CLASSIFY_D, 2, ("[Asleep]", "epsilonn")),
    "sp-extra-section": ("sp.ini",
                         _replace("[Asleep]\n", "[Asleeep]\nepsilon = 3\n\n[Asleep]\n"),
                         CLASSIFY_D, 2, ("[Asleeep]",)),
    "pattern-extra-key": ("pattern.ini",
                          _replace("[pattern]\n", "[pattern]\nepsilonn = 3\n"),
                          CLASSIFY_D, 2, ("[pattern]", "epsilonn")),
    "pattern-default-section": ("pattern.ini",
                                _replace("[pattern]\n",
                                         "[DEFAULT]\nepsilon = 3\n\n[pattern]\n"),
                                CLASSIFY_D, 2, ("[DEFAULT]",)),
    "archive-day-escape": ("buckets.csv", _replace("\n2015-", "\n../../escaped-"),
                           ["extract"], 2, ("line 3", "'../../escaped-")),
    "report-ragged-row": ("report.csv", _drop_field, ["plotdata"], 2,
                          ("line 4: expected the 5 fields",)),
    "geojson-feature-number": ("hotspots.geojson", _set_text('{"features": [1]}'), ["extract"],
                               2, ()),
    "geojson-list": ("hotspots.geojson", _set_text("[]"), ["extract"], 2, ()),
    # a series file breaks the format's rules: each names its line
    "series-unknown-key": ("series/D/2015-01-20.csv",
                           _replace("resolution_minutes=15", "resolution_minutes=15,zone=est"),
                           CLASSIFY_D, 2, ("line 1", "'zone'")),
    "series-missing-key": ("series/D/2015-01-20.csv", _replace(",resolution_minutes=15", ""),
                           CLASSIFY_D, 2, ("line 1", "'resolution_minutes'")),
    "series-no-header": ("series/D/2015-01-20.csv", _replace("index,value\n", ""),
                         CLASSIFY_D, 2, ("line 2", "'index,value'")),
    "series-bad-index": ("series/D/2015-01-20.csv", _replace("\n5,", "\nfive,"), CLASSIFY_D,
                         2, ("line 8",)),
    "series-swapped-rows": ("series/D/2015-01-20.csv",
                            _sub(r"\n(3,[^\n]*)\n(4,[^\n]*)", r"\n\2\n\1"),
                            CLASSIFY_D, 2, ("line 6", "expected index 3")),
    "series-header-as-row": ("series/D/2015-01-20.csv", _replace("\n5,", "\nindex,value\n5,"),
                             CLASSIFY_D, 2, ("line 8",)),
    "series-extra-field": ("series/D/2015-01-20.csv", _replace("\n3,", "\n3,0.1,"), CLASSIFY_D,
                           2, ("line 6", "expected the 2 fields")),
    "series-huge-value": ("series/D/2015-01-20.csv", _sub(r"\n5,[^\n]*", "\n5,1e308"),
                          CLASSIFY_D, 2, ("line 8", "[0, 1]")),
    "series-nan-value": ("series/D/2015-01-20.csv", _sub(r"\n5,[^\n]*", "\n5,nan"),
                         CLASSIFY_D, 2, ("line 8", "[0, 1]")),
    # a series file must name the day and hotspot its path does
    "series-foreign-hotspot": ("series/D/2015-01-20.csv",
                               _replace("hotspot_id=D", "hotspot_id=Q"), CLASSIFY_D, 2,
                               ("hotspot_id=Q", "at D/2015-01-20")),
    "series-foreign-day": ("series/D/2015-01-20.csv",
                           _replace("day_id=2015-01-20", "day_id=2015-01-21"), CLASSIFY_D, 2,
                           ("day_id=2015-01-21", "at D/2015-01-20")),
}


def _parsed(parse):
    return lambda path: read_artifact(path, parse)


def _framed_rows(name, header):
    return (_parsed(lambda text: read_framed_csv(text, name, header)[3]),
            lambda rows: framed_csv(header, rows))


@pytest.mark.parametrize("pattern, read, write", [
    ("series/*/*.csv", _parsed(series_from_csv), series_to_csv),
    ("buckets.csv", _parsed(BucketGrid.from_csv), BucketGrid.to_csv),
    ("hotspots.geojson", _parsed(hotspots_from_geojson), hotspots_to_geojson),
    ("sp.ini", load_sp, sp_ini),
    ("pattern.ini", _parsed(lambda text: params_from_config(text, ["pattern"])),
     params_to_config),
    ("labels.csv", *_framed_rows("labels", LABELS_HEADER)),
    ("report.csv", *_framed_rows("report", cli.REPORT_HEADER)),
], ids=["series", "buckets", "hotspots", "sp", "pattern", "labels", "report"])
def test_writing_what_was_read_gives_the_same_bytes(finished_run, pattern, read, write):
    paths = sorted(finished_run.glob(pattern))
    assert paths
    for path in paths:
        assert write(read(path)) == path.read_text(encoding="utf-8"), path


@pytest.mark.parametrize("artifact, mutate, command, code, named",
                         READ_PROBES.values(), ids=READ_PROBES.keys())
def test_bad_artifact_exits_2_or_3_naming_it_and_writing_nothing(
        finished_run, tmp_path, monkeypatch, capsys, artifact, mutate, command, code,
        named):
    monkeypatch.chdir(tmp_path)  # where a config's default [paths] out points
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    config = tmp_path / "pipeline.ini"
    config.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
    path = config if artifact == "pipeline.ini" else out / artifact
    mutate(path)
    before = sorted(tmp_path.rglob("*"))
    contents = {p: p.read_bytes() for p in before if p.is_file()}
    capsys.readouterr()
    assert run(config, *command) == code
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert str(path) in err and all(name in err for name in named), err
    assert sorted(tmp_path.rglob("*")) == before
    assert {p: p.read_bytes() for p in before if p.is_file()} == contents


# (a path under out/ that blocks the command, a path removed beforehand so
# that a write ahead of the blocked one would show, the command); a regular
# file takes a directory's place and a directory a file's; "" is the --out
# directory itself
SEED_5 = ["--seed", "5"]
BLOCKED_OUTPUTS = {
    "out": ("", None, ["synth", "--kind", "trips"]),
    "series-hotspot": ("series/A", None, ["extract"]),
    "trails": ("trails", None, ["hotspots"]),
    "history": ("history", None, TRAIN_D),
    "plotdata": ("plotdata", None, ["plotdata"]),
    "synth-labels": ("labels.csv", None, [*SEED_5, "synth", "--kind", "year", "--days", "42",
                                          "--anomalies", "9"]),
    "ingest-rejections": ("rejections.csv", "buckets.csv", ["ingest"]),
    "hotspots-masks": ("masks", "trails", ["hotspots"]),
    "train-history": ("history", None, [*SEED_5, *TRAIN_D]),
    "classify-matrix": ("matrix.csv", None, [*SEED_5, *CLASSIFY_D]),
    "compare-accuracy": ("accuracy.csv", None, ["compare", "--hotspot", "D"]),
    "plotdata-snapshots": ("plotdata/trail_snapshots.csv", "plotdata/scatter.csv",
                           ["plotdata"]),
}


@pytest.mark.parametrize("blocked, removed, command", BLOCKED_OUTPUTS.values(),
                         ids=BLOCKED_OUTPUTS.keys())
def test_output_blocked_by_a_regular_file_exits_2_naming_it(finished_run, tmp_path, capsys,
                                                           blocked, removed, command):
    out = tmp_path / "out"
    shutil.copytree(finished_run, out)
    config = tmp_path / "pipeline.ini"
    config.write_text(TINY_CONFIG.format(out=out), encoding="utf-8")
    path = out / blocked
    if path.is_dir():
        shutil.rmtree(path)
        path.write_text("in the way\n", encoding="utf-8")
    else:
        path.unlink(missing_ok=True)
        path.mkdir()
    if removed is not None:
        if (out / removed).is_dir():
            shutil.rmtree(out / removed)
        else:
            (out / removed).unlink()
    before = sorted(tmp_path.rglob("*"))
    contents = {p: p.read_bytes() for p in before if p.is_file()}
    capsys.readouterr()
    assert run(config, "--out", str(out), *command) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err and str(path) in err, err
    assert sorted(tmp_path.rglob("*")) == before
    assert {p: p.read_bytes() for p in before if p.is_file()} == contents
