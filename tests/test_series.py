import re

import numpy as np
import pytest

from citytrails.series import (
    ARCHETYPE_NAMES,
    ActivityTimeSeries,
    AffinityTriple,
    all_archetypes,
    assessment_error,
    generate_archetype,
    normalize_min_max,
    perturb,
    samples_per_day,
    series_from_csv,
    series_to_csv,
    write_artifact,
    write_artifacts,
)
from citytrails.synth import synthetic_year


class TestNormalization:
    def test_linear_map(self):
        out = normalize_min_max([2, 4, 6])
        assert np.allclose(out.samples, [0.0, 0.5, 1.0])
        assert not out.constant

    def test_constant_input_flags(self):
        out = normalize_min_max([5, 5, 5])
        assert np.array_equal(out.samples, [0.0, 0.0, 0.0])
        assert out.constant

    def test_identity_on_normalized(self):
        assert np.allclose(normalize_min_max([0, 1]).samples, [0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(-3, 9, 50)
        once = normalize_min_max(raw)
        twice = normalize_min_max(once.samples)
        assert np.allclose(twice.samples, once.samples, atol=1e-12)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_min_max([])
        with pytest.raises(ValueError):
            normalize_min_max([1.0, np.nan])
        with pytest.raises(ValueError):
            normalize_min_max([1.0, np.inf])

    def test_metadata_carried(self):
        out = normalize_min_max([0, 2], day_id="2015-01-27", hotspot_id="D",
                                resolution_minutes=5)
        assert (out.day_id, out.hotspot_id, out.resolution_minutes) == \
            ("2015-01-27", "D", 5)


class TestSamplesPerDay:
    @pytest.mark.parametrize("minutes, samples", [(10, 144), (15, 96), (30, 48),
                                                  (90, 16), (1440, 1)])
    def test_divisors_of_a_day(self, minutes, samples):
        assert samples_per_day(minutes) == samples

    @pytest.mark.parametrize("minutes", [0, -10, 7, 35, 100, 2880])
    def test_other_resolutions_rejected_naming_the_setting(self, minutes):
        with pytest.raises(ValueError, match=f"resolution_minutes = {minutes} "):
            samples_per_day(minutes)


class TestArchetypes:
    def test_enumeration_is_bijection_onto_1_7(self):
        enums = [a.enumeration for a in all_archetypes(48)]
        assert sorted(enums) == list(range(1, 8))

    def test_asleep_constant_low(self):
        a = generate_archetype("Asleep", 144)
        assert np.all(a.samples == 0.1)
        assert len(a.samples) == 144

    def test_rushhour_constant_high(self):
        a = generate_archetype("RushHour", 144)
        assert np.all(a.samples == 0.9)

    def test_rise_is_monotone_ramp_mid_to_high(self):
        a = generate_archetype("Rise", 144)
        assert np.all(np.diff(a.samples) >= 0)
        assert np.all(a.samples[:36] == 0.5)
        assert np.all(a.samples[108:] == 0.9)

    def test_chill_mirrors_rise(self):
        rise = generate_archetype("Rise", 144).samples
        chill = generate_archetype("Chill", 144).samples
        assert np.allclose(chill, rise[::-1])

    def test_all_shapes_within_unit_range(self):
        for a in all_archetypes(60):
            assert np.all((a.samples >= 0) & (a.samples <= 1))

    def test_unknown_name_and_short_length_rejected(self):
        with pytest.raises(ValueError):
            generate_archetype("Nap", 144)
        with pytest.raises(ValueError):
            generate_archetype("Asleep", 8)


class TestPerturb:
    def test_zero_perturbation_is_identity(self):
        a = generate_archetype("Flow", 96)
        out = perturb(a, 0.0, 0, seed=3)
        assert np.array_equal(out.samples, a.samples)

    def test_noise_stays_bounded(self):
        a = generate_archetype("Asleep", 96)
        out = perturb(a, 0.05, 0, seed=3)
        assert np.all((out.samples >= 0.05) & (out.samples <= 0.15))

    def test_same_seed_bit_identical(self):
        a = generate_archetype("Rise", 96)
        assert np.array_equal(perturb(a, 0.1, 5, 42).samples,
                              perturb(a, 0.1, 5, 42).samples)

    def test_different_seed_differs(self):
        a = generate_archetype("Rise", 96)
        assert not np.array_equal(perturb(a, 0.1, 5, 1).samples,
                                  perturb(a, 0.1, 5, 2).samples)

    def test_preconditions(self):
        a = generate_archetype("Flow", 96)
        with pytest.raises(ValueError):
            perturb(a, -0.1, 0, 1)
        with pytest.raises(ValueError):
            perturb(a, 0.1, 24, 1)  # shift must stay under length/4


class TestAssessmentError:
    def test_one_swapped_pair_counts_once(self):
        # W|L|E vs W|E|L disagree only on the L-E ordering
        assert assessment_error(AffinityTriple(("W", "L", "E")),
                                AffinityTriple(("W", "E", "L"))) == 1

    def test_identical_triples(self):
        t = AffinityTriple(("W", "E", "L"))
        assert assessment_error(t, t) == 0

    def test_full_reversal(self):
        assert assessment_error(AffinityTriple(("W", "E", "L")),
                                AffinityTriple(("L", "E", "W"))) == 3

    def test_symmetric_and_bounded(self):
        import itertools
        for p in itertools.permutations("WEL"):
            for q in itertools.permutations("WEL"):
                e = assessment_error(AffinityTriple(p), AffinityTriple(q))
                assert e == assessment_error(AffinityTriple(q), AffinityTriple(p))
                assert 0 <= e <= 3
                assert (e == 0) == (p == q)

    def test_invalid_triple_rejected(self):
        with pytest.raises(ValueError):
            AffinityTriple(("W", "W", "L"))


class TestCsvRoundTrip:
    def test_series_round_trip(self):
        s = ActivityTimeSeries(np.array([0.0, 0.25, 1.0]), 10, "2015-02-01", "B")
        back = series_from_csv(series_to_csv(s))
        assert np.allclose(back.samples, s.samples)
        assert back.day_id == "2015-02-01"
        assert back.hotspot_id == "B"
        assert back.resolution_minutes == 10

    def test_missing_metadata_round_trips_as_none(self):
        s = ActivityTimeSeries(np.array([0.5, 0.7]))
        back = series_from_csv(series_to_csv(s))
        assert back.day_id is None and back.hotspot_id is None

    def test_header_comment_line_format(self):
        s = ActivityTimeSeries(np.array([0.5]), 5, "2015-01-01", "A")
        text = series_to_csv(s)
        first, second = text.split("\n")[:2]
        assert first == "# day_id=2015-01-01,hotspot_id=A,resolution_minutes=5"
        assert second == "index,value"
        assert "\r" not in text

    def test_rejects_missing_header(self):
        with pytest.raises(ValueError):
            series_from_csv("index,value\n0,0.5\n")

    @pytest.mark.parametrize("old, new, named", [
        (",resolution_minutes=10", "", "line 1: missing metadata key 'resolution_minutes'"),
        ("=10", "=10,zone=est", "line 1: unknown metadata key 'zone'"),
        ("=10", "=10,day_id=2015-02-02", "line 1: repeated metadata key 'day_id'"),
        ("=10", "=ten", "line 1: metadata key 'resolution_minutes' needs an integer"),
        ("2015-02-01", "20150201", "line 1: day_id '20150201' is not an ISO date"),
        ("index,value", "value,index", "line 2: expected the header 'index,value'"),
        ("\n1,0.25", "\n1,0.25,0.5", "line 4: expected the 2 fields index,value"),
        ("\n1,0.25", "\n1", "line 4: expected the 2 fields index,value"),
        # the two rows' commas add up to two rows' worth
        ("\n1,0.25\n2,1", "\n1,0.25,0.5\n2", "line 4: expected the 2 fields index,value"),
        ("\n1,0.25", "\n1,x", "line 4: index and value must be numbers"),
        ("\n1,0.25", "\n2,0.25", "line 4: expected index 1, got '2,0.25'"),
        ("\n1,0.25", "\n1,1.5", "line 4: expected a value in [0, 1], got '1,1.5'"),
        ("\n1,0.25", "\n1,-0.25", "line 4: expected a value in [0, 1]"),
        ("\n1,0.25", "\n1,inf", "line 4: expected a value in [0, 1]"),
        ("\n1,0.25", "\n\n1,nan", "line 5: expected a value in [0, 1], got '1,nan'"),
    ], ids=["missing-key", "unknown-key", "repeated-key", "non-integer", "basic-format-day",
            "header", "extra-field", "no-value", "long-and-short-row", "non-number",
            "index-skips", "above-one", "below-zero", "inf", "nan-after-blank-line"])
    def test_malformed_series_names_its_line(self, old, new, named):
        text = series_to_csv(ActivityTimeSeries(np.array([0.0, 0.25, 1.0]), 10,
                                                "2015-02-01", "B"))
        assert old in text
        with pytest.raises(ValueError, match=re.escape(f"series {named}")):
            series_from_csv(text.replace(old, new, 1))

    def test_levels_outside_the_unit_interval_are_rejected(self):
        # activity levels run 0..7; a series file holds activity in [0, 1]
        text = series_to_csv(ActivityTimeSeries(np.array([0.0, 0.5]))).replace(
            "1,0.5", "1,6.5")
        with pytest.raises(ValueError, match="line 4"):
            series_from_csv(text)


class TestWriteArtifact:
    def test_writes_utf8_with_lf_ends_making_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.csv"
        write_artifact(path, "day,\u00e9\n1,2\n")
        assert path.read_bytes() == "day,\u00e9\n1,2\n".encode("utf-8")

    @pytest.mark.parametrize("target, blocked, kind", [
        ("file/x.csv", "file", "not a directory"),
        ("file/a/b/x.csv", "file", "not a directory"),
        ("dir", "dir", "a directory"),
    ], ids=["parent-file", "ancestor-file", "directory-as-file"])
    def test_blocked_path_named(self, tmp_path, target, blocked, kind):
        (tmp_path / "file").write_text("in the way\n", encoding="utf-8")
        (tmp_path / "dir").mkdir()
        with pytest.raises(ValueError, match=re.escape(
                f"cannot write {tmp_path / target}: {tmp_path / blocked} is {kind}")):
            write_artifact(tmp_path / target, "x\n")
        assert (tmp_path / "file").read_text(encoding="utf-8") == "in the way\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]

    def test_a_blocked_target_writes_no_file(self, tmp_path):
        (tmp_path / "file").write_text("in the way\n", encoding="utf-8")
        files = {tmp_path / "a" / "x.csv": "x\n", tmp_path / "file" / "y.csv": "y\n"}
        with pytest.raises(ValueError, match=re.escape(
                f"cannot write {tmp_path / 'file' / 'y.csv'}: {tmp_path / 'file'} "
                "is not a directory")):
            write_artifacts(files)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        files = {tmp_path / "a" / "x.csv": "x\n", tmp_path / "b" / "y.csv": "y\n"}
        write_artifacts(files)
        assert {p: p.read_text(encoding="utf-8") for p in files} == files


class TestSyntheticYear:
    # every year size the benchmark, the tests and the demos ask for
    @pytest.mark.parametrize("n_days, anomalies", [
        (364, 20), (42, 9), (91, 9), (64, 10), (56, 9), (35, 9), (21, 0), (14, 0)])
    def test_places_exactly_the_anomalies_asked(self, n_days, anomalies):
        year = synthetic_year(n_days=n_days, anomaly_count=anomalies, length=48)
        assert len(year.days) == n_days
        assert sum(year.anomaly_flags) == anomalies

    def test_counts_of_nine_or_more_reach_every_class(self):
        year = synthetic_year(n_days=42, anomaly_count=9, length=48)
        for letter in set(year.classes):
            flags = [f for f, c in zip(year.anomaly_flags, year.classes) if c == letter]
            assert sum(flags) >= min(3, len(flags))

    def test_count_beyond_the_days_rejected_naming_the_fit(self):
        with pytest.raises(ValueError, match="at most 10 anomalies fit"):
            synthetic_year(n_days=10, anomaly_count=50, length=48)
        with pytest.raises(ValueError, match="at most 10 anomalies fit"):
            synthetic_year(n_days=10, anomaly_count=11, length=48)
        assert sum(synthetic_year(n_days=10, anomaly_count=10,
                                  length=48).anomaly_flags) == 10
