import configparser
import io
import re

import numpy as np
import pytest

from citytrails.perceptron import (
    ActivityLevelSeries,
    StigmergicPerceptron,
    activity_level,
    load_sp,
    params_from_config,
    params_to_config,
    save_sp,
    transform,
    transform_many,
)
from citytrails.series import ActivityTimeSeries, all_archetypes
from citytrails.srf import SrfParams


def eq5(similarities):
    """Independent arithmetic for the weighted-enumeration average."""
    num = sum(s * i for i, s in enumerate(similarities, start=1))
    return num / sum(similarities)


class TestActivityLevel:
    def test_equal_similarities_average_to_four(self):
        assert activity_level([0.3] * 7) == pytest.approx(4.0)

    def test_single_field_dominates_toward_its_index(self):
        s = [1.0] + [1e-9] * 6
        assert activity_level(s) == pytest.approx(1.0, abs=1e-6)

    def test_weighted_example_matches_hand_arithmetic(self):
        s = [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.8]
        assert eq5(s) == pytest.approx(5.5)
        assert activity_level(s) == pytest.approx(eq5(s))

    def test_random_vectors_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = rng.uniform(0.01, 1.0, 7)
            assert activity_level(s) == pytest.approx(eq5(list(s)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            activity_level([0.5] * 6)


class TestPerceptron:
    def test_needs_exactly_seven_fields(self):
        fields = tuple((a, SrfParams.defaults()) for a in all_archetypes(48))
        with pytest.raises(ValueError):
            StigmergicPerceptron(fields[:6])

    def test_field_order_normalized_by_enumeration(self):
        fields = tuple((a, SrfParams.defaults()) for a in all_archetypes(48))
        sp = StigmergicPerceptron(tuple(reversed(fields)))
        assert [a.enumeration for a, _ in sp.fields] == list(range(1, 8))

    def test_transform_deterministic(self):
        sp = StigmergicPerceptron.untrained(48)
        day = ActivityTimeSeries(np.random.default_rng(1).uniform(0, 1, 48))
        first = transform(sp, day)
        second = transform(sp, day)
        assert np.array_equal(first.levels, second.levels)

    def test_field_permutation_leaves_transform_unchanged(self):
        fields = tuple((a, SrfParams.defaults()) for a in all_archetypes(48))
        shuffled = (fields[3], fields[6], fields[0], fields[5],
                    fields[1], fields[4], fields[2])
        day = ActivityTimeSeries(np.random.default_rng(2).uniform(0, 1, 48))
        out1 = transform(StigmergicPerceptron(fields), day)
        out2 = transform(StigmergicPerceptron(shuffled), day)
        assert np.array_equal(out1.levels, out2.levels)

    def test_levels_bounded_by_enumeration_range(self):
        sp = StigmergicPerceptron.untrained(48)
        rng = np.random.default_rng(3)
        for _ in range(5):
            out = transform(sp, ActivityTimeSeries(rng.uniform(0, 1, 48)))
            assert np.all((out.levels >= 1.0) & (out.levels <= 7.0))

    def test_output_length_and_metadata(self):
        sp = StigmergicPerceptron.untrained(60)
        day = ActivityTimeSeries(np.full(60, 0.5), 10, "2015-03-02", "E")
        out = transform(sp, day)
        assert len(out) == 54
        assert (out.day_id, out.hotspot_id) == ("2015-03-02", "E")

    def test_length_mismatch_rejected(self):
        sp = StigmergicPerceptron.untrained(48)
        with pytest.raises(ValueError):
            transform(sp, ActivityTimeSeries(np.full(50, 0.5)))

    def test_transform_many_matches_single(self):
        sp = StigmergicPerceptron.untrained(48)
        rng = np.random.default_rng(4)
        days = [ActivityTimeSeries(rng.uniform(0, 1, 48)) for _ in range(3)]
        batch = transform_many(sp, days)
        for day, out in zip(days, batch):
            assert np.allclose(out.levels, transform(sp, day).levels)


class TestLevelSeries:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ActivityLevelSeries(np.array([1.0, 7.5]))
        with pytest.raises(ValueError):
            ActivityLevelSeries(np.array([-0.1, 3.0]))


class TestPersistence:
    def test_config_round_trip(self, tmp_path):
        sp = StigmergicPerceptron.untrained(48)
        sp = sp.with_params("Flow", SrfParams(11, 0.21, 31, 0.81, 0.11, 0.21, 41, 0.61))
        save_sp(sp, tmp_path / "sp.ini")
        back = load_sp(tmp_path / "sp.ini", length=48)
        assert [p for _, p in back.fields] == [p for _, p in sp.fields]

    def test_blocks_keyed_by_archetype_name(self, tmp_path):
        save_sp(StigmergicPerceptron.untrained(48), tmp_path / "sp.ini")
        text = (tmp_path / "sp.ini").read_text(encoding="utf-8")
        for a in all_archetypes(48):
            assert f"[{a.name}]" in text

    def test_block_text_is_what_configparser_writes(self):
        blocks = {"Flow": SrfParams(11, 0.21, 31, 0.81, 0.11, 0.21, 41, 0.61),
                  "pattern": SrfParams.defaults()}
        reference = configparser.ConfigParser()
        for name, params in blocks.items():
            reference[name] = {k: repr(v) for k, v in params.to_block().items()}
        written = io.StringIO()
        reference.write(written)
        assert params_to_config(blocks) == written.getvalue()
        # reading the text back and writing it again reproduces the bytes
        assert params_to_config(params_from_config(written.getvalue(), list(blocks))) \
            == written.getvalue()

    def test_missing_block_rejected(self, tmp_path):
        path = tmp_path / "sp.ini"
        save_sp(StigmergicPerceptron.untrained(48), path)
        path.write_text(path.read_text(encoding="utf-8").replace("[Flow]", "[Flows]"),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_sp(path, length=48)

    @pytest.mark.parametrize("old, new, named", [
        ("epsilon = 0.2\n", "", "parameter block [pattern] has no epsilon"),
        ("epsilon = 0.2", "epsilon = wide",
         "parameter block [pattern] epsilon = 'wide' is not a number"),
        ("epsilon = 0.2", "epsilon =", "parameter block [pattern] epsilon = '' is not"),
        ("delta = 0.1", "delta = -0.1", "parameter block [pattern] delta = -0.1 must"),
    ], ids=["missing-key", "non-number", "empty", "invariant"])
    def test_bad_block_value_names_block_and_key(self, old, new, named):
        text = params_to_config({"pattern": SrfParams.defaults()})
        assert params_from_config(text, ["pattern"]) == {"pattern": SrfParams.defaults()}
        assert old in text
        with pytest.raises(ValueError, match=re.escape(named)):
            params_from_config(text.replace(old, new), ["pattern"])
