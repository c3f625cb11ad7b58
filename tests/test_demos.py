"""The quick demos run end to end against the public API."""

import contextlib
import io
import re
import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", ["01_trails_and_marks.py", "02_receptive_field.py"])
def test_demo_runs(name):
    assert run_demo(name).startswith("== ")


def test_trails_demo_reports_peak_growth():
    # reinforcement outpaces evaporation by 1.0 - 0.4 per step: no fixed point
    text = run_demo("01_trails_and_marks.py")
    assert re.search(r"^after 12 reinforced steps: \|.*\| peak 7\.20$", text,
                     re.MULTILINE)
    assert "12 x 0.6 = 7.20" in text
    assert "stable" not in text


def test_perceptron_levels_demo_orders_the_archetypes():
    text = run_demo("03_perceptron_levels.py")
    means = re.findall(r"\(enum (\d)\): mean level (\d+\.\d+)$", text, re.MULTILINE)
    assert [int(enum) for enum, _ in means] == list(range(1, 8))
    levels = [float(level) for _, level in means]
    assert levels == sorted(levels) and len(set(levels)) == 7


@pytest.fixture(scope="module")
def anomaly_demo():
    """One run of the anomaly demo, its SRF report and the baseline table."""
    return run_demo("05_anomaly_detection.py")


def test_anomaly_demo_flags_only_injected_days(anomaly_demo):
    flagged = re.findall(r"^  \d{4}-\d{2}-\d{2} .* index \d+\.\d+ \[(.+)\]$",
                         anomaly_demo, re.MULTILINE)
    assert flagged and "?" not in flagged  # [?] marks a false positive


def test_baseline_demo_srf_is_at_least_as_accurate_as_the_distances(anomaly_demo):
    accuracy = {label: float(value) for label, value in re.findall(
        r"^  (SRF|DTW|Frechet) +accuracy (\d\.\d+) ", anomaly_demo, re.MULTILINE)}
    assert set(accuracy) == {"SRF", "DTW", "Frechet"}
    assert accuracy["SRF"] >= max(accuracy["DTW"], accuracy["Frechet"])


def test_hotspot_discovery_demo_recovers_every_cluster():
    text = run_demo("04_hotspot_discovery.py")
    assert "recovered 7 hotspots from 7 planted clusters" in text
    inside = re.findall(r"contains planted center \[(\d+)\]", text)
    assert sorted(int(i) for i in inside) == list(range(7))


def test_trip_ingestion_demo_extracts_a_series(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    text = run_demo("07_trip_ingestion.py")
    assert list(tmp_path.iterdir()) == []  # the demo removes its trip CSV
    assert "parsed 3000 trips, rejected 120 rows" in text
    assert "hotspot A, 2015-02-02: 144 samples, normalized to [0, 1]" in text
