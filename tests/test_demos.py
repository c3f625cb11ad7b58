"""The quick demos run end to end against the public API."""

import contextlib
import io
import re
import runpy
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


def test_hotspot_discovery_demo_recovers_every_cluster():
    text = run_demo("04_hotspot_discovery.py")
    assert "recovered 7 hotspots from 7 planted clusters" in text
    inside = re.findall(r"contains planted center \[(\d+)\]", text)
    assert sorted(int(i) for i in inside) == list(range(7))


def test_trip_ingestion_demo_extracts_a_series():
    text = run_demo("07_trip_ingestion.py")
    assert "parsed 3000 trips, rejected 120 rows" in text
    assert "hotspot A, 2015-02-02: 144 samples, normalized to [0, 1]" in text
