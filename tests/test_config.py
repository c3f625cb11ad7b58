import re
from pathlib import Path

import pytest

from citytrails.calibrate import DeConfig
from citytrails.cli import _HANDLERS, main
from citytrails.config import (
    DE_STAGES,
    HotspotSettings,
    PipelineConfig,
    TrainingSettings,
    load_config,
)
from citytrails.ingest import GeoBox

# Every key the loader reads, each set away from its default, plus a ``seed``
# in both DE sections, which stage seeding derives and the file cannot set.
FULL_CONFIG = """\
[paths]
out = results/run1
trips = data/trips.csv

[box]
lon_min = -74.01
lon_max = -73.95
lat_min = 40.71
lat_max = 40.79

[grid]
bucket_cell_m = 6.5
bucket_minutes = 15
resolution_minutes = 30

[hotspots]
relevance_fraction = 0.4
min_area_km2 = 0.02
cone_base_radius_m = 120.0
cone_top_radius_m = 40.0
smooth_alpha = 9.0
smooth_beta = 0.3
count_cap = 4
trail_delta = 0.25
trail_cell_m = 25

[training]
day_length = 96
per_class = 7
noise = 0.08
max_shift = 2
pattern_per_class = 6
representatives = 3

[de]
population_size = 11
generations = 9
differential_weight = 0.6
crossover_rate = 0.8
seed = 99

[de.local]
population_size = 5
generations = 4
differential_weight = 0.5
crossover_rate = 0.3
seed = 98

[seeds]
master = 23
"""


def test_full_config_loads_every_key(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(FULL_CONFIG, encoding="utf-8")
    expected = PipelineConfig(
        out_dir=Path("results/run1"),
        trips_path=tmp_path / "data/trips.csv",
        box=GeoBox(-74.01, -73.95, 40.71, 40.79),
        bucket_cell_m=6.5,
        bucket_minutes=15,
        resolution_minutes=30,
        hotspots=HotspotSettings(0.4, 0.02, 120.0, 40.0, 9.0, 0.3, 4.0, 0.25, 25.0),
        training=TrainingSettings(96, 7, 0.08, 2, 6, 3),
        de=DeConfig(11, 9, 0.6, 0.8),
        de_overrides={"local": {"population_size": 5, "generations": 4,
                                "differential_weight": 0.5, "crossover_rate": 0.3}},
        master_seed=23)
    cfg = load_config(path)
    assert cfg == expected
    for key in ("bucket_cell_m", "resolution_minutes"):
        assert type(getattr(cfg, key)) is type(getattr(expected, key))
    assert type(cfg.hotspots.count_cap) is float
    assert cfg.de.seed == 0
    local = cfg.de_for("local")
    assert (local.population_size, local.crossover_rate) == (5, 0.3)
    assert local.seed == cfg.stage_seed("de:local")


def test_missing_keys_fall_back_to_defaults(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("[hotspots]\ncount_cap = 3\n\n[de.pattern]\ngenerations = 2\n",
                    encoding="utf-8")
    cfg = load_config(path)
    assert cfg.hotspots == HotspotSettings(count_cap=3.0)
    assert cfg.de_overrides == {"pattern": {"generations": 2}}
    assert cfg == PipelineConfig(hotspots=HotspotSettings(count_cap=3.0),
                                 de_overrides={"pattern": {"generations": 2}})
    assert load_config() == PipelineConfig()



def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "pipeline.ini"
    path.write_text(example, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.hotspots.count_cap == 10.0
    assert cfg.de_overrides == {"pattern": {"population_size": 16, "generations": 50}}
    assert cfg.de_for("pattern").generations == 50


@pytest.mark.parametrize("text, named", [
    ("[hotspots]\ntrail_detla = 0.1\n", "trail_detla"),
    ("[sedes]\nmaster = 3\n", "[sedes]"),
    ("[de.patern]\ngenerations = 2\n", "[de.patern]"),
    ("[de.local]\npopulation = 5\n", "population"),
    ("[paths]\ntrip = data/trips.csv\n", "trip"),
], ids=["key", "section", "de-stage", "de-stage-key", "paths-key"])
def test_unknown_section_or_key_rejected(tmp_path, text, named):
    path = tmp_path / "pipeline.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named)):
        load_config(path)


def test_every_de_stage_accepts_overrides(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("".join(f"[de.{stage}]\ngenerations = {i}\n\n"
                            for i, stage in enumerate(DE_STAGES)), encoding="utf-8")
    cfg = load_config(path)
    assert [cfg.de_for(stage).generations for stage in DE_STAGES] == list(
        range(len(DE_STAGES)))
    with pytest.raises(ValueError):
        cfg.de_for("thresholds:euclid")


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_misspelled_key_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "pipeline.ini"
    path.write_text("[hotspots]\ntrail_detla = 0.1\n", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 2
    assert "trail_detla" in capsys.readouterr().err
