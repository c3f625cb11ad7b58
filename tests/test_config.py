import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from citytrails import calibrate
from citytrails.calibrate import DeConfig
from citytrails.cli import build_parser, main
from citytrails.config import (
    DE_PHASES,
    DE_STAGES,
    HotspotSettings,
    PipelineConfig,
    TrainingSettings,
    _schema,
    load_config,
)
from citytrails.ingest import GeoBox

# Every key the loader reads, each set away from its default.
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
per_class = 7
noise = 0.08
max_shift = 2
pattern_per_class = 6
representatives = 3

[de]
population_size = 11
generations = 9

[de.local]
population_size = 5
generations = 4

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
        training=TrainingSettings(7, 0.08, 2, 6, 3),
        de=DeConfig(11, 9),
        de_overrides={"local": {"population_size": 5, "generations": 4}},
        master_seed=23)
    cfg = load_config(path)
    assert cfg == expected
    for key in ("bucket_cell_m", "resolution_minutes"):
        assert type(getattr(cfg, key)) is type(getattr(expected, key))
    assert type(cfg.hotspots.count_cap) is float
    assert cfg.day_length == 48  # 1440 / 30
    assert cfg.de.seed == 0
    local = cfg.de_for("local")
    assert (local.population_size, local.generations) == (5, 4)
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
    # README says the example sets every key to its default, apart from
    # [paths] trips and [de.pattern]; a stale key or a changed default fails
    assert cfg.trips_path == tmp_path / "data/trips.csv"
    cfg = dataclasses.replace(cfg, trips_path=None, de_overrides={})
    for f in dataclasses.fields(PipelineConfig):
        assert getattr(cfg, f.name) == getattr(PipelineConfig(), f.name), f.name


@pytest.mark.parametrize("text, named", [
    ("[hotspots]\ntrail_detla = 0.1\n", "trail_detla"),
    ("[sedes]\nmaster = 3\n", "[sedes]"),
    ("[de.patern]\ngenerations = 2\n", "[de.patern]"),
    ("[de.local]\npopulation = 5\n", "population"),
    ("[paths]\ntrip = data/trips.csv\n", "trip"),
    ("[de.global]\ngenerations = 2\n", "[de.global]"),
    ("[de]\nseed = 5\n", "seed"),
    ("[de.local]\nseed = 5\n", "seed"),
    ("[training]\nday_length = 96\n", "day_length"),
    ("[de]\ndifferential_weight = 0.7\n", "differential_weight"),
    ("[de.local]\ncrossover_rate = 0.9\n", "crossover_rate"),
    ("[de.thresholds:dtw]\ngenerations = 2\n", "[de.thresholds:dtw]"),
], ids=["key", "section", "de-stage", "de-stage-key", "paths-key", "de-global",
        "de-seed", "de-stage-seed", "day_length", "de-f", "de-stage-cr",
        "de-thresholds-dtw"])
def test_unknown_section_or_key_rejected(tmp_path, text, named):
    path = tmp_path / "pipeline.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(named)):
        load_config(path)


@pytest.mark.parametrize("key", ["per_class", "pattern_per_class", "representatives"])
@pytest.mark.parametrize("value", [0, -2])
def test_training_count_below_one_rejected(tmp_path, key, value):
    path = tmp_path / "pipeline.ini"
    path.write_text(f"[training]\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"\[training\] {key} = {value} must be at least 1"):
        load_config(path)
    path.write_text(f"[training]\n{key} = 1\n", encoding="utf-8")
    assert getattr(load_config(path).training, key) == 1


def test_every_de_stage_accepts_overrides(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text("".join(f"[de.{phase}]\ngenerations = {i}\n\n"
                            for i, phase in enumerate(DE_PHASES)), encoding="utf-8")
    cfg = load_config(path)
    # compare's DTW and Frechet threshold searches share [de.thresholds] with
    # SRF's, and each keeps the seed of its own stage name
    assert [cfg.de_for(stage).generations for stage in DE_STAGES] == [0, 1, 2, 2, 2]
    seeds = [cfg.de_for(stage).seed for stage in DE_STAGES]
    assert seeds == [cfg.stage_seed(f"de:{stage}") for stage in DE_STAGES]
    assert len(set(seeds)) == len(DE_STAGES)
    with pytest.raises(ValueError):
        cfg.de_for("thresholds:euclid")


def accepted_keys(base: PipelineConfig) -> dict[str, set[str]]:
    return {name: set(types) for name, types in _schema(base).items()}


def test_settable_config_surface_is_pinned():
    """Every (section, key) a config file may set. A new setting must be added
    here, so it shows up in review."""
    de = {"population_size", "generations"}
    assert accepted_keys(PipelineConfig()) == {
        "paths": {"out", "trips"},
        "box": {"lon_min", "lon_max", "lat_min", "lat_max"},
        "grid": {"bucket_cell_m", "bucket_minutes", "resolution_minutes"},
        "hotspots": {"relevance_fraction", "min_area_km2", "cone_base_radius_m",
                     "cone_top_radius_m", "smooth_alpha", "smooth_beta", "count_cap",
                     "trail_delta", "trail_cell_m"},
        "training": {"per_class", "noise", "max_shift", "pattern_per_class",
                     "representatives"},
        "de": de, "de.local": de, "de.pattern": de, "de.thresholds": de,
        "seeds": {"master"},
    }
    assert sum(map(len, accepted_keys(PipelineConfig()).values())) == 32
    # F and CR are fixed for every DE search
    assert (calibrate.DIFFERENTIAL_WEIGHT, calibrate.CROSSOVER_RATE) == (0.7, 0.9)
    assert [f.name for f in dataclasses.fields(DeConfig)] == [
        "population_size", "generations", "seed"]


# every subcommand the CLI registers
COMMANDS = sorted(next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)))


@pytest.mark.parametrize("command", COMMANDS)
def test_misspelled_key_exits_2_naming_it(tmp_path, capsys, command):
    path = tmp_path / "pipeline.ini"
    path.write_text("[hotspots]\ntrail_detla = 0.1\n", encoding="utf-8")
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), command]) == 2
    assert "trail_detla" in capsys.readouterr().err
