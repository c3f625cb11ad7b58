"""Pipeline configuration: one flat key=value sections file, one master seed.

Every stage derives its randomness from the master seed and its own stage
name, so a whole pipeline run is reproducible from the config alone.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .calibrate import DeConfig
from .ingest import DEFAULT_BUCKET_MINUTES, DEFAULT_CELL_M, GeoBox

ENV_CONFIG_VAR = "PIPELINE_CONFIG"

DEFAULT_BOX = GeoBox(lon_min=-74.03, lon_max=-73.96, lat_min=40.70, lat_max=40.78)


@dataclass(frozen=True)
class HotspotSettings:
    relevance_fraction: float = 0.3
    min_area_km2: float = 0.05
    cone_base_radius_m: float = 150.0
    cone_top_radius_m: float = 50.0
    smooth_alpha: float = 12.0
    smooth_beta: float = 0.5
    count_cap: float = 10.0
    trail_delta: float = 0.5
    trail_cell_m: float = 50.0


@dataclass(frozen=True)
class TrainingSettings:
    day_length: int = 144
    per_class: int = 10
    noise: float = 0.05
    max_shift: int = 4
    pattern_per_class: int = 10
    representatives: int = 5


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path = Path("out")
    trips_path: Path | None = None
    box: GeoBox = DEFAULT_BOX
    bucket_cell_m: float = DEFAULT_CELL_M
    bucket_minutes: int = DEFAULT_BUCKET_MINUTES
    resolution_minutes: int = 10
    hotspots: HotspotSettings = field(default_factory=HotspotSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    de: DeConfig = field(default_factory=DeConfig)
    de_overrides: dict = field(default_factory=dict)
    master_seed: int = 17

    def stage_seed(self, stage: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{stage}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def de_for(self, stage: str) -> DeConfig:
        if stage not in DE_STAGES:
            raise ValueError(f"unknown DE stage {stage!r}")
        cfg = dataclasses.replace(self.de, seed=self.stage_seed(f"de:{stage}"))
        overrides = self.de_overrides.get(stage, {})
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        return cfg


# Sections read field by field into the settings dataclass of the same name.
SETTINGS_SECTIONS = ("box", "hotspots", "training", "de")
# Scalar PipelineConfig fields, by (section, key).
SCALAR_KEYS = {
    ("paths", "out"): "out_dir",
    ("grid", "bucket_cell_m"): "bucket_cell_m",
    ("grid", "bucket_minutes"): "bucket_minutes",
    ("grid", "resolution_minutes"): "resolution_minutes",
    ("seeds", "master"): "master_seed",
}
# Stages that ask PipelineConfig.de_for for their DE settings; each may have
# a [de.<stage>] section.
DE_STAGES = ("global", "local", "pattern", "thresholds", "thresholds:dtw",
             "thresholds:frechet")


def _accepted_keys(base: PipelineConfig) -> dict[str, set[str]]:
    """Every section the loader reads, with the keys it reads there."""
    accepted = {name: {f.name for f in dataclasses.fields(getattr(base, name))}
                for name in SETTINGS_SECTIONS}
    accepted.update({f"de.{stage}": accepted["de"] for stage in DE_STAGES})
    for name, key in SCALAR_KEYS:
        accepted.setdefault(name, set()).add(key)
    accepted["paths"].add("trips")
    return accepted


def load_config(path=None) -> PipelineConfig:
    """Read a config file. Every key is optional: a missing one keeps the
    default its dataclass field declares, and a present one is cast with the
    type of that default. ``[de.<stage>]`` sections override ``[de]`` for one
    stage; relative ``[paths] trips`` resolves against the file's directory.
    Values may carry ``;`` comments. An unknown section or key raises
    ValueError, so a misspelled key cannot silently fall back to its default.
    """
    base = PipelineConfig()
    if path is None:
        return base
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(path, encoding="utf-8")
    accepted = _accepted_keys(base)
    for name in parser.sections():
        if name not in accepted:
            raise ValueError(f"{path}: unknown section [{name}]")
        unknown = sorted(set(parser[name]) - accepted[name])
        if unknown:
            raise ValueError(f"{path}: unknown key {unknown[0]!r} in section [{name}]")

    def read(name: str, settings) -> dict:
        section = parser[name] if parser.has_section(name) else {}
        # DE seeds derive from the master seed, so no section sets ``seed``.
        return {f.name: type(getattr(settings, f.name))(section[f.name])
                for f in dataclasses.fields(settings)
                if f.name in section and f.name != "seed"}

    changes = {name: dataclasses.replace(getattr(base, name),
                                         **read(name, getattr(base, name)))
               for name in SETTINGS_SECTIONS}
    changes["de_overrides"] = {name.split(".", 1)[1]: read(name, base.de)
                               for name in parser.sections() if name.startswith("de.")}
    for (name, key), attr in SCALAR_KEYS.items():
        if parser.has_option(name, key):
            changes[attr] = type(getattr(base, attr))(parser[name][key])
    if parser.has_option("paths", "trips"):
        changes["trips_path"] = path.parent / parser["paths"]["trips"]
    return dataclasses.replace(base, **changes)


def write_history_csv(path, history) -> None:
    lines = ["generation,best_fitness"]
    lines.extend(f"{g},{v:.12g}" for g, v in enumerate(history))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
