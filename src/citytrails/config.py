"""Pipeline configuration: one flat key=value sections file, one master seed.

Every stage derives its randomness from the master seed and its own stage
name, so a whole pipeline run is reproducible from the config alone. Each
setting defaults to the library constant that the function it feeds uses.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from . import anomaly, hotspot, series, stigspace, synth
from .calibrate import DeConfig
from .ingest import DEFAULT_BUCKET_MINUTES, DEFAULT_CELL_M, GeoBox
from .perceptron import read_ini

ENV_CONFIG_VAR = "PIPELINE_CONFIG"

DEFAULT_BOX = GeoBox(lon_min=-74.03, lon_max=-73.96, lat_min=40.70, lat_max=40.78)


@dataclass(frozen=True)
class HotspotSettings:
    relevance_fraction: float = hotspot.DEFAULT_RELEVANCE_FRACTION
    min_area_km2: float = hotspot.DEFAULT_MIN_AREA_KM2
    cone_base_radius_m: float = stigspace.DEFAULT_CONE_BASE_RADIUS_M
    cone_top_radius_m: float = stigspace.DEFAULT_CONE_TOP_RADIUS_M
    smooth_alpha: float = hotspot.DEFAULT_SMOOTH_ALPHA
    smooth_beta: float = hotspot.DEFAULT_SMOOTH_BETA
    count_cap: float = hotspot.DEFAULT_COUNT_CAP
    trail_delta: float = 0.5
    trail_cell_m: float = stigspace.DEFAULT_CELL_SIZE_M


@dataclass(frozen=True)
class TrainingSettings:
    per_class: int = synth.TRAINING_PER_CLASS
    noise: float = synth.TRAINING_NOISE
    max_shift: int = synth.TRAINING_MAX_SHIFT
    pattern_per_class: int = 10
    representatives: int = anomaly.DEFAULT_REPRESENTATIVES


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path = Path("out")
    trips_path: Path | None = None
    box: GeoBox = DEFAULT_BOX
    bucket_cell_m: float = DEFAULT_CELL_M
    bucket_minutes: int = DEFAULT_BUCKET_MINUTES
    resolution_minutes: int = series.DEFAULT_RESOLUTION_MINUTES
    hotspots: HotspotSettings = field(default_factory=HotspotSettings)
    training: TrainingSettings = field(default_factory=TrainingSettings)
    de: DeConfig = field(default_factory=DeConfig)
    de_overrides: dict = field(default_factory=dict)
    master_seed: int = 17

    @property
    def day_length(self) -> int:
        """Samples per day on the ``[grid] resolution_minutes`` grid."""
        return series.samples_per_day(self.resolution_minutes)

    def stage_seed(self, stage: str) -> int:
        digest = hashlib.sha256(f"{self.master_seed}:{stage}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def de_for(self, stage: str) -> DeConfig:
        if stage not in DE_STAGES:
            raise ValueError(f"unknown DE stage {stage!r}")
        return dataclasses.replace(self.de, seed=self.stage_seed(f"de:{stage}"),
                                   **self.de_overrides.get(stage.split(":")[0], {}))


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
# Training phases that run DE; each may have a [de.<phase>] section.
DE_PHASES = ("local", "pattern", "thresholds")
# Stages that ask PipelineConfig.de_for for their DE settings: each is seeded
# by its own name and budgeted by the phase its name starts with.
DE_STAGES = DE_PHASES + ("thresholds:dtw", "thresholds:frechet")


def _schema(base: PipelineConfig) -> dict[str, dict[str, type]]:
    """Every section the loader reads, with the type of each key it reads there."""
    schema = {name: {f.name: type(getattr(getattr(base, name), f.name))
                     for f in dataclasses.fields(getattr(base, name))}
              for name in SETTINGS_SECTIONS}
    del schema["de"]["seed"]  # DE seeds derive from the master seed
    schema.update({f"de.{phase}": schema["de"] for phase in DE_PHASES})
    for (name, key), attr in SCALAR_KEYS.items():
        schema.setdefault(name, {})[key] = type(getattr(base, attr))
    schema["paths"]["trips"] = Path
    return schema


def _accepted_keys(base: PipelineConfig) -> dict[str, set[str]]:
    return {name: set(types) for name, types in _schema(base).items()}


def load_config(path=None) -> PipelineConfig:
    """Read a config file. Every key is optional: a missing one keeps the
    default its dataclass field declares, and a present one is cast with the
    type of that default. ``[de.<phase>]`` sections override ``[de]`` for one
    training phase; relative ``[paths] trips`` resolves against the file's directory.
    Values may carry ``;`` comments. An unknown section or key, or a value
    its type cannot cast, raises ValueError naming the file, section and key,
    so a misspelled key cannot silently fall back to its default.
    So does a ``[grid] resolution_minutes`` that does not divide a day or
    leaves it fewer than the ``series.MIN_ARCHETYPE_LENGTH`` samples every
    stage that trains needs, a ``[hotspots] relevance_fraction`` outside
    (0, 1], a negative ``min_area_km2`` and a ``[training]`` ``per_class``,
    ``pattern_per_class`` or ``representatives`` below 1.
    """
    if path is None:
        return PipelineConfig()
    return series.read_artifact(path, lambda text: _parse_config(text, Path(path).parent))


def _parse_config(text: str, root: Path) -> PipelineConfig:
    base = PipelineConfig()
    sections = read_ini(text, _schema(base), "section")
    changes = {name: dataclasses.replace(getattr(base, name), **sections.get(name, {}))
               for name in SETTINGS_SECTIONS}
    changes["de_overrides"] = {name.split(".", 1)[1]: values
                               for name, values in sections.items() if name.startswith("de.")}
    for (name, key), attr in SCALAR_KEYS.items():
        if key in sections.get(name, {}):
            changes[attr] = sections[name][key]
    if "trips" in sections.get("paths", {}):
        changes["trips_path"] = root / sections["paths"]["trips"]
    cfg = dataclasses.replace(base, **changes)
    if cfg.day_length < series.MIN_ARCHETYPE_LENGTH:
        raise ValueError(f"[grid] resolution_minutes = {cfg.resolution_minutes} "
                         f"gives {cfg.day_length} samples a day, below the "
                         f"{series.MIN_ARCHETYPE_LENGTH} an archetype needs")
    hs = cfg.hotspots
    if not 0 < hs.relevance_fraction <= 1:
        raise ValueError(f"[hotspots] relevance_fraction = "
                         f"{hs.relevance_fraction} is outside (0, 1]")
    if not hs.min_area_km2 >= 0:
        raise ValueError(f"[hotspots] min_area_km2 = {hs.min_area_km2} "
                         "must be non-negative")
    for key in ("per_class", "pattern_per_class", "representatives"):
        count = getattr(cfg.training, key)
        if count < 1:
            raise ValueError(f"[training] {key} = {count} must be at least 1")
    return cfg


def history_csv(history) -> str:
    return series.framed_csv("generation,best_fitness", (
        f"{g},{v:.12g}" for g, v in enumerate(history)))


def write_history_csv(path, history) -> None:
    series.write_artifact(path, history_csv(history))
