"""Stigmergic perceptron: seven archetype-tuned SRFs combined into activity levels.

Each field compares the input day against one archetype; the per-step
activated similarities weight the field enumerations (1..7) into a continuous
activity level, so a day's output stream characterizes which behaviors it
moves through.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

import numpy as np

from .series import Archetype, all_archetypes, _readonly
from .srf import PARAM_KEYS, SrfParams, default_warmup, indexed_similarity

FIELD_COUNT = 7


@dataclass(frozen=True)
class ActivityLevelSeries:
    """Per-step activity levels in [0, 7] produced by the perceptron."""

    levels: np.ndarray
    resolution_minutes: int = 10
    day_id: str | None = None
    hotspot_id: str | None = None

    def __post_init__(self) -> None:
        levels = _readonly(self.levels)
        if levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty 1-D sequence")
        if np.any(levels < 0) or np.any(levels > FIELD_COUNT):
            raise ValueError("levels must lie in [0, 7]")
        object.__setattr__(self, "levels", levels)

    def __len__(self) -> int:
        return self.levels.size


@dataclass(frozen=True)
class StigmergicPerceptron:
    """Seven (archetype, parameters) fields ordered by enumeration 1..7."""

    fields: tuple[tuple[Archetype, SrfParams], ...]

    def __post_init__(self) -> None:
        if len(self.fields) != FIELD_COUNT:
            raise ValueError(f"perceptron needs exactly {FIELD_COUNT} fields")
        enums = sorted(a.enumeration for a, _ in self.fields)
        if enums != list(range(1, FIELD_COUNT + 1)):
            raise ValueError("field enumerations must be exactly 1..7")
        ordered = tuple(sorted(self.fields, key=lambda f: f[0].enumeration))
        object.__setattr__(self, "fields", ordered)

    @classmethod
    def untrained(cls, length: int = 144,
                  params: SrfParams | None = None) -> "StigmergicPerceptron":
        p = params if params is not None else SrfParams.defaults()
        return cls(tuple((a, p) for a in all_archetypes(length)))

    @property
    def archetype_length(self) -> int:
        return self.fields[0][0].samples.size

    def with_params(self, name: str, params: SrfParams) -> "StigmergicPerceptron":
        return StigmergicPerceptron(tuple(
            (a, params if a.name == name else p) for a, p in self.fields))

    def params_by_name(self) -> dict[str, SrfParams]:
        return {a.name: p for a, p in self.fields}


def activity_level(similarities) -> float:
    """Similarity-weighted average of the field enumerations 1..7."""
    s = np.asarray(similarities, dtype=float)
    if s.shape[-1] != FIELD_COUNT:
        raise ValueError(f"expected {FIELD_COUNT} similarities")
    weights = np.arange(1, FIELD_COUNT + 1, dtype=float)
    value = (s * weights).sum(axis=-1) / s.sum(axis=-1)
    return float(value) if np.ndim(value) == 0 else value


def scale_levels(levels) -> np.ndarray:
    """Rescale activity levels onto [0, 1] so the clumping axis matches."""
    return np.asarray(getattr(levels, "levels", levels), dtype=float) / FIELD_COUNT


def transform_many(sp: StigmergicPerceptron, days,
                   warmup: int | None = None) -> list[ActivityLevelSeries]:
    """Run the perceptron over many days in one vectorized pass."""
    days = list(days)
    if not days:
        return []
    samples = np.stack([np.asarray(d.samples, dtype=float) for d in days])
    length = samples.shape[1]
    if length != sp.archetype_length:
        raise ValueError(f"day length {length} does not match archetype length "
                         f"{sp.archetype_length}")
    if warmup is None:
        warmup = default_warmup(length)
    if warmup >= length:
        raise ValueError("series shorter than the warmup window")

    # Streams are the days followed by the archetypes; parameter row f matches
    # every day against archetype f under field f's parameters.
    n_days = len(days)
    streams = np.concatenate([samples, np.stack([a.samples for a, _ in sp.fields])])
    pmat = np.stack([p.to_vector() for _, p in sp.fields])
    _, streams = indexed_similarity(streams, np.arange(n_days),
                                    n_days + np.arange(FIELD_COUNT)[:, None],
                                    pmat, warmup, return_streams=True)
    streams = streams.transpose(1, 0, 2)

    weights = np.arange(1, FIELD_COUNT + 1, dtype=float)[None, :, None]
    # sigmoid outputs are positive, but deep saturation can underflow to 0.0;
    # the floor keeps the weighted average defined at such steps
    streams = np.maximum(streams, 1e-12)
    levels = (streams * weights).sum(axis=1) / streams.sum(axis=1)
    return [ActivityLevelSeries(levels[i], days[i].resolution_minutes,
                                days[i].day_id, days[i].hotspot_id)
            for i in range(n_days)]


def transform(sp: StigmergicPerceptron, a, warmup: int | None = None) -> ActivityLevelSeries:
    """Activity-level series of one day of normalized activity samples."""
    return transform_many(sp, [a], warmup)[0]


# --- persistence: one named parameter block per field -----------------------

def params_to_config(blocks: dict[str, SrfParams]) -> str:
    """INI text with one ``[name]`` section of PARAM_KEYS values per block:
    the format of both ``sp.ini`` and ``pattern.ini``."""
    cfg = configparser.ConfigParser()
    for name, params in blocks.items():
        cfg[name] = {k: repr(v) for k, v in params.to_block().items()}
    out = io.StringIO()
    cfg.write(out)
    return out.getvalue()


def params_from_config(text: str, names) -> dict[str, SrfParams]:
    """The named parameter blocks of ``params_to_config`` text."""
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    missing = [name for name in names if name not in cfg]
    if missing:
        raise ValueError(f"missing parameter block(s) {missing}")
    return {name: SrfParams(**{k: float(cfg[name][k]) for k in PARAM_KEYS})
            for name in names}


def sp_to_config(sp: StigmergicPerceptron) -> str:
    return params_to_config({a.name: p for a, p in sp.fields})


def sp_from_config(text: str, length: int = 144) -> StigmergicPerceptron:
    archetypes = all_archetypes(length)
    blocks = params_from_config(text, [a.name for a in archetypes])
    return StigmergicPerceptron(tuple((a, blocks[a.name]) for a in archetypes))


def save_sp(sp: StigmergicPerceptron, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sp_to_config(sp))


def load_sp(path, length: int = 144) -> StigmergicPerceptron:
    with open(path, encoding="utf-8") as fh:
        return sp_from_config(fh.read(), length)
