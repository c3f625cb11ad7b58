"""Stigmergic perceptron: seven archetype-tuned SRFs combined into activity levels.

Each field compares the input day against one archetype; the per-step
activated similarities weight the field enumerations (1..7) into a continuous
activity level, so a day's output stream characterizes which behaviors it
moves through.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .series import ARCHETYPE_NAMES, DEFAULT_DAY_LENGTH, DEFAULT_RESOLUTION_MINUTES, \
    Archetype, all_archetypes, read_artifact, write_artifact
from .srf import PARAM_KEYS, SrfParams, indexed_similarity
from .stigspace import _readonly

FIELD_COUNT = 7


@dataclass(frozen=True)
class ActivityLevelSeries:
    """Per-step activity levels in [0, 7] produced by the perceptron."""

    levels: np.ndarray
    resolution_minutes: int = DEFAULT_RESOLUTION_MINUTES
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
    def untrained(cls, length: int = DEFAULT_DAY_LENGTH) -> "StigmergicPerceptron":
        p = SrfParams.defaults()
        return cls(tuple((a, p) for a in all_archetypes(length)))

    @property
    def archetype_length(self) -> int:
        return self.fields[0][0].samples.size

    def with_params(self, name: str, params: SrfParams) -> "StigmergicPerceptron":
        return StigmergicPerceptron(tuple(
            (a, params if a.name == name else p) for a, p in self.fields))


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


def transform_many(sp: StigmergicPerceptron, days) -> list[ActivityLevelSeries]:
    """Run the perceptron over many days in one vectorized pass."""
    days = list(days)
    if not days:
        return []
    for d in days:
        if len(d.samples) != sp.archetype_length:
            raise ValueError(f"day {d.day_id} has {len(d.samples)} samples, but "
                             f"the archetypes have {sp.archetype_length}")
    samples = np.stack([np.asarray(d.samples, dtype=float) for d in days])

    # Streams are the days followed by the archetypes; parameter row f matches
    # every day against archetype f under field f's parameters.
    n_days = len(days)
    streams = np.concatenate([samples, np.stack([a.samples for a, _ in sp.fields])])
    pmat = np.stack([p.to_vector() for _, p in sp.fields])
    _, streams = indexed_similarity(streams, np.arange(n_days),
                                    n_days + np.arange(FIELD_COUNT)[:, None],
                                    pmat, return_streams=True)
    # sigmoid outputs are positive, but deep saturation can underflow to 0.0;
    # the floor keeps the weighted average defined at such steps
    levels = activity_level(np.maximum(streams, 1e-12).transpose(1, 2, 0))
    return [ActivityLevelSeries(levels[i], days[i].resolution_minutes,
                                days[i].day_id, days[i].hotspot_id)
            for i in range(n_days)]


def transform(sp: StigmergicPerceptron, a) -> ActivityLevelSeries:
    """Activity-level series of one day of normalized activity samples."""
    return transform_many(sp, [a])[0]


# --- persistence: one named parameter block per field -----------------------

def params_to_config(blocks: dict[str, SrfParams]) -> str:
    """INI text with one ``[name]`` section of PARAM_KEYS values per block:
    the format of both ``sp.ini`` and ``pattern.ini``."""
    lines = []
    for name, params in blocks.items():
        lines += [f"[{name}]", *(f"{k} = {v!r}" for k, v in params.to_block().items()), ""]
    return "".join(line + "\n" for line in lines)


def read_ini(text: str, schema, noun: str, required: bool = False) -> dict[str, dict]:
    """INI ``text`` as {section: {key: value}}, each value cast by ``schema``
    (section -> key -> type); values may carry ``;`` comments. An unknown
    section or key, with ``required`` a missing key, or a failed cast raises
    ValueError naming the section, as ``<noun> [<name>]``, and the key."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read_string(text)
    if parser.defaults():
        raise ValueError(f"unknown {noun} [{parser.default_section}]")
    sections = {}
    for name in parser.sections():
        if name not in schema:
            raise ValueError(f"unknown {noun} [{name}]")
        types = schema[name]
        values = sections[name] = {}
        absent = next((key for key in types if key not in parser[name]), None)
        if required and absent:
            raise ValueError(f"{noun} [{name}] has no {absent}")
        for key, raw in parser[name].items():
            if key not in types:
                raise ValueError(f"unknown key {key!r} in {noun} [{name}]")
            try:
                values[key] = types[key](raw)
            except ValueError:
                kind = "an integer" if types[key] is int else "a number"
                raise ValueError(f"{noun} [{name}] {key} = {raw!r} is not {kind}") from None
    return sections


def params_from_config(text: str, names) -> dict[str, SrfParams]:
    """The named parameter blocks of ``params_to_config`` text. A missing or
    unknown block or key, or a value that is not a number or breaks an
    ``SrfParams`` invariant, raises ValueError naming the block and key."""
    blocks = read_ini(text, {name: dict.fromkeys(PARAM_KEYS, float) for name in names},
                      "parameter block", required=True)
    missing = [name for name in names if name not in blocks]
    if missing:
        raise ValueError(f"missing parameter block(s) {missing}")
    for name in names:
        try:
            blocks[name] = SrfParams(**blocks[name])
        except ValueError as exc:
            raise ValueError(f"parameter block [{name}] {exc}") from None
    return blocks


def sp_ini(sp: StigmergicPerceptron) -> str:
    return params_to_config({a.name: p for a, p in sp.fields})


def save_sp(sp: StigmergicPerceptron, path) -> None:
    write_artifact(path, sp_ini(sp))


def load_sp(path, length: int = DEFAULT_DAY_LENGTH) -> StigmergicPerceptron:
    """Read a ``save_sp`` file onto the archetypes of ``length`` samples."""
    blocks = read_artifact(path, lambda text: params_from_config(text, ARCHETYPE_NAMES))
    return StigmergicPerceptron(tuple((a, blocks[a.name]) for a in all_archetypes(length)))
