"""Activity time series: normalization, archetypes, perturbation, CSV round trip.

Series values are dimensionless activity samples in [0, 1] after min-max
normalization. Archetypes are the seven pure-form daily behaviors the
perceptron is specialized on; their canonical shapes are built from three
levels (low 0.1, mid 0.5, high 0.9) with quarter/half piecewise geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stigspace import _readonly

LEVEL_LOW = 0.1
LEVEL_MID = 0.5
LEVEL_HIGH = 0.9

MINUTES_PER_DAY = 1440
DEFAULT_RESOLUTION_MINUTES = 10


def samples_per_day(resolution_minutes: int) -> int:
    """Samples in a day on a grid of ``resolution_minutes``."""
    if resolution_minutes <= 0 or MINUTES_PER_DAY % resolution_minutes:
        raise ValueError(f"resolution_minutes = {resolution_minutes} does not divide "
                         f"the {MINUTES_PER_DAY} minutes of a day")
    return MINUTES_PER_DAY // resolution_minutes


DEFAULT_DAY_LENGTH = samples_per_day(DEFAULT_RESOLUTION_MINUTES)
MIN_ARCHETYPE_LENGTH = 16  # the shortest day an archetype can be sampled at

# Enumeration order: ascending mean canonical level, rising slope before
# falling slope on ties. Adjacent numbers then carry similar trails, which is
# what the neighbor-based training scheme relies on.
ARCHETYPE_NAMES = ("Asleep", "Awakening", "Falling", "Flow", "Rise", "Chill", "RushHour")
ARCHETYPE_ENUMERATION = {name: i + 1 for i, name in enumerate(ARCHETYPE_NAMES)}

CLASS_LETTERS = ("W", "E", "L")
CLASS_NAMES = {"W": "Working", "E": "Entertainment", "L": "Leisure"}


@dataclass(frozen=True)
class ActivityTimeSeries:
    """One day of normalized activity samples for one hotspot."""

    samples: np.ndarray
    resolution_minutes: int = DEFAULT_RESOLUTION_MINUTES
    day_id: str | None = None
    hotspot_id: str | None = None
    constant: bool = False  # set when min-max normalization saw a flat input

    def __post_init__(self) -> None:
        samples = _readonly(self.samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        if self.resolution_minutes <= 0:
            raise ValueError("resolution_minutes must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Archetype:
    """Pure-form series embodying one behavioral class, enumerated 1..7."""

    name: str
    samples: np.ndarray

    def __post_init__(self) -> None:
        if self.name not in ARCHETYPE_ENUMERATION:
            raise ValueError(f"unknown archetype name {self.name!r}")
        object.__setattr__(self, "samples", _readonly(self.samples))

    @property
    def enumeration(self) -> int:
        return ARCHETYPE_ENUMERATION[self.name]


@dataclass(frozen=True)
class AffinityTriple:
    """Ordering of the behavioral classes {W, E, L}, most affine first."""

    classes: tuple[str, str, str]
    tie: bool = False

    def __post_init__(self) -> None:
        if sorted(self.classes) != sorted(CLASS_LETTERS):
            raise ValueError(f"triple must be a permutation of {CLASS_LETTERS}, "
                             f"got {self.classes}")

    def __str__(self) -> str:
        return "|".join(self.classes)


def normalize_min_max(raw, *, resolution_minutes: int = DEFAULT_RESOLUTION_MINUTES,
                      day_id: str | None = None,
                      hotspot_id: str | None = None) -> ActivityTimeSeries:
    """Map raw samples onto [0, 1] by (x - min) / (max - min).

    A constant input (zero range) maps to all zeros and raises the
    ``constant`` flag instead of erroring; all-zero days occur in sparse
    hotspots and must stay processable.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("input must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(raw)):
        raise ValueError("input contains non-finite values")
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        samples = np.zeros_like(raw)
        constant = True
    else:
        samples = (raw - lo) / (hi - lo)
        constant = False
    return ActivityTimeSeries(samples, resolution_minutes, day_id, hotspot_id, constant)


def generate_archetype(name: str, length: int) -> Archetype:
    """Canonical shape of one behavioral archetype, sampled at ``length`` points.

    Constant shapes: Asleep low, Flow mid, RushHour high. Transitions hold the
    start level for the first quarter, ramp linearly over the middle half, and
    hold the end level for the last quarter: Awakening low->mid, Falling
    mid->low, Chill high->mid, Rise mid->high.
    """
    if name not in ARCHETYPE_ENUMERATION:
        raise ValueError(f"unknown archetype name {name!r}")
    if length < MIN_ARCHETYPE_LENGTH:
        raise ValueError(f"archetype length must be at least {MIN_ARCHETYPE_LENGTH} samples")
    flat = {"Asleep": LEVEL_LOW, "Flow": LEVEL_MID, "RushHour": LEVEL_HIGH}
    ramps = {
        "Awakening": (LEVEL_LOW, LEVEL_MID),
        "Falling": (LEVEL_MID, LEVEL_LOW),
        "Chill": (LEVEL_HIGH, LEVEL_MID),
        "Rise": (LEVEL_MID, LEVEL_HIGH),
    }
    if name in flat:
        samples = np.full(length, flat[name])
    else:
        start, end = ramps[name]
        q = length // 4
        samples = np.empty(length)
        samples[:q] = start
        samples[length - q:] = end
        mid = length - 2 * q
        samples[q:length - q] = np.linspace(start, end, mid + 2)[1:-1]
    return Archetype(name, samples)


def all_archetypes(length: int) -> tuple[Archetype, ...]:
    return tuple(generate_archetype(name, length) for name in ARCHETYPE_NAMES)


def perturb_samples(samples: np.ndarray, noise_amplitude: float, max_shift: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Circular time shift plus uniform value noise, clamped to [0, 1].

    Shift is drawn first, then the noise vector, so results are a pure
    function of the generator state.
    """
    if noise_amplitude < 0:
        raise ValueError(f"noise = {noise_amplitude} must be non-negative")
    if not 0 <= max_shift < samples.size / 4:
        raise ValueError(f"max_shift = {max_shift} must satisfy "
                         f"0 <= max_shift < {samples.size}/4, a quarter of the day")
    shift = int(rng.integers(-max_shift, max_shift + 1)) if max_shift > 0 else 0
    shifted = np.roll(samples, shift)
    if noise_amplitude > 0:
        shifted = shifted + rng.uniform(-noise_amplitude, noise_amplitude, samples.size)
    return np.clip(shifted, 0.0, 1.0)


def perturb(a: Archetype, noise_amplitude: float, max_shift: int,
            seed: int) -> ActivityTimeSeries:
    """Randomized variant of an archetype; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    samples = perturb_samples(a.samples, noise_amplitude, max_shift, rng)
    return ActivityTimeSeries(samples, day_id=None, hotspot_id=None)


def assessment_error(predicted: AffinityTriple, annotated: AffinityTriple) -> int:
    """Number of pairwise order constraints the two triples disagree on (0..3)."""
    p_rank = {c: i for i, c in enumerate(predicted.classes)}
    a_rank = {c: i for i, c in enumerate(annotated.classes)}
    errors = 0
    for i, x in enumerate(CLASS_LETTERS):
        for y in CLASS_LETTERS[i + 1:]:
            if (p_rank[x] < p_rank[y]) != (a_rank[x] < a_rank[y]):
                errors += 1
    return errors


# --- CSV round trip ---------------------------------------------------------
# One comment line with the metadata, an index,value header, then the rows.

def series_to_csv(a) -> str:
    day = a.day_id if a.day_id is not None else ""
    hotspot = a.hotspot_id if a.hotspot_id is not None else ""
    lines = [f"# day_id={day},hotspot_id={hotspot},resolution_minutes={a.resolution_minutes}",
             "index,value"]
    values = a.samples if isinstance(a, ActivityTimeSeries) else a.levels
    lines.extend(f"{i},{v:.12g}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"


def parse_series_csv(text: str) -> tuple[np.ndarray, dict]:
    """Values plus the metadata dict from the series CSV format."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("series CSV must start with a metadata comment line")
    meta: dict = {}
    for item in lines[0].lstrip("#").strip().split(","):
        key, _, value = item.partition("=")
        meta[key.strip()] = value.strip()
    meta["resolution_minutes"] = int(meta.get("resolution_minutes", DEFAULT_RESOLUTION_MINUTES))
    for key in ("day_id", "hotspot_id"):
        if not meta.get(key):
            meta[key] = None
    rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("index")]
    for fields in rows:
        if len(fields) < 2:
            raise ValueError(f"series row {','.join(fields)!r} has no value column")
    values = np.array([float(fields[1]) for fields in rows])
    return values, meta


def series_from_csv(text: str) -> ActivityTimeSeries:
    values, meta = parse_series_csv(text)
    return ActivityTimeSeries(values, meta["resolution_minutes"],
                              meta["day_id"], meta["hotspot_id"])
