"""Activity time series: normalization, archetypes, perturbation, CSV round trip,
and the one read and one write path of every artifact.

Series values are dimensionless activity samples in [0, 1] after min-max
normalization. Archetypes are the seven pure-form daily behaviors the
perceptron is specialized on; their canonical shapes are built from three
levels (low 0.1, mid 0.5, high 0.9) with quarter/half piecewise geometry.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from datetime import date
from pathlib import Path

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


# --- comment-headed CSV -----------------------------------------------------
# The bucket archive, the series files and report.csv share one framing: an
# optional "# key=value,..." metadata line, a column header line, then rows of
# the header's fields. Blank lines are skipped but keep their line numbers.

def iso_date(text: str) -> date | None:
    """The date of an ISO day id (``YYYY-MM-DD``), else None, also for text
    such as ``20150202`` that ``date.fromisoformat`` reads on newer Pythons."""
    try:
        day = date.fromisoformat(text)
    except ValueError:
        return None
    return day if day.isoformat() == text else None


def framed_csv(header: str, rows, meta: dict | None = None) -> str:
    """The text ``read_framed_csv`` reads: the ``meta`` line, if any, the
    ``header`` line and the ``rows``, each line ended by LF."""
    head = [] if meta is None else ["# " + ",".join(f"{k}={v}" for k, v in meta.items())]
    return "\n".join([*head, header, *rows]) + "\n"


def read_framed_csv(text: str, name: str, header: str, meta: dict | None = None,
                    usecols: tuple[int, ...] = (), dtype=float):
    """The metadata of a comment-headed CSV text, with exactly the keys of the
    ``meta`` schema (key -> cast), and its line number; the rows' line numbers
    and texts; and their ``usecols`` as one ``np.loadtxt`` table. Each is None
    when not asked for. An error names ``name`` and the line."""
    lines = text.split("\n")
    kept = [n for n, line in enumerate(lines, 1) if line.strip()]
    metadata = meta_line = table = None
    if meta is not None:
        if not kept or not lines[kept[0] - 1].startswith("#"):
            raise ValueError(f"{name} must start with a metadata comment line")
        meta_line = kept.pop(0)
        where = f"{name} line {meta_line}"
        items = [item.partition("=") for item in
                 lines[meta_line - 1].lstrip("#").strip().split(",")]
        metadata = {key.strip(): value for key, _, value in items}
        odd = sorted(metadata.keys() ^ meta.keys())
        if odd:
            problem = "unknown" if odd[0] in metadata else "missing"
            raise ValueError(f"{where}: {problem} metadata key {odd[0]!r}")
        if len(metadata) < len(items):
            keys = [key.strip() for key, _, _ in items]
            repeated = next(key for key in keys if keys.count(key) > 1)
            raise ValueError(f"{where}: repeated metadata key {repeated!r}")
        for key, value in metadata.items():
            try:
                metadata[key] = meta[key](value)
            except ValueError:
                noun = "an integer" if meta[key] is int else "a number"
                raise ValueError(f"{where}: metadata key {key!r} needs {noun}, "
                                 f"got {value!r}") from None
    if not kept or lines[kept[0] - 1].strip() != header:
        where = f"line {kept[0]}" if kept else "end of file"
        raise ValueError(f"{name} {where}: expected the header {header!r}")
    numbers = kept[1:]
    rows = [lines[n - 1] for n in numbers]
    width = header.count(",")

    def check_fields():
        bad = next((n for n, row in zip(numbers, rows) if row.count(",") != width), None)
        if bad is not None:
            raise ValueError(f"{name} line {bad}: expected the {width + 1} fields {header}")
    # A row short of the last column fails to parse, so when that column is
    # parsed, a row with too many fields shows in the total count of commas.
    if width not in usecols or "\n".join(rows).count(",") != width * len(rows):
        check_fields()

    def parse(part):
        return np.loadtxt(part, dtype=dtype, delimiter=",", comments=None,
                          usecols=usecols, ndmin=2)
    try:
        if usecols:
            table = parse(rows) if rows else np.empty((0, len(usecols)), dtype=dtype)
    except ValueError:
        check_fields()  # a short row, with a long one making up the commas
        # rows parse independently, so bisect for the first one that fails
        lo, hi = 0, len(rows)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        names = [header.split(",")[c] for c in usecols]
        kind = "integers within int64" if dtype is np.int64 else "numbers"
        raise ValueError(f"{name} line {numbers[lo]}: {', '.join(names[:-1])} and "
                         f"{names[-1]} must be {kind}") from None
    return metadata, meta_line, numbers, rows, table


# --- series CSV ---------------------------------------------------------------
# The metadata line, the index,value header, then one row per sample whose
# index counts from 0. A day id is an ISO date; an empty id reads as None.

SERIES_HEADER = "index,value"
SERIES_META = {"day_id": str, "hotspot_id": str, "resolution_minutes": int}


def series_to_csv(a: ActivityTimeSeries) -> str:
    return framed_csv(SERIES_HEADER, (f"{i},{v:.12g}" for i, v in enumerate(a.samples)),
                      {"day_id": a.day_id or "", "hotspot_id": a.hotspot_id or "",
                       "resolution_minutes": a.resolution_minutes})


def series_from_csv(text: str) -> ActivityTimeSeries:
    """An activity series read back; its values must lie in [0, 1]."""
    meta, meta_line, numbers, rows, table = read_framed_csv(
        text, "series", SERIES_HEADER, SERIES_META, (0, 1))
    if meta["day_id"] and iso_date(meta["day_id"]) is None:
        raise ValueError(f"series line {meta_line}: day_id {meta['day_id']!r} "
                         "is not an ISO date")
    index, values = table.T
    wrong = np.flatnonzero(index != np.arange(index.size))
    if wrong.size:
        raise ValueError(f"series line {numbers[wrong[0]]}: expected index "
                         f"{wrong[0]}, got {rows[wrong[0]]!r}")
    outside = np.flatnonzero(~((values >= 0) & (values <= 1)))
    if outside.size:
        raise ValueError(f"series line {numbers[outside[0]]}: expected a value "
                         f"in [0, 1], got {rows[outside[0]]!r}")
    return ActivityTimeSeries(values, meta["resolution_minutes"],
                              meta["day_id"] or None, meta["hotspot_id"] or None)


# --- artifact files -----------------------------------------------------------
# Every stage reads through read_artifact and writes through write_artifact.

def read_artifact(path, parse, stream: bool = False):
    """``parse`` of the strict UTF-8 text of the file at ``path`` or, to
    ``stream`` it, of the path itself. A path that is missing or not a regular
    file raises FileNotFoundError (exit 3); a decode error, ValueError,
    KeyError or configparser.Error from ``parse`` becomes one ValueError
    ``"<path>: <reason>"`` (exit 2), so no reader need name its file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{path} is not a regular file" if path.exists()
                                else str(path))
    try:
        return parse(path if stream else path.read_text(encoding="utf-8"))
    except (ValueError, KeyError, configparser.Error) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{path}: {reason}") from None


def _blocked(path: Path, is_file: bool, default: Path | None = None) -> ValueError | None:
    """The ValueError naming what blocks writing the file (or directory) ``path``:
    a directory at the file, or a regular file where a directory must go."""
    blocked = next((p for p in (path, *path.parents) if p.exists()
                    and p.is_dir() == (p == path and is_file)), default)
    if blocked is not None:
        kind = "a directory" if blocked.is_dir() else "not a directory"
        return ValueError(f"cannot write {path}: {blocked} is {kind}")


def write_artifact(path, text: str | None = None) -> None:
    """Write ``text`` as UTF-8 with LF line ends to the file at ``path`` or,
    with no ``text``, make the directory ``path``, making missing parents. A
    directory at the file, or a regular file where a directory must go,
    raises ValueError naming it (exit 2)."""
    path = Path(path)
    try:
        (path if text is None else path.parent).mkdir(parents=True, exist_ok=True)
        if text is not None:
            path.write_text(text, encoding="utf-8", newline="\n")
    except (FileExistsError, NotADirectoryError, IsADirectoryError):
        raise _blocked(path, text is not None, path) from None


def write_artifacts(files: dict) -> None:
    """Write a stage's ``{path: text}`` files through ``write_artifact``, or,
    if a target is blocked, raise its ValueError (exit 2) writing none."""
    for error in filter(None, (_blocked(Path(p), True) for p in files)):
        raise error
    for path, text in files.items():
        write_artifact(path, text)
