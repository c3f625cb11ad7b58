"""Synthetic data: perturbed archetype pools, labeled years, planted clusters.

Everything here is deterministic for a given seed, so pipeline runs and test
fixtures reproduce bit for bit. The year generator mirrors the weekday
structure of the real analysis (working, entertainment, leisure regimes) and
injects two anomaly kinds: evening-level suppression (a storm shutting the
city down) and a multi-hour temporal shift of the whole pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .anomaly import expected_class_for
from .hotspot import SpatialEventBatch, TimeSlot
from .ingest import GeoBox
from .series import (
    ARCHETYPE_NAMES,
    DEFAULT_DAY_LENGTH,
    ActivityTimeSeries,
    CLASS_LETTERS,
    generate_archetype,
    perturb_samples,
)

TRAINING_PER_CLASS = 10  # the perceptron's pool: variants per archetype,
TRAINING_NOISE = 0.05    # their uniform noise amplitude
TRAINING_MAX_SHIFT = 4   # and their largest circular shift in samples
DEFAULT_YEAR_START = date(2015, 1, 5)  # a Monday; 364 days = 52 exact weeks
# A year's days perturb their class profile by this uniform noise amplitude
# and a circular shift of up to this many samples.
YEAR_NOISE = 0.04
YEAR_MAX_SHIFT = 1
TRIPS_START = date(2015, 2, 2)  # a Monday, the first day of a trip fixture

# Planted spatial clusters: events per cluster and step, their spread in
# meters, background events per step, and the two events' passenger counts.
EVENTS_PER_CLUSTER = 6
CLUSTER_SIGMA_M = 120.0
SCATTER_EVENTS = 8
CLUSTER_COUNT_VALUE = 9.0
SCATTER_COUNT_VALUE = 1.0

SUPPRESSION_FACTOR = 0.2
SUPPRESSION_FROM_HOUR = 10
SHIFT_HOURS = 3.0

# Canonical daily curves per behavioral class, as (hour, level) keypoints.
_CLASS_KEYPOINTS = {
    "W": [(0, 0.05), (5, 0.05), (7, 0.85), (9.5, 0.85), (11, 0.45),
          (15.5, 0.45), (17, 0.9), (19, 0.9), (21, 0.3), (24, 0.05)],
    "E": [(0, 0.8), (2.5, 0.5), (4, 0.08), (10, 0.08), (13, 0.25),
          (17, 0.45), (19.5, 0.75), (22, 0.95), (24, 0.85)],
    "L": [(0, 0.15), (3, 0.05), (8.5, 0.05), (11, 0.5), (16, 0.55),
          (20, 0.2), (24, 0.1)],
}


def archetype_training_sets(length: int = DEFAULT_DAY_LENGTH,
                            per_class: int = TRAINING_PER_CLASS,
                            noise: float = TRAINING_NOISE,
                            max_shift: int = TRAINING_MAX_SHIFT,
                            seed: int = 0) -> dict[str, list[ActivityTimeSeries]]:
    """Perturbed variants of every archetype: the perceptron training pool."""
    rng = np.random.default_rng(seed)
    sets: dict[str, list[ActivityTimeSeries]] = {}
    for name in ARCHETYPE_NAMES:
        base = generate_archetype(name, length).samples
        sets[name] = [
            ActivityTimeSeries(perturb_samples(base, noise, max_shift, rng))
            for _ in range(per_class)]
    return sets


def class_profile(letter: str, length: int = DEFAULT_DAY_LENGTH) -> np.ndarray:
    """Canonical activity curve of one behavioral class over a day."""
    if letter not in _CLASS_KEYPOINTS:
        raise ValueError(f"unknown class letter {letter!r}")
    keypoints = np.asarray(_CLASS_KEYPOINTS[letter], dtype=float)
    hours = (np.arange(length) + 0.5) * 24.0 / length
    return np.interp(hours, keypoints[:, 0], keypoints[:, 1])


def _suppress(samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    length = samples.size
    start = int(SUPPRESSION_FROM_HOUR / 24.0 * length)
    out = samples.copy()
    out[start:] *= SUPPRESSION_FACTOR * rng.uniform(0.7, 1.0)
    return np.clip(out, 0.0, 1.0)


def _shift(samples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    length = samples.size
    magnitude = int(round(SHIFT_HOURS / 24.0 * length))
    sign = 1 if rng.random() < 0.5 else -1
    return np.roll(samples, sign * (magnitude + int(rng.integers(0, 4))))


@dataclass(frozen=True)
class SyntheticYear:
    """A labeled year of daily activity series for one hotspot."""

    days: tuple[ActivityTimeSeries, ...]
    classes: tuple[str, ...]          # weekday-expected class letters
    anomaly_flags: tuple[bool, ...]   # injected-anomaly indicator
    kinds: tuple[str, ...]            # "", "suppression" or "shift"

    def labels_csv(self) -> str:
        lines = ["day_id,class,is_anomaly,kind"]
        for day, cls, flag, kind in zip(self.days, self.classes,
                                        self.anomaly_flags, self.kinds):
            lines.append(f"{day.day_id},{cls},{int(flag)},{kind}")
        return "\n".join(lines) + "\n"


def _anomaly_quota(total: int, class_days: dict[str, list[int]]) -> dict[str, int]:
    if total <= 0:
        return {letter: 0 for letter in CLASS_LETTERS}
    n_days = sum(len(v) for v in class_days.values())
    floor = 3 if total >= 9 else 0  # threshold search wants positives per class
    quota = {}
    for letter in ("E", "L"):
        share = round(total * len(class_days[letter]) / n_days)
        quota[letter] = min(len(class_days[letter]), max(floor, share))
    quota["W"] = min(len(class_days["W"]), max(0, total - quota["E"] - quota["L"]))
    return quota


def synthetic_year(n_days: int = 364, anomaly_count: int = 20,
                   length: int = DEFAULT_DAY_LENGTH, seed: int = 0,
                   hotspot_id: str = "D") -> SyntheticYear:
    """Weekday-structured days from DEFAULT_YEAR_START with a seeded set of
    injected anomalies, exactly ``anomaly_count`` of them; a count that does
    not fit the days is rejected.

    For counts of 9 or more, every class receives at least three anomalies,
    or all its days when it has fewer (the threshold search needs positives
    in each class); kinds alternate between suppression and shift.
    """
    if n_days < 1:
        raise ValueError(f"n_days = {n_days} must be at least 1")
    if anomaly_count < 0:
        raise ValueError(f"anomaly_count = {anomaly_count} must be non-negative")
    rng = np.random.default_rng(seed)
    profiles = {letter: class_profile(letter, length) for letter in CLASS_LETTERS}
    dates = [DEFAULT_YEAR_START + timedelta(days=i) for i in range(n_days)]
    classes = [expected_class_for(d) for d in dates]

    class_days = {letter: [i for i, c in enumerate(classes) if c == letter]
                  for letter in CLASS_LETTERS}
    quota = _anomaly_quota(anomaly_count, class_days)
    placed = sum(quota.values())
    if placed < anomaly_count:
        raise ValueError(f"anomaly_count = {anomaly_count} does not fit {n_days} "
                         f"days; at most {placed} anomalies fit")
    anomalous: dict[int, str] = {}
    for letter in CLASS_LETTERS:
        picks = rng.choice(class_days[letter], size=quota[letter], replace=False)
        for j, day_index in enumerate(sorted(int(p) for p in picks)):
            anomalous[day_index] = "suppression" if j % 2 == 0 else "shift"

    days, flags, kinds = [], [], []
    for i, (d, cls) in enumerate(zip(dates, classes)):
        samples = perturb_samples(profiles[cls], YEAR_NOISE, YEAR_MAX_SHIFT, rng)
        kind = anomalous.get(i, "")
        if kind == "suppression":
            samples = _suppress(samples, rng)
        elif kind == "shift":
            samples = _shift(samples, rng)
        days.append(ActivityTimeSeries(samples, day_id=d.isoformat(),
                                       hotspot_id=hotspot_id))
        flags.append(bool(kind))
        kinds.append(kind)
    return SyntheticYear(tuple(days), tuple(classes), tuple(flags), tuple(kinds))


def parse_labels_csv(text: str):
    """(day_id, class, is_anomaly, kind) rows from a labels CSV."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    rows = []
    for line in lines[1:]:
        day_id, cls, flag, kind = (line.split(",") + [""])[:4]
        rows.append((day_id, cls, flag == "1", kind))
    return rows


# --- planted spatial clusters ------------------------------------------------

def _cluster_centers(n_clusters: int, width: float, height: float,
                     rng: np.random.Generator) -> np.ndarray:
    cols = int(np.ceil(np.sqrt(n_clusters)))
    rows = int(np.ceil(n_clusters / cols))
    xs = np.linspace(width * 0.15, width * 0.85, cols)
    ys = np.linspace(height * 0.15, height * 0.85, rows)
    grid = [(x, y) for y in ys for x in xs][:n_clusters]
    jitter = rng.uniform(-0.02, 0.02, size=(n_clusters, 2))
    return np.asarray(grid) + jitter * np.array([width, height])


def planted_cluster_batches(n_clusters: int = 7, width: float = 6000.0,
                            height: float = 6000.0, steps_per_slot: int = 60,
                            seed: int = 0):
    """Dense clusters active in every slot plus sparse background scatter.

    Returns (slot -> list of event batches, planted center coordinates).
    """
    rng = np.random.default_rng(seed)
    centers = _cluster_centers(n_clusters, width, height, rng)
    batches: dict[TimeSlot, list[SpatialEventBatch]] = {}
    for slot in TimeSlot:
        slot_batches = []
        for _ in range(steps_per_slot):
            points = []
            for cx, cy in centers:
                offsets = rng.normal(0.0, CLUSTER_SIGMA_M, size=(EVENTS_PER_CLUSTER, 2))
                for dx, dy in offsets:
                    points.append((float(np.clip(cx + dx, 0, width)),
                                   float(np.clip(cy + dy, 0, height)),
                                   CLUSTER_COUNT_VALUE))
            for _ in range(SCATTER_EVENTS):
                points.append((float(rng.uniform(0, width)),
                               float(rng.uniform(0, height)),
                               SCATTER_COUNT_VALUE))
            slot_batches.append(SpatialEventBatch(np.asarray(points)))
        batches[slot] = slot_batches
    return batches, centers


# --- trip CSV fixture ---------------------------------------------------------

TRIPS_HEADER = ("medallion,passenger_count,pickup_datetime,dropoff_datetime,"
                "pickup_longitude,pickup_latitude,dropoff_longitude,dropoff_latitude")


def planted_trips_csv(box: GeoBox, n_valid: int = 9500, n_invalid: int = 500,
                      n_clusters: int = 4, days: int = 2, seed: int = 0) -> str:
    """A TLC-style trip CSV with seeded valid rows around planted clusters and
    a deterministic mix of rejectable rows."""
    for name, count in (("n_valid", n_valid), ("n_invalid", n_invalid)):
        if count < 0:
            raise ValueError(f"{name} = {count} must be non-negative")
    rng = np.random.default_rng(seed)
    lon_span = box.lon_max - box.lon_min
    lat_span = box.lat_max - box.lat_min
    centers = np.column_stack([
        box.lon_min + lon_span * rng.uniform(0.2, 0.8, n_clusters),
        box.lat_min + lat_span * rng.uniform(0.2, 0.8, n_clusters)])
    sigma = 0.03 * min(lon_span, lat_span)

    def cluster_point():
        cx, cy = centers[rng.integers(n_clusters)]
        lon = float(np.clip(rng.normal(cx, sigma), box.lon_min, box.lon_max))
        lat = float(np.clip(rng.normal(cy, sigma), box.lat_min, box.lat_max))
        return lon, lat

    def timestamp():
        d = TRIPS_START + timedelta(days=int(rng.integers(days)))
        minute = int(rng.integers(1440))
        return f"{d.isoformat()} {minute // 60:02d}:{minute % 60:02d}:00"

    rows = []
    for i in range(n_valid):
        plon, plat = cluster_point()
        dlon, dlat = cluster_point()
        pickup = timestamp()
        rows.append(f"T{i % 97:04d},{int(rng.integers(1, 5))},{pickup},{pickup},"
                    f"{plon:.6f},{plat:.6f},{dlon:.6f},{dlat:.6f}")
    breakers = ("missing", "bad_time", "out_of_box", "order")
    for i in range(n_invalid):
        plon, plat = cluster_point()
        dlon, dlat = cluster_point()
        kind = breakers[i % len(breakers)]
        ts = timestamp()
        if kind == "missing":
            rows.append(f"T{i:04d},2,{ts},{ts},,{plat:.6f},{dlon:.6f},{dlat:.6f}")
        elif kind == "bad_time":
            rows.append(f"T{i:04d},2,not-a-time,{ts},"
                        f"{plon:.6f},{plat:.6f},{dlon:.6f},{dlat:.6f}")
        elif kind == "out_of_box":
            rows.append(f"T{i:04d},2,{ts},{ts},"
                        f"{box.lon_max + lon_span:.6f},{plat:.6f},{dlon:.6f},{dlat:.6f}")
        else:
            d2 = TRIPS_START - timedelta(days=1)
            rows.append(f"T{i:04d},2,{ts},{d2.isoformat()} 00:00:00,"
                        f"{plon:.6f},{plat:.6f},{dlon:.6f},{dlat:.6f}")
    order = rng.permutation(len(rows))
    body = "\n".join(rows[int(k)] for k in order)
    return TRIPS_HEADER + "\n" + body + "\n"
