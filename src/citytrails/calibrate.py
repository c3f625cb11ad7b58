"""Calibration: differential evolution, MSE fitness, two-phase field training.

All parameter search goes through one DE/rand/1/bin minimizer. Receptive
fields are trained in two phases: a global sweep narrows the evaporation
interval (the most sensitive parameter), then a local per-field DE run finds
the full parameter vector against labeled training couples
(``train_perceptron``). The pattern field then trains on typical days of each
class (``pattern_training_sets``). The same minimizer also tunes the
per-class anomaly-index thresholds.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .series import CLASS_LETTERS
from .perceptron import StigmergicPerceptron, scale_levels
from .srf import PARAM_KEYS, SrfParams, indexed_similarity

COARSE_INTERVALS = {
    "alpha_c1": (1.0, 100.0),
    "beta_c1": (0.0, 1.0),
    "alpha_c2": (1.0, 100.0),
    "beta_c2": (0.0, 1.0),
    "epsilon": (0.01, 0.5),
    "delta": (1e-4, 1.0),
    "alpha_a": (1.0, 100.0),
    "beta_a": (0.0, 1.0),
}

# Domain constraints for the non-evaporation parameters, handed to the local
# phase: the clumping inflection points must bracket the Low/Medium/High
# boundaries (1/3 and 2/3), otherwise a field is free to collapse two levels
# it was never trained to separate; the mark width stays below the plateau
# spacing for the same reason.
DOMAIN_INTERVALS = {
    "beta_c1": (0.22, 0.45),
    "beta_c2": (0.55, 0.78),
    "epsilon": (0.01, 0.3),
}

DELTA_GRID_POINTS = 30
BEST_QUALITY_QUANTILE = 0.9

# DE/rand/1/bin's differential weight F and crossover rate CR, the same for
# every search; a DeConfig sets only the population and generation budget.
DIFFERENTIAL_WEIGHT = 0.7
CROSSOVER_RATE = 0.9


@dataclass(frozen=True)
class DeConfig:
    """Differential evolution budget and seed (rand/1/bin)."""

    population_size: int = 30
    generations: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.generations < 0:
            raise ValueError(f"generations must be non-negative, got {self.generations}")


@dataclass(frozen=True)
class ParamBounds:
    """(low, high) interval per receptive-field parameter."""

    intervals: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(COARSE_INTERVALS))

    def __post_init__(self) -> None:
        missing = set(PARAM_KEYS) - set(self.intervals)
        if missing:
            raise ValueError(f"missing intervals for {sorted(missing)}")
        for key, (lo, hi) in self.intervals.items():
            if not lo < hi:
                raise ValueError(f"interval for {key} must satisfy low < high, "
                                 f"got ({lo}, {hi})")

    @classmethod
    def coarse(cls) -> "ParamBounds":
        return cls()

    def as_pairs(self) -> list[tuple[float, float]]:
        return [self.intervals[k] for k in PARAM_KEYS]

    def mid_params(self) -> SrfParams:
        return SrfParams(**{k: 0.5 * (lo + hi)
                            for k, (lo, hi) in self.intervals.items()})

    def with_interval(self, key: str, low: float, high: float) -> "ParamBounds":
        updated = dict(self.intervals)
        updated[key] = (float(low), float(high))
        return ParamBounds(updated)


@dataclass(frozen=True)
class TrainingCouples:
    """Labeled couples over one pool of distinct streams: couple k matches
    ``streams[ia[k]]`` against ``streams[ib[k]]``, target similarity
    ``targets[k]`` (1 for matching behavior, else 0)."""

    streams: np.ndarray
    ia: np.ndarray
    ib: np.ndarray
    targets: np.ndarray


def population_fitness(param_matrix: np.ndarray, couples: TrainingCouples) -> np.ndarray:
    """Fitness of every candidate parameter vector, one engine pass: the mean
    squared error between the field's similarities and the couple targets.

    A stream of the pool that recurs across couples (a field's reference
    archetype, a pattern day in every couple it belongs to) is one trail.
    """
    if couples.targets.size == 0:
        raise ValueError("fitness needs at least one training couple")
    param_matrix = np.atleast_2d(np.asarray(param_matrix, dtype=float))
    sims = indexed_similarity(couples.streams, couples.ia, couples.ib, param_matrix)
    return np.mean((sims - couples.targets) ** 2, axis=1)


@dataclass(frozen=True)
class DeResult:
    best: np.ndarray
    fitness: float
    history: tuple[float, ...]  # best-so-far, entry 0 is the initial population


def de_minimize(objective, bounds, cfg: DeConfig) -> DeResult:
    """DE/rand/1/bin over a box: mutate a + F(b - c), binomial crossover with one
    forced coordinate, clamp to bounds, greedy selection.

    The objective scores a whole population at once: it receives a
    (population, dim) matrix and returns a (population,) vector.

    Each individual draws its three partners, its crossover uniforms and its
    forced coordinate in turn from one generator; mutation, crossover and
    clamping then run once over the whole population. They are elementwise,
    so every trial is the same double as one built individual by individual.
    """
    box = np.asarray([tuple(b) for b in bounds], dtype=float)
    if box.ndim != 2 or box.shape[1] != 2 or not np.all(box[:, 0] < box[:, 1]):
        raise ValueError("bounds must be (low, high) pairs with low < high")
    lo, hi = box[:, 0], box[:, 1]
    dim = box.shape[0]
    size = cfg.population_size
    rng = np.random.default_rng(cfg.seed)

    population = rng.uniform(lo, hi, size=(size, dim))
    energies = np.asarray(objective(population), dtype=float)
    history = [float(energies.min())]

    rows = np.arange(size)
    picks = np.empty((size, 3), dtype=np.int64)
    uniforms = np.empty((size, dim))
    forced = np.empty(size, dtype=np.int64)
    for _ in range(cfg.generations):
        for i in range(size):
            picks[i] = rng.choice(size - 1, size=3, replace=False)
            uniforms[i] = rng.random(dim)
            forced[i] = rng.integers(dim)
        # Partners are drawn from the size - 1 others: skip past the individual.
        a, b, c = population[(picks + (picks >= rows[:, None])).T]
        mutant = a + DIFFERENTIAL_WEIGHT * (b - c)
        cross = uniforms < CROSSOVER_RATE
        cross[rows, forced] = True
        trials = np.clip(np.where(cross, mutant, population), lo, hi)
        trial_energies = np.asarray(objective(trials), dtype=float)
        improved = trial_energies <= energies
        population[improved] = trials[improved]
        energies[improved] = trial_energies[improved]
        history.append(float(energies.min()))

    best = int(np.argmin(energies))
    return DeResult(population[best].copy(), float(energies[best]), tuple(history))


def training_pairs_for_field(enumeration: int, sets_by_enum: dict[int, list],
                             reference: np.ndarray) -> TrainingCouples:
    """Labeled couples for one field: own-class signals target 1, signals from
    the enumeration neighbors target 0, balanced half and half. Stream 0 of
    the pool is the reference; couple k matches stream k + 1 against it."""
    own = sets_by_enum[enumeration]
    neighbors = [e for e in (enumeration - 1, enumeration + 1) if e in sets_by_enum]
    budget = len(own)
    share = budget // len(neighbors)
    negatives: list = []
    for n in neighbors:
        negatives.extend(sets_by_enum[n][:share])
    for extra in sets_by_enum[neighbors[0]][share:]:
        if len(negatives) >= budget:
            break
        negatives.append(extra)
    signals = own + negatives
    streams = np.stack([reference] + [s.samples for s in signals])
    targets = np.repeat([1.0, 0.0], [len(own), len(negatives)])
    return TrainingCouples(streams, np.arange(1, len(signals) + 1),
                           np.zeros(len(signals), dtype=int), targets)


def narrowest_quality_interval(values: np.ndarray,
                               quality: np.ndarray) -> tuple[float, float]:
    """Narrowest interval of ``values`` covering the quality points at or above
    the 90th percentile: the best decile."""
    cutoff = np.quantile(quality, BEST_QUALITY_QUANTILE)
    chosen = np.asarray(values)[quality >= cutoff]
    return float(chosen.min()), float(chosen.max())


def global_training(archetypes, synthetic_sets: dict[str, list],
                    coarse_bounds: ParamBounds,
                    cfg: DeConfig | None = None) -> ParamBounds:
    """Sweep evaporation over a log grid for every field (other parameters at
    mid-bounds), pool the per-point quality, and narrow the evaporation
    interval to the best decile. ``beta_c1``, ``beta_c2`` and ``epsilon`` take
    their ``DOMAIN_INTERVALS``; the other intervals pass through unchanged.

    The sweep runs no DE, so ``cfg`` is unread; it stays for existing callers.
    """
    lo, hi = coarse_bounds.intervals["delta"]
    deltas = np.geomspace(lo, hi, DELTA_GRID_POINTS)
    mid = coarse_bounds.mid_params().to_vector()
    delta_col = PARAM_KEYS.index("delta")

    per_field = []
    for archetype in archetypes:
        couples = training_pairs_for_field(
            archetype.enumeration,
            {a.enumeration: synthetic_sets[a.name] for a in archetypes},
            archetype.samples)
        pmat = np.tile(mid, (DELTA_GRID_POINTS, 1))
        pmat[:, delta_col] = deltas
        per_field.append(population_fitness(pmat, couples))
    # One fitness per grid point: the mean across fields, so a delta is only
    # good when every field can work with it (mirror-shaped archetypes are
    # what rules out the no-evaporation end).
    quality = -np.mean(per_field, axis=0)

    out = coarse_bounds
    for key, (lo_k, hi_k) in DOMAIN_INTERVALS.items():
        out = out.with_interval(key, lo_k, hi_k)
    if np.ptp(quality) < 1e-12:
        warnings.warn("evaporation sweep is flat; keeping the full coarse interval")
        return out
    d_lo, d_hi = narrowest_quality_interval(deltas, quality)
    if d_lo == d_hi:  # single grid point survived; widen to its neighbors
        idx = int(np.argmin(np.abs(deltas - d_lo)))
        d_lo = deltas[max(idx - 1, 0)]
        d_hi = deltas[min(idx + 1, DELTA_GRID_POINTS - 1)]
    return out.with_interval("delta", d_lo, d_hi)


def local_training(sp, bounds: ParamBounds, cfg: DeConfig,
                   synthetic_sets: dict[str, list]):
    """Tune every field by DE against its own/adjacent training couples.

    Field runs are independent; each gets its own seed derived from the base
    seed and the field enumeration, so training order cannot matter. Returns
    the trained perceptron and the per-field best-so-far histories.
    """
    sets_by_enum = {a.enumeration: synthetic_sets[a.name] for a, _ in sp.fields}
    histories: dict[str, tuple[float, ...]] = {}
    trained = sp
    for archetype, _ in sp.fields:
        couples = training_pairs_for_field(archetype.enumeration, sets_by_enum,
                                           archetype.samples)
        field_cfg = dataclasses.replace(cfg, seed=cfg.seed + archetype.enumeration)
        result = de_minimize(lambda m: population_fitness(m, couples),
                             bounds.as_pairs(), field_cfg)
        trained = trained.with_params(archetype.name, SrfParams.from_vector(result.best))
        histories[archetype.name] = result.history
    return trained, histories


def train_perceptron(synthetic_sets: dict[str, list], length: int, cfg: DeConfig):
    """The paper's perceptron recipe: the global evaporation sweep narrows the
    coarse bounds, then one local DE runs per field. Returns the trained
    perceptron, the narrowed bounds and the per-field histories."""
    sp = StigmergicPerceptron.untrained(length)
    bounds = global_training([a for a, _ in sp.fields], synthetic_sets,
                             ParamBounds.coarse())
    sp, histories = local_training(sp, bounds, cfg, synthetic_sets)
    return sp, bounds, histories


def pattern_training_sets(levels, classes, flags, per_class: int) -> dict[str, list]:
    """The pattern field's training days: for each class letter, the first
    ``per_class`` days in day order that are not flagged anomalous."""
    if per_class < 1:
        raise ValueError(f"pattern_per_class = {per_class} must be at least 1")
    by_class: dict[str, list] = {c: [] for c in CLASS_LETTERS}
    for level_series, cls, flag in zip(levels, classes, flags):
        if not flag and len(by_class[cls]) < per_class:
            by_class[cls].append(level_series)
    return by_class


def pattern_training_pairs(level_sets_by_class: dict[str, list]) -> TrainingCouples:
    """Couples over the pooled pattern set: same class targets 1, else 0.

    Level series are rescaled onto [0, 1] so the clumping axis matches.
    Unordered couples i <= j, self-matches included, in the pair order of
    ``anomaly.similarity_matrix``; similarity is symmetric, so the ordered
    duplicates would only repeat work.
    """
    letters = np.array([letter for letter in CLASS_LETTERS
                        for _ in level_sets_by_class[letter]])
    streams = np.stack([scale_levels(s) for letter in CLASS_LETTERS
                        for s in level_sets_by_class[letter]])
    ia, ib = np.triu_indices(len(letters))
    return TrainingCouples(streams, ia, ib, (letters[ia] == letters[ib]).astype(float))


def train_pattern_field(level_sets_by_class: dict[str, list], bounds: ParamBounds,
                        cfg: DeConfig):
    """Train the pattern-level field that compares whole activity-level days."""
    couples = pattern_training_pairs(level_sets_by_class)
    result = de_minimize(lambda m: population_fitness(m, couples),
                         bounds.as_pairs(), cfg)
    return SrfParams.from_vector(result.best), result.history


@dataclass(frozen=True)
class ThresholdResult:
    thresholds: dict[str, float]
    accuracy: float


def tune_thresholds(entries, cfg: DeConfig) -> ThresholdResult:
    """Per-class anomaly-index thresholds maximizing correct classification.

    ``entries`` holds (class_letter, anomaly_index, is_anomaly) per day; a day
    is called anomalous iff its index exceeds its class threshold.
    """
    entries = list(entries)
    class_idx = np.array([CLASS_LETTERS.index(c) for c, _, _ in entries])
    present = set(class_idx.tolist())
    missing = [CLASS_LETTERS[i] for i in range(len(CLASS_LETTERS)) if i not in present]
    if missing:
        raise ValueError(f"no example days for class(es) {missing}")
    indices = np.array([v for _, v, _ in entries], dtype=float)
    flags = np.array([bool(f) for _, _, f in entries])
    # Search the unit box scaled onto the observed index range; accuracy is
    # piecewise constant, and a gap much narrower than the box is otherwise
    # easy for the search to miss.
    scale = max(float(indices.max()), 1e-12)

    def objective(matrix: np.ndarray) -> np.ndarray:
        predicted = indices[None, :] > scale * matrix[:, class_idx]
        return 1.0 - (predicted == flags).mean(axis=1)

    result = de_minimize(objective, [(0.0, 1.0)] * len(CLASS_LETTERS), cfg)
    thresholds = {letter: float(scale * v)
                  for letter, v in zip(CLASS_LETTERS, result.best)}
    return ThresholdResult(thresholds, 1.0 - result.fitness)
