"""Anomaly degree computation over activity-level patterns.

A dedicated pattern-level receptive field scores the similarity of whole
activity-level days. All pairwise scores form a similarity matrix; fuzzy
c-means over the matrix rows groups the daily behaviors, the days nearest
each centroid become the class representatives, and a day's anomaly index is
the distance of its mean similarity to those representatives from 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import date

import numpy as np

from .calibrate import DeConfig, tune_thresholds
from .perceptron import scale_levels
from .series import CLASS_LETTERS, CLASS_NAMES, AffinityTriple, framed_csv
from .srf import SrfParams, indexed_similarity

DEFAULT_REPRESENTATIVES = 5
MATRIX_CHUNK_PAIRS = 8192
FCM_CLUSTERS = len(CLASS_LETTERS)  # fuzzy c-means' c: one cluster per class
FCM_RESTARTS = 8  # seeded fuzzy c-means starts; the lowest objective wins
FCM_FUZZINESS = 2.0  # membership exponent m of fuzzy c-means
FCM_TOL = 1e-6  # an alternation stops once no centroid coordinate moves more
FCM_MAX_ITER = 300  # or after this many alternations

# Expected behavioral class by weekday (Monday = 0): working routines hold
# through Thursday, nightlife marks Friday and Saturday, Sunday is leisure.
WEEKDAY_CLASS = ("W", "W", "W", "W", "E", "E", "L")


def expected_class_for(d: date) -> str:
    return WEEKDAY_CLASS[d.weekday()]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pattern-similarity matrix with the day ids it indexes."""

    values: np.ndarray
    day_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float, copy=True)
        n = len(self.day_ids)
        if values.shape != (n, n):
            raise ValueError("matrix shape must match the day-id count")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "day_ids", tuple(self.day_ids))

    def to_csv(self) -> str:
        return framed_csv(",".join(("day_id", *self.day_ids)), (
            ",".join((day, *(f"{v:.12g}" for v in row)))
            for day, row in zip(self.day_ids, self.values)))


def pair_matrix(patterns, pair_values) -> SimilarityMatrix:
    """Symmetric matrix of every unordered pair of level series.

    The series are rescaled onto [0, 1] and stacked into one (N, L) pool;
    ``pair_values(scaled, ii, jj)`` returns the value of each pair (ii[k],
    jj[k]) of the pool's upper triangle, diagonal included. Each entry is
    computed once and mirrored, so the matrix is exactly symmetric.
    """
    patterns = list(patterns)
    scaled = np.stack([scale_levels(p) for p in patterns])
    n = len(patterns)
    ii, jj = np.triu_indices(n)
    values = np.empty((n, n))
    values[ii, jj] = values[jj, ii] = pair_values(scaled, ii, jj)
    ids = tuple(p.day_id if p.day_id is not None else str(k)
                for k, p in enumerate(patterns))
    return SimilarityMatrix(values, ids)


def similarity_matrix(patterns, params: SrfParams) -> SimilarityMatrix:
    """Pattern-field similarity of every unordered pair of level series,
    MATRIX_CHUNK_PAIRS pairs per engine call; diagonal entries are the
    field's self-similarity."""
    def pair_values(scaled, ii, jj):
        return np.concatenate([
            indexed_similarity(scaled, ii[s:s + MATRIX_CHUNK_PAIRS],
                               jj[s:s + MATRIX_CHUNK_PAIRS], params)
            for s in range(0, ii.size, MATRIX_CHUNK_PAIRS)])
    return pair_matrix(patterns, pair_values)


def _fcm_memberships(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
    zero = d <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = d ** (-2.0 / (FCM_FUZZINESS - 1.0))
        u = inv / inv.sum(axis=1, keepdims=True)
    hit = zero.any(axis=1)
    if np.any(hit):  # points sitting on a centroid take hard membership
        u[hit] = zero[hit] / zero[hit].sum(axis=1, keepdims=True)
    return u


def fcm_objective(points: np.ndarray, centroids: np.ndarray,
                  memberships: np.ndarray) -> float:
    d2 = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2) ** 2
    return float((memberships ** FCM_FUZZINESS * d2).sum())


def _fcm_single(points: np.ndarray, centroids: np.ndarray,
                tol: float, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    memberships = _fcm_memberships(points, centroids)
    for _ in range(max_iter):
        weights = memberships ** FCM_FUZZINESS
        centroids_next = (weights.T @ points) / weights.sum(axis=0)[:, None]
        shift = np.abs(centroids_next - centroids).max()
        centroids = centroids_next
        memberships = _fcm_memberships(points, centroids)
        if shift < tol:
            break
    return centroids, memberships


def fuzzy_cmeans(points, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Alternating fuzzy c-means, initialized from FCM_CLUSTERS distinct points.

    The alternation only finds a local optimum and an unlucky draw can split
    one group while merging two others, so FCM_RESTARTS seeded restarts run
    and the fit with the lowest objective wins. Returns its ``(centroids,
    memberships)``: a (FCM_CLUSTERS, D) array and an (N, FCM_CLUSTERS) array
    whose rows sum to 1.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"fuzzy c-means needs a 2-D array, got {points.ndim}-D")
    if len(points) < FCM_CLUSTERS:
        raise ValueError(f"fuzzy c-means needs at least {FCM_CLUSTERS} days, got {len(points)}")
    rng = np.random.default_rng(seed)
    best = None
    best_objective = np.inf
    for _ in range(FCM_RESTARTS):
        centroids = points[rng.choice(points.shape[0], size=FCM_CLUSTERS, replace=False)]
        fit = _fcm_single(points, centroids.copy(), FCM_TOL, FCM_MAX_ITER)
        objective = fcm_objective(points, *fit)
        if objective < best_objective:
            best, best_objective = fit, objective
    return best


def representatives(centroids: np.ndarray, assigned: np.ndarray, points,
                    k: int = DEFAULT_REPRESENTATIVES) -> list[list[int]]:
    """Per-cluster row indices of the k members nearest the centroid.

    ``assigned`` holds each point's cluster (its maximum membership);
    ordering is ascending distance with ties broken by index. Clusters with
    fewer than k members return everything they have.
    """
    points = np.asarray(points, dtype=float)
    out: list[list] = []
    for cluster, centroid in enumerate(centroids):
        members = np.flatnonzero(assigned == cluster)
        distances = np.linalg.norm(points[members] - centroid, axis=1)
        out.append([ident for _, ident in sorted(zip(distances, members.tolist()))[:k]])
    return out


def map_clusters_to_classes(assigned: np.ndarray, class_idx: np.ndarray) -> tuple[int, ...]:
    """Bijection cluster -> behavioral class maximizing agreement with the
    weekday-expected class of each member day. ``assigned`` and ``class_idx``
    hold each day's cluster and class index; entry c is cluster c's class index."""
    counts = np.zeros((FCM_CLUSTERS, len(CLASS_LETTERS)))
    np.add.at(counts, (assigned, class_idx), 1)
    return max(itertools.permutations(range(len(CLASS_LETTERS))),
               key=lambda perm: sum(counts[c, perm[c]] for c in range(FCM_CLUSTERS)))


def index_from_similarities(sims) -> float:
    """Anomaly index: distance of the mean representative similarity from 1."""
    sims = np.asarray(sims, dtype=float)
    if sims.size == 0:
        raise ValueError("anomaly index needs at least one representative similarity")
    return float(np.abs(sims.mean() - 1.0))


@dataclass(frozen=True)
class AnomalyRecord:
    """Per-day verdict; anomalous exactly when the index exceeds the threshold."""

    day_id: str
    day_class: str
    anomaly_index: float
    threshold_used: float

    @property
    def verdict(self) -> str:
        return "anomalous" if self.anomaly_index > self.threshold_used else "typical"

    @property
    def class_name(self) -> str:
        return CLASS_NAMES[self.day_class]


def affinity_triple(similarities, reps_by_class: dict[str, list[int]]) -> AffinityTriple:
    """Classes ordered by the mean similarity of a day to each class's
    representatives; exact ties keep the W, E, L precedence.

    ``similarities`` is the day's row of the similarity matrix and
    ``reps_by_class`` holds each class's representative days as indices into
    it (``ClassificationReport.representatives_by_class``).
    """
    missing = [c for c in CLASS_LETTERS if not reps_by_class.get(c)]
    if missing:
        raise ValueError(f"representatives missing for class(es) {missing}")
    row = np.asarray(similarities, dtype=float)
    means = {letter: float(np.mean(row[reps_by_class[letter]]))
             for letter in CLASS_LETTERS}
    return AffinityTriple(tuple(sorted(CLASS_LETTERS, key=lambda c: -means[c])))


@dataclass(frozen=True)
class ClassificationReport:
    """Everything one classification run produces."""

    records: tuple[AnomalyRecord, ...]
    accuracy: float
    correlation: float
    thresholds: dict[str, float]
    matrix: SimilarityMatrix
    representatives_by_class: dict[str, list[int]]

    @property
    def indices(self) -> np.ndarray:
        return np.array([r.anomaly_index for r in self.records])


def point_biserial(values, flags) -> float:
    values = np.asarray(values, dtype=float)
    flags = np.asarray(flags, dtype=float)
    if values.std() == 0 or flags.std() == 0:
        return 0.0
    return float(np.corrcoef(values, flags)[0, 1])


def classification_run(patterns, expected_classes, known_anomaly, matrix_fn,
                       de_cfg: DeConfig, *, reps_k: int = DEFAULT_REPRESENTATIVES,
                       cluster_seed: int = 0) -> ClassificationReport:
    """Full pattern pipeline: matrix -> clustering -> representatives ->
    anomaly indices -> threshold search -> per-day records.

    ``matrix_fn`` builds the similarity matrix, which lets baseline distance
    measures drop in for the pattern field without touching the rest.
    """
    patterns = list(patterns)
    expected_classes = list(expected_classes)
    class_idx = np.array([CLASS_LETTERS.index(c) for c in expected_classes], dtype=int)
    flags = np.array([bool(f) for f in known_anomaly])
    matrix = matrix_fn(patterns)

    centroids, memberships = fuzzy_cmeans(matrix.values, seed=cluster_seed)
    assigned = memberships.argmax(axis=1)
    cluster_class = map_clusters_to_classes(assigned, class_idx)
    reps_per_cluster = representatives(centroids, assigned, matrix.values, k=reps_k)
    reps = [reps_per_cluster[cluster_class.index(k)] for k in range(len(CLASS_LETTERS))]
    empty = [CLASS_NAMES[c] for k, c in enumerate(CLASS_LETTERS)
             if not reps[k] and k in class_idx]
    if empty:
        raise ValueError(f"class {empty[0]} has days, but its cluster has no member")

    indices = np.array([index_from_similarities(matrix.values[i, reps[k]])
                        for i, k in enumerate(class_idx)])

    thresholds, accuracy = tune_thresholds(class_idx, indices, flags, de_cfg)
    records = tuple(
        AnomalyRecord(day_id, cls, float(index), thresholds[cls])
        for day_id, cls, index in zip(matrix.day_ids, expected_classes, indices))
    return ClassificationReport(
        records=records,
        accuracy=accuracy,
        correlation=point_biserial(indices, flags),
        thresholds=thresholds,
        matrix=matrix,
        representatives_by_class=dict(zip(CLASS_LETTERS, reps)),
    )
