"""Distance baselines: dynamic time warping and the discrete Frechet distance.

Both distances convert to similarities via 1 / (1 + d / n), with n the longer
of the two lengths, so they can stand in for the pattern field in the
classification pipeline for side-by-side accuracy tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anomaly import ClassificationReport, SimilarityMatrix, classification_run
from .calibrate import DeConfig
from .perceptron import scale_levels

METHODS = ("dtw", "frechet")


def dtw(a, b) -> float:
    """Dynamic time warping distance, absolute-difference cost, no window."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("dtw needs non-empty inputs")
    n, m = a.size, b.size
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        cost = np.abs(a[i - 1] - b)
        for j in range(1, m + 1):
            cur[j] = cost[j - 1] + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(prev[m])


def frechet_discrete(a, b) -> float:
    """Discrete Frechet distance: the max-of-min coupling recursion."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("frechet needs non-empty inputs")
    n, m = a.size, b.size
    prev = np.full(m, np.inf)
    for i in range(n):
        cur = np.empty(m)
        cost = np.abs(a[i] - b)
        for j in range(m):
            if i == 0 and j == 0:
                reach = 0.0
            elif i == 0:
                reach = cur[j - 1]
            elif j == 0:
                reach = prev[j]
            else:
                reach = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = max(cost[j], reach)
        prev = cur
    return float(prev[m - 1])


def normalized_similarity(distance: float, length: int) -> float:
    return 1.0 / (1.0 + distance / length)


@dataclass(frozen=True)
class DistanceResult:
    value: float
    method: str
    normalized_similarity: float


def measure(a, b, method: str) -> DistanceResult:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    fn = dtw if method == "dtw" else frechet_discrete
    d = fn(a, b)
    n = max(np.asarray(a).size, np.asarray(b).size)
    return DistanceResult(d, method, normalized_similarity(d, n))


def _batch_distance(xa: np.ndarray, xb: np.ndarray, method: str) -> np.ndarray:
    """The same dynamic programs, run across a batch of equal-length pairs."""
    n, m = xa.shape[1], xb.shape[1]
    p = xa.shape[0]
    if method == "dtw":
        prev = np.full((p, m + 1), np.inf)
        prev[:, 0] = 0.0
        for i in range(1, n + 1):
            cur = np.full((p, m + 1), np.inf)
            cost = np.abs(xa[:, i - 1:i] - xb)
            for j in range(1, m + 1):
                cur[:, j] = cost[:, j - 1] + np.minimum(
                    np.minimum(prev[:, j], cur[:, j - 1]), prev[:, j - 1])
            prev = cur
        return prev[:, m]
    prev = np.full((p, m), np.inf)
    for i in range(n):
        cur = np.empty((p, m))
        cost = np.abs(xa[:, i:i + 1] - xb)
        for j in range(m):
            if i == 0 and j == 0:
                reach = np.zeros(p)
            elif i == 0:
                reach = cur[:, j - 1]
            elif j == 0:
                reach = prev[:, j]
            else:
                reach = np.minimum(np.minimum(prev[:, j], cur[:, j - 1]),
                                   prev[:, j - 1])
            cur[:, j] = np.maximum(cost[:, j], reach)
        prev = cur
    return prev[:, m - 1]


def baseline_matrix(patterns, method: str) -> SimilarityMatrix:
    """Normalized baseline similarity of every unordered level-series pair.

    Runs on the same 1/7-scaled streams the pattern field consumes.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    patterns = list(patterns)
    scaled = np.stack([scale_levels(s) for s in patterns])
    n = len(patterns)
    ii, jj = np.triu_indices(n)
    distances = _batch_distance(scaled[ii], scaled[jj], method)
    values = np.empty((n, n))
    values[ii, jj] = normalized_similarity(distances, scaled.shape[1])
    values[jj, ii] = values[ii, jj]
    ids = tuple(s.day_id if s.day_id is not None else str(k)
                for k, s in enumerate(patterns))
    return SimilarityMatrix(values, ids)


def baseline_classify(patterns, expected_classes, known_anomaly, method: str,
                      de_cfg: DeConfig, *, reps_k: int = 5,
                      cluster_seed: int = 0) -> ClassificationReport:
    """Rerun the classification pipeline with a baseline similarity measure."""
    return classification_run(
        patterns, expected_classes, known_anomaly,
        matrix_fn=lambda series: baseline_matrix(series, method),
        de_cfg=de_cfg, reps_k=reps_k, cluster_seed=cluster_seed)
