"""Distance baselines: dynamic time warping and the discrete Frechet distance.

Both distances convert to similarities via 1 / (1 + d / n), with n the longer
of the two lengths, so they can stand in for the pattern field in the
classification pipeline for side-by-side accuracy tables.
"""

from __future__ import annotations

import numpy as np

from .anomaly import SimilarityMatrix
from .perceptron import scale_levels

METHODS = ("dtw", "frechet")


def _one_pair(a, b, method: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError(f"{method} needs non-empty inputs")
    return float(_batch_distance(a[None, :], b[None, :], method)[0])


def dtw(a, b) -> float:
    """Dynamic time warping distance, absolute-difference cost, no window."""
    return _one_pair(a, b, "dtw")


def frechet_discrete(a, b) -> float:
    """Discrete Frechet distance: the max-of-min coupling recursion."""
    return _one_pair(a, b, "frechet")


def normalized_similarity(distance: float, length: int) -> float:
    return 1.0 / (1.0 + distance / length)


def _batch_distance(xa: np.ndarray, xb: np.ndarray, method: str) -> np.ndarray:
    """DTW or discrete Frechet distance of every row pair: row i of ``xa``
    (P, n) against row i of ``xb`` (P, m), one dynamic program for the batch.

    The table is padded with an infinite first row and column, 0 at the
    corner; a cell combines its cost with the cheapest of its three
    predecessors by a sum (DTW) or a max (Frechet).
    """
    combine = np.add if method == "dtw" else np.maximum
    n, m = xa.shape[1], xb.shape[1]
    p = xa.shape[0]
    prev = np.full((p, m + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(1, n + 1):
        cur = np.empty((p, m + 1))
        cur[:, 0] = np.inf
        cost = np.abs(xa[:, i - 1:i] - xb)
        for j in range(1, m + 1):
            cur[:, j] = combine(cost[:, j - 1], np.minimum(
                np.minimum(prev[:, j], cur[:, j - 1]), prev[:, j - 1]))
        prev = cur
    return prev[:, m]


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

