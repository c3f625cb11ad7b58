"""Distance baselines: dynamic time warping and the discrete Frechet distance.

Both distances run through one dynamic program, swept an anti-diagonal at a
time over blocks of pairs; they differ only in how a cell combines its cost
with its cheapest predecessor (a sum or a max). Both convert to similarities
via 1 / (1 + d / n), with n the longer of the two lengths, so they can stand
in for the pattern field in the classification pipeline for side-by-side
accuracy tables.
"""

from __future__ import annotations

import numpy as np

from .anomaly import SimilarityMatrix, pair_matrix

METHODS = ("dtw", "frechet")
# Pairs per anti-diagonal sweep: small enough that a block's diagonal
# buffers stay in cache, large enough to amortise the per-diagonal calls.
DP_CHUNK_PAIRS = 256


def _one_pair(a, b, method: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"{method} needs 1-D inputs, got shapes {a.shape} and {b.shape}")
    if a.size == 0 or b.size == 0:
        raise ValueError(f"{method} needs non-empty inputs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError(f"{method} needs finite inputs")
    return float(_batch_distance(a[None, :], b[None, :], [0], [0], method)[0])


def dtw(a, b) -> float:
    """Dynamic time warping distance, absolute-difference cost, no window."""
    return _one_pair(a, b, "dtw")


def frechet_discrete(a, b) -> float:
    """Discrete Frechet distance: the max-of-min coupling recursion."""
    return _one_pair(a, b, "frechet")


def normalized_similarity(distance: float, length: int) -> float:
    return 1.0 / (1.0 + distance / length)


def _batch_distance(xa: np.ndarray, xb: np.ndarray, ia, ib, method: str) -> np.ndarray:
    """DTW or discrete Frechet distance of every index pair: row ``ia[p]`` of
    ``xa`` (·, n) against row ``ib[p]`` of ``xb`` (·, m), one dynamic program
    for the batch, swept over blocks of DP_CHUNK_PAIRS pairs.

    The table D is padded with an infinite first row and column, 0 at the
    corner; a cell combines its cost with the cheapest of its three
    predecessors by a sum (DTW) or a max (Frechet). Cells on the
    anti-diagonal k = i + j depend only on diagonals k-1 and k-2, so each
    diagonal is one set of slice operations over all of a block's pairs.
    ``d2``, ``d1`` and ``cur`` hold diagonals k-2, k-1 and k, indexed by i
    with the pairs on the last axis. A diagonal also reads one padding cell
    just below and one just above each predecessor's range: the one below
    is reset to inf after each diagonal (on diagonal 0 it is the corner's
    0), and no earlier diagonal reaches the one above, so it keeps its
    initial inf.
    """
    combine = np.add if method == "dtw" else np.maximum
    n, m = xa.shape[1], xb.shape[1]
    ia, ib = np.asarray(ia), np.asarray(ib)
    out = np.empty(ia.size)
    for s in range(0, ia.size, DP_CHUNK_PAIRS):
        a = np.ascontiguousarray(xa[ia[s:s + DP_CHUNK_PAIRS]].T)
        b_rev = np.ascontiguousarray(xb[ib[s:s + DP_CHUNK_PAIRS]].T[::-1])
        q = a.shape[1]
        d2, d1, cur = np.full((3, n + 1, q), np.inf)
        d2[0] = 0.0  # diagonal 0 holds the corner; diagonal 1 is all inf
        cost, best = np.empty((2, min(n, m), q))
        for k in range(2, n + m + 1):
            i0, i1 = max(1, k - m), min(n, k - 1)
            w = i1 - i0 + 1
            np.subtract(a[i0 - 1:i1], b_rev[m - k + i0:m - k + i1 + 1], out=cost[:w])
            np.abs(cost[:w], out=cost[:w])
            np.minimum(d1[i0 - 1:i1], d1[i0:i1 + 1], out=best[:w])
            np.minimum(best[:w], d2[i0 - 1:i1], out=best[:w])
            combine(cost[:w], best[:w], out=cur[i0:i1 + 1])
            cur[i0 - 1] = np.inf
            d2, d1, cur = d1, cur, d2
        out[s:s + q] = d1[n]
    return out


def baseline_matrix(patterns, method: str) -> SimilarityMatrix:
    """Normalized baseline similarity of every unordered level-series pair.

    Runs on the same 1/7-scaled streams the pattern field consumes.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    return pair_matrix(patterns, lambda x, ii, jj: normalized_similarity(
        _batch_distance(x, x, ii, jj, method), x.shape[1]))

