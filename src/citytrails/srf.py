"""Stigmergic receptive field: clump -> mark -> trail -> similarity -> activation.

An SRF measures the similarity of two sample streams. Each sample is clumped
by a double sigmoid onto the Low/Medium/High plateaus, deposited as a
unit-height trapezoid mark on the stream's own trail, and both trails
evaporate by a constant delta per step; the Jaccard coefficient of the two
trails is the raw per-step similarity, sharpened by an activation sigmoid.

A trail depends only on its stream and the field parameters, so the engine
``indexed_similarity`` takes one pool of distinct streams plus index pairs:
it builds one trail per stream and parameter row, then matches pairs of
trails by index at every step. A similarity matrix over N days steps N
trails, and DE candidates share the trails of series that recur across
training couples. ``pair_similarity`` is the row-aligned wrapper (row i of
one matrix against row i of the other), and ``final_trail`` the trail one
stream leaves, which plot bundles export. Both step their trails through
``_advance``. Every trail has the one geometry of ``stigspace``: the value
axis [0, 1] in CELL_COUNT cells; only the eight field parameters vary. The
first ``default_warmup(L)`` steps of an L-step stream, a tenth of it, fill
the trails and are left out of the mean. The test suite pins the engine to a
brute-force reference that spells out the clumping, the trapezoid, the
evaporation, the Jaccard and the activation cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stigspace import CELL_COUNT, evaporate, jaccard, trapezoid_profile

PARAM_KEYS = ("alpha_c1", "beta_c1", "alpha_c2", "beta_c2",
              "epsilon", "delta", "alpha_a", "beta_a")

DEFAULT_WARMUP_FRACTION = 0.1


def logistic(z):
    # clipped far in the saturated tails to keep exp() from overflowing
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass(frozen=True)
class SrfParams:
    """Full parameter vector of one receptive field."""

    alpha_c1: float
    beta_c1: float
    alpha_c2: float
    beta_c2: float
    epsilon: float
    delta: float
    alpha_a: float
    beta_a: float

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        for key in ("alpha_c1", "alpha_c2", "alpha_a"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive")
        for key in ("beta_c1", "beta_c2", "beta_a"):
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key} must lie in [0, 1]")

    @classmethod
    def defaults(cls) -> "SrfParams":
        return cls(alpha_c1=30.0, beta_c1=1.0 / 3.0, alpha_c2=30.0, beta_c2=2.0 / 3.0,
                   epsilon=0.2, delta=0.1, alpha_a=20.0, beta_a=0.5)

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in PARAM_KEYS])

    @classmethod
    def from_vector(cls, vec) -> "SrfParams":
        return cls(**{k: float(v) for k, v in zip(PARAM_KEYS, vec)})

    def to_block(self) -> dict[str, float]:
        return {k: float(getattr(self, k)) for k in PARAM_KEYS}


def clump(x, p: SrfParams):
    """Double-sigmoid clumping onto the Low/Medium/High plateaus {0, 0.5, 1}."""
    return 0.5 * (logistic(p.alpha_c1 * (np.asarray(x, dtype=float) - p.beta_c1))
                  + logistic(p.alpha_c2 * (np.asarray(x, dtype=float) - p.beta_c2)))


def activate(raw, p: SrfParams):
    """Activation sigmoid: damps insignificant similarities, boosts relevant ones."""
    return logistic(p.alpha_a * (np.asarray(raw, dtype=float) - p.beta_a))


def _advance(trails, centers, width, delta) -> None:
    """One SRF step on a stack of trails, in place: deposit a mark at each
    center (one per trail), then evaporate every cell by ``delta``."""
    # Marks have unit intensity, so the profile is the deposit and trail
    # magnitude is governed by delta alone.
    trails += trapezoid_profile(centers, width)
    evaporate(trails, delta)


def final_trail(samples, params: SrfParams) -> np.ndarray:
    """The trail one sample stream leaves after its last sample, one
    intensity per cell of ``stigspace.CELL_CENTERS``."""
    trail = np.zeros(CELL_COUNT)
    for center in clump(samples, params):
        _advance(trail, center, params.epsilon, params.delta)
    return trail


def default_warmup(length: int) -> int:
    return max(1, int(round(DEFAULT_WARMUP_FRACTION * length)))


def indexed_similarity(streams, ia, ib, params, *, return_streams: bool = False):
    """SRF similarity of indexed stream pairs, one trail per distinct stream.

    ``streams`` is an (N, L) matrix of distinct sample streams. ``ia`` and
    ``ib`` index the two sides of each pair into the N streams; they
    broadcast against each other to (P,) when every parameter row matches the
    same pairs, or to (K, P) when the pairs differ per row. ``params`` is one
    SrfParams or a (K, 8) matrix in PARAM_KEYS order. Returns the mean
    activated similarity per pair, shaped (P,) for one SrfParams and (K, P)
    for a matrix, plus the activated streams past the warmup, shaped
    (..., L - default_warmup(L)), when ``return_streams`` is set.
    """
    single = isinstance(params, SrfParams)
    pmat = params.to_vector()[None, :] if single else np.asarray(params, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != len(PARAM_KEYS):
        raise ValueError("expected one SrfParams or a (K, 8) parameter matrix")
    n_rows = pmat.shape[0]
    x = np.asarray(streams, dtype=float)
    if x.ndim != 2:
        raise ValueError("streams must be an (N, L) matrix")
    n_streams, length = x.shape
    warmup = default_warmup(length)
    if warmup >= length:
        raise ValueError("warmup must be shorter than the streams")
    # Flat row index into the (K * N, C) trail matrix, one row per parameter row.
    base = (np.arange(n_rows) * n_streams)[:, None]
    flat = []
    for idx in (ia, ib):
        idx = np.atleast_1d(np.asarray(idx))
        if (idx.dtype.kind not in "iu" or idx.ndim > 2
                or (idx.ndim == 2 and idx.shape[0] not in (1, n_rows))
                or np.any(idx < 0) or np.any(idx >= n_streams)):
            raise ValueError(f"pair indices must be integers in [0, {n_streams}) "
                             f"shaped (P,) or ({n_rows}, P)")
        flat.append(base + idx)
    fa, fb = flat
    out_shape = np.broadcast_shapes(fa.shape, fb.shape)

    ac1, bc1, ac2, bc2, eps, delta, aa, ba = (pmat[:, j, None, None]
                                              for j in range(len(PARAM_KEYS)))
    clumped = 0.5 * (logistic(ac1 * (x - bc1)) + logistic(ac2 * (x - bc2)))

    trails = np.zeros((n_rows, n_streams, CELL_COUNT))
    rows = trails.reshape(n_rows * n_streams, -1)  # a view of ``trails``
    raw = np.empty(out_shape + (length,))
    for t in range(length):
        _advance(trails, clumped[..., t], eps[..., 0], delta)
        raw[..., t] = jaccard(rows[fa], rows[fb])

    activated = logistic(aa * (raw[..., warmup:] - ba))
    means = activated.mean(axis=-1)
    if single:
        means, activated = means[0], activated[0]
    if return_streams:
        return means, activated
    return means


def pair_similarity(xa, xb, params: SrfParams):
    """SRF similarity of row-aligned stream pairs: row i of ``xa`` against row i
    of ``xb``.

    ``xa`` and ``xb`` are (P, L) sample matrices (or a single pair of 1-D
    streams), matched under one SrfParams. Returns the (P,) mean activated
    similarity.
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("paired streams must have identical shapes")
    pairs = np.arange(xa.shape[0])
    return indexed_similarity(np.concatenate([xa, xb]), pairs, xa.shape[0] + pairs,
                              params)
