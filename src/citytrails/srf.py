"""Stigmergic receptive field: clump -> mark -> trail -> similarity -> activation.

An SRF measures the similarity of two sample streams. Each sample is clumped
by a double sigmoid onto the Low/Medium/High plateaus, deposited as a
unit-height trapezoid mark on the stream's own trail, and both trails
evaporate by a constant delta per step; the Jaccard coefficient of the two
trails is the raw per-step similarity, sharpened by an activation sigmoid.

A trail depends only on its stream and the field parameters, so the engine
``indexed_similarity`` builds one trail per distinct stream and parameter
row, then matches pairs of trails through index arrays at every step: a
similarity matrix over N days steps N trails, and DE candidates share the
trails of series that recur across training pairs. ``pair_similarity`` is
the row-aligned wrapper (row i of one matrix against row i of the other).
The stepwise object API (``SrfState`` + ``step``) is the reference
implementation; the test suite pins the engine to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stigspace import (
    DEFAULT_CELL_COUNT,
    DEFAULT_PLATEAU_FRACTION,
    Trail1D,
    TrapezoidMark,
    deposit_1d,
    evaporate,
    jaccard,
    trapezoid_profile,
)

PARAM_KEYS = ("alpha_c1", "beta_c1", "alpha_c2", "beta_c2",
              "epsilon", "delta", "alpha_a", "beta_a")

DEFAULT_WARMUP_FRACTION = 0.1
MARK_INTENSITY = 1.0  # trail magnitude is then governed by delta alone


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


@dataclass(frozen=True)
class SrfState:
    """Streaming state of one receptive field: the two trails plus a step count."""

    params: SrfParams
    trail_input: Trail1D
    trail_reference: Trail1D
    steps_processed: int = 0

    def __post_init__(self) -> None:
        if not self.trail_input.same_axis(self.trail_reference):
            raise ValueError("input and reference trails must share the axis")

    @classmethod
    def fresh(cls, params: SrfParams, cell_count: int = DEFAULT_CELL_COUNT) -> "SrfState":
        return cls(params, Trail1D.empty(cell_count), Trail1D.empty(cell_count))


def step(s: SrfState, x_input: float, x_reference: float) -> tuple[SrfState, float]:
    """Advance one sample on each stream; returns the new state and raw similarity."""
    p = s.params
    t_in = deposit_1d(s.trail_input, TrapezoidMark(float(clump(x_input, p)),
                                                   MARK_INTENSITY, p.epsilon))
    t_ref = deposit_1d(s.trail_reference, TrapezoidMark(float(clump(x_reference, p)),
                                                        MARK_INTENSITY, p.epsilon))
    t_in = evaporate(t_in, p.delta)
    t_ref = evaporate(t_ref, p.delta)
    state = SrfState(p, t_in, t_ref, s.steps_processed + 1)
    return state, jaccard(t_in, t_ref)


def default_warmup(length: int) -> int:
    return max(1, int(round(DEFAULT_WARMUP_FRACTION * length)))


@dataclass(frozen=True)
class PairSimilarity:
    """Activated per-step similarities past warmup, plus their mean."""

    activated: np.ndarray
    mean: float


def indexed_similarity(streams, ia, ib, params, warmup: int | None = None, *,
                       cell_count: int = DEFAULT_CELL_COUNT,
                       axis_min: float = 0.0, axis_max: float = 1.0,
                       plateau_fraction: float = DEFAULT_PLATEAU_FRACTION,
                       return_streams: bool = False):
    """SRF similarity of indexed stream pairs, one trail per distinct stream.

    ``streams`` is an (N, L) matrix of distinct sample streams shared by every
    parameter row, or (K, N, L) with one stream set per row. ``ia`` and ``ib``
    index the two sides of each pair into the N streams; they broadcast
    against each other to (P,) when every parameter row matches the same
    pairs, or to (K, P) when the pairs differ per row. ``params`` is one
    SrfParams or a (K, 8) matrix in PARAM_KEYS order. Returns the mean
    activated similarity per pair, shaped (P,) for one SrfParams and (K, P)
    for a matrix, plus the activated streams past warmup, shaped
    (..., L - warmup), when ``return_streams`` is set.
    """
    single = isinstance(params, SrfParams)
    pmat = params.to_vector()[None, :] if single else np.asarray(params, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != len(PARAM_KEYS):
        raise ValueError("expected one SrfParams or a (K, 8) parameter matrix")
    n_rows = pmat.shape[0]
    x = np.asarray(streams, dtype=float)
    if x.ndim not in (2, 3) or (x.ndim == 3 and x.shape[0] != n_rows):
        raise ValueError(f"streams must be (N, L) or ({n_rows}, N, L)")
    n_streams, length = x.shape[-2:]
    if warmup is None:
        warmup = default_warmup(length)
    if not 0 <= warmup < length:
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

    cell_width = (axis_max - axis_min) / cell_count
    centers = axis_min + (np.arange(cell_count) + 0.5) * cell_width
    trails = np.zeros((n_rows, n_streams, cell_count))
    rows = trails.reshape(n_rows * n_streams, cell_count)  # a view of ``trails``
    raw = np.empty(out_shape + (length,))
    for t in range(length):
        # marks carry MARK_INTENSITY == 1, so the profile is the deposit
        trails += trapezoid_profile(clumped[..., t], centers, eps[..., 0],
                                    plateau_fraction)
        np.maximum(trails - delta, 0.0, out=trails)
        ta, tb = rows[fa], rows[fb]
        # Jaccard via sum/|difference|: min = (s - d) / 2, max = (s + d) / 2.
        total = (ta + tb).sum(axis=-1)
        gap = np.abs(ta - tb).sum(axis=-1)
        denominator = total + gap
        raw[..., t] = np.where(
            denominator > 0.0,
            (total - gap) / np.where(denominator > 0.0, denominator, 1.0),
            1.0)

    activated = logistic(aa * (raw[..., warmup:] - ba))
    means = activated.mean(axis=-1)
    if single:
        means, activated = means[0], activated[0]
    if return_streams:
        return means, activated
    return means


def pair_similarity(xa, xb, params, warmup: int | None = None, *,
                    cell_count: int = DEFAULT_CELL_COUNT,
                    axis_min: float = 0.0, axis_max: float = 1.0,
                    plateau_fraction: float = DEFAULT_PLATEAU_FRACTION,
                    return_streams: bool = False):
    """SRF similarity of row-aligned stream pairs: row i of ``xa`` against row i
    of ``xb``.

    ``xa`` and ``xb`` are (P, L) sample matrices (or a single pair of 1-D
    streams). ``params`` is one SrfParams shared by every row, or a (P, 8)
    matrix in PARAM_KEYS order for per-row parameters. Returns the (P,) mean
    activated similarity, plus the (P, L - warmup) activated streams when
    ``return_streams`` is set.
    """
    xa = np.atleast_2d(np.asarray(xa, dtype=float))
    xb = np.atleast_2d(np.asarray(xb, dtype=float))
    if xa.shape != xb.shape:
        raise ValueError("paired streams must have identical shapes")
    n_rows = xa.shape[0]
    engine = dict(cell_count=cell_count, axis_min=axis_min, axis_max=axis_max,
                  plateau_fraction=plateau_fraction, return_streams=return_streams)
    if isinstance(params, SrfParams):
        pairs = np.arange(n_rows)
        return indexed_similarity(np.concatenate([xa, xb]), pairs, n_rows + pairs,
                                  params, warmup, **engine)
    # Per-row parameters: parameter row i sees only its own two streams.
    result = indexed_similarity(np.stack([xa, xb], axis=1), np.zeros((n_rows, 1), int),
                                np.ones((n_rows, 1), int), params, warmup, **engine)
    if return_streams:
        return result[0][:, 0], result[1][:, 0]
    return result[:, 0]


def similarity_series(a, b, p: SrfParams, warmup: int | None = None) -> PairSimilarity:
    """SRF similarity of one series pair: activated stream past warmup and its mean.

    Accepts raw arrays or ActivityTimeSeries-like objects exposing ``samples``.
    """
    xa = np.asarray(getattr(a, "samples", a), dtype=float)
    xb = np.asarray(getattr(b, "samples", b), dtype=float)
    if xa.shape != xb.shape:
        raise ValueError("series lengths must match")
    means, streams = pair_similarity(xa, xb, p, warmup, return_streams=True)
    return PairSimilarity(streams[0], float(means[0]))
