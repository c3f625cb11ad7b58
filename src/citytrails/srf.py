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
``_advance``. Each engine step compares PAIR_BLOCK pairs at a time in
buffers made once per call, so no temporary holds a trail per pair. A trail
stack of at most OPERAND_CELLS cells steps on operands made once per call at
its full shape, which spares the many short steps of DE candidate
populations NumPy's broadcast set-up; larger stacks broadcast them. Every
trail has the one geometry of ``stigspace``: the value axis [0, 1] in
CELL_COUNT cells; only the eight field parameters vary. The first
``default_warmup(L)`` steps of an L-step stream, a tenth of it, fill the
trails and are left out of the mean. The test suite pins the engine to a
brute-force reference that spells out the clumping, the trapezoid, the
evaporation, the Jaccard and the activation cell by cell.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .stigspace import (CELL_COUNT, MarkOperands, evaporate, jaccard, mark_operands,
                        trapezoid_profile)

PARAM_KEYS = ("alpha_c1", "beta_c1", "alpha_c2", "beta_c2",
              "epsilon", "delta", "alpha_a", "beta_a")

DEFAULT_WARMUP_FRACTION = 0.1
# Pairs whose trails one engine step gathers and compares at a time.
PAIR_BLOCK = 256
# Trail stacks of at most this many cells get their step operands (cell
# centers, half-widths, ramp divisors, evaporation) at the stack's full shape,
# which spares each step's ufuncs NumPy's broadcast set-up. Larger stacks
# broadcast them: there the set-up is a small share of a step, and full-shape
# copies would cost memory and cache.
OPERAND_CELLS = 32768

# Parameter columns shaped (K, 1, 1), one row per parameter vector; clump and
# activate read them by SrfParams attribute name.
_ParamColumns = namedtuple("_ParamColumns", PARAM_KEYS)


def logistic(z, out=None):
    """1 / (1 + exp(-z)), written into ``out`` (which may be ``z``) when given."""
    # clipped far in the saturated tails to keep exp() from overflowing
    y = np.exp(np.negative(np.clip(z, -60.0, 60.0, out=out), out=out), out=out)
    return np.divide(1.0, np.add(y, 1.0, out=out), out=out)


# Every parameter is finite and non-negative; the slopes and the mark width
# epsilon are positive, and the thresholds at most 1.
_POSITIVE = np.array([k.startswith("alpha_") or k == "epsilon" for k in PARAM_KEYS])
_UNIT = np.array([k.startswith("beta_") for k in PARAM_KEYS])


def _check_param_rows(pmat) -> None:
    """Reject a (K, 8) parameter matrix, in PARAM_KEYS order, with a row that
    is no valid SrfParams. The error names the offending key and, for more
    than one row, its row."""
    ok = (np.isfinite(pmat) & (pmat >= 0) & ((pmat > 0) | ~_POSITIVE)
          & ((pmat <= 1) | ~_UNIT))
    if not ok.all():
        row, j = np.argwhere(~ok)[0]
        rule = ("positive" if _POSITIVE[j] else "in [0, 1]" if _UNIT[j]
                else "non-negative")
        where = f" in parameter row {row}" if len(pmat) > 1 else ""
        raise ValueError(f"{PARAM_KEYS[j]} = {float(pmat[row, j])!r}{where} "
                         f"must be finite and {rule}")


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
        _check_param_rows(self.to_vector()[None, :])

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


def _sigmoid(x, alpha, beta, out=None):
    """logistic(alpha * (x - beta)), written into ``out`` (a new array by
    default), which may be ``x``."""
    if out is None:
        out = np.empty(np.broadcast(x, alpha, beta).shape)
    np.subtract(x, beta, out=out)
    return logistic(np.multiply(alpha, out, out=out), out=out)


def clump(x, p):
    """Double-sigmoid clumping onto the Low/Medium/High plateaus {0, 0.5, 1}.

    ``p`` is an SrfParams, or parameter columns that broadcast against ``x``
    as ``indexed_similarity`` passes them. The second sigmoid is the one
    temporary of the result's size.
    """
    low = _sigmoid(x, p.alpha_c1, p.beta_c1)
    low += _sigmoid(x, p.alpha_c2, p.beta_c2)
    low *= 0.5
    return low


def activate(raw, p, out=None):
    """Activation sigmoid: damps insignificant similarities, boosts relevant
    ones. ``p`` as for ``clump``; the result is written into ``out``, which
    may be ``raw``, when it is given."""
    return _sigmoid(raw, p.alpha_a, p.beta_a, out)


def _advance(trails, centers, mark_ops, delta, work) -> None:
    """One SRF step on a stack of trails, in place: deposit a mark at each
    center (one per trail), then evaporate every cell by ``delta``.
    ``mark_ops`` are the marks' MarkOperands; ``work``, shaped like
    ``trails``, holds the marks."""
    # Marks have unit intensity, so the profile is the deposit and trail
    # magnitude is governed by delta alone.
    trails += trapezoid_profile(centers, mark_ops, out=work)
    evaporate(trails, delta)


def final_trail(samples, params: SrfParams) -> np.ndarray:
    """The trail one sample stream leaves after its last sample, one
    intensity per cell of ``stigspace.CELL_CENTERS``."""
    trail = np.zeros(CELL_COUNT)
    work = np.empty(CELL_COUNT)
    mark_ops = mark_operands(params.epsilon)
    for center in clump(samples, params):
        _advance(trail, center, mark_ops, params.delta, work)
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

    A call allocates the (K, P, L) raw similarities, which the activation
    overwrites, two (K, N, L) arrays for the clumping, the (K, N, C) trails
    plus one buffer of their size for the marks, and three (PAIR_BLOCK, C)
    buffers. Each step gathers the trails of PAIR_BLOCK pairs at a time into
    two of them and sums their cell-wise totals and gaps in the third, so no
    temporary has one row per pair and cell. When the trails hold at most
    OPERAND_CELLS cells, four more arrays of their size hold the step
    operands: the cell centers, half-widths and ramp divisors of the marks
    and the evaporation delta. Larger stacks broadcast these from (K, 1, 1)
    columns; both layouts give the same bits.
    """
    single = isinstance(params, SrfParams)
    pmat = params.to_vector()[None, :] if single else np.asarray(params, dtype=float)
    if pmat.ndim != 2 or pmat.shape[1] != len(PARAM_KEYS):
        raise ValueError("expected one SrfParams or a (K, 8) parameter matrix")
    if not single:
        _check_param_rows(pmat)
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
    out_shape = np.broadcast_shapes(*(f.shape for f in flat))
    fa, fb = (np.broadcast_to(f, out_shape).ravel() for f in flat)

    cols = _ParamColumns(*(pmat[:, j, None, None] for j in range(len(PARAM_KEYS))))
    clumped = clump(x, cols)
    trails = np.zeros((n_rows, n_streams, CELL_COUNT))
    marks = np.empty_like(trails)
    mark_ops, delta = mark_operands(cols.epsilon[..., 0]), cols.delta
    if trails.size <= OPERAND_CELLS:
        # one block for all four: four blocks fragmented the heap and raised
        # the calibrate benchmark's peak RSS by about 0.2 MiB
        full = np.empty((4,) + trails.shape)
        for operand, value in zip(full, (*mark_ops, delta)):
            np.copyto(operand, value)
        mark_ops, delta = MarkOperands(*full[:3]), full[3]
    rows = trails.reshape(n_rows * n_streams, -1)  # a view of ``trails``
    raw = np.empty((fa.size, length))
    block = max(1, min(PAIR_BLOCK, fa.size))
    gathered_a, gathered_b, work = (np.empty((block, CELL_COUNT)) for _ in range(3))
    blocks = []
    for s in range(0, fa.size, block):
        ja, jb = fa[s:s + block], fb[s:s + block]
        blocks.append((ja, jb, gathered_a[:ja.size], gathered_b[:ja.size],
                       work[:ja.size], raw[s:s + block]))
    for t in range(length):
        _advance(trails, clumped[..., t], mark_ops, delta, marks)
        for ja, jb, a, b, w, r in blocks:
            # the indices are checked above; "clip" lets take write into its
            # ``out`` directly instead of through a copy
            rows.take(ja, axis=0, out=a, mode="clip")
            rows.take(jb, axis=0, out=b, mode="clip")
            r[:, t] = jaccard(a, b, w)

    streams_past = raw.reshape(out_shape + (length,))[..., warmup:]
    activated = activate(streams_past, cols, out=streams_past)
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
