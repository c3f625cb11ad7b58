"""Mark/trail algebra: evaporating intensity deposits on discretized spaces.

A trail is a grid of non-negative intensities. Marks (a trapezoid profile on a
1-D value axis, a truncated cone on a 2-D plane) are deposited additively; the
one ``evaporate``, which receptive fields and slot trails share, subtracts a
constant from every cell each step, clamped at zero. Trails built from two
sample streams are compared with the Jaccard coefficient.

The 1-D value axis has one geometry, [0, 1] in CELL_COUNT cells, and its
trails are plain arrays whose last axis is the cell axis, so one call
deposits on or compares a whole stack of trails. 2-D trails are Trail2D
values with their own origin and cell size; cone_geometry gives arrays of
cones, each on the same square of cells of a grid padded so no window is
clipped, as flat indices and heights that one ``np.add.at`` deposits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:
    from numpy._core.umath import clip as _clip
except ImportError:  # NumPy < 2
    from numpy.core.umath import clip as _clip

CELL_COUNT = 100
CELL_CENTERS = (np.arange(CELL_COUNT) + 0.5) * (1.0 / CELL_COUNT)
CELL_CENTERS.setflags(write=False)
PLATEAU_FRACTION = 0.5  # a trapezoid's plateau, as a share of its width
DEFAULT_CELL_SIZE_M = 50.0
DEFAULT_CONE_BASE_RADIUS_M = 150.0
DEFAULT_CONE_TOP_RADIUS_M = 50.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConeMark:
    """Truncated-cone deposit on a 2-D plane (projected meters)."""

    center: tuple[float, float]
    intensity: float
    base_radius: float = DEFAULT_CONE_BASE_RADIUS_M
    top_radius: float = DEFAULT_CONE_TOP_RADIUS_M

    def __post_init__(self) -> None:
        if not 0 < self.top_radius < self.base_radius:
            raise ValueError("need 0 < top_radius < base_radius")
        if self.intensity < 0:
            raise ValueError("mark intensity must be non-negative")


@dataclass(frozen=True)
class Trail2D:
    """Intensity trail over a rectangular grid of square cells.

    ``cells[row, col]`` covers x in [x0 + col*s, x0 + (col+1)*s) and the
    matching y band; row 0 is the southmost band.
    """

    cells: np.ndarray
    origin: tuple[float, float] = (0.0, 0.0)
    cell_size: float = DEFAULT_CELL_SIZE_M

    def __post_init__(self) -> None:
        cells = _readonly(self.cells)
        if cells.ndim != 2:
            raise ValueError("trail grid must be 2-D")
        if not np.all(np.isfinite(cells)) or np.any(cells < 0):
            raise ValueError("trail intensities must be finite and non-negative")
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        object.__setattr__(self, "cells", cells)

    @classmethod
    def for_box(cls, width_m: float, height_m: float,
                cell_size: float = DEFAULT_CELL_SIZE_M) -> "Trail2D":
        """Empty trail whose grid covers a width x height box from (0, 0)."""
        if not cell_size > 0:
            raise ValueError(f"trail_cell_m = {cell_size} must be positive")
        cols = int(np.ceil(width_m / cell_size))
        rows = int(np.ceil(height_m / cell_size))
        return cls(np.zeros((rows, cols)), cell_size=cell_size)

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def contains(self, x, y):
        """Whether points (x, y), scalars or arrays, lie in the grid's box."""
        x0, y0 = self.origin
        return ((x0 <= x) & (x <= x0 + self.cols * self.cell_size)
                & (y0 <= y) & (y <= y0 + self.rows * self.cell_size))


class MarkOperands(NamedTuple):
    """The arrays ``trapezoid_profile`` reads besides the mark centers."""

    cells: np.ndarray  # CELL_CENTERS
    half: np.ndarray   # width / 2
    ramp: np.ndarray   # half - PLATEAU_FRACTION * half, the falloff's divisor


def mark_operands(width) -> MarkOperands:
    """The operands of trapezoid marks of the given widths, which broadcast
    against the profile, made once for a caller that steps many marks of the
    same widths. Copies at the profile's full shape give the same doubles and
    spare each call NumPy's broadcast set-up."""
    half = np.asarray(width, dtype=float)[..., None] / 2.0
    return MarkOperands(CELL_CENTERS, half, half - PLATEAU_FRACTION * half)


def trapezoid_profile(centers, width, out=None) -> np.ndarray:
    """Unit-height trapezoid profile sampled at CELL_CENTERS.

    Full height within PLATEAU_FRACTION * width / 2 of the center, linear
    falloff to zero at width / 2. ``centers`` may carry leading batch
    dimensions, which ``width`` broadcasts against; the cell axis is appended.
    ``width`` may also be the MarkOperands that ``mark_operands`` built from
    it. The profile is written into ``out``, of that shape, when it is given.
    """
    cells, half, ramp = (width if isinstance(width, MarkOperands)
                         else mark_operands(width))
    centers = np.asarray(centers, dtype=float)
    profile = np.subtract(cells, centers[..., None], out=out)
    np.abs(profile, out=profile)  # each cell's distance r from its center
    np.subtract(half, profile, out=profile)
    np.divide(profile, ramp, out=profile)
    # the clip ufunc itself: np.clip's wrapper costs more than the clip here
    return _clip(profile, 0.0, 1.0, out=profile)


def cone_margin(base_radius: float, cell_size: float) -> int:
    """Padding, in cells on every side, that keeps cone_geometry's windows unclipped."""
    return int(np.ceil(base_radius / cell_size)) + 1


def cone_geometry(padded_cols: int, origin: tuple[float, float], cell_size: float,
                  cx, cy, intensity, base_radius: float, top_radius: float):
    """Truncated cones centered at (cx[e], cy[e]) with height intensity[e], as
    flat indices into a grid padded by cone_margin cells with ``padded_cols``
    columns (``origin`` is the unpadded grid's), and the cone height at each,
    both shaped (E, w, w). Every event's window is the same square of cells
    around its centre's cell, computed from that event alone, so a geometry
    built for many events holds the doubles each event gives on its own.
    ``np.add.at(padded.reshape(-1), idx, heights)`` deposits them in event
    order."""
    x0, y0 = origin
    m = cone_margin(base_radius, cell_size)
    cx, cy, intensity = (np.asarray(v, dtype=float) for v in (cx, cy, intensity))
    # Each window spans ceil(base_radius / cell_size) cells either side of the
    # centre's cell; the cells past the cone's base receive +0.0.
    offsets = np.arange(1 - m, m)
    c = ((cx - x0) / cell_size).astype(int)[:, None] + offsets
    r = ((cy - y0) / cell_size).astype(int)[:, None] + offsets
    xs = x0 + (c + 0.5) * cell_size
    ys = y0 + (r + 0.5) * cell_size
    # One (E, w, w) float buffer goes from distance to slope to height.
    heights = np.hypot(xs[:, None, :] - cx[:, None, None],
                       ys[:, :, None] - cy[:, None, None])
    on_top = heights <= top_radius
    np.subtract(base_radius, heights, out=heights)
    heights /= base_radius - top_radius
    np.copyto(heights, 1.0, where=on_top)
    np.clip(heights, 0.0, 1.0, out=heights)
    heights *= intensity[:, None, None]
    idx = (r[:, :, None] + m) * padded_cols + (c[:, None, :] + m)
    return idx, heights


def deposit_2d(t: Trail2D, m: ConeMark) -> Trail2D:
    """Add a truncated-cone mark to the grid. Centers outside the box are rejected."""
    cx, cy = m.center
    if not t.contains(cx, cy):
        raise ValueError(f"mark center {m.center} outside grid bounding box")
    margin = cone_margin(m.base_radius, t.cell_size)
    padded = np.pad(t.cells, margin)
    idx, heights = cone_geometry(padded.shape[1], t.origin, t.cell_size, [cx], [cy],
                                 [m.intensity], m.base_radius, m.top_radius)
    np.add.at(padded.reshape(-1), idx, heights)
    return dataclasses.replace(t, cells=padded[margin:-margin, margin:-margin])


def evaporate(cells: np.ndarray, delta) -> None:
    """Subtract ``delta`` (a scalar, or an array that broadcasts) from every
    cell of a float array, in place, clamped at zero. A negative delta is
    rejected where it enters, not in this per-step call."""
    np.subtract(cells, delta, out=cells)
    np.maximum(cells, 0.0, out=cells)


def jaccard(a, b, work=None):
    """Similarity of trails over the last axis: sum of minima over sum of
    maxima, in [0, 1]. Leading axes broadcast. ``work``, an array of the
    broadcast shape, takes the cell-wise sums and gaps in place of two
    temporaries when it is given.

    Two all-zero trails compare as 1 (identical emptiness).
    """
    # min = (a + b - |a - b|) / 2 and max = (a + b + |a - b|) / 2, cell-wise.
    total = np.add(a, b, out=work).sum(axis=-1)
    gap = np.abs(np.subtract(a, b, out=work), out=work).sum(axis=-1)
    denominator = total + gap
    nonempty = denominator > 0.0
    return np.where(nonempty, (total - gap) / np.where(nonempty, denominator, 1.0), 1.0)


class _CellText(dict):
    """A cell value's ``.6g`` text, keyed by its 8-byte pattern (so 0.0 and
    -0.0 keep their own text) and formatted on first use."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = f"{float(np.int64(bits).view(np.float64)):.6g}"
        return text


def to_ascii_grid(t: Trail2D) -> str:
    """Render a 2-D trail as an ESRI-ASCII-grid-style text block. Each
    distinct cell value is formatted once; rows are joined from that table,
    one row's values converted at a time."""
    x0, y0 = t.origin
    lines = [
        f"ncols {t.cols}",
        f"nrows {t.rows}",
        f"xllcorner {x0:.6f}",
        f"yllcorner {y0:.6f}",
        f"cellsize {t.cell_size:.6f}",
        "NODATA_value -9999.0",
    ]
    text = _CellText()
    for row in t.cells[::-1]:  # northmost row first
        lines.append(" ".join(map(text.__getitem__, row.view(np.int64).tolist())))
    return "\n".join(lines) + "\n"
