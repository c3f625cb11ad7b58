"""Mark/trail algebra: evaporating intensity deposits on discretized spaces.

A trail is a grid of non-negative intensities. Marks (a trapezoid profile on a
1-D value axis, a truncated cone on a 2-D plane) are deposited additively; a
constant amount evaporates from every cell each step, clamped at zero. Trails
built from two sample streams are compared with the Jaccard coefficient
(sum of cell-wise minima over sum of cell-wise maxima).

The 1-D value axis has one geometry, [0, 1] in CELL_COUNT cells, and its
trails are plain arrays whose last axis is the cell axis, so one call
deposits on or compares a whole stack of trails. 2-D trails are Trail2D
values with their own origin and cell size.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

CELL_COUNT = 100
CELL_CENTERS = (np.arange(CELL_COUNT) + 0.5) * (1.0 / CELL_COUNT)
CELL_CENTERS.setflags(write=False)
PLATEAU_FRACTION = 0.5  # a trapezoid's plateau, as a share of its width
DEFAULT_CELL_SIZE_M = 50.0


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConeMark:
    """Truncated-cone deposit on a 2-D plane (projected meters)."""

    center: tuple[float, float]
    intensity: float
    base_radius: float = 150.0
    top_radius: float = 50.0

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
                cell_size: float = DEFAULT_CELL_SIZE_M,
                origin: tuple[float, float] = (0.0, 0.0)) -> "Trail2D":
        """Empty trail whose grid covers a width x height box from ``origin``."""
        cols = int(np.ceil(width_m / cell_size))
        rows = int(np.ceil(height_m / cell_size))
        return cls(np.zeros((rows, cols)), origin, cell_size)

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def contains(self, x: float, y: float) -> bool:
        x0, y0 = self.origin
        return (x0 <= x <= x0 + self.cols * self.cell_size
                and y0 <= y <= y0 + self.rows * self.cell_size)

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        x0, y0 = self.origin
        return (x0 + (col + 0.5) * self.cell_size, y0 + (row + 0.5) * self.cell_size)


def trapezoid_profile(centers, width) -> np.ndarray:
    """Unit-height trapezoid profile sampled at CELL_CENTERS.

    Full height within PLATEAU_FRACTION * width / 2 of the center, linear
    falloff to zero at width / 2. ``centers`` may carry leading batch
    dimensions, which ``width`` broadcasts against; the cell axis is appended.
    """
    centers = np.asarray(centers, dtype=float)
    r = np.abs(CELL_CENTERS - centers[..., None])
    half = np.asarray(width, dtype=float)[..., None] / 2.0
    return np.clip((half - r) / (half - PLATEAU_FRACTION * half), 0.0, 1.0)


def add_cone(cells: np.ndarray, origin: tuple[float, float], cell_size: float,
             cx: float, cy: float, intensity: float, base_radius: float,
             top_radius: float) -> None:
    """Add a truncated cone centered at (cx, cy) to a grid of cells, in place."""
    x0, y0 = origin
    rows, cols = cells.shape
    # Only cells within base_radius of the center can change.
    c_lo = max(0, int((cx - base_radius - x0) / cell_size) - 1)
    c_hi = min(cols, int((cx + base_radius - x0) / cell_size) + 2)
    r_lo = max(0, int((cy - base_radius - y0) / cell_size) - 1)
    r_hi = min(rows, int((cy + base_radius - y0) / cell_size) + 2)
    xs = x0 + (np.arange(c_lo, c_hi) + 0.5) * cell_size
    ys = y0 + (np.arange(r_lo, r_hi) + 0.5) * cell_size
    rr = np.hypot(xs[None, :] - cx, ys[:, None] - cy)
    slope = (base_radius - rr) / (base_radius - top_radius)
    cells[r_lo:r_hi, c_lo:c_hi] += intensity * np.clip(
        np.where(rr <= top_radius, 1.0, slope), 0.0, 1.0)


def deposit_2d(t: Trail2D, m: ConeMark) -> Trail2D:
    """Add a truncated-cone mark to the grid. Centers outside the box are rejected."""
    cx, cy = m.center
    if not t.contains(cx, cy):
        raise ValueError(f"mark center {m.center} outside grid bounding box")
    cells = t.cells.copy()
    add_cone(cells, t.origin, t.cell_size, cx, cy, m.intensity, m.base_radius,
             m.top_radius)
    return dataclasses.replace(t, cells=cells)


def evaporate(t, delta: float):
    """Subtract ``delta`` from every cell of a Trail2D, clamped at zero."""
    if delta < 0:
        raise ValueError(f"evaporation delta must be non-negative, got {delta}")
    return dataclasses.replace(t, cells=np.maximum(t.cells - delta, 0.0))


def jaccard(a, b):
    """Similarity of trails over the last axis: sum of minima over sum of
    maxima, in [0, 1]. Leading axes broadcast.

    Two all-zero trails compare as 1 (identical emptiness).
    """
    # min = (a + b - |a - b|) / 2 and max = (a + b + |a - b|) / 2, cell-wise.
    total = (a + b).sum(axis=-1)
    gap = np.abs(a - b).sum(axis=-1)
    denominator = total + gap
    return np.where(denominator > 0.0,
                    (total - gap) / np.where(denominator > 0.0, denominator, 1.0),
                    1.0)


def to_ascii_grid(t: Trail2D, nodata: float = -9999.0) -> str:
    """Render a 2-D trail as an ESRI-ASCII-grid-style text block."""
    x0, y0 = t.origin
    lines = [
        f"ncols {t.cols}",
        f"nrows {t.rows}",
        f"xllcorner {x0:.6f}",
        f"yllcorner {y0:.6f}",
        f"cellsize {t.cell_size:.6f}",
        f"NODATA_value {nodata:.1f}",
    ]
    for row in range(t.rows - 1, -1, -1):  # northmost row first
        lines.append(" ".join(f"{v:.6g}" for v in t.cells[row]))
    return "\n".join(lines) + "\n"
