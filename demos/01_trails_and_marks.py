"""Marks, trails, evaporation, and the Jaccard similarity on toy data.

Walks through the core mechanics: a trapezoid mark deposited on a value axis,
the way repeated deposits beat evaporation while isolated deposits fade, and
how the overlap of two trails is scored. A 1-D trail is a plain array of
cell intensities over the value axis [0, 1]; evaporation subtracts a constant
from every cell and clamps at zero.
"""

import numpy as np

from citytrails.stigspace import (
    ConeMark,
    Trail2D,
    deposit_2d,
    jaccard,
    trapezoid_profile,
)


def sparkline(cells, width=60):
    blocks = " .:-=+*#%@"
    step = max(1, len(cells) // width)
    peaks = [cells[i:i + step].max() for i in range(0, len(cells), step)]
    top = max(max(peaks), 1e-9)
    return "".join(blocks[min(int(9 * v / top), 9)] for v in peaks)


print("== a single mark, then pure evaporation ==")
trail = 1.0 * trapezoid_profile(0.5, width=0.2)  # intensity times unit profile
for step in range(4):
    print(f"step {step}: |{sparkline(trail)}| peak {trail.max():.2f}")
    trail = np.maximum(trail - 0.4, 0.0)
print("the isolated mark is gone after ceil(1.0 / 0.4) = 3 steps\n")

print("== reinforcement beats evaporation ==")
trail = np.zeros(100)
for step in range(12):
    trail = np.maximum(trail + trapezoid_profile(0.3, 0.2) - 0.4, 0.0)
print(f"after 12 reinforced steps: |{sparkline(trail)}| peak {trail.max():.2f}")
print(f"each step deposits 1.0 and evaporates 0.4, so the peak grows by 0.6 "
      f"per step and never settles: 12 x 0.6 = {12 * 0.6:.2f}\n")

print("== Jaccard similarity of two trails ==")
left = trapezoid_profile(0.3, 0.25)
for center in (0.3, 0.4, 0.6, 0.9):
    other = trapezoid_profile(center, 0.25)
    print(f"marks at 0.30 vs {center:.2f}: similarity {jaccard(left, other):.3f}")
print()

print("== a truncated cone on a 2-D grid ==")
grid = Trail2D.for_box(1000, 1000, cell_size=50)
grid = deposit_2d(grid, ConeMark(center=(500.0, 500.0), intensity=1.0,
                                 base_radius=150, top_radius=50))
row = grid.cells[10]
print("row through the center:", np.array2string(row, precision=2))
print(f"cells touched: {int((grid.cells > 0).sum())}, peak {grid.cells.max():.2f}")
