import math

import numpy as np
import pytest

from citytrails.stigspace import (
    CELL_CENTERS,
    CELL_COUNT,
    ConeMark,
    Trail2D,
    deposit_2d,
    evaporate,
    jaccard,
    to_ascii_grid,
    trapezoid_profile,
)

CELL_WIDTH = 1.0 / CELL_COUNT


def evaporated(cells, delta):
    """A copy of ``cells`` after one in-place ``evaporate``."""
    out = np.array(cells, dtype=float)
    evaporate(out, delta)
    return out


class TestTrapezoidDeposit:
    def test_peak_equals_intensity_at_cell_center(self):
        out = 2.0 * trapezoid_profile(CELL_CENTERS[50], 0.2)
        assert out[50] == 2.0
        assert out.max() == 2.0

    def test_same_center_twice_doubles(self):
        mark = 1.5 * trapezoid_profile(CELL_CENTERS[30], 0.2)
        once = np.zeros(CELL_COUNT) + mark
        twice = once + mark
        assert np.allclose(twice, 2 * once)
        assert twice[30] == 3.0

    def test_mass_matches_trapezoid_area(self):
        # oracle: closed-form area h * w * (1 + plateau_fraction) / 2 vs grid sum
        h, w, pf = 1.7, 0.24, 0.5
        grid_mass = (h * trapezoid_profile(0.5, w)).sum() * CELL_WIDTH
        area = h * w * (1 + pf) / 2
        assert abs(grid_mass - area) <= h * CELL_WIDTH

    def test_two_marks_commute_exactly(self):
        t = np.zeros(CELL_COUNT)
        a = 1.0 * trapezoid_profile(0.3, 0.2)
        b = 0.7 * trapezoid_profile(0.42, 0.15)
        assert np.array_equal((t + a) + b, (t + b) + a)

    def test_mark_multiset_order_insensitive(self):
        rng = np.random.default_rng(5)
        marks = [float(h) * trapezoid_profile(float(c), 0.2)
                 for c, h in zip(rng.uniform(0.1, 0.9, 6), rng.uniform(0.5, 2, 6))]
        t1 = np.zeros(CELL_COUNT)
        t2 = np.zeros(CELL_COUNT)
        for m in marks:
            t1 = t1 + m
        for m in reversed(marks):
            t2 = t2 + m
        assert np.allclose(t1, t2, atol=1e-12)


class TestEvaporation:
    def test_subtracts_delta(self):
        t = np.array([1.0, 0.5, 0.0])
        assert evaporate(t, 0.3) is None  # in place
        assert np.allclose(t, [0.7, 0.2, 0.0])

    def test_clamps_at_zero(self):
        assert np.allclose(evaporated([0.2, 0.1], 0.3), [0.0, 0.0])

    def test_zero_delta_is_identity(self):
        t = np.array([0.4, 0.9, 0.0])
        assert np.array_equal(evaporated(t, 0.0), t)

    def test_monotone_under_deposit(self):
        t = trapezoid_profile(0.4, 0.2)
        heavier = t + 0.5 * trapezoid_profile(0.6, 0.2)
        assert np.all(evaporated(heavier, 0.2) >= evaporated(t, 0.2))

    def test_repeated_evaporation_reaches_zero(self):
        t = 2.0 * trapezoid_profile(0.5, 0.3)
        delta = 0.3
        steps = math.ceil(t.max() / delta)
        for _ in range(steps):
            evaporate(t, delta)
        assert np.all(t == 0.0)

    def test_isolated_mark_vanishes(self):
        t = trapezoid_profile(0.5, 0.2)
        for _ in range(math.ceil(1.0 / 0.4)):
            evaporate(t, 0.4)
        assert np.all(t == 0.0)

    def test_redeposit_below_delta_reaches_fixed_point(self):
        # reinforcement weaker than evaporation settles to a steady trail
        h, delta = 0.3, 0.5
        mark = h * trapezoid_profile(0.5, 0.2)
        t = np.zeros(CELL_COUNT)
        for _ in range(math.ceil(10 * h / delta)):
            t = evaporated(t + mark, delta)
        settled = evaporated(t + mark, delta)
        assert np.allclose(settled, t, atol=1e-9)


class TestJaccard:
    def test_identical_nonempty_is_one(self):
        t = trapezoid_profile(0.5, 0.2)
        assert jaccard(t, t) == 1.0

    def test_disjoint_supports_zero(self):
        t1 = trapezoid_profile(0.1, 0.1)
        t2 = trapezoid_profile(0.9, 0.1)
        assert jaccard(t1, t2) == 0.0

    def test_hand_value(self):
        t1 = np.array([1.0, 1.0, 0.0])
        t2 = np.array([1.0, 0.0, 1.0])
        assert jaccard(t1, t2) == pytest.approx(1.0 / 3.0)

    def test_both_empty_is_one(self):
        assert jaccard(np.zeros(20), np.zeros(20)) == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            t1 = rng.uniform(0, 3, 40)
            t2 = rng.uniform(0, 3, 40)
            s12, s21 = jaccard(t1, t2), jaccard(t2, t1)
            assert s12 == s21
            assert 0.0 <= s12 <= 1.0

    def test_stacks_compare_row_by_row(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 2, (3, 4, 50))
        b = rng.uniform(0, 2, (3, 4, 50))
        b[1, 2] = 0.0
        a[1, 2] = 0.0
        stacked = jaccard(a, b)
        assert stacked.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert stacked[i, j] == jaccard(a[i, j], b[i, j])
        assert stacked[1, 2] == 1.0


class TestConeDeposit:
    def test_center_cell_gains_full_intensity(self):
        t = Trail2D.for_box(2000, 2000, cell_size=50)
        x = y = (20 + 0.5) * 50
        out = deposit_2d(t, ConeMark((x, y), 1.3))
        assert out.cells[20, 20] == pytest.approx(1.3)

    def test_base_radius_boundary_gains_nothing(self):
        t = Trail2D.for_box(2000, 2000, cell_size=50)
        x = y = (20 + 0.5) * 50
        out = deposit_2d(t, ConeMark((x, y), 1.0, base_radius=150, top_radius=50))
        # the nearest cell center at exactly 150 m sits three cells east
        assert out.cells[20, 23] == 0.0

    def test_volume_matches_frustum_integral(self):
        # oracle: V = pi * h * (top^2 + (base - top) * (base + 2 top) / 3)
        base, top, h, cell = 150.0, 50.0, 2.0, 10.0
        t = Trail2D.for_box(1000, 1000, cell_size=cell)
        x = y = (50 + 0.5) * cell
        out = deposit_2d(t, ConeMark((x, y), h, base, top))
        grid_volume = out.cells.sum() * cell * cell
        exact = math.pi * h * (top ** 2 + (base - top) * (base + 2 * top) / 3.0)
        assert abs(grid_volume - exact) / exact < 0.02

    def test_center_outside_box_rejected(self):
        t = Trail2D.for_box(1000, 1000, cell_size=50)
        with pytest.raises(ValueError):
            deposit_2d(t, ConeMark((1500.0, 200.0), 1.0))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ConeMark((0, 0), 1.0, base_radius=50, top_radius=150)

    def test_evaporate_works_on_grids(self):
        out = evaporated([[1.0, 0.1], [0.5, 0.0]], 0.2)
        assert np.allclose(out, [[0.8, 0.0], [0.3, 0.0]])


class TestAsciiGrid:
    def test_header_and_rows(self):
        t = Trail2D(np.array([[0.0, 1.0], [2.0, 3.0]]), origin=(10.0, 20.0),
                    cell_size=50.0)
        text = to_ascii_grid(t)
        lines = text.strip().split("\n")
        assert lines[0] == "ncols 2"
        assert lines[1] == "nrows 2"
        assert lines[2].startswith("xllcorner 10")
        assert lines[3].startswith("yllcorner 20")
        assert lines[4].startswith("cellsize 50")
        assert lines[5].startswith("NODATA_value")
        assert lines[6].split() == ["2", "3"]  # north row first
        assert lines[7].split() == ["0", "1"]

    @staticmethod
    def reference_ascii_rows(cells):
        """Data rows formatted cell by cell, northmost row first."""
        return "".join(" ".join(f"{v:.6g}" for v in row) + "\n" for row in cells[::-1])

    def test_rows_match_per_cell_formatting(self):
        rng = np.random.default_rng(8)
        specials = [0.0, -0.0, 5e-324, 1e-5, 0.1 + 0.2, 123456.5, 1e16]
        cells = rng.choice(specials + [2.5] * 30, size=(9, 11))  # mostly repeats
        cells[-1, :len(specials)] = specials
        cells[4] = rng.uniform(1e-8, 1e2, 11)
        mask = (rng.uniform(size=(6, 7)) < 0.4).astype(float)
        for grid in (cells, mask):
            text = to_ascii_grid(Trail2D(grid, origin=(3.0, 4.0), cell_size=25.0))
            _, rows = text.split("NODATA_value -9999.0\n")
            assert rows == self.reference_ascii_rows(grid)
        first_row = to_ascii_grid(Trail2D(cells)).split("\n")[6].split()
        assert first_row[:len(specials)] == ["0", "-0", "4.94066e-324", "1e-05",
                                             "0.3", "123456", "1e+16"]
