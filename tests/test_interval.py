"""Unit tests for the half-open interval algebra."""

import math

import pytest

from repro.geometry import EMPTY_INTERVAL, FULL_INTERVAL, Interval

from tests.helpers import contains_interval


class TestConstruction:
    def test_make_normalises_degenerate_to_empty(self):
        assert Interval.make(3, 3).is_empty
        assert Interval.make(5, 2) is EMPTY_INTERVAL

    def test_make_valid(self):
        iv = Interval.make(1.0, 2.5)
        assert iv.lo == 1.0 and iv.hi == 2.5
        assert not iv.is_empty

    def test_direct_constructor_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_full(self):
        assert Interval.full().is_full
        assert not Interval.full().bounded

    def test_one_sided(self):
        left = Interval.greater_than(3.0)
        assert left.contains(4.0) and not left.contains(3.0)
        assert left.contains(1e12)
        right = Interval.at_most(3.0)
        assert right.contains(3.0) and not right.contains(3.1)
        assert right.contains(-1e12)

    def test_point_interval_covers_single_lattice_value(self):
        iv = Interval.point(5.0)
        assert iv.contains(5.0)
        assert not iv.contains(4.0)
        assert not iv.contains(6.0)
        assert iv.length == 1.0


class TestContainment:
    def test_half_open_semantics(self):
        iv = Interval.make(1.0, 3.0)
        assert not iv.contains(1.0)  # open on the left
        assert iv.contains(3.0)  # closed on the right
        assert iv.contains(2.0)
        assert 2.0 in iv

    def test_empty_contains_nothing(self):
        assert not EMPTY_INTERVAL.contains(0.0)

    def test_contains_interval(self):
        outer = Interval.make(0, 10)
        assert contains_interval(outer, Interval.make(2, 5))
        assert contains_interval(outer, outer)
        assert not contains_interval(outer, Interval.make(-1, 5))
        assert not contains_interval(outer, Interval.make(5, 11))
        assert contains_interval(outer, EMPTY_INTERVAL)

    def test_full_contains_everything(self):
        assert contains_interval(FULL_INTERVAL, Interval.make(-1e9, 1e9))
        assert FULL_INTERVAL.contains(0.0)


class TestOverlap:
    def test_disjoint(self):
        assert not Interval.make(0, 1).overlaps(Interval.make(2, 3))

    def test_touching_half_open_do_not_overlap(self):
        # (0,1] and (1,2] share only the boundary point 1, which belongs
        # to the first interval but is excluded by the second's open end
        assert not Interval.make(0, 1).overlaps(Interval.make(1, 2))

    def test_overlapping(self):
        assert Interval.make(0, 2).overlaps(Interval.make(1, 3))

    def test_empty_never_overlaps(self):
        assert not EMPTY_INTERVAL.overlaps(FULL_INTERVAL)
        assert not FULL_INTERVAL.overlaps(EMPTY_INTERVAL)


class TestAlgebra:
    def test_intersection(self):
        result = Interval.make(0, 5).intersect(Interval.make(3, 8))
        assert result == Interval.make(3, 5)

    def test_intersection_disjoint_is_empty(self):
        assert Interval.make(0, 1).intersect(Interval.make(4, 5)).is_empty

    def test_intersection_with_full_is_identity(self):
        iv = Interval.make(2, 7)
        assert FULL_INTERVAL.intersect(iv) == iv

    def test_clip(self):
        assert FULL_INTERVAL.clip(0, 10) == Interval.make(0, 10)
        assert Interval.make(-5, 5).clip(0, 10) == Interval.make(0, 5)

    def test_length(self):
        assert Interval.make(1, 4).length == 3.0
        assert EMPTY_INTERVAL.length == 0.0
        assert math.isinf(FULL_INTERVAL.length)


class TestCellRange:
    """Grid overlap: cells are (origin + i*w, origin + (i+1)*w]."""

    def test_interval_within_one_cell(self):
        assert list(Interval.make(0.2, 0.8).cell_range(0.0, 1.0, 5)) == [0]

    def test_interval_spanning_cells(self):
        assert list(Interval.make(0.5, 2.5).cell_range(0.0, 1.0, 5)) == [0, 1, 2]

    def test_exact_boundaries(self):
        # (1, 3] overlaps exactly cells 1 and 2: cell 1 = (1,2], cell 2 = (2,3]
        assert list(Interval.make(1.0, 3.0).cell_range(0.0, 1.0, 5)) == [1, 2]

    def test_lower_boundary_excluded(self):
        # (0, 1] is exactly cell 0; the open lower end does not reach cell -1
        assert list(Interval.make(0.0, 1.0).cell_range(0.0, 1.0, 5)) == [0]

    def test_unbounded_interval_clipped_to_grid(self):
        assert list(FULL_INTERVAL.cell_range(0.0, 1.0, 3)) == [0, 1, 2]

    def test_outside_grid(self):
        assert list(Interval.make(10, 20).cell_range(0.0, 1.0, 5)) == []
        assert list(Interval.make(-5, -1).cell_range(0.0, 1.0, 5)) == []

    def test_empty_interval(self):
        assert list(EMPTY_INTERVAL.cell_range(0.0, 1.0, 5)) == []

    def test_upper_edge_partially_outside(self):
        assert list(Interval.make(3.5, 99).cell_range(0.0, 1.0, 5)) == [3, 4]

    def test_nonunit_width_and_origin(self):
        # cells of width 2 starting at origin -1: (-1,1], (1,3], (3,5]
        assert list(Interval.make(0.0, 3.0).cell_range(-1.0, 2.0, 3)) == [0, 1]

    def test_agrees_with_bruteforce(self):
        """cell_range matches per-cell overlap checks for many intervals."""
        import itertools

        origin, width, n = -1.0, 1.0, 8
        cells = [
            Interval.make(origin + i * width, origin + (i + 1) * width)
            for i in range(n)
        ]
        grid_points = [x * 0.5 for x in range(-6, 20)]
        for lo, hi in itertools.product(grid_points, grid_points):
            iv = Interval.make(lo, hi)
            expected = [i for i, c in enumerate(cells) if c.overlaps(iv)]
            assert list(iv.cell_range(origin, width, n)) == expected, (lo, hi)
