"""Unit tests for the gridded event space."""

import numpy as np
import pytest

from repro.geometry import Dimension, EventSpace, Interval, Rectangle

from tests.helpers import locate


def cell_of(dimension, x):
    """Cell index of coordinate ``x`` along one dimension (-1 outside)."""
    return locate(EventSpace([dimension]), (x,))


class TestDimension:
    def test_counts(self):
        d = Dimension("attr", 0, 20)
        assert d.n_cells == 21
        assert list(d.values()) == list(range(21))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Dimension("bad", 5, 2)

    def test_domain_interval(self):
        d = Dimension("attr", 0, 4)
        assert d.domain == Interval.make(-1, 4)
        assert d.domain.contains(0) and d.domain.contains(4)
        assert not d.domain.contains(-1)

    def test_cell_of(self):
        d = Dimension("attr", 0, 4)
        # integer lattice values map to their own cell
        for v in range(5):
            assert cell_of(d, v) == v
        # cell i covers (i-1, i]
        assert cell_of(d, 2.5) == 3
        assert cell_of(d, -0.5) == 0
        assert cell_of(d, -1.0) == -1  # open lower edge of the domain
        assert cell_of(d, 4.5) == -1

    def test_cell_of_with_offset_lo(self):
        d = Dimension("attr", 10, 14)
        assert cell_of(d, 10) == 0
        assert cell_of(d, 14) == 4
        assert cell_of(d, 9) == -1

    def test_clip_value(self):
        d = Dimension("attr", 0, 4)
        assert d.clip_value(-3.7) == 0
        assert d.clip_value(9.2) == 4
        assert d.clip_value(2.4) == 2


class TestEventSpace:
    def test_shape_and_count(self, tiny_space):
        assert tiny_space.shape == (5, 5)
        assert tiny_space.n_cells == 25
        assert tiny_space.n_dims == 2

    def test_flat_index_roundtrip(self, tiny_space):
        """Each cell's lattice point locates back to its flat index."""
        indices = np.arange(tiny_space.n_cells)
        points = [tiny_space.cell_value(index) for index in indices]
        np.testing.assert_array_equal(tiny_space.locate_batch(points), indices)

    def test_flat_index_matches_numpy(self, tiny_space):
        for coords in [(0, 0), (1, 2), (4, 4), (3, 0)]:
            index = int(np.ravel_multi_index(coords, tiny_space.shape))
            assert tiny_space.cell_coords(index) == coords

    def test_index_bounds_checked(self, tiny_space):
        with pytest.raises(IndexError):
            tiny_space.cell_coords(25)
        with pytest.raises(ValueError):
            tiny_space.locate_batch([(0,)])

    def test_locate_lattice_points(self, tiny_space):
        for x in range(5):
            for y in range(5):
                index = locate(tiny_space, (x, y))
                assert tiny_space.cell_value(index) == (x, y)

    def test_locate_outside(self, tiny_space):
        assert locate(tiny_space, (-2, 0)) == -1
        assert locate(tiny_space, (0, 7)) == -1

    def test_cell_rectangle_contains_its_value(self, tiny_space):
        for index in range(tiny_space.n_cells):
            rect = tiny_space.cell_rectangle(index)
            assert rect.contains(tiny_space.cell_value(index))

    def test_cell_rectangles_partition_space(self, tiny_space):
        """Every in-domain point belongs to exactly one cell rectangle."""
        points = [(0.3, 2.7), (4.0, 0.0), (1.5, 1.5), (-0.99, 3.2)]
        for p in points:
            hits = [
                i
                for i in range(tiny_space.n_cells)
                if tiny_space.cell_rectangle(i).contains(p)
            ]
            assert len(hits) == 1
            assert hits[0] == locate(tiny_space, p)

    def test_cells_overlapping_full_domain(self, tiny_space):
        rect = tiny_space.domain()
        assert sorted(tiny_space.cells_in_rectangle(rect)) == list(range(25))

    def test_cells_overlapping_sub_rectangle(self, tiny_space):
        # (0,2] x (0,2] covers lattice values {1,2} x {1,2}
        rect = Rectangle((Interval.make(0, 2), Interval.make(0, 2)))
        cells = sorted(tiny_space.cells_in_rectangle(rect))
        values = {tiny_space.cell_value(c) for c in cells}
        assert values == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_cells_overlapping_outside(self, tiny_space):
        rect = Rectangle((Interval.make(10, 12), Interval.make(0, 2)))
        assert list(tiny_space.cells_in_rectangle(rect)) == []

    def test_cell_slices_rejects_mismatched_rect(self, tiny_space):
        with pytest.raises(ValueError):
            tiny_space.cell_slices(Rectangle.full(3))

    def test_clip_point(self, tiny_space):
        assert tiny_space.clip_point((-3.0, 9.0)) == (0, 4)
        assert tiny_space.clip_point((2.4, 1.6)) == (2, 2)

    def test_cells_overlapping_agrees_with_rect_overlap(self, tiny_space):
        """cells_in_rectangle returns exactly the cells whose rectangle
        overlaps the query rectangle."""
        rect = Rectangle((Interval.make(0.5, 3.0), Interval.make(-0.5, 1.0)))
        expected = [
            i
            for i in range(tiny_space.n_cells)
            if tiny_space.cell_rectangle(i).overlaps(rect)
        ]
        assert sorted(tiny_space.cells_in_rectangle(rect)) == expected
