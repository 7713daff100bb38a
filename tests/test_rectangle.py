"""Unit tests for aligned rectangles."""

import pytest

from repro.geometry import Interval, Rectangle


def rect(*bounds):
    return Rectangle(tuple(Interval.make(lo, hi) for lo, hi in bounds))


class TestConstruction:
    def test_from_bounds(self):
        r = Rectangle.from_bounds([0, 1], [2, 3])
        assert r.dimensions == 2
        assert r.sides[0] == Interval.make(0, 2)
        assert r.sides[1] == Interval.make(1, 3)

    def test_from_bounds_length_mismatch(self):
        with pytest.raises(ValueError):
            Rectangle.from_bounds([0], [1, 2])

    def test_needs_a_dimension(self):
        with pytest.raises(ValueError):
            Rectangle(())

    def test_full_and_empty(self):
        assert Rectangle.full(3).contains((0, 100, -100))
        assert Rectangle.empty(3).is_empty

    def test_accepts_list_of_sides(self):
        r = Rectangle([Interval.make(0, 1), Interval.make(0, 1)])
        assert isinstance(r.sides, tuple)


class TestPredicates:
    def test_contains_point(self):
        r = rect((0, 2), (0, 2))
        assert r.contains((1, 1))
        assert r.contains((2, 2))
        assert not r.contains((0, 1))  # open lower end in dim 0
        assert (1, 2) in r

    def test_contains_checks_arity(self):
        with pytest.raises(ValueError):
            rect((0, 1), (0, 1)).contains((0.5,))

    def test_empty_if_any_side_empty(self):
        r = Rectangle((Interval.make(0, 1), Interval.empty()))
        assert r.is_empty
        assert not r.contains((0.5, 0.5))

    def test_contains_rectangle(self):
        outer = rect((0, 10), (0, 10))
        assert outer.contains_rectangle(rect((1, 5), (2, 6)))
        assert not outer.contains_rectangle(rect((1, 11), (2, 6)))
        assert outer.contains_rectangle(Rectangle.empty(2))

    def test_overlaps(self):
        a = rect((0, 2), (0, 2))
        assert a.overlaps(rect((1, 3), (1, 3)))
        assert not a.overlaps(rect((5, 6), (0, 2)))
        # touching along a face: half-open => no shared point
        assert not a.overlaps(rect((2, 4), (0, 2)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            rect((0, 1)).overlaps(rect((0, 1), (0, 1)))


class TestAlgebra:
    def test_intersect(self):
        a = rect((0, 4), (0, 4))
        b = rect((2, 6), (1, 3))
        assert a.intersect(b) == rect((2, 4), (1, 3))

    def test_intersect_disjoint_is_empty(self):
        assert rect((0, 1), (0, 1)).intersect(rect((3, 4), (0, 1))).is_empty

    def test_hull(self):
        a = rect((0, 1), (0, 1))
        b = rect((3, 4), (2, 5))
        assert a.hull(b) == rect((0, 4), (0, 5))
        assert Rectangle.empty(2).hull(a) == a

    def test_bounds_roundtrip(self):
        r = rect((0, 2), (1, 3))
        los, his = r.bounds()
        assert Rectangle.from_bounds(los, his) == r

    def test_intersection_commutes_with_membership(self):
        """A point is in a∩b iff it is in both a and b (spot grid)."""
        a = rect((0, 3), (1, 4))
        b = rect((1.5, 5), (0, 2.5))
        c = a.intersect(b)
        for x in range(-1, 7):
            for y in range(-1, 7):
                p = (x * 0.5, y * 0.5)
                assert c.contains(p) == (a.contains(p) and b.contains(p))
