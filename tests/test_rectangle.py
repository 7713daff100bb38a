"""Unit tests for aligned rectangles, and the containment algebra of
the ``contains_rectangle`` oracle in ``tests/helpers.py``."""

import pytest

from repro.geometry import Interval, Rectangle

from tests.helpers import contains_rectangle


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
        assert contains_rectangle(outer, rect((1, 5), (2, 6)))
        assert not contains_rectangle(outer, rect((1, 11), (2, 6)))
        assert contains_rectangle(outer, Rectangle.empty(2))

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
    def test_bounds_roundtrip(self):
        r = rect((0, 2), (1, 3))
        los, his = r.bounds()
        assert Rectangle.from_bounds(los, his) == r


def containing(rects, query):
    """Indices of the rectangles that contain ``query``."""
    return [i for i, r in enumerate(rects) if contains_rectangle(r, query)]


def contained_in(rects, query):
    """Indices of the rectangles that ``query`` contains."""
    return [i for i, r in enumerate(rects) if contains_rectangle(query, r)]


class TestContainmentQueries:
    """The containment algebra of the ``contains_rectangle`` oracle
    (``TestBlockMassProperties`` sums cell masses with it), pinned on
    hand-laid nests: half-open ``(lo, hi]`` sides, shared faces count,
    an empty rectangle lies inside everything and contains nothing
    non-empty.
    """

    @pytest.fixture(scope="class")
    def nested(self):
        """A hand-laid nest: 0 ⊃ 1 ⊃ 2, 3 disjoint, 4 == 1, 5 empty."""
        return [
            Rectangle.from_bounds((0, 0), (10, 10)),   # 0: outermost
            Rectangle.from_bounds((2, 2), (8, 8)),     # 1: middle
            Rectangle.from_bounds((3, 3), (5, 5)),     # 2: innermost
            Rectangle.from_bounds((20, 20), (30, 30)),  # 3: disjoint
            Rectangle.from_bounds((2, 2), (8, 8)),     # 4: duplicate of 1
            Rectangle.from_bounds((4, 4), (4, 9)),     # 5: empty (x side)
        ]

    def test_nested_containing(self, nested):
        assert containing(nested, nested[2]) == [0, 1, 2, 4]
        assert containing(nested, nested[1]) == [0, 1, 4]
        assert containing(nested, nested[0]) == [0]
        assert containing(nested, nested[3]) == [3]

    def test_nested_contained_in(self, nested):
        # the empty rectangle 5 is a subset of every query
        assert contained_in(nested, nested[0]) == [0, 1, 2, 4, 5]
        assert contained_in(nested, nested[1]) == [1, 2, 4, 5]
        assert contained_in(nested, nested[2]) == [2, 5]
        assert contained_in(nested, nested[3]) == [3, 5]

    def test_identical_rectangles_contain_each_other(self, nested):
        hits = containing(nested, nested[4])
        assert 1 in hits and 4 in hits

    def test_empty_query_contained_in_everything(self, nested):
        empty = Rectangle.from_bounds((7, 7), (7, 9))
        assert containing(nested, empty) == list(range(len(nested)))
        # and nothing non-empty fits inside an empty query
        assert contained_in(nested, empty) == [5]

    def test_empty_stored_rectangle_never_contains(self, nested):
        probe = Rectangle.from_bounds((4, 4.5), (4.2, 5.0))
        assert 5 not in containing(nested, probe)

    def test_exact_boundary_touching_counts(self):
        """Shared faces still count as containment (half-open algebra)."""
        outer = Rectangle.from_bounds((0, 0), (10, 10))
        flush = Rectangle.from_bounds((0, 0), (10, 5))  # shares 3 faces
        inner = Rectangle.from_bounds((0, 5), (10, 10))
        rects = [outer, flush, inner]
        assert containing(rects, flush) == [0, 1]
        assert containing(rects, inner) == [0, 2]
        assert contained_in(rects, outer) == [0, 1, 2]
        # flush and inner only touch: neither contains the other
        assert containing(rects, Rectangle.from_bounds((0, 4), (10, 6))) \
            == [0]

    def test_degenerate_point_like_query(self):
        """A zero-volume query is empty under (lo, hi] semantics and is
        therefore inside everything."""
        rects = [Rectangle.from_bounds((0, 0), (10, 10))]
        point_like = Rectangle.from_bounds((5, 5), (5, 5))
        assert containing(rects, point_like) == [0]

    def test_unbounded_sides(self):
        slab = Rectangle((Interval.full(), Interval.make(0, 1)))
        quadrant = Rectangle(
            (Interval.greater_than(5), Interval.make(0, 1))
        )
        box = Rectangle.from_bounds((6, 0), (9, 1))
        rects = [slab, quadrant, box]
        assert containing(rects, box) == [0, 1, 2]
        assert containing(rects, quadrant) == [0, 1]
        assert containing(rects, slab) == [0]
        assert contained_in(rects, slab) == [0, 1, 2]
