"""Unit tests for the R-tree stabbing index and the containment algebra
of the rectangles it indexes."""

import numpy as np
import pytest

from repro.geometry import Interval, Rectangle
from repro.matching import RTree


def random_rectangles(rng, n, dims=3, span=20.0):
    rects = []
    for _ in range(n):
        sides = []
        for _ in range(dims):
            kind = rng.random()
            if kind < 0.1:
                sides.append(Interval.full())
            elif kind < 0.2:
                sides.append(Interval.greater_than(rng.uniform(0, span)))
            elif kind < 0.3:
                sides.append(Interval.at_most(rng.uniform(0, span)))
            else:
                lo = rng.uniform(-1, span)
                sides.append(Interval.make(lo, lo + rng.uniform(0.1, span / 2)))
        rects.append(Rectangle(tuple(sides)))
    return rects


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RTree([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            RTree([Rectangle.full(2), Rectangle.full(3)])

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RTree([Rectangle.full(2)], leaf_capacity=0)

    def test_len(self, rng):
        rects = random_rectangles(rng, 40)
        assert len(RTree(rects)) == 40

    def test_height_grows_logarithmically(self, rng):
        rects = random_rectangles(rng, 256, dims=2)
        tree = RTree(rects, leaf_capacity=4)
        # 256 entries, fanout 2, capacity 4: expect height ~ log2(64)+1
        assert tree.height() <= 10

    def test_from_bounds(self):
        tree = RTree.from_bounds(
            np.array([[0.0, 0.0], [5.0, 5.0]]),
            np.array([[2.0, 2.0], [9.0, 9.0]]),
        )
        assert list(tree.stab((1, 1))) == [0]
        assert list(tree.stab((6, 6))) == [1]


class TestStabbing:
    def test_matches_brute_force(self, rng):
        rects = random_rectangles(rng, 300, dims=3)
        tree = RTree(rects, leaf_capacity=8)
        for _ in range(200):
            point = tuple(rng.uniform(-2, 22, size=3))
            expected = [
                i for i, r in enumerate(rects) if r.contains(point)
            ]
            assert list(tree.stab(point)) == expected

    def test_half_open_semantics(self):
        tree = RTree([Rectangle.from_bounds((0, 0), (2, 2))])
        assert list(tree.stab((2, 2))) == [0]  # closed upper
        assert list(tree.stab((0, 1))) == []  # open lower

    def test_unbounded_rectangles(self):
        tree = RTree(
            [
                Rectangle((Interval.full(), Interval.make(0, 1))),
                Rectangle((Interval.greater_than(5), Interval.full())),
            ]
        )
        assert list(tree.stab((1e9, 0.5))) == [0, 1]
        assert list(tree.stab((-1e9, 0.5))) == [0]
        assert list(tree.stab((10, 99))) == [1]

    def test_no_hits(self, rng):
        rects = [Rectangle.from_bounds((0, 0), (1, 1))]
        tree = RTree(rects)
        assert len(tree.stab((50, 50))) == 0

    def test_point_arity_checked(self):
        tree = RTree([Rectangle.full(2)])
        with pytest.raises(ValueError):
            tree.stab((1, 2, 3))

    def test_duplicate_rectangles_all_reported(self):
        rect = Rectangle.from_bounds((0, 0), (5, 5))
        tree = RTree([rect, rect, rect])
        assert list(tree.stab((1, 1))) == [0, 1, 2]

    def test_single_rectangle_tree(self):
        tree = RTree([Rectangle.from_bounds((0,), (5,))])
        assert list(tree.stab((3,))) == [0]
        assert tree.height() == 1

    def test_large_tree_consistency(self, rng):
        """Stabbing results stay correct when the tree has many levels."""
        rects = random_rectangles(rng, 1000, dims=2, span=10.0)
        tree = RTree(rects, leaf_capacity=4)
        hits = 0
        for _ in range(50):
            point = tuple(rng.uniform(0, 10, size=2))
            expected = [i for i, r in enumerate(rects) if r.contains(point)]
            got = list(tree.stab(point))
            assert got == expected
            hits += len(got)
        assert hits > 0  # the test actually exercised matches


def containing(rects, query):
    """Indices of the rectangles that contain ``query``."""
    return [i for i, r in enumerate(rects) if r.contains_rectangle(query)]


def contained_in(rects, query):
    """Indices of the rectangles that ``query`` contains."""
    return [i for i, r in enumerate(rects) if query.contains_rectangle(r)]


class TestContainmentQueries:
    """The containment algebra of the rectangles an R-tree indexes.

    The tree itself answers point stabs only; containment between
    rectangles is ``Rectangle.contains_rectangle``, pinned here on
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
