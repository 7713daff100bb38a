"""The run-form region stab of the No-Loss matcher (Figure 6).

``NoLossMatcher.regions_of`` locates a whole run of points among the
retained regions with one point-test call (the native ``match_run`` or
the numpy broadcast of ``repro.workload.stab_run``).  For every point it
must pick ``min{r : lo_r < x <= hi_r}`` — regions are stored heaviest
first — or ``-1`` when no region contains the point, on every kernel
backend.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import NoLossResult
from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.kernels import available_backends, set_backend
from repro.kernels import backends as _backends
from repro.matching import NoLossMatcher

from tests.helpers import make_subscription_set, noloss_match


def first_containing(los, his, point):
    """The reference rule: the smallest region index containing the
    point under ``(lo, hi]`` sides, or -1."""
    for r, (lo, hi) in enumerate(zip(los, his)):
        if all(a < x <= b for a, b, x in zip(lo, hi, point)):
            return r
    return -1


def matcher_for(los, his, dims=2):
    """A No-Loss matcher over the given region rows (one group each)."""
    los = np.asarray(los, dtype=np.float64).reshape(-1, dims)
    his = np.asarray(his, dtype=np.float64).reshape(-1, dims)
    space = EventSpace([Dimension(f"a{d}", 0, 9) for d in range(dims)])
    subs = make_subscription_set(space, [(0, [(-1.0, 9.0)] * dims)])
    members = [np.array([0], dtype=np.int64) for _ in range(len(los))]
    result = NoLossResult(
        space=space,
        los=los,
        his=his,
        weights=np.linspace(1.0, 0.5, len(los)),
        members=members,
        group_of=np.arange(len(los), dtype=np.int64),
        group_members=members,
    )
    return NoLossMatcher(result, subs)


def first_rectangle(rects, point):
    """The same rule stated on ``Rectangle.contains``: the first
    rectangle that holds the point, or -1."""
    return next((i for i, r in enumerate(rects) if r.contains(point)), -1)


def matcher_for_rectangles(rects):
    """A No-Loss matcher whose regions are the given rectangles."""
    bounds = [r.bounds() for r in rects]
    return matcher_for(
        [lo for lo, _ in bounds],
        [hi for _, hi in bounds],
        dims=rects[0].dimensions,
    )


def on_each_backend(check):
    """Run ``check(backend)`` under every usable kernel backend."""
    try:
        for name in available_backends():
            set_backend(name)
            check(name)
    finally:
        _backends._reset_for_testing()


# coordinates on a half-unit lattice, so points land on region faces
coords = st.integers(min_value=-2, max_value=20).map(lambda v: v / 2)
ends = st.one_of(coords, st.just(-math.inf), st.just(math.inf))


@st.composite
def region_rows(draw, dims=2):
    """Up to 12 possibly overlapping, possibly unbounded or empty rows."""
    n = draw(st.integers(min_value=0, max_value=12))
    los, his = [], []
    for _ in range(n):
        lo, hi = [], []
        for _ in range(dims):
            a, b = draw(ends), draw(ends)
            lo.append(min(a, b))
            hi.append(max(a, b))
        los.append(lo)
        his.append(hi)
    return los, his


@st.composite
def bounded_rectangles(draw, dims=2, span=10):
    sides = []
    for _ in range(dims):
        lo = round(draw(st.floats(min_value=-1, max_value=span)), 3)
        width = round(draw(st.floats(min_value=0.0, max_value=span)), 3)
        sides.append(Interval.make(lo, lo + width))
    return Rectangle(tuple(sides))


class TestRegionStabProperties:
    @settings(max_examples=60, deadline=None)
    @given(region_rows(), st.lists(st.tuples(coords, coords), max_size=16))
    def test_picks_first_containing_region(self, rows, points):
        los, his = rows
        # every region's lo and hi corner (points on the faces), too
        points = list(points) + [tuple(lo) for lo in los] + [
            tuple(hi) for hi in his
        ]
        points = [p for p in points if all(math.isfinite(x) for x in p)]
        expected = [first_containing(los, his, p) for p in points]
        matcher = matcher_for(los, his)

        def check(backend):
            assert matcher.regions_of(points) == expected, backend

        on_each_backend(check)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(bounded_rectangles(), min_size=1, max_size=40),
        st.lists(
            st.tuples(
                st.floats(min_value=-2, max_value=22),
                st.floats(min_value=-2, max_value=22),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_matches_rectangle_contains(self, rects, points):
        expected = [first_rectangle(rects, p) for p in points]
        matcher = matcher_for_rectangles(rects)

        def check(backend):
            assert matcher.regions_of(points) == expected, backend

        on_each_backend(check)


class TestRegionStab:
    def test_half_open_semantics(self):
        matcher = matcher_for([[0, 0]], [[2, 2]])

        def check(backend):
            # closed upper faces, open lower faces
            assert matcher.regions_of([(2, 2), (0, 1), (1, 0)]) == [0, -1, -1]

        on_each_backend(check)

    def test_single_one_dimensional_region(self):
        matcher = matcher_for([[0]], [[5]], dims=1)

        def check(backend):
            assert matcher.regions_of([(3,), (5,), (0,), (6,)]) == [
                0,
                0,
                -1,
                -1,
            ]

        on_each_backend(check)

    def test_point_outside_every_region(self):
        matcher = matcher_for([[0, 0]], [[1, 1]])

        def check(backend):
            assert matcher.regions_of([(50, 50)]) == [-1]

        on_each_backend(check)

    def test_unbounded_sides(self):
        inf = math.inf
        matcher = matcher_for([[-inf, 0], [5, -inf]], [[inf, 1], [inf, inf]])

        def check(backend):
            assert matcher.regions_of(
                [(1e9, 0.5), (-1e9, 0.5), (10, 99), (0, 99)]
            ) == [0, 0, 1, -1]

        on_each_backend(check)

    def test_overlapping_regions_pick_the_heaviest(self):
        # region 0 is the heaviest; 1 duplicates it, 2 nests inside it
        matcher = matcher_for(
            [[0, 0], [0, 0], [1, 1], [6, 6]], [[5, 5], [5, 5], [2, 2], [9, 9]]
        )

        def check(backend):
            assert matcher.regions_of(
                [(1.5, 1.5), (5, 5), (7, 7), (5.5, 5.5)]
            ) == [0, 0, 3, -1]

        on_each_backend(check)

    def test_empty_result_stabs_nothing(self):
        matcher = matcher_for([], [])

        def check(backend):
            assert matcher.regions_of([(1, 1), (3, 4)]) == [-1, -1]
            assert matcher.regions_of([]) == []
            plans = matcher.match_batch([(1, 1)])
            assert not plans[0].uses_multicast

        on_each_backend(check)

    def test_point_arity_checked(self):
        matcher = matcher_for([[0, 0]], [[2, 2]])
        with pytest.raises(ValueError):
            matcher.regions_of([(1, 2, 3)])

    def test_matches_linear_scan(self, rng):
        """Many random 3-d regions: the run stab equals the per-point
        linear scan of ``tests.helpers.noloss_match``."""
        span = 20.0
        lo = rng.uniform(-1, span, size=(300, 3))
        his = lo + rng.uniform(0.1, span / 2, size=(300, 3))
        wild = rng.random((300, 3))
        lo[wild < 0.1] = -math.inf
        his[(wild >= 0.1) & (wild < 0.2)] = math.inf
        matcher = matcher_for(lo, his, dims=3)
        points = rng.uniform(-2, 22, size=(200, 3))
        expected = [noloss_match(matcher.result, p) for p in points]
        assert sum(r >= 0 for r in expected) > 0

        def check(backend):
            assert matcher.regions_of(points) == expected, backend

        on_each_backend(check)

    def test_many_regions_match_rectangle_contains(self, rng):
        """1000 overlapping 2-d regions: the run stab picks the first
        rectangle that ``Rectangle.contains`` says holds each point."""
        lo = rng.uniform(-1, 10, size=(1000, 2))
        hi = lo + rng.uniform(0.1, 5, size=(1000, 2))
        rects = [Rectangle.from_bounds(a, b) for a, b in zip(lo, hi)]
        matcher = matcher_for_rectangles(rects)
        points = [tuple(p) for p in rng.uniform(0, 10, size=(50, 2))]
        expected = [first_rectangle(rects, p) for p in points]
        assert sum(r >= 0 for r in expected) > 0

        def check(backend):
            assert matcher.regions_of(points) == expected, backend

        on_each_backend(check)
