"""Unit tests for the grid-based framework preprocessing (section 4.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Dimension, EventSpace, Interval, Rectangle
from repro.grid import (
    CellSet,
    build_cell_set,
    cell_set_from_membership,
    pack_membership,
)
from repro.grid.cells import (
    _big_endian_words,
    _byte_order,
    _group_equal_rows,
    _seen_groups,
)
from repro.kernels import available_backends, set_backend
from repro.kernels import backends as _backends
from repro.workload import Subscription, SubscriptionSet

from tests.helpers import (
    build_membership_matrix,
    cell_value,
    locate,
    make_subscription_set,
    packed_rows,
    subscribers_of,
    top_by_popularity,
)


@pytest.fixture
def space():
    return EventSpace([Dimension("x", 0, 4), Dimension("y", 0, 4)])


@pytest.fixture
def subs(space):
    return make_subscription_set(
        space,
        [
            (0, [(-1, 2), (-1, 2)]),  # lattice values {0,1,2} x {0,1,2}
            (1, [(1, 4), (1, 4)]),    # {2,3,4} x {2,3,4}
            (2, [(-1, 2), (-1, 2)]),  # identical footprint to subscriber 0
        ],
    )


@pytest.fixture
def uniform_pmf(space):
    return np.full(space.n_cells, 1.0 / space.n_cells)


class TestMembershipMatrix:
    def test_matches_per_point_matching(self, space, subs):
        matrix = build_membership_matrix(space, subs)
        assert matrix.shape == (space.n_cells, 3)
        for cell in range(space.n_cells):
            point = cell_value(space, cell)
            expected = set(subs.interested_subscribers(point))
            assert set(np.nonzero(matrix[cell])[0]) == expected

    def test_wildcard_covers_all_cells(self, space):
        subs = make_subscription_set(
            space, [(0, [(-math.inf, math.inf), (-math.inf, math.inf)])]
        )
        matrix = build_membership_matrix(space, subs)
        assert matrix.all()

    def test_rectangle_outside_grid_matches_nothing(self, space):
        subs = make_subscription_set(
            space, [(0, [(50, 60), (0, 4)]), (1, [(0, 4), (0, 4)])]
        )
        matrix = build_membership_matrix(space, subs)
        assert not matrix[:, 0].any()
        assert matrix[:, 1].any()

    def test_multiple_rectangles_per_subscriber_union(self, space):
        subs = SubscriptionSet(
            space,
            [
                Subscription(0, 0, Rectangle.from_bounds((-1, -1), (0, 0))),
                Subscription(0, 0, Rectangle.from_bounds((3, 3), (4, 4))),
            ],
        )
        matrix = build_membership_matrix(space, subs)
        covered = {cell_value(space, c) for c in np.nonzero(matrix[:, 0])[0]}
        assert covered == {(0, 0), (4, 4)}


class TestHyperCells:
    def test_identical_membership_merged(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        # membership rows are unique
        rows = {tuple(row) for row in cells.membership}
        assert len(rows) == len(cells)

    def test_empty_cells_dropped(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        assert cells.membership.any(axis=1).all()
        # cells not covered by any subscription map to -1
        uncovered = locate(space, (0, 4))  # x in {0..2} band? (0,4): sub0 no (y=4), sub1 no (x=0)
        assert cells.hypercell_of_cell[uncovered] == -1

    def test_probability_conserved(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        covered_mass = sum(
            uniform_pmf[c] for c in range(space.n_cells)
            if cells.hypercell_of_cell[c] >= 0
        )
        assert cells.probs.sum() == pytest.approx(covered_mass)

    def test_cell_ids_partition_covered_cells(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        seen = []
        for h, ids in enumerate(cells.cell_ids):
            for c in ids:
                assert cells.hypercell_of_cell[c] == h
                seen.append(int(c))
        assert len(seen) == len(set(seen))

    def test_membership_consistent_with_cells(self, space, subs, uniform_pmf):
        """A hyper-cell's membership equals its member cells' membership."""
        matrix = build_membership_matrix(space, subs)
        cells = build_cell_set(space, subs, uniform_pmf)
        for h, ids in enumerate(cells.cell_ids):
            for c in ids:
                np.testing.assert_array_equal(matrix[c], cells.membership[h])

    def test_popularity(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        np.testing.assert_allclose(
            cells.popularity, cells.probs * cells.membership.sum(axis=1)
        )

    def test_subscribers_of(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        for h in range(len(cells)):
            expected = np.nonzero(cells.membership[h])[0]
            np.testing.assert_array_equal(subscribers_of(cells, h), expected)


class TestSelection:
    def test_max_cells_keeps_most_popular(self, space, subs, uniform_pmf):
        full = build_cell_set(space, subs, uniform_pmf)
        if len(full) < 2:
            pytest.skip("need at least two hyper-cells")
        top = build_cell_set(space, subs, uniform_pmf, max_cells=1)
        assert len(top) == 1
        assert top.popularity[0] == pytest.approx(full.popularity.max())

    def test_top_by_popularity_noop_when_large(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        assert top_by_popularity(cells, 10**6) is cells

    def test_subset_mapping_updated(self, space, subs, uniform_pmf):
        top = build_cell_set(space, subs, uniform_pmf, max_cells=1)
        mapped = np.nonzero(top.hypercell_of_cell >= 0)[0]
        assert sorted(mapped) == sorted(top.cell_ids[0])

    def test_pmf_shape_validated(self, space, subs):
        with pytest.raises(ValueError):
            build_cell_set(space, subs, np.ones(3))

    def test_no_coverage_raises(self, space):
        subs = make_subscription_set(space, [(0, [(50, 60), (50, 60)])])
        with pytest.raises(ValueError):
            build_cell_set(
                space, subs, np.full(space.n_cells, 1 / space.n_cells)
            )


class TestCellSetValidation:
    def test_inconsistent_arrays_rejected(self, space, subs, uniform_pmf):
        cells = build_cell_set(space, subs, uniform_pmf)
        with pytest.raises(ValueError):
            CellSet(
                space=space,
                membership=cells.membership,
                probs=cells.probs[:-1],
                cell_ids=cells.cell_ids,
                hypercell_of_cell=cells.hypercell_of_cell,
            )


def _reference_cell_set(space, membership, cell_pmf, max_cells):
    """The hyper-cell build as first written: ``np.unique`` over the
    bit-packed rows, per-cell lists for every hyper-cell, then
    :func:`tests.helpers.top_by_popularity`."""
    nonempty = np.nonzero(membership.any(axis=1))[0]
    packed = np.packbits(membership[nonempty], axis=1)
    _, first_idx, inverse = np.unique(
        packed, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    probs = np.zeros(len(first_idx), dtype=np.float64)
    np.add.at(probs, inverse, cell_pmf[nonempty])
    order = np.argsort(inverse, kind="stable")
    boundaries = np.flatnonzero(np.diff(inverse[order])) + 1
    cell_ids = np.split(nonempty[order], boundaries)
    mapping = np.full(space.n_cells, -1, dtype=np.int32)
    for h, ids in enumerate(cell_ids):
        mapping[ids] = h
    cells = CellSet(
        space=space,
        membership=membership[nonempty[first_idx]],
        probs=probs,
        cell_ids=cell_ids,
        hypercell_of_cell=mapping,
    )
    if max_cells is not None:
        cells = top_by_popularity(cells, max_cells)
    return cells


@st.composite
def _membership_inputs(draw):
    """A grid, a membership matrix with repeated, empty and (sometimes)
    a single non-empty row, and a pmf that may force popularity ties."""
    n_cols = draw(st.sampled_from([1, 7, 8, 63, 64, 65, 300]))
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    space = EventSpace([Dimension("x", 0, nx - 1), Dimension("y", 0, ny - 1)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cells = space.n_cells
    if draw(st.booleans()):
        # few distinct patterns, so many rows repeat
        patterns = rng.random((draw(st.integers(1, 6)), n_cols)) < 0.5
        membership = patterns[rng.integers(len(patterns), size=n_cells)]
    else:
        membership = rng.random((n_cells, n_cols)) < draw(
            st.sampled_from([0.02, 0.2, 0.5])
        )
    membership &= rng.random((n_cells, 1)) < draw(
        st.sampled_from([0.0, 0.5, 1.0])
    )
    if not membership.any():
        # the only non-empty row
        membership[rng.integers(n_cells), rng.integers(n_cols)] = True
    pmf_kind = draw(st.sampled_from(["uniform", "coarse", "random"]))
    if pmf_kind == "uniform":
        cell_pmf = np.full(n_cells, 1.0 / n_cells)
    elif pmf_kind == "coarse":
        cell_pmf = rng.choice([0.0, 0.25, 0.5], size=n_cells)
    else:
        cell_pmf = rng.random(n_cells)
    return space, membership, cell_pmf, draw(st.integers(0, 10**6))


class TestHyperCellOracle:
    """``cell_set_from_membership`` equals the ``np.unique`` build plus
    ``top_by_popularity``, field by field and bit for bit, on every
    backend."""

    def test_popularity_ties_keep_byte_order(self):
        """Equally popular hyper-cells first seen in the reverse of their
        byte order: the cut keeps the byte-smallest, as the reference's
        stable sort over lexicographically numbered groups does."""
        space = EventSpace([Dimension("x", 0, 3)])
        n_cells = space.n_cells
        # cell c holds subscriber c alone: packed rows 0x80, 0x40, ...
        membership = np.zeros((n_cells, n_cells), dtype=bool)
        membership[np.arange(n_cells), np.arange(n_cells)] = True
        cell_pmf = np.full(n_cells, 1.0 / n_cells)
        expected = _reference_cell_set(space, membership, cell_pmf, 2)
        assert [ids.tolist() for ids in expected.cell_ids] == [
            [n_cells - 1], [n_cells - 2]
        ]
        for _ in _every_backend():
            got = cell_set_from_membership(
                space, *packed_rows(membership), cell_pmf, max_cells=2
            )
            np.testing.assert_array_equal(got.membership, expected.membership)
            assert [ids.tolist() for ids in got.cell_ids] == [
                ids.tolist() for ids in expected.cell_ids
            ]
            np.testing.assert_array_equal(
                got.hypercell_of_cell, expected.hypercell_of_cell
            )

    @settings(max_examples=150, deadline=None)
    @given(
        _membership_inputs(),
        st.sampled_from(["none", "below", "at", "above"]),
    )
    def test_matches_unique_reference(self, inputs, budget):
        space, membership, cell_pmf, pick = inputs
        uncut = _reference_cell_set(space, membership, cell_pmf, None)
        n_hyper = len(uncut)
        max_cells = {
            "none": None,
            "below": 1 + pick % max(1, n_hyper - 1),
            "at": n_hyper,
            "above": n_hyper + 1 + pick % 5,
        }[budget]
        expected = _reference_cell_set(space, membership, cell_pmf, max_cells)
        for _ in _every_backend():
            got = cell_set_from_membership(
                space, *packed_rows(membership), cell_pmf, max_cells=max_cells
            )
            assert got.membership.dtype == expected.membership.dtype
            np.testing.assert_array_equal(got.membership, expected.membership)
            assert got.probs.tobytes() == expected.probs.tobytes()
            assert len(got.cell_ids) == len(expected.cell_ids)
            for ids, want in zip(got.cell_ids, expected.cell_ids):
                assert ids.dtype == want.dtype
                np.testing.assert_array_equal(ids, want)
            assert got.hypercell_of_cell.dtype == np.int32
            np.testing.assert_array_equal(
                got.hypercell_of_cell, expected.hypercell_of_cell
            )

    def test_zero_budget_rejected(self, space, subs, uniform_pmf):
        membership = build_membership_matrix(space, subs)
        with pytest.raises(ValueError, match="max_cells must be at least 1"):
            cell_set_from_membership(
                space, *packed_rows(membership), uniform_pmf, max_cells=0
            )


#: side endpoints: unbounded, off-grid on either side, cell boundaries and
#: half-cells of a lattice 0..4 (cell i covers (i-1, i])
_BOUNDS = [
    -math.inf, -9.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0,
    4.0, 5.5, 9.0, math.inf,
]


@st.composite
def _rasterise_inputs(draw):
    """A 1- to 3-d grid and a subscription set with several rows per
    subscriber (unbounded, empty and off-grid sides included), read back
    from its bounds after some subscribers departed, so deactivated rows
    arrive as ``(+inf, -inf]`` rectangles."""
    n_dims = draw(st.integers(1, 3))
    space = EventSpace([
        Dimension(f"d{i}", 0, draw(st.integers(0, 4))) for i in range(n_dims)
    ])
    n_columns = draw(st.sampled_from([1, 7, 8, 9, 65]))
    bound = st.sampled_from(_BOUNDS)
    rows = [
        Subscription(column, 0, Rectangle(tuple(
            Interval.make(draw(bound), draw(bound)) for _ in range(n_dims)
        )))
        for column in range(n_columns)
        for _ in range(draw(st.integers(1, 3)))
    ]
    subs = SubscriptionSet(space, rows)
    for column in draw(st.sets(st.integers(0, n_columns - 1), max_size=3)):
        subs.deactivate(column)
    los, his = subs.bounds()
    return space, subs, SubscriptionSet(space, [
        Subscription(int(owner), 0, Rectangle.from_bounds(lo, hi))
        for owner, lo, hi in zip(subs.row_owners, los, his)
    ])


class TestPackedRasteriser:
    """``pack_membership`` equals ``np.packbits`` of the dense oracle,
    byte for byte, on every backend; departed rows reach it as
    ``(+inf, -inf]`` bounds."""

    @settings(max_examples=150, deadline=None)
    @given(_rasterise_inputs())
    def test_matches_dense_oracle(self, inputs):
        space, subs, rebuilt = inputs
        expected, _ = packed_rows(build_membership_matrix(space, rebuilt))
        for _ in _every_backend():
            got = pack_membership(space, subs)
            assert got.dtype == np.uint8
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_rasterise_inputs())
    def test_boxes_match_cell_slices(self, inputs):
        """One ``cell_boxes`` pass gives every row's ``cell_slices``, and
        an empty box where the rectangle misses the grid."""
        space, subs, rebuilt = inputs
        starts, stops = space.cell_boxes(*subs.bounds())
        assert starts.dtype == stops.dtype == np.int64
        for row, sub in enumerate(rebuilt.subscriptions):
            try:
                slices = space.cell_slices(sub.rectangle)
            except ValueError:
                assert (stops[row] <= starts[row]).any()
                continue
            assert [(s.start, s.stop) for s in slices] == list(
                zip(starts[row].tolist(), stops[row].tolist())
            )


def _every_backend():
    """Switch to each available kernel backend in turn (the autouse
    fixture restores the environment's choice)."""
    for name in available_backends():
        yield set_backend(name)


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    _backends._reset_for_testing()


@st.composite
def _packed_row_inputs(draw):
    """Packed rows with repeats and all-zero rows, 1 to 125 bytes wide:
    a single row, all rows equal, or a few random patterns."""
    n_bytes = draw(st.sampled_from([1, 7, 8, 9, 38, 125]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["single", "equal", "patterns"]))
    n_rows = 1 if kind == "single" else draw(st.integers(1, 300))
    n_patterns = 1 if kind == "equal" else draw(st.integers(1, 40))
    # sparse bytes, so patterns share long prefixes and differ late
    patterns = rng.integers(0, 256, (n_patterns, n_bytes), dtype=np.uint8)
    patterns[rng.random((n_patterns, n_bytes)) < 0.7] = 0
    packed = patterns[rng.integers(n_patterns, size=n_rows)]
    packed[rng.random(n_rows) < draw(st.sampled_from([0.0, 0.3]))] = 0
    return packed


def _ranked_groups(packed):
    """The backend's grouping renumbered in the byte order of the
    groups' rows: ``np.unique``'s numbering."""
    nonempty, first, inverse, sizes = _seen_groups(packed)
    seen_first = first[1:] > first[:-1]
    assert seen_first.all(), "groups must be numbered by first row"
    order = _byte_order(packed, nonempty[first])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return nonempty, first[order], rank[inverse], sizes[order]


class TestGroupRows:
    """Every backend's one-pass grouping equals the ``lexsort``
    reference on the non-empty rows, and ``np.unique``; group sizes are
    the rows' bit counts."""

    @settings(max_examples=200, deadline=None)
    @given(_packed_row_inputs())
    def test_matches_lexsort_reference(self, packed):
        nonempty = np.flatnonzero(packed.any(axis=1))
        if len(nonempty):
            first, inverse = _group_equal_rows(
                _big_endian_words(packed[nonempty])
            )
            _, unique_first, unique_inverse = np.unique(
                packed[nonempty], axis=0,
                return_index=True, return_inverse=True,
            )
            assert np.array_equal(first, unique_first)
            assert np.array_equal(inverse, unique_inverse.reshape(-1))
        else:
            first = inverse = np.empty(0, dtype=np.int64)
        sizes = np.bitwise_count(packed[nonempty[first]]).sum(
            axis=1, dtype=np.int64
        )
        for _ in _every_backend():
            got = _ranked_groups(packed)
            assert len(got) == 4
            for array, want in zip(got, (nonempty, first, inverse, sizes)):
                assert array.dtype == np.int64
                np.testing.assert_array_equal(array, want)

    def test_all_zero_rows_rejected(self, space, uniform_pmf):
        packed = np.zeros((space.n_cells, 1), dtype=np.uint8)
        for _ in _every_backend():
            with pytest.raises(
                ValueError, match="no grid cell is covered by any subscription"
            ):
                cell_set_from_membership(space, packed, 3, uniform_pmf)
