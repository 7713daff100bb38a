"""Unit tests for the grid-based framework preprocessing (section 4.1)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Dimension, EventSpace
from repro.grid import (
    CellSet,
    build_cell_set,
    build_membership_matrix,
    cell_set_from_membership,
)

from tests.helpers import make_subscription_set


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
            point = space.cell_value(cell)
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
        from repro.geometry import Rectangle
        from repro.workload import Subscription, SubscriptionSet

        subs = SubscriptionSet(
            space,
            [
                Subscription(0, 0, Rectangle.from_bounds((-1, -1), (0, 0))),
                Subscription(0, 0, Rectangle.from_bounds((3, 3), (4, 4))),
            ],
        )
        matrix = build_membership_matrix(space, subs)
        covered = {space.cell_value(c) for c in np.nonzero(matrix[:, 0])[0]}
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
        uncovered = space.locate((0, 4))  # x in {0..2} band? (0,4): sub0 no (y=4), sub1 no (x=0)
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
            np.testing.assert_array_equal(cells.subscribers_of(h), expected)


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
        assert cells.top_by_popularity(10**6) is cells

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


def _reference_cell_set(space, membership, cell_pmf, max_cells, weights):
    """The hyper-cell build as first written: ``np.unique`` over the
    bit-packed rows, per-cell lists for every hyper-cell, then
    :meth:`CellSet.top_by_popularity`."""
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
        weights=weights,
    )
    if max_cells is not None:
        cells = cells.top_by_popularity(max_cells)
    return cells


@st.composite
def _membership_inputs(draw):
    """A grid, a membership matrix with repeated, empty and (sometimes)
    a single non-empty row, a pmf that may force popularity ties, and
    optional column weights."""
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
    weights = (
        rng.integers(1, 4, size=n_cols) if draw(st.booleans()) else None
    )
    return space, membership, cell_pmf, weights, draw(st.integers(0, 10**6))


class TestHyperCellOracle:
    """``cell_set_from_membership`` equals the ``np.unique`` build plus
    ``top_by_popularity``, field by field and bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        _membership_inputs(),
        st.sampled_from(["none", "below", "at", "above"]),
    )
    def test_matches_unique_reference(self, inputs, budget):
        space, membership, cell_pmf, weights, pick = inputs
        uncut = _reference_cell_set(space, membership, cell_pmf, None, None)
        n_hyper = len(uncut)
        max_cells = {
            "none": None,
            "below": 1 + pick % max(1, n_hyper - 1),
            "at": n_hyper,
            "above": n_hyper + 1 + pick % 5,
        }[budget]
        expected = _reference_cell_set(
            space, membership, cell_pmf, max_cells, weights
        )
        got = cell_set_from_membership(
            space, membership, cell_pmf, max_cells=max_cells, weights=weights
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
        if weights is None:
            assert got.weights is None
        else:
            np.testing.assert_array_equal(got.weights, expected.weights)

    def test_zero_budget_rejected(self, space, subs, uniform_pmf):
        membership = build_membership_matrix(space, subs)
        with pytest.raises(ValueError, match="max_cells must be at least 1"):
            cell_set_from_membership(
                space, membership, uniform_pmf, max_cells=0
            )
