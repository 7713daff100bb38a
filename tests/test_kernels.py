"""Packed-bitset kernel tests: primitives, backend equivalence, selection.

The bitset primitives are property-tested (hypothesis) against the
set-based boolean reference — including ragged tail words (``n_bits`` not
a multiple of 64), the ``m = 0`` / ``n_bits = 0`` degenerate shapes and
all-zero columns.  Every backend available in this process is then held
to *exact* (bit-for-bit) equality with the numpy reference on the fused
kernels, and the backend-selection rules (env var, ``set_backend``,
fallback-with-warning) are pinned down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker import BrokerConfig, ContentBroker
from repro.clustering import Clustering, pairwise_waste_matrix
from repro.clustering.kmeans import KMeansClustering
from repro.clustering.pairwise import PairwiseGroupingClustering
from repro.geometry import Dimension, EventSpace, Rectangle
from repro.grid import cell_set_from_membership
from repro.kernels import (
    KERNEL_BACKEND_ENV,
    NumpyBackend,
    PackedBits,
    available_backends,
    backend_name,
    get_backend,
    intersect_count_rows,
    pack_rows,
    popcount_rows,
    set_backend,
    unpack_rows,
    words_for,
)
from repro.kernels import backends as _backends
from repro.network import RoutingTables
from repro.online import ClusterMaintainer
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import observed_fit


@pytest.fixture(autouse=True)
def _restore_backend():
    """Tests in this module switch backends; re-resolve from env after."""
    yield
    _backends._reset_for_testing()


# ----------------------------------------------------------------------
# strategies: boolean membership matrices with adversarial widths
# ----------------------------------------------------------------------
# widths straddling word boundaries exercise the ragged tail word; 0
# exercises the zero-width row
_WIDTHS = st.sampled_from([0, 1, 7, 63, 64, 65, 127, 128, 130])


@st.composite
def membership_matrices(draw, min_rows=0, max_rows=6):
    m = draw(st.integers(min_value=min_rows, max_value=max_rows))
    n_bits = draw(_WIDTHS)
    bits = draw(
        st.lists(
            st.lists(st.booleans(), min_size=n_bits, max_size=n_bits),
            min_size=m,
            max_size=m,
        )
    )
    return np.asarray(bits, dtype=bool).reshape(m, n_bits)


@st.composite
def matrix_and_row(draw):
    matrix = draw(membership_matrices(min_rows=0, max_rows=5))
    n_bits = matrix.shape[1]
    row = draw(
        st.lists(st.booleans(), min_size=n_bits, max_size=n_bits)
    )
    return matrix, np.asarray(row, dtype=bool).reshape(n_bits)


# ----------------------------------------------------------------------
# bitset primitives vs the set-based boolean reference
# ----------------------------------------------------------------------
class TestBitsetPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(membership_matrices())
    def test_pack_unpack_roundtrip(self, matrix):
        packed = pack_rows(matrix)
        assert packed.n_bits == matrix.shape[1]
        assert packed.n_words == words_for(matrix.shape[1])
        assert np.array_equal(packed.unpack(), matrix)

    @settings(max_examples=60, deadline=None)
    @given(membership_matrices())
    def test_popcount_matches_row_sums(self, matrix):
        packed = pack_rows(matrix)
        expected = matrix.sum(axis=1, dtype=np.int64)
        counts = popcount_rows(packed.words)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    @settings(max_examples=60, deadline=None)
    @given(matrix_and_row())
    def test_set_algebra_matches_boolean_reference(self, data):
        matrix, row = data
        words = pack_rows(matrix).words
        packed_row = pack_rows(row.reshape(1, -1)).words[0]
        assert np.array_equal(
            intersect_count_rows(words, packed_row),
            (matrix & row).sum(axis=1, dtype=np.int64),
        )

    def test_ragged_tail_padding_stays_zero(self):
        # all-ones rows at width 65: the tail word must hold exactly one
        # set bit — any padding leakage would corrupt every popcount
        matrix = np.ones((3, 65), dtype=bool)
        packed = pack_rows(matrix)
        assert packed.n_words == 2
        assert np.all(packed.words[:, 1] == np.uint64(1))
        assert np.array_equal(popcount_rows(packed.words), [65, 65, 65])

    def test_zero_width_and_zero_rows(self):
        empty_rows = pack_rows(np.zeros((0, 70), dtype=bool))
        assert len(empty_rows) == 0 and empty_rows.n_words == 2
        assert popcount_rows(empty_rows.words).shape == (0,)
        zero_width = pack_rows(np.zeros((4, 0), dtype=bool))
        assert zero_width.n_words == 0
        assert np.array_equal(popcount_rows(zero_width.words), [0, 0, 0, 0])
        assert zero_width.unpack().shape == (4, 0)

    def test_all_zero_columns_survive_roundtrip(self):
        matrix = np.zeros((5, 100), dtype=bool)
        matrix[:, 17] = True  # columns other than 17 are all-zero
        packed = pack_rows(matrix)
        assert np.array_equal(packed.unpack(), matrix)
        assert np.array_equal(popcount_rows(packed.words), [1] * 5)

    def test_take_and_copy_are_independent(self):
        matrix = np.eye(6, 130, dtype=bool)
        packed = pack_rows(matrix)
        sub = packed.take([4, 1])
        assert np.array_equal(sub.unpack(), matrix[[4, 1]])
        clone = packed.copy()
        clone.words[:] = 0
        assert np.array_equal(packed.unpack(), matrix)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            words_for(-1)
        with pytest.raises(ValueError):
            PackedBits(np.zeros((2, 3), dtype=np.uint64), n_bits=64)
        with pytest.raises(ValueError):
            pack_rows(np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            unpack_rows(np.zeros((2, 1), dtype=np.uint64), n_bits=200)


# ----------------------------------------------------------------------
# backend equivalence: every available backend vs the numpy reference
# ----------------------------------------------------------------------
def _random_membership(rng, m, n_bits, density=0.3):
    return rng.random((m, n_bits)) < density


@pytest.fixture(params=available_backends())
def backend(request):
    return set_backend(request.param)


class TestBackendEquivalence:
    def test_popcount_and_intersect(self, backend, rng):
        matrix = _random_membership(rng, 40, 197)
        words = pack_rows(matrix).words
        assert np.array_equal(
            backend.popcount_rows(words), matrix.sum(axis=1, dtype=np.int64)
        )
        assert np.array_equal(
            backend.intersect_counts(words, words[7]),
            (matrix & matrix[7]).sum(axis=1, dtype=np.int64),
        )

    def test_waste_matrix_bit_equal_to_matmul(self, backend, rng):
        # the float32 matmul formulation is the pre-bitset reference;
        # intersection counts are exact small integers in both paths, so
        # equality must be exact, not approximate
        matrix = _random_membership(rng, 60, 133)
        probs = rng.random(60)
        member32 = matrix.astype(np.float32)
        inter = member32 @ member32.T
        sizes = matrix.sum(axis=1).astype(np.float32)
        probs32 = probs.astype(np.float32)
        expected = probs32[:, None] * (sizes[None, :] - inter)
        expected += probs32[None, :] * (sizes[:, None] - inter)
        np.fill_diagonal(expected, 0.0)
        got = backend.waste_matrix(pack_rows(matrix), probs)
        assert got.dtype == np.float32
        assert np.array_equal(got, expected)

    def test_waste_matrix_dispatch_in_distance_module(self, backend, rng):
        matrix = _random_membership(rng, 35, 90)
        probs = rng.random(35)
        via_kernel = pairwise_waste_matrix(
            matrix, probs, packed=pack_rows(matrix)
        )
        _backends._reset_for_testing()
        set_backend("numpy")
        reference = pairwise_waste_matrix(matrix, probs)
        assert np.array_equal(via_kernel, reference)

    def test_group_mass_bit_equal_to_masked_bincount(self, backend, rng):
        n_cells, n_groups = 500, 9
        cell_group = rng.integers(-1, n_groups, size=n_cells)
        cell_pmf = rng.random(n_cells)
        covered = rng.choice(n_cells, size=120, replace=False)
        ext = np.ascontiguousarray(
            np.where(cell_group >= 0, cell_group, n_groups), dtype=np.int64
        )
        clustered = cell_group[covered] >= 0
        expected = np.bincount(
            cell_group[covered][clustered],
            weights=cell_pmf[covered][clustered],
            minlength=n_groups,
        )
        got = backend.group_mass(covered, ext, cell_pmf, n_groups)
        assert np.array_equal(got, expected)

    def test_group_scorer_matches_reference(self, backend, rng):
        n_cells, n_groups = 400, 8
        cell_group = rng.integers(-1, n_groups, size=n_cells)
        cell_pmf = rng.random(n_cells)
        group_mass = rng.random(n_groups) * 5.0
        ext = np.ascontiguousarray(
            np.where(cell_group >= 0, cell_group, n_groups), dtype=np.int64
        )
        scorer = backend.group_scorer(ext, cell_pmf, group_mass)
        for size in (0, 1, 37, 250):
            covered = rng.choice(n_cells, size=size, replace=False).astype(
                np.int64
            )
            clustered = cell_group[covered] >= 0
            expected_overlap = np.bincount(
                cell_group[covered][clustered],
                weights=cell_pmf[covered][clustered],
                minlength=n_groups,
            )
            candidates = np.nonzero(expected_overlap > 0)[0]
            if len(candidates) == 0:
                expected_group = -1
            else:
                scores = (
                    group_mass[candidates] - 2.0 * expected_overlap[candidates]
                )
                expected_group = int(candidates[np.argmin(scores)])
            group, overlap = scorer(covered)
            assert np.array_equal(overlap, expected_overlap)
            assert group == expected_group

    def test_group_scorer_tie_breaks_to_first_group(self, backend):
        # two groups with identical mass and identical overlap tie on
        # the score; np.argmin picks the first, and so must the scorer
        ext = np.array([2, 5, 6], dtype=np.int64)  # 6 = sentinel bucket
        cell_pmf = np.array([0.25, 0.25, 0.1])
        group_mass = np.full(6, 0.5)
        scorer = backend.group_scorer(ext, cell_pmf, group_mass)
        group, overlap = scorer(np.array([0, 1, 2], dtype=np.int64))
        assert group == 2
        assert np.array_equal(overlap, [0, 0, 0.25, 0, 0, 0.25])

    def test_group_mass_empty_cover(self, backend, rng):
        ext = np.zeros(10, dtype=np.int64)
        got = backend.group_mass(
            np.empty(0, dtype=np.int64), ext, np.ones(10), 4
        )
        assert np.array_equal(got, np.zeros(4))


class TestFusedPairwiseFit:
    def _cell_set(self, tiny_space, rng, n_subs=80):
        membership = _random_membership(
            rng, tiny_space.n_cells, n_subs, density=0.15
        )
        membership[0] = True  # guarantee at least one covered cell
        pmf = rng.random(tiny_space.n_cells)
        pmf /= pmf.sum()
        return cell_set_from_membership(tiny_space, membership, pmf)

    def test_fused_fit_identical_to_python_loop(self, tiny_space, rng):
        cells = self._cell_set(tiny_space, rng)
        n_groups = max(2, len(cells) // 4)
        set_backend("numpy")  # NumpyBackend.pairwise_fit is None -> python loop
        reference = PairwiseGroupingClustering().fit(cells, n_groups)
        for name in available_backends():
            candidate = set_backend(name)
            if not candidate.compiled:
                continue  # no fused loop: would re-run the reference path
            clustering = PairwiseGroupingClustering().fit(cells, n_groups)
            assert np.array_equal(
                clustering.assignment, reference.assignment
            ), f"backend {name} diverged from the python merge loop"
            assert (
                clustering.total_expected_waste()
                == reference.total_expected_waste()
            )

    def test_total_expected_waste_matches_matmul_formulation(
        self, tiny_space, rng
    ):
        cells = self._cell_set(tiny_space, rng)
        clustering = PairwiseGroupingClustering().fit(cells, 3)
        member32 = clustering.group_membership.astype(np.float32)
        cells32 = cells.membership.astype(np.float32)
        inter = np.einsum(
            "ij,ij->i", cells32, member32[clustering.assignment]
        )
        sizes = clustering.group_membership.sum(axis=1).astype(np.float64)
        extra = sizes[clustering.assignment] - inter.astype(np.float64)
        expected = float(np.sum(cells.probs * extra))
        assert clustering.total_expected_waste() == expected

    def test_packed_rows_propagate_through_subsets(self, tiny_space, rng):
        cells = self._cell_set(tiny_space, rng)
        full_packed = cells.packed  # force the lazy build
        top = cells.top_by_popularity(max(1, len(cells) // 2))
        assert top._packed is not None  # no re-pack on subset
        assert np.array_equal(top.packed.unpack(), top.membership)
        assert np.array_equal(full_packed.unpack(), cells.membership)

    def test_group_membership_matches_any_reduction(self, tiny_space, rng):
        cells = self._cell_set(tiny_space, rng)
        assignment = np.arange(len(cells)) % 3
        clustering = Clustering(cells, assignment)
        for g in range(clustering.n_groups):
            assert np.array_equal(
                clustering.group_membership[g],
                cells.membership[assignment == g].any(axis=0),
            )


def _kmeans_cells(seed, n_bits, density=0.15, weighted=False, uniform=False):
    """A cell set on a 20x20 grid; ``uniform`` pmf with few columns
    makes many exact distance ties."""
    rng = np.random.default_rng(seed)
    space = EventSpace([Dimension("x", 0, 19), Dimension("y", 0, 19)])
    membership = _random_membership(rng, space.n_cells, n_bits, density)
    membership[0] = True
    if uniform:
        pmf = np.full(space.n_cells, 1.0 / space.n_cells)
    else:
        pmf = rng.random(space.n_cells)
        pmf /= pmf.sum()
    weights = rng.integers(1, 6, size=n_bits) if weighted else None
    return cell_set_from_membership(space, membership, pmf, weights=weights)


def _lonely_warm_start(cells):
    """Group 0 holds only the cell least like the rest; everything
    else starts in group 1, so group 0's last cell must stay put."""
    sizes = cells.sizes
    warm = np.ones(len(cells), dtype=np.int64)
    warm[int(np.argmin(sizes))] = 0
    return warm


#: (name, cell-set kwargs, n_groups, max_iters, warm start)
_KMEANS_CASES = [
    ("random", dict(seed=1, n_bits=90), 12, 100, None),
    ("random-one-sweep", dict(seed=2, n_bits=130), 30, 1, None),
    ("ragged-words", dict(seed=3, n_bits=64), 7, 100, None),
    ("weighted", dict(seed=4, n_bits=70, weighted=True), 15, 100, None),
    ("weighted-one-sweep", dict(seed=5, n_bits=200, weighted=True), 9, 1,
     None),
    ("ties", dict(seed=6, n_bits=6, density=0.4, uniform=True), 4, 100,
     None),
    ("warm-start", dict(seed=7, n_bits=80), 10, 100, "random"),
    ("last-cell-stays", dict(seed=8, n_bits=50), 2, 100, "lonely"),
]


class TestFusedKMeansSweeps:
    """Every backend's MacQueen sweeps against the python loop
    (NumpyBackend.kmeans_sweeps is None, so numpy runs the loop)."""

    @pytest.mark.parametrize(
        "case", _KMEANS_CASES, ids=[case[0] for case in _KMEANS_CASES]
    )
    def test_sweeps_identical_to_python_loop(self, backend, case):
        _, cell_kwargs, n_groups, max_iters, warm = case
        cells = _kmeans_cells(**cell_kwargs)
        assert len(cells) > n_groups
        if warm == "random":
            warm = np.random.default_rng(0).integers(0, n_groups, len(cells))
        elif warm == "lonely":
            warm = _lonely_warm_start(cells)

        def run(name):
            set_backend(name)
            algorithm = KMeansClustering(
                max_iters=max_iters, initial_assignment=warm
            )
            clustering, attrs, evals = observed_fit(
                algorithm, cells, n_groups
            )
            return clustering.assignment, algorithm.n_iterations_, attrs, evals

        reference = run("numpy")
        got = run(backend.name)
        assert np.array_equal(got[0], reference[0])
        assert got[1:] == reference[1:]
        if max_iters == 1:
            assert got[1] == 1
        if warm is not None and n_groups == 2:
            assert len(np.unique(got[0])) == 2

    def test_native_rejects_state_it_cannot_update_in_place(self):
        if "native" not in available_backends():
            pytest.skip("no C compiler")
        native = set_backend("native")
        cells = _kmeans_cells(seed=1, n_bits=90)
        m, k, w = len(cells), 3, cells.packed.n_words
        state = dict(
            counts=np.zeros((k, cells.n_subscribers), dtype=np.int32),
            group_words=np.zeros((k, w), dtype=np.uint64),
            group_sizes=np.zeros(k),
            probs=np.zeros(k),
            n_cells_in=np.ones(k, dtype=np.int64),
            assignment=np.arange(m, dtype=np.int64) % k,
        )
        for name, bad in (
            ("counts", state["counts"].astype(np.int64)),
            ("group_words", state["group_words"][:, :-1]),
            ("assignment", state["assignment"] + k),
        ):
            with pytest.raises(ValueError):
                native.kmeans_sweeps(
                    cells.packed, cells.probs, cells.sizes, None,
                    **{**state, name: bad}, max_iters=1,
                )


# ----------------------------------------------------------------------
# backend selection semantics
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            set_backend("simd9000")

    def test_explicit_numpy(self):
        assert set_backend("numpy").name == "numpy"
        assert backend_name() == "numpy"
        assert get_backend() is set_backend("numpy")

    def test_auto_prefers_fastest_available(self):
        chosen = set_backend("auto")
        expected = next(
            name
            for name in _backends._AUTO_ORDER
            if name in available_backends()
        )
        assert chosen.name == expected

    def test_unavailable_backend_warns_and_falls_back(self, monkeypatch):
        # a probed-and-missing native backend, whatever this host has
        monkeypatch.setitem(_backends._cache, "native", None)
        assert "native" not in available_backends()
        with pytest.warns(RuntimeWarning, match="falling back to numpy"):
            backend = set_backend("native")
        assert backend.name == "numpy"

    def test_env_var_resolution(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "numpy")
        _backends._reset_for_testing()
        assert get_backend().name == "numpy"

    def test_env_unknown_name_warns_not_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_BACKEND_ENV, "nonsense")
        _backends._reset_for_testing()
        with pytest.warns(RuntimeWarning, match="unknown kernel backend"):
            backend = get_backend()
        assert backend.name in available_backends()

    def test_numpy_backend_reports_uncompiled(self):
        backend = NumpyBackend()
        assert backend.compiled is False
        assert backend.pairwise_fit(None, None, 1) is None
        assert backend.kmeans_sweeps() is None


# ----------------------------------------------------------------------
# maintainer covered-cells reuse (satellite: no re-rasterisation)
# ----------------------------------------------------------------------
def _make_broker(small_topology, rng, **config_kwargs):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    space = publications.space
    defaults = dict(
        n_groups=6, max_cells=200, rebalance_after=10**9,
        drift_threshold=1.05, delta_cells=True,
    )
    defaults.update(config_kwargs)
    broker = ContentBroker(
        RoutingTables(small_topology.graph),
        space,
        publications.cell_pmf(),
        config=BrokerConfig(**defaults),
    )
    n_nodes = small_topology.graph.n_nodes
    for _ in range(24):
        broker.subscribe(int(rng.integers(0, n_nodes)), _rect(space, rng))
    broker.rebuild()
    return broker


def _rect(space, rng):
    los, his = [], []
    for dim in space.dimensions:
        lo = rng.uniform(dim.lo - 1, dim.hi - 1)
        los.append(lo)
        his.append(lo + rng.uniform(1, (dim.hi - dim.lo) / 2 + 1))
    return Rectangle.from_bounds(los, his)


class TestMaintainerFootprintReuse:
    def _count_rasterisations(self, monkeypatch, space):
        calls = {"n": 0}
        original = type(space).cells_in_rectangle

        def counting(self, rectangle):
            calls["n"] += 1
            return original(self, rectangle)

        monkeypatch.setattr(type(space), "cells_in_rectangle", counting)
        return calls

    def test_join_and_leave_rasterise_at_most_once(
        self, small_topology, rng, monkeypatch
    ):
        broker = _make_broker(small_topology, rng)
        maintainer = ClusterMaintainer(broker)
        rect = _rect(broker.space, rng)
        calls = self._count_rasterisations(monkeypatch, broker.space)
        handle = maintainer.join(1, rect, now=0.0)
        # the broker's delta-cells tracking rasterises once at subscribe;
        # the maintainer's overlap scoring must reuse that footprint
        join_calls = calls["n"]
        assert join_calls <= 1
        maintainer.leave(handle, now=1.0)
        assert calls["n"] == join_calls  # leave adds zero rasterisations

    def test_fallback_cache_serves_repeat_rectangles(
        self, small_topology, rng, monkeypatch
    ):
        broker = _make_broker(small_topology, rng, delta_cells=False)
        maintainer = ClusterMaintainer(broker)
        rect = _rect(broker.space, rng)
        calls = self._count_rasterisations(monkeypatch, broker.space)
        first = maintainer._covered(rect, None)
        assert calls["n"] == 1
        second = maintainer._covered(rect, None)
        assert calls["n"] == 1  # served from the rectangle-keyed cache
        assert np.array_equal(first, second)

    def test_overlap_matches_masked_bincount(self, small_topology, rng):
        broker = _make_broker(small_topology, rng)
        maintainer = ClusterMaintainer(broker)
        rect = _rect(broker.space, rng)
        covered = broker.space.cells_in_rectangle(rect)
        cell_group = maintainer._cell_group
        clustered = cell_group[covered] >= 0
        expected = np.bincount(
            cell_group[covered][clustered],
            weights=broker.cell_pmf[covered][clustered],
            minlength=len(maintainer._group_mass),
        )
        got = maintainer._overlap(rect)
        assert np.array_equal(got, expected)
