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
from repro.clustering.kmeans import ForgyKMeansClustering, KMeansClustering
from repro.clustering.pairwise import PairwiseGroupingClustering
from repro.delivery import Dispatcher
from repro.geometry import Dimension, EventSpace, Rectangle
from repro.grid import CellSet, cell_set_from_membership
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
from repro.matching import DeliveryPlan
from repro.network import Graph, RoutingTables
from repro.online import ClusterMaintainer
from repro.workload import MixturePublicationModel, single_mode_mixture

from tests.helpers import (
    make_subscription_set,
    observed_fit,
    packed_rows,
    top_by_popularity,
)


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


class TestFusedPairwiseFit:
    def _cell_set(self, tiny_space, rng, n_subs=80):
        membership = _random_membership(
            rng, tiny_space.n_cells, n_subs, density=0.15
        )
        membership[0] = True  # guarantee at least one covered cell
        pmf = rng.random(tiny_space.n_cells)
        pmf /= pmf.sum()
        return cell_set_from_membership(
            tiny_space, *packed_rows(membership), pmf
        )

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
        top = top_by_popularity(cells, max(1, len(cells) // 2))
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


def _kmeans_cells(seed, n_bits, density=0.15, uniform=False):
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
    return cell_set_from_membership(space, *packed_rows(membership), pmf)


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
                    cells.packed, cells.probs, cells.sizes,
                    **{**state, name: bad}, max_iters=1,
                )


def _bits_cells(seed, m, n_bits, density=0.3):
    """``m`` cells over ``n_bits`` columns, built without the hyper-cell
    merge so that any column count works (rows may repeat).  The
    probabilities span four orders of magnitude, so the order of a
    float sum shows in its last bits."""
    rng = np.random.default_rng(seed)
    membership = _random_membership(rng, m, n_bits, density)
    membership[0] = True
    probs = rng.uniform(1.0, 10.0, m) * 10.0 ** rng.integers(-4, 0, m)
    return CellSet(
        space=EventSpace([Dimension("x", 0, m - 1)]),
        membership=membership,
        probs=probs,
        cell_ids=[np.array([i]) for i in range(m)],
        hypercell_of_cell=np.arange(m, dtype=np.int32),
    )


#: (name, cell set, n_groups (-1: one less than the cells), max_iters,
#: warm start)
_FIT_CASES = [
    ("cold", lambda: _kmeans_cells(seed=11, n_bits=90), 12, 100, None),
    ("warm-random", lambda: _kmeans_cells(seed=7, n_bits=80), 10, 100,
     "random"),
    ("warm-lonely", lambda: _kmeans_cells(seed=8, n_bits=50), 2, 100,
     "lonely"),
    ("one-sweep", lambda: _kmeans_cells(seed=2, n_bits=130), 30, 1, None),
    ("capped", lambda: _kmeans_cells(seed=4, n_bits=65, density=0.05), 30,
     2, None),
    ("k2", lambda: _kmeans_cells(seed=3, n_bits=40), 2, 100, None),
    ("k-m-1", lambda: _bits_cells(seed=9, m=40, n_bits=20), -1, 100, None),
    ("bits-1", lambda: _bits_cells(seed=10, m=30, n_bits=1), 3, 100, None),
    ("bits-63", lambda: _bits_cells(seed=11, m=60, n_bits=63), 6, 100,
     None),
    ("bits-64", lambda: _bits_cells(seed=12, m=60, n_bits=64), 6, 100,
     "random"),
    ("bits-65", lambda: _bits_cells(seed=13, m=60, n_bits=65), 6, 100,
     None),
    ("reseed", lambda: _kmeans_cells(
        seed=1, n_bits=6, density=0.4, uniform=True), 7, 100, None),
]


class TestFusedKMeansFits:
    """Both K-means variants on every backend against the numpy
    reference: the cold seeding, MacQueen's group state and Forgy's
    sweeps (NumpyBackend.nearest_seeds, group_state and forgy_sweeps
    are None, so numpy runs the reference)."""

    @pytest.mark.parametrize(
        "algorithm", [KMeansClustering, ForgyKMeansClustering],
        ids=["kmeans", "forgy"],
    )
    @pytest.mark.parametrize(
        "case", _FIT_CASES, ids=[case[0] for case in _FIT_CASES]
    )
    def test_fit_identical_to_numpy(
        self, backend, algorithm, case, monkeypatch
    ):
        name, make_cells, n_groups, max_iters, warm = case
        cells = make_cells()
        if n_groups < 0:
            n_groups = len(cells) - 1
        assert len(cells) > n_groups
        if warm == "random":
            warm = np.random.default_rng(0).integers(0, n_groups, len(cells))
        elif warm == "lonely":
            warm = _lonely_warm_start(cells)

        reseeds = []
        fix = ForgyKMeansClustering._fix_empty_groups

        def spy(assignment, distances, k):
            if np.bincount(assignment, minlength=k).min() == 0:
                reseeds.append(k)
            return fix(assignment, distances, k)

        monkeypatch.setattr(
            ForgyKMeansClustering, "_fix_empty_groups", staticmethod(spy)
        )

        def run(backend_name):
            set_backend(backend_name)
            fitter = algorithm(max_iters=max_iters, initial_assignment=warm)
            clustering, attrs, evals = observed_fit(fitter, cells, n_groups)
            return clustering.assignment, fitter.n_iterations_, attrs, evals

        reference = run("numpy")
        numpy_reseeded = bool(reseeds)
        got = run(backend.name)
        assert got[0].tobytes() == reference[0].tobytes()
        assert got[1:] == reference[1:]
        if name == "one-sweep":
            assert got[1] == 1
        if name == "capped":
            assert got[1] == max_iters
        if name == "reseed" and algorithm is ForgyKMeansClustering:
            assert numpy_reseeded
            assert got[1] < max_iters

    def test_group_state_matches_numpy_sums(self):
        if "native" not in available_backends():
            pytest.skip("no C compiler")
        native = set_backend("native")
        cells = _bits_cells(seed=5, m=400, n_bits=65)
        # 1, ~100 and ~300 members: numpy's pairwise sum is sequential
        # below 8 terms, unrolled up to 128 and recursive above
        assignment = np.where(np.arange(400) % 4 == 0, 1, 2)
        assignment[7] = 0
        counts, words, sizes, probs, n_cells_in = native.group_state(
            cells.packed, cells.probs, assignment, 3
        )
        as_int = cells.membership.astype(np.int32)
        sequential_differs = False
        for g in range(3):
            members = assignment == g
            assert np.array_equal(counts[g], as_int[members].sum(axis=0))
            union = cells.membership[members].any(axis=0)
            assert np.array_equal(words[g], pack_rows(union[None]).words[0])
            assert sizes[g] == float(union.sum())
            assert n_cells_in[g] == members.sum()
            want = cells.probs[members].sum()
            assert probs[g].tobytes() == want.tobytes()
            sequential = 0.0
            for p in cells.probs[members]:
                sequential += p
            sequential_differs |= sequential != want
        assert sequential_differs  # the check above can tell the orders

    def test_native_rejects_bad_labels_and_shapes(self):
        if "native" not in available_backends():
            pytest.skip("no C compiler")
        native = set_backend("native")
        cells = _kmeans_cells(seed=1, n_bits=90)
        m, k = len(cells), 3
        labels = np.arange(m, dtype=np.int64) % k
        args = (cells.packed, cells.probs, cells.sizes)
        for bad in (labels + 1, labels - 1, labels[:-1],
                    labels.astype(np.int32), labels[::-1]):
            with pytest.raises(ValueError):
                native.forgy_sweeps(*args, bad, k, 5)
        for bad in (labels + 1, labels - 1, labels[:-1]):
            with pytest.raises(ValueError):
                native.group_state(cells.packed, cells.probs, bad, k)
        with pytest.raises(ValueError):
            native.group_state(cells.packed, cells.probs[:-1], labels, k)
        with pytest.raises(ValueError):
            native.forgy_sweeps(
                cells.packed, cells.probs, cells.sizes[:-1], labels, k, 5
            )
        for bad in ([0, m], [-1, 1], [2, 2], [[0, 1]], []):
            with pytest.raises(ValueError):
                native.nearest_seeds(*args, np.array(bad))
        with pytest.raises(ValueError):
            native.nearest_seeds(
                cells.packed, cells.probs[:-1], cells.sizes, np.array([0])
            )


# ----------------------------------------------------------------------
# batched dense-mode pricing
# ----------------------------------------------------------------------
def _dense_dispatcher(edges, n_nodes, subscriber_nodes):
    """A dense-scheme dispatcher over ``edges`` with one subscriber per
    entry of ``subscriber_nodes``."""
    graph = Graph(n_nodes)
    for u, v, cost in edges:
        graph.add_edge(u, v, cost)
    space = EventSpace([Dimension("x", 0, 9)])
    subs = make_subscription_set(
        space, [(int(node), [(0, 5)]) for node in subscriber_nodes]
    )
    return Dispatcher(RoutingTables(graph), subs, "dense")


def _random_tree_edges(rng, n_nodes, n_extra):
    """A random connected graph: a random tree plus ``n_extra`` chords,
    costs spread over seven orders of magnitude so that the order of a
    float sum shows in its last bits."""
    def cost():
        return float(rng.uniform(1.0, 50.0) * 10.0 ** rng.integers(-3, 4))

    edges = {}
    for v in range(1, n_nodes):
        edges[(int(rng.integers(0, v)), v)] = cost()
    while n_extra:
        u, v = sorted(int(x) for x in rng.integers(0, n_nodes, 2))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = cost()
            n_extra -= 1
    return [(u, v, c) for (u, v), c in edges.items()]


def _per_event(dispatcher, publishers, interested, plans):
    """The per-event python pricing, as price_run lays it out."""
    rows = []
    for publisher, ids, plan in zip(publishers, interested, plans):
        publisher = int(publisher)
        rows.append([
            dispatcher.unicast_reference(publisher, ids),
            dispatcher.ideal_reference(publisher, ids),
            dispatcher.plan_cost(publisher, plan),
            dispatcher.broadcast_reference(publisher),
        ])
    return np.array(rows, dtype=np.float64)


def _ids(values):
    return np.unique(np.asarray(values, dtype=np.int64))


def _plan(interested, groups=(), unicast=None):
    interested = _ids(interested)
    groups = [_ids(members) for members in groups]
    return DeliveryPlan(
        interested=interested,
        group_ids=list(range(len(groups))),
        group_members=groups,
        unicast_subscribers=(
            interested if unicast is None else _ids(unicast)
        ),
    )


class TestDensePricing:
    """Every backend's run pricing (``Dispatcher.price_run``) against
    the per-event python pricing and ``np.sum``
    (NumpyBackend.price_dense is None, so numpy prices each event)."""

    def test_level_sums_are_numpys_pairwise_sum(self, backend):
        # a star: every interested node is one level below the
        # publisher, so the unicast reference, the ideal tree's single
        # level and the broadcast are each one np.sum — at every size
        # 0..300 (the 8-wide unroll, the 128 block and the recursive
        # split all start inside that range)
        rng = np.random.default_rng(5)
        n_leaves = 300
        costs = rng.uniform(1.0, 50.0, n_leaves) * 10.0 ** rng.integers(
            -3, 4, n_leaves
        )
        edges = [(0, leaf + 1, float(c)) for leaf, c in enumerate(costs)]
        # subscriber ids map to leaves in shuffled order, so an
        # unsorted node set would sum in the wrong order
        leaves = rng.permutation(n_leaves) + 1
        dispatcher = _dense_dispatcher(edges, n_leaves + 1, leaves)
        sizes = range(n_leaves + 1)
        interested = [_ids(rng.permutation(n_leaves)[:k]) for k in sizes]
        priced = dispatcher.price_run([0] * len(interested), interested)
        dist = dispatcher.routing.shortest_paths(0).arrays()[0]
        for k, ids, row in zip(sizes, interested, priced):
            nodes = np.unique(leaves[ids])
            assert len(nodes) == k
            want = float(np.sum(dist[nodes])) if k else 0.0
            assert row[0] == want and row[1] == want, k
            assert row[3] == float(np.sum(dist[1:]))

    def test_random_runs_match_per_event_pricing(self, backend):
        rng = np.random.default_rng(11)
        for trial in range(12):
            n_nodes = int(rng.integers(2, 160))
            n_subs = int(rng.integers(1, 3 * n_nodes))
            dispatcher = _dense_dispatcher(
                _random_tree_edges(rng, n_nodes, n_nodes // 3),
                n_nodes,
                rng.integers(0, n_nodes, n_subs),
            )
            publishers, interested, plans = [], [], []
            for _ in range(25):
                ids = rng.integers(0, n_subs, rng.integers(0, n_subs + 1))
                groups = [
                    rng.integers(0, n_subs, rng.integers(0, n_subs + 1))
                    for _ in range(rng.integers(0, 4))
                ]
                unicast = None
                if groups or rng.random() < 0.5:
                    unicast = rng.integers(0, n_subs, rng.integers(0, 9))
                plan = _plan(ids, groups, unicast)
                publishers.append(int(rng.integers(0, n_nodes)))
                interested.append(plan.interested)
                plans.append(plan)
            got = dispatcher.price_run(publishers, interested, plans)
            want = _per_event(dispatcher, publishers, interested, plans)
            assert got.tobytes() == want.tobytes(), trial
            # each column alone prices the same
            alone = dispatcher.price_run(publishers, interested=interested)
            assert alone[:, [0, 1, 3]].tobytes() == want[:, [0, 1, 3]].tobytes()
            costs = dispatcher.plan_costs(publishers, plans)
            assert costs.tobytes() == want[:, 2].tobytes()

    def test_edge_cases_match_per_event_pricing(self, backend):
        rng = np.random.default_rng(3)
        n_nodes = 90
        # three subscribers per node: node of subscriber s is s // 3
        dispatcher = _dense_dispatcher(
            _random_tree_edges(rng, n_nodes, 20),
            n_nodes,
            np.arange(3 * n_nodes) // 3,
        )
        publisher = 7
        everyone = np.arange(3 * n_nodes)
        cases = [
            # two groups whose node sets overlap, plus a unicast top-up
            _plan(range(0, 120), [range(0, 90), range(60, 150)],
                  range(150, 170)),
            # the publisher's own node among the targets
            _plan([21, 22, 40, 200], [[20, 21, 22, 41]], [40, 200]),
            # empty interest, with and without a group
            _plan([]),
            _plan([], [[5, 6]], []),
            # several subscribers on one node
            _plan([0, 1, 2, 3, 4, 5, 9, 10], [], None),
            # a unicast top-up fully covered by the groups' nodes
            _plan(range(30, 60), [range(30, 45), range(45, 60)],
                  [31, 32, 46, 58]),
            # everyone, one group of everyone
            _plan(everyone, [everyone], []),
        ]
        publishers = [publisher] * len(cases)
        interested = [plan.interested for plan in cases]
        got = dispatcher.price_run(publishers, interested, cases)
        want = _per_event(dispatcher, publishers, interested, cases)
        assert got.tobytes() == want.tobytes()

    def test_unreachable_node_raises_the_per_event_error(self, backend):
        # two components: nodes 0..3 and 4..5; subscriber s sits on node
        # s, except that subscribers 4 and 5 sit on nodes 5 and 4, so the
        # error must name the smallest unreachable node, not the first seen
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (4, 5, 1.0)]
        dispatcher = _dense_dispatcher(edges, 6, [0, 1, 2, 3, 5, 4])
        reachable = _plan([1, 2])

        def error(call):
            with pytest.raises(ValueError) as info:
                call()
            return str(info.value)

        for plan in (
            _plan([1, 4, 5]),                 # the unicast reference
            _plan([1], [[2, 4, 5]], [1]),     # a group's tree
            _plan([1], [[2]], [1, 4, 5]),     # the unicast top-up
        ):
            publishers = [0, 0]
            plans = [reachable, plan]
            interested = [p.interested for p in plans]
            got = error(
                lambda: dispatcher.price_run(publishers, interested, plans)
            )
            assert got == error(
                lambda: _per_event(dispatcher, publishers, interested, plans)
            )
            assert got.startswith("node 4 unreachable from")
            assert error(
                lambda: dispatcher.plan_costs(publishers, plans)
            ) == error(lambda: [dispatcher.plan_cost(0, p) for p in plans])

    def test_native_rejects_indices_out_of_range(self):
        if "native" not in available_backends():
            pytest.skip("no C compiler")
        native = set_backend("native")
        dispatcher = _dense_dispatcher([(0, 1, 1.0), (1, 2, 1.0)], 3, [1, 2])
        sp = dispatcher.routing.shortest_paths(0)
        tree = (0, *sp.arrays(), sp.edge_costs())
        nodes = dispatcher.subscriptions.subscriber_nodes
        ok = ([tree], [0], nodes, [np.array([0, 1])], [1], True, False)
        assert native.price_dense(*ok)[0, 0] == 3.0
        for bad in (
            # a subscriber id, an event row, a subscriber node, a tree
            # source, and too few lists for references plus a plan
            ([tree], [0], nodes, [np.array([0, 2])], [1], True, False),
            ([tree], [1], nodes, [np.array([0])], [1], True, False),
            ([tree], [0], np.array([1, 3]), [np.array([1])], [1], True,
             False),
            ([(3, *tree[1:])], [0], nodes, [np.array([1])], [1], True,
             False),
            ([tree], [0], nodes, [np.array([1])], [1], True, True),
        ):
            with pytest.raises(ValueError, match="out of range"):
                native.price_dense(*bad)


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
        assert backend.nearest_seeds() is None
        assert backend.group_state() is None
        assert backend.forgy_sweeps() is None


# ----------------------------------------------------------------------
# maintainer covered-cells reuse (satellite: no re-rasterisation)
# ----------------------------------------------------------------------
def _make_broker(small_topology, rng):
    publications = MixturePublicationModel(
        small_topology, single_mode_mixture()
    )
    space = publications.space
    broker = ContentBroker(
        RoutingTables(small_topology.graph),
        space,
        publications.cell_pmf(),
        config=BrokerConfig(
            n_groups=6, max_cells=200, rebalance_after=10**9,
            drift_threshold=1.05,
        ),
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
        # the broker rasterises once at subscribe; the maintainer's
        # overlap scoring must reuse that footprint
        join_calls = calls["n"]
        assert join_calls <= 1
        maintainer.leave(handle, now=1.0)
        assert calls["n"] == join_calls  # leave adds zero rasterisations

    def test_int32_footprints_join_and_leave_unchanged(
        self, small_topology, rng, backend
    ):
        """Footprints are kept as int32; join placements and the
        join/leave overlaps equal the masked-bincount reference on the
        int64 cells, on every backend."""
        broker = _make_broker(small_topology, rng)
        maintainer = ClusterMaintainer(broker)
        cell_group = maintainer._cell_group
        group_mass = maintainer._group_mass
        for step in range(8):
            rect = _rect(broker.space, rng)
            covered = broker.space.cells_in_rectangle(rect).astype(np.int64)
            clustered = cell_group[covered] >= 0
            expected = np.bincount(
                cell_group[covered][clustered],
                weights=broker.cell_pmf[covered][clustered],
                minlength=len(group_mass),
            )
            candidates = np.nonzero(expected > 0)[0]
            scores = group_mass[candidates] - 2.0 * expected[candidates]
            want = int(candidates[np.argmin(scores)]) if len(scores) else -1
            handle = maintainer.join(1, rect, now=float(step))
            footprint = broker.covered_cells(handle)
            assert footprint.dtype == np.int32
            assert np.array_equal(footprint, covered)
            groups = broker.clustering.groups_of_subscriber(
                broker.internal_id(handle)
            )
            assert list(groups) == ([want] if want >= 0 else [])
            _, overlap = maintainer._score(footprint)
            assert overlap.tobytes() == expected.tobytes()
            maintainer.leave(handle, now=step + 0.5)
        # a footprint handed in as int64 is kept as int32 too
        handle = broker.subscribe(1, rect, cells=covered)
        assert broker.covered_cells(handle).dtype == np.int32
        assert np.array_equal(broker.covered_cells(handle), covered)

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
        _, got = maintainer._score(covered)
        assert np.array_equal(got, expected)
