"""The gcc-compiled native kernel backend.

``_native.c`` ships with the package as source; at first use it is
compiled into a shared library under a per-user cache directory
(``$REPRO_KERNEL_CACHE`` or ``<tmpdir>/repro-kernels-<uid>``) and loaded
through :mod:`ctypes`.  No build step, no extension module machinery —
if a C compiler is absent or the compile fails, the backend simply
reports itself unavailable and selection falls back to pure numpy.

The compile pins ``-ffp-contract=off``: the kernels replicate numpy's
float rounding order operation for operation, and letting the compiler
fuse multiply-adds would silently break the byte-equality guarantee the
equivalence suite enforces.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .bitset import PackedBits

__all__ = ["NativeBackend", "load_native_backend"]

_SOURCE = Path(__file__).with_name("_native.c")

_addressof = ctypes.addressof
_c_char = ctypes.c_char

#: bump to invalidate cached shared libraries on wrapper changes
_ABI_TAG = "v5"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    uid = getattr(os, "getuid", lambda: "any")()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _compiler() -> Optional[str]:
    for name in ("gcc", "cc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _build_library() -> Optional[ctypes.CDLL]:
    compiler = _compiler()
    if compiler is None or not _SOURCE.is_file():
        return None
    source = _SOURCE.read_text()
    digest = hashlib.sha256(
        (_ABI_TAG + compiler + source).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = cache / f"repro_native_{digest}.so"
    if not lib_path.is_file():
        try:
            cache.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        base = [compiler, "-O3", "-ffp-contract=off", "-shared", "-fPIC"]
        for extra in (["-march=native", "-funroll-loops"], []):
            tmp_path = cache / f".{lib_path.name}.{os.getpid()}.tmp"
            cmd = base + extra + ["-o", str(tmp_path), str(_SOURCE)]
            try:
                subprocess.run(
                    cmd, check=True, capture_output=True, timeout=120
                )
                os.replace(tmp_path, lib_path)
                break
            except (OSError, subprocess.SubprocessError):
                try:
                    tmp_path.unlink()
                except OSError:
                    pass
        else:
            return None
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


def _ptr(array: np.ndarray) -> int:
    """The address of an array's first item.  A ctypes view of its
    buffer reads it in a third of the time ``.ctypes`` takes; arrays
    that export no writable contiguous buffer (read-only, strided or
    empty ones) take ``.ctypes``."""
    try:
        return _addressof(_c_char.from_buffer(array))
    except (TypeError, ValueError, BufferError):
        return array.ctypes.data


def _carve(dtype, sizes: Sequence[int]):
    """One new buffer cut into consecutive views of ``sizes``, with the
    address of each view.  Reading an array's address costs microseconds
    (``.ctypes``), so a call with many small inputs stages them in one
    buffer and reads its address once."""
    buffer = np.empty(sum(sizes), dtype=dtype)
    base = _ptr(buffer)
    views, addresses, start = [], [], 0
    for size in sizes:
        views.append(buffer[start:start + size])
        addresses.append(base + start * buffer.itemsize)
        start += size
    return views, addresses


def _labels(assignment: np.ndarray, m: int, k: int) -> np.ndarray:
    """``assignment`` as contiguous int64, checked to hold one label in
    ``[0, k)`` per row: the kernels index group arrays with them."""
    labels = np.ascontiguousarray(assignment, dtype=np.int64)
    if labels.shape != (m,):
        raise ValueError(f"assignment must have shape {(m,)}")
    if m and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError("assignment labels must lie in [0, n_groups)")
    return labels


def _in_place(array: np.ndarray, dtype, shape: Tuple[int, ...]) -> None:
    """Reject an array a kernel cannot update in place."""
    if (
        array.dtype != dtype
        or array.shape != shape
        or not array.flags.c_contiguous
    ):
        raise ValueError(
            f"in-place state must be C-contiguous "
            f"{np.dtype(dtype)} of shape {shape}"
        )


def _mask_rows(masks: np.ndarray) -> np.ndarray:
    """Boolean membership rows whose columns lie one byte apart (rows
    may be strided: a clustering grows its rows in a wider buffer)."""
    masks = np.asarray(masks)
    if masks.dtype != np.bool_ or masks.ndim != 2 or (
        masks.shape[1] > 1 and masks.strides[1] != 1
    ):
        masks = np.ascontiguousarray(masks, dtype=np.bool_)
    if masks.ndim != 2:
        raise ValueError("membership rows must form a 2-d array")
    return masks


def _per_row(values: np.ndarray, m: int) -> np.ndarray:
    """One float64 value per packed row, contiguous."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (m,):
        raise ValueError("cell probabilities and sizes need one per row")
    return values


class NativeBackend:
    """ctypes wrappers around the compiled ``_native.c`` kernels."""

    name = "native"
    compiled = True

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        i64 = ctypes.c_int64
        ptr = ctypes.c_void_p
        lib.repro_popcount_rows.argtypes = [ptr, i64, i64, ptr]
        lib.repro_popcount_rows.restype = None
        lib.repro_intersect_counts.argtypes = [ptr, i64, i64, ptr, ptr]
        lib.repro_intersect_counts.restype = None
        lib.repro_waste_matrix.argtypes = [ptr, i64, i64, ptr, ptr]
        lib.repro_waste_matrix.restype = None
        lib.repro_join_score.argtypes = [ptr, i64, ptr, ptr, ptr, i64, ptr]
        lib.repro_join_score.restype = i64
        lib.repro_rasterise_boxes.argtypes = [
            ptr, ptr, ptr, i64, i64, ptr, ptr, i64,
        ]
        lib.repro_rasterise_boxes.restype = None
        lib.repro_group_rows.argtypes = [
            ptr, i64, i64, ptr, ptr, ptr, ptr, ptr,
        ]
        lib.repro_group_rows.restype = i64
        lib.repro_sort_rows.argtypes = [ptr, i64, ptr, i64, ptr]
        lib.repro_sort_rows.restype = i64
        lib.repro_pairwise_fit.argtypes = [
            ptr, i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
        ]
        lib.repro_pairwise_fit.restype = None
        lib.repro_kmeans_sweeps.argtypes = [
            ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            i64, ptr, i64, ptr,
        ]
        lib.repro_kmeans_sweeps.restype = None
        lib.repro_group_state.argtypes = [
            ptr, i64, i64, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr,
        ]
        lib.repro_group_state.restype = i64
        lib.repro_nearest_seeds.argtypes = [
            ptr, i64, i64, ptr, ptr, ptr, i64, ptr,
        ]
        lib.repro_nearest_seeds.restype = i64
        lib.repro_forgy_sweeps.argtypes = [
            ptr, i64, i64, ptr, ptr, i64, ptr, i64, ptr,
        ]
        lib.repro_forgy_sweeps.restype = i64
        lib.repro_price_dense.argtypes = [
            i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, ptr,
            ptr, ptr, i64, ptr, ptr, i64, ptr, i64, i64, i64, i64, ptr,
            ptr, ptr,
        ]
        lib.repro_price_dense.restype = i64
        lib.repro_match_run.argtypes = [
            i64, i64, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
            ptr, i64, ptr, i64, ptr, i64, i64, ptr, i64, ctypes.c_double,
            ptr, i64,
        ]
        lib.repro_match_run.restype = i64
        #: ids per query of the last run of each kind, to size the next
        self._ids_per_query = {False: 0.0, True: 0.0}
        #: the cell part of the last grid: (its array objects, their
        #: staged arguments, the staged arrays)
        self._grid = None
        #: the group rows and sizes of the call in progress
        self._grid_rows = None

    # ------------------------------------------------------------------
    def popcount_rows(self, words: np.ndarray) -> np.ndarray:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        m, w = words.shape
        out = np.empty(m, dtype=np.int64)
        self._lib.repro_popcount_rows(_ptr(words), m, w, _ptr(out))
        return out

    def intersect_counts(
        self, words: np.ndarray, row: np.ndarray
    ) -> np.ndarray:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        row = np.ascontiguousarray(row, dtype=np.uint64)
        m, w = words.shape
        out = np.empty(m, dtype=np.int64)
        self._lib.repro_intersect_counts(
            _ptr(words), m, w, _ptr(row), _ptr(out)
        )
        return out

    def waste_matrix(
        self, packed: PackedBits, probs: np.ndarray
    ) -> np.ndarray:
        words = packed.words
        m, w = words.shape
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        out = np.empty((m, m), dtype=np.float32)
        self._lib.repro_waste_matrix(_ptr(words), m, w, _ptr(probs), _ptr(out))
        return out

    def group_scorer(
        self,
        cell_group_ext: np.ndarray,
        cell_pmf: np.ndarray,
        group_mass: np.ndarray,
    ):
        """A bound join scorer: ``scorer(covered) -> (group, overlap)``.

        Per-event ctypes overhead is what dominates join scoring (the
        C gather loop itself is sub-microsecond), so everything stable
        across events — argument pointers and the overlap output buffer
        — is captured once here.  The covered cells are staged into a
        reused buffer: one numpy slice-assign is cheaper than extracting
        a fresh array's data pointer through ``.ctypes``.  Footprints
        are int32 (:meth:`EventSpace.cells_in_rectangle`); other integer
        arrays are cast on staging.

        The returned overlap vector is reused between calls; consume it
        before scoring again.
        """
        fn = self._lib.repro_join_score
        ext = np.ascontiguousarray(cell_group_ext, dtype=np.int64)
        pmf = np.ascontiguousarray(cell_pmf, dtype=np.float64)
        mass = np.ascontiguousarray(group_mass, dtype=np.float64)
        n_groups = len(mass)
        out = np.zeros(n_groups + 1, dtype=np.float64)
        overlap = out[:n_groups]
        p_ext, p_pmf, p_mass, p_out = (
            _ptr(ext), _ptr(pmf), _ptr(mass), _ptr(out)
        )
        stage = np.empty(4096, dtype=np.int32)
        p_stage = _ptr(stage)

        def scorer(covered: np.ndarray):
            nonlocal stage, p_stage
            n = covered.shape[0]
            if n > stage.shape[0]:
                stage = np.empty(
                    max(n, 2 * stage.shape[0]), dtype=np.int32
                )
                p_stage = _ptr(stage)
            stage[:n] = covered
            group = fn(p_stage, n, p_ext, p_pmf, p_mass, n_groups, p_out)
            return group, overlap

        return scorer

    def rasterise_boxes(
        self,
        starts: np.ndarray,
        stops: np.ndarray,
        columns: np.ndarray,
        shape: Tuple[int, ...],
        n_bytes: int,
    ) -> np.ndarray:
        """Packed membership rows of ``(k, n_dims)`` cell boxes: each
        row's ``columns`` bit ORed into every cell of its box (see
        :func:`repro.grid.pack_membership`)."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        stops = np.ascontiguousarray(stops, dtype=np.int64)
        columns = np.ascontiguousarray(columns, dtype=np.int64)
        dims = np.array(shape, dtype=np.int64)
        k, n_dims = starts.shape
        if stops.shape != (k, n_dims) or columns.shape != (k,):
            raise ValueError("one box and one column per row")
        if n_dims != len(dims) or n_dims < 1:
            raise ValueError("boxes must have one range per grid dimension")
        covering = (stops > starts).all(axis=1)
        if covering.any() and not (
            (starts[covering] >= 0).all()
            and (stops[covering] <= dims).all()
            and 0 <= columns[covering].min()
            and columns[covering].max() < 8 * n_bytes
        ):
            raise ValueError("box or column outside the packed matrix")
        packed = np.zeros((int(np.prod(dims)), n_bytes), dtype=np.uint8)
        self._lib.repro_rasterise_boxes(
            _ptr(starts), _ptr(stops), _ptr(columns), k, n_dims,
            _ptr(dims), _ptr(packed), n_bytes,
        )
        return packed

    def group_rows(
        self, packed: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(nonempty, first_idx, inverse, sizes)`` of packed rows in
        one hashing pass, the groups numbered in order of first
        occurrence (see :func:`repro.grid.cells._seen_groups`)."""
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        n, b = packed.shape
        (nonempty, first, inverse, sizes, count), at = _carve(
            np.int64, (n, n, n, n, 1)
        )
        n_groups = self._lib.repro_group_rows(_ptr(packed), n, b, *at)
        if n_groups < 0:
            raise MemoryError("group_rows scratch allocation failed")
        n_nonempty = int(count[0])
        return (
            nonempty[:n_nonempty], first[:n_groups],
            inverse[:n_nonempty], sizes[:n_groups],
        )

    def sort_rows(self, packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The ``memcmp`` order of the distinct packed rows
        ``packed[rows]`` (see :func:`repro.grid.cells._byte_order`)."""
        packed = np.ascontiguousarray(packed, dtype=np.uint8)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        n, b = packed.shape
        if len(rows) and not 0 <= rows.min() <= rows.max() < n:
            raise ValueError("row index out of range")
        order = np.empty(len(rows), dtype=np.int64)
        if self._lib.repro_sort_rows(
            _ptr(packed), b, _ptr(rows), len(rows), _ptr(order)
        ) < 0:
            raise MemoryError("sort_rows scratch allocation failed")
        return order

    def pairwise_fit(self, packed: PackedBits, probs: np.ndarray, n_groups: int):
        words = np.ascontiguousarray(packed.words).copy()
        m, w = words.shape
        probs = np.array(probs, dtype=np.float64)
        dist = np.empty((m, m), dtype=np.float32)
        sizes = np.empty(m, dtype=np.float64)
        parent = np.empty(m, dtype=np.int64)
        active = np.empty(m, dtype=np.uint8)
        nn_idx = np.empty(m, dtype=np.int64)
        nn_dist = np.empty(m, dtype=np.float32)
        counters = np.zeros(2, dtype=np.int64)
        self._lib.repro_pairwise_fit(
            _ptr(words), m, w, _ptr(probs), int(n_groups),
            _ptr(dist), _ptr(sizes), _ptr(parent), _ptr(active),
            _ptr(nn_idx), _ptr(nn_dist), _ptr(counters),
        )
        return parent, int(counters[0]), int(counters[1])

    def kmeans_sweeps(
        self,
        packed: PackedBits,
        cell_probs: np.ndarray,
        cell_sizes: np.ndarray,
        counts: np.ndarray,
        group_words: np.ndarray,
        group_sizes: np.ndarray,
        probs: np.ndarray,
        n_cells_in: np.ndarray,
        assignment: np.ndarray,
        max_iters: int,
    ):
        """Every MacQueen sweep in one call; returns ``(iterations,
        distance_evals)``.

        ``assignment`` and the group state (``counts``, ``group_words``,
        ``group_sizes``, ``probs``, ``n_cells_in``) are updated in
        place, so they must already be C-contiguous arrays of the
        kernel's dtypes and shapes.
        """
        words = packed.words
        m, w = words.shape
        k = len(probs)
        for array, dtype, shape in (
            (counts, np.int32, (k, packed.n_bits)),
            (group_words, np.uint64, (k, w)),
            (group_sizes, np.float64, (k,)),
            (probs, np.float64, (k,)),
            (n_cells_in, np.int64, (k,)),
            (assignment, np.int64, (m,)),
        ):
            _in_place(array, dtype, shape)
        _labels(assignment, m, k)
        cell_probs = _per_row(cell_probs, m)
        cell_sizes = _per_row(cell_sizes, m)
        counters = np.zeros(2, dtype=np.int64)
        self._lib.repro_kmeans_sweeps(
            _ptr(words), m, w, packed.n_bits,
            _ptr(cell_probs), _ptr(cell_sizes),
            _ptr(counts), _ptr(group_words), _ptr(group_sizes),
            _ptr(probs), _ptr(n_cells_in), k,
            _ptr(assignment), int(max_iters), _ptr(counters),
        )
        return int(counters[0]), int(counters[1])

    def group_state(
        self,
        packed: PackedBits,
        cell_probs: np.ndarray,
        assignment: np.ndarray,
        n_groups: int,
    ):
        """MacQueen's initial group state of a partition in one pass:
        ``(counts, group_words, group_sizes, probs, n_cells_in)``, the
        in-place state :meth:`kmeans_sweeps` takes.  ``probs[g]`` is
        ``cell_probs[assignment == g].sum()`` to the bit."""
        words = packed.words
        m, w = words.shape
        k = int(n_groups)
        assignment = _labels(assignment, m, k)
        cell_probs = _per_row(cell_probs, m)
        counts = np.empty((k, packed.n_bits), dtype=np.int32)
        group_words = np.empty((k, w), dtype=np.uint64)
        group_sizes = np.empty(k, dtype=np.float64)
        probs = np.empty(k, dtype=np.float64)
        n_cells_in = np.empty(k, dtype=np.int64)
        status = self._lib.repro_group_state(
            _ptr(words), m, w, packed.n_bits, _ptr(cell_probs),
            _ptr(assignment), k, _ptr(counts), _ptr(group_words),
            _ptr(group_sizes), _ptr(probs), _ptr(n_cells_in),
        )
        if status == -2:
            raise MemoryError("group_state scratch allocation failed")
        return counts, group_words, group_sizes, probs, n_cells_in

    def nearest_seeds(
        self,
        packed: PackedBits,
        cell_probs: np.ndarray,
        cell_sizes: np.ndarray,
        seeds: np.ndarray,
    ) -> np.ndarray:
        """The K-means cold start: seed ``i`` opens group ``i`` and
        every other row joins its nearest seed (first minimum of the
        expected waste).  Returns the ``(m,)`` int64 labels."""
        words = packed.words
        m, w = words.shape
        seeds = np.ascontiguousarray(seeds, dtype=np.int64)
        k = len(seeds)
        if (
            seeds.ndim != 1
            or k == 0
            or not 0 <= seeds.min() <= seeds.max() < m
            or len(np.unique(seeds)) != k
        ):
            raise ValueError("seeds must be one or more distinct rows")
        cell_probs = _per_row(cell_probs, m)
        cell_sizes = _per_row(cell_sizes, m)
        assignment = np.empty(m, dtype=np.int64)
        status = self._lib.repro_nearest_seeds(
            _ptr(words), m, w, _ptr(cell_probs), _ptr(cell_sizes),
            _ptr(seeds), k, _ptr(assignment),
        )
        if status == -2:
            raise MemoryError("nearest_seeds scratch allocation failed")
        return assignment

    def forgy_sweeps(
        self,
        packed: PackedBits,
        cell_probs: np.ndarray,
        cell_sizes: np.ndarray,
        assignment: np.ndarray,
        n_groups: int,
        max_iters: int,
    ):
        """Every Forgy batch sweep in one call; returns ``(iterations,
        distance_evals)``.  ``assignment`` must be a C-contiguous int64
        ``(m,)`` array with labels in ``[0, n_groups)``; it is updated
        in place."""
        words = packed.words
        m, w = words.shape
        k = int(n_groups)
        _in_place(assignment, np.int64, (m,))
        _labels(assignment, m, k)
        cell_probs = _per_row(cell_probs, m)
        cell_sizes = _per_row(cell_sizes, m)
        counters = np.zeros(2, dtype=np.int64)
        status = self._lib.repro_forgy_sweeps(
            _ptr(words), m, w, _ptr(cell_probs), _ptr(cell_sizes), k,
            _ptr(assignment), int(max_iters), _ptr(counters),
        )
        if status == -2:
            raise MemoryError("forgy_sweeps scratch allocation failed")
        return int(counters[0]), int(counters[1])

    def price_dense(
        self,
        table,
        event_rows: Sequence[int],
        subscriber_nodes: np.ndarray,
        run,
        references: bool,
        plans: bool,
        audit: bool,
    ):
        """Dense-mode costs of a matched run of events in one call.

        ``table`` holds the staged shortest-path rows (per row the
        source, the addresses of its ``(dist, pred, edge)`` arrays of
        ``table.n`` entries and its broadcast cost; see
        :class:`repro.delivery.RouteTable`) and ``event_rows`` the row
        of each event's publisher.  ``run`` is the
        :class:`repro.matching.PlanRun`, read as it is: a group's nodes
        come from its table's member CSR (built once per table), the
        audit's membership test from its membership rows.  Returns
        ``(costs, wasted)``: ``(E, 4)`` float64 columns unicast
        reference, ideal reference, plan cost and broadcast cost (the
        references with ``references``, the plan costs with ``plans``;
        zero otherwise), and each plan's wasted deliveries (with
        ``plans`` and ``audit``).  An unreachable node raises the
        ``ValueError`` the per-event pricing raises, and
        under ``audit`` a plan that misses an interested subscriber the
        ``AssertionError`` of :meth:`DeliveryPlan.audit`.
        """
        n_events = len(event_rows)
        # one buffer: the event rows, the wasted counts, the error slots
        # and the costs (int64 and float64 share an item size)
        (rows, wasted, err, costs), at = _carve(
            np.int64, (n_events, n_events, 3, 4 * n_events)
        )
        costs = costs.view(np.float64).reshape(n_events, 4)
        costs[:] = 0.0
        wasted[:] = 0
        if n_events == 0:
            return costs, wasted
        rows[:] = event_rows
        sub_nodes = np.ascontiguousarray(subscriber_nodes, dtype=np.int64)
        bounds = np.ascontiguousarray(run.bounds, dtype=np.int64)
        groups = np.ascontiguousarray(run.groups, dtype=np.int64)
        ids = np.ascontiguousarray(run.ids, dtype=np.int64)
        offsets, members = run.table.csr()
        masks = _mask_rows(run.table.masks)
        if (
            len(bounds) != 2 * n_events + 1
            or len(groups) != n_events
            or len(masks) != len(offsets) - 1
        ):
            raise ValueError("price_dense index out of range")
        at_rows, at_wasted, at_err, at_costs = at
        status = self._lib.repro_price_dense(
            table.n, _ptr(table.sources), _ptr(table.addresses),
            _ptr(table.broadcast), table.n_rows, at_rows, n_events,
            _ptr(sub_nodes), len(sub_nodes), _ptr(bounds), _ptr(groups),
            _ptr(ids), len(ids), _ptr(offsets), _ptr(members),
            len(members), _ptr(masks), masks.strides[0],
            masks.shape[1], len(masks),
            int(references) | 2 * int(plans) | 4 * int(audit and plans),
            at_costs, at_wasted, at_err,
        )
        if status == -3:
            raise ValueError("price_dense index out of range")
        if status == -2:
            raise MemoryError("price_dense scratch allocation failed")
        if status == -4:
            run[int(err[2])].audit()
            raise AssertionError("delivery plan misses interested subscribers")
        if status >= 0:
            # the texts of network.unicast_cost and ShortestPaths.tree_cost
            kind, node = int(err[0]), int(err[1])
            source = int(table.sources[rows[status]])
            if kind == 0:
                raise ValueError(
                    f"node {node} unreachable from publisher {source}"
                )
            raise ValueError(f"node {node} unreachable from {source}")
        return costs, wasted

    def match_run(
        self,
        points: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        owners: np.ndarray,
        grid: Optional[tuple] = None,
    ):
        """Interest sets of a run of points, and with ``grid`` their
        Figure 5 plans, in one call.

        ``los`` / ``his`` are the ``(k, N)`` bound rows and ``owners``
        their subscriber ids; a row matches a point ``x`` when ``lo < x
        <= hi``.  ``grid`` is ``(dim_los, dim_his, shape,
        hypercell_of_cell, assignment, group_membership, group_sizes,
        threshold)``: each point's cell, hyper-cell and group as
        :meth:`EventSpace.locate_batch` and
        :meth:`Clustering.groups_of_grid_cells` find them, then
        :meth:`repro.matching.PlanRun.assemble`'s rule.  Returns
        ``(bounds, groups, ids, n_fallbacks)``: point ``e``'s sorted
        unique interested ids are ``ids[bounds[2e]:bounds[2e + 1]]``, a
        multicast plan's unicast ids ``ids[bounds[2e + 1]:bounds[2e +
        2]]``, ``groups[e]`` is its group or ``-1`` for unicast only,
        and ``n_fallbacks`` counts the grouped cells the rule rejected.
        """
        return self._run(points, None, los, his, owners, grid)

    def containing_run(
        self,
        box_los: np.ndarray,
        box_his: np.ndarray,
        los: np.ndarray,
        his: np.ndarray,
        owners: np.ndarray,
    ):
        """Per box ``(box_los[e], box_his[e]]``: the sorted unique
        owners of the rows that contain it (``lo <= box_lo`` and
        ``box_hi <= hi``).  Returns ``(bounds, ids)``: box ``e``'s ids
        are ``ids[bounds[2e]:bounds[2e + 1]]``."""
        box_his = np.asarray(box_his, dtype=np.float64)
        bounds, _, ids, _ = self._run(box_los, box_his, los, his, owners)
        return bounds, ids

    def _run(self, queries, tops, los, his, owners, grid=None):
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        los = np.ascontiguousarray(los, dtype=np.float64)
        his = np.ascontiguousarray(his, dtype=np.float64)
        owners = np.ascontiguousarray(owners, dtype=np.int64)
        if los.ndim != 2 or his.shape != los.shape or (
            owners.shape != (len(los),)
        ):
            raise ValueError("one (lo, hi) bound row and owner per row")
        n_rows, n_dims = los.shape
        if queries.ndim != 2 or queries.shape[1] != n_dims or (
            tops is not None and tops.shape != queries.shape
        ):
            raise ValueError("queries must be an (E, n_dims) array")
        at_tops = None
        if tops is not None:
            tops = np.ascontiguousarray(tops, dtype=np.float64)
            at_tops = _ptr(tops)
        at_grid = (None,) * 5 + (0, None, 0, None, 0, 0, None, 0, 0.0)
        if grid is not None:
            at_grid = self._staged_grid(grid, n_dims)
        n = len(queries)
        header = 3 * n + 3
        hint = self._ids_per_query[tops is not None]
        capacity = int(2.0 * hint * n) + 64
        at_rows = (_ptr(queries), at_tops, n_rows, _ptr(los), _ptr(his),
                   _ptr(owners))
        for _ in range(2):
            out = np.empty(header + capacity, dtype=np.int64)
            status = self._lib.repro_match_run(
                n, n_dims, *at_rows, *at_grid, _ptr(out), capacity,
            )
            if status != 1:
                break
            capacity = int(out[0])
        if status == -3:
            raise IndexError(
                "match_run grid, group or member index out of range"
            )
        if status == -2:
            raise MemoryError("match_run scratch allocation failed")
        n_ids = int(out[0])
        self._ids_per_query[tops is not None] = n_ids / max(n, 1)
        return (
            out[2:2 * n + 3], out[2 * n + 3:header],
            out[header:header + n_ids], int(out[1]),
        )

    def _staged_grid(self, grid: tuple, n_dims: int) -> tuple:
        """``match_run``'s grid arguments, checked.  The cell part
        (bounds, shape, hyper-cells, assignment) is staged once per set
        of array objects, which a clustering keeps and never changes in
        place; the group rows and sizes, which joins and leaves change,
        are read on every call."""
        (dim_lo, dim_hi, shape, hyper, assignment, masks, sizes,
         threshold) = grid
        key = grid[:5]
        cached = self._grid
        if cached is None or any(
            a is not b for a, b in zip(cached[0], key)
        ):
            cached = self._grid = (key,) + self._stage_cells(
                dim_lo, dim_hi, shape, hyper, assignment, n_dims
            )
        masks = _mask_rows(masks)
        sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        if sizes.shape != (len(masks),):
            raise ValueError("one membership row and size per group")
        self._grid_rows = (masks, sizes)
        return cached[1] + (
            _ptr(masks), masks.strides[0], masks.shape[1], _ptr(sizes),
            len(masks), float(threshold),
        )

    @staticmethod
    def _stage_cells(dim_lo, dim_hi, shape, hyper, assignment, n_dims):
        """The cell part of a grid: its staged arguments, and the
        arrays they address (kept referenced while in use)."""
        dim_lo = np.ascontiguousarray(dim_lo, dtype=np.float64)
        dim_hi = np.ascontiguousarray(dim_hi, dtype=np.float64)
        hyper = np.ascontiguousarray(hyper, dtype=np.int32)
        assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        shape = [int(size) for size in shape]
        strides = [1] * n_dims
        for d in range(n_dims - 2, -1, -1):
            strides[d] = strides[d + 1] * shape[d + 1]
        if (
            dim_lo.shape != (n_dims,)
            or dim_hi.shape != (n_dims,)
            or len(shape) != n_dims
            or hyper.shape != (math.prod(shape),)
            or assignment.ndim != 1
        ):
            raise ValueError("grid arrays do not fit the space")
        shape = np.array(shape, dtype=np.int64)
        strides = np.array(strides, dtype=np.int64)
        staged = (
            _ptr(dim_lo), _ptr(dim_hi), _ptr(shape), _ptr(strides),
            _ptr(hyper), len(hyper), _ptr(assignment), len(assignment),
        )
        return staged, (dim_lo, dim_hi, shape, strides, hyper, assignment)


def load_native_backend() -> Optional[NativeBackend]:
    """Compile (or reuse) the shared library; ``None`` when impossible."""
    lib = _build_library()
    if lib is None:
        return None
    return NativeBackend(lib)
