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

#: bump to invalidate cached shared libraries on wrapper changes
_ABI_TAG = "v4"


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


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _carve(dtype, sizes: Sequence[int]):
    """One new buffer cut into consecutive views of ``sizes``, with the
    address of each view.  Reading an array's address costs microseconds
    (``.ctypes``), so a call with many small inputs stages them in one
    buffer and reads its address once."""
    buffer = np.empty(sum(sizes), dtype=dtype)
    base = buffer.ctypes.data
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
            i64, ptr, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, ptr, ptr,
            i64, ptr, i64, ptr, ptr,
        ]
        lib.repro_price_dense.restype = i64

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
        one hashing pass plus a ``memcmp`` sort of the distinct rows
        (see :func:`repro.grid.cells._group_rows`)."""
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
        trees: Sequence[Tuple[int, np.ndarray, np.ndarray, np.ndarray]],
        event_rows: Sequence[int],
        subscriber_nodes: np.ndarray,
        lists: Sequence[Sequence[int]],
        lists_per_event: Sequence[int],
        references: bool,
        plans: bool,
    ) -> np.ndarray:
        """Dense-mode costs of a run of events in one call.

        ``trees`` holds one ``(source, dist, pred, edge)`` shortest-path
        row per distinct publisher and ``event_rows`` the row of each
        event.  Each event owns ``lists_per_event[e]`` consecutive
        subscriber-id lists: its interested ids when ``references``,
        then, when ``plans``, each multicast group's members and the
        unicast subscribers.  Returns ``(E, 4)`` float64 columns
        unicast reference, ideal reference, plan cost and broadcast
        cost (zero where not asked for).  An unreachable node raises
        the ``ValueError`` the per-event pricing raises.
        """
        n_events = len(event_rows)
        if n_events == 0:
            return np.zeros((0, 4), dtype=np.float64)
        n_rows = len(trees)
        n = len(trees[0][1]) if trees else 0
        for _, dist, pred, edge in trees:
            if not len(dist) == len(pred) == len(edge) == n:
                raise ValueError("every tree row needs one entry per node")
        n_lists = len(lists)
        if (
            len(lists_per_event) != n_events
            or sum(lists_per_event) != n_lists
        ):
            raise ValueError("list counts do not cover the lists")
        lengths = np.fromiter(map(len, lists), np.int64, n_lists)
        n_ids = int(lengths.sum())
        n_subs = len(subscriber_nodes)
        size = n_rows * n
        ints, int_at = _carve(np.int64, (
            n_rows, size, n_events, n_events + 1, n_lists + 1, n_subs,
            n_ids, 2,
        ))
        sources, pred, rows, event_ptr, list_ptr, sub_nodes, ids, err = ints
        floats, float_at = _carve(np.float64, (size, size, 4 * n_events))
        dist, edge, out = floats
        sources[:] = [tree[0] for tree in trees]
        np.concatenate([tree[1] for tree in trees], out=dist)
        np.concatenate([tree[2] for tree in trees], out=pred)
        np.concatenate([tree[3] for tree in trees], out=edge)
        rows[:] = event_rows
        event_ptr[0] = list_ptr[0] = 0
        np.cumsum(lists_per_event, out=event_ptr[1:])
        np.cumsum(lengths, out=list_ptr[1:])
        sub_nodes[:] = subscriber_nodes
        if n_ids:
            np.concatenate(lists, out=ids, casting="unsafe")
        flags = int(references) | 2 * int(plans)
        (at_sources, at_pred, at_rows, at_event_ptr, at_list_ptr,
         at_sub_nodes, at_ids, at_err) = int_at
        at_dist, at_edge, at_out = float_at
        status = self._lib.repro_price_dense(
            n, at_sources, at_dist, at_pred, at_edge, n_rows, at_rows,
            n_events, at_sub_nodes, n_subs, at_event_ptr, at_list_ptr,
            n_lists, at_ids, flags, at_out, at_err,
        )
        if status == -3:
            raise ValueError("price_dense index out of range")
        if status == -2:
            raise MemoryError("price_dense scratch allocation failed")
        if status >= 0:
            # the texts of network.unicast_cost and ShortestPaths.tree_cost
            kind, node = int(err[0]), int(err[1])
            source = int(sources[rows[status]])
            if kind == 0:
                raise ValueError(
                    f"node {node} unreachable from publisher {source}"
                )
            raise ValueError(f"node {node} unreachable from {source}")
        return out.reshape(n_events, 4)


def load_native_backend() -> Optional[NativeBackend]:
    """Compile (or reuse) the shared library; ``None`` when impossible."""
    lib = _build_library()
    if lib is None:
        return None
    return NativeBackend(lib)
