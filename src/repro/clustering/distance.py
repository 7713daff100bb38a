"""The expected-waste distance function (section 4.1).

For cells (or sets of cells) ``a`` and ``b`` with membership vectors
``s(a)``, ``s(b)`` and publication probabilities ``p_p(a)``, ``p_p(b)``,

    d(a, b) = p_p(a) * |s(b) \\ s(a)|  +  p_p(b) * |s(a) \\ s(b)|

is the expected number of messages sent to uninterested subscribers when
the two are combined into one multicast group: an event falling in ``a``
is wasted on the members contributed only by ``b`` and vice versa.  (The
formula as typeset in the paper pairs the factors the other way; the
prose definition — "the expected number of messages sent to subscribers
who are not interested in them" — forces this pairing.  See DESIGN.md.)

All kernels operate on boolean membership matrices and are fully
vectorised; the cross-membership counts ``|s(a) ∩ s(b)|`` come from one
matrix product — or, when a compiled kernel backend is active
(:mod:`repro.kernels`), from popcounts over the packed-bitset mirror of
the membership matrix.  The counts are exact small integers either way,
so both paths produce bit-identical float32 matrices.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..kernels import PackedBits, get_backend, pack_rows
from ..obs import get_registry

__all__ = [
    "expected_waste",
    "pairwise_waste_matrix",
    "waste_to_clusters",
    "squared_euclidean_matrix",
]


def expected_waste(
    membership_a: np.ndarray,
    prob_a: float,
    membership_b: np.ndarray,
    prob_b: float,
) -> float:
    """Expected waste between two individual (hyper-)cells or groups."""
    a = np.asarray(membership_a, dtype=bool)
    b = np.asarray(membership_b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError("membership vectors must have equal length")
    only_b = np.count_nonzero(b & ~a)
    only_a = np.count_nonzero(a & ~b)
    _count_evals(1)
    return float(prob_a) * only_b + float(prob_b) * only_a


def _intersections(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``|s(a) ∩ s(b)|`` for every row/col pair, via a float32 matmul."""
    return rows.astype(np.float32) @ cols.astype(np.float32).T


#: lazily bound counter child, keyed to the registry it came from so a
#: worker installing a fresh process registry transparently rebinds
_eval_handle = None
_eval_registry = None


def _count_evals(n: int) -> None:
    """Record ``n`` pairwise distance evaluations in the registry.

    Every vectorised kernel below funnels through this, so the counter
    is the single source of truth for "how much distance work did a
    clustering fit do" regardless of algorithm.

    This sits inside the innermost distance loop of the scalar
    :func:`expected_waste` path, so the bound counter child is cached at
    module level instead of re-resolved through
    ``registry.counter(name, help)`` (a dict lookup plus label hashing)
    on every call.  ``MetricsRegistry.reset`` keeps children alive, so
    the handle survives resets; swapping the process registry
    (:func:`repro.obs.set_registry`) is detected by identity and rebinds.
    """
    global _eval_handle, _eval_registry
    registry = get_registry()
    handle = _eval_handle
    if handle is None or _eval_registry is not registry:
        handle = registry.counter(
            "clustering_distance_evals_total",
            "pairwise expected-waste distance evaluations",
        ).labels()
        _eval_handle = handle
        _eval_registry = registry
    handle.inc(n)


def pairwise_waste_matrix(
    membership: np.ndarray,
    probs: np.ndarray,
    packed: Optional[PackedBits] = None,
) -> np.ndarray:
    """Full ``(m, m)`` expected-waste matrix between hyper-cells.

    ``W[i, j] = p_i * (|s_j| - |s_i ∩ s_j|) + p_j * (|s_i| - |s_i ∩ s_j|)``.
    The diagonal is zero.  Used by the MST and Pairwise Grouping
    algorithms.  Callers holding a packed-bitset mirror of ``membership``
    (:attr:`repro.grid.CellSet.packed`) pass it to let a compiled kernel
    backend skip the matmul; results are bit-identical either way.
    """
    membership = np.asarray(membership, dtype=bool)
    probs32 = np.asarray(probs, dtype=np.float32)
    if membership.ndim != 2 or len(probs32) != len(membership):
        raise ValueError("membership must be (m, S) with matching probs")
    _count_evals(len(membership) * len(membership))
    backend = get_backend()
    if backend.compiled:
        if packed is None:
            packed = pack_rows(membership)
        return backend.waste_matrix(
            packed, np.asarray(probs, dtype=np.float64)
        )
    sizes = membership.sum(axis=1).astype(np.float32)
    inter = _intersections(membership, membership)
    # float32 throughout: the matrix is O(m^2) and the float64 temporaries
    # dominate the cost for m in the thousands; probabilities and set
    # sizes are far from the float32 precision limits
    waste = sizes[None, :] - inter
    waste *= probs32[:, None]
    other = sizes[:, None] - inter
    other *= probs32[None, :]
    waste += other
    np.fill_diagonal(waste, 0.0)
    return waste


def waste_to_clusters(
    cell_membership: np.ndarray,
    cell_probs: np.ndarray,
    cluster_membership: np.ndarray,
    cluster_probs: np.ndarray,
) -> np.ndarray:
    """``(m, K)`` expected waste between every cell and every cluster.

    A cluster's membership vector is the union of its members'; its
    probability is the sum of theirs.  This is the assignment kernel of
    the K-means algorithms.
    """
    cell_membership = np.asarray(cell_membership, dtype=bool)
    cluster_membership = np.asarray(cluster_membership, dtype=bool)
    cell_probs = np.asarray(cell_probs, dtype=np.float64)
    cluster_probs = np.asarray(cluster_probs, dtype=np.float64)
    _count_evals(len(cell_membership) * len(cluster_membership))
    cell_sizes = cell_membership.sum(axis=1).astype(np.float64)
    cluster_sizes = cluster_membership.sum(axis=1).astype(np.float64)
    inter = _intersections(cell_membership, cluster_membership).astype(
        np.float64
    )
    waste = cell_probs[:, None] * (cluster_sizes[None, :] - inter)
    waste += cluster_probs[None, :] * (cell_sizes[:, None] - inter)
    return waste


def squared_euclidean_matrix(membership: np.ndarray) -> np.ndarray:
    """Plain squared-Euclidean distances between membership vectors.

    ``d_e^2(a, b) = sum_i (s(a)_i XOR s(b)_i)``.  Provided for comparison
    with the probability-weighted expected-waste distance (the paper's
    section 4.1 derivation starts from this form).
    """
    membership = np.asarray(membership, dtype=bool)
    sizes = membership.sum(axis=1).astype(np.float64)
    inter = _intersections(membership, membership).astype(np.float64)
    return sizes[:, None] + sizes[None, :] - 2.0 * inter
