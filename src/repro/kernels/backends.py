"""Kernel backend selection and the always-available numpy backend.

Two interchangeable backends implement the hot-path membership
kernels over packed bitsets (:mod:`repro.kernels.bitset`):

``numpy``
    Pure numpy: ``np.bitwise_count`` over uint64 words.  Always
    available; the reference the native backend is tested
    byte-identical against.
``native``
    A small C file shipped with the package, compiled on demand with the
    system C compiler and called through ctypes
    (:mod:`repro.kernels.native`).  Provides the fused agglomerative
    ``pairwise_fit`` kernel.

Selection happens lazily at first use: ``REPRO_KERNEL_BACKEND`` names a
backend or ``auto`` (the default), which prefers ``native``, then
``numpy``.  :func:`set_backend` overrides at runtime
(the CLI's ``--backend`` flag routes here).  Requesting an unavailable
backend degrades to numpy with a warning rather than failing — results
are identical by construction, only speed differs.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional

import numpy as np

from .bitset import PackedBits, intersect_count_rows, popcount_rows

__all__ = [
    "KERNEL_BACKEND_ENV",
    "NumpyBackend",
    "available_backends",
    "backend_name",
    "get_backend",
    "set_backend",
]

KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_BACKEND_NAMES = ("numpy", "native")

#: preference order of ``auto`` (first available wins, numpy always is)
_AUTO_ORDER = ("native", "numpy")


class NumpyBackend:
    """Pure-numpy bitset kernels — the portable reference backend."""

    name = "numpy"
    compiled = False

    def popcount_rows(self, words: np.ndarray) -> np.ndarray:
        return popcount_rows(words)

    def intersect_counts(
        self, words: np.ndarray, row: np.ndarray
    ) -> np.ndarray:
        return intersect_count_rows(words, row)

    def waste_matrix(
        self, packed: PackedBits, probs: np.ndarray
    ) -> np.ndarray:
        """Float32 pairwise waste matrix from packed rows.

        Row-blocked broadcast AND + popcount; float op order matches the
        matmul formulation in :func:`repro.clustering.distance.
        pairwise_waste_matrix` (intersections are exact small integers in
        both, so the float32 results are bit-equal).
        """
        words = packed.words
        m = len(words)
        sizes = popcount_rows(words).astype(np.float32)
        probs32 = np.asarray(probs, dtype=np.float32)
        out = np.empty((m, m), dtype=np.float32)
        # bound the (block, m, W) AND temporary to ~8 MiB
        word_bytes = max(1, words.shape[1]) * 8
        block = max(1, (8 << 20) // max(1, m * word_bytes))
        for start in range(0, m, block):
            stop = min(m, start + block)
            inter = (
                np.bitwise_count(words[start:stop, None, :] & words[None, :, :])
                .sum(axis=2, dtype=np.int64)
                .astype(np.float32)
            )
            chunk = sizes[None, :] - inter
            chunk *= probs32[start:stop, None]
            other = sizes[start:stop, None] - inter
            other *= probs32[None, :]
            chunk += other
            out[start:stop] = chunk
        np.fill_diagonal(out, 0.0)
        return out

    def group_mass(
        self,
        covered: np.ndarray,
        cell_group_ext: np.ndarray,
        cell_pmf: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        """Per-group mass of covered cells via one unmasked bincount.

        ``cell_group_ext`` maps unclustered cells to the sentinel bucket
        ``n_groups``, which is sliced off — same accumulation order as
        the masked two-gather formulation it replaces.
        """
        return np.bincount(
            cell_group_ext[covered],
            weights=cell_pmf[covered],
            minlength=n_groups + 1,
        )[:n_groups]

    def group_scorer(
        self,
        cell_group_ext: np.ndarray,
        cell_pmf: np.ndarray,
        group_mass: np.ndarray,
    ):
        """A bound join scorer: ``scorer(covered) -> (group, overlap)``.

        ``group`` is the argmin of ``group_mass[g] - 2 * overlap[g]``
        over the groups with positive overlap (first occurrence on
        ties), or ``-1`` when the covered cells touch no group — the
        online maintainer's join placement rule in one call.
        """
        n_groups = len(group_mass)

        def scorer(covered: np.ndarray):
            overlap = np.bincount(
                cell_group_ext[covered],
                weights=cell_pmf[covered],
                minlength=n_groups + 1,
            )[:n_groups]
            candidates = np.nonzero(overlap > 0)[0]
            if len(candidates) == 0:
                return -1, overlap
            scores = group_mass[candidates] - 2.0 * overlap[candidates]
            return int(candidates[np.argmin(scores)]), overlap

        return scorer

    def pairwise_fit(self, packed, probs, n_groups):
        """No fused merge loop in numpy — callers run the python loop."""
        return None


_cache: Dict[str, Optional[object]] = {}
_active: Optional[object] = None


def _probe(name: str):
    """Instantiate (once) the named backend; ``None`` if unavailable."""
    if name in _cache:
        return _cache[name]
    backend = None
    try:
        if name == "numpy":
            backend = NumpyBackend()
        elif name == "native":
            from .native import load_native_backend

            backend = load_native_backend()
    except Exception:  # unavailable backends must never break callers
        backend = None
    _cache[name] = backend
    return backend


def available_backends() -> List[str]:
    """Names of the backends usable in this process."""
    return [name for name in _BACKEND_NAMES if _probe(name) is not None]


def _resolve(name: str, strict: bool):
    name = (name or "auto").strip().lower()
    if name == "auto":
        for candidate in _AUTO_ORDER:
            backend = _probe(candidate)
            if backend is not None:
                return backend
        return _probe("numpy")  # unreachable: numpy always loads
    if name not in _BACKEND_NAMES:
        message = (
            f"unknown kernel backend {name!r}; "
            f"expected one of {('auto',) + _BACKEND_NAMES}"
        )
        if strict:
            raise ValueError(message)
        warnings.warn(message + "; using auto", RuntimeWarning, stacklevel=3)
        return _resolve("auto", strict=False)
    backend = _probe(name)
    if backend is None:
        warnings.warn(
            f"kernel backend {name!r} is unavailable "
            f"(missing compiler or module); falling back to numpy",
            RuntimeWarning,
            stacklevel=3,
        )
        return _probe("numpy")
    return backend


def get_backend():
    """The active kernel backend (resolving the environment on first use)."""
    global _active
    if _active is None:
        _active = _resolve(os.environ.get(KERNEL_BACKEND_ENV, "auto"),
                           strict=False)
    return _active


def set_backend(name: str):
    """Select a backend by name (``auto`` re-runs the preference order).

    Unknown names raise; known-but-unavailable names fall back to numpy
    with a warning.  Returns the backend now active.
    """
    global _active
    _active = _resolve(str(name), strict=True)
    return _active


def backend_name() -> str:
    """Name of the active backend (``numpy`` / ``native``)."""
    return get_backend().name


def _reset_for_testing() -> None:
    """Drop the resolved backend so the environment is re-read."""
    global _active
    _active = None
