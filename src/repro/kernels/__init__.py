"""Packed-bitset membership kernels (see docs/kernels.md).

Membership vectors — "which subscribers does this (hyper-)cell / group
touch" — are the data every clustering hot path crunches: pairwise
merging, expected-waste scoring and online join placement all reduce to
overlap/union/popcount algebra over them.  This package packs the
boolean matrices into uint64 words (:mod:`repro.kernels.bitset`) and
dispatches the algebra to one of two interchangeable, byte-identical
backends (:mod:`repro.kernels.backends`): pure numpy (always available)
or a gcc-compiled native library loaded through ctypes.

Select with ``REPRO_KERNEL_BACKEND`` (``auto``/``numpy``/``native``),
the CLI's ``--backend`` flag, or :func:`set_backend`.
"""

from .backends import (
    KERNEL_BACKEND_ENV,
    NumpyBackend,
    available_backends,
    backend_name,
    get_backend,
    set_backend,
)
from .bitset import (
    PackedBits,
    intersect_count_rows,
    or_reduce_rows,
    pack_rows,
    popcount_rows,
    popcount_words,
    symmetric_difference_count_rows,
    union_count_rows,
    unpack_rows,
    words_for,
)

__all__ = [
    "KERNEL_BACKEND_ENV",
    "NumpyBackend",
    "PackedBits",
    "available_backends",
    "backend_name",
    "get_backend",
    "intersect_count_rows",
    "or_reduce_rows",
    "pack_rows",
    "popcount_rows",
    "popcount_words",
    "set_backend",
    "symmetric_difference_count_rows",
    "union_count_rows",
    "unpack_rows",
    "words_for",
]
