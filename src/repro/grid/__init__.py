"""Grid-based clustering framework preprocessing (section 4.1): membership
matrices, hyper-cell merging and popularity-based cell selection."""

from .cells import (
    CellSet,
    build_cell_set,
    cell_set_from_membership,
    pack_membership,
)

__all__ = [
    "CellSet",
    "build_cell_set",
    "cell_set_from_membership",
    "pack_membership",
]
