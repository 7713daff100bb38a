"""Subscription clustering algorithms (section 4 of the paper).

Grid-based family: K-means, Forgy K-means, MST and Pairwise Grouping
(exact and approximate) over hyper-cell membership vectors with the
expected-waste distance.  Rectangle family: the No-Loss algorithm.
"""

from .base import Clustering, GridClusteringAlgorithm
from .distance import (
    expected_waste,
    pairwise_waste_matrix,
    squared_euclidean_matrix,
    waste_to_clusters,
)
from .kmeans import ForgyKMeansClustering, KMeansClustering
from .mst import MSTClustering
from .noloss import LatticeBlockMass, NoLossAlgorithm, NoLossResult
from .pairwise import ApproximatePairwiseClustering, PairwiseGroupingClustering

__all__ = [
    "Clustering",
    "GridClusteringAlgorithm",
    "expected_waste",
    "pairwise_waste_matrix",
    "squared_euclidean_matrix",
    "waste_to_clusters",
    "ForgyKMeansClustering",
    "KMeansClustering",
    "MSTClustering",
    "LatticeBlockMass",
    "NoLossAlgorithm",
    "NoLossResult",
    "ApproximatePairwiseClustering",
    "PairwiseGroupingClustering",
]
