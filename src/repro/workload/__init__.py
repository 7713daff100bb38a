"""Workload models: subscription and publication generators (sections 3
and 5.1 of the paper), plus the distributions they are built from."""

from .distributions import (
    GaussianMixture1D,
    IntervalDistribution,
    ParetoLength,
    UniformLattice,
    ZipfLike,
    normal_cdf,
)
from .publications import (
    MixturePublicationModel,
    PreliminaryPublicationModel,
    PublicationEvent,
    PublicationModel,
    four_mode_mixture,
    nine_mode_mixture,
    single_mode_mixture,
)
from .spaces import evaluation_space, preliminary_space
from .subscriptions import (
    EvaluationSubscriptionModel,
    PreliminarySubscriptionModel,
    Subscription,
    SubscriptionSet,
    as_points,
    join_rectangle,
    stab_flat,
    stab_run,
)

__all__ = [
    "GaussianMixture1D",
    "IntervalDistribution",
    "ParetoLength",
    "UniformLattice",
    "ZipfLike",
    "normal_cdf",
    "MixturePublicationModel",
    "PreliminaryPublicationModel",
    "PublicationEvent",
    "PublicationModel",
    "four_mode_mixture",
    "nine_mode_mixture",
    "single_mode_mixture",
    "evaluation_space",
    "preliminary_space",
    "EvaluationSubscriptionModel",
    "PreliminarySubscriptionModel",
    "Subscription",
    "SubscriptionSet",
    "as_points",
    "join_rectangle",
    "stab_flat",
    "stab_run",
]
