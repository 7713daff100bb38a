"""Adaptive delivery-mode selection (the abstract's dynamic decision).

Prices every event three ways — pure unicast, the clustered-multicast
plan, and broadcast — and executes the cheapest, measuring how much the
per-event decision adds on top of a fixed policy, and how the chosen
mode shifts with the subscription population (sparse interest →
unicast; heavy interest → broadcast; the middle belongs to multicast).
"""

import numpy as np
import pytest

from repro.clustering import ForgyKMeansClustering
from repro.delivery import AdaptiveDeliveryPolicy, Dispatcher
from repro.matching import GridMatcher
from repro.sim import ExperimentContext, build_evaluation_scenario

from conftest import print_banner

K = 60


def decide_run(policy, publishers, plans):
    """Price a run of matched events through the policy's dispatcher
    and decide it: ``(plan costs, decisions)``."""
    priced = policy.dispatcher.price_run(
        publishers, interested=[plan.interested for plan in plans],
        plans=plans,
    )
    unicast, _, plan_cost, broadcast = priced.T.tolist()
    return plan_cost, policy.decide(plans, unicast, plan_cost, broadcast)


def mode_rates(policy):
    """Fraction of the policy's decisions per mode."""
    total = sum(policy.mode_counts.values())
    return {
        mode: count / total if total else 0.0
        for mode, count in policy.mode_counts.items()
    }


def test_adaptive_delivery(benchmark, eval_ctx):
    scenario = eval_ctx.scenario

    def run():
        cells = eval_ctx.cells(2000)
        clustering = ForgyKMeansClustering().fit(cells, K)
        matcher = GridMatcher(clustering, scenario.subscriptions)
        dispatcher = eval_ctx.dispatcher("dense")
        policy = AdaptiveDeliveryPolicy(dispatcher)
        fixed_cost = adaptive_cost = unicast_cost = 0.0
        plans = matcher.match_batch([event.point for event in eval_ctx.events])
        plan_costs, decisions = decide_run(
            policy, [event.publisher for event in eval_ctx.events], plans
        )
        for plan_cost, decision in zip(plan_costs, decisions):
            fixed_cost += plan_cost
            adaptive_cost += decision.cost
            unicast_cost += decision.candidate_costs["unicast"]
        n = len(eval_ctx.events)
        return {
            "fixed": fixed_cost / n,
            "adaptive": adaptive_cost / n,
            "unicast": unicast_cost / n,
            "rates": mode_rates(policy),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Adaptive unicast/multicast/broadcast selection (K=60)")
    print(f"  always-plan cost: {results['fixed']:9.1f} per event")
    print(f"  adaptive cost:    {results['adaptive']:9.1f}")
    print(f"  pure unicast:     {results['unicast']:9.1f}")
    rates = results["rates"]
    print(
        f"  mode mix: unicast {100 * rates['unicast']:.0f}% / "
        f"multicast {100 * rates['multicast']:.0f}% / "
        f"broadcast {100 * rates['broadcast']:.0f}%"
    )

    # the adaptive policy can never lose to either fixed alternative
    assert results["adaptive"] <= results["fixed"] + 1e-6
    assert results["adaptive"] <= results["unicast"] + 1e-6
    # on this workload, all three modes should actually get used
    assert rates["multicast"] > 0.2


def test_mode_mix_shifts_with_population(benchmark):
    """Sparse populations favour unicast; dense ones favour broadcast."""

    def run():
        mixes = {}
        for n_subs in (100, 4000):
            scenario = build_evaluation_scenario(
                modes=1, n_subscriptions=n_subs, seed=3
            )
            ctx = ExperimentContext(scenario, n_events=100)
            cells = ctx.cells(1000)
            clustering = ForgyKMeansClustering().fit(
                cells, min(K, max(2, len(cells) - 1))
            )
            matcher = GridMatcher(clustering, scenario.subscriptions)
            dispatcher = ctx.dispatcher("dense")
            policy = AdaptiveDeliveryPolicy(dispatcher)
            plans = matcher.match_batch([event.point for event in ctx.events])
            decide_run(
                policy, [event.publisher for event in ctx.events], plans
            )
            mixes[n_subs] = mode_rates(policy)
        return mixes

    mixes = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner("Adaptive mode mix vs subscription population")
    for n_subs, rates in mixes.items():
        print(
            f"  {n_subs:>5} subscriptions: unicast {100 * rates['unicast']:.0f}% "
            f"multicast {100 * rates['multicast']:.0f}% "
            f"broadcast {100 * rates['broadcast']:.0f}%"
        )
    # broadcast share grows with the population, unicast share shrinks
    assert mixes[4000]["broadcast"] > mixes[100]["broadcast"]
    assert mixes[100]["unicast"] >= mixes[4000]["unicast"]
