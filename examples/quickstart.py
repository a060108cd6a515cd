#!/usr/bin/env python3
"""Quickstart: self-stabilizing leader election from a hostile start.

We hand Optimal-Silent-SSR (the paper's linear-time, linear-state,
silent protocol) a population of 16 agents whose memories have been
filled with garbage -- random roles, duplicate ranks, half-finished
resets -- and watch it converge to a unique ranking 1..n, which makes
the rank-1 agent the unique leader.  Because the protocol is
self-stabilizing, *any* starting configuration would have worked.

Run:  python examples/quickstart.py
"""

from repro import OptimalSilentSSR, Simulation, count_leaders, make_rng

N = 16
SEED = 2021  # the paper's PODC year


def main() -> None:
    protocol = OptimalSilentSSR(N)
    rng = make_rng(SEED, "quickstart")

    # Adversarial start: every agent gets an independently random state.
    states = protocol.random_configuration(rng)
    print(f"Population of {N} agents, adversarial start:")
    for index, state in enumerate(states[:5]):
        print(f"  agent {index}: {protocol.describe(state)}")
    print(f"  ... ({N - 5} more)\n")

    sim = Simulation(protocol, states, rng=rng)
    # Probes every ~1 unit of parallel time; a silent protocol is stable
    # once its ranking is correct and silent, so no streak is needed.
    budget = 10**7
    if not sim.run_until_stable(budget, confirm_interactions=budget):
        raise RuntimeError(f"not stable within {budget} interactions")

    print(f"Stabilized after {sim.parallel_time:.1f} parallel time")
    print(f"  ({sim.interactions} pairwise interactions)\n")

    ranks = sorted((protocol.rank_of(s), i) for i, s in enumerate(sim.states))
    print("Final ranking (rank -> agent):")
    print("  " + ", ".join(f"{rank}->a{agent}" for rank, agent in ranks))

    leaders = [i for i, s in enumerate(sim.states) if protocol.is_leader(s)]
    assert count_leaders(protocol, sim.states) == 1
    print(f"\nUnique leader elected: agent {leaders[0]} (rank 1)")
    print("The configuration is silent: no agent will ever change state again.")


if __name__ == "__main__":
    main()
