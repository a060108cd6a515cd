"""repro -- Time-Optimal Self-Stabilizing Leader Election in Population Protocols.

A from-scratch reproduction of Burman, Chen, Chen, Doty, Nowak,
Severson & Xu, PODC 2021 (full version arXiv:1907.06068, 2019):

* a population-protocol simulation engine (:mod:`repro.core`),
* the paper's three self-stabilizing ranking/leader-election protocols
  plus the warm-up variant (:mod:`repro.protocols`),
* the probabilistic toolbox -- epidemics, bounded epidemics, roll call,
  coupon collector, scaling fits (:mod:`repro.analysis`), and
* the experiment harness regenerating every table and figure
  (:mod:`repro.experiments`).

Quickstart::

    import random
    from repro import OptimalSilentSSR, Simulation

    protocol = OptimalSilentSSR(n=20)
    rng = random.Random(7)
    sim = Simulation(protocol, protocol.random_configuration(rng), rng=rng)
    # Silent protocol: stable once the ranking is correct and silent.
    stable = sim.run_until_stable(max_interactions=10**7, confirm_interactions=10**7)
    assert stable
    leader = [i for i, s in enumerate(sim.states) if protocol.is_leader(s)]
    print(f"leader elected: agent {leader[0]} after {sim.parallel_time:.1f} time")
"""

from repro.core import (
    PopulationProtocol,
    Simulation,
    UniformRandomScheduler,
    make_rng,
)
from repro.protocols import (
    DirectCollisionSSR,
    ImmobilizedLeaderProtocol,
    OptimalSilentSSR,
    RankingProtocol,
    SilentNStateSSR,
    SublinearTimeSSR,
    SyncDictionarySSR,
    count_leaders,
    has_unique_leader,
)

__version__ = "1.0.0"

__all__ = [
    "PopulationProtocol",
    "RankingProtocol",
    "Simulation",
    "UniformRandomScheduler",
    "make_rng",
    "SilentNStateSSR",
    "DirectCollisionSSR",
    "OptimalSilentSSR",
    "SublinearTimeSSR",
    "SyncDictionarySSR",
    "ImmobilizedLeaderProtocol",
    "count_leaders",
    "has_unique_leader",
    "__version__",
]
