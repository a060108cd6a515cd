"""The paper's protocols.

* :class:`SilentNStateSSR` -- Protocol 1, the Cai-Izumi-Wada baseline
  (n states, Theta(n^2) time, silent);
* :class:`OptimalSilentSSR` -- Protocols 3-4 (O(n) states, Theta(n)
  expected time, silent; optimal for silent protocols);
* :class:`SublinearTimeSSR` -- Protocols 5-8, parameterized by history
  depth H (H = Theta(log n) gives Theta(log n) time; H = 0 the silent
  Theta(n) variant);
* :class:`SyncDictionarySSR` -- the O(sqrt n) warm-up of Section 5.2;
* :mod:`repro.protocols.propagate_reset` -- Protocol 2, shared by all;
* :mod:`repro.protocols.leader` -- leader election derived from ranking.
"""

from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.direct_collision import DirectCollisionSSR
from repro.protocols.loose_stabilization import LooseAgent, LooselyStabilizingLE
from repro.protocols.leader import (
    ImmobilizedLeaderProtocol,
    count_leaders,
    has_unique_leader,
    leader_flags,
)
from repro.protocols.optimal_silent import OptimalSilentAgent, OptimalSilentSSR
from repro.protocols.parameters import (
    OptimalSilentParameters,
    ResetParameters,
    SublinearParameters,
    calibrated_optimal_silent,
    calibrated_sublinear,
)
from repro.protocols.propagate_reset import (
    ResetHooks,
    ResetTimingProtocol,
    propagate_reset_interaction,
)
from repro.protocols.sublinear import SublinearAgent, SublinearTimeSSR
from repro.protocols.sync_dictionary import DictAgent, SyncDictionarySSR

__all__ = [
    "RankingProtocol",
    "SilentNStateSSR",
    "DirectCollisionSSR",
    "LooselyStabilizingLE",
    "LooseAgent",
    "OptimalSilentSSR",
    "OptimalSilentAgent",
    "SublinearTimeSSR",
    "SublinearAgent",
    "SyncDictionarySSR",
    "DictAgent",
    "ImmobilizedLeaderProtocol",
    "count_leaders",
    "has_unique_leader",
    "leader_flags",
    "ResetHooks",
    "ResetTimingProtocol",
    "propagate_reset_interaction",
    "ResetParameters",
    "OptimalSilentParameters",
    "SublinearParameters",
    "calibrated_optimal_silent",
    "calibrated_sublinear",
]
