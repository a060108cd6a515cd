"""The naming problem, and the paper's problem hierarchy.

Section 1.1 places three problems in a strict hierarchy:

    ranking  =>  naming  =>  leader election      (converses fail)

* **Naming** assigns every agent a unique identifier.  Any ranking
  solves it -- ranks are unique names -- but naming is weaker: names
  carry no order information an agent can act on locally ("it may not
  be straightforward to determine whether some agent exists with a
  smaller name").
* **Leader election** follows from naming only with extra machinery;
  from ranking it is immediate (rank 1).

This module gives the hierarchy a concrete API:

* :func:`names_are_unique` -- the naming correctness predicate; a
  ranking's ranks satisfy it, and so do Sublinear-Time-SSR's name
  fields, strictly earlier than its ranks are correct (see
  ``tests/protocols/test_naming.py``);
* :class:`NamingOnlyProtocol` -- a deliberately weakened wrapper that
  exposes names but censors their order, witnessing that the naming =>
  ranking converse has no generic derivation (each agent sees a bag of
  opaque tokens).
"""

from __future__ import annotations

import random
from typing import Hashable, Optional, Sequence, Tuple, TypeVar

from repro.protocols.base import RankingProtocol
from repro.statics.schema import StateSchema, register_schema, schema_for

S = TypeVar("S")


def names_are_unique(names: Sequence[Optional[Hashable]]) -> bool:
    """The naming correctness predicate: all present, all distinct."""
    if any(name is None for name in names):
        return False
    return len(set(names)) == len(names)


class NamingOnlyProtocol(RankingProtocol[Tuple]):
    """A ranking protocol with the order of its output censored.

    Wraps any ranking protocol and replaces each rank by an opaque token
    (a salted hash), preserving distinctness -- so naming correctness is
    untouched -- while destroying comparability.  Exists to make the
    "converse does not hold" direction of the hierarchy concrete and
    testable: no order-free post-processing of this protocol's output
    can recover the ranking, because the order information is simply not
    there.
    """

    def __init__(self, inner: RankingProtocol[S], salt: int = 0x5A17):
        super().__init__(inner.n)
        self.inner = inner
        self.salt = salt
        self.silent = inner.silent

    def token_of(self, state: S) -> Optional[int]:
        """The censored (opaque but stable) name for a state."""
        rank = self.inner.rank_of(state)
        if rank is None:
            return None
        # A fixed permutation-ish scrambling of 1..n: multiply by an odd
        # constant mod a prime above n, derived from the salt.
        modulus = _next_prime(max(self.n + 1, 3))
        multiplier = (2 * (self.salt % modulus) + 1) % modulus or 1
        return (rank * multiplier) % modulus

    # -- delegation ------------------------------------------------------

    def transition(self, a, b, rng: random.Random):
        return self.inner.transition(a, b, rng)

    def initial_state(self, rng: random.Random):
        return self.inner.initial_state(rng)

    def random_state(self, rng: random.Random):
        return self.inner.random_state(rng)

    def rank_of(self, state) -> Optional[int]:
        # Deliberately NOT the inner rank: the wrapper's observable
        # output is the token, which admits no order.
        return None

    def is_correct(self, states) -> bool:
        """Correct as a *naming* protocol: all tokens present, distinct."""
        return names_are_unique([self.token_of(s) for s in states])

    def summarize(self, state):
        return self.inner.summarize(state)

    def is_pair_null(self, a, b) -> bool:
        return self.inner.is_pair_null(a, b)


@register_schema(NamingOnlyProtocol)
def _naming_only_schema(protocol: NamingOnlyProtocol) -> StateSchema:
    """Censoring happens at the output map; states are the inner states."""
    return schema_for(protocol.inner)


def _next_prime(value: int) -> int:
    """Smallest prime >= value (tiny inputs only)."""
    candidate = max(value, 2)
    while True:
        if all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1
