"""Agent names for Sublinear-Time-SSR.

A *name* is a bitstring of length at most ``3 * log2 n`` (we represent
it as a ``str`` of ``'0'``/``'1'`` characters; the empty string is the
cleared name written while a reset propagates).  With ``n^3`` possible
full-length names, a population that picks fresh names uniformly at
random is collision-free with probability at least ``1 - 1/n``.

Ranks are derived from names lexicographically: once an agent's roster
holds all ``n`` names, its rank is the 1-based position of its own name
in the sorted roster.  Note that for equal-length bitstrings,
lexicographic string order coincides with numeric order.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional

EMPTY_NAME = ""


def random_name(bits: int, rng: random.Random) -> str:
    """A uniformly random full-length name of ``bits`` bits."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return format(rng.getrandbits(bits), f"0{bits}b")


def append_random_bit(name: str, rng: random.Random) -> str:
    """One step of dormant-phase name generation: append a random bit."""
    return name + ("1" if rng.getrandbits(1) else "0")


def is_valid_name(name: str, bits: int) -> bool:
    """Whether ``name`` lies in the declared name space ``{0,1}^<=bits``."""
    return len(name) <= bits and all(c in "01" for c in name)


def rank_in_roster(name: str, roster: FrozenSet[str]) -> Optional[int]:
    """1-based lexicographic position of ``name`` in ``roster``.

    Returns ``None`` when the name is not in the roster, which can only
    happen in adversarial configurations (the protocol always keeps an
    agent's own name in its roster); callers skip the rank write in that
    case, which is safe because such a roster necessarily carries a ghost
    name and will eventually overflow and trigger a reset.
    """
    if name not in roster:
        return None
    return sorted(roster).index(name) + 1


def fresh_unique_names(n: int, bits: int, rng: random.Random) -> List[str]:
    """``n`` distinct random full-length names (for clean-start configs).

    Rejection-samples until distinct; with ``bits = 3 log2 n`` a single
    draw already succeeds with probability ``>= 1 - 1/n``.
    """
    while True:
        names = [random_name(bits, rng) for _ in range(n)]
        if len(set(names)) == n:
            return names
