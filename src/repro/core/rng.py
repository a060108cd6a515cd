"""Seeded random-number streams.

Every stochastic component in this package takes an explicit
:class:`random.Random` instance; nothing touches the global ``random``
module state.  This module provides the small amount of machinery needed
to derive independent, reproducible streams for repeated trials.

The derivation scheme hashes ``(root_seed, *labels)`` with SHA-256, so

* the same root seed and labels always yield the same stream,
* streams for different labels are statistically independent for all
  practical purposes, and
* adding a trial never perturbs the streams of existing trials (unlike
  sequential ``rng.randrange`` seeding).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator, Union

Label = Union[int, str]

#: Default root seed used across examples and benchmarks.
DEFAULT_SEED = 0x5EED


def derive_seed(root_seed: int, *labels: Label) -> int:
    """Derive a 64-bit integer seed from a root seed and a label path.

    >>> derive_seed(1, "trial", 0) != derive_seed(1, "trial", 1)
    True
    >>> derive_seed(1, "trial", 0) == derive_seed(1, "trial", 0)
    True
    """
    hasher = hashlib.sha256()
    hasher.update(str(root_seed).encode("utf8"))
    for label in labels:
        hasher.update(b"/")
        hasher.update(str(label).encode("utf8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def make_rng(root_seed: int, *labels: Label) -> random.Random:
    """Return a fresh :class:`random.Random` for the given label path."""
    return random.Random(derive_seed(root_seed, *labels))


def trial_rngs(root_seed: int, trials: int, *labels: Label) -> Iterator[random.Random]:
    """Yield ``trials`` independent RNGs labelled ``(*labels, i)``.

    This is the canonical way experiment runners fan a root seed out to
    repeated trials.
    """
    for index in range(trials):
        yield make_rng(root_seed, *labels, index)


def geometric(rng: random.Random, p: float) -> int:
    """Number of failures before the first success, success probability p.

    Exact inverse-CDF sampling: returns ``floor(log(U) / log(1 - p))``,
    one ``rng.random()`` draw per call (none when ``p == 1``).  Every
    jump-chain simulator in the package skips null interactions with
    it, so their RNG consumption stays in lockstep; the count engine's
    event loops inline it with the same float operations.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if p == 1.0:
        return 0
    u = rng.random()
    if u <= 0.0:  # pragma: no cover - measure-zero guard
        u = 5e-324
    return int(math.log(u) / math.log1p(-p))
