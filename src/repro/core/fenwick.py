"""Shared Fenwick (binary indexed) trees with weighted sampling.

Both simulation fast paths need the same primitive: a non-negative
integer weight per index, point updates in O(log n), and "sample an
index with probability proportional to its weight" via one
``rng.randrange(total)`` draw followed by a bit descent.  The two
implementations grew up separately (:mod:`repro.core.fastpath` held the
fixed-size tree, :mod:`repro.core.countsim` the growable one); this
module is their single home.  Both classes keep the exact sampling
contract -- equal weights mean identical RNG consumption and identical
selected indices, which is what the cross-engine bit-exactness tests
rely on -- and both old import sites re-export them unchanged.

:class:`GrowableFenwick` also draws inline for the count engine's hot
loops: :meth:`~GrowableFenwick.draw` takes an RNG's bound
``getrandbits`` and runs CPython's ``Random._randbelow_with_getrandbits``
rejection loop itself, and :meth:`~GrowableFenwick.draw_excluding` is
the "responder is a different agent" draw without writing the tree.
Both consume exactly the bits ``randrange`` would, for every RNG that
:func:`draws_with_getrandbits` accepts.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

__all__ = ["FenwickTree", "GrowableFenwick", "draws_with_getrandbits"]


def draws_with_getrandbits(rng: random.Random) -> bool:
    """Whether ``rng.randrange(k)`` is CPython's ``getrandbits`` rejection loop.

    True for :class:`random.Random` and every subclass that keeps its
    ``randrange`` and overrides ``getrandbits`` (or nothing).  A subclass
    that overrides only ``random()`` gets ``_randbelow_without_getrandbits``
    instead, and an inline draw from its ``getrandbits`` would take a
    different stream.
    """
    cls = type(rng)
    return (
        isinstance(rng, random.Random)
        and cls.randrange is random.Random.randrange
        and getattr(cls, "_randbelow", None)
        is random.Random._randbelow_with_getrandbits
    )


class FenwickTree:
    """Fenwick tree over non-negative integer weights with sampling.

    Supports point update, total weight, and "find the smallest index
    whose prefix sum exceeds a target" -- the primitive needed to sample
    an index proportionally to its weight in O(log n).
    """

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        self.size = size
        self._tree = [0] * (size + 1)
        self._weights = [0] * size

    def weight(self, index: int) -> int:
        """Current weight at ``index``."""
        return self._weights[index]

    def set(self, index: int, weight: int) -> None:
        """Set the weight at ``index``."""
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        tree = self._tree
        i = index + 1
        while i <= self.size:
            tree[i] += delta
            i += i & (-i)

    def total(self) -> int:
        """Sum of all weights."""
        return self._prefix(self.size)

    def _prefix(self, count: int) -> int:
        total = 0
        tree = self._tree
        i = count
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def sample(self, rng: random.Random) -> int:
        """Sample an index with probability proportional to its weight."""
        total = self.total()
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        target = rng.randrange(total)  # uniform in [0, total)
        # Find smallest index with prefix_sum(index + 1) > target.
        position = 0
        remaining = target
        bit = 1 << (self.size.bit_length())
        tree = self._tree
        while bit > 0:
            nxt = position + bit
            if nxt <= self.size and tree[nxt] <= remaining:
                position = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return position  # 0-based index


class GrowableFenwick:
    """Fenwick tree over an append-only sequence of integer weights.

    Same sampling contract as :class:`FenwickTree` (``rng.randrange``
    followed by a bit descent, so two trees holding equal weights
    consume identical randomness and select the same index), plus
    ``append`` with amortized O(1) capacity doubling, an O(1) running
    total, and ``rebuild`` to replace every weight in linear time.
    """

    __slots__ = ("_capacity", "_tree", "_weights", "_total")

    def __init__(self) -> None:
        self._capacity = 16
        self._tree = [0] * (self._capacity + 1)
        self._weights: List[int] = []
        self._total = 0

    def __len__(self) -> int:
        return len(self._weights)

    def weight(self, index: int) -> int:
        return self._weights[index]

    def total(self) -> int:
        return self._total

    def append(self, weight: int) -> None:
        if len(self._weights) == self._capacity:
            self._grow()
        self._weights.append(0)
        if weight:
            self.set(len(self._weights) - 1, weight)

    def _grow(self) -> None:
        self._capacity *= 2
        self.rebuild(self._weights)

    def rebuild(self, weights: Sequence[int]) -> None:
        """Replace every weight at once, in O(capacity).

        The capacity doubles, as ``append`` would, until it covers
        ``weights``, and never shrinks.  A node's value depends only on
        the weights and the capacity, so the rebuilt tree is node for
        node the one incremental ``set`` calls would leave, and it
        samples draw for draw identically.
        """
        values = list(weights)
        if values and min(values) < 0:
            raise ValueError(f"weights must be non-negative, got {min(values)}")
        capacity = self._capacity
        while capacity < len(values):
            capacity *= 2
        tree = [0] * (capacity + 1)
        tree[1 : len(values) + 1] = values
        # Linear-time construction: push each node's sum to its parent.
        # Every position up to the capacity takes part, not just the
        # filled ones: an empty position still relays its children's sums.
        for pos in range(1, capacity):
            parent = pos + (pos & (-pos))
            if parent <= capacity:
                tree[parent] += tree[pos]
        self._capacity = capacity
        self._tree = tree
        self._weights = values
        self._total = sum(values)

    def set(self, index: int, weight: int) -> None:
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        delta = weight - self._weights[index]
        if delta == 0:
            return
        self._weights[index] = weight
        self._total += delta
        tree = self._tree
        i = index + 1
        capacity = self._capacity
        while i <= capacity:
            tree[i] += delta
            i += i & (-i)

    def add(self, index: int, delta: int) -> None:
        self.set(index, self._weights[index] + delta)

    def sample(self, rng: random.Random) -> int:
        """Sample an index with probability proportional to its weight."""
        total = self._total
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        return self._descend(rng.randrange(total))

    def draw(self, getrandbits: Callable[[int], int]) -> int:
        """:meth:`sample`, with ``randrange(total)`` drawn inline.

        ``getrandbits`` is the bound method of an RNG that
        :func:`draws_with_getrandbits` accepts; the rejection loop is
        ``Random._randbelow_with_getrandbits``, so the draw consumes the
        same bits and selects the same index as ``sample``.
        """
        total = self._total
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        bits = total.bit_length()
        target = getrandbits(bits)
        while target >= total:
            target = getrandbits(bits)
        # _descend, inlined: this is the engine's per-event hot path.
        position = 0
        bit = self._capacity >> 1
        tree = self._tree
        while bit:
            nxt = position + bit
            if tree[nxt] <= target:
                position = nxt
                target -= tree[nxt]
            bit >>= 1
        return position

    def draw_excluding(self, getrandbits: Callable[[int], int], index: int) -> int:
        """:meth:`draw` with one unit of ``index``'s weight set aside.

        The same bits and the same index as ``add(index, -1)``,
        ``draw``, ``add(index, +1)`` -- the responder draw, which must
        pick a different agent than the initiator in slot ``index`` --
        without writing the tree.  Draw ``r`` below ``total - 1``; with
        ``P`` the weight before ``index`` and ``w`` its weight (at least
        1), the reduced tree descends to the same index as this one for
        ``r < P``, stops at ``index`` for ``P <= r < P + w - 1``, and
        beyond that descends as this one does with ``r + 1``.
        """
        total = self._total - 1
        if total <= 0:
            raise ValueError("cannot sample from an all-zero tree")
        bits = total.bit_length()
        target = getrandbits(bits)
        while target >= total:
            target = getrandbits(bits)
        tree = self._tree
        before = 0
        i = index
        while i:
            before += tree[i]
            i &= i - 1
        if target >= before:
            if target < before + self._weights[index] - 1:
                return index
            target += 1
        # _descend, inlined as in draw.
        position = 0
        bit = self._capacity >> 1
        while bit:
            nxt = position + bit
            if tree[nxt] <= target:
                position = nxt
                target -= tree[nxt]
            bit >>= 1
        return position

    def _descend(self, target: int) -> int:
        """The smallest index whose prefix sum exceeds ``target < total``.

        Node ``capacity`` holds the total, which exceeds the target, so
        the descent starts one level below it; from there every step
        stays below the capacity.
        """
        position = 0
        bit = self._capacity >> 1
        tree = self._tree
        while bit:
            nxt = position + bit
            if tree[nxt] <= target:
                position = nxt
                target -= tree[nxt]
            bit >>= 1
        return position
