"""Vectorized batched count-engine kernel: :class:`VectorSimulation`.

:class:`~repro.core.countsim.CountSimulation` removed the O(n) agent
array; this module removes the interpreted-Python per-event overhead
that remained, along the two axes that dominate at large n:

* **Batched array sampling (interaction mode).**  The configuration's
  counts form a dense integer vector; a batch of K ordered pairs is
  drawn with numpy in one shot (uniform targets + ``searchsorted`` over
  the cumulative counts, with the initiator's own slot decremented for
  the responder draw -- exactly the sequential engine's law), looked up
  in a dense ``(slot_a, slot_b) -> (out_a, out_b)`` transition table
  compiled from the count engine's spy-RNG memo, and accepted as a
  vectorized prefix.  **Conflict detection:** a draw is valid only
  while the counts it was drawn from are current, so the batch is
  truncated at the first *configuration-changing* (or unprobed, or
  randomized) event; that one event is replayed through the scalar
  count-engine path, the rest of the batch is discarded (independent
  draws, so discarding is unbiased), and the next batch is drawn from
  the updated counts.  Null-dominated stretches -- the overwhelming
  regime for silent protocols -- therefore cost a handful of numpy
  calls per thousands of interactions.

* **Class-pruned jump classification (jump mode).**  Entering jump
  mode costs the count engine O(k^2) ``is_pair_null`` probes over the
  k occupied slots -- the dominant cost of whole runs at n >= 8192.
  The kernel prunes with the protocol's ``silent_class`` contract
  (two states with distinct non-``None`` classes are null in both
  orders; checked statically by ``repro lint``): only same-class and
  ``None``-class candidates are probed, which for Silent-n-state-SSR
  collapses classification from O(k^2) to O(k).  Pruned and full scans
  register the surviving pairs in the *same order*, so jump-mode
  trajectories stay bit-identical to ``CountSimulation``'s.

Everything else -- ConvergenceMonitor bookkeeping, the ``_obs_sample``
/ profiled-stage observability hooks, ``corrupt()`` fault resync, the
jump/active scalar loops and the silence certificate -- is *inherited*
from ``CountSimulation``, which is the parity guarantee's foundation:
with ``batch=1`` the kernel takes the scalar path end to end and is
bit-exact per seed against the count engine (enforced by
``tests/core/test_kernel.py``); with ``batch>1`` agreement is
distributional (KS-tested) and against the exact-chain oracle of
``repro verify``.

numpy is an **optional** extra: this module imports without it, and
:func:`select_count_engine` falls back to the pure-python
``CountSimulation`` when it is absent, so ``--engine vector`` degrades
gracefully instead of failing.
"""

from __future__ import annotations

import bisect
import time
from typing import Any, Dict, Hashable, List, Optional, Type

from repro.core.countsim import _RANDOMIZED, CountSimulation

try:  # pragma: no cover - exercised via the monkeypatched fallback tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

__all__ = [
    "VectorSimulation",
    "numpy_available",
    "select_count_engine",
]

#: Largest slot count for which the dense transition table is kept.
#: Beyond this the batched path shuts off (two int32 tables of
#: MAX_TABLE_DIM^2 cells = 32 MiB) and the scalar paths -- including
#: jump mode, where large-n runs spend their lives -- take over.
MAX_TABLE_DIM = 2048

#: Adaptive batch-size bounds: the batch doubles after fully-accepted
#: batches and halves after heavily-truncated ones, so change-dominated
#: openings pay little and null-dominated stretches amortize well.
MIN_BATCH = 16
INITIAL_BATCH = 64
MAX_BATCH = 16384


def numpy_available() -> bool:
    """Whether the vector kernel's numpy dependency is importable."""
    return _np is not None


def select_count_engine(engine: str) -> Type[CountSimulation]:
    """Resolve a count-representation engine name to its class.

    ``"count"`` is the pure-python :class:`CountSimulation`;
    ``"vector"`` is :class:`VectorSimulation` when numpy is available
    and otherwise *falls back* to ``CountSimulation`` (same contract,
    same distributions -- the kernel is an accelerator, not a
    semantic change).
    """
    if engine == "count":
        return CountSimulation
    if engine == "vector":
        return VectorSimulation if numpy_available() else CountSimulation
    raise ValueError(f"engine must be 'count' or 'vector', got {engine!r}")


class VectorSimulation(CountSimulation):
    """Batched array-sampling engine behind the ``CountSimulation`` contract.

    Parameters beyond :class:`CountSimulation`'s
    ----------------------------------------------
    batch:
        Scheduler draws per vectorized batch.  ``None`` (default)
        adapts between ``MIN_BATCH`` and ``MAX_BATCH`` based on how
        much of each batch survives conflict detection.  ``batch=1``
        pins the scalar path: bit-exact per seed against
        ``CountSimulation`` (same RNG consumption, same trajectories).

    Randomness
    ----------
    Scheduling draws in the batched path come from a numpy Generator
    seeded once from the supplied python RNG, so runs remain
    deterministic per seed; randomized *transitions* (and every scalar
    replay) keep consuming the python RNG in trajectory order, exactly
    like the count engine.
    """

    def __init__(
        self,
        protocol: Any,
        states: Optional[List[Any]] = None,
        *,
        rng: Any,
        mode: str = "auto",
        switch_after: Optional[int] = None,
        recorder: Optional[Any] = None,
        batch: Optional[int] = None,
    ):
        if _np is None:
            raise RuntimeError(
                "VectorSimulation requires numpy; install the 'vector' extra "
                "or use CountSimulation (engine='count')"
            )
        if batch is not None and batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        # Subclass state must exist before super().__init__ loads the
        # initial configuration (it calls our _classify_slot override).
        self._fixed_batch = batch
        self._batch_size = batch if batch is not None else INITIAL_BATCH
        self._scalar_only = batch == 1
        self._batch_disabled = False
        self._npg: Optional[Any] = None
        self._cum: Optional[Any] = None  # cached cumulative counts
        # Counts change under the batched path only through a replayed
        # event, a fault (``corrupt``) or jump mode (left only through
        # ``_exit_jump_mode``); each of those marks the cache stale.
        self._cum_stale = True
        self._table_cap = 0
        self._table_a: Optional[Any] = None
        self._table_b: Optional[Any] = None
        self._class_lists: Dict[Hashable, List[int]] = {}
        self._none_class: List[int] = []
        super().__init__(
            protocol,
            states,
            rng=rng,
            mode=mode,
            switch_after=switch_after,
            recorder=recorder,
        )

    # -- count bookkeeping ---------------------------------------------

    def corrupt(self, victims: Any, new_states: Any) -> None:
        super().corrupt(victims, new_states)
        self._cum_stale = True

    # -- class-pruned jump classification ------------------------------

    def _classify_slot(self, m: int) -> None:
        """Classify slot ``m`` against same-class and wildcard slots only.

        Slots whose ``silent_class`` differs from ``m``'s (both
        non-``None``) are null partners by the lint-checked contract and
        register nothing in the full scan either, so the surviving
        pairs -- probed in ascending slot order exactly like
        ``CountSimulation._classify_slot`` -- land in the pair list in
        the identical order.  That keeps jump-mode Fenwick sampling,
        and hence whole trajectories, bit-identical.
        """
        if self._class_of is None:
            super()._classify_slot(m)
            return
        classified = self._classified
        classified[m] = True
        is_pair_null = self.protocol.is_pair_null
        reps = self._reps
        a = reps[m]
        cm = self._class_of(a)
        if cm is None:
            # Wildcard slot: may interact with anything; full scan, then
            # remember it as a candidate for every later slot.
            for j, done in enumerate(classified):
                if not done:
                    continue
                if j == m:
                    if not is_pair_null(a, a):
                        self._register_pair(m, m)
                else:
                    b = reps[j]
                    if not is_pair_null(a, b):
                        self._register_pair(m, j)
                    if not is_pair_null(b, a):
                        self._register_pair(j, m)
            bisect.insort(self._none_class, m)
            return
        members = self._class_lists.get(cm)
        if members is None:
            members = self._class_lists[cm] = [m]
        else:
            bisect.insort(members, m)
        if self._none_class:
            candidates = sorted(members + self._none_class)
        else:
            candidates = members
        for j in candidates:
            if j == m:
                if not is_pair_null(a, a):
                    self._register_pair(m, m)
            else:
                b = reps[j]
                if not is_pair_null(a, b):
                    self._register_pair(m, j)
                if not is_pair_null(b, a):
                    self._register_pair(j, m)

    def _exit_jump_mode(self) -> None:
        super()._exit_jump_mode()
        self._cum_stale = True
        self._class_lists = {}
        self._none_class = []

    # -- batched stepping ----------------------------------------------

    def _advance(self, interactions: int) -> None:
        if self._scalar_only:
            super()._advance(interactions)
            return
        deadline = self.interactions + interactions
        while self.interactions < deadline:
            if self._mode == "interaction" and not self._batch_disabled:
                self._advance_batched(deadline)
                if self.interactions >= deadline:
                    return
                # Mode switched or batching shut off; fall through to
                # the scalar engine on the next iteration.
                continue
            super()._advance(deadline - self.interactions)
            return

    def _generator(self) -> Any:
        """The numpy Generator for scheduling draws, seeded once."""
        if self._npg is None:
            self._npg = _np.random.default_rng(self.rng.getrandbits(128))
        return self._npg

    def _cumulative_counts(self) -> Any:
        if self._cum_stale:
            self._cum = _np.cumsum(
                _np.asarray(self._counts, dtype=_np.int64)
            )
            self._cum_stale = False
        return self._cum

    def _ensure_table(self, k: int) -> bool:
        """Grow the dense transition table to cover ``k`` slots.

        Returns ``False`` (and permanently disables batching) once the
        slot count outgrows ``MAX_TABLE_DIM`` -- the dense table is a
        small-k structure; large-k runs live in jump mode anyway.
        """
        if k <= self._table_cap:
            return True
        if k > MAX_TABLE_DIM:
            self._batch_disabled = True
            return False
        cap = max(16, 1 << (k - 1).bit_length())
        table_a = _np.full((cap, cap), -1, dtype=_np.int32)
        table_b = _np.full((cap, cap), -1, dtype=_np.int32)
        if self._table_cap:
            table_a[: self._table_cap, : self._table_cap] = self._table_a
            table_b[: self._table_cap, : self._table_cap] = self._table_b
        self._table_a, self._table_b, self._table_cap = table_a, table_b, cap
        return True

    def _sync_table(self, si: int, sj: int) -> None:
        """Copy one memoized transition into the dense table.

        ``-1`` marks unprobed cells, ``-2`` randomized pairs (replayed
        scalar, in trajectory order, on every occurrence).
        """
        entry = self._memo.get((si, sj), False)
        if entry is False:
            return
        if entry is _RANDOMIZED:
            ta = tb = -2
        else:
            ta, tb = entry
        self._table_a[si, sj] = ta
        self._table_b[si, sj] = tb

    def _advance_batched(self, deadline: int) -> None:
        """Interaction-mode batches until the deadline or a mode change."""
        np = _np
        npg = self._generator()
        n = self.n
        obs = self._obs
        profile = self._profile
        while self.interactions < deadline and self._mode == "interaction":
            k = len(self._reps)
            if not self._ensure_table(k):
                return
            size = min(self._batch_size, deadline - self.interactions)
            start = time.perf_counter() if profile else 0.0
            cum = self._cumulative_counts()
            # Initiator ~ counts; responder ~ counts with the
            # initiator's slot decremented (a *different* agent) --
            # the sequential scheduler's law, in two searchsorted
            # passes instead of 2*size Fenwick descents.
            u1 = npg.integers(0, n, size=size)
            si = np.searchsorted(cum, u1, side="right")
            u2 = npg.integers(0, n - 1, size=size)
            j1 = np.searchsorted(cum, u2, side="right")
            j2 = np.searchsorted(cum, u2 + 1, side="right")
            sj = np.where(j1 < si, j1, j2)
            if profile:
                obs.add_stage_time(
                    "kernel.batch_sampling", time.perf_counter() - start
                )
            start = time.perf_counter() if profile else 0.0
            ta = self._table_a[si, sj]
            tb = self._table_b[si, sj]
            # A known-null draw leaves the multiset unchanged, so later
            # draws in the batch remain valid; anything else (a change,
            # an unprobed cell, a randomized pair) invalidates them.
            null = (ta >= 0) & (
                ((ta == si) & (tb == sj)) | ((ta == sj) & (tb == si))
            )
            blocked = np.flatnonzero(~null)
            if profile:
                obs.add_stage_time(
                    "kernel.batch_apply", time.perf_counter() - start
                )
            if blocked.size == 0:
                self.interactions += size
                self.events += size
                if self._fixed_batch is None and self._batch_size < MAX_BATCH:
                    self._batch_size *= 2
            else:
                stop = int(blocked[0])
                # Accept the null prefix wholesale, replay the blocking
                # event through the scalar path (memo probe, randomized
                # transition, apply + resync), discard the stale tail.
                self.interactions += stop + 1
                self.events += stop + 1
                a_slot, b_slot = int(si[stop]), int(sj[stop])
                changes = self.changes
                self._interact(a_slot, b_slot)
                if self.changes != changes:
                    self._cum_stale = True
                self._sync_table(a_slot, b_slot)
                if (
                    self._fixed_batch is None
                    and self._batch_size > MIN_BATCH
                    and (stop + 1) * 4 < self._batch_size
                ):
                    self._batch_size //= 2
            if obs is not None and self.events >= self._obs_next:
                self._obs_sample()
            if (
                self._switching
                and self.interactions - self._last_change >= self._switch_after
            ):
                self._enter_jump_mode()
                return
