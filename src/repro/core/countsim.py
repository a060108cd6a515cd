"""Protocol-generic count-based simulation engine.

Agents in a population protocol are anonymous and the scheduler is
uniform, so the future of a run depends on the configuration only
through the *multiset* of agent states.  This engine exploits that:

* the configuration is a vector of counts ``{state: count}`` over the
  distinct states seen so far (``k`` states, typically ``k << n``);
* the interacting ordered *state pair* is sampled directly, with
  probability proportional to ``c_a * c_b`` for ``a != b`` and
  ``c_a * (c_a - 1)`` on the diagonal -- exactly the uniform scheduler's
  law -- via Fenwick trees in ``O(log k)``;
* deterministic transitions are memoized per ordered state pair: the
  protocol's ``transition`` runs once per pair through a spy RNG, and if
  it never consults the RNG the (state-pair -> state-pair) result is
  replayed for free on every later occurrence;
* for silent protocols, runs of null interactions are *batched*: once
  the set of effective (non-null) ordered pairs is known, the number of
  consecutive null interactions is drawn from the exact geometric law
  with success probability ``W_eff / (n (n - 1))`` and skipped in O(1),
  generalizing the single-protocol trick of
  :class:`repro.core.fastpath.CiwJumpSimulator`.

Every interaction the sequential engine would have scheduled is
accounted for, so interaction counts (and hence parallel times) have
exactly the same distribution as :class:`repro.core.simulation.Simulation`
produces -- enforced by the distributional tests in
``tests/core/test_countsim.py``.

Eligibility is derived from the static schema registry
(:mod:`repro.statics.schema`): the engine needs a registered schema
whose canonical :meth:`~repro.statics.schema.StateSchema.key` is
lossless, i.e. every declared field participates in the key.  Protocols
carrying unhashable out-of-key structures (history trees, rosters) fall
back to the generic engine -- see :func:`count_engine_eligible`.

Modes
-----
``interaction``
    One scheduler draw per interaction (two Fenwick samples), memoized
    transitions.  Always available.
``jump``
    Geometric null-skipping over the effective-pair tree.  Requires a
    silent protocol (the analytic ``is_pair_null`` predicate classifies
    pairs).  Fast only when effective pairs are rare.
``auto`` (default)
    Start in ``interaction`` mode; switch to ``jump`` once
    ``max(64, n)`` consecutive interactions changed nothing -- the
    empirical signal that null interactions dominate.  Protocols that
    are not silent simply never switch.  (The switch is undone only by
    fault injection -- see :meth:`CountSimulation.corrupt` -- after
    which the same null-gap heuristic re-arms.)
``active``
    Partition agents into *active* and *passive* using the protocol's
    optional ``silent_class`` hook and skip passive-passive pairs with
    one geometric draw.  ``silent_class(state)`` returns a hashable
    class or ``None`` (always active); the contract is that two states
    with *distinct* non-``None`` classes form null pairs in both
    orders (checked statically by ``repro lint``).  A slot is passive
    when it is the only occupied slot of its class and its diagonal is
    null (trivially so at count 1).  Unlike jump mode this needs no
    O(k^2) pair classification and survives fault injection at O(1)
    incremental cost, so it is the mode ``measure_recovery`` uses for
    large-n chaos runs.

Fault injection
---------------
:meth:`CountSimulation.corrupt` edits the count multiset in place
(decrement victim slots, increment corrupted-state slots) and resyncs
every piece of incremental bookkeeping, which is what lets
``measure_recovery(engine="count")`` run recovery experiments at
n=8192+ instead of n~256.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, Hashable, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.core.errors import NotSilentError
from repro.core.fenwick import GrowableFenwick
from repro.core.protocol import PopulationProtocol, check_population
from repro.core.rng import geometric
from repro.obs.context import current_recorder
from repro.statics.schema import StateSchema, has_schema, schema_for

S = TypeVar("S")

__all__ = [
    "CountSimulation",
    "GrowableFenwick",  # historical import site; canonical home is core.fenwick
    "count_engine_eligible",
]


class _SpyRandom(random.Random):
    """Wraps a real RNG and records whether it was ever consulted.

    Every derived method of :class:`random.Random` (``randrange``,
    ``choice``, ``shuffle``, ``gauss``, ...) bottoms out in ``random()``
    or ``getrandbits()``, so overriding those two both forwards all
    randomness to the wrapped RNG and detects any consumption.  Used to
    classify a transition's behaviour on one input pair: if the spy was
    never used, the observed result is deterministic for that pair and
    can be memoized.
    """

    def __init__(self, inner: random.Random):
        super().__init__()
        self._inner = inner
        self.used = False

    def random(self) -> float:  # type: ignore[override]
        self.used = True
        return self._inner.random()

    def getrandbits(self, k: int) -> int:  # type: ignore[override]
        self.used = True
        return self._inner.getrandbits(k)

    def seed(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover
        pass  # called by Random.__init__; must not touch the inner RNG

    def getstate(self) -> Any:  # pragma: no cover
        raise NotImplementedError("spy RNG state is the wrapped RNG's state")

    def setstate(self, state: Any) -> None:  # pragma: no cover
        raise NotImplementedError("spy RNG state is the wrapped RNG's state")


def count_engine_eligible(protocol: PopulationProtocol[Any]) -> bool:
    """Whether :class:`CountSimulation` can run ``protocol``.

    Requires a registered state schema whose canonical key is lossless:
    every declared field has ``in_key=True``, so two states with equal
    keys are interchangeable.  Protocols with out-of-key fields (e.g.
    the sublinear protocol's history trees) must use the generic engine.
    """
    if not has_schema(protocol):
        return False
    schema = schema_for(protocol)
    return all(spec.in_key for role in schema.roles for spec in role.fields)


#: Memo marker for pairs whose transition consults the RNG.
_RANDOMIZED = None

_MODES = ("auto", "interaction", "jump", "active")


class CountSimulation:
    """Count-based engine, distributionally exact w.r.t. ``Simulation``.

    Parameters
    ----------
    protocol:
        The protocol to execute.  Must satisfy
        :func:`count_engine_eligible`; silent protocols additionally
        unlock the ``jump``/``auto`` fast modes.
    states:
        Initial configuration (``protocol.n`` agent states).  The input
        objects are never mutated: transitions always run on copies of
        slot representatives (``protocol.clone_state``).
    rng:
        Source of randomness for scheduling and randomized transitions.
    mode:
        ``"auto"`` (default), ``"interaction"``, ``"jump"`` or
        ``"active"`` -- see the module docstring.
    switch_after:
        In ``auto`` mode, the null-gap (consecutive interactions without
        a configuration change) that triggers the one-way switch to jump
        mode.  Defaults to ``max(64, n)``.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricsRecorder`; defaults to
        the ambient recorder (see :mod:`repro.obs.context`).  When
        present, the engine samples its O(1) bookkeeping (leader count,
        rank coverage, distinct states, null fraction) every
        ``recorder.sample_every`` effective events, emits convergence /
        regression events, and credits throughput; with
        ``recorder.profile`` it additionally times the pair-sampling,
        transition and resync stages.  With no recorder every hook is a
        single predicate check or absent entirely.

    Attributes
    ----------
    interactions:
        Interactions accounted for so far (null + effective).
    events:
        Transition applications (every interaction in interaction mode;
        only the sampled effective events in jump mode).
    changes:
        Interactions that changed the configuration multiset.
    correct / streak_start / regressions:
        Ranking-correctness bookkeeping with the exact semantics of
        :class:`repro.core.monitors.ConvergenceMonitor` (available when
        the protocol exposes ``rank_of``).
    """

    def __init__(
        self,
        protocol: PopulationProtocol[S],
        states: Optional[List[S]] = None,
        *,
        rng: random.Random,
        mode: str = "auto",
        switch_after: Optional[int] = None,
        recorder: Optional[Any] = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.protocol = protocol
        self.rng = rng
        if states is None:
            states = protocol.initial_configuration(rng)
        check_population(protocol, states)
        schema = schema_for(protocol)  # raises KeyError when unregistered
        lossy = [
            spec.name
            for role in schema.roles
            for spec in role.fields
            if not spec.in_key
        ]
        if lossy:
            raise ValueError(
                f"{type(protocol).__name__} schema excludes fields {lossy} from "
                "the canonical key; the count engine needs lossless state keys "
                "(use the generic Simulation instead)"
            )
        if mode in ("jump", "active") and not protocol.silent:
            raise NotSilentError(
                f"{type(protocol).__name__} is not silent; {mode} mode needs "
                "the analytic is_pair_null predicate"
            )
        self._class_of = getattr(protocol, "silent_class", None)
        if mode == "active" and self._class_of is None:
            raise ValueError(
                f"{type(protocol).__name__} does not implement silent_class(); "
                "active mode needs the mutually-null class partition"
            )
        self._schema: StateSchema = schema
        self._clone = protocol.clone_state
        n = protocol.n
        self.n = n
        self._ordered_pairs = n * (n - 1)

        # -- observability (armed at the end of __init__, so initial
        # -- configuration loading records neither samples nor events) --
        self._obs: Optional[Any] = None
        self._profile = False
        self._obs_next = 0
        self._occupied = 0  # slots with non-zero count (distinct states)

        # -- slot tables: one slot per distinct state key ever seen -----
        self._slot_of_key: Dict[Hashable, int] = {}
        self._reps: List[S] = []
        self._counts: List[int] = []
        self._count_tree = GrowableFenwick()
        self._slot_rank: List[int] = []
        self._memo: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}

        # -- ranking-correctness bookkeeping (ConvergenceMonitor semantics)
        rank_of = getattr(protocol, "rank_of", None)
        self._rank_of = rank_of
        self._rank_counts: List[int] = [0] * (n + 1)
        self._good = 0
        self.correct = False
        self.streak_start: Optional[int] = None
        self.regressions = 0

        # -- jump-mode structures (built lazily) ------------------------
        self._pair_list: List[Tuple[int, int]] = []
        self._adj: List[List[int]] = []
        self._pair_tree = GrowableFenwick()
        self._classified: List[bool] = []

        # -- active-mode structures (used only when mode == "active") ---
        self._active_mode = mode == "active"
        self._slot_class: List[Optional[Hashable]] = []
        self._self_null: List[Optional[bool]] = []
        self._class_slots: Dict[Hashable, Set[int]] = {}
        self._active_tree = GrowableFenwick()
        self._passive_tree = GrowableFenwick()

        self.interactions = 0
        self.events = 0
        self.changes = 0
        self._last_change = 0
        self._requested_mode = mode
        self._mode = "active" if mode == "active" else "interaction"
        self._switching = mode == "auto" and protocol.silent
        self._switch_after = switch_after if switch_after else max(64, n)

        for state in states:
            slot = self._slot_for_state(state)
            self._set_count(slot, self._counts[slot] + 1)
        self._refresh()
        if mode == "jump":
            self._enter_jump_mode()

        obs = recorder if recorder is not None else current_recorder()
        if obs is not None:
            self._obs = obs
            self._profile = bool(getattr(obs, "profile", False))
            self._obs_next = obs.sample_every

    # -- public surface ------------------------------------------------

    @property
    def parallel_time(self) -> float:
        """Interactions accounted for so far, divided by ``n``."""
        return self.interactions / self.n

    @property
    def mode(self) -> str:
        """Current engine mode: ``"interaction"``, ``"jump"`` or ``"active"``."""
        return self._mode

    @property
    def silent(self) -> bool:
        """Whether the configuration is *provably* silent.

        Jump mode maintains the effective-pair weight exactly; active
        mode certifies silence when no agent is active (sound by the
        ``silent_class`` contract, and exact for the package's silent
        protocols, whose same-class encounters are always effective).
        In interaction mode this is ``False`` ("not known silent").
        """
        if self._mode == "jump":
            return self._pair_tree.total() == 0
        if self._mode == "active":
            return self._active_tree.total() == 0
        return False

    def occupancy(self) -> Dict[Hashable, int]:
        """Multiset of canonical state keys with non-zero counts."""
        keys = {slot: key for key, slot in self._slot_of_key.items()}
        return {
            keys[slot]: count
            for slot, count in enumerate(self._counts)
            if count > 0
        }

    def expand_states(self) -> List[S]:
        """Materialize an agent-state list (independent copies, arbitrary order)."""
        out: List[S] = []
        for slot, count in enumerate(self._counts):
            for _ in range(count):
                out.append(self._clone(self._reps[slot]))
        return out

    def correct_streak(self, current_step: int) -> int:
        """Length (in interactions) of the current correct streak."""
        if not self.correct or self.streak_start is None:
            return 0
        return current_step - self.streak_start

    def run(self, interactions: int) -> None:
        """Account for up to ``interactions`` further interactions.

        Returns early if the configuration becomes provably silent --
        every remaining interaction would be null, so callers needing
        the full budget on their clock may simply add it (the engine
        does not, keeping ``interactions`` at the point silence was
        established).
        """
        if self._obs is None:
            self._advance(interactions)
            return
        before = self.interactions
        start = time.perf_counter()
        try:
            self._advance(interactions)
        finally:
            self._obs.count_interactions(
                self.interactions - before, time.perf_counter() - start
            )

    def _advance(self, interactions: int) -> None:
        deadline = self.interactions + interactions
        rng = self.rng
        profile = self._profile
        while self.interactions < deadline:
            if self._mode == "jump":
                # The geometric fast-forward is profiled as its own stage
                # (it is *jumping*, not pair sampling), so count-engine
                # profiles decompose the same way the vector kernel's do.
                start = time.perf_counter() if profile else 0.0
                tree = self._pair_tree
                weight = tree.total()
                if weight == 0:
                    return  # silent: all remaining interactions are null
                p = weight / self._ordered_pairs
                nxt = self.interactions + geometric(rng, p) + 1
                if profile:
                    self._obs.add_stage_time(
                        "countsim.geometric_jump", time.perf_counter() - start
                    )
                if nxt > deadline:
                    # The next effective event falls beyond the budget;
                    # exact by memorylessness of the geometric law.
                    self.interactions = deadline
                    return
                self.interactions = nxt
                self.events += 1
                start = time.perf_counter() if profile else 0.0
                si, sj = self._pair_list[tree.sample(rng)]
                if profile:
                    self._obs.add_stage_time(
                        "countsim.pair_sampling", time.perf_counter() - start
                    )
                self._interact(si, sj)
            elif self._mode == "active":
                start = time.perf_counter() if profile else 0.0
                active = self._active_tree.total()
                if active == 0:
                    return  # silent: only passive-passive pairs remain
                passive = self._passive_tree.total()
                effective = self._ordered_pairs - passive * (passive - 1)
                if effective < self._ordered_pairs:
                    p = effective / self._ordered_pairs
                    nxt = self.interactions + geometric(rng, p) + 1
                else:
                    nxt = self.interactions + 1
                if profile:
                    self._obs.add_stage_time(
                        "countsim.geometric_jump", time.perf_counter() - start
                    )
                if nxt > deadline:
                    self.interactions = deadline
                    return
                self.interactions = nxt
                self.events += 1
                start = time.perf_counter() if profile else 0.0
                # Conditioned on "not passive-passive", the initiator's
                # agent lies in an active slot with probability
                # active * (n - 1) / effective; otherwise the initiator
                # is passive and the responder must be active.
                if rng.randrange(effective) < active * (self.n - 1):
                    count_tree = self._count_tree
                    si = self._active_tree.sample(rng)
                    count_tree.add(si, -1)  # responder is a different agent
                    sj = count_tree.sample(rng)
                    count_tree.add(si, +1)
                else:
                    si = self._passive_tree.sample(rng)
                    sj = self._active_tree.sample(rng)
                if profile:
                    self._obs.add_stage_time(
                        "countsim.pair_sampling", time.perf_counter() - start
                    )
                self._interact(si, sj)
            else:
                self._interaction_step()
                if (
                    self._switching
                    and self.interactions - self._last_change >= self._switch_after
                ):
                    self._enter_jump_mode()

    def run_until_silent(self, *, max_interactions: Optional[int] = None) -> bool:
        """Run until provably silent; ``False`` if the budget ran out first.

        Requires a silent protocol (``auto``/``jump`` mode).  With no
        budget the call runs to convergence, which a silent protocol
        reaches with probability 1.
        """
        if not self.protocol.silent:
            raise NotSilentError(
                f"{type(self.protocol).__name__} is not silent"
            )
        while True:
            if self.silent:
                return True
            if max_interactions is not None and self.interactions >= max_interactions:
                return False
            budget = (
                max_interactions - self.interactions
                if max_interactions is not None
                else 1 << 62
            )
            self.run(budget)

    # -- slots ---------------------------------------------------------

    def _slot_for_state(self, state: S) -> int:
        key = self._schema.key(state)
        slot = self._slot_of_key.get(key)
        if slot is None:
            slot = len(self._reps)
            self._slot_of_key[key] = slot
            self._reps.append(state)
            self._counts.append(0)
            self._count_tree.append(0)
            self._adj.append([])
            self._classified.append(False)
            rank = 0
            if self._rank_of is not None:
                r = self._rank_of(state)
                if isinstance(r, int) and 1 <= r <= self.n:
                    rank = r
            self._slot_rank.append(rank)
            if self._active_mode:
                assert self._class_of is not None
                self._slot_class.append(self._class_of(state))
                self._self_null.append(None)
                self._active_tree.append(0)
                self._passive_tree.append(0)
        return slot

    def _set_count(self, slot: int, new: int) -> None:
        old = self._counts[slot]
        self._counts[slot] = new
        self._count_tree.set(slot, new)
        if (old == 0) != (new == 0):
            self._occupied += 1 if old == 0 else -1
        rank = self._slot_rank[slot]
        if rank:
            rank_counts = self._rank_counts
            prev = rank_counts[rank]
            cur = prev + (new - old)
            rank_counts[rank] = cur
            if prev == 1:
                self._good -= 1
            if cur == 1:
                self._good += 1
        if self._active_mode:
            self._activity_update(slot, old, new)
        elif self._mode == "jump" and old == 0 and new > 0 and not self._classified[slot]:
            # Slots are classified lazily, on first occupancy within the
            # current jump period; pair weights are patched afterwards by
            # the caller's reweigh pass (or are already current).
            self._classify_slot(slot)

    def _refresh(self) -> None:
        now_correct = self._good == self.n
        if now_correct and not self.correct:
            self.streak_start = self.interactions
            if self._obs is not None:
                self._obs.event(
                    "convergence", t=self.interactions / self.n, engine="count"
                )
        elif self.correct and not now_correct:
            self.streak_start = None
            self.regressions += 1
            if self._obs is not None:
                self._obs.event(
                    "regression", t=self.interactions / self.n, engine="count"
                )
        self.correct = now_correct

    # -- stepping ------------------------------------------------------

    def _interaction_step(self) -> None:
        tree = self._count_tree
        rng = self.rng
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        si = tree.sample(rng)
        tree.add(si, -1)  # the responder is a *different* agent
        sj = tree.sample(rng)
        tree.add(si, +1)
        if profile:
            self._obs.add_stage_time(
                "countsim.pair_sampling", time.perf_counter() - start
            )
        self.interactions += 1
        self.events += 1
        self._interact(si, sj)

    def _interact(self, si: int, sj: int) -> None:
        obs = self._obs
        if obs is not None and self.events >= self._obs_next:
            self._obs_sample()
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        entry = self._memo.get((si, sj), False)
        if entry is False:
            # First occurrence of this ordered state pair: probe it.
            initiator = self._clone(self._reps[si])
            responder = self._clone(self._reps[sj])
            spy = _SpyRandom(self.rng)
            out_a, out_b = self.protocol.transition(initiator, responder, spy)
            ta = self._slot_for_state(out_a)
            tb = self._slot_for_state(out_b)
            self._memo[(si, sj)] = _RANDOMIZED if spy.used else (ta, tb)
        elif entry is _RANDOMIZED:
            initiator = self._clone(self._reps[si])
            responder = self._clone(self._reps[sj])
            out_a, out_b = self.protocol.transition(initiator, responder, self.rng)
            ta = self._slot_for_state(out_a)
            tb = self._slot_for_state(out_b)
        else:
            ta, tb = entry  # type: ignore[misc]
        if profile:
            obs.add_stage_time("countsim.transition", time.perf_counter() - start)
        self._apply(si, sj, ta, tb)

    def _apply(self, si: int, sj: int, ta: int, tb: int) -> None:
        if (ta == si and tb == sj) or (ta == sj and tb == si):
            return  # multiset unchanged: null in effect
        delta: Dict[int, int] = {}
        delta[si] = delta.get(si, 0) - 1
        delta[sj] = delta.get(sj, 0) - 1
        delta[ta] = delta.get(ta, 0) + 1
        delta[tb] = delta.get(tb, 0) + 1
        changed = [slot for slot, d in delta.items() if d]
        if not changed:
            return
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        counts = self._counts
        for slot in changed:
            self._set_count(slot, counts[slot] + delta[slot])
        if self._mode == "jump":
            seen: Set[int] = set()
            pair_list = self._pair_list
            pair_tree = self._pair_tree
            for slot in changed:
                for pidx in self._adj[slot]:
                    if pidx in seen:
                        continue
                    seen.add(pidx)
                    i, j = pair_list[pidx]
                    ci = counts[i]
                    weight = ci * (ci - 1) if i == j else ci * counts[j]
                    pair_tree.set(pidx, weight)
        if profile:
            self._obs.add_stage_time("countsim.resync", time.perf_counter() - start)
        self.changes += 1
        self._last_change = self.interactions
        self._refresh()

    def _obs_sample(self) -> None:
        """Emit one sampled time-series point from O(1) bookkeeping."""
        obs = self._obs
        self._obs_next = self.events + obs.sample_every
        interactions = self.interactions
        obs.sample(
            t=interactions / self.n,
            interactions=interactions,
            events=self.events,
            changes=self.changes,
            leaders=self._rank_counts[1],
            rank_coverage=self._good,
            distinct_states=self._occupied,
            null_fraction=(
                1.0 - self.changes / interactions if interactions > 0 else 0.0
            ),
            engine="count",
            mode=self._mode,
        )

    # -- jump mode -----------------------------------------------------

    def _enter_jump_mode(self) -> None:
        """Classify the *occupied* slot pairs and switch to jump mode.

        O(k^2) ``is_pair_null`` queries over the ``k`` occupied slots;
        empty slots (left behind by transient counters or by fault
        injection) are skipped here and classified lazily if they ever
        refill -- without this, repeated corruption would make every
        re-entry pay for the full graveyard of stale slots.
        """
        self._mode = "jump"
        counts = self._counts
        for slot in range(len(self._reps)):
            if counts[slot] > 0 and not self._classified[slot]:
                self._classify_slot(slot)

    def _exit_jump_mode(self) -> None:
        """Drop the effective-pair cache and fall back to interaction mode.

        Called on fault injection: corrupted states spawn cascades of
        short-lived slots (error counters, reset timers), and keeping
        the pair cache current through that would cost O(k) registered
        pairs per new slot.  The auto-switch heuristic is re-armed, so
        the engine re-enters jump mode after the next long null gap.
        """
        self._mode = "interaction"
        self._pair_list = []
        self._adj = [[] for _ in self._reps]
        self._pair_tree = GrowableFenwick()
        self._classified = [False] * len(self._reps)
        self._switching = (
            self._requested_mode in ("auto", "jump") and self.protocol.silent
        )

    def _classify_slot(self, m: int) -> None:
        classified = self._classified
        classified[m] = True
        is_pair_null = self.protocol.is_pair_null
        reps = self._reps
        a = reps[m]
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

    def _register_pair(self, i: int, j: int) -> None:
        pidx = len(self._pair_list)
        self._pair_list.append((i, j))
        self._adj[i].append(pidx)
        if j != i:
            self._adj[j].append(pidx)
        counts = self._counts
        ci = counts[i]
        weight = ci * (ci - 1) if i == j else ci * counts[j]
        self._pair_tree.append(weight)

    # -- active mode ---------------------------------------------------

    def _activity_update(self, slot: int, old: int, new: int) -> None:
        """Maintain the active/passive partition across a count change.

        A slot's passivity depends only on its count and on whether it
        shares its class with another occupied slot, so a count change
        can affect at most the slot itself plus -- on an occupancy flip
        -- the other members of its class.
        """
        cls = self._slot_class[slot]
        refresh = [slot]
        if cls is not None and (old == 0) != (new == 0):
            members = self._class_slots.setdefault(cls, set())
            if new > 0:
                members.add(slot)
                if len(members) == 2:
                    # The previously sole member loses its passivity.
                    refresh.extend(m for m in members if m != slot)
            else:
                members.discard(slot)
                if len(members) == 1:
                    # The survivor may become passive.
                    refresh.extend(members)
        for m in refresh:
            self._refresh_activity(m)

    def _refresh_activity(self, slot: int) -> None:
        count = self._counts[slot]
        passive = False
        if count > 0:
            cls = self._slot_class[slot]
            if cls is not None and len(self._class_slots.get(cls, ())) == 1:
                if count < 2:
                    passive = True  # no diagonal pair to worry about
                else:
                    null = self._self_null[slot]
                    if null is None:
                        rep = self._reps[slot]
                        null = self.protocol.is_pair_null(rep, rep)
                        self._self_null[slot] = null
                    passive = null
        if passive:
            self._active_tree.set(slot, 0)
            self._passive_tree.set(slot, count)
        else:
            self._active_tree.set(slot, count)
            self._passive_tree.set(slot, 0)

    # -- fault injection -----------------------------------------------

    def sample_agent_slot(self, rng: random.Random) -> int:
        """Slot of one uniformly random agent (weight = slot count)."""
        return self._count_tree.sample(rng)

    def sample_victim_slots(self, count: int, rng: random.Random) -> List[int]:
        """Slots of ``count`` distinct agents drawn without replacement.

        Returns slot ids *with multiplicity* (two victims in the same
        slot appear twice).  Agents within a slot are interchangeable,
        so sequential draws with a temporarily decremented urn yield
        exactly the law of ``rng.sample`` over agents followed by a
        slot lookup (a multivariate hypergeometric over slots).
        """
        count = min(count, self.n)
        tree = self._count_tree
        victims: List[int] = []
        for _ in range(count):
            slot = tree.sample(rng)
            victims.append(slot)
            tree.add(slot, -1)  # already-chosen agents leave the urn
        for slot in victims:
            tree.add(slot, +1)
        return victims

    def slot_state(self, slot: int) -> S:
        """An independent copy of the representative state of ``slot``."""
        return self._clone(self._reps[slot])

    def slot_rank(self, slot: int) -> int:
        """Rank of the slot's state (0 when the state is unranked)."""
        return self._slot_rank[slot]

    def occupied_slots(self) -> List[Tuple[int, int]]:
        """``(slot, count)`` pairs for every slot with agents in it."""
        return [
            (slot, count) for slot, count in enumerate(self._counts) if count > 0
        ]

    def corrupt(self, victims: Sequence[int], new_states: Sequence[S]) -> None:
        """Overwrite one agent per ``(victim slot, new state)`` pair.

        The configuration multiset becomes ``old - victims + new``, and
        every piece of incremental bookkeeping (count Fenwick tree,
        rank-correctness monitor state, active/passive partition) is
        resynchronized.  A fault is not an interaction, so
        ``interactions``/``events``/``changes`` do not advance -- but
        the null-gap clock resets, since the configuration did change
        behind the scheduler's back.  In jump mode the effective-pair
        cache is discarded first (see :meth:`_exit_jump_mode`).
        """
        if len(victims) != len(new_states):
            raise ValueError(
                f"got {len(victims)} victims but {len(new_states)} states"
            )
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        if self._mode == "jump":
            self._exit_jump_mode()
        counts = self._counts
        for slot, state in zip(victims, new_states):
            if counts[slot] <= 0:
                raise ValueError(f"slot {slot} is empty; nothing to corrupt")
            self._set_count(slot, counts[slot] - 1)
            target = self._slot_for_state(self._clone(state))
            self._set_count(target, counts[target] + 1)
        self._last_change = self.interactions
        if profile:
            self._obs.add_stage_time("countsim.resync", time.perf_counter() - start)
        self._refresh()
