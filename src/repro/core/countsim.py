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
  replayed for free on every later occurrence, and a :class:`ProbeTable`
  carries those results across the engines of a series of trials;
* for silent protocols, runs of null interactions are *skipped*: once
  the set of effective (non-null) ordered pairs is known, the number of
  consecutive null interactions is drawn from the exact geometric law
  with success probability ``W_eff / (n (n - 1))`` and skipped in O(1),
  generalizing the single-protocol trick of
  :class:`repro.core.fastpath.CiwJumpSimulator`;
* optionally (``batched=True``, numpy present) interaction-mode
  scheduler draws are made in numpy batches -- see "Batched sampling"
  below.

Every interaction the sequential engine would have scheduled is
accounted for, so interaction counts (and hence parallel times) have
exactly the same distribution as :class:`repro.core.simulation.Simulation`
produces -- enforced by the distributional tests in
``tests/core/test_countsim.py``.

Eligibility is derived from the static schema registry
(:mod:`repro.statics.schema`): the engine needs a registered schema
whose canonical :meth:`~repro.statics.schema.StateSchema.key` is
lossless, i.e. every declared field participates in the key, every key
field has an enumerable domain (so the dense
:meth:`~repro.statics.schema.StateSchema.index` exists) and the schema
declares every field a state carries.  Protocols carrying unhashable
out-of-key structures (history trees, rosters) or undeclared fields
fall back to the generic engine -- see :func:`count_engine_eligible`.
An engine can start from an agent list or, without expanding one, from
a state -> count map (:meth:`CountSimulation.from_counts`).

Modes
-----
``interaction``
    One scheduler draw per interaction (two Fenwick samples), memoized
    transitions.  Always available.
``jump``
    Geometric null-skipping over the effective-pair tree.  Requires a
    silent protocol (the analytic ``is_pair_null`` predicate classifies
    pairs).  Fast only when effective pairs are rare.  Classification
    is pruned by the protocol's optional ``silent_class`` hook (see
    ``active`` below): a new slot is probed only against slots of its
    own class and ``None``-class slots, in ascending slot order, so the
    surviving pairs register in exactly the order a full scan would
    give -- which for Silent-n-state-SSR turns the O(k^2) entry cost
    into O(k) without moving any trajectory.  Jump mode samples
    only the pair tree, so it keeps ``_counts`` current but lets the
    count Fenwick tree go *stale*: the first count change in jump mode
    marks it stale, and the readers that need it (leaving jump mode,
    :meth:`CountSimulation.sample_agent_slot`,
    :meth:`CountSimulation.sample_victim_slots`) rebuild it from
    ``_counts`` in O(k) first.  Outside jump mode the tree is always
    current.  A rebuilt tree equals the incrementally updated one node
    for node, so sampling is draw for draw the same either way.
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
    one geometric draw.  ``silent_class(state)`` returns ``None``
    (always active) or a class, an int in ``0..n``; the contract is
    that two states with *distinct* non-``None`` classes form null
    pairs in both orders (both checked statically by ``repro lint``;
    the engine raises on a class outside the range).  A slot is passive
    when it is the only occupied slot of its class and its diagonal is
    null (trivially so at count 1).  Unlike jump mode this needs no
    pair classification and survives fault injection at O(1)
    incremental cost, so it is the mode ``measure_recovery`` uses for
    large-n chaos runs.

Batched sampling
----------------
With ``batched=True`` (``--engine vector``) interaction mode draws its
scheduler's uniform targets in numpy batches of K, then scans them in
Python: each target is located by bisection over the cumulative counts,
with the initiator's own slot decremented for the responder draw --
exactly the sequential law -- and the scan runs on while the ordered
pair is in a set of pairs the batched path has itself replayed and
found null.  A draw is valid only while the counts it was drawn from
are current, so the scan stops at the first other pair (a change, an
unprobed or randomized pair, or one memoized outside the batched path);
that event is replayed through the scalar path, the rest of the batch
is discarded (independent draws, so discarding is unbiased), and the
next batch is drawn from the updated counts.  K doubles after fully
accepted batches and halves after heavily truncated ones.  The batched
draws come from a numpy Generator seeded once from the python RNG, so
runs stay deterministic per seed but differ from unbatched runs;
agreement is distributional (KS-tested, and checked against the
exact-chain oracle by ``repro verify``).  Jump and active mode never
batch, and batching stops for good once more than ``MAX_TABLE_DIM``
slots exist.  numpy is optional: without it ``batched=True`` takes the
scalar path.  It is imported on the first batched draw, not when this
module loads, so a run that never draws a batch never loads it.

Slot tables
-----------
Every distinct state ever seen gets an int slot id, in first-seen
order, and per-slot data lives in flat storage indexed by it, so a slot
costs ~208 traced bytes (n=8192 witness run; see
docs/performance.md, "Engine memory").  States are looked up by their
schema's dense index (:meth:`~repro.statics.schema.StateSchema.index`),
not by canonical key tuples, which are built only at the boundary
(:meth:`CountSimulation.occupancy`, the probe table).  ``_slot_of_index``
maps an index to its slot, or -1: an ``array('q')`` over the whole index
range when that is at most ``4 n`` (Silent-n-state-SSR: exactly ``n``),
else a dict holding the indices seen (Optimal-Silent-SSR's range is a
few hundred times ``n``).  A state outside the schema has no index, so a
transition output that escapes it raises
:class:`~repro.core.errors.ConfigurationError` instead of getting a
slot.  ``_counts`` and ``_reps`` are lists, ``_slot_rank`` an
``array('q')`` and ``_classified`` a ``bytearray``.  The memo maps the
packed ordered pair ``si << 32 | sj`` to the packed outputs ``ta << 32 | tb`` (or
``_RANDOMIZED``), so slot ids must stay below 2**32.  Jump mode stores
effective pair ``p`` as ``(_pair_a[p], _pair_b[p])``, two
``array('q')`` columns, and threads each slot's pairs through an
intrusive linked list: ``_adj_head[slot]`` is the slot's first link,
link ``2p`` / ``2p + 1`` is pair ``p`` seen from its first / second
endpoint, ``_adj_next[link]`` is the next link, and -1 ends a list.
``_class_member`` is an ``array('q')`` over the classes ``0..n``
holding each class's first classified slot id (-1: none yet), and the
dict ``_class_lists`` the ascending member list of each class that has
more than one.

Fault injection
---------------
This engine and :class:`repro.core.simulation.Simulation` keep one
contract, so adversaries and measurements take either (see
docs/robustness.md, "The engine contract").  Victims are slot ids with
multiplicity (:meth:`CountSimulation.sample_victims`,
:meth:`CountSimulation.ranked_victims`), and
:meth:`CountSimulation.corrupt` edits the count multiset in place
(decrement victim slots, increment corrupted-state slots) and resyncs
every piece of incremental bookkeeping.  Once the configuration is
provably silent, :meth:`CountSimulation.advance` credits the rest of
its budget to ``ticks`` without simulating it.  That is what lets
``measure_recovery(engine="count")`` run recovery experiments at
n=8192+ instead of n~256.
"""

from __future__ import annotations

import bisect
import importlib.util
import math
import random
import time
from array import array
from itertools import accumulate
from dataclasses import fields, is_dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.configuration import is_silent
from repro.core.errors import ConfigurationError, NotSilentError
from repro.core.fenwick import GrowableFenwick, draws_with_getrandbits
from repro.core.protocol import PopulationProtocol, check_population
from repro.core.rng import DEFAULT_SEED
from repro.core.simulation import Simulation, judge_ranking
from repro.obs.context import current_recorder
from repro.statics.schema import SchemaError, StateSchema, has_schema, schema_for

#: numpy's import spec, ``None`` iff numpy is not installed.  numpy
#: itself is imported on the batched sampler's first draw.
_np: Any = importlib.util.find_spec("numpy")

S = TypeVar("S")

__all__ = [
    "CHAOS_PARAMS",
    "ENGINES",
    "ChaosParam",
    "CountSimulation",
    "Engine",
    "ProbeTable",
    "build_engine",
    "count_engine_eligible",
    "select_engine",
]


class _SpyRandom(random.Random):
    """Wraps a real RNG and records whether it was ever consulted.

    Every derived method of :class:`random.Random` (``randrange``,
    ``choice``, ``shuffle``, ``gauss``, ...) bottoms out in ``random()``
    or ``getrandbits()``, so overriding those two both forwards all
    randomness to the wrapped RNG and detects any consumption.  Used to
    classify a transition's behaviour on one input pair: if the spy was
    never used, the observed result is deterministic for that pair and
    can be memoized.  Each engine keeps one spy and calls :meth:`rearm`
    before every probe.
    """

    def __init__(self, inner: random.Random):
        super().__init__()
        self._inner = inner
        self.used = False

    def rearm(self, inner: random.Random) -> None:
        """Start a probe on ``inner``: clear ``used`` and ``gauss``'s cache.

        ``Random.gauss`` keeps its second draw in ``gauss_next``; a
        stale cached value would let the next probe draw a normal
        without consulting the wrapped RNG, and memoize a randomized
        pair as deterministic.
        """
        self._inner = inner
        self.used = False
        self.gauss_next = None

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


def _ineligibility(protocol: PopulationProtocol[Any], schema: StateSchema) -> Optional[str]:
    """Why :class:`CountSimulation` cannot run ``protocol``, or ``None``."""
    declared = {spec.name for role in schema.roles for spec in role.fields}
    lossy = [
        spec.name for role in schema.roles for spec in role.fields if not spec.in_key
    ]
    if lossy:
        return f"its schema excludes fields {lossy} from the canonical key"
    if schema.index_size is None:
        return "its schema has key fields whose domains are not enumerable"
    # The role attribute selects the role schema; every other field of a
    # state must be declared by some role, or equal keys could hide
    # states that differ.
    sample = protocol.initial_state(random.Random(0))
    if is_dataclass(sample):
        undeclared = [
            spec.name
            for spec in fields(sample)
            if spec.name != "role" and spec.name not in declared
        ]
        if undeclared:
            return f"its schema declares no field {undeclared}"
    return None


def count_engine_eligible(protocol: PopulationProtocol[Any]) -> bool:
    """Whether :class:`CountSimulation` can run ``protocol``.

    Requires a registered state schema whose canonical key is lossless,
    so two states with equal keys are interchangeable, and dense:

    * every declared field has ``in_key=True``;
    * every key field's domain is enumerable, so the schema's dense
      :meth:`~repro.statics.schema.StateSchema.index` exists;
    * every dataclass field of a state (the protocol's
      ``initial_state``), other than ``role``, is declared by some role
      of the schema.

    Protocols with out-of-key fields (e.g. the sublinear protocol's
    history trees) or undeclared ones (``ResetTimingProtocol``'s
    unbounded ``generation``) must use the generic engine.
    """
    return has_schema(protocol) and _ineligibility(protocol, schema_for(protocol)) is None


#: Memo marker for pairs whose transition consults the RNG.
_RANDOMIZED = None

_MODES = ("auto", "interaction", "jump", "active")

#: Engine names; :func:`select_engine` says what each one runs.
ENGINES = ("auto", "generic", "count", "vector")


def select_engine(protocol: PopulationProtocol[Any], engine: str) -> Optional[bool]:
    """The engine named ``engine`` for ``protocol``: the one engine policy.

    Returns ``None`` for the generic engine,
    :class:`repro.core.simulation.Simulation`, and otherwise this
    engine's ``batched`` flag.  ``"generic"`` and ``"count"`` name one
    engine each, and ``"vector"`` is this engine with batched sampling.
    ``"auto"`` takes this engine, unbatched, for a silent protocol that
    :func:`count_engine_eligible` admits: silence certifies
    stabilization, and jump mode skips the null interactions before it.
    Any other protocol runs on the generic engine.  Raises
    ``ValueError`` for an unknown name, and for ``"count"`` or
    ``"vector"`` on a protocol this engine cannot run or that is not
    silent: it certifies stabilization by silence alone, with no
    confirmation window.
    """
    if engine not in ENGINES:
        raise ValueError(f"'engine' must be one of {list(ENGINES)}, got {engine!r}")
    if engine == "generic":
        return None
    if engine == "auto":
        return False if protocol.silent and count_engine_eligible(protocol) else None
    if not count_engine_eligible(protocol):
        raise ValueError(
            f"{type(protocol).__name__} is not count-engine eligible "
            "(needs a registered state schema that declares every state field "
            "and keys them all over enumerable domains)"
        )
    if not protocol.silent:
        raise ValueError(
            f"{type(protocol).__name__} is not silent; the count engine "
            "certifies stabilization by silence only"
        )
    return engine == "vector"


#: What :func:`build_engine` returns: either engine keeps one contract
#: (see docs/robustness.md, "The engine contract").
Engine = Union[Simulation[Any], "CountSimulation"]


def build_engine(
    protocol: PopulationProtocol[S],
    states: Optional[Sequence[S]],
    *,
    rng: random.Random,
    engine: str,
    mode: str = "auto",
    probe_table: Optional["ProbeTable"] = None,
) -> Engine:
    """The engine named ``engine`` (:func:`select_engine`), built on ``states``.

    The count engine gets ``mode`` and ``probe_table``, which the
    generic engine has no use for.  ``states=None`` is a clean start.
    """
    batched = select_engine(protocol, engine)
    if batched is None:
        return Simulation(protocol, states, rng=rng)
    return CountSimulation(
        protocol, states, rng=rng, mode=mode, batched=batched, probe_table=probe_table
    )


class ChaosParam(NamedTuple):
    """One keyword of the chaos sweep, :func:`repro.experiments.chaos.run_chaos`.

    ``value_type`` is ``int``, ``float`` or ``str``, of each item when
    ``many``.  A chaos job accepts the matching JSON types (an int
    where a float is expected; a list for ``many``) and ``repro chaos``
    the option ``flag``, parsed into the keyword ``name``.
    """

    name: str
    value_type: type
    default: Any
    flag: str
    help: str
    metavar: Optional[str] = None
    many: bool = False
    choices: Optional[Sequence[str]] = None

    @property
    def json_types(self) -> Tuple[type, ...]:
        if self.many:
            return (list, tuple)
        return (float, int) if self.value_type is float else (self.value_type,)


#: The chaos sweep's parameters, declared once: ``repro chaos`` builds
#: its flags from them (in this order), the job service uses them as
#: the chaos job schema and ``run_chaos`` takes its defaults from them.
#: They sit beside :data:`ENGINES` because the CLI parser and the
#: service both load this module anyway: reading them imports nothing.
CHAOS_PARAMS: Tuple[ChaosParam, ...] = (
    ChaosParam("protocols", str, ["ciw", "optimal-silent"], "--protocol",
               "protocol keys to strike (default: ciw optimal-silent)", "KEY", many=True),
    ChaosParam("adversary", str, "random", "--adversary",
               "adversary name: random, leader, max-rank, clone, clone-leader"),
    ChaosParam("ns", int, [16, 32, 64], "--n",
               "population sizes to sweep (default: 16 32 64)", "N", many=True),
    ChaosParam("trials", int, 3, "--trials", "seeded trials per sweep cell"),
    ChaosParam("seed", int, DEFAULT_SEED, "--seed", "root RNG seed"),
    ChaosParam("agents", int, None, "--agents", "victims per strike (default: fraction of n)"),
    ChaosParam("fraction", float, 0.125, "--fraction",
               "victims per strike as a fraction of n (default: 0.125)"),
    ChaosParam("period_factor", float, 2.0, "--period",
               "parallel time between strikes, as a multiple of n (default: 2)", "FACTOR"),
    ChaosParam("strikes", int, 3, "--strikes", "strikes per trial (default: 3)"),
    ChaosParam("poisson_rate", float, None, "--poisson-rate",
               "replace the periodic schedule with Poisson strikes at RATE per unit "
               "parallel time (over the same horizon)", "RATE"),
    ChaosParam("engine", str, "auto", "--engine",
               "simulation engine (default: auto; 'vector' is the count engine with "
               "batched numpy sampling, unbatched without numpy)", choices=ENGINES),
    ChaosParam("recovery_budget_factor", float, 50.0, "--recovery-budget",
               "per-strike recovery budget, as a multiple of n (default: 50)", "FACTOR"),
    ChaosParam("workers", int, None, "--workers",
               "fan trials out over W worker processes (bit-identical results)", "W"),
)

#: Largest slot count the batched path runs at: a bound on slots, as
#: the batched path builds no table.  Beyond it batching stops for good
#: and the scalar paths -- including jump mode, where large-n runs spend
#: their lives -- take over.  The cut-off fixes where a batched run
#: leaves the numpy stream, so it is part of every batched trajectory.
MAX_TABLE_DIM = 2048

#: Adaptive batch-size bounds: the batch doubles after fully-accepted
#: batches and halves after heavily-truncated ones, so change-dominated
#: openings pay little and null-dominated stretches amortize well.
MIN_BATCH = 16
INITIAL_BATCH = 64
MAX_BATCH = 16384

#: Sample and mode-switch threshold that never fires: above any count a
#: run can reach.
_NEVER = 1 << 63

#: An index range of at most this many times ``n`` gets an array slot
#: map; a larger one a dict (see "Slot tables" in the module docstring).
_ARRAY_SLOT_MAP_FACTOR = 4


class _SlotDict(Dict[int, int]):
    """The dict slot map: like the array one, reads -1 for "no slot"."""

    def __missing__(self, index: int) -> int:
        return -1


class _Counts:
    """The ``(state, count)`` pairs :meth:`CountSimulation.from_counts`
    hands the constructor, which loads (and checks) them in one pass."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[Any, int]]):
        self.pairs = pairs


class ProbeTable:
    """Probe outcomes shared by a series of count engines on one protocol.

    An engine's memo is keyed by its own slot ids, so each new engine
    probes every pair again.  A table keeps what those probes found
    across the series, keyed by the canonical keys of the ordered input
    pair: ``(key_a, state_a, key_b, state_b)`` for a pair whose probe
    drew no randomness, ``None`` for one whose probe did.  An engine
    built with the table looks a pair up there on a memo miss; a
    deterministic entry stands in for the probe, and a randomized pair
    is probed as always.  A probe draws nothing on a deterministic pair,
    so serving one moves no draw (see ``CountSimulation._serve``).

    The table is bound to one protocol instance, and an engine on any
    other instance refuses it.  It holds at most one entry per ordered
    pair of states the series met, and the schema index of each output
    key it served (``indices``), so a served output costs no index
    computation; ``hits`` counts the probes it saved.
    """

    __slots__ = ("protocol", "hits", "outputs", "indices")

    def __init__(self, protocol: PopulationProtocol[Any]):
        self.protocol = protocol
        self.hits = 0
        self.outputs: Dict[
            Tuple[Hashable, Hashable], Optional[Tuple[Hashable, Any, Hashable, Any]]
        ] = {}
        self.indices: Dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.outputs)


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
        :meth:`from_counts` builds the same engine from a state ->
        count map.
    rng:
        Source of randomness for scheduling and randomized transitions.
    mode:
        ``"auto"`` (default), ``"interaction"``, ``"jump"`` or
        ``"active"`` -- see the module docstring.
    batched:
        Draw interaction-mode pairs in numpy batches (see "Batched
        sampling" in the module docstring).  Without numpy this is the
        scalar path.
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
    probe_table:
        Optional :class:`ProbeTable` of ``protocol`` (the same
        instance), shared with earlier engines of a series of trials.
        It replaces their repeated probes and leaves every trajectory
        as it would be without it.

    Attributes
    ----------
    interactions:
        Interactions accounted for so far (null + effective).
    ticks:
        ``interactions`` plus the silent dwell :meth:`advance` skipped.
    events:
        Transition applications (every interaction in interaction mode;
        only the sampled effective events in jump mode).
    changes:
        Interactions that changed the configuration multiset.
    correct / streak_start / regressions:
        The ranking tally, judged by
        :func:`~repro.core.simulation.judge_ranking` like the generic
        engine's (available when the protocol exposes ``rank_of``).
    """

    #: The ``engine`` label of this engine's samples and events.
    _label = "count"

    def __init__(
        self,
        protocol: PopulationProtocol[S],
        states: Optional[Sequence[S]] = None,
        *,
        rng: random.Random,
        mode: str = "auto",
        batched: bool = False,
        recorder: Optional[Any] = None,
        probe_table: Optional[ProbeTable] = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if probe_table is not None and probe_table.protocol is not protocol:
            raise ValueError(
                f"the probe table belongs to another {type(probe_table.protocol).__name__} "
                "instance; a table serves engines on its own protocol only"
            )
        if not draws_with_getrandbits(rng):
            raise ConfigurationError(
                f"{type(rng).__name__}.randrange does not draw with getrandbits; "
                "the count engine draws its schedule inline from getrandbits "
                "and would leave this RNG's stream"
            )
        self.protocol = protocol
        self.rng = rng
        pairs: Iterable[Tuple[S, int]]
        if isinstance(states, _Counts):
            pairs = states.pairs
        else:
            if states is None:
                states = protocol.initial_configuration(rng)
            check_population(protocol, states)
            pairs = ((state, 1) for state in states)
        schema = schema_for(protocol)  # raises KeyError when unregistered
        reason = _ineligibility(protocol, schema)
        if reason is not None:
            raise ValueError(
                f"{type(protocol).__name__} is not count-engine eligible: {reason}; "
                "the count engine needs lossless, enumerable state keys "
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
        self._key = schema.key
        self._index = schema.index
        self._spy = _SpyRandom(rng)
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

        # -- slot tables: one slot per distinct state ever seen ---------
        index_size = schema.index_size
        assert index_size is not None  # eligibility guarantees it
        self._slot_of_index: Union[array, _SlotDict] = (
            array("q", [-1]) * index_size
            if index_size <= _ARRAY_SLOT_MAP_FACTOR * n
            else _SlotDict()
        )
        self._reps: List[S] = []
        self._counts: List[int] = []
        self._count_tree = GrowableFenwick()
        # Not maintained in jump mode (see the module docstring); built
        # in one pass once the initial counts are in.
        self._count_stale = True
        self._slot_rank = array("q")
        # Packed ``si << 32 | sj`` -> ``ta << 32 | tb``, or _RANDOMIZED.
        self._memo: Dict[int, Optional[int]] = {}
        # A series' shared probe results, consulted on memo misses.
        self._probe_table = probe_table

        # -- the ranking tally (judged by judge_ranking) ---------------
        rank_of = getattr(protocol, "rank_of", None)
        self._rank_of = rank_of
        self._rank_counts: List[int] = [0] * (n + 1)
        self._good = 0
        self.correct = False
        self.streak_start: Optional[int] = None
        self.regressions = 0

        # -- jump-mode structures (built lazily) ------------------------
        # Pair columns and per-slot linked lists of pair links; see
        # "Slot tables" in the module docstring.
        self._pair_a = array("q")
        self._pair_b = array("q")
        self._adj_head = array("q")
        self._adj_next = array("q")
        self._pair_tree = GrowableFenwick()
        self._classified = bytearray()
        # Classified slots by ``silent_class``: each class's first member
        # (-1: none; allocated on first use), and the ascending member
        # list of each class with more than one.  Slots of class
        # ``None`` are candidates for every other slot.
        self._class_member = array("q")
        self._class_lists: Dict[int, List[int]] = {}
        self._none_class: List[int] = []

        # -- active-mode structures (used only when mode == "active") ---
        self._active_mode = mode == "active"
        self._slot_class: List[Optional[int]] = []
        self._self_null: List[Optional[bool]] = []
        self._class_slots: Dict[int, Set[int]] = {}
        self._active_tree = GrowableFenwick()
        self._passive_tree = GrowableFenwick()

        self.interactions = 0
        # Null interactions ``advance`` credited without simulating them.
        self._skipped = 0
        self.events = 0
        self.changes = 0
        self._last_change = 0
        self._requested_mode = mode
        self._mode = "active" if mode == "active" else "interaction"
        self._switching = mode == "auto" and protocol.silent
        self._switch_after = max(64, n)

        # -- batched sampling (interaction mode only) -------------------
        self._batch_disabled = not batched or _np is None
        self._batch_size = INITIAL_BATCH
        self._npg: Optional[Any] = None
        self._cum: List[int] = []  # cumulative counts
        # Counts change under the batched path only through a replayed
        # event, a fault (``corrupt``) or jump mode (left only through
        # ``_exit_jump_mode``); each of those marks ``_cum`` stale.
        self._cum_stale = True
        # Packed pairs the batched path has replayed and found null
        # (deterministic, outputs = inputs in either order).  Not the
        # memo itself: a pair first probed elsewhere ends one batch.
        self._batch_nulls: Set[int] = set()

        # Tally the initial states into slots (in first-seen order), then
        # set each slot's count once.  An agent list arrives as pairs of
        # count 1.  An index is lossless only inside the schema, so each
        # index's first state is checked against it and any other state
        # under that index must equal the first: an out-of-schema state
        # (or a bad count) raises before any tree is built, instead of
        # being merged into (or standing in for) a different state.
        index_of = self._index
        slot_of_index = self._slot_of_index
        reps = self._reps
        tally: List[int] = []
        total = 0
        for state, count in pairs:
            if count.__class__ is not int or count <= 0:
                raise ValueError(
                    f"state {state!r} has count {count!r}; counts must be positive ints"
                )
            total += count
            try:
                index = index_of(state)
            except SchemaError as error:
                raise self._outside(state, error) from None
            slot = slot_of_index[index]
            if slot < 0:
                self._check_state(state)
                slot = self._new_slot(index, state)
                tally.append(0)
            elif state != reps[slot]:
                self._check_state(state)
            tally[slot] += count
        if total != n:
            raise ValueError(f"counts sum to {total}, protocol expects {n} agents")
        for slot, count in enumerate(tally):
            self._set_count(slot, count)
        if mode != "jump":
            self._fresh_count_tree()
        self.correct = judge_ranking(self, self._good == n, resync=True)
        if mode == "jump":
            self._enter_jump_mode()

        obs = recorder if recorder is not None else current_recorder()
        if obs is not None:
            self._obs = obs
            self._profile = bool(getattr(obs, "profile", False))
            self._obs_next = obs.sample_every

    @classmethod
    def from_counts(
        cls,
        protocol: PopulationProtocol[S],
        counts: Union[Mapping[S, int], Iterable[Tuple[S, int]]],
        *,
        rng: random.Random,
        mode: str = "auto",
        batched: bool = False,
        recorder: Optional[Any] = None,
        probe_table: Optional[ProbeTable] = None,
    ) -> "CountSimulation":
        """The engine on the configuration ``counts`` describes, without
        expanding it into an agent list.

        ``counts`` is an ordered state -> count map: a mapping, or an
        iterable of ``(state, count)`` pairs (unhashable states; a
        generator is read once and never held).  The engine is the one
        the constructor builds from the list holding each state
        ``count`` times, in the map's order -- same slots, same draws.
        Raises :class:`ValueError` unless every count is a positive int
        and the counts sum to ``protocol.n``; each distinct state is
        checked against the schema once.
        """
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        return cls(
            protocol,
            _Counts(pairs),  # type: ignore[arg-type]
            rng=rng,
            mode=mode,
            batched=batched,
            recorder=recorder,
            probe_table=probe_table,
        )

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
        key = self._key
        reps = self._reps
        return {
            key(reps[slot]): count
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

    def run(self, interactions: int) -> None:
        """Account for up to ``interactions`` further interactions.

        Returns early if the configuration becomes provably silent --
        every remaining interaction would be null, so callers needing
        the full budget on their clock may simply add it (this call
        does not, keeping ``interactions`` at the point silence was
        established; :meth:`advance` credits it to ``ticks``).
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
        if self._mode == "interaction":
            if not self._batch_disabled and self.interactions < deadline:
                # Returns at the deadline, on the switch to jump mode, or
                # once the slot count outgrows MAX_TABLE_DIM.
                self._advance_batched(deadline)
            if self._mode == "interaction":
                self._advance_interaction(deadline)
        if self._mode == "jump":
            self._advance_jump(deadline)
        elif self._mode == "active":
            self._advance_active(deadline)

    # The three loops below are the engine's hot paths, one per
    # unbatched mode.  Each binds what it touches once per call, draws
    # the scheduler's ``randrange`` through GrowableFenwick.draw (the
    # same bits; the constructor checks the RNG allows it), inlines the
    # geometric skip of ``repro.core.rng.geometric`` with the same float
    # operations, and settles a memoized pair whose outputs are its
    # inputs, in either order, without calling ``_interact``: that is
    # the null case of ``_apply``.  Every other event goes through
    # ``_interact``, after the local counters are written back, since
    # it reads them.  Stage timers and the sample check stay in the
    # loop, so recorded and profiled runs take the same path.

    def _advance_interaction(self, deadline: int) -> None:
        """Interaction mode until ``deadline`` or the switch to jump mode."""
        getrandbits = self.rng.getrandbits
        tree = self._count_tree
        draw = tree.draw
        draw_excluding = tree.draw_excluding
        memo_get = self._memo.get
        obs = self._obs
        profile = self._profile
        obs_next = self._obs_next if obs is not None else _NEVER
        switch_after = self._switch_after if self._switching else _NEVER
        last_change = self._last_change
        interactions = self.interactions
        events = self.events
        start = 0.0
        try:
            while interactions < deadline:
                if profile:
                    start = time.perf_counter()
                si = draw(getrandbits)
                sj = draw_excluding(getrandbits, si)  # a *different* agent
                if profile:
                    obs.add_stage_time(
                        "countsim.pair_sampling", time.perf_counter() - start
                    )
                    start = time.perf_counter()
                interactions += 1
                events += 1
                pair = si << 32 | sj
                entry = memo_get(pair, -1)
                if entry == pair or entry == sj << 32 | si:
                    if profile:
                        obs.add_stage_time(
                            "countsim.transition", time.perf_counter() - start
                        )
                    if events >= obs_next:
                        self.interactions = interactions
                        self.events = events
                        self._obs_sample()
                        obs_next = self._obs_next
                else:
                    self.interactions = interactions
                    self.events = events
                    self._interact(si, sj)
                    last_change = self._last_change
                    if obs is not None:
                        obs_next = self._obs_next
                if interactions - last_change >= switch_after:
                    self.interactions = interactions
                    self._enter_jump_mode()
                    return
        finally:
            self.interactions = interactions
            self.events = events

    def _advance_jump(self, deadline: int) -> None:
        """Jump mode until ``deadline`` or silence."""
        rng = self.rng
        getrandbits = rng.getrandbits
        random_ = rng.random
        tree = self._pair_tree
        draw = tree.draw
        pair_a = self._pair_a
        pair_b = self._pair_b
        ordered_pairs = self._ordered_pairs
        memo_get = self._memo.get
        obs = self._obs
        profile = self._profile
        obs_next = self._obs_next if obs is not None else _NEVER
        interactions = self.interactions
        events = self.events
        weight_seen = 0
        log_q = 0.0  # log1p(-p) for the current weight; 0.0 when p == 1
        start = 0.0
        try:
            while interactions < deadline:
                # The geometric fast-forward is profiled as its own stage
                # (it is *jumping*, not pair sampling).
                if profile:
                    start = time.perf_counter()
                weight = tree.total()
                if weight == 0:
                    return  # silent: all remaining interactions are null
                if weight != weight_seen:
                    weight_seen = weight
                    p = weight / ordered_pairs
                    log_q = math.log1p(-p) if p < 1.0 else 0.0
                if log_q:
                    u = random_()
                    if u <= 0.0:  # pragma: no cover - measure-zero guard
                        u = 5e-324
                    nxt = interactions + int(math.log(u) / log_q) + 1
                else:
                    nxt = interactions + 1  # geometric(rng, 1.0) draws nothing
                if profile:
                    obs.add_stage_time(
                        "countsim.geometric_jump", time.perf_counter() - start
                    )
                if nxt > deadline:
                    # The next effective event falls beyond the budget;
                    # exact by memorylessness of the geometric law.
                    interactions = deadline
                    return
                interactions = nxt
                events += 1
                if profile:
                    start = time.perf_counter()
                pidx = draw(getrandbits)
                si = pair_a[pidx]
                sj = pair_b[pidx]
                if profile:
                    obs.add_stage_time(
                        "countsim.pair_sampling", time.perf_counter() - start
                    )
                    start = time.perf_counter()
                pair = si << 32 | sj
                entry = memo_get(pair, -1)
                if entry == pair or entry == sj << 32 | si:
                    if profile:
                        obs.add_stage_time(
                            "countsim.transition", time.perf_counter() - start
                        )
                    if events >= obs_next:
                        self.interactions = interactions
                        self.events = events
                        self._obs_sample()
                        obs_next = self._obs_next
                else:
                    self.interactions = interactions
                    self.events = events
                    self._interact(si, sj)
                    if obs is not None:
                        obs_next = self._obs_next
        finally:
            self.interactions = interactions
            self.events = events

    def _advance_active(self, deadline: int) -> None:
        """Active mode until ``deadline`` or silence."""
        rng = self.rng
        getrandbits = rng.getrandbits
        random_ = rng.random
        active_tree = self._active_tree
        passive_tree = self._passive_tree
        draw_active = active_tree.draw
        draw_passive = passive_tree.draw
        draw_excluding = self._count_tree.draw_excluding
        ordered_pairs = self._ordered_pairs
        others = self.n - 1
        memo_get = self._memo.get
        obs = self._obs
        profile = self._profile
        obs_next = self._obs_next if obs is not None else _NEVER
        interactions = self.interactions
        events = self.events
        effective_seen = 0
        log_q = 0.0  # log1p(-p) for the current weight; 0.0 when p == 1
        start = 0.0
        try:
            while interactions < deadline:
                if profile:
                    start = time.perf_counter()
                active = active_tree.total()
                if active == 0:
                    return  # silent: only passive-passive pairs remain
                passive = passive_tree.total()
                effective = ordered_pairs - passive * (passive - 1)
                if effective != effective_seen:
                    effective_seen = effective
                    p = effective / ordered_pairs
                    log_q = math.log1p(-p) if p < 1.0 else 0.0
                if log_q:
                    u = random_()
                    if u <= 0.0:  # pragma: no cover - measure-zero guard
                        u = 5e-324
                    nxt = interactions + int(math.log(u) / log_q) + 1
                else:
                    nxt = interactions + 1  # no passive-passive pair to skip
                if profile:
                    obs.add_stage_time(
                        "countsim.geometric_jump", time.perf_counter() - start
                    )
                if nxt > deadline:
                    interactions = deadline
                    return
                interactions = nxt
                events += 1
                if profile:
                    start = time.perf_counter()
                # Conditioned on "not passive-passive", the initiator's
                # agent lies in an active slot with probability
                # active * (n - 1) / effective; otherwise the initiator
                # is passive and the responder must be active.  The
                # first draw is ``randrange(effective)``.
                bits = effective.bit_length()
                r = getrandbits(bits)
                while r >= effective:
                    r = getrandbits(bits)
                if r < active * others:
                    si = draw_active(getrandbits)
                    sj = draw_excluding(getrandbits, si)
                else:
                    si = draw_passive(getrandbits)
                    sj = draw_active(getrandbits)
                if profile:
                    obs.add_stage_time(
                        "countsim.pair_sampling", time.perf_counter() - start
                    )
                    start = time.perf_counter()
                pair = si << 32 | sj
                entry = memo_get(pair, -1)
                if entry == pair or entry == sj << 32 | si:
                    if profile:
                        obs.add_stage_time(
                            "countsim.transition", time.perf_counter() - start
                        )
                    if events >= obs_next:
                        self.interactions = interactions
                        self.events = events
                        self._obs_sample()
                        obs_next = self._obs_next
                else:
                    self.interactions = interactions
                    self.events = events
                    self._interact(si, sj)
                    if obs is not None:
                        obs_next = self._obs_next
        finally:
            self.interactions = interactions
            self.events = events

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

    # -- the engine contract (shared with Simulation) -------------------

    @property
    def ticks(self) -> int:
        """Interactions elapsed so far, silent dwell included."""
        return self.interactions + self._skipped

    def advance(self, interactions: int) -> None:
        """Let ``interactions`` more interactions elapse on ``ticks``.

        What :meth:`run` leaves of the budget once the configuration is
        provably silent is null, and is credited to ``ticks`` alone.
        """
        before = self.interactions
        self.run(interactions)
        if self.silent:
            self._skipped += interactions - (self.interactions - before)

    @property
    def stabilized(self) -> bool:
        """Correct and, for silent protocols, provably silent."""
        return self.correct and (not self.protocol.silent or self.silent)

    def run_until_stable(self, max_interactions: int, confirm_interactions: int) -> bool:
        """Run until correct and provably silent; ``False`` if
        ``max_interactions`` more interactions pass first.

        Silence alone certifies, so ``confirm_interactions`` is unused.
        A correct start that is silent (checked exactly, as interaction
        mode's ``silent`` reads ``False``) enters jump mode and is stable
        with no draw.  Otherwise :meth:`run` gets the whole budget in one
        call: jump and active mode drop their pending draw at a
        deadline, so chunking the budget would move the trajectory.
        """
        if not self.silent and self.correct and is_silent(
            self.protocol, self.expand_states()
        ):
            self._enter_jump_mode()
        return (
            self.run_until_silent(max_interactions=self.interactions + max_interactions)
            and self.correct
        )

    # -- slots ---------------------------------------------------------

    def _check_state(self, state: S) -> None:
        """Raise :class:`ConfigurationError` unless ``state`` is inside the schema."""
        problems = self._schema.validate(state)
        if problems:
            raise ConfigurationError(
                f"state {state!r} is not a {self._schema.protocol_name} "
                "state: " + "; ".join(problems)
            )

    def _outside(self, state: S, error: SchemaError) -> ConfigurationError:
        """The error for a ``state`` the schema has no index for."""
        self._check_state(state)  # raises with the schema's own words
        return ConfigurationError(
            f"state {state!r} is not a {self._schema.protocol_name} state: {error}"
        )

    def _slot_of(self, state: S) -> int:
        """The slot of ``state``, created for it if its index has none; a
        state outside the schema has no index and raises
        :class:`ConfigurationError` naming it."""
        try:
            index = self._index(state)
        except SchemaError as error:
            raise self._outside(state, error) from None
        slot = self._slot_of_index[index]
        return self._new_slot(index, state) if slot < 0 else slot

    def _new_slot(self, index: int, state: S) -> int:
        """Create the slot for a state whose ``index`` has no slot yet."""
        slot = len(self._reps)
        self._slot_of_index[index] = slot
        self._reps.append(state)
        self._counts.append(0)
        if not self._count_stale:
            self._count_tree.append(0)
        self._adj_head.append(-1)
        self._classified.append(0)
        rank = 0
        if self._rank_of is not None:
            r = self._rank_of(state)
            if isinstance(r, int) and 1 <= r <= self.n:
                rank = r
        self._slot_rank.append(rank)
        if self._active_mode:
            self._slot_class.append(self._class_for(state))
            self._self_null.append(None)
            self._active_tree.append(0)
            self._passive_tree.append(0)
        return slot

    def _set_count(self, slot: int, new: int) -> None:
        counts = self._counts
        old = counts[slot]
        counts[slot] = new
        if not self._count_stale:
            if self._mode == "jump":
                self._count_stale = True
            else:
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
            # current jump period; the new pairs enter the pair tree at
            # weight zero and the caller's reweigh pass sets them.
            self._classify_slot(slot)
            pair_tree = self._pair_tree
            for _ in range(len(self._pair_a) - len(pair_tree)):
                pair_tree.append(0)

    def _fresh_count_tree(self) -> GrowableFenwick:
        """The count tree, rebuilt from ``_counts`` first if stale."""
        if self._count_stale:
            self._count_tree.rebuild(self._counts)
            self._count_stale = False
        return self._count_tree

    def _refresh(self) -> None:
        """Judge the tally after an interaction that changed the counts."""
        if (self._good == self.n) != self.correct:
            self.correct = judge_ranking(self, not self.correct)

    # -- stepping ------------------------------------------------------

    def _interact(self, si: int, sj: int) -> None:
        obs = self._obs
        if obs is not None and self.events >= self._obs_next:
            self._obs_sample()
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        pair = si << 32 | sj
        entry = self._memo.get(pair, False)
        if entry is False and self._probe_table is not None:
            entry = self._serve(pair, si, sj)
        # A hit may be the packed int 0 (ta = tb = 0): compare by
        # identity, never by truthiness.
        if entry is False:
            # First occurrence of this ordered state pair, and no probe
            # table serves it: probe it.
            reps = self._reps
            initiator = self._clone(reps[si])
            responder = self._clone(reps[sj])
            spy = self._spy
            spy.rearm(self.rng)
            out_a, out_b = self.protocol.transition(initiator, responder, spy)
            ta = self._slot_of(out_a)
            tb = self._slot_of(out_b)
            self._memo[pair] = _RANDOMIZED if spy.used else ta << 32 | tb
            table = self._probe_table
            if table is not None:
                key = self._key
                clone = self._clone
                table.outputs[key(reps[si]), key(reps[sj])] = (
                    _RANDOMIZED if spy.used
                    else (key(out_a), clone(out_a), key(out_b), clone(out_b))
                )
        elif entry is _RANDOMIZED:
            initiator = self._clone(self._reps[si])
            responder = self._clone(self._reps[sj])
            out_a, out_b = self.protocol.transition(initiator, responder, self.rng)
            ta = self._slot_of(out_a)
            tb = self._slot_of(out_b)
        else:
            ta = entry >> 32
            tb = entry & 0xFFFFFFFF
        if profile:
            obs.add_stage_time("countsim.transition", time.perf_counter() - start)
        self._apply(si, sj, ta, tb)

    def _serve(self, pair: int, si: int, sj: int) -> Union[int, bool]:
        """Memoize ``pair`` from the probe table: its packed outputs, or
        ``False`` when the table holds no deterministic entry for it.

        Missing output slots are created as the probe would create them,
        ``key_a``'s first, each from a clone of the table's state, so
        slot ids, the Fenwick layout and every later draw are the ones
        the probe would have given.
        """
        table = self._probe_table
        assert table is not None
        key = self._key
        reps = self._reps
        stored = table.outputs.get((key(reps[si]), key(reps[sj])))
        if stored is None:
            return False  # not met in the series yet, or randomized
        key_a, state_a, key_b, state_b = stored
        ta = self._served_slot(table, key_a, state_a)
        tb = self._served_slot(table, key_b, state_b)
        entry = self._memo[pair] = ta << 32 | tb
        table.hits += 1
        return entry

    def _served_slot(self, table: ProbeTable, key: Hashable, state: S) -> int:
        """The slot of a table's output, created from a clone if new.

        The table's states passed ``_slot_of`` when they were probed.
        """
        index = table.indices.get(key)
        if index is None:
            index = table.indices[key] = self._index(state)
        slot = self._slot_of_index[index]
        return self._new_slot(index, self._clone(state)) if slot < 0 else slot

    def _apply(self, si: int, sj: int, ta: int, tb: int) -> None:
        # In jump mode a slot that fills up is classified on the spot,
        # registering its pairs; the pair order fixes jump-mode
        # sampling, so counts change in the order their slots first
        # appear in (si, sj, ta, tb).
        profile = self._profile
        counts = self._counts
        if ta == si or tb == sj:
            # At most one agent changed state, from ``old`` to ``new``.
            # Only ``new`` can fill up, so the order of the two updates
            # cannot reorder registrations.
            old, new = (sj, tb) if ta == si else (si, ta)
            if old == new:
                return  # null
            start = time.perf_counter() if profile else 0.0
            self._set_count(old, counts[old] - 1)
            self._set_count(new, counts[new] + 1)
            changed: Sequence[int] = (old, new)
        else:
            if ta == sj and tb == si:
                return  # the two agents swapped states: null in effect
            start = time.perf_counter() if profile else 0.0
            delta: Dict[int, int] = {}
            delta[si] = delta.get(si, 0) - 1
            delta[sj] = delta.get(sj, 0) - 1
            delta[ta] = delta.get(ta, 0) + 1
            delta[tb] = delta.get(tb, 0) + 1
            changed = [slot for slot, d in delta.items() if d]
            for slot in changed:
                self._set_count(slot, counts[slot] + delta[slot])
        if self._mode == "jump":
            # Every count is already updated and ``set`` writes an
            # absolute weight, so the order pairs are visited in (a
            # slot's list runs in *descending* pair order) cannot change
            # the tree; a pair next to both changed slots is set twice,
            # the second time as a no-op.
            pair_a = self._pair_a
            pair_b = self._pair_b
            head = self._adj_head
            nxt = self._adj_next
            pair_tree = self._pair_tree
            for slot in changed:
                e = head[slot]
                while e >= 0:
                    pidx = e >> 1
                    i = pair_a[pidx]
                    j = pair_b[pidx]
                    ci = counts[i]
                    weight = ci * (ci - 1) if i == j else ci * counts[j]
                    pair_tree.set(pidx, weight)
                    e = nxt[e]
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

    # -- batched sampling ----------------------------------------------

    def _advance_batched(self, deadline: int) -> None:
        """Interaction-mode batches until the deadline or a mode change."""
        npg = self._npg
        if npg is None:
            import numpy  # the one place numpy is imported

            npg = self._npg = numpy.random.default_rng(self.rng.getrandbits(128))
        integers = npg.integers
        bisect_right = bisect.bisect_right
        n = self.n
        obs = self._obs
        profile = self._profile
        nulls = self._batch_nulls
        while self.interactions < deadline and self._mode == "interaction":
            if len(self._reps) > MAX_TABLE_DIM:
                self._batch_disabled = True
                return
            size = min(self._batch_size, deadline - self.interactions)
            start = time.perf_counter() if profile else 0.0
            if self._cum_stale:
                self._cum = list(accumulate(self._counts))
                self._cum_stale = False
            cum = self._cum
            u1 = integers(0, n, size=size).tolist()
            u2 = integers(0, n - 1, size=size).tolist()
            if profile:
                obs.add_stage_time(
                    "kernel.batch_sampling", time.perf_counter() - start
                )
                start = time.perf_counter()
            # Initiator ~ counts; responder ~ counts with the initiator's
            # slot decremented (a *different* agent): the sequential
            # scheduler's law.  A known-null draw leaves the counts as
            # they were, so the scan goes on; any other draw ends it.
            stop = 0
            for x, y in zip(u1, u2):
                si = bisect_right(cum, x)
                sj = bisect_right(cum, y)
                if sj >= si:
                    sj = bisect_right(cum, y + 1)
                if si << 32 | sj not in nulls:
                    break
                stop += 1
            if profile:
                obs.add_stage_time(
                    "kernel.batch_apply", time.perf_counter() - start
                )
            if stop == size:
                self.interactions += size
                self.events += size
                if self._batch_size < MAX_BATCH:
                    self._batch_size *= 2
            else:
                # Accept the null prefix wholesale, replay the blocking
                # event through the scalar path (memo probe, randomized
                # transition, apply + resync), discard the stale tail.
                self.interactions += stop + 1
                self.events += stop + 1
                changes = self.changes
                self._interact(si, sj)
                if self.changes != changes:
                    self._cum_stale = True
                pair = si << 32 | sj
                entry = self._memo[pair]
                if entry == pair or entry == sj << 32 | si:
                    nulls.add(pair)
                if self._batch_size > MIN_BATCH and (stop + 1) * 4 < self._batch_size:
                    self._batch_size //= 2
            if obs is not None and self.events >= self._obs_next:
                self._obs_sample()
            if (
                self._switching
                and self.interactions - self._last_change >= self._switch_after
            ):
                self._enter_jump_mode()
                return

    # -- jump mode -----------------------------------------------------

    def _enter_jump_mode(self) -> None:
        """Classify the *occupied* slot pairs and switch to jump mode.

        Up to O(k^2) ``is_pair_null`` queries over the ``k`` occupied
        slots (O(k) when ``silent_class`` keeps classes small); empty
        slots (left behind by transient counters or by fault
        injection) are skipped here and classified lazily if they ever
        refill -- without this, repeated corruption would make every
        re-entry pay for the full graveyard of stale slots.
        """
        self._mode = "jump"
        counts = self._counts
        for slot in range(len(self._reps)):
            if counts[slot] > 0 and not self._classified[slot]:
                self._classify_slot(slot)
        # Weigh every registered pair in one linear rebuild.
        self._pair_tree.rebuild([
            counts[i] * (counts[i] - 1) if i == j else counts[i] * counts[j]
            for i, j in zip(self._pair_a, self._pair_b)
        ])

    def _exit_jump_mode(self) -> None:
        """Drop the effective-pair cache and fall back to interaction mode.

        Called on fault injection: corrupted states spawn cascades of
        short-lived slots (error counters, reset timers), and keeping
        the pair cache current through that would cost O(k) registered
        pairs per new slot.  The auto-switch heuristic is re-armed, so
        the engine re-enters jump mode after the next long null gap.
        """
        self._fresh_count_tree()
        self._mode = "interaction"
        k = len(self._reps)
        self._pair_a = array("q")
        self._pair_b = array("q")
        self._adj_head = array("q", [-1]) * k
        self._adj_next = array("q")
        self._pair_tree = GrowableFenwick()
        self._classified = bytearray(k)
        self._class_member = array("q")
        self._class_lists = {}
        self._none_class = []
        self._cum_stale = True
        self._switching = (
            self._requested_mode in ("auto", "jump") and self.protocol.silent
        )

    def _classify_slot(self, m: int) -> None:
        """Register the effective pairs between slot ``m`` and every
        classified slot, ``m`` included.

        Slots whose ``silent_class`` differs from ``m``'s (both
        non-``None``) are null partners by the lint-checked contract,
        so only same-class and ``None``-class slots are probed.  They
        are probed in ascending slot order, as in a full scan, so the
        surviving pairs land in the pair list in the same order -- and
        jump-mode sampling, hence whole trajectories, do not change.
        """
        classified = self._classified
        classified[m] = 1
        is_pair_null = self.protocol.is_pair_null
        reps = self._reps
        a = reps[m]
        cm = None if self._class_of is None else self._class_for(a)
        candidates: Sequence[int]
        if cm is None:
            # No class partition, or a wildcard slot: full scan.
            candidates = [j for j, done in enumerate(classified) if done]
            bisect.insort(self._none_class, m)
        else:
            class_member = self._class_member
            if not class_member:
                class_member = self._class_member = array("q", [-1]) * (self.n + 1)
            first = class_member[cm]
            if first < 0:
                # Most classes only ever hold one slot: no list for it.
                class_member[cm] = m
                members = [m]
            else:
                class_lists = self._class_lists
                members = class_lists.get(cm)
                if members is None:
                    members = class_lists[cm] = [first, m] if first < m else [m, first]
                else:
                    bisect.insort(members, m)
            candidates = (
                sorted(members + self._none_class) if self._none_class else members
            )
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

    def _class_for(self, state: S) -> Optional[int]:
        """``silent_class(state)``, held to its contract: ``None`` or an
        int in ``0..n`` (it indexes ``_class_member``)."""
        assert self._class_of is not None
        cls = self._class_of(state)
        if cls is None or (cls.__class__ is int and 0 <= cls <= self.n):
            return cls
        raise ConfigurationError(
            f"{type(self.protocol).__name__}.silent_class({state!r}) returned "
            f"{cls!r}; the contract is None or an int in 0..{self.n}"
        )

    def _register_pair(self, i: int, j: int) -> None:
        """Add the effective pair ``(i, j)``; the caller weighs it."""
        pidx = len(self._pair_a)
        self._pair_a.append(i)
        self._pair_b.append(j)
        head = self._adj_head
        nxt = self._adj_next
        nxt.append(head[i])
        head[i] = 2 * pidx
        if j != i:
            nxt.append(head[j])
            head[j] = 2 * pidx + 1
        else:
            nxt.append(-1)

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
        return self._fresh_count_tree().sample(rng)

    def sample_victims(self, count: int, rng: random.Random) -> List[int]:
        """Slots of ``min(count, n)`` distinct uniformly random agents."""
        return self.sample_victim_slots(min(count, self.n), rng)

    def ranked_victims(self, count: int, *, highest: bool) -> List[int]:
        """Slots of up to ``count`` ranked agents, with multiplicity:
        rank 1 first, or the highest ranks."""
        rank = self._slot_rank
        ranked = sorted(
            (
                (rank[slot], slot, slot_count)
                for slot, slot_count in self.occupied_slots()
                if rank[slot] > 0
            ),
            reverse=highest,
        )
        victims: List[int] = []
        for _, slot, slot_count in ranked:
            victims.extend([slot] * min(slot_count, count - len(victims)))
            if len(victims) >= count:
                break
        return victims

    def sample_live_state(self, rng: random.Random, *, leader: bool = False) -> S:
        """A copy of a uniform agent's state, or of a uniform rank-1 slot's
        if ``leader`` and one exists (the clone adversary's source)."""
        rank = self._slot_rank
        leaders = [slot for slot, _ in self.occupied_slots() if rank[slot] == 1] if leader else []
        slot = leaders[rng.randrange(len(leaders))] if leaders else self.sample_agent_slot(rng)
        return self.slot_state(slot)

    def sample_victim_slots(self, count: int, rng: random.Random) -> List[int]:
        """Slots of ``count`` distinct agents drawn without replacement.

        Returns slot ids *with multiplicity* (two victims in the same
        slot appear twice).  Agents within a slot are interchangeable,
        so sequential draws with a temporarily decremented urn yield
        exactly the law of ``rng.sample`` over agents followed by a
        slot lookup (a multivariate hypergeometric over slots).  Like
        ``rng.sample``, raises :class:`ValueError` when ``count`` exceeds
        the population.
        """
        if count > self.n:
            raise ValueError(f"cannot draw {count} victims from {self.n} agents")
        tree = self._fresh_count_tree()
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

    def occupied_slots(self) -> List[Tuple[int, int]]:
        """``(slot, count)`` pairs for every slot with agents in it."""
        return [
            (slot, count) for slot, count in enumerate(self._counts) if count > 0
        ]

    def corrupt(self, victims: Sequence[int], new_states: Sequence[S]) -> None:
        """Overwrite one agent per ``(victim slot, new state)`` pair.

        The configuration multiset becomes ``old - victims + new``, and
        every piece of incremental bookkeeping (count Fenwick tree,
        ranking tally, active/passive partition) is resynchronized; the
        tally's resync emits no event and counts no regression
        (:func:`~repro.core.simulation.judge_ranking`).  A fault is not
        an interaction, so
        ``interactions``/``events``/``changes`` do not advance -- but
        the null-gap clock resets, since the configuration did change
        behind the scheduler's back.  In jump mode the effective-pair
        cache is discarded first (see :meth:`_exit_jump_mode`).

        The call is atomic: the victims are checked as a multiset
        against the current counts, and every new state against the
        protocol's schema, before anything moves, so a rejected call
        leaves the engine exactly as it was.  A state outside the
        schema raises :class:`~repro.core.errors.ConfigurationError`.
        """
        if len(victims) != len(new_states):
            raise ValueError(
                f"got {len(victims)} victims but {len(new_states)} states"
            )
        counts = self._counts
        wanted: Dict[int, int] = {}
        for slot in victims:
            wanted[slot] = wanted.get(slot, 0) + 1
        for slot, k in wanted.items():
            have = counts[slot] if 0 <= slot < len(counts) else 0
            if have < k:
                raise ValueError(
                    f"slot {slot} holds {have} agent(s); cannot corrupt {k}"
                )
        for state in new_states:
            self._check_state(state)
        profile = self._profile
        start = time.perf_counter() if profile else 0.0
        if self._mode == "jump":
            self._exit_jump_mode()
        for slot, state in zip(victims, new_states):
            self._set_count(slot, counts[slot] - 1)
            target = self._slot_of(self._clone(state))
            self._set_count(target, counts[target] + 1)
        self._last_change = self.interactions
        self._cum_stale = True
        if profile:
            self._obs.add_stage_time("countsim.resync", time.perf_counter() - start)
        self.correct = judge_ranking(self, self._good == self.n, resync=True)
