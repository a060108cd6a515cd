"""Quantitative model checking: the exact Markov chain of a protocol.

The qualitative checker (:mod:`repro.statics.modelcheck`) decides *whether*
a protocol stabilizes from every configuration; this module computes *how
long* it takes, exactly.  Agents are anonymous and the scheduler is
uniform, so a protocol with a deterministic pair-transition table induces
a finite Markov chain on multiset configurations, with exact rational
transition probabilities: from a configuration with state counts
``c_0..c_{k-1}`` over a population of ``n`` agents, the scheduler selects
the ordered state pair ``(i, j)`` with probability

    P[(i, j)] = c_i (c_j - delta_ij) / (n (n - 1))

(the number of ordered *agent* pairs realizing the state pair, over all
``n (n - 1)`` ordered agent pairs).  Pushing each selected pair through
the memoized pair table of :class:`~repro.statics.modelcheck.StateSpace`
and aggregating by successor configuration yields the chain -- kept as
:class:`fractions.Fraction` entries so the model is exact and
deterministic, without floating-point drift.

On top of the chain this module computes:

* **expected hitting times** of a target set (for silent protocols: the
  correct sinks, i.e. exact expected stabilization time in interactions),
  via a linear solve -- a pure-python Gauss-Seidel sweep ordered by
  distance-to-target when it certifies within a small work budget,
  ``scipy.sparse`` LU otherwise (Gauss-Seidel to convergence without
  scipy);
* **second moments and variances** of the hitting time (same matrix,
  different right-hand side), which give the *exact* standard error of a
  Monte-Carlo mean -- the confidence bands :mod:`repro.statics.oracle`
  checks both simulation engines against;
* **full hitting-time distributions** ``P[T = k]`` by transient-matrix
  powering, with an explicit tail bound;
* **per-configuration worst-case expected time** over the full
  configuration space -- the paper's "from every configuration"
  guarantee, made numeric.

Configurations from which the target is not hit with probability 1 have
infinite expected hitting time.  The solver detects them exactly (a
configuration can avoid the target forever iff it reaches a configuration
from which the target is unreachable) and either raises
:class:`QuantError` with witnesses or reports ``inf``
(``on_unreachable="inf"``) -- which is how the parameter-synthesis driver
(:mod:`repro.statics.synth`) rejects infeasible parameter values instead
of crashing on them.

Nothing here truncates silently: configuration caps raise a typed
:class:`~repro.statics.modelcheck.ModelCheckError`, so quantitative
results are never computed on a partial state space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.statics.modelcheck import ModelCheckError, StateSpace
from repro.statics.schema import StateSchema

#: A configuration: sorted tuple of state indices (one per agent).
Config = Tuple[int, ...]

#: Target-set kinds understood by :func:`build_chain`.
TARGET_KINDS = ("auto", "correct-sink", "correct", "sink", "incorrect")

#: Linear-solver choices (``"auto"``: budgeted Gauss-Seidel, then scipy).
SOLVERS = ("auto", "scipy", "gauss-seidel")

#: Work budget, in sweeps x (size + nonzeros), of the Gauss-Seidel
#: attempt ``"auto"`` makes before it falls back to sparse LU.  The
#: Table 1 witness chain (a line) certifies in one sweep up to ~10^4
#: states without importing scipy; chains that need hundreds of sweeps
#: give up after ~1-2 ms.
GAUSS_SEIDEL_BUDGET = 20_000

#: Sweep cap of the Gauss-Seidel solver when it runs to convergence.
MAX_SWEEPS = 20_000

#: Default cap shared with the qualitative checker; exceeding it raises.
MAX_CONFIGS = 250_000


class QuantError(ModelCheckError):
    """The quantitative analysis cannot be performed (or is ill-posed)."""


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------


def transition_distribution(
    space: StateSpace, config: Config
) -> List[Tuple[Config, Fraction]]:
    """Exact one-interaction distribution over successor configurations.

    Sums the integer pair weights ``c_i (c_j - delta_ij)`` by successor
    over the state-changing pairs only (:meth:`StateSpace.active_pairs`);
    the self-loop takes the remainder of the ``n (n - 1)`` ordered agent
    pairs, which is exactly the null pairs' weight.  Each successor then
    gets one ``Fraction(weight, n (n - 1))``.  The result sums to 1
    exactly and is sorted by configuration for determinism.
    """
    n = space.protocol.n
    denominator = n * (n - 1)
    weights: Dict[Config, int] = {}
    moved = 0
    for pair, weight in space.active_pairs(config):
        if pair not in space.pairs:
            raise QuantError(
                "pair table is incomplete at "
                f"({space._describe_pair(*pair)}); fix closure/determinism "
                "before quantitative analysis"
            )
        successor = space.successor(config, pair)
        weights[successor] = weights.get(successor, 0) + weight
        moved += weight
    if moved < denominator:
        weights[config] = weights.get(config, 0) + denominator - moved
    return sorted(
        (successor, Fraction(weight, denominator))
        for successor, weight in weights.items()
    )


def _target_predicate(
    space: StateSpace, target: Union[str, Callable[[Config], bool]]
) -> Tuple[Callable[[Config], bool], str]:
    if callable(target):
        return target, "custom"
    if target == "auto":
        target = "correct-sink" if getattr(space.protocol, "silent", False) else "correct"
    if target == "correct-sink":
        return lambda c: space.is_sink(c) and space.is_correct(c), "correct-sink"
    if target == "correct":
        return space.is_correct, "correct"
    if target == "sink":
        return space.is_sink, "sink"
    if target == "incorrect":
        return lambda c: not space.is_correct(c), "incorrect"
    raise ValueError(f"target must be callable or one of {TARGET_KINDS}, got {target!r}")


@dataclass
class ConfigChain:
    """The explicit Markov chain of one protocol on multiset configurations.

    ``rows[i]`` lists ``(column, probability)`` pairs (exact Fractions,
    self-loop included, each row summing to 1); ``target`` flags the
    configurations whose hitting time is being analyzed.  Built by
    :func:`build_chain`.
    """

    space: StateSpace
    configs: List[Config]
    index: Dict[Config, int]
    rows: List[List[Tuple[int, Fraction]]]
    target: List[bool]
    target_kind: str
    #: How the configuration set was obtained: "full" or "reachable".
    coverage: str

    @property
    def size(self) -> int:
        return len(self.configs)

    @property
    def n(self) -> int:
        return self.space.protocol.n

    @property
    def target_indices(self) -> List[int]:
        return [i for i, flag in enumerate(self.target) if flag]

    def config_of(self, states: Sequence[Any]) -> Config:
        """Canonical configuration of an explicit state list."""
        return config_of(self.space, states)

    def describe(self, config: Config) -> str:
        return self.space.describe_configuration(config)

    def probability(self, source: Config, destination: Config) -> Fraction:
        """Exact one-step probability between two configurations."""
        row = self.rows[self.index[source]]
        j = self.index.get(destination)
        if j is None:
            return Fraction(0)
        for column, probability in row:
            if column == j:
                return probability
        return Fraction(0)


def config_of(space: StateSpace, states: Sequence[Any]) -> Config:
    """Map explicit agent states to the canonical sorted index tuple."""
    if len(states) != space.protocol.n:
        raise QuantError(
            f"configuration has {len(states)} agents, protocol declares "
            f"n={space.protocol.n}"
        )
    indices: List[int] = []
    for position, state in enumerate(states):
        key = space.schema.key(state)
        index = space.index.get(key)
        if index is None:
            raise QuantError(
                f"agent {position} state {space.protocol.describe(state)} is "
                "not in the enumerated state space"
            )
        indices.append(index)
    return tuple(sorted(indices))


def build_chain(
    protocol: Any,
    schema: Optional[StateSchema] = None,
    *,
    target: Union[str, Callable[[Config], bool]] = "auto",
    starts: Optional[Sequence[Sequence[Any]]] = None,
    max_states: int = 4096,
    max_configs: int = MAX_CONFIGS,
    space: Optional[StateSpace] = None,
) -> ConfigChain:
    """Build the explicit configuration chain of ``protocol``.

    With ``starts`` (a sequence of explicit state lists) the chain covers
    exactly the configurations reachable from those starts; without it,
    the *full* configuration space (needed for worst-case analysis).
    Either way the ``max_configs`` cap raises a typed error rather than
    truncating.  ``target`` selects the hit set: ``"auto"`` picks the
    correct sinks for silent protocols (stabilization) and the correct
    configurations otherwise (first correctness).
    """
    if space is None:
        space = StateSpace(protocol, schema, max_states=max_states)
    if space.protocol.n < 2:
        raise QuantError(
            f"n={space.protocol.n}: the pair scheduler needs at least two agents"
        )
    if not space.pair_table_complete:
        witnesses = space.closure_witnesses + space.determinism_witnesses
        raise QuantError(
            "pair table incomplete (closure/determinism violations); "
            "qualitative model checking must pass first: "
            + "; ".join(witnesses[:3])
        )
    predicate, target_kind = _target_predicate(space, target)

    configs: List[Config]
    # Reachable mode keeps each explored distribution for its row, so
    # every configuration's distribution is computed exactly once.
    distributions: Dict[Config, List[Tuple[Config, Fraction]]] = {}
    if starts is None:
        configs = list(space.configurations(max_configs))
        coverage = "full"
    else:
        seeds = sorted({config_of(space, states) for states in starts})
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            config = frontier.pop()
            distribution = transition_distribution(space, config)
            distributions[config] = distribution
            for successor, _ in distribution:
                if successor not in seen:
                    if len(seen) >= max_configs:
                        raise QuantError(
                            f"reachable set exceeds the cap {max_configs} "
                            f"configurations (refusing to truncate; raise "
                            "max_configs or shrink the protocol)"
                        )
                    seen.add(successor)
                    frontier.append(successor)
        configs = sorted(seen)
        coverage = "reachable"

    index = {config: i for i, config in enumerate(configs)}
    rows: List[List[Tuple[int, Fraction]]] = []
    for config in configs:
        distribution = distributions.pop(config, None)
        if distribution is None:
            distribution = transition_distribution(space, config)
        row: List[Tuple[int, Fraction]] = []
        for successor, probability in distribution:
            column = index.get(successor)
            if column is None:
                # Only possible with coverage="full" and a closed space,
                # since full covers everything and reachable is closed by
                # construction; guard against schema/table disagreement.
                raise QuantError(
                    f"successor {space.describe_configuration(successor)} "
                    "escapes the configuration set"
                )
            row.append((column, probability))
        rows.append(row)
    chain = ConfigChain(
        space=space,
        configs=configs,
        index=index,
        rows=rows,
        target=[predicate(config) for config in configs],
        target_kind=target_kind,
        coverage=coverage,
    )
    if not any(chain.target):
        raise QuantError(
            f"no {target_kind!r} configuration among the {len(configs)} "
            "analyzed; the hitting time is ill-posed"
        )
    return chain


# ---------------------------------------------------------------------------
# Reachability structure
# ---------------------------------------------------------------------------


def _backward_closure(chain: ConfigChain, seeds: Sequence[int]) -> List[bool]:
    """Flags configurations that can reach (or are in) ``seeds``."""
    predecessors: List[List[int]] = [[] for _ in chain.configs]
    for source, row in enumerate(chain.rows):
        for column, _ in row:
            if column != source:
                predecessors[column].append(source)
    reached = [False] * len(chain.configs)
    frontier = list(seeds)
    for i in frontier:
        reached[i] = True
    while frontier:
        node = frontier.pop()
        for predecessor in predecessors[node]:
            if not reached[predecessor]:
                reached[predecessor] = True
                frontier.append(predecessor)
    return reached


def _distance_order(chain: ConfigChain, transient: Sequence[int]) -> List[int]:
    """Transient indices ordered by BFS distance to the target set.

    Gauss-Seidel sweeps in this order propagate absorption values
    backwards through the chain, which makes the fallback solver
    near-direct on DAG-like chains (e.g. the paper's worst-case witness
    line) and fast on everything small enough to run without scipy.
    """
    predecessors: Dict[int, List[int]] = {i: [] for i in transient}
    transient_set = set(transient)
    for source in transient:
        for column, _ in chain.rows[source]:
            if column in transient_set and column != source:
                predecessors[column].append(source)
    distance: Dict[int, int] = {}
    frontier: List[int] = []
    for source in transient:
        if any(chain.target[column] for column, _ in chain.rows[source]):
            distance[source] = 0
            frontier.append(source)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for node in frontier:
            for predecessor in predecessors[node]:
                if predecessor not in distance:
                    distance[predecessor] = depth
                    next_frontier.append(predecessor)
        frontier = next_frontier
    return sorted(transient, key=lambda i: (distance.get(i, len(chain.configs)), i))


# ---------------------------------------------------------------------------
# Linear solvers
# ---------------------------------------------------------------------------


def _scipy_available() -> bool:
    try:
        import scipy.sparse  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
    except ImportError:
        return False
    return True


def _solve_scipy(
    rows: Sequence[Sequence[Tuple[int, float]]],
    diagonal: Sequence[float],
    rhs: Sequence[float],
) -> List[float]:
    """Solve ``(I - Q) x = b`` with a sparse LU factorization."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as sparse_linalg

    size = len(rhs)
    data: List[float] = []
    row_indices: List[int] = []
    column_indices: List[int] = []
    for i in range(size):
        row_indices.append(i)
        column_indices.append(i)
        data.append(diagonal[i])
        for j, coefficient in rows[i]:
            row_indices.append(i)
            column_indices.append(j)
            data.append(-coefficient)
    matrix = sparse.csc_matrix(
        (data, (row_indices, column_indices)), shape=(size, size)
    )
    solution = sparse_linalg.spsolve(matrix, list(rhs))
    return [float(value) for value in solution]


def _solve_gauss_seidel(
    rows: Sequence[Sequence[Tuple[int, float]]],
    diagonal: Sequence[float],
    rhs: Sequence[float],
    order: Sequence[int],
    *,
    max_sweeps: int,
    tol: float = 1e-13,
) -> Optional[List[float]]:
    """Pure-python Gauss-Seidel for ``(I - Q) x = b``.

    ``I - Q`` of an absorbing chain (restricted to states that hit the
    target with probability 1) is a weakly chained diagonally dominant
    M-matrix, for which Gauss-Seidel converges; sweeping in
    distance-to-target order makes the iteration near-direct in
    practice.  Convergence is certified by the residual, not the update
    size, so a slow contraction cannot masquerade as convergence.
    Returns ``None`` if the residual is not certified within
    ``max_sweeps`` sweeps.
    """
    size = len(rhs)
    solution = [0.0] * size
    for sweep in range(max_sweeps):
        for i in order:
            accumulator = rhs[i]
            for j, coefficient in rows[i]:
                accumulator += coefficient * solution[j]
            solution[i] = accumulator / diagonal[i]
        residual = 0.0
        scale = 1.0
        for i in range(size):
            row_value = diagonal[i] * solution[i]
            for j, coefficient in rows[i]:
                row_value -= coefficient * solution[j]
            residual = max(residual, abs(row_value - rhs[i]))
            scale = max(scale, abs(rhs[i]))
        if residual <= tol * scale:
            return solution
    return None


def _solve(
    rows: Sequence[Sequence[Tuple[int, float]]],
    diagonal: Sequence[float],
    rhs: Sequence[float],
    order: Sequence[int],
    solver: str,
) -> Tuple[List[float], str]:
    if solver not in SOLVERS:
        raise ValueError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if solver == "auto":
        work = max(1, len(rhs) + sum(len(row) for row in rows))
        solution = _solve_gauss_seidel(
            rows, diagonal, rhs, order, max_sweeps=GAUSS_SEIDEL_BUDGET // work
        )
        if solution is not None:
            return solution, "gauss-seidel"
        solver = "scipy" if _scipy_available() else "gauss-seidel"
    if solver == "scipy":
        if not _scipy_available():
            raise QuantError("solver='scipy' requested but scipy is not importable")
        return _solve_scipy(rows, diagonal, rhs), "scipy"
    solution = _solve_gauss_seidel(rows, diagonal, rhs, order, max_sweeps=MAX_SWEEPS)
    if solution is None:
        raise QuantError(
            f"Gauss-Seidel did not converge in {MAX_SWEEPS} sweeps "
            f"(size {len(rhs)}); use the sparse LU solver (needs scipy)"
        )
    return solution, "gauss-seidel"


# ---------------------------------------------------------------------------
# Hitting moments
# ---------------------------------------------------------------------------


@dataclass
class HittingMoments:
    """First and second moments of the target hitting time, per config.

    ``expected[i]`` / ``second_moment[i]`` are in *interactions*; target
    configurations hold 0.0, configurations that miss the target with
    positive probability hold ``inf`` (only under
    ``on_unreachable="inf"``).  Produced by :func:`hitting_moments`.
    """

    chain: ConfigChain
    expected: List[float]
    second_moment: List[float]
    solver: str
    #: Configurations whose expected hitting time is infinite.
    infinite: List[Config]

    def expected_from(self, config: Config) -> float:
        return self.expected[self._index(config)]

    def variance_from(self, config: Config) -> float:
        i = self._index(config)
        expected = self.expected[i]
        if expected == float("inf"):
            return float("inf")
        # Guard tiny negative values from float cancellation.
        return max(0.0, self.second_moment[i] - expected * expected)

    def expected_from_states(self, states: Sequence[Any]) -> float:
        return self.expected_from(self.chain.config_of(states))

    def worst_case(self) -> Tuple[float, Config]:
        """The maximal expected hitting time and its witness configuration."""
        worst_index = max(
            range(len(self.expected)), key=lambda i: (self.expected[i], i)
        )
        return self.expected[worst_index], self.chain.configs[worst_index]

    def _index(self, config: Config) -> int:
        index = self.chain.index.get(config)
        if index is None:
            raise QuantError(
                f"configuration {config} is outside the analyzed chain "
                f"({self.chain.coverage} coverage, {self.chain.size} configs)"
            )
        return index


def hitting_moments(
    chain: ConfigChain,
    *,
    solver: str = "auto",
    on_unreachable: str = "raise",
) -> HittingMoments:
    """Exact expected hitting times (and second moments) of the target.

    Solves ``E[x] = 1 + sum_y P(x, y) E[y]`` over the transient
    configurations, then ``E2[x] = 1 + sum_y P(x, y) (2 E[y] + E2[y])``
    with the same matrix.  Configurations that fail to hit the target
    with probability 1 (they can reach a configuration from which the
    target is unreachable) have infinite expectation; ``on_unreachable``
    selects between raising :class:`QuantError` with witnesses
    (``"raise"``, the default) and recording ``inf`` (``"inf"``).
    """
    if on_unreachable not in ("raise", "inf"):
        raise ValueError(
            f"on_unreachable must be 'raise' or 'inf', got {on_unreachable!r}"
        )
    size = chain.size
    can_reach = _backward_closure(chain, chain.target_indices)
    doomed = [i for i in range(size) if not can_reach[i]]
    if doomed:
        hopeless = _backward_closure(chain, doomed)
    else:
        hopeless = [False] * size
    infinite = [i for i in range(size) if hopeless[i] and not chain.target[i]]
    if infinite and on_unreachable == "raise":
        witnesses = ", ".join(
            chain.describe(chain.configs[i]) for i in infinite[:3]
        )
        raise QuantError(
            f"{len(infinite)} of {size} configurations miss the "
            f"{chain.target_kind!r} target with positive probability "
            f"(infinite expected hitting time); witnesses: {witnesses}"
        )

    transient = [
        i for i in range(size) if not chain.target[i] and not hopeless[i]
    ]
    position = {global_index: local for local, global_index in enumerate(transient)}

    # (I - Q) restricted to solvable transient configurations, with the
    # self-loop folded into the diagonal.
    local_rows: List[List[Tuple[int, float]]] = []
    diagonal: List[float] = []
    for global_index in transient:
        self_probability = 0.0
        entries: List[Tuple[int, float]] = []
        for column, probability in chain.rows[global_index]:
            if column == global_index:
                self_probability = float(probability)
            elif column in position:
                entries.append((position[column], float(probability)))
        local_rows.append(entries)
        diagonal.append(1.0 - self_probability)

    order_global = _distance_order(chain, transient)
    order = [position[i] for i in order_global]

    ones = [1.0] * len(transient)
    expected_local, solver_used = _solve(local_rows, diagonal, ones, order, solver)

    expected = [0.0] * size
    for global_index, local in position.items():
        expected[global_index] = expected_local[local]
    for global_index in infinite:
        expected[global_index] = float("inf")

    # Second moment: same matrix, RHS = 1 + 2 * sum_y P(x, y) E[y]
    # (self-loop term folded like the diagonal: the derivation uses the
    # unconditioned chain, so the self-loop contribution 2 P(x,x) E[x]
    # belongs on the left -- equivalently solve with the RHS below and
    # the same (I - Q) matrix, Q including the self-loop).
    second_rhs: List[float] = []
    for local, global_index in enumerate(transient):
        accumulator = 1.0
        for column, probability in chain.rows[global_index]:
            accumulator += 2.0 * float(probability) * expected[column]
        second_rhs.append(accumulator)
    # Same matrix: where ``auto`` fell back to LU, Gauss-Seidel would
    # spend its budget again for nothing.
    second_solver = "scipy" if solver_used == "scipy" else solver
    second_local, _ = _solve(local_rows, diagonal, second_rhs, order, second_solver)

    second = [0.0] * size
    for global_index, local in position.items():
        second[global_index] = second_local[local]
    for global_index in infinite:
        second[global_index] = float("inf")

    return HittingMoments(
        chain=chain,
        expected=expected,
        second_moment=second,
        solver=solver_used,
        infinite=[chain.configs[i] for i in infinite],
    )


# ---------------------------------------------------------------------------
# Hitting-time distribution
# ---------------------------------------------------------------------------


@dataclass
class HittingDistribution:
    """Truncated pmf of the target hitting time from one configuration.

    ``pmf[k] = P[T = k]`` for ``k = 0..len(pmf)-1`` (interactions);
    ``tail`` is the exact remaining mass ``P[T >= len(pmf)]``, so
    ``sum(pmf) + tail == 1`` up to float rounding.  Produced by
    :func:`hitting_distribution`.
    """

    start: Config
    pmf: List[float]
    tail: float

    def cdf(self, k: int) -> float:
        """``P[T <= k]`` for ``k`` within the truncation horizon."""
        if k >= len(self.pmf):
            raise QuantError(
                f"cdf({k}) beyond the computed horizon {len(self.pmf) - 1}"
            )
        return sum(self.pmf[: k + 1])

    def mean_lower_bound(self) -> float:
        """``sum k pmf[k]``: a lower bound on E[T] (exact as tail -> 0)."""
        return sum(k * p for k, p in enumerate(self.pmf))


def hitting_distribution(
    chain: ConfigChain,
    start: Config,
    *,
    horizon: Optional[int] = None,
    tail_tol: float = 1e-9,
    max_horizon: int = 1_000_000,
) -> HittingDistribution:
    """Exact pmf of the hitting time via transient-matrix powering.

    Propagates the probability vector restricted to non-target
    configurations; the mass leaving it at step ``k`` is ``P[T = k]``.
    With ``horizon`` the pmf is truncated there; otherwise powering
    continues until the surviving transient mass drops below
    ``tail_tol`` (bounded by ``max_horizon`` -- hit only when some mass
    never reaches the target, in which case the tail reports it).
    """
    start_index = chain.index.get(start)
    if start_index is None:
        raise QuantError(
            f"start configuration {start} is outside the analyzed chain"
        )
    size = chain.size
    target = chain.target
    mass = [0.0] * size
    pmf: List[float] = []
    if target[start_index]:
        pmf.append(1.0)
        return HittingDistribution(start=start, pmf=pmf, tail=0.0)
    pmf.append(0.0)
    mass[start_index] = 1.0
    # Pre-extract float rows once; powering is the hot loop.
    float_rows: List[List[Tuple[int, float]]] = [
        [(column, float(probability)) for column, probability in row]
        for row in chain.rows
    ]
    remaining = 1.0
    steps = horizon if horizon is not None else max_horizon
    for _ in range(steps):
        next_mass = [0.0] * size
        for i, value in enumerate(mass):
            if value == 0.0:
                continue
            for column, probability in float_rows[i]:
                next_mass[column] += value * probability
        absorbed = 0.0
        for i in range(size):
            if target[i] and next_mass[i] > 0.0:
                absorbed += next_mass[i]
                next_mass[i] = 0.0
        pmf.append(absorbed)
        remaining -= absorbed
        mass = next_mass
        if horizon is None and remaining <= tail_tol:
            break
    return HittingDistribution(start=start, pmf=pmf, tail=max(0.0, remaining))


# ---------------------------------------------------------------------------
# Worst case
# ---------------------------------------------------------------------------


def worst_case(
    protocol: Any,
    schema: Optional[StateSchema] = None,
    *,
    target: Union[str, Callable[[Config], bool]] = "auto",
    solver: str = "auto",
    max_states: int = 4096,
    max_configs: int = MAX_CONFIGS,
) -> Tuple[float, Config, HittingMoments]:
    """Max expected hitting time over the *full* configuration space.

    The numeric form of the paper's "from every configuration"
    guarantee: builds the full chain (typed error at the cap, never
    truncated) and returns the worst expectation, its witness
    configuration, and the full moments object for further inspection.
    """
    chain = build_chain(
        protocol,
        schema,
        target=target,
        max_states=max_states,
        max_configs=max_configs,
    )
    moments = hitting_moments(chain, solver=solver)
    value, witness = moments.worst_case()
    return value, witness, moments
