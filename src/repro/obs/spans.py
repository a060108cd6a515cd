"""Causal spans: the hierarchy that ties a job to the work it caused.

The flat sample/event streams from PR 4 answer *what happened*; spans
answer *why it took that long*.  A span is one bounded unit of work
with an identity, a parent and a status, forming the tree

    job -> attempt -> trial -> engine stage

so one slow cell of a sweep can be walked from the job that admitted it
down to the engine stage that dominated it.

Span taxonomy
-------------
``job``
    One submitted service job (id = the job id, ``job-<key16>``).
``attempt``
    One execution attempt of a job (id = ``<job>/a<attempt>``); it
    closes ``ok``, ``failed`` or ``cancelled`` -- the service never
    retries a job, so a re-admitted job (after a restart) opens a fresh
    attempt under a higher number.
``trial``
    One seeded trial inside a sweep.  The span id *is* the PR-5 shard
    identity :func:`repro.obs.trace.span_id` --
    ``"<seed>:<label path>:<index>"`` -- so the span naming a trial's
    randomness also names its trace records.  The only span that closes
    ``retried``: when its pool round breaks, it re-begins under the same
    id in the next round.
``stage``
    One profiled engine stage aggregated over a trial (id =
    ``<trial span>#<stage name>``).  Emitted only under profiling,
    because stage durations are wall-clock measurements.

Determinism contract
--------------------
Span records ride the existing :class:`~repro.obs.trace.TraceWriter`
as the ``span`` record kind, schema-versioned independently of the
trace format (``span_schema``).  Recording spans never consumes engine
RNG, and the *deterministic* fields (id, parent, kind, name, status,
counters) are all a plain span carries -- wall-clock fields
(``wall_seconds``) appear only when the recorder profiles, mirroring
the PR-5 rule that keeps a parallel run's merged trace byte-identical
to a serial run.

Two records bound each span: ``op: "begin"`` (identity + parentage) and
``op: "end"`` (status + summary fields).  A trace whose spans all have
an ``end`` is *well-formed*; :func:`validate_spans` checks that plus
parentage (every begin's parent must be open at that point), and
:func:`build_span_tree` folds a record stream back into the tree.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SPAN_KINDS",
    "SPAN_SCHEMA_VERSION",
    "SPAN_STATUSES",
    "SpanNode",
    "attempt_span_id",
    "build_span_tree",
    "stage_span_id",
    "validate_spans",
]

#: Version of the span record format; bump on incompatible changes.
SPAN_SCHEMA_VERSION = 1

#: The causal hierarchy, outermost first.
SPAN_KINDS = ("job", "attempt", "trial", "stage")

#: Terminal statuses an ``end`` record may carry.
SPAN_STATUSES = ("ok", "retried", "cancelled", "failed")


def attempt_span_id(job_id: str, attempt: int) -> str:
    """The span id of one execution attempt of a job."""
    return f"{job_id}/a{attempt}"


def stage_span_id(parent_id: str, stage: str) -> str:
    """The span id of one profiled engine stage within a parent span."""
    return f"{parent_id}#{stage}"


class SpanNode:
    """One reconstructed span: its records plus its children."""

    __slots__ = ("span_id", "kind", "name", "parent_id", "status",
                 "begin", "end", "children")

    def __init__(self, begin: Dict[str, Any]):
        self.span_id: str = str(begin.get("id"))
        self.kind: Optional[str] = begin.get("kind")
        self.name: Optional[str] = begin.get("name")
        parent = begin.get("parent")
        self.parent_id: Optional[str] = str(parent) if parent is not None else None
        self.status: Optional[str] = None  # set by the end record
        self.begin = begin
        self.end: Optional[Dict[str, Any]] = None
        self.children: List["SpanNode"] = []

    @property
    def closed(self) -> bool:
        return self.end is not None

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _span_records(records: Iterable[Dict[str, Any]]) -> Iterable[Dict[str, Any]]:
    """Span records from either source shape.

    Accepts a full trace stream (span records tagged ``type: "span"``
    by the writer, other record types skipped) and the recorder's raw
    ``spans`` list (untagged records carrying ``span_schema``), so
    validation and tree building run identically over both.
    """
    for record in records:
        rtype = record.get("type")
        if rtype == "span" or (rtype is None and "span_schema" in record):
            yield record


def build_span_tree(
    records: Iterable[Dict[str, Any]],
) -> Tuple[List[SpanNode], Dict[str, SpanNode]]:
    """Fold a trace record stream into span trees.

    Returns ``(roots, by_id)``: the root spans (no parent, or parent
    not present in the stream -- a merged shard's trials are roots of
    their own shard but children of the job in a full service stream)
    and an id -> node index over every span seen.
    """
    by_id: Dict[str, SpanNode] = {}
    roots: List[SpanNode] = []
    for record in _span_records(records):
        op = record.get("op")
        span_id = record.get("id")
        if not isinstance(span_id, str):
            continue
        if op == "begin":
            node = SpanNode(record)
            by_id[span_id] = node
            parent = by_id.get(node.parent_id) if node.parent_id else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif op == "end":
            node = by_id.get(span_id)
            if node is not None and node.end is None:
                node.end = record
                node.status = record.get("status")
    return roots, by_id


def validate_spans(records: Iterable[Dict[str, Any]]) -> List[str]:
    """Check the span invariants over a record stream; return problems.

    An empty list means the stream is well-formed:

    * every span record carries the current ``span_schema`` version,
      a valid ``op`` and an ``id``;
    * every ``begin`` names a known kind and is not already open (a
      *closed* span may legitimately re-begin: a pool-broken trial
      closes ``retried`` and re-runs under the same identity);
    * a ``begin`` naming a parent requires that parent to be *open* at
      that point (a trial span must begin inside a live attempt);
    * every ``end`` matches an open span, carries a known status, and
      no span is left open at the end of the stream -- a cancelled job
      must close its spans on the way out.
    """
    problems: List[str] = []
    open_spans: Dict[str, Dict[str, Any]] = {}
    for index, record in enumerate(_span_records(records)):
        where = f"span record {index}"
        if record.get("span_schema") != SPAN_SCHEMA_VERSION:
            problems.append(
                f"{where}: span_schema {record.get('span_schema')!r} "
                f"!= {SPAN_SCHEMA_VERSION}"
            )
        op = record.get("op")
        span_id = record.get("id")
        if not isinstance(span_id, str):
            problems.append(f"{where}: missing span 'id'")
            continue
        if op == "begin":
            if span_id in open_spans:
                problems.append(
                    f"{where}: span {span_id!r} begun while already open"
                )
                continue
            if record.get("kind") not in SPAN_KINDS:
                problems.append(
                    f"{where}: unknown span kind {record.get('kind')!r} "
                    f"(known: {', '.join(SPAN_KINDS)})"
                )
            parent = record.get("parent")
            if parent is not None and parent not in open_spans:
                problems.append(
                    f"{where}: span {span_id!r} begins under parent "
                    f"{parent!r}, which is not open here"
                )
            open_spans[span_id] = record
        elif op == "end":
            if span_id not in open_spans:
                problems.append(
                    f"{where}: end for span {span_id!r}, which is not open"
                )
                continue
            if record.get("status") not in SPAN_STATUSES:
                problems.append(
                    f"{where}: unknown span status {record.get('status')!r} "
                    f"(known: {', '.join(SPAN_STATUSES)})"
                )
            del open_spans[span_id]
        else:
            problems.append(f"{where}: op must be begin/end, got {op!r}")
    for span_id in open_spans:
        problems.append(f"span {span_id!r} is never closed (dangling open span)")
    return problems
