"""Render a recorded JSONL trace as ascii time-series (``repro tail``).

One small chart per sampled series (mixed magnitudes -- a leader count
near 1 next to a distinct-state count in the hundreds -- would be
unreadable on one canvas), followed by an event summary and, when the
trace carries one, the post-run aggregate record.

``repro tail --follow`` instead streams the file as it grows
(:func:`follow_trace`): records already on disk are replayed with the
same one-line-in-memory grammar as
:func:`~repro.obs.trace.iter_trace`, then the tail polls for appended
lines, waiting out partial writes and reopening from the top when the
file is truncated or replaced -- the recorder of a restarted run
recreates its trace file, and a follower should pick the new run up
rather than go quiet.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import iter_trace

#: Series plotted by default, in display order, when present in samples.
DEFAULT_SERIES = (
    "leaders",
    "rank_coverage",
    "distinct_states",
    "null_fraction",
    "fault_backlog",
)


#: Sample fields never charted (time axis, bookkeeping, identities).
_NON_SERIES_FIELDS = ("t", "v", "type", "interactions", "events", "changes", "span")


def follow_trace(
    path: str,
    *,
    poll: float = 0.5,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield trace records as the file grows (``repro tail --follow``).

    One line is in memory at a time, same as :func:`iter_trace`.  A
    line without a trailing newline is a write in progress -- the
    reader seeks back and waits rather than parsing half a record.
    When the file shrinks or its inode changes (a restarted run
    recreating its trace), the follower reopens from the top; while
    the file does not exist yet it simply keeps polling.  ``stop`` is
    checked at every idle poll so tests and the CLI's signal handling
    can end the otherwise-infinite stream.
    """
    handle = None
    try:
        while True:
            if handle is None:
                try:
                    # Binary mode: tell() is a real byte offset there,
                    # which the truncation check compares to st_size.
                    handle = open(path, "rb")
                except OSError:
                    if stop is not None and stop():
                        return
                    time.sleep(poll)
                    continue
            position = handle.tell()
            line = handle.readline()
            if line.endswith(b"\n"):
                stripped = line.strip()
                if stripped:
                    try:
                        yield json.loads(stripped.decode("utf8"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        continue  # same tolerance as iter_trace
                continue
            # EOF (or a partial line still being written): rewind past
            # the fragment, then decide whether the file was truncated
            # or swapped out from under us.
            handle.seek(position)
            reopen = False
            try:
                stat = os.stat(path)
                reopen = (
                    stat.st_size < position
                    or stat.st_ino != os.fstat(handle.fileno()).st_ino
                )
            except OSError:
                reopen = True
            if reopen:
                handle.close()
                handle = None
                continue
            if stop is not None and stop():
                return
            time.sleep(poll)
    finally:
        if handle is not None:
            handle.close()


def format_record(record: Dict[str, Any]) -> str:
    """One human-readable line per record for follow-mode output."""
    rtype = str(record.get("type", "?"))
    if rtype == "sample":
        t = record.get("t")
        fields = "  ".join(
            f"{name}={value}"
            for name, value in sorted(record.items())
            if name not in _NON_SERIES_FIELDS
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        )
        prefix = f"sample t={t:g}" if isinstance(t, (int, float)) else "sample"
        return f"{prefix}  {fields}".rstrip()
    if rtype == "event":
        detail = "  ".join(
            f"{name}={value}"
            for name, value in sorted(record.items())
            if name not in ("v", "type", "kind")
        )
        return f"event {record.get('kind', '?')}  {detail}".rstrip()
    if rtype == "span":
        op = record.get("op", "?")
        bits = [f"span {op} {record.get('kind', '?')} {record.get('id', '?')}"]
        if op == "end":
            bits.append(f"status={record.get('status', '?')}")
        elif record.get("parent"):
            bits.append(f"parent={record['parent']}")
        return "  ".join(bits)
    if rtype == "aggregate":
        throughput = record.get("throughput") or {}
        return (
            "aggregate  "
            f"interactions={throughput.get('interactions', 0)} "
            f"events={record.get('events', {})}"
        )
    return json.dumps(record, sort_keys=True)


def render_trace(
    path: str,
    *,
    series: Optional[Sequence[str]] = None,
    width: int = 60,
    height: int = 8,
    show_events: bool = True,
) -> str:
    """The full ``repro tail`` rendering of one trace file.

    One streaming pass over :func:`~repro.obs.trace.iter_trace`: only
    the ``(t, value)`` points of the charted series are held in memory,
    never the raw records -- a merged multi-hundred-MB worker-shard
    trace tails in bounded extra space per sample.
    """
    # Imported here: obs stays importable without the experiments layer.
    from repro.experiments.asciiplot import AsciiChart

    wanted = set(series) if series is not None else None
    points_by_field: Dict[str, List[Tuple[float, float]]] = {}
    event_counts: Dict[str, int] = {}
    aggregate_lines: List[str] = []
    records = 0
    samples = 0
    events = 0
    for record in iter_trace(path):
        records += 1
        rtype = record.get("type")
        if rtype == "sample":
            samples += 1
            t = record.get("t")
            if not isinstance(t, (int, float)):
                continue
            for name, value in record.items():
                if name in _NON_SERIES_FIELDS:
                    continue
                if wanted is not None and name not in wanted:
                    continue
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    points_by_field.setdefault(name, []).append(
                        (float(t), float(value))
                    )
        elif rtype == "event":
            events += 1
            kind = str(record.get("kind"))
            event_counts[kind] = event_counts.get(kind, 0) + 1
        elif rtype == "aggregate":
            throughput = record.get("throughput") or {}
            rate = throughput.get("interactions_per_second")
            aggregate_lines.append(
                "aggregate: "
                f"{throughput.get('interactions', 0)} interactions"
                + (f" at {rate:.3e}/s" if isinstance(rate, (int, float)) else "")
            )

    lines: List[str] = [
        f"trace {path}: {records} record(s), "
        f"{samples} sample(s), {events} event(s)"
    ]
    if series is None:
        ordered = [name for name in DEFAULT_SERIES if name in points_by_field]
        ordered += [
            name for name in points_by_field if name not in DEFAULT_SERIES
        ]
        series = ordered or list(DEFAULT_SERIES[:1])
    for name in series:
        points = points_by_field.get(name, [])
        if not points:
            lines.append(f"\n{name}: no sampled points in this trace")
            continue
        chart = AsciiChart(
            width=width, height=height, loglog=False, title=f"{name} vs parallel time"
        )
        chart.add_series(name, points, marker="*")
        lines.append("")
        lines.append(chart.render())

    if show_events and event_counts:
        lines.append("")
        lines.append(
            "events: "
            + "  ".join(
                f"{kind}={count}" for kind, count in sorted(event_counts.items())
            )
        )
    lines.extend(aggregate_lines)
    return "\n".join(lines)
