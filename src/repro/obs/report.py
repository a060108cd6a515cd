"""``repro report``: render the run ledger and benchmark trajectory.

Reads the append-only ledger (:mod:`repro.obs.ledger`) plus the stored
per-suite baselines (:mod:`repro.obs.bench`) and renders one markdown
report: the recent invocation history, then -- per benchmark suite --
the latest numbers against their baseline, with any flagged
regressions called out.  The CLI exits non-zero when the latest bench
entry of any suite carries flagged regressions, so the report doubles
as a gate over history that ``repro bench --compare-baseline`` wrote
earlier.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import Any, Dict, List, Tuple

from repro.obs.bench import DEFAULT_BASELINE_DIR, load_baseline
from repro.obs.ledger import iter_ledger

__all__ = ["render_report"]


def _when(entry: Dict[str, Any]) -> str:
    stamp = entry.get("created_unix")
    if not isinstance(stamp, (int, float)):
        return "?"
    return datetime.fromtimestamp(stamp, tz=timezone.utc).strftime("%Y-%m-%d %H:%M")


def _sha(entry: Dict[str, Any]) -> str:
    sha = entry.get("git_sha")
    return str(sha)[:12] if sha else "?"


def _identity(entry: Dict[str, Any]) -> str:
    kind = entry.get("kind")
    if kind == "run":
        return str(entry.get("experiment", "?"))
    if kind == "chaos":
        protocols = entry.get("protocols") or []
        ns = entry.get("n") or []
        return (
            f"{entry.get('adversary', '?')} vs "
            f"{','.join(map(str, protocols))} n={','.join(map(str, ns))}"
        )
    if kind == "bench":
        return f"suite {entry.get('suite', '?')}"
    return "?"


def _outcome(entry: Dict[str, Any]) -> str:
    kind = entry.get("kind")
    if kind == "bench":
        regressions = entry.get("regressions")
        if regressions is None:
            return "no baseline"
        return "ok" if regressions == 0 else f"{regressions} REGRESSION(S)"
    passed = entry.get("all_passed", entry.get("all_recovered"))
    if passed is None:
        return "?"
    return "ok" if passed else "FAILED"


def _seconds(entry: Dict[str, Any]) -> str:
    wall = entry.get("wall_seconds")
    return f"{wall:.1f}s" if isinstance(wall, (int, float)) else "?"


def _history_table(entries: List[Dict[str, Any]], limit: int) -> List[str]:
    lines = [
        "| when (UTC) | kind | what | git | wall | outcome |",
        "|---|---|---|---|---|---|",
    ]
    for entry in entries[-limit:]:
        lines.append(
            f"| {_when(entry)} | {entry.get('kind', '?')} | {_identity(entry)} "
            f"| `{_sha(entry)}` | {_seconds(entry)} | {_outcome(entry)} |"
        )
    return lines


def _bench_section(
    suite: str,
    entry: Dict[str, Any],
    baseline_dir: str,
) -> List[str]:
    lines = [f"### suite `{suite}`", ""]
    baseline = load_baseline(suite, baseline_dir)
    baseline_cells: Dict[str, Dict[str, Any]] = {
        cell["cell"]: cell for cell in (baseline or {}).get("cells", [])
    }
    flagged = set(entry.get("flagged_cells") or [])
    lines.append("| cell | metric | latest mean | stdev | baseline | delta | gate |")
    lines.append("|---|---|---|---|---|---|---|")
    for name, cell in sorted((entry.get("cells") or {}).items()):
        base = baseline_cells.get(name)
        if base is not None and base.get("mean"):
            delta_pct = 100.0 * (cell["mean"] - base["mean"]) / base["mean"]
            base_text = f"{base['mean']:.6g}"
            delta_text = f"{delta_pct:+.1f}%"
        else:
            base_text = "—"
            delta_text = "—"
        gate = "**REGRESSION**" if name in flagged else "ok"
        lines.append(
            f"| {name} | {cell['metric']} | {cell['mean']:.6g} "
            f"| {cell['stdev']:.2g} | {base_text} | {delta_text} | {gate} |"
        )
    regressions = entry.get("regressions")
    if regressions is None:
        lines.append("")
        lines.append(
            "_Latest run was not compared against a baseline "
            "(`repro bench --compare-baseline`)._"
        )
    lines.append("")
    return lines


def render_report(
    ledger_path: str,
    *,
    baseline_dir: str = DEFAULT_BASELINE_DIR,
    limit: int = 20,
) -> Tuple[str, int]:
    """Render the ledger as markdown; returns ``(text, flagged)``.

    ``flagged`` counts regressions recorded in the *latest* bench entry
    of each suite -- older, already-addressed regressions do not keep
    the report red.
    """
    entries = list(iter_ledger(ledger_path))
    lines: List[str] = ["# Run ledger report", ""]
    if not entries:
        lines.append(f"_No ledger entries at `{ledger_path}` yet; run "
                     "`repro run`, `repro chaos` or `repro bench` to start "
                     "the trajectory._")
        return "\n".join(lines) + "\n", 0

    kinds: Dict[str, int] = {}
    for entry in entries:
        kind = str(entry.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    lines.append(
        f"`{ledger_path}` — {len(entries)} entr"
        f"{'y' if len(entries) == 1 else 'ies'} ("
        + ", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
        + f"), showing the last {min(limit, len(entries))}."
    )
    lines.append("")
    lines.extend(_history_table(entries, limit))
    lines.append("")

    # Latest bench entry per suite drives the regression verdict.
    latest_bench: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        if entry.get("kind") == "bench" and entry.get("suite"):
            latest_bench[str(entry["suite"])] = entry
    flagged = 0
    if latest_bench:
        lines.append("## Benchmarks vs baseline")
        lines.append("")
        for suite in sorted(latest_bench):
            entry = latest_bench[suite]
            lines.extend(_bench_section(suite, entry, baseline_dir))
            regressions = entry.get("regressions")
            if isinstance(regressions, int):
                flagged += regressions
    if flagged:
        lines.append(f"**{flagged} flagged regression(s)** in the latest "
                     "bench entries — investigate before merging.")
    elif latest_bench:
        lines.append("Zero flagged regressions in the latest bench entries.")
    return "\n".join(lines) + "\n", flagged
