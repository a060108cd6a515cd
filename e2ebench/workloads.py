"""The benchmark's workloads: what one pass runs and how it is checked.

A *batch* workload runs one user command per pass in a fresh process
(:mod:`child`); ``run.py`` checks the files the pass wrote.  The
*service* workload drives ``repro serve`` (:mod:`loadgen`).  Each
workload's ``why`` -- the layer it stresses and the one it bypasses --
is repeated in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import harness

#: Problems found in a pass, plus informational fields.
Checked = Tuple[List[str], Dict[str, Any]]


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    #: Modules a pass imports before the workload can start (``setup_s``).
    modules: Sequence[str]
    #: Runs the workload in the child; returns the process exit code.
    run: Callable[[int, str, bool], int]
    #: Checks the pass's outputs in ``run.py``: ``(exit_code, outdir)``.
    check: Callable[[int, str], Checked]


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    modules: Sequence[str] = field(
        default=("repro.experiments.cli", "repro.service.api", "repro.experiments.chaos")
    )


def cli(argv: List[str]) -> int:
    from repro.experiments.cli import main

    return main(argv)


# -- frontier ---------------------------------------------------------------


def _frontier_sizes(smoke: bool) -> List[int]:
    return [2_000, 8_000] if smoke else [10_000, 40_000]


def run_frontier(seed: int, outdir: str, smoke: bool) -> int:
    # The CLI has no sizes flag and its full sizes take minutes, so the
    # pass calls the experiment's entry point the CLI itself calls.
    from repro.experiments import frontier

    report = frontier.run(
        seed=seed, sizes=_frontier_sizes(smoke), trials=1, workers=1, engine="vector"
    )
    with open(os.path.join(outdir, "frontier.json"), "w", encoding="utf8") as handle:
        json.dump(
            {
                "rows": report.rows,
                "checks": {
                    name: {"passed": check.passed, "measured": str(check.measured)}
                    for name, check in report.checks.items()
                },
            },
            handle,
        )
    return 0 if report.all_passed else 1


def check_frontier(code: int, outdir: str) -> Checked:
    return harness.check_frontier(os.path.join(outdir, "frontier.json"))


# -- table1 / whp -----------------------------------------------------------


def _run_args(experiment: str, seed: int, outdir: str) -> List[str]:
    # ``-o`` appends, so every pass writes into its own directory.
    return [
        "run", experiment, "--quick", "--seed", str(seed), "--no-ledger",
        "-o", os.path.join(outdir, "report.md"), "--csv", outdir,
    ]


def run_table1(seed: int, outdir: str, smoke: bool) -> int:
    return cli(_run_args("table1", seed, outdir) + ["--workers", "1"])


def check_table1(code: int, outdir: str) -> Checked:
    return harness.check_table1(outdir)


def run_whp(seed: int, outdir: str, smoke: bool) -> int:
    return cli(_run_args("whp", seed, outdir))


def check_whp(code: int, outdir: str) -> Checked:
    # The +0.02 exponent margin between two 60-trial tail fits fails on
    # about one seed in seventy-five; the other three checks held on
    # every seed tried.
    return harness.check_report_csv(outdir, "whp", informational=("whp-quantile-superlinear",))


# -- verify -----------------------------------------------------------------


def run_verify(seed: int, outdir: str, smoke: bool) -> int:
    n, trials = ("3", "20") if smoke else ("4", "100")
    return cli([
        "verify", "--n", n, "--trials", trials, "--seed", str(seed),
        "--no-ledger", "-o", os.path.join(outdir, "verify.md"),
    ])


def check_verify(code: int, outdir: str) -> Checked:
    return harness.check_verify(code, os.path.join(outdir, "verify.md"))


BATCH: Dict[str, BatchWorkload] = {
    workload.name: workload
    for workload in (
        BatchWorkload("frontier", ("repro.experiments.frontier",), run_frontier, check_frontier),
        BatchWorkload(
            "table1",
            ("repro.experiments.cli", "repro.experiments.table1", "repro.statics.quant"),
            run_table1,
            check_table1,
        ),
        BatchWorkload(
            "whp", ("repro.experiments.cli", "repro.experiments.whp"), run_whp, check_whp
        ),
        BatchWorkload(
            "verify", ("repro.experiments.cli", "repro.statics.oracle"), run_verify, check_verify
        ),
    )
}

SERVICE: Dict[str, ServiceWorkload] = {"service": ServiceWorkload("service")}

NAMES: Tuple[str, ...] = tuple(BATCH) + tuple(SERVICE)


def modules_for(name: str) -> Sequence[str]:
    workload: Optional[Any] = BATCH.get(name) or SERVICE.get(name)
    if workload is None:
        raise KeyError(name)
    return workload.modules
