"""End-to-end benchmark of the reproduction: what a user waits for.

Run from the repository root::

    python3 e2ebench/run.py --workload table1 --seed 7 --seconds 20 --trace 0
    python3 e2ebench/run.py                       # every workload, default seed
    python3 e2ebench/run.py --trace 1             # per-layer breakdown instead
    python3 e2ebench/run.py --smoke               # toy sizes, one pass each
    python3 e2ebench/run.py --json runs.jsonl     # also append each result
    python3 e2ebench/run.py --compare base.jsonl change.jsonl

Every batch pass is a fresh process (``child.py``) running one user
command; the service workload drives a fresh ``repro serve`` process
with one closed-loop client.  Passes and jobs run one at a time, for
``--seconds``.  Times are reported *at rest*: scaled by how fast the
CPU ran during each operation (``probe.py``).  The last line printed
for a workload is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import harness
import loadgen
import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of this invocation: pass outputs, service stores.
WORK = os.path.join(HERE, ".work", str(os.getpid()))
#: The checkout's rest time (``probe.RestTime``), kept across runs.
REST_PATH = os.path.join(HERE, ".work", "rest.json")
CHILD = os.path.join(HERE, "child.py")

#: ``repro.core.rng.DEFAULT_SEED``, the seed the CLI uses by default.
DEFAULT_SEED = 24301
#: Fewest untraced passes, or server lifetimes, in a run.
MIN_STEPS = 3
#: New jobs per server lifetime; each is then submitted once more as a hit.
LIFETIME_JOBS = 100
PASS_TIMEOUT = 150.0
STAGES = (
    "countsim.geometric_jump",
    "countsim.pair_sampling",
    "countsim.transition",
    "countsim.resync",
    "kernel.batch_sampling",
    "kernel.batch_apply",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# Fresh processes
# ---------------------------------------------------------------------------


def pin_one_cpu() -> None:
    """Run this process and every child on one CPU (children inherit it).

    Passes never overlap and the service client waits for each reply,
    so one CPU serializes nothing that would otherwise overlap, except
    server work after a reply; sharing a CPU puts all server work per
    job into its latency.  It also lets the speed probe, a thread of
    this process, see the CPU the operation runs on.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # The provenance stamp shells out to git; stop it at the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


class Child:
    """One ``child.py`` process, reaped with ``os.wait4`` for its own
    peak RSS; ``spawned`` and ``exited`` are ``time.monotonic``."""

    def __init__(self, config: Dict[str, Any]):
        self.outdir = config["outdir"]
        os.makedirs(self.outdir, exist_ok=True)
        self.stderr_path = os.path.join(self.outdir, "stderr.txt")
        with open(os.path.join(self.outdir, "stdout.txt"), "wb") as out, open(
            self.stderr_path, "wb"
        ) as err:
            self.spawned = time.monotonic()
            self.popen = subprocess.Popen(
                [sys.executable, CHILD, json.dumps(config)],
                cwd=ROOT, env=child_env(), stdout=out, stderr=err,
            )
        self.code: Optional[int] = None
        self.rss_mb = 0.0
        self.exited = 0.0

    def wait(self, timeout: float = PASS_TIMEOUT) -> int:
        if self.code is not None:
            return self.code
        if self.popen.returncode is not None:  # already reaped by Popen.poll()
            self.code, self.exited = self.popen.returncode, time.monotonic()
            return self.code
        timer = threading.Timer(timeout, self.popen.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        self.exited = time.monotonic()
        self.code = self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.code

    def interrupt(self, timeout: float = 30.0) -> int:
        """SIGINT (the service's graceful stop), then reap."""
        if self.code is None and self.popen.returncode is None:
            self.popen.send_signal(signal.SIGINT)
        return self.wait(timeout)

    def kill(self) -> None:
        """Kill and reap a child still running (the run was interrupted)."""
        if self.code is None and self.popen.returncode is None:
            self.popen.kill()
            self.wait()

    def report(self) -> Dict[str, Any]:
        path = os.path.join(self.outdir, "child.json")
        if not os.path.exists(path):
            return {}
        with open(path, encoding="utf8") as handle:
            return json.load(handle)

    def failure(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            lines = handle.read().decode("utf8", "replace").strip().splitlines()
        return f"exit {self.code}: {lines[-1] if lines else 'no stderr'}"


def pass_seeds(seed: int) -> Iterator[int]:
    """Per-pass input seeds, derived from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def steps(seconds: float, minimum: int, trace: bool) -> Iterator[List[bool]]:
    """Which operations a run makes, one step at a time, while time lasts.

    A step is one untraced operation, or with ``trace`` an untraced and
    a traced one in the order that flips each step.  Steps continue
    until ``minimum`` are done and the next one, taking as long as the
    median step so far, would end after ``seconds``.  The run length is
    fixed, not the step count: on a slow host a run still ends in time,
    and every step is a fresh process or server, so a run with more
    steps does not make its later steps slower.
    """
    started = time.monotonic()
    durations: List[float] = []
    while len(durations) < minimum or (
        time.monotonic() - started + statistics.median(durations) <= seconds
    ):
        step_started = time.monotonic()
        if not trace:
            yield [False]
        else:
            yield [False, True] if len(durations) % 2 == 0 else [True, False]
        durations.append(time.monotonic() - step_started)


def rest_factors(speed: probe.SpeedProbe, rest: Optional[probe.RestTime],
                 spans: Sequence[Tuple[float, float]]) -> List[float]:
    """Each span's at-rest factor (``harness.rest_factors``), against
    the checkout's rest time; ``--smoke`` runs have only their own."""
    samples = speed.samples()
    own = harness.rest_time(samples, min(s for s, _ in spans) - probe.INTERVAL,
                            max(e for _, e in spans) + probe.INTERVAL)
    reference = own if rest is None else rest.observe(own)
    if reference is None:
        return [1.0] * len(spans)
    return harness.rest_factors(samples, spans, probe.INTERVAL, reference)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    stages: Dict[str, float],
    denominator: float,
) -> Dict[str, float]:
    """Per-layer shares of an operation's time, rates and counts.

    ``denominator`` is the operation's time (a pass's wall time, or the
    summed latency of the traced service jobs); every ``_pct`` is self
    time over it, so the shares of one operation add up.
    """

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    def pct(seconds: float) -> float:
        return 100.0 * seconds / denominator

    def rate(work: str, name: str) -> float:
        busy = self_s(name)
        return totals.get(name, {}).get(work, 0.0) / busy if busy > 0 else 0.0

    metrics = {
        "experiments.self_pct": pct(
            self_s("experiments") + self_s("service.exec") + self_s("parallel.trial")
        ),
        "countsim.construct_pct": pct(self_s("countsim.construct")),
        "countsim.constructions": totals.get("countsim.construct", {}).get("calls", 0.0),
        "countsim.run_pct": pct(self_s("countsim.run")),
        "countsim.events_per_s": rate("events", "countsim.run"),
        "simulation.run_pct": pct(self_s("simulation.run")),
        "simulation.interactions_per_s": rate("interactions", "simulation.run"),
        "fastpath_optimal_silent.run_pct": pct(self_s("fastpath_optimal_silent.run")),
        "fastpath_optimal_silent.interactions_per_s": rate(
            "interactions", "fastpath_optimal_silent.run"
        ),
        "parallel.overhead_pct": pct(self_s("parallel.map")),
        "quant.build_pct": pct(self_s("quant.build")),
        "quant.solve_pct": pct(self_s("quant.solve")),
        "quant.chain_states": totals.get("quant.build", {}).get("chain_states", 0.0),
    }
    for stage in STAGES:
        metrics[f"{stage}_pct"] = pct(stages.get(stage, 0.0))
    return metrics


SERVICE_LAYERS = (
    "service.submit_pct",
    "service.result_pct",
    "service.overhead_pct",
    "service.hit_latency_ms",
    "service.journal_bytes_per_job",
    "service.recorder_events_per_job",
)


def _note(seconds: Sequence[float], factors: Sequence[float], unit: str) -> str:
    """A latency's note: sample count, the reported tail, raw median."""
    tail_s, label = harness.tail([harness.at_rest(s, f) for s, f in zip(seconds, factors)])
    return (f"at rest, median of the less contended half of {len(seconds)} {unit}; "
            f"{label} {1000.0 * tail_s:.4g} ms at rest; "
            f"raw median {1000.0 * statistics.median(seconds):.4g} ms")


def _median_each(dicts: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


def batch_pass(
    workload: workloads.BatchWorkload, seed: int, trace: bool, smoke: bool, outdir: str
) -> Dict[str, Any]:
    child = Child(
        {"workload": workload.name, "seed": seed, "outdir": outdir,
         "trace": trace, "smoke": smoke}
    )
    try:
        code = child.wait()
    finally:
        child.kill()
    report = child.report()
    record: Dict[str, Any] = {
        "seed": seed, "trace": trace, "start": child.spawned, "end": child.exited,
        "wall": child.exited - child.spawned, "rss_mb": child.rss_mb, "problems": [],
        "info": {},
    }
    if code != 0 or "ready" not in report:
        record["problems"].append(child.failure())
        return record
    if report.get("error"):
        record["problems"].append(report["error"].strip().splitlines()[-1])
        return record
    record["ready"] = report["ready"]
    record["import"] = report["ready"] - report["started"]
    try:
        record["problems"], record["info"] = workload.check(report["code"], outdir)
    except (OSError, ValueError, KeyError) as exc:
        record["problems"].append(f"unreadable output: {exc!r}")
    if trace:
        totals = harness.layer_totals(report["spans"])
        layers = layer_metrics(totals, report.get("stages", {}), record["wall"])
        for name in SERVICE_LAYERS:
            layers[name] = 0.0
        work = sum(s["end"] - s["start"] for s in report["spans"] if s["name"] == "experiments")
        layers["trace.accounted_pct"] = 100.0 * (record["import"] + work) / record["wall"]
        record["layers"] = layers
    return record


def run_batch(workload: workloads.BatchWorkload, seed: int, seconds: float, trace: bool,
              smoke: bool, speed: probe.SpeedProbe, rest: Optional[probe.RestTime]
              ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    seeds = pass_seeds(seed)
    records = []
    for step in steps(0.0 if smoke else seconds, 1 if smoke or trace else MIN_STEPS, trace):
        # The passes of a step share a seed: a traced pass repeats the
        # work of its untraced partner.
        pass_seed = next(seeds)
        for traced in step:
            outdir = os.path.join(WORK, f"{workload.name}-{len(records)}")
            records.append(batch_pass(workload, pass_seed, traced, smoke, outdir))
            shutil.rmtree(outdir, ignore_errors=True)
    good = [r for r in records if not r["problems"]]
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    if not untraced or (trace and not traced):
        raise BenchError(f"{workload.name}: too many passes failed: {records[0]['problems']}")
    factors = rest_factors(speed, rest, [(r["start"], r["end"]) for r in good]
                           + [(r["start"], r["ready"]) for r in good])
    for record, wall, setup in zip(good, factors, factors[len(good):]):
        record["wall_factor"], record["setup_factor"] = wall, setup

    def wall_at_rest(passes: Sequence[Dict[str, Any]]) -> float:
        return harness.at_rest_median([r["wall"] for r in passes],
                                      [r["wall_factor"] for r in passes])

    if not trace:
        metrics = {
            "latency_ms": (1000.0 * wall_at_rest(untraced),
                           _note([r["wall"] for r in untraced],
                                 [r["wall_factor"] for r in untraced], "passes")),
            "setup_s": (harness.at_rest_median([r["ready"] - r["start"] for r in good],
                                               [r["setup_factor"] for r in good]),
                        "at rest, spawn to imports done"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in good), "median pass peak RSS"),
        }
    else:
        layers = _median_each([r["layers"] for r in traced])
        layers["setup.import_s"] = statistics.median(r["import"] for r in good)
        layers["obs.trace_overhead_pct"] = 100.0 * (
            wall_at_rest(traced) / wall_at_rest(untraced) - 1.0
        )
        metrics = {name: (value, f"median of {len(traced)} traced passes")
                   for name, value in layers.items()}
    info = {}
    for r in good:
        for key, value in r["info"].items():
            if key == "checks_failed" and value:
                info.setdefault("checks_failed", []).append(value)
    return records, {"metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# The service workload
# ---------------------------------------------------------------------------


def _healthy(client: loadgen.Client, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.request("GET", "/healthz")[0] == 200:
                return
        except OSError:
            pass
        time.sleep(0.002)
    raise BenchError("service never answered /healthz")


def _jobs(client: loadgen.Client, seeds: Sequence[int],
          check: Callable[[int, Dict[str, Any]], List[str]]) -> List[Dict[str, Any]]:
    """Run one job per seed, in order; ``check(index, job)`` lists its problems."""
    ops = []
    for index, seed in enumerate(seeds):
        try:
            job = loadgen.run_job(client, seed)
        except (OSError, http.client.HTTPException, RuntimeError, ValueError) as exc:
            ops.append({"seed": seed, "problems": [f"request failed: {exc!r}"]})
            continue
        job["problems"] = check(index, job)
        ops.append(job)
    return ops


def service_lifetime(
    workload: workloads.ServiceWorkload, seed: int, jobs: int, trace: bool,
    smoke: bool, outdir: str, first_job: int,
) -> Dict[str, Any]:
    """Start a server, warm it up, run ``jobs`` new jobs, submit each
    of them again (hits), stop the server."""
    child = Child({"workload": workload.name, "seed": seed, "outdir": outdir,
                   "trace": trace, "smoke": smoke})
    store = os.path.join(outdir, "store")
    try:
        host, port = loadgen.wait_listening(child.stderr_path, child.popen, 60.0)
        client = loadgen.Client(host, port)
        _healthy(client)
        # Warm-up jobs use seeds the timed jobs never use.
        warm_seeds = loadgen.job_seeds(seed, loadgen.WARMUP_JOBS, offset=900_000)
        for job in _jobs(client, warm_seeds,
                         lambda _, j: harness.check_cold_job(j["created"], j["state"], j["ok"])):
            if job["problems"]:
                raise BenchError(f"warm-up job {job['seed']}: {job['problems']}")
        ready = time.monotonic()
        events_before = client.metric_total("repro_recorder_events_total")
        journal_before = loadgen.journal_bytes(store)
        cold = _jobs(client, loadgen.job_seeds(seed, jobs, offset=first_job),
                     lambda _, j: harness.check_cold_job(j["created"], j["state"], j["ok"]))
        cold_end = time.monotonic()
        events = client.metric_total("repro_recorder_events_total") - events_before
        journal = loadgen.journal_bytes(store) - journal_before
        completed_before = client.metric_total("repro_jobs_completed_total")
        done = [job for job in cold if not job["problems"]]
        hits = _jobs(client, [job["seed"] for job in done],
                     lambda i, j: harness.check_hit(j["id"], j["created"], j["state"],
                                                    j["result"], done[i]["id"], done[i]["result"]))
        recompleted = client.metric_total("repro_jobs_completed_total") - completed_before
    finally:
        child.interrupt()
    if recompleted:
        # Hits must not execute: every completion in the hit phase was a
        # re-execution, charged to the hits as failures.
        for job in hits[: int(recompleted)]:
            job["problems"].append("hit phase completed a job (re-executed)")
    for job in cold + hits:
        job.pop("result", None)
    report = child.report()
    if child.code != 0 or "ready" not in report:
        raise BenchError(f"service process {child.failure()}")
    record = {
        "trace": trace, "cold": cold, "hits": hits, "start": child.spawned, "ready": ready,
        "import": report["ready"] - report["started"], "rss_mb": child.rss_mb,
        "journal_per_job": journal / jobs, "events_per_job": events / jobs,
    }
    if trace:
        record["spans"] = [s for s in report["spans"] if ready <= s["start"] <= cold_end]
    return record


def service_layers(record: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer shares of the new jobs' latency in one traced lifetime."""
    ops = [op for op in record["cold"] if not op["problems"]]
    latency = sum(op["latency"] for op in ops)
    spans = record["spans"]
    totals = harness.layer_totals(spans)
    executing = sum(s["end"] - s["start"] for s in spans if s["name"] == "service.exec")
    layers = layer_metrics(totals, {}, latency)
    layers.update({
        "service.submit_pct": 100.0 * sum(op["submit"] for op in ops) / latency,
        "service.result_pct": 100.0 * sum(op["fetch"] for op in ops) / latency,
        "service.overhead_pct": 100.0 * (latency - executing) / latency,
        "service.journal_bytes_per_job": record["journal_per_job"],
        "service.recorder_events_per_job": record["events_per_job"],
        "trace.accounted_pct": 100.0 * sum(
            op["submit"] + op["wait"] + op["fetch"] for op in ops) / latency,
    })
    return layers


def run_service(workload: workloads.ServiceWorkload, seed: int, seconds: float, trace: bool,
                smoke: bool, speed: probe.SpeedProbe, rest: Optional[probe.RestTime]
                ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    jobs = 20 if smoke else LIFETIME_JOBS
    records = []
    for step in steps(0.0 if smoke else seconds, 1 if smoke or trace else MIN_STEPS, trace):
        for traced in step:
            outdir = os.path.join(WORK, f"{workload.name}-{len(records)}")
            records.append(service_lifetime(workload, seed, jobs, traced, smoke, outdir,
                                            first_job=len(records) * jobs))
            shutil.rmtree(outdir, ignore_errors=True)
    ops = [op for r in records for op in r["cold"] + r["hits"]]
    timed = [op for op in ops if not op["problems"]]
    if not timed:
        raise BenchError(f"{workload.name}: every job failed")
    factors = rest_factors(speed, rest, [(op["start"], op["end"]) for op in timed]
                           + [(r["start"], r["ready"]) for r in records])
    for op, factor in zip(timed, factors):
        op["factor"] = factor

    def phase(name: str, traced: bool) -> Tuple[List[float], List[float]]:
        """Latencies and at-rest factors of one phase's correct jobs."""
        done = [op for r in records if r["trace"] == traced
                for op in r[name] if not op["problems"]]
        return [op["latency"] for op in done], [op["factor"] for op in done]

    cold = phase("cold", False)
    if not cold[0]:
        raise BenchError(f"{workload.name}: every new job failed")
    hits = phase("hits", False)
    hit_ms = 1000.0 * harness.at_rest_median(*hits) if hits[0] else 0.0
    hit_note = _note(*hits, "hits") if hits[0] else "no hits"
    if not trace:
        metrics = {
            "latency_ms": (1000.0 * harness.at_rest_median(*cold),
                           _note(*cold, "new jobs, submit to result")),
            "setup_s": (harness.at_rest_median([r["ready"] - r["start"] for r in records],
                                               factors[len(timed):]),
                        f"at rest, of {len(records)} server starts incl. warm-up"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in records),
                            "median server peak RSS"),
        }
        info = {"hit latency": f"{hit_ms:.4g} ms, {hit_note}"}
    else:
        traced = [r for r in records if r["trace"]]
        layers = _median_each([service_layers(r) for r in traced])
        layers["setup.import_s"] = statistics.median(r["import"] for r in records)
        layers["obs.trace_overhead_pct"] = 100.0 * (
            harness.at_rest_median(*phase("cold", True)) / harness.at_rest_median(*cold) - 1.0
        )
        metrics = {name: (value, f"median of {len(traced)} traced server lifetimes")
                   for name, value in layers.items()}
        metrics["service.hit_latency_ms"] = (hit_ms, hit_note)
        info = {}
    return ops, {"metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 spec: Dict[str, Any], speed: probe.SpeedProbe,
                 rest: Optional[probe.RestTime]) -> Tuple[Dict[str, Any], Dict[str, str]]:
    """Run one workload, print its report; returns the result line and
    each metric's note (sample count, tail)."""
    if name in workloads.BATCH:
        ops, summary = run_batch(workloads.BATCH[name], seed, seconds, trace, smoke, speed,
                                 rest)
    else:
        ops, summary = run_service(workloads.SERVICE[name], seed, seconds, trace, smoke,
                                   speed, rest)
    catalog = spec["per_layer"] if trace else spec["end_to_end"]
    measured = summary["metrics"]
    missing = [m["name"] for m in catalog if m["name"] not in measured]
    if missing:
        raise BenchError(f"{name}: no measurement for {missing}")
    failed = [op for op in ops if op["problems"]]
    print(f"# {name}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(ops)} operations, {len(failed)} failed")
    for op in failed[:5]:
        print(f"#   failed: {'; '.join(op['problems'])}")
    for key, value in summary["info"].items():
        print(f"#   {key}: {value}")
    for metric in catalog:
        value, note = measured[metric["name"]]
        print(f"{metric['name']:<44} {value:>14.6g} {metric['unit']:<7} {note}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in catalog
        },
    }
    return result, {m["name"]: measured[m["name"]][1] for m in catalog}


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def _load_runs(path: str) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    runs: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    with open(path, encoding="utf8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for metric, entry in record["result"]["metrics"].items():
                runs.setdefault((record["workload"], metric), []).append(
                    (record["seed"], entry["value"])
                )
    return runs


def _pairs(base: List[Tuple[int, float]], change: List[Tuple[int, float]]
           ) -> List[Tuple[float, float]]:
    """Base and change runs made with the same seed, in order."""
    pairs = []
    remaining = list(change)
    for seed, value in base:
        for index, (other_seed, other) in enumerate(remaining):
            if other_seed == seed:
                pairs.append((value, other))
                del remaining[index]
                break
    return pairs


def compare(base_path: str, change_path: str, spec: Dict[str, Any]) -> int:
    catalog = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = _load_runs(base_path), _load_runs(change_path)
    print(f"{'workload':<10} {'metric':<42} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'pairs won':>9}  verdict")
    worse = 0
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        info = catalog.get(metric, {"better": "lower"})
        b, c = [v for _, v in base[key]], [v for _, v in change[key]]
        pairs = _pairs(base[key], change[key])
        result = harness.verdict(b, c, info["better"], info.get("bound"), pairs)
        worse += result == "worse"
        wins = sum(1 for x, y in pairs if (y < x if info["better"] == "lower" else y > x))

        def cell(values: Sequence[float]) -> str:
            q1, median, q3 = harness.quartiles(values)
            return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

        print(f"{workload:<10} {metric:<42} {cell(b):>34} {cell(c):>34} "
              f"{wins:>4}/{len(pairs):<4}  {result}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def _terminate(signum: int, frame: Any) -> None:
    # SIGTERM unwinds like SIGINT, so every ``finally`` stops its child.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and one pass per workload")
    parser.add_argument("--json", dest="json_path", default=None, metavar="OUT",
                        help="append each workload's result as a JSON line to OUT")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("BASE", "CHANGE"),
                        help="compare two --json files; exit 1 on any 'worse'")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [args.workload] if args.workload else list(workloads.NAMES)
    signal.signal(signal.SIGTERM, _terminate)
    pin_one_cpu()
    try:
        with probe.SpeedProbe() as speed:
            # Smoke runs time toy sizes: they need no calibrated rest time.
            rest = None if args.smoke else probe.RestTime(REST_PATH)
            if rest is not None:
                rest.calibrate(speed)
            for name in names:
                result, notes = run_workload(
                    name, args.seed, seconds, bool(args.trace), args.smoke, spec, speed, rest
                )
                if args.json_path:
                    with open(args.json_path, "a", encoding="utf8") as handle:
                        handle.write(json.dumps({
                            "workload": name, "seed": args.seed, "trace": args.trace,
                            "seconds": seconds, "smoke": args.smoke, "result": result,
                            "notes": notes,
                        }) + "\n")
                print(json.dumps(result), flush=True)
    except RuntimeError as exc:  # BenchError, or a server that never listened
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass  # another invocation is still using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
