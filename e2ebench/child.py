"""One fresh process of the benchmark: a batch pass or the service.

Usage (by ``run.py`` only)::

    python3 e2ebench/child.py '{"workload": ..., "seed": ..., "outdir": ...,
                                "trace": false, "smoke": false}'

The process imports the workload's modules first; that instant is
``ready``, where ``setup_s`` stops.  A batch pass then runs the
workload's user entry point, a service process runs ``repro serve``
until SIGINT.  Either way it writes ``child.json`` into ``outdir``:
timestamps (``time.monotonic``, comparable across processes), the exit
code, and with ``trace`` the spans and engine stage timers.
"""

import time

_STARTED = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    config = json.loads(sys.argv[1])
    # A parent started in the background without job control ignores
    # SIGINT, and so would this process: ``repro serve`` stops on it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import workloads

    name, outdir, trace = config["workload"], config["outdir"], config["trace"]
    for module in workloads.modules_for(name):
        importlib.import_module(module)
    out = {"started": _STARTED, "ready": time.monotonic()}
    if trace:
        import tracer

        tracer.install(service=name in workloads.SERVICE)
    try:
        if name in workloads.SERVICE:
            out["code"] = workloads.cli([
                "serve", "--port", "0", "--store", os.path.join(outdir, "store"),
                "--jobs", "1", "--no-ledger", "--log-level", "warning",
            ])
        else:
            out["code"] = _run_batch(workloads.BATCH[name], config, out)
    except Exception:
        out["code"] = 99
        out["error"] = traceback.format_exc()
    if trace:
        out["spans"] = tracer.spans()
    with open(os.path.join(outdir, "child.json"), "w", encoding="utf8") as handle:
        json.dump(out, handle)
    return 0


def _run_batch(workload, config, out) -> int:
    run = workload.run
    args = (config["seed"], config["outdir"], config["smoke"])
    if not config["trace"]:
        return run(*args)
    import tracer
    from repro.obs import MetricsRecorder, recording

    recorder = MetricsRecorder(profile=True)
    with recording(recorder):
        code = tracer.call("experiments", run, *args)
    out["stages"] = recorder.stage_seconds
    return code


if __name__ == "__main__":
    sys.exit(main())
