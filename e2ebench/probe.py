"""How fast the benchmark's CPU runs from moment to moment.

On a shared host the speed of a CPU changes while the benchmark runs:
other tenants load the same physical core, and a fixed Python loop
then takes about twice as long, in stretches from tens of milliseconds
to half a minute.  Its CPU time grows as much as its wall time, so
neither clock hides it.  Run medians of the raw wall time of a pass
moved by 11-26% between 20-30 s windows of one commit on a 2-vCPU VM.

:class:`SpeedProbe` times a fixed loop every ``INTERVAL`` seconds from
a background thread of ``run.py``, on the one CPU that ``run.py`` and
every process it starts are pinned to, so each sample sees the speed
the operation running at that moment sees.  :class:`RestTime` keeps
the loop's time on this machine at rest.  ``harness.rest_factors``
turns both into each operation's *at-rest factor*; the end-to-end
metrics are wall times scaled by it (``harness.at_rest``).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from typing import List, Optional, Tuple

import harness

#: Seconds between samples.
INTERVAL = 0.025
#: Loop rounds per sample: about 0.7 ms when the CPU is not contended,
#: so the probe takes 3-6% of the CPU.
ROUNDS = 4000
#: How long a checkout without a stored rest time probes the idle CPU
#: before its first measured run.
CALIBRATION_S = 90.0


def spin(rounds: int = ROUNDS) -> int:
    """The probe's fixed work: the interpreter's dict, int and str paths,
    which the timed operations spend most of their time in."""
    table: dict = {}
    total = 0
    for i in range(rounds):
        key = i & 255
        table[key] = table.get(key, 0) + i * 3 % 7
        total += len(str(i))
    return total


class SpeedProbe:
    """Background sampler; use as a context manager around the runs.

    ``samples()`` returns ``(stamp, seconds)`` pairs: the middle of the
    timed loop on ``time.monotonic`` (the clock the pass and job stamps
    use) and how long the loop took.
    """

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "SpeedProbe":
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL):
            started = time.monotonic()
            spin()
            ended = time.monotonic()
            # list.append is atomic under the interpreter lock.
            self._samples.append(((started + ended) / 2.0, ended - started))

    def samples(self) -> List[Tuple[float, float]]:
        return list(self._samples)


class RestTime:
    """The probe loop's time on this machine at rest, kept in ``path``.

    A run's own rest time (``harness.rest_time``) is only as good as
    its fastest moments: the host can keep a whole run contended, and
    runs see the fast state to different depths.  So all runs of a
    checkout share one rest time.  The first run probes the otherwise
    idle CPU for :data:`CALIBRATION_S` seconds and stores the 1st
    percentile.  A later run replaces it only when its own rest time
    is lower by more than :data:`REPAIR`, which shows that the host
    was contended throughout the calibration.  On the reference
    machine calibrations gave 0.73-0.79 ms and the runs' own rest
    times 0.69-0.81 ms (1.0-1.3 ms in fully contended runs).
    """

    #: Own rest times at most this much below the stored one are
    #: ordinary run-to-run variation and leave it alone: after a
    #: 0.73 ms calibration one run's own was 0.66 ms (10% lower).
    REPAIR = 0.25

    def __init__(self, path: str):
        self.path = path
        self.seconds: Optional[float] = None
        try:
            with open(path, encoding="utf8") as handle:
                self.seconds = float(json.load(handle)["rest_s"])
        except (OSError, ValueError, KeyError, TypeError):
            pass  # not calibrated yet, or a damaged file: calibrate again

    def calibrate(self, speed: SpeedProbe) -> None:
        """Probe the idle CPU unless a rest time is stored already."""
        if self.seconds is not None:
            return
        print(f"e2ebench: probing the idle CPU for {CALIBRATION_S:g} s (once per checkout)",
              file=sys.stderr)
        started = time.monotonic()
        time.sleep(CALIBRATION_S)
        seconds = harness.rest_time(speed.samples(), started, time.monotonic())
        if seconds is None:
            raise RuntimeError("the speed probe took no samples")
        self._store(seconds)

    def observe(self, own: Optional[float]) -> Optional[float]:
        """The rest time for a run whose own rest time is ``own``."""
        if self.seconds is None:
            return own
        if own is not None and own < (1.0 - self.REPAIR) * self.seconds:
            self._store(own)
        return self.seconds

    def _store(self, seconds: float) -> None:
        self.seconds = seconds
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(self.path), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf8") as handle:
            json.dump({"rest_s": seconds}, handle)
        os.replace(temp, self.path)
