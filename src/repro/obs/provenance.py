"""Run provenance: who produced this artifact, from which source tree.

Every durable observability artifact -- ledger entries, trace headers,
benchmark summaries -- is stamped with the same provenance triple so it
stays self-describing after it leaves the working tree:

* ``schema_version`` of the artifact's own record format (owned by the
  producing module, not by this one);
* the git commit SHA of the source tree that produced it;
* a wall-clock timestamp (the *only* legitimate use of wall-clock time
  in the package -- durations always use ``time.perf_counter``).

The git lookup shells out once per process and caches the answer;
outside a git checkout (an installed package, a tarball) it degrades to
``None`` rather than failing the run that asked for a stamp, and the
stamp leaves ``git_sha`` out.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Any, Dict, Optional

__all__ = ["git_sha", "run_stamp", "utc_timestamp"]

_UNRESOLVED = "unresolved"
_git_sha_cache: Any = _UNRESOLVED


def git_sha(short: bool = False) -> Optional[str]:
    """The HEAD commit SHA of the source tree, or ``None`` without git.

    Resolved relative to this file (not the process CWD), so stamps are
    correct even when the CLI runs from an unrelated directory.
    """
    global _git_sha_cache
    if _git_sha_cache is _UNRESOLVED:
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = completed.stdout.strip()
            _git_sha_cache = sha if completed.returncode == 0 and sha else None
        except (OSError, subprocess.SubprocessError):
            _git_sha_cache = None
    if _git_sha_cache is None:
        return None
    return _git_sha_cache[:12] if short else _git_sha_cache


def utc_timestamp() -> float:
    """Wall-clock Unix time (seconds).  For *stamps only*, never durations."""
    return time.time()


def run_stamp() -> Dict[str, Any]:
    """The provenance fields shared by every stamped artifact; without a
    known SHA there is no ``git_sha`` key."""
    sha = git_sha()
    stamp: Dict[str, Any] = {} if sha is None else {"git_sha": sha}
    stamp["created_unix"] = round(utc_timestamp(), 3)
    return stamp
