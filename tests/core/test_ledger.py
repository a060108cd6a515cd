"""Tests for the run ledger (:mod:`repro.obs.ledger`).

The contracts: entries are stamped with the provenance triple and
appended in one write (never a torn record from *this* writer), a torn
tail left by a killed writer is healed at the next append and skipped
on read, and appending never raises -- the ledger observes runs, it
must not abort them.
"""

import json
import os

import pytest

from repro.obs import (
    LEDGER_SCHEMA_VERSION,
    MetricsRecorder,
    append_entry,
    iter_ledger,
    make_entry,
    read_ledger,
    record_invocation,
)
from repro.obs.ledger import _needs_newline_repair


class TestMakeEntry:
    def test_stamped_with_provenance_triple(self):
        entry = make_entry("run", experiment="figure2", seed=7)
        assert entry["schema_version"] == LEDGER_SCHEMA_VERSION
        assert entry["kind"] == "run"
        assert "created_unix" in entry
        # git_sha may be None-dropped outside a checkout; inside this
        # repo it must be the 40-hex HEAD.
        if "git_sha" in entry:
            assert len(entry["git_sha"]) == 40
        assert entry["experiment"] == "figure2"
        assert entry["seed"] == 7

    def test_no_sha_key_outside_a_checkout(self, monkeypatch, tmp_path):
        # As if git were missing: every stamp leaves the key out rather
        # than writing ``"git_sha": null``.
        from repro.obs import provenance
        from repro.obs.bench import BenchSuite, run_suite
        from repro.obs.trace import TraceWriter

        monkeypatch.setattr(provenance, "_git_sha_cache", None)
        assert "git_sha" not in make_entry("run", experiment="figure2")
        path = str(tmp_path / "t.jsonl")
        TraceWriter(path).close()
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert "git_sha" not in header
        suite = BenchSuite("s").cell("a", lambda seed, repeat: 1.0, repeats=1)
        summary = run_suite(suite, seed=1)
        assert "git_sha" not in summary
        assert "created_unix" in summary

    def test_none_fields_dropped(self):
        entry = make_entry("chaos", engine=None, n=64)
        assert "engine" not in entry
        assert entry["n"] == 64

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ledger entry kind"):
            make_entry("deploy")


class TestAppendAtomicity:
    def test_append_one_line_per_entry(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for index in range(3):
            assert append_entry(path, make_entry("run", index=index))
        lines = open(path).read().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["index"] for line in lines] == [0, 1, 2]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "reports" / "ledger" / "ledger.jsonl")
        assert append_entry(path, make_entry("run"))
        assert os.path.exists(path)

    def test_torn_tail_repaired_on_next_append(self, tmp_path):
        """A killed writer's half-line never corrupts the next entry."""
        path = str(tmp_path / "ledger.jsonl")
        append_entry(path, make_entry("run", index=0))
        # Simulate a crash mid-append by an out-of-band writer: the
        # file ends inside a record, no trailing newline.
        with open(path, "a") as handle:
            handle.write('{"kind": "run", "trunc')
        assert _needs_newline_repair(path)
        append_entry(path, make_entry("run", index=1))
        entries = read_ledger(path)
        # The torn line is lost, both healthy entries survive.
        assert [entry.get("index") for entry in entries] == [0, 1]

    def test_unserializable_entry_degrades_to_warning(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        # default=str handles most objects; force a failure with a
        # self-referencing structure json cannot serialize.
        loop = []
        loop.append(loop)
        assert append_entry(path, {"kind": "run", "bad": loop}) is False
        assert not os.path.exists(path)

    def test_unwritable_path_degrades_to_warning(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        path = str(target / "ledger.jsonl")  # parent is a file
        assert append_entry(path, make_entry("run")) is False


class TestIterLedger:
    def test_missing_file_yields_nothing(self, tmp_path):
        assert read_ledger(str(tmp_path / "absent.jsonl")) == []

    def test_damaged_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_entry(path, make_entry("run", index=0))
        with open(path, "a") as handle:
            handle.write("not json\n\n")
        append_entry(path, make_entry("run", index=1))
        assert [entry["index"] for entry in iter_ledger(path)] == [0, 1]

    def test_streaming_order_is_oldest_first(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for index in range(10):
            append_entry(path, make_entry("bench", index=index))
        assert [entry["index"] for entry in iter_ledger(path)] == list(range(10))


class TestRecordInvocation:
    def test_appends_and_returns_entry(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        entry = record_invocation("run", path=path, experiment="figure1", seed=3)
        assert entry["experiment"] == "figure1"
        assert read_ledger(path)[0]["experiment"] == "figure1"

    def test_recorder_aggregates_ride_along(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        recorder = MetricsRecorder(sample_every=16)
        recorder.event("convergence", t=1.5)
        record_invocation("chaos", path=path, recorder=recorder, n=32)
        entry = read_ledger(path)[0]
        assert entry["n"] == 32
        assert "aggregates" in entry
        assert entry["aggregates"]["event_counts"]["convergence"] == 1


class TestServiceEntryKinds:
    def test_job_and_serve_kinds_accepted(self):
        assert make_entry("job", job_id="job-abc", state="done")["kind"] == "job"
        assert make_entry("serve", port=8642)["kind"] == "serve"


class TestAppendDegradation:
    """ENOSPC/EIO policy: one warning per path, in-memory continuation,
    the path reported via degraded_paths() until an append succeeds."""

    def _fail_writes_to(self, monkeypatch, path):
        import errno

        real_write = os.write

        def failing_write(fd, data):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                target = ""
            if target == path:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", failing_write)

    def test_full_disk_warns_once_and_self_clears(
        self, tmp_path, monkeypatch, caplog
    ):
        from repro.obs.ledger import degraded_paths

        path = str(tmp_path / "ledger.jsonl")
        self._fail_writes_to(monkeypatch, path)
        with caplog.at_level("WARNING"):
            for index in range(4):
                assert append_entry(path, make_entry("run", index=index)) is False
        assert path in degraded_paths()
        warned = [
            record for record in caplog.records if "write failed" in record.message
        ]
        assert len(warned) == 1  # four failures, one warning
        monkeypatch.undo()
        # The disk recovers: the next append succeeds and the degraded
        # flag clears itself.
        assert append_entry(path, make_entry("run", index=99))
        assert path not in degraded_paths()
        assert [entry["index"] for entry in read_ledger(path)] == [99]
