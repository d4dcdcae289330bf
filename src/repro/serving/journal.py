"""Write-ahead ticket journal: crash recovery for the serving layer.

A :class:`~repro.serving.server.QOAdvisorServer` accumulates a *day's*
worth of completed work before a maintenance window drains it — state that
a process crash would silently drop.  The :class:`TicketJournal` is the
recovery path: an append-only JSONL file recording every admitted ticket,
every completion, every maintenance-window publication and every
Personalizer mode switch, in the order the server performed them.

Recovery leans on the repository-wide determinism contract instead of
snapshotting results: every per-job quantity (compiled plan, executed
metrics, bandit draw) is *keyed*, so re-driving the journaled admissions
and windows through a freshly-constructed server — same config, same
seed, same bootstrap sequence — reconstructs the day accumulators, the
SIS hint set and the pending maintenance window **byte-identically**.
The journal therefore stores job *identities* (day + job id, resolvable
through the deterministic workload generator), not serialized plans, and
each ``window`` record carries the published report's ``fingerprint()`` so
:meth:`QOAdvisorServer.recover` can prove, mid-replay, that the rebuilt
state matches the pre-crash trace.

Record kinds (one JSON object per line; :data:`RECORD_KINDS` lists them)::

    {"t": "admit",  "seq": N, "day": D, "job": "...", "template": "..."}
    {"t": "reject", "seq": N, "day": D}
    {"t": "done",   "seq": N, "day": D, "failed": false}
    {"t": "window", "day": D, "hint_version": V|null, "fingerprint": "..."}
    {"t": "mode",   "mode": "learned"}

A torn final line — the signature of a crash mid-append, with no
trailing newline — is truncated when the journal is opened; any
unparseable line left after that raises :class:`JournalError`.  So does a
record of any other kind (an older server's ``shed`` or ``topology``,
say): recovery refuses the whole journal before replaying anything,
because skipping the record would lose what it names.  Compile failures
need no special case: they are deterministic and reproduce exactly.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = ["RECORD_KINDS", "TicketJournal", "JournalError", "RecoveryReport"]

#: Every record kind a server writes; recovery refuses any other.
RECORD_KINDS = ("admit", "reject", "done", "window", "mode")


class JournalError(RuntimeError):
    """The journal is corrupt or disagrees with the replayed state."""


@dataclass
class RecoveryReport:
    """What :meth:`QOAdvisorServer.recover` rebuilt from the journal."""

    #: admitted tickets re-driven through the steering path
    admitted: int = 0
    #: ``done`` records matched against a replayed ticket's outcome
    completed: int = 0
    #: tickets that were admitted but never completed before the crash
    #: (replay completes them now, exactly as the uninterrupted run would)
    in_flight: int = 0
    #: maintenance windows re-run
    windows: int = 0
    #: window fingerprints that were present in the journal and matched
    fingerprints_verified: int = 0
    #: Personalizer mode switches re-applied
    mode_switches: int = 0

    def render(self) -> str:
        return (
            f"recovered {self.admitted} admission(s) "
            f"({self.completed} matched completions, {self.in_flight} in-flight), "
            f"{self.windows} window(s) "
            f"({self.fingerprints_verified} fingerprint(s) verified), "
            f"{self.mode_switches} mode switch(es)"
        )


class TicketJournal:
    """Append-only JSONL write-ahead log of serving-layer events.

    Thread-safe: the server appends from submitting threads and shard
    workers concurrently.  Appends are flushed per record so a crash loses
    at most the line being written (``fsync=True`` hardens that to at most
    the record not yet acknowledged, at a syscall per append).
    """

    def __init__(self, path: "str | Path", *, fsync: bool = False) -> None:
        self.path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        parent = self.path.parent
        if parent and not parent.exists():
            parent.mkdir(parents=True, exist_ok=True)
        self._repair_torn_tail()
        self._file = open(self.path, "a", encoding="utf-8")

    def _repair_torn_tail(self) -> None:
        """Truncate a torn final line before appending resumes.

        A crash mid-append leaves a partial last line with no trailing
        newline; its event was never acknowledged, so dropping it is
        correct — and if it were left in place, the restarted server's
        first append would merge onto it and corrupt an acknowledged
        record.
        """
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        with open(self.path, "r+b") as handle:
            handle.truncate(cut)

    # -- writing --------------------------------------------------------------

    def append(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._file.closed:
                raise JournalError(f"journal {self.path} is closed")
            self._file.write(line + "\n")
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "TicketJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading --------------------------------------------------------------

    def records(self) -> list[dict]:
        """Parse every journaled record.

        A torn tail from a crash mid-append was already truncated when
        the journal was opened (:meth:`_repair_torn_tail`), so every line
        here was once acknowledged.  An unparseable one — the last line
        included — means real corruption and raises
        :class:`JournalError` rather than silently replaying a partial
        history.
        """
        # read under the append lock, so a concurrent append is never
        # seen half-written
        with self._lock:
            if not self._file.closed:
                self._file.flush()
            if not self.path.exists():
                return []
            lines = self.path.read_text(encoding="utf-8").splitlines()
        records: list[dict] = []
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(
                    f"corrupt journal {self.path}: unparseable record at "
                    f"line {index + 1}"
                ) from exc
            if not isinstance(record, dict) or "t" not in record:
                raise JournalError(
                    f"corrupt journal {self.path}: line {index + 1} is not "
                    "a tagged record"
                )
            records.append(record)
        return records
