"""Online serving layer: a long-lived steering service over QO-Advisor.

The production QO-Advisor is not a batch program — it steers a continuous
stream of SCOPE jobs against the currently-published hint file while the
offline pipeline (recommend → recompile → flight → validate → publish)
turns over in the background.  This package reproduces that deployment
shape on top of the batch substrate:

* :class:`~repro.serving.server.QOAdvisorServer` — the job-stream
  front-end: per-shard bounded queues (each job on its template's home
  shard), live-hint steering on arrival, graceful drain/shutdown;
* :class:`~repro.serving.maintenance.MaintenanceScheduler` — micro-batched
  maintenance windows that drain accumulated work through the batch
  pipeline's own stage objects and atomically publish hint versions;
* :class:`~repro.serving.queues.ShardQueue` / ``JobTicket`` — the bounded
  admission surface;
* :class:`~repro.serving.stats.ServerStats` / ``ShardStats`` — per-shard
  health and throughput metrics;
* :class:`~repro.serving.journal.TicketJournal` — the write-ahead journal
  a restarted server replays (:meth:`QOAdvisorServer.recover`) to
  reconstruct its day accumulators and pending maintenance window
  byte-identically after a crash.
"""

from repro.serving.journal import JournalError, RecoveryReport, TicketJournal
from repro.serving.maintenance import MaintenanceScheduler
from repro.serving.queues import JobTicket, QueueClosed, QueueFull, ShardQueue
from repro.serving.server import QOAdvisorServer
from repro.serving.stats import ServerStats, ShardStats

__all__ = [
    "QOAdvisorServer",
    "MaintenanceScheduler",
    "ShardQueue",
    "JobTicket",
    "QueueFull",
    "QueueClosed",
    "ServerStats",
    "ShardStats",
    "TicketJournal",
    "JournalError",
    "RecoveryReport",
]
