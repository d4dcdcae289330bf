"""Write-ahead ticket journal: record, replay, crash recovery.

The contracts under test:

* **journal format** — appended records round-trip; a torn final line
  (the signature of a crash mid-append, with no trailing newline) is
  dropped, any other unparseable line raises :class:`JournalError`;
* **crash recovery** — a server killed mid-day and rebuilt from its
  journal reconstructs the day accumulators and the pending maintenance
  window byte-identically: the replayed day-0 window reproduces the
  journaled ``DayReport.fingerprint()`` (verified *during* replay), and
  finishing the interrupted day produces the same fingerprint as the
  uninterrupted run;
* **recovery is exact at any plan capacity** — every journaled window
  verifies on replay, even with plan caches small enough to evict;
* **non-recomputable events replay verbatim** — Personalizer mode
  switches are re-applied as recorded, never re-decided;
* **unknown records are refused** — a record kind the server does not
  write (an older server's ``shed`` or ``topology``) fails recovery
  before anything replays, instead of being skipped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import QOAdvisorServer, ServingConfig, SimulationConfig, TicketJournal
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.scope import cache as cache_module
from repro.serving import JournalError, QueueFull
from repro.serving import server as server_module


def _config(shards: int = 2, seed: int = 555, workers_per_shard: int = 0) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=1, backend="thread"),
        sharding=ShardingConfig(shards=shards),
        serving=ServingConfig(workers_per_shard=workers_per_shard),
    )


# -- the journal file ---------------------------------------------------------


def test_journal_appends_and_reads_back(tmp_path):
    path = tmp_path / "wal.jsonl"
    with TicketJournal(path) as journal:
        journal.append({"t": "admit", "seq": 1, "day": 0, "job": "a", "template": "t"})
        journal.append({"t": "done", "seq": 1, "day": 0, "failed": False})
        assert [r["t"] for r in journal.records()] == ["admit", "done"]


def test_journal_drops_a_torn_tail_but_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "wal.jsonl"
    journal = TicketJournal(path)
    journal.append({"t": "admit", "seq": 1, "day": 0, "job": "a", "template": "t"})
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t":"done","seq":1,"fail')  # crash mid-append
    survivor = TicketJournal(path)
    assert [r["t"] for r in survivor.records()] == ["admit"]
    survivor.close()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('not json at all\n{"t":"admit","seq":1,"day":0,"job":"a"}\n')
    corrupt = TicketJournal(path)
    with pytest.raises(JournalError, match="line 1"):
        corrupt.records()
    corrupt.close()
    # a corrupt last record that ends in a newline is no torn tail
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"t":"admit","seq":1,"day":0,"job":"a"}\n{"t":"done","seq":1,"da\n')
    corrupt = TicketJournal(path)
    with pytest.raises(JournalError, match="line 2"):
        corrupt.records()
    corrupt.close()


def test_reopening_a_torn_journal_repairs_the_tail_before_appending(tmp_path):
    """Regression: appending to a journal whose last line was torn by a
    crash must not merge the new record onto the torn tail — the reopen
    truncates the unacknowledged fragment first."""
    path = tmp_path / "wal.jsonl"
    journal = TicketJournal(path)
    journal.append({"t": "admit", "seq": 1, "day": 0, "job": "a", "template": "t"})
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t":"done","seq":1,"fail')  # crash mid-append
    reopened = TicketJournal(path)
    reopened.append({"t": "done", "seq": 1, "day": 0, "failed": False})
    records = reopened.records()
    assert [r["t"] for r in records] == ["admit", "done"]  # no merged garbage
    reopened.close()


def test_recover_requires_a_journal_and_a_fresh_server(tmp_path):
    bare = QOAdvisorServer(config=_config())
    with pytest.raises(ValueError, match="journal"):
        bare.recover()
    bare.shutdown()
    path = tmp_path / "wal.jsonl"
    used = QOAdvisorServer(config=_config(), journal=path)
    used.start()
    used.submit(used.advisor.workload.jobs_for_day(0)[0])
    with pytest.raises(RuntimeError, match="fresh"):
        used.recover()
    used.shutdown()


# -- crash recovery -----------------------------------------------------------


def test_server_killed_mid_day_recovers_to_identical_fingerprints(tmp_path):
    """The acceptance contract: kill mid-day, restart from journal, finish
    the day — every fingerprint matches the uninterrupted run."""
    # the uninterrupted reference
    reference = QOAdvisorServer(config=_config())
    expected = [reference.stream_day(0), reference.stream_day(1)]
    reference.shutdown()

    # the journaled run, killed midway through day 1
    path = tmp_path / "wal.jsonl"
    doomed = QOAdvisorServer(config=_config(), journal=path)
    doomed.stream_day(0)
    day1_jobs = doomed.advisor.workload.jobs_for_day(1)
    half = len(day1_jobs) // 2
    assert half > 0
    for job in day1_jobs[:half]:
        doomed.submit(job)
    # crash: no drain, no maintenance, no shutdown — the process just dies

    # the restarted server: same config/seed, fresh state, replayed journal
    revived = QOAdvisorServer(config=_config(), journal=path)
    recovery = revived.recover()
    assert recovery.windows == 1
    assert recovery.fingerprints_verified == 1  # day 0 re-proved mid-replay
    assert recovery.admitted == len(expected[0].production_runs) + len(
        expected[0].failed_jobs
    ) + half
    assert recovery.in_flight == 0  # the inline schedule completes at submit
    # the pending maintenance window was reconstructed
    assert revived.scheduler.pending(1) == half
    assert revived.advisor.reports[0].fingerprint() == expected[0].fingerprint()
    assert revived.sis.current_version == reference.sis.current_version

    # finish the interrupted day and prove byte-parity end to end
    revived.start()
    for job in day1_jobs[half:]:
        revived.submit(job)
    revived.drain(timeout=60.0)
    report = revived.run_maintenance(1)
    assert report.fingerprint() == expected[1].fingerprint()
    assert report.cache_stats == expected[1].cache_stats
    revived.shutdown()


@pytest.mark.parametrize(
    "workers_per_shard, capacity",
    [(0, None), (2, None), (0, 16), (2, 16)],
    ids=["inline", "threaded", "inline-capacity-16", "threaded-capacity-16"],
)
def test_recovery_verifies_every_window_at_any_plan_capacity(
    tmp_path, monkeypatch, workers_per_shard, capacity
):
    """A journaled three-shard run matches an unjournaled one, cache
    accounting included, even with plan caches small enough to evict —
    and recovery, replaying on the inline schedule, verifies both
    journaled windows."""
    if capacity is not None:
        monkeypatch.setattr(cache_module, "_PLAN_CAPACITY", capacity)
    config = _config(shards=3, workers_per_shard=workers_per_shard)
    reference = QOAdvisorServer(config=config)
    expected = [reference.stream_day(0), reference.stream_day(1)]
    reference.shutdown()

    path = tmp_path / "wal.jsonl"
    server = QOAdvisorServer(config=config, journal=path)
    reports = [server.stream_day(0), server.stream_day(1)]
    server.shutdown()
    for report, want in zip(reports, expected):
        assert report.fingerprint() == want.fingerprint()
        assert report.cache_stats == want.cache_stats

    revived = QOAdvisorServer(config=_config(shards=3), journal=path)
    recovery = revived.recover()
    assert recovery.fingerprints_verified == recovery.windows == 2
    revived.shutdown()


def test_threaded_journal_orders_admits_before_dones_and_recovers(tmp_path):
    """Regression: with worker threads, a ticket's completion raced its
    admit record into the journal; the write-ahead ordering (admit lands
    before the ticket is visible to any worker) makes threaded journals
    replayable."""
    path = tmp_path / "wal.jsonl"
    threaded = QOAdvisorServer(config=_config(workers_per_shard=2), journal=path)
    expected = threaded.stream_day(0)
    seen: set[int] = set()
    for record in threaded.journal.records():
        if record["t"] == "admit":
            seen.add(record["seq"])
        elif record["t"] == "done":
            assert record["seq"] in seen  # never before its admit
    # crash without shutdown; the journal alone rebuilds the day
    revived = QOAdvisorServer(config=_config(), journal=path)
    recovery = revived.recover()
    assert recovery.windows == 1 and recovery.fingerprints_verified == 1
    assert revived.advisor.reports[0].fingerprint() == expected.fingerprint()
    revived.shutdown()
    threaded.shutdown()


def test_recovery_skips_rejected_admissions_and_keeps_seq_monotonic(tmp_path, monkeypatch):
    """An admission that bounced on backpressure leaves an admit+reject
    pair; replay must not re-drive it, and post-recovery submissions must
    not reuse any replayed sequence number."""
    path = tmp_path / "wal.jsonl"
    monkeypatch.setattr(server_module, "_QUEUE_CAPACITY", 1)
    original = QOAdvisorServer(config=_config(shards=1, workers_per_shard=1), journal=path)
    jobs = original.advisor.workload.jobs_for_day(0)
    original.submit(jobs[0], timeout=0)  # fills the (unstarted) queue
    with pytest.raises(QueueFull):
        original.submit(jobs[1], timeout=0)
    kinds = [record["t"] for record in original.journal.records()]
    assert kinds == ["admit", "admit", "reject"]
    # crash without shutdown
    revived = QOAdvisorServer(config=_config(shards=1), journal=path)
    recovery = revived.recover()
    assert recovery.admitted == 1  # the rejected admission replays as a no-op
    assert revived.scheduler.pending(0) == 1
    revived.start()
    follow_up = revived.submit(jobs[2])
    assert follow_up.seq == 3  # past the rejected seq 2: no reuse
    revived.drain(timeout=60.0)
    report = revived.run_maintenance(0)
    assert len(report.production_runs) + len(report.failed_jobs) == 2
    revived.shutdown()
    original.shutdown()


def test_recovery_replays_mode_switches_verbatim(tmp_path):
    path = tmp_path / "wal.jsonl"
    original = QOAdvisorServer(config=_config(shards=1), journal=path)
    original.start()
    jobs = original.advisor.workload.jobs_for_day(0)
    original.submit(jobs[0])
    original.enable_learned_mode()
    original.submit(jobs[1])  # steered after the switch
    original.drain(timeout=60.0)
    expected = original.run_maintenance(0).fingerprint()
    # crash without shutdown

    revived = QOAdvisorServer(config=_config(shards=1), journal=path)
    recovery = revived.recover()
    assert recovery.mode_switches == 1
    assert recovery.windows == 1 and recovery.fingerprints_verified == 1
    assert revived.advisor.policy.mode == "learned"
    assert revived.advisor.reports[0].fingerprint() == expected
    revived.shutdown()
    original.shutdown()


@pytest.mark.parametrize("kind", ["bogus", "shed", "topology"])
def test_recovery_refuses_an_unknown_record_kind_before_replaying(tmp_path, kind):
    """A record kind the server does not write is refused up front, with
    its kind and position, rather than skipped: skipping a ``shed`` would
    lose the failed job it names, and replay would stop later on a
    misleading window divergence."""
    path = tmp_path / "wal.jsonl"
    original = QOAdvisorServer(config=_config(shards=1), journal=path)
    original.stream_day(0)
    foreign: dict = {"t": kind}
    if kind == "shed":
        # what a server with SLO shedding wrote for a job it dropped
        job = original.advisor.workload.jobs_for_day(1)[0]
        foreign.update(
            seq=original.stats().jobs_submitted + 1,
            day=1,
            job=job.job_id,
            template=job.template_id,
            shard=0,
        )
    elif kind == "topology":
        # what a server with shard failover wrote when it failed a lane
        foreign.update(op="fail", shard=0)
    original.journal.append(foreign)
    total = len(original.journal.records())
    revived = QOAdvisorServer(config=_config(shards=1), journal=path)
    with pytest.raises(
        JournalError, match=rf"record {total} of {total} has unknown kind '{kind}'"
    ):
        revived.recover()
    # refused before anything replayed: the server is still fresh
    assert revived._seq == 0 and revived.scheduler.windows == 0
    assert revived.advisor.reports == []
    revived.shutdown()
    original.shutdown()


def test_recovery_detects_a_divergent_reconstruction(tmp_path):
    """A journal replayed against the wrong deployment (different seed)
    must fail loudly at the first window fingerprint, not silently rebuild
    a different history."""
    path = tmp_path / "wal.jsonl"
    original = QOAdvisorServer(config=_config(seed=555), journal=path)
    original.stream_day(0)
    # different seed: different jobs — replay cannot even resolve them
    stranger = QOAdvisorServer(config=_config(seed=777), journal=path)
    with pytest.raises(JournalError):
        stranger.recover()
    stranger.shutdown()
    original.shutdown()


def test_journal_named_by_a_string_path(tmp_path):
    path = tmp_path / "wal.jsonl"
    server = QOAdvisorServer(config=_config(shards=1), journal=str(path))
    assert server.journal is not None
    server.stream_day(0)
    kinds = {record["t"] for record in server.journal.records()}
    assert {"admit", "done", "window"} <= kinds
    server.shutdown()
