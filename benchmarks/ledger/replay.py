"""Fork-replay: run a function in a child forked from the caller's exact state.

The ledger times a section several times from one set-up.  Re-running it in
the same process would time a *different* state (warm caches, trained
policy, bigger heap), and setting up again costs more than the section.
``os.fork`` gives every replay a copy-on-write image of the identical
post-set-up state for a few milliseconds.

Forking is only safe from a single-threaded process, so callers close
executor pools and leave servers unstarted before replaying;
:func:`fork_call` refuses to fork otherwise.  Replays run one after
another, never concurrently: two children would compete for the two cores
and time each other.
"""

from __future__ import annotations

import gc
import os
import pickle
import resource
import sys
import threading
import traceback
from typing import Callable, TypeVar

T = TypeVar("T")

__all__ = ["ReplayError", "fork_call", "peak_rss_mb", "gc_collections"]


class ReplayError(RuntimeError):
    """The forked child raised, died, or returned nothing."""


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB).

    A forked child starts its mark at the parent's current RSS, so a
    replay child's peak covers set-up state plus the section's growth.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gc_collections() -> tuple[int, int, int]:
    """Cumulative collection count per generation."""
    return tuple(generation["collections"] for generation in gc.get_stats())


def fork_call(fn: Callable[[], T]) -> T:
    """Run ``fn()`` in a forked child and return its (pickled) result.

    The child never returns into the caller's stack: it leaves through
    ``os._exit`` so no ``atexit`` hook, buffered stream or ``finally`` block
    of the parent runs twice.
    """
    if threading.active_count() != 1:
        names = sorted(thread.name for thread in threading.enumerate())
        raise ReplayError(f"refusing to fork with live threads: {names}")
    sys.stdout.flush()
    sys.stderr.flush()
    # every child inherits the collector's allocation counters; collecting
    # here starts them all from zero, so replays of one state collect at
    # the same points (what the parent unpickled in between would
    # otherwise shift a child's first collection)
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps(("ok", fn()), pickle.HIGHEST_PROTOCOL)
                status = 0
            except BaseException:  # reported to the parent, which re-raises
                payload = pickle.dumps(("error", traceback.format_exc()))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    # read to EOF before reaping: a child blocked on a full pipe never exits
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, wait_status = os.waitpid(pid, 0)
    if not data:
        raise ReplayError(f"replay child {pid} died without a result (status {wait_status})")
    kind, value = pickle.loads(data)  # bytes this process's own child wrote
    if kind != "ok":
        raise ReplayError(f"replay child {pid} failed:\n{value}")
    return value
