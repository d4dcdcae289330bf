"""Fixture: the published-snapshot convention (copy-on-write attributes)."""

import threading


class Fleet:
    """Clean: ``_members`` is only ever rebound to a fresh tuple."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._members = ()
        self._tags = frozenset()

    def join(self, member: str) -> None:
        with self._lock:
            self._members = (*self._members, member)  # rebind under the lock
            self._tags = frozenset(self._tags | {member[0]})

    def names(self) -> list[str]:
        return [m for m in self._members if m[0] in self._tags]  # clean: snapshot reads

    def reset(self) -> None:
        self._members = ()  # line 23: flagged — a snapshot's *writes* need the lock


class LeakyFleet:
    """One in-place mutation voids the convention for the whole class."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._members = ()

    def join(self, member: str) -> None:
        with self._lock:
            self._members = (*self._members, member)

    def join_fast(self, member: str) -> None:
        with self._lock:
            self._members += (member,)  # augmented assignment: not a plain rebind

    def names(self) -> list[str]:
        return list(self._members)  # line 42: flagged — reads need the lock again
