"""Feature hashing (the Vowpal-Wabbit trick).

Features are (namespace, name, value) triples; (namespace, name) hashes
into a fixed-size weight table.  Collisions are tolerated — with 2**18
slots and a few hundred active features they are rare and act as mild
regularization, exactly as in VW.

The slot of a name is a pure function, and the names a run can produce
are bounded by its rule vocabulary, so each slot is hashed once and
interned for the life of the process.
"""

from __future__ import annotations

from repro.rng import stable_hash

__all__ = ["feature_index"]

_SLOTS: dict[tuple[str, str, int], int] = {}


def feature_index(namespace: str, name: str, bits: int) -> int:
    """Slot of feature (namespace, name) in a 2**bits weight table."""
    key = (namespace, name, bits)
    slot = _SLOTS.get(key)  # qa: unlocked-ok pure-function memo; racing recompute writes identical ints
    if slot is None:
        slot = stable_hash("feat", namespace, name) & ((1 << bits) - 1)
        _SLOTS[key] = slot  # qa: unlocked-ok pure-function memo; racing recompute writes identical ints
    return slot
