"""Hash-consing (interning) infrastructure for abstract states and names.

Every immutable value class on the analysis hot path — DAIG names, value
lattice elements, environment states, octagon states — is *interned*: its
constructor returns the one canonical object per structural value, held in a
per-type weak-value table.  The payoff is the classic hash-consing triple:

* **equality is identity** — structurally equal values are the same object,
  so ``==`` is a pointer comparison and lattice ``equal`` checks are O(1),
* **hashing is O(1) amortized** — each object hashes its fields once at
  construction and caches the result in a slot,
* **memoization keys are cheap** — the DAIG memo table and the octagon /
  environment join paths compare and hash states without walking them.

Tables hold values through :class:`weakref.WeakValueDictionary`, so interned
objects are garbage-collected as soon as the analysis drops them: tearing
down an engine releases its states, and nothing leaks across engine
lifetimes (property-tested in ``tests/test_intern.py``).

Each table counts hits (an equal value was already interned) and misses
(a fresh value was inserted); ``intern_stats()`` aggregates the counters
(read by ``tests/test_intern.py`` and by the benchmark's intern hit ratio).
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Dict, Hashable, List, Optional

__all__ = ["InternTable", "all_tables", "intern_stats", "reset_intern_stats"]

#: Global registry of every live intern table, in registration order.
_REGISTRY: "List[InternTable]" = []


class InternTable:
    """One per-type hash-consing table: structural key → canonical object.

    The table maps a *key* (a hashable tuple of the type's fields) to the
    canonical instance for that key.  Values are held weakly, so the table
    never keeps an object alive by itself.
    """

    __slots__ = ("name", "hits", "misses", "encode_hits", "encode_misses",
                 "_table", "_lock", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        #: Canonical-encoding cache traffic (see repro.store.canonical):
        #: interned objects memoize their ``canonical_bytes`` in a slot, so
        #: repeated digests/store keys over the same states are O(1).
        self.encode_hits = 0
        self.encode_misses = 0
        self._table: "weakref.WeakValueDictionary[Hashable, Any]" = (
            weakref.WeakValueDictionary())
        #: Serializes insertions so that concurrent construction of the same
        #: value (the parallel intra-DAIG worklist, re-interning results
        #: received from workers) yields a single canonical object.  The
        #: ``get`` fast path stays lock-free: a miss there only costs an
        #: extra trip through ``insert``, which re-checks under the lock.
        self._lock = threading.Lock()
        _REGISTRY.append(self)

    def get(self, key: Hashable) -> Optional[Any]:
        """The canonical object for ``key``, or ``None`` (counts a hit/miss)."""
        found = self._table.get(key)
        if found is not None:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def insert(self, key: Hashable, value: Any) -> Any:
        """Record ``value`` as canonical for ``key``, or return the winner.

        Atomic get-or-insert: if another thread interned an equal value
        between the caller's ``get`` miss and this call, the already-interned
        canonical object is returned and ``value`` is discarded — so equality
        remains identity even under concurrent construction.
        """
        with self._lock:
            existing = self._table.get(key)
            if existing is not None:
                return existing
            self._table[key] = value
            return value

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        """Drop every entry (always sound: the next use re-interns)."""
        self._table.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._table),
                "hits": self.hits,
                "misses": self.misses,
                "encode_hits": self.encode_hits,
                "encode_misses": self.encode_misses}


def all_tables() -> List[InternTable]:
    """Every registered intern table (one per interned type)."""
    return list(_REGISTRY)


def intern_stats() -> Dict[str, Dict[str, int]]:
    """Per-table ``{entries, hits, misses}`` counters, keyed by table name."""
    return {table.name: table.stats() for table in _REGISTRY}


def reset_intern_stats() -> None:
    """Zero all hit/miss counters (entries are left alone)."""
    for table in _REGISTRY:
        table.hits = 0
        table.misses = 0
        table.encode_hits = 0
        table.encode_misses = 0
