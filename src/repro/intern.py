"""Hash-consing (interning) infrastructure for abstract states and names.

Every immutable value class on the analysis hot path — DAIG names, value
lattice elements, environment states, octagon states — is *interned*: its
constructor returns the one canonical object per structural value, held in a
per-type weak-value table.  The payoff is the classic hash-consing triple:

* **equality is identity** — structurally equal values are the same object,
  so ``==`` is a pointer comparison and lattice ``equal`` checks are O(1),
* **hashing is identity** — interned types keep ``object.__hash__``, which
  agrees with structural equality precisely because of interning, so every
  dict, set and memo key over them hashes in C without reading a field,
* **memoization keys are cheap** — the DAIG memo table and the octagon /
  environment join paths compare and hash states without walking them.

Each table is a plain dict from a structural key to a :func:`weakref.ref`
of the canonical object, so interned objects are garbage-collected as soon
as the analysis drops them: tearing down an engine
releases its states, and nothing leaks across engine lifetimes
(property-tested in ``tests/test_intern.py``).  Only the thread that runs the
analysis interns: the tables take no lock, and the parallel coordinator
unpickles worker results (which re-interns them) on its own thread.

Each table counts hits (an equal value was already interned) and misses
(a fresh value was inserted); ``intern_stats()`` aggregates the counters
(read by ``tests/test_intern.py`` and by the benchmark's intern hit ratio).
Its counterpart for the process's table of recorded loop unrollings, which
holds encodings rather than values, is
:func:`repro.daig.build.unroll_table_stats`.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from typing import Any, Dict, Hashable, List, Optional

__all__ = ["InternTable", "all_tables", "intern_stats", "reset_intern_stats"]

#: Global registry of every live intern table, in registration order.
_REGISTRY: "List[InternTable]" = []

#: Sentinel for "no key recorded" (a key may be any hashable, even None).
_NO_KEY = object()


class InternTable:
    """One per-type hash-consing table: structural key → canonical object.

    The table maps a *key* (a hashable tuple of the type's fields) to a weak
    reference to the canonical instance for that key, so the table never
    keeps an object alive by itself.  A reference's callback drops its key
    when the object dies, unless the key already maps to a live newer
    reference (the removal is one atomic C call, so a collection that runs
    the callback on another thread cannot drop a fresh entry).

    The callback finds the key in a side map keyed by the reference itself.
    Interned types hash by identity, so a reference hashes (in C, cached
    from its live referent) and, once dead, compares by identity; a plain
    ``weakref.ref`` costs a fraction of a Python-level
    :class:`weakref.KeyedRef` on every insert.  The callback never raises:
    an exception there is unraisable and only printed.
    """

    __slots__ = ("name", "hits", "misses", "encode_hits", "encode_misses",
                 "_table", "_keys", "_remove", "__weakref__")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0
        #: Canonical-encoding cache traffic (see repro.store.canonical):
        #: interned objects memoize their ``canonical_bytes`` in a slot, so
        #: repeated digests/store keys over the same states are O(1).
        self.encode_hits = 0
        self.encode_misses = 0
        table: Dict[Hashable, "weakref.ref[Any]"] = {}
        keys: Dict["weakref.ref[Any]", Hashable] = {}

        def remove(ref: "weakref.ref[Any]", pop=keys.pop,
                   remove_dead=_remove_dead_weakref) -> None:
            key = pop(ref, _NO_KEY)
            if key is not _NO_KEY:
                remove_dead(table, key)

        self._table = table
        self._keys = keys
        self._remove = remove
        _REGISTRY.append(self)

    def get(self, key: Hashable) -> Optional[Any]:
        """The canonical object for ``key``, or ``None`` (counts a hit/miss)."""
        ref = self._table.get(key)
        if ref is not None:
            found = ref()
            if found is not None:
                self.hits += 1
                return found
        self.misses += 1
        return None

    def insert(self, key: Hashable, value: Any) -> Any:
        """Record ``value`` as canonical for ``key`` (after a ``get`` miss)."""
        ref = weakref.ref(value, self._remove)
        self._keys[ref] = key
        self._table[key] = ref
        return value

    def __len__(self) -> int:
        return len(self._table)

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
