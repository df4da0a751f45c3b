"""The auxiliary memoization table ``M`` of the operational semantics (Fig. 8).

The memo table caches analysis-function results independently of program
location: the result of ``f(v1, ..., vk)`` is stored under the name
``f·v1···vk`` so that a later query whose inputs happen to coincide — even
at a completely different location, or after an edit — can reuse it
(rule Q-Match) instead of recomputing (rule Q-Miss).

The paper's prototype obtains this table from adapton.ocaml; here it is a
plain mapping keyed by the function symbol and the (hashable) input values,
with hit/miss counters that the benchmarks report.  Because dropping memo
entries is always sound (Section 2.2 — the worst case is recomputation),
the table optionally bounds its size with least-recently-used eviction:
long edit workloads otherwise accumulate entries for abstract states that
no program version will ever produce again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple


class MemoTable:
    """A finite map from ``f·(v1···vk)`` names to previously computed results.

    ``capacity`` bounds the number of retained entries; ``None`` (the
    default) keeps the table unbounded, matching the paper's semantics.
    Lookups refresh an entry's recency; stores beyond the capacity evict the
    least recently used entry and count it in ``evictions``.

    ``thread_safe=True`` guards every operation with a reentrant lock so
    several threads can share the table (with a capacity set, even a lookup
    mutates recency order, so readers must take the lock too).  In the
    default sequential mode the table instead *asserts* single-writer
    ownership: stores must come from the thread that created the table,
    while lookups stay assertion-free.
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = None,
                 thread_safe: bool = False) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("memo capacity must be positive or None")
        self.enabled = enabled
        self.capacity = capacity
        self.thread_safe = thread_safe
        self._lock = threading.RLock() if thread_safe else None
        self._owner = threading.get_ident()
        self._table: "OrderedDict[Tuple[Any, ...], Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0

    @staticmethod
    def key(func: str, args: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """Build the memo key ``f·(v1···vk)``, or None if any input is unhashable."""
        try:
            hash(args)
        except TypeError:
            return None
        return (func,) + args

    def lookup(self, func: str, args: Tuple[Any, ...]) -> Tuple[bool, Any]:
        """Return ``(found, value)`` for ``f·(v1···vk)``."""
        if self._lock is not None:
            with self._lock:
                return self._lookup(func, args)
        return self._lookup(func, args)

    def _lookup(self, func: str, args: Tuple[Any, ...]) -> Tuple[bool, Any]:
        if not self.enabled:
            self.misses += 1
            return False, None
        # One dict probe: the key tuple is hashed exactly once (and interned
        # states/names inside it carry cached hashes), where a key() +
        # containment + access sequence would hash it three times.
        try:
            value = self._table[(func,) + args]
        except KeyError:
            self.misses += 1
            return False, None
        except TypeError:  # an unhashable input cannot be memoized
            self.misses += 1
            return False, None
        self.hits += 1
        if self.capacity is not None:
            self._table.move_to_end((func,) + args)
        return True, value

    def store(self, func: str, args: Tuple[Any, ...], value: Any) -> None:
        if self._lock is not None:
            with self._lock:
                self._store(func, args, value)
            return
        assert threading.get_ident() == self._owner, (
            "MemoTable store off the owning thread without thread_safe=True")
        self._store(func, args, value)

    def _store(self, func: str, args: Tuple[Any, ...], value: Any) -> None:
        if not self.enabled:
            return
        key = (func,) + args
        try:
            self._table[key] = value
        except TypeError:  # an unhashable input cannot be memoized
            return
        self.stores += 1
        if self.capacity is not None:
            self._table.move_to_end(key)
            while len(self._table) > self.capacity:
                self._table.popitem(last=False)
                self.evictions += 1

    def peek(self, func: str, args: Tuple[Any, ...]) -> Tuple[bool, Any]:
        """Like :meth:`lookup`, but without touching the hit/miss counters
        or the LRU order — for bookkeeping passes (e.g. snapshotting entries
        about to be invalidated) that are not real memoization queries."""
        if not self.enabled:
            return False, None
        key = self.key(func, args)
        if key is None or key not in self._table:
            return False, None
        return True, self._table[key]

    def discard(self, func: str, args: Tuple[Any, ...]) -> bool:
        """Drop one entry if present (always sound, per Section 2.2).

        Used by clients that can name entries they have made unreachable —
        e.g. the interprocedural engine retiring version-stamped summaries —
        so an unbounded table does not accumulate dead results.
        """
        if self._lock is not None:
            with self._lock:
                return self._discard(func, args)
        assert threading.get_ident() == self._owner, (
            "MemoTable discard off the owning thread without thread_safe=True")
        return self._discard(func, args)

    def _discard(self, func: str, args: Tuple[Any, ...]) -> bool:
        key = self.key(func, args)
        if key is None or key not in self._table:
            return False
        del self._table[key]
        return True

    def clear(self) -> None:
        """Drop all cached results (always sound, per Section 2.2)."""
        if self._lock is not None:
            with self._lock:
                self._table.clear()
            return
        self._table.clear()

    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "capacity": -1 if self.capacity is None else self.capacity,
        }
