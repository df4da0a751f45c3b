"""The :class:`SummaryStore` protocol and the summary wire format.

A summary store is a flat ``key -> blob`` map: keys are the
content-addressed hex digests of :func:`repro.store.canonical.summary_store_key`
and blobs are format-versioned pickles of exit states
(:func:`encode_summary` / :func:`decode_summary`).  The store layer never
interprets states — serialization happens at the boundary of the
interprocedural engine, the store's only reader and writer, where interned
states re-intern through their ``__reduce__`` hooks on load, so a blob
written by one engine (or an earlier run) is pointer-equal to the live
state another engine derives.

Robustness contract: a store is a *cache*.  Every failure mode — missing
key, truncated blob, wrong magic, stale format version, unpicklable
payload, backend I/O error — must degrade to a **miss**, never to an
exception on the analysis path; the engine recomputes and overwrites.
:func:`decode_summary` raises :class:`StoreDecodeError` for all corrupt
inputs so callers can count and skip them uniformly.
"""

from __future__ import annotations

import pickle
import threading
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Optional

#: Magic prefix + format version of every stored blob.  Bump the version
#: when the state serialization changes shape; decoders treat any other
#: version as corrupt (a miss), so mixed-version fleets coexist safely.
STORE_MAGIC = b"RPSS"
STORE_FORMAT_VERSION = 1


class StoreDecodeError(Exception):
    """A stored blob could not be decoded (corrupt, truncated, or from an
    incompatible format version).  Always recoverable: treat as a miss."""


def encode_summary(exit_state: Any) -> bytes:
    """Serialize one exit state as a format-versioned blob."""
    return (STORE_MAGIC + bytes((STORE_FORMAT_VERSION,))
            + pickle.dumps(exit_state, protocol=4))


def decode_summary(blob: bytes) -> Any:
    """Deserialize a blob written by :func:`encode_summary`.

    The pickle path runs the states' ``__reduce__`` re-interning
    constructors, so the returned state is the interned instance."""
    header = len(STORE_MAGIC) + 1
    if not isinstance(blob, (bytes, bytearray)) or len(blob) <= header:
        raise StoreDecodeError("truncated summary blob")
    if bytes(blob[:len(STORE_MAGIC)]) != STORE_MAGIC:
        raise StoreDecodeError("bad summary magic")
    if blob[len(STORE_MAGIC)] != STORE_FORMAT_VERSION:
        raise StoreDecodeError(
            "unsupported summary format version %d" % blob[len(STORE_MAGIC)])
    try:
        return pickle.loads(bytes(blob[header:]))
    except Exception as exc:
        raise StoreDecodeError("undecodable summary payload: %r" % (exc,))


class SummaryStore(ABC):
    """A persistent (or in-memory) second tier behind the memo table.

    Subclasses implement the raw ``_get/_put/_delete`` byte operations;
    the base class wraps them with shared hit/put/delete counters and the
    swallow-errors contract (backend exceptions count as misses / dropped
    writes, never propagate).  All operations are guarded by one reentrant
    lock, so one handle may be shared between threads.
    """

    kind: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.deletes = 0
        self.errors = 0

    # -- raw byte operations (backend-specific) --------------------------------

    @abstractmethod
    def _get(self, key: str) -> Optional[bytes]:
        """Fetch one blob, or None when absent."""

    @abstractmethod
    def _put(self, key: str, blob: bytes) -> None:
        """Store one blob (overwrite allowed: summaries are idempotent)."""

    @abstractmethod
    def _delete(self, key: str) -> bool:
        """Drop one blob; return whether it existed."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored summaries."""

    @abstractmethod
    def keys(self) -> Iterable[str]:
        """All stored keys (diagnostics and garbage-collection tests)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (always sound: the store is a cache)."""

    # -- counted, error-swallowing public surface ------------------------------

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            self.gets += 1
            try:
                blob = self._get(key)
            except Exception:
                self.errors += 1
                return None
            if blob is not None:
                self.hits += 1
            return blob

    def put(self, key: str, blob: bytes) -> None:
        with self._lock:
            self.puts += 1
            try:
                self._put(key, blob)
            except Exception:
                self.errors += 1

    def delete(self, key: str) -> bool:
        with self._lock:
            try:
                removed = self._delete(key)
            except Exception:
                self.errors += 1
                return False
            if removed:
                self.deletes += 1
            return removed

    def close(self) -> None:
        """Release backend resources; further operations may fail (and are
        then swallowed as misses, per the cache contract)."""

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "kind": self.kind,  # type: ignore[dict-item]
                "entries": len(self),
                "gets": self.gets,
                "hits": self.hits,
                "puts": self.puts,
                "deletes": self.deletes,
                "errors": self.errors,
            }
