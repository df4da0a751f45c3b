"""The two :class:`~repro.store.base.SummaryStore` backends.

* :class:`InMemorySummaryStore` — a dict; per-process, mostly for tests
  and for bounding the memo table (evicted entries stay recoverable).
* :class:`SqliteSummaryStore` — one stdlib ``sqlite3`` table; the
  persistent backend, journaled through a write-ahead log: every put is
  one committed, fsynced log append that other connections see at once.

:func:`open_store` parses the ``"memory"`` / ``"sqlite:<path>"`` specs and
is the one way to open a store by name.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, List, Optional

from .base import SummaryStore


class InMemorySummaryStore(SummaryStore):
    """A per-process dict store."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._table: Dict[str, bytes] = {}

    def _get(self, key: str) -> Optional[bytes]:
        return self._table.get(key)

    def _put(self, key: str, blob: bytes) -> None:
        self._table[key] = bytes(blob)

    def _delete(self, key: str) -> bool:
        return self._table.pop(key, None) is not None

    def __len__(self) -> int:
        return len(self._table)

    def keys(self) -> List[str]:
        return sorted(self._table)

    def clear(self) -> None:
        self._table.clear()


class SqliteSummaryStore(SummaryStore):
    """One ``summaries(key TEXT PRIMARY KEY, blob BLOB)`` table.

    The database journals through a write-ahead log (``journal_mode=WAL``,
    set before anything else) and keeps sqlite's default
    ``synchronous=FULL``; with autocommit (``isolation_level=None``) every
    put is its own transaction, committed and fsynced as one log append
    before it returns, and visible at once to every other connection on
    the path — a restarted engine opens its own.  While a handle is open,
    ``<path>-wal`` and ``<path>-shm`` sit beside the file; the last clean
    ``close()`` merges the log into it and removes both, and the next
    open recovers a log that a killed process left.  WAL needs a local
    filesystem with shared memory: where sqlite cannot switch to it, the
    store keeps working in the journal mode that ``PRAGMA journal_mode``
    reports.  ``check_same_thread=False`` lets a handle opened on one
    thread serve another (the base class serializes access under one
    lock).
    """

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                     isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS summaries ("
            "key TEXT PRIMARY KEY, blob BLOB NOT NULL)")

    def _get(self, key: str) -> Optional[bytes]:
        row = self._conn.execute(
            "SELECT blob FROM summaries WHERE key = ?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def _put(self, key: str, blob: bytes) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO summaries (key, blob) VALUES (?, ?)",
            (key, sqlite3.Binary(bytes(blob))))

    def _delete(self, key: str) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM summaries WHERE key = ?", (key,))
        return cursor.rowcount > 0

    def __len__(self) -> int:
        try:
            row = self._conn.execute("SELECT COUNT(*) FROM summaries").fetchone()
        except sqlite3.Error:
            return 0
        return int(row[0])

    def keys(self) -> List[str]:
        try:
            rows = self._conn.execute(
                "SELECT key FROM summaries ORDER BY key").fetchall()
        except sqlite3.Error:
            return []
        return [row[0] for row in rows]

    def clear(self) -> None:
        try:
            self._conn.execute("DELETE FROM summaries")
        except sqlite3.Error:
            pass

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:
            pass


def open_store(spec: str) -> SummaryStore:
    """Parse a ``"memory"`` / ``"sqlite:<path>"`` spec."""
    kind, _sep, location = spec.partition(":")
    kind = kind.strip()
    if kind == "memory":
        return InMemorySummaryStore()
    if kind == "sqlite":
        if not location:
            raise ValueError("store spec %r needs a location" % (spec,))
        return SqliteSummaryStore(location)
    raise ValueError("unknown summary-store spec %r" % (spec,))

