"""The two :class:`~repro.store.base.SummaryStore` backends.

* :class:`InMemorySummaryStore` — a dict; per-process, mostly for tests
  and for bounding the memo table (evicted entries stay recoverable).
* :class:`SqliteSummaryStore` — one stdlib ``sqlite3`` table; the
  persistent backend, journaled through a write-ahead log: every put is
  one committed, fsynced log append that other connections see at once.
  A new store file is hard-linked into place complete and fsynced,
  without the rollback-journal round trip that sqlite makes to switch an
  empty file to WAL (:func:`_create_store_file`).

:func:`open_store` parses the ``"memory"`` / ``"sqlite:<path>"`` specs and
is the one way to open a store by name.
"""

from __future__ import annotations

import contextlib
import os
import secrets
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

    A path that does not exist yet is first made an empty store by
    :func:`_create_store_file`: built under a temp name at
    ``synchronous=OFF``, fsynced and hard-linked into place, which skips
    the rollback journal that sqlite would create, fsync and delete to
    switch an empty file to WAL.  So a store is complete and durable when
    its constructor returns.  A path that exists, an empty file included,
    is opened as it is.  A path sqlite cannot open (not a database, a
    directory, no permission) gives a store that misses every get and
    drops every put, counting each in ``errors``, and never writes or
    removes the file.
    """

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = os.fspath(path)
        try:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                        exist_ok=True)
            if not os.path.lexists(self.path):
                _create_store_file(self.path)
            self._conn = _connect(self.path)
        except (OSError, sqlite3.Error):
            # Every statement on a closed connection raises
            # sqlite3.ProgrammingError, which the base class counts as a
            # miss or a dropped put.
            self.errors += 1
            self._conn = sqlite3.connect(":memory:", check_same_thread=False)
            self._conn.close()

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


_SCHEMA = ("CREATE TABLE IF NOT EXISTS summaries ("
           "key TEXT PRIMARY KEY, blob BLOB NOT NULL)")


def _connect(path: str) -> sqlite3.Connection:
    """An autocommit handle on ``path`` in WAL mode, at sqlite's default
    ``synchronous=FULL``, with the ``summaries`` table."""
    conn = sqlite3.connect(path, check_same_thread=False,
                           isolation_level=None)
    try:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(_SCHEMA)
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def _fsync_path(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _create_store_file(path: str) -> None:
    """Make the absent ``path`` an empty WAL store, complete and durable.

    Switching an empty file to WAL writes its first page through a
    rollback journal that sqlite creates, fsyncs and deletes, and on a
    filesystem that discards freed blocks (ext4 mounted with
    ``discard``) deleting a file whose blocks an fsync allocated costs
    tens of milliseconds.  So the database is built under a temp name
    that no other creator shares, at ``synchronous=OFF``: its journal and
    log are never synced, and deleting them is free.  The finished file
    is then fsynced, hard-linked to ``path`` and its temp name removed
    (the file lives on at ``path``, so no block is freed), and the
    directory is fsynced.

    A creator killed before the link leaves only its temp file, never a
    partial store at ``path``.  ``os.link`` never replaces: a store that
    another creator made at ``path`` meanwhile keeps its rows, where
    ``os.replace`` could pair that store's live ``-wal`` with a different
    database.  When a step fails (``path`` appeared, or the filesystem
    has no hard links) the caller opens ``path`` as it finds it, and
    sqlite creates it if it is still absent.
    """
    temp = "%s.%d-%s.new" % (path, os.getpid(), secrets.token_hex(8))
    try:
        try:
            conn = sqlite3.connect(temp, isolation_level=None)
            try:
                conn.execute("PRAGMA synchronous=OFF")
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute(_SCHEMA)
            finally:
                conn.close()
            _fsync_path(temp)
            os.link(temp, path)
        finally:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        _fsync_path(os.path.dirname(os.path.abspath(path)))
    except (OSError, sqlite3.Error):
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

