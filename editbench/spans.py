"""Layer spans for the traced run, recorded from the benchmark's side.

The traced run wraps the public entry points of each ``src/repro`` layer
(one layer per package) in spans, without touching the package: the
wrappers are installed on the classes and module attributes for the
length of the run and removed afterwards.  A span's *self time* is its
duration minus the time covered by the spans nested inside it, so an
``interproc.query`` that demands a callee DAIG, which in turn applies
domain transfers, is split into ``interproc.query`` /
``daig.query`` / ``domains.transfer`` shares that never double count the
nested work (the engines' own inclusive ``query`` phase counts a nested
callee query again inside its caller).

Spans only record while :attr:`Tracer.active` is set, which the runner
does for timed regions alone, so oracle checks, set-up and forked pool
workers never contribute.  Self time is aggregated per span name in
memory.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.daig import engine as daig_engine_module
from repro.daig.engine import DaigEngine
from repro.domains import IntervalDomain
from repro.intern import intern_stats
from repro.interproc.engine import InterproceduralEngine
from repro.lang.structure import CfgStructure
from repro.parallel.coordinator import ParallelCoordinator
from repro.store.base import SummaryStore

#: Span name -> the (owner, attribute) entry points it wraps.  The owner is
#: a class (a method) or a module (a function the layer above imported by
#: name).  ``InterproceduralEngine._analyze_call`` is the call-transfer hook
#: the engine installs in every DAIG (the daig -> interproc boundary), and
#: the coordinator's ``_dispatch`` / ``_certify`` are its phase boundaries.
ENTRY_POINTS: Dict[str, Tuple[Tuple[Any, str], ...]] = {
    "lang.structure": ((CfgStructure, "__init__"), (CfgStructure, "refresh")),
    "daig.edit": tuple((DaigEngine, name) for name in (
        "insert_statement_after", "insert_conditional_after",
        "insert_loop_after", "replace_statement", "delete_statement",
        "write_statement", "resync", "set_entry_state")) + (
        (daig_engine_module, "splice"), (daig_engine_module, "splice_delta")),
    "daig.query": ((DaigEngine, "query_location"), (DaigEngine, "query_cell")),
    "domains.transfer": ((IntervalDomain, "transfer"),),
    "domains.join": ((IntervalDomain, "join"),),
    "domains.widen": ((IntervalDomain, "widen"),),
    "interproc.edit": ((InterproceduralEngine, "edit_procedure"),),
    "interproc.query": ((InterproceduralEngine, "query"),
                        (InterproceduralEngine, "query_entry_exit"),
                        (InterproceduralEngine, "_analyze_call")),
    "store.get": ((SummaryStore, "get"),),
    "store.put": ((SummaryStore, "put"),),
    "parallel.run": ((ParallelCoordinator, "run"),),
    "parallel.dispatch": ((ParallelCoordinator, "_dispatch"),),
    "parallel.certify": ((ParallelCoordinator, "_certify"),),
}

_MISSING = object()


class Tracer:
    """Nested spans aggregated to self time per span name."""

    def __init__(self) -> None:
        self.active = False
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.bytes_written = 0
        self._starts: List[float] = []
        self._child: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter
        starts, child = self._starts, self._child
        self_seconds, calls = self.self_seconds, self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            starts.append(clock())
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - starts.pop()
                self_seconds[name] = (self_seconds.get(name, 0.0)
                                      + elapsed - child.pop())
                calls[name] = calls.get(name, 0) + 1
                if child:
                    child[-1] += elapsed
        return traced

    def _wrap_put(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        traced = self.wrap("store.put", fn)

        @functools.wraps(fn)
        def put(store: Any, key: str, blob: bytes) -> None:
            if self.active:
                self.bytes_written += len(blob)
            traced(store, key, blob)
        return put

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for name, points in ENTRY_POINTS.items():
            for owner, attr in points:
                original = getattr(owner, attr)
                own = owner.__dict__.get(attr, _MISSING)
                wrapped = (self._wrap_put(original) if name == "store.put"
                           else self.wrap(name, original))
                self._patches.append((owner, attr, own))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (inherited ones are unshadowed)."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def intern_totals() -> Tuple[int, int]:
    """``(hits, lookups)`` summed over every intern table."""
    hits = lookups = 0
    for table in intern_stats().values():
        hits += table["hits"]
        lookups += table["hits"] + table["misses"]
    return hits, lookups
