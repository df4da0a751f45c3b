"""The four analysis configurations compared in Section 7.3 / Fig. 10.

All four are built on top of the DAIG engine, mirroring the paper's setup
(its batch / incremental-only / demand-only configurations are likewise
implemented atop the DAIG framework):

1. **Batch** — classical whole-program abstract interpretation: every edit
   discards all previous results (DAIG and memo table) and the whole program
   is re-analyzed from scratch.
2. **Incremental** — the edit semantics dirty as few previously-computed
   cells as possible, but every dirtied cell is then eagerly recomputed.
3. **Demand-driven** — the full DAIG is discarded on each edit (no reuse
   across versions), but only the cells needed to answer the client's
   queries are computed.
4. **Incremental & demand-driven** — the full technique: edits dirty
   minimally, queries compute lazily, and the memo table is retained.

The driver (:mod:`repro.workload.driver`) feeds the same edit/query stream
to each configuration and measures the per-step latency.

:class:`InterprocIncrementalDemandConfiguration` is configuration (4) lifted
to whole programs: edits name a procedure and queries name ``(procedure,
location)`` sites.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Sequence

from ..daig.engine import DaigEngine
from ..daig.memo import MemoTable
from ..domains.base import AbstractDomain
from ..interproc.context import ContextPolicy
from ..interproc.engine import InterproceduralEngine
from ..lang import ast as A
from ..lang.cfg import Cfg, Loc
from ..workload.edits import ProgramEdit


def _empty_program(name: str = "main") -> Cfg:
    """The initially-empty program the synthetic workload starts from."""
    cfg = Cfg(name)
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg


class AnalysisConfiguration(ABC):
    """A way of keeping analysis results up to date across edits and queries."""

    name: str = "configuration"
    #: Whether the configuration only computes what queries demand.
    demand_driven: bool = False
    #: Whether the configuration reuses results across program versions.
    incremental: bool = False

    def __init__(self, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None) -> None:
        self.domain = domain
        self.cfg = initial_cfg.copy() if initial_cfg is not None else _empty_program()
        self._retired_phases: Dict[str, float] = {}

    @abstractmethod
    def apply_edit(self, edit: ProgramEdit) -> None:
        """Incorporate a program edit (doing whatever re-analysis this
        configuration performs eagerly)."""

    @abstractmethod
    def answer_queries(self, locations: Sequence[Loc]) -> Dict[Loc, Any]:
        """Answer abstract-state queries at the given locations."""

    def step(self, edit: ProgramEdit, query_locations: Sequence[Loc]) -> Dict[Loc, Any]:
        """One workload step: apply the edit, then answer the queries."""
        self.apply_edit(edit)
        return self.answer_queries(query_locations)

    def program_size(self) -> int:
        return self.cfg.size()

    @staticmethod
    def _fold_engine_phases(totals: Dict[str, float], engine: Optional[DaigEngine]) -> None:
        """Accumulate one engine's per-phase wall-clock split into ``totals``."""
        if engine is None:
            return
        for key, value in engine.phase_seconds().items():
            totals[key] = totals.get(key, 0.0) + value

    def _retire_engine(self) -> None:
        """Fold the current engine's phase seconds into the running totals.

        From-scratch configurations call this before discarding an engine,
        so that :meth:`phase_stats` covers *every* rebuild, not just the
        last one.
        """
        self._fold_engine_phases(self._retired_phases, getattr(self, "engine", None))

    def phase_stats(self) -> Dict[str, float]:
        """Cumulative per-phase wall-clock seconds (structure update / DAIG
        build / snapshot, the suspect comparison / splice / query), summed
        over every engine this configuration has owned, so a session can
        see which phase its latency lives in, not just the end-to-end
        number.
        """
        totals = dict(self._retired_phases)
        self._fold_engine_phases(totals, getattr(self, "engine", None))
        return totals


class BatchConfiguration(AnalysisConfiguration):
    """Configuration (1): full from-scratch re-analysis after every edit."""

    name = "batch"

    def __init__(self, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None) -> None:
        super().__init__(domain, initial_cfg)
        self._results: Dict[Loc, Any] = {}
        self.apply_edit_count = 0

    def apply_edit(self, edit: ProgramEdit) -> None:
        edit.apply_to_cfg(self.cfg)
        self._retire_engine()
        self.engine = None  # free the old DAIG before building its successor
        self.engine = DaigEngine(self.cfg.copy(), self.domain, memo=MemoTable())
        self._results = self.engine.query_all()
        self.apply_edit_count += 1

    def answer_queries(self, locations: Sequence[Loc]) -> Dict[Loc, Any]:
        return {loc: self._results.get(loc, self.domain.bottom()) for loc in locations}


class IncrementalConfiguration(AnalysisConfiguration):
    """Configuration (2): minimal dirtying, but eager recomputation."""

    name = "incremental"
    incremental = True

    def __init__(self, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None) -> None:
        super().__init__(domain, initial_cfg)
        self.engine = DaigEngine(self.cfg, self.domain)
        self._results: Dict[Loc, Any] = self.engine.query_all()

    def apply_edit(self, edit: ProgramEdit) -> None:
        edit.apply_to_engine(self.engine)
        self.cfg = self.engine.cfg
        self._results = self.engine.query_all()

    def answer_queries(self, locations: Sequence[Loc]) -> Dict[Loc, Any]:
        return {loc: self._results.get(loc, self.domain.bottom()) for loc in locations}


class DemandConfiguration(AnalysisConfiguration):
    """Configuration (3): no reuse across edits, lazy query evaluation."""

    name = "demand-driven"
    demand_driven = True

    def __init__(self, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None) -> None:
        super().__init__(domain, initial_cfg)
        self.engine = DaigEngine(self.cfg.copy(), self.domain, memo=MemoTable())

    def apply_edit(self, edit: ProgramEdit) -> None:
        edit.apply_to_cfg(self.cfg)
        # Dirty the full DAIG: rebuild it (and the memo table) from scratch.
        self._retire_engine()
        self.engine = None  # free the old DAIG before building its successor
        self.engine = DaigEngine(self.cfg.copy(), self.domain, memo=MemoTable())

    def answer_queries(self, locations: Sequence[Loc]) -> Dict[Loc, Any]:
        return {loc: self.engine.query_location(loc) for loc in locations}


class IncrementalDemandConfiguration(AnalysisConfiguration):
    """Configuration (4): the full demanded abstract interpretation technique."""

    name = "incr+demand"
    demand_driven = True
    incremental = True

    def __init__(self, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None) -> None:
        super().__init__(domain, initial_cfg)
        self.engine = DaigEngine(self.cfg, self.domain)

    def apply_edit(self, edit: ProgramEdit) -> None:
        edit.apply_to_engine(self.engine)
        self.cfg = self.engine.cfg

    def answer_queries(self, locations: Sequence[Loc]) -> Dict[Loc, Any]:
        return {loc: self.engine.query_location(loc) for loc in locations}


#: The four configurations of Fig. 10, in the paper's order.
ALL_CONFIGURATIONS = (
    BatchConfiguration,
    IncrementalConfiguration,
    DemandConfiguration,
    IncrementalDemandConfiguration,
)


class InterprocIncrementalDemandConfiguration:
    """The full technique across procedures: O(dependent call sites)
    dirtying on edits, demanded summaries on queries, through one
    long-lived :class:`~repro.interproc.engine.InterproceduralEngine`.
    """

    def __init__(
        self,
        cfgs: Dict[str, Cfg],
        domain: AbstractDomain,
        policy: Optional[ContextPolicy] = None,
    ) -> None:
        self.engine = InterproceduralEngine(
            {name: cfg.copy() for name, cfg in cfgs.items()}, domain, policy)

    def step(self, step: Any) -> Dict[Any, Any]:
        """One workload step: edit one procedure, then answer the queries
        at the step's ``(procedure, location)`` sites."""
        self.engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
        return {(procedure, loc): self.engine.query(procedure, loc)
                for procedure, loc in step.query_sites}


def make_configuration(
    name: str, domain: AbstractDomain, initial_cfg: Optional[Cfg] = None
) -> AnalysisConfiguration:
    """Instantiate a configuration by its Fig. 10 name."""
    table = {cls.name: cls for cls in ALL_CONFIGURATIONS}
    aliases = {"batch": "batch", "incr": "incremental", "dd": "demand-driven",
               "incremental": "incremental", "demand": "demand-driven",
               "i&dd": "incr+demand", "incr+demand": "incr+demand"}
    key = aliases.get(name.lower())
    if key is None:
        raise KeyError("unknown configuration %r" % (name,))
    return table[key](domain, initial_cfg)
