"""The self-contained summary job a pool worker executes.

A job is one ``(procedure, context, entry state)`` DAIG evaluation.  The
payload ships everything the worker needs — the procedure's CFG (a
listener-free copy), the entry state, the context policy and domain *by
name* (both sides resolve them from the registry, so no code is pickled),
and the exit summaries of the callees computed by earlier waves.

The worker's call transfer mirrors the sequential engine's global-entry
semantics: every call returns through the shipped callee summary
unconditionally (the sequential engine likewise consults the callee's
single entry-target summary, not a per-call-state one), while the entry
state each site *would* contribute is recorded on the side.  The
coordinator certifies those recorded contributions against the entries the
summaries were actually computed at; a worker never decides correctness,
it only reports enough evidence to check it.  A call whose callee summary
was not shipped falls back to havoc and marks the job ``incomplete``
(never seeded): workers do not read the persistent summary store, whose
only reader is the engine.

Interned abstract states cross the process boundary through their
``__reduce__`` hooks, so every state in the result re-interns on receipt
and pointer-equality keeps holding in the coordinator process.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

SummaryKey = Tuple[str, Any]  # (procedure, context)
SiteKey = Tuple[int, int, int]  # (src, dst, index) of the call cell

#: Module-level domain registry cache: resolved once per worker process.
_DOMAINS: Optional[Dict[str, Any]] = None

#: Per-process memo tables, one per domain, shared by every job the worker
#: runs: memoization is location-independent (Section 2.2), so results
#: carry across jobs and analysis sessions exactly as the coordinator's
#: shared table carries across procedures — this is where a *persistent*
#: pool pays beyond amortized startup.  Bounded, because a long-lived
#: worker otherwise accumulates entries no future job will produce.
_MEMOS: Dict[str, Any] = {}
_MEMO_CAPACITY = 1 << 16


def _domain(spec: str) -> Any:
    global _DOMAINS
    if _DOMAINS is None:
        from ..domains import available_domains
        _DOMAINS = available_domains()
    return _DOMAINS[spec]


def _memo(spec: str) -> Any:
    memo = _MEMOS.get(spec)
    if memo is None:
        from ..daig.memo import MemoTable
        # thread_safe: the table is process-global, and a serial pool runs
        # jobs on whichever thread submits them.
        memo = _MEMOS[spec] = MemoTable(capacity=_MEMO_CAPACITY,
                                        thread_safe=True)
    return memo


@dataclass
class JobPayload:
    """Everything one summary evaluation needs, picklable."""

    procedure: str
    cfg: Any  # a listener-free Cfg copy
    context: Any
    entry: Any
    policy_name: str
    domain_spec: str
    #: Parameter lists of every known procedure (for ``call_entry``).
    callee_params: Dict[str, Tuple[str, ...]]
    #: Exit summaries from earlier waves: (callee, context) -> (entry, exit).
    summaries: Dict[SummaryKey, Tuple[Any, Any]]


@dataclass
class JobResult:
    """What a worker reports back; all states re-intern on unpickle."""

    key: SummaryKey
    exit_state: Any = None
    #: Per-callee-key entry contributions, by call-site cell.
    contribs: Dict[SummaryKey, Dict[SiteKey, Any]] = field(default_factory=dict)
    #: Callee keys some site of which re-grew its contribution after the
    #: first recording — the sequential engine may delay-widen there, so
    #: the coordinator must not certify those callees' speculated entries.
    regrew: FrozenSet[SummaryKey] = frozenset()
    #: Shipped summaries actually consumed.
    used: FrozenSet[SummaryKey] = frozenset()
    #: A needed callee summary was not shipped (evaluation fell back to
    #: havoc semantics); the result is unusable for seeding.
    incomplete: bool = False
    #: ``"memo"`` or ``"store"`` when the coordinator answered this key
    #: from that summary tier at the speculated entry
    #: (:meth:`~repro.interproc.engine.InterproceduralEngine.probe_summary`)
    #: and no worker ran.  A memo hit is a summary that survived earlier
    #: edits (e.g. re-keyed by an early-cutoff certified edit); a store hit
    #: is a prior run's.  Certification accepts either unconditionally:
    #: entry-keyed seeds at underived entries are dead weight, never
    #: soundness hazards.
    served_by: Optional[str] = None
    #: CPU seconds of the job, immune to worker-process time-slicing (on a
    #: host with fewer cores than workers, wall time would include time the
    #: worker spent descheduled while its siblings ran).
    cpu_seconds: float = 0.0
    error: Optional[str] = None


def run_summary_job(payload: JobPayload) -> JobResult:
    """Evaluate one (procedure, context, entry) exit summary."""
    from ..daig.engine import DaigEngine
    from ..daig.names import Name
    from ..interproc.context import policy_by_name
    from ..lang import ast as A

    cpu_started = time.process_time()
    result = JobResult(key=(payload.procedure, payload.context))
    try:
        domain = _domain(payload.domain_spec)
        policy = policy_by_name(payload.policy_name)
        contribs: Dict[SummaryKey, Dict[SiteKey, Any]] = {}
        regrew: Set[SummaryKey] = set()
        used: Set[SummaryKey] = set()
        state_flags = {"incomplete": False}

        def call_transfer(stmt: A.CallStmt, state: Any, site: Name) -> Any:
            callee = stmt.function
            if callee not in payload.callee_params:
                # External callee: the domain's own havoc semantics, exactly
                # as in the sequential engine.
                return domain.transfer(stmt, state)
            context = policy.callee_context(
                payload.context, (payload.procedure, stmt))
            callee_key: SummaryKey = (callee, context)
            entry = domain.call_entry(
                state, payload.callee_params[callee], stmt.args)
            skey: SiteKey = (site.loc, site.aux, site.index)
            sites = contribs.setdefault(callee_key, {})
            previous = sites.get(skey)
            if previous is None:
                sites[skey] = entry
            else:
                joined = domain.join(previous, entry)
                if joined is not previous and not domain.equal(joined, previous):
                    # The site re-fed a strictly larger entry (loop
                    # feedback); the sequential engine may widen here.
                    sites[skey] = joined
                    regrew.add(callee_key)
            shipped = payload.summaries.get(callee_key)
            if shipped is None:
                # No summary for this callee was computed by earlier waves
                # (unspeculated, recursive, served by a summary tier, or
                # knocked out): the havoc fallback keeps the evaluation
                # running for timing purposes, but the result must not be
                # seeded.
                state_flags["incomplete"] = True
                return domain.transfer(stmt, state)
            used.add(callee_key)
            _entry, exit_state = shipped
            return domain.call_return(state, exit_state, stmt.target, stmt.args)

        engine = DaigEngine(
            payload.cfg,
            domain,
            memo=_memo(payload.domain_spec),
            entry_state=payload.entry,
            call_transfer=call_transfer,
        )
        result.exit_state = engine.query_exit()
        result.contribs = contribs
        result.regrew = frozenset(regrew)
        result.used = frozenset(used)
        result.incomplete = state_flags["incomplete"]
    except Exception:
        result.error = traceback.format_exc(limit=8)
    result.cpu_seconds = time.process_time() - cpu_started
    return result
