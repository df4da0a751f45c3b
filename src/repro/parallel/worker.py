"""The self-contained summary job a pool worker executes.

A job is one ``(procedure, context, entry state)`` DAIG evaluation of a
*leaf* procedure, one that calls nothing in the program.  The payload
ships everything the worker needs: the procedure's CFG (a listener-free
copy), the entry state and the domain *by name* (both sides resolve it
from the registry, so no code is pickled).  The evaluation has no call
hook: a leaf's calls are external, and the domain's own transfer havocs
them, exactly as the interprocedural engine does.  So a job's exit is
what demand computes at the same entry, and the coordinator needs no
evidence beyond it: workers never read the persistent summary store,
whose only reader is the engine.

Besides the exit, a job hands back its evaluated DAIG's memo facts
(:func:`memo_facts`): the results of every transfer, join and widen it
computed, keyed by their inputs as the query evaluator memoizes them.
The coordinator installs them into the engine's memo table whether or
not demand uses the job's exit, so the first edit of a worker-computed
procedure finds them instead of recomputing them.

Interned abstract states cross the process boundary through their
``__reduce__`` hooks.  A pool runs :func:`run_summary_job_pickled`, which
returns the result as pickled bytes; the coordinator unpickles them on its
own thread, so every state in the result re-interns there (never on the
executor's result-handling thread) and pointer-equality keeps holding in
the coordinator process.  Statements do not cross: a fact names its
statement by its CFG edge, and :func:`edge_statements` puts the receiving
engine's own statement back.
"""

from __future__ import annotations

import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

SummaryKey = Tuple[str, Any]  # (procedure, context)
Fact = Tuple[str, Tuple[Any, ...], Any]  # (func, input values, output)

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
        # thread_safe: no two threads use this table at once, but it is
        # process-global and outlives the thread that created it (a serial
        # pool runs jobs inline on whichever thread submits them), so it
        # must not assert MemoTable's single-owner-thread rule.
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
    domain_spec: str


@dataclass
class JobResult:
    """What a worker reports back.

    All states re-intern when the coordinator unpickles the job's bytes on
    its own thread.
    """

    key: SummaryKey
    exit_state: Any = None
    #: The evaluated DAIG's memo facts: one ``(func, input values,
    #: output)`` triple per non-call ``transfer``, ``join`` or ``widen``
    #: cell the evaluation filled, each transfer's statement named by its
    #: edge (see :func:`memo_facts`).  They travel in the job's one result
    #: pickle, so a state they share with the exit is encoded once.
    facts: List[Fact] = field(default_factory=list)
    #: CPU seconds of the job, immune to worker-process time-slicing (on a
    #: host with fewer cores than workers, wall time would include time the
    #: worker spent descheduled while its siblings ran).
    cpu_seconds: float = 0.0
    error: Optional[str] = None


def run_summary_job(payload: JobPayload) -> JobResult:
    """Evaluate one leaf's (procedure, context, entry) exit summary."""
    from ..daig.engine import DaigEngine

    cpu_started = time.process_time()
    result = JobResult(key=(payload.procedure, payload.context))
    try:
        engine = DaigEngine(
            payload.cfg,
            _domain(payload.domain_spec),
            memo=_memo(payload.domain_spec),
            entry_state=payload.entry,
        )
        result.exit_state = engine.query_exit()
        result.facts = memo_facts(engine.daig, payload.cfg)
    except Exception:
        result.error = traceback.format_exc(limit=8)
    result.cpu_seconds = time.process_time() - cpu_started
    return result


def memo_facts(daig: Any, cfg: Any) -> List[Fact]:
    """Every memoizable computation an evaluated DAIG holds.

    These are exactly the keys the query evaluator memoizes: a valued
    ``transfer``, ``join`` or ``widen`` cell, with the values of its
    inputs.  ``fix`` cells and call transfers are left out; a call's
    result depends on a callee summary, not on its inputs alone.  A
    transfer's statement is named by the position of its edge in
    ``cfg.edges`` (:func:`edge_statements` puts the receiver's own
    statement back), so no statement crosses the process boundary.
    """
    from ..daig.graph import FIX, TRANSFER
    from ..lang.ast import CallStmt

    values = daig.values
    valued = values.__contains__
    edge_of = {id(edge.stmt): position
               for position, edge in enumerate(cfg.edges)}
    facts: List[Fact] = []
    for dest, func, srcs in daig.computations.values():
        if func == FIX or not valued(dest) or not all(map(valued, srcs)):
            continue
        args = tuple(map(values.__getitem__, srcs))
        if func == TRANSFER:
            if isinstance(args[0], CallStmt):
                continue
            position = edge_of.get(id(args[0]))
            if position is not None:
                args = (position,) + args[1:]
        facts.append((func, args, values[dest]))
    return facts


def edge_statements(facts: Iterable[Fact], cfg: Any) -> Iterator[Fact]:
    """``facts`` of a job on a copy of ``cfg``, each edge-named statement
    replaced by ``cfg``'s own (a copy keeps the edges and their order), so
    the memo keys hold the statements the receiving engine looks up."""
    from ..daig.graph import TRANSFER

    statements = [edge.stmt for edge in cfg.edges]
    for func, args, value in facts:
        if func == TRANSFER and type(args[0]) is int:
            args = (statements[args[0]],) + args[1:]
        yield func, args, value


def run_summary_job_pickled(payload: JobPayload) -> bytes:
    """:func:`run_summary_job` with its result pickled, as a pool runs it:
    the caller, not the executor's result thread, unpickles (re-interns)."""
    return pickle.dumps(run_summary_job(payload))
