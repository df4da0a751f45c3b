"""Speculate / dispatch / certify: the parallel summary coordinator.

The sequential interprocedural engine derives each callee's entry state
*during* evaluation (the join of its call sites' contributions), which
serializes summary computation along the demand path.  The coordinator
takes the leaves of the call graph off that path in three phases:

1. **Speculate** — walk the call graph callers-first, batch-analyzing each
   procedure with havoc at calls to *predict* the entry state every
   reachable ``(procedure, context)`` key will end up with.  Prediction is
   cheap (one classical pass per procedure with call sites) and usually
   exact — havoc only matters when a call's return value feeds a later
   call's arguments.

2. **Dispatch** — ship every speculated *leaf* key (its procedure calls
   nothing in the program) to the worker pool in one batch, each job one
   DAIG evaluation at the speculated entry.  A leaf's exit depends on its
   code and entry alone, both of which its summary key covers, so a
   worker computes exactly what demand would compute at that entry.  Each
   key is first probed at its speculated entry through the engine's one
   summary lookup
   (:meth:`~repro.interproc.engine.InterproceduralEngine.probe_summary`:
   memo, then persistent store); a hit means no worker runs, and demand
   finds the summary itself.  Each result is unpickled on the calling
   thread, and its job's memo facts (every non-call transfer, join and
   widen the worker's DAIG computed) go into the engine's memo table right
   there, whether or not demand later uses the job's exit: a fact is a
   pure domain computation, valid wherever its inputs recur (rule
   Q-Match).  So the first edit of a worker-computed procedure replays
   its unchanged transfers from these facts instead of recomputing them.

3. **Certify** — seed each completed job's exit into the engine's summary
   memo under its ``(procedure, context, deep code digest, entry)`` key,
   then demand every root's exit through
   :meth:`~repro.interproc.engine.InterproceduralEngine.query`.  The
   engine's own demand derives every entry; a seed is consumed only where
   demand derives exactly the entry it was computed at, and is dead weight
   elsewhere.  So answers, engine keys and digests are a sequential
   engine's by construction, and the coordinator writes nothing into the
   entry ledger.  Each consumed seed is then written through to the
   store, as demand would have written the summary it computed, so the
   store holds what a sequential open writes.  The DAIGs of the keys whose
   seeds demand consumed are built (structure only, no evaluation), so the
   first edit after the open does not pay for the build.

Recursive SCCs and everything reachable through them are never
speculated: their summaries are entry-dependent fixpoints whose
convergence the sequential engine owns.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict, Set, Tuple

from ..ai.interpreter import analyze_cfg
from ..interproc.engine import InterproceduralEngine, _key_order
from .pool import PersistentWorkerPool
from .worker import (JobPayload, JobResult, edge_statements,
                     run_summary_job_pickled)

SummaryKey = Tuple[str, Any]


class ParallelCoordinator:
    """Warms one :class:`InterproceduralEngine` through a worker pool."""

    def __init__(
        self,
        engine: InterproceduralEngine,
        pool: PersistentWorkerPool,
    ) -> None:
        self.engine = engine
        self.pool = pool
        self.report: Dict[str, Any] = {}
        #: Store keys the dispatch probes computed, reused when consumed
        #: seeds are written through to the store.
        self._store_keys: Dict[SummaryKey, str] = {}
        #: Memo facts from the workers' DAIGs that the dispatch installed.
        self._facts_installed = 0

    # -- phase 1: speculation ----------------------------------------------------

    def _speculate(self) -> Dict[str, Any]:
        engine = self.engine
        cg = engine.callgraph
        domain = engine.domain
        policy = engine.policy
        cfgs = engine.cfgs
        # Everything reachable *through* a recursive procedure receives
        # contributions the speculation cannot predict (they depend on a
        # summary fixpoint); exclude the whole downstream cone.
        excluded = cg.recursive_procedures()
        frontier = sorted(excluded)
        while frontier:
            current = frontier.pop()
            for callee in cg.edges.get(current, set()):
                if callee not in excluded:
                    excluded.add(callee)
                    frontier.append(callee)

        spec_entries: Dict[SummaryKey, Any] = {}
        spec_contribs: Dict[SummaryKey, Any] = {}
        by_proc: Dict[str, Set[Any]] = {}
        roots: Dict[SummaryKey, Any] = dict(engine._root_entries)
        for (name, context), state in roots.items():
            by_proc.setdefault(name, set()).add(context)

        # Callers first; a recursive component, whose members the order
        # keeps together, is excluded whole.
        for proc in reversed(cg.topological_order()):
            if proc in excluded:
                continue
            for context in sorted(by_proc.get(proc, ()), key=repr):
                key: SummaryKey = (proc, context)
                entry = roots.get(key)
                contributed = spec_contribs.get(key)
                if contributed is not None:
                    entry = (contributed if entry is None
                             else domain.join(entry, contributed))
                if entry is None:
                    continue  # unreachable under this policy
                spec_entries[key] = entry
                sites = cg.call_sites.get(proc, ())
                if not sites:
                    continue
                # One classical batch pass predicts every call site's state;
                # ``domain.transfer`` on a call IS havoc, matching what the
                # sequential engine does for unknown callees.
                values = analyze_cfg(cfgs[proc], domain, entry)
                for src, stmt in sites:
                    callee = stmt.function
                    if callee not in cfgs or callee in excluded:
                        continue
                    state = values.get(src)
                    if state is None or domain.is_bottom(state):
                        continue  # the call never executes under ``entry``
                    cctx = policy.callee_context(context, (proc, stmt))
                    callee_key: SummaryKey = (callee, cctx)
                    contribution = domain.call_entry(
                        state, cfgs[callee].params, stmt.args)
                    previous = spec_contribs.get(callee_key)
                    spec_contribs[callee_key] = (
                        contribution if previous is None
                        else domain.join(previous, contribution))
                    by_proc.setdefault(callee, set()).add(cctx)

        return {"entries": spec_entries, "roots": roots, "excluded": excluded}

    # -- phase 2: leaf dispatch --------------------------------------------------

    def _dispatch(self, spec: Dict[str, Any]) -> Tuple[
            Dict[SummaryKey, JobResult], Dict[SummaryKey, str]]:
        """Run every speculated leaf key the summary tiers cannot serve.

        Returns the jobs' results and, for each served key, the tier
        (``"memo"`` or ``"store"``) that holds its summary.  A root is not
        dispatched: a query evaluates its DAIG directly and never consults
        its summary.
        """
        engine = self.engine
        spec_entries: Dict[SummaryKey, Any] = spec["entries"]
        served: Dict[SummaryKey, str] = {}
        futures = []
        for key in sorted(spec_entries, key=_key_order):
            name, context = key
            if engine.callgraph.edges.get(name) or key in spec["roots"]:
                continue
            tier, store_key = engine.probe_summary(
                name, context, spec_entries[key])
            if store_key is not None:
                self._store_keys[key] = store_key
            if tier is not None:
                served[key] = tier
                continue
            payload = JobPayload(
                procedure=name,
                cfg=engine.cfgs[name].copy(),
                context=context,
                entry=spec_entries[key],
                domain_spec=engine.domain.name,
            )
            futures.append((key, self.pool.submit(run_summary_job_pickled,
                                                  payload)))
        # Unpickling here re-interns the states on this thread, the only
        # one that interns.  Every job that did not raise leaves its memo
        # facts behind, whether or not demand uses its exit.
        results: Dict[SummaryKey, JobResult] = {}
        for key, future in futures:
            try:
                result = pickle.loads(future.result())
            except Exception as exc:  # a worker died mid-job
                result = JobResult(key=key, error=repr(exc))
            if result.error is None:
                self._facts_installed += engine.memo.install(
                    edge_statements(result.facts, engine.cfgs[key[0]]))
            result.facts = []  # the memo keeps what it needs
            results[key] = result
        return results, served

    # -- phase 3: seed, demand, build ----------------------------------------------

    def _certify(self, spec: Dict[str, Any],
                 results: Dict[SummaryKey, JobResult]) -> Set[SummaryKey]:
        """Seed the jobs' exits, demand every root, then write the seeds
        demand consumed through to the store and build their keys' DAIGs;
        returns those keys."""
        engine = self.engine
        domain = engine.domain
        spec_entries: Dict[SummaryKey, Any] = spec["entries"]
        seeded = [key for key, result in results.items()
                  if result.error is None]
        for key in seeded:
            engine.seed_summary(key[0], key[1], spec_entries[key],
                                results[key].exit_state)
        for name, context in sorted(spec["roots"], key=_key_order):
            engine.query(name, engine.cfgs[name].exit, context)
        # Demand created the engine of every key it reached, and looked its
        # summary up at its final target: a target equal to the seeded
        # entry hit the seed.
        consumed: Set[SummaryKey] = set()
        for key in seeded:
            target = engine._entry_target.get(key)
            entry = spec_entries[key]
            if target is not None and (target is entry
                                       or domain.equal(target, entry)):
                consumed.add(key)
                name, context = key
                engine._install_summary(
                    key, (name, context, engine.deep_digest(name), entry),
                    results[key].exit_state, write_store=True,
                    store_key=self._store_keys.get(key))
                engine.engines[key].materialize()
        return consumed

    # -- driver -------------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Warm the engine; returns a report of what each phase did."""
        engine = self.engine

        started = time.perf_counter()
        spec = self._speculate()
        speculate_seconds = time.perf_counter() - started
        engine.parallel_phase["speculate"] += speculate_seconds

        started = time.perf_counter()
        results, served = self._dispatch(spec)
        dispatch_seconds = time.perf_counter() - started
        engine.parallel_phase["dispatch"] += dispatch_seconds

        started = time.perf_counter()
        consumed = self._certify(spec, results)
        certify_seconds = time.perf_counter() - started
        engine.parallel_phase["certify"] += certify_seconds

        jobs = len(results)
        store_served = sum(tier == "store" for tier in served.values())
        cutoff_avoided = sum(tier == "memo" for tier in served.values())
        engine.counters["interproc_parallel_jobs"] += jobs
        engine.counters["interproc_parallel_cutoff_avoided"] += cutoff_avoided

        self.report = {
            "excluded_procedures": sorted(spec["excluded"]),
            "jobs": jobs,
            # Seeds demand consumed, plus keys a summary tier served.
            "certified": len(consumed) + len(served),
            # Memo facts the workers' DAIGs handed back that were new to
            # the engine's memo table.
            "memo_facts": self._facts_installed,
            # Jobs whose exit demand did not use (failed ones included).
            "knocked_out": jobs - len(consumed),
            # Keys answered straight from the persistent store (no worker
            # ran).
            "store_served": store_served,
            # Keys answered from the engine's own summary memo (survived or
            # re-keyed across edits by early cutoff): no worker, no store
            # round trip.
            "cutoff_avoided": cutoff_avoided,
            "errors": {repr(key): result.error
                       for key, result in results.items()
                       if result.error is not None},
            "cpu_durations": {repr(key): result.cpu_seconds
                              for key, result in results.items()},
            "phase_seconds": {
                "speculate": speculate_seconds,
                "dispatch": dispatch_seconds,
                "certify": certify_seconds,
            },
        }
        return self.report
