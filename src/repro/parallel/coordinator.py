"""Speculate / dispatch / certify: the parallel summary coordinator.

The sequential interprocedural engine derives each callee's entry state
*during* evaluation (the join of its call sites' contributions), which
serializes summary computation along the demand path.  The coordinator
breaks that serialization in three phases:

1. **Speculate** — walk the call graph callers-first, batch-analyzing each
   procedure with havoc at calls to *predict* the entry state every
   reachable ``(procedure, context)`` key will end up with.  Prediction is
   cheap (one classical pass per procedure with call sites) and usually
   exact — havoc only matters when a call's return value feeds a later
   call's arguments.

2. **Dispatch** — cut the SCC condensation into antichain waves
   (:meth:`~repro.interproc.callgraph.CallGraph.condensation_waves`) and
   ship each wave's speculated keys to the worker pool, leaves first, so
   every job receives the exit summaries of the callees computed by
   earlier waves.  Workers evaluate full DAIGs; jobs in one wave share no
   call path, so they run concurrently without coordination.  Each key is
   first probed at its speculated entry through the engine's one summary
   lookup (:meth:`~repro.interproc.engine.InterproceduralEngine.probe_summary`:
   memo, then persistent store) — a hit short-circuits the worker entirely
   (the exit becomes a ``served_by`` result, certified unconditionally
   because entry-keyed seeds at underived entries are inert).  Served
   exits are not shipped to workers, so a job calling such a key comes back
   ``incomplete`` and is recomputed on demand.

3. **Certify** — a knock-out fixpoint over the workers' evidence: a key's
   result is certified only if its job completed, every summary it
   consumed is certified, every speculated caller is certified, no site
   re-grew its contribution (the sequential engine may delay-widen there),
   its entry was not joined from *unequal* contributions of several
   sources (sequential demand order decides which intermediate exits such
   a callee's consumers capture), and the join of the certified callers'
   *reported* contributions equals the dispatched entry exactly.  Certified results are installed into the
   live engine — engines pre-built, contributions replayed, exit summaries
   seeded into the shared memo table under the same ``(procedure, context,
   version, entry)`` keys sequential evaluation derives — so subsequent
   demand hits them without ever evaluating the callee DAIGs in-process.
   Everything else is discarded: the sequential engine recomputes it on
   demand, which is why parallelism can change only latency, never
   results (``summary_digest`` equality is asserted in the tier-1 tests).

Recursive SCCs and everything reachable only through them are never
speculated: their summaries are entry-dependent fixpoints whose
convergence the sequential engine owns.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..ai.interpreter import analyze_cfg
from ..interproc.engine import InterproceduralEngine
from .pool import PersistentWorkerPool
from .worker import JobPayload, JobResult, run_summary_job

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

    # -- phase 1: speculation ----------------------------------------------------

    def _speculate(self) -> Dict[str, Any]:
        engine = self.engine
        cg = engine.callgraph
        domain = engine.domain
        policy = engine.policy
        cfgs = engine.cfgs
        components = cg.sccs()
        recursive: Set[str] = set()
        for component in components:
            for member in component:
                if len(component) > 1 or member in cg.edges.get(member, set()):
                    recursive.add(member)
        # Everything reachable *through* a recursive procedure receives
        # contributions the speculation cannot predict (they depend on a
        # summary fixpoint); exclude the whole downstream cone.
        excluded = set(recursive)
        frontier = list(recursive)
        while frontier:
            current = frontier.pop()
            for callee in cg.edges.get(current, set()):
                if callee not in excluded:
                    excluded.add(callee)
                    frontier.append(callee)
        callers_first: List[str] = [member
                                    for component in reversed(components)
                                    for member in sorted(component)]

        spec_entries: Dict[SummaryKey, Any] = {}
        spec_contribs: Dict[SummaryKey, Any] = {}
        spec_callers: Dict[SummaryKey, Set[SummaryKey]] = {}
        by_proc: Dict[str, Set[Any]] = {}
        roots: Dict[SummaryKey, Any] = dict(engine._root_entries)
        for (name, context), state in roots.items():
            by_proc.setdefault(name, set()).add(context)

        for proc in callers_first:
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
                    if callee not in cfgs:
                        continue
                    state = values.get(src)
                    if state is None or domain.is_bottom(state):
                        continue  # the call never executes under ``entry``
                    cctx = policy.callee_context(context, (proc, stmt))
                    if callee in excluded:
                        continue
                    callee_key: SummaryKey = (callee, cctx)
                    contribution = domain.call_entry(
                        state, cfgs[callee].params, stmt.args)
                    previous = spec_contribs.get(callee_key)
                    spec_contribs[callee_key] = (
                        contribution if previous is None
                        else domain.join(previous, contribution))
                    spec_callers.setdefault(callee_key, set()).add(key)
                    by_proc.setdefault(callee, set()).add(cctx)

        return {
            "entries": spec_entries,
            "callers": spec_callers,
            "roots": roots,
            "recursive": recursive,
            "excluded": excluded,
            "callers_first": callers_first,
        }

    # -- phase 2: wave dispatch --------------------------------------------------

    def _dispatch(self, spec: Dict[str, Any]) -> Tuple[
            Dict[SummaryKey, JobResult], List[List[SummaryKey]]]:
        engine = self.engine
        cg = engine.callgraph
        spec_entries: Dict[SummaryKey, Any] = spec["entries"]
        excluded: Set[str] = spec["excluded"]
        callee_params = {name: tuple(cfg.params)
                         for name, cfg in engine.cfgs.items()}
        results: Dict[SummaryKey, JobResult] = {}
        wave_jobs: List[List[SummaryKey]] = []
        keys_by_proc: Dict[str, List[SummaryKey]] = {}
        for key in spec_entries:
            keys_by_proc.setdefault(key[0], []).append(key)

        for wave in cg.condensation_waves():
            candidates: List[SummaryKey] = []
            for component in wave:
                if any(member in excluded for member in component):
                    continue
                for member in sorted(component):
                    candidates.extend(sorted(keys_by_proc.get(member, ()),
                                             key=lambda k: repr(k[1])))
            job_keys: List[SummaryKey] = []
            for key in candidates:
                # A summary for exactly this (code, context, entry) in the
                # memo (e.g. re-keyed by a certified value-preserving edit)
                # or the store (a prior run) means no worker needs to run.
                tier, exit_state = engine.probe_summary(
                    key[0], key[1], spec_entries[key])
                if tier is not None:
                    results[key] = JobResult(key=key, exit_state=exit_state,
                                             served_by=tier)
                    continue
                job_keys.append(key)
            if not job_keys:
                continue
            wave_jobs.append(job_keys)
            futures = []
            for key in job_keys:
                name, context = key
                callees = {ckey for site in cg.call_sites.get(name, ())
                           if site[1].function in engine.cfgs
                           for ckey in ((site[1].function,
                                         engine.policy.callee_context(
                                             context, (name, site[1]))),)}
                # Memo- and store-served exits are deliberately *not*
                # shipped as wave summaries: a consumer capturing one could
                # not be re-derived from worker contributions at
                # certification time.
                summaries = {ckey: (spec_entries[ckey],
                                    results[ckey].exit_state)
                             for ckey in callees
                             if ckey in results
                             and results[ckey].error is None
                             and results[ckey].exit_state is not None
                             and results[ckey].served_by is None}
                payload = JobPayload(
                    procedure=name,
                    cfg=engine.cfgs[name].copy(),
                    context=context,
                    entry=spec_entries[key],
                    policy_name=engine.policy.name,
                    domain_spec=engine.domain.name,
                    callee_params=callee_params,
                    summaries=summaries,
                )
                futures.append((key, self.pool.submit(run_summary_job, payload)))
            # Wave barrier: later waves consume these exits.
            for key, future in futures:
                try:
                    results[key] = future.result()
                except Exception as exc:  # a worker died mid-job
                    results[key] = JobResult(key=key, error=repr(exc))
        return results, wave_jobs

    # -- phase 3: certification + installation -----------------------------------

    def _certify(self, spec: Dict[str, Any],
                 results: Dict[SummaryKey, JobResult]) -> Set[SummaryKey]:
        engine = self.engine
        domain = engine.domain
        spec_entries: Dict[SummaryKey, Any] = spec["entries"]
        spec_callers: Dict[SummaryKey, Set[SummaryKey]] = spec["callers"]
        roots: Dict[SummaryKey, Any] = spec["roots"]

        regrew_union: Set[SummaryKey] = set()
        for result in results.values():
            regrew_union.update(result.regrew)

        certified: Set[SummaryKey] = {
            key for key, result in results.items()
            if result.served_by is not None
            or (result.error is None and not result.incomplete
                and result.exit_state is not None
                and key not in regrew_union)}

        def joined_contribution(caller: SummaryKey,
                                key: SummaryKey) -> Optional[Any]:
            sites = results[caller].contribs.get(key)
            if not sites:
                return None
            values = [sites[skey] for skey in sorted(sites)]
            joined = values[0]
            for value in values[1:]:
                joined = domain.join(joined, value)
            return joined

        while True:
            surviving: Set[SummaryKey] = set()
            for key in certified:
                result = results[key]
                if result.served_by is not None:
                    # A stored or memo-served summary is keyed by its
                    # entry: it is consumed only if demanded evaluation
                    # derives exactly that entry, so it needs no
                    # caller/consumer evidence.  (seed_summary re-checks
                    # the live target on install.)
                    surviving.add(key)
                    continue
                if not result.used <= certified:
                    continue  # consumed an uncertified summary
                callers = spec_callers.get(key, set())
                if not callers <= certified:
                    continue  # some caller's contribution is unverified
                parts: List[Any] = []
                site_values: List[Any] = []
                root = roots.get(key)
                if root is not None:
                    parts.append(root)
                    site_values.append(root)
                for caller in sorted(callers, key=repr):
                    sites = results[caller].contribs.get(key)
                    if sites:
                        site_values.extend(sites[skey]
                                           for skey in sorted(sites))
                    contribution = joined_contribution(caller, key)
                    if contribution is not None:
                        parts.append(contribution)
                if not parts:
                    continue
                # Demand-order sensitivity: when the entry joins *unequal*
                # evidence from several sources, the sequential engine's
                # demand order decides which intermediate exit each caller
                # captures into its memo (summary-exit changes without an
                # entry change do not cascade to callers), and a wave
                # evaluation at the final joined entry cannot reproduce
                # that.  Knock the key out; the ``used``/caller conditions
                # above propagate the knock-out to every consumer.
                if len(site_values) > 1 and any(
                        value is not site_values[0]
                        and not domain.equal(value, site_values[0])
                        for value in site_values[1:]):
                    continue
                entry = parts[0]
                for part in parts[1:]:
                    entry = domain.join(entry, part)
                dispatched = spec_entries[key]
                if entry is not dispatched and not domain.equal(
                        entry, dispatched):
                    continue  # speculation missed the real entry
                live_target = engine._entry_target.get(key)
                if (live_target is not None and live_target is not dispatched
                        and not domain.equal(live_target, dispatched)):
                    continue  # the live engine already derived a different entry
                surviving.add(key)
            if surviving == certified:
                break
            certified = surviving

        # Install: pre-build certified engines (structure only) so call
        # sites index for later edits, replay worker-derived contributions
        # (a seeded caller is never evaluated in-process, so its callees
        # would otherwise miss its entry contributions), then seed exits.
        proc_rank = {proc: rank
                     for rank, proc in enumerate(spec["callers_first"])}

        def order(key: SummaryKey) -> Tuple[int, str]:
            return (proc_rank.get(key[0], len(proc_rank)), repr(key[1]))

        installed = sorted(certified, key=order)
        for key in installed:
            engine.ensure_engine(key[0], key[1], spec_entries[key])
        for key in installed:
            for callee_key, sites in sorted(results[key].contribs.items(),
                                            key=lambda item: repr(item[0])):
                if callee_key[0] not in engine.cfgs:
                    continue
                for skey in sorted(sites):
                    engine.record_call_contribution(
                        key, skey, callee_key[0], callee_key[1], sites[skey])
        for key in installed:
            target = engine._entry_target.get(key)
            if target is None:
                continue
            engine.seed_summary(key[0], key[1], target,
                                results[key].exit_state)
        return certified

    # -- driver -------------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        """Warm the engine; returns a report of what each phase did."""
        engine = self.engine

        started = time.perf_counter()
        spec = self._speculate()
        speculate_seconds = time.perf_counter() - started
        engine.parallel_phase["speculate"] += speculate_seconds

        started = time.perf_counter()
        results, wave_jobs = self._dispatch(spec)
        dispatch_seconds = time.perf_counter() - started
        wave_sizes = [len(wave) for wave in wave_jobs]
        engine.parallel_phase["dispatch"] += dispatch_seconds

        started = time.perf_counter()
        certified = self._certify(spec, results)
        certify_seconds = time.perf_counter() - started
        engine.parallel_phase["certify"] += certify_seconds

        jobs = sum(wave_sizes)
        engine.counters["interproc_parallel_jobs"] += jobs
        engine.counters["interproc_parallel_waves"] += len(wave_sizes)

        cpu_durations: Dict[str, float] = {}
        errors: Dict[str, str] = {}
        incomplete = 0
        store_served = 0
        cutoff_avoided = 0
        for key, result in sorted(results.items(), key=lambda kv: repr(kv[0])):
            cpu_durations[repr(key)] = result.cpu_seconds
            if result.error is not None:
                errors[repr(key)] = result.error
            if result.incomplete:
                incomplete += 1
            if result.served_by == "store":
                store_served += 1
            if result.served_by == "memo":
                cutoff_avoided += 1
        engine.counters["interproc_parallel_cutoff_avoided"] += cutoff_avoided

        self.report = {
            "excluded_procedures": sorted(spec["excluded"]),
            "jobs": jobs,
            "waves": len(wave_sizes),
            "wave_sizes": wave_sizes,
            "wave_jobs": [[repr(key) for key in wave] for wave in wave_jobs],
            "jobs_per_wave": (jobs / len(wave_sizes)) if wave_sizes else 0.0,
            "certified": len(certified),
            "knocked_out": len(results) - len(certified),
            "incomplete": incomplete,
            # Keys answered straight from the persistent store (no worker
            # ran).
            "store_served": store_served,
            # Keys answered from the engine's own summary memo (survived or
            # re-keyed across edits by early cutoff): no worker, no store
            # round trip.
            "cutoff_avoided": cutoff_avoided,
            "errors": errors,
            "cpu_durations": cpu_durations,
            "phase_seconds": {
                "speculate": speculate_seconds,
                "dispatch": dispatch_seconds,
                "certify": certify_seconds,
            },
        }
        return self.report
