"""Context-sensitive interprocedural demanded abstract interpretation.

Following Section 7.1 of the paper — and extending it with a *demanded
summary* architecture so that the O(affected-region) edit invariant holds
across procedure boundaries:

* One engine per *(procedure, context)* pair, whose DAIG is built only
  when it is first evaluated (a summary served from the memo or the store
  never builds its callee's DAIG), but one **shared,
  immutable-by-convention CFG** (and hence one
  :class:`~repro.lang.structure.CfgStructure` cache and one structure
  analysis) per *procedure*, regardless of how many contexts analyze it.
* **Caller dirtying through the call graph**: an edit to a callee walks
  the call graph's reverse edges, and each caller engine with a built DAIG
  dirties exactly its cells that call the callee
  (:meth:`~repro.interproc.callgraph.CallGraph.call_cells`, derived per
  procedure on first demand): no per-edit scan over any engine's DAIG ref
  set.  A caller without a DAIG has no call cells to dirty, so the walk
  passes through it to the callers its served summaries reached.  Every
  edit dirties its callers this way; early cutoff (``cutoff=True``) is
  the DAIGs' own: a re-demanded cell whose value comes back unchanged
  restores its dependents instead of recomputing them.
* **Procedure summaries** keyed by ``(procedure, context, deep code
  digest, entry state)`` in the shared :class:`~repro.daig.memo.MemoTable`:
  repeated calls at a previously seen entry state reuse the memoized exit
  state without touching the callee's DAIG, and entry-state changes leave
  the callee engine untouched until a summary miss actually needs it
  (lazy entry synchronization).  The digest component is
  *content-addressed* — a per-procedure hash of the CFG composed with
  transitive-callee digests per call-graph SCC, maintained incrementally
  in O(dependent procedures) per edit — so memo keys are stable across
  processes and across engines analyzing identical code.
* An optional persistent :class:`~repro.store.SummaryStore` as a
  **write-through second tier** behind the memo table: every memoized
  summary is also written to the store under the content-addressed key,
  and a memo miss consults the store before touching the callee's DAIG —
  a restarted engine, or a second engine on the same code, warm-starts
  from hits (``interproc_store_hits``) and performs near-zero transfers.
  Corrupt or incompatible blobs degrade to a miss;
  :meth:`collect_garbage` expires the store entries of orphaned contexts
  so the store does not grow without bound.
* **Seeds** as a third tier behind the store: exits the parallel
  coordinator's workers computed (:meth:`seed_summary`).  Only a miss in
  both tiers above takes one, in place of evaluating the callee, so a
  coordinated open reads, writes and counts what a sequential one does.
* **Recursion** via a summary fixpoint over call-graph SCCs: a recursive
  call consumes the current exit-summary assumption (⊥ initially); the
  engine iterates, widening the assumption and re-dirtying exactly the
  dependent call cells, until the computed exit is covered by the
  assumption.

Entry states are maintained as the join of per-call-site *contributions*,
each also filed in a ledger under the caller that recorded it.  An edit
retracts every contribution its edited and dirtied engines recorded
(a removed call site included), in sorted key order, and re-demand
re-records the live ones; when a callee's entry target or exit summary
changes, the dependent call cells are dirtied (the interprocedural
analogue of E-Propagate), so every evaluated call site ends up consistent
with the callee's final entry/exit summary.
"""

from __future__ import annotations

import weakref
from typing import (Any, Callable, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from ..daig.edit import dirty_forward
from ..daig.engine import DaigEngine
from ..daig.memo import MemoTable
from ..daig.names import Name, stmt_name
from ..domains.base import AbstractDomain
from ..lang import ast as A
from ..lang.cfg import Cfg, Loc
from ..store import (
    StoreDecodeError,
    SummaryStore,
    canonical_bytes,
    cfg_digest,
    component_digest,
    decode_summary,
    encode_summary,
    open_store,
    summary_store_key,
)
from .callgraph import CallGraph
from .context import ENTRY_CONTEXT, Context, ContextInsensitive, ContextPolicy

ProcedureKey = Tuple[str, Context]
#: Identifies a statement cell within one engine: ``(src, dst, index)``.
SiteKey = Tuple[int, int, int]
#: Identifies a call site globally: the engine it lives in plus its cell.
SiteId = Tuple[ProcedureKey, SiteKey]

#: Safety bound on SCC summary-fixpoint rounds; a convergent widening never
#: comes close, so exceeding it signals a domain bug.
MAX_SUMMARY_ROUNDS = 1000


class SummaryDivergenceError(Exception):
    """An SCC summary fixpoint failed to converge within the round bound."""


def _key_order(key: ProcedureKey) -> Tuple[str, str]:
    # Contexts are opaque hashables (a custom policy may use unorderable
    # values), so determinism comes from sorting on (name, repr(context)).
    return (key[0], repr(key[1]))


class InterproceduralEngine:
    """One DAIG per (procedure, context), with demanded summaries."""

    def __init__(
        self,
        cfgs: Dict[str, Cfg],
        domain: AbstractDomain,
        policy: Optional[ContextPolicy] = None,
        entry: str = "main",
        store: Optional[Union[SummaryStore, str]] = None,
        cutoff: bool = True,
    ) -> None:
        if entry not in cfgs:
            raise KeyError("no procedure named %r" % (entry,))
        self.cfgs = cfgs
        self.domain = domain
        #: Early cutoff: every DAIG stops recomputing at the first cell whose
        #: new value is its shadow (see :mod:`repro.daig.graph`).  An edit
        #: dirties its callers' call cells (:meth:`edit_procedure`), and the
        #: cutoff ends the wave wherever a recomputed value comes back
        #: unchanged.  Disabled only for baseline measurements.
        self.cutoff = cutoff
        self.policy = policy if policy is not None else ContextInsensitive()
        self.entry = entry
        self.callgraph = CallGraph(cfgs)
        #: The persistent second tier behind the memo table (optional).  A
        #: string is parsed as a ``"sqlite:<path>"``-style spec.
        self.store: Optional[SummaryStore] = (
            open_store(store) if isinstance(store, str) else store)
        #: One memo table shared by every engine: transfer results and exit
        #: summaries alike.
        self.memo = MemoTable()
        self.engines: Dict[ProcedureKey, DaigEngine] = {}
        #: The entry state each engine *should* hold: the join of its call
        #: sites' contributions (plus a root entry for explicitly queried
        #: procedures).  Synchronized into the DAIG lazily, on summary miss.
        self._entry_target: Dict[ProcedureKey, Any] = {}
        self._root_entries: Dict[ProcedureKey, Any] = {}
        self._contribs: Dict[ProcedureKey, Dict[SiteId, Any]] = {}
        #: The same contributions filed under the caller that recorded them
        #: (caller key -> callee key -> site keys), so retraction drops
        #: exactly what a caller recorded.
        self._recorded: Dict[ProcedureKey, Dict[ProcedureKey, Set[SiteKey]]] = {}
        #: How often each call site has grown its callee's entry target —
        #: the delayed-widening trigger (see :meth:`_refresh_entry_target`).
        self._entry_growths: Dict[Tuple[ProcedureKey, SiteId], int] = {}
        #: Keys whose every contribution was retracted: their target is a
        #: stale upper bound and the next recorded contribution replaces it
        #: exactly instead of joining into it.
        self._entry_stale: Set[ProcedureKey] = set()
        self._proc_keys: Dict[str, List[ProcedureKey]] = {}
        #: Content digests: per-procedure CFG hash, and the *deep* digest
        #: covering the procedure and its transitive callees (shared per
        #: call-graph SCC) — the summary-staleness stamp, stable across
        #: processes.  Both lazily (re)computed; edits pop exactly the
        #: O(dependent procedures) stale entries.
        self._code_digest: Dict[str, str] = {}
        self._deep_digest: Dict[str, str] = {}
        #: Store keys written/consulted per (procedure, context), so
        #: :meth:`collect_garbage` can expire a retired context's
        #: persistent entries (bounded store growth).
        self._store_keys: Dict[ProcedureKey, Set[str]] = {}
        #: Memoized summary keys per procedure, so a digest change can purge
        #: the now-unreachable entries instead of leaking them in an
        #: unbounded memo table.
        self._summary_keys: Dict[str, Set[Tuple]] = {}
        #: Exits computed off the demand path, under their summary keys
        #: (see :meth:`seed_summary`).
        self._seeds: Dict[Tuple, Any] = {}
        # SCC summary-fixpoint state.
        self._active: Set[ProcedureKey] = set()
        self._assumed: Dict[ProcedureKey, Any] = {}
        self._assumption_reads: Dict[ProcedureKey, int] = {}
        #: Keys whose engine was dirtied (cells or entry) since their last
        #: exhaustive evaluation; drained by :meth:`analyze_everything`.
        self._dirty_keys: Set[ProcedureKey] = set()
        self.counters: Dict[str, int] = {
            "interproc_callsite_dirties": 0,
            "interproc_engines_built": 0,
            "interproc_summary_hits": 0,
            "interproc_summary_misses": 0,
            "interproc_summary_reentries": 0,
            "interproc_fixpoint_rounds": 0,
            "interproc_entry_syncs": 0,
            "interproc_entry_updates": 0,
            "interproc_entry_widenings": 0,
            # Summary jobs dispatched to the worker pool: 0 in sequential
            # mode (nothing here dispatches; the coordinator in
            # :mod:`repro.parallel` increments it).
            "interproc_parallel_jobs": 0,
            # Persistent-store tier: hits/misses of the second-tier lookup
            # (only consulted on a memo miss, so hits correspond to
            # summaries served without touching any callee DAIG), blobs
            # written through, entries expired by collect_garbage, and
            # blobs that failed to decode (corruption degrades to a miss).
            "interproc_store_hits": 0,
            "interproc_store_misses": 0,
            "interproc_store_writes": 0,
            "interproc_store_expired": 0,
            "interproc_store_errors": 0,
            # Always 0, since every edit dirties its callers; kept because
            # editbench's counts read it.
            "interproc_summary_cutoffs": 0,
        }
        entry_key = (entry, ENTRY_CONTEXT)
        initial = domain.initial(cfgs[entry].params)
        self._root_entries[entry_key] = initial
        self._engine_for(entry, ENTRY_CONTEXT, initial)

    # -- engine management ---------------------------------------------------------

    def _engine_for(self, name: str, context: Context, entry_state: Any) -> DaigEngine:
        key = (name, context)
        if key in self.engines:
            return self.engines[key]
        # The CFG is *shared* among every context of the procedure: one
        # structure cache, one dominator/loop analysis, regardless of how
        # many contexts the policy creates.  (Mutation goes through
        # `edit_procedure`, which splices every sibling engine.)
        cfg = self.cfgs[name]
        engine = DaigEngine(
            cfg,
            self.domain,
            memo=self.memo,
            entry_state=entry_state,
            call_transfer=self._make_call_transfer(key),
            cutoff=self.cutoff,
        )
        self.engines[key] = engine
        self._entry_target[key] = entry_state
        self._proc_keys.setdefault(name, []).append(key)
        self.counters["interproc_engines_built"] += 1
        return engine

    def _make_call_transfer(
            self, caller_key: ProcedureKey) -> Callable[[A.CallStmt, Any, Name], Any]:
        # The DAIG engines this one owns hold the hook, so it refers back
        # weakly: a dropped engine is freed at once by reference counting
        # instead of waiting, with every DAIG it built, for a full cyclic
        # collection that then pauses whatever step it lands in.
        owner = weakref.proxy(self)

        def call_transfer(stmt: A.CallStmt, state: Any, site: Name) -> Any:
            return owner._analyze_call(caller_key, stmt, state, site)
        return call_transfer

    # -- content-addressed code digests ----------------------------------------------

    def code_digest(self, name: str) -> str:
        """Content hash of one procedure's CFG (statements + edges).

        Cached; invalidated only for the edited procedure itself.  Stable
        across processes and across reparses of identical source.
        """
        cached = self._code_digest.get(name)
        if cached is not None:
            return cached
        digest = cfg_digest(self.cfgs[name])
        self._code_digest[name] = digest
        return digest

    def deep_digest(self, name: str) -> str:
        """Content hash of a procedure *and* its transitive callees.

        The summary-staleness component of every memo/store key.  Computed
        per call-graph SCC — every member of a recursive component shares
        one digest composed from the members' code digests plus the deep
        digests of the components they call into — by an explicit-stack
        post-order walk over the condensation DAG.  Cached per procedure;
        an edit pops exactly ``{procedure} ∪ transitive_callers`` (see
        :meth:`_invalidate_summaries`), so recomputation after an edit is
        O(dependent procedures), not O(program).
        """
        cached = self._deep_digest.get(name)
        if cached is not None:
            return cached
        cg = self.callgraph

        def external_callees(component) -> List[str]:
            return sorted({callee for member in component
                           for callee in cg.edges.get(member, ())
                           if callee not in component})

        stack: List[Tuple[str, bool]] = [(name, False)]
        while stack:
            proc, ready = stack.pop()
            if proc in self._deep_digest:
                continue
            component = cg.scc_of(proc)
            callees = external_callees(component)
            if not ready:
                stack.append((proc, True))
                stack.extend((callee, False) for callee in callees
                             if callee not in self._deep_digest)
                continue
            digest = component_digest(
                tuple((member, self.code_digest(member))
                      for member in sorted(component)),
                tuple(self._deep_digest[callee] for callee in callees))
            for member in component:
                self._deep_digest[member] = digest
        return self._deep_digest[name]

    # -- entry-state maintenance -------------------------------------------------------

    def _joined_contributions(self, key: ProcedureKey) -> Optional[Any]:
        """The exact join of a callee's live contributions (and root entry),
        or None when it has none."""
        parts: List[Any] = []
        root = self._root_entries.get(key)
        if root is not None:
            parts.append(root)
        parts.extend(self._contribs.get(key, {}).values())
        if not parts:
            return None
        joined = parts[0]
        for part in parts[1:]:
            joined = self.domain.join(joined, part)
        return joined

    def _set_entry_target(self, key: ProcedureKey, target: Any) -> None:
        self._entry_target[key] = target
        self.counters["interproc_entry_updates"] += 1
        self._dirty_keys.add(key)
        # The callee's results (for any consumer) are now stale.
        self._dirty_callers_of(key[0])

    def _refresh_entry_target(self, key: ProcedureKey,
                              cause: Optional[SiteId] = None) -> None:
        """Grow a callee's target entry after a contribution update.

        The growth path never shrinks the target, and uses *per-site
        delayed widening*: the first time a given call site grows the
        target the new contribution is joined exactly; from its second
        growth on, the target is widened.  A site that grows its callee's
        entry repeatedly is, by construction, part of a feedback cycle —
        recursion through the call graph, or a data cycle where the
        callee's exit flows back into its own entry through the caller —
        and widening there is what makes both the SCC summary fixpoint and
        the cross-procedure re-dirtying converge, while single-shot growth
        (the common acyclic case) keeps exact joins.
        """
        joined = self._joined_contributions(key)
        if joined is None:
            return
        if key in self._entry_stale:
            # Every previous contribution was retracted by an edit; the
            # current target is a stale upper bound, so the first fresh
            # contribution replaces it exactly.
            self._entry_stale.discard(key)
            target = self._entry_target[key]
            if joined is not target and not self.domain.equal(joined, target):
                self._set_entry_target(key, joined)
            return
        current = self._entry_target[key]
        if self.domain.leq(joined, current):
            return
        grown = self.domain.join(current, joined)
        if cause is not None:
            growth_key = (key, cause)
            growths = self._entry_growths.get(growth_key, 0)
            self._entry_growths[growth_key] = growths + 1
            if growths >= 1:
                grown = self.domain.widen(current, grown)
                self.counters["interproc_entry_widenings"] += 1
        self._set_entry_target(key, grown)

    def _recompute_entry_target(self, key: ProcedureKey) -> bool:
        """Recompute a callee's target entry exactly, allowing shrinkage.

        Called only on the retraction paths (edits, garbage collection),
        where dropping stale contributions is what restores from-scratch
        precision; evaluation-time growth goes through
        :meth:`_refresh_entry_target` and is monotone.  Returns whether the
        procedure's results may now change (the target moved, or became a
        stale upper bound awaiting replacement) — in which case the
        caller must also retract *this* key's own contributions.
        """
        joined = self._joined_contributions(key)
        if joined is None:
            # Nothing live contributes to this key anymore; keep the stale
            # target as an upper bound for direct queries, but let the next
            # recorded contribution replace it exactly.
            already_stale = key in self._entry_stale
            self._entry_stale.add(key)
            self._dirty_keys.add(key)
            return not already_stale
        self._entry_stale.discard(key)
        current = self._entry_target[key]
        if joined is current or self.domain.equal(joined, current):
            return False
        self._set_entry_target(key, joined)
        return True

    def _retract_site(self, callee_key: ProcedureKey, site_id: SiteId) -> bool:
        """Drop one site's contribution to one callee context.

        Returns True when the callee's results may have changed (so the
        retraction must cascade to the callee's own call sites)."""
        contribs = self._contribs.get(callee_key)
        if contribs is None or site_id not in contribs:
            return False
        del contribs[site_id]
        self._entry_growths.pop((callee_key, site_id), None)
        return self._recompute_entry_target(callee_key)

    def _sync_entry(self, key: ProcedureKey) -> None:
        """Write the target entry into the engine's DAIG if it drifted.

        Deliberately lazy: a summary hit never touches the callee's DAIG, so
        entry-state churn that resolves to previously seen states does not
        re-dirty whole callee analyses.
        """
        target = self._entry_target.get(key)
        if target is None:
            return
        engine = self.engines[key]
        current = engine.builder.entry_state
        if current is target or self.domain.equal(current, target):
            return
        engine.set_entry_state(target)
        self._dirty_keys.add(key)
        self.counters["interproc_entry_syncs"] += 1

    # -- the call transfer --------------------------------------------------------------

    def _analyze_call(self, caller_key: ProcedureKey, stmt: A.CallStmt,
                      state: Any, site: Name) -> Any:
        callee = stmt.function
        if callee not in self.cfgs:
            # Unknown (external) callee: fall back to the domain's own
            # intraprocedural havoc semantics.
            return self.domain.transfer(stmt, state)
        caller_name, caller_context = caller_key
        context = self.policy.callee_context(caller_context, (caller_name, stmt))
        callee_cfg = self.cfgs[callee]
        entry_state = self.domain.call_entry(state, callee_cfg.params, stmt.args)
        callee_key = (callee, context)
        skey: SiteKey = (site.loc, site.aux, site.index)
        self.record_call_contribution(caller_key, skey, callee, context,
                                      entry_state)
        if callee_key in self._active:
            # A recursive call while the callee's own summary is being
            # computed: consume the current assumption (⊥ on the first
            # round); the fixpoint driver re-dirties this cell if the
            # assumption later widens.
            self.counters["interproc_summary_reentries"] += 1
            self._assumption_reads[callee_key] = (
                self._assumption_reads.get(callee_key, 0) + 1)
            callee_exit = self._assumed.get(callee_key, self.domain.bottom())
        else:
            callee_exit = self._callee_exit(callee_key)
        return self.domain.call_return(state, callee_exit, stmt.target, stmt.args)

    def record_call_contribution(self, caller_key: ProcedureKey, skey: SiteKey,
                                 callee: str, context: Context,
                                 entry_state: Any) -> None:
        """Record one call site's entry-state contribution to a callee.

        Evaluating a call cell records through here before demanding the
        callee's exit (:meth:`_analyze_call`); nothing else adds to the
        entry ledger.
        """
        callee_key = (callee, context)
        self._engine_for(callee, context, entry_state)
        site_id: SiteId = (caller_key, skey)
        contribs = self._contribs.setdefault(callee_key, {})
        previous = contribs.get(site_id)
        if previous is None:
            self._recorded.setdefault(caller_key, {}).setdefault(
                callee_key, set()).add(skey)
        # A site's contribution grows monotonically *within* a program
        # version (caller loop iterates re-evaluate the same site with
        # growing states; replacing rather than joining would make entry
        # targets oscillate and defeat loop convergence).  Retraction —
        # which is what restores precision — happens only on edits.
        updated = (entry_state if previous is None
                   else self.domain.join(previous, entry_state))
        if previous is None or (previous is not updated
                                and not self.domain.equal(previous, updated)):
            contribs[site_id] = updated
            self._refresh_entry_target(callee_key, cause=site_id)

    def _callee_exit(self, key: ProcedureKey) -> Any:
        """The callee's exit summary at its current target entry state.

        Memoized in the shared table under ``(procedure, context, deep
        code digest, entry state)``; a memo miss consults the persistent
        store (second tier) before touching the callee's engine, so only a
        miss in *both* tiers evaluates the callee's DAIG, or takes the
        seed filed under the key instead (third tier).
        """
        name, context = key
        target = self._entry_target[key]
        digest = self.deep_digest(name)
        memo_args = (name, context, digest, target)
        found, cached = self.memo.lookup("summary", memo_args)
        if found:
            self.counters["interproc_summary_hits"] += 1
            return cached
        store_key: Optional[str] = None
        if self.store is not None:
            exit_state, store_key = self._store_lookup(memo_args)
            if exit_state is not None:
                # Install through the same path memoization uses — the
                # callee's DAIG is never touched — but do not write the
                # blob back (it came from the store).
                self._install_summary(key, memo_args, exit_state,
                                      write_store=False, store_key=store_key)
                return exit_state
        self.counters["interproc_summary_misses"] += 1
        engine = self.engines[key]
        self._sync_entry(key)
        seed = self._seeds.pop(memo_args, None)
        if seed is not None:
            # A worker evaluated this key's DAIG at this very entry: build
            # the DAIG demand would have evaluated, and take its exit.
            engine.materialize()
            exit_state = seed
        elif self.callgraph.is_recursive(name):
            exit_state = self._fixpoint_exit(key, engine)
        else:
            exit_state = engine.query_exit()
        if not self._active:
            # Memoize only assumption-free results: while any SCC fixpoint
            # is still iterating, exits computed in its scope may depend on
            # a provisional (not yet converged) assumption and must not
            # outlive the iteration.  Once the session unwinds, re-demanded
            # exits are cheap (the engine's cells are cached) and memoize
            # then.  The entry target is re-read: evaluation (a recursive
            # fixpoint, or feedback through a caller) may have grown it, and
            # the computed exit belongs to the *final* entry, not the one
            # this call demanded (whose store key the miss computed).
            final = self._entry_target[key]
            if final is not target:
                memo_args = (name, context, digest, final)
                store_key = None
            self._install_summary(key, memo_args, exit_state,
                                  write_store=True, store_key=store_key)
        return exit_state

    # -- the persistent summary tier ---------------------------------------------------

    def _install_summary(self, key: ProcedureKey, memo_args: Tuple,
                         exit_state: Any, write_store: bool,
                         store_key: Optional[str] = None) -> None:
        """Install one exit summary: memo table, per-procedure key index,
        and (write-through) the persistent store.  Every install — a
        computed or seeded exit, a store hit — goes through here, so the
        tiers can never disagree about what a key means.  A caller whose
        store lookup already computed the key of ``memo_args`` passes it
        as ``store_key``."""
        self.memo.store("summary", memo_args, exit_state)
        self._summary_keys.setdefault(key[0], set()).add(memo_args)
        if self.store is None:
            return
        if store_key is None:
            store_key = self._store_key(memo_args)
        self._store_keys.setdefault(key, set()).add(store_key)
        if write_store:
            self.store.put(store_key, encode_summary(exit_state))
            self.counters["interproc_store_writes"] += 1

    def _store_key(self, memo_args: Tuple) -> str:
        """The persistent store key of one summary's ``memo_args``."""
        name, context, digest, entry_state = memo_args
        return summary_store_key(
            self.domain.name, name, context, digest, entry_state)

    def _store_lookup(self, memo_args: Tuple) -> Tuple[Optional[Any], str]:
        """Second-tier fetch; returns ``(exit_state, store_key)``, with
        ``exit_state`` None on a miss (a write after the miss reuses the
        key).

        Every failure mode — absent key, backend error, corrupt or
        version-incompatible blob — is a miss; corrupt blobs are deleted
        so they are rewritten rather than re-fetched forever.
        """
        assert self.store is not None
        store_key = self._store_key(memo_args)
        blob = self.store.get(store_key)
        if blob is None:
            self.counters["interproc_store_misses"] += 1
            return None, store_key
        try:
            exit_state = decode_summary(blob)
        except StoreDecodeError:
            self.counters["interproc_store_errors"] += 1
            self.counters["interproc_store_misses"] += 1
            self.store.delete(store_key)
            return None, store_key
        self.counters["interproc_store_hits"] += 1
        return exit_state, store_key

    def _fixpoint_exit(self, key: ProcedureKey, engine: DaigEngine) -> Any:
        """Summary fixpoint for a procedure in a recursive SCC.

        Iterate: evaluate the exit with recursive calls returning the
        current assumption; if the assumption was consumed and the computed
        exit is not covered by it, widen the assumption, dirty exactly the
        dependent call cells, and re-evaluate.  The returned ``F(A) ⊑ A``
        makes ``A`` a post-fixpoint, so the result soundly covers every
        concrete execution of the recursion.
        """
        self._active.add(key)
        try:
            for _round in range(MAX_SUMMARY_ROUNDS):
                self._sync_entry(key)
                entry_before = self._entry_target[key]
                reads_before = self._assumption_reads.get(key, 0)
                exit_state = engine.query_exit()
                # A round is conclusive only if the procedure's *entry*
                # stayed stable while it ran: recursive calls inside the
                # body grow the entry target (the base case may only become
                # feasible after entry widening), and an exit computed
                # against a still-moving entry — ⊥ included — must iterate,
                # not converge.
                entry_after = self._entry_target[key]
                entry_stable = (entry_after is entry_before
                                or self.domain.equal(entry_after, entry_before))
                reads = self._assumption_reads.get(key, 0) != reads_before
                assumed = self._assumed.get(key)
                if entry_stable and not reads:
                    return exit_state  # no recursive call was actually demanded
                if (entry_stable and assumed is not None
                        and self.domain.leq(exit_state, assumed)):
                    return exit_state
                if assumed is None:
                    self._assumed[key] = exit_state
                elif not self.domain.leq(exit_state, assumed):
                    self._assumed[key] = self.domain.widen(
                        assumed, self.domain.join(assumed, exit_state))
                self.counters["interproc_fixpoint_rounds"] += 1
                # Everything computed from the old assumption is stale.
                self._dirty_callers_of(key[0])
            raise SummaryDivergenceError(
                "summary fixpoint for %r did not converge within %d rounds"
                % (key, MAX_SUMMARY_ROUNDS))
        finally:
            self._active.discard(key)

    # -- parallel-coordinator hooks ----------------------------------------------------

    def seed_summary(self, name: str, context: Context,
                     entry_state: Any, exit_state: Any) -> None:
        """File an exit computed elsewhere for the *current* code.

        Keyed — like every summary — by ``(procedure, context, deep
        digest, entry)``, so demand takes a seed only where it derives
        exactly this entry and both the memo and the store miss; it then
        builds the key's DAIG and installs the exit as if it had evaluated
        it.  A seed at an entry that is never derived is dead weight, not a
        soundness hazard; :meth:`drop_seeds` discards it.
        """
        self._seeds[(name, context, self.deep_digest(name), entry_state)] = (
            exit_state)

    def drop_seeds(self) -> int:
        """Discard every seed demand has not taken; returns how many."""
        dropped = len(self._seeds)
        self._seeds.clear()
        return dropped

    def summary_digest(self) -> str:
        """A digest of every live (procedure, context) exit summary.

        The certification check of the parallel evaluator *and* of the
        persistent-store warm path: after identical demand, a
        parallel-warmed (or store-warmed, or restarted) engine and a
        purely sequential cold engine must produce equal digests.  Every
        live key's exit is demanded through the normal query path (so the
        digest itself never bypasses the engine's convergence machinery),
        then hashed in sorted key order.

        States are hashed through their *canonical* encoding
        (:func:`repro.store.canonical_bytes`), not ``pickle.dumps``, so
        digests are comparable across processes and interpreter versions —
        pickle framing depends on memoization order and protocol details
        that have nothing to do with the states' content.

        The digest first drives :meth:`analyze_everything` to a fixpoint so
        that both engines hold the same (procedure, context) key set before
        hashing — engine construction is demand-order-dependent, exhaustive
        evaluation is not.
        """
        import hashlib

        self.analyze_everything()
        digest = hashlib.sha256()
        live = self.live_keys()
        keys = [key for key in self.engines if key in live]
        for key in sorted(keys, key=_key_order):
            name, context = key
            exit_state = self.query(name, self.cfgs[name].exit, context)
            # Contexts are opaque hashables (a custom policy may ship
            # values outside the canonical grammar); repr of the shipped
            # policies' tuples-of-strings is deterministic everywhere.
            digest.update(repr((name, repr(context))).encode("utf-8"))
            digest.update(canonical_bytes(exit_state))
        return digest.hexdigest()

    # -- queries ---------------------------------------------------------------------

    def query(self, procedure: str, loc: Loc, context: Context = ENTRY_CONTEXT) -> Any:
        """The invariant at ``loc`` of ``procedure`` in a specific context."""
        key = (procedure, context)
        if key not in self.engines:
            if context == ENTRY_CONTEXT and procedure in self.cfgs:
                # Analyzing a procedure with no known callers: start from the
                # domain's own initial state, as the paper's implementation
                # does for queries in not-yet-analyzed functions.
                state = self.domain.initial(self.cfgs[procedure].params)
                self._root_entries[key] = state
                self._engine_for(procedure, context, state)
                self._refresh_entry_target(key)
            else:
                raise KeyError("no analysis exists for %r in context %r"
                               % (procedure, context))
        self._sync_entry(key)
        return self.engines[key].query_location(loc)

    def query_entry_exit(self) -> Any:
        """The abstract state at the entry procedure's exit."""
        return self.query(self.entry, self.cfgs[self.entry].exit)

    def queried_roots(self) -> List[str]:
        """Procedures analyzed from the domain's initial state because they
        were queried directly while they had no known callers (plus the
        entry procedure).  Replaying queries against these procedures on a
        fresh engine reproduces this engine's root set — the equality
        property tests use that to issue identical demand on both sides."""
        return sorted({name for (name, _context) in self._root_entries})

    def analyze_everything(self) -> Dict[ProcedureKey, Dict[Loc, Any]]:
        """Exhaustively evaluate every constructed (procedure, context) DAIG.

        A worklist of not-yet-analyzed and re-dirtied keys: evaluating an
        engine may construct new callee engines (added to the worklist) or
        dirty previously evaluated ones (entry/summary changes re-enqueue
        them); the loop runs until everything is stable, so the returned
        results are consistent with every procedure's final summary.
        """
        results: Dict[ProcedureKey, Dict[Loc, Any]] = {}
        for _round in range(MAX_SUMMARY_ROUNDS):
            todo = [key for key in sorted(self.engines, key=_key_order)
                    if key not in results]
            if self._dirty_keys:
                dirty = sorted((key for key in self._dirty_keys
                                if key in self.engines and key not in todo),
                               key=_key_order)
                self._dirty_keys.clear()
                todo.extend(dirty)
            if not todo:
                return results
            for key in todo:
                self._sync_entry(key)
                results[key] = self.engines[key].query_all()
        raise SummaryDivergenceError(
            "analyze_everything did not stabilize within %d rounds"
            % (MAX_SUMMARY_ROUNDS,))

    def contexts_of(self, procedure: str, live_only: bool = False) -> List[Context]:
        """All contexts in which ``procedure`` has been analyzed.

        ``live_only=True`` restricts to contexts still reachable from the
        entry (or an explicit root query) in the *current* program — edits
        can orphan contexts whose creating call sites no longer exist.
        """
        keys = list(self._proc_keys.get(procedure, ()))
        if live_only:
            live = self.live_keys()
            keys = [key for key in keys if key in live]
        return [context for (_name, context) in keys]

    def live_keys(self) -> Set[ProcedureKey]:
        """(procedure, context) pairs reachable from the entry and the
        explicitly queried roots under the current program and policy.

        O(call sites × live contexts) — an on-demand consistency view, not
        part of the per-edit path.
        """
        live: Set[ProcedureKey] = set(self._root_entries)
        live.add((self.entry, ENTRY_CONTEXT))
        frontier = list(live)
        while frontier:
            name, context = frontier.pop()
            for _loc, stmt in self.callgraph.call_sites.get(name, ()):
                if stmt.function not in self.cfgs:
                    continue
                callee_key = (stmt.function,
                              self.policy.callee_context(context, (name, stmt)))
                if callee_key not in live:
                    live.add(callee_key)
                    frontier.append(callee_key)
        return live

    def collect_garbage(self) -> int:
        """Retire engines for contexts no longer reachable (see
        :meth:`live_keys`), retracting their entry-state contributions so
        surviving callees regain the precision of a from-scratch analysis,
        and expiring the retired contexts' persistent-store entries so the
        store's growth is bounded by the live key set, not by edit history.
        Returns the number of engines collected."""
        live = self.live_keys()
        dead = [key for key in self.engines if key not in live]
        for key in dead:
            engine = self.engines.pop(key)
            for store_key in sorted(self._store_keys.pop(key, ())):
                if self.store is not None and self.store.delete(store_key):
                    self.counters["interproc_store_expired"] += 1
            self.cfgs[key[0]].remove_structure_listener(engine._listener)
            self._proc_keys[key[0]].remove(key)
            self._entry_target.pop(key, None)
            self._root_entries.pop(key, None)
            self._contribs.pop(key, None)
            self._assumed.pop(key, None)
            self._assumption_reads.pop(key, None)
            self._dirty_keys.discard(key)
            self._entry_stale.discard(key)
        if dead:
            dead_set = set(dead)
            self._entry_growths = {
                (ckey, (caller_key, skey)): count
                for (ckey, (caller_key, skey)), count
                in self._entry_growths.items()
                if ckey not in dead_set and caller_key not in dead_set}
        # Retract dead engines' contributions from surviving callees.
        self._retract_contributions_from(dead)
        return len(dead)

    # -- edits -----------------------------------------------------------------------

    def edit_procedure(
        self,
        procedure: str,
        edit: Callable[[DaigEngine], None],
    ) -> None:
        """Apply ``edit`` to ``procedure`` and propagate across procedures.

        The CFG is shared by every context of the procedure, so the edit
        callback runs once (against one engine, inside a
        :meth:`~repro.daig.engine.DaigEngine.batch_edits` block); the
        remaining contexts splice their DAIGs over the same reported region
        (:meth:`~repro.daig.engine.DaigEngine.resync`).  Cross-procedure
        propagation dirties exactly the dependent call cells, found through
        the call graph (there is no scan over any DAIG's ref set), retracts
        the contributions the edited and dirtied engines recorded, and drops
        the deep code digests of the procedure and its transitive callers,
        so their summaries are looked up under new content keys and the
        stale memo entries are purged.  Every edit, value-preserving or not,
        takes this one path, and retracting the edited engines'
        contributions means a call site the edit removed leaves nothing
        behind.  Recomputation is left to demand, where each DAIG's cell
        shadows cut it off at the first unchanged value.
        """
        if procedure not in self.cfgs:
            raise KeyError("no procedure named %r" % (procedure,))
        keys = list(self._proc_keys.get(procedure, ()))
        if not keys:
            # Never-analyzed procedure: materialize its entry-context engine
            # so the edit lands somewhere.  Deliberately *not* a root entry
            # (this is not a query): the initial state is only a stale
            # placeholder, replaced exactly by the first real caller's
            # contribution, so precision matches a from-scratch analysis.
            state = self.domain.initial(self.cfgs[procedure].params)
            key = (procedure, ENTRY_CONTEXT)
            self._engine_for(procedure, ENTRY_CONTEXT, state)
            self._entry_stale.add(key)
            keys = [key]
        primary = self.engines[keys[0]]
        try:
            with primary.batch_edits():
                edit(primary)
        finally:
            for key in keys[1:]:
                self.engines[key].resync()
            self.cfgs[procedure] = primary.cfg
            self.callgraph.update_procedure(procedure, self.cfgs[procedure])
            # Drop recursion assumptions (re-derived from scratch on the
            # next fixpoint, for precision) and invalidate the content
            # digests of the procedure and its transitive callers.
            self._assumed.clear()
            self._invalidate_summaries(procedure)
            self._dirty_keys.update(keys)
            touched = self._dirty_callers_of(procedure)
            # Retract the contributions of every edited or dirtied
            # engine's call sites: the states they feed their callees may
            # have changed (or the sites are gone), and re-demanding
            # re-records exactly the live ones.
            self._retract_contributions_from(set(keys) | touched)

    def _invalidate_summaries(self, procedure: str) -> None:
        """Invalidate summaries of ``procedure`` and its transitive callers
        (exactly the procedures whose analysis the edit can change) by
        dropping their cached content digests — O(dependent procedures);
        the digests recompute lazily on the next summary lookup, walking
        only the invalidated region of the condensation.  The memoized
        entries orphaned under the old digests are purged so long edit
        sessions do not leak dead exit states in the shared memo table.
        Persistent-store entries are deliberately *not* purged here: they
        remain valid for any engine still running the old code (that is
        the point of content addressing); bounded growth comes from
        :meth:`collect_garbage`.

        Correctness of the invalidation set: the callgraph is updated
        *before* this runs, and ``transitive_callers(p)`` is unaffected by
        changes to ``p``'s own out-edges (any path witnessing a caller of
        ``p`` has a prefix reaching ``p`` that uses no edge out of ``p``),
        so the set computed on the new graph covers the procedures whose
        deep digests mention ``p`` under either version.
        """
        self._code_digest.pop(procedure, None)
        stale = {procedure} | self.callgraph.transitive_callers(procedure)
        for name in stale:
            self._deep_digest.pop(name, None)
            for memo_args in self._summary_keys.pop(name, ()):
                self.memo.discard("summary", memo_args)

    def _dirty_callers_of(self, procedure: str) -> Set[ProcedureKey]:
        """Dirty the call cells dependent on ``procedure``, transitively.

        Walks the call graph's reverse edges.  A caller engine with a built
        DAIG dirties exactly its cells that call the procedure
        (:meth:`CallGraph.call_cells`), so the work is proportional to the
        number of dependent call sites (plus their downstream cells), never
        to the size of any DAIG or of the program.  A caller without a
        built DAIG, or without any engine, has no call cells to dirty, but
        the exit summaries it was served from the memo or the store depend
        on ``procedure`` and reached its own callers, so the walk goes on
        through it.  Returns the caller engine keys whose cells were
        dirtied (or that have no DAIG yet).
        """
        touched: Set[ProcedureKey] = set()
        seen: Set[str] = set()
        stack = [procedure]
        while stack:
            proc = stack.pop()
            if proc in seen:
                continue
            seen.add(proc)
            for caller in sorted(self.callgraph.callers(proc)):
                any_built = False
                for key in self._proc_keys.get(caller, ()):
                    engine = self.engines[key]
                    if not engine.built:
                        self._dirty_keys.add(key)
                        touched.add(key)
                        continue
                    any_built = True
                    daig = engine.daig
                    names = [name for name in (
                        stmt_name(*cell)
                        for cell in self.callgraph.call_cells(caller, proc))
                        if daig.declares(name)]
                    if not names:
                        continue
                    dirty_forward(daig, engine.builder, names)
                    self.counters["interproc_callsite_dirties"] += len(names)
                    self._dirty_keys.add(key)
                    touched.add(key)
                    stack.append(caller)
                if not any_built:
                    stack.append(caller)
        return touched

    def _retract_contributions_from(self, keys: Iterable[ProcedureKey]) -> None:
        """Drop the entry-state contributions recorded by the given engines'
        call sites, cascading through entry-target changes.

        Called on the edit path for every engine the edit changed or whose
        cells it dirtied: the states those sites feed their callees may have
        changed (or the sites are gone), so their old contributions are
        retracted and re-recorded on demand — exactly the contributions a
        from-scratch analysis would see.  When a retraction moves a callee's
        entry target, that callee's own results may change too, so *its*
        contributions are retracted as well; each engine is processed at
        most once per edit event.  Callers are taken in sorted key order
        (cascaded ones after them) and each caller's sites in key order, so
        the result depends on neither when a DAIG was built nor hash order.
        """
        pending = sorted(keys, key=_key_order)
        seen: Set[ProcedureKey] = set(pending)
        while pending:
            caller_key = pending.pop(0)
            recorded = self._recorded.pop(caller_key, {})
            for callee_key in sorted(recorded, key=_key_order):
                for skey in sorted(recorded[callee_key]):
                    if (self._retract_site(callee_key, (caller_key, skey))
                            and callee_key not in seen):
                        seen.add(callee_key)
                        pending.append(callee_key)

    # -- statistics ----------------------------------------------------------------------

    def total_stats(self) -> Dict[str, int]:
        """Aggregate query/edit statistics over every engine.

        Structure-phase counters are shared per *procedure* (one CFG and one
        structure cache regardless of context count), so they are folded in
        once per procedure, not once per engine.  ``daigs`` counts the
        engines whose DAIG is built."""
        totals: Dict[str, int] = {}
        for engine in self.engines.values():
            for key, value in engine.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
            for key, value in engine.edit_stats.as_dict(
                    include_structure=False).items():
                totals[key] = totals.get(key, 0) + value
        for name in {key[0] for key in self.engines}:
            for key, value in self.cfgs[name].structure_stats().items():
                totals[key] = totals.get(key, 0) + value
        totals["daigs"] = sum(engine.built for engine in self.engines.values())
        totals.update(self.counters)
        return totals

    def total_phase_seconds(self) -> Dict[str, float]:
        """Per-phase wall-clock seconds summed over every constructed DAIG
        (the shared structure phase counted once per procedure)."""
        totals: Dict[str, float] = {}
        for engine in self.engines.values():
            for key, value in engine.phase_seconds(
                    include_structure=False).items():
                totals[key] = totals.get(key, 0.0) + value
        structure = 0.0
        for name in {key[0] for key in self.engines}:
            structure += self.cfgs[name].structure_seconds()
        totals["structure"] = totals.get("structure", 0.0) + structure
        return totals
