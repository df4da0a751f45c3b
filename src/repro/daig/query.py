"""Demand-driven query evaluation over DAIGs (Fig. 8).

:class:`QueryEvaluator` implements the ``D, M ⊢ n ⇒ v ; D', M'`` judgment:

* **Q-Reuse** — a cell that already holds a value returns it unchanged;
* **Q-Match** — an empty cell whose inputs evaluate to values already in the
  memo table reuses the memoized result;
* **Q-Miss** — otherwise the analysis function is applied, and the result is
  stored both in the cell and in the memo table;
* **Q-Loop-Converge** — a ``fix`` cell whose two input iterates agree holds
  the loop's fixed point;
* **Q-Loop-Unroll** — otherwise the loop is unrolled by one abstract
  iteration (:meth:`repro.daig.build.DaigBuilder.unroll`) and the query is
  reissued; convergence of the underlying widening bounds the number of
  unrollings (Theorem 6.3).

The judgment is evaluated *iteratively*: an explicit stack of demanded cell
names replaces the recursive formulation, so a demand chain as long as the
program (a straight-line method with tens of thousands of statements) runs
at Python's default recursion limit.  Because only one unevaluated input is
pushed at a time, the stack always spells out the current demand path,
which gives exact cycle detection: a dependency cycle (impossible in a
well-formed DAIG, Definition 4.1) raises :class:`IllFormedDaigError`
instead of looping.

Call statements are special-cased: their abstract effect may depend on a
callee analysis (Section 7.1), so the evaluator accepts a ``call_transfer``
hook and never memoizes call transfers in the location-independent table.

An evaluator with no such hook also settles each structural edit as it is
spliced (:meth:`QueryEvaluator.propagate`, change propagation with
cutoff), so a later query finds valued every cell it had demanded before,
except what the edit could not settle.  A hooked engine's splice dirties
everything below the edit instead, and re-demand stops recomputing at the
first unchanged value and restores the rest (:meth:`_commit_cell`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import (AbstractSet, Any, Callable, Dict, List, Optional, Set,
                    Tuple)

from ..domains.base import AbstractDomain
from ..lang import ast as A
from . import names as N
from .build import DaigBuilder
from .edit import dirty_forward
from .graph import Computation, Daig, FIX, IllFormedDaigError, JOIN, TRANSFER, WIDEN
from .memo import MemoTable
from .names import Name

#: Safety bound on demanded unrollings of a single loop; a convergent
#: widening never comes close, so exceeding it signals a domain bug.
MAX_UNROLLINGS = 2000

#: Cells and loops one splice's propagation settles before it dirties the
#: rest for demand (:meth:`QueryEvaluator.propagate`).
PROPAGATION_BUDGET = 256

#: A fixed order on names: identity hashing gives sets no stable order.
_ORDER = attrgetter("loc", "kind", "aux", "index", "iters")
_LOC = attrgetter("loc")

#: Sentinel distinguishing "cell is empty" from any real value.
_ABSENT = object()
_NONE = (_ABSENT, 0)


class StaleDemandError(Exception):
    """The queried root cell was removed while its demand was in flight.

    Raised only when a reentrant call transfer (the interprocedural engine
    reacting to a callee summary change) rolled back structure that the
    current demand path ran through *and* took the root cell with it.  The
    engine retries the query against the post-rollback encoding."""


class QueryStats:
    """Counters describing the work a sequence of queries performed."""

    def __init__(self) -> None:
        self.transfers = 0
        self.joins = 0
        self.widens = 0
        self.unrollings = 0
        self.cells_computed = 0
        self.cells_reused = 0
        #: Early-cutoff counters: recomputed cells whose new value was
        #: pointer-equal to their pre-edit shadow, and downstream cells
        #: restored from their shadows instead of recomputed.
        self.cells_cutoff = 0
        self.cells_restored = 0
        #: Cells a splice's propagation recomputed from their inputs (its
        #: demands count as queries do).
        self.cells_propagated = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "transfers": self.transfers,
            "joins": self.joins,
            "widens": self.widens,
            "unrollings": self.unrollings,
            "cells_computed": self.cells_computed,
            "cells_reused": self.cells_reused,
            "cells_cutoff": self.cells_cutoff,
            "cells_restored": self.cells_restored,
            "cells_propagated": self.cells_propagated,
            # Always 0; kept because the edit-latency benchmark reads it.
            "parallel_batches": 0,
        }


class QueryEvaluator:
    """Evaluates demand queries against a DAIG + memo table."""

    def __init__(
        self,
        daig: Daig,
        memo: MemoTable,
        domain: AbstractDomain,
        builder: DaigBuilder,
        call_transfer: Optional[Callable[[A.CallStmt, Any, Name], Any]] = None,
        cutoff: bool = True,
    ) -> None:
        self.daig = daig
        self.memo = memo
        self.domain = domain
        self.builder = builder
        self.call_transfer = call_transfer
        #: Early cutoff: compare every committed value against the cell's
        #: pre-edit shadow and restore the unchanged downstream cone.
        #: Disabled only in cutoff-disabled twins: the reference engines the
        #: cutoff tests and editbench's interproc oracle compare against.
        self.cutoff = cutoff
        self.stats = QueryStats()

    # -- the query judgment ------------------------------------------------------------

    def query(self, name: Name) -> Any:
        """Request the value of cell ``name``, computing dependencies on demand.

        The evaluation is a depth-first walk over the demanded sub-DAIG with
        an explicit stack; at every step the stack's top is the judgment
        currently being derived and the stack below it is the demand path
        that led there.
        """
        daig = self.daig
        # The walk reads the DAIG's dicts directly: every step probes them.
        values = daig.values
        computations = daig.computations
        stats = self.stats
        if name in values:
            stats.cells_reused += 1
            return values[name]
        unrollings: Dict[Name, int] = {}
        stack: List[Name] = [name]
        on_path: Set[Name] = {name}
        # Only dirtying (a reentrant call transfer's) removes cells under a
        # walk, and it opens a new epoch: a cell found missing while the
        # epoch still reads this is a dangling input, not a removed one.
        epoch = daig.epoch
        # Which demanding cell caused each computation, so that input reads
        # count as Q-Reuse exactly as in the recursive judgment: every
        # demanded read of a cell is a reuse unless this very demand is the
        # one that computed it.
        pushed_by: Dict[Name, Name] = {}
        while stack:
            current = stack[-1]
            if current in values:
                # Computed while pending (shared input of an earlier sibling).
                stack.pop()
                on_path.discard(current)
                continue
            comp = computations.get(current)
            if comp is None:
                if daig.epoch == epoch:
                    raise IllFormedDaigError(
                        "query for undefined empty cell %s" % (current,))
                # Removed mid-flight by a reentrant call transfer (loop
                # rollback); restart the walk from the root.
                if not daig.declares(name):
                    raise StaleDemandError(
                        "root cell %s vanished during evaluation" % (name,))
                stack = [name]
                on_path = {name}
                pushed_by.clear()
                epoch = daig.epoch
                continue
            _dest, func, srcs = comp
            pending = None
            for src in srcs:
                if src not in values:
                    pending = src
                    break
            if pending is not None:
                if pending in on_path:
                    raise IllFormedDaigError(
                        "dependency cycle through %s" % (pending,))
                stack.append(pending)
                on_path.add(pending)
                pushed_by[pending] = current
                continue
            # Q-Reuse for the input reads: an input read is a reuse unless
            # `current` itself pushed it (then it was just counted as
            # computed; the attribution is consumed so later fix re-reads
            # count as reuse).
            for src in srcs:
                if pushed_by.get(src) is current:
                    del pushed_by[src]
                else:
                    stats.cells_reused += 1
            if func == FIX:
                self._step_fix(current, srcs, unrollings)
                continue  # either converged (valued) or unrolled (new inputs)
            value = self._evaluate(comp, tuple(map(values.__getitem__, srcs)))
            live = computations.get(current)
            if ((live is not comp and live != comp)
                    or not all(map(values.__contains__, srcs))):
                # A call transfer may re-enter the interprocedural engine,
                # which can dirty cells of *this* DAIG (a callee summary
                # changed) while the transfer was evaluating — possibly
                # rolling back a loop the demand path ran through.  The value
                # just computed is stale; discard it and restart the walk
                # from the root (everything already committed keeps its
                # value, so only the invalidated suffix is re-derived).
                if not daig.declares(name):
                    raise StaleDemandError(
                        "root cell %s vanished during evaluation" % (name,))
                stack = [name]
                on_path = {name}
                pushed_by.clear()
                epoch = daig.epoch
                continue
            self._commit_cell(current, value)
            stack.pop()
            on_path.discard(current)
        return values[name]

    def _commit_cell(self, name: Name, value: Any) -> None:
        """Write a recomputed value into its cell — the one place values are
        committed, so early cutoff sees every recomputation.

        If the new value is pointer-equal to the cell's pre-edit shadow, the
        edit's effect died out here: every consumer dirtied only through
        this cell would recompute exactly its own prior value, so those
        consumers are *restored* from their shadows instead (E-Propagate
        stopped at the first unchanged value)."""
        daig = self.daig
        daig.set_value(name, value)
        self.stats.cells_computed += 1
        if self.cutoff and daig.shadows.get(name) is value:
            del daig.shadows[name]
            daig.shadow_caps.pop(name, None)
            self.stats.cells_cutoff += 1
            self._restore_from(name)

    def _restore_from(self, source: Name) -> None:
        """Restore the consumers of an unchanged cell from their shadows.

        A dirtied (empty, shadowed) cell is restorable when every input of
        its defining computation holds a value whose last pointer-change
        (``daig.stamps``) is *strictly earlier* than the epoch at which the
        shadow was captured (``daig.shadow_caps``): a shadow is captured at
        a moment of src-consistency, so inputs unchanged since then would
        provably reproduce it, while an input (re)written at the capture
        epoch or later may not be the value the shadow was computed from.
        A shadow without a capture epoch belongs to a re-encoded
        computation, so it is never restored.  ``fix`` cells are never
        restored either: after roll-back their two inputs no longer
        determine the fixed point (the loop body does too), so they
        reconverge by demanded unrolling and cut off at their own commit.
        Call transfers likewise recompute honestly — their value also
        depends on the callee's summary, which their inputs cannot
        witness."""
        daig = self.daig
        values = daig.values
        computations = daig.computations
        dependents = daig.dependents
        shadows = daig.shadows
        shadow_caps = daig.shadow_caps
        stamps = daig.stamps
        hooked = self.call_transfer is not None
        frontier = [source]
        while frontier:
            for dep in dependents.get(frontier.pop(), ()):
                if dep not in shadows or dep in values:
                    continue
                cap = shadow_caps.get(dep)
                if cap is None:
                    continue  # a re-encoded cell's shadow: a baseline only
                comp = computations.get(dep)
                if comp is None:
                    continue
                _dest, func, srcs = comp
                if func == FIX:
                    continue
                if (hooked and func == TRANSFER
                        and isinstance(values.get(srcs[0]), A.CallStmt)):
                    continue
                for src in srcs:
                    if src not in values or stamps.get(src, 0) >= cap:
                        break
                else:
                    # The cell gets back the value it last held, so its
                    # change stamp stays (what `set_value` would conclude).
                    values[dep] = shadows.pop(dep)
                    shadow_caps.pop(dep, None)
                    self.stats.cells_restored += 1
                    frontier.append(dep)

    # -- edit-time change propagation ------------------------------------------------

    def propagate(self, relabels: List[Tuple[Name, Any]], seeds: List[Name],
                  prior: Dict[Name, Tuple[Any, int]]) -> int:
        """Settle a splice now, by change propagation with cutoff; returns
        the number of cells dirtied.

        ``relabels`` are its statement cells and their new statements,
        ``seeds`` the state and ``fix`` cells of the locations and loops it
        re-encoded, ``prior`` the (value, stamp) those held.  A cell that
        held a value and reads a changed one is recomputed once its inputs
        settle (a join after every other change), and the walk stops where
        a value comes back the same object.  A loop is one unit, named by
        its outermost ``fix`` cell: a change entering it dirties it up to
        that cell, demand re-converges it at once, and the walk goes on only
        if the fixpoint moved.  Only cells that held a value, and new cells
        whose inputs do, are computed.  What is left when
        :data:`PROPAGATION_BUDGET` runs out is dirtied with shadows in the
        splice's epoch, so a value changed here vetoes their restore.
        """
        daig, builder = self.daig, self.builder
        values, computations = daig.values, daig.computations
        cfg = builder.cfg
        # The cells this edit emptied, which its demands may compute.
        allowed = {dest for seed in seeds for dest, _func, _srcs in (
            builder.loop_encodings if seed.kind == N.FIX
            else builder.encodings)[seed.loc]}
        origin: Dict[Name, Any] = {}  # what the edit's own cells held
        entries: Dict[Name, List[Name]] = {}  # by loop: where it changed
        stale: Set[Name] = set()
        queued: Set[Name] = set()
        ready: List[Name] = []
        waiting: List[Name] = []
        dirtied = 0

        def schedule(cell: Name, pushed: bool) -> None:
            heads = cfg.containing_loop_heads(cell.loc)
            item = Name(N.FIX, heads[0]) if heads else cell
            if heads:
                entries.setdefault(item, []).append(cell)
            elif pushed:
                stale.add(cell)
            if item not in queued:
                queued.add(item)
                join = (item.kind != N.PREJOIN
                        and len(cfg.fwd_edges_to(item.loc)) > 1)
                (waiting if join else ready).append(item)

        def push(name: Name, skip: AbstractSet[Name] = frozenset()) -> None:
            deps = daig.dependents.get(name, ())
            for dep in sorted(deps, key=_ORDER) if len(deps) > 1 else deps:
                if dep in values and dep not in skip:
                    schedule(dep, True)

        def dirty(names: List[Name], stop: Optional[Name] = None) -> int:
            held = [name for name in names if name in values]
            for name in held:
                daig.clear_value(name)
            cleared = dirty_forward(daig, builder, names, stop, new_epoch=False)
            cleared.update(held)
            if stop is not None:
                allowed.update(cleared)
            return len(cleared)

        daig.epoch += 1
        for name, stmt in relabels:
            daig.set_value(name, stmt)
            push(name)
        for seed in seeds:
            origin[seed] = prior.get(seed, _NONE)[0]
            schedule(seed, False)
        # Every loop the edit enters is dirtied before any demand reads it.
        for fix in sorted(entries, key=_ORDER):
            origin[fix] = values.get(fix, prior.get(fix, _NONE)[0])
            dirtied += dirty(entries.pop(fix), fix)
        def abandon(names: List[Name]) -> int:
            names = names + ready + waiting
            return dirty(names + [cell for fix in names
                                  for cell in entries.get(fix, ())])

        budget = PROPAGATION_BUDGET
        name: Optional[Name] = None
        try:
            while ready or waiting:
                # Of the waiting joins, the highest location first: a
                # conditional nested in a branch is lowered, or inserted,
                # after the join of that branch, so its join goes first.
                name = (ready.pop() if ready else
                        waiting.pop(waiting.index(max(waiting, key=_LOC))))
                queued.discard(name)
                if not budget:
                    return dirtied + abandon([name])
                budget -= 1
                before = values.get(name, _ABSENT)
                if name in entries:
                    dirtied += dirty(entries.pop(name), name)
                elif name in stale and before is not _ABSENT:
                    stale.discard(name)
                    comp = computations[name]
                    if not all(map(values.__contains__, comp[2])):
                        dirtied += dirty([name])
                        continue
                    self.stats.cells_propagated += 1
                    value = self._evaluate(comp, tuple(map(values.__getitem__,
                                                           comp[2])))
                    if value is not before:
                        daig.set_value(name, value)
                held = origin.pop(name, before)
                if name not in values:
                    if held is _ABSENT:
                        continue  # it held nothing, so nothing read it
                    # Its inputs held values too, or are new and theirs do.
                    self.query(name)
                if values[name] is not before:
                    push(name)
                elif values[name] is not held:
                    # An earlier demand of this edit computed it: the cells
                    # that demand computed read this value already.
                    push(name, allowed)
        except BaseException:
            # No cell may keep a value its inputs would not give.
            abandon([] if name is None else [name])
            raise
        return dirtied

    def _step_fix(self, name: Name, srcs: Tuple[Name, ...],
                  unrollings: Dict[Name, int]) -> None:
        """One Q-Loop step for a ``fix`` cell whose iterates, ``srcs``, are
        available.

        Writes the fixed point into the cell on convergence
        (Q-Loop-Converge); otherwise unrolls the loop by one iteration
        (Q-Loop-Unroll), replacing the cell's defining computation so the
        caller's next look at the cell demands the new greatest iterate.
        """
        values = self.daig.values
        first = values[srcs[0]]
        second = values[srcs[1]]
        # Interned states make the common converged case a pointer check.
        if first is second or self.domain.equal(first, second):
            self._commit_cell(name, second)
            return
        count = unrollings.get(name, 0) + 1
        if count > MAX_UNROLLINGS:
            raise IllFormedDaigError(
                "loop at head %d (fix cell %s) did not converge within %d "
                "demanded unrollings; the last two iterates were %s: %r "
                "and %s: %r — the domain's widening is not stabilizing them"
                % (name.loc, name, MAX_UNROLLINGS,
                   srcs[0], first, srcs[1], second))
        unrollings[name] = count
        self.stats.unrollings += 1
        self.builder.unroll(self.daig, name.loc, dict(name.iters))
        if name not in self.daig.computations:
            raise IllFormedDaigError("fix cell lost its computation: %s" % (name,))

    def _evaluate(self, comp: Computation, args: Tuple[Any, ...]) -> Any:
        """Q-Match or Q-Miss for a computation whose inputs hold ``args``."""
        _dest, func, srcs = comp
        if func == TRANSFER and isinstance(args[0], A.CallStmt):
            # Never memoized location-independently (Section 7.1).
            self.stats.transfers += 1
            if self.call_transfer is not None:
                # The hook also receives the statement *cell* naming the call
                # site, so the interprocedural engine can index entry-state
                # contributions per call site.
                return self.call_transfer(args[0], args[1], srcs[0])
            return self.domain.transfer(args[0], args[1])
        memo = self.memo
        found, value = memo.lookup(func, args)
        if found:
            return value
        # The domain's methods are looked up at call time: a traced session
        # wraps them on the class.
        if func == TRANSFER:
            self.stats.transfers += 1
            value = self.domain.transfer(args[0], args[1])
        elif func == JOIN:
            self.stats.joins += 1
            value = args[0]
            for other in args[1:]:
                value = self.domain.join(value, other)
        elif func == WIDEN:
            self.stats.widens += 1
            value = self.domain.widen(args[0], args[1])
        else:
            raise IllFormedDaigError("cannot apply function %r" % (func,))
        memo.store(func, args, value)
        return value
