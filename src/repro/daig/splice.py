"""Incremental DAIG splicing: structural edits without a full rebuild.

A structural CFG edit (insert / delete / re-label edges) invalidates only
the DAIG sub-regions whose *encoding* changed — everything else keeps both
its structure and its previously computed values (rules E-Commit /
E-Propagate / E-Loop applied at the granularity of whole regions).

The record of the encoding is the builder's own: the computations it
wrote at iteration 0, filed per location and per loop head
(:attr:`~repro.daig.build.DaigBuilder.encodings`, ``loop_encodings``).
The CFG's structure layer (:mod:`repro.lang.structure`) reports, per edit,
the locations and loop heads whose encoding may have changed, and
:func:`splice_delta` re-derives each of those suspects without touching
the DAIG and compares the writes with the filed ones.  A statement-only
edit compares exactly one location; an insertion compares its new
locations, the destinations of the edges it moved, and the heads of the
loops that contain it or are new — a handful of locations, at any program
size.  Every old fact a splice needs is read off the filed writes: a
location's old cells are their destinations, its old loops the iterations
its state cell carries, and its old statement cells the inputs of its
transfers.  A splice also drops the
:class:`~repro.daig.build.LoopShape` of every loop around a location it
compares, the key under which :meth:`~repro.daig.build.DaigBuilder.unroll`
records and replays its encodings.  Only when the structure was rebuilt
from scratch (raw edge surgery on the CFG, or a wholesale edge
replacement) does :func:`splice` run the same algorithm with every old and
new location as a suspect.

The splice actions remove exactly the stale cell regions, re-encode the
changed locations and affected loops (inserting the derivations the
comparison made, which file the new writes), then settle what lies
downstream.  An engine with no call hook settles at once
(:meth:`~repro.daig.query.QueryEvaluator.propagate`): the cells that read
a changed value are recomputed, and the walk stops where a value comes
back unchanged.  A hooked engine dirties every cell downstream of the
seeds (:func:`repro.daig.edit.dirty_forward`) for demand to recompute or
restore.  Either way the result is a from-scratch rebuild with unchanged
values copied over, and all per-edit work follows the edit's impacted
region.  A client that needs a procedure's statement cells (the call
graph's call cells) derives them from the CFG with the same keying rule,
:func:`stmt_cells_at`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..lang.cfg import Cfg
from . import names as N
from .build import DaigBuilder
from .edit import dirty_forward
from .graph import Computation, Daig, TRANSFER
from .query import QueryEvaluator

#: Identifies a statement cell: (edge src, edge dst, pre-join index or 0).
StmtKey = Tuple[int, int, int]


def stmt_cells_at(cfg: Cfg, loc: int) -> Dict[StmtKey, Any]:
    """The statement cells anchored at ``loc`` (incoming forward edges plus,
    when ``loc`` is a loop head, its back edges), keyed as the DAIG names
    them: the pre-join index at a join point, else 0; back edges take 0."""
    cells: Dict[StmtKey, Any] = {}
    edges = cfg.fwd_edges_to(loc)
    for index, edge in edges:
        cells[(edge.src, edge.dst, index if len(edges) > 1 else 0)] = edge.stmt
    for edge in cfg.back_edges_to(loc):
        cells[(edge.src, edge.dst, 0)] = edge.stmt
    return cells


def _loops(writes: Optional[Tuple[Computation, ...]]) -> Tuple[int, ...]:
    """The loop heads around a location, as its filed writes encode them:
    the iterations its state cell, the last destination, carries."""
    if not writes:
        return ()
    return tuple([head for head, _count in writes[-1][0].iters])


def _statements(*files: Optional[Tuple[Computation, ...]]
                ) -> Dict[StmtKey, N.Name]:
    """The statement cells the filed transfers read, by key."""
    cells: Dict[StmtKey, N.Name] = {}
    for writes in files:
        for _dest, func, srcs in writes or ():
            if func == TRANSFER:
                name = srcs[0]
                cells[name.loc, name.aux, name.index] = name
    return cells


@dataclass
class SpliceReport:
    """What one splice did, for the engine's edit statistics."""

    cells_removed: int = 0
    cells_added: int = 0
    cells_dirtied: int = 0
    values_retained: int = 0
    #: Cells whose prior value survived the splice as an early-cutoff
    #: shadow (dirtied cells, re-encoded cells, relabelled statements).
    cells_shadowed: int = 0
    #: Suspects compared with their filed encodings by this splice (every
    #: old and new location for a whole-program splice).
    locs_resigned: int = 0
    #: True when this splice compared the whole program (:func:`splice`).
    full_capture: bool = False
    #: Wall-clock split: comparing the suspects vs. DAIG surgery.
    snapshot_seconds: float = 0.0
    splice_seconds: float = 0.0


def splice(daig: Daig, builder: DaigBuilder) -> SpliceReport:
    """Splice ``daig`` after the structure layer rebuilt from scratch (raw
    edge surgery on the CFG, or a wholesale edge replacement).

    The whole-program case of :func:`splice_delta`: every location and loop
    head the builder filed or the CFG now has is a suspect.
    """
    cfg = builder.cfg
    report = splice_delta(
        daig, builder, builder.encodings.keys() | cfg.reachable_locations(),
        builder.loop_encodings.keys() | cfg.loop_heads())
    report.full_capture = True
    return report


def splice_delta(daig: Daig, builder: DaigBuilder,
                 sig_suspects: Iterable[int],
                 head_suspects: Iterable[int],
                 settle: Optional[QueryEvaluator] = None) -> SpliceReport:
    """Splice ``daig`` after an edit, comparing only the suspect region,
    and settle the edit with ``settle``, an evaluator, if given.

    ``sig_suspects`` / ``head_suspects`` come from the CFG's structure
    layer and over-approximate the locations and loop heads whose encoding
    may have changed since the builder filed it; everything outside them
    is untouched by construction.  The caller has checked that the CFG is
    encodable (:meth:`~repro.daig.build.DaigBuilder.check_encodable`).
    """
    cfg = builder.cfg
    started = time.perf_counter()
    head_suspects = set(head_suspects)
    suspects = set(sig_suspects) | head_suspects
    reachable = cfg.reachable_locations()
    encodings = builder.encodings
    loop_encodings = builder.loop_encodings
    shapes = builder.shapes
    report = SpliceReport(locs_resigned=len(suspects))

    removed_locs: Set[int] = set()
    # Changed suspects, with the derivations the re-encode inserts as is.
    changed: Dict[int, Any] = {}
    dirty_locs: Set[int] = set()
    # The loops, as filed, around every removed location.
    emptied_heads: Set[int] = set()
    for loc in suspects:
        filed = encodings.get(loc)
        now = loc in reachable
        if shapes:
            # Drop the shape of every loop, before or after the edit,
            # around a compared location.
            for head in _loops(filed) + (cfg.containing_loop_heads(loc)
                                         if now else ()):
                shapes.pop(head, None)
        if not now:
            if filed is not None:
                removed_locs.add(loc)
                emptied_heads.update(_loops(filed))
        elif filed is None:
            if loc != cfg.entry:
                dirty_locs.add(loc)
        else:
            derived = builder.encode(None, loc)
            if derived.writes != filed:
                changed[loc] = derived
    dirty_locs.update(changed)

    removed_heads: Set[int] = set()
    affected_heads: Set[int] = set()
    loops_derived: Dict[int, Any] = {}
    for head in head_suspects:
        filed = loop_encodings.get(head)
        if head in reachable and cfg.is_loop_head(head):
            if filed is None or head in emptied_heads:
                affected_heads.add(head)
                continue
            derived = loops_derived[head] = builder.encode_loop(None, head)
            if derived.writes != filed:
                affected_heads.add(head)
        elif filed is not None:
            removed_heads.add(head)
    # A loop whose body contains a re-encoded location must reset its
    # demanded iterates (E-Loop) even when its own encoding is unchanged.
    for loc in dirty_locs:
        affected_heads.update(cfg.containing_loop_heads(loc))
    affected_heads -= removed_heads

    # Statement cells: a removed edge's cell is stale, and a cell whose
    # edge now carries a different statement is relabelled.  One whose
    # edge carries an equal statement object is re-pointed at it here,
    # with no stamp and nothing dirtied, so every statement cell holds
    # its edge's own statement.
    values = daig.values
    stale_stmts: Set[N.Name] = set()
    relabels: List[Tuple[N.Name, Any]] = []
    for loc in suspects:
        old = _statements(encodings.get(loc), loop_encodings.get(loc))
        if not old:
            continue
        new = stmt_cells_at(cfg, loc) if loc in reachable else {}
        for key, name in old.items():
            stmt = new.get(key)
            if stmt is None:
                stale_stmts.add(name)
                continue
            held = values[name]
            if held is not stmt:
                if held == stmt:
                    values[name] = stmt
                else:
                    relabels.append((name, stmt))
    report.snapshot_seconds = time.perf_counter() - started
    return _apply_splice(
        daig, builder, report, settle,
        removed_locs=removed_locs,
        changed=changed,
        dirty_locs=dirty_locs,
        removed_heads=removed_heads,
        affected_heads=affected_heads,
        loops_derived=loops_derived,
        stale_stmts=stale_stmts,
        relabels=relabels,
    )


def _apply_splice(
    daig: Daig,
    builder: DaigBuilder,
    report: SpliceReport,
    settle: Optional[QueryEvaluator],
    *,
    removed_locs: Set[int],
    changed: Dict[int, Any],
    dirty_locs: Set[int],
    removed_heads: Set[int],
    affected_heads: Set[int],
    loops_derived: Dict[int, Any],
    stale_stmts: Set[N.Name],
    relabels: List[Tuple[N.Name, Any]],
) -> SpliceReport:
    """The splice actions: remove stale regions, re-encode, then settle
    (with ``settle``, an evaluator) or dirty what lies downstream."""
    started = time.perf_counter()
    if not (dirty_locs or removed_locs or affected_heads or removed_heads
            or stale_stmts or relabels):
        report.values_retained = len(daig.values)
        report.splice_seconds = time.perf_counter() - started
        return report

    # -- remove stale regions: the destinations of their filed writes ------
    encodings = builder.encodings
    loop_encodings = builder.loop_encodings
    to_remove: Set[N.Name] = set(stale_stmts)
    for loc in removed_locs | changed.keys():
        to_remove.update([dest for dest, _func, _srcs in encodings[loc]])
    for head in removed_heads | affected_heads:
        to_remove.update([dest for dest, _func, _srcs
                          in loop_encodings.get(head, ())])
        # Every demanded unrolling of an affected loop is stale (E-Loop),
        # including the initial iterate-1 chain, which is rebuilt below.
        to_remove.update(daig.iterated_cells(head, 1))
    # Keep the prior values (and change stamps) of cells about to be
    # removed: any re-encoded under the same name below is compared with
    # its prior value, at edit time or as an early-cutoff shadow.  The
    # stamps must survive the remove/re-add round trip, or a re-encoded
    # cell would look "never changed" to the restore walk.
    prior_values = {name: (daig.values[name], daig.stamps.get(name, 0))
                    for name in to_remove if name in daig.values}
    report.cells_removed = daig.remove_region(to_remove)
    for loc in removed_locs:
        del encodings[loc]
    for head in removed_heads:
        del loop_encodings[head]

    # -- re-encode (and re-file) the dirty regions ---------------------------
    cells_before = daig.size()[0]
    for loc in sorted(dirty_locs):
        builder.encode(daig, loc, changed.get(loc))
    for head in sorted(affected_heads):
        builder.encode_loop(daig, head, loops_derived.get(head))
    report.cells_added = daig.size()[0] - cells_before

    # -- update re-labelled statement cells; settle or dirty downstream -----
    seeds = [builder.state_name(loc, {}) for loc in sorted(dirty_locs)]
    seeds.extend(builder.fix_name(head, {}) for head in sorted(affected_heads))
    if settle is not None:
        report.cells_dirtied = settle.propagate(relabels, seeds, prior_values)
    else:
        report.cells_dirtied = len(dirty_forward(
            daig, builder, [name for name, _stmt in relabels] + seeds))
        # Write the re-labelled statements only *after* dirty_forward
        # captured the downstream shadows: the shadows were computed from
        # the old statement values, so a statement that really changes must
        # be stamped at (not before) the capture epoch to veto restoring
        # through it.
        for name, stmt in relabels:
            daig.set_value(name, stmt)
    # Re-encoded cells that came back under their old names: re-holding
    # source cells, and cells settled above, get their stamps fixed up
    # (the rebuild reset them), and empty computed cells adopt their prior
    # values as shadows.  A re-encoded computation changed, so such a
    # shadow is usable only as a cutoff baseline at its own commit, never
    # as a restore payload: it gets no capture epoch.
    epoch = daig.epoch
    for name, (value, stamp) in prior_values.items():
        if not daig.declares(name):
            continue
        if name in daig.values:
            if daig.values[name] is value:
                if stamp:
                    daig.stamps[name] = stamp
                else:
                    daig.stamps.pop(name, None)
            else:
                daig.stamps[name] = epoch
        elif name not in daig.shadows:
            daig.shadows[name] = value
            if stamp:
                daig.stamps[name] = stamp
            else:
                daig.stamps.pop(name, None)
    report.cells_shadowed = len(daig.shadows)
    report.values_retained = len(daig.values)
    report.splice_seconds = time.perf_counter() - started
    return report
