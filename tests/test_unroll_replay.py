"""A replayed unrolling is a derived one.

Rule Q-Loop-Unroll encodes a loop body at a new iteration index.  An
engine's builder records the DAIG writes of each derived unrolling in the
process's unrolling table (:data:`repro.daig.build.UNROLL_TABLE`), keyed by
*(loop shape, fix cell, k)*, and replays them whenever that key comes up
again.  Each session below drives an engine and a twin through the same
edits and queries; the twin's table is cleared before each of its
unrollings, so it derives every one from the CFG.  After every query the
two DAIGs must agree write for write: the same cells, the same computations
in the same insertion order, the same values (states by identity), and
the same change stamps and shadows.  A DAIG also keeps one record per
computation: the tuples the builder files and the unrolling table replays
are the very objects the DAIG holds.  CI runs this module again under
``PYTHONHASHSEED=1`` and ``2``, so a replay order that followed set order
would fail there.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from helpers import LOOP_SOURCE, NESTED_SOURCE
from repro.daig import FIX, DaigEngine, MemoTable, stmt_name
from repro.daig.names import STMT
from repro.daig import build
from repro.daig.splice import stmt_cells_at
from repro.daig.build import (UNROLL_TABLE_CAPACITY, UnrollTable,
                              reset_unroll_table_stats, unroll_table_stats)
from repro.domains import IntervalDomain, OctagonDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.lang import ast as A
from repro.lang import build_cfg, parse_program
from repro.lang.cfg import Cfg
from repro.lang.programs import wide_call_graph_source
from repro.workload.generator import WorkloadGenerator

WORKER_SOURCE = wide_call_graph_source(1, inner_loops=3)


@pytest.fixture
def table(monkeypatch):
    """A fresh, empty unrolling table for the engines under test."""
    fresh = UnrollTable(UNROLL_TABLE_CAPACITY)
    monkeypatch.setattr(build, "UNROLL_TABLE", fresh)
    return fresh


class _DerivingTable(UnrollTable):
    """A table cleared before each lookup: every unrolling derives."""

    def get(self, key):
        self.clear()
        return super().get(key)


@contextmanager
def deriving():
    """Run the enclosed queries with a table that never replays."""
    saved = build.UNROLL_TABLE
    build.UNROLL_TABLE = _DerivingTable(UNROLL_TABLE_CAPACITY)
    try:
        yield
    finally:
        build.UNROLL_TABLE = saved


def _writes(engine):
    """Everything a write can change in ``engine``'s DAIG, comparable
    between engines that share their names and states.  Statements are
    compared by equality, with whether each cell holds its edge's very
    statement object (engines on copies of one CFG get their own objects
    from an inserted loop or conditional)."""
    daig = engine.daig
    cfg = engine.cfg
    statements = {key: stmt for loc in cfg.reachable_locations()
                  for key, stmt in stmt_cells_at(cfg, loc).items()}
    values = {}
    for name, value in daig.values.items():
        if name.kind == STMT:
            key = (name.loc, name.aux, name.index)
            values[name] = (value, value is statements.get(key))
        else:
            values[name] = id(value)
    return {
        "computations": list(daig.computations.values()),
        "cells": set(daig.cells()),
        "values": values,
        "dependents": daig.dependents,
        "stamps": daig.stamps,
        "shadows": {name: id(value) for name, value in daig.shadows.items()},
    }


def assert_files_held(engine, slid=True):
    """Every computation the builder filed is the very tuple the DAIG
    holds; with ``slid``, a ``fix`` computation, which unrolling and
    roll-back replace, need only still be a ``fix``."""
    computations = engine.daig.computations
    builder = engine.builder
    for files in (builder.encodings, builder.loop_encodings):
        for writes in files.values():
            for comp in writes:
                held = computations[comp[0]]
                assert held is comp or (slid and held[1] == comp[1] == FIX), (
                    comp, held)


def assert_same_daig(engine, twin):
    engine.daig.check_well_formed()
    assert_files_held(engine)
    assert _writes(engine) == _writes(twin)


def _main(source):
    return build_cfg(parse_program(source).procedure("main"))


def _same_counts(engines):
    first, second, twin = (engine.stats.as_dict() for engine in engines)
    assert first == second == twin
    return twin


def _worker(domain):
    """The triple-nested ``work0`` at the literal entry ``n = 0``."""
    entry = domain.call_entry(domain.initial(), ("n",), (A.IntLit(0),))
    cfg = build_cfg(parse_program(WORKER_SOURCE).procedure("work0"))
    return cfg, entry


def _engines(cfg, domain, entry=None):
    """An engine, a second engine and the twin, on copies of ``cfg`` that
    share its edges, hence its statement objects.  Stepped in lockstep, the
    second engine replays what the first has just recorded."""
    return [DaigEngine(each, domain, memo=MemoTable(), entry_state=entry)
            for each in (cfg, cfg.copy(), cfg.copy())]


def _query_all(engines, locations):
    *replaying, twin = engines
    for loc in locations:
        answers = [engine.query_location(loc) for engine in replaying]
        with deriving():
            answer = twin.query_location(loc)
        for engine, got in zip(replaying, answers):
            assert got is answer
            assert_same_daig(engine, twin)


def _edge(cfg, src, dst):
    return next(edge for edge in cfg.out_edges(src) if edge.dst == dst)


@pytest.mark.parametrize("domain_cls", [IntervalDomain, OctagonDomain])
@pytest.mark.parametrize("seed", [2, 7, 12, 29])
def test_fig10_streams(table, seed, domain_cls):
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    engines = _engines(cfg, domain_cls())
    stream = WorkloadGenerator(seed=seed, call_probability=0.0).generate(40)
    for step in stream:
        for engine in engines:
            step.edit.apply_to_engine(engine)
        _query_all(engines, step.query_locations)
    assert table.hits >= _same_counts(engines)["unrollings"] > 0


@pytest.mark.parametrize("policy", ["insensitive", "1-call-site"])
@pytest.mark.parametrize("seed", [10, 28])
def test_multiprocedure_streams(table, policy, seed):
    workload = WorkloadGenerator(seed=seed).generate_multiprocedure(30)
    engines = [InterproceduralEngine(workload.fresh_cfgs(), IntervalDomain(),
                                     policy_by_name(policy))
               for _ in range(3)]
    *replaying, twin = engines
    for step in workload.steps:
        for engine in engines:
            engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
        for procedure, loc in step.query_sites:
            answers = [engine.query(procedure, loc) for engine in replaying]
            with deriving():
                answer = twin.query(procedure, loc)
            for engine, got in zip(replaying, answers):
                assert got is answer
                assert engine.engines.keys() == twin.engines.keys()
                for key, daig_engine in engine.engines.items():
                    assert daig_engine.built == twin.engines[key].built
                    if daig_engine.built:
                        assert_same_daig(daig_engine, twin.engines[key])
    stats = [engine.total_stats() for engine in engines]
    assert stats[0] == stats[1] == stats[2]
    assert table.hits >= stats[2]["unrollings"] > 0


def _in_loop_bodies(cfg):
    """Reachable locations inside some loop, loop heads excluded."""
    return sorted(loc for loc in cfg.reachable_locations()
                  if cfg.in_any_loop(loc) and not cfg.is_loop_head(loc))


def _loop_edits(rng, cfg, round_index):
    """One seeded edit inside a loop body, as ``(method, args)`` for every
    engine (an edge is named by its endpoints)."""
    body = _in_loop_bodies(cfg)
    loc = rng.choice(body)
    kind = rng.choice(["statement", "statement", "relabel", "loop"])
    var = rng.choice(sorted(_variables(cfg)))
    bump = A.AssignStmt(
        var, A.BinOp("+", A.Var(var), A.IntLit(round_index % 3)))
    if kind == "statement":
        return "insert_statement_after", (loc, bump)
    if kind == "loop":
        counter = "w%d" % round_index
        return "insert_loop_after", (
            loc, A.BinOp("<", A.Var(counter), A.IntLit(3)),
            [A.AssignStmt(counter, A.BinOp("+", A.Var(counter), A.IntLit(1))),
             bump])
    edges = [edge for edge in cfg.edges if edge.src in body]
    edge = rng.choice(edges)
    return "replace_statement", ((edge.src, edge.dst), bump)


def _variables(cfg):
    return {edge.stmt.target for edge in cfg.edges
            if isinstance(edge.stmt, A.AssignStmt)}


def _apply(engine, method, args):
    if method == "replace_statement":
        (src, dst), stmt = args
        engine.replace_statement(_edge(engine.cfg, src, dst), stmt)
    else:
        getattr(engine, method)(*args)


@pytest.mark.parametrize("program", ["nested", "worker"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edits_inside_nested_loop_bodies(table, program, seed):
    domain = IntervalDomain()
    if program == "worker":
        cfg, entry = _worker(domain)
    else:
        cfg, entry = _main(NESTED_SOURCE), None
    engines = _engines(cfg, domain, entry)
    _query_all(engines, [cfg.exit])
    rng = random.Random(seed)
    for round_index in range(6):
        method, args = _loop_edits(rng, cfg, round_index)
        for engine in engines:
            _apply(engine, method, args)
        body = _in_loop_bodies(cfg)
        _query_all(engines, [cfg.exit] + rng.sample(body, min(3, len(body))))
    assert table.hits >= _same_counts(engines)["unrollings"] > 0


def test_an_equal_statement_is_re_pointed_at_the_splice(table):
    """A splice re-points a statement cell whose edge now carries an equal
    but distinct statement, with no stamp and nothing dirtied, so every
    statement cell holds its edge's statement and a replayed unrolling,
    which adds computations only, stays a derived one."""
    cfg = _main(LOOP_SOURCE)
    engines = _engines(cfg, IntervalDomain())
    _query_all(engines, [cfg.exit])
    body = _in_loop_bodies(cfg)
    edge = next(edge for edge in cfg.edges
                if edge.src in body and isinstance(edge.stmt, A.AssignStmt)
                and edge.stmt.target == "total")
    assert len(cfg.fwd_edges_to(edge.dst)) == 1
    equal = A.AssignStmt("total", A.BinOp("+", A.Var("total"), A.Var("i")))
    assert equal == edge.stmt and equal is not edge.stmt
    start = next(edge for edge in cfg.edges
                 if isinstance(edge.stmt, A.AssignStmt)
                 and edge.stmt.target == "i" and edge.src not in body)
    restart = A.AssignStmt("i", A.IntLit(1))
    cell = stmt_name(edge.src, edge.dst, 0)
    for engine in engines:
        # Raw surgery swaps in the equal statement: every encoding is
        # unchanged and the statement equal, so the whole-program splice
        # only re-points the cell.  Then a cell-level write of a new value
        # before the loop (Fig. 9's judgment, which dirties for demand)
        # rolls the loop back, so the next query replays its unrollings; a
        # structural edit would re-converge the loop as it splices.
        daig = engine.daig
        stamps, epoch = dict(daig.stamps), daig.epoch
        engine.cfg.remove_edge(_edge(engine.cfg, edge.src, edge.dst))
        engine.cfg.add_edge(edge.src, equal, edge.dst)
        engine.resync()
        report = engine.edit_stats.last_report
        assert report.full_capture
        assert (report.cells_removed, report.cells_added,
                report.cells_dirtied) == (0, 0, 0)
        assert daig.values[cell] is equal
        assert (daig.stamps, daig.epoch) == (stamps, epoch)
        engine.write_statement(_edge(engine.cfg, start.src, start.dst),
                               restart)
    hits = table.hits
    _query_all(engines, [cfg.exit])
    assert table.hits > hits
    assert all(engine.daig.values[cell] is equal for engine in engines)


def test_a_new_edge_inside_a_loop_body_changes_its_shape(table):
    """Raw surgery that adds a second edge between two loop-body locations
    keeps the loop's locations but turns the target into a join: the
    shape must change, or the unrolling would replay the old encoding."""
    cfg = _main(LOOP_SOURCE)
    engines = _engines(cfg, IntervalDomain())
    _query_all(engines, [cfg.exit])
    head = cfg.loop_heads()[0]
    body = set(cfg.natural_loop(head))
    edge = next(edge for edge in cfg.edges
                if edge.src in body and edge.dst in body and edge.dst != head
                and len(cfg.fwd_edges_to(edge.dst)) == 1)
    shape = engines[0].builder.loop_shape(head)
    shortcut = A.SkipStmt()
    for engine in engines:
        engine.cfg.add_edge(edge.src, shortcut, edge.dst)
        engine.resync()
    assert set(cfg.natural_loop(head)) == body
    assert engines[0].builder.loop_shape(head) is not shape
    _query_all(engines, [cfg.exit] + sorted(body))


def test_the_daig_holds_the_builders_own_computations(monkeypatch):
    """One record per computation: a build files the very tuples it
    inserts, and a replayed unrolling inserts its record's own tuples."""
    table = UnrollTable(UNROLL_TABLE_CAPACITY)
    monkeypatch.setattr(build, "UNROLL_TABLE", table)
    unroll = build.DaigBuilder.unroll
    replays = []

    def checked_unroll(builder, daig, head, overrides):
        hits = table.hits
        iterate = unroll(builder, daig, head, overrides)
        if table.hits > hits:
            # A hit moves the record it serves to the end.
            record = next(reversed(table._records.values()))
            for comp in record.writes:
                assert daig.computations[comp[0]] is comp
            replays.append(record)
        return iterate

    monkeypatch.setattr(build.DaigBuilder, "unroll", checked_unroll)
    domain = IntervalDomain()
    cfg, entry = _worker(domain)
    first, second = _engines(cfg, domain, entry)[:2]
    for engine in (first, second):
        engine.materialize()
        assert_files_held(engine, slid=False)
    first.query_exit()
    replayed = len(replays)
    # The second engine replays every unrolling the first recorded.
    second.query_exit()
    assert len(replays) - replayed == second.stats.unrollings > 0


def test_the_table_stays_within_its_capacity(monkeypatch):
    """The bound counts recorded computations; an evicted shape
    re-derives, with the same DAIG as a derivation."""
    capacity = 48
    small = UnrollTable(capacity)
    sizes = []
    put = small.put

    def checked_put(key, record):
        put(key, record)
        sizes.append(small.computations)
        assert small.computations == sum(
            held.weight for held in small._records.values())

    small.put = checked_put
    monkeypatch.setattr(build, "UNROLL_TABLE", small)
    domain = IntervalDomain()
    cfg, entry = _worker(domain)
    engines = _engines(cfg, domain, entry)
    _query_all(engines, [cfg.exit])
    assert max(sizes) <= capacity and small.evictions > 0
    # The second engine found the early shapes evicted and re-derived them.
    assert small.misses > 22
    assert engines[0].stats.as_dict() == engines[2].stats.as_dict()


def test_a_record_larger_than_the_table_is_not_kept(monkeypatch):
    # Each unrolling of LOOP_SOURCE's loop records 5 computations.
    tiny = UnrollTable(4)
    monkeypatch.setattr(build, "UNROLL_TABLE", tiny)
    domain = IntervalDomain()
    engine = DaigEngine(_main(LOOP_SOURCE), domain)
    engine.query_exit()
    assert engine.stats.unrollings > 0
    stats = tiny.stats()
    assert (stats["entries"], stats["computations"]) == (0, 0)
    assert stats["hits"] == 0
    assert tiny.misses == engine.stats.unrollings


def test_stats_and_their_reset():
    assert build.UNROLL_TABLE.capacity == UNROLL_TABLE_CAPACITY
    domain = IntervalDomain()
    cfg, entry = _worker(domain)
    DaigEngine(cfg, domain, entry_state=entry).query_exit()
    stats = unroll_table_stats()
    assert set(stats) == {"entries", "computations", "capacity", "hits",
                          "misses", "evictions"}
    assert stats["entries"] > 0
    assert 0 < stats["computations"] <= stats["capacity"]
    reset_unroll_table_stats()
    after = unroll_table_stats()
    assert (after["hits"], after["misses"], after["evictions"]) == (0, 0, 0)
    assert (after["entries"], after["computations"]) == (
        stats["entries"], stats["computations"])


def test_a_standalone_builder_always_derives(table):
    domain = IntervalDomain()
    engine = DaigEngine(_main(LOOP_SOURCE), domain)
    engine.query_exit()
    recorded = table.stats()
    builder = build.DaigBuilder(engine.cfg, domain)
    daig = builder.build()
    head = engine.cfg.loop_heads()[0]
    builder.unroll(daig, head, {})
    assert table.stats() == recorded
    daig.check_well_formed()
