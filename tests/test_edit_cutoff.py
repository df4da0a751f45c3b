"""Edits settled as they are spliced: change propagation with cutoff.

An engine with no call hook and cutoff on settles each structural edit
at edit time (:meth:`repro.daig.query.QueryEvaluator.propagate`): it
recomputes the cells that read a changed value, stops wherever a value
comes back unchanged, and dirties only the loops a change enters, which
demand re-converges at once.  The differential tests drive Fig. 10 streams
and check after every edit and every step that the answers equal the batch
interpreter's (Theorem 6.1) and those of a cutoff-disabled twin, which
dirties everything below an edit instead, and that the DAIG is well formed,
matches a fresh build and holds no value its inputs would not give.  The
locality tests pin what an edit costs: what its change reaches, not the
code below it.  CI runs this module again under ``PYTHONHASHSEED=1`` and
``2``: the propagation orders its work explicitly, never by set order.
"""

from __future__ import annotations

from collections import Counter

import pytest

from helpers import assert_daig_matches_fresh_build, assert_values_consistent
from repro.ai.interpreter import analyze_cfg
from repro.daig import DaigEngine, query
from repro.daig.names import STMT
from repro.domains import IntervalDomain, OctagonDomain
from repro.lang import ast as A
from repro.lang import build_cfg, parse_program
from repro.lang.cfg import Cfg
from repro.workload.generator import WorkloadGenerator


def _check(engine, tag):
    engine.daig.check_well_formed()
    assert_daig_matches_fresh_build(engine, tag)
    assert_values_consistent(engine, tag)


def _empty_program():
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg


def _run_stream(domain, seed, edits, batch):
    engine = DaigEngine(_empty_program(), domain)
    twin = DaigEngine(_empty_program(), domain, cutoff=False)
    stream = WorkloadGenerator(seed=seed).generate(edits)
    for start in range(0, len(stream), batch):
        steps = stream[start:start + batch]
        with engine.batch_edits():
            for step in steps:
                step.edit.apply_to_engine(engine)
        for step in steps:
            step.edit.apply_to_engine(twin)
        _check(engine, (seed, start, "edit"))
        reference = analyze_cfg(engine.cfg.copy(), domain)
        for loc in steps[-1].query_locations:
            answer = engine.query_location(loc)
            assert domain.equal(answer, twin.query_location(loc)), (start, loc)
            assert domain.equal(answer, reference.get(loc, domain.bottom())), (
                start, loc)
        _check(engine, (seed, start, "query"))
    return engine


# Seed 424200008 once made a propagation that rolled back a loop it had
# just re-converged re-add an inner loop's slid fix computation (step 55).
@pytest.mark.parametrize("domain_cls, seed, edits", [
    (IntervalDomain, 0, 60),
    (IntervalDomain, 3, 60),
    (IntervalDomain, 424200008, 60),
    (OctagonDomain, 7, 40),
    (OctagonDomain, 424200008, 60),
])
def test_streams_answer_as_the_batch_interpreter_and_a_dirtying_twin(
        domain_cls, seed, edits):
    engine = _run_stream(domain_cls(), seed, edits, batch=1)
    stats = engine.stats.as_dict()
    assert stats["cells_propagated"] > 0 and stats["unrollings"] > 0


def test_what_the_budget_leaves_is_dirtied_for_demand(monkeypatch):
    """With room for four cells per splice, most changes are cut short:
    the rest is dirtied with shadows, and queries recompute or restore
    it."""
    monkeypatch.setattr(query, "PROPAGATION_BUDGET", 4)
    engine = _run_stream(IntervalDomain(), 1, 60, batch=1)
    stats = engine.stats.as_dict()
    assert stats["cells_restored"] > 0 and stats["cells_propagated"] > 0


def test_batched_edits_settle_in_one_splice():
    """Three edits per splice: several seeds, far apart, at once."""
    engine = _run_stream(IntervalDomain(), 5, 60, batch=3)
    # The first batch lands before the first query builds the DAIG.
    assert engine.edit_stats.as_dict()["splices"] == 19


def _edge(cfg, target, stmt_text=None, in_loop=False):
    return next(edge for edge in cfg.edges
                if isinstance(edge.stmt, A.AssignStmt)
                and edge.stmt.target == target
                and (stmt_text is None or str(edge.stmt) == stmt_text)
                and cfg.in_any_loop(edge.src) == in_loop)


def _counts(engine):
    query = engine.stats.as_dict()
    return {"dirtied": engine.edit_stats.cells_dirtied,
            "restored": query["cells_restored"],
            "propagated": query["cells_propagated"],
            "computed": query["cells_computed"],
            "transfers": query["transfers"]}


def _delta(engine, before):
    after = _counts(engine)
    return {key: after[key] - before[key] for key in after}


STRAIGHT_SOURCE = """
function main() {
  var x = 1;
  var y = x + 2;
  var z = y * 3;
  var w = z - y;
  return w;
}
"""

#: A loop with code after it that reads what the loop computed.
LOOP_THEN_CODE_SOURCE = """
function main() {
  var i = 0;
  var t = 0;
  while (i < 10) {
    t = i;
    i = i + 1;
  }
  var a = t + 1;
  var b = a * 2;
  return b;
}
"""


class TestLocality:
    """An edit costs what its change reaches."""

    def test_a_value_preserving_relabel_recomputes_only_its_transfer(self):
        cfg = build_cfg(parse_program(STRAIGHT_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, IntervalDomain())
        exit_value = engine.query_exit()
        before = _counts(engine)
        engine.replace_statement(
            _edge(cfg, "y"), A.AssignStmt("y", A.BinOp("+", A.IntLit(2),
                                                       A.Var("x"))))
        assert _delta(engine, before) == {
            "dirtied": 0, "restored": 0, "propagated": 1, "computed": 0,
            "transfers": 1}
        assert engine.query_exit() is exit_value
        assert _delta(engine, before)["computed"] == 0

    def test_an_edit_inside_a_loop_whose_fixpoint_holds_stays_in_the_loop(self):
        """Inserting a repeat of ``t = i`` re-encodes the loop, so its fix
        cell is one of the edit's own cells, and re-converging the loop
        brings back the same fixpoint: no cell outside the loop is
        dirtied, and each keeps its value."""
        cfg = build_cfg(parse_program(LOOP_THEN_CODE_SOURCE).procedure("main"))
        engine = DaigEngine(cfg, IntervalDomain())
        engine.query_exit()
        head = cfg.loop_heads()[0]
        loop = cfg.natural_loop(head)
        daig = engine.daig
        outside = {name: value for name, value in daig.values.items()
                   if name.kind != STMT and name.loc not in loop}
        engine.insert_statement_after(_edge(cfg, "t", "t = i", in_loop=True).dst,
                                      A.AssignStmt("t", A.Var("i")))
        assert engine.edit_stats.last_report.cells_dirtied > 0
        assert {name: daig.values.get(name) for name in outside} == outside
        _check(engine, "loop")

    def test_an_insertion_after_the_entry_costs_the_same_at_any_size(self):
        """The change of ``h = k`` right after the entry runs through two
        statements and dies at ``h = -1``: the same dirtied, restored,
        propagated and computed cells at 60 and at 120 edits."""
        works = []
        for edits in (60, 120):
            engine = DaigEngine(_empty_program(), IntervalDomain())
            generator = WorkloadGenerator(seed=11, call_probability=0.0)
            for step in generator.generate(edits):
                step.edit.apply_to_engine(engine)
            engine.query_all()
            entry = engine.cfg.entry
            for stmt in (A.AssignStmt("h", A.IntLit(-1)),
                         A.AssignStmt("g", A.IntLit(2)),
                         A.AssignStmt("f", A.IntLit(1))):
                engine.insert_statement_after(entry, stmt)
            before = _counts(engine)
            for index in range(10):
                engine.insert_statement_after(entry,
                                              A.AssignStmt("h", A.IntLit(index)))
            works.append(_delta(engine, before))
            _check(engine, edits)
        assert works[0] == works[1], works
        assert works[0]["propagated"] > 0


def test_an_edit_whose_transfer_raises_leaves_no_stale_value(monkeypatch):
    """A domain operation that raises while an edit is settled dirties
    what the walk had not settled yet, so the next query recomputes it."""
    cfg = build_cfg(parse_program(STRAIGHT_SOURCE).procedure("main"))
    domain = IntervalDomain()
    engine = DaigEngine(cfg, domain)
    engine.query_exit()
    transfer = IntervalDomain.transfer
    failed = []

    def fail_once(self, stmt, state):
        if not failed:
            failed.append(stmt)
            raise RuntimeError("transfer failed")
        return transfer(self, stmt, state)

    monkeypatch.setattr(IntervalDomain, "transfer", fail_once)
    with pytest.raises(RuntimeError):
        engine.replace_statement(_edge(cfg, "x"),
                                 A.AssignStmt("x", A.IntLit(5)))
    assert failed
    _check(engine, "raised")
    fresh = DaigEngine(cfg.copy(), domain)
    assert all(domain.equal(engine.query_location(loc), value)
               for loc, value in fresh.query_all().items())


def test_a_changed_location_is_derived_once_per_splice():
    """A splice compares a suspect with its filed encoding by deriving it
    detached, and a changed one is inserted as derived, not derived
    again."""
    cfg = build_cfg(parse_program(STRAIGHT_SOURCE).procedure("main"))
    engine = DaigEngine(cfg, IntervalDomain())
    engine.query_exit()
    derived = Counter()
    encode_incoming = engine.builder.encode_incoming

    def counting(daig, loc, overrides):
        derived[loc] += 1
        return encode_incoming(daig, loc, overrides)

    engine.builder.encode_incoming = counting
    edge = _edge(cfg, "z")
    engine.insert_statement_after(edge.src, A.AssignStmt("y", A.IntLit(4)))
    # The new location and the moved edge's destination, once each.
    assert sorted(derived.values()) == [1, 1]
    assert edge.dst in derived
    _check(engine, "derived once")
