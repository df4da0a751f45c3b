"""Tests for DAIG names, the graph structure, and well-formedness checking."""

import signal
from contextlib import contextmanager

import pytest

from helpers import BRANCH_SOURCE
from repro.daig import (DaigBuilder, InvalidEditError, MemoTable,
                        dirty_forward, write_cell)
from repro.daig import names as N
from repro.daig.graph import (
    Daig,
    IllFormedDaigError,
    JOIN,
    TRANSFER,
    WIDEN,
)
from repro.daig.query import QueryEvaluator
from repro.domains import IntervalDomain
from repro.lang import build_cfg, parse_program


class TestNames:
    def test_structural_equality(self):
        assert N.state_name(3, [7], {7: 1}) == N.state_name(3, [7], {7: 1})
        assert N.state_name(3, [7], {7: 1}) != N.state_name(3, [7], {7: 2})
        assert N.stmt_name(1, 2) != N.stmt_name(2, 1)

    def test_names_are_hashable_and_usable_as_keys(self):
        table = {N.stmt_name(0, 1): "a", N.fix_name(5, [], {}): "b"}
        assert table[N.stmt_name(0, 1)] == "a"

    def test_cell_types(self):
        assert N.stmt_name(0, 1).cell_type() == N.TYPE_STMT
        assert N.state_name(0, [], {}).cell_type() == N.TYPE_STATE
        assert N.fix_name(3, [], {}).cell_type() == N.TYPE_STATE

    def test_iteration_of(self):
        name = N.state_name(4, [2, 3], {2: 1, 3: 5})
        assert name.iteration_of(2) == 1
        assert name.iteration_of(3) == 5
        assert name.iteration_of(99) == 0

    def test_prewiden_iteration(self):
        name = N.prewiden_name(3, 4, [3], {})
        assert name.iteration_of(3) == 4
        assert name.mentions_head_iteration(3, 2)
        assert not name.mentions_head_iteration(3, 5)

    def test_fix_name_excludes_own_head(self):
        name = N.fix_name(3, [2, 3], {2: 1})
        assert dict(name.iters) == {2: 1}

    def test_mentions_head_iteration(self):
        name = N.state_name(9, [4], {4: 3})
        assert name.mentions_head_iteration(4, 2)
        assert name.mentions_head_iteration(4, 3)
        assert not name.mentions_head_iteration(4, 4)
        assert not name.mentions_head_iteration(5, 1)

    def test_renderings_are_distinct(self):
        rendered = {str(N.state_name(1, [], {})), str(N.fix_name(1, [], {})),
                    str(N.stmt_name(1, 2)), str(N.prejoin_name(1, 2, [], {})),
                    str(N.prewiden_name(1, 2, [], {}))}
        assert len(rendered) == 5


#: A loop whose body calls a procedure, so a call transfer runs inside
#: every unrolling.
CALL_IN_LOOP_SOURCE = """
function step(v) { return v + 1; }
function main() {
  var i = 0;
  var x = 0;
  while (i < 10) {
    x = step(i);
    i = i + 1;
  }
  return x;
}
"""


def simple_daig():
    """entry --stmt--> out, as a minimal transfer DAIG: two source cells
    and one computed cell."""
    daig = Daig()
    entry = N.state_name(0, [], {})
    out = N.state_name(1, [], {})
    stmt = N.stmt_name(0, 1)
    daig.hold(entry, "phi0")
    daig.hold(stmt, "skip")
    daig.add_computation((out, TRANSFER, (stmt, entry)))
    return daig, entry, stmt, out


def built_daig():
    """``BRANCH_SOURCE``'s initial DAIG, with its builder."""
    cfg = build_cfg(parse_program(BRANCH_SOURCE).procedure("main"))
    builder = DaigBuilder(cfg, IntervalDomain())
    return builder.build(), builder


@contextmanager
def deadline(seconds):
    """Fail, instead of hanging, when the enclosed code runs past
    ``seconds`` of wall-clock time."""
    def expire(_signum, _frame):
        raise TimeoutError("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDaigStructure:
    def test_add_and_query_cells(self):
        daig, entry, stmt, out = simple_daig()
        assert daig.has_value(entry)
        assert not daig.has_value(out)
        assert daig.defining(out) == (out, TRANSFER, (stmt, entry))
        assert daig.dependents_of(entry) == {out}

    def test_cells_are_the_sources_and_the_destinations(self):
        daig, entry, stmt, out = simple_daig()
        assert daig.sources == {entry, stmt}
        assert set(daig.cells()) == {entry, stmt, out}
        assert all(map(daig.declares, (entry, stmt, out)))
        assert not daig.declares(N.state_name(2, [], {}))

    def test_duplicate_destination_rejected(self):
        daig, entry, stmt, out = simple_daig()
        with pytest.raises(IllFormedDaigError):
            daig.add_computation((out, JOIN, (entry,)))

    def test_idempotent_recreation_allowed(self):
        daig, entry, stmt, out = simple_daig()
        again = (out, TRANSFER, (stmt, entry))
        daig.add_computation(again)  # equal: no error, and it is kept
        assert daig.defining(out) is again
        assert daig.dependents_of(entry) == {out}

    def test_replace_computation(self):
        daig, entry, stmt, out = simple_daig()
        other = N.state_name(2, [], {})
        daig.hold(other, "phi2")
        daig.replace_computation((out, TRANSFER, (stmt, other)))
        assert daig.defining(out)[2][1] == other
        assert out not in daig.dependents_of(entry)

    def test_forward_reachability(self):
        daig, entry, stmt, out = simple_daig()
        further = N.state_name(2, [], {})
        daig.add_computation((further, TRANSFER, (stmt, out)))
        assert daig.forward_reachable([entry]) == {out, further}
        assert daig.reaches(entry, further)
        assert not daig.reaches(further, entry)

    def test_well_formedness_passes_on_valid_daig(self):
        daig, *_ = simple_daig()
        daig.check_well_formed()

    def test_cycle_detection(self):
        daig = Daig()
        a = N.state_name(0, [], {})
        b = N.state_name(1, [], {})
        daig.add_computation((b, JOIN, (a,)))
        daig.add_computation((a, JOIN, (b,)))
        with pytest.raises(IllFormedDaigError):
            daig.check_well_formed()

    def test_empty_cell_without_computation_rejected(self):
        """Def. 4.1: a cell with no defining computation holds a value, so
        an emptied source cell is ill-formed."""
        daig, entry, _stmt, _out = simple_daig()
        daig.clear_value(entry)
        with pytest.raises(IllFormedDaigError,
                           match="no defining computation"):
            daig.check_well_formed()

    def test_an_input_neither_source_nor_computed_is_rejected(self):
        daig, _entry, stmt, _out = simple_daig()
        dangling = N.state_name(3, [], {})
        daig.add_computation((N.state_name(2, [], {}), TRANSFER,
                              (stmt, dangling)))
        assert not daig.declares(dangling)
        with pytest.raises(IllFormedDaigError, match="undeclared"):
            daig.check_well_formed()

    def test_a_source_with_a_computation_is_rejected(self):
        daig, entry, stmt, _out = simple_daig()
        held = N.state_name(2, [], {})
        daig.hold(held, "phi2")
        daig.add_computation((held, TRANSFER, (stmt, entry)))
        with pytest.raises(IllFormedDaigError, match="source cell"):
            daig.check_well_formed()

    def test_type_checking_of_computations(self):
        daig = Daig()
        state = N.state_name(0, [], {})
        stmt = N.stmt_name(0, 1)
        daig.hold(state, "phi")
        daig.hold(stmt, "skip")
        # Transfer with swapped inputs is ill-typed.
        daig.add_computation((N.state_name(1, [], {}), TRANSFER,
                              (state, stmt)))
        with pytest.raises(IllFormedDaigError):
            daig.check_well_formed()

    def test_writing_to_statement_cells_is_ill_typed(self):
        daig = Daig()
        state = N.state_name(0, [], {})
        daig.hold(state, "phi")
        daig.add_computation((N.stmt_name(0, 1), JOIN, (state,)))
        with pytest.raises(IllFormedDaigError):
            daig.check_well_formed()

    def test_fix_and_widen_arity_checked(self):
        daig = Daig()
        a, b, c = (N.state_name(i, [], {}) for i in range(3))
        for name in (a, b):
            daig.hold(name, "phi")
        daig.add_computation((c, WIDEN, (a,)))
        with pytest.raises(IllFormedDaigError):
            daig.check_well_formed()

    def test_remove_ref_clears_value_and_computation(self):
        daig, entry, stmt, out = simple_daig()
        daig.set_value(out, "phi1")
        daig.remove_ref(out)
        assert not daig.declares(out)
        assert not daig.has_value(out)
        assert daig.defining(out) is None
        daig.remove_ref(stmt)
        assert stmt not in daig.sources

    def test_set_value_requires_declared_ref(self):
        """``set_value`` and ``write_cell`` reject a name that is neither a
        source nor computed."""
        daig, builder = built_daig()
        undeclared = N.state_name(999, [], {})
        with pytest.raises(KeyError):
            daig.set_value(undeclared, "phi")
        with pytest.raises(InvalidEditError):
            write_cell(daig, builder, undeclared, "phi")
        assert not daig.declares(undeclared)

    def test_a_query_reaching_a_dangling_input_raises(self):
        """An empty input with no computation, reached while no dirtying
        ran under the walk, is a dangling input of an ill-formed DAIG, not
        a cell a reentrant call removed: the query raises instead of
        restarting the walk, which would only reach it again."""
        daig, builder = built_daig()
        cfg = builder.cfg
        exit_cell = builder.state_name(cfg.exit, {})
        entry_cell = builder.state_name(cfg.entry, {})
        dangling = next(name for name in daig.computations
                        if name.kind == N.STATE
                        and name not in (exit_cell, entry_cell))
        daig.remove_computation(dangling)
        evaluator = QueryEvaluator(daig, MemoTable(), builder.domain, builder)
        with deadline(10), pytest.raises(IllFormedDaigError,
                                          match="undefined empty cell"):
            evaluator.query(exit_cell)

    def test_a_cell_a_reentrant_call_removes_restarts_the_walk(self):
        """A call transfer that dirties its own DAIG under a walk (as the
        interprocedural engine does when a callee's summary changes) can
        roll back a loop the demand path runs through.  The walk then finds
        a cell on its stack gone, in a new epoch, and restarts from the
        root; the answer is the undisturbed one."""
        answers = []
        for disturb in (False, True):
            program = parse_program(CALL_IN_LOOP_SOURCE)
            cfg = build_cfg(program.procedure("main"))
            builder = DaigBuilder(cfg, IntervalDomain())
            daig = builder.build()
            head = cfg.loop_heads()[0]
            iterate2 = builder.state_name(head, {head: 2})
            disturbed = []

            def call(_stmt, state, _cell):
                # Once the first unrolling exists, a call in its body rolls
                # the loop back: the demand path's pre-widening cell of
                # iterate 2 is removed while the call's own cell stays.
                if disturb and not disturbed and iterate2 in daig.computations:
                    disturbed.append(iterate2)
                    dirty_forward(daig, builder, [iterate2])
                return state

            evaluator = QueryEvaluator(daig, MemoTable(), builder.domain,
                                       builder, call_transfer=call)
            with deadline(10):
                answers.append(
                    evaluator.query(builder.state_name(cfg.exit, {})))
            daig.check_well_formed()
            assert len(disturbed) == disturb
            assert evaluator.stats.unrollings == 1 + disturb
        assert answers[0] == answers[1]

    def test_size_and_pretty(self):
        daig, *_ = simple_daig()
        cells, comps = daig.size()
        assert cells == 3 and comps == 1
        assert "DAIG with" in daig.pretty()
