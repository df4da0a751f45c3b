"""Tests for the DAIG rendering / inspection helpers."""

from repro.daig import DaigEngine
from repro.daig.render import describe_dirty_frontier, summarize_daig, to_dot
from repro.lang import ast as A
from repro.lang import build_cfg, parse_program

from helpers import LOOP_SOURCE


def make_engine(interval_domain):
    cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
    return cfg, DaigEngine(cfg, interval_domain)


class TestDotExport:
    def test_dot_contains_every_cell_and_is_balanced(self, interval_domain):
        cfg, engine = make_engine(interval_domain)
        dot = to_dot(engine.daig)
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")
        assert dot.count("shape=box") == cfg.size()
        # One junction node per computation.
        assert dot.count("shape=circle") == len(engine.daig.computations)

    def test_filled_cells_render_differently_after_queries(self, interval_domain):
        cfg, engine = make_engine(interval_domain)
        before = to_dot(engine.daig).count("style=filled")
        engine.query_location(cfg.exit)
        after = to_dot(engine.daig).count("style=filled")
        assert after > before

    def test_function_symbols_appear(self, interval_domain):
        _cfg, engine = make_engine(interval_domain)
        dot = to_dot(engine.daig)
        for symbol in ("⟦·⟧♯", "∇", "fix"):
            assert symbol in dot


class TestSummaries:
    def test_census_counts_are_consistent(self, interval_domain):
        cfg, engine = make_engine(interval_domain)
        census = summarize_daig(engine.daig)
        assert census["statement_cells"] == cfg.size()
        assert census["cells"] == (census["statement_cells"] + census["state_cells"]
                                   + census["prejoin_cells"]
                                   + census["prewiden_cells"] + census["fix_cells"])
        assert census["fix_cells"] == len(cfg.loop_heads())
        assert census["max_unrolling"] == 1

    def test_unrolling_depth_reflected_after_query(self, interval_domain):
        cfg, engine = make_engine(interval_domain)
        engine.query_location(cfg.exit)
        census = summarize_daig(engine.daig)
        assert census["max_unrolling"] >= 2
        assert census["filled_cells"] > cfg.size() + 1

    def test_dirty_frontier_grows_after_an_edit(self, interval_domain):
        # A cell-level write (Fig. 9) dirties for demand; a structural edit
        # here would be settled as it is spliced, leaving nothing dirty.
        # The new value flows through the loop, so its change does not die.
        cfg, engine = make_engine(interval_domain)
        engine.query_location(cfg.exit)
        clean = len(describe_dirty_frontier(engine.daig))
        start = next(edge for edge in cfg.edges
                     if isinstance(edge.stmt, A.AssignStmt)
                     and edge.stmt.target == "i" and not cfg.in_any_loop(edge.src))
        engine.write_statement(start, A.AssignStmt("i", A.IntLit(1)))
        dirty = len(describe_dirty_frontier(engine.daig))
        assert dirty > clean
