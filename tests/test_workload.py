"""Tests for the synthetic workload generator, driver, and statistics."""

import pytest

from repro.lang import ast as A
from repro.lang.cfg import Cfg
from repro.daig import DaigEngine
from repro.domains import SignDomain
from repro.workload import (
    InsertConditional,
    InsertLoop,
    InsertStatement,
    LatencySample,
    WorkloadGenerator,
    cumulative_distribution,
    format_summary_table,
    fraction_within,
    generate_trials,
    percentile,
    scatter_series,
    summarize,
)
from repro.workload.generator import (
    CONDITIONAL_PROBABILITY,
    LOOP_PROBABILITY,
    STATEMENT_PROBABILITY,
)


def empty_cfg():
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    return cfg


class TestGenerator:
    def test_deterministic_by_seed(self):
        first = WorkloadGenerator(seed=7).generate(30)
        second = WorkloadGenerator(seed=7).generate(30)
        assert [s.edit for s in first] == [s.edit for s in second]
        assert [s.query_locations for s in first] == [s.query_locations for s in second]

    def test_different_seeds_differ(self):
        first = WorkloadGenerator(seed=1).generate(30)
        second = WorkloadGenerator(seed=2).generate(30)
        assert [s.edit for s in first] != [s.edit for s in second]

    def test_edit_kind_distribution_roughly_matches_paper(self):
        steps = WorkloadGenerator(seed=0).generate(600)
        statements = sum(isinstance(s.edit, InsertStatement) for s in steps)
        conditionals = sum(isinstance(s.edit, InsertConditional) for s in steps)
        loops = sum(isinstance(s.edit, InsertLoop) for s in steps)
        assert statements + conditionals + loops == 600
        assert abs(statements / 600 - STATEMENT_PROBABILITY) < 0.06
        assert abs(conditionals / 600 - CONDITIONAL_PROBABILITY) < 0.05
        assert abs(loops / 600 - LOOP_PROBABILITY) < 0.04

    def test_queries_per_edit(self):
        steps = WorkloadGenerator(seed=0, queries_per_edit=5).generate(10)
        assert all(len(s.query_locations) == 5 for s in steps)

    def test_program_size_grows_monotonically(self):
        steps = WorkloadGenerator(seed=3).generate(50)
        sizes = [s.program_size for s in steps]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_generated_programs_remain_reducible(self):
        generator = WorkloadGenerator(seed=5)
        generator.generate(80)
        assert generator.cfg.is_reducible()

    def test_query_locations_exist_in_program(self):
        generator = WorkloadGenerator(seed=4)
        steps = generator.generate(40)
        final_locations = generator.cfg.locations
        for step in steps:
            for loc in step.query_locations:
                assert loc in final_locations

    def test_callee_programs_parse(self):
        from repro.lang import parse_program
        for source in WorkloadGenerator().callee_programs().values():
            parse_program(source)


class TestEditObjects:
    def test_cfg_and_engine_application_agree(self):
        generator = WorkloadGenerator(seed=9, call_probability=0.0)
        steps = generator.generate(20)
        cfg = empty_cfg()
        engine = DaigEngine(empty_cfg(), SignDomain())
        for step in steps:
            step.edit.apply_to_cfg(cfg)
            step.edit.apply_to_engine(engine)
        assert cfg.size() == engine.cfg.size()
        assert sorted(str(e.stmt) for e in cfg.edges) == sorted(
            str(e.stmt) for e in engine.cfg.edges)

    def test_describe_is_informative(self):
        edit = InsertStatement(3, A.AssignStmt("x", A.IntLit(1)))
        assert "x = 1" in edit.describe()
        loop = InsertLoop(3, A.BinOp("<", A.Var("i"), A.IntLit(2)), ())
        assert "while" in loop.describe()


class TestDriver:
    def test_generate_trials_are_independent_and_reproducible(self):
        first = generate_trials(edits=10, trials=2, base_seed=11)
        second = generate_trials(edits=10, trials=2, base_seed=11)
        assert len(first) == 2
        assert [s.edit for s in first[0]] == [s.edit for s in second[0]]
        assert [s.edit for s in first[0]] != [s.edit for s in first[1]]


class TestStatistics:
    def test_percentile_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 0.5) == 0.3
        assert percentile(samples, 0.0) == 0.1
        assert percentile(samples, 1.0) == 0.5
        assert percentile([7.0], 0.9) == 7.0
        # The rank is ceil(fraction * n), also when fraction * n is a whole
        # number: the p50 of two samples is the smaller one.
        assert percentile([1.0, 2.0], 0.5) == 1.0
        ranks = [float(rank) for rank in range(1, 61)]
        assert percentile(ranks[:10], 0.9) == 9.0
        assert percentile(ranks[:20], 0.95) == 19.0
        assert percentile(ranks, 0.95) == 57.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_summarize_keys_and_ordering(self):
        summary = summarize([float(i) for i in range(1, 101)])
        assert summary["p50"] <= summary["p90"] <= summary["p95"] <= summary["p99"]
        assert abs(summary["mean"] - 50.5) < 1e-9

    def test_cdf_is_monotone_and_ends_at_one(self):
        cdf = cumulative_distribution([0.5, 1.0, 2.0, 4.0], points=10)
        fractions = [fraction for _latency, fraction in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_fraction_within(self):
        assert fraction_within([0.1, 0.2, 0.9], 0.5) == pytest.approx(2 / 3)
        assert fraction_within([], 1.0) == 0.0

    def test_scatter_series_buckets_by_size(self):
        samples = [LatencySample(size, 0.01 * size) for size in range(10, 110)]
        series = scatter_series(samples, buckets=5)
        sizes = [bucket for bucket, _mean, _max in series]
        assert sizes == sorted(sizes)
        means = [mean for _bucket, mean, _max in series]
        assert means == sorted(means)

    def test_format_summary_table(self):
        table = format_summary_table({"batch": summarize([1.0, 2.0, 3.0])})
        assert "batch" in table and "mean" in table
