"""Tests for the four Fig. 10 analysis configurations.

The essential property is *cross-configuration consistency*: all four
configurations must report identical abstract states for the same queries
over the same edit stream — they differ only in how much work they do and
when, never in their answers.
"""

import pytest

from repro.analysis.config import (
    ALL_CONFIGURATIONS,
    BatchConfiguration,
    DemandConfiguration,
    IncrementalConfiguration,
    IncrementalDemandConfiguration,
    make_configuration,
)
from repro.ai.interpreter import analyze_cfg
from repro.daig import DaigEngine
from repro.domains import IntervalDomain, OctagonDomain, SignDomain
from repro.workload import WorkloadGenerator, run_trial


class TestFactory:
    def test_all_four_names(self):
        names = {cls.name for cls in ALL_CONFIGURATIONS}
        assert names == {"batch", "incremental", "demand-driven", "incr+demand"}

    @pytest.mark.parametrize("alias,expected", [
        ("batch", BatchConfiguration),
        ("incr", IncrementalConfiguration),
        ("demand", DemandConfiguration),
        ("I&DD", IncrementalDemandConfiguration),
    ])
    def test_aliases(self, alias, expected):
        assert isinstance(make_configuration(alias, SignDomain()), expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_configuration("turbo", SignDomain())

    def test_capability_flags(self):
        assert BatchConfiguration.demand_driven is False
        assert BatchConfiguration.incremental is False
        assert IncrementalConfiguration.incremental is True
        assert DemandConfiguration.demand_driven is True
        assert IncrementalDemandConfiguration.incremental is True
        assert IncrementalDemandConfiguration.demand_driven is True


@pytest.mark.parametrize("domain_cls", [SignDomain, IntervalDomain])
class TestCrossConfigurationConsistency:
    def test_all_configurations_agree_on_every_query(self, domain_cls):
        steps = WorkloadGenerator(seed=13, call_probability=0.0).generate(15)
        configurations = [cls(domain_cls()) for cls in ALL_CONFIGURATIONS]
        reference_domain = domain_cls()
        for step in steps:
            answers = [config.step(step.edit, step.query_locations)
                       for config in configurations]
            for other in answers[1:]:
                for loc in step.query_locations:
                    assert reference_domain.equal(answers[0][loc], other[loc]), (
                        "configurations disagree at %d after %s"
                        % (loc, step.edit.describe()))

    def test_program_sizes_stay_in_sync(self, domain_cls):
        steps = WorkloadGenerator(seed=3, call_probability=0.0).generate(10)
        configurations = [cls(domain_cls()) for cls in ALL_CONFIGURATIONS]
        for step in steps:
            for config in configurations:
                config.apply_edit(step.edit)
        sizes = {config.program_size() for config in configurations}
        assert len(sizes) == 1


class TestWorkloadIntegration:
    def test_run_trial_produces_one_sample_per_step(self):
        steps = WorkloadGenerator(seed=21, call_probability=0.0).generate(12)
        config = IncrementalDemandConfiguration(OctagonDomain())
        result = run_trial(config, steps)
        assert len(result.samples) == 12
        assert all(sample.seconds >= 0 for sample in result.samples)
        assert result.summary()["p99"] >= result.summary()["p50"]

    def test_incr_demand_does_less_work_than_batch(self):
        steps = WorkloadGenerator(seed=8, call_probability=0.0).generate(30)
        batch = BatchConfiguration(OctagonDomain())
        combined = IncrementalDemandConfiguration(OctagonDomain())
        batch_result = run_trial(batch, steps)
        combined_result = run_trial(combined, steps)
        # Wall-clock comparison on 30 edits: the combined technique must not
        # be slower overall than from-scratch batch re-analysis.
        assert sum(combined_result.latencies()) < sum(batch_result.latencies())


def test_octagon_incremental_answer_equals_fresh_engine():
    """Theorem 6.1 on octagons: after 61 edits of this generated stream,
    the demanded answer at location 81 equals a fresh engine's on a copy
    of the final program."""
    domain = OctagonDomain()
    configuration = IncrementalDemandConfiguration(domain)
    for step in WorkloadGenerator(seed=700042).generate(61):
        answers = configuration.step(step.edit, step.query_locations)
    expected = DaigEngine(configuration.cfg.copy(), domain).query_location(81)
    if not domain.equal(expected,
                        analyze_cfg(configuration.cfg.copy(), domain)[81]):
        # Not the pinned assertion: the fresh-engine oracle itself broke.
        pytest.fail("a fresh engine disagrees with analyze_cfg at 81")
    assert domain.equal(answers[81], expected)
