"""Properties of the hash-consing layer (``repro.intern``).

Every abstract-state type is *totally* interned: all construction funnels
through a per-type weak-value table, so structural equality coincides with
object identity.  The properties checked here:

* ``intern(a) is intern(b)``  iff  ``a == b`` — constructing from equal
  components yields the very same object; distinct components yield
  distinct objects (for names, scalar values, array summaries,
  environments, intervals, constants, and octagon states).
* The tables hold their entries **weakly**: tearing down an engine releases
  its states, so intern tables cannot leak memory across engine lifetimes.
* The demanded-equals-from-scratch guarantees survive interning, including
  for the octagon domain whose states carry a ``closed`` flag outside the
  intern key.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ai import analyze_cfg
from repro.analysis.config import IncrementalDemandConfiguration
from repro.daig import DaigEngine
from repro.domains import IntervalDomain, OctagonDomain
from repro.domains.nonrel import ArraySummary, EnvState, ScalarValue
from repro.domains.octagon import OctagonState
from repro.domains.values import Constant, Interval
from repro.daig.names import Name
from repro.intern import all_tables, intern_stats, reset_intern_stats
from repro.lang import ast as A
from repro.lang.cfg import Cfg
from repro.workload import generate_trials, run_trial
from repro.workload.generator import WorkloadGenerator

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

bounds = st.one_of(st.none(), st.integers(min_value=-8, max_value=8))
intervals = st.builds(
    Interval.make,
    st.one_of(st.none(), st.integers(min_value=-8, max_value=8)),
    st.one_of(st.none(), st.integers(min_value=-8, max_value=8)),
)
scalars = st.builds(
    ScalarValue,
    intervals,
    st.booleans(),
    st.booleans(),
)


# ---------------------------------------------------------------------------
# intern(a) is intern(b)  iff  a == b
# ---------------------------------------------------------------------------

@settings(**COMMON_SETTINGS)
@given(lo=bounds, hi=bounds)
def test_interval_identity_iff_equal(lo, hi):
    first = Interval.make(lo, hi)
    second = Interval.make(lo, hi)
    assert first is second
    shifted = Interval.make(lo, None if hi is None else hi + 1)
    assert (shifted is first) == (shifted == first)


@settings(**COMMON_SETTINGS)
@given(kind=st.sampled_from(["top", "bottom", "const"]),
       value=st.integers(min_value=-5, max_value=5))
def test_constant_identity_iff_equal(kind, value):
    first = Constant(kind, value if kind == "const" else 0)
    second = Constant(kind, value if kind == "const" else 0)
    assert first is second
    other = Constant("const", value + 1)
    assert (other is first) == (other == first)


@settings(**COMMON_SETTINGS)
@given(value=scalars, null=st.booleans(), other=st.booleans())
def test_scalar_value_identity_iff_equal(value, null, other):
    first = ScalarValue(value.num, null, other)
    second = ScalarValue(value.num, null, other)
    assert first is second
    flipped = ScalarValue(value.num, not null, other)
    assert flipped is not first
    assert flipped != first


@settings(**COMMON_SETTINGS)
@given(length=intervals, element=scalars)
def test_array_summary_identity_iff_equal(length, element):
    assert ArraySummary(length, element) is ArraySummary(length, element)


@settings(**COMMON_SETTINGS)
@given(names=st.lists(st.sampled_from("abcdef"), unique=True, max_size=4),
       value=scalars)
def test_env_state_identity_iff_equal(names, value):
    bindings = tuple((name, value) for name in sorted(names))
    first = EnvState(bindings)
    second = EnvState(bindings)
    assert first is second
    if bindings:
        smaller = EnvState(bindings[:-1])
        assert smaller is not first
        assert smaller != first
    assert EnvState(bottom=True) is EnvState(bottom=True)
    assert EnvState(bottom=True) is not EnvState(())


@settings(**COMMON_SETTINGS)
@given(kind=st.sampled_from(["state", "fix", "stmt"]),
       loc=st.integers(min_value=0, max_value=50),
       aux=st.integers(min_value=0, max_value=3))
def test_name_identity_iff_equal(kind, loc, aux):
    first = Name(kind, loc, aux)
    second = Name(kind, loc, aux)
    assert first is second
    assert Name(kind, loc + 1, aux) is not first


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=500))
def test_octagon_state_identity_iff_equal(seed):
    domain = OctagonDomain()
    rng = np.random.default_rng(seed)
    state = domain.initial(["x", "y"])
    state = domain.transfer(
        A.AssignStmt("x", A.IntLit(int(rng.integers(-4, 5)))), state)
    rebuilt = OctagonState(state.variables, np.array(state.matrix))
    assert rebuilt is state
    different = domain.transfer(
        A.AssignStmt("y", A.IntLit(99)), state)
    assert different is not state
    assert domain.bottom() is OctagonState((), None, is_bottom=True)


def test_octagon_closed_flag_upgrades_monotonically():
    """Re-interning an equal matrix with ``closed=True`` upgrades the
    canonical object, never downgrades it."""
    domain = OctagonDomain()
    state = domain.initial(["x"])
    assert state.closed
    again = OctagonState(state.variables, np.array(state.matrix), closed=False)
    assert again is state
    assert state.closed  # closed=False re-entry must not clear the flag


# ---------------------------------------------------------------------------
# Weak tables: no leak across engine teardown
# ---------------------------------------------------------------------------

def _run_engine(domain):
    generator = WorkloadGenerator(seed=11, call_probability=0.0)
    steps = generator.generate(12)
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    engine = DaigEngine(cfg, domain)
    for step in steps:
        step.edit.apply_to_engine(engine)
    engine.query_all()
    return engine


def test_intern_tables_release_states_on_engine_teardown():
    """States are retained only while an engine (or other owner) keeps them
    alive; dropping the engine shrinks the weak tables back down."""
    gc.collect()
    before = {table.name: len(table) for table in all_tables()}
    engine = _run_engine(OctagonDomain())
    during = {table.name: len(table) for table in all_tables()}
    assert during["octagon.OctagonState"] > before["octagon.OctagonState"]
    assert during["daig.Name"] > before["daig.Name"]
    del engine
    gc.collect()
    after = {table.name: len(table) for table in all_tables()}
    assert after["octagon.OctagonState"] < during["octagon.OctagonState"]
    assert after["daig.Name"] < during["daig.Name"]


def test_intern_stats_shape():
    """Every registered table reports its hit, miss and entry counters."""
    stats = intern_stats()
    for expected in ("daig.Name", "octagon.OctagonState", "nonrel.EnvState",
                     "nonrel.ScalarValue", "nonrel.ArraySummary",
                     "values.Interval", "values.Constant"):
        assert expected in stats
        for field in ("entries", "hits", "misses"):
            assert stats[expected][field] >= 0


def test_hot_tables_reuse_states_on_a_fig10_workload():
    """A Fig. 10 edit/query stream re-derives equal names and octagon
    states constantly: both hot tables must show hits."""
    reset_intern_stats()
    steps = generate_trials(edits=30, trials=1, base_seed=3)[0]
    run_trial(IncrementalDemandConfiguration(OctagonDomain()), steps)
    stats = intern_stats()
    assert stats["daig.Name"]["hits"] > 0
    assert stats["octagon.OctagonState"]["hits"] > 0


def _eight_variable_states():
    """(domain, state) for an 8-variable interval environment and an
    8-variable relational octagon."""
    interval = IntervalDomain()
    env = interval.initial()
    for index in range(8):
        env = interval.transfer(
            A.AssignStmt("v%d" % index, A.IntLit(index)), env)
    octagon = OctagonDomain()
    oct_state = octagon.initial(["v%d" % index for index in range(8)])
    for index in range(7):
        oct_state = octagon.transfer(A.AssignStmt(
            "v%d" % (index + 1),
            A.BinOp("+", A.Var("v%d" % index), A.IntLit(1))), oct_state)
    return [(interval, env), (octagon, oct_state)]


def test_identity_fast_paths_do_no_intern_lookup():
    """``join(s, s)``, ``equal(s, s)`` and ``leq(s, s)`` are pointer checks:
    they hold without building (hence interning) a single object."""
    def lookups():
        return sum(table["hits"] + table["misses"]
                   for table in intern_stats().values())

    for domain, state in _eight_variable_states():
        before = lookups()
        assert domain.join(state, state) is state
        assert domain.equal(state, state)
        assert domain.leq(state, state)
        assert lookups() == before, domain.name


# ---------------------------------------------------------------------------
# Demanded == from-scratch still holds under interning
# ---------------------------------------------------------------------------

def _check_octagon_demanded_matches_batch(seed):
    domain = OctagonDomain()
    generator = WorkloadGenerator(seed=seed, call_probability=0.0)
    steps = generator.generate(8)
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    engine = DaigEngine(cfg, domain)
    for step in steps:
        step.edit.apply_to_engine(engine)
    engine.check_consistency()
    fresh = analyze_cfg(engine.cfg.copy(), domain)
    for loc in engine.cfg.reachable_locations():
        assert domain.equal(engine.query_location(loc), fresh[loc])


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_octagon_demanded_matches_batch_with_interning(seed):
    """The octagon ``closed`` flag lives outside the intern key; demanded
    results must still coincide with a from-scratch batch analysis."""
    _check_octagon_demanded_matches_batch(seed)


@pytest.mark.parametrize("seed", [
    185, 529, 577, 618, 989, 1703, 1934, 2124, 2390, 2802, 3162, 3419, 4001,
    4172, 4643, 5163, 5717, 5776, 5957, 6270, 7618, 8474, 8875, 8982, 9134,
    9150, 9291, 9402, 9546, 9881, 9922,
])
def test_octagon_demanded_matches_batch_on_closure_seeds(seed):
    """The seeds in 0..10,000 on which an octagon closure that flagged
    unclosed matrices as closed made demanded and batch answers diverge."""
    _check_octagon_demanded_matches_batch(seed)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_interval_demanded_matches_batch_with_interning(seed):
    domain = IntervalDomain()
    generator = WorkloadGenerator(seed=seed, call_probability=0.0)
    steps = generator.generate(8)
    cfg = Cfg("main")
    cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    engine = DaigEngine(cfg, domain)
    for step in steps:
        step.edit.apply_to_engine(engine)
    fresh = analyze_cfg(engine.cfg.copy(), domain)
    for loc in engine.cfg.reachable_locations():
        demanded = engine.query_location(loc)
        assert domain.equal(demanded, fresh[loc])
        # Under total interning, equal environments are the same object.
        assert demanded is fresh[loc]
