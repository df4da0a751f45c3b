"""Property tests for early-cutoff change propagation.

The cutoff's contract is absolute: it changes only latency, never any
answer.  These tests drive *random* edit streams — semantic perturbation
/ revert pairs interleaved with value-preserving operand commutes —
against cutoff-enabled engines and certify, by summary digest, that the
final answers equal a from-scratch cutoff-disabled engine's on the final
program, under every context policy, on recursive programs included.

Early cutoff lives in the DAIGs: an edit dirties every call cell that
reaches the edited procedure, and a re-demanded cell whose value comes
back unchanged restores its dependents instead of recomputing them.  A
second set of tests pins that payoff against a cutoff-disabled twin.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.domains import IntervalDomain
from repro.interproc import InterproceduralEngine, policy_by_name
from repro.lang import ast as A
from repro.lang import build_program_cfgs, parse_program
from repro.workload import WorkloadGenerator

COMMON_SETTINGS = dict(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = ("insensitive", "1-call-site", "2-call-site")

CHAIN_PROGRAM = """
function leaf(x) {
  var a = x + 1;
  return a + 0;
}

function middle(y) {
  var m = leaf(y);
  var n = m * 2;
  return n;
}

function main() {
  var small = middle(1);
  var big = middle(100);
  return small + big;
}
"""

FACT_PROGRAM = """
function fact(n) {
  var r = 1;
  if (n > 1) {
    var m = n - 1;
    var s = fact(m);
    r = n * s;
  }
  return r;
}
function main() { var z = fact(5); return z; }
"""

EVEN_ODD_PROGRAM = """
function even(n) { var r = 1; if (n > 0) { var m = n - 1; r = odd(m); } return r; }
function odd(n) { var r = 0; if (n > 0) { var m = n - 1; r = even(m); } return r; }
function main() { var z = even(6); return z; }
"""

PROGRAMS = {
    "chain": CHAIN_PROGRAM,
    "fact": FACT_PROGRAM,
    "even_odd": EVEN_ODD_PROGRAM,
}


def cfgs_of(source):
    return build_program_cfgs(parse_program(source))


def _fresh_copy(cfgs):
    return {name: cfg.copy() for name, cfg in cfgs.items()}


def _pure_numeric(expr):
    """Call-free arithmetic: safe to perturb, commute, and wrap in ``0 +``."""
    if isinstance(expr, (A.IntLit, A.Var)):
        return True
    if isinstance(expr, A.BinOp) and expr.op in ("+", "-", "*"):
        return _pure_numeric(expr.left) and _pure_numeric(expr.right)
    return False


def _editable_sites(cfgs):
    """Every ``(procedure, statement)`` with a perturbable assignment."""
    sites = []
    for name in sorted(cfgs):
        for edge in cfgs[name].edges:
            stmt = edge.stmt
            if isinstance(stmt, A.AssignStmt) and _pure_numeric(stmt.value):
                sites.append((name, stmt))
    return sites


def _replace(match_text, new_stmt):
    """An ``edit_procedure`` callback replacing the statement printing as
    ``match_text`` (statement identity does not survive splices; the
    deterministic print does)."""
    def edit(procedure_engine):
        edge = next(e for e in procedure_engine.cfg.edges
                    if str(e.stmt) == match_text)
        procedure_engine.replace_statement(edge, new_stmt)
    return edit


# ---------------------------------------------------------------------------
# The hard invariant: cutoff changes only latency, never any answer
# ---------------------------------------------------------------------------


def _drive_random_stream(engine, seed, steps=4):
    """Random interleaving of value-preserving commutes and semantic
    perturbation/revert pairs, querying after every edit."""
    rng = random.Random(seed)
    for _step in range(steps):
        sites = _editable_sites(engine.cfgs)
        procedure, stmt = rng.choice(sites)
        if rng.random() < 0.5 and isinstance(stmt.value, A.BinOp) \
                and stmt.value.op in ("+", "*"):
            # Value-preserving commute: new text, same abstract value.
            swapped = A.AssignStmt(stmt.target, A.BinOp(
                stmt.value.op, stmt.value.right, stmt.value.left))
            engine.edit_procedure(procedure, _replace(str(stmt), swapped))
            engine.query_entry_exit()
        else:
            # Semantic perturbation, then its revert.
            perturbed = A.AssignStmt(stmt.target, A.BinOp(
                "+", stmt.value, A.IntLit(rng.randint(1, 3))))
            engine.edit_procedure(procedure, _replace(str(stmt), perturbed))
            engine.query_entry_exit()
            engine.edit_procedure(procedure, _replace(str(perturbed), stmt))
            engine.query_entry_exit()


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES),
       program=st.sampled_from(sorted(PROGRAMS)))
def test_cutoff_never_changes_any_answer(seed, policy_name, program):
    """The hard invariant, recursion included: a cutoff-enabled and a
    cutoff-disabled engine driven through the identical random edit stream
    end digest-equal under every policy.  (Recursive programs are where
    the incremental engine's answers are widening-history-dependent, so
    equality with the cutoff-disabled twin — not with from-scratch — is
    the meaningful invariant there; from-scratch equality on non-recursive
    programs is the next property.)"""
    domain = IntervalDomain()
    enabled = InterproceduralEngine(cfgs_of(PROGRAMS[program]), domain,
                                    policy_by_name(policy_name))
    disabled = InterproceduralEngine(cfgs_of(PROGRAMS[program]), domain,
                                     policy_by_name(policy_name),
                                     cutoff=False)
    for engine in (enabled, disabled):
        engine.query_entry_exit()
        _drive_random_stream(engine, seed)
    # A cutoff-disabled engine keeps every cutoff counter at exactly zero.
    totals = disabled.total_stats()
    assert totals["interproc_summary_cutoffs"] == 0
    assert totals["cells_cutoff"] == totals["cells_restored"] == 0
    assert enabled.summary_digest() == disabled.summary_digest()


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES))
def test_cutoff_digest_equals_from_scratch(seed, policy_name):
    """After a random stream over the (non-recursive) chain program, the
    cutoff-enabled engine's summary digest equals a from-scratch
    cutoff-disabled engine's on the final program, under every policy."""
    domain = IntervalDomain()
    engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                   policy_by_name(policy_name))
    engine.query_entry_exit()
    _drive_random_stream(engine, seed)

    oracle = InterproceduralEngine(_fresh_copy(engine.cfgs), domain,
                                   policy_by_name(policy_name), cutoff=False)
    for procedure in engine.queried_roots():
        oracle.query(procedure, oracle.cfgs[procedure].entry)
    assert engine.summary_digest() == oracle.summary_digest()


# ---------------------------------------------------------------------------
# The payoff: value-preserving edits restore cells instead of recomputing
# ---------------------------------------------------------------------------


@settings(**COMMON_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=10_000),
       policy_name=st.sampled_from(POLICIES))
def test_wrap_revert_streams_end_equal_to_from_scratch(seed, policy_name):
    """Streams of value-preserving edit/revert pairs (wrap a right-hand
    side in ``0 + ...``, then restore it), querying after every edit, end
    digest-equal to a from-scratch cutoff-disabled engine."""
    domain = IntervalDomain()
    engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), domain,
                                   policy_by_name(policy_name))
    engine.query_entry_exit()
    rng = random.Random(seed)
    for _pair in range(3):
        procedure, stmt = rng.choice(_editable_sites(engine.cfgs))
        wrapped = A.AssignStmt(stmt.target,
                               A.BinOp("+", A.IntLit(0), stmt.value))
        engine.edit_procedure(procedure, _replace(str(stmt), wrapped))
        engine.query_entry_exit()
        engine.edit_procedure(procedure, _replace(str(wrapped), stmt))
        engine.query_entry_exit()
    oracle = InterproceduralEngine(_fresh_copy(engine.cfgs), domain,
                                   policy_by_name(policy_name), cutoff=False)
    for procedure in engine.queried_roots():
        oracle.query(procedure, oracle.cfgs[procedure].entry)
    assert engine.summary_digest() == oracle.summary_digest()


def _leaf_assignment(left, right):
    """``a = left + right``, the first statement of CHAIN_PROGRAM's leaf."""
    return A.AssignStmt("a", A.BinOp("+", left, right))


def _toggle_stream_deltas(policy_name, cutoff, toggled):
    """Counter deltas of four edits toggling leaf's ``a = x + 1`` to
    ``toggled`` and back, querying after each, plus the final digest."""
    original = _leaf_assignment(A.Var("x"), A.IntLit(1))
    engine = InterproceduralEngine(cfgs_of(CHAIN_PROGRAM), IntervalDomain(),
                                   policy_by_name(policy_name), cutoff=cutoff)
    engine.query_entry_exit()
    before = engine.total_stats()
    current = original
    for _edit in range(4):
        new = original if current is toggled else toggled
        engine.edit_procedure("leaf", _replace(str(current), new))
        engine.query_entry_exit()
        current = new
    after = engine.total_stats()
    deltas = {key: value - before.get(key, 0) for key, value in after.items()}
    return deltas, engine.summary_digest()


#: Cells cut off and restored by four value-preserving toggles of leaf's
#: ``a = x + 1``, per policy.
_PRESERVING_TOGGLE_CUTOFFS = {
    "insensitive": (4, 4), "1-call-site": (20, 20), "2-call-site": (24, 28)}


@pytest.mark.parametrize("policy_name", POLICIES)
def test_toggle_streams_against_cutoff_disabled_twin(policy_name):
    """Value-preserving toggles (``a = x + 1`` <-> ``a = 1 + x``) cut off
    and restore cells, so the stream computes fewer cells than a
    cutoff-disabled twin.  Semantic toggles (``a = x + 2`` <-> ``a = x +
    1``) dirty call sites.  Both end digest-equal to the twin."""
    preserving = _leaf_assignment(A.IntLit(1), A.Var("x"))
    on, digest = _toggle_stream_deltas(policy_name, True, preserving)
    off, twin_digest = _toggle_stream_deltas(policy_name, False, preserving)
    assert digest == twin_digest
    assert (on["cells_cutoff"], on["cells_restored"]) == (
        _PRESERVING_TOGGLE_CUTOFFS[policy_name])
    assert on["cells_computed"] < off["cells_computed"]

    semantic = _leaf_assignment(A.Var("x"), A.IntLit(2))
    on, digest = _toggle_stream_deltas(policy_name, True, semantic)
    _off, twin_digest = _toggle_stream_deltas(policy_name, False, semantic)
    assert digest == twin_digest
    assert on["interproc_callsite_dirties"] > 0


# ---------------------------------------------------------------------------
# A generated recursive stream
# ---------------------------------------------------------------------------


def test_cutoff_never_changes_any_answer_on_generated_recursive_stream():
    """The hard invariant on a generated recursive stream: replaying the
    same edits and queries under the context-insensitive policy, the
    cutoff-enabled and cutoff-disabled engines end digest-equal."""
    workload = WorkloadGenerator(seed=20700829).generate_multiprocedure(
        40, recursive=True)
    digests = []
    for cutoff in (True, False):
        engine = InterproceduralEngine(
            workload.fresh_cfgs(), IntervalDomain(),
            policy_by_name("context-insensitive"), cutoff=cutoff)
        for step in workload.steps:
            engine.edit_procedure(step.procedure, step.edit.apply_to_engine)
            for procedure, loc in step.query_sites:
                engine.query(procedure, loc)
        digests.append(engine.summary_digest())
    assert digests[0] == digests[1]
