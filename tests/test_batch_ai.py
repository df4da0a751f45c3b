"""Tests for the classical batch abstract interpreter (the baseline/oracle)."""

import pytest

from repro.ai import BatchAnalyzer, FixpointDivergenceError, analyze_cfg
from repro.domains import ConstantDomain, IntervalDomain, SignDomain
from repro.lang import ast as A
from repro.lang import build_cfg, build_program_cfgs, parse_program
from repro.lang.programs import array_program

from helpers import BRANCH_SOURCE, LOOP_SOURCE, NESTED_SOURCE


class TestInvariants:
    def test_branch_join_precision(self, interval_domain):
        cfg = build_cfg(parse_program(BRANCH_SOURCE).procedure("main"))
        invariants = analyze_cfg(cfg, interval_domain)
        exit_state = invariants[cfg.exit]
        assert interval_domain.numeric_bounds(A.Var("x"), exit_state) == (1, 2)
        assert interval_domain.numeric_bounds(A.Var("y"), exit_state) == (4, 5)

    def test_loop_invariant_with_widening(self, interval_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        invariants = analyze_cfg(cfg, interval_domain)
        exit_state = invariants[cfg.exit]
        lo, hi = interval_domain.numeric_bounds(A.Var("i"), exit_state)
        assert lo == 10 and hi is None  # i >= 10 after `assume !(i < 10)`
        head = cfg.loop_heads()[0]
        head_lo, _ = interval_domain.numeric_bounds(A.Var("i"), invariants[head])
        assert head_lo == 0

    def test_nested_loops_converge(self, interval_domain):
        cfg = build_cfg(parse_program(NESTED_SOURCE).procedure("main"))
        invariants = analyze_cfg(cfg, interval_domain)
        assert not interval_domain.is_bottom(invariants[cfg.exit])

    def test_array_bounds_inside_loop_body(self, interval_domain):
        cfg = build_program_cfgs(array_program("sum"))["main"]
        invariants = analyze_cfg(cfg, interval_domain)
        # Find the location just before the array access a[i]: the state
        # there must bound i within [0, 5] thanks to the loop condition.
        access_edges = [e for e in cfg.edges
                        if isinstance(e.stmt, A.AssignStmt) and "a[i]" in str(e.stmt)]
        assert access_edges
        state = invariants[access_edges[0].src]
        assert interval_domain.numeric_bounds(A.Var("i"), state) == (0, 5)

    def test_unreachable_code_is_bottom(self, interval_domain):
        cfg = build_cfg(parse_program("""
            function main() {
              var x = 1;
              if (x > 5) { x = 99; }
              return x;
            }""").procedure("main"))
        invariants = analyze_cfg(cfg, interval_domain)
        dead = [e.dst for e in cfg.edges
                if isinstance(e.stmt, A.AssumeStmt) and "x > 5" in str(e.stmt)]
        assert interval_domain.is_bottom(invariants[dead[0]])
        exit_bounds = interval_domain.numeric_bounds(A.Var("x"), invariants[cfg.exit])
        assert exit_bounds == (1, 1)

    def test_entry_state_override(self, interval_domain):
        cfg = build_cfg(parse_program(
            "function main(n) { var x = n; return x; }").procedure("main"))
        seeded = interval_domain.transfer(
            A.AssignStmt("n", A.IntLit(3)), interval_domain.initial())
        invariants = BatchAnalyzer(cfg, interval_domain, entry_state=seeded).analyze()
        assert interval_domain.numeric_bounds(A.Var("x"), invariants[cfg.exit]) == (3, 3)

    def test_transfer_count_is_tracked(self, sign_domain):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        analyzer = BatchAnalyzer(cfg, sign_domain)
        analyzer.analyze()
        assert analyzer.transfer_count > cfg.size()

    @pytest.mark.parametrize("domain_cls", [SignDomain, ConstantDomain, IntervalDomain])
    def test_invariant_at_helper(self, domain_cls):
        domain = domain_cls()
        cfg = build_cfg(parse_program(BRANCH_SOURCE).procedure("main"))
        assert not domain.is_bottom(BatchAnalyzer(cfg, domain).invariant_at(cfg.exit))


class _BrokenWideningDomain(IntervalDomain):
    """A deliberately broken domain whose 'widening' never converges."""

    def widen(self, older, newer):  # type: ignore[override]
        return self.join(older, newer)

    def equal(self, left, right):  # type: ignore[override]
        # Pretend states are never equal so iteration cannot stabilize.
        return False


class TestDivergenceGuard:
    def test_broken_widening_is_detected(self):
        cfg = build_cfg(parse_program(LOOP_SOURCE).procedure("main"))
        with pytest.raises(FixpointDivergenceError):
            analyze_cfg(cfg, _BrokenWideningDomain())
