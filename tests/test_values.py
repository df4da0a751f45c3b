"""Lattice-law and soundness tests for the value abstractions.

Property-based (hypothesis) tests check, for the interval / sign / constant
lattices, the algebraic laws the abstract-interpreter interface relies on:
partial-order laws, join as an upper bound, widening as a convergent upper
bound, and soundness of abstract arithmetic with respect to concrete
integer arithmetic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains.values import (
    Constant,
    ConstantLattice,
    Interval,
    IntervalLattice,
    SignLattice,
)

LATTICES = {
    "interval": IntervalLattice(),
    "sign": SignLattice(),
    "constant": ConstantLattice(),
}

small_ints = st.integers(min_value=-30, max_value=30)


def abstract_values(lattice_name):
    """A strategy producing abstract values of the given lattice."""
    lattice = LATTICES[lattice_name]
    if lattice_name == "interval":
        bounds = st.one_of(st.none(), small_ints)
        return st.builds(
            lambda lo, hi, empty: Interval.bottom() if empty else Interval.make(
                lo, hi if lo is None or hi is None or hi >= lo else lo + (hi - lo)),
            bounds, bounds, st.booleans())
    if lattice_name == "sign":
        return st.frozensets(st.sampled_from([-1, 0, 1]))
    return st.one_of(
        st.just(Constant.top()), st.just(Constant.bottom()),
        small_ints.map(Constant.const))


@pytest.mark.parametrize("name", sorted(LATTICES))
class TestLatticeLaws:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_join_is_an_upper_bound(self, name, data):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        joined = lattice.join(a, b)
        assert lattice.leq(a, joined)
        assert lattice.leq(b, joined)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_join_commutative_and_idempotent(self, name, data):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        assert lattice.equal(lattice.join(a, b), lattice.join(b, a))
        assert lattice.equal(lattice.join(a, a), a)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_order_is_reflexive_and_transitive_via_join(self, name, data):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        c = lattice.join(a, b)
        assert lattice.leq(a, a)
        assert lattice.leq(a, lattice.join(c, data.draw(abstract_values(name))))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bottom_and_top_are_extremes(self, name, data):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        assert lattice.leq(lattice.bottom(), a)
        assert lattice.leq(a, lattice.top())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_meet_is_a_lower_bound(self, name, data):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        met = lattice.meet(a, b)
        assert lattice.leq(met, a)
        assert lattice.leq(met, b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_widen_is_an_upper_bound(self, name, data):
        # The paper requires (φ ⊔ φ') ⊑ (φ ∇ φ') for all φ, φ'.
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        widened = lattice.widen(a, b)
        assert lattice.leq(lattice.join(a, b), widened)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_widening_converges(self, name, data):
        lattice = LATTICES[name]
        chain = [data.draw(abstract_values(name)) for _ in range(6)]
        # Make the chain increasing by cumulative joins.
        increasing = []
        accumulator = lattice.bottom()
        for element in chain:
            accumulator = lattice.join(accumulator, element)
            increasing.append(accumulator)
        widened = increasing[0]
        for _round in range(64):
            nxt = widened
            for element in increasing:
                nxt = lattice.widen(nxt, lattice.join(nxt, element))
            if lattice.equal(nxt, widened):
                break
            widened = nxt
        else:
            pytest.fail("widening did not converge")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), x=small_ints, y=small_ints)
    def test_arithmetic_soundness(self, name, data, x, y):
        lattice = LATTICES[name]
        a = data.draw(abstract_values(name))
        b = data.draw(abstract_values(name))
        if not lattice.contains(a, x) or not lattice.contains(b, y):
            return
        assert lattice.contains(lattice.add(a, b), x + y)
        assert lattice.contains(lattice.sub(a, b), x - y)
        assert lattice.contains(lattice.mul(a, b), x * y)
        assert lattice.contains(lattice.neg(a), -x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), x=small_ints)
    def test_from_const_is_precise(self, name, data, x):
        lattice = LATTICES[name]
        assert lattice.contains(lattice.from_const(x), x)
        assert not lattice.is_bottom(lattice.from_const(x))


class TestIntervalSpecifics:
    def test_make_normalizes_empty(self):
        assert Interval.make(3, 1).empty

    def test_meet_produces_bottom_on_disjoint(self):
        lattice = IntervalLattice()
        assert lattice.is_bottom(lattice.meet(Interval.make(0, 1), Interval.make(5, 9)))

    def test_widen_jumps_to_infinity(self):
        lattice = IntervalLattice()
        widened = lattice.widen(Interval.make(0, 1), Interval.make(0, 5))
        assert widened.hi is None and widened.lo == 0
        widened = lattice.widen(Interval.make(0, 5), Interval.make(-3, 5))
        assert widened.lo is None and widened.hi == 5

    def test_refinements(self):
        lattice = IntervalLattice()
        value = Interval.make(0, 100)
        assert lattice.refine_le(value, Interval.const(10)) == Interval.make(0, 10)
        assert lattice.refine_lt(value, Interval.const(10)) == Interval.make(0, 9)
        assert lattice.refine_ge(value, Interval.const(5)) == Interval.make(5, 100)
        assert lattice.refine_ne(Interval.make(0, 5), Interval.const(0)) == Interval.make(1, 5)
        assert lattice.is_bottom(
            lattice.refine_ne(Interval.const(3), Interval.const(3)))

    @staticmethod
    def _all_small_intervals():
        # Bounds in {-inf, -2, 0, 3, +inf} on both ends, plus bottom.
        finite = (-2, 0, 3)
        out = [Interval.bottom()]
        for lo in (None,) + finite:
            for hi in finite + (None,):
                if lo is None or hi is None or lo <= hi:
                    out.append(Interval.make(lo, hi))
        return out

    def test_ordering_refinements_equal_their_definitions(self):
        # refine_le is the meet with [-inf, bound.hi] (bottom if either side
        # is bottom, the value itself if bound.hi is unbounded); refine_lt
        # lowers the bound by one first.  ge and gt are symmetric.
        lattice = IntervalLattice()
        one_less = Interval.const(-1)
        one_more = Interval.const(1)

        def le(value, bound):
            if value.empty or bound.empty:
                return Interval.bottom()
            if bound.hi is None:
                return value
            return lattice.meet(value, Interval(None, bound.hi))

        def ge(value, bound):
            if value.empty or bound.empty:
                return Interval.bottom()
            if bound.lo is None:
                return value
            return lattice.meet(value, Interval(bound.lo, None))

        intervals = self._all_small_intervals()
        assert len(intervals) == 14
        for value in intervals:
            for bound in intervals:
                assert lattice.refine_le(value, bound) is le(value, bound)
                assert lattice.refine_ge(value, bound) is ge(value, bound)
                assert lattice.refine_lt(value, bound) is le(
                    value, lattice.add(bound, one_less))
                assert lattice.refine_gt(value, bound) is ge(
                    value, lattice.add(bound, one_more))

    def test_division_and_modulo(self):
        lattice = IntervalLattice()
        assert lattice.div(Interval.make(0, 10), Interval.const(2)) == Interval.make(0, 5)
        assert lattice.contains(lattice.mod(Interval.make(0, 100), Interval.const(7)), 6)
        assert lattice.is_top(lattice.div(Interval.make(0, 10), Interval.make(-1, 1)))

    def test_compare_decides_obvious_cases(self):
        lattice = IntervalLattice()
        assert lattice.compare("<", Interval.make(0, 3), Interval.make(5, 9)) is True
        assert lattice.compare("<", Interval.make(9, 9), Interval.make(1, 2)) is False
        assert lattice.compare("<", Interval.make(0, 9), Interval.make(5, 6)) is None

    def test_bounds(self):
        lattice = IntervalLattice()
        assert lattice.bounds(Interval.make(2, 7)) == (2, 7)
        assert lattice.bounds(Interval.top()) == (None, None)


class TestSignSpecifics:
    def test_addition_table(self):
        lattice = SignLattice()
        pos, neg, zero = (lattice.from_const(1), lattice.from_const(-1),
                          lattice.from_const(0))
        assert lattice.add(pos, pos) == pos
        assert lattice.add(pos, zero) == pos
        assert lattice.add(pos, neg) == lattice.top()

    def test_negation(self):
        lattice = SignLattice()
        assert lattice.neg(lattice.from_const(5)) == lattice.from_const(-5)

    def test_refine_ge_zero(self):
        lattice = SignLattice()
        refined = lattice.refine_ge(lattice.top(), lattice.from_const(0))
        assert not lattice.contains(refined, -1)
        assert lattice.contains(refined, 0)


class TestConstantSpecifics:
    def test_join_of_distinct_constants_is_top(self):
        lattice = ConstantLattice()
        assert lattice.join(Constant.const(1), Constant.const(2)) == Constant.top()

    def test_arithmetic_on_constants(self):
        lattice = ConstantLattice()
        assert lattice.add(Constant.const(2), Constant.const(3)) == Constant.const(5)
        assert lattice.div(Constant.const(-7), Constant.const(2)) == Constant.const(-3)

    def test_compare(self):
        lattice = ConstantLattice()
        assert lattice.compare("<", Constant.const(1), Constant.const(2)) is True
        assert lattice.compare("==", Constant.const(1), Constant.top()) is None

    def test_refine_ne_bottom(self):
        lattice = ConstantLattice()
        assert lattice.is_bottom(
            lattice.refine_ne(Constant.const(4), Constant.const(4)))
