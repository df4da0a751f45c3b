"""A generic non-relational environment domain over a value lattice.

This module implements the abstract environment shared by the sign,
constant-propagation and interval analyses: an abstract state maps variable
names to abstract values, where an abstract value is either

* a :class:`ScalarValue` — a value-lattice element describing the numeric
  values the variable may hold, plus "may be null" / "may be a non-numeric
  reference" flags, or
* an :class:`ArraySummary` — an abstraction of an array as a pair of its
  length (a value-lattice element) and a single summary of all its elements.

Unbound variables are implicitly ⊤ (completely unknown), so dropping a
binding is always sound; joins and widenings intersect binding sets and
combine pointwise.

The transfer function interprets the atomic statement language of
:mod:`repro.lang.ast`, including backward refinement of ``assume``
conditions (which is what lets the interval instantiation prove array
bounds), weak updates for array writes, and sound havoc for the features the
domain does not track (heap fields, opaque calls).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..concrete.state import ArrayValue, ConcreteState
from ..intern import InternTable
from ..lang import ast as A
from .base import AbstractDomain
from .values import ValueLattice


class ScalarValue:
    """Abstraction of a single (non-array) value.

    ``num`` abstracts the integer values the variable may hold (booleans are
    abstracted as 0/1); ``maybe_null`` and ``maybe_other`` record whether the
    value may additionally be ``null`` or some non-numeric reference (a
    record address, a string, ...).

    Scalar values are interned (hash-consed): constructing an equal value
    twice yields the same object, so equality and hashing are by identity.
    """

    __slots__ = ("num", "maybe_null", "maybe_other", "_cbytes", "__weakref__")

    _intern = InternTable("nonrel.ScalarValue")

    num: Any
    maybe_null: bool
    maybe_other: bool

    def __new__(cls, num: Any, maybe_null: bool = False,
                maybe_other: bool = False) -> "ScalarValue":
        key = (num, maybe_null, maybe_other)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "maybe_null", maybe_null)
        object.__setattr__(self, "maybe_other", maybe_other)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("ScalarValue is immutable (interned)")

    def __reduce__(self):
        return (ScalarValue, (self.num, self.maybe_null, self.maybe_other))

    def __repr__(self) -> str:
        return "ScalarValue(num=%r, maybe_null=%r, maybe_other=%r)" % (
            self.num, self.maybe_null, self.maybe_other)

    def __str__(self) -> str:
        parts = [str(self.num)]
        if self.maybe_null:
            parts.append("null?")
        if self.maybe_other:
            parts.append("ref?")
        return "{" + ", ".join(parts) + "}"


class ArraySummary:
    """Abstraction of an array: its length and a summary of its elements.

    Interned like :class:`ScalarValue`.
    """

    __slots__ = ("length", "element", "_cbytes", "__weakref__")

    _intern = InternTable("nonrel.ArraySummary")

    length: Any
    element: ScalarValue

    def __new__(cls, length: Any, element: ScalarValue) -> "ArraySummary":
        key = (length, element)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        self = object.__new__(cls)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "element", element)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("ArraySummary is immutable (interned)")

    def __reduce__(self):
        return (ArraySummary, (self.length, self.element))

    def __repr__(self) -> str:
        return "ArraySummary(length=%r, element=%r)" % (self.length, self.element)

    def __str__(self) -> str:
        return "array(len=%s, elem=%s)" % (self.length, self.element)


Binding = Union[ScalarValue, ArraySummary]


#: The name → position index of each binding layout (its sorted variable
#: names), shared by every state with that layout: the states of one
#: procedure mostly bind the same variables, so a new state, such as one a
#: worker's result re-interns, seldom builds an index of its own.  Cleared
#: when full, so layouts of programs no longer analysed cost little memory
#: (a generated multi-procedure stream meets thousands); sharing an index
#: saves work, and no answer depends on it.
_LAYOUTS: Dict[Tuple[str, ...], Tuple[Tuple[str, ...], Dict[str, int]]] = {}
_LAYOUT_LIMIT = 1 << 8


class EnvState:
    """An abstract environment: sorted variable bindings, or ⊥.

    Environments are interned, so two structurally equal states are the
    *same* object: ``EnvState`` equality and hashing are by identity and
    the domain's ``equal`` check is O(1).  Each state also carries a
    name → position index so :meth:`get` is a dict lookup instead of a
    linear scan; states with the same variables share one (read-only)
    index.
    """

    __slots__ = ("bindings", "bottom", "_index", "_keys", "_cbytes",
                 "__weakref__")

    _intern = InternTable("nonrel.EnvState")

    bindings: Tuple[Tuple[str, Binding], ...]
    bottom: bool

    def __new__(cls, bindings: Tuple[Tuple[str, Binding], ...] = (),
                bottom: bool = False) -> "EnvState":
        key = (bindings, bottom)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        names = next(zip(*bindings), ())
        layout = _LAYOUTS.get(names)
        if layout is None:
            if len(_LAYOUTS) >= _LAYOUT_LIMIT:
                _LAYOUTS.clear()
            layout = _LAYOUTS[names] = (
                names, {name: pos for pos, name in enumerate(names)})
        self = object.__new__(cls)
        object.__setattr__(self, "bindings", bindings)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "_keys", layout[0])
        object.__setattr__(self, "_index", layout[1])
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("EnvState is immutable (interned)")

    def __reduce__(self):
        return (EnvState, (self.bindings, self.bottom))

    def __repr__(self) -> str:
        return "EnvState(bindings=%r, bottom=%r)" % (self.bindings, self.bottom)

    def as_dict(self) -> Dict[str, Binding]:
        return dict(self.bindings)

    def get(self, name: str) -> Optional[Binding]:
        pos = self._index.get(name)
        if pos is None:
            return None
        return self.bindings[pos][1]

    def __str__(self) -> str:
        if self.bottom:
            return "⊥"
        if not self.bindings:
            return "⊤"
        return ", ".join("%s↦%s" % (k, v) for k, v in self.bindings)


def _make_state(bindings: Dict[str, Binding]) -> EnvState:
    return EnvState(tuple(sorted(bindings.items(), key=lambda kv: kv[0])))


class ValueEnvDomain(AbstractDomain[EnvState]):
    """The non-relational environment domain over a pluggable value lattice."""

    def __init__(self, lattice: ValueLattice) -> None:
        self.lattice = lattice
        self.name = "%s-env" % lattice.name
        # Singletons, allocated once per domain instead of on every transfer
        # (interning would dedup them anyway, but caching also skips the
        # lattice top/bottom/join calls on the hot path).
        self._top = ScalarValue(lattice.top(), True, True)
        self._null = ScalarValue(lattice.bottom(), True, False)
        self._other = ScalarValue(lattice.bottom(), False, True)
        self._bool = ScalarValue(
            lattice.join(lattice.from_const(0), lattice.from_const(1)), False, False)
        self._bottom_scalar = ScalarValue(lattice.bottom(), False, False)
        self._bottom_state = EnvState(bottom=True)
        self._empty_state = EnvState()
        self._arithmetic = {
            "+": lattice.add,
            "-": lattice.sub,
            "*": lattice.mul,
            "/": lattice.div,
            "%": lattice.mod,
        }
        #: ``op -> (refine the left operand, refine the right operand)``.
        self._refinements = {
            "==": (lattice.refine_eq, lattice.refine_eq),
            "!=": (lattice.refine_ne, lattice.refine_ne),
            "<": (lattice.refine_lt, lattice.refine_gt),
            "<=": (lattice.refine_le, lattice.refine_ge),
            ">": (lattice.refine_gt, lattice.refine_lt),
            ">=": (lattice.refine_ge, lattice.refine_le),
        }

    # -- scalar helpers ----------------------------------------------------------

    def _top_scalar(self) -> ScalarValue:
        return self._top

    def _num_scalar(self, num: Any) -> ScalarValue:
        return ScalarValue(num, False, False)

    def _null_scalar(self) -> ScalarValue:
        return self._null

    def _other_scalar(self) -> ScalarValue:
        return self._other

    def _bool_scalar(self) -> ScalarValue:
        return self._bool

    def _scalar_is_bottom(self, value: ScalarValue) -> bool:
        return (not value.maybe_null and not value.maybe_other
                and self.lattice.is_bottom(value.num))

    def _join_scalar(self, a: ScalarValue, b: ScalarValue, widen: bool = False) -> ScalarValue:
        if a is b and not widen:
            return a
        combine = self.lattice.widen if widen else self.lattice.join
        return ScalarValue(combine(a.num, b.num),
                           a.maybe_null or b.maybe_null,
                           a.maybe_other or b.maybe_other)

    def _leq_scalar(self, a: ScalarValue, b: ScalarValue) -> bool:
        if a is b:
            return True
        return (self.lattice.leq(a.num, b.num)
                and (not a.maybe_null or b.maybe_null)
                and (not a.maybe_other or b.maybe_other))

    def _join_binding(self, a: Binding, b: Binding, widen: bool = False) -> Optional[Binding]:
        if isinstance(a, ScalarValue) and isinstance(b, ScalarValue):
            return self._join_scalar(a, b, widen)
        if isinstance(a, ArraySummary) and isinstance(b, ArraySummary):
            combine = self.lattice.widen if widen else self.lattice.join
            return ArraySummary(combine(a.length, b.length),
                                self._join_scalar(a.element, b.element, widen))
        return None  # incompatible kinds: drop to ⊤

    # -- the AbstractDomain interface ----------------------------------------------

    def bottom(self) -> EnvState:
        return self._bottom_state

    def initial(self, params: Sequence[str] = ()) -> EnvState:
        # Parameters are unconstrained at entry, which is exactly the empty
        # binding map (unbound = ⊤).
        return self._empty_state

    def is_bottom(self, state: EnvState) -> bool:
        return state.bottom

    def join(self, left: EnvState, right: EnvState) -> EnvState:
        return self._combine(left, right, widen=False)

    def widen(self, older: EnvState, newer: EnvState) -> EnvState:
        return self._combine(older, newer, widen=True)

    def _combine(self, left: EnvState, right: EnvState, widen: bool) -> EnvState:
        # Interned states make `join(s, s) is s` a pointer comparison.
        if left is right:
            return left
        if left.bottom:
            return right
        if right.bottom:
            return left
        # Both binding tuples are sorted by name: merge with two pointers,
        # reusing the existing (name, binding) tuples whenever the combined
        # binding is one of the inputs, so an unchanged side costs no
        # allocation and the result needs no re-sort.
        left_bindings, right_bindings = left.bindings, right.bindings
        out = []
        i = j = 0
        left_len, right_len = len(left_bindings), len(right_bindings)
        while i < left_len and j < right_len:
            left_pair = left_bindings[i]
            right_pair = right_bindings[j]
            left_name = left_pair[0]
            right_name = right_pair[0]
            if left_name == right_name:
                left_value = left_pair[1]
                right_value = right_pair[1]
                if left_value is right_value and not widen:
                    out.append(left_pair)
                else:
                    combined = self._join_binding(left_value, right_value, widen)
                    if combined is not None:
                        if combined is left_value:
                            out.append(left_pair)
                        elif combined is right_value:
                            out.append(right_pair)
                        else:
                            out.append((left_name, combined))
                i += 1
                j += 1
            elif left_name < right_name:
                i += 1
            else:
                j += 1
        if len(out) == left_len and all(
                pair is other for pair, other in zip(out, left_bindings)):
            return left
        if len(out) == right_len and all(
                pair is other for pair, other in zip(out, right_bindings)):
            return right
        return EnvState(tuple(out))

    def leq(self, left: EnvState, right: EnvState) -> bool:
        if left is right:
            return True
        if left.bottom:
            return True
        if right.bottom:
            return False
        left_get = left.get
        for name, right_value in right.bindings:
            left_value = left_get(name)
            if left_value is None:
                return False
            if left_value is right_value:
                continue
            if isinstance(right_value, ScalarValue):
                if not isinstance(left_value, ScalarValue):
                    return False
                if not self._leq_scalar(left_value, right_value):
                    return False
            else:
                if not isinstance(left_value, ArraySummary):
                    return False
                if not self.lattice.leq(left_value.length, right_value.length):
                    return False
                if not self._leq_scalar(left_value.element, right_value.element):
                    return False
        return True

    def equal(self, left: EnvState, right: EnvState) -> bool:
        # Total interning makes structural equality pointer equality.
        return left is right

    # -- expression evaluation --------------------------------------------------------

    def eval(self, expr: A.Expr, state: EnvState) -> Binding:
        """Abstractly evaluate an expression in ``state``."""
        if state.bottom:
            return self._bottom_scalar
        if isinstance(expr, A.Var):
            binding = state.get(expr.name)
            return binding if binding is not None else self._top_scalar()
        if isinstance(expr, A.IntLit):
            return self._num_scalar(self.lattice.from_const(expr.value))
        if isinstance(expr, A.BoolLit):
            return self._num_scalar(self.lattice.from_const(1 if expr.value else 0))
        if isinstance(expr, A.NullLit):
            return self._null_scalar()
        if isinstance(expr, A.StrLit):
            return self._other_scalar()
        if isinstance(expr, A.AllocRecord):
            return self._other_scalar()
        if isinstance(expr, A.UnaryOp):
            return self._eval_unary(expr, state)
        if isinstance(expr, A.BinOp):
            return self._eval_binop(expr, state)
        if isinstance(expr, A.ArrayLit):
            return self._eval_array_literal(expr, state)
        if isinstance(expr, A.ArrayRead):
            array = self.eval(expr.array, state)
            if isinstance(array, ArraySummary):
                return array.element
            return self._top_scalar()
        if isinstance(expr, A.ArrayLen):
            array = self.eval(expr.array, state)
            if isinstance(array, ArraySummary):
                return self._num_scalar(array.length)
            return self._num_scalar(self.lattice.top())
        if isinstance(expr, A.FieldRead):
            return self._top_scalar()
        return self._top_scalar()

    def _numeric(self, binding: Binding) -> Any:
        """The numeric component of a binding (arrays have none)."""
        if isinstance(binding, ScalarValue):
            return binding.num
        return self.lattice.bottom()

    def _eval_unary(self, expr: A.UnaryOp, state: EnvState) -> ScalarValue:
        operand = self._numeric(self.eval(expr.operand, state))
        if expr.op == "-":
            return self._num_scalar(self.lattice.neg(operand))
        return self._bool_scalar()

    def _eval_binop(self, expr: A.BinOp, state: EnvState) -> ScalarValue:
        if expr.op in A.LOGICAL_OPS:
            return self._bool_scalar()
        left = self.eval(expr.left, state)
        right = self.eval(expr.right, state)
        if expr.op in A.COMPARISON_OPS:
            verdict = None
            if isinstance(left, ScalarValue) and isinstance(right, ScalarValue):
                if expr.op in ("<", "<=", ">", ">=", "==", "!="):
                    verdict = self.lattice.compare(expr.op, left.num, right.num)
            if verdict is True:
                return self._num_scalar(self.lattice.from_const(1))
            if verdict is False:
                return self._num_scalar(self.lattice.from_const(0))
            return self._bool_scalar()
        return self._num_scalar(self._arithmetic[expr.op](
            self._numeric(left), self._numeric(right)))

    def _eval_array_literal(self, expr: A.ArrayLit, state: EnvState) -> ArraySummary:
        element = self._bottom_scalar
        for item in expr.elements:
            value = self.eval(item, state)
            if isinstance(value, ScalarValue):
                element = self._join_scalar(element, value)
            else:
                element = self._top_scalar()
        return ArraySummary(self.lattice.from_const(len(expr.elements)), element)

    # -- single-binding edits (sorted tuples, no dict round-trip) -----------------------

    def _rebind(self, state: EnvState, name: str, value: Binding) -> EnvState:
        """``state`` with ``name`` bound to ``value`` (O(log n) + one splice)."""
        bindings = state.bindings
        pos = state._index.get(name)
        if pos is not None:
            if bindings[pos][1] is value:
                return state
            return EnvState(bindings[:pos] + ((name, value),) + bindings[pos + 1:])
        pos = bisect_left(state._keys, name)
        return EnvState(bindings[:pos] + ((name, value),) + bindings[pos:])

    def _unbind(self, state: EnvState, name: str) -> EnvState:
        """``state`` with ``name`` dropped to ⊤ (i.e. unbound)."""
        pos = state._index.get(name)
        if pos is None:
            return state
        bindings = state.bindings
        return EnvState(bindings[:pos] + bindings[pos + 1:])

    # -- transfer -----------------------------------------------------------------------

    def transfer(self, stmt: A.AtomicStmt, state: EnvState) -> EnvState:
        if state.bottom:
            return state
        if isinstance(stmt, A.AssignStmt):
            return self._rebind(state, stmt.target, self.eval(stmt.value, state))
        if isinstance(stmt, A.AssumeStmt):
            return self._assume(stmt.cond, state)
        if isinstance(stmt, A.ArrayWriteStmt):
            return self._array_write(stmt, state)
        if isinstance(stmt, A.FieldWriteStmt):
            return state
        if isinstance(stmt, (A.PrintStmt, A.SkipStmt)):
            return state
        if isinstance(stmt, A.CallStmt):
            # Without the interprocedural engine the best sound answer is to
            # havoc the target and any array arguments' contents.
            if stmt.target is not None:
                state = self._unbind(state, stmt.target)
            for arg in stmt.args:
                if isinstance(arg, A.Var):
                    summary = state.get(arg.name)
                    if isinstance(summary, ArraySummary):
                        state = self._rebind(state, arg.name, ArraySummary(
                            summary.length, self._top_scalar()))
            return state
        return state

    def _array_write(self, stmt: A.ArrayWriteStmt, state: EnvState) -> EnvState:
        existing = state.get(stmt.array)
        value = self.eval(stmt.value, state)
        scalar = value if isinstance(value, ScalarValue) else self._top_scalar()
        if isinstance(existing, ArraySummary):
            return self._rebind(state, stmt.array, ArraySummary(
                existing.length, self._join_scalar(existing.element, scalar)))
        # Writing through a variable that is not known to be an array leaves
        # it unknown (⊤), which is what the absence of a binding means.
        if existing is not None:
            return self._unbind(state, stmt.array)
        return state

    # -- assume refinement -----------------------------------------------------------------

    def _assume(self, cond: A.Expr, state: EnvState) -> EnvState:
        if isinstance(cond, A.BoolLit):
            return state if cond.value else self.bottom()
        if isinstance(cond, A.UnaryOp) and cond.op == "!":
            return self._assume(A.negate(cond.operand), state)
        if isinstance(cond, A.BinOp) and cond.op == "&&":
            return self._assume(cond.right, self._assume(cond.left, state))
        if isinstance(cond, A.BinOp) and cond.op == "||":
            return self.join(self._assume(cond.left, state),
                             self._assume(cond.right, state))
        if isinstance(cond, A.BinOp) and cond.op in A.COMPARISON_OPS:
            return self._assume_comparison(cond, state)
        if isinstance(cond, A.Var):
            # Truthiness: the value is neither 0 nor null nor false.
            binding = state.get(cond.name)
            if isinstance(binding, ScalarValue):
                refined = ScalarValue(
                    self.lattice.refine_ne(binding.num, self.lattice.from_const(0)),
                    False, binding.maybe_other)
                return self._rebind_checked(state, cond.name, refined)
            return state
        return state

    def _assume_comparison(self, cond: A.BinOp, state: EnvState) -> EnvState:
        left_is_null = isinstance(cond.left, A.NullLit)
        right_is_null = isinstance(cond.right, A.NullLit)
        if left_is_null or right_is_null:
            other = cond.right if left_is_null else cond.left
            return self._assume_null_test(cond.op, other, state)

        left = self.eval(cond.left, state)
        right = self.eval(cond.right, state)
        left_num = self._numeric_or_none(left)
        right_num = self._numeric_or_none(right)
        if left_num is None or right_num is None:
            return state

        verdict = self.lattice.compare(cond.op, left_num, right_num)
        if verdict is False:
            # The comparison may still hold for null/reference values that
            # the numeric component does not cover (only for == / !=).
            if cond.op in ("<", "<=", ">", ">="):
                return self.bottom()
            if isinstance(left, ScalarValue) and isinstance(right, ScalarValue):
                if not (left.maybe_null or left.maybe_other
                        or right.maybe_null or right.maybe_other):
                    return self.bottom()

        refine_left, refine_right = self._refinements[cond.op]
        # An ordering holds only between numbers: it clears the null and
        # reference flags, which == and != keep.
        keep_flags = cond.op in ("==", "!=")
        out = state
        if isinstance(cond.left, A.Var) and isinstance(left, ScalarValue):
            refined = ScalarValue(refine_left(left.num, right_num),
                                  keep_flags and left.maybe_null,
                                  keep_flags and left.maybe_other)
            out = self._rebind_checked(out, cond.left.name, refined)
        if isinstance(cond.right, A.Var) and isinstance(right, ScalarValue) and not out.bottom:
            refined = ScalarValue(refine_right(right.num, left_num),
                                  keep_flags and right.maybe_null,
                                  keep_flags and right.maybe_other)
            out = self._rebind_checked(out, cond.right.name, refined)
        return out

    def _assume_null_test(self, op: str, other: A.Expr, state: EnvState) -> EnvState:
        if op not in ("==", "!="):
            return state
        if not isinstance(other, A.Var):
            return state
        binding = state.get(other.name)
        if not isinstance(binding, ScalarValue):
            if isinstance(binding, ArraySummary):
                # Arrays are never null.
                return self.bottom() if op == "==" else state
            return state
        if op == "==":
            if not binding.maybe_null:
                return self.bottom()
            return self._rebind_checked(state, other.name, self._null_scalar())
        refined = ScalarValue(binding.num, False, binding.maybe_other)
        return self._rebind_checked(state, other.name, refined)

    def _numeric_or_none(self, binding: Binding) -> Optional[Any]:
        if isinstance(binding, ScalarValue):
            return binding.num
        return None

    def _rebind_checked(self, state: EnvState, name: str, value: ScalarValue) -> EnvState:
        if self._scalar_is_bottom(value):
            return self.bottom()
        return self._rebind(state, name, value)

    # -- concretization ---------------------------------------------------------------------

    def models(self, concrete: ConcreteState, abstract: EnvState) -> bool:
        if abstract.bottom:
            return False
        for name, binding in abstract.bindings:
            if name not in concrete.env:
                continue
            if not self._value_models(concrete.env[name], binding):
                return False
        return True

    def _value_models(self, value: Any, binding: Binding) -> bool:
        if isinstance(binding, ArraySummary):
            if not isinstance(value, ArrayValue):
                return False
            if not self.lattice.contains(binding.length, len(value)):
                return False
            return all(self._value_models(v, binding.element) for v in value.elements)
        if isinstance(value, bool):
            return self.lattice.contains(binding.num, 1 if value else 0)
        if isinstance(value, int):
            return self.lattice.contains(binding.num, value)
        if value is None:
            return binding.maybe_null
        return binding.maybe_other

    # -- interprocedural hooks ----------------------------------------------------------------

    def call_entry(
        self,
        caller_state: EnvState,
        callee_params: Sequence[str],
        args: Sequence[A.Expr],
    ) -> EnvState:
        if caller_state.bottom:
            return self.bottom()
        bindings: Dict[str, Binding] = {}
        for param, arg in zip(callee_params, args):
            bindings[param] = self.eval(arg, caller_state)
        return _make_state(bindings)

    def call_return(
        self,
        caller_state: EnvState,
        callee_exit: EnvState,
        target: Optional[str],
        args: Sequence[A.Expr] = (),
    ) -> EnvState:
        if caller_state.bottom or callee_exit.bottom:
            return self.bottom()
        state = caller_state
        # The callee may have written through array arguments (reference
        # semantics), so weaken their element summaries.
        for arg in args:
            if isinstance(arg, A.Var):
                summary = state.get(arg.name)
                if isinstance(summary, ArraySummary):
                    state = self._rebind(state, arg.name, ArraySummary(
                        summary.length, self._top_scalar()))
        if target is not None:
            result = callee_exit.get(A.RETURN_VARIABLE)
            if result is None:
                state = self._unbind(state, target)
            else:
                state = self._rebind(state, target, result)
        return state

    # -- client helpers -----------------------------------------------------------------------

    def numeric_bounds(self, expr: A.Expr, state: EnvState) -> Tuple[Optional[int], Optional[int]]:
        """Bounds of an expression's numeric value (for the safety clients)."""
        value = self.eval(expr, state)
        if isinstance(value, ScalarValue):
            return self.lattice.bounds(value.num)
        return (None, None)

    def array_length_bounds(self, expr: A.Expr, state: EnvState) -> Tuple[Optional[int], Optional[int]]:
        """Bounds of the length of an array-valued expression."""
        value = self.eval(expr, state)
        if isinstance(value, ArraySummary):
            return self.lattice.bounds(value.length)
        return (None, None)

    def describe(self, state: EnvState) -> str:
        return str(state)
