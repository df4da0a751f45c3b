"""Value lattices: abstractions of individual integer values.

The non-relational environment domain (:mod:`repro.domains.nonrel`) is
parameterized by a *value lattice* — an abstraction of single machine
integers — so that the sign, constant-propagation and interval domains share
one environment/transfer implementation and differ only in how they abstract
numbers.  The interval lattice is the paper's canonical infinite-height
example; sign and constants are finite-height domains used for differential
testing (they need no widening to terminate, so they let tests separate
framework bugs from widening bugs).

Every lattice implements :class:`ValueLattice`: lattice operations, abstract
arithmetic, and *refinement* operations used to interpret ``assume``
statements (e.g. ``refine_le(v, bound)`` strengthens ``v`` under the
assumption ``v <= bound``).  Refinements may be conservative (returning their
input unchanged is always sound).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Tuple

from ..intern import InternTable


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


class Interval:
    """A (possibly unbounded, possibly empty) integer interval ``[lo, hi]``.

    ``lo is None`` means −∞ and ``hi is None`` means +∞.  The empty interval
    is the canonical bottom element and is represented with ``empty=True``.

    Intervals are interned: equal bounds yield the same object, so interval
    equality and hashing are by identity.
    """

    __slots__ = ("lo", "hi", "empty", "_cbytes", "__weakref__")

    _intern = InternTable("values.Interval")

    lo: Optional[int]
    hi: Optional[int]
    empty: bool

    def __new__(cls, lo: Optional[int] = None, hi: Optional[int] = None,
                empty: bool = False) -> "Interval":
        key = (lo, hi, empty)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        self = object.__new__(cls)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "empty", empty)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("Interval is immutable (interned)")

    def __reduce__(self):
        return (Interval, (self.lo, self.hi, self.empty))

    def __repr__(self) -> str:
        return "Interval(lo=%r, hi=%r, empty=%r)" % (self.lo, self.hi, self.empty)

    @staticmethod
    def make(lo: Optional[int], hi: Optional[int]) -> "Interval":
        if lo is not None and hi is not None and lo > hi:
            return Interval(empty=True)
        return Interval(lo, hi)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def bottom() -> "Interval":
        return Interval(empty=True)

    def is_top(self) -> bool:
        return not self.empty and self.lo is None and self.hi is None

    def is_const(self) -> bool:
        return not self.empty and self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.empty:
            return False
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def __str__(self) -> str:
        if self.empty:
            return "⊥"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return "[%s, %s]" % (lo, hi)


def _min_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return min(a, b)


def _max_bound(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return max(a, b)


def _refine_below(value: Interval, bound: Interval, strict: int) -> Interval:
    """``value`` under ``value <= bound - strict``: the meet with
    ``[−∞, bound.hi − strict]``, computed on raw bounds so that only the
    result is interned (``value`` itself when the bound does not cut it)."""
    if value.empty or bound.empty:
        return Interval.bottom()
    if bound.hi is None:
        return value
    hi = bound.hi - strict
    if value.hi is not None and value.hi <= hi:
        return value
    if value.lo is not None and value.lo > hi:
        return Interval.bottom()
    return Interval(value.lo, hi)


def _refine_above(value: Interval, bound: Interval, strict: int) -> Interval:
    """``value`` under ``value >= bound + strict`` (see :func:`_refine_below`)."""
    if value.empty or bound.empty:
        return Interval.bottom()
    if bound.lo is None:
        return value
    lo = bound.lo + strict
    if value.lo is not None and value.lo >= lo:
        return value
    if value.hi is not None and value.hi < lo:
        return Interval.bottom()
    return Interval(lo, value.hi)


class ValueLattice(ABC):
    """Interface shared by all value abstractions."""

    name: str = "value"

    @abstractmethod
    def top(self) -> Any: ...

    @abstractmethod
    def bottom(self) -> Any: ...

    @abstractmethod
    def from_const(self, value: int) -> Any: ...

    @abstractmethod
    def is_bottom(self, value: Any) -> bool: ...

    @abstractmethod
    def join(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def widen(self, older: Any, newer: Any) -> Any: ...

    @abstractmethod
    def meet(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def leq(self, left: Any, right: Any) -> bool: ...

    @abstractmethod
    def contains(self, value: Any, concrete: int) -> bool: ...

    def equal(self, left: Any, right: Any) -> bool:
        return self.leq(left, right) and self.leq(right, left)

    def is_top(self, value: Any) -> bool:
        return self.leq(self.top(), value)

    # -- arithmetic -------------------------------------------------------------

    @abstractmethod
    def add(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def sub(self, left: Any, right: Any) -> Any: ...

    @abstractmethod
    def mul(self, left: Any, right: Any) -> Any: ...

    def div(self, left: Any, right: Any) -> Any:
        return self.top()

    def mod(self, left: Any, right: Any) -> Any:
        return self.top()

    @abstractmethod
    def neg(self, value: Any) -> Any: ...

    # -- comparison refinement ----------------------------------------------------

    def refine_le(self, value: Any, bound: Any) -> Any:
        """Strengthen ``value`` under the assumption ``value <= bound``."""
        return value

    def refine_ge(self, value: Any, bound: Any) -> Any:
        return value

    def refine_lt(self, value: Any, bound: Any) -> Any:
        return self.refine_le(value, self.sub(bound, self.from_const(1)))

    def refine_gt(self, value: Any, bound: Any) -> Any:
        return self.refine_ge(value, self.add(bound, self.from_const(1)))

    def refine_eq(self, value: Any, other: Any) -> Any:
        return self.meet(value, other)

    def refine_ne(self, value: Any, other: Any) -> Any:
        return value

    # -- reflection ----------------------------------------------------------------

    def bounds(self, value: Any) -> Tuple[Optional[int], Optional[int]]:
        """Best-effort numeric bounds ``(lo, hi)`` of the concretization.

        ``None`` means unbounded in that direction.  Used by the array-safety
        client and by the environment domain's comparison refinements.
        """
        return (None, None)

    def compare(self, op: str, left: Any, right: Any) -> Optional[bool]:
        """Decide a comparison if the abstraction can, else ``None``."""
        return None


class IntervalLattice(ValueLattice):
    """The classical interval lattice — infinite height, requires widening."""

    name = "interval"

    def top(self) -> Interval:
        return Interval.top()

    def bottom(self) -> Interval:
        return Interval.bottom()

    def from_const(self, value: int) -> Interval:
        return Interval.const(value)

    def is_bottom(self, value: Interval) -> bool:
        return value.empty

    def join(self, left: Interval, right: Interval) -> Interval:
        if left.empty:
            return right
        if right.empty:
            return left
        return Interval(_min_bound(left.lo, right.lo), _max_bound(left.hi, right.hi))

    def widen(self, older: Interval, newer: Interval) -> Interval:
        if older.empty:
            return newer
        if newer.empty:
            return older
        lo = older.lo
        if older.lo is not None and (newer.lo is None or newer.lo < older.lo):
            lo = None
        hi = older.hi
        if older.hi is not None and (newer.hi is None or newer.hi > older.hi):
            hi = None
        return Interval(lo, hi)

    def meet(self, left: Interval, right: Interval) -> Interval:
        if left.empty or right.empty:
            return Interval.bottom()
        lo = left.lo if right.lo is None else (right.lo if left.lo is None else max(left.lo, right.lo))
        hi = left.hi if right.hi is None else (right.hi if left.hi is None else min(left.hi, right.hi))
        return Interval.make(lo, hi)

    def leq(self, left: Interval, right: Interval) -> bool:
        if left.empty:
            return True
        if right.empty:
            return False
        lo_ok = right.lo is None or (left.lo is not None and left.lo >= right.lo)
        hi_ok = right.hi is None or (left.hi is not None and left.hi <= right.hi)
        return lo_ok and hi_ok

    def contains(self, value: Interval, concrete: int) -> bool:
        return value.contains(concrete)

    # arithmetic ------------------------------------------------------------------

    def add(self, left: Interval, right: Interval) -> Interval:
        if left.empty or right.empty:
            return Interval.bottom()
        lo = None if left.lo is None or right.lo is None else left.lo + right.lo
        hi = None if left.hi is None or right.hi is None else left.hi + right.hi
        return Interval(lo, hi)

    def sub(self, left: Interval, right: Interval) -> Interval:
        return self.add(left, self.neg(right))

    def neg(self, value: Interval) -> Interval:
        if value.empty:
            return value
        lo = None if value.hi is None else -value.hi
        hi = None if value.lo is None else -value.lo
        return Interval(lo, hi)

    def mul(self, left: Interval, right: Interval) -> Interval:
        if left.empty or right.empty:
            return Interval.bottom()
        if left.is_const() and right.is_const():
            return Interval.const(left.lo * right.lo)  # type: ignore[operator]
        candidates = []
        unbounded = False
        for a in (left.lo, left.hi):
            for b in (right.lo, right.hi):
                if a is None or b is None:
                    unbounded = True
                else:
                    candidates.append(a * b)
        if unbounded or not candidates:
            # A finite-times-unbounded product could still be bounded on one
            # side, but the coarse answer is always sound.
            return Interval.top()
        return Interval(min(candidates), max(candidates))

    def div(self, left: Interval, right: Interval) -> Interval:
        if left.empty or right.empty:
            return Interval.bottom()
        if right.is_const() and right.lo not in (0, None) and not left.empty:
            divisor = right.lo
            points = []
            for bound in (left.lo, left.hi):
                if bound is None:
                    return Interval.top()
                points.append(int(abs(bound) // abs(divisor)) *
                              (1 if (bound >= 0) == (divisor > 0) else -1))
            return Interval(min(points), max(points))
        return Interval.top()

    def mod(self, left: Interval, right: Interval) -> Interval:
        if left.empty or right.empty:
            return Interval.bottom()
        if right.is_const() and right.lo not in (0, None):
            magnitude = abs(right.lo)
            if left.lo is not None and left.lo >= 0:
                return Interval(0, magnitude - 1)
            return Interval(-(magnitude - 1), magnitude - 1)
        return Interval.top()

    # refinement --------------------------------------------------------------------

    def refine_le(self, value: Interval, bound: Interval) -> Interval:
        return _refine_below(value, bound, 0)

    def refine_lt(self, value: Interval, bound: Interval) -> Interval:
        return _refine_below(value, bound, 1)

    def refine_ge(self, value: Interval, bound: Interval) -> Interval:
        return _refine_above(value, bound, 0)

    def refine_gt(self, value: Interval, bound: Interval) -> Interval:
        return _refine_above(value, bound, 1)

    def refine_ne(self, value: Interval, other: Interval) -> Interval:
        if value.empty:
            return value
        if other.is_const():
            constant = other.lo
            if value.lo == constant and value.hi == constant:
                return Interval.bottom()
            if value.lo == constant:
                return Interval.make(constant + 1, value.hi)  # type: ignore[operator]
            if value.hi == constant:
                return Interval.make(value.lo, constant - 1)  # type: ignore[operator]
        return value

    def bounds(self, value: Interval) -> Tuple[Optional[int], Optional[int]]:
        if value.empty:
            return (0, -1)
        return (value.lo, value.hi)

    def compare(self, op: str, left: Interval, right: Interval) -> Optional[bool]:
        if left.empty or right.empty:
            return None
        if op == "<" and left.hi is not None and right.lo is not None and left.hi < right.lo:
            return True
        if op == "<" and left.lo is not None and right.hi is not None and left.lo >= right.hi:
            return False
        if op == "<=" and left.hi is not None and right.lo is not None and left.hi <= right.lo:
            return True
        if op == "<=" and left.lo is not None and right.hi is not None and left.lo > right.hi:
            return False
        if op == "==" and left.is_const() and right.is_const():
            return left.lo == right.lo
        return None


# ---------------------------------------------------------------------------
# Signs
# ---------------------------------------------------------------------------

#: Sign lattice elements, encoded as frozensets of {-1, 0, 1} "directions".
_SIGN_ALL = frozenset({-1, 0, 1})


class SignLattice(ValueLattice):
    """The classic sign lattice: subsets of {negative, zero, positive}.

    Finite height (4), so analyses over it terminate without widening; its
    widening is simply the join.
    """

    name = "sign"

    def top(self) -> frozenset:
        return _SIGN_ALL

    def bottom(self) -> frozenset:
        return frozenset()

    def from_const(self, value: int) -> frozenset:
        if value < 0:
            return frozenset({-1})
        if value == 0:
            return frozenset({0})
        return frozenset({1})

    def is_bottom(self, value: frozenset) -> bool:
        return not value

    def join(self, left: frozenset, right: frozenset) -> frozenset:
        return left | right

    def widen(self, older: frozenset, newer: frozenset) -> frozenset:
        return older | newer

    def meet(self, left: frozenset, right: frozenset) -> frozenset:
        return left & right

    def leq(self, left: frozenset, right: frozenset) -> bool:
        return left <= right

    def contains(self, value: frozenset, concrete: int) -> bool:
        sign = -1 if concrete < 0 else (0 if concrete == 0 else 1)
        return sign in value

    def add(self, left: frozenset, right: frozenset) -> frozenset:
        if not left or not right:
            return frozenset()
        out = set()
        for a in left:
            for b in right:
                if a == 0:
                    out.add(b)
                elif b == 0:
                    out.add(a)
                elif a == b:
                    out.add(a)
                else:
                    out |= _SIGN_ALL
        return frozenset(out)

    def sub(self, left: frozenset, right: frozenset) -> frozenset:
        return self.add(left, self.neg(right))

    def neg(self, value: frozenset) -> frozenset:
        return frozenset({-s for s in value})

    def mul(self, left: frozenset, right: frozenset) -> frozenset:
        if not left or not right:
            return frozenset()
        out = set()
        for a in left:
            for b in right:
                out.add(a * b if a * b in (-1, 0, 1) else (1 if a * b > 0 else -1))
        return frozenset(out)

    def refine_ge(self, value: frozenset, bound: frozenset) -> frozenset:
        if bound and min(bound) >= 0 and 0 not in bound:
            return value & frozenset({1})
        if bound and min(bound) >= 0:
            return value & frozenset({0, 1})
        return value

    def refine_le(self, value: frozenset, bound: frozenset) -> frozenset:
        if bound and max(bound) <= 0 and 0 not in bound:
            return value & frozenset({-1})
        if bound and max(bound) <= 0:
            return value & frozenset({-1, 0})
        return value

    def bounds(self, value: frozenset) -> Tuple[Optional[int], Optional[int]]:
        if not value:
            return (0, -1)
        lo = None if -1 in value else 0
        hi = None if 1 in value else 0
        return (lo, hi)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


class Constant:
    """A flat constant lattice element: ⊥, a single known integer, or ⊤.

    Interned like :class:`Interval`: equality and hashing are by identity.
    """

    __slots__ = ("kind", "value", "_cbytes", "__weakref__")

    _intern = InternTable("values.Constant")

    kind: str  # "bottom" | "const" | "top"
    value: int

    def __new__(cls, kind: str, value: int = 0) -> "Constant":
        key = (kind, value)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("Constant is immutable (interned)")

    def __reduce__(self):
        return (Constant, (self.kind, self.value))

    def __repr__(self) -> str:
        return "Constant(kind=%r, value=%r)" % (self.kind, self.value)

    @staticmethod
    def top() -> "Constant":
        return Constant("top")

    @staticmethod
    def bottom() -> "Constant":
        return Constant("bottom")

    @staticmethod
    def const(value: int) -> "Constant":
        return Constant("const", value)

    def __str__(self) -> str:
        if self.kind == "const":
            return str(self.value)
        return "⊤" if self.kind == "top" else "⊥"


class ConstantLattice(ValueLattice):
    """Constant propagation: the flat lattice over integers (height 2)."""

    name = "constant"

    def top(self) -> Constant:
        return Constant.top()

    def bottom(self) -> Constant:
        return Constant.bottom()

    def from_const(self, value: int) -> Constant:
        return Constant.const(value)

    def is_bottom(self, value: Constant) -> bool:
        return value.kind == "bottom"

    def join(self, left: Constant, right: Constant) -> Constant:
        if left.kind == "bottom":
            return right
        if right.kind == "bottom":
            return left
        if left == right:
            return left
        return Constant.top()

    def widen(self, older: Constant, newer: Constant) -> Constant:
        return self.join(older, newer)

    def meet(self, left: Constant, right: Constant) -> Constant:
        if left.kind == "top":
            return right
        if right.kind == "top":
            return left
        if left == right:
            return left
        return Constant.bottom()

    def leq(self, left: Constant, right: Constant) -> bool:
        if left.kind == "bottom" or right.kind == "top":
            return True
        return left == right

    def contains(self, value: Constant, concrete: int) -> bool:
        if value.kind == "top":
            return True
        return value.kind == "const" and value.value == concrete

    def _lift(self, op, left: Constant, right: Constant) -> Constant:
        if left.kind == "bottom" or right.kind == "bottom":
            return Constant.bottom()
        if left.kind == "const" and right.kind == "const":
            try:
                return Constant.const(op(left.value, right.value))
            except ZeroDivisionError:
                return Constant.top()
        return Constant.top()

    def add(self, left: Constant, right: Constant) -> Constant:
        return self._lift(lambda a, b: a + b, left, right)

    def sub(self, left: Constant, right: Constant) -> Constant:
        return self._lift(lambda a, b: a - b, left, right)

    def mul(self, left: Constant, right: Constant) -> Constant:
        return self._lift(lambda a, b: a * b, left, right)

    def div(self, left: Constant, right: Constant) -> Constant:
        def integer_div(a: int, b: int) -> int:
            quotient = abs(a) // abs(b)
            return quotient if (a >= 0) == (b >= 0) else -quotient
        return self._lift(integer_div, left, right)

    def neg(self, value: Constant) -> Constant:
        if value.kind == "const":
            return Constant.const(-value.value)
        return value

    def refine_eq(self, value: Constant, other: Constant) -> Constant:
        return self.meet(value, other)

    def refine_ne(self, value: Constant, other: Constant) -> Constant:
        if value.kind == "const" and other.kind == "const" and value == other:
            return Constant.bottom()
        return value

    def bounds(self, value: Constant) -> Tuple[Optional[int], Optional[int]]:
        if value.kind == "const":
            return (value.value, value.value)
        if value.kind == "bottom":
            return (0, -1)
        return (None, None)

    def compare(self, op: str, left: Constant, right: Constant) -> Optional[bool]:
        if left.kind == "const" and right.kind == "const":
            a, b = left.value, right.value
            return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
                    "==": a == b, "!=": a != b}[op]
        return None
