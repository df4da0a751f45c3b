"""Abstract syntax for the imperative language analyzed by the framework.

The paper evaluates demanded abstract interpretation on a JavaScript subset
with assignment, arrays, conditional branching, ``while`` loops, field
reads/writes on heap records (for the shape analysis of linked lists), and
non-recursive function calls of the form ``x = f(y)``.  This module defines
that language as a small, explicit AST:

* *Expressions* (:class:`Expr`) are side-effect free: variables, literals,
  unary and binary operators, array reads, array length, and field reads.
* *Structured statements* (:class:`Stmt`) are what programs are written in:
  assignments, array/field writes, allocation, ``if``/``while``, calls,
  ``return``, ``print`` and ``skip``.
* *Atomic statements* (:class:`AtomicStmt`) label control-flow-graph edges;
  they are the statements interpreted by abstract transfer functions.  The
  translation from structured statements to atomic edge labels happens in
  :mod:`repro.lang.cfg`.

All nodes are frozen dataclasses with structural equality and hashing, which
is what the DAIG layer relies on when naming statement reference cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for side-effect-free expressions."""

    def variables(self) -> frozenset[str]:
        """Return the set of variable names read by this expression."""
        raise NotImplementedError

    def children(self) -> Tuple["Expr", ...]:
        """Return immediate sub-expressions (for generic traversals)."""
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Yield this expression and all sub-expressions, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference, e.g. ``x``."""

    name: str

    def variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntLit(Expr):
    """An integer literal, e.g. ``42``."""

    value: int

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    """A boolean literal: ``true`` or ``false``."""

    value: bool

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class NullLit(Expr):
    """The ``null`` literal (used heavily by the shape analysis)."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True)
class StrLit(Expr):
    """A string literal; only used as an opaque value (e.g. ``print``)."""

    value: str

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return '"%s"' % self.value


#: Arithmetic operators understood by the numeric domains.
ARITH_OPS = ("+", "-", "*", "/", "%")
#: Comparison operators; these appear in ``assume`` statements after
#: control-flow lowering.
COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
#: Short-circuit logical operators.
LOGICAL_OPS = ("&&", "||")


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation ``left op right``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ARITH_OPS + COMPARISON_OPS + LOGICAL_OPS:
            raise ValueError("unknown binary operator: %r" % (self.op,))

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return "(%s %s %s)" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class UnaryOp(Expr):
    """A unary operation: ``-e`` or ``!e``."""

    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in ("-", "!"):
            raise ValueError("unknown unary operator: %r" % (self.op,))

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return "%s%s" % (self.op, self.operand)


@dataclass(frozen=True)
class ArrayLit(Expr):
    """An array literal ``[e1, ..., en]``."""

    elements: Tuple[Expr, ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for element in self.elements:
            out |= element.variables()
        return out

    def children(self) -> Tuple[Expr, ...]:
        return self.elements

    def __str__(self) -> str:
        return "[%s]" % ", ".join(str(e) for e in self.elements)


@dataclass(frozen=True)
class ArrayRead(Expr):
    """An array read ``a[i]``; the access the interval client verifies."""

    array: Expr
    index: Expr

    def variables(self) -> frozenset[str]:
        return self.array.variables() | self.index.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.array, self.index)

    def __str__(self) -> str:
        return "%s[%s]" % (self.array, self.index)


@dataclass(frozen=True)
class ArrayLen(Expr):
    """The length of an array, ``a.length``."""

    array: Expr

    def variables(self) -> frozenset[str]:
        return self.array.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.array,)

    def __str__(self) -> str:
        return "%s.length" % (self.array,)


@dataclass(frozen=True)
class FieldRead(Expr):
    """A heap field read ``x.f`` (e.g. ``r.next`` in the list programs)."""

    base: Expr
    fieldname: str

    def variables(self) -> frozenset[str]:
        return self.base.variables()

    def children(self) -> Tuple[Expr, ...]:
        return (self.base,)

    def __str__(self) -> str:
        return "%s.%s" % (self.base, self.fieldname)


@dataclass(frozen=True)
class AllocRecord(Expr):
    """Allocation of a fresh heap record, ``new()``; fields start null."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "new()"


def negate(expr: Expr) -> Expr:
    """Return the logical negation of a boolean expression.

    Comparisons are flipped directly (``<`` becomes ``>=`` and so on) so that
    ``assume`` statements remain in a shape the abstract domains can refine
    on; anything else is wrapped in a ``!``.
    """
    flipped = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
    if isinstance(expr, BinOp) and expr.op in flipped:
        return BinOp(flipped[expr.op], expr.left, expr.right)
    if isinstance(expr, UnaryOp) and expr.op == "!":
        return expr.operand
    if isinstance(expr, BoolLit):
        return BoolLit(not expr.value)
    return UnaryOp("!", expr)


# ---------------------------------------------------------------------------
# Structured statements (the surface language)
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for structured statements."""


@dataclass(frozen=True)
class Assign(Stmt):
    """``x = e;`` — also covers ``var x = e;``."""

    target: str
    value: Expr

    def __str__(self) -> str:
        return "%s = %s;" % (self.target, self.value)


@dataclass(frozen=True)
class ArrayAssign(Stmt):
    """``a[i] = e;``"""

    array: str
    index: Expr
    value: Expr

    def __str__(self) -> str:
        return "%s[%s] = %s;" % (self.array, self.index, self.value)


@dataclass(frozen=True)
class FieldAssign(Stmt):
    """``x.f = e;`` — heap mutation used by the list programs."""

    base: str
    fieldname: str
    value: Expr

    def __str__(self) -> str:
        return "%s.%s = %s;" % (self.base, self.fieldname, self.value)


@dataclass(frozen=True)
class If(Stmt):
    """``if (cond) { then } else { orelse }``."""

    cond: Expr
    then_body: Tuple[Stmt, ...]
    else_body: Tuple[Stmt, ...] = ()

    def __str__(self) -> str:
        return "if (%s) {...}" % (self.cond,)


@dataclass(frozen=True)
class While(Stmt):
    """``while (cond) { body }``."""

    cond: Expr
    body: Tuple[Stmt, ...]

    def __str__(self) -> str:
        return "while (%s) {...}" % (self.cond,)


@dataclass(frozen=True)
class Call(Stmt):
    """A (possibly void) call ``x = f(e1, ..., en);``.

    The paper restricts attention to non-recursive calls with static calling
    semantics; the interprocedural engine enforces the non-recursion check.
    """

    target: Optional[str]
    function: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        call = "%s(%s)" % (self.function, ", ".join(str(a) for a in self.args))
        if self.target is None:
            return call + ";"
        return "%s = %s;" % (self.target, call)


@dataclass(frozen=True)
class Return(Stmt):
    """``return e;`` or ``return;``."""

    value: Optional[Expr] = None

    def __str__(self) -> str:
        if self.value is None:
            return "return;"
        return "return %s;" % (self.value,)


@dataclass(frozen=True)
class Print(Stmt):
    """``print(e);`` — observationally inert, used by the edit workloads."""

    value: Expr

    def __str__(self) -> str:
        return "print(%s);" % (self.value,)


@dataclass(frozen=True)
class Skip(Stmt):
    """A no-op statement."""

    def __str__(self) -> str:
        return "skip;"


# ---------------------------------------------------------------------------
# Atomic statements (CFG edge labels)
# ---------------------------------------------------------------------------


class AtomicStmt:
    """Base class for atomic statements labelling control-flow edges.

    Atomic statements are the ``Stmt`` syntactic category of the paper's
    Fig. 5: they are what abstract transfer functions interpret and what the
    DAIG stores in statement-typed reference cells.
    """

    def variables(self) -> frozenset[str]:
        """All variable names read or written by this statement."""
        raise NotImplementedError

    def defs(self) -> frozenset[str]:
        """Variable names written by this statement."""
        return frozenset()

    def uses(self) -> frozenset[str]:
        """Variable names read by this statement."""
        return frozenset()

    def __getstate__(self) -> dict:
        # Pickles leave out the cached hash (see `_atomic`): string hashes
        # differ between interpreters.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


def _atomic(cls: type) -> type:
    """``@dataclass(frozen=True)``, with the structural hash computed once.

    The memo table keys every transfer by its statement (rule Q-Match),
    and the generated ``__hash__`` re-walks the expression tree on each
    call; a statement caches its hash on first use instead.
    """
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = structural(self)
        return cached

    cls.__hash__ = __hash__
    return cls


@_atomic
class AssignStmt(AtomicStmt):
    """``x = e``."""

    target: str
    value: Expr

    def defs(self) -> frozenset[str]:
        return frozenset({self.target})

    def uses(self) -> frozenset[str]:
        return self.value.variables()

    def variables(self) -> frozenset[str]:
        return self.defs() | self.uses()

    def __str__(self) -> str:
        return "%s = %s" % (self.target, self.value)


@_atomic
class AssumeStmt(AtomicStmt):
    """``assume e`` — the residue of branch conditions after lowering."""

    cond: Expr

    def uses(self) -> frozenset[str]:
        return self.cond.variables()

    def variables(self) -> frozenset[str]:
        return self.uses()

    def __str__(self) -> str:
        return "assume %s" % (self.cond,)


@_atomic
class ArrayWriteStmt(AtomicStmt):
    """``a[i] = e``."""

    array: str
    index: Expr
    value: Expr

    def defs(self) -> frozenset[str]:
        return frozenset({self.array})

    def uses(self) -> frozenset[str]:
        return frozenset({self.array}) | self.index.variables() | self.value.variables()

    def variables(self) -> frozenset[str]:
        return self.defs() | self.uses()

    def __str__(self) -> str:
        return "%s[%s] = %s" % (self.array, self.index, self.value)


@_atomic
class FieldWriteStmt(AtomicStmt):
    """``x.f = e``."""

    base: str
    fieldname: str
    value: Expr

    def uses(self) -> frozenset[str]:
        return frozenset({self.base}) | self.value.variables()

    def variables(self) -> frozenset[str]:
        return self.uses()

    def __str__(self) -> str:
        return "%s.%s = %s" % (self.base, self.fieldname, self.value)


@_atomic
class CallStmt(AtomicStmt):
    """``x = f(e1, ..., en)``; interpreted by the interprocedural engine."""

    target: Optional[str]
    function: str
    args: Tuple[Expr, ...]

    def defs(self) -> frozenset[str]:
        if self.target is None:
            return frozenset()
        return frozenset({self.target})

    def uses(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def variables(self) -> frozenset[str]:
        return self.defs() | self.uses()

    def __str__(self) -> str:
        call = "%s(%s)" % (self.function, ", ".join(str(a) for a in self.args))
        if self.target is None:
            return call
        return "%s = %s" % (self.target, call)


@_atomic
class SkipStmt(AtomicStmt):
    """A no-op edge label."""

    def variables(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return "skip"


@_atomic
class PrintStmt(AtomicStmt):
    """``print(e)`` — has no effect on any abstract state."""

    value: Expr

    def uses(self) -> frozenset[str]:
        return self.value.variables()

    def variables(self) -> frozenset[str]:
        return self.uses()

    def __str__(self) -> str:
        return "print(%s)" % (self.value,)


#: The distinguished variable that receives a procedure's return value after
#: control-flow lowering (``return e`` becomes ``RETURN_VARIABLE = e``).
RETURN_VARIABLE = "ret"


# ---------------------------------------------------------------------------
# Procedures and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Procedure:
    """A named procedure: parameters plus a structured statement body."""

    name: str
    params: Tuple[str, ...]
    body: Tuple[Stmt, ...]

    def __str__(self) -> str:
        return "function %s(%s) { %d statements }" % (
            self.name,
            ", ".join(self.params),
            len(self.body),
        )


@dataclass(frozen=True)
class Program:
    """A whole program: a set of procedures and a designated entry point."""

    procedures: Tuple[Procedure, ...]
    entry: str = "main"

    def procedure(self, name: str) -> Procedure:
        """Look up a procedure by name, raising ``KeyError`` if absent."""
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError("no procedure named %r" % (name,))

    def names(self) -> Tuple[str, ...]:
        return tuple(proc.name for proc in self.procedures)

    def with_procedure(self, procedure: Procedure) -> "Program":
        """Return a copy of this program with ``procedure`` added/replaced."""
        replaced = False
        procs = []
        for proc in self.procedures:
            if proc.name == procedure.name:
                procs.append(procedure)
                replaced = True
            else:
                procs.append(proc)
        if not replaced:
            procs.append(procedure)
        return Program(tuple(procs), self.entry)


def block(*stmts: Stmt) -> Tuple[Stmt, ...]:
    """Convenience constructor for statement tuples in hand-written programs."""
    return tuple(stmts)
