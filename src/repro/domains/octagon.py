"""The octagon abstract domain (Miné), used by the Section 7.3 workload.

Octagons represent conjunctions of constraints of the form ``±x ± y <= c``.
The paper uses an APRON-backed octagon domain; this reproduction implements
the standard difference-bound-matrix (DBM) encoding directly (with numpy for
the cubic closure), exposing it through the same generic domain interface as
every other domain, so the DAIG framework is oblivious to the change.

Representation: for a variable universe ``x_0 .. x_{n-1}`` the DBM has
``2n`` rows/columns, where index ``2k`` stands for ``+x_k`` and ``2k+1`` for
``-x_k``; entry ``m[i, j]`` bounds ``V_i - V_j <= m[i, j]``.  States are
kept *closed* (canonical) at all times, so structural equality of the
matrices coincides with semantic equality — which is exactly what the
demanded-unrolling convergence check needs.

The variable universe is dynamic: operations on states with different
variable sets first unify them (new variables are unconstrained), which is
what allows the synthetic edit workload to introduce fresh variables at any
time.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..concrete.state import ConcreteState
from ..intern import InternTable
from ..lang import ast as A
from .base import AbstractDomain

_INF = float("inf")


class OctagonState:
    """An octagon: a variable tuple plus a DBM (or canonical ⊥).

    States are interned by ``(variables, matrix bytes)``, so structurally
    equal octagons are the same object: equality and hashing are by
    identity.  Matrices are frozen (non-writeable) on interning; every
    mutation site works on a fresh copy.

    ``closed`` records whether the matrix is known to be strongly closed
    (the canonical form).  Most states are — transfer and join keep states
    closed — but widening results deliberately are not (re-closing a widened
    DBM can defeat convergence, the standard octagon caveat), so operations
    take fast paths only when their inputs are known-closed and fall back to
    the full cubic closure otherwise.  The flag is only ever set on a
    fixpoint of :func:`_close`: a wrong flag would make results depend on
    how a state was built rather than on what it means.
    """

    __slots__ = ("variables", "matrix", "is_bottom", "closed", "_cbytes",
                 "__weakref__")

    _intern = InternTable("octagon.OctagonState")

    def __new__(
        cls,
        variables: Tuple[str, ...],
        matrix: Optional[np.ndarray],
        is_bottom: bool = False,
        closed: bool = False,
    ) -> "OctagonState":
        if is_bottom:
            key: Any = ("octagon", "bottom")
            matrix = None
            closed = True
        else:
            assert matrix is not None
            matrix = np.ascontiguousarray(matrix)
            key = (variables, matrix.tobytes())
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            # ``closed`` is monotone knowledge about the same matrix: if any
            # construction path proves closure, the canonical object keeps it.
            if closed and not canonical.closed:
                object.__setattr__(canonical, "closed", True)
            return canonical
        self = object.__new__(cls)
        if matrix is not None:
            matrix.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "is_bottom", is_bottom)
        object.__setattr__(self, "closed", closed)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("OctagonState is immutable (interned)")

    # object.__eq__ and object.__hash__ (identity) are structural equality
    # and a hash consistent with it for interned states; semantic equality
    # of non-closed (widened) states still goes through OctagonDomain.equal,
    # which falls back to a double ⊑ check.

    def __reduce__(self):
        if self.is_bottom:
            return (OctagonState, ((), None, True))
        return (OctagonState,
                (self.variables, np.array(self.matrix), False, self.closed))

    def __canonical_args__(self):
        # The canonical encoding must not include ``closed``: it is monotone
        # knowledge about the same matrix, flipped in place on the canonical
        # object, and two moments of the same state must digest equally.
        if self.is_bottom:
            return ((), None, True)
        return (self.variables, np.array(self.matrix), False)

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        constraints = []
        for name in self.variables:
            lo, hi = self.variable_bounds(name)
            if lo is None and hi is None:
                continue
            lo_text = "-inf" if lo is None else str(lo)
            hi_text = "+inf" if hi is None else str(hi)
            constraints.append("%s∈[%s,%s]" % (name, lo_text, hi_text))
        return "{" + ", ".join(constraints) + "}" if constraints else "⊤"

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def variable_bounds(self, name: str) -> Tuple[Optional[int], Optional[int]]:
        """The interval implied for ``name`` by the octagon constraints."""
        if self.is_bottom or name not in self.variables:
            return (0, -1) if self.is_bottom else (None, None)
        assert self.matrix is not None
        k = self.index(name)
        hi_bound = self.matrix[2 * k, 2 * k + 1]
        lo_bound = self.matrix[2 * k + 1, 2 * k]
        hi = None if hi_bound == _INF else int(np.floor(hi_bound / 2.0))
        lo = None if lo_bound == _INF else int(-np.floor(lo_bound / 2.0))
        return (lo, hi)


def _close(matrix: np.ndarray) -> Optional[np.ndarray]:
    """Shortest-path closure plus octagonal strengthening.

    Strengthening (``m[i,j] = min(m[i,j], (m[i, i^1] + m[j^1, j]) / 2)``)
    after a full closure yields the strongly closed canonical form.  The
    final ``+ 0.0`` normalizes any ``-0.0`` entries to ``+0.0`` so that the
    byte-level interning key coincides with numeric equality.

    Returns the closed matrix, or ``None`` if the constraint system is
    infeasible (a negative cycle exists).
    """
    m = matrix.copy()
    size = m.shape[0]
    np.fill_diagonal(m, 0.0)
    for k in range(size):
        np.minimum(m, m[:, k:k + 1] + m[k:k + 1, :], out=m)
    arange = np.arange(size)
    bar = arange ^ 1
    half = (m[arange, bar][:, None] + m[bar, arange][None, :]) / 2.0
    np.minimum(m, half, out=m)
    if np.any(np.diag(m) < 0):
        return None
    np.fill_diagonal(m, 0.0)
    np.add(m, 0.0, out=m)
    return m


class OctagonDomain(AbstractDomain[OctagonState]):
    """The octagon domain behind the generic abstract-interpreter interface."""

    name = "octagon"

    # -- construction helpers ------------------------------------------------------

    def top(self, variables: Sequence[str] = ()) -> OctagonState:
        names = tuple(sorted(set(variables)))
        size = 2 * len(names)
        matrix = np.full((size, size), _INF)
        np.fill_diagonal(matrix, 0.0)
        return OctagonState(names, matrix, False, closed=True)

    def bottom(self) -> OctagonState:
        return OctagonState((), None, True)

    def initial(self, params: Sequence[str] = ()) -> OctagonState:
        return self.top(params)

    def is_bottom(self, state: OctagonState) -> bool:
        return state.is_bottom

    def _closed(self, variables: Tuple[str, ...], matrix: np.ndarray) -> OctagonState:
        closed = _close(matrix)
        if closed is None:
            return self.bottom()
        return OctagonState(variables, closed, False, closed=True)

    def _unify(
        self, left: OctagonState, right: OctagonState
    ) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray]:
        # Fast path: identical variable universes need no expansion at all
        # (callers never mutate the returned matrices in place).
        if left.variables == right.variables:
            assert left.matrix is not None and right.matrix is not None
            return left.variables, left.matrix, right.matrix
        names = tuple(sorted(set(left.variables) | set(right.variables)))
        return names, self._expand(left, names), self._expand(right, names)

    def _expand(self, state: OctagonState, names: Tuple[str, ...]) -> np.ndarray:
        size = 2 * len(names)
        out = np.full((size, size), _INF)
        np.fill_diagonal(out, 0.0)
        if state.matrix is None:
            return out
        position = {name: index for index, name in enumerate(names)}
        old = np.empty(2 * len(state.variables), dtype=np.intp)
        for old_index, name in enumerate(state.variables):
            new_index = 2 * position[name]
            old[2 * old_index] = new_index
            old[2 * old_index + 1] = new_index + 1
        out[np.ix_(old, old)] = state.matrix
        return out

    # -- lattice ---------------------------------------------------------------------

    def join(self, left: OctagonState, right: OctagonState) -> OctagonState:
        if left is right:
            return left
        if left.is_bottom:
            return right
        if right.is_bottom:
            return left
        names, a, b = self._unify(left, right)
        if left.closed and right.closed:
            # The pointwise max of two strongly closed DBMs is itself
            # strongly closed (Miné), so the cubic re-closure is a no-op:
            # skip it.  (Expansion with unconstrained fresh variables
            # preserves strong closure, so the unified matrices still
            # qualify; the diagonal is 0 in both inputs, so the result is
            # feasible by construction.)
            return OctagonState(names, np.maximum(a, b), False, closed=True)
        return self._closed(names, np.maximum(a, b))

    def widen(self, older: OctagonState, newer: OctagonState) -> OctagonState:
        if older.is_bottom:
            return newer
        if newer.is_bottom:
            return older
        names, a, b = self._unify(older, newer)
        widened = np.where(b <= a, a, _INF)
        np.fill_diagonal(widened, 0.0)
        # The widening result is deliberately *not* re-closed: closing a
        # widened DBM can re-tighten entries and defeat convergence (the
        # standard octagon-widening caveat).  Structural equality therefore
        # does not coincide with semantic equality for widened states, so
        # `equal` falls back to a double ⊑ check.
        return OctagonState(names, widened, False, closed=False)

    def leq(self, left: OctagonState, right: OctagonState) -> bool:
        if left is right:
            return True
        if left.is_bottom:
            return True
        if right.is_bottom:
            return False
        names, a, b = self._unify(left, right)
        return bool(np.all(a <= b))

    def equal(self, left: OctagonState, right: OctagonState) -> bool:
        # Interning makes structural equality identity; non-closed (widened)
        # representations still need the semantic double ⊑ fallback.
        return left is right or (self.leq(left, right) and self.leq(right, left))

    # -- linear forms -------------------------------------------------------------------

    def _linear_form(
        self, expr: A.Expr
    ) -> Optional[Tuple[Dict[str, int], int]]:
        """Try to view ``expr`` as ``sum(coeff_i * x_i) + constant``.

        Only coefficient magnitudes 0/1 with at most two variables are useful
        to an octagon, but the caller filters; return ``None`` for anything
        non-linear or non-numeric.
        """
        if isinstance(expr, A.IntLit):
            return {}, expr.value
        if isinstance(expr, A.BoolLit):
            return {}, 1 if expr.value else 0
        if isinstance(expr, A.Var):
            return {expr.name: 1}, 0
        if isinstance(expr, A.UnaryOp) and expr.op == "-":
            inner = self._linear_form(expr.operand)
            if inner is None:
                return None
            coeffs, constant = inner
            return {name: -c for name, c in coeffs.items()}, -constant
        if isinstance(expr, A.BinOp) and expr.op in ("+", "-"):
            left = self._linear_form(expr.left)
            right = self._linear_form(expr.right)
            if left is None or right is None:
                return None
            sign = 1 if expr.op == "+" else -1
            coeffs = dict(left[0])
            for name, coeff in right[0].items():
                coeffs[name] = coeffs.get(name, 0) + sign * coeff
            coeffs = {name: c for name, c in coeffs.items() if c != 0}
            return coeffs, left[1] + sign * right[1]
        if isinstance(expr, A.BinOp) and expr.op == "*":
            left = self._linear_form(expr.left)
            right = self._linear_form(expr.right)
            if left is None or right is None:
                return None
            if not left[0]:
                factor = left[1]
                coeffs = {n: c * factor for n, c in right[0].items() if c * factor != 0}
                return coeffs, right[1] * factor
            if not right[0]:
                factor = right[1]
                coeffs = {n: c * factor for n, c in left[0].items() if c * factor != 0}
                return coeffs, left[1] * factor
            return None
        return None

    def _expr_bounds(
        self, expr: A.Expr, state: OctagonState
    ) -> Tuple[Optional[float], Optional[float]]:
        """Interval bounds of an arbitrary expression, via variable bounds."""
        form = self._linear_form(expr)
        if form is not None:
            coeffs, constant = form
            lo: Optional[float] = float(constant)
            hi: Optional[float] = float(constant)
            for name, coeff in coeffs.items():
                var_lo, var_hi = state.variable_bounds(name)
                if coeff >= 0:
                    term_lo = None if var_lo is None else coeff * var_lo
                    term_hi = None if var_hi is None else coeff * var_hi
                else:
                    term_lo = None if var_hi is None else coeff * var_hi
                    term_hi = None if var_lo is None else coeff * var_lo
                lo = None if lo is None or term_lo is None else lo + term_lo
                hi = None if hi is None or term_hi is None else hi + term_hi
            return lo, hi
        if isinstance(expr, A.BinOp) and expr.op in A.COMPARISON_OPS + A.LOGICAL_OPS:
            return 0.0, 1.0
        if isinstance(expr, A.UnaryOp) and expr.op == "!":
            return 0.0, 1.0
        return None, None

    # -- transfer --------------------------------------------------------------------------

    def transfer(self, stmt: A.AtomicStmt, state: OctagonState) -> OctagonState:
        if state.is_bottom:
            return state
        if isinstance(stmt, A.AssignStmt):
            return self._assign(stmt.target, stmt.value, state)
        if isinstance(stmt, A.AssumeStmt):
            return self._assume(stmt.cond, state)
        if isinstance(stmt, A.ArrayWriteStmt):
            return state
        if isinstance(stmt, (A.FieldWriteStmt, A.PrintStmt, A.SkipStmt)):
            return state
        if isinstance(stmt, A.CallStmt):
            if stmt.target is None:
                return state
            return self._forget(stmt.target, state)
        return state

    def _with_variable(self, state: OctagonState, name: str) -> OctagonState:
        if name in state.variables:
            return state
        names = tuple(sorted(set(state.variables) | {name}))
        # Adding an unconstrained variable preserves strong closure.
        return OctagonState(names, self._expand(state, names), False,
                            closed=state.closed)

    def _forget(self, name: str, state: OctagonState) -> OctagonState:
        state = self._with_variable(state, name)
        assert state.matrix is not None
        matrix = state.matrix.copy()
        k = state.index(name)
        matrix[2 * k, :] = _INF
        matrix[2 * k + 1, :] = _INF
        matrix[:, 2 * k] = _INF
        matrix[:, 2 * k + 1] = _INF
        matrix[2 * k, 2 * k] = 0.0
        matrix[2 * k + 1, 2 * k + 1] = 0.0
        # Forgetting (projecting out) a variable preserves strong closure.
        return OctagonState(state.variables, matrix, False, closed=state.closed)

    def _assign(self, target: str, value: A.Expr, state: OctagonState) -> OctagonState:
        lo, hi = self._expr_bounds(value, state)
        form = self._linear_form(value)
        # Invertible self-assignments x = x + c translate existing constraints.
        if (form is not None and list(form[0].items()) == [(target, 1)]
                and target in state.variables):
            assert state.matrix is not None
            matrix = state.matrix.copy()
            k = state.index(target)
            constant = float(form[1])
            # x := x + c translates every constraint mentioning x: bounds on
            # +x grow by c (row 2k / column 2k+1) and bounds on -x shrink by
            # c (row 2k+1 / column 2k); entries touched by both a modified
            # row and column shift by 2c, which is exactly right for the
            # unary constraints 2x <= b and -2x <= b.
            matrix[2 * k, :] += constant
            matrix[:, 2 * k] -= constant
            matrix[2 * k + 1, :] -= constant
            matrix[:, 2 * k + 1] += constant
            matrix[2 * k, 2 * k] = 0.0
            matrix[2 * k + 1, 2 * k + 1] = 0.0
            if state.closed:
                # Translating x by a constant is a bijection on the solution
                # set that shifts entries consistently along every path, so
                # it preserves strong closure and feasibility: no re-closure
                # needed.
                return OctagonState(state.variables, matrix, False, closed=True)
            return self._closed(state.variables, matrix)

        # Track every variable the right-hand side mentions *before* adding
        # constraints: the transfer function must depend only on the state's
        # meaning, not on which semantically-unconstrained variables happen
        # to be in its universe (demanded and batch analyses reach the same
        # location with different universes, and must still agree).
        if form is not None:
            for name in form[0]:
                state = self._with_variable(state, name)
        out = self._forget(target, state)
        assert out.matrix is not None
        matrix = out.matrix.copy()
        k = out.index(target)
        if hi is not None:
            matrix[2 * k, 2 * k + 1] = min(matrix[2 * k, 2 * k + 1], 2 * hi)
        if lo is not None:
            matrix[2 * k + 1, 2 * k] = min(matrix[2 * k + 1, 2 * k], -2 * lo)
        # Relational constraints for x = ±y + c with a single other variable.
        if form is not None:
            coeffs, constant = form
            others = [(n, c) for n, c in coeffs.items() if n != target]
            if len(others) == 1 and target not in coeffs:
                other, coeff = others[0]
                if coeff in (1, -1) and other in out.variables:
                    j = out.index(other)
                    if coeff == 1:
                        # x - y <= c and y - x <= -c
                        matrix[2 * k, 2 * j] = min(matrix[2 * k, 2 * j], constant)
                        matrix[2 * j + 1, 2 * k + 1] = min(
                            matrix[2 * j + 1, 2 * k + 1], constant)
                        matrix[2 * j, 2 * k] = min(matrix[2 * j, 2 * k], -constant)
                        matrix[2 * k + 1, 2 * j + 1] = min(
                            matrix[2 * k + 1, 2 * j + 1], -constant)
                    else:
                        # x + y <= c and -x - y <= -c
                        matrix[2 * k, 2 * j + 1] = min(matrix[2 * k, 2 * j + 1], constant)
                        matrix[2 * j, 2 * k + 1] = min(matrix[2 * j, 2 * k + 1], constant)
                        matrix[2 * k + 1, 2 * j] = min(matrix[2 * k + 1, 2 * j], -constant)
                        matrix[2 * j + 1, 2 * k] = min(matrix[2 * j + 1, 2 * k], -constant)
        return self._closed(out.variables, matrix)

    # -- assume ------------------------------------------------------------------------------

    def _assume(self, cond: A.Expr, state: OctagonState) -> OctagonState:
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
        return state

    def _assume_comparison(self, cond: A.BinOp, state: OctagonState) -> OctagonState:
        # Null / reference comparisons carry no octagonal information.
        if isinstance(cond.left, A.NullLit) or isinstance(cond.right, A.NullLit):
            return state
        left = self._linear_form(cond.left)
        right = self._linear_form(cond.right)
        if left is None or right is None:
            return state
        # Normalize to sum(coeffs) <= constant form(s).
        coeffs: Dict[str, int] = dict(left[0])
        for name, coeff in right[0].items():
            coeffs[name] = coeffs.get(name, 0) - coeff
        coeffs = {name: c for name, c in coeffs.items() if c != 0}
        constant = right[1] - left[1]
        op = cond.op
        if op == ">":
            coeffs = {n: -c for n, c in coeffs.items()}
            constant, op = -constant, "<"
        elif op == ">=":
            coeffs = {n: -c for n, c in coeffs.items()}
            constant, op = -constant, "<="
        if op == "<":
            constant -= 1
            op = "<="
        if op == "<=":
            return self._add_upper_bound(coeffs, constant, state)
        if op == "==":
            first = self._add_upper_bound(coeffs, constant, state)
            negated = {n: -c for n, c in coeffs.items()}
            return self._add_upper_bound(negated, -constant, first)
        if op == "!=":
            return state
        return state

    def _add_upper_bound(
        self, coeffs: Dict[str, int], constant: int, state: OctagonState
    ) -> OctagonState:
        """Add the constraint ``sum(coeff_i * x_i) <= constant`` if octagonal."""
        if state.is_bottom:
            return state
        if not coeffs:
            return state if 0 <= constant else self.bottom()
        if any(abs(c) != 1 for c in coeffs.values()) or len(coeffs) > 2:
            return state
        for name in coeffs:
            state = self._with_variable(state, name)
        assert state.matrix is not None
        matrix = state.matrix.copy()
        items = sorted(coeffs.items())
        bound = float(constant)
        if len(items) == 1:
            (name, coeff), = items
            k = state.index(name)
            if coeff == 1:
                matrix[2 * k, 2 * k + 1] = min(matrix[2 * k, 2 * k + 1], 2 * bound)
            else:
                matrix[2 * k + 1, 2 * k] = min(matrix[2 * k + 1, 2 * k], 2 * bound)
        else:
            (name_a, coeff_a), (name_b, coeff_b) = items
            i, j = state.index(name_a), state.index(name_b)
            if coeff_a == 1 and coeff_b == -1:
                matrix[2 * i, 2 * j] = min(matrix[2 * i, 2 * j], bound)
                matrix[2 * j + 1, 2 * i + 1] = min(matrix[2 * j + 1, 2 * i + 1], bound)
            elif coeff_a == -1 and coeff_b == 1:
                matrix[2 * j, 2 * i] = min(matrix[2 * j, 2 * i], bound)
                matrix[2 * i + 1, 2 * j + 1] = min(matrix[2 * i + 1, 2 * j + 1], bound)
            elif coeff_a == 1 and coeff_b == 1:
                matrix[2 * i, 2 * j + 1] = min(matrix[2 * i, 2 * j + 1], bound)
                matrix[2 * j, 2 * i + 1] = min(matrix[2 * j, 2 * i + 1], bound)
            else:
                matrix[2 * i + 1, 2 * j] = min(matrix[2 * i + 1, 2 * j], bound)
                matrix[2 * j + 1, 2 * i] = min(matrix[2 * j + 1, 2 * i], bound)
        return self._closed(state.variables, matrix)

    # -- concretization -----------------------------------------------------------------------

    def models(self, concrete: ConcreteState, abstract: OctagonState) -> bool:
        if abstract.is_bottom:
            return False
        assert abstract.matrix is not None

        def value_of(index: int) -> Optional[float]:
            name = abstract.variables[index // 2]
            if name not in concrete.env:
                return None
            value = concrete.env[name]
            if isinstance(value, bool):
                value = 1 if value else 0
            if not isinstance(value, int):
                return None
            return float(value) if index % 2 == 0 else -float(value)

        size = abstract.matrix.shape[0]
        for i in range(size):
            vi = value_of(i)
            for j in range(size):
                bound = abstract.matrix[i, j]
                if bound == _INF:
                    continue
                vj = value_of(j)
                if vi is None or vj is None:
                    # The concretization only constrains numeric values:
                    # constraints mentioning a variable whose runtime value
                    # is null, an array, or a record hold vacuously (the
                    # transfer functions establish relational constraints
                    # only along paths where the values are numeric).
                    continue
                if vi - vj > bound + 1e-9:
                    return False
        return True

    # -- interprocedural hooks ------------------------------------------------------------------

    def call_entry(
        self,
        caller_state: OctagonState,
        callee_params: Sequence[str],
        args: Sequence[A.Expr],
    ) -> OctagonState:
        entry = self.top(callee_params)
        if caller_state.is_bottom:
            return self.bottom()
        assert entry.matrix is not None
        matrix = entry.matrix.copy()
        for param, arg in zip(callee_params, args):
            lo, hi = self._expr_bounds(arg, caller_state)
            k = entry.index(param)
            if hi is not None:
                matrix[2 * k, 2 * k + 1] = 2 * hi
            if lo is not None:
                matrix[2 * k + 1, 2 * k] = -2 * lo
        return self._closed(entry.variables, matrix)

    def call_return(
        self,
        caller_state: OctagonState,
        callee_exit: OctagonState,
        target: Optional[str],
        args: Sequence[A.Expr] = (),
    ) -> OctagonState:
        if caller_state.is_bottom or callee_exit.is_bottom:
            return self.bottom()
        if target is None:
            return caller_state
        out = self._forget(target, caller_state)
        assert out.matrix is not None
        lo, hi = callee_exit.variable_bounds(A.RETURN_VARIABLE)
        matrix = out.matrix.copy()
        k = out.index(target)
        if hi is not None:
            matrix[2 * k, 2 * k + 1] = min(matrix[2 * k, 2 * k + 1], 2.0 * hi)
        if lo is not None:
            matrix[2 * k + 1, 2 * k] = min(matrix[2 * k + 1, 2 * k], -2.0 * lo)
        return self._closed(out.variables, matrix)

    def variable_bounds(self, state: OctagonState, name: str) -> Tuple[Optional[int], Optional[int]]:
        """Interval bounds the octagon implies for ``name`` (client helper)."""
        return state.variable_bounds(name)
