"""Names: unique identifiers for DAIG reference cells (Fig. 6).

The paper's names are built from locations, function symbols, values,
integers, products, and *i-primed* variants ``n^(i)`` that distinguish the
``i``-th unrolled copy of a loop-body cell.  This module implements a small
structured-name algebra with the same roles:

* ``state(ℓ, iters)`` — the abstract-state cell at location ``ℓ``; ``iters``
  assigns an iteration count to every loop head whose natural loop contains
  ``ℓ`` (the paper's single prime index, generalized to nested loops),
* ``fix(ℓ, iters)`` — the fixed-point cell of the loop headed at ``ℓ``
  (``iters`` covers the *enclosing* loops only),
* ``stmt(src, dst, index)`` — a statement cell labelling the CFG edge
  ``src → dst`` (``index`` disambiguates multiple forward edges into a join
  point); statement cells are never iteration-indexed, matching the paper's
  observation that program syntax is not duplicated by unrolling,
* ``prejoin(ℓ, i, iters)`` — the ``i·n_ℓ`` cell holding the abstract state
  flowing into join point ``ℓ`` along its ``i``-th incoming forward edge,
* ``prewiden(ℓ, k, iters)`` — the ``ℓ^(k-1)·ℓ^(k)`` cell holding the
  image of the loop body under the abstract semantics, input to the ``k``-th
  widening.

All name equality is structural, exactly as in the paper — and, because
names are hash-consed through :mod:`repro.intern`, structural equality *is*
pointer equality: constructing the same name twice yields the same object,
so the DAIG's indices and the memo table hash and compare names by identity.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..intern import InternTable

Iterations = Tuple[Tuple[int, int], ...]

#: Name kinds.
STATE = "state"
FIX = "fix"
STMT = "stmt"
PREJOIN = "prejoin"
PREWIDEN = "prewiden"

#: Cell types (the τ of Fig. 6).
TYPE_STMT = "Stmt"
TYPE_STATE = "Sigma"


class Name:
    """A structured DAIG name.  Fields are interpreted per ``kind``:

    ==========  =========  ===========================  =====================
    kind        loc        aux                          iters
    ==========  =========  ===========================  =====================
    state       location   (unused)                     enclosing-loop iters
    fix         loop head  (unused)                     *outer*-loop iters
    stmt        edge src   edge dst                     (unused)
    prejoin     join loc   incoming-edge index (1-...)  enclosing-loop iters
    prewiden    loop head  widening step k (1-based)    *outer*-loop iters
    ==========  =========  ===========================  =====================

    Statement names additionally carry ``index`` for join disambiguation.

    ``heads`` is derived, not part of the name: the loop heads for which
    the cell carries a nonzero iteration (a pre-widening cell always
    belongs to an iterate of its own head, since its ``aux`` is the 1-based
    widening step).  It is computed once, when the name is interned, and
    files the cell under those heads in the DAIG's ``iterated`` index.

    Names are interned: equal field tuples yield the *same* object, so
    equality and hashing are both by identity.
    """

    __slots__ = ("kind", "loc", "aux", "index", "iters", "heads",
                 "__weakref__")

    _intern = InternTable("daig.Name")

    kind: str
    loc: int
    aux: int
    index: int
    iters: Iterations
    heads: Tuple[int, ...]

    def __new__(cls, kind: str, loc: int, aux: int = 0, index: int = 0,
                iters: Iterations = ()) -> "Name":
        key = (kind, loc, aux, index, iters)
        table = cls._intern
        canonical = table.get(key)
        if canonical is not None:
            return canonical
        heads = tuple([head for head, count in iters if count >= 1])
        if kind == PREWIDEN and aux >= 1:
            heads += (loc,)
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "iters", iters)
        object.__setattr__(self, "heads", heads)
        return table.insert(key, self)

    def __setattr__(self, attr: str, value: object) -> None:
        raise AttributeError("Name is immutable (interned)")

    # object.__eq__ and object.__hash__ (identity) are exactly structural
    # equality and a hash consistent with it for interned names; __reduce__
    # re-interns on unpickle so the invariant survives serialization, such
    # as the process boundary of the parallel path's jobs
    # (repro.parallel.worker).
    def __reduce__(self):
        return (Name, (self.kind, self.loc, self.aux, self.index, self.iters))

    def __repr__(self) -> str:
        return "Name(kind=%r, loc=%r, aux=%r, index=%r, iters=%r)" % (
            self.kind, self.loc, self.aux, self.index, self.iters)

    def cell_type(self) -> str:
        return TYPE_STMT if self.kind == STMT else TYPE_STATE

    def iteration_of(self, head: int) -> int:
        """The iteration count this name carries for loop head ``head``."""
        for key, value in self.iters:
            if key == head:
                return value
        if self.kind == PREWIDEN and self.loc == head:
            return self.aux
        return 0

    def is_base_copy(self) -> bool:
        """Whether this cell belongs to the initial (all-zero-iteration)
        encoding rather than to a demanded unrolling of some loop."""
        return all(count == 0 for _, count in self.iters)

    def mentions_head_iteration(self, head: int, minimum: int) -> bool:
        """Whether this name belongs to iteration >= ``minimum`` of ``head``."""
        for key, value in self.iters:
            if key == head and value >= minimum:
                return True
        if self.kind == PREWIDEN and self.loc == head and self.aux >= minimum:
            return True
        return False

    def __str__(self) -> str:
        iters = "".join("^(%d:%d)" % (h, k) for h, k in self.iters)
        if self.kind == STATE:
            return "ℓ%d%s" % (self.loc, iters)
        if self.kind == FIX:
            return "fix[ℓ%d]%s" % (self.loc, iters)
        if self.kind == STMT:
            if self.index:
                return "%d·ℓ%d·ℓ%d" % (self.index, self.loc, self.aux)
            return "ℓ%d·ℓ%d" % (self.loc, self.aux)
        if self.kind == PREJOIN:
            return "%d·ℓ%d%s" % (self.aux, self.loc, iters)
        return "ℓ%d(%d-1)·ℓ%d(%d)%s" % (self.loc, self.aux, self.loc, self.aux, iters)


def iterations(heads: Sequence[int], overrides: Dict[int, int]) -> Iterations:
    """The ``iters`` of a cell inside the loops headed at ``heads``.

    Each head gets its count from ``overrides`` (defaulting to 0); the
    pairs are sorted by head.  Most cells sit in at most one loop, which
    needs no sort.
    """
    if not heads:
        return ()
    if len(heads) == 1:
        head = heads[0]
        return ((head, overrides.get(head, 0)),)
    return tuple(sorted([(head, overrides.get(head, 0)) for head in heads]))


def state_name(loc: int, heads: Sequence[int], overrides: Dict[int, int]) -> Name:
    """The abstract-state cell at ``loc`` under the given loop iterations.

    ``heads`` lists every loop head whose natural loop contains ``loc``;
    each gets the iteration count from ``overrides`` (defaulting to 0).
    """
    return Name(STATE, loc, iters=iterations(heads, overrides))


def fix_name(head: int, outer_heads: Sequence[int], overrides: Dict[int, int]) -> Name:
    """The fixed-point cell of the loop headed at ``head``.

    ``outer_heads`` lists the loop heads strictly enclosing ``head`` (a
    listed ``head`` itself is skipped).
    """
    return Name(FIX, head, iters=iterations(
        [h for h in outer_heads if h != head], overrides))


def stmt_name(src: int, dst: int, index: int = 0) -> Name:
    """The statement cell for CFG edge ``src → dst`` (index for joins)."""
    return Name(STMT, src, dst, index)


def prejoin_name(loc: int, index: int, heads: Sequence[int],
                 overrides: Dict[int, int]) -> Name:
    """The pre-join cell ``index·n_loc``."""
    return Name(PREJOIN, loc, index, iters=iterations(heads, overrides))


def prewiden_name(head: int, step: int, outer_heads: Sequence[int],
                  overrides: Dict[int, int]) -> Name:
    """The pre-widening cell feeding the ``step``-th iterate of ``head``."""
    return Name(PREWIDEN, head, step, iters=iterations(
        [h for h in outer_heads if h != head], overrides))
