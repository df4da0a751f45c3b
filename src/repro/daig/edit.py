"""Incremental edit semantics over DAIGs (Fig. 9).

:func:`write_cell` implements the ``D ⊢ n ⇐ v ; D'`` judgment: writing a
value (or ε) to a reference cell dirties — empties — every cell that
transitively depends on it (rule E-Propagate bottoming out in E-Commit),
with the special treatment of loops required by rule E-Loop: when a loop's
iterate cells are invalidated, the loop is *rolled back* to its initial
two-iterate form and its ``fix`` computation is reset, discarding the
demanded unrollings that the edit made stale.

Nothing here re-runs an analysis function.  A later query (Fig. 8)
recomputes the dirty cells it needs; a splice in an engine with no call
hook settles its edit at once (:meth:`repro.daig.query.QueryEvaluator.propagate`)
and dirties only the loops a change enters, and what it cannot settle.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Set

from .build import DaigBuilder
from .graph import Daig
from .names import FIX as FIX_KIND
from .names import Name, STMT


class InvalidEditError(Exception):
    """Raised for edits that would violate DAIG well-formedness (E-Commit)."""


def dirty_forward(daig: Daig, builder: DaigBuilder, seeds: Iterable[Name],
                  stop: Optional[Name] = None,
                  new_epoch: bool = True) -> Set[Name]:
    """Empty every cell transitively depending on the seeds, not looking
    past ``stop``.

    Returns the set of dirtied names.  Loops whose iterate chain is touched
    are rolled back to their initial two-iterate encoding (E-Loop).

    Opens a new dirtying epoch (unless ``new_epoch`` is unset: one splice's
    walks share its epoch): each dirtied cell's prior value is retained by
    :meth:`~repro.daig.graph.Daig.clear_value` as an early-cutoff shadow
    stamped with this epoch, so that re-demand can stop propagating at the
    first unchanged value and restore the rest (:mod:`repro.daig.query`).
    """
    if new_epoch:
        daig.epoch += 1
    dirtied = daig.forward_reachable(seeds, stop)
    for name in dirtied:
        daig.clear_value(name)
    # E-Loop: any dirtied fix cell (equivalently, any dirtied iterate) means
    # the demanded unrollings of that loop are stale; roll the loop back.
    # Outer loops roll first, so an inner loop's copy inside a discarded
    # outer iteration is already gone when its turn comes (a fixed order:
    # set order follows object addresses, and would vary the work done).
    fixes = sorted((name for name in dirtied if name.kind == FIX_KIND),
                   key=lambda name: (len(name.iters), name.loc, name.iters))
    for name in fixes:
        builder.roll(daig, name.loc, dict(name.iters))
    # Rolling may have removed cells from the dirty set; that is fine — the
    # remaining cells stay empty until demanded.
    return dirtied


def write_cell(
    daig: Daig,
    builder: DaigBuilder,
    name: Name,
    value: Any,
) -> Set[Name]:
    """Write ``value`` to cell ``name`` and dirty its dependents (Fig. 9).

    ``value`` may be ``None`` to write ε (empty the cell), which is permitted
    only for cells that have a defining computation — exactly the E-Commit
    side conditions.
    """
    if not daig.declares(name):
        raise InvalidEditError("unknown reference cell %s" % (name,))
    if value is None and daig.defining(name) is None:
        raise InvalidEditError(
            "cannot empty source cell %s: it has no defining computation" % (name,))
    if value is not None and name.kind == STMT and daig.defining(name) is not None:
        raise InvalidEditError("statement cells are never computed: %s" % (name,))
    dirtied = dirty_forward(daig, builder, [name])
    if value is None:
        daig.clear_value(name)
    else:
        daig.set_value(name, value)
    return dirtied
