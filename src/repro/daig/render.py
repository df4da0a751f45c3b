"""Rendering DAIGs for inspection: Graphviz DOT export and text summaries.

The paper explains its technique with pictures of DAIGs (Figs. 3, 4, 7).
This module produces the same kind of picture from a live engine so that
users can *see* demanded unrolling and incremental dirtying happen:

* :func:`to_dot` renders a DAIG as Graphviz DOT text — statement cells as
  boxes, abstract-state cells as ellipses (filled when they hold a value,
  hollow when dirty/empty), and computation hyper-edges through small
  labelled junction nodes (⟦·⟧♯, ⊔, ∇, fix);
* :func:`summarize_daig` produces a compact textual census (cells by kind,
  how many are filled, current unrolling depth per loop) used by the
  examples and handy when debugging incremental behaviour.
"""

from __future__ import annotations

from typing import Dict, List

from .graph import Daig, FIX, JOIN, TRANSFER, WIDEN
from .names import Name, PREJOIN, PREWIDEN, STATE, STMT, TYPE_STMT
from .names import FIX as FIX_KIND

#: Display labels for the computation function symbols.
_FUNCTION_LABELS = {TRANSFER: "⟦·⟧♯", JOIN: "⊔", WIDEN: "∇", FIX: "fix"}


def _node_id(name: Name) -> str:
    iters = "_".join("%dx%d" % (head, count) for head, count in name.iters)
    return "cell_%s_%d_%d_%d_%s" % (name.kind, name.loc, name.aux, name.index, iters)


def _cell_label(daig: Daig, name: Name) -> str:
    if name.cell_type() == TYPE_STMT and daig.has_value(name):
        return "%s\\n%s" % (name, daig.value(name))
    return str(name)


def to_dot(daig: Daig, title: str = "daig", max_value_length: int = 24) -> str:
    """Render ``daig`` as Graphviz DOT text (Figs. 3/4-style pictures)."""
    lines: List[str] = [
        "digraph %s {" % title.replace('"', ""),
        "  rankdir=LR;",
        '  node [fontname="Helvetica"];',
    ]
    for name in sorted(daig.cells(), key=str):
        shape = "box" if name.cell_type() == TYPE_STMT else "ellipse"
        filled = daig.has_value(name)
        label = _cell_label(daig, name).replace('"', "'")
        if filled and name.cell_type() != TYPE_STMT:
            value_text = str(daig.value(name))
            if len(value_text) > max_value_length:
                value_text = value_text[:max_value_length] + "…"
            label += "\\n" + value_text.replace('"', "'")
        style = "filled" if filled else "dashed"
        lines.append('  %s [shape=%s, style=%s, label="%s"];'
                     % (_node_id(name), shape, style, label))
    for index, (dest, func, srcs) in enumerate(
            sorted(daig.computations.values(), key=lambda c: str(c[0]))):
        junction = "comp_%d" % index
        label = _FUNCTION_LABELS.get(func, func)
        lines.append('  %s [shape=circle, width=0.25, label="%s"];'
                     % (junction, label))
        for src in srcs:
            lines.append("  %s -> %s;" % (_node_id(src), junction))
        lines.append("  %s -> %s;" % (junction, _node_id(dest)))
    lines.append("}")
    return "\n".join(lines)


def summarize_daig(daig: Daig) -> Dict[str, int]:
    """A census of the DAIG: cells by kind, filled cells, loop unrollings."""
    census: Dict[str, int] = {
        "cells": daig.size()[0],
        "computations": len(daig.computations),
        "filled_cells": len(daig.values),
        "statement_cells": 0,
        "state_cells": 0,
        "prejoin_cells": 0,
        "prewiden_cells": 0,
        "fix_cells": 0,
        "max_unrolling": 0,
    }
    kind_keys = {STMT: "statement_cells", STATE: "state_cells",
                 PREJOIN: "prejoin_cells", PREWIDEN: "prewiden_cells",
                 FIX_KIND: "fix_cells"}
    for name in daig.cells():
        key = kind_keys.get(name.kind)
        if key is not None:
            census[key] += 1
    for dest, func, srcs in daig.computations.values():
        if func == FIX:
            census["max_unrolling"] = max(
                census["max_unrolling"], srcs[1].iteration_of(dest.loc))
    return census


def describe_dirty_frontier(daig: Daig) -> List[str]:
    """Names of the empty (dirtied / not-yet-demanded) abstract-state cells."""
    return sorted(str(name) for name in daig.cells()
                  if name.cell_type() != TYPE_STMT and not daig.has_value(name))
