"""Shared test helpers: subject-program sources, random-CFG factories,
reference structure analyses and the fresh-build oracle for spliced DAIGs.

Test modules import these directly (``from helpers import LOOP_SOURCE``)
instead of reaching into ``conftest.py``: conftest modules are pytest
plumbing, not an importable API, and importing them by name breaks as soon
as another directory (e.g. ``benchmarks/``) carries its own conftest.  The
``pythonpath`` entry in ``pyproject.toml`` puts this directory on
``sys.path`` for the whole suite.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.daig import FIX, JOIN, TRANSFER, DaigBuilder
from repro.daig import names as N
from repro.workload.generator import WorkloadGenerator

#: A small looping program used across many tests.
LOOP_SOURCE = """
function main() {
  var i = 0;
  var total = 0;
  while (i < 10) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
"""

#: Straight-line program with a conditional join.
BRANCH_SOURCE = """
function main(flag) {
  var x = 0;
  if (flag > 0) {
    x = 1;
  } else {
    x = 2;
  }
  var y = x + 3;
  return y;
}
"""

#: Nested loops.
NESTED_SOURCE = """
function main() {
  var i = 0;
  var total = 0;
  while (i < 3) {
    var j = 0;
    while (j < 4) {
      total = total + 1;
      j = j + 1;
    }
    i = i + 1;
  }
  return total;
}
"""

#: ``c`` shared by two callers.  Once ``p`` stops calling ``c(100)``,
#: ``q``'s ``c(1)`` is the only call left and ``a`` is 0 at main's exit.
SHARED_CALLEE_SOURCE = """
function c(x) { var r = 0; if (x > 10) { r = 1; } return r; }
function p() { var y = c(100); return 0; }
function q() { var z = c(1); return z; }
function main() { var b = p(); var a = q(); return a; }
"""

#: ``SHARED_CALLEE_SOURCE`` after ``p``'s ``y = c(100)`` became ``y = 1``.
SHARED_CALLEE_EDITED_SOURCE = SHARED_CALLEE_SOURCE.replace(
    "var y = c(100);", "var y = 1;")


def random_cfg(seed: int, edits: int):
    """A random CFG produced by applying `edits` workload edits from `seed`."""
    generator = WorkloadGenerator(seed=seed, call_probability=0.0)
    generator.generate(edits)
    return generator.cfg


def random_workload(seed: int, edits: int):
    """A random workload stream plus the generator that produced it."""
    generator = WorkloadGenerator(seed=seed, call_probability=0.0)
    steps = generator.generate(edits)
    return generator, steps


# -- reference structure analyses ---------------------------------------------
#
# The set-intersection dominator fixpoint and the forward-edge cycle search
# that the structure layer's immediate-dominator tree and retreating-edge
# test replaced, kept as the oracle ``tests/test_dominance.py`` compares
# them against.  They read only the graph's edges.


def reference_dominators(cfg) -> Dict[int, Set[int]]:
    """Each reachable location's dominator set, by the fixpoint
    ``dom(l) = {l} ∪ ⋂ dom(p)`` over its reachable predecessors."""
    reachable = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        for edge in cfg.out_edges(stack.pop()):
            if edge.dst not in reachable:
                reachable.add(edge.dst)
                stack.append(edge.dst)
    dom = {loc: set(reachable) for loc in reachable}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for loc in sorted(reachable - {cfg.entry}):
            new = set(reachable)
            for edge in cfg.in_edges(loc):
                if edge.src in reachable:
                    new &= dom[edge.src]
            new.add(loc)
            if new != dom[loc]:
                dom[loc] = new
                changed = True
    return dom


def reference_back_pairs(cfg, dom) -> Set[Tuple[int, int]]:
    """Edges from a reachable location into one of its dominators."""
    return {(edge.src, edge.dst) for edge in cfg.edges
            if edge.src in dom and edge.dst in dom[edge.src]}


def reference_has_forward_cycle(cfg, dom, back_pairs) -> bool:
    """A depth-first cycle search over the reachable forward edges."""
    succ = {loc: [edge.dst for edge in cfg.out_edges(loc)
                  if (edge.src, edge.dst) not in back_pairs]
            for loc in dom}
    state: Dict[int, int] = {}
    for start in sorted(dom):
        if state.get(start, 0) != 0:
            continue
        stack = [(start, list(succ[start]))]
        state[start] = 1
        while stack:
            node, succs = stack[-1]
            if succs:
                nxt = succs.pop(0)
                if state.get(nxt, 0) == 1:
                    return True
                if state.get(nxt, 0) == 0:
                    state[nxt] = 1
                    stack.append((nxt, list(succ[nxt])))
            else:
                state[node] = 2
                stack.pop()
    return False


def reference_fwd_edges_to(cfg, dom, back_pairs) -> Dict[int, List[Tuple[int, object]]]:
    """Each reachable location's incoming forward edges, sorted by source
    and statement text and numbered from 1 (locations without any are
    left out)."""
    out = {}
    for loc in dom:
        incoming = sorted(
            (edge for edge in cfg.in_edges(loc)
             if edge.src in dom and (edge.src, edge.dst) not in back_pairs),
            key=lambda edge: (edge.src, str(edge.stmt)))
        if incoming:
            out[loc] = [(index + 1, edge) for index, edge in enumerate(incoming)]
    return out


def assert_daig_matches_fresh_build(engine, tag=""):
    """A spliced engine matches ``DaigBuilder(cfg.copy(), ...).build()``.

    Its builder's filed encodings equal the fresh builder's; its statement
    cells hold the statement objects the fresh build's hold (a copy shares
    its graph's edges); its all-zero-iteration state, pre-join and fix
    cells are the fresh build's; and it holds every computation of the
    fresh build, a fix cell's by function only (demanded unrolling slides
    its inputs).
    """
    builder = engine.builder
    fresh = DaigBuilder(engine.cfg.copy(), engine.domain, builder.entry_state)
    expected = fresh.build()
    daig = engine.daig
    assert builder.encodings == fresh.encodings, (tag, "encodings")
    assert builder.loop_encodings == fresh.loop_encodings, (tag, "loops")

    def statements(graph):
        return {name: id(value) for name, value in graph.values.items()
                if name.kind == N.STMT}

    def base_cells(graph):
        return {name for name in graph.cells()
                if name.kind in (N.STATE, N.PREJOIN, N.FIX)
                and name.is_base_copy()}

    assert statements(daig) == statements(expected), (tag, "statements")
    assert base_cells(daig) == base_cells(expected), (tag, "base cells")
    for comp in expected.computations.values():
        dest, func, _srcs = comp
        held = daig.computations.get(dest)
        assert held is not None, (tag, dest)
        if func == FIX:
            assert held[1] == FIX, (tag, dest)
        else:
            assert held == comp, (tag, dest)


def assert_values_consistent(engine, tag=""):
    """Every valued computed cell of ``engine``'s DAIG has valued inputs
    and, ``fix`` cells aside, holds its function of them (by
    ``domain.equal``): what an edit left in place, or settled, is what a
    recomputation would give.  For engines without a call hook, whose call
    transfers are the domain's own."""
    domain = engine.domain
    values = engine.daig.values
    for dest, func, srcs in engine.daig.computations.values():
        if dest not in values:
            continue
        assert all(src in values for src in srcs), (tag, "empty input", dest)
        if func == FIX:
            continue
        args = [values[src] for src in srcs]
        if func == TRANSFER:
            expected = domain.transfer(args[0], args[1])
        elif func == JOIN:
            expected = args[0]
            for other in args[1:]:
                expected = domain.join(expected, other)
        else:
            expected = domain.widen(args[0], args[1])
        assert domain.equal(values[dest], expected), (tag, dest)
