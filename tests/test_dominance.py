"""Dominance, back edges, reducibility and join order against a reference.

The structure layer keeps dominance as an immediate-dominator tree,
built by Cooper, Harvey and Kennedy's iteration over a reverse postorder
and re-parented in place on each insertion, and it takes the back edges
and reducibility from the same walk's retreating edges.  These tests hold
it to the set-intersection dominator fixpoint and the forward-edge cycle
search in ``helpers`` on seeded random flowgraphs with irreducible
regions, unreachable locations, self-loops, edges into the entry and
parallel edges, and hold the live tree to a from-scratch build after
random insertion streams.  CI runs this module again under
``PYTHONHASHSEED=1`` and ``2``, so an order that follows set order fails
there on every run.
"""

import random

import pytest

from helpers import (LOOP_SOURCE, NESTED_SOURCE, reference_back_pairs,
                     reference_dominators, reference_fwd_edges_to,
                     reference_has_forward_cycle)

from repro.lang import ast as A
from repro.lang import build_cfg, parse_program
from repro.lang.cfg import Cfg

#: Statements for random edges; parallel edges draw two different ones.
STATEMENTS = (
    A.SkipStmt(),
    A.AssignStmt("x", A.IntLit(1)),
    A.AssignStmt("x", A.IntLit(2)),
    A.AssumeStmt(A.BinOp("<", A.Var("x"), A.IntLit(3))),
    A.AssumeStmt(A.BinOp(">=", A.Var("x"), A.IntLit(3))),
)


def random_flowgraph(rng):
    """A random graph: a spanning tree over most locations, forward
    shortcuts, retreating edges (loops, or irreducible regions when their
    target does not dominate their source), and sometimes a self-loop, an
    edge into the entry, parallel edges and unreachable locations with
    edges into the reachable ones."""
    cfg = Cfg("g")
    locs = [cfg.exit] + [cfg.fresh_loc() for _ in range(rng.randint(1, 20))]
    rng.shuffle(locs)
    order = [cfg.entry] + locs
    dead = set(rng.sample(locs, rng.randint(0, 2))) if len(locs) > 2 else set()
    live = [cfg.entry]
    for loc in locs:
        if loc not in dead:
            cfg.add_edge(rng.choice(live), rng.choice(STATEMENTS), loc)
            live.append(loc)
    for _ in range(rng.randint(0, len(order))):
        first, second = sorted(rng.sample(range(len(order)), 2))
        cfg.add_edge(order[first], rng.choice(STATEMENTS), order[second])
    for _ in range(rng.randint(0, 3)):
        first, second = sorted(rng.sample(range(len(order)), 2))
        cfg.add_edge(order[second], rng.choice(STATEMENTS), order[first])
    if rng.random() < 0.25:
        loc = rng.choice(order)
        cfg.add_edge(loc, rng.choice(STATEMENTS), loc)
    if rng.random() < 0.25:
        cfg.add_edge(rng.choice(locs), rng.choice(STATEMENTS), cfg.entry)
    if rng.random() < 0.4:
        edge = rng.choice(cfg.edges)
        stmt = rng.choice([s for s in STATEMENTS if s != edge.stmt])
        cfg.add_edge(edge.src, stmt, edge.dst)
    for loc in dead:
        cfg.add_edge(loc, rng.choice(STATEMENTS), rng.choice(live))
    return cfg


def assert_matches_reference(cfg, tag=""):
    """Dominators, dominance, back edges, reducibility and every
    location's forward-edge order equal the reference analyses'."""
    analysis = cfg._analyze()
    dom = reference_dominators(cfg)
    assert cfg.reachable_locations() == set(dom), tag
    assert cfg.dominators() == dom, tag
    for b in cfg.locations:
        for a in cfg.locations:
            assert cfg.dominates(a, b) == (b in dom and a in dom[b]), (tag, a, b)
    back = reference_back_pairs(cfg, dom)
    assert analysis.back_pairs == back, tag
    assert analysis.has_forward_cycle == reference_has_forward_cycle(
        cfg, dom, back), tag
    assert analysis.fwd_edges_to == reference_fwd_edges_to(cfg, dom, back), tag
    children = {loc: {child for child, parent in analysis.idom.items()
                      if parent == loc and child != loc}
                for loc in dom}
    assert analysis.dom_children == children, tag


def assert_tree_matches_scratch(cfg, tag=""):
    live, scratch = cfg._analyze(), cfg.copy()._analyze()
    assert live.idom == scratch.idom, tag
    assert live.dom_children == scratch.dom_children, tag
    assert live.back_pairs == scratch.back_pairs, tag


def _features(cfg):
    reachable = cfg.reachable_locations()
    pairs = [(edge.src, edge.dst) for edge in cfg.edges]
    return {
        "irreducible": not cfg.is_reducible(),
        "unreachable": len(reachable) < len(cfg.locations),
        "self-loop": any(src == dst for src, dst in pairs),
        "into entry": any(dst == cfg.entry for _src, dst in pairs),
        "parallel": any(
            len({str(edge.stmt) for edge in cfg.out_edges(src)
                 if edge.dst == dst}) > 1 for src, dst in pairs),
    }


@pytest.mark.parametrize("first_seed", [0, 100, 200])
def test_random_flowgraphs_match_the_reference(first_seed):
    seen = {}
    for seed in range(first_seed, first_seed + 100):
        cfg = random_flowgraph(random.Random(seed))
        assert_matches_reference(cfg, seed)
        for feature, present in _features(cfg).items():
            seen[feature] = seen.get(feature, 0) + present
    # Every shape the generator is for occurs in every batch.
    assert all(seen.values()), seen


def _random_insertion(cfg, rng, step):
    """Insert a statement, conditional or loop, after a loop head one time
    in three when there is one."""
    points = cfg.insertion_points()
    heads = [head for head in cfg.loop_heads() if head != cfg.exit]
    loc = rng.choice(heads if heads and rng.random() < 0.33 else points)
    stmt = A.AssignStmt("v", A.IntLit(step))
    cond = A.BinOp("<", A.Var("v"), A.IntLit(step))
    kind = rng.random()
    if kind < 0.5:
        cfg.insert_statement_after(loc, stmt)
    elif kind < 0.8:
        cfg.insert_conditional_after(loc, cond, [stmt], [stmt] * (step % 2))
    else:
        cfg.insert_loop_after(loc, cond, [stmt])
    return loc


@pytest.mark.parametrize("source", [None, LOOP_SOURCE, NESTED_SOURCE],
                         ids=["straight", "loop", "nested"])
@pytest.mark.parametrize("seed", range(6))
def test_live_tree_equals_a_fresh_build_after_insertions(source, seed):
    """Insertion streams into structured programs re-parent the tree in
    place (never rebuilding it), and after every insertion the live tree
    equals a from-scratch build."""
    if source is None:
        cfg = Cfg("main")
        cfg.add_edge(cfg.entry, A.SkipStmt(), cfg.exit)
    else:
        cfg = build_cfg(parse_program(source).procedure("main"))
    cfg.ensure_structure()
    builds = cfg.structure_stats()["structure_full_builds"]
    rng = random.Random(seed)
    for step in range(30):
        loc = _random_insertion(cfg, rng, step)
        assert_tree_matches_scratch(cfg, (seed, step, loc))
    assert cfg.structure_stats()["structure_full_builds"] == builds
    assert_matches_reference(cfg, seed)


def test_live_tree_equals_a_fresh_build_on_random_flowgraphs():
    """Insertions into random flowgraphs: the reducible ones without
    loop-exit violations take the exact update (with loop heads at the
    entry, self-loops and parallel edges among them), the others rebuild,
    and both equal a from-scratch build and the reference."""
    exact = 0
    for seed in range(150):
        rng = random.Random(seed)
        cfg = random_flowgraph(rng)
        for step in range(3):
            cfg.ensure_structure()
            builds = cfg.structure_stats()["structure_full_builds"]
            loc = _random_insertion(cfg, rng, step)
            exact += cfg.structure_stats()["structure_full_builds"] == builds
            assert_tree_matches_scratch(cfg, (seed, step, loc))
        assert_matches_reference(cfg, seed)
    assert exact > 100, exact
