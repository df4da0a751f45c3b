"""Shared test helpers: subject-program sources and random-CFG factories.

Test modules import these directly (``from helpers import LOOP_SOURCE``)
instead of reaching into ``conftest.py``: conftest modules are pytest
plumbing, not an importable API, and importing them by name breaks as soon
as another directory (e.g. ``benchmarks/``) carries its own conftest.  The
``pythonpath`` entry in ``pyproject.toml`` puts this directory on
``sys.path`` for the whole suite.
"""

from __future__ import annotations

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
