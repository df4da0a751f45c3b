"""A corpus of subject programs used by the examples, tests, and benchmarks.

Three groups of programs mirror the paper's evaluation subjects:

* :data:`APPEND_SOURCE` — the linked-list ``append`` procedure of Fig. 1,
  the running example verified by the shape analysis.
* :data:`LIST_PROGRAMS` — further singly-linked-list utilities modelled on
  the Buckets.js linked-list module (``foreach``, ``indexOf``, ``length``,
  ...), used by the Section 7.2 shape-analysis experiment.
* :data:`ARRAY_PROGRAMS` — 23 array-manipulating programs modelled on the
  Buckets.js test suite (``contains``, ``equals``, ``swap``, ``indexOf``,
  ...), containing 85 array accesses in total, used by the Section 7.2
  interval-analysis experiment.  Helper procedures are deliberately shared
  between call sites with different argument ranges so that verification
  precision depends on the context-sensitivity policy, as in the paper.

All programs are written in the JavaScript-like source syntax and parsed with
:mod:`repro.lang.parser`, so they double as parser integration tests.
"""

from __future__ import annotations

from typing import Dict

from .ast import Program
from .parser import parse_program

# ---------------------------------------------------------------------------
# The paper's running example (Fig. 1)
# ---------------------------------------------------------------------------

APPEND_SOURCE = """
function append(p, q) {
  if (p == null) {
    return q;
  }
  var r = p;
  while (r.next != null) {
    r = r.next;
  }
  r.next = q;
  return p;
}
"""


def append_program() -> Program:
    """The ``append`` procedure of Fig. 1 as a one-procedure program."""
    return parse_program(APPEND_SOURCE, entry="append")


# ---------------------------------------------------------------------------
# Linked-list utilities (Section 7.2 shape-analysis subjects)
# ---------------------------------------------------------------------------

LIST_PROGRAMS: Dict[str, str] = {
    "append": APPEND_SOURCE,
    "foreach": """
function foreach(lst) {
  var cur = lst;
  while (cur != null) {
    print(cur.data);
    cur = cur.next;
  }
  return lst;
}
""",
    "indexof": """
function indexof(lst, target) {
  var cur = lst;
  var i = 0;
  var found = 0 - 1;
  while (cur != null) {
    if (cur.data == target) {
      if (found < 0) {
        found = i;
      }
    }
    i = i + 1;
    cur = cur.next;
  }
  return found;
}
""",
    "length": """
function length(lst) {
  var cur = lst;
  var n = 0;
  while (cur != null) {
    n = n + 1;
    cur = cur.next;
  }
  return n;
}
""",
    "prepend": """
function prepend(lst, value) {
  var node = new();
  node.data = value;
  node.next = lst;
  return node;
}
""",
    "last": """
function last(lst) {
  if (lst == null) {
    return null;
  }
  var cur = lst;
  while (cur.next != null) {
    cur = cur.next;
  }
  return cur;
}
""",
    "build": """
function build(n) {
  var lst = null;
  var i = 0;
  while (i < n) {
    var node = new();
    node.data = i;
    node.next = lst;
    lst = node;
    i = i + 1;
  }
  return lst;
}
""",
}


def list_program(name: str) -> Program:
    """Parse one of the linked-list subject programs by name."""
    return parse_program(LIST_PROGRAMS[name], entry=name)


# ---------------------------------------------------------------------------
# Array-manipulating programs (Section 7.2 interval-analysis subjects)
# ---------------------------------------------------------------------------
#
# Shared helpers: `get`, `getFirst`, `getLast`, and `inRangeRead` are called
# from many programs with different argument ranges.  Under a context-
# insensitive policy the argument intervals of all call sites are joined,
# which defeats most bounds proofs; 1- and 2-call-site sensitivity restore
# them, reproducing the precision staircase reported in the paper.

_ARRAY_HELPERS = """
function get(a, i) {
  var v = a[i];
  return v;
}

function getFirst(a) {
  var v = a[0];
  return v;
}

function getLast(a) {
  var n = a.length;
  var v = a[n - 1];
  return v;
}

function inRangeRead(a, i) {
  var v = 0;
  if (i >= 0) {
    if (i < a.length) {
      v = a[i];
    }
  }
  return v;
}

function pick(a, i) {
  var v = get(a, i);
  return v;
}
"""

ARRAY_PROGRAMS: Dict[str, str] = {
    # 1 -------------------------------------------------------------- contains
    "contains": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4, 5];
  var target = 3;
  var i = 0;
  var found = 0;
  while (i < a.length) {
    var v = a[i];
    if (v == target) {
      found = 1;
    }
    i = i + 1;
  }
  return found;
}
""",
    # 2 ---------------------------------------------------------------- equals
    "equals": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4];
  var b = [1, 2, 3, 4];
  var i = 0;
  var same = 1;
  while (i < a.length) {
    var x = a[i];
    var y = b[i];
    if (x != y) {
      same = 0;
    }
    i = i + 1;
  }
  return same;
}
""",
    # 3 ------------------------------------------------------------------ swap
    "swap": _ARRAY_HELPERS + """
function main() {
  var a = [10, 20, 30, 40, 50, 60];
  var i = 1;
  var j = 4;
  var tmp = a[i];
  a[i] = a[j];
  a[j] = tmp;
  return a[i];
}
""",
    # 4 --------------------------------------------------------------- indexof
    "indexof": _ARRAY_HELPERS + """
function main() {
  var a = [5, 6, 7, 8];
  var target = 7;
  var i = 0;
  var found = 0 - 1;
  while (i < a.length) {
    var v = a[i];
    if (v == target) {
      if (found < 0) {
        found = i;
      }
    }
    i = i + 1;
  }
  return found;
}
""",
    # 5 ----------------------------------------------------------- lastindexof
    "lastindexof": _ARRAY_HELPERS + """
function main() {
  var a = [5, 6, 7, 6, 5];
  var target = 6;
  var i = a.length - 1;
  var found = 0 - 1;
  while (i >= 0) {
    var v = a[i];
    if (v == target) {
      if (found < 0) {
        found = i;
      }
    }
    i = i - 1;
  }
  return found;
}
""",
    # 6 ------------------------------------------------------------------- sum
    "sum": _ARRAY_HELPERS + """
function main() {
  var a = [1, 1, 2, 3, 5, 8];
  var i = 0;
  var total = 0;
  while (i < a.length) {
    total = total + a[i];
    i = i + 1;
  }
  return total;
}
""",
    # 7 ------------------------------------------------------------------- max
    "max": _ARRAY_HELPERS + """
function main() {
  var a = [4, 9, 2, 7];
  var best = a[0];
  var i = 1;
  while (i < a.length) {
    var v = a[i];
    if (v > best) {
      best = v;
    }
    i = i + 1;
  }
  return best;
}
""",
    # 8 ------------------------------------------------------------------- min
    "min": _ARRAY_HELPERS + """
function main() {
  var a = [4, 9, 2, 7];
  var best = a[0];
  var i = 1;
  while (i < a.length) {
    var v = a[i];
    if (v < best) {
      best = v;
    }
    i = i + 1;
  }
  return best;
}
""",
    # 9 --------------------------------------------------------------- reverse
    "reverse": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4, 5, 6, 7, 8];
  var i = 0;
  var j = a.length - 1;
  while (i < j) {
    var tmp = a[i];
    a[i] = a[j];
    a[j] = tmp;
    i = i + 1;
    j = j - 1;
  }
  return a[0];
}
""",
    # 10 ----------------------------------------------------------------- fill
    "fill": _ARRAY_HELPERS + """
function main() {
  var a = [0, 0, 0, 0, 0, 0, 0];
  var i = 0;
  while (i < a.length) {
    a[i] = 42;
    i = i + 1;
  }
  return a[0];
}
""",
    # 11 ----------------------------------------------------------------- copy
    "copy": _ARRAY_HELPERS + """
function main() {
  var a = [9, 8, 7, 6];
  var b = [0, 0, 0, 0];
  var i = 0;
  while (i < a.length) {
    b[i] = a[i];
    i = i + 1;
  }
  return b[0];
}
""",
    # 12 ---------------------------------------------------------------- count
    "count": _ARRAY_HELPERS + """
function main() {
  var a = [1, 0, 1, 1, 0, 1];
  var i = 0;
  var n = 0;
  while (i < a.length) {
    if (a[i] == 1) {
      n = n + 1;
    }
    i = i + 1;
  }
  return n;
}
""",
    # 13 ---------------------------------------------------------- first_last
    "first_last": _ARRAY_HELPERS + """
function main() {
  var a = [3, 1, 4, 1, 5];
  var first = getFirst(a);
  var last = getLast(a);
  return first + last;
}
""",
    # 14 ---------------------------------------------------------- get_helper
    "get_helper": _ARRAY_HELPERS + """
function main() {
  var a = [2, 4, 6, 8];
  var x = get(a, 0);
  var y = get(a, 3);
  return x + y;
}
""",
    # 15 ------------------------------------------------------------ get_mixed
    "get_mixed": _ARRAY_HELPERS + """
function main() {
  var a = [2, 4, 6, 8];
  var b = [1, 2];
  var x = get(a, 3);
  var y = get(b, 1);
  return x + y;
}
""",
    # 16 ----------------------------------------------------------- safe_reads
    "safe_reads": _ARRAY_HELPERS + """
function main() {
  var a = [7, 7, 7];
  var i = 0;
  var total = 0;
  while (i < 3) {
    var v = inRangeRead(a, i);
    total = total + v;
    i = i + 1;
  }
  var w = inRangeRead(a, 10);
  total = total + w;
  return total;
}
""",
    # 17 ----------------------------------------------------------- sliding_sum
    "sliding_sum": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4, 5, 6];
  var i = 1;
  var total = 0;
  while (i < a.length - 1) {
    total = total + a[i - 1] + a[i] + a[i + 1];
    i = i + 1;
  }
  return total;
}
""",
    # 18 ------------------------------------------------------------ dot_product
    "dot_product": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3];
  var b = [4, 5, 6];
  var i = 0;
  var total = 0;
  while (i < a.length) {
    total = total + a[i] * b[i];
    i = i + 1;
  }
  return total;
}
""",
    # 19 --------------------------------------------------------------- shift
    "shift": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4, 5];
  var i = 0;
  while (i < a.length - 1) {
    a[i] = a[i + 1];
    i = i + 1;
  }
  return a[0];
}
""",
    # 20 -------------------------------------------------------------- histogram
    "histogram": _ARRAY_HELPERS + """
function main() {
  var data = [0, 2, 1, 2, 0, 1];
  var bins = [0, 0, 0];
  var i = 0;
  while (i < data.length) {
    var v = data[i];
    if (v >= 0) {
      if (v < bins.length) {
        bins[v] = bins[v] + 1;
      }
    }
    i = i + 1;
  }
  return bins[0];
}
""",
    # 21 -------------------------------------------------------------- peek_ends
    # `pick` routes its accesses through a two-deep call chain, so verifying
    # them requires 2-call-site sensitivity (1-call-site merges the two
    # `pick` call sites at the inner `get`).
    "peek_ends": _ARRAY_HELPERS + """
function main() {
  var small = [1, 2];
  var big = [1, 2, 3, 4, 5, 6, 7];
  var x = getFirst(small);
  var y = getLast(big);
  var w = pick(small, 1);
  var z = pick(big, 5);
  return x + y + w + z;
}
""",
    # 22 ------------------------------------------------------------ interleave
    "interleave": _ARRAY_HELPERS + """
function main() {
  var a = [1, 2, 3, 4];
  var b = [0, 0, 0, 0, 0, 0, 0, 0];
  var i = 0;
  while (i < a.length) {
    b[2 * i] = a[i];
    i = i + 1;
  }
  return b[0];
}
""",
    # 23 ---------------------------------------------------------- bounded_walk
    "bounded_walk": _ARRAY_HELPERS + """
function main() {
  var a = [5, 4, 3, 2, 1];
  var i = 0;
  var steps = 0;
  while (steps < 10) {
    var v = inRangeRead(a, i);
    i = i + v;
    if (i >= a.length) {
      i = 0;
    }
    steps = steps + 1;
  }
  return i;
}
""",
}


def array_program(name: str) -> Program:
    """Parse one of the array-manipulating subject programs by name."""
    return parse_program(ARRAY_PROGRAMS[name], entry="main")


def all_array_programs() -> Dict[str, Program]:
    """Parse the full array suite (used by the Section 7.2 benchmark)."""
    return {name: array_program(name) for name in sorted(ARRAY_PROGRAMS)}


def all_list_programs() -> Dict[str, Program]:
    """Parse the full linked-list suite."""
    return {name: list_program(name) for name in sorted(LIST_PROGRAMS)}


def wide_call_graph_source(width: int, inner_loops: int = 3,
                           bound: int = 40) -> str:
    """Source of the wide-call-graph parallel-evaluation subject program.

    ``main`` calls ``width`` independent loop-bearing workers, one call
    site each, with literal arguments — the shape the SCC-wave scheduler
    is best at: every worker lands in the same condensation wave, their
    summary jobs share no call path, and literal arguments make entry
    speculation exact, so all ``width`` jobs dispatch concurrently and
    certify.  Each worker carries ``inner_loops`` *nested* loop pairs
    with branching bodies (bounds staggered per worker): the inner fixed
    point re-converges once per outer iterate, so demanded evaluation
    cost grows much faster than DAIG size — exactly the regime where
    shipping evaluation to workers pays, because the coordinator's
    serial per-procedure cost (structure + DAIG construction) stays
    proportional to size.  Shared by the parallel and store tests and by
    the ``session-restart`` benchmark workload.
    """
    parts = []
    for i in range(width):
        lines = ["function work%d(n) {" % i, "  var acc = n;"]
        for j in range(inner_loops):
            limit = bound + 7 * i + 3 * j
            lines.append("  var j%d = 0;" % j)
            lines.append("  while (j%d < %d) {" % (j, limit))
            lines.append("    var k%d = 0;" % j)
            lines.append("    while (k%d < %d) {" % (j, limit // 2 + 1))
            lines.append("      var m%d = 0;" % j)
            lines.append("      while (m%d < %d) {" % (j, limit // 3 + 1))
            lines.append("        var t%d = acc + m%d;" % (j, j))
            lines.append("        if (t%d > %d) { acc = acc - 1; }"
                         " else { acc = acc + 2; }" % (j, limit // 2))
            lines.append("        m%d = m%d + 1;" % (j, j))
            lines.append("      }")
            lines.append("      k%d = k%d + 1;" % (j, j))
            lines.append("    }")
            lines.append("    j%d = j%d + 1;" % (j, j))
            lines.append("  }")
        lines.append("  return acc;")
        lines.append("}")
        parts.append("\n".join(lines))
    calls = ["  var s = 0;"]
    for i in range(width):
        calls.append("  var r%d = work%d(%d);" % (i, i, i))
        calls.append("  s = s + r%d;" % i)
    parts.append("function main() {\n%s\n  return s;\n}" % "\n".join(calls))
    return "\n".join(parts)


def bystander_source(bystanders: int) -> str:
    """Source of the cross-procedure edit-locality subject program.

    ``main`` calls one ``leaf`` (the edit target) plus ``bystanders``
    unrelated helpers: only the single ``leaf`` call site depends on leaf
    edits, so the dependent-call-site work of a leaf edit must stay
    constant as ``bystanders`` grows (the interprocedural locality
    tests).
    """
    parts = ["function leaf(x) { var r = x + 1; return r; }"]
    for i in range(bystanders):
        parts.append("function by%d(x) { var b = x * 2; return b; }" % i)
    calls = ["  var l = leaf(1);"]
    for i in range(bystanders):
        calls.append("  var c%d = by%d(%d);" % (i, i, i))
    parts.append("function main() {\n%s\n  return l;\n}" % "\n".join(calls))
    return "\n".join(parts)
