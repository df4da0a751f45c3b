"""Cross-process identity of interned abstract states.

The parallel coordinator ships states to worker processes and receives
states back; correctness of the whole seeding scheme rests on every
interned type re-interning through its ``__reduce__`` hook on unpickle,
so that a state that crossed two process boundaries is *pointer-equal* to
the coordinator's canonical object (``summary_digest`` and the O(1)
equality fast paths rely on ``is``).

Each round-trip test sends instances through a real child interpreter:
the parent pickles states to the child, the child unpickles them
(re-interning into *its* tables), checks in-child canonicalization,
re-pickles, and the parent asserts the returned objects ARE the originals.
Identity also backs hashing: every interned type keeps ``object.__hash__``.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np

import repro
from repro.daig.names import Name
from repro.domains import OctagonDomain
from repro.domains.nonrel import ArraySummary, EnvState, ScalarValue
from repro.domains.octagon import OctagonState
from repro.domains.values import Constant, Interval

#: The child re-interns on load, asserts loads(dumps(x)) is x locally,
#: and ships the states back for the parent-side identity check.
CHILD_SCRIPT = r"""
import pickle, sys
states = pickle.loads(sys.stdin.buffer.read())
for state in states:
    again = pickle.loads(pickle.dumps(state, protocol=4))
    assert again is state, type(state).__name__
sys.stdout.buffer.write(pickle.dumps(states, protocol=4))
"""


def _round_trip_through_child(states):
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part)
    completed = subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT],
        input=pickle.dumps(states, protocol=4),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, check=False)
    assert completed.returncode == 0, completed.stderr.decode()
    return pickle.loads(completed.stdout)


def _sample_states():
    """One representative of each of the seven interned types."""
    interval = Interval.make(-3, 17)
    scalar = ScalarValue(interval, False, True)
    return [
        Name("stmt", 4, 7, index=2),
        interval,
        Constant("const", 42),
        scalar,
        ArraySummary(Interval.make(0, 9), scalar),
        EnvState((("x", scalar), ("y", ScalarValue(Interval.top(),
                                                   True, False)))),
        OctagonDomain().initial(["x", "y"]),
    ]


def test_every_interned_type_hashes_and_compares_by_identity():
    """Interning makes ``object.__eq__`` structural equality, so
    ``object.__hash__`` agrees with it and every dict, set and memo probe
    hashes in C; a Python-level ``__hash__`` or ``__eq__`` on an interned
    type would be a silent slowdown."""
    for state in _sample_states():
        name = type(state).__name__
        assert type(state).__hash__ is object.__hash__, name
        assert type(state).__eq__ is object.__eq__, name


def test_every_interned_type_round_trips_to_the_same_object():
    states = _sample_states()
    returned = _round_trip_through_child(states)
    assert len(returned) == len(states)
    for original, received in zip(states, returned):
        assert received is original, type(original).__name__


def test_nested_unpickle_reinterns_components_too():
    """Unpickling a compound state must also canonicalize its parts: the
    env's scalars and intervals come back pointer-equal, not just the env."""
    interval = Interval.make(1, 5)
    scalar = ScalarValue(interval, False, False)
    env = EnvState((("v", scalar),))
    (received,) = _round_trip_through_child([env])
    assert received is env
    rebuilt = pickle.loads(pickle.dumps(env, protocol=4))
    assert rebuilt is env
    assert rebuilt.bindings[0][1] is scalar


def test_octagon_closed_flag_survives_the_boundary():
    """``closed`` sits OUTSIDE the octagon intern key (it is a monotone
    cache bit, not part of the abstract value), so a closed state returning
    from a worker must re-intern onto the parent's canonical object and
    must never downgrade its flag."""
    domain = OctagonDomain()
    state = domain.initial(["x"])
    assert state.closed
    (received,) = _round_trip_through_child([state])
    assert received is state
    assert state.closed
    # An equal-matrix unclosed variant still lands on the same (closed)
    # canonical object after a local round trip.
    variant = OctagonState(state.variables, np.array(state.matrix),
                           closed=False)
    assert variant is state
    assert state.closed


def test_bottom_octagon_round_trips():
    domain = OctagonDomain()
    bottom = domain.bottom()
    (received,) = _round_trip_through_child([bottom])
    assert received is bottom
