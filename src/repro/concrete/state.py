"""Concrete program states for the reference (concrete) semantics.

The concrete semantics of Section 3 interprets statements as partial
functions over concrete states ``σ ∈ Σ``.  A concrete state here is an
environment mapping variable names to values together with a heap mapping
addresses to records (used by the linked-list programs).  Values are:

* Python ``int`` / ``bool`` / ``str`` for scalars,
* ``None`` for the language's ``null``,
* :class:`ArrayValue` for arrays (reference semantics, like JavaScript),
* :class:`Address` for heap record references.

States are *copied* on each transition so that the collecting semantics can
keep historic states without aliasing surprises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class Address:
    """An abstract heap address; identity is the allocation counter value."""

    index: int

    def __str__(self) -> str:
        return "addr#%d" % self.index


class ArrayValue:
    """A mutable array value with JavaScript-style reference semantics."""

    def __init__(self, elements: Optional[List[Any]] = None) -> None:
        self.elements: List[Any] = list(elements) if elements is not None else []

    def __len__(self) -> int:
        return len(self.elements)

    def copy(self) -> "ArrayValue":
        return ArrayValue(list(self.elements))

    def __repr__(self) -> str:
        return "ArrayValue(%r)" % (self.elements,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArrayValue) and self.elements == other.elements

    def __hash__(self) -> int:  # pragma: no cover - arrays are not dict keys
        return id(self)


class ConcreteError(Exception):
    """A runtime error in the concrete semantics (⊥ in the paper)."""


class NullDereferenceError(ConcreteError):
    """Dereference of ``null`` — the error the shape analysis rules out."""


class OutOfBoundsError(ConcreteError):
    """Array access outside ``[0, length)`` — ruled out by the interval client."""


class ConcreteState:
    """An environment plus a heap of records; the σ of the paper."""

    _alloc_counter = itertools.count()

    def __init__(
        self,
        env: Optional[Dict[str, Any]] = None,
        heap: Optional[Dict[Address, Dict[str, Any]]] = None,
    ) -> None:
        self.env: Dict[str, Any] = dict(env) if env else {}
        self.heap: Dict[Address, Dict[str, Any]] = (
            {addr: dict(fields) for addr, fields in heap.items()} if heap else {}
        )

    # -- environment ----------------------------------------------------------

    def read(self, name: str) -> Any:
        if name not in self.env:
            raise ConcreteError("read of undefined variable %r" % name)
        return self.env[name]

    def write(self, name: str, value: Any) -> "ConcreteState":
        out = self.copy()
        out.env[name] = value
        return out

    # -- heap ------------------------------------------------------------------

    def allocate(self) -> tuple["ConcreteState", Address]:
        out = self.copy()
        addr = Address(next(ConcreteState._alloc_counter))
        out.heap[addr] = {}
        return out, addr

    def read_field(self, addr: Any, fieldname: str) -> Any:
        if addr is None:
            raise NullDereferenceError("null.%s" % fieldname)
        if not isinstance(addr, Address):
            raise ConcreteError("field read on non-record value %r" % (addr,))
        return self.heap.get(addr, {}).get(fieldname, None)

    def write_field(self, addr: Any, fieldname: str, value: Any) -> "ConcreteState":
        if addr is None:
            raise NullDereferenceError("null.%s = ..." % fieldname)
        if not isinstance(addr, Address):
            raise ConcreteError("field write on non-record value %r" % (addr,))
        out = self.copy()
        out.heap.setdefault(addr, {})[fieldname] = value
        return out

    # -- misc -------------------------------------------------------------------

    def copy(self) -> "ConcreteState":
        out = ConcreteState()
        out.env = dict(self.env)
        out.heap = {addr: dict(fields) for addr, fields in self.heap.items()}
        # Arrays have reference semantics within a single state but should not
        # leak mutations into previously recorded snapshots; copy them too and
        # patch aliases so that variables sharing an array keep sharing it.
        replacements: Dict[int, ArrayValue] = {}
        for name, value in out.env.items():
            if isinstance(value, ArrayValue):
                if id(value) not in replacements:
                    replacements[id(value)] = value.copy()
                out.env[name] = replacements[id(value)]
        for fields in out.heap.values():
            for fieldname, value in fields.items():
                if isinstance(value, ArrayValue):
                    if id(value) not in replacements:
                        replacements[id(value)] = value.copy()
                    fields[fieldname] = replacements[id(value)]
        return out

    def snapshot(self) -> Dict[str, Any]:
        """A hashable-ish summary of the environment, for tests and display."""
        out: Dict[str, Any] = {}
        for name, value in sorted(self.env.items()):
            if isinstance(value, ArrayValue):
                out[name] = tuple(value.elements)
            elif isinstance(value, Address):
                out[name] = str(value)
            else:
                out[name] = value
        return out

    def __repr__(self) -> str:
        return "ConcreteState(%r)" % (self.snapshot(),)


def initial_state(**bindings: Any) -> ConcreteState:
    """Build an initial concrete state from keyword bindings."""
    return ConcreteState(env=dict(bindings))
