"""Canonical byte encodings and content digests.

Persistent summaries are addressed by *content*: a summary computed in one
process must be findable by a different process — possibly running a
different CPython build — analyzing identical code.  ``pickle.dumps`` is
unsuitable as a key ingredient (memo-dependent framing, protocol drift
across interpreter versions), so this module defines a small deterministic
encoding with a fixed grammar:

* every value is emitted as a one-byte type tag plus a length-delimited
  payload, so distinct structures can never collide by concatenation;
* unordered containers (sets, dicts) are serialized in sorted order of
  their elements' *encodings*, making the bytes independent of insertion
  and hash order;
* interned abstract states encode through the same primitive constructor
  arguments their ``__reduce__`` hooks ship across processes, numpy
  arrays through ``dtype/shape/tobytes`` (the octagon domain already
  normalizes ``-0.0``), and frozen dataclasses (the shape domain's
  canonical heaps) field by field.

On top of the encoder sit the three digests the engine uses: a
per-procedure ``cfg_digest`` over the CFG's statements and edges, the
``deep``-component digest payloads composed from them, and the persistent
store key ``summary_store_key`` for ``(domain, procedure, context,
deep_digest, entry state)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, List, Tuple

try:  # numpy backs the octagon domain; degrade gracefully without it.
    import numpy as _np
except Exception:  # pragma: no cover - numpy is a baked-in dependency
    _np = None


def canonical_bytes(value: Any) -> bytes:
    """A deterministic, process-independent encoding of ``value``.

    Raises :class:`TypeError` for values outside the supported grammar —
    silent fallback encodings (``repr`` of an arbitrary object, say) would
    turn digest mismatches into digest collisions.
    """
    out: List[bytes] = []
    _encode(value, out)
    return b"".join(out)


def canonical_digest(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_bytes`."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def _encode(value: Any, out: List[bytes]) -> None:
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        body = b"%d" % value
        out.append(b"i%d:" % len(body))
        out.append(body)
    elif isinstance(value, float):
        # Exact IEEE-754 bits: distinguishes everything repr might round
        # and is identical on every platform the tests run on.
        out.append(b"f")
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(b"s%d:" % len(body))
        out.append(body)
    elif isinstance(value, (bytes, bytearray)):
        out.append(b"b%d:" % len(value))
        out.append(bytes(value))
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _encode(item, out)
        out.append(b")")
    elif isinstance(value, (frozenset, set)):
        out.append(b"{")
        out.extend(sorted(canonical_bytes(item) for item in value))
        out.append(b"}")
    elif isinstance(value, dict):
        out.append(b"<")
        for key_bytes, value_bytes in sorted(
                (canonical_bytes(k), canonical_bytes(v))
                for k, v in value.items()):
            out.append(key_bytes)
            out.append(value_bytes)
        out.append(b">")
    elif _np is not None and isinstance(value, _np.ndarray):
        out.append(b"a")
        _encode(value.dtype.str, out)
        _encode(tuple(int(dim) for dim in value.shape), out)
        body = _np.ascontiguousarray(value).tobytes()
        out.append(b"b%d:" % len(body))
        out.append(body)
    else:
        _encode_object(value, out)


def _encode_object(value: Any, out: List[bytes]) -> None:
    # Interned immutable states memoize their encoding in a ``_cbytes``
    # slot: digests and store keys over the same (hash-consed) states are
    # then O(1) instead of re-walking the structure every time.  Cache
    # traffic is counted on the type's intern table (``intern_stats()``).
    cached = getattr(value, "_cbytes", None)
    if cached is not None:
        table = getattr(type(value), "_intern", None)
        if table is not None:
            table.encode_hits += 1
        out.append(cached)
        return
    cls = type(value)
    if "_cbytes" in getattr(cls, "__slots__", ()):
        sub: List[bytes] = []
        _encode_object_fresh(value, sub)
        encoded = b"".join(sub)
        object.__setattr__(value, "_cbytes", encoded)
        table = getattr(cls, "_intern", None)
        if table is not None:
            table.encode_misses += 1
        out.append(encoded)
        return
    _encode_object_fresh(value, out)


def _encode_object_fresh(value: Any, out: List[bytes]) -> None:
    cls = type(value)
    # Objects exposing a canonical() view (the shape domain's states hash
    # through frozensets of frozen heap records) encode through it.
    canonical = getattr(value, "canonical", None)
    if callable(canonical) and not isinstance(value, type):
        out.append(b"C")
        _encode("%s.%s" % (cls.__module__, cls.__qualname__), out)
        _encode(canonical(), out)
        return
    # States whose __reduce__ ships incidental non-identity fields (e.g.
    # the octagon's monotone ``closed`` flag, which can flip on the same
    # canonical object) expose ``__canonical_args__``: exactly the fields
    # that define the value, so equal states always encode equally.
    args_fn = getattr(value, "__canonical_args__", None)
    if callable(args_fn):
        out.append(b"R")
        _encode("%s.%s" % (cls.__module__, cls.__qualname__), out)
        _encode(tuple(args_fn()), out)
        return
    # Interned states and names: __reduce__ returns (constructor, args)
    # with primitive arguments — the exact cross-process identity the
    # parallel layer already relies on.
    if getattr(cls, "__reduce__", None) is not object.__reduce__:
        constructor, args = value.__reduce__()[:2]
        out.append(b"R")
        _encode("%s.%s" % (getattr(constructor, "__module__", ""),
                           getattr(constructor, "__qualname__",
                                   getattr(constructor, "__name__", ""))),
                out)
        _encode(tuple(args), out)
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(b"D")
        _encode("%s.%s" % (cls.__module__, cls.__qualname__), out)
        _encode(tuple((field.name, getattr(value, field.name))
                      for field in dataclasses.fields(value)), out)
        return
    raise TypeError("no canonical encoding for %r of type %s.%s"
                    % (value, cls.__module__, cls.__qualname__))


def cfg_digest(cfg: Any) -> str:
    """Content digest of one procedure's code.

    Hashes the canonical CFG facts — name, parameters, entry/exit
    locations, and the edge set as sorted ``(src, dst, str(statement))``
    triples — so the digest is independent of edge insertion order and of
    any in-memory artifacts (listeners, structure caches, analyses).
    Statements print deterministically, which makes this stable across
    processes and across reparses of the same source.

    The bytes are exactly ``canonical_bytes`` of the tuple
    ``("cfg", name, params, entry, exit, edges)``, but each edge's part is
    formatted once by :func:`_edge_fragment` and cached on the edge.
    Edges are immutable and every copy of a graph shares them, so a
    restarted engine over copies of the same code only sorts, joins and
    hashes.
    """
    out: List[bytes] = [b"("]
    for item in ("cfg", cfg.name, tuple(cfg.params), cfg.entry, cfg.exit):
        _encode(item, out)
    out.append(b"(")
    out.extend([fragment for _src, _dst, _text, fragment
                in sorted(map(_edge_fragment, cfg.edges))])
    out.append(b"))")
    return hashlib.sha256(b"".join(out)).hexdigest()


def _edge_fragment(edge: Any) -> Tuple[int, int, str, bytes]:
    """``(src, dst, text, canonical_bytes((src, dst, text)))`` for one CFG
    edge, where ``text`` is ``str(edge.stmt)``; the leading triple is the
    edge's sort key in :func:`cfg_digest`.  Cached in the frozen edge's
    ``__dict__`` (``CfgEdge.__getstate__`` keeps it out of pickles)."""
    cached = edge.__dict__.get("_fragment")
    if cached is None:
        src, dst, text = edge.src, edge.dst, str(edge.stmt)
        src_body, dst_body = b"%d" % src, b"%d" % dst
        text_body = text.encode("utf-8")
        encoded = b"(i%d:%si%d:%ss%d:%s)" % (
            len(src_body), src_body, len(dst_body), dst_body,
            len(text_body), text_body)
        cached = edge.__dict__["_fragment"] = (src, dst, text, encoded)
    return cached


def component_digest(members: Any, callee_digests: Any) -> str:
    """Digest of one call-graph SCC: its members' ``(name, cfg_digest)``
    pairs plus the deep digests of the components it calls into.  Composing
    per *component* (not per procedure) keeps mutually recursive
    procedures on one shared digest and the incremental recomputation a
    DAG post-order."""
    return canonical_digest(("deep", tuple(members), tuple(callee_digests)))


def summary_store_key(domain_name: str, procedure: str, context: Any,
                      deep_digest: str, entry_state: Any) -> str:
    """The persistent store key of one exit summary.

    Content-addressed by everything the summary depends on: the abstract
    domain, the procedure and analysis context, the deep code digest
    (procedure + transitive callees), and the entry state.  Two processes
    analyzing identical code at the same entry compute the same key.
    """
    return canonical_digest(("summary", 1, domain_name, procedure, context,
                             deep_digest, entry_state))
