"""Persistent content-addressed summary storage (ROADMAP item 3).

Exit summaries are keyed by ``(procedure, context, deep code digest,
entry state)`` — every component content-addressed and process-independent
— and persisted through a pluggable :class:`SummaryStore` (in-memory or
sqlite), so a restarted engine, or a second engine on the same code,
starts from hits instead of recomputing.  The interprocedural engine is
the store's only reader.
"""

from .base import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    StoreDecodeError,
    SummaryStore,
    decode_summary,
    encode_summary,
)
from .backends import (
    InMemorySummaryStore,
    SqliteSummaryStore,
    open_store,
)
from .canonical import (
    canonical_bytes,
    canonical_digest,
    cfg_digest,
    component_digest,
    summary_store_key,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "InMemorySummaryStore",
    "SqliteSummaryStore",
    "StoreDecodeError",
    "SummaryStore",
    "canonical_bytes",
    "canonical_digest",
    "cfg_digest",
    "component_digest",
    "decode_summary",
    "encode_summary",
    "open_store",
    "summary_store_key",
]
