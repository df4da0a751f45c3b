"""Context-sensitivity policies for interprocedural demanded analysis.

Section 7.1 of the paper: interprocedural analysis is parameterized by an
opaque context-sensitivity policy that chooses the context in which to
analyze a callee at each call site.  The implementation ships the same three
policies the paper's prototype provides: context-insensitivity and 1-/2-
call-site (call-string) sensitivity.

A *context* is an opaque hashable value; a *call site token* identifies the
call being analyzed (caller procedure plus the call statement).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Tuple

from ..lang import ast as A

#: A call-site token: (caller procedure name, the call statement).
CallSite = Tuple[str, A.CallStmt]
Context = Hashable

#: The context in which the program's entry procedure is analyzed.
ENTRY_CONTEXT: Tuple = ()


class ContextPolicy(ABC):
    """Chooses the analysis context of a callee for a given call."""

    name: str = "context-policy"

    @abstractmethod
    def callee_context(self, caller_context: Context, site: CallSite) -> Context:
        """The context in which to analyze the callee of ``site``."""


class ContextInsensitive(ContextPolicy):
    """Every call of a procedure is analyzed in one shared context."""

    name = "context-insensitive"

    def callee_context(self, caller_context: Context, site: CallSite) -> Context:
        return ENTRY_CONTEXT


class CallStringSensitive(ContextPolicy):
    """k-call-site (call-string) sensitivity: the context is the last ``k``
    call sites on the call stack (Sharir-Pnueli call strings, truncated)."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("call-string length must be at least 1")
        self.k = k
        self.name = "%d-call-site" % k

    def callee_context(self, caller_context: Context, site: CallSite) -> Context:
        previous: Tuple = caller_context if isinstance(caller_context, tuple) else ()
        token = (site[0], str(site[1]))
        return (previous + (token,))[-self.k:]


def policy_by_name(name: str) -> ContextPolicy:
    """Look up a policy by the names used in benchmarks and examples."""
    if name in ("insensitive", "context-insensitive", "0"):
        return ContextInsensitive()
    if name in ("1-call-site", "1cs", "1"):
        return CallStringSensitive(1)
    if name in ("2-call-site", "2cs", "2"):
        return CallStringSensitive(2)
    raise KeyError("unknown context policy %r" % (name,))
