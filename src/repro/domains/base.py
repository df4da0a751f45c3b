"""The generic abstract interpreter interface of Section 3.

An abstract interpreter, in the paper's terms, is the 6-tuple
``⟨Σ♯, φ0, ⟦·⟧♯, ⊑, ⊔, ∇⟩``:

* an abstract domain ``Σ♯`` forming a semi-lattice under ``⊑`` with join
  ``⊔`` and a bottom element,
* an initial abstract state ``φ0``,
* an abstract statement semantics ``⟦·⟧♯``,
* a widening operator ``∇`` that is an upper bound operator and enforces
  convergence of increasing chains.

:class:`AbstractDomain` encodes exactly this interface; every concrete
domain in :mod:`repro.domains` (sign, constant, interval, octagon, shape)
implements it, and both the classical batch interpreter (:mod:`repro.ai`)
and the DAIG engine (:mod:`repro.daig`) are parameterized over it.  The
framework never looks inside abstract states — they are opaque values moved
between reference cells — which is what makes the approach domain-agnostic.

Two optional extensions are used by parts of the reproduction:

* ``models`` exposes the concretization relation ``σ ⊨ φ`` so that the
  property-based soundness tests can check Definition 3.1 / Proposition 3.2,
* ``call_entry`` / ``call_return`` let the interprocedural engine map caller
  states into callee entry states and back (Section 7.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, Optional, Sequence, TypeVar

from ..lang import ast as A
from ..concrete.state import ConcreteState

StateT = TypeVar("StateT")


class AbstractDomain(ABC, Generic[StateT]):
    """The ⟨Σ♯, φ0, ⟦·⟧♯, ⊑, ⊔, ∇⟩ interface.

    Abstract states must be immutable values with structural equality: the
    DAIG memoizes on them and the convergence check of demanded unrolling
    compares consecutive loop-head iterates for equality.
    """

    #: A short human-readable name, used in benchmark output.
    name: str = "abstract"

    # -- lattice ---------------------------------------------------------------

    @abstractmethod
    def bottom(self) -> StateT:
        """The least element ⊥ (represents unreachability)."""

    @abstractmethod
    def initial(self, params: Sequence[str] = ()) -> StateT:
        """The initial abstract state φ0 for a procedure with ``params``."""

    @abstractmethod
    def join(self, left: StateT, right: StateT) -> StateT:
        """The least upper bound ⊔."""

    @abstractmethod
    def widen(self, older: StateT, newer: StateT) -> StateT:
        """The widening ∇: an upper bound of both arguments that enforces
        convergence of increasing chains."""

    @abstractmethod
    def leq(self, left: StateT, right: StateT) -> bool:
        """The partial order ⊑."""

    def equal(self, left: StateT, right: StateT) -> bool:
        """Abstract state equality; by default mutual ⊑."""
        return self.leq(left, right) and self.leq(right, left)

    def is_bottom(self, state: StateT) -> bool:
        """Whether ``state`` is (semantically) ⊥."""
        return self.equal(state, self.bottom())

    # -- semantics --------------------------------------------------------------

    @abstractmethod
    def transfer(self, stmt: A.AtomicStmt, state: StateT) -> StateT:
        """The abstract transfer function ⟦stmt⟧♯ applied to ``state``."""

    # -- concretization (optional, used by soundness tests) ---------------------

    def models(self, concrete: ConcreteState, abstract: StateT) -> bool:
        """Whether ``concrete ⊨ abstract`` (σ ∈ γ(φ)).

        Domains that do not implement a concretization may leave the default,
        which treats every state as a model (making soundness tests vacuous
        for that domain rather than wrong).
        """
        return True

    # -- interprocedural hooks (optional) ----------------------------------------

    def call_entry(
        self,
        caller_state: StateT,
        callee_params: Sequence[str],
        args: Sequence[A.Expr],
    ) -> StateT:
        """Abstract state at the callee's entry for a call with ``args``.

        The default is the coarsest sound choice: the callee's φ0 with no
        information about the arguments.
        """
        return self.initial(callee_params)

    def call_return(
        self,
        caller_state: StateT,
        callee_exit: StateT,
        target: Optional[str],
        args: Sequence[A.Expr] = (),
    ) -> StateT:
        """Caller abstract state after the call returns.

        The default havocs the call target (by re-running ``initial`` we
        would lose the caller's locals, so instead subclasses are strongly
        encouraged to override; the default simply returns the caller state
        with no binding for the target, which is sound only for domains that
        treat unbound variables as unconstrained).
        """
        return caller_state

    # -- misc --------------------------------------------------------------------

    def describe(self, state: StateT) -> str:
        """A short human-readable rendering of an abstract state."""
        return str(state)


class DomainError(Exception):
    """Raised when a domain is asked to do something it cannot express."""


def chain_is_increasing(domain: AbstractDomain, chain: Iterable[Any]) -> bool:
    """Check that ``chain`` is increasing under the domain's ⊑ (test helper)."""
    previous = None
    for element in chain:
        if previous is not None and not domain.leq(previous, element):
            return False
        previous = element
    return True


def widen_sequence(domain: AbstractDomain, chain: Sequence[Any], limit: int = 1000) -> Any:
    """Fold a chain with ∇ as in the definition of widening convergence.

    Returns the limit of ``w0 = x0, w_{i+1} = w_i ∇ x_{i+1}``; raises
    :class:`DomainError` if it fails to converge within ``limit`` steps.
    Used by property tests to check that widening enforces convergence.
    """
    if not chain:
        raise DomainError("cannot widen an empty chain")
    accumulator = chain[0]
    for index, element in enumerate(chain[1:]):
        if index > limit:
            raise DomainError("widening failed to converge")
        nxt = domain.widen(accumulator, element)
        if domain.equal(nxt, accumulator):
            return accumulator
        accumulator = nxt
    return accumulator
